import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from conftest import draw_distribution, draw_mechanism, traced_peak

import mcartest.synthesis
from mcartest import (
    ColumnRoles,
    Dataset,
    DegenerateDataError,
    DistributionSpec,
    MechanismSpec,
    apply_mechanism,
    generate,
    pattern_names,
    rng_stream,
)
from mcartest.numerics import chi2_quantile
from mcartest.synthesis import amputate_block, fit_mechanism, generate_block

KS_1PCT = 1.6276  # asymptotic 1% critical coefficient: reject if D > c/sqrt(n)


def roles_for(p, q):
    return ColumnRoles(tuple(range(p)), tuple(range(p, p + q)))


def amputate(ds, roles, rng, **spec):
    """apply_mechanism with the MechanismSpec built from ``spec``."""
    return apply_mechanism(ds, roles, MechanismSpec(**spec), rng)


class TestSpecs:
    def test_distribution_validation(self):
        with pytest.raises(ValueError):
            DistributionSpec(kind="weird", dim=2)
        with pytest.raises(ValueError):
            DistributionSpec(kind="std_normal", dim=2, theta=1.0)
        with pytest.raises(ValueError):
            DistributionSpec(kind="clayton", dim=1, theta=1.0, margins=("exp1",))
        with pytest.raises(ValueError):
            DistributionSpec(kind="clayton", dim=2, theta=0.0, margins=("exp1",) * 2)
        with pytest.raises(ValueError):
            DistributionSpec(kind="clayton", dim=2, theta=1.0, margins=("exp1",))
        with pytest.raises(ValueError):
            DistributionSpec(kind="clayton", dim=2, theta=1.0, margins=("beta", "exp1"))

    def test_distribution_round_trip(self):
        spec = DistributionSpec(
            kind="clayton", dim=3, theta=1.0, margins=("exp1", "chisq4", "uniform")
        )
        assert DistributionSpec.from_dict(spec.to_dict()) == spec
        plain = DistributionSpec(kind="std_normal", dim=4)
        assert DistributionSpec.from_dict(plain.to_dict()) == plain

    def test_defaults_live_in_the_specs(self):
        # a field the kind reads takes the spec's default when left out
        clayton = DistributionSpec.from_dict({"kind": "clayton", "dim": 3})
        assert clayton == DistributionSpec(kind="clayton", dim=3, theta=1, margins=["exp1"] * 3)
        assert DistributionSpec(kind="std_normal", dim=3).to_dict() == {
            "kind": "std_normal", "dim": 3,
        }
        for kind in ("mcar", "mar_1_to_x", "mar_rank"):
            spec = MechanismSpec.from_dict({"kind": kind})
            assert spec == MechanismSpec(kind=kind, miss_prob=0.12)
        assert MechanismSpec(kind="mar_mean").to_dict() == {"kind": "mar_mean"}

    def test_mechanism_validation(self):
        with pytest.raises(ValueError):
            MechanismSpec(kind="nope", miss_prob=0.1)
        with pytest.raises(ValueError):
            MechanismSpec(kind="mcar", miss_prob=1.2)
        with pytest.raises(ValueError):
            MechanismSpec(kind="mcar", miss_prob=0.1, odds=3.0)
        with pytest.raises(ValueError):
            MechanismSpec(kind="mar_1_to_x", miss_prob=0.6, odds=9.0)  # p_high > 1
        with pytest.raises(ValueError):
            MechanismSpec(kind="mar_mean", p_high=(0.1,))  # p_low missing
        # a field the kind never reads is an error, not ignored
        with pytest.raises(ValueError, match="mar_mean takes no miss_prob"):
            MechanismSpec(kind="mar_mean", miss_prob=0.1)
        with pytest.raises(ValueError, match="mcar takes no controls"):
            MechanismSpec(kind="mcar", miss_prob=0.1, controls=(0,))

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: MechanismSpec(kind="mcar", miss_prob="0.1"), "miss_prob must be a number"),
            (lambda: MechanismSpec(kind="mar_1_to_x", miss_prob=0.1, odds="3"), "odds must be"),
            (
                lambda: MechanismSpec(kind="mar_mean", p_high=(0.1, True), p_low=(0.1, 0.2)),
                "p_high must be a number, got True",
            ),
            (
                lambda: MechanismSpec(kind="mar_rank", miss_prob=0.1, controls=(1.5,)),
                "controls entry must be an integer, got 1.5",
            ),
            (lambda: DistributionSpec(kind="std_normal", dim=True), "dim must be an integer"),
            (
                lambda: DistributionSpec(kind="clayton", dim=2, theta="2", margins=("exp1",) * 2),
                "theta must be a number, got '2'",
            ),
            # nor is a list field given as one value
            (
                lambda: MechanismSpec.from_dict({"kind": "mcar", "miss_prob": 0.1, "controls": 0}),
                "controls must be a list, got 0",
            ),
            (
                lambda: MechanismSpec.from_dict(
                    {"kind": "mar_mean", "p_high": "0.1", "p_low": "0.2"}
                ),
                "p_high must be a list, got '0.1'",
            ),
            (
                lambda: DistributionSpec.from_dict(
                    {"kind": "clayton", "dim": 2, "theta": 1.0, "margins": "exp1"}
                ),
                "margins must be a list, got 'exp1'",
            ),
        ],
    )
    def test_fields_reject_wrong_json_types(self, make, message):
        # a quoted number, a bool or a bare value from a JSON file is not converted
        with pytest.raises(ValueError, match=message):
            make()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -(10**400)])
    @pytest.mark.parametrize(
        "make, name",
        [
            (lambda x: DistributionSpec(kind="clayton", dim=2, theta=x), "theta"),
            (lambda x: MechanismSpec(kind="mcar", miss_prob=x), "miss_prob"),
            (lambda x: MechanismSpec(kind="mar_1_to_x", odds=x), "odds"),
            (lambda x: MechanismSpec(kind="mar_mean", p_high=(0.1, x), p_low=(0.1, 0.2)), "p_high"),
            (lambda x: MechanismSpec(kind="mar_mean", p_high=(0.1, 0.2), p_low=(x, 0.2)), "p_low"),
        ],
    )
    def test_fields_reject_non_finite_numbers(self, make, name, value):
        # one rule for every number: NaN passes every range check, an
        # infinite odds makes the high-group rate inf/inf, and float() of a
        # 400-digit integer overflows
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
            make(value)

    def test_mechanism_round_trip(self):
        spec = MechanismSpec(
            kind="mar_mean",
            controls=(0, 0),
            p_high=(0.12, 0.02),
            p_low=(0.06, 0.175),
        )
        assert MechanismSpec.from_dict(spec.to_dict()) == spec
        default_odds = MechanismSpec(kind="mar_1_to_x", miss_prob=0.1)
        assert default_odds.odds == 9.0


class TestGenerators:
    def test_std_normal_moments(self):
        ds = generate(DistributionSpec(kind="std_normal", dim=3), 10000, rng_stream(1, 0))
        assert ds.mask.all()
        assert np.all(np.abs(ds.values.mean(axis=0)) < 4.0 / np.sqrt(10000))
        assert np.all(np.abs(ds.values.var(axis=0) - 1.0) < 0.1)

    def test_std_normal_determinism(self):
        a = generate(DistributionSpec(kind="std_normal", dim=2), 100, rng_stream(9, 4))
        b = generate(DistributionSpec(kind="std_normal", dim=2), 100, rng_stream(9, 4))
        np.testing.assert_array_equal(a.values, b.values)

    def test_clayton_kendall_tau(self):
        spec = DistributionSpec(
            kind="clayton", dim=2, theta=1.0, margins=("uniform", "uniform")
        )
        ds = generate(spec, 10000, rng_stream(2, 0))
        tau = sps.kendalltau(ds.values[:, 0], ds.values[:, 1]).statistic
        assert abs(tau - 1.0 / 3.0) < 0.02

    def test_clayton_margins_ks(self):
        spec = DistributionSpec(
            kind="clayton", dim=3, theta=1.0, margins=("uniform", "exp1", "chisq4")
        )
        ds = generate(spec, 5000, rng_stream(3, 0))
        crit = KS_1PCT / np.sqrt(5000)
        assert sps.kstest(ds.values[:, 0], "uniform").statistic < crit
        assert sps.kstest(ds.values[:, 1], "expon").statistic < crit
        assert sps.kstest(ds.values[:, 2], sps.chi2(4).cdf).statistic < crit

    def test_clayton_exp_margin_mean(self):
        spec = DistributionSpec(
            kind="clayton", dim=2, theta=1.0, margins=("exp1", "exp1")
        )
        ds = generate(spec, 10000, rng_stream(4, 0))
        assert abs(ds.values[:, 0].mean() - 1.0) < 0.05

    def test_margin_transform_is_quantile_map(self):
        # chisq4 margin equals the quantile transform of the uniform margin
        u_spec = DistributionSpec(
            kind="clayton", dim=2, theta=1.0, margins=("uniform", "uniform")
        )
        c_spec = DistributionSpec(
            kind="clayton", dim=2, theta=1.0, margins=("chisq4", "chisq4")
        )
        u = generate(u_spec, 200, rng_stream(5, 0))
        c = generate(c_spec, 200, rng_stream(5, 0))
        np.testing.assert_allclose(
            c.values, chi2_quantile(u.values, 4), rtol=1e-10
        )

    def test_generate_dispatch(self):
        spec = DistributionSpec(kind="std_normal", dim=2)
        ds = generate(spec, 10, rng_stream(6, 0), names=("a", "b"))
        assert ds.column_names == ("a", "b")
        assert ds.n == 10

    def test_dataset_adopts_the_generated_block(self, monkeypatch):
        # generate's arrays are fresh and no one else holds them, so the
        # Dataset keeps the block it drew instead of copying it
        blocks = []

        def recorded(spec, rngs, out):
            blocks.append(out)
            return generate_block(spec, rngs, out)

        monkeypatch.setattr(mcartest.synthesis, "generate_block", recorded)
        ds = generate(DistributionSpec(kind="std_normal", dim=3), 50, rng_stream(6, 0))
        assert np.shares_memory(ds.values, blocks[0])
        assert ds.values.tobytes() == blocks[0][0].tobytes()
        assert not ds.values.flags.writeable and not ds.mask.flags.writeable

    def test_dataset_adopts_the_amputated_mask(self, monkeypatch):
        # apply_mechanism's mask is a fresh copy that amputate_block writes
        # and no one else holds, so the Dataset keeps it instead of copying
        masks = []

        def recorded(values, mask, roles, spec, rngs):
            masks.append(mask)
            return amputate_block(values, mask, roles, spec, rngs)

        monkeypatch.setattr(mcartest.synthesis, "amputate_block", recorded)
        ds = generate(DistributionSpec(kind="std_normal", dim=3), 50, rng_stream(6, 0))
        out = amputate(ds, roles_for(1, 2), rng_stream(6, 1), kind="mcar", miss_prob=0.3)
        assert np.shares_memory(out.mask, masks[0])
        assert out.mask.tobytes() == masks[0][0].tobytes() and not out.mask.all()
        assert not out.mask.flags.writeable and not np.shares_memory(out.mask, ds.mask)

    def test_generate_and_amputate_hold_one_column_beside_their_arrays(self):
        # the csv_roundtrip data: an exp1 margin is applied in place, and a
        # target's cells are kept by comparing its uniforms through its
        # control's split, with no float threshold per row.  Beside the
        # returned dataset, the full mask it was made from and amputation's
        # (targets, n) uniforms, the two peak at one float column
        n = 200_000
        dist = DistributionSpec(kind="clayton", dim=5, theta=1.0, margins=("exp1",) * 5)
        spec = MechanismSpec(kind="mar_1_to_x", miss_prob=0.12, odds=9.0)
        roles = roles_for(2, 3)

        def both():
            full = generate(dist, n, rng_stream(0, 0))
            return apply_mechanism(full, roles, spec, rng_stream(0, 1))

        peak, ds = traced_peak(both)
        column = n * 8
        returned = ds.values.nbytes + ds.mask.nbytes
        assert peak <= returned + ds.mask.nbytes + 3 * column + column + 2**17
        alone, _ = traced_peak(generate, dist, n, rng_stream(0, 0))
        assert alone <= returned + column + 2**17

    def test_pattern_names(self):
        assert pattern_names(2, 3) == ("x1", "x2", "y1", "y2", "y3")


class TestMcar:
    def test_p_zero_and_one(self, rng):
        ds = generate(DistributionSpec(kind="std_normal", dim=3), 40, rng)
        roles = roles_for(1, 2)
        unchanged = amputate(ds, roles, rng, kind="mcar", miss_prob=0.0)
        assert unchanged.mask.all()
        gone = amputate(ds, roles, rng, kind="mcar", miss_prob=1.0)
        assert not gone.mask[:, 1:].any()
        assert gone.mask[:, 0].all()

    def test_binomial_bound(self):
        # per target column: Binomial(5000, 0.12), mean 600, sd ~ 23
        ds = generate(DistributionSpec(kind="std_normal", dim=3), 5000, rng_stream(7, 0))
        out = amputate(ds, roles_for(1, 2), rng_stream(7, 1), kind="mcar", miss_prob=0.12)
        sd = np.sqrt(5000 * 0.12 * 0.88)
        missing = (~out.mask).sum(axis=0)
        assert missing[0] == 0
        for count in missing[1:]:
            assert abs(count - 600) <= 4 * sd
        assert abs(missing.sum() - 1200) <= 4 * np.sqrt(2) * sd

    def test_cellwise_independence(self):
        ds = generate(DistributionSpec(kind="std_normal", dim=2), 6, rng_stream(8, 0))
        roles = roles_for(1, 1)
        draws = np.array(
            [
                ~amputate(
                    ds, roles, rng_stream(8, 1, rep), kind="mcar", miss_prob=0.4
                ).mask[:, 1]
                for rep in range(5000)
            ],
            dtype=float,
        )
        corr = np.corrcoef(draws.T)
        off_diag = corr[~np.eye(6, dtype=bool)]
        assert np.all(np.abs(off_diag) < 0.03)

    def test_complete_columns_untouched(self, rng):
        ds = generate(DistributionSpec(kind="std_normal", dim=4), 100, rng)
        roles = roles_for(2, 2)
        out = amputate(ds, roles, rng, kind="mcar", miss_prob=0.5)
        assert out.mask[:, :2].all()


class TestMar1ToX:
    def test_x_one_is_exactly_mcar(self):
        ds = generate(DistributionSpec(kind="std_normal", dim=3), 200, rng_stream(10, 0))
        roles = roles_for(1, 2)
        a = amputate(
            ds, roles, rng_stream(10, 1),
            kind="mar_1_to_x", miss_prob=0.2, odds=1.0,
        )
        b = amputate(ds, roles, rng_stream(10, 1), kind="mcar", miss_prob=0.2)
        np.testing.assert_array_equal(a.mask, b.mask)

    def test_group_rates(self):
        # x=9, p=0.1: high group rate 0.18, low group rate 0.02
        n = 20000
        ds = generate(DistributionSpec(kind="std_normal", dim=2), n, rng_stream(11, 0))
        roles = roles_for(1, 1)
        out = amputate(
            ds, roles, rng_stream(11, 1),
            kind="mar_1_to_x", miss_prob=0.1, odds=9.0,
        )
        control = ds.values[:, 0]
        high = control > np.median(control)
        rate_high = (~out.mask[high, 1]).mean()
        rate_low = (~out.mask[~high, 1]).mean()
        assert abs(rate_high - 0.18) < 4 * np.sqrt(0.18 * 0.82 / high.sum())
        assert abs(rate_low - 0.02) < 4 * np.sqrt(0.02 * 0.98 / (~high).sum())
        assert abs((~out.mask[:, 1]).mean() - 0.1) < 0.01

    def test_median_tie_rule(self):
        # ties with the median fall in the low group; only strict winners high
        vals = np.array([[1.0, 0], [2.0, 0], [2.0, 0], [3.0, 0]])
        ds = Dataset(vals, np.ones((4, 2), bool), ("x1", "y1"))
        roles = roles_for(1, 1)
        # p chosen so p_high = 1, p_low = 0: exactly the high rows vanish
        out = amputate(
            ds, roles, rng_stream(12, 1),
            kind="mar_1_to_x", miss_prob=0.5, odds=1e9,
        )
        np.testing.assert_array_equal(out.mask[:, 1], [True, True, True, False])

    def test_probability_cap(self, rng):
        ds = generate(DistributionSpec(kind="std_normal", dim=2), 50, rng)
        with pytest.raises(ValueError, match="exceeds 1"):
            amputate(ds, roles_for(1, 1), rng, kind="mar_1_to_x", miss_prob=0.6, odds=9.0)

    def test_distribution_matches_mcar_at_x1(self):
        # chi-square goodness of fit on (group, missing) counts over many reps
        n = 40
        ds = generate(DistributionSpec(kind="std_normal", dim=2), n, rng_stream(13, 0))
        roles = roles_for(1, 1)
        control = ds.values[:, 0]
        high = control > np.median(control)
        counts = np.zeros(2)  # missing cells in (low, high) groups
        reps = 2000
        for rep in range(reps):
            out = amputate(
                ds, roles, rng_stream(13, 1, rep),
                kind="mar_1_to_x", miss_prob=0.25, odds=1.0,
            )
            miss = ~out.mask[:, 1]
            counts[0] += (miss & ~high).sum()
            counts[1] += (miss & high).sum()
        total = counts.sum()
        expected = total * np.array(
            [(~high).sum() / n, high.sum() / n]
        )
        stat = ((counts - expected) ** 2 / expected).sum()
        assert stat < chi2_quantile(0.99, 1)


    def test_shared_control_matches_per_target_reference(self):
        # at p=1, q=3 every target is controlled by column 0; the median is
        # taken once, and the mask and the draws are those of a literal
        # per-target loop
        ds = generate(DistributionSpec(kind="std_normal", dim=4), 101, rng_stream(21, 0))
        roles = roles_for(1, 3)
        out = amputate(
            ds, roles, rng_stream(21, 1),
            kind="mar_1_to_x", miss_prob=0.2, odds=9.0,
        )
        rng = rng_stream(21, 1)
        want = np.ones((101, 4), dtype=bool)
        for j in (1, 2, 3):
            control = ds.values[:, 0]
            high = control > np.median(control)
            threshold = np.where(high, 2 * 0.2 * 9.0 / 10.0, 2 * 0.2 / 10.0)
            want[:, j] = rng.random(101) >= threshold
        np.testing.assert_array_equal(out.mask, want)


class TestMarRank:
    def test_exact_count(self):
        ds = generate(DistributionSpec(kind="std_normal", dim=2), 100, rng_stream(14, 0))
        roles = roles_for(1, 1)
        out = amputate(ds, roles, rng_stream(14, 1), kind="mar_rank", miss_prob=0.13)
        assert (~out.mask[:, 1]).sum() == 13  # round(100 * 0.13)
        out = amputate(ds, roles, rng_stream(14, 1), kind="mar_rank", miss_prob=0.125)
        assert (~out.mask[:, 1]).sum() == 13  # 12.5 rounds half up

    def test_all_masked_at_p_one(self):
        ds = generate(DistributionSpec(kind="std_normal", dim=2), 17, rng_stream(15, 0))
        out = amputate(
            ds, roles_for(1, 1), rng_stream(15, 1),
            kind="mar_rank", miss_prob=1.0,
        )
        assert not out.mask[:, 1].any()

    def test_p_zero_unchanged(self):
        ds = generate(DistributionSpec(kind="std_normal", dim=2), 10, rng_stream(16, 0))
        out = amputate(
            ds, roles_for(1, 1), rng_stream(16, 1),
            kind="mar_rank", miss_prob=0.0,
        )
        assert out.mask.all()

    def test_two_row_weights(self):
        # ranks 1:2, one draw: row with the larger control masked 2/3 of the time
        vals = np.array([[1.0, 0.0], [2.0, 0.0]])
        ds = Dataset(vals, np.ones((2, 2), bool), ("x1", "y1"))
        roles = roles_for(1, 1)
        hits = 0
        trials = 10000
        for rep in range(trials):
            out = amputate(
                ds, roles, rng_stream(17, 1, rep),
                kind="mar_rank", miss_prob=0.5,
            )
            hits += not out.mask[1, 1]
        assert abs(hits / trials - 2.0 / 3.0) < 0.03


class TestMarMean:
    def test_equal_rates_is_exactly_mcar(self):
        ds = generate(DistributionSpec(kind="std_normal", dim=3), 150, rng_stream(18, 0))
        roles = roles_for(1, 2)
        a = amputate(
            ds, roles, rng_stream(18, 1),
            kind="mar_mean", controls=(0, 0), p_high=(0.2, 0.2), p_low=(0.2, 0.2),
        )
        b = amputate(ds, roles, rng_stream(18, 1), kind="mcar", miss_prob=0.2)
        np.testing.assert_array_equal(a.mask, b.mask)

    def test_stock_rates_fractions(self):
        # (0.12 + 0.06)/2 = 0.09 and (0.02 + 0.175)/2 = 0.0975
        ds = generate(DistributionSpec(kind="std_normal", dim=3), 5000, rng_stream(19, 0))
        roles = roles_for(1, 2)
        spec = MechanismSpec(kind="mar_mean")
        out = apply_mechanism(ds, roles, spec, rng_stream(19, 1))
        frac = (~out.mask).mean(axis=0)
        assert abs(frac[1] - 0.09) < 0.02
        assert abs(frac[2] - 0.0975) < 0.02

    def test_shared_control_matches_per_target_reference(self):
        # the targets are the roles' incomplete columns, in roles order
        ds = generate(DistributionSpec(kind="std_normal", dim=4), 97, rng_stream(22, 0))
        rules = [(3, 0, 0.3, 0.05), (1, 0, 0.1, 0.2), (2, 0, 0.02, 0.175)]
        targets, controls, p_high, p_low = zip(*rules)
        out = amputate(
            ds, ColumnRoles((0,), targets), rng_stream(22, 1), kind="mar_mean",
            controls=controls, p_high=p_high, p_low=p_low,
        )
        rng = rng_stream(22, 1)
        want = np.ones((97, 4), dtype=bool)
        for j, c, p_high, p_low in rules:
            control = ds.values[:, c]
            threshold = np.where(control > control.mean(), p_high, p_low)
            want[:, j] = rng.random(97) >= threshold
        np.testing.assert_array_equal(out.mask, want)

    def test_constant_control_goes_low(self):
        vals = np.column_stack([np.full(30, 2.0), np.zeros(30)])
        ds = Dataset(vals, np.ones((30, 2), bool), ("x1", "y1"))
        roles = roles_for(1, 1)
        out = amputate(
            ds, roles, rng_stream(20, 1),
            kind="mar_mean", controls=(0,), p_high=(1.0,), p_low=(0.0,),
        )
        assert out.mask.all()  # everyone in the low group at rate 0


class TestDispatcherAndDefaults:
    def test_default_controls_round_robin(self):
        roles = ColumnRoles((0, 1), (2, 3, 4))
        spec = MechanismSpec(kind="mar_rank", miss_prob=0.1)
        assert fit_mechanism(spec, roles) == ((2, 3, 4), (0, 1, 0))
        mcar = MechanismSpec(kind="mcar", miss_prob=0.1)
        assert fit_mechanism(mcar, roles) == ((2, 3, 4), None)  # mcar has no controls

    def test_dispatch_each_kind(self):
        ds = generate(DistributionSpec(kind="std_normal", dim=3), 80, rng_stream(21, 0))
        roles = roles_for(1, 2)
        for spec in [
            MechanismSpec(kind="mcar", miss_prob=0.15),
            MechanismSpec(kind="mar_1_to_x", miss_prob=0.15),
            MechanismSpec(kind="mar_rank", miss_prob=0.15),
            MechanismSpec(kind="mar_mean", p_high=(0.2, 0.1), p_low=(0.1, 0.2)),
        ]:
            out = apply_mechanism(ds, roles, spec, rng_stream(21, 1))
            assert out.mask[:, 0].all()
            assert (~out.mask[:, 1:]).any()

    def test_draws_follow_target_order(self):
        # the first target, the roles' first incomplete column, takes the
        # first draw: listing the two the other way round swaps their masks
        ds = generate(DistributionSpec(kind="std_normal", dim=3), 60, rng_stream(23, 0))
        for spec in [
            dict(kind="mcar", miss_prob=0.3),
            dict(kind="mar_1_to_x", miss_prob=0.3),
            dict(kind="mar_rank", miss_prob=0.3),
            dict(kind="mar_mean", p_high=(0.4, 0.4), p_low=(0.1, 0.1)),
        ]:
            ahead = amputate(ds, ColumnRoles((0,), (1, 2)), rng_stream(23, 1), **spec)
            behind = amputate(ds, ColumnRoles((0,), (2, 1)), rng_stream(23, 1), **spec)
            np.testing.assert_array_equal(ahead.mask[:, [1, 2]], behind.mask[:, [2, 1]])

    def test_target_validation(self, rng):
        ds = generate(DistributionSpec(kind="std_normal", dim=3), 20, rng)
        roles = roles_for(1, 2)
        with pytest.raises(ValueError, match="not a complete column"):
            amputate(ds, roles, rng, kind="mar_rank", miss_prob=0.2, controls=(1, 2))
        with pytest.raises(ValueError, match="one control per target"):
            amputate(ds, roles, rng, kind="mar_rank", miss_prob=0.2, controls=(0,))
        with pytest.raises(ValueError, match=r"pair per target \(2\), got 1"):
            amputate(ds, roles, rng, kind="mar_mean", p_high=(0.1,), p_low=(0.2,))
        # no incomplete column to amputate is a property of the data
        with pytest.raises(DegenerateDataError, match="no target columns"):
            amputate(ds, roles_for(3, 0), rng, kind="mcar", miss_prob=0.2)

    @pytest.mark.parametrize(
        "spec",
        [dict(kind="mar_1_to_x", miss_prob=0.2), dict(kind="mar_rank", miss_prob=0.2),
         dict(kind="mar_mean")],
    )
    def test_default_controls_need_a_complete_column(self, spec):
        # with no complete column there is no control to default to
        match = f"{spec['kind']}'s controls must be complete columns; there are none"
        with pytest.raises(ValueError, match=match):
            fit_mechanism(MechanismSpec.from_dict(spec), ColumnRoles((), (0, 1)))


@st.composite
def amputation_cases(draw):
    """A dataset with some cells already missing, its roles and a spec."""
    p, q = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n = draw(st.integers(1, 60))
    seed = draw(st.integers(0, 2**32 - 1))
    return p, q, n, seed, draw(st.booleans()), draw_mechanism(draw, p, q)


@settings(max_examples=200, deadline=None)
@given(case=amputation_cases())
def test_apply_mechanism_properties(case):
    p, q, n, seed, ties, spec = case
    roles = roles_for(p, q)
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, p + q))
    if ties:
        values = np.round(values)
    observed = np.ones((n, p + q), dtype=bool)
    observed[:, p:] = rng.random((n, q)) >= 0.2
    full = Dataset(values, np.ones_like(observed), pattern_names(p, q))
    ds = full.with_mask(observed)

    out = apply_mechanism(ds, roles, spec, rng_stream(seed, 1))
    np.testing.assert_array_equal(out.values, ds.values)
    assert not (out.mask & ~ds.mask).any()  # no missing cell comes back
    targets = list(fit_mechanism(spec, roles)[0])
    others = [j for j in range(p + q) if j not in targets]
    np.testing.assert_array_equal(out.mask[:, others], ds.mask[:, others])
    # the draws read values only: the mask of ``ds`` just adds its own cells
    from_full = apply_mechanism(full, roles, spec, rng_stream(seed, 1))
    np.testing.assert_array_equal(out.mask, from_full.mask & ds.mask)
    if spec.kind == "mar_rank":
        m = int(np.floor(n * spec.miss_prob + 0.5))  # round(n*p), halves up
        assert list((~from_full.mask[:, targets]).sum(axis=0)) == [m] * len(targets)


@st.composite
def block_cases(draw):
    """A block of 1-9 replications: its shape, distribution and mechanism.

    n runs past 128, where numpy's pairwise sum of a row (mar_mean's mean)
    splits into blocks.
    """
    p, q = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    dist = draw_distribution(draw, p + q)
    reps = draw(st.integers(1, 9))
    n = draw(st.integers(3, 300))
    seed = draw(st.integers(0, 2**32 - 1))
    return p, q, n, reps, seed, dist, draw_mechanism(draw, p, q)


@settings(max_examples=150, deadline=None)
@given(case=block_cases())
def test_blocks_match_one_dataset_calls(case):
    # each replication of a block has the bytes of generate + apply_mechanism
    # on its own two streams
    p, q, n, reps, seed, dist, spec = case
    roles = roles_for(p, q)
    values = generate_block(
        dist, (rng_stream(seed, rep, 0) for rep in range(reps)), np.empty((reps, n, p + q))
    )
    mask = np.ones(values.shape, dtype=bool)
    amputate_block(values, mask, roles, spec, (rng_stream(seed, rep, 1) for rep in range(reps)))
    for rep in range(reps):
        full = generate(dist, n, rng_stream(seed, rep, 0))
        ds = apply_mechanism(full, roles, spec, rng_stream(seed, rep, 1))
        assert values[rep].tobytes() == ds.values.tobytes()
        assert mask[rep].tobytes() == ds.mask.tobytes()


def rate_rule_mask(values, roles, spec, rng):
    """One (n, d) dataset's mask under ``spec``, from the mechanisms' rules
    as numpy and scipy give them: the reference for ``amputate_block``.

    A per-row rate (``miss_prob``, or the high rate above the control's
    median or mean and the low one elsewhere) is compared with the
    target's uniforms as one float threshold per row; mar_rank weighs
    ``rng.choice`` by scipy's average ranks.
    """
    targets, controls = fit_mechanism(spec, roles)
    n = len(values)
    mask = np.ones(values.shape, dtype=bool)
    if spec.kind == "mar_rank":
        m = int(np.floor(n * spec.miss_prob + 0.5))
        for j, c in zip(targets, controls):
            if m:
                weights = sps.rankdata(values[:, c])
                mask[rng.choice(n, size=m, replace=False, p=weights / weights.sum()), j] = False
        return mask
    uniforms = rng.random((len(targets), n))
    for t, j in enumerate(targets):
        if spec.kind == "mcar":
            rate = spec.miss_prob
        else:
            control = values[:, controls[t]]
            if spec.kind == "mar_1_to_x":
                p, x = spec.miss_prob, spec.odds
                high, low = min(2.0 * p * x / (x + 1.0), 1.0), 2.0 * p / (x + 1.0)
                above = control > np.median(control)
            else:
                defaults = mcartest.synthesis.DEFAULT_MAR_MEAN_RATES
                high, low = (
                    defaults[t % 2] if spec.p_high is None else (spec.p_high[t], spec.p_low[t])
                )
                above = control > control.mean()
            rate = np.where(above, high, low)
        mask[:, j] = uniforms[t] >= rate
    return mask


@settings(max_examples=150, deadline=None)
@given(case=block_cases())
def test_block_masks_follow_the_rate_rule(case):
    # every mechanism, in a block of any size, masks each dataset's cells as
    # its per-row rate thresholds do
    p, q, n, reps, seed, dist, spec = case
    roles = roles_for(p, q)
    values = generate_block(
        dist, (rng_stream(seed, rep, 0) for rep in range(reps)), np.empty((reps, n, p + q))
    )
    mask = np.ones(values.shape, dtype=bool)
    amputate_block(values, mask, roles, spec, (rng_stream(seed, rep, 1) for rep in range(reps)))
    for rep in range(reps):
        want = rate_rule_mask(values[rep], roles, spec, rng_stream(seed, rep, 1))
        assert mask[rep].tobytes() == want.tobytes()
