import numpy as np
import pytest
from scipy import stats as sps

from mcartest import (
    ColumnRoles,
    Dataset,
    DistributionSpec,
    MechanismSpec,
    apply_mar_1_to_x,
    apply_mar_mean,
    apply_mar_rank,
    apply_mcar,
    apply_mechanism,
    default_controls,
    gen_clayton,
    gen_std_normal,
    generate,
    pattern_names,
    rng_stream,
)
from mcartest.numerics import chi2_quantile

KS_1PCT = 1.6276  # asymptotic 1% critical coefficient: reject if D > c/sqrt(n)


def roles_for(p, q):
    return ColumnRoles(tuple(range(p)), tuple(range(p, p + q)))


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

    def test_mechanism_validation(self):
        with pytest.raises(ValueError):
            MechanismSpec(kind="nope", miss_prob=0.1)
        with pytest.raises(ValueError):
            MechanismSpec(kind="mcar")  # missing miss_prob
        with pytest.raises(ValueError):
            MechanismSpec(kind="mcar", miss_prob=1.2)
        with pytest.raises(ValueError):
            MechanismSpec(kind="mcar", miss_prob=0.1, odds=3.0)
        with pytest.raises(ValueError):
            MechanismSpec(kind="mar_1_to_x", miss_prob=0.6, odds=9.0)  # p_high > 1
        with pytest.raises(ValueError):
            MechanismSpec(kind="mar_mean", p_high=(0.1,))  # p_low missing

    def test_mechanism_round_trip(self):
        spec = MechanismSpec(
            kind="mar_mean",
            target_columns=(1, 2),
            controls=(0, 0),
            p_high=(0.12, 0.02),
            p_low=(0.06, 0.175),
        )
        assert MechanismSpec.from_dict(spec.to_dict()) == spec
        default_odds = MechanismSpec(kind="mar_1_to_x", miss_prob=0.1)
        assert default_odds.odds == 9.0


class TestGenerators:
    def test_std_normal_moments(self):
        ds = gen_std_normal(10000, 3, rng_stream(1, 0))
        assert ds.mask.all()
        assert np.all(np.abs(ds.values.mean(axis=0)) < 4.0 / np.sqrt(10000))
        assert np.all(np.abs(ds.values.var(axis=0) - 1.0) < 0.1)

    def test_std_normal_determinism(self):
        a = gen_std_normal(100, 2, rng_stream(9, 4))
        b = gen_std_normal(100, 2, rng_stream(9, 4))
        np.testing.assert_array_equal(a.values, b.values)

    def test_clayton_kendall_tau(self):
        spec = DistributionSpec(
            kind="clayton", dim=2, theta=1.0, margins=("uniform", "uniform")
        )
        ds = gen_clayton(10000, spec, rng_stream(2, 0))
        tau = sps.kendalltau(ds.values[:, 0], ds.values[:, 1]).statistic
        assert abs(tau - 1.0 / 3.0) < 0.02

    def test_clayton_margins_ks(self):
        spec = DistributionSpec(
            kind="clayton", dim=3, theta=1.0, margins=("uniform", "exp1", "chisq4")
        )
        ds = gen_clayton(5000, spec, rng_stream(3, 0))
        crit = KS_1PCT / np.sqrt(5000)
        assert sps.kstest(ds.values[:, 0], "uniform").statistic < crit
        assert sps.kstest(ds.values[:, 1], "expon").statistic < crit
        assert sps.kstest(ds.values[:, 2], sps.chi2(4).cdf).statistic < crit

    def test_clayton_exp_margin_mean(self):
        spec = DistributionSpec(
            kind="clayton", dim=2, theta=1.0, margins=("exp1", "exp1")
        )
        ds = gen_clayton(10000, spec, rng_stream(4, 0))
        assert abs(ds.values[:, 0].mean() - 1.0) < 0.05

    def test_margin_transform_is_quantile_map(self):
        # chisq4 margin equals the quantile transform of the uniform margin
        u_spec = DistributionSpec(
            kind="clayton", dim=2, theta=1.0, margins=("uniform", "uniform")
        )
        c_spec = DistributionSpec(
            kind="clayton", dim=2, theta=1.0, margins=("chisq4", "chisq4")
        )
        u = gen_clayton(200, u_spec, rng_stream(5, 0))
        c = gen_clayton(200, c_spec, rng_stream(5, 0))
        np.testing.assert_allclose(
            c.values, chi2_quantile(u.values, 4), rtol=1e-10
        )

    def test_generate_dispatch(self):
        spec = DistributionSpec(kind="std_normal", dim=2)
        ds = generate(spec, 10, rng_stream(6, 0), names=("a", "b"))
        assert ds.column_names == ("a", "b")
        assert ds.n == 10

    def test_pattern_names(self):
        assert pattern_names(2, 3) == ("x1", "x2", "y1", "y2", "y3")


class TestMcar:
    def test_p_zero_and_one(self, rng):
        ds = gen_std_normal(40, 3, rng)
        roles = roles_for(1, 2)
        unchanged = apply_mcar(ds, roles, 0.0, rng)
        assert unchanged.mask.all()
        gone = apply_mcar(ds, roles, 1.0, rng)
        assert not gone.mask[:, 1:].any()
        assert gone.mask[:, 0].all()

    def test_binomial_bound(self):
        # per target column: Binomial(5000, 0.12), mean 600, sd ~ 23
        ds = gen_std_normal(5000, 3, rng_stream(7, 0))
        out = apply_mcar(ds, roles_for(1, 2), 0.12, rng_stream(7, 1))
        sd = np.sqrt(5000 * 0.12 * 0.88)
        missing = (~out.mask).sum(axis=0)
        assert missing[0] == 0
        for count in missing[1:]:
            assert abs(count - 600) <= 4 * sd
        assert abs(missing.sum() - 1200) <= 4 * np.sqrt(2) * sd

    def test_cellwise_independence(self):
        ds = gen_std_normal(6, 2, rng_stream(8, 0))
        roles = roles_for(1, 1)
        draws = np.array(
            [
                ~apply_mcar(ds, roles, 0.4, rng_stream(8, 1, rep)).mask[:, 1]
                for rep in range(5000)
            ],
            dtype=float,
        )
        corr = np.corrcoef(draws.T)
        off_diag = corr[~np.eye(6, dtype=bool)]
        assert np.all(np.abs(off_diag) < 0.03)

    def test_complete_columns_untouched(self, rng):
        ds = gen_std_normal(100, 4, rng)
        roles = roles_for(2, 2)
        out = apply_mcar(ds, roles, 0.5, rng)
        assert out.mask[:, :2].all()


class TestMar1ToX:
    def test_x_one_is_exactly_mcar(self):
        ds = gen_std_normal(200, 3, rng_stream(10, 0))
        roles = roles_for(1, 2)
        a = apply_mar_1_to_x(ds, roles, 0.2, 1.0, rng_stream(10, 1))
        b = apply_mcar(ds, roles, 0.2, rng_stream(10, 1))
        np.testing.assert_array_equal(a.mask, b.mask)

    def test_group_rates(self):
        # x=9, p=0.1: high group rate 0.18, low group rate 0.02
        n = 20000
        ds = gen_std_normal(n, 2, rng_stream(11, 0))
        roles = roles_for(1, 1)
        out = apply_mar_1_to_x(ds, roles, 0.1, 9.0, rng_stream(11, 1))
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
        out = apply_mar_1_to_x(ds, roles, 0.5, 1e9, rng_stream(12, 1))
        np.testing.assert_array_equal(out.mask[:, 1], [True, True, True, False])

    def test_probability_cap(self, rng):
        ds = gen_std_normal(50, 2, rng)
        with pytest.raises(ValueError, match="exceeds 1"):
            apply_mar_1_to_x(ds, roles_for(1, 1), 0.6, 9.0, rng)

    def test_distribution_matches_mcar_at_x1(self):
        # chi-square goodness of fit on (group, missing) counts over many reps
        n = 40
        ds = gen_std_normal(n, 2, rng_stream(13, 0))
        roles = roles_for(1, 1)
        control = ds.values[:, 0]
        high = control > np.median(control)
        counts = np.zeros(2)  # missing cells in (low, high) groups
        reps = 2000
        for rep in range(reps):
            out = apply_mar_1_to_x(ds, roles, 0.25, 1.0, rng_stream(13, 1, rep))
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
        ds = gen_std_normal(101, 4, rng_stream(21, 0))
        roles = roles_for(1, 3)
        out = apply_mar_1_to_x(ds, roles, 0.2, 9.0, rng_stream(21, 1))
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
        ds = gen_std_normal(100, 2, rng_stream(14, 0))
        roles = roles_for(1, 1)
        out = apply_mar_rank(ds, roles, 0.13, rng_stream(14, 1))
        assert (~out.mask[:, 1]).sum() == 13  # round(100 * 0.13)

    def test_all_masked_at_p_one(self):
        ds = gen_std_normal(17, 2, rng_stream(15, 0))
        out = apply_mar_rank(ds, roles_for(1, 1), 1.0, rng_stream(15, 1))
        assert not out.mask[:, 1].any()

    def test_p_zero_unchanged(self):
        ds = gen_std_normal(10, 2, rng_stream(16, 0))
        out = apply_mar_rank(ds, roles_for(1, 1), 0.0, rng_stream(16, 1))
        assert out.mask.all()

    def test_two_row_weights(self):
        # ranks 1:2, one draw: row with the larger control masked 2/3 of the time
        vals = np.array([[1.0, 0.0], [2.0, 0.0]])
        ds = Dataset(vals, np.ones((2, 2), bool), ("x1", "y1"))
        roles = roles_for(1, 1)
        hits = 0
        trials = 10000
        for rep in range(trials):
            out = apply_mar_rank(ds, roles, 0.5, rng_stream(17, 1, rep))
            hits += not out.mask[1, 1]
        assert abs(hits / trials - 2.0 / 3.0) < 0.03


class TestMarMean:
    def test_equal_rates_is_exactly_mcar(self):
        ds = gen_std_normal(150, 3, rng_stream(18, 0))
        roles = roles_for(1, 2)
        rules = [(1, 0, 0.2, 0.2), (2, 0, 0.2, 0.2)]
        a = apply_mar_mean(ds, roles, rules, rng_stream(18, 1))
        b = apply_mcar(ds, roles, 0.2, rng_stream(18, 1))
        np.testing.assert_array_equal(a.mask, b.mask)

    def test_stock_rates_fractions(self):
        # (0.12 + 0.06)/2 = 0.09 and (0.02 + 0.175)/2 = 0.0975
        ds = gen_std_normal(5000, 3, rng_stream(19, 0))
        roles = roles_for(1, 2)
        spec = MechanismSpec(kind="mar_mean")
        out = apply_mechanism(ds, roles, spec, rng_stream(19, 1))
        frac = (~out.mask).mean(axis=0)
        assert abs(frac[1] - 0.09) < 0.02
        assert abs(frac[2] - 0.0975) < 0.02

    def test_shared_control_matches_per_target_reference(self):
        ds = gen_std_normal(97, 4, rng_stream(22, 0))
        roles = roles_for(1, 3)
        rules = [(1, 0, 0.3, 0.05), (2, 0, 0.1, 0.2), (3, 0, 0.02, 0.175)]
        out = apply_mar_mean(ds, roles, rules, rng_stream(22, 1))
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
        out = apply_mar_mean(ds, roles, [(1, 0, 1.0, 0.0)], rng_stream(20, 1))
        assert out.mask.all()  # everyone in the low group at rate 0


class TestDispatcherAndDefaults:
    def test_default_controls_round_robin(self):
        roles = ColumnRoles((0, 1), (2, 3, 4))
        assert default_controls(roles, 3) == (0, 1, 0)

    def test_dispatch_each_kind(self):
        ds = gen_std_normal(80, 3, rng_stream(21, 0))
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

    def test_target_validation(self, rng):
        ds = gen_std_normal(20, 3, rng)
        roles = roles_for(1, 2)
        with pytest.raises(ValueError, match="not one of the incomplete"):
            apply_mcar(ds, roles, 0.2, rng, targets=(0,))
        with pytest.raises(ValueError, match="not a complete column"):
            apply_mar_rank(ds, roles, 0.2, rng, controls=(1, 2))
        with pytest.raises(ValueError, match="one control per target"):
            apply_mar_rank(ds, roles, 0.2, rng, controls=(0,))
