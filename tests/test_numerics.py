import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import gammaincc, ndtr
from scipy.stats import rankdata

from mcartest.errors import SingularMatrixError
from mcartest.numerics import (
    chi2_quantile,
    chi2_sf,
    median,
    philox_keys,
    ranks,
    rng_stream,
    rng_streams,
    spd_eigh_stack,
)


class TestEigenBased:
    def random_spd(self, rng, m):
        q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        w = rng.uniform(0.5, 50.0, size=m)
        return (q * w) @ q.T

    def test_reconstruction(self, rng):
        a = np.stack([self.random_spd(rng, 5) for _ in range(3)])
        w, v, errors = spd_eigh_stack(a)
        assert errors == (None, None, None)
        np.testing.assert_allclose((v * w[:, None, :]) @ np.swapaxes(v, 1, 2), a, atol=1e-10)

    def test_inverse(self, rng):
        # the inverse as the d2 sum uses it, through the eigenpairs
        a = self.random_spd(rng, 4)
        w, v, _ = spd_eigh_stack(a[None])
        np.testing.assert_allclose(a @ ((v[0] / w[0]) @ v[0].T), np.eye(4), atol=1e-10)

    def test_singular_rejected(self, rng):
        # only the singular matrix of the stack is flagged
        a = np.stack([self.random_spd(rng, 2), [[1.0, 1.0], [1.0, 1.0]]])
        _, _, (ok, err) = spd_eigh_stack(a)
        assert ok is None
        assert isinstance(err, SingularMatrixError)
        assert err.eigenvalue is not None and err.eigenvalue <= 1e-10

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            spd_eigh_stack(np.array([[[1.0, 0.5], [0.2, 1.0]]]))


class TestChiSquared:
    def test_df2_closed_form(self):
        # chi2 with 2 df is Exp(1/2): sf(x) = exp(-x/2)
        for x in (0.1, 1.0, 3.7, 10.0):
            assert chi2_sf(x, 2) == pytest.approx(np.exp(-x / 2), rel=1e-12)

    def test_df2_median(self):
        assert chi2_quantile(0.5, 2) == pytest.approx(2.0 * np.log(2.0), rel=1e-10)

    def test_df1_critical_value(self):
        assert chi2_quantile(0.95, 1) == pytest.approx(3.841458820694124, rel=1e-10)

    def test_mutual_inverse(self):
        for df in (1, 2, 5, 12):
            for prob in (0.01, 0.2, 0.5, 0.9, 0.999):
                x = chi2_quantile(prob, df)
                assert 1.0 - chi2_sf(x, df) == pytest.approx(prob, abs=1e-10)

    def test_vectorized_sf(self):
        x = np.array([0.0, 1.0, 2.0])
        out = chi2_sf(x, 3)
        assert out.shape == (3,)
        assert out[0] == pytest.approx(1.0)

    def test_invalid_df(self):
        with pytest.raises(ValueError):
            chi2_sf(1.0, 0)

    def test_matches_gammaincc_on_grid(self):
        # closed-form sums against scipy's regularized upper incomplete gamma
        x = np.concatenate(([0.0, 1e-300], np.geomspace(1e-8, 1e4, 400), [np.inf]))
        for df in range(1, 301):
            ref = gammaincc(df / 2.0, x / 2.0)
            got = chi2_sf(x, df)
            big = ref >= 1e-290
            rel = np.abs(got[big] - ref[big]) / ref[big]
            assert rel.max() <= 1e-12, (df, x[big][rel.argmax()], rel.max())
            assert np.all(got[~big] <= 2e-290), df

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=1, max_value=300),
        st.floats(min_value=0.0, max_value=1e4),
    )
    def test_matches_gammaincc_property(self, df, x):
        got = chi2_sf(x, df)
        ref = float(gammaincc(df / 2.0, x / 2.0))
        assert 0.0 <= got <= 1.0
        if ref >= 1e-290:
            assert got == pytest.approx(ref, rel=1e-12, abs=0.0)
        else:
            assert got <= 2e-290

    def test_edge_values_and_types(self):
        for x in (1.5, np.float64(1.5), np.array(1.5), 3):
            assert type(chi2_sf(x, 3)) is float
        assert chi2_sf(0.0, 1) == 1.0
        assert chi2_sf(0.0, 6) == 1.0
        assert chi2_sf(np.inf, 1) == 0.0
        assert chi2_sf(np.inf, 7) == 0.0
        assert np.isnan(chi2_sf(np.nan, 4))
        x = np.array([[0.0, 1.0, np.inf], [np.nan, 2.0, 30.0]])
        out = chi2_sf(x, 5)
        assert out.shape == (2, 3)
        assert out[0, 0] == 1.0 and out[0, 2] == 0.0 and np.isnan(out[1, 0])
        assert chi2_sf(np.empty((0, 2)), 2).shape == (0, 2)
        assert chi2_sf(4.0, np.int64(4)) == pytest.approx(3.0 * np.exp(-2.0), rel=1e-14)
        for df in (0, -2, 2.5):
            with pytest.raises(ValueError):
                chi2_sf(1.0, df)
        with pytest.raises(ValueError):
            chi2_sf(np.array([1.0, -1e-300]), 3)


class TestNormal:
    # the two-sided standard-normal tail, as dn's p-value takes it:
    # chi2_sf(z**2, 1) = erfc(|z| / sqrt 2)

    def test_matches_ndtr(self):
        z = np.linspace(0.0, 37.5, 37501)
        ref = 2.0 * ndtr(-z)
        assert ref.min() >= np.finfo(float).tiny
        rel = np.abs(chi2_sf(z * z, 1) - ref) / ref
        # rounding z**2, and scipy's z / sqrt 2, each cost up to z^2 ulps
        assert rel[z <= 12.0].max() <= 1e-13
        assert rel.max() <= 5e-13

    def test_tail_against_high_precision(self):
        mpmath = pytest.importorskip("mpmath")
        eps = np.finfo(float).eps
        with mpmath.workdps(40):
            for z in np.linspace(0.0, 37.5, 302):
                exact = 2 * mpmath.ncdf(-mpmath.mpf(float(z)))
                rel = abs((chi2_sf(z * z, 1) - exact) / exact)
                assert rel <= (z * z + 4.0) * eps, z


class TestRanks:
    def test_matches_sort_oracle(self, rng):
        x = rng.standard_normal(40)
        # distinct values: rank of x[i] = 1 + number of smaller elements
        expected = np.array([1 + np.sum(x < xi) for xi in x], dtype=float)
        np.testing.assert_array_equal(ranks(x), expected)

    def test_ties_average(self):
        np.testing.assert_array_equal(
            ranks(np.array([2.0, 1.0, 2.0])), np.array([2.5, 1.0, 2.5])
        )

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                # a small pool forces tie runs; -0.0 must tie with 0.0
                st.sampled_from([-0.0, 0.0, 1.0, -2.5, 1e300, -1e300]),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_matches_rankdata_bit_for_bit(self, values):
        x = np.array(values)
        expected = rankdata(x, method="average")
        got = ranks(x)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

    def test_single_value_and_large_repeats(self):
        assert ranks(np.array([7.0])).tolist() == [1.0]
        x = np.array([1e300] * 5 + [-1e300] * 4 + [0.0, -0.0])
        assert ranks(x).tobytes() == rankdata(x, method="average").tobytes()
        # rankdata propagates NaN to every rank
        x = np.array([2.0, np.nan, 1.0])
        np.testing.assert_array_equal(ranks(x), rankdata(x, method="average"))

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda rows: st.lists(
                st.lists(
                    st.sampled_from([-0.0, 0.0, 1.0, -2.5, np.nan])
                    | st.floats(allow_nan=False, allow_infinity=False),
                    min_size=rows,
                    max_size=rows,
                ),
                min_size=1,
                max_size=40,
            )
        )
    )
    def test_stack_ranks_each_row_alone(self, columns):
        # one sort over a (rows, n) stack gives each row's own ranks
        x = np.array(columns).T
        got = ranks(x)
        for row, ranked in zip(x, got):
            assert ranked.tobytes() == ranks(row).tobytes()


class TestMedian:
    @settings(max_examples=400, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(1, 40)),
            # a small pool forces ties, signed zeros, infinities and NaN rows
            elements=st.sampled_from([-0.0, 0.0, 1.0, -2.5, np.inf, -np.inf, np.nan])
            | st.floats(allow_infinity=False, allow_nan=False),
        )
    )
    @example(np.array([[-0.0], [0.0], [np.nan], [-np.inf]]))
    @example(np.array([[-0.0, -0.0], [np.inf, -np.inf], [1.0, np.nan]]))
    @example(np.array([[1.7976931348623157e308, 1.7976931348623157e308, 0.0]]))
    def test_matches_np_median_bit_for_bit(self, x):
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, max + max
            expected = np.median(x, axis=-1)
            got = median(x)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected, equal_nan=True)
        assert (np.signbit(got) == np.signbit(expected)).all()


class TestRngStream:
    def test_reproducible(self):
        a = rng_stream(42, 1, 2, 3).standard_normal(1000)
        b = rng_stream(42, 1, 2, 3).standard_normal(1000)
        np.testing.assert_array_equal(a, b)

    def test_label_separation(self):
        base = rng_stream(42, 1, 2, 3).standard_normal(1000)
        for labels in [(1, 2, 4), (1, 3, 3), (2, 2, 3), (1, 2)]:
            other = rng_stream(42, *labels).standard_normal(1000)
            assert not np.array_equal(base, other)

    def test_master_seed_separation(self):
        a = rng_stream(1, 7).standard_normal(100)
        b = rng_stream(2, 7).standard_normal(100)
        assert not np.array_equal(a, b)


def seed_sequence_key(master_seed, *labels):
    """The Philox key numpy derives for ``rng_stream(master_seed, *labels)``."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=labels)
    return np.random.Philox(seq).state["state"]["key"]


class TestRngStreams:
    @settings(max_examples=300, deadline=None)
    @given(
        # one word, or up to five: more than SeedSequence's pool of four
        master_seed=st.integers(0, 2**32 - 1) | st.integers(0, 2**160 - 1),
        key=st.integers(0, 2**32 - 1) | st.integers(0, 2**64 - 1),
        # from 0, anywhere, ending just below 2**32, or across it
        start=st.just(0) | st.integers(0, 2**40) | st.integers(2**32 - 12, 2**32 + 2),
        size=st.integers(0, 7),
        purpose=st.sampled_from([0, 1]) | st.integers(2, 2**64 - 1),
    )
    def test_keys_match_seed_sequence(self, master_seed, key, start, size, purpose):
        reps = np.arange(start, start + size, dtype=np.uint64)
        got = philox_keys(master_seed, key, reps, purpose)
        assert got.shape == (size, 2) and got.dtype == np.uint64
        for rep, row in zip(reps, got):
            np.testing.assert_array_equal(row, seed_sequence_key(master_seed, key, int(rep), purpose))

    def test_replications_past_two_to_the_32_take_two_words(self):
        reps = np.arange(2**32 - 2, 2**32 + 2)
        got = philox_keys(5, 77, reps, 1)
        want = [seed_sequence_key(5, 77, int(rep), 1) for rep in reps]
        np.testing.assert_array_equal(got, want)

    def test_scalar_labels_only(self):
        np.testing.assert_array_equal(philox_keys(9), [seed_sequence_key(9)])
        np.testing.assert_array_equal(philox_keys(2**200, 3), [seed_sequence_key(2**200, 3)])

    @settings(max_examples=60, deadline=None)
    @given(
        master_seed=st.integers(0, 2**160 - 1),
        key=st.integers(0, 2**64 - 1),
        start=st.integers(0, 2**33),
        size=st.integers(1, 5),
        n=st.integers(1, 20),
    )
    def test_draws_match_rng_stream(self, master_seed, key, start, size, n):
        # every draw the block synthesis makes, then a float32 that leaves
        # half a word cached: the next stream must not see it
        weights = np.arange(1.0, n + 4)
        weights /= weights.sum()

        def draws(rng):
            return [
                rng.standard_normal(n),
                rng.standard_gamma(0.7, size=n),
                rng.standard_exponential(n),
                rng.random(n),
                rng.choice(n + 3, size=n, replace=False, p=weights),
                rng.random(dtype=np.float32),
            ]

        reps = range(start, start + size)
        for rep, rng in zip(reps, rng_streams(master_seed, key, np.array(reps), 1)):
            for got, want in zip(draws(rng), draws(rng_stream(master_seed, key, rep, 1))):
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_negative_values_raise_like_seed_sequence(self):
        for master_seed, labels in [(-1, ()), (0, (-1,)), (0, (3, -2, 1))]:
            with pytest.raises(ValueError) as reference:
                np.random.SeedSequence(master_seed, spawn_key=labels)
            with pytest.raises(type(reference.value)):
                philox_keys(master_seed, *labels)
            with pytest.raises(type(reference.value)):
                rng_streams(master_seed, *labels)
        with pytest.raises(ValueError):
            rng_streams(0, 3, np.array([0, -1]), 1)

    def test_array_labels_are_checked(self):
        with pytest.raises(ValueError):
            philox_keys(0, np.arange(3), np.arange(4))
        with pytest.raises(ValueError):
            philox_keys(0, np.zeros((2, 2), dtype=int))
        with pytest.raises(ValueError):
            philox_keys(0, np.arange(3.0))
