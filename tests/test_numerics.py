import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaincc, ndtr
from scipy.stats import rankdata

from mcartest.errors import SingularMatrixError
from mcartest.numerics import (
    chi2_quantile,
    chi2_sf,
    column_var,
    cov_matrix,
    kron_spd_eigh_stack,
    normal_cdf,
    ranks,
    rng_stream,
    spd_eigh_stack,
)


def brute_cov(x, ddof):
    # literal double-loop covariance, the oracle for cov_matrix
    n, m = x.shape
    mu = x.mean(axis=0)
    out = np.zeros((m, m))
    for a in range(m):
        for b in range(m):
            s = 0.0
            for i in range(n):
                s += (x[i, a] - mu[a]) * (x[i, b] - mu[b])
            out[a, b] = s / (n - ddof)
    return out


class TestMoments:
    def test_var_hand_values(self):
        x = np.array([1.0, 2.0, 3.0])
        assert column_var(x, "unbiased") == pytest.approx(1.0, rel=1e-15)
        assert column_var(x, "ml") == pytest.approx(2.0 / 3.0, rel=1e-15)
        y = np.array([0.0, 2.0])
        assert column_var(y, "unbiased") == pytest.approx(2.0)
        assert column_var(y, "ml") == pytest.approx(1.0)

    def test_var_needs_two_points(self):
        with pytest.raises(Exception):
            column_var(np.array([1.0]), "unbiased")

    def test_cov_against_double_sum(self, rng):
        x = rng.standard_normal((23, 4))
        assert np.allclose(cov_matrix(x, "unbiased"), brute_cov(x, 1), atol=1e-12)
        assert np.allclose(cov_matrix(x, "ml"), brute_cov(x, 0), atol=1e-12)

    def test_cov_scale_relation(self, rng):
        x = rng.standard_normal((15, 3))
        n = 15
        np.testing.assert_allclose(
            cov_matrix(x, "unbiased"),
            cov_matrix(x, "ml") * n / (n - 1),
            rtol=1e-14,
        )

    def test_bad_mode(self, rng):
        with pytest.raises(ValueError):
            cov_matrix(rng.standard_normal((5, 2)), "robust")


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

    def test_kron_eigh_reconstructs_product(self, rng):
        a = self.random_spd(rng, 3)
        b = self.random_spd(rng, 2)
        w, v_a, v_b, errors = kron_spd_eigh_stack(a[None], b[None])
        assert errors == (None,)
        v = np.kron(v_a[0], v_b[0])
        np.testing.assert_allclose(
            (v * w[0].reshape(-1)) @ v.T, np.kron(a, b), rtol=1e-12, atol=1e-9
        )

    def test_kron_eigh_singular_like_product(self, rng):
        a = self.random_spd(rng, 2)
        b = np.array([[1.0, 1.0], [1.0, 1.0]])
        *_, (err,) = kron_spd_eigh_stack(a[None], b[None])
        *_, (ref,) = spd_eigh_stack(np.kron(a, b)[None])
        assert isinstance(err, SingularMatrixError)
        assert isinstance(ref, SingularMatrixError)
        assert err.eigenvalue == pytest.approx(ref.eigenvalue, abs=1e-12)
        with pytest.raises(ValueError):
            kron_spd_eigh_stack(a[None], np.array([[[1.0, 0.5], [0.2, 1.0]]]))

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
    def test_cdf_symmetry(self):
        assert normal_cdf(0.0) == pytest.approx(0.5)
        for z in (0.3, 1.2, 2.5):
            assert normal_cdf(z) + normal_cdf(-z) == pytest.approx(1.0, abs=1e-14)

    def test_matches_ndtr(self):
        z = np.linspace(-38.0, 38.0, 76001)
        ref = ndtr(z)
        got = normal_cdf(z)
        # below x = -12 scipy's own erfc is the looser one (cephes documents
        # up to 5.7e-14 relative), so the two agree to 1e-13 there
        normal = ref >= np.finfo(float).tiny
        rel = np.abs(got[normal] - ref[normal]) / ref[normal]
        core = z[normal] >= -12.0
        assert rel[core].max() <= 1e-14
        assert rel.max() <= 1e-13

    def test_tail_against_high_precision(self):
        # rounding x / sqrt(2) alone costs up to x^2 ulps of relative error
        mpmath = pytest.importorskip("mpmath")
        eps = np.finfo(float).eps
        with mpmath.workdps(40):
            for x in np.linspace(-37.5, 38.0, 302):
                exact = mpmath.ncdf(mpmath.mpf(float(x)))
                rel = abs((normal_cdf(x) - exact) / exact)
                assert rel <= (x * x + 4.0) * eps, x

    def test_edge_values_and_types(self):
        for x in (0.3, np.float64(0.3), np.array(0.3), 1):
            assert type(normal_cdf(x)) is float
        assert normal_cdf(-np.inf) == 0.0
        assert normal_cdf(np.inf) == 1.0
        assert np.isnan(normal_cdf(np.nan))
        assert normal_cdf(np.zeros((2, 3))).shape == (2, 3)


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
