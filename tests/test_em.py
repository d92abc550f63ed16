import numpy as np
import pytest

from mcartest import ColumnRoles, Dataset, DegenerateDataError, SingularMatrixError, em_mvn
from mcartest.em import _RidgeFlag, _chol, _factor, group_patterns

from conftest import make_dataset


def mcar_normal(rng, n, d, miss_prob):
    values = rng.standard_normal((n, d)) @ np.diag([1.0, 2.0, 0.7][:d])
    values += np.array([0.5, -1.0, 2.0][:d])
    mask = rng.random((n, d)) >= miss_prob
    # keep every row and column usable
    mask[:, 0] = True
    return Dataset(values, mask, tuple(f"c{j}" for j in range(d)))


def row_by_row_em(x, mask, mu, sigma, iterations):
    """EM as the textbook writes it: each row's E-step alone, uncentred sums.

    The reference for em_mvn's per-pattern stacked step.  Returns the final
    mean and covariance and the log-likelihood trace.
    """
    n, d = x.shape
    trace = []
    for _ in range(iterations):
        s1 = np.zeros(d)
        s2 = np.zeros((d, d))
        ll = 0.0
        for row, o in zip(x, mask):
            m = ~o
            s_oo = sigma[np.ix_(o, o)]
            r = row[o] - mu[o]
            logdet = np.linalg.slogdet(s_oo)[1]
            ll -= 0.5 * (o.sum() * np.log(2.0 * np.pi) + logdet + r @ np.linalg.solve(s_oo, r))
            z = row.copy()
            cov = np.zeros((d, d))
            beta = np.linalg.solve(s_oo, sigma[np.ix_(o, m)])
            z[m] = mu[m] + r @ beta
            cov[np.ix_(m, m)] = sigma[np.ix_(m, m)] - sigma[np.ix_(m, o)] @ beta
            s1 += z
            s2 += np.outer(z, z) + cov
        trace.append(ll)
        mu = s1 / n
        sigma = s2 / n - np.outer(mu, mu)
    return mu, sigma, trace


def test_matches_row_by_row_em(rng):
    ds = mcar_normal(rng, 80, 3, 0.3)
    x, mask = ds.values, ds.mask
    # em_mvn's start: available-case means and variances
    mu = np.array([x[mask[:, j], j].mean() for j in range(3)])
    sigma = np.diag([x[mask[:, j], j].var() for j in range(3)])
    fit = em_mvn(ds, tol=1e-300, max_iter=6)
    ref_mu, ref_sigma, ref_trace = row_by_row_em(x, mask, mu, sigma, 6)
    np.testing.assert_allclose(fit.loglik_trace, ref_trace, rtol=1e-12)
    np.testing.assert_allclose(fit.mu, ref_mu, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(fit.sigma, ref_sigma, rtol=1e-10, atol=1e-12)


def test_complete_data_is_direct_ml(rng):
    x = rng.standard_normal((50, 3))
    ds = Dataset(x, np.ones((50, 3), bool), ("a", "b", "c"))
    fit = em_mvn(ds)
    assert fit.iterations == 1
    assert fit.converged
    assert len(fit.loglik_trace) == 1
    np.testing.assert_allclose(fit.mu, x.mean(axis=0), atol=1e-12)
    centered = x - x.mean(axis=0)
    np.testing.assert_allclose(fit.sigma, centered.T @ centered / 50, atol=1e-12)


def test_loglik_monotone_under_mcar(rng):
    ds = mcar_normal(rng, 300, 3, 0.2)
    fit = em_mvn(ds)
    assert fit.converged
    trace = np.array(fit.loglik_trace)
    assert len(trace) >= 2
    assert np.all(np.diff(trace) >= -1e-9)


def test_monotone_pattern_matches_regression_factorization(rng):
    # one incomplete column: the ML solution is closed form, via the
    # regression of y on the complete block fitted on observed-y rows
    n = 400
    ds, _ = make_dataset(rng, n, 2, 1, miss_prob=0.3)
    fit = em_mvn(ds, tol=1e-12)
    x = ds.values[:, :2]
    y = ds.values[:, 2]
    obs = ds.mask[:, 2]

    mu_x = x.mean(axis=0)
    cx = x - mu_x
    sigma_xx = cx.T @ cx / n

    xo = x[obs]
    yo = y[obs]
    design = np.column_stack([np.ones(obs.sum()), xo])
    coef, *_ = np.linalg.lstsq(design, yo, rcond=None)
    resid = yo - design @ coef
    s2 = float(resid @ resid / obs.sum())
    beta = coef[1:]

    mu_y = coef[0] + beta @ mu_x
    sigma_xy = sigma_xx @ beta
    sigma_yy = s2 + beta @ sigma_xx @ beta

    np.testing.assert_allclose(fit.mu[:2], mu_x, atol=1e-7)
    np.testing.assert_allclose(fit.mu[2], mu_y, atol=1e-6)
    np.testing.assert_allclose(fit.sigma[:2, :2], sigma_xx, atol=1e-7)
    np.testing.assert_allclose(fit.sigma[:2, 2], sigma_xy, atol=1e-6)
    np.testing.assert_allclose(fit.sigma[2, 2], sigma_yy, atol=1e-6)


def test_all_missing_rows_are_dropped(rng):
    ds = mcar_normal(rng, 100, 2, 0.25)
    vals = ds.values[:, [1, 1]] * np.array([1.0, 0.5]) + np.array([0.0, 1.0])
    vals = vals + rng.standard_normal((100, 2)) * 0.3
    mask = np.array(ds.mask[:, [0, 1]])
    mask[0] = False
    with_row = em_mvn(Dataset(vals, mask, ("a", "b")))
    without_row = em_mvn(Dataset(vals[1:], mask[1:], ("a", "b")))
    np.testing.assert_allclose(with_row.mu, without_row.mu, atol=1e-9)
    np.testing.assert_allclose(with_row.sigma, without_row.sigma, atol=1e-9)


def test_never_observed_column_rejected(rng):
    vals = rng.standard_normal((20, 2))
    mask = np.ones((20, 2), bool)
    mask[:, 1] = False
    with pytest.raises(DegenerateDataError, match="no observed cells"):
        em_mvn(Dataset(vals, mask, ("a", "b")))


def test_needs_more_rows_than_columns(rng):
    vals = rng.standard_normal((3, 3))
    mask = np.ones((3, 3), bool)
    mask[0, 1] = False
    with pytest.raises(DegenerateDataError):
        em_mvn(Dataset(vals, mask, ("a", "b", "c")))


def test_invalid_controls():
    ds = Dataset(np.ones((5, 1)), np.ones((5, 1), bool), ("a",))
    with pytest.raises(ValueError):
        em_mvn(ds, tol=0.0)
    with pytest.raises(ValueError):
        em_mvn(ds, max_iter=0)


def test_iteration_cap_reported(rng):
    ds = mcar_normal(rng, 200, 3, 0.3)
    fit = em_mvn(ds, tol=1e-300, max_iter=4)
    assert not fit.converged
    assert fit.iterations == 4


def test_group_patterns_order_and_partition(rng):
    mask = rng.random((200, 4)) >= 0.3
    groups = group_patterns(mask)
    rows = np.concatenate([r for _, r in groups])
    assert np.array_equal(np.sort(rows), np.arange(200))  # a partition
    firsts = [int(r[0]) for _, r in groups]
    assert firsts == sorted(firsts)  # first-seen order
    for obs, r in groups:
        assert np.all(np.diff(r) > 0)  # ascending rows
        assert np.array_equal(obs, np.flatnonzero(mask[r[0]]))
        assert (mask[r] == mask[r[0]]).all()
    assert len(groups) == len({m.tobytes() for m in mask})


def test_fit_returns_grouping_of_kept_rows(rng):
    ds = mcar_normal(rng, 120, 3, 0.3)
    mask = np.array(ds.mask)
    mask[[4, 50]] = False  # dropped, so later rows shift down by one or two
    fit = em_mvn(ds.with_mask(mask))
    expected = group_patterns(mask[mask.any(axis=1)])
    assert len(fit.patterns) == len(expected)
    for (obs, rows), (obs_e, rows_e) in zip(fit.patterns, expected):
        assert np.array_equal(obs, obs_e)
        assert np.array_equal(rows, rows_e)
    assert sum(rows.size for _, rows in fit.patterns) == 118

    (obs, rows), = em_mvn(ds.with_mask(np.ones((120, 3), bool))).patterns
    assert np.array_equal(obs, np.arange(3))
    assert np.array_equal(rows, np.arange(120))


class TestRidgePath:
    # three patterns over d = 3; the middle one's observed block is replaced
    PATTERNS = [
        (np.array([0, 1, 2]), np.arange(4)),
        (np.array([0, 2]), np.arange(4, 6)),
        (np.array([1, 2]), np.arange(6, 9)),
    ]

    def stack(self, rng, middle):
        a = rng.standard_normal((6, 3))
        sigma = a.T @ a
        blocks = [sigma, middle, sigma[np.ix_([1, 2], [1, 2])]]
        stack = np.zeros((3, 3, 3))
        stack[:] = np.eye(3)
        for padded, block, (obs, _) in zip(stack, blocks, self.PATTERNS):
            padded[np.ix_(obs, obs)] = block
        return stack

    def test_positive_definite_stack_is_one_batched_call(self, rng):
        stack = self.stack(rng, np.array([[2.0, 0.5], [0.5, 1.0]]))
        flag = _RidgeFlag()
        assert np.array_equal(_factor(stack, self.PATTERNS, flag), np.linalg.cholesky(stack))
        assert not flag.used

    def test_other_blocks_factored_alone(self, rng):
        # singular but positive semi-definite: plain Cholesky fails, the
        # ridged one does not
        stack = self.stack(rng, np.array([[1.0, 1.0], [1.0, 1.0]]))
        factors = _factor(stack, self.PATTERNS, _RidgeFlag())
        for k in (0, 2):
            obs = self.PATTERNS[k][0]
            oo = np.ix_(obs, obs)
            assert np.array_equal(factors[k][oo], np.linalg.cholesky(stack[k][oo]))
            mis = np.setdiff1d(np.arange(3), obs)
            assert np.array_equal(factors[k][np.ix_(mis, mis)], np.eye(mis.size))

    def test_failing_block_ridged_through_chol(self, rng):
        stack = self.stack(rng, np.array([[1.0, 1.0], [1.0, 1.0]]))
        flag = _RidgeFlag()
        factors = _factor(stack, self.PATTERNS, flag)
        assert flag.used
        oo = np.ix_([0, 2], [0, 2])
        expected = _chol(stack[1][oo], _RidgeFlag())
        assert np.array_equal(factors[1][oo], expected)
        assert factors[1][1, 1] == 1.0 and not factors[1][1, [0, 2]].any()
        assert np.allclose(expected @ expected.T, stack[1][oo], atol=1e-7)

    def test_singular_after_ridge_raises_singular_matrix_error(self, rng):
        stack = self.stack(rng, np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
        flag = _RidgeFlag()
        with pytest.raises(SingularMatrixError):
            _factor(stack, self.PATTERNS, flag)
        assert flag.used

    def test_collinear_columns_fit_with_a_ridge(self):
        # b = 2a exactly, so the fitted covariance turns singular and, as
        # rounding falls, plain Cholesky fails on the blocks holding both
        ridged = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            a = rng.standard_normal(60)
            values = np.column_stack([a, 2.0 * a, rng.standard_normal(60)])
            mask = rng.random((60, 3)) >= 0.2
            mask[:, 0] = True
            fit = em_mvn(Dataset(values, mask, ("a", "b", "c")))
            assert np.isfinite(fit.sigma).all() and np.isfinite(fit.loglik_trace).all()
            ridged.append(fit.ridged)
        assert any(ridged)
