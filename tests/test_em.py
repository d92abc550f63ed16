import numpy as np
import pytest

from mcartest import ColumnRoles, Dataset, DegenerateDataError, em_mvn
from mcartest.em import group_patterns

from conftest import make_dataset


def mcar_normal(rng, n, d, miss_prob):
    values = rng.standard_normal((n, d)) @ np.diag([1.0, 2.0, 0.7][:d])
    values += np.array([0.5, -1.0, 2.0][:d])
    mask = rng.random((n, d)) >= miss_prob
    # keep every row and column usable
    mask[:, 0] = True
    return Dataset(values, mask, tuple(f"c{j}" for j in range(d)))


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
