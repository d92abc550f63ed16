import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mcartest import (
    ColumnRoles,
    Dataset,
    DegenerateDataError,
    SingularMatrixError,
    em_mvn,
    pattern_stats,
)
import mcartest.em
from mcartest.em import _chol, _factor

from conftest import fit_one, loop_group_patterns, make_dataset, traced_peak


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
    fit = fit_one(ds.values, ds.mask, tol=1e-300, max_iter=6)
    ref_mu, ref_sigma, ref_trace = row_by_row_em(x, mask, mu, sigma, 6)
    np.testing.assert_allclose(fit.loglik_trace, ref_trace, rtol=1e-12)
    np.testing.assert_allclose(fit.mu, ref_mu, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(fit.sigma, ref_sigma, rtol=1e-10, atol=1e-12)


def test_complete_data_is_direct_ml(rng):
    x = rng.standard_normal((50, 3))
    fit = fit_one(x, np.ones((50, 3), bool))
    assert fit.iterations == 1
    assert fit.converged
    assert len(fit.loglik_trace) == 1
    np.testing.assert_allclose(fit.mu, x.mean(axis=0), atol=1e-12)
    centered = x - x.mean(axis=0)
    np.testing.assert_allclose(fit.sigma, centered.T @ centered / 50, atol=1e-12)


def test_loglik_monotone_under_mcar(rng):
    ds = mcar_normal(rng, 300, 3, 0.2)
    fit = fit_one(ds.values, ds.mask)
    assert fit.converged
    trace = np.array(fit.loglik_trace)
    assert len(trace) >= 2
    assert np.all(np.diff(trace) >= -1e-9)


def test_monotone_pattern_matches_regression_factorization(rng):
    # one incomplete column: the ML solution is closed form, via the
    # regression of y on the complete block fitted on observed-y rows
    n = 400
    ds, _ = make_dataset(rng, n, 2, 1, miss_prob=0.3)
    fit = fit_one(ds.values, ds.mask, tol=1e-12)
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
    with_row = fit_one(vals, mask)
    without_row = fit_one(vals[1:], mask[1:])
    np.testing.assert_allclose(with_row.mu, without_row.mu, atol=1e-9)
    np.testing.assert_allclose(with_row.sigma, without_row.sigma, atol=1e-9)


def record_bound(n, d, key_bytes):
    """``pattern_stats``' traced peak bound on one (n, d) dataset: the sort's
    order (8 bytes a row) and key, four float blocks of ``_BLOCK_ROWS`` rows
    and 64 KiB for everything that grows with neither, the record of a few
    patterns among it; no n x d array."""
    return n * (8 + key_bytes) + 4 * mcartest.em._BLOCK_ROWS * d * 8 + 2**16


def test_fit_with_every_row_kept_allocates_no_data_sized_array(rng):
    # the record and the fit allocate no n x d float array beside their
    # inputs; a 5-column mask's key is one byte
    n, d = 100_000, 5
    values = rng.standard_normal((n, d))
    mask = rng.random((n, d)) >= 0.1
    mask[:, 0] = True
    peak, fit = traced_peak(fit_one, values, mask)
    assert fit.converged and fit.iterations > 1
    assert peak <= record_bound(n, d, 1) < values.nbytes // 2
    # each pattern's mean is that of its rows with the missing cells zeroed,
    # folded over blocks: to rounding, where a run spans more than one
    (record,) = pattern_stats(values[None], mask[None])
    assert record.n == n and len(record.counts) > 1
    assert record.counts.max() > mcartest.em._BLOCK_ROWS
    np.testing.assert_allclose(record.means, loop_record(values, mask)[2], rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("d, key_bytes", [(5, 1), (20, 4)])
def test_record_of_a_long_dataset_holds_no_float_copy(d, key_bytes):
    # the available-case start and the largest pattern's run, most of the
    # rows, are read a block at a time; 20 columns pack into a 4-byte key.
    # Three incomplete columns keep the record itself (K x d x d) small
    rng = np.random.default_rng(11)
    n = 200_000
    values = rng.standard_normal((n, d))
    mask = np.ones((n, d), bool)
    mask[:, -3:] = rng.random((n, 3)) >= 0.1
    peak, (record,) = traced_peak(pattern_stats, values[None], mask[None])
    assert record.counts.max() > n // 3
    assert peak <= record_bound(n, d, key_bytes) < values.nbytes // 2


def test_never_observed_column_rejected(rng):
    vals = rng.standard_normal((20, 2))
    mask = np.ones((20, 2), bool)
    mask[:, 1] = False
    with pytest.raises(DegenerateDataError, match="no observed cells"):
        fit_one(vals, mask)


def test_needs_more_rows_than_columns(rng):
    vals = rng.standard_normal((3, 3))
    mask = np.ones((3, 3), bool)
    mask[0, 1] = False
    with pytest.raises(DegenerateDataError):
        fit_one(vals, mask)


def test_iteration_cap_reported(rng):
    ds = mcar_normal(rng, 200, 3, 0.3)
    fit = fit_one(ds.values, ds.mask, tol=1e-300, max_iter=4)
    assert not fit.converged
    assert fit.iterations == 4


@pytest.mark.parametrize("placeholder", [np.nan, np.inf, -np.inf])
def test_placeholders_are_never_read(rng, placeholder):
    ds = mcar_normal(rng, 200, 3, 0.3)
    mask = np.array(ds.mask)
    mask[[3, 9]] = False  # rows with no observed cell, too
    zero = fit_one(np.where(mask, ds.values, 0.0), mask)
    other = fit_one(np.where(mask, ds.values, placeholder), mask)
    assert other.mu.tobytes() == zero.mu.tobytes()
    assert other.sigma.tobytes() == zero.sigma.tobytes()
    assert other.loglik_trace == zero.loglik_trace


def loop_record(values, mask):
    """(counts, observed, means, scatter) of one (n, d) dataset's patterns,
    from ``loop_group_patterns``: the reference for ``pattern_stats``, each
    pattern's rows reduced in ascending order."""
    d = mask.shape[1]
    zeroed = np.where(mask, values, 0.0)
    groups = [rows for obs, rows in loop_group_patterns(mask) if obs.size]
    means = np.array([zeroed[rows].mean(axis=0) for rows in groups]).reshape(-1, d)
    centred = [zeroed[rows] - m for rows, m in zip(groups, means)]
    return (
        np.array([rows.size for rows in groups], dtype=float),
        np.array([mask[rows[0]] for rows in groups]).reshape(-1, d),
        means,
        np.array([c.T @ c for c in centred]).reshape(-1, d, d),
    )


def test_group_patterns_order_and_partition(rng):
    mask = rng.random((200, 4)) >= 0.3
    (record,) = pattern_stats(rng.standard_normal((1, 200, 4)), mask[None])
    kept = mask[mask.any(axis=1)]
    assert record.n == len(kept) == record.counts.sum()  # a partition
    rows = [np.flatnonzero((kept == obs).all(axis=1)) for obs in record.observed]
    assert [r.size for r in rows] == record.counts.tolist()
    firsts = [int(r[0]) for r in rows]
    assert firsts == sorted(firsts)  # first-seen order
    assert len(record.counts) == len({m.tobytes() for m in kept})


@st.composite
def stacks(draw):
    """An (R, n, d) value and mask stack whose rows repeat a few distinct
    patterns, the empty one among them at times, up to 70 columns; the
    values under a False mask entry are NaN."""
    n_sets = draw(st.integers(1, 4))
    d = draw(st.sampled_from([1, 2, 5, 8, 9, 16, 63, 64, 70]))
    pool = draw(arrays(bool, (draw(st.integers(1, 6)), d)))
    if draw(st.booleans()):
        pool[0] = False  # rows with no observed cell
    n = draw(st.integers(1, 40))
    mask = pool[draw(arrays(np.intp, (n_sets, n), elements=st.integers(0, len(pool) - 1)))]
    values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(mask.shape)
    return np.where(mask, values, np.nan), mask


@settings(max_examples=200, deadline=None)
@given(stack=stacks())
def test_group_patterns_matches_row_loop(stack):
    values, mask = stack
    records = pattern_stats(values, mask)
    assert len(records) == len(values)
    for record, x, m in zip(records, values, mask):
        counts, observed, means, scatter = loop_record(x, m)
        assert record.n == int(m.any(axis=1).sum())
        assert record.counts.dtype == counts.dtype and np.array_equal(record.counts, counts)
        assert record.observed.dtype == bool and np.array_equal(record.observed, observed)
        assert record.means.tobytes() == means.tobytes()
        assert record.scatter.tobytes() == scatter.tobytes()
        # the available-case start: each column's observed mean and variance
        seen = m.sum(axis=0)
        filled = np.where(m, x, 0.0)
        mu = filled.sum(axis=0) / np.maximum(seen, 1)
        var = (np.where(m, x - mu, 0.0) ** 2).sum(axis=0) / np.maximum(seen, 1)
        np.testing.assert_allclose(record.mu, mu, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(record.var, var, rtol=1e-12, atol=1e-15)


@settings(max_examples=150, deadline=None)
@given(stack=stacks(), rows=st.sampled_from([1, 2, 7]))
def test_short_blocks_match_one_block(stack, rows):
    # blocks of 1, 2 or 7 rows fold each longer run with the pairwise update
    # and take the start over several blocks; a run, or a dataset's start,
    # within one block keeps the bits of one pass over it
    values, mask = stack
    want = pattern_stats(values, mask)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(mcartest.em, "_BLOCK_ROWS", rows)
        got = pattern_stats(values, mask)
    for g, w in zip(got, want, strict=True):
        assert g.n == w.n and np.array_equal(g.counts, w.counts)
        assert np.array_equal(g.observed, w.observed)
        short = w.counts <= rows
        assert g.means[short].tobytes() == w.means[short].tobytes()
        assert g.scatter[short].tobytes() == w.scatter[short].tobytes()
        np.testing.assert_allclose(g.means, w.means, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(g.scatter, w.scatter, rtol=1e-12, atol=1e-12)
        if values.shape[1] <= rows:
            assert (g.mu.tobytes(), g.var.tobytes()) == (w.mu.tobytes(), w.var.tobytes())
        np.testing.assert_allclose(g.mu, w.mu, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(g.var, w.var, rtol=1e-12, atol=1e-12)


def test_record_of_a_stack_with_two_byte_keys(rng):
    # 300 datasets take a 2-byte index and 11 columns a 2-byte mask, so the
    # sort runs over four key bytes; each dataset's record is its own
    n_sets, n, d = 300, 30, 11
    pool = rng.random((12, d)) >= 0.4
    pool[0] = True
    mask = pool[rng.integers(0, len(pool), (n_sets, n))]
    values = np.where(mask, rng.standard_normal(mask.shape), np.nan)
    records = pattern_stats(values, mask)
    assert len(records) == n_sets
    for record, x, m in zip(records, values, mask):
        counts, observed, means, scatter = loop_record(x, m)
        assert np.array_equal(record.counts, counts)
        assert np.array_equal(record.observed, observed)
        assert record.means.tobytes() == means.tobytes()
        assert record.scatter.tobytes() == scatter.tobytes()


def test_start_of_a_long_dataset_is_the_two_pass_moments(rng):
    # the start merged from the patterns of a dataset longer than four
    # blocks is, to rounding, each column's observed mean and the mean of
    # its squared deviations from it
    n, d = 4 * mcartest.em._BLOCK_ROWS + 123, 4
    values = rng.standard_normal((n, d)) * [1.0, 1e-3, 1e3, 5.0] + [0.0, 7.0, -3e3, 1e4]
    mask = rng.random((n, d)) >= [0.0, 0.1, 0.3, 0.6]
    (record,) = pattern_stats(values[None], mask[None])
    assert record.counts.max() > mcartest.em._BLOCK_ROWS
    seen = mask.sum(axis=0)
    mu = np.where(mask, values, 0.0).sum(axis=0) / seen
    var = (np.where(mask, values - mu, 0.0) ** 2).sum(axis=0) / seen
    np.testing.assert_allclose(record.mu, mu, rtol=1e-12, atol=0)
    np.testing.assert_allclose(record.var, var, rtol=1e-12, atol=0)


def test_group_patterns_wide_mask(rng):
    # 70 columns: more mask bits than an int64 key holds
    mask = rng.random((300, 70)) >= 0.5
    mask[150:] = mask[:150]
    mask[7, 69] = not mask[7, 69]  # differs from row 157 in the last bit only
    values = rng.standard_normal((300, 70))
    (record,) = pattern_stats(values[None], mask[None])
    counts, observed, means, _ = loop_record(values, mask)
    assert len(record.counts) == 151
    assert np.array_equal(record.counts, counts) and np.array_equal(record.observed, observed)
    assert record.means.tobytes() == means.tobytes()


def test_record_groups_kept_rows(rng):
    ds = mcar_normal(rng, 120, 3, 0.3)
    mask = np.array(ds.mask)
    mask[[4, 50]] = False  # no pattern holds these rows
    (record,) = pattern_stats(ds.values[None], mask[None])
    counts, observed, means, _ = loop_record(ds.values, mask)
    assert record.n == 118 and np.array_equal(record.counts, counts)
    assert np.array_equal(record.observed, observed) and np.array_equal(record.means, means)

    (complete,) = pattern_stats(ds.values[None], np.ones((1, 120, 3), bool))
    assert np.array_equal(complete.observed, np.ones((1, 3), bool))
    assert np.array_equal(complete.counts, [120])
    assert np.array_equal(complete.means, [ds.values.mean(axis=0)])

    # no kept row: no pattern, and EM rejects the record
    (empty,) = pattern_stats(ds.values[None], np.zeros((1, 120, 3), bool))
    assert empty.n == 0 and empty.counts.shape == (0,) and empty.observed.shape == (0, 3)
    assert not empty.mu.any() and not empty.var.any()
    with pytest.raises(DegenerateDataError, match="n=0, d=3"):
        em_mvn(empty)


class TestRidgePath:
    # three patterns over d = 3; the middle one's observed block is replaced
    OBSERVED = np.array([[1, 1, 1], [1, 0, 1], [0, 1, 1]], dtype=bool)

    def stack(self, rng, middle):
        a = rng.standard_normal((6, 3))
        sigma = a.T @ a
        blocks = [sigma, middle, sigma[np.ix_([1, 2], [1, 2])]]
        stack = np.zeros((3, 3, 3))
        stack[:] = np.eye(3)
        for padded, block, obs in zip(stack, blocks, self.OBSERVED):
            padded[np.ix_(obs, obs)] = block
        return stack

    def test_positive_definite_stack_is_one_batched_call(self, rng):
        stack = self.stack(rng, np.array([[2.0, 0.5], [0.5, 1.0]]))
        factors, ridged = _factor(stack, self.OBSERVED)
        assert np.array_equal(factors, np.linalg.cholesky(stack))
        assert not ridged

    def test_other_blocks_factored_alone(self, rng):
        # singular but positive semi-definite: plain Cholesky fails, the
        # ridged one does not
        stack = self.stack(rng, np.array([[1.0, 1.0], [1.0, 1.0]]))
        factors, _ = _factor(stack, self.OBSERVED)
        for k in (0, 2):
            obs = np.flatnonzero(self.OBSERVED[k])
            oo = np.ix_(obs, obs)
            assert np.array_equal(factors[k][oo], np.linalg.cholesky(stack[k][oo]))
            mis = np.setdiff1d(np.arange(3), obs)
            assert np.array_equal(factors[k][np.ix_(mis, mis)], np.eye(mis.size))

    def test_failing_block_ridged_through_chol(self, rng):
        stack = self.stack(rng, np.array([[1.0, 1.0], [1.0, 1.0]]))
        factors, ridged = _factor(stack, self.OBSERVED)
        assert ridged
        oo = np.ix_([0, 2], [0, 2])
        expected, used = _chol(stack[1][oo])
        assert used
        assert np.array_equal(factors[1][oo], expected)
        assert factors[1][1, 1] == 1.0 and not factors[1][1, [0, 2]].any()
        assert np.allclose(expected @ expected.T, stack[1][oo], atol=1e-7)

    def test_singular_after_ridge_raises_singular_matrix_error(self, rng):
        stack = self.stack(rng, np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
        with pytest.raises(SingularMatrixError, match="even after ridging"):
            _factor(stack, self.OBSERVED)

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
            fit = fit_one(values, mask)
            assert np.isfinite(fit.sigma).all() and np.isfinite(fit.loglik_trace).all()
            ridged.append(fit.ridged)
        assert any(ridged)
