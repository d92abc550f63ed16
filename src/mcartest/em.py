"""EM estimation of a multivariate normal mean and covariance under missingness.

``pattern_stats`` reduces each dataset of an (R, n, d) stack to one record:
per missingness pattern its size, observed columns, observed-cell mean and
scatter about that mean, plus the available-case start merged from them.
One ``np.lexsort`` over the key bytes of all the stack's rows finds the
patterns.  That record is all EM reads, and with the fit all Little's d2
reads: ``em_mvn`` fits a record without touching a row, each iteration the
sweep-operator E-step (Little & Rubin; Schafer 1997) on the stack of the
patterns' observed covariance blocks, factored in one batched Cholesky.
The observed-data log-likelihood is evaluated at the parameters entering
each E-step; EM guarantees the trace is non-decreasing, which the tests
exploit.
"""

from dataclasses import dataclass

import numpy as np

from .data import _BLOCK_ROWS
from .errors import DegenerateDataError, SingularMatrixError

__all__ = ["EmResult", "PatternStats", "em_mvn", "pattern_stats"]

_LOG_2PI = float(np.log(2.0 * np.pi))
_RIDGE_SCALE = 1e-8
_VAR_FLOOR = 1e-6
# EM's stopping rule: an absolute log-likelihood change, and an iteration cap
_TOL = 1e-8
_MAX_ITER = 500


@dataclass(frozen=True)
class PatternStats:
    """One dataset's rows reduced by missingness pattern.

    ``n`` counts the kept rows, those with at least one observed cell; a
    row with none forms no pattern.  Row k of ``observed`` (K, d),
    ``counts`` (K,), ``means`` (K, d) and ``scatter`` (K, d, d) describe the
    k-th pattern, in order of first appearance: its observed columns, its
    number of rows, the mean of its observed cells and their scatter about
    that mean, both zero on the missing columns.  ``mu`` and ``var`` (d,)
    are each column's available-case mean and variance, EM's start; both
    are 0 for a column with no observed cell.
    """

    n: int
    counts: np.ndarray
    observed: np.ndarray
    means: np.ndarray
    scatter: np.ndarray
    mu: np.ndarray
    var: np.ndarray


@dataclass(frozen=True)
class EmResult:
    """Fitted mean vector and covariance matrix plus convergence metadata.

    ``sigma`` is the maximum-likelihood (1/n) estimate.  ``loglik_trace``
    holds the observed-data log-likelihood at the start of every iteration;
    ``ridged`` records whether any observed block needed a diagonal
    ridge to factor.  The patterns the fit was made from are its
    ``PatternStats`` record's.
    """

    mu: np.ndarray
    sigma: np.ndarray
    loglik_trace: tuple
    converged: bool
    iterations: int
    ridged: bool


def _chol(a: np.ndarray) -> tuple[np.ndarray, bool]:
    """Cholesky factor, retried once with a trace-scaled ridge; returns the
    factor and whether the ridge was needed."""
    try:
        return np.linalg.cholesky(a), False
    except np.linalg.LinAlgError:
        pass
    ridge = _RIDGE_SCALE * max(np.trace(a) / a.shape[0], 1.0)
    try:
        return np.linalg.cholesky(a + ridge * np.eye(a.shape[0])), True
    except np.linalg.LinAlgError:
        raise SingularMatrixError(
            "observed-block covariance is singular even after ridging"
        ) from None


def _factor(stack: np.ndarray, observed: np.ndarray) -> tuple[np.ndarray, bool]:
    """Cholesky factors of a (K, d, d) stack of identity-padded observed blocks.

    ``observed`` (K, d) marks each block's observed columns.  If any block
    is not positive definite, each observed block is factored alone through
    ``_chol``, which ridges the ones that fail.  Returns the factors and
    whether any block was ridged.
    """
    try:
        return np.linalg.cholesky(stack), False
    except np.linalg.LinAlgError:
        factors = stack.copy()
    ridged = False
    for factor, obs in zip(factors, observed):
        oo = np.ix_(obs, obs)
        factor[oo], used = _chol(factor[oo])
        ridged |= used
    return factors, ridged


def pattern_stats(values: np.ndarray, mask: np.ndarray) -> list:
    """The ``PatternStats`` record of each dataset of an (R, n, d) stack.

    ``values`` and ``mask`` are the datasets' values and masks (True where
    observed); values under a False mask entry are never read.  One stable
    ``np.lexsort`` of all R * n rows over their key bytes (dataset, packed
    mask bits) puts each pattern's rows in one ascending run, so any width
    works.

    No temporary grows with n beyond the sort's key and order: the rows are
    read ``_BLOCK_ROWS`` at a time.  Each pattern's run is folded a block at
    a time, each block's count, mean and centred scatter merged into the
    run's so far by the pairwise update of Chan, Golub & LeVeque (1983); a
    run of one block adds its rows in ascending order, as one pass would.
    The same update merges the patterns into the available-case start.
    """
    n_sets, n_rows, d = values.shape
    flat, flat_mask = values.reshape(-1, d), mask.reshape(-1, d)
    # a row's key, a byte column at a time: its dataset's index, big-endian
    # in the fewest bytes that hold it (none for one dataset), then its
    # mask bits; lexsort's last key is its first
    width = ((n_sets - 1).bit_length() + 7) // 8
    index = np.arange(n_sets, dtype=">u8").view(np.uint8).reshape(-1, 8).T
    keys = np.zeros((width + (d + 7) // 8, n_sets * n_rows), np.uint8)
    keys[:width] = np.repeat(index[8 - width :], n_rows, axis=1)
    for j, bits in enumerate(flat_mask.view(np.uint8).T):
        keys[width + j // 8] |= bits << np.uint8(7 - j % 8)
    order = np.lexsort(keys[::-1])
    # where the sorted key changes, a block of the order at a time
    starts = []
    for lo in range(0, len(order) - 1, _BLOCK_ROWS):
        key = keys[:, order[lo : lo + _BLOCK_ROWS + 1]]
        starts.extend((np.flatnonzero((key[:, 1:] != key[:, :-1]).any(axis=0)) + lo + 1).tolist())
    del keys
    runs = np.split(order, starts)
    # each dataset's patterns in order of first appearance; rows with no
    # observed cell form no pattern
    runs = [rows for rows in sorted(runs, key=lambda rows: rows[0]) if flat_mask[rows[0]].any()]
    firsts = np.array([rows[0] for rows in runs], dtype=np.intp)
    observed = flat_mask[firsts]
    counts = np.array([rows.size for rows in runs], dtype=float)
    means = np.empty((len(runs), d))
    scatter = np.empty((len(runs), d, d))
    for k, (rows, obs) in enumerate(zip(runs, observed)):
        moments = _moments(flat[rows[:_BLOCK_ROWS]], obs)
        for lo in range(_BLOCK_ROWS, rows.size, _BLOCK_ROWS):
            moments = _merge(moments, _moments(flat[rows[lo : lo + _BLOCK_ROWS]], obs))
        _, means[k], scatter[k] = moments
    owner = firsts // n_rows
    slots = (owner[:, None] * d + np.arange(d)).ravel()

    def per_set(terms):  # each dataset's sum over its patterns, (R, d)
        return np.bincount(slots, terms.ravel(), n_sets * d).reshape(n_sets, d)

    # each column's rows, mean and squared deviations over its patterns
    weight = counts[:, None] * observed
    seen = np.maximum(per_set(weight), 1.0)
    mu = per_set(counts[:, None] * means) / seen
    square_dev = np.diagonal(scatter, axis1=1, axis2=2) + weight * (means - mu[owner]) ** 2
    var = per_set(square_dev) / seen
    cuts = np.searchsorted(owner, np.arange(n_sets + 1)).tolist()
    return [
        PatternStats(
            int(counts[lo:hi].sum()), counts[lo:hi], observed[lo:hi], means[lo:hi],
            scatter[lo:hi], mu[i], var[i],
        )
        for i, (lo, hi) in enumerate(zip(cuts, cuts[1:]))
    ]


def _moments(z: np.ndarray, observed: np.ndarray) -> tuple:
    """(rows, mean, scatter about the mean) of a block ``z`` of one pattern's
    rows, a copy whose columns not ``observed`` are zeroed here."""
    z[:, ~observed] = 0.0
    mean = z.mean(axis=0)
    z -= mean
    return len(z), mean, z.T @ z


def _merge(a: tuple, b: tuple) -> tuple:
    """The ``_moments`` of two sets of rows together, from theirs: the
    pairwise update of Chan, Golub & LeVeque (1983, Am. Stat. 37(3))."""
    (n_a, mean_a, scatter_a), (n_b, mean_b, scatter_b) = a, b
    n = n_a + n_b
    delta = mean_b - mean_a
    outer = np.outer(delta, delta * (n_a * n_b / n))
    return n, mean_a + delta * (n_b / n), scatter_a + scatter_b + outer


def em_mvn(patterns: PatternStats) -> EmResult:
    """Fit a multivariate normal to a dataset with missing cells.

    Parameters
    ----------
    patterns : PatternStats
        The dataset's record from ``pattern_stats``; for one (n, d) dataset,
        ``pattern_stats(values[None], mask[None])[0]``.

    Raises
    ------
    DegenerateDataError
        Fewer kept rows than columns, or a column with no observed cells.

    Notes
    -----
    Rows with no observed cells carry no information and are not in the
    record.  With no missing cells at all the maximum-likelihood solution
    is direct and the trace has a single entry.  Otherwise EM stops once the
    log-likelihood changes by less than ``_TOL``, or returns
    ``converged=False`` after ``_MAX_ITER`` iterations.
    """
    n, counts, observed, means, scatter = (
        patterns.n, patterns.counts, patterns.observed, patterns.means, patterns.scatter
    )
    d = observed.shape[1]
    if n <= d:
        raise DegenerateDataError(f"EM needs more usable rows than columns (n={n}, d={d})")
    seen = observed.any(axis=0)
    if not seen.all():
        raise DegenerateDataError(f"column {int(np.argmin(seen))} has no observed cells")

    if observed.all():
        # one pattern, every cell observed: the ML fit is direct
        sigma = scatter[0] / n
        c, ridged = _chol(sigma)
        logdet = 2.0 * float(np.sum(np.log(np.diag(c))))
        # the rows' squared Mahalanobis distances sum to trace(sigma^-1 scatter)
        quad = float(np.trace(np.linalg.solve(c, np.linalg.solve(c, scatter[0]).T)))
        return EmResult(
            mu=means[0],
            sigma=sigma,
            loglik_trace=(-0.5 * (n * d * _LOG_2PI + n * logdet + quad),),
            converged=True,
            iterations=1,
            ridged=ridged,
        )

    # available-case start; variances floored so the first E-step never
    # divides by zero
    mu = patterns.mu
    scale = max(float(patterns.var.max()), 1.0)
    sigma = np.diag(np.maximum(patterns.var, _VAR_FLOOR * scale))

    both = observed[:, :, None] & observed[:, None, :]
    # n_k on each pattern's missing x missing block
    weight_mm = counts[:, None, None] * (~observed[:, :, None] & ~observed[:, None, :])
    ll_const = _LOG_2PI * float(counts @ observed.sum(axis=1))
    eye = np.eye(d)
    ridged = False
    trace: list[float] = []
    converged = False
    iterations = 0

    for _ in range(_MAX_ITER):
        iterations += 1
        # each pattern's observed block, padded with the identity
        factors, used = _factor(np.where(both, sigma, eye), observed)
        ridged |= used
        logdet = 2.0 * np.log(np.diagonal(factors, axis1=1, axis2=2)).sum(axis=1)
        inv_factors = np.linalg.inv(factors)
        # the inverse of each observed block, zero elsewhere
        prec = (np.swapaxes(inv_factors, 1, 2) @ inv_factors) * both
        dev = np.where(observed, means - mu, 0.0)
        # the rows' squared Mahalanobis distances, split about pattern means
        quad = np.einsum("k,ki,kij,kj->", counts, dev, prec, dev) + np.vdot(prec, scatter)
        trace.append(-0.5 * (ll_const + float(counts @ logdet) + float(quad)))

        # per pattern, the filled row is mu + coef @ (row - mu): coef is the
        # identity on observed rows and, on missing ones, the regression of
        # the missing column on the observed ones
        coef = np.where(observed[:, :, None], eye, sigma @ prec)
        fill = mu + (coef @ dev[:, :, None])[:, :, 0]
        mu = counts @ fill / n
        spread = fill - mu
        # per pattern, the filled rows' scatter about their mean plus the
        # missing cells' conditional covariance
        within = coef @ scatter @ np.swapaxes(coef, 1, 2) + (sigma - coef @ sigma) * weight_mm
        sigma = ((counts * spread.T) @ spread + within.sum(axis=0)) / n
        sigma = 0.5 * (sigma + sigma.T)

        if len(trace) >= 2 and abs(trace[-1] - trace[-2]) < _TOL:
            converged = True
            break

    return EmResult(
        mu=mu,
        sigma=sigma,
        loglik_trace=tuple(trace),
        converged=converged,
        iterations=iterations,
        ridged=ridged,
    )
