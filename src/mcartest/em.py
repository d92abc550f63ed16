"""EM estimation of a multivariate normal mean and covariance under missingness.

Rows are grouped by missingness pattern once per fit, and each pattern is
reduced to its size, observed columns, observed-cell mean and scatter about
that mean, so an iteration touches no row: it is the sweep-operator E-step
(Little & Rubin; Schafer 1997) on the stack of the patterns' observed
covariance blocks, factored in one batched Cholesky.  The fit returns the
patterns' observed columns, sizes and means, which are all Little's d2
needs of the rows.  The observed-data log-likelihood is evaluated at
the parameters entering each E-step; EM guarantees the trace is
non-decreasing, which the tests exploit.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, SingularMatrixError

__all__ = ["EmResult", "em_mvn", "group_patterns"]

_LOG_2PI = float(np.log(2.0 * np.pi))
_RIDGE_SCALE = 1e-8
_VAR_FLOOR = 1e-6


@dataclass(frozen=True)
class EmResult:
    """Fitted mean vector and covariance matrix plus convergence metadata.

    ``sigma`` is the maximum-likelihood (1/n) estimate.  ``loglik_trace``
    holds the observed-data log-likelihood at the start of every iteration;
    ``ridged`` records whether any observed block needed a diagonal
    ridge to factor.  Row k of ``observed`` (K, d), ``counts`` (K,) and
    ``means`` (K, d) describe the k-th pattern of the fit's
    ``group_patterns`` grouping of the kept rows, those with at least one
    observed cell: its observed columns, its number of rows and the mean of
    its observed cells, zero on the missing columns.
    """

    mu: np.ndarray
    sigma: np.ndarray
    loglik_trace: tuple
    converged: bool
    iterations: int
    ridged: bool
    observed: np.ndarray
    counts: np.ndarray
    means: np.ndarray


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


def group_patterns(mask: np.ndarray) -> list:
    """(observed column indices, row indices) per distinct missingness pattern.

    Patterns are listed in order of first appearance and each pattern's rows
    in ascending order, so every pass over the groups visits the data in one
    fixed order.  Each row's key is its packed mask bits, so any width works.
    """
    packed = np.packbits(mask, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    # a stable sort puts each pattern's rows in one ascending run
    order = np.argsort(keys, kind="stable")
    ranked = packed[order]
    new_run = np.ones(order.size, dtype=bool)
    new_run[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    starts = np.flatnonzero(new_run)
    bounds = [*starts.tolist(), order.size]
    firsts = order[starts]
    return [
        (np.flatnonzero(mask[firsts[g]]), order[bounds[g] : bounds[g + 1]])
        for g in np.argsort(firsts).tolist()
    ]


def _complete_fit(x: np.ndarray) -> EmResult:
    n, d = x.shape
    mu = x.mean(axis=0)
    centered = x - mu
    sigma = (centered.T @ centered) / n
    c, ridged = _chol(sigma)
    logdet = 2.0 * float(np.sum(np.log(np.diag(c))))
    z = np.linalg.solve(c, centered.T)
    return EmResult(
        mu=mu,
        sigma=sigma,
        loglik_trace=(-0.5 * (n * d * _LOG_2PI + n * logdet + float(np.sum(z * z))),),
        converged=True,
        iterations=1,
        ridged=ridged,
        observed=np.ones((1, d), dtype=bool),
        counts=np.array([float(n)]),
        means=mu[None],
    )


def em_mvn(
    values: np.ndarray, mask: np.ndarray, tol: float = 1e-8, max_iter: int = 500
) -> EmResult:
    """Fit a multivariate normal to data with missing cells.

    Parameters
    ----------
    values, mask : (n, d) arrays
        A dataset's ``values`` and ``mask`` (True where observed); values
        under a False mask entry are never read.
    tol : float
        Stop when the observed-data log-likelihood changes by less than
        this between iterations.
    max_iter : int
        Iteration cap; exceeding it returns ``converged=False``.

    Raises
    ------
    DegenerateDataError
        A column with no observed cells, or fewer usable rows than columns.

    Notes
    -----
    Rows with no observed cells carry no information and are dropped.
    With no missing cells at all the maximum-likelihood solution is direct
    and the trace has a single entry.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    keep = mask.any(axis=1)
    if keep.all():
        # every row kept: the fit reads the caller's rows and copies none
        x = np.ascontiguousarray(values)
    else:
        x = values[keep]
        mask = mask[keep]
    n, d = x.shape
    if n <= d:
        raise DegenerateDataError(
            f"EM needs more usable rows than columns (n={n}, d={d})"
        )
    obs_per_col = mask.sum(axis=0)
    if (obs_per_col == 0).any():
        j = int(np.argmin(obs_per_col))
        raise DegenerateDataError(f"column {j} has no observed cells")

    if mask.all():
        return _complete_fit(x)

    # available-case initialization; variances floored so the first E-step
    # never divides by zero.  One n x d buffer holds the masked values, then
    # the squared deviations of the observed cells.
    dev = np.multiply(x, mask)
    mu = dev.sum(axis=0) / obs_per_col
    np.subtract(x, mu, out=dev)
    np.copyto(dev, 0.0, where=~mask)
    var = np.square(dev, out=dev).sum(axis=0) / obs_per_col
    del dev
    scale = max(float(var.max()), 1.0)
    sigma = np.diag(np.maximum(var, _VAR_FLOOR * scale))

    # per pattern: size, observed columns, and the mean of the observed
    # cells and their scatter about it, both zero on the missing columns
    patterns = group_patterns(mask)
    observed = np.array([mask[rows[0]] for _, rows in patterns])
    counts = np.array([rows.size for _, rows in patterns], dtype=float)
    means = np.empty((len(patterns), d))
    scatter = np.empty((len(patterns), d, d))
    for k, (_, rows) in enumerate(patterns):
        z = x[rows]
        z[:, ~observed[k]] = 0.0
        means[k] = z.mean(axis=0)
        z -= means[k]
        scatter[k] = z.T @ z
    both = observed[:, :, None] & observed[:, None, :]
    # n_k on each pattern's missing x missing block
    weight_mm = counts[:, None, None] * (~observed[:, :, None] & ~observed[:, None, :])
    ll_const = _LOG_2PI * float(counts @ observed.sum(axis=1))
    eye = np.eye(d)
    ridged = False
    trace: list[float] = []
    converged = False
    iterations = 0

    for _ in range(max_iter):
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

        if len(trace) >= 2 and abs(trace[-1] - trace[-2]) < tol:
            converged = True
            break

    return EmResult(
        mu=mu,
        sigma=sigma,
        loglik_trace=tuple(trace),
        converged=converged,
        iterations=iterations,
        ridged=ridged,
        observed=observed,
        counts=counts,
        means=means,
    )
