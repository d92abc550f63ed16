"""EM estimation of a multivariate normal mean and covariance under missingness.

Rows are grouped by missingness pattern once per fit, and what a pattern
fixes is built before the first iteration, so each E-step solves one linear
system per pattern instead of one per row.  The fit returns its grouping for
Little's d2.  The observed-data log-likelihood is evaluated at the
parameters entering each E-step; EM guarantees the trace is non-decreasing,
which the tests exploit.
"""

from dataclasses import dataclass

import numpy as np

from .data import Dataset
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
    ``ridged`` records whether any observed-block solve needed a diagonal
    ridge to proceed.  ``patterns`` is the fit's ``group_patterns`` grouping;
    its rows index the kept rows, those with at least one observed cell.
    """

    mu: np.ndarray
    sigma: np.ndarray
    loglik_trace: tuple
    converged: bool
    iterations: int
    ridged: bool
    patterns: list


class _RidgeFlag:
    __slots__ = ("used",)

    def __init__(self):
        self.used = False


def _chol(a: np.ndarray, flag: _RidgeFlag) -> np.ndarray:
    """Cholesky factor, retried once with a trace-scaled ridge."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        pass
    flag.used = True
    ridge = _RIDGE_SCALE * max(np.trace(a) / a.shape[0], 1.0)
    try:
        return np.linalg.cholesky(a + ridge * np.eye(a.shape[0]))
    except np.linalg.LinAlgError:
        raise SingularMatrixError(
            "observed-block covariance is singular even after ridging"
        ) from None


def group_patterns(mask: np.ndarray) -> list:
    """(observed column indices, row indices) per distinct missingness pattern.

    Patterns are listed in order of first appearance and each pattern's rows
    in ascending order, so every pass over the groups visits the data in one
    fixed order.
    """
    groups: dict[bytes, list[int]] = {}
    for i in range(mask.shape[0]):
        groups.setdefault(mask[i].tobytes(), []).append(i)
    return [
        (np.flatnonzero(np.frombuffer(key, dtype=bool)), np.asarray(rows))
        for key, rows in groups.items()
    ]


def _complete_fit(x: np.ndarray) -> EmResult:
    n, d = x.shape
    mu = x.mean(axis=0)
    centered = x - mu
    sigma = (centered.T @ centered) / n
    flag = _RidgeFlag()
    c = _chol(sigma, flag)
    return EmResult(
        mu=mu,
        sigma=sigma,
        loglik_trace=(_loglik_complete(centered, c, n, d),),
        converged=True,
        iterations=1,
        ridged=flag.used,
        patterns=[(np.arange(d), np.arange(n))],
    )


def _loglik_complete(centered: np.ndarray, chol: np.ndarray, n: int, d: int) -> float:
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    z = np.linalg.solve(chol, centered.T)
    return -0.5 * (n * d * _LOG_2PI + n * logdet + float(np.sum(z * z)))


def em_mvn(ds: Dataset, tol: float = 1e-8, max_iter: int = 500) -> EmResult:
    """Fit a multivariate normal to data with missing cells.

    Parameters
    ----------
    ds : Dataset
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
    keep = ds.mask.any(axis=1)
    x = ds.values[keep]
    mask = ds.mask[keep]
    n, d = x.shape
    if n <= d:
        raise DegenerateDataError(
            f"EM needs more usable rows than columns (n={n}, d={d})"
        )
    obs_per_col = mask.sum(axis=0)
    if (obs_per_col == 0).any():
        j = int(np.argmin(obs_per_col))
        raise DegenerateDataError(
            f"column {ds.column_names[j]!r} has no observed cells"
        )

    if mask.all():
        return _complete_fit(x)

    # available-case initialization; variances floored so the first E-step
    # never divides by zero
    mu = (x * mask).sum(axis=0) / obs_per_col
    dev = np.where(mask, x - mu, 0.0)
    var = (dev**2).sum(axis=0) / obs_per_col
    scale = max(float(var.max()), 1.0)
    sigma = np.diag(np.maximum(var, _VAR_FLOOR * scale))

    # per pattern, fixed across iterations: missing columns, observed block,
    # z with its observed columns filled, index pairs into sigma and s2
    patterns = group_patterns(mask)
    blocks = []
    for obs, rows in patterns:
        mis = np.setdiff1d(np.arange(d), obs, assume_unique=True)
        xo = x[np.ix_(rows, obs)]
        z = np.empty((rows.size, d))
        z[:, obs] = xo
        pairs = (np.ix_(obs, obs), np.ix_(obs, mis), np.ix_(mis, mis), np.ix_(mis, obs))
        blocks.append((obs, mis, xo, z, *pairs))
    flag = _RidgeFlag()
    trace: list[float] = []
    converged = False
    iterations = 0

    for _ in range(max_iter):
        iterations += 1
        s1 = np.zeros(d)
        s2 = np.zeros((d, d))
        ll = 0.0
        for obs, mis, xo, z, oo, om, mm, mo in blocks:
            k = xo.shape[0]
            c = _chol(sigma[oo], flag)
            centered = xo - mu[obs]
            ll += _loglik_complete(centered, c, k, obs.size)
            if mis.size:
                # regression coefficients of missing on observed at the
                # current parameters
                beta = np.linalg.solve(c.T, np.linalg.solve(c, sigma[om]))
                z[:, mis] = mu[mis] + centered @ beta
                s2[mm] += k * (sigma[mm] - sigma[mo] @ beta)
            s1 += z.sum(axis=0)
            s2 += z.T @ z
        trace.append(ll)

        mu = s1 / n
        sigma = s2 / n - np.outer(mu, mu)
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
        ridged=flag.used,
        patterns=patterns,
    )
