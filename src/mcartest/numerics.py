"""Small numerical kernel used by the test statistics and the simulator.

Moments and covariances in unbiased and maximum-likelihood flavors,
Kronecker products and their eigenvalues, symmetric-matrix inverse,
chi-squared and standard-normal distribution functions, midranks, and
deterministic per-task random streams.

Only ``scipy.special`` is imported: the distribution functions rest on
``gammaincc``, ``gammainccinv``, ``ndtr`` and ``ndtri``.  Midranks are
computed here in numpy rather than with ``scipy.stats.rankdata``, because
importing ``scipy.stats`` costs about a second per process and every CLI
call would pay it.
"""

import numpy as np
from scipy import special

from .errors import DegenerateDataError, SingularMatrixError

__all__ = [
    "rng_stream",
    "column_var",
    "cov_matrix",
    "kronecker",
    "kron_spd_eigh",
    "inverse",
    "chi2_sf",
    "chi2_quantile",
    "normal_cdf",
    "normal_quantile",
    "ranks",
]


def rng_stream(master_seed: int, *labels: int) -> np.random.Generator:
    """Deterministic random generator for one logical task.

    The stream is a pure function of ``(master_seed, labels)``: the same
    arguments give the same sequence on every platform and regardless of
    how many other streams are drawn from concurrently.  Labels must be
    non-negative integers (e.g. scenario hash, replication index,
    purpose tag).
    """
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(labels))
    return np.random.Generator(np.random.Philox(seq))


def _check_mode(mode: str) -> int:
    if mode == "unbiased":
        return 1
    if mode == "ml":
        return 0
    raise ValueError(f"mode must be 'unbiased' or 'ml', got {mode!r}")


def column_var(x, mode: str = "unbiased") -> float:
    """Sample variance; divides by n-1 ("unbiased") or n ("ml")."""
    ddof = _check_mode(mode)
    x = np.asarray(x, dtype=float)
    if x.size < 1 + ddof:
        raise DegenerateDataError(f"variance ({mode}) requires n >= {1 + ddof}")
    return float(x.var(ddof=ddof))


def cov_matrix(columns, mode: str = "unbiased") -> np.ndarray:
    """Covariance matrix of column variables.

    Parameters
    ----------
    columns : array-like, shape (n, m)
        Observations in rows, variables in columns.
    mode : {"unbiased", "ml"}
        Divisor n-1 or n.

    Returns
    -------
    (m, m) ndarray, symmetric.
    """
    ddof = _check_mode(mode)
    a = np.asarray(columns, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    n = a.shape[0]
    if n < 2:
        raise DegenerateDataError("covariance requires n >= 2")
    c = np.cov(a, rowvar=False, ddof=ddof)
    return np.atleast_2d(c)


def kronecker(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two symmetric matrices.

    (A (x) B)[(u-1)k2+v, (u'-1)k2+v'] = A[u,u'] * B[v,v'].
    """
    a = np.atleast_2d(np.asarray(a, float))
    b = np.atleast_2d(np.asarray(b, float))
    _require_symmetric(a)
    _require_symmetric(b)
    return np.kron(a, b)


# Positive-definiteness threshold: scale-aware, floored so near-zero
# matrices are still flagged.
def _pd_threshold(eigenvalues: np.ndarray) -> float:
    return 1e-10 * max(float(eigenvalues.max(initial=0.0)), 1.0)


def _require_positive(eigenvalues: np.ndarray) -> None:
    smallest = float(eigenvalues.min())
    if smallest <= _pd_threshold(eigenvalues):
        raise SingularMatrixError(
            f"matrix is singular or not positive definite "
            f"(smallest eigenvalue {smallest:.3e})",
            eigenvalue=smallest,
        )


def _require_symmetric(a: np.ndarray, rtol: float = 1e-12) -> None:
    scale = max(float(np.abs(a).max(initial=0.0)), 1.0)
    if a.shape[0] != a.shape[1] or np.abs(a - a.T).max(initial=0.0) > rtol * scale:
        raise ValueError("matrix is not symmetric")


def spd_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric positive-definite matrix.

    Returns (eigenvalues, eigenvectors).  Raises SingularMatrixError if
    any eigenvalue falls at or below the scale-aware threshold; degenerate
    data (a constant column, a response indicator without variation, or
    perfectly correlated columns) surfaces here.
    """
    a = np.atleast_2d(np.asarray(a, float))
    _require_symmetric(a)
    w, v = np.linalg.eigh(a)
    _require_positive(w)
    return w, v


def kron_spd_eigh(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigendecomposition of A (x) B from those of the symmetric factors.

    Returns (W, V_a, V_b) with W = outer(w_a, w_b): W[u, v] is the
    eigenvalue of A (x) B for the eigenvector kron(V_a[:, u], V_b[:, v]).
    The symmetry check, threshold and SingularMatrixError are those of
    ``spd_eigh(kronecker(a, b))``, applied to W, so the product matrix is
    never formed.
    """
    a = np.atleast_2d(np.asarray(a, float))
    b = np.atleast_2d(np.asarray(b, float))
    _require_symmetric(a)
    _require_symmetric(b)
    w_a, v_a = np.linalg.eigh(a)
    w_b, v_b = np.linalg.eigh(b)
    w = np.outer(w_a, w_b)
    _require_positive(w)
    return w, v_a, v_b


def inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive-definite matrix."""
    w, v = spd_eigh(a)
    return (v / w) @ v.T


def chi2_sf(x, df: int):
    """Chi-squared survival function via the regularized upper incomplete gamma."""
    if df < 1 or int(df) != df:
        raise ValueError(f"df must be a positive integer, got {df}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("chi2_sf requires x >= 0")
    out = special.gammaincc(df / 2.0, x / 2.0)
    return float(out) if out.ndim == 0 else out


def chi2_quantile(p, df: int):
    """Inverse of the chi-squared CDF."""
    if df < 1 or int(df) != df:
        raise ValueError(f"df must be a positive integer, got {df}")
    p = np.asarray(p, dtype=float)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise ValueError("chi2_quantile requires p in (0, 1)")
    out = 2.0 * special.gammainccinv(df / 2.0, 1.0 - p)
    return float(out) if out.ndim == 0 else out


def normal_cdf(x):
    out = special.ndtr(np.asarray(x, dtype=float))
    return float(out) if out.ndim == 0 else out


def normal_quantile(p):
    p = np.asarray(p, dtype=float)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise ValueError("normal_quantile requires p in (0, 1)")
    out = special.ndtri(p)
    return float(out) if out.ndim == 0 else out


def ranks(x) -> np.ndarray:
    """Midranks in [1, n]; ties receive the average of the ranks they cover.

    Equal to ``scipy.stats.rankdata(x, method="average")`` bit for bit: a
    tie run over sorted positions [start, end) gets (start + end + 1) / 2,
    a half-integer and so exact in float64.  The input is flattened, and
    any NaN makes every rank NaN.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.size < 1:
        raise DegenerateDataError("ranks require at least one value")
    if np.isnan(x).any():
        return np.full(x.size, np.nan)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    ends = np.append(starts[1:], x.size)
    out = np.empty(x.size)
    out[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return out
