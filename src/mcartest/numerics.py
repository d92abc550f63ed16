"""Small numerical kernel used by the test statistics and the simulator.

Moments and covariances in unbiased and maximum-likelihood flavors,
symmetric eigendecompositions (that of A (x) B taken from its factors),
symmetric-matrix inverse, chi-squared and standard-normal distribution
functions, midranks, and deterministic per-task random streams.

Nothing here imports scipy at module level, because every CLI call would
pay for it: ``scipy.stats`` costs about a second and ``scipy.special``
about a quarter of one.  The MCAR tests' p-values need only the chi-squared
tail at an integer df and the normal CDF, which have closed forms in
``math.erfc`` and finite sums; midranks are computed in numpy.  Only
``chi2_quantile`` (the ``chisq4`` margin) imports ``scipy.special``, when
it is called.
"""

import math

import numpy as np

from .errors import DegenerateDataError, SingularMatrixError

__all__ = [
    "rng_stream",
    "column_var",
    "cov_matrix",
    "kron_spd_eigh",
    "inverse",
    "chi2_sf",
    "chi2_quantile",
    "normal_cdf",
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
    ``spd_eigh`` applied to the product matrix, but act on W, so that
    matrix is never formed.
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


# math.erfc as a ufunc; it returns an object array, or a bare float for
# 0-d input, so callers wrap it in np.asarray(..., dtype=float)
_erfc = np.frompyfunc(math.erfc, 1, 1)
_TINY = math.ulp(0.0)
_HUGE = np.finfo(float).max


def _check_df(df) -> None:
    if df < 1 or int(df) != df:
        raise ValueError(f"df must be a positive integer, got {df}")


def chi2_sf(x, df: int):
    """Chi-squared survival function for an integer df, in closed form.

    With y = x/2 (Abramowitz & Stegun 26.4.4 and 26.4.5):

    * even df: Q = sum over j < df/2 of e^-y y^j / j!
    * odd df:  Q = erfc(sqrt y) + sum over a = 1/2, 3/2, ... < df/2 of
      e^-y y^a / Gamma(a + 1)

    Each term is formed in log space, exp(a log y - y - lgamma(a + 1)), so
    none overflows or underflows before the sum does.  Q is 1 at x = 0,
    0 at x = inf and NaN at NaN.  Returns a float for 0-d input and an
    array of the input's shape otherwise.
    """
    _check_df(df)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("chi2_sf requires x >= 0")
    # y within the positive finite doubles keeps log y finite, and then Q
    # comes out exactly 1 at x = 0 and 0 at x = inf with no special case
    y = np.minimum(np.maximum(x * 0.5, _TINY), _HUGE)
    a = np.arange(df % 2 / 2.0, df / 2.0)
    log_gamma = np.array([math.lgamma(v + 1.0) for v in a])
    q = np.exp(a * np.log(y)[..., None] - y[..., None] - log_gamma).sum(axis=-1)
    if df % 2:
        q += np.asarray(_erfc(np.sqrt(y)), dtype=float)
    # rounding can carry the sum one ulp past 1 for small x
    q = np.minimum(q, 1.0)
    return float(q) if q.ndim == 0 else q


def chi2_quantile(p, df: int):
    """Inverse of the chi-squared CDF.

    Imports ``scipy.special`` on first use, for ``gammainccinv``: only
    the ``chisq4`` margin of the Clayton generator calls this.
    """
    from scipy.special import gammainccinv

    _check_df(df)
    p = np.asarray(p, dtype=float)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise ValueError("chi2_quantile requires p in (0, 1)")
    out = 2.0 * gammainccinv(df / 2.0, 1.0 - p)
    return float(out) if out.ndim == 0 else out


def normal_cdf(x):
    """Standard normal CDF, 0.5 erfc(-x / sqrt 2)."""
    # multiplying by 1/sqrt 2, as scipy's ndtr does, rounds the argument
    # alike; in the far left tail that rounding sets the relative error
    out = 0.5 * np.asarray(_erfc(np.asarray(x, dtype=float) * -math.sqrt(0.5)), dtype=float)
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
