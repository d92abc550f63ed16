"""Small numerical kernel used by the test statistics and the simulator.

Unbiased covariances, symmetric eigendecompositions (that of A (x) B
taken from its factors), the chi-squared distribution, midranks, and
deterministic per-task random streams.

The covariances also take stacks of R datasets along a leading
axis, for the harness's batch kernels.  The eigendecompositions take only
stacks of matrices, a stack of one for a lone matrix, and report a singular
matrix per entry of the stack instead of raising, so one degenerate
replication does not discard its block.

Nothing here imports scipy at module level, because every CLI call would
pay for it: ``scipy.stats`` costs about a second and ``scipy.special``
about a quarter of one.  The MCAR tests' p-values need only the chi-squared
tail at an integer df, which has a closed form in ``math.erfc`` and a
finite sum; midranks are computed in numpy.  Only
``chi2_quantile`` (the ``chisq4`` margin) imports ``scipy.special``, when
it is called.
"""

import math

import numpy as np

from .errors import DegenerateDataError, SingularMatrixError

__all__ = [
    "rng_stream",
    "cov_matrix",
    "spd_eigh_stack",
    "kron_spd_eigh_stack",
    "chi2_sf",
    "chi2_quantile",
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


def cov_matrix(columns) -> np.ndarray:
    """Unbiased covariance matrix (divisor n-1) of column variables.

    Parameters
    ----------
    columns : array-like, shape (n, m) or a stack (R, n, m)
        Observations in rows, variables in columns.

    Returns
    -------
    (m, m) ndarray, or (R, m, m) for a stack; symmetric.

    Each matrix of a stack is computed by the same operations as a lone
    matrix with the same strides, so it is bitwise the same alone or
    stacked.  With each column contiguous (``ds.values[:, cols]``) the
    result is bitwise that of ``np.cov(columns, rowvar=False)``.
    """
    a = np.asarray(columns, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    n = a.shape[-2]
    if n < 2:
        raise DegenerateDataError("covariance requires n >= 2")
    c = a - a.mean(axis=-2, keepdims=True)
    # a matrix times its own transpose: numpy hands this to BLAS syrk, as
    # np.cov does, and syrk returns an exactly symmetric matrix
    c = np.swapaxes(c, -1, -2) @ c
    c *= np.true_divide(1, n - 1)
    return c


def _require_symmetric(a: np.ndarray, rtol: float = 1e-12) -> None:
    """Raise ValueError unless every matrix of the (..., m, m) stack ``a`` is
    symmetric to ``rtol`` of its own scale."""
    if a.shape[-2] != a.shape[-1]:
        raise ValueError("matrix is not symmetric")
    axes = (-2, -1)
    scale = np.maximum(np.abs(a).max(axis=axes, initial=0.0), 1.0)
    asymmetry = np.abs(a - np.swapaxes(a, -1, -2)).max(axis=axes, initial=0.0)
    if np.any(asymmetry > rtol * scale):
        raise ValueError("matrix is not symmetric")


def _singular_errors(eigenvalues: np.ndarray) -> tuple:
    """Per matrix of a stack: None, or the SingularMatrixError it fails with.

    Row i of ``eigenvalues`` (shape (R, ...)) holds every eigenvalue of
    matrix i.  A matrix fails when its smallest eigenvalue is at or below
    the positive-definiteness threshold, which is scale-aware and floored
    so that near-zero matrices are still flagged: 1e-10 * max(largest, 1).
    Degenerate data (a constant column, a response indicator without
    variation, or perfectly correlated columns) surfaces here.
    """
    w = eigenvalues.reshape(len(eigenvalues), math.prod(eigenvalues.shape[1:]))
    smallest = w.min(axis=1)
    threshold = 1e-10 * np.maximum(w.max(axis=1, initial=0.0), 1.0)
    errors = [None] * len(w)
    for i in np.flatnonzero(smallest <= threshold):
        errors[i] = SingularMatrixError(
            f"matrix is singular or not positive definite "
            f"(smallest eigenvalue {smallest[i]:.3e})",
            eigenvalue=float(smallest[i]),
        )
    return tuple(errors)


def spd_eigh_stack(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Eigendecompositions of a (R, m, m) stack of symmetric matrices.

    Returns (eigenvalues, eigenvectors, errors), ``errors`` as from
    ``_singular_errors``.  Raises ValueError if any matrix is not symmetric.
    """
    _require_symmetric(a)
    w, v = np.linalg.eigh(a)
    return w, v, _singular_errors(w)


def kron_spd_eigh_stack(a: np.ndarray, b: np.ndarray) -> tuple:
    """Eigendecompositions of A_i (x) B_i from those of the symmetric factors.

    ``a`` and ``b`` are (R, p, p) and (R, q, q) stacks.  Returns
    (W, V_a, V_b, errors) with W[i] = outer(w_a[i], w_b[i]): W[i, u, v] is
    the eigenvalue of A_i (x) B_i for the eigenvector
    kron(V_a[i, :, u], V_b[i, :, v]).  The symmetry check and the
    threshold act on the factors and on W, so no product matrix is formed;
    ``errors`` is as from ``_singular_errors``.
    """
    _require_symmetric(a)
    _require_symmetric(b)
    w_a, v_a = np.linalg.eigh(a)
    w_b, v_b = np.linalg.eigh(b)
    w = w_a[:, :, None] * w_b[:, None, :]
    return w, v_a, v_b, _singular_errors(w)


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
