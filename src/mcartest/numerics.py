"""Small numerical kernel used by the test statistics and the simulator.

The singularity rule for stacks of symmetric matrices, the chi-squared
distribution, midranks, medians, and deterministic per-task random streams.

A random stream is a Philox generator keyed by numpy's ``SeedSequence``
hash of (master seed, labels); ``rng_stream`` opens one and is the
reference.  Opening one costs ~15-30 us, mostly the hash and the Philox
set-up, so the harness does not open thousands: ``philox_keys`` runs the
same 32-bit hash for a whole block of replications as uint32 array
operations, and ``rng_streams`` re-seats one Philox bit generator to each
key in turn.  Every stream draws the numbers ``rng_stream`` gives it.

``_singular_errors`` is the one singularity rule: both test kernels pass
it the eigenvalues of a stack of matrices, a stack of one for a lone
matrix, and it reports a singular matrix per entry of the stack instead of
raising, so one degenerate replication does not discard its block.

Nothing here imports scipy at module level, because every CLI call would
pay for it: ``scipy.stats`` costs about a second and ``scipy.special``
about a quarter of one.  The MCAR tests' p-values need only the chi-squared
tail at an integer df, which has a closed form in ``math.erfc`` and a
finite sum; midranks are computed in numpy.  Only
``chi2_quantile`` (the ``chisq4`` margin) imports ``scipy.special``, when
it is called.  ``median`` stands in for ``np.median`` for a like reason:
numpy's first ``np.median`` call imports ``numpy.ma``, 11-17 ms of a
short CLI call, for its NaN check.
"""

import math
import operator

import numpy as np

from .errors import DegenerateDataError, SingularMatrixError

__all__ = [
    "rng_stream",
    "philox_keys",
    "rng_streams",
    "chi2_sf",
    "chi2_quantile",
    "ranks",
    "median",
]


def rng_stream(master_seed: int, *labels: int) -> "np.random.Generator":
    """Deterministic random generator for one logical task.

    The stream is a pure function of ``(master_seed, labels)``: the same
    arguments give the same sequence on every platform and regardless of
    how many other streams are drawn from concurrently.  Labels must be
    non-negative integers (e.g. scenario hash, replication index,
    purpose tag).  This is the reference that ``rng_streams`` reproduces.
    """
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(labels))
    return np.random.Generator(np.random.Philox(seq))


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _int_words(value: int) -> list:
    """A non-negative int as SeedSequence's uint32 words, low word first."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value >> 32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hash_constants(init: int, mult: int):
    """The (xor, multiplier) pairs of successive SeedSequence hash steps."""
    while True:
        xor, init = init, init * mult & _MASK32
        yield xor, init


def _hashmix(value: np.ndarray, constants) -> np.ndarray:
    xor, mult = next(constants)
    value = (value ^ xor) * mult
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_L - y * _MIX_R
    return out ^ (out >> 16)


def _pool_keys(entropy: list) -> np.ndarray:
    """Philox keys from L assembled entropy words, each a (R,) uint32 array.

    SeedSequence's ``mix_entropy`` and ``generate_state(2, np.uint64)``,
    each step applied to R columns at once; uint32 arithmetic wraps as
    the reference's does.
    """
    constants = _hash_constants(_INIT_A, _MULT_A)
    zero = np.zeros_like(entropy[0])
    pool = [
        _hashmix(entropy[i] if i < len(entropy) else zero, constants)
        for i in range(_POOL_SIZE)
    ]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], constants))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, constants))
    constants = _hash_constants(_INIT_B, _MULT_B)
    state = [_hashmix(word, constants).astype(np.uint64) for word in pool]
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=1)


def philox_keys(master_seed: int, *labels) -> np.ndarray:
    """The Philox keys of many ``rng_stream`` calls, in one vectorised pass.

    Each label is a non-negative int or a 1-d integer array of them below
    2**64; the arrays share one length R.  Row i of the (R, 2) uint64
    result is the key of ``rng_stream(master_seed, *labels_i)``, labels_i
    taking element i of each array.  That key is SeedSequence's 32-bit
    hash of the seed's words (padded to the pool size when labels follow)
    and the labels' words.  A label takes one word below 2**32 and two
    from there to 2**64, so rows are keyed in groups of equal word counts.
    Negative values raise ValueError, as SeedSequence does.
    """
    arrays = [np.asarray(label) for label in labels if np.ndim(label)]
    rows = len(arrays[0]) if arrays else 1
    for a in arrays:
        if a.ndim != 1 or len(a) != rows or a.dtype.kind not in "iu":
            raise ValueError("array labels must be 1-d integer arrays of one length")
        if a.size and a.min() < 0:
            raise ValueError("expected non-negative integer")
    wide = [a.astype(np.uint64) >> 32 > 0 for a in arrays]
    if any(w.any() and not w.all() for w in wide):
        groups = np.unique(np.stack(wide), axis=1, return_inverse=True)[1].ravel()
        out = np.empty((rows, 2), dtype=np.uint64)
        for g in range(groups.max() + 1):
            at = groups == g
            out[at] = philox_keys(master_seed, *(
                np.asarray(label)[at] if np.ndim(label) else label for label in labels
            ))
        return out

    def full(words):
        return [np.full(rows, w, dtype=np.uint32) for w in words]

    words = _int_words(operator.index(master_seed))
    entropy = full(words + [0] * (_POOL_SIZE - len(words)) if labels else words)
    for label in labels:
        if np.ndim(label):
            label = np.asarray(label).astype(np.uint64)
            entropy.append((label & _MASK32).astype(np.uint32))
            if rows and label[0] >> 32:
                entropy.append((label >> 32).astype(np.uint32))
        else:
            entropy += full(_int_words(operator.index(label)))
    return _pool_keys(entropy)


def rng_streams(master_seed: int, *labels):
    """An iterator over the generators of ``rng_stream(master_seed, *labels_i)`` for each i.

    Labels as for ``philox_keys``, which keys every stream up front.  One
    Philox bit generator and one Generator serve them all: before each
    yield the bit generator is re-seated to the fresh state of the next
    key (counter 0, empty buffer), so every yielded generator draws
    exactly the numbers ``rng_stream`` would.  Each is the same object and
    is valid only until the next is drawn; consume the streams one at a
    time.  The keys are computed, and the labels checked, at the call.
    """
    keys = philox_keys(master_seed, *labels)
    bits = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    fresh = bits.state
    rng = np.random.Generator(bits)

    def reseated():
        for key in keys:
            fresh["state"]["key"] = key
            bits.state = fresh
            yield rng

    return reseated()


def _singular_errors(eigenvalues: np.ndarray) -> tuple:
    """Per matrix of a stack: None, or the SingularMatrixError it fails with.

    Row i of ``eigenvalues`` (shape (R, k)) holds every eigenvalue of
    matrix i.  A matrix fails when its smallest eigenvalue is at or below
    the positive-definiteness threshold, which is scale-aware and floored
    so that near-zero matrices are still flagged: 1e-10 * max(largest, 1).
    Degenerate data (a constant column, a response indicator without
    variation, or perfectly correlated columns) surfaces here; the
    quadratic-form kernel passes the eigenvalues of Corr(X) (x) Corr(R).
    """
    smallest = eigenvalues.min(axis=1)
    threshold = 1e-10 * np.maximum(eigenvalues.max(axis=1, initial=0.0), 1.0)
    errors = [None] * len(eigenvalues)
    for i in np.flatnonzero(smallest <= threshold):
        errors[i] = SingularMatrixError(
            f"matrix is singular or not positive definite "
            f"(smallest eigenvalue {smallest[i]:.3e})",
            eigenvalue=float(smallest[i]),
        )
    return tuple(errors)


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
    """Midranks in [1, n] along the last axis; ties receive the average of
    the ranks they cover.

    Each row is ``scipy.stats.rankdata(row, method="average")`` bit for
    bit: a tie run over sorted positions [start, end) gets
    (start + end + 1) / 2, a half-integer and so exact in float64.  Tied
    values share one rank, so the sort need not be stable.  A stack of
    rows is ranked in one sort; a row with any NaN gets NaN for every rank.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = x.shape[-1]
    if n < 1:
        raise DegenerateDataError("ranks require at least one value")
    order = np.argsort(x, axis=-1)
    xs = np.take_along_axis(x, order, axis=-1)
    # tie runs over the flattened sorted rows, each row opening a new run
    new = np.ones(x.shape, dtype=bool)
    np.not_equal(xs[..., 1:], xs[..., :-1], out=new[..., 1:])
    starts = np.flatnonzero(new)
    ends = np.append(starts[1:], x.size)
    # a run's positions within its row: the flat ones less the row's offset
    mid = (starts + ends + 1 - 2 * n * (starts // n)) / 2.0
    out = np.empty_like(x)
    np.put_along_axis(out, order, np.repeat(mid, ends - starts).reshape(x.shape), axis=-1)
    out[np.isnan(x).any(axis=-1)] = np.nan
    return out


def median(x) -> np.ndarray:
    """Medians along the last axis; ``np.median(x, axis=-1)`` bit for bit.

    numpy's steps without its ``numpy.ma`` import: one ``np.partition`` at
    the same kth indices (the middle one or two, and the last, where NaNs
    sort), then the mean of the middle one or two values as numpy rounds
    it, and for a row with any NaN the NaN that sorted last.  numpy's mean
    sums from +0.0, so a median of -0.0 values comes out +0.0.
    """
    x = np.asarray(x, dtype=float)
    half = x.shape[-1] // 2
    odd = x.shape[-1] % 2
    part = np.partition(x, [half, -1] if odd else [half - 1, half, -1], axis=-1)
    if odd:
        mid = 0.0 + part[..., half]
    else:
        mid = (0.0 + part[..., half - 1] + part[..., half]) / 2.0
    last = part[..., -1]
    return np.where(np.isnan(last), last, mid)
