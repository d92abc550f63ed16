"""MCAR hypothesis tests.

Four tests are exposed:

* ``ustat_mcar_test`` -- quadratic-form test built from the p*q mean-product
  gaps between complete columns and response indicators, calibrated against
  the chi-squared distribution with p*q degrees of freedom.
* ``bivariate_mcar_test`` -- the studentized single-pair variant with a
  standard-normal calibration (two-sided).
* ``little_mcar_univariate`` -- Little's d2 for exactly one
  missingness-prone column.
* ``little_mcar_general`` -- Little's d2 for arbitrary missingness patterns,
  using EM estimates of the mean and covariance.

Each test returns a TestResult with the statistic, degrees of freedom,
p-value, accept/reject decision, and method-specific diagnostics.  Each is
the one-dataset call of a batch kernel, ``kernel(values, mask, roles)``,
that tests a stack of R datasets of one shape at once, given as (R, n, d)
value and mask arrays, and returns {wire name: BatchResult}.

The first three are one statistic.  With one incomplete column, Little's
d2 equals the quadratic form (Little 1988), and at p = q = 1 the quadratic
form is the square of the studentized gap.  So one kernel,
``closed_form_batch``, factors each dataset once and returns ``dn`` and
``d2_univariate`` as views of ``an``'s result; the closed forms they
replace are the test suite's independent references.

``TESTS`` is the one test registry: by wire name, each test's batch kernel
and the column shapes it applies to.  ``run_batch`` runs tests on a stack,
each distinct kernel once.  ``TESTS[tag].run`` is its call on one dataset,
after checking alpha and the roles; the first three functions are its
calls.  ``little_mcar_general`` reads no roles and calls its kernel.
"""

from dataclasses import asdict, dataclass, field, replace
from functools import reduce
from typing import Callable

import numpy as np

from .data import ColumnRoles, Dataset
from .em import em_mvn
from .errors import DegenerateDataError, SingularMatrixError
from .numerics import _singular_errors, chi2_sf, spd_eigh_stack

__all__ = [
    "TestResult",
    "BatchResult",
    "check_alpha",
    "mean_product_gap",
    "closed_form_batch",
    "ustat_mcar_test",
    "bivariate_mcar_test",
    "little_mcar_univariate",
    "little_general_batch",
    "little_mcar_general",
    "TestSpec",
    "TESTS",
    "run_batch",
    "KNOWN_TESTS",
    "resolve_test",
    "resolve_tests",
]

_EPS = np.finfo(float).eps

# rows of each dataset that the quadratic-form kernel factors at a time
_QR_ROWS = 8192


@dataclass(frozen=True)
class TestResult:
    """Outcome of one MCAR test."""

    method: str
    statistic: float
    df: int
    p_value: float
    alpha: float
    reject: bool
    diagnostics: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        """Flat key-value record for CSV/JSON emission."""
        return asdict(self)


def check_alpha(alpha: float) -> None:
    """The one significance-level rule: raise ValueError unless 0 < alpha <= 1."""
    # alpha = 1 is allowed: it makes every test reject, which the Monte-Carlo
    # harness uses as a sanity probe
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")


def mean_product_gap(x, r):
    """Gap between the product of means and the mean of products.

    For a complete column ``x`` and a 0/1 response column ``r`` this
    estimates E(X)E(R) - E(XR), which is zero when the response is
    uncorrelated with the column.  Returns ``(unbiased, biased)``: the
    plug-in estimate and its n/(n-1) bias correction, computed in O(n).
    Works along the last axis: floats for 1-D input, one gap per row for a
    stack of rows.

    Raises DegenerateDataError for n < 2.
    """
    x = np.asarray(x, dtype=float)
    r = np.asarray(r, dtype=float)
    n = x.shape[-1]
    if n < 2:
        raise DegenerateDataError("mean_product_gap requires n >= 2")
    if r.shape != x.shape:
        raise ValueError("x and r must have the same length")
    biased = x.mean(axis=-1) * r.mean(axis=-1) - (x * r).mean(axis=-1)
    unbiased = biased * n / (n - 1.0)
    if biased.ndim == 0:
        return float(unbiased), float(biased)
    return unbiased, biased


@dataclass(frozen=True)
class BatchResult:
    """One test over a stack of R datasets, as its batch kernel returns it.

    ``statistic``, ``p_value`` and ``df`` have shape (R,).  ``errors[i]`` is
    None, or the exception the test raises for dataset i alone; that
    entry's statistic is a placeholder 0.0 (p-value 1).  ``diagnostics``
    maps each name to an array with one row per dataset; an ``n`` there
    takes the place of the shared row count ``n``.
    """

    method: str
    df: np.ndarray
    n: int
    statistic: np.ndarray
    p_value: np.ndarray
    errors: tuple
    diagnostics: dict

    def result(self, i: int, alpha: float) -> TestResult:
        """Dataset i's TestResult; raises its exception if it has one."""
        if self.errors[i] is not None:
            raise self.errors[i]
        p_value = float(self.p_value[i])
        diagnostics = {key: value[i].tolist() for key, value in self.diagnostics.items()}
        diagnostics.setdefault("n", self.n)
        return TestResult(
            method=self.method,
            statistic=float(self.statistic[i]),
            df=int(self.df[i]),
            p_value=p_value,
            alpha=alpha,
            reject=p_value <= alpha,
            diagnostics=diagnostics,
        )


def closed_form_batch(values, mask, roles: ColumnRoles) -> dict:
    """The closed-form tests on each dataset of an (R, n, d) stack.

    Returns {"an": BatchResult}, with "d2_univariate" too when q = 1 and
    "dn" when p = q = 1: those two are views of ``an``'s result, so every
    closed-form test of a stack costs one pass.  Each dataset's outcome is
    bitwise the same in a stack of any size.

    The statistic is n * ||Q_x' Q_r||_F^2, Q_x and Q_r orthonormal bases of
    the centred complete columns and response indicators: n times the sum
    of their squared sample canonical correlations (Pillai's trace), which
    is n * g' S^-1 g.  Both bases come from one Householder QR,
    [X R] = Q T, of the centred columns each divided by its norm: Q_x is
    Q's first p columns, and with the small QR T[:, p:] = Q_B T_r the
    response basis is Q Q_B, so Q_x' Q_r is Q_B's first p rows (Bjorck &
    Golub 1973).  No cross-product of the columns is formed.  T is taken
    ``_QR_ROWS`` rows at a time: the R factor of each block, then one QR of
    those stacked, so the working memory does not grow with n.
    """
    p, d, n = roles.p, roles.p + roles.q, values.shape[1]
    if n < 3:
        raise DegenerateDataError("the quadratic-form test requires n >= 3")
    complete, incomplete = list(roles.complete), list(roles.incomplete)

    def columns(rows):
        # the block's complete columns, then its response indicators, one
        # row each, so every dataset's slice has the same strides in a
        # stack of any size
        x = values[:, rows].transpose(0, 2, 1)[:, complete]
        r = mask[:, rows].transpose(0, 2, 1)[:, incomplete]
        return np.concatenate([x, r], axis=1, dtype=float)

    # three passes over the rows: the column means, the centred column
    # norms, and a QR of each block of centred unit-norm columns.  A stack
    # that is one block is gathered once and centred in place once; a
    # taller one is gathered, and centred in place, once a pass.
    spans = [slice(lo, lo + _QR_ROWS) for lo in range(0, n, _QR_ROWS)]
    one = [columns(spans[0])] if len(spans) == 1 else None

    def gathered():
        return one or map(columns, spans)

    mean = reduce(np.add, (z.sum(axis=-1, keepdims=True) for z in gathered())) / n
    if one:
        one[0] -= mean

    def centred():
        for z in gathered():
            if not one:
                z -= mean
            yield z

    norms = np.sqrt(reduce(np.add, (np.einsum("...i,...i->...", c, c) for c in centred())))
    # a column whose centred norm is within the rounding of its centring
    # (n eps times the norm of its constant part) is constant: it is taken
    # as zero, so that its correlation matrix has a zero eigenvalue
    kept = norms > n * _EPS * np.sqrt(n) * np.abs(mean[..., 0])
    scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=kept)[..., None]
    parts = []
    for c in centred():
        c *= scale
        parts.append(np.linalg.qr(np.swapaxes(c, -1, -2), mode="r"))
    # the R factor of the blocks' stacked R factors is that of all the rows
    # (Demmel, Grigori, Hoemmen & Langou 2012); with fewer rows than
    # columns, T's rows past n stay zero
    if len(parts) > 1:
        parts = [np.linalg.qr(np.concatenate(parts, axis=1), mode="r")]
    t = np.zeros((len(norms), d, d))
    t[:, : min(n, d)] = parts[0]
    basis, t_r = np.linalg.qr(t[:, :, p:])
    cross = basis[:, :p]
    t_x = t[:, :p, :p]
    statistic = n * np.sum(cross**2, axis=(-2, -1))
    # S is singular when Corr(X) (x) Corr(R) is, which does not depend on
    # units; the 1e-10 threshold is far above the eigenvalues' rounding
    corr_x = np.linalg.eigvalsh(np.swapaxes(t_x, -1, -2) @ t_x)
    corr_r = np.linalg.eigvalsh(np.swapaxes(t_r, -1, -2) @ t_r)
    errors = _singular_errors(corr_x[:, :, None] * corr_r[:, None, :])
    failed = np.array([e is not None for e in errors], dtype=bool)
    statistic[failed] = 0.0
    # T_x D_x = U_x diag(s_x) V_x' for D_x the column norms, so Cov(X) is
    # V_x diag(s_x**2) V_x' / (n - 1), and likewise Cov(R); the symmetric
    # root S^(-1/2) (sqrt(n) g) is then -sqrt(n) vec(V_x U_x' Q_x' Q_r U_r V_r')
    u_x, s_x, vt_x = np.linalg.svd(t_x * norms[:, None, :p])
    u_r, s_r, vt_r = np.linalg.svd(t_r * norms[:, None, p:])
    components = -np.sqrt(n) * (np.swapaxes(u_x @ vt_x, -1, -2) @ cross @ (u_r @ vt_r))
    # a singular entry's diagnostics are never reported: 1 keeps the
    # condition number of S finite there
    low = np.where(failed, 1.0, s_x[:, -1] * s_r[:, -1])
    df = p * roles.q
    an = BatchResult(
        method="an",
        df=np.full(len(statistic), df),
        n=n,
        statistic=statistic,
        p_value=chi2_sf(statistic, df),
        errors=errors,
        diagnostics={
            "components": components.reshape(len(components), -1),
            "sigma_condition": (s_x[:, 0] * s_r[:, 0] / low) ** 2,
        },
    )
    out = {"an": an}
    if roles.q == 1:
        # with one incomplete column, Little's d2 is the quadratic-form
        # statistic
        n_obs = mask[:, :, roles.incomplete[0]].sum(axis=1)
        out["d2_univariate"] = replace(
            an,
            method="d2_univariate",
            errors=tuple(
                DegenerateDataError(
                    "the closed form needs both observed and missing rows "
                    f"(observed {k} of {n})"
                )
                if k in (0, n)
                else error
                for k, error in zip(n_obs.tolist(), errors)
            ),
            diagnostics={"n_observed": n_obs, "n_missing": n - n_obs},
        )
    if p == 1 and roles.q == 1:
        # the one standardized component is the studentized gap,
        # sqrt(n) gap / (sd_x sd_r), and its square the statistic
        sd = norms / np.sqrt(n - 1.0)
        studentized = np.where(failed, 0.0, components[:, 0, 0])
        out["dn"] = replace(
            an,
            method="dn",
            statistic=studentized,
            errors=tuple(
                DegenerateDataError(
                    "zero variance: the complete column is constant or the "
                    "incomplete column has no missingness variation"
                )
                if bad
                else None
                for bad in failed.tolist()
            ),
            diagnostics={
                "gap": studentized * sd[:, 0] * sd[:, 1] / np.sqrt(n),
                "sd_x": sd[:, 0],
                "sd_r": sd[:, 1],
            },
        )
    return out


def ustat_mcar_test(ds: Dataset, roles: ColumnRoles, alpha: float = 0.05) -> TestResult:
    """Quadratic-form MCAR test over all (complete, incomplete) column pairs.

    The statistic is n * g' S^-1 g, where g is the vector of unbiased
    mean-product gaps and S = Cov(X) (x) Cov(R) the matching covariance
    estimate; under MCAR it is asymptotically
    chi-squared with p*q degrees of freedom.  Large values indicate
    association between observed values and missingness.

    S is never formed.  The statistic is n times the sum of the squared
    sample canonical correlations between the complete columns and the
    response indicators, taken from orthonormal bases of the centred
    columns (see ``closed_form_batch``), so it does not depend on the
    columns' location or units.  S is singular, and SingularMatrixError
    raised, when Corr(X) (x) Corr(R) is: a constant column, a response
    indicator without variation, or collinear columns.  Diagnostics carry
    the standardized component vector S^(-1/2) (sqrt(n) g), whose squared
    sum is the statistic, and the condition number of S.  The test suite
    checks the statistic against the pq x pq route and the
    maximum-likelihood moment pair.  Computed as ``closed_form_batch`` of a
    stack of one.
    """
    return TESTS["an"].run(ds, roles, alpha)


def bivariate_mcar_test(ds: Dataset, roles: ColumnRoles, alpha: float = 0.05) -> TestResult:
    """Studentized MCAR test for one complete and one incomplete column.

    The unbiased mean-product gap scaled by sqrt(n) and the two sample
    standard deviations is asymptotically standard normal under MCAR;
    the test is two-sided, its p-value the chi-squared(1) tail of the
    square.  Raises DegenerateDataError wherever the quadratic-form test
    finds Var(X) * Var(R) singular.  Computed as ``closed_form_batch`` of a
    stack of one, whose one standardized component it is.
    """
    if roles.p != 1 or roles.q != 1:
        raise DegenerateDataError(
            "the bivariate test requires exactly one complete and one "
            f"incomplete column (got p={roles.p}, q={roles.q})"
        )
    return TESTS["dn"].run(ds, roles, alpha)


def little_mcar_univariate(ds: Dataset, roles: ColumnRoles, alpha: float = 0.05) -> TestResult:
    """Little's d2 for a single missingness-prone column.

    Compares the complete-column means of the observed-response rows and of
    the missing-response rows against the overall means, through the inverse
    of the maximum-likelihood estimate of Cov(X) * Var(R).  Chi-squared
    calibration with p degrees of freedom.  Requires both observed and
    missing rows to exist, and n >= 3.  The statistic is that of the
    quadratic-form test; computed as ``closed_form_batch`` of a stack of
    one.
    """
    if roles.q != 1:
        raise DegenerateDataError(
            "the closed form applies to exactly one incomplete column "
            f"(got q={roles.q})"
        )
    return TESTS["d2_univariate"].run(ds, roles, alpha)


def _one_pattern(held) -> bool:
    """True when the rows of ``held`` with an observed cell share one
    missingness pattern, or there are none; the copy of those rows is gone
    once it returns."""
    kept = held[held.any(axis=1)]
    return not kept.size or bool((kept == kept[0]).all())


def little_general_batch(values, mask, roles: ColumnRoles = None) -> dict:
    """``little_mcar_general`` on each dataset of an (R, n, d) stack, as
    {"d2_general": BatchResult}.

    Each dataset's slice gets its own EM fit (``roles`` is not used: d2
    reads the missingness of every column), and the d2 sums of all fits
    come from one ``spd_eigh_stack`` call over their padded observed blocks.
    """
    n_sets, _, d = values.shape
    fits, errors = [None] * n_sets, [None] * n_sets
    # empty first entries, so that a stack with no fit still concatenates
    blocks, devs = [np.empty((0, d, d))], [np.empty((0, d))]
    for i, held in enumerate(mask):
        if _one_pattern(held):
            errors[i] = DegenerateDataError(
                "Little's test is undefined for a single missingness pattern"
            )
            continue
        try:
            fit = fits[i] = em_mvn(values[i], held)
        except (DegenerateDataError, SingularMatrixError) as exc:
            errors[i] = exc
            continue
        # each observed block, padded to d x d with its mean observed
        # variance: a mean of its diagonal lies within its eigenvalue range,
        # so the singularity threshold sees the block's own extreme
        # eigenvalues
        pad = fit.observed @ np.diag(fit.sigma) / fit.observed.sum(axis=1)
        both = fit.observed[:, :, None] & fit.observed[:, None, :]
        blocks.append(np.where(both, fit.sigma, pad[:, None, None] * np.eye(d)))
        devs.append(np.where(fit.observed, fit.means - fit.mu, 0.0))
    w, v, singular = spd_eigh_stack(np.concatenate(blocks))
    # a padded block is its observed block and pad * I side by side, and dev
    # is zero off the observed columns: the sum is dev' inverse(block) dev
    projected = (np.swapaxes(v, 1, 2) @ np.concatenate(devs)[:, :, None])[:, :, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.sum(projected**2 / w, axis=1)

    statistic = np.zeros(n_sets)
    p_value = np.ones(n_sets)
    df = np.zeros(n_sets, dtype=int)
    lo = 0
    for i, fit in enumerate(fits):
        if fit is None:
            continue
        hi = lo + len(fit.counts)
        df[i] = fit.observed.sum() - d
        errors[i] = next((e for e in singular[lo:hi] if e is not None), None)
        if errors[i] is None and df[i] <= 0:
            errors[i] = DegenerateDataError("Little's test has no degrees of freedom here")
        if errors[i] is None:
            statistic[i] = fit.counts @ terms[lo:hi]
            p_value[i] = chi2_sf(statistic[i], int(df[i]))
        lo = hi
    result = BatchResult(
        method="d2_general",
        df=df,
        n=values.shape[1],
        statistic=statistic,
        p_value=p_value,
        errors=tuple(errors),
        diagnostics={
            "n_patterns": np.array([len(f.counts) if f else 0 for f in fits]),
            "em_iterations": np.array([f.iterations if f else 0 for f in fits]),
            "em_converged": np.array([f.converged if f else False for f in fits]),
            "em_ridged": np.array([f.ridged if f else False for f in fits]),
            # the kept rows, those with an observed cell
            "n": np.array([int(f.counts.sum()) if f else 0 for f in fits]),
        },
    )
    return {"d2_general": result}


def little_mcar_general(ds: Dataset, alpha: float = 0.05) -> TestResult:
    """Little's d2 for arbitrary missingness patterns.

    The statistic sums, over the missingness patterns of the EM fit, the
    Mahalanobis distance between the pattern's observed-column means and
    the EM estimates of the corresponding means, weighted by the pattern
    size.  Degrees of freedom: sum of per-pattern observed counts minus the
    number of columns.  Rows with no observed cell are dropped; the ``n``
    diagnostic counts the rows kept.

    Raises DegenerateDataError when fewer than two patterns are present (the
    test is undefined) and SingularMatrixError for a singular observed block.
    Computed as ``little_general_batch`` of a stack of one.
    """
    check_alpha(alpha)
    return little_general_batch(ds.values[None], ds.mask[None])["d2_general"].result(0, alpha)


@dataclass(frozen=True)
class TestSpec:
    """What the harness and the CLI need to know about one test.

    ``batch(values, mask, roles)`` tests an (R, n, d) stack of datasets of
    one shape at once and returns {wire name: BatchResult}, for this test
    and any other whose result comes from the same pass.  ``p`` and ``q``,
    when set, are the only numbers of complete and incomplete columns the
    test applies to.
    """

    batch: Callable
    p: int = None
    q: int = None

    def run(self, ds: Dataset, roles: ColumnRoles, alpha: float) -> TestResult:
        """Test one dataset: ``run_batch`` of a stack of one, after checking
        alpha and the roles; raises the test's exception for it."""
        check_alpha(alpha)
        roles.validate(ds)
        (tag,) = [tag for tag, spec in TESTS.items() if spec is self]
        return run_batch((tag,), ds.values[None], ds.mask[None], roles)[tag].result(0, alpha)

    def check_shape(self, tag: str, p: int, q: int) -> None:
        """Raise ValueError unless the test applies to p complete and q
        incomplete columns."""
        if self.p not in (None, p) or self.q not in (None, q):
            needs = [f"{k} = {v}" for k, v in (("p", self.p), ("q", self.q)) if v]
            raise ValueError(f"the {tag} test requires {' and '.join(needs)}")


# The test registry, by resolved wire name.
TESTS = {
    "an": TestSpec(closed_form_batch),
    "dn": TestSpec(closed_form_batch, p=1, q=1),
    "d2_univariate": TestSpec(closed_form_batch, q=1),
    "d2_general": TestSpec(little_general_batch),
}


def run_batch(tags, values, mask, roles: ColumnRoles) -> dict:
    """{tag: BatchResult} of each test of ``tags`` (resolved wire names) on
    an (R, n, d) stack, in the order given.

    Each distinct kernel runs once: a test whose result an earlier kernel
    already returned costs nothing.  Raises DegenerateDataError when no
    column is incomplete, and ValueError for a test that does not apply to
    the roles' numbers of columns.
    """
    if roles.q == 0:
        raise DegenerateDataError("no incomplete columns")
    for tag in tags:
        TESTS[tag].check_shape(tag, roles.p, roles.q)
    results = {}
    for tag in tags:
        if tag not in results:
            results.update(TESTS[tag].batch(values, mask, roles))
    return {tag: results[tag] for tag in tags}


# wire names; "d2" picks the closed form when q = 1 and the general
# (EM-based) statistic otherwise
KNOWN_TESTS = (*TESTS, "d2")


def resolve_test(tag: str, q: int) -> str:
    if tag not in KNOWN_TESTS:
        raise ValueError(f"unknown test {tag!r}; expected one of {KNOWN_TESTS}")
    if tag == "d2":
        return "d2_univariate" if q == 1 else "d2_general"
    return tag


def resolve_tests(tags, q: int) -> tuple:
    """Resolved wire names of ``tags``, each once, in first-seen order."""
    return tuple(dict.fromkeys(resolve_test(t, q) for t in tags))
