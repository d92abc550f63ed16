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
and the column shapes it applies to.  ``resolve_tests`` is the one shape
rule: it resolves the ``d2`` alias and rejects an unknown name, q = 0, and
a test that does not fit p x q (only ``d2_general`` fits p = 0).
``run_batch`` runs tests on a stack, each distinct kernel once.
``run_tests`` is its call on one dataset, after checking alpha and the
roles, for the CLI and the first three functions.  ``little_mcar_general``
reads no roles and calls its kernel.
"""

from dataclasses import asdict, dataclass, field, replace
from typing import Callable

import numpy as np

from .data import ColumnRoles, Dataset
from .em import em_mvn, pattern_stats
from .errors import DegenerateDataError, SingularMatrixError
from .numerics import _singular_errors, chi2_sf

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
    "run_tests",
    "KNOWN_TESTS",
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
    is n * g' S^-1 g.  Both bases come from one pass over the rows: a
    Householder QR of [1 | Z - c], Z = [X R] less c, the first block's
    column means.  With the ones column first, the trailing block of its R
    factor is that of the centred columns; each column divided by its norm,
    the centred norm, it is T in [X R] = Q T for the centred unit-norm
    columns.  Q_x is Q's first p columns, and with
    the small QR T[:, p:] = Q_B T_r the response basis is Q Q_B, so
    Q_x' Q_r is Q_B's first p rows (Bjorck & Golub 1973).  No cross-product
    of the columns is formed, and the shift keeps a large offset out of the
    factor.  The QR is taken ``_QR_ROWS`` rows at a time: the R factor of
    each block, then one QR of those stacked, so the working memory does not
    grow with n.  Past the QRs, only the eigenvalues of Corr(X) = T_x' T_x
    and Corr(R) = T_r' T_r are taken: they decide singularity and give
    ``corr_condition``.
    """
    p, d, n = roles.p, roles.p + roles.q, values.shape[1]
    if n < 3:
        raise DegenerateDataError("the quadratic-form test requires n >= 3")
    complete, incomplete = list(roles.complete), list(roles.incomplete)
    # each block is gathered once: a ones row, then the complete columns and
    # the response indicators less c, one row each, so every dataset's
    # slice has the same strides in a stack of any size
    shift, parts = None, []
    for lo in range(0, n, _QR_ROWS):
        rows = values[:, lo : lo + _QR_ROWS].transpose(0, 2, 1)
        z = np.empty((len(rows), 1 + d, rows.shape[-1]))
        z[:, 0] = 1.0
        z[:, 1 : 1 + p] = rows[:, complete]
        z[:, 1 + p :] = mask[:, lo : lo + _QR_ROWS].transpose(0, 2, 1)[:, incomplete]
        if shift is None:
            shift = z[:, 1:].mean(axis=-1, keepdims=True)
        z[:, 1:] -= shift
        parts.append(np.linalg.qr(np.swapaxes(z, -1, -2), mode="r"))
    # the R factor of the blocks' stacked R factors is that of all the rows
    # (Demmel, Grigori, Hoemmen & Langou 2012)
    if len(parts) > 1:
        parts = [np.linalg.qr(np.concatenate(parts, axis=1), mode="r")]
    # R's first row is sqrt(n) [1, mean - c] up to sign; with fewer rows
    # than columns, T's rows past n - 1 stay zero
    head, tail = parts[0][:, 0], parts[0][:, 1:, 1:]
    norms = np.sqrt(np.einsum("...ij,...ij->...j", tail, tail))
    mean = shift[..., 0] + head[:, 1:] / head[:, :1]
    # a column whose centred norm is within the rounding of its centring
    # (n eps times the norm of its constant part) is constant: it is taken
    # as zero, so that its correlation matrix has a zero eigenvalue
    kept = norms > n * _EPS * np.sqrt(n) * np.abs(mean)
    scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=kept)
    t = np.zeros((len(norms), d, d))
    t[:, : min(n - 1, d)] = tail * scale[:, None, :]
    basis, t_r = np.linalg.qr(t[:, :, p:])
    cross = basis[:, :p]
    t_x = t[:, :p, :p]
    statistic = n * np.sum(cross**2, axis=(-2, -1))
    # S is singular when Corr(X) (x) Corr(R) is, which does not depend on
    # units; the 1e-10 threshold is far above the eigenvalues' rounding
    corr_x = np.linalg.eigvalsh(np.swapaxes(t_x, -1, -2) @ t_x)
    corr_r = np.linalg.eigvalsh(np.swapaxes(t_r, -1, -2) @ t_r)
    corr = (corr_x[:, :, None] * corr_r[:, None, :]).reshape(len(t), -1)
    errors = _singular_errors(corr)
    failed = np.array([e is not None for e in errors], dtype=bool)
    statistic[failed] = 0.0
    # 1 keeps a singular entry's condition number, never reported, finite
    low = np.where(failed, 1.0, corr.min(axis=1))
    df = p * roles.q
    an = BatchResult(
        method="an",
        df=np.full(len(statistic), df),
        n=n,
        statistic=statistic,
        p_value=chi2_sf(statistic, df),
        errors=errors,
        diagnostics={"corr_condition": corr.max(axis=1) / low},
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
        # the studentized gap, sqrt(n) gap / (sd_x sd_r), is -sqrt(n) Q_x' Q_r
        # turned by the signs of T_x and T_r; adding 0.0 makes a zero product
        # +0.0, so an exact-zero statistic always has the same sign bit
        sd = norms / np.sqrt(n - 1.0)
        signed = np.sign(t_x[:, 0, 0]) * np.sign(t_r[:, 0, 0]) * cross[:, 0, 0] + 0.0
        studentized = np.where(failed, 0.0, -np.sqrt(n) * signed)
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
    indicator without variation, or collinear columns.  The diagnostic
    ``corr_condition``, the condition number of Corr(X) (x) Corr(R), is
    below 1e10 wherever S is not singular.  The test suite checks the
    statistic against the pq x pq route and the maximum-likelihood moment
    pair.  Computed as ``closed_form_batch`` of a stack of one.
    """
    return run_tests(("an",), ds, roles, alpha)[0]


def bivariate_mcar_test(ds: Dataset, roles: ColumnRoles, alpha: float = 0.05) -> TestResult:
    """Studentized MCAR test for one complete and one incomplete column.

    The unbiased mean-product gap scaled by sqrt(n) and the two sample
    standard deviations is asymptotically standard normal under MCAR;
    the test is two-sided, its p-value the chi-squared(1) tail of the
    square.  Raises DegenerateDataError wherever the quadratic-form test
    finds Var(X) * Var(R) singular.  Computed as ``closed_form_batch`` of a
    stack of one: the statistic is the signed root of ``an``'s.
    """
    return run_tests(("dn",), ds, roles, alpha)[0]


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
    return run_tests(("d2_univariate",), ds, roles, alpha)[0]


def little_general_batch(values, mask, roles: ColumnRoles = None) -> dict:
    """``little_mcar_general`` on each dataset of an (R, n, d) stack, as
    {"d2_general": BatchResult}.

    One ``em.pattern_stats`` call reduces the stack to a pattern record per
    dataset (``roles`` is not used: d2 reads the missingness of every
    column).  A record with one pattern or none is rejected; each other gets
    its own EM fit, and the d2 sums of all fits come from one
    ``np.linalg.eigh`` call over their padded observed blocks, singular by
    the rule of ``numerics._singular_errors``, as in ``closed_form_batch``.
    """
    n_sets, _, d = values.shape
    records = pattern_stats(values, mask)
    fits, errors = [None] * n_sets, [None] * n_sets
    # empty first entries, so that a stack with no fit still concatenates
    blocks, devs = [np.empty((0, d, d))], [np.empty((0, d))]
    for i, rec in enumerate(records):
        if len(rec.counts) <= 1:
            errors[i] = DegenerateDataError(
                "Little's test is undefined for a single missingness pattern"
            )
            continue
        try:
            fit = fits[i] = em_mvn(rec)
        except (DegenerateDataError, SingularMatrixError) as exc:
            errors[i] = exc
            continue
        # each observed block, padded to d x d with its mean observed
        # variance: a mean of its diagonal lies within its eigenvalue range,
        # so the singularity threshold sees the block's own extreme
        # eigenvalues
        pad = rec.observed @ np.diag(fit.sigma) / rec.observed.sum(axis=1)
        both = rec.observed[:, :, None] & rec.observed[:, None, :]
        blocks.append(np.where(both, fit.sigma, pad[:, None, None] * np.eye(d)))
        devs.append(np.where(rec.observed, rec.means - fit.mu, 0.0))
    # em_mvn returns an exactly symmetric sigma, so every block is symmetric
    w, v = np.linalg.eigh(np.concatenate(blocks))
    singular = _singular_errors(w)
    # a padded block is its observed block and pad * I side by side, and dev
    # is zero off the observed columns: the sum is dev' inverse(block) dev
    projected = (np.swapaxes(v, 1, 2) @ np.concatenate(devs)[:, :, None])[:, :, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.sum(projected**2 / w, axis=1)

    statistic = np.zeros(n_sets)
    p_value = np.ones(n_sets)
    df = np.zeros(n_sets, dtype=int)
    lo = 0
    for i, (rec, fit) in enumerate(zip(records, fits)):
        if fit is None:
            continue
        hi = lo + len(rec.counts)
        df[i] = rec.observed.sum() - d
        errors[i] = next((e for e in singular[lo:hi] if e is not None), None)
        if errors[i] is None and df[i] <= 0:
            errors[i] = DegenerateDataError("Little's test has no degrees of freedom here")
        if errors[i] is None:
            statistic[i] = rec.counts @ terms[lo:hi]
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
            "n_patterns": np.array([len(r.counts) if f else 0 for r, f in zip(records, fits)]),
            "em_iterations": np.array([f.iterations if f else 0 for f in fits]),
            "em_converged": np.array([f.converged if f else False for f in fits]),
            "em_ridged": np.array([f.ridged if f else False for f in fits]),
            # the kept rows, those with an observed cell
            "n": np.array([r.n if f else 0 for r, f in zip(records, fits)]),
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
    test applies to, and ``min_p`` is the fewest complete columns it
    needs; ``resolve_tests`` enforces them.
    """

    batch: Callable
    p: int = None
    q: int = None
    min_p: int = 1


# The test registry, by resolved wire name.
TESTS = {
    "an": TestSpec(closed_form_batch),
    "dn": TestSpec(closed_form_batch, p=1, q=1),
    "d2_univariate": TestSpec(closed_form_batch, q=1),
    "d2_general": TestSpec(little_general_batch, min_p=0),
}


def run_batch(tags, values, mask, roles: ColumnRoles) -> dict:
    """{tag: BatchResult} of each test of ``resolve_tests(tags, p, q)`` on
    an (R, n, d) stack, for the roles' p and q, in that order.

    Each distinct kernel runs once: a test whose result an earlier kernel
    already returned costs nothing.  Raises ``resolve_tests``'s errors.
    """
    tags = resolve_tests(tags, roles.p, roles.q)
    results = {}
    for tag in tags:
        if tag not in results:
            results.update(TESTS[tag].batch(values, mask, roles))
    return {tag: results[tag] for tag in tags}


def run_tests(tags, ds: Dataset, roles: ColumnRoles, alpha: float) -> list:
    """The TestResult of each test of ``resolve_tests(tags, p, q)`` on one
    dataset: ``run_batch`` of a stack of one, after checking alpha and the
    roles.  Raises the first failing test's exception."""
    check_alpha(alpha)
    roles.validate(ds)
    batches = run_batch(tags, ds.values[None], ds.mask[None], roles)
    return [batch.result(0, alpha) for batch in batches.values()]


# wire names; "d2" picks the closed form when q = 1 and p >= 1, and the
# general (EM-based) statistic otherwise
KNOWN_TESTS = (*TESTS, "d2")


def resolve_tests(tags, p: int, q: int) -> tuple:
    """The wire names ``tags`` resolved for p complete and q incomplete
    columns, each once, in first-seen order.

    The one shape rule: raises ValueError for a name not in ``KNOWN_TESTS``;
    then DegenerateDataError when q = 0, or when a test needs more complete
    columns than p; then ValueError for a test that does not apply to p and q.
    """
    for tag in tags:
        if tag not in KNOWN_TESTS:
            raise ValueError(f"unknown test {tag!r}; expected one of {KNOWN_TESTS}")
    if q == 0:
        raise DegenerateDataError("no incomplete columns")
    d2 = "d2_univariate" if q == 1 and p >= 1 else "d2_general"
    resolved = tuple(dict.fromkeys(d2 if tag == "d2" else tag for tag in tags))
    for tag in resolved:
        spec = TESTS[tag]
        if p < spec.min_p:
            raise DegenerateDataError(f"the {tag} test requires at least one complete column")
        if spec.p not in (None, p) or spec.q not in (None, q):
            needs = [f"{k} = {v}" for k, v in (("p", spec.p), ("q", spec.q)) if v]
            raise ValueError(f"the {tag} test requires {' and '.join(needs)}")
    return resolved
