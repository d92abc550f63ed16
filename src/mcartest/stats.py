"""MCAR hypothesis tests.

Four tests are exposed:

* ``ustat_mcar_test`` -- quadratic-form test built from the p*q mean-product
  gaps between complete columns and response indicators, calibrated against
  the chi-squared distribution with p*q degrees of freedom.
* ``bivariate_mcar_test`` -- the studentized single-pair variant with a
  standard-normal calibration (two-sided).
* ``little_mcar_univariate`` -- Little's d2 in its closed form for exactly
  one missingness-prone column, built from complete-column moments only.
* ``little_mcar_general`` -- Little's d2 for arbitrary missingness patterns,
  using EM estimates of the mean and covariance.

Each test returns a TestResult with the statistic, degrees of freedom,
p-value, accept/reject decision, and method-specific diagnostics.
"""

from dataclasses import dataclass, field

import numpy as np

from .data import ColumnRoles, Dataset, response_matrix
from .em import em_mvn
from .errors import DegenerateDataError
from .numerics import (
    chi2_sf,
    column_var,
    cov_matrix,
    kron_spd_eigh_stack,
    normal_cdf,
    spd_eigh_stack,
)

__all__ = [
    "GapStats",
    "TestResult",
    "BatchResult",
    "check_alpha",
    "mean_product_gap",
    "gap_matrix",
    "stack_columns",
    "ustat_batch",
    "ustat_mcar_test",
    "bivariate_batch",
    "bivariate_mcar_test",
    "little_univariate_batch",
    "little_mcar_univariate",
    "little_mcar_general",
]

METHOD_USTAT = "an"
METHOD_BIVARIATE = "dn"
METHOD_LITTLE_UNIVARIATE = "d2_univariate"
METHOD_LITTLE_GENERAL = "d2_general"


@dataclass(frozen=True)
class GapStats:
    """Mean-product gaps for every (complete column, response column) pair.

    ``unbiased`` and ``biased`` are p x q matrices; row u, column v holds the
    gap between complete column u and the response indicator of incomplete
    column v.  The unbiased entries equal n/(n-1) times the biased ones by
    construction.
    """

    unbiased: np.ndarray
    biased: np.ndarray
    n: int


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
        return {
            "method": self.method,
            "statistic": self.statistic,
            "df": self.df,
            "p_value": self.p_value,
            "alpha": self.alpha,
            "reject": self.reject,
            "diagnostics": dict(self.diagnostics),
        }


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


def stack_columns(datasets, roles: ColumnRoles) -> tuple[np.ndarray, np.ndarray]:
    """Complete-column values and float response indicators of R datasets.

    The datasets share n and the column layout.  Returns (R, n, p) and
    (R, n, q) arrays whose columns are each contiguous, as
    ``ds.values[:, cols]`` gives them for one dataset, so every dataset's
    slice has the same strides in a stack of any size.  Roles are not
    checked here; see ``_columns``.
    """
    values = np.stack([ds.values for ds in datasets]).transpose(0, 2, 1)
    mask = np.stack([ds.mask for ds in datasets]).transpose(0, 2, 1)
    x = np.ascontiguousarray(values[:, list(roles.complete)])
    r = np.ascontiguousarray(mask[:, list(roles.incomplete)], dtype=float)
    return x.transpose(0, 2, 1), r.transpose(0, 2, 1)


def _columns(ds: Dataset, roles: ColumnRoles) -> tuple[np.ndarray, np.ndarray]:
    """``stack_columns`` of one dataset, after checking the roles against it."""
    response_matrix(ds, roles)  # raises for roles that do not fit ds
    return stack_columns([ds], roles)


def _gaps(x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Biased mean-product gaps, (R, p, q), of (R, n, p) and (R, n, q) stacks."""
    n = x.shape[-2]
    means = x.mean(axis=-2)[..., :, None] * r.mean(axis=-2)[..., None, :]
    return means - (np.swapaxes(x, -1, -2) @ r) / n


def gap_matrix(ds: Dataset, roles: ColumnRoles) -> GapStats:
    """All p*q mean-product gaps, vectorized.

    Row u = complete column u, column v = incomplete column v; flattened
    row-major, this is the order of the pq x pq covariance Cov(X) (x) Cov(R).
    """
    if ds.n < 2:
        raise DegenerateDataError("gap statistics require n >= 2")
    n = ds.n
    biased = _gaps(*_columns(ds, roles))[0]
    return GapStats(unbiased=biased * (n / (n - 1.0)), biased=biased, n=n)


@dataclass(frozen=True)
class BatchResult:
    """One test over a stack of R datasets, as its batch kernel returns it.

    ``statistic`` and ``p_value`` have shape (R,).  ``errors[i]`` is None,
    or the exception the test raises for dataset i alone; that entry's
    statistic is a placeholder 0.0 (p-value 1).  ``diagnostics`` maps each
    name to an array with one row per dataset.
    """

    method: str
    df: int
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
        return TestResult(
            method=self.method,
            statistic=float(self.statistic[i]),
            df=self.df,
            p_value=p_value,
            alpha=alpha,
            reject=p_value <= alpha,
            diagnostics={**diagnostics, "n": self.n},
        )


def _failed(errors: tuple) -> np.ndarray:
    return np.array([e is not None for e in errors], dtype=bool)


def ustat_batch(x: np.ndarray, r: np.ndarray) -> BatchResult:
    """``ustat_mcar_test`` on each dataset of a stack.

    ``x`` and ``r`` are the (R, n, p) values and (R, n, q) response
    indicators from ``stack_columns``.  Each dataset's outcome is bitwise
    the same in a stack of any size.
    """
    n = x.shape[-2]
    if n < 3:
        raise DegenerateDataError("the quadratic-form test requires n >= 3")
    gaps = _gaps(x, r) * (n / (n - 1.0))
    w, v_x, v_r, errors = kron_spd_eigh_stack(cov_matrix(x), cov_matrix(r))
    failed = _failed(errors)
    w_safe = np.where(failed[:, None, None], 1.0, w)
    h = (np.swapaxes(v_x, -1, -2) @ gaps @ v_r) / np.sqrt(w_safe)
    statistic = n * np.sum(h**2, axis=(-2, -1))
    statistic[failed] = 0.0
    components = np.sqrt(n) * (v_x @ h @ np.swapaxes(v_r, -1, -2))
    df = x.shape[-1] * r.shape[-1]
    return BatchResult(
        method=METHOD_USTAT,
        df=df,
        n=n,
        statistic=statistic,
        p_value=chi2_sf(statistic, df),
        errors=errors,
        diagnostics={
            "components": components.reshape(len(components), -1),
            "sigma_condition": w_safe.max(axis=(-2, -1)) / w_safe.min(axis=(-2, -1)),
        },
    )


def ustat_mcar_test(ds: Dataset, roles: ColumnRoles, alpha: float = 0.05) -> TestResult:
    """Quadratic-form MCAR test over all (complete, incomplete) column pairs.

    The statistic is n * g' S^-1 g, where g is the vector of unbiased
    mean-product gaps and S = Cov(X) (x) Cov(R) the matching covariance
    estimate; under MCAR it is asymptotically
    chi-squared with p*q degrees of freedom.  Large values indicate
    association between observed values and missingness.

    S is never formed.  With Cov(X) = V_x diag(w_x) V_x', Cov(R) =
    V_r diag(w_r) V_r' and W = outer(w_x, w_r) the eigenvalues of S, the
    statistic is n * sum(H**2) for H = V_x' G V_r / sqrt(W), G the p x q
    gap matrix.  Diagnostics carry the standardized component vector
    S^(-1/2) (sqrt(n) g) = sqrt(n) vec(V_x H V_r'), whose squared sum is
    the statistic, and the condition number of S.  The test suite checks
    the statistic against the pq x pq route and the maximum-likelihood
    moment pair.  Computed as ``ustat_batch`` of a one-dataset stack.
    """
    check_alpha(alpha)
    return ustat_batch(*_columns(ds, roles)).result(0, alpha)


def bivariate_batch(x: np.ndarray, r: np.ndarray) -> BatchResult:
    """``bivariate_mcar_test`` on each dataset of a stack with p = q = 1."""
    p, q = x.shape[-1], r.shape[-1]
    if p != 1 or q != 1:
        raise DegenerateDataError(
            "the bivariate test requires exactly one complete and one "
            f"incomplete column (got p={p}, q={q})"
        )
    n = x.shape[-2]
    if n < 3:
        raise DegenerateDataError("the bivariate test requires n >= 3")
    x = x[..., 0]
    r = r[..., 0]
    t, _ = mean_product_gap(x, r)
    s_x = x.std(axis=-1, ddof=1)
    s_r = r.std(axis=-1, ddof=1)
    failed = (s_x <= 0.0) | (s_r <= 0.0)
    errors = tuple(
        DegenerateDataError(
            "zero variance: the complete column is constant or the "
            "incomplete column has no missingness variation"
        )
        if bad
        else None
        for bad in failed.tolist()
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        statistic = np.sqrt(n) * t / (s_x * s_r)
    statistic[failed] = 0.0
    return BatchResult(
        method=METHOD_BIVARIATE,
        df=1,
        n=n,
        statistic=statistic,
        p_value=2.0 * (1.0 - normal_cdf(np.abs(statistic))),
        errors=errors,
        diagnostics={"gap": t, "sd_x": s_x, "sd_r": s_r},
    )


def bivariate_mcar_test(ds: Dataset, roles: ColumnRoles, alpha: float = 0.05) -> TestResult:
    """Studentized MCAR test for one complete and one incomplete column.

    The unbiased mean-product gap scaled by sqrt(n) and the two sample
    standard deviations is asymptotically standard normal under MCAR;
    the test is two-sided.  Computed as ``bivariate_batch`` of a
    one-dataset stack.
    """
    check_alpha(alpha)
    return bivariate_batch(*_columns(ds, roles)).result(0, alpha)


def little_univariate_batch(x: np.ndarray, r: np.ndarray) -> BatchResult:
    """``little_mcar_univariate`` on each dataset of a stack with q = 1."""
    if r.shape[-1] != 1:
        raise DegenerateDataError(
            "the closed form applies to exactly one incomplete column "
            f"(got q={r.shape[-1]})"
        )
    n = x.shape[-2]
    n_obs = r[..., 0].sum(axis=-1).astype(int)
    empty = (n_obs == 0) | (n_obs == n)
    # the observed and the missing rows' column sums, x'r and x'(1 - r)
    sums = np.swapaxes(x, -1, -2) @ np.concatenate([r, 1.0 - r], axis=-1)
    counts = np.stack([n_obs, n - n_obs], axis=-1)[:, None, :]
    overall = x.mean(axis=-2)[..., None]
    dev = sums / np.where(empty[:, None, None], 1, counts) - overall

    sigma_ml = cov_matrix(x, "ml") * column_var(r[..., 0], "ml")[:, None, None]
    w, v, singular = spd_eigh_stack(sigma_ml)
    errors = tuple(
        DegenerateDataError(
            "the closed form needs both observed and missing rows "
            f"(observed {k} of {n})"
        )
        if bad
        else error
        for k, bad, error in zip(n_obs.tolist(), empty.tolist(), singular)
    )
    failed = _failed(errors)
    w = np.where(failed[:, None], 1.0, w)
    sigma_inv = (v / w[:, None, :]) @ np.swapaxes(v, -1, -2)
    dev_obs = dev[..., 0][:, None, :]
    dev_mis = dev[..., 1][:, None, :]
    quad_obs = (dev_obs @ sigma_inv @ np.swapaxes(dev_obs, -1, -2))[:, 0, 0]
    quad_mis = (dev_mis @ sigma_inv @ np.swapaxes(dev_mis, -1, -2))[:, 0, 0]
    rbar = n_obs / n
    statistic = (
        n * rbar**2 * (1.0 - rbar) * quad_obs
        + n * rbar * (1.0 - rbar) ** 2 * quad_mis
    )
    statistic[failed] = 0.0
    df = x.shape[-1]
    return BatchResult(
        method=METHOD_LITTLE_UNIVARIATE,
        df=df,
        n=n,
        statistic=statistic,
        p_value=chi2_sf(statistic, df),
        errors=errors,
        diagnostics={"n_observed": n_obs, "n_missing": n - n_obs},
    )


def little_mcar_univariate(ds: Dataset, roles: ColumnRoles, alpha: float = 0.05) -> TestResult:
    """Little's d2 for a single missingness-prone column, in closed form.

    Compares the complete-column means of the observed-response rows and of
    the missing-response rows against the overall means, through the inverse
    of the maximum-likelihood estimate of Cov(X) * Var(R).  Chi-squared
    calibration with p degrees of freedom.  Requires both observed and
    missing rows to exist.  Computed as ``little_univariate_batch`` of a
    one-dataset stack.
    """
    check_alpha(alpha)
    return little_univariate_batch(*_columns(ds, roles)).result(0, alpha)


def little_mcar_general(ds: Dataset, alpha: float = 0.05) -> TestResult:
    """Little's d2 for arbitrary missingness patterns.

    The statistic sums, over the missingness patterns of the EM fit, the
    Mahalanobis distance between the pattern's observed-column means and
    the EM estimates of the corresponding means, weighted by the pattern
    size.  Degrees of freedom: sum of per-pattern observed counts minus the
    number of columns.  Rows with no observed cell are dropped.

    Raises DegenerateDataError when fewer than two patterns are present (the
    test is undefined) and SingularMatrixError for a singular observed block.
    """
    check_alpha(alpha)
    keep = ds.mask.any(axis=1)
    mask = ds.mask[keep]
    if not mask.size or (mask == mask[0]).all():
        raise DegenerateDataError(
            "Little's test is undefined for a single missingness pattern"
        )

    fit = em_mvn(ds)
    z = np.where(mask, ds.values[keep], 0.0)
    observed = np.array([mask[rows[0]] for _, rows in fit.patterns])
    counts = np.array([rows.size for _, rows in fit.patterns])
    means = np.array([z[rows].mean(axis=0) for _, rows in fit.patterns])
    dev = np.where(observed, means - fit.mu, 0.0)
    # each observed block, padded to d x d with its mean observed variance:
    # a mean of its diagonal lies within its eigenvalue range, so the
    # singularity threshold sees the block's own extreme eigenvalues
    pad = observed @ np.diag(fit.sigma) / observed.sum(axis=1)
    both = observed[:, :, None] & observed[:, None, :]
    w, v, errors = spd_eigh_stack(np.where(both, fit.sigma, pad[:, None, None] * np.eye(ds.d)))
    for error in errors:
        if error is not None:
            raise error
    # a padded block is its observed block and pad * I side by side, and dev
    # is zero off the observed columns: the sum is dev' inverse(block) dev
    projected = (np.swapaxes(v, 1, 2) @ dev[:, :, None])[:, :, 0]
    statistic = float(counts @ np.sum(projected**2 / w, axis=1))
    df = int(observed.sum()) - ds.d
    if df <= 0:
        raise DegenerateDataError("Little's test has no degrees of freedom here")

    p_value = chi2_sf(statistic, df)
    return TestResult(
        method=METHOD_LITTLE_GENERAL,
        statistic=statistic,
        df=df,
        p_value=p_value,
        alpha=alpha,
        reject=p_value <= alpha,
        diagnostics={
            "n_patterns": len(fit.patterns),
            "em_iterations": fit.iterations,
            "em_converged": fit.converged,
            "em_ridged": fit.ridged,
            "n": mask.shape[0],
        },
    )
