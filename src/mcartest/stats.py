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
    inverse,
    kron_spd_eigh,
    normal_cdf,
)

__all__ = [
    "GapStats",
    "TestResult",
    "check_alpha",
    "mean_product_gap",
    "gap_matrix",
    "ustat_mcar_test",
    "bivariate_mcar_test",
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


def mean_product_gap(x, r) -> tuple[float, float]:
    """Gap between the product of means and the mean of products.

    For a complete column ``x`` and a 0/1 response column ``r`` this
    estimates E(X)E(R) - E(XR), which is zero when the response is
    uncorrelated with the column.  Returns ``(unbiased, biased)``: the
    plug-in estimate and its n/(n-1) bias correction, computed in O(n).

    Raises DegenerateDataError for n < 2.
    """
    x = np.asarray(x, dtype=float)
    r = np.asarray(r, dtype=float)
    n = x.size
    if n < 2:
        raise DegenerateDataError("mean_product_gap requires n >= 2")
    if r.shape != x.shape:
        raise ValueError("x and r must have the same length")
    biased = x.mean() * r.mean() - (x * r).mean()
    return float(biased * n / (n - 1.0)), float(biased)


def _columns(ds: Dataset, roles: ColumnRoles) -> tuple[np.ndarray, np.ndarray]:
    """Complete-column values and float response indicators."""
    r = response_matrix(ds, roles).astype(float)
    return ds.values[:, list(roles.complete)], r


def gap_matrix(ds: Dataset, roles: ColumnRoles) -> GapStats:
    """All p*q mean-product gaps, vectorized.

    Row u = complete column u, column v = incomplete column v; flattened
    row-major, this is the order of the pq x pq covariance Cov(X) (x) Cov(R).
    """
    if ds.n < 2:
        raise DegenerateDataError("gap statistics require n >= 2")
    x, r = _columns(ds, roles)
    n = ds.n
    biased = np.outer(x.mean(axis=0), r.mean(axis=0)) - (x.T @ r) / n
    return GapStats(unbiased=biased * (n / (n - 1.0)), biased=biased, n=n)


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
    moment pair.
    """
    check_alpha(alpha)
    if ds.n < 3:
        raise DegenerateDataError("the quadratic-form test requires n >= 3")
    gaps = gap_matrix(ds, roles)
    n = gaps.n
    x, r = _columns(ds, roles)
    w, v_x, v_r = kron_spd_eigh(cov_matrix(x), cov_matrix(r))
    h = (v_x.T @ gaps.unbiased @ v_r) / np.sqrt(w)
    statistic = float(n * np.sum(h**2))
    components = np.sqrt(n) * (v_x @ h @ v_r.T).reshape(-1)

    df = roles.p * roles.q
    p_value = chi2_sf(statistic, df)
    return TestResult(
        method=METHOD_USTAT,
        statistic=statistic,
        df=df,
        p_value=p_value,
        alpha=alpha,
        reject=p_value <= alpha,
        diagnostics={
            "components": [float(c) for c in components],
            "sigma_condition": float(w.max() / w.min()),
            "n": n,
        },
    )


def bivariate_mcar_test(ds: Dataset, roles: ColumnRoles, alpha: float = 0.05) -> TestResult:
    """Studentized MCAR test for one complete and one incomplete column.

    The unbiased mean-product gap scaled by sqrt(n) and the two sample
    standard deviations is asymptotically standard normal under MCAR;
    the test is two-sided.
    """
    check_alpha(alpha)
    if roles.p != 1 or roles.q != 1:
        raise DegenerateDataError(
            "the bivariate test requires exactly one complete and one "
            f"incomplete column (got p={roles.p}, q={roles.q})"
        )
    if ds.n < 3:
        raise DegenerateDataError("the bivariate test requires n >= 3")
    x = ds.values[:, roles.complete[0]]
    r = response_matrix(ds, roles)[:, 0].astype(float)
    t, _ = mean_product_gap(x, r)
    s_x = x.std(ddof=1)
    s_r = r.std(ddof=1)
    if s_x <= 0.0 or s_r <= 0.0:
        raise DegenerateDataError(
            "zero variance: the complete column is constant or the "
            "incomplete column has no missingness variation"
        )
    statistic = float(np.sqrt(ds.n) * t / (s_x * s_r))
    p_value = float(2.0 * (1.0 - normal_cdf(abs(statistic))))
    return TestResult(
        method=METHOD_BIVARIATE,
        statistic=statistic,
        df=1,
        p_value=p_value,
        alpha=alpha,
        reject=p_value <= alpha,
        diagnostics={"gap": t, "sd_x": float(s_x), "sd_r": float(s_r), "n": ds.n},
    )


def little_mcar_univariate(ds: Dataset, roles: ColumnRoles, alpha: float = 0.05) -> TestResult:
    """Little's d2 for a single missingness-prone column, in closed form.

    Compares the complete-column means of the observed-response rows and of
    the missing-response rows against the overall means, through the inverse
    of the maximum-likelihood estimate of Cov(X) * Var(R).  Chi-squared
    calibration with p degrees of freedom.  Requires both observed and
    missing rows to exist.
    """
    check_alpha(alpha)
    if roles.q != 1:
        raise DegenerateDataError(
            f"the closed form applies to exactly one incomplete column (got q={roles.q})"
        )
    r = response_matrix(ds, roles)[:, 0].astype(float)
    n = ds.n
    n_obs = int(r.sum())
    if n_obs == 0 or n_obs == n:
        raise DegenerateDataError(
            "the closed form needs both observed and missing rows "
            f"(observed {n_obs} of {n})"
        )
    x = ds.values[:, list(roles.complete)]
    overall = x.mean(axis=0)
    dev_obs = x[r == 1.0].mean(axis=0) - overall
    dev_mis = x[r == 0.0].mean(axis=0) - overall

    sigma_ml = cov_matrix(x, "ml") * column_var(r, "ml")
    sigma_inv = inverse(sigma_ml)
    rbar = n_obs / n
    statistic = float(
        n * rbar**2 * (1.0 - rbar) * dev_obs @ sigma_inv @ dev_obs
        + n * rbar * (1.0 - rbar) ** 2 * dev_mis @ sigma_inv @ dev_mis
    )
    df = roles.p
    p_value = chi2_sf(statistic, df)
    return TestResult(
        method=METHOD_LITTLE_UNIVARIATE,
        statistic=statistic,
        df=df,
        p_value=p_value,
        alpha=alpha,
        reject=p_value <= alpha,
        diagnostics={"n_observed": n_obs, "n_missing": n - n_obs, "n": n},
    )


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
    x = ds.values[keep]
    statistic = 0.0
    df = -ds.d
    for obs, rows in fit.patterns:
        df += obs.size
        dev = x[np.ix_(rows, obs)].mean(axis=0) - fit.mu[obs]
        block = fit.sigma[np.ix_(obs, obs)]
        statistic += rows.size * float(dev @ inverse(block) @ dev)
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
            "n": x.shape[0],
        },
    )
