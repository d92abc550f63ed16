import csv
import math
import os
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import strategies as st

import mcartest
import mcartest.em
from mcartest import ColumnRoles, Dataset, DegenerateDataError
from mcartest.numerics import _singular_errors
from mcartest.synthesis import (
    MARGIN_KINDS,
    MECHANISM_KINDS,
    DistributionSpec,
    MechanismSpec,
)

# one line per acceptance criterion, emitted after the test run so the
# PASS/FAIL verdicts survive pytest's output capture
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def child_env():
    """Environment whose PYTHONPATH puts this process's package first.

    Child processes started with it import the same package as the test
    run, installed or not, with or without PYTHONPATH set by the caller.
    """
    src = str(Path(mcartest.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def draw_distribution(draw, d) -> DistributionSpec:
    """Standard normals or a Clayton copula of any margins, in d columns.

    ``draw`` here and in ``draw_mechanism`` is a ``st.composite``'s."""
    if draw(st.booleans()):
        return DistributionSpec(kind="std_normal", dim=d)
    margins = st.lists(st.sampled_from(MARGIN_KINDS), min_size=d, max_size=d)
    return DistributionSpec(
        kind="clayton", dim=d, theta=draw(st.floats(0.2, 5.0)), margins=draw(margins)
    )


def draw_mechanism(draw, p, q) -> MechanismSpec:
    """Any mechanism that fits p complete and q incomplete columns (the
    targets; callers draw q): default or explicit (possibly shared)
    controls, and the default rate or a drawn one."""
    kind = draw(st.sampled_from(tuple(MECHANISM_KINDS)))
    per_target = st.lists(st.integers(0, p - 1), min_size=q, max_size=q)
    controls = None if kind == "mcar" else draw(st.none() | per_target)
    spec = {"kind": kind, "controls": controls}
    # exact halves of n*p included, where the rounding of mar_rank's count shows
    rate = st.sampled_from((0.0, 0.5, 1.0)) | st.floats(0.0, 1.0)
    if kind == "mar_mean":
        if draw(st.booleans()):
            rates = st.lists(rate, min_size=q, max_size=q)
            spec.update(p_high=draw(rates), p_low=draw(rates))
    elif kind == "mar_1_to_x":
        odds = draw(st.floats(1.0, 100.0))
        miss_prob = draw(st.floats(0.0, (odds + 1.0) / (2.0 * odds)))  # p_high <= 1
        spec.update(odds=odds, miss_prob=miss_prob)
    else:
        spec["miss_prob"] = draw(st.none() | rate)
    return MechanismSpec(**spec)


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)


def traced_peak(fn, *args):
    """(peak bytes traced by tracemalloc while ``fn(*args)`` runs, its result)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def make_dataset(rng, n, p, q, miss_prob=0.25, clayton=False):
    """Random dataset with p complete and q incomplete columns.

    Forces at least one missing and one observed cell per incomplete column
    so the covariance of the response indicators never collapses.
    """
    d = p + q
    if clayton:
        # common-frailty mixture at theta = 1, exponential margins
        v = rng.gamma(1.0, 1.0, size=n)
        e = rng.exponential(1.0, size=(n, d))
        values = -np.log1p(-((1.0 + e / v[:, None]) ** -1.0))
    else:
        values = rng.standard_normal((n, d))
    mask = np.ones((n, d), dtype=bool)
    for j in range(p, d):
        observed = rng.random(n) >= miss_prob
        i_obs = int(rng.integers(n))
        i_mis = (i_obs + 1 + int(rng.integers(n - 1))) % n
        observed[i_obs] = True
        observed[i_mis] = False
        mask[:, j] = observed
    names = tuple(f"x{u}" for u in range(1, p + 1)) + tuple(
        f"y{v}" for v in range(1, q + 1)
    )
    ds = Dataset(values, mask, names)
    roles = ColumnRoles(tuple(range(p)), tuple(range(p, d)))
    return ds, roles


def spd_eigh(a):
    """(eigenvalues, eigenvectors) of one symmetric matrix; raises the
    SingularMatrixError of the kernels' singularity rule
    (``numerics._singular_errors``) for it."""
    w, v = np.linalg.eigh(np.asarray(a, dtype=float))
    (error,) = _singular_errors(w[None])
    if error is not None:
        raise error
    return w, v


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


def response_matrix(ds, roles):
    """0/1 indicator matrix for the incomplete columns, in roles order.

    Entry (i, v) is 1 iff row i of the v-th incomplete column is observed.
    """
    return ds.mask[:, list(roles.incomplete)].astype(np.int8)


def gap_matrix(ds, roles):
    """All p*q mean-product gaps, as one matrix product.

    Row u = complete column u, column v = incomplete column v; flattened
    row-major, this is the order of the pq x pq covariance Cov(X) (x) Cov(R).
    """
    n = ds.n
    if n < 2:
        raise DegenerateDataError("gap statistics require n >= 2")
    x = ds.values[:, list(roles.complete)]
    r = response_matrix(ds, roles).astype(float)
    biased = np.outer(x.mean(axis=0), r.mean(axis=0)) - (x.T @ r) / n
    return GapStats(unbiased=biased * (n / (n - 1.0)), biased=biased, n=n)


def pq_covariance(ds, roles, mode="unbiased"):
    """The pq x pq covariance S = Cov(X) (x) Cov(R) of the gap vector, formed.

    X are the complete columns and R the response indicators, both
    estimated with divisor n - 1 ("unbiased") or n ("ml"); the library only
    ever works with the unbiased factors.
    """
    x = ds.values[:, list(roles.complete)]
    r = response_matrix(ds, roles).astype(float)
    scale = {"unbiased": 1.0, "ml": (ds.n - 1.0) / ds.n}[mode]
    cov_x = np.atleast_2d(np.cov(x, rowvar=False))
    cov_r = np.atleast_2d(np.cov(r, rowvar=False))
    return np.kron(cov_x * scale, cov_r * scale)


def reference_routes(ds, roles):
    """The quadratic-form statistic by two routes the library does not take.

    Returns ``(ml, eigen)``: the statistic from the maximum-likelihood
    gaps and covariance with a linear solve, and from an
    eigendecomposition of the pq x pq covariance S itself.  Raises
    SingularMatrixError when either covariance is not positive definite.
    """
    n = ds.n
    gaps = gap_matrix(ds, roles)
    g, g_ml = gaps.unbiased.reshape(-1), gaps.biased.reshape(-1)
    s_ml = pq_covariance(ds, roles, "ml")
    spd_eigh(s_ml)  # the singularity check, before the solve can hide it
    ml = n * g_ml @ np.linalg.solve(s_ml, g_ml)
    w, v = spd_eigh(pq_covariance(ds, roles))
    eigen = n * np.sum((v.T @ g) ** 2 / w)
    return float(ml), float(eigen)


def little_univariate_reference(ds, roles):
    """Little's d2 for one incomplete column, in its closed form.

    The complete-column means of the observed-response and of the
    missing-response rows against the overall means, through the inverse of
    the maximum-likelihood Cov(X) * Var(R): a route independent of the
    library, which takes this d2 as the quadratic form.  Raises
    DegenerateDataError unless both groups have rows, and SingularMatrixError
    for a singular covariance.
    """
    x = ds.values[:, list(roles.complete)]
    (r,) = response_matrix(ds, roles).astype(float).T
    n = ds.n
    n_obs = int(r.sum())
    if n_obs in (0, n):
        raise DegenerateDataError(
            "the closed form needs both observed and missing rows "
            f"(observed {n_obs} of {n})"
        )
    # the observed and the missing rows' column sums, x'r and x'(1 - r)
    sums = x.T @ np.column_stack([r, 1.0 - r])
    dev = sums / np.array([n_obs, n - n_obs]) - x.mean(axis=0)[:, None]
    sigma_ml = np.atleast_2d(np.cov(x, rowvar=False, bias=True)) * r.var()
    w, v = spd_eigh(sigma_ml)
    sigma_inv = (v / w) @ v.T
    quad_obs = dev[:, 0] @ sigma_inv @ dev[:, 0]
    quad_mis = dev[:, 1] @ sigma_inv @ dev[:, 1]
    rbar = n_obs / n
    return float(
        n * rbar**2 * (1.0 - rbar) * quad_obs + n * rbar * (1.0 - rbar) ** 2 * quad_mis
    )


def bivariate_reference(ds, roles):
    """The studentized single-pair statistic and its two-sided normal p-value.

    sqrt(n) times the unbiased mean-product gap over the two sample standard
    deviations, from the sample moments: a route independent of the
    library, which takes dn from the quadratic form.  Raises
    DegenerateDataError when either standard deviation is zero.
    """
    (x,) = ds.values[:, list(roles.complete)].T
    (r,) = response_matrix(ds, roles).astype(float).T
    n = ds.n
    t = (x.mean() * r.mean() - (x * r).mean()) * n / (n - 1.0)
    s_x = x.std(ddof=1)
    s_r = r.std(ddof=1)
    if s_x <= 0.0 or s_r <= 0.0:
        raise DegenerateDataError(
            "zero variance: the complete column is constant or the "
            "incomplete column has no missingness variation"
        )
    z = float(np.sqrt(n) * t / (s_x * s_r))
    # the standard normal CDF, 0.5 erfc(-x / sqrt 2), at |z|
    p_value = 2.0 * (1.0 - 0.5 * math.erfc(abs(z) * -math.sqrt(0.5)))
    return z, p_value


def fit_one(values, mask, tol=mcartest.em._TOL, max_iter=mcartest.em._MAX_ITER):
    """``em_mvn`` of one (n, d) dataset: the fit of its pattern record, as
    a stack of one, with ``tol`` and ``max_iter`` in place of the stopping
    rule's ``_TOL`` and ``_MAX_ITER``."""
    record = mcartest.pattern_stats(values[None], mask[None])[0]
    with mock.patch.multiple(mcartest.em, _TOL=tol, _MAX_ITER=max_iter):
        return mcartest.em_mvn(record)


def loop_group_patterns(mask):
    """One dataset's missingness patterns as a per-row dict loop, keyed by
    the row's bytes: (observed column indices, row indices) per pattern.

    The reference for ``pattern_stats``' sorted grouping: patterns in order
    of first appearance, each pattern's rows ascending.
    """
    groups = {}
    for i in range(mask.shape[0]):
        groups.setdefault(mask[i].tobytes(), []).append(i)
    return [
        (np.flatnonzero(np.frombuffer(key, dtype=bool)), np.asarray(rows))
        for key, rows in groups.items()
    ]


def rowwise_write_csv(ds, path, na_token="NA"):
    """``write_csv`` as one csv.writer row per dataset row.

    The reference for the library's block writer, which must give the same
    bytes.
    """
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(ds.column_names)
        writer.writerows(
            [repr(v) if observed else na_token for v, observed in zip(row, seen)]
            for row, seen in zip(ds.values.tolist(), ds.mask.tolist())
        )
