import os
from pathlib import Path

import numpy as np
import pytest

import mcartest
from mcartest import ColumnRoles, Dataset, gap_matrix, response_matrix
from mcartest.numerics import cov_matrix, spd_eigh_stack

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


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)


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
    """(eigenvalues, eigenvectors) of one symmetric matrix, as
    ``spd_eigh_stack`` of a stack of one; raises that matrix's
    SingularMatrixError."""
    w, v, (error,) = spd_eigh_stack(np.asarray(a, dtype=float)[None])
    if error is not None:
        raise error
    return w[0], v[0]


def pq_covariance(ds, roles, mode="unbiased"):
    """The pq x pq covariance S = Cov(X) (x) Cov(R) of the gap vector, formed.

    X are the complete columns and R the response indicators, both
    estimated in ``mode``; the library only ever works with the factors.
    """
    x = ds.values[:, list(roles.complete)]
    r = response_matrix(ds, roles).astype(float)
    return np.kron(cov_matrix(x, mode), cov_matrix(r, mode))


def reference_routes(ds, roles):
    """The quadratic-form statistic by two routes the library does not take.

    Returns ``(ml, eigen, components)``: the statistic from the
    maximum-likelihood gaps and covariance with a linear solve, and the
    statistic and standardized component vector S^(-1/2) (sqrt(n) g) from
    an eigendecomposition of the pq x pq covariance S itself.  Raises
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
    components = ((v / np.sqrt(w)) @ v.T) @ (np.sqrt(n) * g)
    return float(ml), float(eigen), components
