"""Acceptance gate: the properties the package must deliver, each reported
as an explicit PASS/FAIL line in the terminal summary.

Numbered checks, their tolerances pinned:

 1  closed-form agreement of the quadratic-form test with Little's d2
    under univariate nonresponse, computed here in its closed form
    (rel 1e-8, 200 datasets, < 10 s)
 2  the library's factored statistic against the maximum-likelihood and
    pq x pq eigendecomposition routes computed here (rel 1e-10)
 3  single-pair identity: quadratic form equals squared studentized
    statistic, computed here from the sample moments (rel 1e-10)
 4  O(n) gap equals the literal pairwise double sum (abs 1e-12)
 5  empirical size under MCAR normal data in the 3-sigma binomial band
 6  heavy-tail robustness ordering: Little's general statistic
    over-rejects more than the quadratic form on Clayton/Exp data
 7  power dominance and growth under MAR 1-to-9
 8  chi-squared calibration of the null statistic distribution (KS)
 9  Clayton generator: Kendall tau and marginal KS checks
 10 EM: exact one-step ML on complete data, monotone converging trace
 11 byte-identical simulate CLI output across worker counts
"""

import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import stats as sps

from mcartest import (
    ColumnRoles,
    DistributionSpec,
    MechanismSpec,
    em_mvn,
    generate,
    mean_product_gap,
    rng_stream,
    ustat_mcar_test,
)
from mcartest.harness import Scenario, run_cell, run_grid

from conftest import (
    ACCEPTANCE_LINES,
    bivariate_reference,
    child_env,
    little_univariate_reference,
    make_dataset,
    reference_routes,
)


def report(num, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    ACCEPTANCE_LINES.append(f"criterion {num:>2}: {verdict}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_01_univariate_nonresponse_closed_form_agreement():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        p = int(rng.integers(1, 4))
        n = int(rng.integers(20, 201))
        clayton = bool(rng.integers(2))
        ds, roles = make_dataset(rng, n, p, 1, clayton=clayton)
        a = ustat_mcar_test(ds, roles).statistic
        d2 = little_univariate_reference(ds, roles)
        worst = max(worst, abs(a - d2) / max(d2, 1e-12))
    elapsed = time.perf_counter() - start
    report(
        1,
        worst <= 1e-8 and elapsed < 10.0,
        f"max rel diff {worst:.2e} (tol 1e-8) over 200 datasets in {elapsed:.2f}s",
    )


def test_02_three_computation_routes_agree():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(200):
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        n = int(rng.integers(25, 150))
        ds, roles = make_dataset(rng, n, p, q)
        r = ustat_mcar_test(ds, roles)
        ml, eigen, _ = reference_routes(ds, roles)
        scale = max(abs(r.statistic), 1e-12)
        worst = max(
            worst,
            abs(ml - r.statistic) / scale,
            abs(eigen - r.statistic) / scale,
        )
    report(2, worst <= 1e-10, f"max rel route gap {worst:.2e} (tol 1e-10)")


def test_03_single_pair_square_identity():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(10, 200))
        ds, roles = make_dataset(rng, n, 1, 1)
        a = ustat_mcar_test(ds, roles).statistic
        d, _ = bivariate_reference(ds, roles)
        worst = max(worst, abs(a - d * d) / max(abs(a), 1e-12))
    report(3, worst <= 1e-10, f"max rel diff {worst:.2e} (tol 1e-10)")


def test_04_double_sum_oracle():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 51))
        x = rng.standard_normal(n)
        r = (rng.random(n) < 0.5).astype(float)
        fast, _ = mean_product_gap(x, r)
        cross = sum(
            x[i] * r[j] for i in range(n) for j in range(n) if i != j
        )
        brute = cross / (n * (n - 1)) - float(np.mean(x * r))
        worst = max(worst, abs(fast - brute))
    report(4, worst <= 1e-12, f"max abs diff {worst:.2e} (tol 1e-12)")


def test_05_null_size_normal():
    start = time.perf_counter()
    scenario = Scenario(
        label="1X2Y",
        distribution=DistributionSpec(kind="std_normal", dim=3),
        p=1,
        q=2,
        n=100,
        mechanism=MechanismSpec(kind="mcar", miss_prob=0.12),
        tests=("an",),
        replications=2000,
        alpha=0.05,
        master_seed=1001,
    )
    rate = run_cell(scenario).per_test["an"].rate
    elapsed = time.perf_counter() - start
    report(
        5,
        0.038 <= rate <= 0.065 and elapsed < 120.0,
        f"size {rate:.4f} in [0.038, 0.065], {elapsed:.1f}s (< 120s)",
    )


def test_06_clayton_robustness_ordering():
    scenario = Scenario(
        label="2X3Y",
        distribution=DistributionSpec(
            kind="clayton", dim=5, theta=1.0, margins=("exp1",) * 5
        ),
        p=2,
        q=3,
        n=100,
        mechanism=MechanismSpec(kind="mcar", miss_prob=0.12),
        tests=("an", "d2"),
        replications=2000,
        alpha=0.05,
        master_seed=1002,
    )
    cell = run_cell(scenario)
    an_rate = cell.per_test["an"].rate
    d2_rate = cell.per_test["d2_general"].rate
    report(
        6,
        d2_rate > an_rate and an_rate <= 0.12,
        f"d2_general size {d2_rate:.4f} > an size {an_rate:.4f}, an <= 0.12",
    )


def test_07_power_dominance_mar():
    base = Scenario(
        label="1X2Y",
        distribution=DistributionSpec(kind="std_normal", dim=3),
        p=1,
        q=2,
        n=100,
        mechanism=MechanismSpec(kind="mar_1_to_x", miss_prob=0.06, odds=9.0),
        tests=("an", "d2"),
        replications=1000,
        alpha=0.05,
        master_seed=1003,
    )
    grid = [0.06, 0.12, 0.18, 0.24]
    cells = run_grid(base, {"miss_prob": grid})
    an = [c.per_test["an"].rate for c in cells]
    d2 = [c.per_test["d2_general"].rate for c in cells]
    dominance = all(a >= d - 0.02 for a, d in zip(an, d2))
    growth = an[-1] - an[0]
    report(
        7,
        dominance and growth >= 0.1,
        f"an power {['%.3f' % a for a in an]} vs d2 {['%.3f' % d for d in d2]}; "
        f"growth {growth:.3f} >= 0.1",
    )


def test_08_chi2_calibration():
    scenario = Scenario(
        label="1X2Y",
        distribution=DistributionSpec(kind="std_normal", dim=3),
        p=1,
        q=2,
        n=300,
        mechanism=MechanismSpec(kind="mcar", miss_prob=0.12),
        tests=("an",),
        replications=2000,
        alpha=0.05,
        master_seed=1004,
    )
    ks = run_cell(scenario).ks_vs_chi2
    report(8, ks < 0.035, f"KS distance vs chi2(2) = {ks:.4f} (< 0.035)")


def test_09_clayton_generator_quality():
    pair = DistributionSpec(
        kind="clayton", dim=2, theta=1.0, margins=("uniform", "uniform")
    )
    ds = generate(pair, 10000, rng_stream(1005, 0))
    tau = float(sps.kendalltau(ds.values[:, 0], ds.values[:, 1]).statistic)

    margins = DistributionSpec(
        kind="clayton", dim=2, theta=1.0, margins=("exp1", "chisq4")
    )
    ms = generate(margins, 5000, rng_stream(1005, 1))
    crit = 1.6276 / np.sqrt(5000)  # 1% asymptotic KS critical value
    ks_exp = float(sps.kstest(ms.values[:, 0], "expon").statistic)
    ks_chi = float(sps.kstest(ms.values[:, 1], sps.chi2(4).cdf).statistic)
    ok = 0.313 <= tau <= 0.353 and ks_exp < crit and ks_chi < crit
    report(
        9,
        ok,
        f"tau {tau:.4f} in [0.313, 0.353]; KS exp1 {ks_exp:.4f}, "
        f"chisq4 {ks_chi:.4f} (< {crit:.4f})",
    )


def test_10_em_sanity():
    rng = np.random.default_rng(110)
    x = rng.standard_normal((60, 3)) * np.array([1.0, 2.0, 0.5]) + 1.0
    fit = em_mvn(x, np.ones((60, 3), bool))
    centered = x - x.mean(axis=0)
    exact = (
        fit.iterations == 1
        and len(fit.loglik_trace) == 1
        and np.allclose(fit.mu, x.mean(axis=0), atol=1e-12)
        and np.allclose(fit.sigma, centered.T @ centered / 60, atol=1e-12)
    )

    y = rng.standard_normal((300, 3))
    mask = rng.random((300, 3)) >= 0.2
    mask[:, 0] = True
    fit2 = em_mvn(y, mask)
    trace = np.array(fit2.loglik_trace)
    monotone = bool(np.all(np.diff(trace) >= -1e-9))
    ok = exact and monotone and fit2.converged and fit2.iterations <= 500
    report(
        10,
        ok,
        f"complete-data one-step ML exact: {exact}; MCAR trace monotone: "
        f"{monotone}, converged in {fit2.iterations} iterations",
    )


def test_11_cli_worker_determinism(tmp_path):
    outputs = []
    for workers in (1, 8):
        out = tmp_path / f"res_w{workers}.csv"
        proc = subprocess.run(
            [
                sys.executable, "-m", "mcartest", "simulate",
                "--out", str(out), "--n", "50", "--p", "1", "--q", "2",
                "--mechanism", "mcar", "--sweep-miss", "0.08,0.16",
                "--replications", "24", "--seed", "77",
                "--workers", str(workers),
            ],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    report(
        11,
        outputs[0] == outputs[1],
        f"results CSV identical for --workers 1 and 8 ({len(outputs[0])} bytes)",
    )
