"""Monte-Carlo size and power studies over scenario grids.

A Scenario fixes the data-generating distribution, the missingness
mechanism, the sample size, the tests to run, and a master seed.  Every
replication derives its own random stream from (master seed, scenario
hash, replication index, purpose), so results are bit-identical for any
worker count and any subset of the grid, and adding replications never
changes earlier ones.

Replications where a test raises a singularity or degeneracy error (for
example a response column with no missing cells at small n) are counted as
degenerate for that test, never silently re-drawn: re-drawing would bias
size estimates exactly where the tests are most fragile.
"""

import csv
import hashlib
import json
from dataclasses import dataclass, replace

import numpy as np

from .data import ColumnRoles, Dataset
from .errors import DegenerateDataError, SingularMatrixError
from .numerics import chi2_sf, rng_stream
from .stats import (
    bivariate_mcar_test,
    check_alpha,
    little_mcar_general,
    little_mcar_univariate,
    ustat_mcar_test,
)
from .synthesis import (
    DistributionSpec,
    MechanismSpec,
    apply_mechanism,
    generate,
    pattern_names,
)

__all__ = [
    "Scenario",
    "TestCellStats",
    "CellResult",
    "KNOWN_TESTS",
    "resolve_test",
    "resolve_tests",
    "run_test",
    "wilson_interval",
    "run_cell",
    "run_grid",
    "null_distribution_check",
    "results_to_csv",
]

# wire names; "d2" picks the closed form when q = 1 and the general
# (EM-based) statistic otherwise
KNOWN_TESTS = ("an", "dn", "d2", "d2_univariate", "d2_general")

_GEN_STREAM = 0
_AMP_STREAM = 1

_Z95 = 1.959963984540054


def resolve_test(tag: str, q: int) -> str:
    if tag not in KNOWN_TESTS:
        raise ValueError(f"unknown test {tag!r}; expected one of {KNOWN_TESTS}")
    if tag == "d2":
        return "d2_univariate" if q == 1 else "d2_general"
    return tag


def resolve_tests(tags, q: int) -> tuple:
    """Resolved wire names of ``tags``, each once, in first-seen order."""
    return tuple(dict.fromkeys(resolve_test(t, q) for t in tags))


@dataclass(frozen=True)
class Scenario:
    """One cell of a simulation study."""

    label: str
    distribution: DistributionSpec
    p: int
    q: int
    n: int
    mechanism: MechanismSpec
    tests: tuple = ("an", "d2")
    replications: int = 2000
    alpha: float = 0.05
    master_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "p", int(self.p))
        object.__setattr__(self, "q", int(self.q))
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "tests", tuple(self.tests))
        object.__setattr__(self, "replications", int(self.replications))
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "master_seed", int(self.master_seed))
        if self.label != f"{self.p}X{self.q}Y":
            raise ValueError(
                f"label {self.label!r} does not match dimensions "
                f"{self.p}X{self.q}Y"
            )
        if self.distribution.dim != self.p + self.q:
            raise ValueError(
                f"distribution dim {self.distribution.dim} != p+q = {self.p + self.q}"
            )
        if self.p < 1 or self.q < 1:
            raise ValueError("need p >= 1 complete and q >= 1 incomplete columns")
        if self.n < 3:
            raise ValueError(f"n must be at least 3, got {self.n}")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        check_alpha(self.alpha)
        if not self.tests:
            raise ValueError("no tests selected")
        resolve_tests(self.tests, self.q)
        if "dn" in self.tests and (self.p != 1 or self.q != 1):
            raise ValueError("the dn test requires p = q = 1")

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "distribution": self.distribution.to_dict(),
            "p": self.p,
            "q": self.q,
            "n": self.n,
            "mechanism": self.mechanism.to_dict(),
            "tests": list(self.tests),
            "replications": self.replications,
            "alpha": self.alpha,
            "master_seed": self.master_seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        try:
            return cls(
                label=d["label"],
                distribution=DistributionSpec.from_dict(d["distribution"]),
                p=d["p"],
                q=d["q"],
                n=d["n"],
                mechanism=MechanismSpec.from_dict(d["mechanism"]),
                tests=tuple(d.get("tests", ("an", "d2"))),
                replications=d.get("replications", 2000),
                alpha=d.get("alpha", 0.05),
                master_seed=d.get("master_seed", 0),
            )
        except KeyError as exc:
            raise ValueError(f"scenario is missing required field {exc}") from None

    def content_hash(self) -> int:
        """64-bit hash of the data-defining fields.

        Deliberately excludes tests, alpha, replications, and master_seed,
        so the same data is generated no matter which tests are run or how
        many replications are requested.
        """
        payload = {
            "label": self.label,
            "distribution": self.distribution.to_dict(),
            "p": self.p,
            "q": self.q,
            "n": self.n,
            "mechanism": self.mechanism.to_dict(),
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return int.from_bytes(
            hashlib.sha256(blob.encode()).digest()[:8], "big"
        )


@dataclass(frozen=True)
class TestCellStats:
    """Aggregated outcomes of one test across all replications of a cell."""

    rejections: int
    valid: int
    degenerate: int
    rate: float
    ci_low: float
    ci_high: float


@dataclass(frozen=True)
class CellResult:
    scenario: Scenario
    per_test: dict
    statistics: dict
    ks_vs_chi2: float = None


def wilson_interval(successes: int, trials: int, z: float = _Z95) -> tuple:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("wilson_interval needs at least one trial")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denom
    half = z * float(
        np.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials))
    ) / denom
    # the interval is exact at the extremes; avoid rounding fuzz there
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return (low, high)


def run_test(tag: str, ds: Dataset, roles: ColumnRoles, alpha: float):
    """Run one test, named by its resolved wire name (see ``resolve_test``)."""
    if tag == "an":
        return ustat_mcar_test(ds, roles, alpha)
    if tag == "dn":
        return bivariate_mcar_test(ds, roles, alpha)
    if tag == "d2_univariate":
        return little_mcar_univariate(ds, roles, alpha)
    return little_mcar_general(ds, alpha)


def _replicate(
    scenario: Scenario, key: int, names: tuple, roles: ColumnRoles, tags: tuple, rep: int
) -> dict:
    """One replication: generate, amputate, test.

    ``key``, ``names``, ``roles`` and ``tags`` (content hash, column names,
    column roles, resolved tests) are computed once per cell by ``run_cell``.
    Returns {resolved tag: (reject, statistic) or None for degenerate}.
    """
    gen_rng = rng_stream(scenario.master_seed, key, rep, _GEN_STREAM)
    full = generate(scenario.distribution, scenario.n, gen_rng, names)
    amp_rng = rng_stream(scenario.master_seed, key, rep, _AMP_STREAM)
    ds = apply_mechanism(full, roles, scenario.mechanism, amp_rng)

    out = {}
    for tag in tags:
        try:
            result = run_test(tag, ds, roles, scenario.alpha)
        except (SingularMatrixError, DegenerateDataError):
            out[tag] = None
        else:
            out[tag] = (result.reject, result.statistic)
    return out


def _replicate_star(args) -> dict:
    return _replicate(*args)


def run_cell(scenario: Scenario, workers: int = 1) -> CellResult:
    """Run every replication of a scenario and aggregate.

    ``workers`` > 1 distributes replications over processes; the result is
    identical for any worker count.  Raises DegenerateDataError if some
    requested test produced no valid replication at all.
    """
    n_rep = scenario.replications
    tags = resolve_tests(scenario.tests, scenario.q)
    fixed = (
        scenario,
        scenario.content_hash(),
        pattern_names(scenario.p, scenario.q),
        ColumnRoles(
            tuple(range(scenario.p)),
            tuple(range(scenario.p, scenario.p + scenario.q)),
        ),
        tags,
    )
    if workers > 1:
        # imported here: multiprocessing adds to every CLI call's start-up
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, n_rep // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(
                pool.map(
                    _replicate_star,
                    ((*fixed, r) for r in range(n_rep)),
                    chunksize=chunk,
                )
            )
    else:
        outcomes = [_replicate(*fixed, r) for r in range(n_rep)]

    per_test = {}
    statistics = {}
    for tag in tags:
        rejections = 0
        valid = 0
        values = []
        for outcome in outcomes:
            cell = outcome[tag]
            if cell is None:
                continue
            valid += 1
            rejections += bool(cell[0])
            values.append(cell[1])
        if valid == 0:
            raise DegenerateDataError(
                f"every replication was degenerate for test {tag!r} "
                f"(scenario {scenario.label}, n={scenario.n})"
            )
        ci_low, ci_high = wilson_interval(rejections, valid)
        per_test[tag] = TestCellStats(
            rejections=rejections,
            valid=valid,
            degenerate=n_rep - valid,
            rate=rejections / valid,
            ci_low=ci_low,
            ci_high=ci_high,
        )
        statistics[tag] = tuple(values)

    ks = None
    if scenario.mechanism.kind == "mcar" and "an" in statistics:
        ks = _ks_distance(statistics["an"], scenario.p * scenario.q)
    return CellResult(
        scenario=scenario, per_test=per_test, statistics=statistics, ks_vs_chi2=ks
    )


def _ks_distance(values, df: int) -> float:
    """Sup distance between the empirical CDF of ``values`` and chi-squared(df)."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    cdf = 1.0 - chi2_sf(x, df)
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


def null_distribution_check(scenario: Scenario, workers: int = 1) -> float:
    """KS distance of the quadratic-form statistic from its chi-squared limit.

    Only meaningful under the null, so the scenario must use MCAR; the
    statistic values come from the same replication streams run_cell uses.
    """
    if scenario.mechanism.kind != "mcar":
        raise ValueError("null_distribution_check requires an MCAR mechanism")
    if "an" not in resolve_tests(scenario.tests, scenario.q):
        scenario = replace(scenario, tests=scenario.tests + ("an",))
    result = run_cell(scenario, workers=workers)
    return result.ks_vs_chi2


def run_grid(scenario: Scenario, sweep: dict, workers: int = 1) -> list:
    """One CellResult per swept value.

    ``sweep`` holds exactly one of:

    * ``{"miss_prob": [...]}`` -- vary the mechanism's missingness
      probability (mcar, mar_1_to_x, mar_rank only);
    * ``{"n": [...]}`` -- vary the sample size.

    Each grid point hashes differently, so cells draw independent data.
    """
    if len(sweep) != 1:
        raise ValueError("sweep must contain exactly one of 'miss_prob' or 'n'")
    (field, values), = sweep.items()
    values = list(values)
    if not values:
        raise ValueError("sweep values must be nonempty")
    cells = []
    for value in values:
        if field == "miss_prob":
            if scenario.mechanism.miss_prob is None:
                raise ValueError(
                    f"mechanism {scenario.mechanism.kind!r} has no miss_prob to sweep"
                )
            mech = replace(scenario.mechanism, miss_prob=float(value))
            cell_scenario = replace(scenario, mechanism=mech)
        elif field == "n":
            cell_scenario = replace(scenario, n=int(value))
        else:
            raise ValueError(f"unknown sweep field {field!r}")
        cells.append(run_cell(cell_scenario, workers=workers))
    return cells


def _distribution_label(spec: DistributionSpec) -> str:
    if spec.kind == "std_normal":
        return "std_normal"
    return f"clayton(theta={spec.theta:g};margins={','.join(spec.margins)})"


def results_to_csv(cells, path) -> None:
    """Write one row per (cell, test).

    Columns: label, distribution, n, mechanism, param, test, rate, ci_low,
    ci_high, degenerate_count, seed.  ``param`` is the missingness
    probability; blank for mechanisms without a single rate (mar_mean).
    Floats are written with repr so reruns produce identical bytes.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "label", "distribution", "n", "mechanism", "param", "test",
                "rate", "ci_low", "ci_high", "degenerate_count", "seed",
            ]
        )
        for cell in cells:
            s = cell.scenario
            param = "" if s.mechanism.miss_prob is None else repr(s.mechanism.miss_prob)
            for tag in cell.per_test:
                stats = cell.per_test[tag]
                writer.writerow(
                    [
                        s.label,
                        _distribution_label(s.distribution),
                        s.n,
                        s.mechanism.kind,
                        param,
                        tag,
                        repr(stats.rate),
                        repr(stats.ci_low),
                        repr(stats.ci_high),
                        stats.degenerate,
                        s.master_seed,
                    ]
                )
