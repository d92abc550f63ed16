"""Monte-Carlo size and power studies over scenario grids.

A Scenario fixes the data-generating distribution, the missingness
mechanism, the sample size, the tests to run, and a master seed.  Every
replication derives its own random stream from (master seed, scenario
hash, replication index, purpose), so results are bit-identical for any
worker count and any subset of the grid, and adding replications never
changes earlier ones.

Replications run in blocks of contiguous indices.  Each replication is
generated and amputated alone, from its own streams; the closed-form tests
(``an``, ``dn``, ``d2_univariate``) then run once over the stacked block,
through batch kernels whose result for one dataset does not depend on what
else is in the stack.  ``d2_general`` runs once per replication.  Which
tests exist, which kernel each uses and which shapes each applies to is
the one registry ``TESTS``.

Replications where a test raises a singularity or degeneracy error (for
example a response column with no missing cells at small n) are counted as
degenerate for that test, never silently re-drawn: re-drawing would bias
size estimates exactly where the tests are most fragile.
"""

import csv
import hashlib
import json
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .data import ColumnRoles
from .errors import DegenerateDataError, SingularMatrixError
from .numerics import chi2_sf, rng_stream
from .stats import (
    bivariate_batch,
    bivariate_mcar_test,
    check_alpha,
    little_mcar_general,
    little_mcar_univariate,
    little_univariate_batch,
    stack_columns,
    ustat_batch,
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
    "TestSpec",
    "TESTS",
    "KNOWN_TESTS",
    "resolve_test",
    "resolve_tests",
    "wilson_interval",
    "run_cell",
    "sweep_scenarios",
    "run_grid",
    "results_to_csv",
]


@dataclass(frozen=True)
class TestSpec:
    """What the harness and the CLI need to know about one test.

    ``run(ds, roles, alpha)`` tests one dataset.  ``batch(x, r)``, when
    set, tests a stack of datasets at once (see ``stats.stack_columns``);
    without it the harness calls ``run`` once per replication.  ``p`` and
    ``q``, when set, are the only numbers of complete and incomplete
    columns the test applies to.
    """

    run: Callable
    batch: Callable = None
    p: int = None
    q: int = None

    def check_shape(self, tag: str, p: int, q: int) -> None:
        """Raise ValueError unless the test applies to p complete and q
        incomplete columns."""
        if self.p not in (None, p) or self.q not in (None, q):
            needs = [f"{k} = {v}" for k, v in (("p", self.p), ("q", self.q)) if v]
            raise ValueError(f"the {tag} test requires {' and '.join(needs)}")


# The test registry, by resolved wire name.  ``run`` looks the test up in
# this module when called, so a wrapper installed on the module attribute
# (a profiler's, say) sees every call.
TESTS = {
    "an": TestSpec(
        run=lambda ds, roles, alpha: ustat_mcar_test(ds, roles, alpha),
        batch=ustat_batch,
    ),
    "dn": TestSpec(
        run=lambda ds, roles, alpha: bivariate_mcar_test(ds, roles, alpha),
        batch=bivariate_batch,
        p=1,
        q=1,
    ),
    "d2_univariate": TestSpec(
        run=lambda ds, roles, alpha: little_mcar_univariate(ds, roles, alpha),
        batch=little_univariate_batch,
        q=1,
    ),
    "d2_general": TestSpec(run=lambda ds, roles, alpha: little_mcar_general(ds, alpha)),
}

# wire names; "d2" picks the closed form when q = 1 and the general
# (EM-based) statistic otherwise
KNOWN_TESTS = (*TESTS, "d2")

_GEN_STREAM = 0
_AMP_STREAM = 1

# at most this many stacked cells (replications x rows x columns) per block
_BLOCK_CELLS = 1_000_000

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
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        check_alpha(self.alpha)
        if not self.tests:
            raise ValueError("no tests selected")
        for tag in resolve_tests(self.tests, self.q):
            TESTS[tag].check_shape(tag, self.p, self.q)

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
        if not isinstance(d, dict):
            raise ValueError("a scenario must be a JSON object")
        for name in ("distribution", "mechanism"):
            if name in d and not isinstance(d[name], dict):
                raise ValueError(f"scenario field {name!r} must be a JSON object")
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


def _run_block(
    scenario: Scenario, key: int, names: tuple, roles: ColumnRoles, tags: tuple,
    start: int, stop: int,
) -> dict:
    """Replications [start, stop): generate and amputate each, then test.

    ``key``, ``names``, ``roles`` and ``tags`` (content hash, column names,
    column roles, resolved tests) are computed once per cell by ``run_cell``.
    A test with a batch kernel runs once over the whole block; the others
    run once per replication.  Returns {resolved tag: one entry per
    replication, (reject, statistic) or None for degenerate}.
    """
    datasets = []
    for rep in range(start, stop):
        gen_rng = rng_stream(scenario.master_seed, key, rep, _GEN_STREAM)
        full = generate(scenario.distribution, scenario.n, gen_rng, names)
        amp_rng = rng_stream(scenario.master_seed, key, rep, _AMP_STREAM)
        datasets.append(apply_mechanism(full, roles, scenario.mechanism, amp_rng))
    if any(TESTS[tag].batch is not None for tag in tags):
        x, r = stack_columns(datasets, roles)

    alpha = scenario.alpha
    out = {}
    for tag in tags:
        spec = TESTS[tag]
        if spec.batch is None:
            out[tag] = [_outcome(spec.run, ds, roles, alpha) for ds in datasets]
            continue
        batch = spec.batch(x, r)
        reject = (batch.p_value <= alpha).tolist()
        out[tag] = [
            None if error is not None else (rej, stat)
            for error, rej, stat in zip(batch.errors, reject, batch.statistic.tolist())
        ]
    return out


def _outcome(run, ds, roles, alpha):
    try:
        result = run(ds, roles, alpha)
    except (SingularMatrixError, DegenerateDataError):
        return None
    return (result.reject, result.statistic)


def _run_block_star(args) -> dict:
    return _run_block(*args)


def _blocks(n_rep: int, workers: int, cells_per_rep: int) -> list:
    """Contiguous (start, stop) replication ranges: one per worker, split
    further so that no block stacks more than ``_BLOCK_CELLS`` cells."""
    size = max(1, min(-(-n_rep // workers), _BLOCK_CELLS // cells_per_rep))
    return [(lo, min(lo + size, n_rep)) for lo in range(0, n_rep, size)]


def run_cell(scenario: Scenario, workers: int = 1) -> CellResult:
    """Run every replication of a scenario and aggregate.

    Replications run in blocks (see ``_blocks``); ``workers`` > 1
    distributes the blocks over processes.  A replication's outcome does
    not depend on its block, so the result is identical for any worker
    count.  Raises DegenerateDataError if some requested test produced no
    valid replication at all.
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
    blocks = _blocks(n_rep, workers, scenario.n * (scenario.p + scenario.q))
    if workers > 1:
        # imported here: multiprocessing adds to every CLI call's start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_block_star, ((*fixed, *b) for b in blocks)))
    else:
        results = [_run_block(*fixed, *b) for b in blocks]
    outcomes = {tag: [cell for block in results for cell in block[tag]] for tag in tags}

    per_test = {}
    statistics = {}
    for tag in tags:
        rejections = 0
        valid = 0
        values = []
        for cell in outcomes[tag]:
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


def sweep_scenarios(scenario: Scenario, sweep: dict) -> list:
    """One Scenario per swept value, every value checked before any is run.

    ``sweep`` holds exactly one of:

    * ``{"miss_prob": [...]}`` -- vary the mechanism's missingness
      probability (mcar, mar_1_to_x, mar_rank only);
    * ``{"n": [...]}`` -- vary the sample size (integers).

    Raises ValueError for the first value the scenario cannot take.
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
            cells.append(replace(scenario, mechanism=mech))
        elif field == "n":
            if not float(value).is_integer():
                raise ValueError(f"sample size must be an integer, got {value!r}")
            cells.append(replace(scenario, n=int(value)))
        else:
            raise ValueError(f"unknown sweep field {field!r}")
    return cells


def run_grid(scenario: Scenario, sweep: dict, workers: int = 1) -> list:
    """One CellResult per swept value (see ``sweep_scenarios``).

    Each grid point hashes differently, so cells draw independent data.
    """
    return [run_cell(s, workers=workers) for s in sweep_scenarios(scenario, sweep)]


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
