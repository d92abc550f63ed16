"""Monte-Carlo size and power studies over scenario grids.

A Scenario fixes the data-generating distribution, the missingness
mechanism, the sample size, the tests to run, and a master seed.  Every
replication derives its own random stream from (master seed, scenario
hash, replication index, purpose), so results are bit-identical for any
worker count and any subset of the grid, and adding replications never
changes earlier ones.

Replications run in blocks of contiguous indices, and a block's datasets
are one (R, n, d) value array and one mask.  Each replication's draws fill
its own slice from its own streams; the rest of generation and amputation
runs once over the block (see ``synthesis.generate_block``).  The tests
then run over the block's arrays through ``stats.run_batch``, which runs
each distinct batch kernel once: ``an``, ``dn`` and ``d2_univariate`` come
from one pass of the closed-form kernel.  A kernel's result for one dataset
does not depend on what else is in the block (``d2_general`` fits EM to
each dataset's own pattern record).  Which tests exist, which kernel each
uses and which shapes each applies to is the one registry ``stats.TESTS``,
whose shape rule ``stats.resolve_tests`` applies.

Replications where a test raises a singularity or degeneracy error (for
example a response column with no missing cells at small n) are counted as
degenerate for that test, never silently re-drawn: re-drawing would bias
size estimates exactly where the tests are most fragile.
"""

import csv
import hashlib
import json
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .data import ColumnRoles
from .errors import DegenerateDataError
from .numerics import chi2_sf, rng_streams
from .stats import check_alpha, resolve_tests, run_batch
from .synthesis import (
    DistributionSpec,
    MechanismSpec,
    Spec,
    amputate_block,
    check_integer,
    check_number,
    fit_mechanism,
    generate_block,
)

__all__ = [
    "Scenario",
    "TestCellStats",
    "CellResult",
    "wilson_interval",
    "run_cell",
    "sweep_scenarios",
    "run_grid",
    "results_to_csv",
]

_GEN_STREAM = 0
_AMP_STREAM = 1

# at most this many stacked cells (replications x rows x columns) per block
_BLOCK_CELLS = 1_000_000

_Z95 = 1.959963984540054


@dataclass(frozen=True)
class Scenario(Spec):
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
        for name in ("p", "q", "n", "replications", "master_seed"):
            object.__setattr__(self, name, check_integer(getattr(self, name), name))
        object.__setattr__(self, "tests", tuple(self.tests))
        object.__setattr__(self, "alpha", check_number(self.alpha, "alpha"))
        if self.label != f"{self.p}X{self.q}Y":
            raise ValueError(
                f"label {self.label!r} does not match dimensions "
                f"{self.p}X{self.q}Y"
            )
        if self.distribution.dim != self.p + self.q:
            raise ValueError(
                f"distribution dim {self.distribution.dim} != p+q = {self.p + self.q}"
            )
        # the mechanisms amputate incomplete columns against complete controls
        if self.p < 1 or self.q < 1:
            raise ValueError("need p >= 1 complete and q >= 1 incomplete columns")
        if self.n < 3:
            raise ValueError(f"n must be at least 3, got {self.n}")
        # the data are an (n, p+q) float64 array, whose bytes numpy must address
        d = self.p + self.q
        max_n = np.iinfo(np.intp).max // (8 * d)
        if self.n > max_n:
            raise ValueError(f"n must be at most {max_n} for {d} columns, got {self.n}")
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        check_alpha(self.alpha)
        if not self.tests:
            raise ValueError("no tests selected")
        resolve_tests(self.tests, self.p, self.q)
        fit_mechanism(self.mechanism, self.roles)

    @property
    def roles(self) -> ColumnRoles:
        """Columns 0..p-1 complete, p..p+q-1 incomplete."""
        return ColumnRoles(tuple(range(self.p)), tuple(range(self.p, self.p + self.q)))

    def content_hash(self) -> int:
        """64-bit hash of the data-defining fields.

        Deliberately excludes tests, alpha, replications, and master_seed,
        so the same data is generated no matter which tests are run or how
        many replications are requested.
        """
        payload = self.to_dict()
        for name in ("tests", "replications", "alpha", "master_seed"):
            del payload[name]
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


def wilson_interval(successes: int, trials: int) -> tuple:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("wilson_interval needs at least one trial")
    phat = successes / trials
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denom
    half = _Z95 * float(
        np.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials))
    ) / denom
    # the interval is exact at the extremes; avoid rounding fuzz there
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return (low, high)


def _run_block(
    scenario: Scenario, key: int, roles: ColumnRoles, tags: tuple, start: int, stop: int
) -> dict:
    """Replications [start, stop): generate and amputate them, then test.

    ``key``, ``roles`` and ``tags`` (content hash, column roles, resolved
    tests) are computed once per cell by ``run_cell``.  Each replication
    draws from its own two streams, ``rng_stream(master_seed, key, rep,
    purpose)`` bit for bit.  ``numerics.rng_streams`` keys each purpose's
    streams for the whole block in one pass and re-seats one generator to
    each in turn, so a stream is valid only until the next is drawn and the
    synthesis consumes them one at a time.  The rest, the tests included
    (``stats.run_batch``), runs once over the whole block.  Returns
    {resolved tag: (valid, reject, statistic)}, three arrays with one entry
    per replication; a degenerate replication is not valid.
    """
    def streams(purpose):
        return rng_streams(scenario.master_seed, key, np.arange(start, stop), purpose)

    values = generate_block(
        scenario.distribution,
        streams(_GEN_STREAM),
        np.empty((stop - start, scenario.n, scenario.p + scenario.q)),
    )
    mask = np.ones(values.shape, dtype=bool)
    amputate_block(values, mask, roles, scenario.mechanism, streams(_AMP_STREAM))

    out = {}
    for tag, batch in run_batch(tags, values, mask, roles).items():
        valid = np.array([error is None for error in batch.errors], dtype=bool)
        out[tag] = (valid, batch.p_value <= scenario.alpha, batch.statistic)
    return out


def _blocks(n_rep: int, workers: int, cells_per_rep: int) -> list:
    """Contiguous (start, stop) replication ranges: one per worker, split
    further so that no block stacks more than ``_BLOCK_CELLS`` cells."""
    size = max(1, min(-(-n_rep // workers), _BLOCK_CELLS // cells_per_rep))
    return [(lo, min(lo + size, n_rep)) for lo in range(0, n_rep, size)]


def run_cell(scenario: Scenario, workers: int = 1) -> CellResult:
    """Run every replication of a scenario and aggregate.

    Replications run in blocks (see ``_blocks``).  ``workers`` bounds the
    processes: more than one block with ``workers`` > 1 runs on a pool of
    ``min(workers, blocks)`` processes.  A replication's outcome does not
    depend on its block, so the result is identical for any worker count.
    Raises ValueError if ``workers`` < 1, and DegenerateDataError if some
    requested test produced no valid replication at all.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    n_rep = scenario.replications
    tags = resolve_tests(scenario.tests, scenario.p, scenario.q)
    run = partial(_run_block, scenario, scenario.content_hash(), scenario.roles, tags)
    starts, stops = zip(*_blocks(n_rep, workers, scenario.n * (scenario.p + scenario.q)))
    # a pool forks all its processes at the first submit, needed or not
    processes = min(workers, len(starts))
    if processes > 1:
        # imported here: multiprocessing adds to every CLI call's start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=processes) as pool:
            results = list(pool.map(run, starts, stops))
    else:
        results = list(map(run, starts, stops))

    per_test = {}
    statistics = {}
    for tag in tags:
        valid, reject, statistic = map(np.concatenate, zip(*(block[tag] for block in results)))
        n_valid = int(valid.sum())
        if n_valid == 0:
            raise DegenerateDataError(
                f"every replication was degenerate for test {tag!r} "
                f"(scenario {scenario.label}, n={scenario.n})"
            )
        rejections = int(reject[valid].sum())
        ci_low, ci_high = wilson_interval(rejections, n_valid)
        per_test[tag] = TestCellStats(
            rejections=rejections,
            valid=n_valid,
            degenerate=n_rep - n_valid,
            rate=rejections / n_valid,
            ci_low=ci_low,
            ci_high=ci_high,
        )
        statistics[tag] = tuple(statistic[valid].tolist())

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
    * ``{"n": [...]}`` -- vary the sample size.

    Each value is checked as the field's own (``MechanismSpec`` judges a
    ``miss_prob``, and takes one only for a kind that reads it).  Raises
    ValueError for the first value the scenario cannot take.
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
            mech = replace(scenario.mechanism, miss_prob=value)
            cells.append(replace(scenario, mechanism=mech))
        elif field == "n":
            cells.append(replace(scenario, n=value))
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
