"""Outside-in tracing of an in-process ``mcartest.cli.main`` call.

The tracer replaces functions at the module attributes their callers look
up (``mcartest.cli.run_grid``, ``mcartest.harness._replicate``,
``mcartest.stats.em_mvn``, ...) with wrappers that record one span per call
and read counters from the return value or the exception.  Nothing inside
the package changes; ``uninstall`` puts the original functions back.

A span is ``[name, start_ns, end_ns, parent_index, wrapper_ns]``;
``wrapper_ns`` is the wrapper's own time outside ``[start_ns, end_ns]``
(span bookkeeping and reading the counters).  It is counted as child time of
the parent span, so a parent's self time leaves out the tracer's cost; what
remains of it there is two clock reads per wrapped call.  Spans stay in
memory and are turned into per-layer metrics by ``layer_metrics`` when the
run ends.
"""

import statistics
from collections import Counter, defaultdict
from importlib import import_module
from time import perf_counter_ns

# functions the harness and the CLI both import by name
_TESTS = (
    ("ustat_mcar_test", "stats.an"),
    ("bivariate_mcar_test", "stats.dn"),
    ("little_mcar_univariate", "stats.d2_univariate"),
    ("little_mcar_general", "stats.d2_general"),
)
_SYNTHESIS = (
    ("generate", "synthesis.generate"),
    ("apply_mechanism", "synthesis.apply_mechanism"),
    ("rng_stream", "numerics.rng_stream"),
)

# (module, attribute, span name)
TARGETS = (
    [
        ("mcartest.cli", "main", "cli.main"),
        ("mcartest.cli", "load_csv", "data.load_csv"),
        ("mcartest.cli", "write_csv", "data.write_csv"),
        ("mcartest.cli", "run_grid", "harness.run_grid"),
        ("mcartest.cli", "results_to_csv", "harness.results_to_csv"),
        ("mcartest.harness", "run_cell", "harness.run_cell"),
        ("mcartest.harness", "_replicate", "harness.replicate"),
        ("mcartest.stats", "em_mvn", "em.em_mvn"),
    ]
    + [
        (m, attr, span)
        for m in ("mcartest.cli", "mcartest.harness")
        for attr, span in _TESTS + _SYNTHESIS
    ]
)

HARNESS_SPANS = ("harness.run_grid", "harness.run_cell", "harness.replicate")

# degenerate-replication counters reported under fixed names; any other
# class still shows up in the run's detail record
DEGENERATE_KEYS = tuple(
    (test, exc)
    for test in ("an", "d2_general")
    for exc in ("SingularMatrixError", "DegenerateDataError")
)


def _observe_em(tracer, args, kwargs, fit):
    tracer.samples["em.iterations"].append(fit.iterations)
    tracer.counts["em.nonconverged"] += not fit.converged
    tracer.counts["em.ridged"] += bool(fit.ridged)


def _observe_d2(tracer, args, kwargs, result):
    tracer.samples["stats.patterns"].append(result.diagnostics["n_patterns"])


def _observe_mechanism(tracer, args, kwargs, ds):
    roles = args[1] if len(args) > 1 else kwargs["roles"]
    held = ds.mask[:, list(roles.incomplete)]
    tracer.samples["synthesis.missing_frac"].append(1.0 - float(held.mean()))


def _observe_load(tracer, args, kwargs, result):
    tracer.counts["data.load_csv_rows"] += result[0].n


def _observe_write(tracer, args, kwargs, result):
    ds = args[0] if args else kwargs["ds"]
    tracer.counts["data.write_csv_rows"] += ds.n


OBSERVERS = {
    "em.em_mvn": _observe_em,
    "stats.d2_general": _observe_d2,
    "synthesis.apply_mechanism": _observe_mechanism,
    "data.load_csv": _observe_load,
    "data.write_csv": _observe_write,
}


class Tracer:
    """Span recorder installed over the package's module attributes."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.samples = defaultdict(list)
        self.missing = []
        self._stack = []
        self._saved = []

    def install(self):
        for module_name, attr, span in TARGETS:
            module = import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, span, OBSERVERS.get(span)))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name, observe):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            entered = perf_counter_ns()
            span = [name, 0, 0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = perf_counter_ns()
                self.counts[f"raised.{name}.{type(exc).__name__}"] += 1
                raise
            else:
                span[2] = perf_counter_ns()
                if observe is not None:
                    observe(self, args, kwargs, result)
                return result
            finally:
                stack.pop()
                span[4] = span[1] - entered + perf_counter_ns() - span[2]

        return traced


def percentile(values, q):
    """Linear-interpolation percentile, ``q`` in [0, 100]; 0.0 when empty."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def layer_metrics(tracer, invocations, untraced_walls, traced_walls):
    """Per-layer metrics from the recorded spans.

    Times in ``*_us`` are means per call; ``*_s`` and counts are per
    workload invocation (``invocations`` traced runs of the workload's
    command sequence).  A layer the workload does not reach reports 0.
    """
    durations = defaultdict(list)
    child_ns = [0] * len(tracer.spans)
    for name, start, end, parent, wrapper in tracer.spans:
        durations[name].append(end - start)
        if parent >= 0:
            child_ns[parent] += end - start + wrapper
    self_ns = defaultdict(int)
    self_per_call = defaultdict(list)
    for i, (name, start, end, _, _) in enumerate(tracer.spans):
        own = end - start - child_ns[i]
        self_ns[name] += own
        self_per_call[name].append(own)

    def mean_us(name):
        return _mean(durations[name]) / 1e3

    def total_s(name):
        return sum(durations[name]) / 1e9 / invocations

    def rows_per_s(name):
        busy = sum(durations[name]) / 1e9
        return tracer.counts[f"{name}_rows"] / busy if busy else 0.0

    em_ns = sum(durations["em.em_mvn"])
    em_iters = sum(tracer.samples["em.iterations"])
    replicate_us = [d / 1e3 for d in durations["harness.replicate"]]
    root_ns = sum(durations["cli.main"])
    m = {
        "stats.an_us": (mean_us("stats.an"), "us"),
        "harness.replicate_us.p50": (percentile(replicate_us, 50), "us"),
        "harness.replicate_us.p99": (percentile(replicate_us, 99), "us"),
        "harness.self_s": (
            sum(self_ns[n] for n in HARNESS_SPANS) / 1e9 / invocations, "s"
        ),
        "harness.results_to_csv_s": (total_s("harness.results_to_csv"), "s"),
        "em.em_mvn_us": (mean_us("em.em_mvn"), "us"),
        "em.us_per_iteration": (em_ns / em_iters / 1e3 if em_iters else 0.0, "us"),
        "em.iterations.p50": (percentile(tracer.samples["em.iterations"], 50), "count"),
        "em.iterations.p99": (percentile(tracer.samples["em.iterations"], 99), "count"),
        "em.nonconverged": (tracer.counts["em.nonconverged"] / invocations, "count"),
        "em.ridged": (tracer.counts["em.ridged"] / invocations, "count"),
        "stats.d2_general_self_us": (_mean(self_per_call["stats.d2_general"]) / 1e3, "us"),
        "stats.patterns_mean": (_mean(tracer.samples["stats.patterns"]), "count"),
        "numerics.rng_stream_us": (mean_us("numerics.rng_stream"), "us"),
        "synthesis.generate_us": (mean_us("synthesis.generate"), "us"),
        "synthesis.apply_mechanism_us": (mean_us("synthesis.apply_mechanism"), "us"),
        "synthesis.missing_frac": (_mean(tracer.samples["synthesis.missing_frac"]), "fraction"),
        "data.load_csv_s": (total_s("data.load_csv"), "s"),
        "data.load_csv_rows_per_s": (rows_per_s("data.load_csv"), "rows/s"),
        "data.write_csv_s": (total_s("data.write_csv"), "s"),
        "data.write_csv_rows_per_s": (rows_per_s("data.write_csv"), "rows/s"),
        "cli.self_s": (self_ns["cli.main"] / 1e9 / invocations, "s"),
        "trace.overhead_frac": (
            statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0,
            "fraction",
        ),
        "trace.uncovered_frac": (self_ns["cli.main"] / root_ns if root_ns else 0.0, "fraction"),
    }
    for test, exc in DEGENERATE_KEYS:
        raised = tracer.counts[f"raised.stats.{test}.{exc}"]
        m[f"stats.degenerate.{test}.{exc}"] = (raised / invocations, "count")

    calls = {name: len(d) / invocations for name, d in sorted(durations.items())}
    raised = {
        key[len("raised."):]: n / invocations
        for key, n in sorted(tracer.counts.items())
        if key.startswith("raised.")
    }
    detail = {
        "calls_per_invocation": calls,
        "raised_per_invocation": raised,
        "traced_invocations": invocations,
        "spans": len(tracer.spans),
        "wrapper_s_per_invocation": sum(s[4] for s in tracer.spans) / 1e9 / invocations,
        "unwrapped": tracer.missing,
    }
    return m, detail
