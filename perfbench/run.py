#!/usr/bin/env python3
"""Benchmark of the ``mcartest`` CLI, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload sim_an --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all                # every workload, one table
    python3 perfbench/run.py --smoke                       # self-test at tiny sizes
    python3 perfbench/run.py --make-refs --workload sim_an

``--trace 0`` runs the CLI as child processes (``python3 -m mcartest`` with
``PYTHONPATH=src``, one process, ``--workers 1``), with a run of
``probe.py`` before the first call and after each, and reports the
end-to-end metrics at a reference host speed.  ``--trace 1`` calls
``mcartest.cli.main`` in this process, alternating untraced and traced
calls, and reports the per-layer metrics
(see ``tracer.py``).  Either way the run repeats the workload until
``--seconds`` have passed (at least ``MIN_SAMPLES`` times), checks every
output, and prints a detail record and then, as the last line, the result
object ``{"correct", "attempted", "failed", "metrics"}``.

Seeds: ``DEFAULT_SEED`` for everyday runs; ``HELD_OUT_SEED`` is kept for
confirming a claimed gain on a seed not used while the change was written.
"""

import argparse
import contextlib
import csv
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from importlib import import_module, metadata
from pathlib import Path

import tracer as tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
REFS = BENCH / "refs"

DEFAULT_SEED = 0
HELD_OUT_SEED = 4242
# seeds with a committed reference at full size
REF_SEEDS = (*range(100), HELD_OUT_SEED)
MIN_SAMPLES = 3
SETUP_CALLS = 3
# about the median time of probe.py on the machine the benchmark was tuned
# on; the end-to-end times are given at the host speed where it takes this
PROBE_REF_S = 0.5
CHILD_TIMEOUT_S = 120
# one BLAS thread, so a run uses one core and its figures do not depend on
# how many of the host's cores happen to be free
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class Checker:
    """Counts operations and failures; compares every output with the reference.

    Without a reference for the seed, the first output of the run is the
    reference for the rest.
    """

    def __init__(self, name, seed, size, reference):
        self.name, self.seed, self.size = name, seed, size
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def call(self, returncode, what, output):
        self.attempted += 1
        if returncode != 0:
            self.failed += 1
            self.problems.append(f"{what}: exit code {returncode}: {output[-400:]}")

    def outputs(self, work):
        try:
            got = workloads.fingerprint(self.name, work)
            problems = workloads.sanity(self.name, self.seed, self.size, work)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        else:
            if self.reference is None:
                self.reference = got
            else:
                problems += workloads.compare(got, self.reference)
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def load_reference(name, size_name, seed):
    path = REFS / f"{name}.json"
    if not path.exists():
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(size_name, {}).get(str(seed))


def fresh_workdir(name):
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work


def clear_outputs(work):
    """Remove the previous invocation's outputs, so a stale file cannot pass the check."""
    for path in work.iterdir():
        path.unlink()


def run_child(argv, work, env):
    """Run ``argv`` in ``work``; (wall s, exit code, max RSS MB, output)."""
    with open(work / "cli.log", "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=work, env=env, stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    output = (work / "cli.log").read_text(encoding="utf-8", errors="replace")
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, output


def run_cli(args, work, env):
    """Run ``python3 -m mcartest <args>``, as ``run_child`` does."""
    return run_child([sys.executable, "-m", "mcartest", *args], work, env)


def run_probe(work, env, checker):
    """Time one run of ``probe.py``, the host-speed reference."""
    wall, code, _, output = run_child([sys.executable, str(BENCH / "probe.py")], work, env)
    checker.call(code, "probe", output)
    return wall


def call_in_process(cli, args):
    """Call ``mcartest.cli.main(args)`` with its output captured; (wall, exit code, output)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            code = cli.main(args)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            code = 1
        wall = time.perf_counter() - start
    return wall, code, sink.getvalue()


def _enough(samples, started, seconds, min_samples):
    """Stop once the minimum is met and another sample would overrun."""
    if len(samples) < min_samples:
        return False
    return time.perf_counter() - started + statistics.median(samples) > seconds


def _summary(values):
    qs = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": qs[0], "q3": qs[2],
            "min": min(values), "max": max(values), "n": len(values)}


def end_to_end(name, seed, seconds, size_name, checker, min_samples):
    """A few no-op CLI calls (set-up), then the workload's calls until time is up.

    A probe run (``probe.py``) comes before the first call and after every
    call, and each call's time is scaled by ``PROBE_REF_S`` over the mean
    of the two probe times around it.
    """
    size = workloads.SIZES[size_name][name]
    work = fresh_workdir(name)
    env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_ENV)
    setup, walls, rss, iterations = [], [], [], []
    step_walls = {}
    started = time.perf_counter()
    try:
        probes = [run_probe(work, env, checker)]
        for _ in range(SETUP_CALLS):
            wall, code, _, output = run_cli(["--help"], work, env)
            checker.call(code, "--help", output)
            setup.append(wall)
            probes.append(run_probe(work, env, checker))
        while not _enough(iterations, started, seconds, min_samples):
            begin = time.perf_counter()
            total, peak, ok = 0.0, 0.0, True
            clear_outputs(work)
            for args in workloads.steps(name, seed, size, work):
                wall, code, maxrss, output = run_cli(args, work, env)
                checker.call(code, args[0], output)
                step_walls.setdefault(args[0], []).append(wall)
                total += wall
                peak = max(peak, maxrss)
                ok = ok and code == 0
            if ok:
                checker.outputs(work)
            walls.append(total)
            rss.append(peak)
            probes.append(run_probe(work, env, checker))
            iterations.append(time.perf_counter() - begin)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # to seconds at the host speed where the probe takes PROBE_REF_S
    scales = [2.0 * PROBE_REF_S / (a + b) for a, b in zip(probes, probes[1:])]
    setup_scales, wall_scales = scales[:SETUP_CALLS], scales[SETUP_CALLS:]

    def scaled(values, factors):
        return [v * f for v, f in zip(values, factors)]

    metrics = {
        "setup_s": (statistics.median(scaled(setup, setup_scales)), "s"),
        "wall_s": (statistics.median(scaled(walls, wall_scales)), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    reps = workloads.replications(name, size)
    detail = {
        "samples": len(walls),
        "probe_s": _summary(probes),
        "scale": _summary(scales),
        "setup_s_as_timed": _summary(setup),
        "wall_s_as_timed": _summary(walls),
        "peak_rss_mb": _summary(rss),
        "steps_s_as_timed": {step: _summary(v) for step, v in step_walls.items()},
        "replications_per_invocation": reps,
    }
    # figures that exist on one kind of workload only; every end-to-end
    # metric in BENCHMARK.json must exist (and be nonzero) on every
    # workload, so these live in the detail record
    extra = {}
    if reps:
        extra["reps_per_s"] = (reps / metrics["wall_s"][0], "1/s")
    for step, values in step_walls.items():
        if len(step_walls) > 1:
            extra[f"{step}_s"] = (statistics.median(scaled(values, wall_scales)), "s")
    detail["workload_metrics"] = extra
    return metrics, detail


def import_cli():
    """Import ``mcartest.cli`` from this checkout's ``src``, never an installed copy."""
    sys.path.insert(0, str(SRC))
    cli = import_module("mcartest.cli")
    if SRC not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"mcartest imported from {cli.__file__}, not from {SRC}")
    return cli


def traced(name, seed, seconds, size_name, checker, min_samples):
    """Untraced and traced in-process calls, alternating which goes first."""
    size = workloads.SIZES[size_name][name]
    cli = import_cli()
    tracer = tracing.Tracer()
    work = fresh_workdir(name)
    walls = {False: [], True: []}
    pairs = []
    started = time.perf_counter()
    try:
        while not _enough(pairs, started, seconds, min_samples):
            begin = time.perf_counter()
            order = (False, True) if len(pairs) % 2 == 0 else (True, False)
            for with_trace in order:
                if with_trace:
                    tracer.install()
                total, ok = 0.0, True
                clear_outputs(work)
                try:
                    for args in workloads.steps(name, seed, size, work):
                        wall, code, output = call_in_process(cli, args)
                        checker.call(code, args[0], output)
                        total += wall
                        ok = ok and code == 0
                finally:
                    tracer.uninstall()
                if ok:
                    checker.outputs(work)
                walls[with_trace].append(total)
            pairs.append(time.perf_counter() - begin)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics, detail = tracing.layer_metrics(tracer, len(walls[True]), walls[False], walls[True])
    detail["untraced_s"] = _summary(walls[False])
    detail["traced_s"] = _summary(walls[True])
    return metrics, detail


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "loadavg_before": list(os.getloadavg()),
    }


def run(name, seed, seconds, trace, reference, size_name="full", min_samples=MIN_SAMPLES):
    """One benchmark run; returns (result object, detail record)."""
    checker = Checker(name, seed, workloads.SIZES[size_name][name], reference)
    env = environment()
    measure = traced if trace else end_to_end
    metrics, detail = measure(name, seed, seconds, size_name, checker, min_samples)
    env["loadavg_after"] = list(os.getloadavg())
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {
        "workload": name, "seed": seed, "trace": trace, "size": size_name,
        "seconds": seconds, "reference": "committed" if reference is not None else "first call",
        "failed_frac": checker.failed / max(checker.attempted, 1),
        "problems": checker.problems[:20], "environment": env, **detail,
    }
    detail.setdefault("workload_metrics", {})["failed_frac"] = (detail["failed_frac"], "fraction")
    return result, detail


def save_detail(detail):
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{detail['workload']}-seed{detail['seed']}-trace{detail['trace']}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
        fh.write("\n")


def produce(cli, name, seed, size, work):
    """One in-process invocation of a workload; its outputs must pass ``sanity``."""
    clear_outputs(work)
    for args in workloads.steps(name, seed, size, work):
        _, code, output = call_in_process(cli, args)
        if code != 0:
            raise RuntimeError(f"{name} seed {seed}: {args[0]} exited {code}: {output}")
    problems = workloads.sanity(name, seed, size, work)
    if problems:
        raise RuntimeError(f"{name} seed {seed}: {problems}")


def make_refs(names):
    """Capture reference fingerprints from the program in this checkout."""
    cli = import_cli()
    REFS.mkdir(exist_ok=True)
    for name in names:
        path = REFS / f"{name}.json"
        refs = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        for size_name, size_seeds in (("smoke", (DEFAULT_SEED, HELD_OUT_SEED)),
                                      ("full", REF_SEEDS)):
            size = workloads.SIZES[size_name][name]
            work = fresh_workdir(name)
            for seed in size_seeds:
                produce(cli, name, seed, size, work)
                refs.setdefault(size_name, {})[str(seed)] = workloads.fingerprint(name, work)
            shutil.rmtree(work, ignore_errors=True)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(refs, fh, indent=1, sort_keys=True)
                fh.write("\n")
        print(f"{name}: references for {len(refs['full'])} seeds in {path}", flush=True)


def _require(ok, *what):
    if not ok:
        raise RuntimeError(f"smoke check failed: {what}")


def corrupted(reference):
    """(what, reference) pairs, each with one part of the check made to fail."""
    if "results_sha256" in reference:
        yield "results digest", {**reference, "results_sha256": "0" * 64}
        return
    yield "csv digest", {**reference, "csv_sha256": "0" * 64}
    for i, record in enumerate(reference["report"]):
        method = record["method"]
        for what, change in (
            ("statistic", {"statistic": record["statistic"] * (1 + 1e-6)}),
            ("reject", {"reject": not record["reject"]}),
            ("df", {"df": record["df"] + 1}),
        ):
            report = list(reference["report"])
            report[i] = {**record, **change}
            yield f"{method} {what}", {**reference, "report": report}


def damage(name, work):
    """Break one value that ``workloads.sanity`` checks in a workload's output."""
    if name == "csv_roundtrip":
        path = work / "report.json"
        records = json.loads(path.read_text(encoding="utf-8"))
        records[0]["statistic"] = float("nan")
        path.write_text(json.dumps(records), encoding="utf-8")
        return
    path = work / "results.csv"
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[1][rows[0].index("rate")] = "2.0"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def smoke():
    """Tiny runs of every workload, both modes; checks the result contract."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    cli = import_cli()
    for name in workloads.NAMES:
        reference = load_reference(name, "smoke", DEFAULT_SEED)
        _require(reference is not None, name, "no smoke reference")
        for trace in (0, 1):
            result, detail = run(name, DEFAULT_SEED, 0, trace, reference, "smoke", 1)
            _require(result["correct"], name, trace, detail["problems"])
            for metric in wanted[trace]:
                got = result["metrics"].get(metric["name"])
                _require(got is not None, name, trace, metric["name"], "missing")
                _require(got["unit"] == metric["unit"], name, metric["name"], got["unit"])
                _require(isinstance(got["value"], (int, float)), name, metric["name"])
            print(f"smoke {name} trace={trace}: ok, {result['attempted']} calls", flush=True)
        for what, bad in corrupted(reference):
            result, _ = run(name, DEFAULT_SEED, 0, 1, bad, "smoke", 1)
            _require(not result["correct"] and result["failed"] > 0, name, what, "missed")
            print(f"smoke {name}: corrupted {what} detected", flush=True)
        size = workloads.SIZES["smoke"][name]
        work = fresh_workdir(name)
        try:
            produce(cli, name, HELD_OUT_SEED, size, work)
            damage(name, work)
            _require(workloads.sanity(name, HELD_OUT_SEED, size, work), name, "damage missed")
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"smoke {name}: damaged output fails the sanity check", flush=True)
    print("smoke: all checks passed")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny self-test of every workload")
    parser.add_argument("--make-refs", action="store_true", help="capture reference outputs")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "mcartest" / "__init__.py").is_file():
        print(f"error: no mcartest sources under {SRC}", file=sys.stderr)
        return 2
    # before numpy is first imported, here or in a child
    os.environ.update(BLAS_ENV)

    if args.smoke:
        smoke()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    if args.make_refs:
        make_refs(names)
        return 0

    results = {}
    for name in names:
        reference = load_reference(name, "full", args.seed)
        result, detail = run(name, args.seed, args.seconds, args.trace, reference)
        save_detail(detail)
        results[name] = result
        if args.workload == "all":
            shown = {k: (m["value"], m["unit"]) for k, m in result["metrics"].items()}
            for metric, (value, unit) in {**shown, **detail["workload_metrics"]}.items():
                print(f"{name:>14} {metric:<40} {value:>14.6g} {unit}")
            print(f"{name:>14} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        else:
            print(json.dumps(detail, sort_keys=True))
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
