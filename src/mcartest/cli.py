"""Command-line interface.

Subcommands:

* ``test``     -- run MCAR tests on a CSV file with missing cells
* ``generate`` -- write a synthetic dataset (optionally amputated) to CSV
* ``simulate`` -- run a Monte-Carlo size/power study, write results CSV
* ``plot``     -- render a results CSV as an SVG rate chart

Exit codes: 0 success, 2 usage error, 3 data or numeric error.
"""

import argparse
import csv
import json
import sys
from pathlib import Path

from .data import ColumnRoles, load_csv, write_csv
from .errors import McartestError
from .harness import KNOWN_TESTS, TESTS, Scenario, resolve_tests, results_to_csv, run_grid
from .harness import sweep_scenarios
from .numerics import rng_stream
from .plotting import render_rate_chart
from .stats import check_alpha
from .synthesis import (
    DISTRIBUTION_KINDS,
    MARGIN_KINDS,
    MECHANISM_KINDS,
    DistributionSpec,
    MechanismSpec,
    apply_mechanism,
    generate,
    pattern_names,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3

_TESTS_HELP = f"comma list from {','.join(KNOWN_TESTS)}"


def _split_csv_list(text: str) -> list:
    return [item.strip() for item in text.split(",") if item.strip()]


def _parse_tests(text: str, parser) -> tuple:
    tags = tuple(_split_csv_list(text))
    if not tags:
        parser.error("--tests must name at least one test")
    try:
        resolve_tests(tags, 1)
    except ValueError as exc:
        parser.error(str(exc))
    return tags


def _write_test_report(results, out_path) -> None:
    path = Path(out_path)
    records = [r.to_record() for r in results]
    if path.suffix.lower() == ".json":
        with path.open("w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "statistic", "df", "p_value", "alpha", "reject"])
        for rec in records:
            writer.writerow(
                [
                    rec["method"],
                    repr(rec["statistic"]),
                    rec["df"],
                    repr(rec["p_value"]),
                    repr(rec["alpha"]),
                    rec["reject"],
                ]
            )


def _cmd_test(args, parser) -> int:
    try:
        check_alpha(args.alpha)
    except ValueError as exc:
        parser.error(str(exc))
    tags = _parse_tests(args.tests, parser)
    na_tokens = set(args.na_token) if args.na_token else None
    incomplete = _split_csv_list(args.roles) if args.roles else None
    ds, roles = load_csv(args.input, na_tokens=na_tokens, incomplete=incomplete)
    tags = resolve_tests(tags, roles.q)
    try:
        for tag in tags:
            TESTS[tag].check_shape(tag, roles.p, roles.q)
    except ValueError as exc:
        parser.error(str(exc))
    results = [TESTS[tag].run(ds, roles, args.alpha) for tag in tags]

    name = Path(args.input).name
    print(f"{name}: n={ds.n} rows, {roles.p} complete, {roles.q} incomplete columns")
    for r in results:
        decision = "reject MCAR" if r.reject else "no evidence against MCAR"
        print(
            f"  {r.method:>14}: statistic={r.statistic:.6g} df={r.df} "
            f"p={r.p_value:.6g} -> {decision} at alpha={r.alpha:g}"
        )
    if args.out:
        _write_test_report(results, args.out)
        print(f"report written to {args.out}")
    return EXIT_OK


def _margins_for(args, dim, parser):
    if args.margins is None:
        return tuple(["exp1"] * dim)
    margins = tuple(_split_csv_list(args.margins))
    if len(margins) == 1 and dim > 1:
        margins = margins * dim
    if len(margins) != dim:
        parser.error(f"--margins needs 1 or {dim} entries, got {len(margins)}")
    return margins


def _build_distribution(args, parser) -> DistributionSpec:
    dim = args.p + args.q
    try:
        if args.dist == "std_normal":
            return DistributionSpec(kind="std_normal", dim=dim)
        return DistributionSpec(
            kind="clayton",
            dim=dim,
            theta=args.theta,
            margins=_margins_for(args, dim, parser),
        )
    except ValueError as exc:
        parser.error(str(exc))


def _resolve_control_names(args, names, parser):
    if args.controls is None:
        return None
    out = []
    for item in _split_csv_list(args.controls):
        if item in names:
            out.append(names.index(item))
        else:
            try:
                out.append(int(item))
            except ValueError:
                parser.error(f"--controls: no column named {item!r}")
    return tuple(out)


def _parse_rates(text, parser, name):
    try:
        return tuple(float(v) for v in _split_csv_list(text))
    except ValueError:
        parser.error(f"{name} must be a comma-separated list of numbers, got {text!r}")


def _build_mechanism(args, names, parser) -> MechanismSpec:
    controls = _resolve_control_names(args, names, parser)
    try:
        if args.mechanism == "mar_mean":
            p_high = _parse_rates(args.p_high, parser, "--p-high") if args.p_high else None
            p_low = _parse_rates(args.p_low, parser, "--p-low") if args.p_low else None
            return MechanismSpec(
                kind="mar_mean", controls=controls, p_high=p_high, p_low=p_low
            )
        if args.miss_prob is None:
            parser.error(f"--miss-prob is required for mechanism {args.mechanism}")
        if args.mechanism == "mar_1_to_x":
            return MechanismSpec(
                kind="mar_1_to_x",
                miss_prob=args.miss_prob,
                odds=args.odds,
                controls=controls,
            )
        return MechanismSpec(
            kind=args.mechanism, miss_prob=args.miss_prob, controls=controls
        )
    except ValueError as exc:
        parser.error(str(exc))


def _cmd_generate(args, parser) -> int:
    if args.p < 1 or args.q < 1:
        parser.error("need --p >= 1 and --q >= 1")
    if args.n < 1:
        parser.error("need --n >= 1")
    if args.seed < 0:
        parser.error(f"need --seed >= 0, got {args.seed}")
    names = pattern_names(args.p, args.q)
    dist = _build_distribution(args, parser)
    mech = _build_mechanism(args, names, parser)
    roles = ColumnRoles(tuple(range(args.p)), tuple(range(args.p, args.p + args.q)))
    full = generate(dist, args.n, rng_stream(args.seed, 0), names)
    ds = apply_mechanism(full, roles, mech, rng_stream(args.seed, 1))
    write_csv(ds, args.out, na_token=args.na_token or "NA")

    out = Path(args.out)
    sidecar = out.with_suffix(".json") if out.suffix == ".csv" else Path(str(out) + ".json")
    meta = {
        "n": args.n,
        "p": args.p,
        "q": args.q,
        "columns": list(names),
        "distribution": dist.to_dict(),
        "mechanism": mech.to_dict(),
        "seed": args.seed,
    }
    with sidecar.open("w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    missing = int((~ds.mask).sum())
    print(f"wrote {args.out} ({args.n} rows, {missing} missing cells) and {sidecar}")
    return EXIT_OK


def _scenario_from_args(args, parser) -> Scenario:
    if args.scenario:
        try:
            with open(args.scenario, encoding="utf-8") as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            parser.error(f"--scenario: {args.scenario} is not valid JSON ({exc})")
        except OSError as exc:
            parser.error(f"--scenario: {exc}")
        if not isinstance(doc, dict):
            parser.error(f"--scenario: {args.scenario} does not hold a JSON object")
    else:
        names = pattern_names(args.p, args.q)
        doc = {
            "label": f"{args.p}X{args.q}Y",
            "distribution": _build_distribution(args, parser).to_dict(),
            "p": args.p,
            "q": args.q,
            "n": args.n,
            "mechanism": _build_mechanism(args, names, parser).to_dict(),
            "tests": _parse_tests(args.tests, parser),
            "alpha": args.alpha,
        }
    # the override flags apply to a scenario file too
    if args.replications is not None:
        doc["replications"] = args.replications
    if args.seed is not None:
        doc["master_seed"] = args.seed
    try:
        return Scenario.from_dict(doc)
    except ValueError as exc:
        parser.error(f"--scenario: {exc}" if args.scenario else str(exc))


def _cmd_simulate(args, parser) -> int:
    if args.workers < 1:
        parser.error(f"need --workers >= 1, got {args.workers}")
    scenario = _scenario_from_args(args, parser)
    if args.sweep_miss and args.sweep_n:
        parser.error("choose one of --sweep-miss and --sweep-n")
    if args.sweep_miss:
        sweep = {"miss_prob": _parse_rates(args.sweep_miss, parser, "--sweep-miss")}
    elif args.sweep_n:
        sizes = _parse_rates(args.sweep_n, parser, "--sweep-n")
        sweep = {"n": [int(v) if v.is_integer() else v for v in sizes]}
    elif scenario.mechanism.miss_prob is not None:
        sweep = {"miss_prob": [scenario.mechanism.miss_prob]}
    else:
        sweep = {"n": [scenario.n]}
    try:
        sweep_scenarios(scenario, sweep)  # every value, before the first cell runs
    except ValueError as exc:
        parser.error(str(exc))

    (field, values), = sweep.items()
    print(
        f"scenario {scenario.label}: {scenario.replications} replications per cell, "
        f"{len(values)} cell(s) over {field}, tests {','.join(scenario.tests)}",
        file=sys.stderr,
    )
    cells = []
    for i, value in enumerate(values, start=1):
        cells.extend(run_grid(scenario, {field: [value]}, workers=args.workers))
        print(f"  [{i}/{len(values)}] {field}={value} done", file=sys.stderr)
    results_to_csv(cells, args.out)
    print(f"results written to {args.out}")
    return EXIT_OK


def _cmd_plot(args, parser) -> int:
    with open(args.input, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    render_rate_chart(rows, args.x, args.out, alpha=args.alpha)
    print(f"chart written to {args.out}")
    return EXIT_OK


def _add_data_options(parser, miss_prob) -> None:
    """The data-generating options ``generate`` and ``simulate`` share."""
    parser.add_argument("--n", type=int, default=100, help="rows per dataset")
    parser.add_argument("--p", type=int, default=1, help="complete columns")
    parser.add_argument("--q", type=int, default=2, help="incomplete columns")
    parser.add_argument(
        "--dist", choices=DISTRIBUTION_KINDS, default="std_normal",
        help="data-generating distribution",
    )
    parser.add_argument("--theta", type=float, default=1.0, help="Clayton parameter")
    parser.add_argument(
        "--margins",
        help=f"comma list of {','.join(MARGIN_KINDS)} (one entry, or one per column)",
    )
    parser.add_argument(
        "--mechanism", choices=MECHANISM_KINDS, default="mcar",
        help="missingness mechanism",
    )
    parser.add_argument(
        "--miss-prob", type=float, default=miss_prob,
        help="missingness probability for mcar, mar_1_to_x and mar_rank",
    )
    parser.add_argument("--odds", type=float, help="odds x for mar_1_to_x (default 9)")
    parser.add_argument(
        "--controls",
        help="comma list of control column names or indices, one per incomplete column",
    )
    parser.add_argument("--p-high", help="comma list, mar_mean high-group rates")
    parser.add_argument("--p-low", help="comma list, mar_mean low-group rates")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcartest",
        description="MCAR tests, synthetic missing-data generation, and "
        "Monte-Carlo size/power studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("test", help="run MCAR tests on a CSV file")
    t.add_argument("--input", required=True, help="CSV file with a header row")
    t.add_argument(
        "--na-token",
        action="append",
        help="string treated as missing (repeatable; replaces NA/NaN/empty)",
    )
    t.add_argument(
        "--alpha", type=float, default=0.05, help="significance level in (0, 1]"
    )
    t.add_argument("--tests", default="an,d2", help=_TESTS_HELP)
    t.add_argument(
        "--roles",
        help="comma list of column names to treat as incomplete "
        "(default: columns containing missing cells)",
    )
    t.add_argument("--out", help="write a machine-readable report (.json or .csv)")

    g = sub.add_parser("generate", help="write a synthetic dataset to CSV")
    g.add_argument("--out", required=True, help="output CSV path")
    _add_data_options(g, miss_prob=None)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--na-token", help="token for missing cells (default NA)")

    s = sub.add_parser("simulate", help="run a Monte-Carlo study")
    s.add_argument("--scenario", help="scenario JSON file")
    s.add_argument("--out", required=True, help="results CSV path")
    s.add_argument("--replications", type=int, help="replications per cell (default 2000)")
    s.add_argument("--workers", type=int, default=1, help="worker processes")
    s.add_argument("--seed", type=int, help="master seed override")
    s.add_argument("--sweep-miss", help="comma list of missingness probabilities")
    s.add_argument("--sweep-n", help="comma list of sample sizes")
    _add_data_options(s, miss_prob=0.12)
    s.add_argument("--tests", default="an,d2", help=_TESTS_HELP)
    s.add_argument(
        "--alpha", type=float, default=0.05, help="significance level in (0, 1]"
    )

    p = sub.add_parser("plot", help="render a results CSV as SVG")
    p.add_argument("--input", required=True, help="results CSV from simulate")
    p.add_argument("--out", required=True, help="output SVG path")
    p.add_argument("--x", choices=["param", "n"], default="param")
    p.add_argument("--alpha", type=float, default=0.05)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "test": _cmd_test,
        "generate": _cmd_generate,
        "simulate": _cmd_simulate,
        "plot": _cmd_plot,
    }
    try:
        return handlers[args.command](args, parser)
    except McartestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
