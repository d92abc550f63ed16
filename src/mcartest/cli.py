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
from .harness import Scenario, results_to_csv, run_cell, sweep_scenarios
from .numerics import rng_stream
from .stats import KNOWN_TESTS, TESTS, check_alpha, resolve_tests, run_batch
from .synthesis import (
    DISTRIBUTION_KINDS,
    MARGIN_KINDS,
    MECHANISM_KINDS,
    DistributionSpec,
    MechanismSpec,
    apply_mechanism,
    fit_mechanism,
    generate,
    pattern_names,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3

_TESTS_HELP = f"comma list from {','.join(KNOWN_TESTS)}"

# the data flags (see _add_data_options): the defaults of those that are
# not spec fields, and the spec fields' flags
_DATA_DEFAULTS = {"n": 100, "p": 1, "q": 2, "dist": "std_normal", "mechanism": "mcar"}
_DISTRIBUTION_FLAGS = ("theta", "margins")
_MECHANISM_FLAGS = ("miss_prob", "odds", "controls", "p_high", "p_low")


def _split_csv_list(text: str) -> list:
    return [item.strip() for item in text.split(",") if item.strip()]


def _parse_tests(text: str, parser) -> list:
    tags = _split_csv_list(text)
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
    batches = run_batch(tags, ds.values[None], ds.mask[None], roles)
    results = [batch.result(0, args.alpha) for batch in batches.values()]

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


def _rates(text) -> list:
    """``--p-high 0.1,0.2`` and the sweep flags as a list of numbers."""
    try:
        return [float(v) for v in _split_csv_list(text)]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a comma-separated list of numbers, got {text!r}"
        ) from None


def _flag_fields(args, kind, kinds, names) -> dict:
    """A spec's JSON object from ``kind`` and the flags ``names`` (each dest
    is its field's name).  A flag the user set is kept whether or not
    ``kind`` reads it, for the spec to reject; an unset one takes its
    default (``args.field_defaults``) only where ``kind`` reads it."""
    doc = {"kind": kind}
    for name in names:
        value = getattr(args, name)
        if value is None and name in kinds[kind]:
            value = args.field_defaults.get(name)
        if value is not None:
            doc[name] = value
    return doc


def _distribution_doc(args) -> dict:
    doc = _flag_fields(args, args.dist, DISTRIBUTION_KINDS, _DISTRIBUTION_FLAGS)
    doc["dim"] = dim = args.p + args.q
    if len(doc.get("margins", ())) == 1:
        doc["margins"] = doc["margins"] * dim
    return doc


def _column_index(item, names, parser) -> int:
    if item in names:
        return names.index(item)
    try:
        return int(item)
    except ValueError:
        parser.error(f"--controls: no column named {item!r}")


def _mechanism_doc(args, names, parser) -> dict:
    doc = _flag_fields(args, args.mechanism, MECHANISM_KINDS, _MECHANISM_FLAGS)
    if "controls" in doc:
        doc["controls"] = [_column_index(item, names, parser) for item in doc["controls"]]
    return doc


def _apply_flag_defaults(args) -> None:
    """Give each data flag left out its default (``args.flag_defaults``)."""
    for name, value in args.flag_defaults.items():
        if getattr(args, name) is None:
            setattr(args, name, value)


def _cmd_generate(args, parser) -> int:
    _apply_flag_defaults(args)
    if args.p < 1 or args.q < 1:
        parser.error("need --p >= 1 and --q >= 1")
    if args.n < 1:
        parser.error("need --n >= 1")
    if args.seed < 0:
        parser.error(f"need --seed >= 0, got {args.seed}")
    names = pattern_names(args.p, args.q)
    roles = ColumnRoles(tuple(range(args.p)), tuple(range(args.p, args.p + args.q)))
    try:
        dist = DistributionSpec.from_dict(_distribution_doc(args))
        mech = MechanismSpec.from_dict(_mechanism_doc(args, names, parser))
        fit_mechanism(mech, roles)
    except ValueError as exc:
        parser.error(str(exc))
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
        # a scenario file holds the whole cell, so a data flag would be ignored
        for name in (*args.flag_defaults, *_DISTRIBUTION_FLAGS, *_MECHANISM_FLAGS):
            if getattr(args, name) is not None:
                flag = "--" + name.replace("_", "-")
                parser.error(f"{flag} cannot be combined with --scenario")
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
        _apply_flag_defaults(args)
        doc = {
            "label": f"{args.p}X{args.q}Y",
            "distribution": _distribution_doc(args),
            "p": args.p,
            "q": args.q,
            "n": args.n,
            "mechanism": _mechanism_doc(args, pattern_names(args.p, args.q), parser),
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
    if args.sweep_miss is not None and args.sweep_n is not None:
        parser.error("choose one of --sweep-miss and --sweep-n")
    if args.sweep_miss is not None:
        sweep = {"miss_prob": args.sweep_miss}
    elif args.sweep_n is not None:
        sweep = {"n": [int(v) if v.is_integer() else v for v in args.sweep_n]}
    elif scenario.mechanism.miss_prob is not None:
        sweep = {"miss_prob": [scenario.mechanism.miss_prob]}
    else:
        sweep = {"n": [scenario.n]}
    try:
        cells = sweep_scenarios(scenario, sweep)  # every value, before the first cell runs
    except ValueError as exc:
        parser.error(str(exc))

    (field, values), = sweep.items()
    print(
        f"scenario {scenario.label}: {scenario.replications} replications per cell, "
        f"{len(values)} cell(s) over {field}, tests {','.join(scenario.tests)}",
        file=sys.stderr,
    )
    results = []
    for i, (value, cell) in enumerate(zip(values, cells), start=1):
        results.append(run_cell(cell, workers=args.workers))
        print(f"  [{i}/{len(values)}] {field}={value} done", file=sys.stderr)
    results_to_csv(results, args.out)
    print(f"results written to {args.out}")
    return EXIT_OK


def _cmd_plot(args, parser) -> int:
    # imported here, so that the other commands do not load the SVG plotter
    from .plotting import render_rate_chart

    with open(args.input, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    render_rate_chart(rows, args.x, args.out, alpha=args.alpha)
    print(f"chart written to {args.out}")
    return EXIT_OK


def _add_data_options(parser, miss_prob) -> None:
    """The data-generating options ``generate`` and ``simulate`` share.

    Every flag defaults to None, so that a flag the user set can be told
    from one left out: ``simulate --scenario`` rejects each one set, and
    ``_flag_fields`` keeps a spec flag set for a kind that does not read it,
    for the spec to reject.  ``field_defaults`` holds the spec flags'
    defaults, ``miss_prob`` among them, which ``_flag_fields`` applies;
    ``flag_defaults`` those of the others, which ``_apply_flag_defaults``
    applies (``simulate`` adds ``--tests`` and ``--alpha`` to them)."""
    parser.add_argument("--n", type=int, help="rows per dataset (default 100)")
    parser.add_argument("--p", type=int, help="complete columns (default 1)")
    parser.add_argument("--q", type=int, help="incomplete columns (default 2)")
    parser.add_argument(
        "--dist", choices=DISTRIBUTION_KINDS,
        help="data-generating distribution (default std_normal)",
    )
    parser.add_argument("--theta", type=float, help="Clayton parameter (default 1)")
    parser.add_argument(
        "--margins", type=_split_csv_list,
        help=f"comma list of {','.join(MARGIN_KINDS)} (one entry, or one per column; "
        "default exp1)",
    )
    parser.add_argument(
        "--mechanism", choices=MECHANISM_KINDS,
        help="missingness mechanism (default mcar)",
    )
    parser.add_argument(
        "--miss-prob", type=float,
        help="missingness probability for mcar, mar_1_to_x and mar_rank"
        + ("" if miss_prob is None else f" (default {miss_prob})"),
    )
    parser.add_argument("--odds", type=float, help="odds x for mar_1_to_x (default 9)")
    parser.add_argument(
        "--controls", type=_split_csv_list,
        help="comma list of control column names or indices, one per incomplete column",
    )
    parser.add_argument("--p-high", type=_rates, help="comma list, mar_mean high-group rates")
    parser.add_argument("--p-low", type=_rates, help="comma list, mar_mean low-group rates")
    parser.set_defaults(
        flag_defaults=_DATA_DEFAULTS,
        field_defaults={"theta": 1.0, "margins": ["exp1"], "miss_prob": miss_prob},
    )


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
    s.add_argument(
        "--sweep-miss", type=_rates, help="comma list of missingness probabilities"
    )
    s.add_argument("--sweep-n", type=_rates, help="comma list of sample sizes")
    _add_data_options(s, miss_prob=0.12)
    s.add_argument("--tests", help=f"{_TESTS_HELP} (default an,d2)")
    s.add_argument("--alpha", type=float, help="significance level in (0, 1] (default 0.05)")
    s.set_defaults(flag_defaults={**_DATA_DEFAULTS, "tests": "an,d2", "alpha": 0.05})

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
