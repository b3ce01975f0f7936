"""Command-line experiment runner.

Subcommands: run, refine, list-checks, print-schema.
Exit codes: 0 all checks pass, 1 at least one check failed (a check that
raised a numerical error counts as failed), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import sys
import time

import numpy as np

try:
    import resource
except ImportError:                 # not on Windows
    resource = None

from .checks import RECORDS, list_checks, run_checks, run_refinement
from .config import REFINEMENT_RUNGS, ConfigError, ExperimentConfig, schema_text


COMPARISON = {"below": "<", "above": ">"}   # a record's value to its threshold


def _verify_out_dir(out_dir):
    """Refuse, before any check runs, an out_dir that cannot be made a
    writable directory; the report writer creates it."""
    if not out_dir:                 # abspath would make it the working dir
        raise ConfigError("out_dir: cannot create '': the path is empty")
    if "\0" in out_dir:             # which os.path.exists reads as missing
        raise ConfigError(f"out_dir: cannot create {out_dir!r}: "
                          "the path holds a NUL character")
    path = os.path.abspath(out_dir)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not (os.path.isdir(path) and os.access(path, os.W_OK | os.X_OK)):
        raise ConfigError(f"out_dir: cannot create {out_dir!r}: "
                          f"{path!r} is not a writable directory")


def _load_config(args):
    config = ExperimentConfig.load(args.config)
    if args.seed is not None:       # validated like the configured seed
        config = ExperimentConfig.from_dict({**config.to_dict(),
                                             "seed": args.seed})
    if args.out is not None:
        config.out_dir = args.out
    _verify_out_dir(config.out_dir)
    return config


def _run_and_report(config, run, name, csv_name, columns, **extra):
    """Time run(), which gives (records, csv rows, timings); write
    <name>.json and <csv_name>.csv to config.out_dir, print one line per
    record, and return the exit code.  The timings gain the run's total
    seconds and, where the resource module exists, the process's peak
    resident set in MiB, peak_rss_mb."""
    t0 = time.perf_counter()
    records, rows, timings = run()
    timings = {**timings, "total": time.perf_counter() - t0}
    if resource is not None:        # ru_maxrss: KiB on Linux, bytes on macOS
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        timings["peak_rss_mb"] = peak / (2 ** 20 if sys.platform == "darwin"
                                         else 1024)
    status = "pass" if all(r["passed"] for r in records) else "fail"
    report = {
        "config": config.to_dict(),
        **extra,
        "checks": records,
        "status": status,
        "environment": {"python": platform.python_version(),
                        "numpy": np.__version__,
                        "machine": platform.machine()},
        "timings": timings,
    }
    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, name + ".json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    with open(os.path.join(config.out_dir, csv_name + ".csv"), "w",
              newline="") as fh:
        writer = csv.DictWriter(fh, columns, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    for r in records:
        flag = "pass" if r["passed"] else "FAIL"
        if "sequence" in r:
            detail = ", ".join(f"{v:.3e}" for v in r["sequence"])
        elif "error" in r:
            detail = f"not measured: {r['error']}"
        else:
            detail = (f"{r['value']:.3e} {COMPARISON[r['direction']]} "
                      f"{r['threshold']:.1e}")
        print(f"[{flag}] {r['name']}: {detail}")
    print(f"report written to {path}")
    return 0 if status == "pass" else 1


def cmd_run(args):
    config = _load_config(args)

    def run():
        records, timings = run_checks(config)
        return records, records, timings
    return _run_and_report(config, run, "report", "checks",
                           ["name", "value", "threshold", "direction",
                            "passed"])


def cmd_refine(args):
    config = _load_config(args)
    try:
        ladder = [int(x) for x in args.ladder.split(",")]
    except ValueError:
        raise ConfigError("ladder must be a comma-separated list of rungs")
    if len(ladder) < 2 or sorted(set(ladder)) != ladder:
        raise ConfigError("ladder needs two or more strictly increasing rungs")
    if any(r not in REFINEMENT_RUNGS for r in ladder):
        raise ConfigError("ladder rungs must be chosen from "
                          + ", ".join(map(str, REFINEMENT_RUNGS)))
    return _run_and_report(config, lambda: run_refinement(config, ladder),
                           "refine_report", "refinement",
                           ["resolution", "check", "residual"], ladder=ladder)


def cmd_list_checks(args):
    """Each check, then each of its records: name, bound and claim."""
    for kind, check, names in list_checks():
        print(f"{kind}: {check}")
        for name in names:
            row = RECORDS[name]
            bound = ("subspace.tolerance" if row.threshold is None
                     else f"{row.threshold:g}")
            print(f"  {name} {COMPARISON[row.direction]} {bound}: "
                  f"{row.claim}")
    return 0


def cmd_print_schema(args):
    print(schema_text())
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="modlab",
        description="configuration-driven verification runs for the "
                    "modular-theory laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    options = argparse.ArgumentParser(add_help=False)  # run and refine share
    options.add_argument("--config", required=True,
                         help="path to a JSON config")
    options.add_argument("--seed", type=int, default=None,
                         help="override the configured seed")
    options.add_argument("--out", default=None,
                         help="override the configured output directory")

    run_p = sub.add_parser("run", parents=[options],
                           help="run the configured check suites")
    run_p.set_defaults(fn=cmd_run)

    ref_p = sub.add_parser("refine", parents=[options],
                           help="re-run resolution-dependent checks on a "
                                "refinement ladder")
    ref_p.add_argument("--ladder", required=True,
                       help="comma-separated rung indices, e.g. 1,2,3")
    ref_p.set_defaults(fn=cmd_refine)

    lc_p = sub.add_parser("list-checks",
                          help="list the registered checks and their records")
    lc_p.set_defaults(fn=cmd_list_checks)

    ps_p = sub.add_parser("print-schema",
                          help="print the configuration schema: the inputs "
                               "a run varies")
    ps_p.set_defaults(fn=cmd_print_schema)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code) if exc.code else 0
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
