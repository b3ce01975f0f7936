"""modlab benchmark: closed-loop runs of the public CLI, checked and timed.

    python3 perfbench/run.py --workload run_all --seed 7 --seconds 50 --trace 0

Run from the repository root.  Each operation starts the modlab CLI in a
child process (``python -m modlab.cli`` on ``src/``) and the next one
starts only after it has ended: one client, closed loop.  Operations
repeat for about ``--seconds`` (at least one runs).  The seed is
passed through to ``modlab run/refine --seed``.

Every operation passes the correctness gate or counts as failed: exit
code 0, every record ``passed``, the expected record names, and every
value within the stated bound of the reference values in
reference.json.

With ``--trace 0`` the last stdout line reports the end-to-end metrics of
BENCHMARK.json: median wall time, child CPU time and child peak RSS per
operation, and the median set-up time (interpreter start, ``import
modlab.cli``, config load) of separate child processes: one before each
operation, and at least SETUP_REPEATS.
With ``--trace 1`` untraced and traced operations alternate, and the last
line reports the per-layer metrics of the traced ones (see spans.py),
with the tracing overhead.  A traced operation must reproduce the record
values of the untraced one exactly.

Child processes get one BLAS/OpenMP thread (BLAS_THREADS), set here and
not inherited, so CPU time equals busy time and runs repeat closely.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

BLAS_THREADS = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

# workload -> steps of one operation: (reference report, CLI arguments);
# refine_ladder runs but is not declared in BENCHMARK.json (see README.md)
WORKLOADS = {
    "run_all": [("all", ["run", "--config", "configs/all.json"])],
    "refine_ladder": [("refine", ["refine", "--config", "configs/all.json",
                                  "--ladder", "1,2,3"])],
    "finite_algebra": [("subspace", ["run", "--config", "configs/subspace.json"]),
                       ("fock", ["run", "--config", "configs/fock.json"])],
}

# a record value may drift from its reference by RELATIVE * |reference|;
# a reference at or below ROUNDOFF is roundoff-level and may drift by
# ROUNDOFF absolutely
RELATIVE = 1e-6
ROUNDOFF = 1e-10

SETUP_REPEATS = 9
OP_TIMEOUT_S = 120.0      # a run must end within 180 s
MB = 2.0 ** 20

SETUP_PROBE = """\
import json, sys, time
import modlab.cli
from modlab.config import ExperimentConfig
ExperimentConfig.load(sys.argv[1])
t = time.monotonic()
import os, platform, numpy, scipy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"ready": t, "modlab": modlab.cli.__file__,
                  "python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}",
                  "threads": {k: v for k, v in os.environ.items()
                              if k.endswith("_NUM_THREADS")}}))
"""


class HarnessError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def child_env():
    env = dict(os.environ)
    env.update(BLAS_THREADS)
    env["PYTHONPATH"] = SRC
    env.pop("PYTHONHOME", None)
    return env


def spawn(argv, log_path, timeout):
    """Run argv to completion, killing it after timeout seconds; return
    (exit code, wall s, cpu s, peak MB)."""
    with open(log_path, "w") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, cwd=HERE, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss * 1024 / MB)


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def record_values(record):
    """The numbers of a record the gate compares: value, then sequence."""
    return [record["value"], *record.get("sequence", [])]


def drift_ok(value, ref):
    if abs(ref) <= ROUNDOFF:
        return abs(value - ref) <= ROUNDOFF
    return abs(value - ref) <= RELATIVE * abs(ref)


def gate(report, kind, seed, reference):
    """Problems with one report (empty when it passes the gate)."""
    expected = reference["reports"][kind]
    seeded_ref = reference["seeded"].get(str(seed))
    records = {r["name"]: r for r in report["checks"]}
    names = set(expected["fixed"]) | set(expected["seeded"])
    problems = [f"{n}: missing" for n in sorted(names - set(records))]
    problems += [f"{n}: unexpected record" for n in sorted(set(records) - names)]
    for name, rec in records.items():
        if not rec["passed"]:
            problems.append(f"{name}: passed is false")
        ref = expected["fixed"].get(name)
        if ref is None and seeded_ref is not None:
            ref = seeded_ref.get(name)
        if ref is None:
            continue
        got = record_values(rec)
        if len(got) != len(ref) or not all(map(drift_ok, got, ref)):
            problems.append(f"{name}: {got} drifted from reference {ref}")
    return problems


def run_op(workload, seed, work, index, traced, reference):
    """One closed-loop operation: every step of the workload in turn."""
    op = {"wall": 0.0, "cpu": 0.0, "rss": 0.0, "problems": [], "values": {},
          "spans": [], "untraced": []}
    deadline = time.monotonic() + OP_TIMEOUT_S
    for step, (kind, args) in enumerate(WORKLOADS[workload]):
        out = os.path.join(work, f"op{index}-{step}")
        os.makedirs(out)
        argv = [*args, "--seed", str(seed), "--out", out]
        spans_path = os.path.join(out, "spans.json")
        if traced:
            argv = [sys.executable, "spans.py", spans_path, *argv]
        else:
            argv = [sys.executable, "-m", "modlab.cli", *argv]
        code, wall, cpu, rss = spawn(argv, os.path.join(out, "log.txt"),
                                     max(deadline - time.monotonic(), 1.0))
        op["wall"] += wall
        op["cpu"] += cpu
        op["rss"] = max(op["rss"], rss)
        report_path = os.path.join(
            out, "refine_report.json" if args[0] == "refine" else "report.json")
        if code != 0:
            op["problems"].append(f"{kind}: exit code {code}")
        try:
            with open(report_path) as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            op["problems"].append(f"{kind}: no report ({exc})")
            continue
        op["problems"] += gate(report, kind, seed, reference)
        op["values"].update({r["name"]: record_values(r)
                             for r in report["checks"]})
        if traced:
            with open(spans_path) as fh:
                trace = json.load(fh)
            spans = trace["spans"]
            op["untraced"] = trace["missing"]
            # renumber so the spans of all steps form one list
            base = len(op["spans"])
            traces = max((s["trace"] for s in op["spans"]), default=0)
            for s in spans:
                s["id"] += base
                s["trace"] += traces
                if s["parent"] is not None:
                    s["parent"] += base
            op["spans"] += spans
    return op


def setup_probe():
    """Set-up time of one child process, and the environment it saw."""
    config = os.path.join(HERE, "configs", "all.json")
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, config],
                          cwd=HERE, env=child_env(), capture_output=True,
                          text=True, timeout=OP_TIMEOUT_S)
    if proc.returncode != 0:
        raise HarnessError(f"set-up probe failed:\n{proc.stderr}")
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    if os.path.dirname(os.path.dirname(os.path.abspath(info["modlab"]))) != SRC:
        raise HarnessError(f"modlab imported from {info['modlab']}, "
                           f"not from {SRC}")
    return info.pop("ready") - t0, info


def environment(probe_info):
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": model,
            "child": probe_info,
            "inherited_threads": {k: v for k, v in os.environ.items()
                                  if k.endswith("_NUM_THREADS")}}


def summary(label, values):
    qs = (statistics.quantiles(values, n=4) if len(values) > 1
          else [values[0]] * 3)
    return (f"{label}: median {statistics.median(values):.4f} "
            f"q1 {qs[0]:.4f} q3 {qs[2]:.4f} min {min(values):.4f} "
            f"max {max(values):.4f} n {len(values)}")


def end_to_end_metrics(ops, setup_s):
    """End-to-end metrics (name -> (value, unit)) of untraced operations."""
    return {
        "wall_s": (statistics.median(o["wall"] for o in ops), "s"),
        "cpu_s": (statistics.median(o["cpu"] for o in ops), "s"),
        "peak_rss_mb": (statistics.median(o["rss"] for o in ops), "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer_metrics(traced_ops, plain_ops):
    """Per-layer metrics: the median over traced operations of each
    span-derived metric, plus the tracing overhead in wall time."""
    from spans import layer_metrics
    rows = [layer_metrics(o["spans"]) for o in traced_ops]
    out = {name: (statistics.median(r[name][0] for r in rows), unit)
           for name, (_, unit) in rows[0].items()}
    out["trace.overhead_s"] = (
        statistics.median(o["wall"] for o in traced_ops)
        - statistics.median(o["wall"] for o in plain_ops), "s")
    return out


def bench(workload, seed, seconds, trace, work):
    reference = load_reference()
    plain, traced = [], []
    setups = []
    start = time.monotonic()
    # start another operation while it is expected to end no later than
    # half an operation after the measuring time
    while (not plain or (trace and not traced)
           or time.monotonic() - start + statistics.median(
               o["wall"] for o in plain + traced) / 2 < seconds):
        if not trace:
            # one set-up sample per operation spreads them over the run
            setups.append(setup_probe())
        use_trace = trace and len(traced) < len(plain)
        op = run_op(workload, seed, work, len(plain) + len(traced), use_trace,
                    reference)
        if use_trace and not op["problems"] and plain and \
                op["values"] != plain[0]["values"]:
            op["problems"].append("traced record values differ from untraced")
        (traced if use_trace else plain).append(op)
    ops = plain + traced
    for i, op in enumerate(ops):
        for p in op["problems"]:
            print(f"op {i} FAILED: {p}", file=sys.stderr)
    lines = []
    if trace:
        metrics = per_layer_metrics(traced, plain)
        missing = sorted({n for o in traced for n in o["untraced"]})
        if missing:
            print(f"not in modlab, so not traced: {', '.join(missing)}",
                  file=sys.stderr)
    else:
        while len(setups) < SETUP_REPEATS:
            setups.append(setup_probe())
        setup_times = [t for t, _ in setups]
        metrics = end_to_end_metrics(plain, statistics.median(setup_times))
        lines.append("environment " + json.dumps(environment(setups[0][1])))
        lines.append(summary("wall_s", [o["wall"] for o in plain]))
        lines.append(summary("cpu_s", [o["cpu"] for o in plain]))
        lines.append(summary("peak_rss_mb", [o["rss"] for o in plain]))
        lines.append(summary("setup_s", setup_times))
    failed = sum(bool(o["problems"]) for o in ops)
    lines.append(json.dumps({
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items()}}))
    return lines


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "modlab", "cli.py")):
        print(f"no modlab source under {SRC}", file=sys.stderr)
        return 2
    work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        lines = bench(args.workload, args.seed, args.seconds, args.trace, work)
    except (HarnessError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
