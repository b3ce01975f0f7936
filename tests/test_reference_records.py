"""The free-field and refinement records equal the stored benchmark
reference exactly, not just within the benchmark's drift bound; the
subspace and fock suites' records pass the benchmark's gate on stored
seeds, and the modloc records pass it at seed 7.

The exact records run through the CLI in a child process with one BLAS
thread, the setting perfbench/reference.json was made with.  modloc
records are left out: their reference moved at roundoff, so only the
bound applies.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

from modlab.checks import run_checks
from modlab.config import ExperimentConfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "perfbench", "reference.json")) as fh:
    REFERENCE = json.load(fh)
REPORTS = REFERENCE["reports"]
SEEDS = sorted(map(int, REFERENCE["seeded"]))

ONE_THREAD = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def _cli_records(tmp_path, kind, *args):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"kind": kind}))
    out = tmp_path / "out"
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "modlab.cli", *args, "--config", str(config),
         "--seed", "7", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = next(out.glob("*report.json"))
    return {r["name"]: [r["value"], *r.get("sequence", [])]
            for r in json.loads(report.read_text())["checks"]}


@pytest.mark.parametrize("kind, args, reference, prefix", [
    ("freefield", ["run"], "all", "freefield."),
    ("all", ["refine", "--ladder", "1,2,3"], "refine", "refine."),
], ids=["freefield", "refine"])
def test_records_equal_the_reference_exactly(tmp_path, kind, args,
                                             reference, prefix):
    expected = {name: values
                for name, values in REPORTS[reference]["fixed"].items()
                if name.startswith(prefix)}
    assert expected
    assert _cli_records(tmp_path, kind, *args) == expected


def _benchmark_gate():
    """perfbench/run.py's gate, loaded from its file without running it."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.gate


GATE = _benchmark_gate()


@pytest.mark.parametrize("seed", [SEEDS[i * len(SEEDS) // 16]
                                  for i in range(16)])
def test_subspace_records_pass_the_gate_on_stored_seeds(seed):
    records, _ = run_checks(ExperimentConfig.from_dict(
        {"kind": "subspace", "seed": seed}))
    assert GATE({"checks": records}, "subspace", seed, REFERENCE) == []


@pytest.mark.parametrize("seed", [SEEDS[i * len(SEEDS) // 16]
                                  for i in range(16)])
def test_fock_records_pass_the_gate_on_stored_seeds(seed):
    records, _ = run_checks(ExperimentConfig.from_dict(
        {"kind": "fock", "seed": seed}))
    assert GATE({"checks": records}, "fock", seed, REFERENCE) == []


def test_modloc_records_pass_the_gate():
    # the reference holds the modloc records under kind all
    fixed = {name: values for name, values in REPORTS["all"]["fixed"].items()
             if name.startswith("modloc.")}
    reference = {"reports": {"modloc": {"fixed": fixed, "seeded": {}}},
                 "seeded": {}}
    records, _ = run_checks(ExperimentConfig.from_dict(
        {"kind": "modloc", "seed": 7}))
    assert len(fixed) == 5
    assert GATE({"checks": records}, "modloc", 7, reference) == []
