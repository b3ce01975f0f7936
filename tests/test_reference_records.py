"""The free-field and refinement records equal the stored benchmark
reference exactly, not just within the benchmark's drift bound.

The records run through the CLI in a child process with one BLAS thread,
the setting perfbench/reference.json was made with.  modloc records are
left out: their reference moved at roundoff, so only the bound applies.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "perfbench", "reference.json")) as fh:
    REPORTS = json.load(fh)["reports"]

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
