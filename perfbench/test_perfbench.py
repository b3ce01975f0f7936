"""Tests of the benchmark itself: the tracer, the declared metric names and
the correctness gate.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run as perfrun  # noqa: E402
import spans  # noqa: E402
from modlab import checks, freefield, hilbert, modloc  # noqa: E402
from modlab.config import ExperimentConfig  # noqa: E402


def declared(section):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


@pytest.fixture
def tracer():
    t = spans.Tracer().install()
    try:
        yield t
    finally:
        t.uninstall()


def test_tracer_returns_the_values_of_the_wrapped_functions():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((6, 4))
    model = freefield.FreeFieldModel(1.0, freefield.RapidityGrid(6.0, 256))
    f = freefield.TestFunction2.bump((0.0, 3.0), 0.5, 1.0 / 16)
    cfg = ExperimentConfig(kind="subspace")
    plain = (hilbert.orthonormalize_columns(M), freefield.embed(f, model).values,
             hilbert.ComplexVectorSpace(3).complex_structure(),
             checks.check_fiberization(cfg, np.random.default_rng(7)))
    originals = (hilbert.orthonormalize_columns, modloc.embed,
                 checks.CHECKS["subspace"][1])
    t = spans.Tracer().install()
    try:
        assert modloc.embed is freefield.embed is not originals[1]
        assert checks.CHECKS["subspace"][1] is checks.check_fiberization
        traced = (hilbert.orthonormalize_columns(M),
                  freefield.embed(f, model).values,
                  hilbert.ComplexVectorSpace(3).complex_structure(),
                  checks.check_fiberization(cfg, np.random.default_rng(7)))
    finally:
        t.uninstall()
    assert (hilbert.orthonormalize_columns, modloc.embed,
            checks.CHECKS["subspace"][1]) == originals
    for a, b in zip(plain[:3], traced[:3]):
        assert np.array_equal(a, b)
    assert plain[3] == traced[3]


def test_spans_nest_and_self_time_excludes_children(tracer):
    checks.check_fiberization(ExperimentConfig(kind="subspace"),
                              np.random.default_rng(7))
    root, *rest = tracer.spans
    assert root["name"] == "checks.check_fiberization"
    assert root["parent"] is None
    assert rest and all(s["trace"] == root["trace"] for s in rest)
    selfs = spans.self_times(tracer.spans)
    assert all(0.0 <= st <= s["end"] - s["start"]
               for s, st in zip(tracer.spans, selfs))
    assert sum(selfs) == pytest.approx(root["end"] - root["start"])
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["standard.fiberize.calls"][0] == 7
    assert metrics["freefield.embed.calls"][0] == 0


def test_embed_counts_distinct_inputs(tracer):
    model = freefield.FreeFieldModel(1.0, freefield.RapidityGrid(6.0, 256))
    f = freefield.TestFunction2.bump((0.0, 3.0), 0.5, 1.0 / 16)
    g = freefield.TestFunction2.bump((0.0, 3.5), 0.5, 1.0 / 16)
    for h in (f, g, f):
        freefield.embed(h, model)
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["freefield.embed.calls"][0] == 3
    assert metrics["freefield.embed.distinct_ratio"][0] == pytest.approx(2 / 3)
    per_call = (len(f.x0) + len(f.x1)) * 256 * 16 / spans.MB
    assert metrics["freefield.embed.phase_mb"][0] == pytest.approx(3 * per_call)


def test_every_printed_metric_is_declared():
    op = {"wall": 1.0, "cpu": 1.0, "rss": 1.0, "spans": []}
    e2e = perfrun.end_to_end_metrics([op], 0.5)
    layer = perfrun.per_layer_metrics([op], [op])
    assert {n: u for n, (_, u) in e2e.items()} == declared("end_to_end")
    assert {n: u for n, (_, u) in layer.items()} == declared("per_layer")
    with open(os.path.join(HERE, "layer_map.json")) as fh:
        groups = json.load(fh)["map"]
    assert all(any(n.startswith(g + ".") for g in groups) for n in layer)


def report_of(kind, seed):
    ref = perfrun.load_reference()
    expected = ref["reports"][kind]
    values = {**expected["fixed"],
              **{n: ref["seeded"][str(seed)][n] for n in expected["seeded"]}}
    return {"checks": [{"name": n, "value": v[0], "passed": True}
                       for n, v in values.items()]}


def test_gate_accepts_reference_and_roundoff_drift():
    ref = perfrun.load_reference()
    report = report_of("subspace", 7)
    assert perfrun.gate(report, "subspace", 7, ref) == []
    for rec in report["checks"]:
        if abs(rec["value"]) <= perfrun.ROUNDOFF:
            rec["value"] += 0.5 * perfrun.ROUNDOFF
    assert perfrun.gate(report, "subspace", 7, ref) == []


def test_gate_rejects_failed_drifted_and_missing_records():
    ref = perfrun.load_reference()
    report = report_of("all", 7)
    recs = {r["name"]: r for r in report["checks"]}
    recs["modloc.duality"]["passed"] = False
    recs["freefield.bw_right_wedge"]["value"] *= 1.0 + 1e-4
    report["checks"].remove(recs["fock.ccr_phase"])
    problems = perfrun.gate(report, "all", 7, ref)
    assert len(problems) == 3
    assert any(p.startswith("modloc.duality: passed") for p in problems)
    assert any(p.startswith("freefield.bw_right_wedge:") for p in problems)
    assert "fock.ccr_phase: missing" in problems


def test_a_record_forced_to_fail_counts_as_a_failed_operation(
        tmp_path, monkeypatch):
    config = tmp_path / "strict.json"
    config.write_text(json.dumps(
        {"kind": "subspace", "subspace": {"n_samples": 3,
                                          "tolerance": 1e-300}}))
    monkeypatch.setitem(perfrun.WORKLOADS, "strict",
                        [("subspace", ["run", "--config", str(config)])])
    monkeypatch.setattr(perfrun, "SETUP_REPEATS", 1)
    lines = perfrun.bench("strict", 7, 0.0, 0, str(tmp_path))
    result = json.loads(lines[-1])
    assert result["attempted"] == 1
    assert result["failed"] == 1
    assert result["correct"] is False


def test_traced_run_reproduces_values_and_reports_layers(tmp_path, monkeypatch):
    monkeypatch.setitem(perfrun.WORKLOADS, "fock",
                        [("fock", ["run", "--config", "configs/fock.json"])])
    lines = perfrun.bench("fock", 7, 0.0, 1, str(tmp_path))
    result = json.loads(lines[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == \
        (True, 2, 0)
    metrics = result["metrics"]
    assert set(metrics) == set(declared("per_layer"))
    assert metrics["fock.gamma.calls"]["value"] == 29
    assert metrics["freefield.embed.calls"]["value"] == 0
