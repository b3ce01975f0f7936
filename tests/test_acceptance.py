"""Acceptance suite: every criterion at its stated tolerance, one
pass/fail line per criterion (run with -s to see them live)."""

import json
import math
import time

import numpy as np
import pytest

from modlab import checks, freefield, modloc
from modlab.checks import (
    check_borchers, check_coherent_calculus, check_covariance,
    check_direct_sum, check_doublecone, check_fiberization, check_locality,
    check_net, check_second_quantized, check_standard_suite,
    check_symmetrization, check_weyl, record, run_checks,
)
from modlab.config import REFINEMENT_RUNGS, ExperimentConfig
from modlab.freefield import (
    DomainViolationError, PoincareElement, Region2, TestFunction2,
    bw_residual, embed, modular_blowup_profile,
)


def default_config(**over):
    return ExperimentConfig.from_dict(dict(over))


def rung_config(k):
    return ExperimentConfig(freefield=dict(REFINEMENT_RUNGS[k]))


def report_line(number, label, passed, detail=""):
    flag = "PASS" if passed else "FAIL"
    print(f"[{flag}] criterion {number:2d}: {label} {detail}")
    assert passed, f"criterion {number}: {label} {detail}"


def run_records(fn, config, seed=7):
    rng = np.random.default_rng(seed)
    return fn(config, rng)


def test_criterion_01_standard_subspace_suite():
    cfg = default_config()
    t0 = time.perf_counter()
    records = run_records(check_standard_suite, cfg)
    elapsed = time.perf_counter() - t0
    worst = max(r["value"] for r in records)
    ok = all(r["passed"] for r in records) and elapsed < 10.0
    report_line(1, "standard-subspace suite (200 samples, d <= 8)", ok,
                f"worst residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_fiberization_oracle():
    cfg = default_config()
    t0 = time.perf_counter()
    records = run_records(check_fiberization, cfg)
    elapsed = time.perf_counter() - t0
    ok = all(r["passed"] for r in records) and elapsed < 5.0
    report_line(2, "fiber angles match principal angles; (j, delta) "
                   "reassemble", ok,
                f"worst {max(r['value'] for r in records):.2e}, {elapsed:.1f}s")


def test_criterion_03_symmetrization_identity():
    cfg = default_config()
    t0 = time.perf_counter()
    records = run_records(check_symmetrization, cfg)
    elapsed = time.perf_counter() - t0
    ok = all(r["passed"] for r in records) and elapsed < 10.0
    report_line(3, "symmetrization equivalence (100 instances, n <= 5, "
                   "d <= 4)", ok,
                f"worst {records[0]['value']:.2e}, {elapsed:.1f}s")


def test_criterion_04_coherent_calculus():
    cfg = default_config()
    t0 = time.perf_counter()
    records = run_records(check_coherent_calculus, cfg)
    elapsed = time.perf_counter() - t0
    ok = all(r["passed"] for r in records) and elapsed < 10.0
    report_line(4, "coherent inner products and gamma action", ok,
                f"{elapsed:.1f}s")


def test_criterion_05_ccr_weyl():
    cfg = default_config()
    t0 = time.perf_counter()
    records = run_records(check_weyl, cfg)
    elapsed = time.perf_counter() - t0
    ok = all(r["passed"] for r in records) and elapsed < 60.0
    vals = {r["name"]: r["value"] for r in records}
    report_line(5, "Weyl closed form vs matrix exponential, CCR phase, "
                   "monotone truncation defect", ok,
                f"agreement {vals['fock.weyl_agreement']:.2e}, "
                f"phase {vals['fock.ccr_phase']:.2e}, {elapsed:.1f}s")


def test_criterion_06_second_quantized_modular():
    cfg = default_config()
    t0 = time.perf_counter()
    records = run_records(check_second_quantized, cfg)
    elapsed = time.perf_counter() - t0
    ok = all(r["passed"] for r in records) and elapsed < 60.0
    report_line(6, "second-quantized modular identities on the pi/3 fiber "
                   "model", ok,
                f"worst {max(r['value'] for r in records):.2e}, {elapsed:.1f}s")


def test_criterion_07_locality():
    t0 = time.perf_counter()
    fine = run_records(check_locality, rung_config(3))
    coarse = run_records(check_locality, rung_config(2))
    elapsed = time.perf_counter() - t0
    vals_f = {r["name"]: r for r in fine}
    vals_c = {r["name"]: r for r in coarse}
    stable = abs(vals_f["freefield.locality_timelike"]["value"]
                 - vals_c["freefield.locality_timelike"]["value"]) \
        < 0.1 * vals_f["freefield.locality_timelike"]["value"]
    ok = (all(r["passed"] for r in fine) and all(r["passed"] for r in coarse)
          and stable and elapsed < 60.0)
    report_line(7, "locality: spacelike pairing at quadrature floor, "
                   "timelike pairing nonzero, stable under refinement", ok,
                f"spacelike {vals_f['freefield.locality_spacelike']['value']:.1e}, "
                f"timelike {vals_f['freefield.locality_timelike']['value']:.2e}, "
                f"{elapsed:.1f}s")


def test_criterion_08_covariance():
    t0 = time.perf_counter()
    per_rung = [run_records(check_covariance, rung_config(k))
                for k in (1, 2, 3)]
    elapsed = time.perf_counter() - t0
    boosts = [next(r["value"] for r in recs
                   if r["name"] == "freefield.covariance_boost")
              for recs in per_rung]
    transl = [next(r["value"] for r in recs
                   if r["name"] == "freefield.covariance_translation")
              for recs in per_rung]
    decreasing = all(b <= 1.1 * a for a, b in zip(boosts, boosts[1:]))
    final_ok = all(r["passed"] for r in per_rung[-1])
    ok = decreasing and final_ok and elapsed < 60.0
    report_line(8, "Poincare covariance of the embedding", ok,
                f"boost ladder {boosts[0]:.1e} -> {boosts[-1]:.1e}, "
                f"translation {transl[-1]:.1e}, {elapsed:.1f}s")


def test_criterion_09_bisognano_wichmann():
    t0 = time.perf_counter()
    residuals = []
    for k in (1, 2, 3):
        cfg = rung_config(k)
        model = checks._model(cfg)
        f = TestFunction2.bump((0.0, 3.0), 0.5, cfg.freefield["lattice_step"],
                               region=Region2.right_wedge())
        residuals.append(bw_residual(f, model))
    monotone = residuals[0] > residuals[1] > residuals[2]
    final = residuals[2] < 1e-3

    cfg = rung_config(3)
    model = checks._model(cfg)
    g = TestFunction2.bump((0.0, -3.0), 0.5, cfg.freefield["lattice_step"],
                           region=Region2.left_wedge())
    violated = False
    try:
        bw_residual(g, model)
    except DomainViolationError as exc:
        violated = exc.tail_mass > 1e-3
    Eg = embed(g, model).values
    blow = modular_blowup_profile(Eg, model.grid)
    growth = blow[-1] / blow[0] > 1e3
    elapsed = time.perf_counter() - t0
    ok = monotone and final and violated and growth and elapsed < 120.0
    report_line(9, "one-particle wedge fixed points with domain violation "
                   "for the wrong wedge", ok,
                f"ladder {residuals[0]:.1e} -> {residuals[1]:.1e} -> "
                f"{residuals[2]:.1e}, blow-up x{blow[-1] / blow[0]:.1e}, "
                f"{elapsed:.1f}s")


def test_criterion_10_borchers():
    cfg = default_config()
    t0 = time.perf_counter()
    records = run_records(check_borchers, cfg)
    elapsed = time.perf_counter() - t0
    ok = all(r["passed"] for r in records) and elapsed < 30.0
    report_line(10, "translation commutation relations with the wedge "
                    "modular data", ok,
                f"worst {max(r['value'] for r in records):.2e}, {elapsed:.1f}s")


def test_criterion_11_localization_net():
    cfg = default_config()
    t0 = time.perf_counter()
    records = (run_records(check_net, cfg)
               + run_records(check_doublecone, cfg)
               + run_records(check_direct_sum, cfg))
    elapsed = time.perf_counter() - t0
    vals = {r["name"]: r["value"] for r in records}
    ok = all(r["passed"] for r in records) and elapsed < 120.0
    report_line(11, "localized net: isotony, duality, covariance, double "
                    "cones, direct sums", ok,
                f"net worst {max(vals['modloc.isotony'], vals['modloc.duality'], vals['modloc.covariance']):.1e}, "
                f"cone {vals['modloc.doublecone']:.1e}, "
                f"blocks {vals['modloc.direct_sum']:.1e}, {elapsed:.1f}s")


def test_criterion_12_determinism(tmp_path):
    from modlab.cli import main
    data = {"kind": "subspace", "seed": 13,
            "subspace": {"n_samples": 40}}
    reports = []
    for tag in ("a", "b"):
        cfg_path = tmp_path / f"{tag}.json"
        cfg_path.write_text(json.dumps(dict(data, out_dir=str(tmp_path / tag))))
        assert main(["run", "--config", str(cfg_path)]) == 0
        rep = json.loads((tmp_path / tag / "report.json").read_text())
        rep.pop("timings")
        rep.pop("environment")
        rep["config"].pop("out_dir")
        reports.append(rep)
    ok = reports[0] == reports[1]
    report_line(12, "identical (config, seed) gives identical reports "
                    "modulo timings", ok)


# (threshold, direction) of every record of kind "all"; the bounds are
# constants, so none may drift without this table changing
FROZEN_BOUNDS = {
    "subspace.involution": (1e-9, "below"),
    "subspace.adjoint": (1e-9, "below"),
    "subspace.conjugation": (1e-9, "below"),
    "subspace.flow": (1e-9, "below"),
    "subspace.fixed": (1e-9, "below"),
    "subspace.fiber_angles": (1e-9, "below"),
    "subspace.fiber_reassembly": (1e-9, "below"),
    "fock.symmetrization": (1e-12, "below"),
    "fock.coherent_inner": (1e-12, "below"),
    "fock.gamma_on_coherent": (1e-10, "below"),
    "fock.weyl_agreement": (1e-6, "below"),
    "fock.ccr_phase": (1e-6, "below"),
    "fock.weyl_truncation_monotone": (0.5, "above"),
    "fock.conjugation_on_coherent": (1e-7, "below"),
    "fock.weyl_conjugation": (1e-7, "below"),
    "fock.weyl_flow_covariance": (1e-7, "below"),
    "fock.ccr_phase_across_complement": (1e-7, "below"),
    "freefield.locality_spacelike": (1e-6, "below"),
    "freefield.locality_timelike": (1e-3, "above"),
    "freefield.covariance_translation": (1e-6, "below"),
    "freefield.covariance_boost": (1e-4, "below"),
    "freefield.bw_right_wedge": (1e-3, "below"),
    "freefield.bw_left_wedge_certificate": (1e-3, "above"),
    "freefield.bw_left_wedge_blowup": (1e3, "above"),
    "freefield.bw_right_wedge_stable": (1e3, "below"),
    "freefield.borchers_flow": (1e-6, "below"),
    "freefield.borchers_reflection": (1e-6, "below"),
    "modloc.isotony": (1e-3, "below"),
    "modloc.duality": (1e-3, "below"),
    "modloc.covariance": (1e-3, "below"),
    "modloc.doublecone": (1e-2, "below"),
    "modloc.direct_sum": (1e-10, "below"),
}


def test_every_record_keeps_its_frozen_bound():
    records, _ = run_checks(default_config())
    assert {r["name"]: (r["threshold"], r["direction"])
            for r in records} == FROZEN_BOUNDS


def test_a_nan_measurement_fails_its_record(monkeypatch):
    # the second spacelike pairing is NaN, which max(worst, x) dropped:
    # the record passed at the first pairing's value
    pairings = iter([1e-9, float("nan"), 1.0])
    monkeypatch.setattr(freefield, "locality_pairing",
                        lambda f, g, model: next(pairings))
    rec = check_locality(default_config(), None)[0]
    assert rec["name"] == "freefield.locality_spacelike"
    assert math.isnan(rec["value"]) and not rec["passed"]
    assert not record("x", "a claim", float("nan"), 1.0, "above")["passed"]


def test_an_empty_net_category_fails_its_record(monkeypatch):
    # a net with one wedge has no isotony or duality pair: a category with
    # no rows has shown nothing, so its record fails rather than reading 0
    rows = {"isotony": [{"residual": 1e-15}], "duality": [],
            "covariance": [{"residual": 2e-14}]}
    monkeypatch.setattr(checks, "_build_net", lambda config: None)
    monkeypatch.setattr(modloc, "net_checks",
                        lambda net, covariance_elements=(): rows)
    records = {r["name"]: r for r in check_net(default_config(), None)}
    assert records["modloc.duality"]["value"] == 1.0
    assert not records["modloc.duality"]["passed"]
    assert records["modloc.isotony"]["passed"]
    assert records["modloc.covariance"]["passed"]


@pytest.mark.parametrize("broken", [False, True], ids=["default", "broken"])
def test_a_covariance_pair_without_a_model_fails_its_record(monkeypatch,
                                                            broken):
    # the broken transport reflects boosted functions into the opposite
    # wedge, so no boosted wedge has a model: each such pair must be a
    # failing row with the error text, since dropped, the record would
    # pass on the translation rows alone
    if broken:
        transform = TestFunction2.transform
        monkeypatch.setattr(TestFunction2, "transform", lambda f, g: transform(
            f, PoincareElement.reflection() * g if g.rapidity else g))
    found = []
    net_checks = modloc.net_checks

    def recorded(*args, **kwargs):
        found.append(net_checks(*args, **kwargs))
        return found[-1]

    monkeypatch.setattr(modloc, "net_checks", recorded)
    records = {r["name"]: r for r in check_net(default_config(), None)}
    rows = found[0]["covariance"]
    assert len(rows) == 12
    failed = [row for row in rows if "error" in row]
    assert len(failed) == (6 if broken else 0)
    assert all(row["residual"] == 1.0 and "domain certificate" in row["error"]
               and "rapidity=0.1" in row["element"] for row in failed)
    assert records["modloc.covariance"]["passed"] is not broken
    assert records["modloc.isotony"]["passed"]
    assert records["modloc.duality"]["passed"]
