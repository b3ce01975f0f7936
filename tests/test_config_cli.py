import json

import pytest

from modlab.cli import main
from modlab.config import SCHEMA, ConfigError, ExperimentConfig, schema_text


def test_defaults_round_trip():
    cfg = ExperimentConfig.from_dict({"kind": "subspace", "seed": 3})
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()


def test_unknown_top_level_key():
    with pytest.raises(ConfigError, match="unknown key: bogus"):
        ExperimentConfig.from_dict({"bogus": 1})


# acceptance bounds are constants in checks.py, not config fields
REMOVED_BOUNDS = [
    ("subspace", "fiber_tolerance"),
    *(("fock", f"{name}_tolerance")
      for name in ("sym", "coherent", "gamma", "weyl", "modular")),
    *(("freefield", key) for key in (
        "locality_tolerance", "timelike_floor", "translation_tolerance",
        "boost_tolerance", "bw_tolerance", "blowup_factor",
        "borchers_tolerance")),
    *(("modloc", key) for key in (
        "extraction_tol", "net_tolerance", "cone_tolerance",
        "block_tolerance")),
]


@pytest.mark.parametrize("section, key", [("subspace", "bogus"),
                                          *REMOVED_BOUNDS],
                         ids=lambda v: v)
def test_unknown_section_key_names_path(tmp_path, capsys, section, key):
    message = f"unknown key: {section}.{key}"
    with pytest.raises(ConfigError, match=f"^{message}$"):
        ExperimentConfig.from_dict({section: {key: 1e9}})
    cfg = write_config(tmp_path, {"kind": "fock",
                                  "out_dir": str(tmp_path / "out"),
                                  section: {key: 1e9}})
    assert main(["run", "--config", cfg]) == 2
    assert f"configuration error: {message}\n" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_schema_holds_only_settable_fields():
    assert sum(len(keys) for keys in SCHEMA.values()) == 18


def test_type_error_names_field():
    with pytest.raises(ConfigError, match="freefield.mass"):
        ExperimentConfig.from_dict({"freefield": {"mass": "heavy"}})


def test_nonpositive_tolerance_rejected():
    with pytest.raises(ConfigError, match="must be positive"):
        ExperimentConfig.from_dict({"subspace": {"tolerance": -1.0}})


def test_bad_kind():
    with pytest.raises(ConfigError, match="kind"):
        ExperimentConfig.from_dict({"kind": "everything"})


def test_schema_text_mentions_all_sections():
    text = schema_text()
    for word in ("subspace", "fock", "freefield", "modloc", "seed"):
        assert word in text


def test_empty_dictionary_names_field():
    with pytest.raises(ConfigError, match="modloc.dictionary"):
        ExperimentConfig.from_dict({"modloc": {"dictionary": []}})
    with pytest.raises(ConfigError, match=r"modloc.dictionary\[0\]"):
        ExperimentConfig.from_dict({"modloc": {"dictionary": [[1.0, 2.0]]}})


def test_dictionary_bump_must_lie_inside_the_right_wedge():
    # the disk of radius r at (x0, x1) lies in W_R iff x1 - |x0| > sqrt(2) r;
    # radius 100 is refused before any bump is sampled
    for bad in ([0.0, 3.0, 2.5], [0.0, 3.0, 100.0], [2.8, 3.0, 0.5],
                [0.0, 3.0, 2.2]):
        with pytest.raises(ConfigError, match=r"modloc.dictionary\[1\]"):
            ExperimentConfig.from_dict(
                {"modloc": {"dictionary": [[0.0, 3.0, 0.5], bad]}})
    ExperimentConfig.from_dict({"modloc": {"dictionary": [[0.0, 3.0, 2.1]]}})


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_cli_run_subspace(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "kind": "subspace", "seed": 11, "out_dir": str(tmp_path / "out"),
        "subspace": {"n_samples": 25, "max_dim": 5}})
    code = main(["run", "--config", cfg])
    assert code == 0
    out = capsys.readouterr().out
    assert "[pass] subspace.involution" in out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["status"] == "pass"
    assert report["config"]["seed"] == 11
    assert (tmp_path / "out" / "checks.csv").exists()


def test_cli_failing_check_exits_1(tmp_path):
    cfg = write_config(tmp_path, {
        "kind": "subspace", "out_dir": str(tmp_path / "out"),
        "subspace": {"n_samples": 5, "tolerance": 1e-30}})
    assert main(["run", "--config", cfg]) == 1


def test_cli_usage_errors(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    bad = write_config(tmp_path, {"nonsense": True})
    assert main(["run", "--config", bad]) == 2
    cfg = write_config(tmp_path, {"kind": "freefield"})
    assert main(["refine", "--config", cfg, "--ladder", "3,1"]) == 2
    assert main(["refine", "--config", cfg, "--ladder", "1,2,9"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("data, field", [
    ({"seed": True}, "seed"),
    ({"subspace": {"tolerance": float("nan")}}, "subspace.tolerance"),
    ({"fock": {"weyl_cutoffs": [4]}}, "fock.weyl_cutoffs"),
    ({"freefield": {"n_points": 1000}}, "freefield.n_points"),
    ({"freefield": {"window": 6.5}}, "freefield.window"),
    ({"freefield": {"theta_max": 3.0}}, "freefield.theta_max"),
    ({"freefield": {"mass": 0.0}}, "freefield.mass"),
    ({"modloc": {"second_mass": -1.0}}, "modloc.second_mass"),
    ({"subspace": {"max_dim": 1}}, "subspace.max_dim"),
    ({"freefield": {"window_width": 0.0}}, "freefield.window_width"),
    ({"fock": {"cutoff": 0}}, "fock.cutoff"),
    ({"fock": {"fiber_theta": 2.0}}, "fock.fiber_theta"),
    ({"subspace": {"flow_times": ["a"]}}, "subspace.flow_times"),
    ({"subspace": {"flow_times": []}}, "subspace.flow_times"),
    ({"freefield": {"lattice_step": -0.01}}, "freefield.lattice_step"),
    ({"subspace": {"n_samples": 0}}, "subspace.n_samples"),
    ({"seed": -1}, "seed"),
    ({"modloc": {"dictionary": [[0.0, 3.0, 2.5]]}}, "modloc.dictionary[0]"),
    ({"freefield": {"window": 0.0}}, "freefield.window"),
    ({"modloc": {"dictionary": [[0.0, float("inf"), 0.5]]}},
     "modloc.dictionary[0]"),
    ({"modloc": {"dictionary": [[0.0, 3.0, 0.5], [True, 3.0, 0.5]]}},
     "modloc.dictionary[1]"),
    ({"freefield": {"theta_max": 1000.0}}, "freefield.theta_max"),
    ({"freefield": {"mass": 1e307}}, "freefield.theta_max"),
    ({"modloc": {"dictionary": [[0.0, 3.0, 0.5], [0.0, 300.0, 100.0]]}},
     "modloc.dictionary[1]"),
    ({"freefield": {"lattice_step": 1e-5}}, "freefield.lattice_step"),
], ids=["bool_seed", "nan_tolerance", "weyl_cutoff_below_probe_level",
        "n_points_not_power_of_two", "window_outside_grid",
        "theta_max_below_4", "zero_mass", "negative_second_mass",
        "max_dim_below_2", "zero_window_width", "zero_cutoff",
        "fiber_theta_above_half_pi", "non_numeric_flow_time",
        "empty_flow_times", "negative_lattice_step", "zero_n_samples",
        "negative_seed", "dictionary_bump_outside_wedge", "zero_window",
        "infinite_dictionary_entry", "bool_dictionary_entry",
        "momentum_overflow", "momentum_overflow_from_mass",
        "dictionary_bump_over_sample_budget",
        "lattice_step_over_sample_budget"])
def test_cli_rejects_bad_field_with_exit_2(tmp_path, capsys, data, field):
    cfg = write_config(tmp_path, {"kind": "fock",
                                  "out_dir": str(tmp_path / "out"), **data})
    assert main(["run", "--config", cfg]) == 2
    assert f"configuration error: {field}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_refine_single_rung_is_plain_run(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "kind": "freefield", "out_dir": str(tmp_path / "out")})
    assert main(["refine", "--config", cfg, "--ladder", "2"]) == 0
    rows = (tmp_path / "out" / "refinement.csv").read_text().splitlines()
    assert rows[0] == "resolution,check,residual"
    assert len(rows) > 1
    report = json.loads((tmp_path / "out" / "refine_report.json").read_text())
    assert set(report["timings"]) == {
        "rung2.check_bisognano_wichmann", "rung2.check_covariance",
        "rung2.check_locality", "total"}
    assert report["timings"]["total"] >= max(report["timings"].values()) > 0
    capsys.readouterr()


def test_refine_rejects_rung_windows_outside_the_grid(tmp_path, capsys,
                                                     monkeypatch):
    # rung 1 and 2 windows (5.2, 5.5) do not fit theta_max = 5.0, although
    # the configured window 4.5 does; no check may run before the refusal
    from modlab import checks

    def must_not_run(config, rng):
        raise AssertionError("a check ran before the refusal")
    for name in ("check_bisognano_wichmann", "check_covariance",
                 "check_locality"):
        monkeypatch.setattr(checks, name, must_not_run)
    cfg = write_config(tmp_path, {
        "kind": "freefield", "out_dir": str(tmp_path / "out"),
        "freefield": {"theta_max": 5.0, "window": 4.5}})
    assert main(["refine", "--config", cfg, "--ladder", "1,2"]) == 2
    assert ("configuration error: freefield.theta_max:"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_cli_list_checks(capsys):
    assert main(["list-checks"]) == 0
    out = capsys.readouterr().out
    assert "subspace: standard_suite" in out
    assert "modloc: net" in out


def test_cli_print_schema(capsys):
    assert main(["print-schema"]) == 0
    assert "lattice_step" in capsys.readouterr().out


def test_report_determinism(tmp_path):
    data = {"kind": "fock", "seed": 5, "fock": {"cutoff": 6}}
    cfg1 = write_config(tmp_path, dict(data, out_dir=str(tmp_path / "a")), "a.json")
    cfg2 = write_config(tmp_path, dict(data, out_dir=str(tmp_path / "b")), "b.json")
    assert main(["run", "--config", cfg1]) == 0
    assert main(["run", "--config", cfg2]) == 0
    ra = json.loads((tmp_path / "a" / "report.json").read_text())
    rb = json.loads((tmp_path / "b" / "report.json").read_text())
    for rep in (ra, rb):
        rep.pop("timings")
        rep.pop("environment")
        rep["config"].pop("out_dir")
    assert ra == rb


def test_cli_rejects_negative_seed_override(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "kind": "subspace", "out_dir": str(tmp_path / "out"),
        "subspace": {"n_samples": 1}})
    assert main(["run", "--config", cfg, "--seed", "-1"]) == 2
    assert "configuration error: seed:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _refuse_constant(name):
    raise ValueError(f"{name} is not standard JSON")


@pytest.mark.parametrize("kind, window, raised, error", [
    ("freefield", 2.0, {"freefield.bisognano_wichmann"},
     "DomainViolationError"),
    ("modloc", 4.5, {"modloc.net", "modloc.doublecone", "modloc.direct_sum"},
     "EmptyModelError"),
])
def test_check_that_raises_becomes_a_failed_record(tmp_path, capsys, kind,
                                                   window, raised, error):
    from modlab.checks import CHECKS
    cfg = write_config(tmp_path, {"kind": kind, "out_dir": str(tmp_path / "out"),
                                  "freefield": {"window": window}})
    assert main(["run", "--config", cfg]) == 1
    assert error in capsys.readouterr().out
    text = (tmp_path / "out" / "report.json").read_text()
    report = json.loads(text, parse_constant=_refuse_constant)
    assert report["status"] == "fail"
    assert set(report["timings"]) == {fn.__name__ for fn in CHECKS[kind]} | {"total"}
    errors = {r["name"]: r for r in report["checks"] if "error" in r}
    assert set(errors) == raised
    for rec in errors.values():
        assert not rec["passed"]
        assert rec["error"].startswith(error + ": ")
    # every check gave at least one record, its own or the error record
    assert len(report["checks"]) >= len(CHECKS[kind])


def test_cli_seed_override(tmp_path):
    cfg = write_config(tmp_path, {
        "kind": "subspace", "seed": 1, "out_dir": str(tmp_path / "out"),
        "subspace": {"n_samples": 5}})
    assert main(["run", "--config", cfg, "--seed", "99"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["config"]["seed"] == 99
