import argparse
import json
import math
import os
import subprocess
import sys

import pytest

from modlab import checks, cli, freefield
from modlab.checks import CHECKS, RECORDS, declared
from modlab.cli import main
from modlab.config import (REFINEMENT_RUNGS, SCHEMA, ConfigError,
                           ExperimentConfig, schema_text)

# the keys _run_and_report adds to a run's per-check timings
REPORT_TIMINGS = {"total"} | ({"peak_rss_mb"} if cli.resource else set())


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


# inputs no run varied, now constants in checks.py and config.py
REMOVED_INPUTS = [
    ("subspace", "max_dim"), ("subspace", "flow_times"),
    ("freefield", "theta_max"),
    *(("fock", key) for key in ("cutoff", "fiber_theta", "weyl_cutoffs")),
    *(("modloc", key) for key in ("second_mass", "dictionary")),
]


@pytest.mark.parametrize("section, key", [("subspace", "bogus"),
                                          *REMOVED_BOUNDS, *REMOVED_INPUTS],
                         ids=lambda v: v)
def test_unknown_section_key_names_path(tmp_path, capsys, section, key):
    # the fock and modloc sections hold no input: each is refused whole
    message = (f"unknown key: {section}" if section in ("fock", "modloc")
               else f"unknown key: {section}.{key}")
    with pytest.raises(ConfigError, match=f"^{message}$"):
        ExperimentConfig.from_dict({section: {key: 1e9}})
    cfg = write_config(tmp_path, {"kind": "fock",
                                  "out_dir": str(tmp_path / "out"),
                                  section: {key: 1e9}})
    assert main(["run", "--config", cfg]) == 2
    assert f"configuration error: {message}\n" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_schema_holds_only_settable_fields():
    settable = [f"{section}.{key}".lstrip(".")
                for section, keys in SCHEMA.items() for key in keys]
    assert settable == ["kind", "seed", "out_dir", "subspace.n_samples",
                        "subspace.tolerance", "freefield.mass"]


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
    # the dictionary is a literal in checks.py: a config one names its section
    for dictionary in ([], [[1.0, 2.0]]):
        with pytest.raises(ConfigError, match="^unknown key: modloc$"):
            ExperimentConfig.from_dict({"modloc": {"dictionary": dictionary}})


def test_dictionary_bump_must_lie_inside_the_right_wedge(monkeypatch):
    # the disk of radius r at (x0, x1) lies in W_R iff x1 - |x0| > sqrt(2) r;
    # every disk of the net's dictionary does
    from modlab import checks
    disks = []
    bump = checks.ff.TestFunction2.bump

    def recording_bump(center, radius, *args, **kwargs):
        disks.append((*center, radius))
        return bump(center, radius, *args, **kwargs)
    monkeypatch.setattr(checks.ff.TestFunction2, "bump",
                        staticmethod(recording_bump))
    checks._build_net(ExperimentConfig.from_dict({"kind": "modloc"}), ())
    assert len(disks) == 4
    for x0, x1, r in disks:
        assert x1 - abs(x0) > math.sqrt(2.0) * r
    with pytest.raises(ConfigError, match="^unknown key: modloc$"):
        ExperimentConfig.from_dict({"modloc": {"dictionary": [[0.0, 3.0, 2.1]]}})


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_cli_run_subspace(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "kind": "subspace", "seed": 11, "out_dir": str(tmp_path / "out"),
        "subspace": {"n_samples": 25}})
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
    # JSON is UTF-8: a UTF-16 file is refused, not a traceback with exit 1
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes('{"kind": "fock"}'.encode("utf-16"))
    assert main(["run", "--config", str(utf16)]) == 2
    assert capsys.readouterr().err.startswith(
        "configuration error: config is not valid JSON")


@pytest.mark.parametrize("data, field", [
    ({"seed": True}, "seed"),
    ({"subspace": {"tolerance": float("nan")}}, "subspace.tolerance"),
    ({"freefield": {"mass": 0.0}}, "freefield.mass"),
    ({"subspace": {"n_samples": 0}}, "subspace.n_samples"),
    ({"seed": -1}, "seed"),
    ({"freefield": {"mass": 1e307}}, "freefield.mass"),
    # the grid is stated only in config.REFINEMENT_RUNGS: a grid key is
    # unknown, whatever its value, also one inside the range it once had
    *(({"freefield": {key: value}}, f"unknown key: freefield.{key}")
      for key, value in (("n_points", 1000), ("window", 6.5),
                         ("window_width", 0.0), ("lattice_step", -0.01),
                         ("window", 0.0), ("lattice_step", 1e-5),
                         ("lattice_step", 1.0), ("lattice_step", 2.0),
                         ("lattice_step", 1e306), ("window", 5.5),
                         ("lattice_step", 0.3))),
    # a removed input is refused as an unknown key, whatever its value
    *(({"fock": {"weyl_cutoffs": ladder}}, "unknown key: fock")
      for ladder in ([4], [16, 12, 8], [8, 8, 16], [8])),
    *(({"freefield": {"theta_max": t}}, "unknown key: freefield.theta_max")
      for t in (3.0, 1000.0, 709.7)),
    *(({"subspace": {"flow_times": times}}, "unknown key: subspace.flow_times")
      for times in (["a"], [])),
    *(({"modloc": {"dictionary": disks}}, "unknown key: modloc")
      for disks in ([[0.0, 3.0, 2.5]], [[0.0, float("inf"), 0.5]],
                    [[0.0, 3.0, 0.5], [True, 3.0, 0.5]],
                    [[0.0, 3.0, 0.5], [0.0, 300.0, 100.0]])),
], ids=["bool_seed", "nan_tolerance", "zero_mass", "zero_n_samples",
        "negative_seed", "momentum_overflow_from_mass",
        "n_points_not_power_of_two", "window_outside_grid",
        "zero_window_width", "negative_lattice_step", "zero_window",
        "lattice_step_over_sample_budget",
        "bump_without_sample_1", "bump_without_sample_2",
        "bump_without_sample_1e306", "window_that_fails_checks",
        "lattice_step_that_raises",
        "weyl_cutoff_below_probe_level", "weyl_cutoffs_decreasing",
        "weyl_cutoffs_repeated", "weyl_cutoffs_one_rung",
        "theta_max_below_4", "momentum_overflow", "lattice_phase_overflow",
        "non_numeric_flow_time", "empty_flow_times",
        "dictionary_bump_outside_wedge", "infinite_dictionary_entry",
        "bool_dictionary_entry", "dictionary_bump_over_sample_budget"])
def test_cli_rejects_bad_field_with_exit_2(tmp_path, capsys, data, field):
    cfg = write_config(tmp_path, {"kind": "fock",
                                  "out_dir": str(tmp_path / "out"), **data})
    assert main(["run", "--config", cfg]) == 2
    # a bad value names its field; an unknown key ends the message
    end = "\n" if field.startswith("unknown key: ") else ":"
    assert f"configuration error: {field}{end}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("rung", [None, 1, 2, 3],
                         ids=["default", "rung1", "rung2", "rung3"])
def test_working_grids_load(rung):
    # a config holds the default rung's grid, and on_rung a copy on
    # another; the config echo names neither
    loaded = ExperimentConfig.from_dict({"kind": "freefield",
                                         "freefield": {"mass": 0.5}})
    cfg = loaded if rung is None else loaded.on_rung(rung)
    assert cfg.freefield == {"mass": 0.5, **REFINEMENT_RUNGS[rung or 3]}
    assert loaded.freefield == {"mass": 0.5, **REFINEMENT_RUNGS[3]}
    assert cfg.to_dict() == loaded.to_dict()
    assert cfg.to_dict()["freefield"] == {"mass": 0.5}


def test_the_default_discretization_is_rung_3():
    # stated once, in config.REFINEMENT_RUNGS: the config, the model and
    # the bumps all read it
    from modlab import checks, freefield
    cfg = ExperimentConfig()
    assert cfg.freefield == {"mass": 1.0, **REFINEMENT_RUNGS[3]}
    assert checks._model(cfg) == freefield.FreeFieldModel()
    bump = freefield.TestFunction2.bump((0.0, 0.0), 0.5)
    assert bump.step == cfg.freefield["lattice_step"]


def test_refine_reports_each_rung_and_its_timings(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "kind": "freefield", "out_dir": str(tmp_path / "out")})
    assert main(["refine", "--config", cfg, "--ladder", "2,3"]) == 0
    rows = (tmp_path / "out" / "refinement.csv").read_text().splitlines()
    assert rows[0] == "resolution,check,residual"
    assert {row.split(",")[0] for row in rows[1:]} == {"2", "3"}
    report = json.loads((tmp_path / "out" / "refine_report.json").read_text())
    timings = report["timings"]
    checked = {f"rung{k}.check_{name}" for k in (2, 3)
               for name in ("bisognano_wichmann", "covariance", "locality")}
    assert set(timings) == checked | REPORT_TIMINGS
    assert timings["total"] >= max(timings[k] for k in checked) > 0
    if "peak_rss_mb" in timings:
        assert timings["peak_rss_mb"] > 0
    capsys.readouterr()


@pytest.mark.parametrize("ladder", ["2", "1,1", "2,,3", ",2,3", "2,3,"])
def test_refine_refuses_fewer_than_two_rungs(tmp_path, capsys, ladder):
    # one rung has nothing to decrease along, and used to pass with no
    # record; an empty entry is no rung, not one to skip
    cfg = write_config(tmp_path, {
        "kind": "freefield", "out_dir": str(tmp_path / "out"),
        "freefield": {"mass": 0.2}})
    assert main(["refine", "--config", cfg, "--ladder", ladder]) == 2
    assert "configuration error: ladder" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["run"], ["refine", "--ladder", "1,2"]],
                         ids=["run", "refine"])
@pytest.mark.parametrize("where", ["option", "config"])
def test_out_dir_that_cannot_be_created_is_a_usage_error(
        tmp_path, capsys, monkeypatch, argv, where):
    # an existing file, as the directory or as its parent, the empty path,
    # which abspath reads as the working directory, and a path holding a
    # NUL, which os.path.exists reads as missing: exit 2 naming out_dir,
    # before any check runs
    from modlab import checks

    def must_not_run(config, rng):
        raise AssertionError("a check ran before the refusal")
    for name in ("check_bisognano_wichmann", "check_covariance",
                 "check_locality"):
        monkeypatch.setattr(checks, name, must_not_run)
    monkeypatch.setitem(checks.CHECKS, "fock", [must_not_run])
    monkeypatch.chdir(tmp_path)     # where the empty path would write
    blocker = tmp_path / "file"
    blocker.write_text("")
    not_writable = f"{str(blocker)!r} is not a writable directory"
    for out, reason in ((str(blocker), not_writable),
                        (str(blocker / "out"), not_writable),
                        ("", "the path is empty"),
                        ("a\0b", "the path holds a NUL character")):
        data = {"kind": "fock"}
        if where == "config":
            data["out_dir"] = out
        cfg = write_config(tmp_path, data)
        extra = ["--out", out] if where == "option" else []
        assert main([argv[0], "--config", cfg, *argv[1:], *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: out_dir: cannot create "
                              f"{out!r}: {reason}")
    assert blocker.read_text() == ""
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "file"]


def test_run_and_refine_share_the_run_options():
    # --config, --seed and --out are declared once, and every option of
    # each subcommand says what it does
    parser = cli.build_parser()
    [sub] = [a for a in parser._actions
             if isinstance(a, argparse._SubParsersAction)]
    for command, extra in (("run", []), ("refine", ["--ladder", "1,2"])):
        args = parser.parse_args([command, "--config", "c.json", "--seed", "3",
                                  "--out", "o", *extra])
        assert (args.config, args.seed, args.out) == ("c.json", 3, "o")
        for action in sub.choices[command]._actions:
            assert action.help, f"{command} {action.option_strings}: no help"


def test_cli_list_checks(capsys):
    # each check, then each of its records with its bound, from RECORDS
    assert main(["list-checks"]) == 0
    out = capsys.readouterr().out
    assert "subspace: standard_suite" in out
    assert "modloc: net" in out
    lines = [line for line in out.splitlines() if line.startswith("  ")]
    assert [line.split()[0] for line in lines] == list(RECORDS)
    assert ("  subspace.involution < subspace.tolerance: the Tomita operator "
            "squares to the identity") in lines
    assert ("  freefield.bw_left_wedge_blowup > 1000: the capped half-boost "
            "image of a wrong-wedge vector blows up along the cap ladder"
            ) in lines


def test_cli_print_schema(capsys):
    assert main(["print-schema"]) == 0
    out = capsys.readouterr().out
    assert "lattice_step" in out and "REFINEMENT_RUNGS" in out


def test_report_determinism(tmp_path):
    data = {"kind": "fock", "seed": 5}
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
    ("freefield", 2.0, {"bisognano_wichmann"}, "DomainViolationError"),
    ("modloc", 4.5, {"net", "doublecone", "direct_sum"}, "EmptyModelError"),
])
def test_check_that_raises_becomes_a_failed_record(tmp_path, capsys,
                                                   monkeypatch, kind, window,
                                                   raised, error):
    # the window is the rung table's, so it is patched there, in process
    monkeypatch.setitem(REFINEMENT_RUNGS[3], "window", window)
    cfg = write_config(tmp_path, {"kind": kind, "out_dir": str(tmp_path / "out")})
    assert main(["run", "--config", cfg]) == 1
    assert error in capsys.readouterr().out
    text = (tmp_path / "out" / "report.json").read_text()
    report = json.loads(text, parse_constant=_refuse_constant)
    assert report["status"] == "fail"
    assert set(report["timings"]) == ({fn.__name__ for fn in CHECKS[kind]}
                                      | REPORT_TIMINGS)
    # each check gives the records it declares, measured or failed with
    # the error; a failed one reads its threshold, finite in strict JSON
    assert [r["name"] for r in report["checks"]] == [
        name for fn in CHECKS[kind] for name in declared(fn)]
    errors = {r["name"]: r for r in report["checks"] if "error" in r}
    assert set(errors) == {name for name, row in RECORDS.items()
                           if row.check in raised}
    for rec in errors.values():
        assert not rec["passed"] and rec["value"] == rec["threshold"]
        assert rec["error"].startswith(error + ": ")


def test_a_flipped_wedge_direction_fails_every_record_it_reaches(
        tmp_path, monkeypatch):
    # every right-wedge probe fails the domain certificate, so the checks
    # that embed one raise: each of their records is in the report, failed
    # and naming the error, and no <kind>.<check> record stands in for them
    monkeypatch.setattr(freefield, "RIGHT_WEDGE_DIRECTION", +1)
    cfg = write_config(tmp_path, {"kind": "all",
                                  "out_dir": str(tmp_path / "out")})
    assert main(["run", "--config", cfg]) == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text(),
                        parse_constant=_refuse_constant)
    assert [r["name"] for r in report["checks"]] == list(RECORDS)
    raised = [checks.check_bisognano_wichmann, checks.check_net,
              checks.check_doublecone, checks.check_direct_sum]
    assert {r["name"] for r in report["checks"] if "error" in r} == {
        name for fn in raised for name in declared(fn)}
    assert not any(r["passed"] for r in report["checks"] if "error" in r)


def test_refine_rung_that_raises_is_a_failed_record(tmp_path):
    # at mass 0.2 the rung-1 grid leaves the right-wedge bump outside the
    # numerical domain of delta^(1/2); the command runs in a child
    # process, so a traceback would show on its stderr
    cfg = write_config(tmp_path, {"kind": "freefield",
                                  "freefield": {"mass": 0.2}})
    out = tmp_path / "out"
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "modlab.cli", "refine", "--config", cfg,
         "--ladder", "1,2", "--out", str(out)],
        env={**os.environ, "PYTHONPATH": os.path.join(root, "src")},
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    report = json.loads((out / "refine_report.json").read_text())
    assert report["status"] == "fail"
    names = [r["name"] for r in report["checks"]]
    assert [n for n in names if n.startswith("rung")] == [
        "rung1.freefield.bw_right_wedge",
        "rung1.freefield.bw_left_wedge_certificate",
        "rung1.freefield.bw_left_wedge_blowup",
        "rung1.freefield.bw_right_wedge_stable"]
    for failed in report["checks"][:4]:
        assert not failed["passed"]
        assert failed["error"].startswith("DomainViolationError: ")
    assert any(n.startswith("refine.") for n in names)
    assert (out / "refinement.csv").exists()


def test_cli_seed_override(tmp_path):
    cfg = write_config(tmp_path, {
        "kind": "subspace", "seed": 1, "out_dir": str(tmp_path / "out"),
        "subspace": {"n_samples": 5}})
    assert main(["run", "--config", cfg, "--seed", "99"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["config"]["seed"] == 99
