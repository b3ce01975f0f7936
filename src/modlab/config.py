"""Experiment configuration: a JSON file with nested sections.

Unknown keys are errors, and a config round-trips losslessly, so a
report's config echo fully reproduces the run.  The acceptance bounds
are constants in checks.py; subspace.tolerance is the one bound a config
sets, so that a run can force a failing record.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

__all__ = ["ConfigError", "ExperimentConfig", "SCHEMA", "schema_text"]


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries the field path."""


KINDS = ("subspace", "fock", "freefield", "modloc", "all")
WEYL_PROBE_LEVEL = 8        # checks.check_weyl reads Fock levels up to 8
# a bump of radius r takes about 2 r / lattice_step samples per side of its
# lattice; the defaults take about 157
MAX_BUMP_SIDE = 1024
CHECK_BUMP_RADIUS = 0.55    # the largest bump checks.py places itself

# section -> key -> (type, default, description)
SCHEMA = {
    "": {
        "kind": (str, "all", "suite to run: subspace | fock | freefield | modloc | all"),
        "seed": (int, 7, "random seed recorded in every report (>= 0)"),
        "out_dir": (str, "results", "output directory for reports and CSV data"),
    },
    "subspace": {
        "max_dim": (int, 8, "largest complex dimension sampled (>= 2)"),
        "n_samples": (int, 200, "number of seeded random standard subspaces (>= 1)"),
        "flow_times": (list, [0.3, 1.7],
                       "modular flow times checked (non-empty, finite numbers)"),
        "tolerance": (float, 1e-9, "residual bound of the standard-subspace "
                      "records (> 0); the one settable bound, so a run can "
                      "force a failing record"),
    },
    "fock": {
        "cutoff": (int, 10, "Fock truncation for the modular checks (>= 1)"),
        "fiber_theta": (float, 1.0471975511965976,
                        "angle of the fiber model (0 < theta < pi/2)"),
        "weyl_cutoffs": (list, [8, 12, 16], "cutoff ladder for Weyl checks"),
    },
    "freefield": {
        "mass": (float, 1.0, "field mass (> 0)"),
        "theta_max": (float, 6.0, "rapidity half-width of the grid (>= 4, "
                      "with mass * cosh(theta_max) finite)"),
        "n_points": (int, 4096, "rapidity grid size (power of two, >= 8)"),
        "window": (float, 5.8, "embedding window position (> 0, < theta_max); "
                   "accepted below 5.8, but with the other defaults every "
                   "window tried there fails a check (5.7: modloc.doublecone; "
                   "5.5: freefield.bw_right_wedge 5.2e-3, modloc.duality 0.98)"),
        "window_width": (float, 1.2, "embedding window taper width (> 0)"),
        "lattice_step": (float, 1.0 / 128,
                         f"spacetime lattice step for bumps (> 0, and at "
                         f"most {MAX_BUMP_SIDE} samples across a bump of "
                         f"radius {CHECK_BUMP_RADIUS})"),
    },
    "modloc": {
        "second_mass": (float, 1.4, "mass of the second summand (> 0)"),
        "dictionary": (list,
                       [[0.0, 3.0, 0.5], [0.4, 3.6, 0.55],
                        [-0.3, 2.8, 0.45], [0.1, 4.0, 0.6]],
                       "base right-wedge probe bumps as [x0, x1, radius], "
                       "each disk inside the wedge: x1 - |x0| > sqrt(2) radius, "
                       f"and 2 radius / lattice_step <= {MAX_BUMP_SIDE}"),
    },
}


def _check_type(path, value, typ):
    """value as typ (an int is a valid float), or ConfigError.  No field
    is boolean, and bool is an int subclass, so booleans are rejected."""
    if typ is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if isinstance(value, bool) or not isinstance(value, typ):
        raise ConfigError(f"{path}: expected {typ.__name__}, got "
                          f"{type(value).__name__}")
    if typ is float and not math.isfinite(value):
        raise ConfigError(f"{path}: must be finite, got {value!r}")
    return value


def _check_section(section, data, out):
    schema = SCHEMA[section]
    for key, value in data.items():
        path = f"{section}.{key}"
        if key not in schema:
            raise ConfigError(f"unknown key: {path}")
        typ = schema[key][0]
        value = _check_type(path, value, typ)
        if key in ("tolerance", "mass", "second_mass", "window",
                   "window_width", "lattice_step") and value <= 0:
            raise ConfigError(f"{path}: must be positive")
        if key == "lattice_step" and 2 * CHECK_BUMP_RADIUS / value > MAX_BUMP_SIDE:
            raise ConfigError(f"{path}: a bump of radius {CHECK_BUMP_RADIUS} "
                              f"would take more than {MAX_BUMP_SIDE} lattice "
                              f"samples per side")
        if key == "n_points" and (value < 8 or value & (value - 1)):
            raise ConfigError(f"{path}: must be a power of two >= 8")
        if key == "theta_max" and value < 4.0:
            raise ConfigError(f"{path}: must be >= 4")
        if key == "max_dim" and value < 2:
            raise ConfigError(f"{path}: must be >= 2, the smallest "
                              f"dimension the suite samples")
        if key in ("n_samples", "cutoff") and value < 1:
            raise ConfigError(f"{path}: must be >= 1")
        if key == "fiber_theta" and not 0.0 < value < math.pi / 2:
            raise ConfigError(f"{path}: must lie in (0, pi/2)")
        if key == "flow_times" and not (value and all(
                isinstance(t, (int, float)) and not isinstance(t, bool)
                and math.isfinite(t) for t in value)):
            raise ConfigError(f"{path}: expected a non-empty list of "
                              f"finite numbers")
        if key == "dictionary":
            if not value:
                raise ConfigError(f"{path}: dictionary must not be empty")
            for i, entry in enumerate(value):
                if not isinstance(entry, (list, tuple)) or len(entry) != 3:
                    raise ConfigError(
                        f"{path}[{i}]: expected [x0, x1, radius]")
                x0, x1, r = (_check_type(f"{path}[{i}]", x, float)
                             for x in entry)
                if r <= 0:
                    raise ConfigError(f"{path}[{i}]: radius must be positive")
                # the edges x1 = |x0| of W_R lie (x1 - |x0|) / sqrt(2) away
                if not x1 - abs(x0) > math.sqrt(2.0) * r:
                    raise ConfigError(f"{path}[{i}]: the disk must lie inside "
                                      f"the right wedge, x1 - |x0| > sqrt(2) r")
        if key == "weyl_cutoffs":
            if not value or not all(isinstance(n, int) and not isinstance(n, bool)
                                    and n >= 0 for n in value):
                raise ConfigError(
                    f"{path}: expected a non-empty list of cutoffs >= 0")
            if max(value) < WEYL_PROBE_LEVEL:
                raise ConfigError(
                    f"{path}: the largest cutoff must be >= {WEYL_PROBE_LEVEL}, "
                    f"the highest Fock level the CCR check compares")
        out[key] = value


@dataclass
class ExperimentConfig:
    kind: str = "all"
    seed: int = 7
    out_dir: str = "results"
    subspace: dict = field(default_factory=dict)
    fock: dict = field(default_factory=dict)
    freefield: dict = field(default_factory=dict)
    modloc: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"kind: must be one of {KINDS}, got {self.kind!r}")
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        for section in ("subspace", "fock", "freefield", "modloc"):
            merged = {k: v for k, (_, v, _) in SCHEMA[section].items()}
            given = getattr(self, section)
            checked = {}
            _check_section(section, given, checked)
            merged.update(checked)
            setattr(self, section, merged)
        ff = self.freefield
        if ff["window"] >= ff["theta_max"]:
            raise ConfigError("freefield.window: must be below "
                              "freefield.theta_max, inside the grid")
        try:
            p_max = ff["mass"] * math.cosh(ff["theta_max"])
        except OverflowError:
            p_max = math.inf
        if not math.isfinite(p_max):
            raise ConfigError("freefield.theta_max: the largest momentum "
                              "mass * cosh(theta_max) must be finite")
        for i, (_, _, r) in enumerate(self.modloc["dictionary"]):
            if 2 * r / ff["lattice_step"] > MAX_BUMP_SIDE:
                raise ConfigError(
                    f"modloc.dictionary[{i}]: a bump of radius {r} would "
                    f"take more than {MAX_BUMP_SIDE} samples per side of "
                    f"the lattice of step freefield.lattice_step")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        top = {}
        sections = {}
        for key, value in data.items():
            if key in ("subspace", "fock", "freefield", "modloc"):
                if not isinstance(value, dict):
                    raise ConfigError(f"{key}: expected a section object")
                sections[key] = value
            elif key in SCHEMA[""]:
                top[key] = _check_type(key, value, SCHEMA[""][key][0])
            else:
                raise ConfigError(f"unknown key: {key}")
        return cls(**top, **sections)

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "seed": self.seed, "out_dir": self.out_dir,
                "subspace": dict(self.subspace), "fock": dict(self.fock),
                "freefield": dict(self.freefield), "modloc": dict(self.modloc)}


def schema_text() -> str:
    lines = ["Configuration file: a single JSON object.", ""]
    for section, keys in SCHEMA.items():
        header = section if section else "(top level)"
        lines.append(f"[{header}]")
        for key, (typ, default, help_) in keys.items():
            lines.append(f"  {key} ({typ.__name__}, default {default!r}): {help_}")
        lines.append("")
    lines.append("Unknown keys are rejected.")
    return "\n".join(lines)
