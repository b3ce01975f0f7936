"""Experiment configuration: a JSON file with nested sections.

A config holds only what a run varies: the kind, seed and output
directory; subspace.n_samples, and subspace.tolerance, the one bound a
config sets, so that a run can force a failing record; freefield.mass;
and the grid size, window, window width and lattice step that refine's
rungs set.  The free-field discretization is stated here alone: the
rapidity half-width THETA_MAX and REFINEMENT_RUNGS, whose rung 3 is the
default of the config, of freefield's model and of its bumps.  The
checks' other inputs are constants in checks.py, beside the acceptance
bounds.  Unknown keys are errors, and a config round-trips losslessly,
so a report's config echo fully reproduces the run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

__all__ = ["ConfigError", "ExperimentConfig", "REFINEMENT_RUNGS", "SCHEMA",
           "THETA_MAX", "schema_text"]


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries the field path."""


KINDS = ("subspace", "fock", "freefield", "modloc", "all")
THETA_MAX = 6.0             # rapidity half-width of every grid of the checks
# refine's rungs, keyed by the freefield names; rung 3 is the default
REFINEMENT_RUNGS = {
    1: dict(n_points=2048, lattice_step=1.0 / 128, window=5.2, window_width=1.4),
    2: dict(n_points=4096, lattice_step=1.0 / 128, window=5.5, window_width=1.3),
    3: dict(n_points=4096, lattice_step=1.0 / 128, window=5.8, window_width=1.2),
}
DEFAULT_RUNG = REFINEMENT_RUNGS[3]
# a bump of radius r takes about 2 r / lattice_step samples per side of its
# lattice; the defaults take about 157
MAX_BUMP_SIDE = 1024
CHECK_BUMP_RADIUS = 0.6     # the largest bump checks.py places, a net disk
# every point lies within lattice_step / sqrt(2) of the lattice, so below
# this step each bump of checks.py (radius >= 0.4, >= 0.5 exp(-0.2) boosted)
# has a lattice sample inside
MAX_LATTICE_STEP = math.sqrt(2.0) * 0.4
# lattice |x| that the checks reach: 4 (freefield bumps within 4, modloc
# moves under 2) beyond the farthest net dictionary disk, |x0| + |x1| + r =
# 4.7, and one phase chunk of 32 rows at the largest step
CHECK_REACH = 8.7 + 32 * MAX_LATTICE_STEP

# section -> key -> (type, default, description)
SCHEMA = {
    "": {
        "kind": (str, "all", "suite to run: subspace | fock | freefield | modloc | all"),
        "seed": (int, 7, "random seed recorded in every report (>= 0)"),
        "out_dir": (str, "results", "output directory for reports and CSV data"),
    },
    "subspace": {
        "n_samples": (int, 200, "number of seeded random standard subspaces (>= 1)"),
        "tolerance": (float, 1e-9, "residual bound of the standard-subspace "
                      "records (> 0); the one settable bound, so a run can "
                      "force a failing record"),
    },
    "freefield": {
        "mass": (float, 1.0, "field mass (> 0, with every phase x * mass * "
                 f"cosh({THETA_MAX}) of the lattice the checks place finite)"),
        "n_points": (int, DEFAULT_RUNG["n_points"],
                     "rapidity grid size (power of two, >= 8)"),
        "window": (float, DEFAULT_RUNG["window"],
                   f"embedding window position (> 0, < {THETA_MAX}, the "
                   f"grid's rapidity half-width); accepted below "
                   f"{DEFAULT_RUNG['window']}, but with the other defaults "
                   "every window tried there fails a check (5.7: "
                   "modloc.doublecone; 5.5: freefield.bw_right_wedge "
                   "5.2e-3, modloc.duality 0.98)"),
        "window_width": (float, DEFAULT_RUNG["window_width"],
                         "embedding window taper width (> 0)"),
        "lattice_step": (float, DEFAULT_RUNG["lattice_step"],
                         f"spacetime lattice step for bumps (> 0, at most "
                         f"{MAX_BUMP_SIDE} samples across a bump of radius "
                         f"{CHECK_BUMP_RADIUS}, and below {MAX_LATTICE_STEP:.4f}"
                         ", so that each bump of radius 0.4 holds a sample)"),
    },
}
SECTIONS = [section for section in SCHEMA if section]


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
        if key in ("tolerance", "mass", "window", "window_width",
                   "lattice_step") and value <= 0:
            raise ConfigError(f"{path}: must be positive")
        if key == "mass" and math.isinf(value * math.cosh(THETA_MAX) * CHECK_REACH):
            raise ConfigError(f"{path}: the phase x * mass * cosh({THETA_MAX}) "
                              f"at lattice |x| {CHECK_REACH:.3g} overflows")
        if key == "window" and value >= THETA_MAX:
            raise ConfigError(f"{path}: must be below {THETA_MAX}, inside the grid")
        if key == "lattice_step" and 2 * CHECK_BUMP_RADIUS / value > MAX_BUMP_SIDE:
            raise ConfigError(f"{path}: a bump of radius {CHECK_BUMP_RADIUS} "
                              f"would take more than {MAX_BUMP_SIDE} lattice "
                              f"samples per side")
        if key == "lattice_step" and value >= MAX_LATTICE_STEP:
            raise ConfigError(f"{path}: must be below {MAX_LATTICE_STEP:.4f}, "
                              "or a bump of radius 0.4 may hold no sample")
        if key == "n_points" and (value < 8 or value & (value - 1)):
            raise ConfigError(f"{path}: must be a power of two >= 8")
        if key == "n_samples" and value < 1:
            raise ConfigError(f"{path}: must be >= 1")
        out[key] = value


@dataclass
class ExperimentConfig:
    kind: str = "all"
    seed: int = 7
    out_dir: str = "results"
    subspace: dict = field(default_factory=dict)
    freefield: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"kind: must be one of {KINDS}, got {self.kind!r}")
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        for section in SECTIONS:
            merged = {k: v for k, (_, v, _) in SCHEMA[section].items()}
            _check_section(section, getattr(self, section), merged)
            setattr(self, section, merged)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        top = {}
        sections = {}
        for key, value in data.items():
            if key in SECTIONS:
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
                "subspace": dict(self.subspace),
                "freefield": dict(self.freefield)}


def schema_text() -> str:
    lines = ["Configuration file: a single JSON object.", ""]
    for section, keys in SCHEMA.items():
        header = section if section else "(top level)"
        lines.append(f"[{header}]")
        for key, (typ, default, help_) in keys.items():
            lines.append(f"  {key} ({typ.__name__}, default {default!r}): {help_}")
        lines.append("")
    lines.append("Unknown keys are rejected.  The checks' other inputs and "
                 "their acceptance bounds are constants in modlab/checks.py.")
    return "\n".join(lines)
