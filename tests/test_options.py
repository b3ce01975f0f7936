"""Every defaulted parameter of modlab is set by some call in src/.

An option that no call of the program sets has one value in use, so it
is replaced by that constant.  Tests and demos do not count as callers:
a knob that only a test turns is a configuration the program never runs.
This test keeps such options from coming back.  It parses every def in
src/modlab, at module level and in classes, and every call in src/, and
fails when a defaulted parameter is passed, by position or keyword, by
no call of that name.  A call of a class counts as a call of its
__init__.  EXEMPT lists the parameters kept for another reason.

The matching is by name alone, so a call of any function of that name
counts.  It does not see forwarding either: a parameter that a caller
only hands on, as in f(x, tol=tol) inside a function whose own tol no
call sets, counts as set.

The same rule holds for the config: every SCHEMA key is set by a call
in src/, in the form X["<section>"].update(<key>=...), or listed in
CONFIG_EXEMPT with the reason it stays settable.  No call sets one
today: the grid that refine varies is not a config key but
config.REFINEMENT_RUNGS, which ExperimentConfig.on_rung reads, so each
of the six keys is exempt.
"""

import ast
from pathlib import Path

from modlab.config import SCHEMA

ROOT = Path(__file__).resolve().parents[1]

# "<key>(<name>)" -> why the parameter stays with no src/ caller setting it
EXEMPT = {
    "main(argv)": "lets tests drive the command line in-process; the "
                  "console script passes none and argparse reads sys.argv",
}


def _parse(d):
    for path in sorted((ROOT / d).rglob("*.py")):
        yield path, ast.parse(path.read_text(), str(path))


def _defaulted(fn, key, offset):
    """(key, call position or None, name) of each defaulted parameter;
    offset is 1 where a call does not pass the first parameter (self)."""
    a = fn.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    out = [(key, i - offset, p.arg) for i, p in enumerate(positional)
           if i >= first]
    out += [(key, None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults)
            if d is not None]
    return out


def defaulted_parameters():
    """Defaulted parameters of the module- and class-level defs in
    src/modlab; an __init__ is keyed by its class name."""
    params = []
    for path, tree in _parse("src/modlab"):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                params += _defaulted(node, node.name, 0)
            elif isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        continue
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in fn.decorator_list)
                    key = node.name if fn.name == "__init__" else fn.name
                    params += _defaulted(fn, key, 0 if static else 1)
    return params


def calls():
    """name -> list of (positional count, keyword names) of every call
    in src/; a starred argument passes every position, a ** argument
    every name."""
    out = {}
    for path, tree in _parse("src"):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name is None:
                continue
            n = (float("inf") if any(isinstance(a, ast.Starred) for a in node.args)
                 else len(node.args))
            kws = {k.arg for k in node.keywords}
            out.setdefault(name, []).append((n, kws))
    return out


def test_every_defaulted_parameter_is_passed_by_some_call():
    params = defaulted_parameters()
    assert len(params) > 10, "the scan found too few parameters to be working"
    assert set(EXEMPT) <= {f"{key}({name})" for key, _, name in params}
    seen = calls()
    unused = [f"{key}({name})" for key, pos, name in params
              if f"{key}({name})" not in EXEMPT
              and not any(name in kws or None in kws
                          or (pos is not None and n > pos)
                          for n, kws in seen.get(key, []))]
    assert not unused, (f"{len(unused)} of {len(params)} defaulted parameters "
                        f"are passed by no call: {', '.join(unused)}")


# "<section>.<key>" (a top-level key alone) -> why the config key stays
# settable with no src/ call setting it
CONFIG_EXEMPT = {
    "kind": "a run setting: which suites run",
    "seed": "a run setting: the seed every check's generator starts from",
    "out_dir": "a run setting: where the reports are written",
    "subspace.n_samples": "set by perfbench/test_perfbench.py, to keep its "
                          "runs short",
    "subspace.tolerance": "set by perfbench/test_perfbench.py, so that a run "
                          "can force a failing record",
    "freefield.mass": "the one config route to a real numerical error "
                      "through the command line: at 0.2 refine's rung 1 "
                      "raises",
}


def config_settings():
    """<section>.<key> of every keyword of a call X["<section>"].update(...)
    in src/, the form in which the program sets a config value."""
    out = set()
    for path, tree in _parse("src"):
        for node in ast.walk(tree):
            f = node.func if isinstance(node, ast.Call) else None
            if (isinstance(f, ast.Attribute) and f.attr == "update"
                    and isinstance(f.value, ast.Subscript)
                    and isinstance(f.value.slice, ast.Constant)):
                out |= {f"{f.value.slice.value}.{k.arg}" for k in node.keywords}
    return out


def test_every_config_key_is_set_by_some_call():
    keys = {f"{section}.{key}" if section else key
            for section, fields in SCHEMA.items() for key in fields}
    assert set(CONFIG_EXEMPT) <= keys
    unset = sorted(keys - config_settings() - set(CONFIG_EXEMPT))
    assert not unset, (f"{len(unset)} config keys are set by no call in "
                       f"src/: {', '.join(unset)}")
