"""Every function the benchmark's tracer wraps is found in modlab.

perfbench/spans.py wraps modlab's functions by name.  A name it cannot
find is only reported as "not in modlab, so not traced", and the metrics
of its layer read 0, so a rename would quietly zero them.  The tracer is
loaded from its file without running it.
"""

import importlib
import importlib.util
import os

import modlab.cli  # noqa: F401  (imports every layer, as the tracer does)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# gone from freefield; the tracer drops them in the next change to the
# benchmark (ROADMAP item 1)
STALE = {"freefield.band_project", "freefield.wedge_modular_half"}


def _spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", os.path.join(ROOT, "perfbench", "spans.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _spans()


def resolves(name):
    """Whether the tracer's lookup of "<module>.<qualified name>" finds
    a function: attributes down the path, then the owner's own dict."""
    module, *path = name.split(".")
    owner = importlib.import_module(f"modlab.{module}")
    for part in path[:-1]:
        owner = getattr(owner, part, None)
    return owner is not None and vars(owner).get(path[-1]) is not None


def test_every_traced_name_resolves_in_modlab():
    names = [n for group in SPANS.GROUPS.values() for n in group]
    names += [f"checks.{n}" for n in SPANS.CHECK_NAMES]
    assert len(names) == len(set(names)) > 30
    missing = {n for n in names if not resolves(n)}
    assert missing <= STALE, sorted(missing - STALE)


def test_the_lookup_sees_a_missing_name():
    assert resolves("modloc.LocalizedNet.populate_wedge")
    assert not resolves("modloc.LocalizedNet.wedge_frame")
    assert not resolves("modloc.wedge_frame")
    assert not resolves("freefield.band_project")
