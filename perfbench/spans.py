"""Span tracer for the benchmark's traced run.

The tracer wraps modlab's public functions from outside, at every name
that binds them: module globals (``modloc`` imports ``embed`` by name),
class attributes (``complex_structure`` is a method) and the check
registry ``checks.CHECKS``.  Each call records a span (id, name, start,
end, parent, trace) in memory; a call with no traced caller starts a new
trace, so every check call has its own trace id.  A few functions also
record counts taken from their arguments or results.

Run as a script, it traces one modlab CLI invocation and writes the spans
as JSON at the end:

    PYTHONPATH=src python3 perfbench/spans.py spans.json run --config cfg.json
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import sys
import time

SPECTRAL = ("wedge_modular_half", "domain_certificate", "band_project",
            "compressed_fixed_defect", "bw_residual_of_vector")
SUBSPACE_OPS = ("symplectic_complement", "subspace_sum",
                "subspace_intersection", "subspace_distance",
                "inclusion_residual", "principal_angles")

# metric group -> traced functions, each named "<module>.<qualified name>"
GROUPS = {
    "freefield.embed": ["freefield.embed"],
    "freefield.poincare_act": ["freefield.poincare_act"],
    "freefield.spectral": [f"freefield.{n}" for n in SPECTRAL],
    "hilbert.complex_structure": ["hilbert.ComplexVectorSpace.complex_structure"],
    "hilbert.orthonormalize_columns": ["hilbert.orthonormalize_columns"],
    "hilbert.subspace_ops": [f"hilbert.{n}" for n in SUBSPACE_OPS],
    **{f"standard.{n}": [f"standard.{n}"] for n in (
        "tomita_operator", "modular_data", "fiberize",
        "random_standard_subspace")},
    **{f"fock.{n}": [f"fock.{n}"] for n in (
        "gamma", "weyl_matrix", "sym_project", "sym_power_expand",
        "coherent")},
    **{f"modloc.{n}": [f"modloc.{n}"] for n in (
        "embed_probe", "localized_subspace", "net_checks",
        "doublecone_space")},
    "modloc.populate_wedge": ["modloc.LocalizedNet.populate_wedge"],
    "modloc.act_on_subspace": ["modloc.LocalizedNet.act_on_subspace"],
}

CHECK_NAMES = (
    "check_standard_suite", "check_fiberization", "check_symmetrization",
    "check_coherent_calculus", "check_weyl", "check_second_quantized",
    "check_locality", "check_covariance", "check_bisognano_wichmann",
    "check_borchers", "check_net", "check_doublecone", "check_direct_sum")

MB = 2.0 ** 20


def _embed_counts(a, out):
    f, model = a["f"], a["model"]
    h = hashlib.blake2b(digest_size=16)
    for arr in (f.values, f.x0, f.x1):
        h.update(arr.tobytes())
    h.update(repr((f.step, model)).encode())
    # the two exp(i p.x) tables embed builds: complex128, lattice x grid
    phase = (len(f.x0) + len(f.x1)) * model.grid.n_points * 16
    return {"key": h.hexdigest(), "phase_bytes": phase}


def _complex_structure_counts(a, out):
    return {"alloc_bytes": (2 * a["self"].dim) ** 2 * 8}


def _extraction_counts(a, out):
    report = out[1]
    probes = len(a["probes"])
    return {"probes": probes, "kept": probes - report.discarded_probes,
            "fallback": bool(report.fallback_used)}


COUNTS = {
    "freefield.embed": _embed_counts,
    "hilbert.ComplexVectorSpace.complex_structure": _complex_structure_counts,
    "modloc.localized_subspace": _extraction_counts,
}


class Tracer:
    """Records spans of wrapped calls; spans stay in memory until read."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []
        self._traces = 0
        self._restore = []

    def wrap(self, name, fn, counts=None):
        """Return fn wrapped so that each call records a span."""
        sig = inspect.signature(fn) if counts else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            if parent is None:
                self._traces += 1
            span = {"id": len(self.spans), "name": name,
                    "parent": parent["id"] if parent else None,
                    "trace": parent["trace"] if parent else self._traces}
            self.spans.append(span)
            self._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counts:
                span.update(counts(sig.bind(*args, **kwargs).arguments, out))
            return out

        return traced

    def install(self):
        """Wrap every traced function at every name that binds it."""
        import modlab.cli  # noqa: F401  (imports every layer)
        checks = sys.modules["modlab.checks"]
        targets = [n for names in GROUPS.values() for n in names]
        targets += [f"checks.{n}" for n in CHECK_NAMES]
        wrapped = {}
        for name in targets:
            module, *path = name.split(".")
            owner = sys.modules[f"modlab.{module}"]
            for part in path[:-1]:
                owner = getattr(owner, part)
            fn = vars(owner).get(path[-1])
            if fn is None:
                self.missing.append(name)
                continue
            wrapped[id(fn)] = (fn, self.wrap(name, fn, COUNTS.get(name)))
        owners = [m for n, m in sys.modules.items()
                  if n == "modlab" or n.startswith("modlab.")]
        owners += [c for m in owners[:] for c in vars(m).values()
                   if isinstance(c, type) and c.__module__ == m.__name__]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                fn, wrapper = wrapped.get(id(value), (None, None))
                if fn is value:
                    setattr(owner, attr, wrapper)
                    self._restore.append((owner, attr, fn))
        for fns in checks.CHECKS.values():
            for i, value in enumerate(fns):
                fn, wrapper = wrapped.get(id(value), (None, None))
                if fn is value:
                    fns[i] = wrapper
                    self._restore.append((fns, i, fn))
        return self

    def uninstall(self):
        for owner, key, fn in reversed(self._restore):
            if isinstance(owner, list):
                owner[key] = fn
            else:
                setattr(owner, key, fn)
        self._restore.clear()


def self_times(spans):
    """Span duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


def layer_metrics(spans):
    """Per-layer metrics (name -> (value, unit)) from one run's spans."""
    selfs = self_times(spans)
    by_name = {}
    for s, st in zip(spans, selfs):
        by_name.setdefault(s["name"], []).append((s, st))
    out = {}
    for group, names in GROUPS.items():
        rows = [r for n in names for r in by_name.get(n, [])]
        out[f"{group}.calls"] = (len(rows), "count")
        out[f"{group}.self_s"] = (sum(st for _, st in rows), "s")
    embeds = [s for s, _ in by_name.get("freefield.embed", [])]
    out["freefield.embed.distinct_ratio"] = (
        len({s["key"] for s in embeds}) / len(embeds) if embeds else 0.0,
        "ratio")
    out["freefield.embed.phase_mb"] = (
        sum(s["phase_bytes"] for s in embeds) / MB, "MB_computed")
    allocs = [s["alloc_bytes"] / MB for s, _ in
              by_name.get("hilbert.ComplexVectorSpace.complex_structure", [])]
    out["hilbert.complex_structure.alloc_mb_sum"] = (sum(allocs), "MB_computed")
    out["hilbert.complex_structure.alloc_mb_max"] = (max(allocs, default=0.0),
                                                     "MB_computed")
    ext = [s for s, _ in by_name.get("modloc.localized_subspace", [])]
    probes = sum(s["probes"] for s in ext)
    out["modloc.localized_subspace.kept_probe_ratio"] = (
        sum(s["kept"] for s in ext) / probes if probes else 0.0, "ratio")
    out["modloc.localized_subspace.fallback_count"] = (
        sum(s["fallback"] for s in ext), "count")
    for n in CHECK_NAMES:
        out[f"checks.{n}.s"] = (sum(s["end"] - s["start"] for s, _ in
                                    by_name.get(f"checks.{n}", [])), "s")
    out["trace.spans"] = (len(spans), "count")
    return out


def main(argv):
    out_path, *cli_args = argv
    tracer = Tracer().install()
    import modlab.cli
    try:
        code = modlab.cli.main(cli_args)
    finally:
        with open(out_path, "w") as fh:
            json.dump({"spans": tracer.spans, "missing": tracer.missing}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
