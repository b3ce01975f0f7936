"""Mutants of the physics that named records must fail.

Each row breaks one function or constant of modlab, by a small factor
or in one piece of its structure, patched at
every module that binds it (checks, fock and modloc import names from
other modules, so a patch of the defining module alone can miss a
caller), or one method, patched on its class.  It then runs the checks of the named kinds at seed 7 and
asserts that every named record is there and fails.  Bounds and
thresholds are those of the unpatched program, under which the same
records pass (tests/test_acceptance.py).  Run with -s to see by
how many decades each value crossed its threshold.
"""

import dataclasses
import math

import numpy as np
import pytest

from modlab import (checks, cli, config, fock, freefield, hilbert, modloc,
                    standard)
from modlab.checks import run_checks
from modlab.config import ExperimentConfig

MODULES = (checks, cli, config, fock, freefield, hilbert, modloc, standard)


def coherent_scaled(original):
    """e^h off by 1 percent in norm."""
    return lambda space, h: 1.01 * original(space, h)


def p0_off_shell(original):
    """p0 = 1.05 m cosh theta: momenta off the mass shell."""
    def mutant(mass, grid):
        p0, p1 = original(mass, grid)
        return 1.05 * p0, p1
    return mutant


def shift_scaled(original):
    """A boost of rapidity l that shifts by 1.02 l."""
    return lambda values, lam, omega: original(values, 1.02 * lam, omega)


def boost_reversed(original):
    """f o g^(-1) sampled with the boost of g reversed."""
    def mutant(self, g):
        return original(self, dataclasses.replace(g, rapidity=-g.rapidity))
    return mutant


def reflection_dropped(original):
    """u(g) without the conjugation by which the reflection acts."""
    return lambda g, v, model: original(dataclasses.replace(g, reflect=False),
                                        v, model)


def j_linear(original):
    """A modular conjugation that is complex-linear: j's matrix acting
    without the conjugation."""
    def mutant(K):
        md = original(K)
        return dataclasses.replace(md, j=hilbert.Operator(md.j.matrix))
    return mutant


def delta_inverted(original):
    """delta and delta^(-1) swapped: the log-spectrum negated, and delta
    rebuilt on the same frame."""
    def mutant(K):
        md = original(K)
        U, lg = md.frame, -md.log_delta
        delta = (U * np.exp(lg)[..., None, :]) @ U.conj().swapaxes(-1, -2)
        return dataclasses.replace(md, log_delta=lg,
                                   delta=hilbert.Operator(delta))
    return mutant


MUTANTS = [
    (fock, "coherent", coherent_scaled, ["fock"], ["fock.coherent_inner"]),
    (freefield, "_shift", shift_scaled, ["freefield", "modloc"],
     ["freefield.covariance_boost", "freefield.borchers_flow",
      "modloc.covariance"]),
    (freefield, "_momenta", p0_off_shell, ["freefield", "modloc"],
     ["freefield.covariance_boost", "modloc.covariance",
      "modloc.doublecone"]),
    # the left wedge fixed: every right-wedge probe fails the domain
    # certificate, so the BW check and all three modloc checks raise, and
    # each gives one error record
    (freefield, "RIGHT_WEDGE_DIRECTION", +1, ["freefield", "modloc"],
     ["freefield.bisognano_wichmann", "modloc.net", "modloc.doublecone",
      "modloc.direct_sum"]),
    (freefield.TestFunction2, "transform", boost_reversed,
     ["freefield", "modloc"],
     ["freefield.covariance_boost", "modloc.covariance"]),
    # the reflected dictionary embeds unconjugated, outside the left
    # wedges, so check_net raises and gives its one error record
    (freefield, "poincare_act", reflection_dropped, ["freefield", "modloc"],
     ["modloc.net", "modloc.doublecone"]),
    (standard, "modular_data", j_linear, ["subspace", "fock"],
     ["subspace.conjugation", "subspace.fixed", "subspace.fiber_reassembly",
      "fock.weyl_conjugation"]),
    (standard, "modular_data", delta_inverted, ["subspace"],
     ["subspace.fiber_angles"]),
]


def _row_id(row):
    """module.function, with the mutant's name where rows share it."""
    module, name, mutate = row[:3]
    rid = f"{module.__name__}.{name}"
    shared = sum(r[0] is module and r[1] == name for r in MUTANTS) > 1
    return f"{rid}-{mutate.__name__}" if shared else rid


def _patch_every_binding(monkeypatch, module, name, mutate):
    """mutate is a function of the original, or else the mutant value.
    A class (in place of a module) is the one binding of its method."""
    original = getattr(module, name)
    mutant = mutate(original) if callable(mutate) else mutate
    bound = [module] if isinstance(module, type) else [
        m for m in MODULES if getattr(m, name, None) is original]
    for m in bound:
        monkeypatch.setattr(m, name, mutant)
    return bound


def _decades(rec):
    """How far past its threshold a failed value lies, in decades."""
    ratio = rec["value"] / rec["threshold"]
    if rec["direction"] == "above":
        ratio = 1.0 / ratio if ratio else math.inf
    return math.log10(ratio) if ratio > 0 else -math.inf


@pytest.fixture
def fresh_embed_caches():
    """Phase chunks and embeddings cached before a mutant would hide it,
    and those cached under it would outlive the test."""
    freefield._phase_chunk.cache_clear()
    freefield._EMBEDDINGS.clear()
    yield
    freefield._phase_chunk.cache_clear()
    freefield._EMBEDDINGS.clear()


@pytest.mark.parametrize("module, name, mutate, kinds, must_fail", MUTANTS,
                         ids=[_row_id(row) for row in MUTANTS])
def test_mutant_fails_its_records(monkeypatch, fresh_embed_caches, module,
                                  name, mutate, kinds, must_fail):
    assert _patch_every_binding(monkeypatch, module, name, mutate)
    records = {}
    for kind in kinds:
        recs, _ = run_checks(ExperimentConfig.from_dict(
            {"kind": kind, "seed": 7}))
        records.update((r["name"], r) for r in recs)
    for rec_name in must_fail:
        assert rec_name in records, f"{rec_name}: missing"
        rec = records[rec_name]
        print(f"{module.__name__}.{name}: {rec_name} {rec['value']:.3e} "
              f"against {rec['threshold']:.0e}, "
              f"{_decades(rec):+.2f} decades")
        assert not rec["passed"], f"{rec_name} passed under the mutant"

