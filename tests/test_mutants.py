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


def field_unscaled(original):
    """phi(h) = a(h) + a*(h), without its 1/sqrt(2)."""
    return lambda space, h: hilbert.Operator(
        math.sqrt(2.0) * original(space, h).matrix)


def sqrt_factorial_dropped(original):
    """The level-n block of h^(x n) without its sqrt(n!)."""
    return lambda space, h, n: (original(space, h, n)
                                / math.sqrt(math.factorial(n)))


def weyl_phase_flipped(original):
    """W(h) e^((i/sqrt2)k) with the phase exp(+(i/2) Im<h,k>)."""
    return lambda space, h, k: original(space, h, k) * np.exp(
        1j * np.vdot(h, k).imag)


def translation_mirrored(original):
    """u(g) with the spatial translation a1 negated."""
    return lambda g, v, model: original(dataclasses.replace(g, a1=-g.a1),
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


def s_scaled(original):
    """s off the unit circle by 1 percent: s^2 = 1.0201, not an involution."""
    def mutant(K):
        md = original(K)
        return dataclasses.replace(md, s=hilbert.Operator(1.01 * md.s.matrix,
                                                          antilinear=True))
    return mutant


def flow_imaginary(original):
    """delta^t in place of delta^(it): the flow at imaginary time."""
    return lambda md, t: original(md, -1j * t)


def complement_orthogonal(original):
    """K' taken as the real-orthogonal complement of K, not of iK."""
    return lambda K: original(K.mult_i())


def log_multiplier_scaled(original):
    """delta^(1/2) with its log-multiplier 2 percent too large."""
    return lambda grid: 1.02 * original(grid)


def one_particle_transposed(original):
    """gamma(a) built from the transpose of a's matrix, antilinear
    where a is."""
    def mutant(space, a):
        a = a if isinstance(a, hilbert.Operator) else hilbert.Operator(a)
        return original(space, hilbert.Operator(a.matrix.T, a.antilinear))
    return mutant


def levels_reversed(original):
    """The basis with each level's states in reverse order, every table
    permuted with it, so the tables still agree with one another."""
    def mutant(d, cutoff):
        words, occ, up, sqrt_fact, level_slices, index = original(d, cutoff)
        # new state k is old state perm[k]; perm is its own inverse
        perm = np.concatenate([np.arange(sl.start, sl.stop)[::-1]
                               for sl in level_slices])
        return (tuple(w[::-1] for w in words), occ[perm],
                np.where(up[perm] >= 0, perm[up[perm]], -1), sqrt_fact[perm],
                level_slices, {a: int(perm[i]) for a, i in index.items()})
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
    # J becomes the identity in borchers_check; the reflected dictionary
    # embeds unconjugated, outside the left wedges, so check_net raises
    # and gives its one error record
    (freefield, "poincare_act", reflection_dropped, ["freefield", "modloc"],
     ["freefield.borchers_reflection", "modloc.net", "modloc.doublecone"]),
    # the translated dictionary leaves its wedges, and check_doublecone
    # raises and gives its one error record
    (freefield, "poincare_act", translation_mirrored,
     ["freefield", "modloc"],
     ["freefield.covariance_translation", "modloc.isotony", "modloc.duality",
      "modloc.covariance", "modloc.doublecone"]),
    (fock, "field_operator", field_unscaled, ["fock"],
     ["fock.weyl_agreement", "fock.ccr_phase",
      "fock.weyl_truncation_monotone"]),
    (fock, "gamma", one_particle_transposed, ["fock"],
     ["fock.gamma_on_coherent", "fock.conjugation_on_coherent"]),
    (fock, "tensor_power_level", sqrt_factorial_dropped, ["fock"],
     ["fock.symmetrization"]),
    # gamma builds each level from the one below, parent first, in the
    # order of the basis; both symmetrizations read the same tables, so
    # fock.symmetrization still passes
    (fock, "_ladder_tables", levels_reversed, ["fock"],
     ["fock.gamma_on_coherent", "fock.conjugation_on_coherent",
      "fock.weyl_conjugation", "fock.weyl_flow_covariance"]),
    (fock, "weyl_on_coherent", weyl_phase_flipped, ["fock"],
     ["fock.weyl_agreement", "fock.weyl_truncation_monotone"]),
    (standard, "modular_data", j_linear, ["subspace", "fock"],
     ["subspace.conjugation", "subspace.fixed", "subspace.fiber_reassembly",
      "fock.weyl_conjugation"]),
    (standard, "modular_data", delta_inverted, ["subspace"],
     ["subspace.fiber_angles"]),
    (standard, "modular_data", s_scaled, ["subspace"],
     ["subspace.involution"]),
    (standard, "modular_flow", flow_imaginary, ["subspace", "fock"],
     ["subspace.flow", "fock.weyl_flow_covariance"]),
    (hilbert, "symplectic_complement", complement_orthogonal,
     ["subspace", "fock"],
     ["subspace.adjoint", "fock.ccr_phase_across_complement"]),
    # the first bisognano_wichmann row that fails on a measured value
    # rather than by raising
    (freefield, "_log_multiplier", log_multiplier_scaled, ["freefield"],
     ["freefield.bw_right_wedge"]),
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
def fresh_caches():
    """Phase chunks and embeddings cached before a mutant would hide it,
    and those cached under it would outlive the test.  The Fock ladder
    tables are cleared too: a mutant that reads them gets them built
    afresh, and none that it saw outlives the test."""
    caches = (freefield._phase_chunk, freefield.embed, fock._ladder_tables)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


@pytest.mark.parametrize("module, name, mutate, kinds, must_fail", MUTANTS,
                         ids=[_row_id(row) for row in MUTANTS])
def test_mutant_fails_its_records(monkeypatch, fresh_caches, module,
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

