"""Named verification checks behind the experiment runner.

RECORDS declares every record once: the check that measures it, the
mathematical claim it verifies, its threshold and direction.  Each check
returns its measured values by record name, and the runner builds the
records from the table.  Checks are deterministic given (config, seed).
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import NamedTuple

import numpy as np

from . import fock as fk
from . import freefield as ff
from . import modloc as ml
from .config import THETA_MAX, ExperimentConfig
from .hilbert import (
    RealSubspace, fixed_space, operator_norm,
    principal_angles, subspace_distance, subspace_intersection, subspace_sum,
    symplectic_complement,
)
from .standard import (
    delta_fixed_space, draw_standard_subspace, fiber_standard_subspace,
    fiberize, modular_data, modular_flow, random_standard_subspace,
    reassemble_modular, rotated_standard_subspace, tomita_operator,
)

__all__ = ["CHECKS", "RECORDS", "declared", "run_checks", "run_refinement",
           "list_checks", "REFINEMENT_SENSITIVE"]

# inputs a test reads, and the second summand's mass; every other input
# is a literal at its use, and THETA_MAX is in config, whose bounds read it
MAX_DIM = 8                     # largest complex dimension sampled
FLOW_TIMES = (0.3, 1.7)         # modular flow times checked
FOCK_CUTOFF = 10                # Fock truncation of the modular checks
FIBER_THETA = math.pi / 3       # angle of the fiber model
SECOND_MASS = 1.4               # mass of check_direct_sum's second summand


class Declared(NamedTuple):
    """A record's row: the check that measures it (its function's name
    without "check_"), its claim, and the threshold its value must lie
    below or above; None is the config's subspace.tolerance."""
    check: str
    claim: str
    threshold: float | None
    direction: str = "below"

    def bound(self, config) -> float:
        return (config.subspace["tolerance"] if self.threshold is None
                else self.threshold)


RECORDS = {
    "subspace.involution": Declared(
        "standard_suite", "the Tomita operator squares to the identity", None),
    "subspace.adjoint": Declared(
        "standard_suite", "the complement's Tomita operator is the adjoint",
        None),
    "subspace.conjugation": Declared(
        "standard_suite", "the modular conjugation maps K onto K'", None),
    "subspace.flow": Declared(
        "standard_suite", "the modular flow preserves K", None),
    "subspace.fixed": Declared(
        "standard_suite", "K cap K' is the joint fixed space of j and delta",
        None),
    "subspace.fiber_angles": Declared(
        "fiberization",
        "fiber angles equal the principal angles between K and iK", 1e-9),
    "subspace.fiber_reassembly": Declared(
        "fiberization",
        "(j, delta) reassemble from the angle blocks and fixed part", 1e-9),
    "fock.symmetrization": Declared(
        "symmetrization", "permutation-average symmetrization equals the "
        "tensor-power expansion", 1e-12),
    "fock.coherent_inner": Declared(
        "coherent_calculus",
        "<e^h, e^k> equals the truncated exponential series", 1e-12),
    "fock.gamma_on_coherent": Declared(
        "coherent_calculus", "second quantization acts on coherent vectors "
        "by gamma(a) e^h = e^(ah)", 1e-10),
    "fock.weyl_agreement": Declared(
        "weyl", "closed-form Weyl action matches the matrix exponential on "
        "coherent vectors", 1e-6),
    "fock.ccr_phase": Declared(
        "weyl", "W(h) W(k) = exp(-i Im<h,k>/2) W(h+k)", 1e-6),
    "fock.weyl_truncation_monotone": Declared(
        "weyl", "Weyl truncation defects decrease with the cutoff", 0.5,
        "above"),
    "fock.conjugation_on_coherent": Declared(
        "second_quantized", "gamma(s) e^(ik) = e^(-ik) for k in K", 1e-7),
    "fock.weyl_conjugation": Declared(
        "second_quantized", "J W(k) J = W(jk)*", 1e-7),
    "fock.weyl_flow_covariance": Declared(
        "second_quantized", "Delta^it W(k) Delta^-it = W(delta^it k)", 1e-7),
    "fock.ccr_phase_across_complement": Declared(
        "second_quantized",
        "the Weyl commutation phase is trivial across K and K'", 1e-7),
    "freefield.locality_spacelike": Declared(
        "locality", "Im<Ef, Eg> vanishes for spacelike-separated supports",
        1e-6),
    "freefield.locality_timelike": Declared(
        "locality", "Im<Ef, Eg> stays away from zero for a timelike pair",
        1e-3, "above"),
    "freefield.covariance_translation": Declared(
        "covariance", "E(f o g^-1) = u(g) E f for translations", 1e-6),
    "freefield.covariance_boost": Declared(
        "covariance", "E(f o g^-1) = u(g) E f for boosts", 1e-4),
    "freefield.bw_right_wedge": Declared(
        "bisognano_wichmann", "right-wedge embeddings are fixed by "
        "conjugation after the half boost", 1e-3),
    "freefield.bw_left_wedge_certificate": Declared(
        "bisognano_wichmann",
        "left-wedge embeddings fail the wedge domain certificate", 1e-3,
        "above"),
    "freefield.bw_left_wedge_blowup": Declared(
        "bisognano_wichmann", "the capped half-boost image of a wrong-wedge "
        "vector blows up along the cap ladder", 1e3, "above"),
    "freefield.bw_right_wedge_stable": Declared(
        "bisognano_wichmann", "the capped half-boost image of a right-wedge "
        "vector stays bounded along the cap ladder", 1e3),
    "freefield.borchers_flow": Declared(
        "borchers", "Delta^it U(a) Delta^-it = U(exp(-2 pi t) a) on the "
        "positive lightray", 1e-6),
    "freefield.borchers_reflection": Declared(
        "borchers", "J U(a) J = U(-a)", 1e-6),
    "modloc.isotony": Declared(
        "net", "nested wedges give nested localized models", 1e-3),
    "modloc.duality": Declared(
        "net", "the complement wedge model is the symplectic complement "
        "within the joint span", 1e-3),
    "modloc.covariance": Declared(
        "net", "u(g) K(W) = K(gW) over matched dictionaries", 1e-3),
    "modloc.doublecone": Declared(
        "doublecone", "cone-supported embeddings lie in the intersection of "
        "the generating wedge models", 1e-2),
    "modloc.direct_sum": Declared(
        "direct_sum", "the wedge model of a direct sum is the direct sum of "
        "the block models", 1e-10),
}


def declared(fn) -> list:
    """The names of the records the check function fn measures, in table
    order."""
    check = fn.__name__.removeprefix("check_")
    return [name for name, row in RECORDS.items() if row.check == check]


def record(name, claim, value, threshold, direction="below"):
    """A NaN value fails in either direction."""
    ok = value < threshold if direction == "below" else value > threshold
    return {"name": name, "claim": claim, "value": float(value),
            "threshold": float(threshold), "direction": direction,
            "passed": bool(ok)}


def worst(values) -> float:
    """The largest of values, and NaN if any is NaN (the builtin max drops
    a NaN that does not come first).  No values have shown nothing, so
    they give 1.0, above every residual bound a record sets."""
    return float(np.max(values)) if len(values) else 1.0


# -- subspace suite --------------------------------------------------------

def check_standard_suite(config, rng):
    """Samples are drawn in turn, then checked as one stack per d."""
    p = config.subspace
    draws = {}
    for _ in range(p["n_samples"]):
        d = int(rng.integers(2, MAX_DIM + 1))
        draws.setdefault(d, []).append(draw_standard_subspace(d, rng))
    found = {k: [] for k in ("involution", "adjoint", "conjugation", "flow", "fixed")}
    for d, stack in draws.items():
        K = rotated_standard_subspace(*map(np.stack, zip(*stack)))
        md = modular_data(K)
        s = md.s
        found["involution"].extend(operator_norm((s @ s).matrix - np.eye(d)))
        Kp = symplectic_complement(K)
        sp = tomita_operator(Kp)
        found["adjoint"].extend(operator_norm(sp.matrix - s.adjoint().matrix))
        jK = RealSubspace(md.j.apply(K.basis))
        found["conjugation"].extend(subspace_distance(jK, Kp))
        for t in FLOW_TIMES:
            FK = RealSubspace(modular_flow(md, t).apply(K.basis))
            found["flow"].extend(subspace_distance(FK, K))
        cap = subspace_intersection(K, Kp)
        fix = subspace_intersection(fixed_space(md.j), delta_fixed_space(md))
        found["fixed"].extend(subspace_distance(cap, fix))
    return {f"subspace.{k}": worst(v) for k, v in found.items()}


def check_fiberization(config, rng):
    angles, reassembly = [], []
    for d in range(2, MAX_DIM + 1):
        K = random_standard_subspace(d, rng)
        fibers = fiberize(K)
        md = fibers.md
        # each fiber angle twice, then pi/2 on the fixed part: ascending
        thetas = np.concatenate([np.repeat(fibers.theta, 2),
                                 np.full(fibers.fixed.dim, np.pi / 2)])
        oracle = principal_angles(K, K.mult_i())      # ascending
        angles.append(float(np.max(np.abs(thetas - oracle)))
                      if len(thetas) == len(oracle) else np.inf)
        jmat, dmat = reassemble_modular(fibers)
        reassembly += [
            float(operator_norm(jmat - md.j.matrix)),
            float(operator_norm(dmat - md.delta.matrix)
                  / max(1.0, math.sqrt(md.condition_number)))]
    return {"subspace.fiber_angles": worst(angles),
            "subspace.fiber_reassembly": worst(reassembly)}


# -- fock suite ------------------------------------------------------------

def check_symmetrization(config, rng):
    found = []
    for _ in range(100):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, 6))
        fs = fk.FockSpace(d, n)
        xs = [rng.standard_normal(d) + 1j * rng.standard_normal(d)
              for _ in range(n)]
        a = fk.sym_project(fs, xs)
        b = fk.sym_power_expand(fs, xs)
        found.append(np.linalg.norm(a - b) / max(1.0, np.linalg.norm(a)))
    return {"fock.symmetrization": worst(found)}


def check_coherent_calculus(config, rng):
    inner_devs, gamma_devs = [], []
    for d in (1, 2, 3):
        fs = fk.FockSpace(d, 10)
        for _ in range(5):
            h = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            k = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            h /= np.linalg.norm(h)
            k /= np.linalg.norm(k)
            lhs = np.vdot(fk.coherent(fs, h), fk.coherent(fs, k))
            inner_devs.append(abs(lhs - fk.coherent_inner(h, k, 10)))
            A = (rng.standard_normal((d, d))
                 + 1j * rng.standard_normal((d, d))) / 2.0
            diff = np.linalg.norm(fk.gamma(fs, A).apply(fk.coherent(fs, h))
                                  - fk.coherent(fs, A @ h))
            gamma_devs.append(diff)
    return {"fock.coherent_inner": worst(inner_devs),
            "fock.gamma_on_coherent": worst(gamma_devs)}


def check_weyl(config, rng):
    h = np.array([0.8 + 0.3j])
    k = np.array([0.5 - 0.2j])
    devs, defects = [], []
    cutoffs = (8, 12, 16)           # the last is the finest
    for N in cutoffs:
        fs = fk.FockSpace(1, N)
        lhs = fk.weyl_matrix(fs, h).apply(
            fk.coherent(fs, 1j / math.sqrt(2.0) * k))
        rhs = fk.weyl_on_coherent(fs, h, k)
        low = fs.level_slices[min(6, N)].stop
        devs.append(float(np.linalg.norm(lhs[:low] - rhs[:low])))
        defects.append(fk.weyl_unitarity_defect(1.0 + 0.0j, N, 8))
    fs = fk.FockSpace(1, cutoffs[-1])
    e1 = np.array([1.0 + 0.0j])
    ie1 = np.array([1.0j])
    Wh, Wk = fk.weyl_matrix(fs, e1), fk.weyl_matrix(fs, ie1)
    Whk = fk.weyl_matrix(fs, e1 + ie1)
    lhs = (Wh @ Wk).apply(fk.vacuum(fs))
    rhs = np.exp(-0.5j) * Whk.apply(fk.vacuum(fs))
    low = fs.level_slices[8].stop
    ccr = float(np.linalg.norm(lhs[:low] - rhs[:low]))
    monotone = all(a > b for a, b in zip(devs, devs[1:])) and \
        all(a > b for a, b in zip(defects, defects[1:]))
    return {"fock.weyl_agreement": devs[-1], "fock.ccr_phase": ccr,
            "fock.weyl_truncation_monotone": 1.0 if monotone else 0.0}


def check_second_quantized(config, rng):
    K = fiber_standard_subspace(2, [FIBER_THETA])
    rep = fk.second_quantized_modular_check(K, FOCK_CUTOFF, rng)
    return {f"fock.{k}": worst(v) for k, v in rep.items()}


# -- free field suite ------------------------------------------------------

def _model(config) -> ff.FreeFieldModel:
    p = config.freefield
    return ff.FreeFieldModel(p["mass"],
                             ff.RapidityGrid(THETA_MAX, p["n_points"]),
                             p["window"], p["window_width"])


def check_locality(config, rng):
    model = _model(config)
    step = config.freefield["lattice_step"]
    pairs = [((0.0, -2.0), 0.5, (0.0, 2.0), 0.5),
             ((0.3, -1.7), 0.4, (-0.2, 2.1), 0.45)]
    spacelike = []
    for c1, r1, c2, r2 in pairs:
        f = ff.TestFunction2.bump(c1, r1, step)
        g = ff.TestFunction2.bump(c2, r2, step)
        spacelike.append(abs(ff.locality_pairing(f, g, model)))
    f = ff.TestFunction2.bump((0.0, 0.0), 0.5, step)
    g = ff.TestFunction2.bump((1.5, 0.0), 0.5, step)
    timelike = abs(ff.locality_pairing(f, g, model))
    return {"freefield.locality_spacelike": worst(spacelike),
            "freefield.locality_timelike": timelike}


def check_covariance(config, rng):
    model = _model(config)
    f = ff.TestFunction2.bump((0.0, 2.5), 0.5,
                              config.freefield["lattice_step"])
    t_res = worst([
        ff.covariance_residual(f, ff.PoincareElement.translation(0.3, 0.0),
                               model),
        ff.covariance_residual(f, ff.PoincareElement.translation(0.1, 0.2),
                               model)])
    b_res = ff.covariance_residual(f, ff.PoincareElement.boost(0.2), model)
    return {"freefield.covariance_translation": t_res,
            "freefield.covariance_boost": b_res}


def check_bisognano_wichmann(config, rng):
    model = _model(config)
    step = config.freefield["lattice_step"]
    f = ff.TestFunction2.bump((0.0, 3.0), 0.5, step,
                              region=ff.Region2.right_wedge())
    Ef = ff.embed(f, model).values
    res = ff.bw_residual_of_vector(Ef, model.grid)
    g = ff.TestFunction2.bump((0.0, -3.0), 0.5, step,
                              region=ff.Region2.left_wedge())
    Eg = ff.embed(g, model).values
    cert = ff.domain_certificate(Eg, model.grid)
    blow = ff.modular_blowup_profile(Eg, model.grid)
    control = ff.modular_blowup_profile(Ef, model.grid)
    return {"freefield.bw_right_wedge": res,
            "freefield.bw_left_wedge_certificate": cert,
            "freefield.bw_left_wedge_blowup": blow[-1] / blow[0],
            "freefield.bw_right_wedge_stable": control[-1] / control[0]}


def check_borchers(config, rng):
    model = _model(config)
    probes = [ff.gaussian_packet(model.grid, width=0.65, momentum=0.3),
              ff.gaussian_packet(model.grid, center=0.3, width=0.7,
                                 momentum=-0.2)]
    flow, reflection = ff.borchers_check(0.5, (0.1, 0.25), probes, model)
    return {"freefield.borchers_flow": worst(flow),
            "freefield.borchers_reflection": worst(reflection)}


# -- modular localization suite ---------------------------------------------

def _build_net(config, elements):
    """Right and left wedges at the apexes (0, a), a in 0, 0.5, 1.  Each
    wedge takes the dictionaries moved into the wedges it includes, the
    inclusion isotony tests: those moved by (0, s), s >= a on the right,
    and reflected, s <= a on the left.

    The 24 dictionary functions and their 48 transports by the covariance
    elements are embedded first, in one sweep of the lattice rows
    (ff.embed_sweep), and populate_wedge and net_checks, whose transports equal
    these as values, find them in embed's memo.  The dictionary moved by
    (0, s), s = 0.5, 1, 1.5, embeds as phases times unmoved members.  Wedge
    by wedge and element by element, four passes would each go over the same
    rows, and the phase cache would have to hold a pass.  Its chunks live
    until the sweep ends, which empties the cache (and restarts its
    cache_info() counts), so the net's extractions run without them."""
    step = config.freefield["lattice_step"]
    base = [ff.TestFunction2.bump((c0, c1), r, step)
            for c0, c1, r in ((0.0, 3.0, 0.5), (0.4, 3.6, 0.55),
                              (-0.3, 2.8, 0.45), (0.1, 4.0, 0.6))]
    reflected = [f.transform(ff.PoincareElement.reflection()) for f in base]
    T = ff.PoincareElement.translation
    wedges = [{region((0.0, s)): [f.transform(T(0.0, s)) for f in fns]
               for s in (0.0, 0.5, 1.0)}
              for region, fns in ((ff.Region2.right_wedge, base),
                                  (ff.Region2.left_wedge, reflected))]
    model = _model(config)
    functions = [f for moved in wedges for fns in moved.values() for f in fns]
    ff.embed_sweep(functions + [f.transform(g) for f in functions
                                for g in elements], model)
    net = ml.LocalizedNet(ml.PoincareRep2([model]))
    for moved in wedges:
        for W in moved:
            net.populate_wedge(W, [f for V, fns in moved.items()
                                   if W.includes(V) for f in fns])
    return net


def check_net(config, rng):
    elements = [ff.PoincareElement.translation(0.0, 0.5),
                ff.PoincareElement.boost(0.1)]
    net = _build_net(config, elements)
    rep_checks = ml.net_checks(net, covariance_elements=elements)
    return {f"modloc.{cat}": worst([row["residual"] for row in rows])
            for cat, rows in rep_checks.items()}


def check_doublecone(config, rng):
    model = _model(config)
    rep = ml.PoincareRep2([model])
    step = config.freefield["lattice_step"]
    O = ff.Region2.double_cone((0.0, 0.0), 2.2)
    cone_fns = [ff.TestFunction2.bump((0.0, 0.0), 0.5, step),
                ff.TestFunction2.bump((0.15, 0.2), 0.4, step),
                ff.TestFunction2.bump((-0.1, -0.15), 0.4, step)]
    net = ml.LocalizedNet(rep)
    WR, WL = O.wedges
    net.populate_wedge(WR, cone_fns
                       + [ff.TestFunction2.bump((0.0, 1.4), 0.5, step)])
    net.populate_wedge(WL, cone_fns
                       + [ff.TestFunction2.bump((0.0, -1.4), 0.5, step)])
    probes = [ml.embed_probe(rep, f) for f in cone_fns]
    _, residuals = ml.doublecone_space(net, O, cone_probes=probes)
    return {"modloc.doublecone": worst(residuals)}


def check_direct_sum(config, rng):
    model = _model(config)
    rep2 = ml.PoincareRep2([model, dataclasses.replace(model, mass=SECOND_MASS)])
    step = config.freefield["lattice_step"]
    W = ff.Region2.right_wedge()
    f = ff.TestFunction2.bump((0.0, 3.0), 0.5, step)
    g = ff.TestFunction2.bump((0.4, 3.4), 0.55, step)
    p1 = ml.embed_probe(rep2, f, summand=0)
    p2 = ml.embed_probe(rep2, g, summand=1)
    K_joint, _ = ml.localized_subspace(rep2, W, [p1, p2])
    K1, _ = ml.localized_subspace(rep2, W, [p1])
    K2, _ = ml.localized_subspace(rep2, W, [p2])
    return {"modloc.direct_sum":
            subspace_distance(K_joint, subspace_sum(K1, K2))}


CHECKS = {
    "subspace": [check_standard_suite, check_fiberization],
    "fock": [check_symmetrization, check_coherent_calculus, check_weyl,
             check_second_quantized],
    "freefield": [check_locality, check_covariance,
                  check_bisognano_wichmann, check_borchers],
    "modloc": [check_net, check_doublecone, check_direct_sum],
}

# records re-run by the refinement ladder, each with the floor below which
# its residual may stall: there monotone decrease is not meaningful
REFINEMENT_SENSITIVE = {
    "freefield.bw_right_wedge": 0.0,
    "freefield.covariance_boost": 0.0,
    "freefield.covariance_translation": 1e-8,
    "freefield.locality_spacelike": 1e-8,
}


def _run_each(config, fns):
    """Run each check function of fns with an rng seeded from config.seed
    and build the records it declares.  A check that raises a numerical
    error fails each of them: the value is its threshold, which fails
    either strict comparison and keeps the report strict JSON, and the
    error field names the exception.  Returns (records, timings), the
    seconds of each check keyed by its function's name."""
    records, timings = [], {}
    for fn in fns:
        rng = np.random.default_rng(config.seed)
        t0 = time.perf_counter()
        try:
            values, error = fn(config, rng), None
        except (ff.DomainViolationError, ff.LeakageError,
                ml.EmptyModelError) as exc:
            values, error = None, f"{type(exc).__name__}: {exc}"
        for name in declared(fn):
            row = RECORDS[name]
            bound = row.bound(config)
            rec = record(name, row.claim, bound if error else values[name],
                         bound, row.direction)
            records.append(dict(rec, error=error) if error else rec)
        timings[fn.__name__] = time.perf_counter() - t0
    return records, timings


def run_checks(config: ExperimentConfig):
    """Run the checks of the configured kind, every kind of CHECKS for
    "all".  Returns (records, timings); see _run_each."""
    kinds = CHECKS if config.kind == "all" else [config.kind]
    return _run_each(config, [fn for kind in kinds for fn in CHECKS[kind]])


def run_refinement(config: ExperimentConfig, ladder):
    """Re-run the checks of the REFINEMENT_SENSITIVE records on each rung's
    grid (config.on_rung) and check the residuals decrease (a 10 percent
    slack allows stalls at the numerical floor).

    Each rung runs as run_checks does, so a check that raises fails each
    of its records (see _run_each), named "rung<k>.<name>".  Returns
    (records, rows, timings): those failed records, then one
    "refine.<name>" record per REFINEMENT_SENSITIVE name measured on two
    rungs or more; the sensitive residuals each rung measured; and
    timings keyed "rung<k>.<check function>".
    """
    # looked up at call time, so a replaced module attribute runs
    fns = [globals()[f"check_{check}"] for check in
           dict.fromkeys(RECORDS[name].check for name in REFINEMENT_SENSITIVE)]
    records, rows, timings = [], [], {}
    for rung in map(int, ladder):
        recs, times = _run_each(config.on_rung(rung), fns)
        prefix = f"rung{rung}."
        timings.update((prefix + fn, s) for fn, s in times.items())
        records += [dict(rec, name=prefix + rec["name"])
                    for rec in recs if "error" in rec]
        rows += [{"resolution": rung, "check": rec["name"],
                  "residual": rec["value"]} for rec in recs
                 if rec["name"] in REFINEMENT_SENSITIVE and "error" not in rec]
    for name, floor in REFINEMENT_SENSITIVE.items():
        seq = [r["residual"] for r in rows if r["check"] == name]
        if len(seq) < 2:
            continue
        ok = all(b <= 1.1 * a or b <= floor for a, b in zip(seq, seq[1:]))
        records.append(dict(record(
            f"refine.{name}", "residual decreases along the refinement "
            "ladder (within 10 percent, floor-exempt)", seq[-1], seq[0]),
            passed=ok, sequence=seq))
    return records, rows, timings


def list_checks():
    """(kind, check, the names of its records) for every registered check."""
    return [(kind, fn.__name__.removeprefix("check_"), declared(fn))
            for kind, fns in CHECKS.items() for fn in fns]
