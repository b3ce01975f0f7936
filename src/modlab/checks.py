"""Named verification checks behind the experiment runner.

Each check computes one or more measured values, compares them against
their thresholds, and returns records carrying the mathematical claim
they verify.  Checks are deterministic given (config, seed).
"""

from __future__ import annotations

import dataclasses
import math
import operator
import time

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

__all__ = ["CHECKS", "run_checks", "run_refinement", "list_checks",
           "REFINEMENT_SENSITIVE"]


# bounds a test shares; every other bound is a literal at its record
GAMMA_TOLERANCE = 1e-10
WEYL_TOLERANCE = 1e-6
MODULAR_TOLERANCE = 1e-7

# inputs a test reads, and the second summand's mass; every other input
# is a literal at its use, and THETA_MAX is in config, whose bounds read it
MAX_DIM = 8                     # largest complex dimension sampled
FLOW_TIMES = (0.3, 1.7)         # modular flow times checked
FOCK_CUTOFF = 10                # Fock truncation of the modular checks
FIBER_THETA = math.pi / 3       # angle of the fiber model
SECOND_MASS = 1.4               # mass of check_direct_sum's second summand


def record(name, claim, value, threshold, direction="below"):
    """A NaN value fails in either direction."""
    ok = value < threshold if direction == "below" else value > threshold
    return {"name": name, "claim": claim, "value": float(value),
            "threshold": float(threshold), "direction": direction,
            "passed": bool(ok)}


def worst(values) -> float:
    """The largest of values, 0.0 for none, and NaN if any is NaN (the
    builtin max drops a NaN that does not come first)."""
    return float(np.max(values, initial=0.0))


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
        jK = RealSubspace.span(md.j.apply(K.basis))
        found["conjugation"].extend(subspace_distance(jK, Kp))
        for t in FLOW_TIMES:
            FK = RealSubspace.span(modular_flow(md, t).apply(K.basis))
            found["flow"].extend(subspace_distance(FK, K))
        cap = subspace_intersection(K, Kp, cos_tol=1e-8)
        fix = subspace_intersection(fixed_space(md.j), delta_fixed_space(md),
                                    cos_tol=1e-8)
        found["fixed"].extend(subspace_distance(cap, fix))
    claims = {
        "involution": "the Tomita operator squares to the identity",
        "adjoint": "the complement's Tomita operator is the adjoint",
        "conjugation": "the modular conjugation maps K onto K'",
        "flow": "the modular flow preserves K",
        "fixed": "K cap K' is the joint fixed space of j and delta",
    }
    return [record(f"subspace.{k}", claims[k], worst(v), p["tolerance"])
            for k, v in found.items()]


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
    tol = 1e-9
    return [
        record("subspace.fiber_angles",
               "fiber angles equal the principal angles between K and iK",
               worst(angles), tol),
        record("subspace.fiber_reassembly",
               "(j, delta) reassemble from the angle blocks and fixed part",
               worst(reassembly), tol),
    ]


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
    return [record("fock.symmetrization",
                   "permutation-average symmetrization equals the "
                   "tensor-power expansion", worst(found), 1e-12)]


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
    return [
        record("fock.coherent_inner",
               "<e^h, e^k> equals the truncated exponential series",
               worst(inner_devs), 1e-12),
        record("fock.gamma_on_coherent",
               "second quantization acts on coherent vectors by gamma(a) "
               "e^h = e^(ah)", worst(gamma_devs), GAMMA_TOLERANCE),
    ]


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
    return [
        record("fock.weyl_agreement",
               "closed-form Weyl action matches the matrix exponential on "
               "coherent vectors", devs[-1], WEYL_TOLERANCE),
        record("fock.ccr_phase",
               "W(h) W(k) = exp(-i Im<h,k>/2) W(h+k)", ccr, WEYL_TOLERANCE),
        record("fock.weyl_truncation_monotone",
               "Weyl truncation defects decrease with the cutoff",
               1.0 if monotone else 0.0, 0.5, direction="above"),
    ]


def check_second_quantized(config, rng):
    K = fiber_standard_subspace(2, [FIBER_THETA])
    rep = fk.second_quantized_modular_check(K, FOCK_CUTOFF, rng)
    claims = {
        "conjugation_on_coherent": "gamma(s) e^(ik) = e^(-ik) for k in K",
        "weyl_conjugation": "J W(k) J = W(jk)*",
        "weyl_flow_covariance":
            "Delta^it W(k) Delta^-it = W(delta^it k)",
        "ccr_phase_across_complement":
            "the Weyl commutation phase is trivial across K and K'",
    }
    return [record(f"fock.{k}", claims[k], v, MODULAR_TOLERANCE)
            for k, v in rep.items()]


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
    return [
        record("freefield.locality_spacelike",
               "Im<Ef, Eg> vanishes for spacelike-separated supports",
               worst(spacelike), 1e-6),
        record("freefield.locality_timelike",
               "Im<Ef, Eg> stays away from zero for a timelike pair",
               timelike, 1e-3, direction="above"),
    ]


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
    return [
        record("freefield.covariance_translation",
               "E(f o g^-1) = u(g) E f for translations", t_res, 1e-6),
        record("freefield.covariance_boost",
               "E(f o g^-1) = u(g) E f for boosts", b_res, 1e-4),
    ]


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
    growth = blow[-1] / blow[0]
    control = ff.modular_blowup_profile(Ef, model.grid)
    blowup = 1e3
    return [
        record("freefield.bw_right_wedge",
               "right-wedge embeddings are fixed by conjugation after the "
               "half boost", res, 1e-3),
        record("freefield.bw_left_wedge_certificate",
               "left-wedge embeddings fail the wedge domain certificate",
               cert, 1e-3, direction="above"),
        record("freefield.bw_left_wedge_blowup",
               "the capped half-boost image of a wrong-wedge vector blows "
               "up along the cap ladder", growth, blowup,
               direction="above"),
        record("freefield.bw_right_wedge_stable",
               "the capped half-boost image of a right-wedge vector stays "
               "bounded along the cap ladder", control[-1] / control[0],
               blowup),
    ]


def check_borchers(config, rng):
    model = _model(config)
    probes = [ff.gaussian_packet(model.grid, width=0.65, momentum=0.3),
              ff.gaussian_packet(model.grid, center=0.3, width=0.7,
                                 momentum=-0.2)]
    rep = ff.borchers_check(0.5, (0.1, 0.25), probes, model)
    tol = 1e-6
    return [
        record("freefield.borchers_flow",
               "Delta^it U(a) Delta^-it = U(exp(-2 pi t) a) on the positive "
               "lightray", rep["flow_commutation"], tol),
        record("freefield.borchers_reflection",
               "J U(a) J = U(-a)", rep["reflection_commutation"], tol),
    ]


# -- modular localization suite ---------------------------------------------

def _build_net(config, elements):
    """Right and left wedges at the apexes (0, a), a in 0, 0.5, 1.  The
    dictionary moved by (0, s) lies in the right wedge at (0, a) for
    s >= a, and reflected, in the left wedge for s <= a.

    The 24 dictionary functions and their 48 transports by the covariance
    elements are embedded first, in one sweep of the lattice rows
    (ff.embed_sweep), and populate_wedge and net_checks, whose transports
    equal these as values, find them in embed's memo.  Wedge by wedge and
    element by element, four passes would each go over the same rows, and
    the phase cache would have to hold a pass.  Its chunks live until the
    sweep ends, which empties the cache (and restarts its cache_info()
    counts), so the net's extractions run without them."""
    step = config.freefield["lattice_step"]
    base = [ff.TestFunction2.bump((c0, c1), r, step)
            for c0, c1, r in ((0.0, 3.0, 0.5), (0.4, 3.6, 0.55),
                              (-0.3, 2.8, 0.45), (0.1, 4.0, 0.6))]
    reflected = [f.transform(ff.PoincareElement.reflection()) for f in base]
    shifts = (0.0, 0.5, 1.0)
    wedges = [(region, inside,
               {s: [f.transform(ff.PoincareElement.translation(0.0, s))
                    for f in fns] for s in shifts})
              for region, fns, inside in (
                  (ff.Region2.right_wedge, base, operator.ge),
                  (ff.Region2.left_wedge, reflected, operator.le))]
    model = _model(config)
    functions = [f for _, _, moved in wedges
                 for fns in moved.values() for f in fns]
    ff.embed_sweep(functions + [f.transform(g) for f in functions
                                for g in elements], model)
    net = ml.LocalizedNet(ml.PoincareRep2([model]))
    for region, inside, moved in wedges:
        for a in shifts:
            net.populate_wedge(region((0.0, a)),
                               [f for s in shifts if inside(s, a)
                                for f in moved[s]])
    return net


def check_net(config, rng):
    elements = [ff.PoincareElement.translation(0.0, 0.5),
                ff.PoincareElement.boost(0.1)]
    net = _build_net(config, elements)
    rep_checks = ml.net_checks(net, covariance_elements=elements)
    # a category with no rows has shown nothing, so it fails
    found = {cat: worst([row["residual"] for row in rows]) if rows else 1.0
             for cat, rows in rep_checks.items()}
    claims = {
        "isotony": "nested wedges give nested localized models",
        "duality": "the complement wedge model is the symplectic complement "
                   "within the joint span",
        "covariance": "u(g) K(W) = K(gW) over matched dictionaries",
    }
    return [record(f"modloc.{cat}", claims[cat], v, 1e-3)
            for cat, v in found.items()]


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
    _, report = ml.doublecone_space(net, O, cone_probes=probes)
    residuals = report["probe_residuals"]
    return [record("modloc.doublecone",
                   "cone-supported embeddings lie in the intersection of "
                   "the generating wedge models",
                   worst(residuals) if residuals else 1.0, 1e-2)]


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
    dist = subspace_distance(K_joint, subspace_sum(K1, K2))
    return [record("modloc.direct_sum",
                   "the wedge model of a direct sum is the direct sum of "
                   "the block models", dist, 1e-10)]


CHECKS = {
    "subspace": [check_standard_suite, check_fiberization],
    "fock": [check_symmetrization, check_coherent_calculus, check_weyl,
             check_second_quantized],
    "freefield": [check_locality, check_covariance,
                  check_bisognano_wichmann, check_borchers],
    "modloc": [check_net, check_doublecone, check_direct_sum],
}

# checks re-run by the refinement ladder, each with the floor below which
# its residual may stall: there monotone decrease is not meaningful
REFINEMENT_SENSITIVE = {
    "freefield.bw_right_wedge": 0.0,
    "freefield.covariance_boost": 0.0,
    "freefield.covariance_translation": 1e-8,
    "freefield.locality_spacelike": 1e-8,
}


def _run_each(config, checks, prefix=""):
    """Run each check of checks, a {kind: [check function]} map, with an
    rng seeded from config.seed.  A check that raises a numerical error
    gives one failed record "<prefix><kind>.<check>" instead, whose error
    field names the exception.  Returns (records, timings), the seconds
    of each check keyed "<prefix><check function>"."""
    records, timings = [], {}
    for kind, fns in checks.items():
        for fn in fns:
            rng = np.random.default_rng(config.seed)
            t0 = time.perf_counter()
            try:
                records.extend(fn(config, rng))
            except (ff.DomainViolationError, ff.LeakageError,
                    ml.EmptyModelError) as exc:
                records.append(dict(record(
                    f"{prefix}{kind}.{fn.__name__.removeprefix('check_')}",
                    "the check runs without a numerical error", 0.0, 0.5,
                    direction="above"), error=f"{type(exc).__name__}: {exc}"))
            timings[prefix + fn.__name__] = time.perf_counter() - t0
    return records, timings


def run_checks(config: ExperimentConfig):
    """Run the checks of the configured kind, every kind of CHECKS for
    "all".  Returns (records, timings); a check that raises a numerical
    error is one failed record "<kind>.<check>" (see _run_each)."""
    return _run_each(config, CHECKS if config.kind == "all"
                     else {config.kind: CHECKS[config.kind]})


def run_refinement(config: ExperimentConfig, ladder):
    """Re-run the resolution-dependent freefield checks on each rung's
    grid (config.on_rung) and check the residuals decrease (a 10 percent
    slack allows stalls at the numerical floor).

    Each rung runs as run_checks does, with prefix "rung<k>." (see
    _run_each), so a check that raises is a failed record
    "rung<k>.freefield.<check>".  Returns (records, rows, timings):
    those failed records, then one "refine.<name>" record per
    REFINEMENT_SENSITIVE name measured on two rungs or more; the
    sensitive residuals of each rung; and timings keyed
    "rung<k>.<check function>".
    """
    records, rows, timings = [], [], {}
    for rung in map(int, ladder):
        cfg = config.on_rung(rung)
        # looked up at call time, so a replaced module attribute runs
        recs, times = _run_each(cfg, {"freefield": [
            check_bisognano_wichmann, check_covariance, check_locality]},
            prefix=f"rung{rung}.")
        timings.update(times)
        records += [rec for rec in recs if "error" in rec]
        rows += [{"resolution": rung, "check": rec["name"],
                  "residual": rec["value"]}
                 for rec in recs if rec["name"] in REFINEMENT_SENSITIVE]
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
    return [(kind, fn.__name__.removeprefix("check_"))
            for kind, fns in CHECKS.items() for fn in fns]
