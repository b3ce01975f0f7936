"""Named verification checks behind the experiment runner.

Each check computes one or more measured values, compares them against
their thresholds, and returns records carrying the mathematical claim
they verify.  Checks are deterministic given (config, seed).
"""

from __future__ import annotations

import math
import operator
import time

import numpy as np

from . import fock as fk
from . import freefield as ff
from . import modloc as ml
from .config import WEYL_PROBE_LEVEL, ConfigError, ExperimentConfig
from .hilbert import (
    RealSubspace, fixed_space, operator_norm,
    principal_angles, subspace_distance, subspace_intersection, subspace_sum,
    symplectic_complement,
)
from .standard import (
    draw_standard_subspace, fiber_standard_subspace, fiberize, modular_data,
    modular_flow, random_standard_subspace, reassemble_modular,
    rotated_standard_subspace, tomita_operator,
)

__all__ = ["CHECKS", "run_checks", "run_refinement", "list_checks",
           "REFINEMENT_SENSITIVE"]


# bounds a test shares; every other bound is a literal at its record
GAMMA_TOLERANCE = 1e-10
WEYL_TOLERANCE = 1e-6
MODULAR_TOLERANCE = 1e-7


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
        d = int(rng.integers(2, p["max_dim"] + 1))
        draws.setdefault(d, []).append(draw_standard_subspace(d, rng))
    found = {k: [] for k in ("involution", "adjoint", "conjugation", "flow", "fixed")}
    for d, stack in draws.items():
        K = rotated_standard_subspace(*map(np.stack, zip(*stack)))
        s = tomita_operator(K)
        md = modular_data(s)
        found["involution"].extend(operator_norm((s @ s).matrix - np.eye(d)))
        Kp = symplectic_complement(K)
        sp = tomita_operator(Kp)
        found["adjoint"].extend(operator_norm(sp.matrix - s.adjoint().matrix))
        jK = RealSubspace.span(md.j.apply(K.basis))
        found["conjugation"].extend(subspace_distance(jK, Kp))
        for t in p["flow_times"]:
            FK = RealSubspace.span(modular_flow(md, float(t)).apply(K.basis))
            found["flow"].extend(subspace_distance(FK, K))
        cap = subspace_intersection(K, Kp, cos_tol=1e-8)
        fix = subspace_intersection(fixed_space(md.j), fixed_space(md.delta),
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
    p = config.subspace
    angles, reassembly = [], []
    for d in range(2, p["max_dim"] + 1):
        K = random_standard_subspace(d, rng)
        md = modular_data(tomita_operator(K))
        blocks, fixed = fiberize(K)
        thetas = sorted([b.theta for b in blocks for _ in range(2)]
                        + [np.pi / 2] * fixed.dim)
        oracle = principal_angles(K, K.mult_i())      # ascending
        angles.append(float(np.max(np.abs(thetas - oracle)))
                      if len(thetas) == len(oracle) else np.inf)
        jmat, dmat = reassemble_modular(blocks, fixed)
        reassembly += [
            float(np.linalg.norm(jmat - md.j.matrix, 2)),
            float(np.linalg.norm(dmat - md.delta.matrix, 2)
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
    p = config.fock
    h = np.array([0.8 + 0.3j])
    k = np.array([0.5 - 0.2j])
    devs, defects = [], []
    for N in p["weyl_cutoffs"]:
        fs = fk.FockSpace(1, int(N))
        lhs = fk.weyl_matrix(fs, h).apply(
            fk.coherent(fs, 1j / math.sqrt(2.0) * k))
        rhs = fk.weyl_on_coherent(fs, h, k)
        low = fs.level_slices[min(6, int(N))].stop
        devs.append(float(np.linalg.norm(lhs[:low] - rhs[:low])))
        defects.append(fk.weyl_unitarity_defect(1.0 + 0.0j, int(N), 8))
    fs = fk.FockSpace(1, max(int(N) for N in p["weyl_cutoffs"]))
    e1 = np.array([1.0 + 0.0j])
    ie1 = np.array([1.0j])
    Wh, Wk = fk.weyl_matrix(fs, e1), fk.weyl_matrix(fs, ie1)
    Whk = fk.weyl_matrix(fs, e1 + ie1)
    lhs = (Wh @ Wk).apply(fk.vacuum(fs))
    rhs = np.exp(-0.5j) * Whk.apply(fk.vacuum(fs))
    low = fs.level_slices[WEYL_PROBE_LEVEL].stop
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
    p = config.fock
    K = fiber_standard_subspace(2, [p["fiber_theta"]])
    rep = fk.second_quantized_modular_check(K, p["cutoff"], rng)
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
                             ff.RapidityGrid(p["theta_max"], p["n_points"]),
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
    res = ff.bw_residual(f, model)
    g = ff.TestFunction2.bump((0.0, -3.0), 0.5, step,
                              region=ff.Region2.left_wedge())
    Eg = ff.embed(g, model).values
    cert = ff.domain_certificate(Eg, model.grid)
    blow = ff.modular_blowup_profile(Eg, model.grid)
    growth = blow[-1] / blow[0]
    Ef = ff.embed(f, model).values
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

def _build_net(config):
    """Right and left wedges at the apexes (0, a), a in 0, 0.5, 1.  The
    dictionary moved by (0, s) lies in the right wedge at (0, a) for
    s >= a, and reflected, in the left wedge for s <= a."""
    step = config.freefield["lattice_step"]
    base = [ff.TestFunction2.bump((c0, c1), r, step)
            for c0, c1, r in config.modloc["dictionary"]]
    reflected = [f.transform(ff.PoincareElement.reflection()) for f in base]
    net = ml.LocalizedNet(ml.PoincareRep2([_model(config)]))
    shifts = (0.0, 0.5, 1.0)
    for region, fns, inside in ((ff.Region2.right_wedge, base, operator.ge),
                                (ff.Region2.left_wedge, reflected, operator.le)):
        moved = {s: [f.transform(ff.PoincareElement.translation(0.0, s))
                     for f in fns] for s in shifts}
        for a in shifts:
            net.populate_wedge(region((0.0, a)),
                               [(f, 0) for s in shifts if inside(s, a)
                                for f in moved[s]])
    return net


def check_net(config, rng):
    net = _build_net(config)
    rep_checks = ml.net_checks(
        net, covariance_elements=[ff.PoincareElement.translation(0.0, 0.5),
                                  ff.PoincareElement.boost(0.1)])
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
    net.populate_wedge(WR, [(f, 0) for f in cone_fns
                            + [ff.TestFunction2.bump((0.0, 1.4), 0.5, step)]])
    net.populate_wedge(WL, [(f, 0) for f in cone_fns
                            + [ff.TestFunction2.bump((0.0, -1.4), 0.5, step)]])
    probes = [ml.embed_probe(rep, f) for f in cone_fns]
    _, report = ml.doublecone_space(net, O, cone_probes=probes)
    residuals = report["probe_residuals"]
    return [record("modloc.doublecone",
                   "cone-supported embeddings lie in the intersection of "
                   "the generating wedge models",
                   worst(residuals) if residuals else 1.0, 1e-2)]


def check_direct_sum(config, rng):
    model = _model(config)
    model2 = ff.FreeFieldModel(config.modloc["second_mass"], model.grid,
                               model.window, model.window_width)
    rep2 = ml.PoincareRep2([model, model2])
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

# checks re-run by the refinement ladder; floor-exempt ones may sit at the
# quadrature floor, where monotone decrease is not meaningful
REFINEMENT_SENSITIVE = {
    "freefield.bw_right_wedge": {"floor": 0.0},
    "freefield.covariance_boost": {"floor": 0.0},
    "freefield.covariance_translation": {"floor": 1e-8},
    "freefield.locality_spacelike": {"floor": 1e-8},
}


def run_checks(config: ExperimentConfig):
    """Run the checks of the configured kind.  A check that raises a
    numerical error gives one failed record "<kind>.<check>" instead,
    whose error field names the exception."""
    kinds = (["subspace", "fock", "freefield", "modloc"]
             if config.kind == "all" else [config.kind])
    records, timings = [], {}
    for kind in kinds:
        for fn in CHECKS[kind]:
            rng = np.random.default_rng(config.seed)
            t0 = time.perf_counter()
            try:
                records.extend(fn(config, rng))
            except (ff.DomainViolationError, ff.LeakageError,
                    ml.EmptyModelError) as exc:
                records.append(dict(record(
                    f"{kind}.{fn.__name__.removeprefix('check_')}",
                    "the check runs without a numerical error", 0.0, 0.5,
                    direction="above"), error=f"{type(exc).__name__}: {exc}"))
            timings[fn.__name__] = time.perf_counter() - t0
    return records, timings


def run_refinement(config: ExperimentConfig, ladder):
    """Re-run the resolution-dependent freefield checks across rung
    presets and check the residuals decrease (a 10 percent slack allows
    stalls at the numerical floor).

    Returns (records, rows, timings); timings holds the seconds of each
    check on each rung, keyed "rung<k>.<check function>".  A rung window
    outside the configured grid is a ConfigError, raised up front.
    """
    for rung in ladder:
        window = ff.REFINEMENT_RUNGS[int(rung)]["window"]
        if window >= config.freefield["theta_max"]:
            raise ConfigError(
                f"freefield.theta_max: must be above {window}, the window "
                f"of refinement rung {rung}")
    rows, timings = [], {}
    for rung in ladder:
        preset = ff.REFINEMENT_RUNGS[int(rung)]
        cfg = ExperimentConfig.from_dict(config.to_dict())
        cfg.freefield.update(
            n_points=preset["n_points"], window=preset["window"],
            window_width=preset["window_width"],
            lattice_step=preset["step"])
        rng = np.random.default_rng(cfg.seed)
        for fn in (check_bisognano_wichmann, check_covariance,
                   check_locality):
            t0 = time.perf_counter()
            recs = fn(cfg, rng)
            timings[f"rung{rung}.{fn.__name__}"] = time.perf_counter() - t0
            for rec in recs:
                if rec["name"] in REFINEMENT_SENSITIVE:
                    rows.append({"resolution": int(rung),
                                 "check": rec["name"],
                                 "residual": rec["value"]})
    records = []
    for name, opts in REFINEMENT_SENSITIVE.items():
        seq = [r["residual"] for r in rows if r["check"] == name]
        if len(seq) < 2:
            continue
        ok = all(b <= 1.1 * a or b <= opts["floor"]
                 for a, b in zip(seq, seq[1:]))
        records.append({"name": f"refine.{name}",
                        "claim": "residual decreases along the refinement "
                                 "ladder (within 10 percent, floor-exempt)",
                        "value": float(seq[-1]), "threshold": float(seq[0]),
                        "direction": "below",
                        "passed": bool(ok), "sequence": seq})
    return records, rows, timings


def list_checks():
    out = []
    for kind, fns in CHECKS.items():
        for fn in fns:
            out.append((kind, fn.__name__.replace("check_", "")))
    return out
