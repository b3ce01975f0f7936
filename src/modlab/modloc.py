"""Wedge localization from a Poincare representation alone.

Given the (anti)unitary positive-energy representation carried by one
or more mass summands, each wedge W = g W_R gets the prescription
j_W = u(r_W), delta_W^(it) = u(Lambda_W(t)), s_W = j_W delta_W^(1/2),
realized by transporting the origin right-wedge operators with u(g).
The localized space K_W is the fixed-point set of s_W; its finite
model is extracted from a dictionary of probes by singular-value
thresholding of (s_W - 1) on their real span.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .freefield import (
    OneParticleVector, PoincareElement, Region2, TestFunction2,
    compressed_fixed_defect, domain_certificate, embed, poincare_act,
    wedge_modular_half,
)
from .hilbert import (
    ComplexVector, ComplexVectorSpace, RealSubspace, inclusion_residual,
    orthonormalize_columns, subspace_distance, subspace_intersection,
    subspace_sum, times_i,
)

__all__ = [
    "SumVector", "PoincareRep2", "EmptyModelError", "ExtractionReport",
    "wedge_frame", "wedge_tomita_apply_rep", "wedge_domain_certificate",
    "compressed_defect_rep", "localized_subspace",
    "LocalizedNet", "net_checks", "doublecone_space", "embed_probe",
]


class EmptyModelError(RuntimeError):
    """No dictionary probe passed the wedge domain certificate."""


class SumVector:
    """Element of a finite direct sum of one-particle spaces."""

    def __init__(self, blocks):
        self.blocks = list(blocks)

    def inner(self, other: "SumVector") -> complex:
        return sum((a.inner(b) for a, b in zip(self.blocks, other.blocks)),
                   start=0.0 + 0.0j)

    def norm(self) -> float:
        return math.sqrt(max(self.inner(self).real, 0.0))

    def __add__(self, other):
        return SumVector([a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other):
        return SumVector([a - b for a, b in zip(self.blocks, other.blocks)])

    def __rmul__(self, scalar):
        return SumVector([scalar * b for b in self.blocks])


class PoincareRep2:
    """Direct sum of massive scalar representations on a common grid."""

    def __init__(self, models):
        models = list(models)
        if not models:
            raise ValueError("need at least one summand")
        g0 = models[0].grid
        for m in models[1:]:
            if m.grid != g0:
                raise ValueError("summands must share the rapidity grid")
        self.models = models
        self.grid = g0

    @property
    def n_summands(self):
        return len(self.models)

    def space(self) -> ComplexVectorSpace:
        return ComplexVectorSpace(self.n_summands * self.grid.n_points)

    def act(self, g: PoincareElement, v: SumVector) -> SumVector:
        return SumVector([poincare_act(g, b) for b in v.blocks])

    def zero(self) -> SumVector:
        return SumVector([OneParticleVector(m, np.zeros(self.grid.n_points,
                                                        dtype=complex))
                          for m in self.models])

    # realification plumbing -------------------------------------------

    def to_complex_vector(self, v: SumVector) -> ComplexVector:
        h = math.sqrt(self.grid.spacing)
        coords = np.concatenate([b.values * h for b in v.blocks])
        return ComplexVector(self.space(), coords)

    def from_complex_vector(self, x: ComplexVector) -> SumVector:
        h = math.sqrt(self.grid.spacing)
        n = self.grid.n_points
        blocks = []
        for i, m in enumerate(self.models):
            blocks.append(OneParticleVector(m, x.coords[i * n:(i + 1) * n] / h))
        return SumVector(blocks)


def embed_probe(rep: PoincareRep2, f: TestFunction2, summand: int = 0) -> SumVector:
    """Embed a test function into one summand, zero elsewhere."""
    v = rep.zero()
    v.blocks[summand] = embed(f, rep.models[summand])
    return v


def wedge_frame(W: Region2) -> PoincareElement:
    """g with W = g . (right wedge at the origin)."""
    if W.kind == "right_wedge":
        return PoincareElement.translation(*W.apex)
    if W.kind == "left_wedge":
        return (PoincareElement.translation(*W.apex)
                * PoincareElement.reflection())
    raise ValueError(f"not a wedge: {W.kind}")


def wedge_tomita_apply_rep(rep: PoincareRep2, W: Region2, v: SumVector,
                           cap: float = None):
    """s_W v = u(g) s_R u(g)^(-1) v, blockwise; returns (vector, max tail)."""
    from .freefield import AMPLIFICATION_CAP
    cap = cap or AMPLIFICATION_CAP
    g = wedge_frame(W)
    ginv = g.inv()
    pulled = rep.act(ginv, v)
    tails = []
    out_blocks = []
    for b in pulled.blocks:
        half, tail = wedge_modular_half(b, cap=cap)
        out_blocks.append(half.conj())
        tails.append(tail)
    return rep.act(g, SumVector(out_blocks)), max(tails)


def wedge_domain_certificate(rep: PoincareRep2, W: Region2, v: SumVector) -> float:
    pulled = rep.act(wedge_frame(W).inv(), v)
    return max(domain_certificate(b) for b in pulled.blocks)


def compressed_defect_rep(rep: PoincareRep2, W: Region2, v: SumVector) -> SumVector:
    """P (s_W - 1) v: the band-compressed fixed-point defect in the
    wedge frame, transported back.  Cap-safe on raw vectors."""
    g = wedge_frame(W)
    pulled = rep.act(g.inv(), v)
    out = SumVector([compressed_fixed_defect(b) for b in pulled.blocks])
    return rep.act(g, out)


@dataclass
class ExtractionReport:
    singular_values: np.ndarray
    kept: int
    discarded_probes: int
    fallback_used: bool = False
    certificates: list = field(default_factory=list)


def localized_subspace(rep: PoincareRep2, W: Region2, probes, tol: float = 0.05,
                       cert_threshold: float = 1e-10):
    """Finite model of K_W = {h in D(s_W): s_W h = h}.

    Probes failing the wedge domain certificate are discarded (all of
    them failing raises EmptyModelError).  On the real span of the
    survivors the band-compressed defect P (s_W - 1) is assembled; its
    kernel directions below tol in singular value form the model.  The
    stored basis consists of raw probe combinations, so models over
    matched dictionaries are directly comparable across wedges.  If no
    singular value clears the threshold, the symmetrized vectors
    (h + s_W h)/2 of the well-conditioned probes are used instead, with
    the report saying so.

    Returns (RealSubspace over the summed grid space, ExtractionReport).
    """
    g = wedge_frame(W)
    ginv = g.inv()
    certs, live = [], []
    for p in probes:
        pulled = rep.act(ginv, p)
        cert = max(domain_certificate(b) for b in pulled.blocks)
        certs.append(cert)
        if cert <= cert_threshold:
            live.append(p)
    if not live:
        raise EmptyModelError(
            f"all {len(probes)} probes fail the domain certificate "
            f"(min {min(certs):.2e})")

    space = rep.space()
    cols = [space.realify(rep.to_complex_vector(p).coords) for p in live]
    B = orthonormalize_columns(np.column_stack(cols))

    def as_sum(col):
        return rep.from_complex_vector(
            ComplexVector(space, space.unrealify(col)))

    def defect_real(col):
        d = compressed_defect_rep(rep, W, as_sum(col))
        return space.realify(rep.to_complex_vector(d).coords)

    D = np.column_stack([defect_real(B[:, j]) for j in range(B.shape[1])])
    _, sv, Vt = np.linalg.svd(D, full_matrices=False)
    keep = sv <= tol
    fallback = False
    if not np.any(keep):
        # poor gap: fall back to explicit symmetrization of the probes
        fallback = True
        sym_cols = []
        for j in range(B.shape[1]):
            img, _ = wedge_tomita_apply_rep(rep, W, as_sum(B[:, j]))
            v = space.realify(rep.to_complex_vector(img).coords)
            if np.linalg.norm(v) <= 3.0:
                sym_cols.append(0.5 * (B[:, j] + v))
        if not sym_cols:
            raise EmptyModelError("no well-conditioned probe to symmetrize")
        basis = orthonormalize_columns(np.column_stack(sym_cols))
    else:
        basis = orthonormalize_columns(B @ Vt[keep].T)
    report = ExtractionReport(singular_values=sv, kept=int(basis.shape[1]),
                              discarded_probes=len(probes) - len(live),
                              fallback_used=fallback, certificates=certs)
    return RealSubspace(space, basis, check=False), report


@dataclass
class NetEntry:
    region: Region2
    functions: list            # (TestFunction2, summand) pairs
    probes: list               # SumVector embeddings
    subspace: RealSubspace
    report: ExtractionReport


class LocalizedNet:
    """Map from wedges (and double cones) to finite K-models."""

    def __init__(self, rep: PoincareRep2, tol: float = 0.05):
        self.rep = rep
        self.tol = tol
        self.entries = {}

    @staticmethod
    def _key(W: Region2):
        if W.kind in ("right_wedge", "left_wedge"):
            return (W.kind, round(W.apex[0], 9), round(W.apex[1], 9))
        return (W.kind, tuple(np.round(W.right_apex, 9)),
                tuple(np.round(W.left_apex, 9)))

    def populate_wedge(self, W: Region2, functions):
        """functions: list of (TestFunction2, summand index) supported in W."""
        probes = []
        for f, idx in functions:
            if f._boundary is not None:
                b0, b1 = f._boundary
                if not np.all(W.contains(b0, b1)):
                    raise ValueError("dictionary member not supported in wedge")
            probes.append(embed_probe(self.rep, f, idx))
        K, report = localized_subspace(self.rep, W, probes, self.tol)
        self.entries[self._key(W)] = NetEntry(W, list(functions), probes, K, report)
        return K

    def get(self, W: Region2) -> NetEntry:
        return self.entries[self._key(W)]

    def act_on_subspace(self, g: PoincareElement, K: RealSubspace) -> RealSubspace:
        cols = []
        for j in range(K.dim):
            x = ComplexVector(K.space, K.space.unrealify(K.basis[:, j]))
            moved = self.rep.act(g, self.rep.from_complex_vector(x))
            cols.append(K.space.realify(self.rep.to_complex_vector(moved).coords))
        return RealSubspace.from_real_span(K.space, np.column_stack(cols))

    def to_json_dict(self) -> dict:
        out = {"summands": [m.mass for m in self.rep.models],
               "tolerance": self.tol, "wedges": []}
        for key, e in sorted(self.entries.items(), key=lambda kv: repr(kv[0])):
            h = hashlib.sha256()
            for p in e.probes:
                for b in p.blocks:
                    h.update(np.ascontiguousarray(b.values).tobytes())
            out["wedges"].append({
                "region": list(key),
                "dictionary_hash": h.hexdigest()[:16],
                "dimension": e.subspace.dim,
                "singular_values": [float(s) for s in e.report.singular_values],
            })
        return out

    def to_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=1, sort_keys=True)


def _wedge_contains(W1: Region2, W2: Region2) -> bool:
    """W2 subset of W1, for wedges of the same kind."""
    if W1.kind != W2.kind:
        return False
    a, b = W1.apex, W2.apex
    if W1.kind == "right_wedge":
        return b[1] - a[1] >= abs(b[0] - a[0])
    return a[1] - b[1] >= abs(b[0] - a[0])


def _complement_within_span(joint: RealSubspace, K: RealSubspace) -> RealSubspace:
    """Vectors of the joint span symplectically orthogonal to K, taking
    the generic dimension dim(joint) - dim(K)."""
    space = joint.space
    want = joint.dim - K.dim
    if want <= 0:
        return RealSubspace(space, np.zeros((space.rdim, 0)), check=False)
    C = times_i(K.basis).T @ joint.basis       # constraints  x  joint coords
    _, _, Vt = np.linalg.svd(C, full_matrices=True)
    return RealSubspace.from_real_span(space, joint.basis @ Vt[-want:].T)


def net_checks(net: LocalizedNet, covariance_elements=(),
               base_functions=None) -> dict:
    """Isotony, duality, and covariance residuals over the stored wedges.

    Covariance: for each group element g and each wedge W with both
    models available, compares u(g) K(W) against the model built from
    the geometrically transported dictionary of W.
    """
    entries = list(net.entries.values())
    report = {"isotony": [], "duality": [], "covariance": []}

    for e1 in entries:
        for e2 in entries:
            if e1 is e2 or not _wedge_contains(e2.region, e1.region):
                continue
            res = inclusion_residual(e1.subspace, e2.subspace)
            report["isotony"].append({
                "small": net._key(e1.region), "large": net._key(e2.region),
                "residual": float(res)})

    for e in entries:
        comp_key = net._key(e.region.causal_complement())
        if comp_key not in net.entries:
            continue
        ec = net.entries[comp_key]
        joint = subspace_sum(e.subspace, ec.subspace)
        modeled = _complement_within_span(joint, e.subspace)
        res = subspace_distance(modeled, ec.subspace)
        report["duality"].append({
            "wedge": net._key(e.region), "residual": float(res)})

    for g in covariance_elements:
        for e in entries:
            gW = e.region.transform(g)
            moved = net.act_on_subspace(g, e.subspace)
            transported = [(f.transform(g), idx) for f, idx in e.functions]
            probes = [embed_probe(net.rep, f, idx) for f, idx in transported]
            try:
                K_gW, _ = localized_subspace(net.rep, gW, probes, net.tol)
            except EmptyModelError:
                continue
            res = subspace_distance(moved, K_gW)
            report["covariance"].append({
                "wedge": net._key(e.region), "element": repr(g),
                "residual": float(res)})
    return report


def doublecone_space(net: LocalizedNet, O: Region2, cone_probes=(),
                     cos_tol: float = 1e-4):
    """K(O) as the intersection of the two generating wedge models.

    Requires K(right wedge at O.right_apex) and K(left wedge at
    O.left_apex) in the net.  Returns (subspace, report) with the real
    dimension and the projection residuals of the given cone-supported
    probes against the intersection.
    """
    if O.kind != "double_cone":
        raise ValueError("doublecone_space needs a double cone")
    WR = Region2.right_wedge(O.right_apex)
    WL = Region2.left_wedge(O.left_apex)
    try:
        eR, eL = net.get(WR), net.get(WL)
    except KeyError as exc:
        raise ValueError(f"generating wedge missing from the net: {exc}")
    K = subspace_intersection(eR.subspace, eL.subspace, cos_tol=cos_tol)
    residuals = []
    for p in cone_probes:
        x = net.rep.to_complex_vector(p)
        v = x.space.realify(x.coords)
        nv = np.linalg.norm(v)
        residuals.append(float(np.linalg.norm(v - K.project(v)) / nv))
    report = {"dimension": K.dim, "probe_residuals": residuals,
              "conditioning_warning": K.dim == 0 and bool(cone_probes)}
    return K, report
