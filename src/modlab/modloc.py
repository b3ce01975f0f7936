"""Wedge localization from a Poincare representation alone.

Given the (anti)unitary positive-energy representation carried by one
or more mass summands, each wedge W = g W_R gets the prescription
j_W = u(r_W), delta_W^(it) = u(Lambda_W(t)), s_W = j_W delta_W^(1/2),
realized by transporting the origin right-wedge operators with u(g).
The localized space K_W is the fixed-point set of s_W; its finite
model is extracted from a dictionary of probes by singular-value
thresholding of (s_W - 1) on their real span.

A direct-sum vector is a complex array (n_summands, n_points), one row
per summand; a probe dictionary is a stack (k, n_summands, n_points).
The spectral kernels of the origin right wedge are freefield's, applied
on the shared rapidity grid to every row at once; this module only
transports them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .freefield import (
    DOMAIN_CERT_THRESHOLD, PoincareElement, Region2, SupportError,
    TestFunction2, compressed_fixed_defect, domain_certificate, embed,
    poincare_act, realify,
)
from .hilbert import (
    ComplexVectorSpace, RealSubspace, inclusion_residual,
    orthonormalize_columns, subspace_distance, subspace_intersection,
    subspace_sum, times_i,
)

__all__ = [
    "PoincareRep2", "EmptyModelError", "ExtractionReport",
    "wedge_frame", "wedge_domain_certificate",
    "compressed_defect_rep", "localized_subspace",
    "LocalizedNet", "net_checks", "doublecone_space", "embed_probe",
]


class EmptyModelError(RuntimeError):
    """The probe dictionary has no localized content for the wedge."""


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

    def act(self, g: PoincareElement, X) -> np.ndarray:
        """u(g) on a vector or a stack (..., n_summands, n_points)."""
        return np.stack([poincare_act(g, X[..., i, :], m)
                         for i, m in enumerate(self.models)], axis=-2)

    def realify(self, X) -> np.ndarray:
        """Real columns in space() of a stack of vectors."""
        return realify(X, self.grid.spacing)

    def unrealify(self, M) -> np.ndarray:
        """The stack of vectors whose real columns are those of M."""
        d = self.space().dim
        z = (M[:d] + 1j * M[d:]).T / math.sqrt(self.grid.spacing)
        return z.reshape(-1, self.n_summands, self.grid.n_points)


def _stack(rep: PoincareRep2, probes) -> np.ndarray:
    return np.reshape(probes, (-1, rep.n_summands, rep.grid.n_points))


def embed_probe(rep: PoincareRep2, f: TestFunction2, summand: int = 0) -> np.ndarray:
    """Embed a test function into one summand, zero elsewhere."""
    X = np.zeros((rep.n_summands, rep.grid.n_points), dtype=complex)
    X[summand] = embed(f, rep.models[summand]).values
    return X


def wedge_frame(W: Region2) -> PoincareElement:
    """g with W = g . (right wedge at the origin)."""
    if W.kind == "right_wedge":
        return PoincareElement.translation(*W.apex)
    if W.kind == "left_wedge":
        return (PoincareElement.translation(*W.apex)
                * PoincareElement.reflection())
    raise ValueError(f"not a wedge: {W.kind}")


def _pull(rep: PoincareRep2, W: Region2, X):
    """(g, u(g)^(-1) X) for W = g W_R."""
    g = wedge_frame(W)
    return g, rep.act(g.inv(), X)


def wedge_domain_certificate(rep: PoincareRep2, W: Region2, X):
    """Largest domain certificate over the summands of each vector."""
    return np.max(domain_certificate(_pull(rep, W, X)[1], rep.grid), axis=-1)


def compressed_defect_rep(rep: PoincareRep2, W: Region2, X) -> np.ndarray:
    """P (s_W - 1) X: the band-compressed fixed-point defect in the
    wedge frame, transported back.  Cap-safe on raw vectors."""
    g, pulled = _pull(rep, W, X)
    return rep.act(g, compressed_fixed_defect(pulled, rep.grid))


@dataclass
class ExtractionReport:
    singular_values: np.ndarray
    kept: int
    discarded_probes: int
    fallback_used: bool = False         # no fallback exists; always False
    certificates: list = field(default_factory=list)


def localized_subspace(rep: PoincareRep2, W: Region2, probes, tol: float = 0.05):
    """Finite model of K_W = {h in D(s_W): s_W h = h}.

    Probes whose wedge domain certificate exceeds DOMAIN_CERT_THRESHOLD
    are discarded.  On the real span of the survivors the band-compressed
    defect P (s_W - 1) is assembled; its kernel directions below tol in
    singular value form the model.  The stored basis consists of raw probe
    combinations, so models over matched dictionaries are directly
    comparable across wedges.  EmptyModelError is raised when every probe
    fails the certificate or no singular value is at most tol.

    Returns (RealSubspace over the summed grid space, ExtractionReport).
    """
    P = _stack(rep, probes)
    certs = wedge_domain_certificate(rep, W, P)
    live = certs <= DOMAIN_CERT_THRESHOLD
    if not np.any(live):
        raise EmptyModelError(
            f"all {len(P)} probes fail the domain certificate "
            f"(min {np.min(certs, initial=np.inf):.2e})")
    B = orthonormalize_columns(rep.realify(P[live]))
    D = rep.realify(compressed_defect_rep(rep, W, rep.unrealify(B)))
    _, sv, Vt = np.linalg.svd(D, full_matrices=False)
    keep = sv <= tol
    if not np.any(keep):
        raise EmptyModelError(
            f"no singular value of the fixed-point defect is <= {tol} "
            f"(smallest {sv.min():.2e})")
    basis = orthonormalize_columns(B @ Vt[keep].T)
    report = ExtractionReport(singular_values=sv, kept=int(basis.shape[1]),
                              discarded_probes=int(np.sum(~live)),
                              certificates=certs.tolist())
    return RealSubspace(rep.space(), basis, check=False), report


@dataclass
class NetEntry:
    region: Region2
    functions: list            # (TestFunction2, summand) pairs
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
        for f, idx in functions:
            if not f.supported_in(W):
                raise SupportError("dictionary member not supported in wedge")
        probes = np.array([embed_probe(self.rep, f, idx) for f, idx in functions])
        K, report = localized_subspace(self.rep, W, probes, self.tol)
        self.entries[self._key(W)] = NetEntry(W, list(functions), K, report)
        return K

    def get(self, W: Region2) -> NetEntry:
        return self.entries[self._key(W)]

    def act_on_subspace(self, g: PoincareElement, K: RealSubspace) -> RealSubspace:
        moved = self.rep.act(g, self.rep.unrealify(K.basis))
        return RealSubspace.from_real_span(K.space, self.rep.realify(moved))


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


def net_checks(net: LocalizedNet, covariance_elements=()) -> dict:
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
            probes = [embed_probe(net.rep, f.transform(g), idx)
                      for f, idx in e.functions]
            try:
                K_gW, _ = localized_subspace(net.rep, gW, probes, net.tol)
            except EmptyModelError:
                continue
            res = subspace_distance(moved, K_gW)
            report["covariance"].append({
                "wedge": net._key(e.region), "element": repr(g),
                "residual": float(res)})
    return report


def doublecone_space(net: LocalizedNet, O: Region2, cone_probes=()):
    """K(O) as the intersection of the two generating wedge models, at
    cos_tol 1e-4.

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
    K = subspace_intersection(eR.subspace, eL.subspace, cos_tol=1e-4)
    # (k, rdim, 1) stack: each residual rounds as if its probe were alone
    V = net.rep.realify(_stack(net.rep, cone_probes)).T[..., None]
    residuals = (np.linalg.norm(V - K.project(V), axis=(1, 2))
                 / np.linalg.norm(V, axis=(1, 2)))
    report = {"dimension": K.dim, "probe_residuals": residuals.tolist(),
              "conditioning_warning": K.dim == 0 and len(residuals) > 0}
    return K, report
