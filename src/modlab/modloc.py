"""Wedge localization from a Poincare representation alone.

Given the (anti)unitary positive-energy representation carried by one
or more mass summands, each wedge W = g W_R gets the prescription
j_W = u(r_W), delta_W^(it) = u(Lambda_W(t)), s_W = j_W delta_W^(1/2),
realized by transporting the origin right-wedge operators with u(g),
g the wedge's frame (freefield.Region2.frame).  The localized space
K_W is the fixed-point set of s_W; its finite model is extracted from
the embeddings of a dictionary of test functions by singular-value
thresholding of (s_W - 1) on their real span, at the fixed threshold
EXTRACTION_TOL.  A net maps each wedge, a Region2, to its model.  A
double cone is the intersection of a right and a left wedge, and its
model the intersection of their models.

A direct-sum vector is a complex array (n_summands, n_points), one row
per summand; a probe dictionary is a stack (k, n_summands, n_points).
As the basis of a hilbert.RealSubspace the stack is reshaped to complex
columns (n_summands n_points, k), and back.  The spectral kernels
of the origin right wedge are freefield's, applied on the shared rapidity
grid to every row at once; this module has none of its own.  Extraction
pulls the probes into the wedge frame once, works there, and pushes
only the kept basis back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .freefield import (
    DOMAIN_CERT_THRESHOLD, PoincareElement, Region2, SupportError,
    TestFunction2, compressed_fixed_defect, domain_certificate, embed,
    poincare_act,
)
from .hilbert import (
    RealSubspace, inclusion_residual,
    orthonormalize_columns, real_svd, subspace_distance,
    subspace_intersection, subspace_sum,
)

__all__ = [
    "EXTRACTION_TOL", "PoincareRep2", "EmptyModelError", "ExtractionReport",
    "localized_subspace",
    "LocalizedNet", "net_checks", "doublecone_space", "embed_probe",
]

EXTRACTION_TOL = 0.05       # largest singular value of (s_W - 1) P kept


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

    def act(self, g: PoincareElement, X) -> np.ndarray:
        """u(g) on a vector or a stack (..., n_summands, n_points)."""
        return np.stack([poincare_act(g, X[..., i, :], m)
                         for i, m in enumerate(self.models)], axis=-2)


def _stack(rep: PoincareRep2, probes) -> np.ndarray:
    return np.reshape(probes, (-1, rep.n_summands, rep.grid.n_points))


def _columns(X) -> np.ndarray:
    """Columns (n_summands n_points, k) of a stack; _stack(rep, _.T) inverts."""
    return np.reshape(X, (len(X), np.prod(X.shape[1:], dtype=int))).T


def embed_probe(rep: PoincareRep2, f: TestFunction2, summand: int = 0) -> np.ndarray:
    """Embed a test function into one summand, zero elsewhere."""
    X = np.zeros((rep.n_summands, rep.grid.n_points), dtype=complex)
    X[summand] = embed(f, rep.models[summand]).values
    return X


@dataclass
class ExtractionReport:
    singular_values: np.ndarray
    discarded_probes: int
    fallback_used: bool = False         # no fallback exists; always False
    certificates: list = field(default_factory=list)


def localized_subspace(rep: PoincareRep2, W: Region2, probes):
    """Finite model of K_W = {h in D(s_W): s_W h = h}.

    The probes are pulled into the frame of W = g W_R once, where s_W is
    freefield's origin right-wedge operator.  Probes whose domain
    certificate there exceeds DOMAIN_CERT_THRESHOLD are discarded.  On
    the real span of the survivors the band-compressed defect
    (s_W - 1) P is assembled; its kernel directions, of singular value
    at most EXTRACTION_TOL, form the model, which u(g) pushes back out.
    The stored basis consists of raw probe combinations, so models over
    matched dictionaries are directly comparable across wedges.
    EmptyModelError is raised when every probe fails the certificate or
    no singular value is at most EXTRACTION_TOL.

    Returns (RealSubspace over the summed grid space, ExtractionReport).
    """
    g = W.frame
    P = rep.act(g.inv(), _stack(rep, probes))
    certs = np.max(domain_certificate(P, rep.grid), axis=-1)
    live = certs <= DOMAIN_CERT_THRESHOLD
    if not np.any(live):
        raise EmptyModelError(
            f"all {len(P)} probes fail the domain certificate "
            f"(min {np.min(certs, initial=np.inf):.2e})")
    B = orthonormalize_columns(_columns(P[live]))
    sv, Vt = real_svd(_columns(compressed_fixed_defect(_stack(rep, B.T),
                                                       rep.grid)))
    keep = sv <= EXTRACTION_TOL
    if not np.any(keep):
        raise EmptyModelError(
            f"no singular value of the fixed-point defect is <= "
            f"{EXTRACTION_TOL} (smallest {sv.min():.2e})")
    # u(g) is real-orthogonal: the pushed columns stay orthonormal
    basis = _columns(rep.act(g, _stack(rep, (B @ Vt[keep].T).T)))
    report = ExtractionReport(singular_values=sv,
                              discarded_probes=int(np.sum(~live)),
                              certificates=certs.tolist())
    return RealSubspace(basis), report


@dataclass
class NetEntry:
    functions: list            # TestFunction2s supported in its wedge
    subspace: RealSubspace
    report: ExtractionReport


class LocalizedNet:
    """Map from wedges (Region2) to finite K-models."""

    def __init__(self, rep: PoincareRep2):
        self.rep = rep
        self.entries = {}

    def populate_wedge(self, W: Region2, functions):
        """K(W) from test functions supported in W, put in summand 0."""
        for f in functions:
            if not f.supported_in(W):
                raise SupportError("dictionary member not supported in wedge")
        probes = np.array([embed_probe(self.rep, f) for f in functions])
        K, report = localized_subspace(self.rep, W, probes)
        self.entries[W] = NetEntry(list(functions), K, report)
        return K

    def act_on_subspace(self, g: PoincareElement, K: RealSubspace) -> RealSubspace:
        moved = self.rep.act(g, _stack(self.rep, K.basis.T))
        return RealSubspace(_columns(moved))    # u(g) keeps them orthonormal


def _complement_within_span(joint: RealSubspace, K: RealSubspace) -> RealSubspace:
    """Vectors of the joint span symplectically orthogonal to K, taking
    the generic dimension dim(joint) - dim(K)."""
    # the locality pairing Im<k, x>: constraints  x  joint coords
    C = (K.basis.conj().T @ joint.basis).imag
    _, _, Vt = np.linalg.svd(C, full_matrices=True)
    # orthonormal columns times the orthonormal real rows of Vt
    return RealSubspace(joint.basis @ Vt[K.dim:].T)


def net_checks(net: LocalizedNet, covariance_elements=()) -> dict:
    """Isotony, duality, and covariance residuals over the stored wedges.

    Covariance: for each group element g and each wedge W, compares
    u(g) K(W) against the model built from the geometrically transported
    dictionary of W.  A transported dictionary with no model for gW
    gives a row of residual 1.0 with the error text.
    """
    entries = list(net.entries.items())
    report = {"isotony": [], "duality": [], "covariance": []}

    for W1, e1 in entries:
        for W2, e2 in entries:
            if e1 is e2 or not W2.includes(W1):
                continue
            res = inclusion_residual(e1.subspace, e2.subspace)
            report["isotony"].append({
                "small": W1, "large": W2, "residual": float(res)})

    for W, e in entries:
        ec = net.entries.get(W.causal_complement())
        if ec is None:
            continue
        joint = subspace_sum(e.subspace, ec.subspace)
        modeled = _complement_within_span(joint, e.subspace)
        res = subspace_distance(modeled, ec.subspace)
        report["duality"].append({"wedge": W, "residual": float(res)})

    for g in covariance_elements:
        for W, e in entries:
            moved = net.act_on_subspace(g, e.subspace)
            probes = [embed_probe(net.rep, f.transform(g)) for f in e.functions]
            row = {"wedge": W, "element": repr(g)}
            try:
                K_gW, _ = localized_subspace(net.rep, W.transform(g), probes)
                row["residual"] = float(subspace_distance(moved, K_gW))
            except EmptyModelError as exc:
                row.update(residual=1.0, error=str(exc))
            report["covariance"].append(row)
    return report


def doublecone_space(net: LocalizedNet, O: Region2, cone_probes=()):
    """K(O) as the intersection of the models of the right and the left
    wedge of O, at cos_tol 1e-4.

    Requires both wedges of O in the net.  Returns (subspace, residuals):
    the relative projection residuals of the given cone-supported probes
    against the intersection, one per probe.
    """
    if not O.is_double_cone:
        raise ValueError(f"not a right and a left wedge: {O}")
    try:
        K1, K2 = (net.entries[W].subspace for W in O.wedges)
    except KeyError as exc:
        raise ValueError(f"generating wedge missing from the net: {exc}")
    K = subspace_intersection(K1, K2, cos_tol=1e-4)
    # (k, dim, 1) stack: each residual rounds as if its probe were alone
    V = _columns(_stack(net.rep, cone_probes)).T[..., None]
    residuals = (np.linalg.norm(V - K.project(V), axis=(1, 2))
                 / np.linalg.norm(V, axis=(1, 2)))
    return K, residuals.tolist()
