"""Standard real subspaces and their modular machinery.

A closed real subspace K of C^d is standard when K and iK intersect
trivially and together span everything.  The operator h + ik -> h - ik
on K + iK is then a closed antilinear involution s; its polar parts
s = j delta^(1/2) are the modular conjugation and modular operator.
Everything here is finite-dimensional, so "closed" and "dense" are
rank statements.

s, j, delta and delta^(it) are hilbert.Operator objects, d x d complex
matrices.  With Z the matrix whose columns are a real basis of K (a
complex basis of C^d when K is standard), x = Z c splits as h + ik with
h = Z Re c and k = Z Im c, so s x = Z conj(c) and s = Z conj(Z)^(-1).
Each eigenvalue of delta appears once, with its complex multiplicity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hilbert import (
    ComplexVectorSpace,
    Operator,
    RealSubspace,
    orthonormalize_columns,
    subspace_intersection,
    subspace_sum,
)

__all__ = [
    "StandardnessCertificate", "NotStandardError", "is_standard",
    "tomita_operator", "ModularData", "modular_data", "modular_flow",
    "FiberBlock", "fiberize", "reassemble_modular",
    "fiber_standard_subspace", "random_standard_subspace",
]

EIGENVALUE_ONE_TOL = 1e-10
EIGENVALUE_CLAMP = 1e-14


@dataclass
class StandardnessCertificate:
    """Ranks behind a standardness verdict."""
    dim_intersection: int      # dim_R (K  cap  iK), must be 0
    dim_sum: int               # dim_R (K + iK), must be 2d
    rdim: int

    @property
    def standard(self) -> bool:
        return self.dim_intersection == 0 and self.dim_sum == self.rdim


class NotStandardError(ValueError):
    def __init__(self, certificate: StandardnessCertificate):
        self.certificate = certificate
        super().__init__(
            f"subspace is not standard: dim(K cap iK) = "
            f"{certificate.dim_intersection}, dim(K + iK) = "
            f"{certificate.dim_sum} of {certificate.rdim}")


def is_standard(K: RealSubspace):
    """Check K cap iK = 0 and K + iK = everything; returns (bool, certificate)."""
    iK = K.mult_i()
    inter = subspace_intersection(K, iK, cos_tol=1e-9)
    total = subspace_sum(K, iK)
    cert = StandardnessCertificate(inter.dim, total.dim, K.space.rdim)
    return cert.standard, cert


def tomita_operator(K: RealSubspace) -> Operator:
    """The antilinear involution h + ik -> h - ik on K + iK.

    Requires K standard; then every x decomposes uniquely as h + ik with
    h, k in K and the map is defined on all of C^d.  Its matrix is
    S = Z conj(Z)^(-1), Z the basis of K as complex columns.
    """
    ok, cert = is_standard(K)
    if not ok:
        raise NotStandardError(cert)
    Z = K.complex_vectors().T
    S = np.linalg.solve(Z.conj().T, Z.T).T      # S conj(Z) = Z
    return Operator(S, antilinear=True)


@dataclass
class ModularData:
    """Polar pieces of a Tomita operator s = j delta^(1/2)."""
    s: Operator
    j: Operator
    delta: Operator
    log_delta_spectrum: list = field(default_factory=list)  # (log eigenvalue, complex multiplicity)
    condition_number: float = 1.0
    # eigendecomposition of delta, kept for spectral calculus
    _eigenvalues: np.ndarray = None
    _eigenvectors: np.ndarray = None


def modular_data(s: Operator) -> ModularData:
    """Polar decomposition s = j delta^(1/2) of a Tomita operator.

    delta = s* s, with matrix S^T conj(S), is complex-linear and positive;
    j = s delta^(-1/2) is an antiunitary involution.  Eigenvalues of delta
    are clamped below at 1e-14 and the condition number is reported.
    """
    if not s.antilinear:
        raise ValueError("modular_data expects an antilinear map")
    S = s.matrix
    # s^2 = 1 on the whole space is the finite-dimensional Tomita property
    invol = np.linalg.norm(S @ S.conj() - np.eye(S.shape[0]), 2)
    if invol > 1e-8 * max(1.0, np.linalg.norm(S, 2) ** 2):
        raise ValueError(f"not an involution: ||s^2 - 1|| = {invol:.2e}")
    D = S.T @ S.conj()
    D = 0.5 * (D + D.conj().T)
    ev, V = np.linalg.eigh(D)
    if ev[0] <= 0 or ev[0] < EIGENVALUE_CLAMP * ev[-1]:
        raise np.linalg.LinAlgError(
            f"singular Tomita operator: delta eigenvalue {ev[0]:.3e}")
    ev = np.clip(ev, EIGENVALUE_CLAMP, None)
    j = s @ Operator((V * ev ** -0.5) @ V.conj().T)
    return ModularData(s=s, j=j, delta=Operator(D),
                       log_delta_spectrum=_spectrum_with_multiplicity(ev),
                       condition_number=float(ev[-1] / ev[0]),
                       _eigenvalues=ev, _eigenvectors=V)


def _spectrum_with_multiplicity(ev):
    """Group the eigenvalues of delta into (log eigenvalue, multiplicity)."""
    out = []
    for lg in np.log(ev):
        if out and abs(out[-1][0] - lg) <= 1e-9 * max(1.0, abs(lg)):
            out[-1][1] += 1
        else:
            out.append([float(lg), 1])
    return [tuple(x) for x in out]


def modular_flow(md: ModularData, t: float) -> Operator:
    """delta^(it) = V e^(it log lambda) V* as a complex-linear unitary."""
    V = md._eigenvectors
    return Operator((V * np.exp(1j * t * np.log(md._eigenvalues))) @ V.conj().T)


@dataclass
class FiberBlock:
    """One 2-complex-dimensional block of the angle canonical form.

    On the frame (v, jv) the modular operator acts as
    diag(tan^2(theta/2), tan^(-2)(theta/2)) and the trace of K on the
    block is generated by y_plus and y_minus.  The vectors are complex
    arrays of length d.
    """
    theta: float
    frame: tuple            # (v, jv)
    y_plus: np.ndarray
    y_minus: np.ndarray


def fiberize(K: RealSubspace):
    """Decompose a standard K into angle fibers plus its fixed part.

    Returns (blocks, fixed_part) with fixed_part = K cap K' (the part on
    which delta acts trivially; eigenvalues within EIGENVALUE_ONE_TOL of 1
    are assigned to it).  Each eigenvector v of delta with eigenvalue
    lambda < 1 gives one block, with frame (v, jv) and the angle theta
    with tan^2(theta/2) = lambda, in ascending order; the theta values
    coincide with the principal angles between K and iK.
    """
    md = modular_data(tomita_operator(K))
    space = K.space
    ev, V = md._eigenvalues, md._eigenvectors
    blocks = []
    for lam, v in zip(ev, V.T):
        if lam >= 1.0 - EIGENVALUE_ONE_TOL:
            break
        jv = md.j.apply(v)
        t = np.sqrt(lam)
        scale = 1.0 / np.sqrt(1.0 + lam)
        blocks.append(FiberBlock(theta=2.0 * np.arctan(t), frame=(v, jv),
                                 y_plus=scale * (v + t * jv),
                                 y_minus=scale * 1j * (v - t * jv)))
    # fixed part: delta-eigenvalue-1 sector intersected with K
    W = V[:, np.abs(ev - 1.0) <= EIGENVALUE_ONE_TOL]
    E1 = RealSubspace.from_real_span(space,
                                     space.realify(np.hstack([W, 1j * W])))
    return blocks, subspace_intersection(K, E1, cos_tol=1e-8)


def reassemble_modular(space: ComplexVectorSpace, blocks, fixed_part: RealSubspace):
    """Rebuild the complex matrices (J, D) of (j, delta) from fiber blocks
    and the fixed part; j acts as x -> J conj(x).

    On each block frame (v, jv): delta has eigenvalue tan^2(theta/2) on v
    and its inverse on jv, and j swaps v and jv.  On the fixed part delta
    = 1 and j is the conjugation fixing it; its real orthonormal basis F
    is complex-orthonormal, since Im<h, k> = 0 on K cap K'.
    """
    D = np.zeros((space.dim, space.dim), dtype=complex)
    J = np.zeros((space.dim, space.dim), dtype=complex)
    for b in blocks:
        v, jv = b.frame
        lam = np.tan(b.theta / 2.0) ** 2
        D += lam * np.outer(v, v.conj()) + (1.0 / lam) * np.outer(jv, jv.conj())
        J += np.outer(jv, v) + np.outer(v, jv)
    F = fixed_part.complex_vectors().T
    D += F @ F.conj().T
    J += F @ F.T
    return J, D


# -- constructions of standard subspaces -------------------------------

def fiber_standard_subspace(space: ComplexVectorSpace, thetas,
                            n_fixed: int = 0) -> RealSubspace:
    """Standard K assembled from angle fibers on coordinate pairs.

    Each theta in (0, pi/2) consumes two complex dimensions, spanned by
    y_plus = (cos(theta/2), sin(theta/2)) and
    y_minus = (i cos(theta/2), -i sin(theta/2)) on its pair; n_fixed
    trailing coordinates contribute real-form directions e_k (angle pi/2,
    delta = 1 there).
    """
    thetas = list(thetas)
    need = 2 * len(thetas) + n_fixed
    if need != space.dim:
        raise ValueError(f"2*{len(thetas)} + {n_fixed} != dim {space.dim}")
    vecs = []
    for i, th in enumerate(thetas):
        if not 0.0 < th < np.pi / 2:
            raise ValueError(f"theta must lie in (0, pi/2), got {th}")
        c, s_ = np.cos(th / 2.0), np.sin(th / 2.0)
        yp = np.zeros(space.dim, dtype=complex)
        ym = np.zeros(space.dim, dtype=complex)
        yp[2 * i], yp[2 * i + 1] = c, s_
        ym[2 * i], ym[2 * i + 1] = 1j * c, -1j * s_
        vecs += [yp, ym]
    for k in range(n_fixed):
        e = np.zeros(space.dim, dtype=complex)
        e[2 * len(thetas) + k] = 1.0
        vecs.append(e)
    return RealSubspace.from_complex_vectors(space, vecs)


def random_standard_subspace(space: ComplexVectorSpace,
                             rng: np.random.Generator) -> RealSubspace:
    """Random standard subspace with principal angles in
    [0.15, pi/2 - 0.05], away from the degenerate ends, so the Tomita
    machinery stays well conditioned.

    Built as a random unitary rotation of a fiber construction; every
    angle spectrum in the range is reachable.
    """
    d = space.dim
    n_fixed = int(rng.integers(0, 2)) if d >= 3 else d % 2
    if (d - n_fixed) % 2 == 1:
        n_fixed += 1
    n_blocks = (d - n_fixed) // 2
    thetas = rng.uniform(0.15, np.pi / 2 - 0.05, size=n_blocks)
    K0 = fiber_standard_subspace(space, thetas, n_fixed)
    # Haar-ish unitary from a complex Gaussian QR
    Z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(Z)
    Q = Q * (np.diag(R) / np.abs(np.diag(R)))
    U = Operator(Q).realified()
    return RealSubspace(space, orthonormalize_columns(U @ K0.basis),
                        check=False)
