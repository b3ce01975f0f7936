"""Standard real subspaces and their modular machinery.

A closed real subspace K of C^d is standard when K and iK intersect
trivially and together span everything.  The operator h + ik -> h - ik
on K + iK is then a closed antilinear involution s; its polar parts
s = j delta^(1/2) are the modular conjugation and modular operator.
Everything here is finite-dimensional, so "closed" and "dense" are
rank statements.

s, j, delta and delta^(it) are hilbert.Operator objects, d x d complex
matrices.  With Z = K.basis, the columns of a real basis of K (a
complex basis of C^d when K is standard), x = Z c splits as h + ik with
h = Z Re c and k = Z Im c, so s x = Z conj(c) and s = Z conj(Z)^(-1).
Each eigenvalue of delta appears once, with its complex multiplicity.
d is the row count of a basis; the constructions of standard subspaces
take it as an integer.  Stacks (see hilbert) work in is_standard,
tomita_operator, modular_data, modular_flow, delta_fixed_space and
rotated_standard_subspace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import (
    Operator,
    RealSubspace,
    operator_norm,
    subspace_intersection,
)

__all__ = [
    "StandardnessCertificate", "NotStandardError", "is_standard",
    "tomita_operator", "ModularData", "modular_data", "modular_flow",
    "delta_fixed_space", "Fibers", "fiberize", "reassemble_modular",
    "fiber_standard_subspace", "draw_standard_subspace",
    "rotated_standard_subspace", "random_standard_subspace",
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
    """Check K cap iK = 0 and K + iK = everything; returns (bool,
    certificate), of a stack for its first non-standard slice if any.

    The squared singular values of a Re-orthonormal basis Z of K are
    1 +- cos theta_k, theta_k the principal angles between K and iK, so
    dim(K + iK) = 2 rank Z and dim(K cap iK) = 2 (r - rank Z), with r the
    nonzero columns and rank the squared singular values above 1e-9.
    """
    Z = K.basis
    r = np.count_nonzero(np.any(Z != 0, axis=-2), axis=-1)
    rank = np.sum(np.linalg.svd(Z, compute_uv=False) ** 2 > 1e-9, axis=-1)
    inter, total = np.ravel(2 * (r - rank)), np.ravel(2 * rank)
    rdim = 2 * Z.shape[-2]
    i = int(np.argmax((inter != 0) | (total != rdim)))
    cert = StandardnessCertificate(int(inter[i]), int(total[i]), rdim)
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
    Zt = K.basis.swapaxes(-1, -2)
    S = np.linalg.solve(Zt.conj(), Zt).swapaxes(-1, -2)   # S conj(Z) = Z
    return Operator(S, antilinear=True)


@dataclass
class ModularData:
    """Polar pieces of a Tomita operator s = j delta^(1/2)."""
    s: Operator
    j: Operator
    delta: Operator
    # eigendecomposition of delta, kept for spectral calculus
    _eigenvalues: np.ndarray
    _eigenvectors: np.ndarray

    @property
    def log_delta_spectrum(self) -> list:
        """(log eigenvalue, complex multiplicity) pairs of one delta."""
        out = []
        for lg in np.log(self._eigenvalues):
            if out and abs(out[-1][0] - lg) <= 1e-9 * max(1.0, abs(lg)):
                out[-1][1] += 1
            else:
                out.append([float(lg), 1])
        return [tuple(x) for x in out]

    @property
    def condition_number(self):
        return self._eigenvalues[..., -1] / self._eigenvalues[..., 0]


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
    invol = operator_norm(S @ S.conj() - np.eye(S.shape[-1]))
    if np.any(invol > 1e-8 * np.maximum(1.0, operator_norm(S) ** 2)):
        raise ValueError(f"not an involution: ||s^2 - 1|| = {np.max(invol):.2e}")
    D = S.swapaxes(-1, -2) @ S.conj()
    D = 0.5 * (D + D.conj().swapaxes(-1, -2))
    ev, V = np.linalg.eigh(D)
    low = ev[..., 0]
    if np.any((low <= 0) | (low < EIGENVALUE_CLAMP * ev[..., -1])):
        raise np.linalg.LinAlgError(
            f"singular Tomita operator: delta eigenvalue {np.min(low):.3e}")
    ev = np.clip(ev, EIGENVALUE_CLAMP, None)
    j = s @ _spectral(V, ev ** -0.5)
    return ModularData(s, j, Operator(D), ev, V)


def _spectral(V, f) -> Operator:
    return Operator((V * f[..., None, :]) @ V.conj().swapaxes(-1, -2))


def modular_flow(md: ModularData, t: float) -> Operator:
    """delta^(it) = V e^(it log lambda) V* as a complex-linear unitary."""
    return _spectral(md._eigenvectors, np.exp(1j * t * np.log(md._eigenvalues)))


def delta_fixed_space(md: ModularData) -> RealSubspace:
    """The fixed space of delta, of each slice of a stack: the complex span
    of its eigenvectors with eigenvalue within EIGENVALUE_ONE_TOL of 1."""
    W = md._eigenvectors * (np.abs(md._eigenvalues - 1.0)
                            <= EIGENVALUE_ONE_TOL)[..., None, :]
    return RealSubspace.span(np.concatenate([W, 1j * W], axis=-1))


@dataclass
class Fibers:
    """The angle canonical form of a standard K.  Column i of the (d, k)
    blocks v, jv, y_plus and y_minus belongs to the angle theta[i],
    ascending: delta is diag(tan^2(theta/2), tan^(-2)(theta/2)) on the
    frame (v, jv), where y_plus and y_minus generate the trace of K.
    fixed = K cap K', and md is the modular data decomposed."""
    theta: np.ndarray
    v: np.ndarray
    jv: np.ndarray
    y_plus: np.ndarray
    y_minus: np.ndarray
    fixed: RealSubspace
    md: ModularData


def fiberize(K: RealSubspace) -> Fibers:
    """Decompose a standard K into angle fibers plus its fixed part, from
    one diagonalization of delta.  Each eigenvector v with eigenvalue
    lambda below 1 - EIGENVALUE_ONE_TOL is one fiber, of angle theta with
    tan^2(theta/2) = lambda; the theta values coincide with the principal
    angles between K and iK.  The rest span delta_fixed_space."""
    md = modular_data(tomita_operator(K))
    k = np.count_nonzero(md._eigenvalues < 1.0 - EIGENVALUE_ONE_TOL)
    lam, v = md._eigenvalues[:k], md._eigenvectors[:, :k]   # ascending
    jv, t = md.j.apply(v), np.sqrt(lam)
    scale = 1.0 / np.sqrt(1.0 + lam)
    fixed = subspace_intersection(K, delta_fixed_space(md), cos_tol=1e-8)
    return Fibers(2.0 * np.arctan(t), v, jv, scale * (v + t * jv),
                  scale * 1j * (v - t * jv), fixed, md)


def reassemble_modular(fibers: Fibers):
    """The complex matrices (J, D) of (j, delta), j acting as x -> J conj(x):
    on W = (v, jv, F), F the real orthonormal basis of the fixed part
    (complex-orthonormal, since Im<h, k> = 0 on K cap K'), delta is
    diag(lambda, 1/lambda, 1) and j maps W to (jv, v, F)."""
    F = fibers.fixed.basis
    lam = np.tan(fibers.theta / 2.0) ** 2
    W = np.hstack([fibers.v, fibers.jv, F])
    w = np.concatenate([lam, 1.0 / lam, np.ones(F.shape[-1])])
    return np.hstack([fibers.jv, fibers.v, F]) @ W.T, (W * w) @ W.conj().T


# -- constructions of standard subspaces -------------------------------

def fiber_standard_subspace(d: int, thetas, n_fixed: int = 0) -> RealSubspace:
    """Standard K assembled from angle fibers on coordinate pairs.

    Each theta in (0, pi/2) consumes two complex dimensions, spanned by
    y_plus = (cos(theta/2), sin(theta/2)) and
    y_minus = (i cos(theta/2), -i sin(theta/2)) on its pair; n_fixed
    trailing coordinates contribute real-form directions e_k (angle pi/2,
    delta = 1 there).
    """
    thetas = np.asarray(thetas, dtype=float)
    if 2 * len(thetas) + n_fixed != d:
        raise ValueError(f"2*{len(thetas)} + {n_fixed} != dim {d}")
    if not np.all((0.0 < thetas) & (thetas < np.pi / 2)):
        raise ValueError(f"theta must lie in (0, pi/2), got {thetas}")
    B = np.zeros((d, d), dtype=complex)
    i = 2 * np.arange(len(thetas))
    c, s_ = np.cos(thetas / 2.0), np.sin(thetas / 2.0)
    B[i, i], B[i + 1, i] = c, s_                          # y_plus
    B[i, i + 1], B[i + 1, i + 1] = 1j * c, -1j * s_       # y_minus
    k = np.arange(2 * len(thetas), d)
    B[k, k] = 1.0                                         # e_k
    return RealSubspace(B)


def draw_standard_subspace(d: int, rng: np.random.Generator):
    """The draws of random_standard_subspace in rng order: a fiber basis
    with angles in [0.15, pi/2 - 0.05], away from the degenerate ends so
    that the Tomita machinery stays well conditioned, and a complex
    Gaussian d x d matrix."""
    n_fixed = int(rng.integers(0, 2)) if d >= 3 else d % 2
    if (d - n_fixed) % 2 == 1:
        n_fixed += 1
    thetas = rng.uniform(0.15, np.pi / 2 - 0.05, size=(d - n_fixed) // 2)
    Z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return fiber_standard_subspace(d, thetas, n_fixed).basis, Z


def rotated_standard_subspace(fibers, Z) -> RealSubspace:
    """The fiber basis rotated by the Haar-ish unitary of the complex QR
    of Z; every angle spectrum is reachable.  Takes stacks of both."""
    Q, R = np.linalg.qr(Z)
    diag = np.diagonal(R, axis1=-2, axis2=-1)
    U = Q * (diag / np.abs(diag))[..., None, :]
    return RealSubspace.span(U @ fibers)


def random_standard_subspace(d: int, rng: np.random.Generator) -> RealSubspace:
    """A random rotation of a random fiber construction in C^d."""
    return rotated_standard_subspace(*draw_standard_subspace(d, rng))
