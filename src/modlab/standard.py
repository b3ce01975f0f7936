"""Standard real subspaces and their modular machinery.

A closed real subspace K of C^d is standard when K and iK intersect
trivially and together span everything.  The operator h + ik -> h - ik
on K + iK is then a closed antilinear involution s; its polar parts
s = j delta^(1/2) are the modular conjugation and modular operator.
Everything here is finite-dimensional, so "closed" and "dense" are
rank statements.

s, j, delta and delta^(it) are hilbert.Operator objects, d x d complex
matrices, all read off one complex SVD Z = U diag(sigma) W* of the
Re-orthonormal basis Z = K.basis, sigma descending.  Re(Z* Z) = 1 pairs
the singular values, sigma_k^2 + sigma_(d-1-k)^2 = 2: they are
sqrt(2) cos(theta/2) and sqrt(2) sin(theta/2) for each principal angle
theta between K and iK, and 1 on K cap K'.  With x = Z c = h + ik,
h = Z Re c and k = Z Im c, s x = Z conj(c), so s = Z conj(Z)^(-1) has
the matrix Z conj(W) diag(1/sigma) U^T; delta = s* s is
U diag(sigma_rev / sigma)^2 U*, sigma_rev = sigma reversed, and
j = s delta^(-1/2) is Z conj(W) diag(1/sigma_rev) U^T.  The small
singular values are sines, accurate relative to themselves, so
log delta = 2 (log sigma_rev - log sigma) is formed in the log domain
with no clamp.  Each eigenvalue of delta appears once, with its complex
multiplicity.  d is the row count of a basis; the constructions of
standard subspaces take it as an integer.  Stacks (see hilbert) work in
is_standard, tomita_operator, modular_data, modular_flow,
delta_fixed_space and rotated_standard_subspace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import Operator, RealSubspace, subspace_intersection

__all__ = [
    "StandardnessCertificate", "NotStandardError", "is_standard",
    "tomita_operator", "ModularData", "modular_data", "modular_flow",
    "delta_fixed_space", "Fibers", "fiberize", "reassemble_modular",
    "fiber_standard_subspace", "draw_standard_subspace",
    "rotated_standard_subspace", "random_standard_subspace",
]

EIGENVALUE_ONE_TOL = 1e-10


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


def _certificate(Z, sv) -> StandardnessCertificate:
    """The certificate of a basis Z from its singular values sv (see
    is_standard)."""
    r = np.count_nonzero(np.any(Z != 0, axis=-2), axis=-1)
    rank = np.sum(sv ** 2 > 1e-9, axis=-1)
    inter, total = np.ravel(2 * (r - rank)), np.ravel(2 * rank)
    rdim = 2 * Z.shape[-2]
    i = int(np.argmax((inter != 0) | (total != rdim)))
    return StandardnessCertificate(int(inter[i]), int(total[i]), rdim)


def is_standard(K: RealSubspace):
    """Check K cap iK = 0 and K + iK = everything; returns (bool,
    certificate), of a stack for its first non-standard slice if any.

    The squared singular values of a Re-orthonormal basis Z of K are
    1 +- cos theta_k, theta_k the principal angles between K and iK, so
    dim(K + iK) = 2 rank Z and dim(K cap iK) = 2 (r - rank Z), with r the
    nonzero columns and rank the squared singular values above 1e-9.
    """
    cert = _certificate(K.basis, np.linalg.svd(K.basis, compute_uv=False))
    return cert.standard, cert


@dataclass
class ModularData:
    """Polar pieces of a Tomita operator s = j delta^(1/2), with
    delta = frame diag(exp(log_delta)) frame*, log_delta ascending."""
    s: Operator
    j: Operator
    delta: Operator
    log_delta: np.ndarray
    frame: np.ndarray

    @property
    def log_delta_spectrum(self) -> list:
        """(log eigenvalue, complex multiplicity) pairs of one delta."""
        out = []
        for lg in self.log_delta:
            if out and abs(out[-1][0] - lg) <= 1e-9 * max(1.0, abs(lg)):
                out[-1][1] += 1
            else:
                out.append([float(lg), 1])
        return [tuple(x) for x in out]

    @property
    def condition_number(self):
        return np.exp(self.log_delta[..., -1] - self.log_delta[..., 0])


def modular_data(K: RealSubspace) -> ModularData:
    """The Tomita operator s of a standard K and its polar decomposition
    s = j delta^(1/2), from one SVD of K's basis (see the module
    docstring).  Raises NotStandardError, with the certificate of the
    first non-standard slice of a stack, if K is not standard."""
    Z = K.basis
    U, sv, Wh = np.linalg.svd(Z, full_matrices=False)
    cert = _certificate(Z, sv)
    if not cert.standard:
        raise NotStandardError(cert)
    ZW, Ut = Z @ Wh.swapaxes(-1, -2), U.swapaxes(-1, -2)    # Z conj(W), U^T
    sv_rev = sv[..., ::-1]
    log_delta = 2.0 * (np.log(sv_rev) - np.log(sv))
    s = Operator((ZW / sv[..., None, :]) @ Ut, antilinear=True)
    j = Operator((ZW / sv_rev[..., None, :]) @ Ut, antilinear=True)
    return ModularData(s, j, _spectral(U, np.exp(log_delta)), log_delta, U)


def tomita_operator(K: RealSubspace) -> Operator:
    """The antilinear involution h + ik -> h - ik on K + iK, of a standard
    K: modular_data(K).s."""
    return modular_data(K).s


def _spectral(V, f) -> Operator:
    return Operator((V * f[..., None, :]) @ V.conj().swapaxes(-1, -2))


def modular_flow(md: ModularData, t: float) -> Operator:
    """delta^(it) = U e^(it log lambda) U* as a complex-linear unitary."""
    return _spectral(md.frame, np.exp(1j * t * md.log_delta))


def delta_fixed_space(md: ModularData) -> RealSubspace:
    """The fixed space of delta, of each slice of a stack: the complex span
    of its eigenvectors with |log eigenvalue| within EIGENVALUE_ONE_TOL."""
    W = md.frame * (np.abs(md.log_delta) <= EIGENVALUE_ONE_TOL)[..., None, :]
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
    its modular data.  Each eigenvector v of delta with log eigenvalue
    log lambda below -EIGENVALUE_ONE_TOL is one fiber, of angle theta with
    tan^2(theta/2) = lambda; the theta values coincide with the principal
    angles between K and iK.  The rest span delta_fixed_space."""
    md = modular_data(K)
    k = np.count_nonzero(md.log_delta < -EIGENVALUE_ONE_TOL)
    v, t = md.frame[:, :k], np.exp(0.5 * md.log_delta[:k])   # ascending
    jv, scale = md.j.apply(v), 1.0 / np.sqrt(1.0 + t * t)
    fixed = subspace_intersection(K, delta_fixed_space(md))
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
    return RealSubspace(U @ fibers)


def random_standard_subspace(d: int, rng: np.random.Generator) -> RealSubspace:
    """A random rotation of a random fiber construction in C^d."""
    return rotated_standard_subspace(*draw_standard_subspace(d, rng))
