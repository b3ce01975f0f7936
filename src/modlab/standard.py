"""Standard real subspaces and their modular machinery.

A closed real subspace K of C^d is standard when K and iK intersect
trivially and together span everything.  The operator h + ik -> h - ik
on K + iK is then a closed antilinear involution s; its polar parts
s = j delta^(1/2) are the modular conjugation and modular operator.
Everything here is finite-dimensional, so "closed" and "dense" are
rank statements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hilbert import (
    ComplexVector,
    ComplexVectorSpace,
    LinearityError,
    RealLinearMap,
    RealSubspace,
    orthonormalize_columns,
    subspace_intersection,
    subspace_sum,
    times_i,
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


def is_standard(K: RealSubspace, cos_tol: float = 1e-9):
    """Check K cap iK = 0 and K + iK = everything; returns (bool, certificate)."""
    iK = K.mult_i()
    inter = subspace_intersection(K, iK, cos_tol=cos_tol)
    total = subspace_sum(K, iK)
    cert = StandardnessCertificate(inter.dim, total.dim, K.space.rdim)
    return cert.standard, cert


def tomita_operator(K: RealSubspace) -> RealLinearMap:
    """The antilinear involution h + ik -> h - ik on K + iK.

    Requires K standard; then every x decomposes uniquely as h + ik with
    h, k in K and the map is defined on all of C^d.
    """
    ok, cert = is_standard(K)
    if not ok:
        raise NotStandardError(cert)
    B = K.basis
    iB = times_i(B)
    P = np.hstack([B, iB])             # x = B u + (iB) v
    Q = np.hstack([B, -iB])            # s x = B u - (iB) v
    S = Q @ np.linalg.solve(P, np.eye(P.shape[0]))
    return RealLinearMap(K.space, S, "antilinear", check=False)


@dataclass
class ModularData:
    """Polar pieces of a Tomita operator s = j delta^(1/2)."""
    s: RealLinearMap
    j: RealLinearMap
    delta: RealLinearMap
    log_delta_spectrum: list = field(default_factory=list)  # (log eigenvalue, complex multiplicity)
    condition_number: float = 1.0
    # realified eigendecomposition of delta, kept for spectral calculus
    _eigenvalues: np.ndarray = None
    _eigenvectors: np.ndarray = None

    def delta_power(self, p: float) -> RealLinearMap:
        """delta^p by spectral calculus (complex-linear, positive)."""
        M = (self._eigenvectors * self._eigenvalues ** p) @ self._eigenvectors.T
        return RealLinearMap(self.s.space, M, "linear", check=False)


def modular_data(s: RealLinearMap) -> ModularData:
    """Polar decomposition s = j delta^(1/2) of a Tomita operator.

    delta = s* s is complex-linear and positive; j = s delta^(-1/2) is an
    antiunitary involution.  Eigenvalues of delta are clamped below at
    1e-14 and the condition number is reported.
    """
    if s.kind != "antilinear":
        raise LinearityError("modular_data expects an antilinear map")
    space = s.space
    M = s.matrix
    # s^2 = 1 on the whole space is the finite-dimensional Tomita property
    invol = np.linalg.norm(M @ M - np.eye(space.rdim), 2)
    if invol > 1e-8 * max(1.0, np.linalg.norm(M, 2) ** 2):
        raise ValueError(f"not an involution: ||s^2 - 1|| = {invol:.2e}")
    D = M.T @ M
    D = 0.5 * (D + D.T)
    ev, V = np.linalg.eigh(D)
    if ev[0] <= 0 or ev[0] < EIGENVALUE_CLAMP * ev[-1]:
        raise np.linalg.LinAlgError(
            f"singular Tomita operator: delta eigenvalue {ev[0]:.3e}")
    ev = np.clip(ev, EIGENVALUE_CLAMP, None)
    cond = float(ev[-1] / ev[0])
    Mj = M @ ((V * ev ** -0.5) @ V.T)
    delta = RealLinearMap(space, D, "linear", check=False)
    j = RealLinearMap(space, Mj, "antilinear", check=False)
    md = ModularData(s=s, j=j, delta=delta,
                     log_delta_spectrum=_spectrum_with_multiplicity(ev),
                     condition_number=cond)
    md._eigenvalues = ev
    md._eigenvectors = V
    return md


def _spectrum_with_multiplicity(ev, rel_tol=1e-9):
    """Group realified eigenvalues; complex multiplicity is half the real one."""
    out = []
    logs = np.log(ev)
    for lg in logs:
        if out and abs(out[-1][0] - lg) <= rel_tol * max(1.0, abs(lg)):
            out[-1][1] += 1
        else:
            out.append([float(lg), 1])
    return [(lg, cnt // 2) for lg, cnt in out]


def modular_flow(md: ModularData, t: float) -> RealLinearMap:
    """delta^(it) as a complex-linear unitary, by spectral calculus.

    cos and sin of t log(delta) are assembled on the realification and
    combined through the complex structure.
    """
    ev, V = md._eigenvalues, md._eigenvectors
    logev = np.log(ev)
    C = (V * np.cos(t * logev)) @ V.T
    S = (V * np.sin(t * logev)) @ V.T
    return RealLinearMap(md.s.space, C + times_i(S), "linear", check=False)


@dataclass
class FiberBlock:
    """One 2-complex-dimensional block of the angle canonical form.

    On the frame (v, jv) the modular operator acts as
    diag(tan^2(theta/2), tan^(-2)(theta/2)) and the trace of K on the
    block is generated by y_plus and y_minus.
    """
    theta: float
    frame: tuple            # (v, jv) as ComplexVector
    y_plus: ComplexVector
    y_minus: ComplexVector


def fiberize(K: RealSubspace, one_tol: float = EIGENVALUE_ONE_TOL):
    """Decompose a standard K into angle fibers plus its fixed part.

    Returns (blocks, fixed_part) with fixed_part = K cap K' (the part on
    which delta acts trivially; eigenvalues within one_tol of 1 are
    assigned to it).  Each block contributes the angle theta with
    tan^2(theta/2) the small delta eigenvalue of the fiber; the theta
    values coincide with the principal angles between K and iK.
    """
    s = tomita_operator(K)
    md = modular_data(s)
    space = K.space
    ev, V = md._eigenvalues, md._eigenvectors
    jmat = md.j.matrix

    small = ev < 1.0 - one_tol
    blocks = []
    if np.any(small):
        # Group the realified eigenvectors of each eigenvalue < 1 into
        # complex lines: the eigenspace is Jc-invariant, so pick an
        # orthonormal set closed under Jc by alternating v, i v.
        idx = np.where(small)[0]
        groups = _group_by_value(ev[idx])
        pos = 0
        for val, cnt in groups:
            W = V[:, idx[pos:pos + cnt]]
            pos += cnt
            lines = _complex_lines(W)
            lam = float(val)
            t = np.sqrt(lam)
            theta = 2.0 * np.arctan(t)
            scale = 1.0 / np.sqrt(1.0 + lam)
            for v_r in lines:
                jv_r = jmat @ v_r
                y_plus_r = scale * (v_r + t * jv_r)
                y_minus_r = scale * times_i(v_r - t * jv_r)
                blocks.append(FiberBlock(
                    theta=theta,
                    frame=(ComplexVector(space, space.unrealify(v_r)),
                           ComplexVector(space, space.unrealify(jv_r))),
                    y_plus=ComplexVector(space, space.unrealify(y_plus_r)),
                    y_minus=ComplexVector(space, space.unrealify(y_minus_r)),
                ))
    # fixed part: delta-eigenvalue-1 sector intersected with K
    near_one = np.abs(ev - 1.0) <= one_tol
    if np.any(near_one):
        E1 = RealSubspace.from_real_span(space, V[:, near_one])
        fixed = subspace_intersection(K, E1, cos_tol=1e-8)
    else:
        fixed = RealSubspace(space, np.zeros((space.rdim, 0)), check=False)
    blocks.sort(key=lambda b: b.theta)
    return blocks, fixed


def _group_by_value(vals, rel_tol=1e-9):
    groups = []
    for v in vals:
        if groups and abs(groups[-1][0] - v) <= rel_tol * max(abs(v), 1e-30):
            groups[-1][1] += 1
        else:
            groups.append([v, 1])
    return groups


def _complex_lines(W):
    """Split a Jc-invariant realified eigenspace (columns of W, orthonormal,
    even count) into representatives v of complex lines {v, Jc v}."""
    reps = []
    used = np.zeros((W.shape[0], 0))
    for j in range(W.shape[1]):
        v = W[:, j].copy()
        # remove components along previous lines (v and Jc v directions)
        for _ in range(2):
            if used.shape[1]:
                v -= used @ (used.T @ v)
        nv = np.linalg.norm(v)
        if nv < 1e-8:
            continue
        v /= nv
        reps.append(v)
        used = np.hstack([used, v[:, None], times_i(v)[:, None]])
    return reps


def reassemble_modular(space: ComplexVectorSpace, blocks, fixed_part: RealSubspace):
    """Rebuild (j, delta) matrices from fiber blocks and the fixed part.

    On each block frame (v, jv): delta has eigenvalues tan^2(theta/2) on
    the complex line of v and its inverse on jv, and j swaps the lines
    with a conjugation.  On the fixed part delta = 1 and j is the
    reflection fixing it, 2P - 1 on the realification.
    """
    rdim = space.rdim
    delta = np.zeros((rdim, rdim))
    jmat = np.zeros((rdim, rdim))
    for b in blocks:
        v = b.frame[0].real()
        jv = b.frame[1].real()
        iv, ijv = times_i(v), times_i(jv)
        lam = np.tan(b.theta / 2.0) ** 2
        Pv = np.outer(v, v) + np.outer(iv, iv)
        Pjv = np.outer(jv, jv) + np.outer(ijv, ijv)
        delta += lam * Pv + (1.0 / lam) * Pjv
        # j maps v -> jv, i v -> -i jv (antilinear swap with conjugation)
        jmat += np.outer(jv, v) - np.outer(ijv, iv)
        jmat += np.outer(v, jv) - np.outer(iv, ijv)
    if fixed_part.dim > 0:
        P = fixed_part.projector()
        iP = times_i(times_i(P).T).T   # Jc P Jc^T: projector onto i K_fix
        delta += P + iP
        jmat += P - iP             # 2P - 1 restricted to the fixed complex sector
    return jmat, delta


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


def random_standard_subspace(space: ComplexVectorSpace, rng: np.random.Generator,
                             theta_range=(0.15, np.pi / 2 - 0.05),
                             allow_fixed: bool = True) -> RealSubspace:
    """Random standard subspace with principal angles bounded away from
    the degenerate ends, so the Tomita machinery stays well conditioned.

    Built as a random unitary rotation of a fiber construction; every
    angle spectrum in the range is reachable.
    """
    d = space.dim
    n_fixed = int(rng.integers(0, 2)) if (allow_fixed and d >= 3) else d % 2
    if (d - n_fixed) % 2 == 1:
        n_fixed += 1
    n_blocks = (d - n_fixed) // 2
    thetas = rng.uniform(theta_range[0], theta_range[1], size=n_blocks)
    K0 = fiber_standard_subspace(space, thetas, n_fixed)
    # Haar-ish unitary from a complex Gaussian QR
    Z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(Z)
    Q = Q * (np.diag(R) / np.abs(np.diag(R)))
    U = RealLinearMap.from_complex(space, Q)
    return RealSubspace(space, orthonormalize_columns(U.matrix @ K0.basis),
                        check=False)
