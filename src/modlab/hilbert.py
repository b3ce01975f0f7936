"""Finite-dimensional complex Hilbert spaces and their real subspaces.

A vector of C^d is a plain complex array of length d.  The inner product
<x, y> is conjugate-linear in the FIRST argument.

A linear or antilinear map is an Operator: a square complex matrix M with
a flag, acting as x -> M x or x -> M conj(x).  The same class serves C^d
and the truncated Fock space.

Real subspaces are held on the realification: a + ib in C^d is the real
vector (a, b) in R^(2d), the Euclidean inner product there equals
Re<x, y>, and multiplication by i is the block matrix
Jc = [[0, -I], [I, 0]].  Jc is never formed on the library's own paths:
times_i applies it to realified columns as (a, b) -> (-b, a) in O(d r)
work.  ComplexVectorSpace.complex_structure() still returns the dense
2d x 2d matrix, and Operator.realified() the real matrix of a map, for
callers that want them.

Stacks of bases (..., 2d, r) or matrices (..., n, n) give, slice by
slice, what each slice gives alone.  A direction dropped in one slice is
a zero column there, which changes no projection or residual; columns
zero in every slice are removed, so 2-D results keep only kept columns.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ComplexVectorSpace", "Operator", "RealSubspace",
    "inner", "times_i", "orthonormalize_columns",
    "symplectic_complement", "subspace_sum", "subspace_intersection",
    "inclusion_residual", "subspace_distance", "operator_norm",
    "principal_angles", "SpaceMismatchError",
]

ORTHO_DROP_TOL = 1e-10
EQUALITY_TOL = 1e-9


class SpaceMismatchError(ValueError):
    """Operands live in different complex vector spaces."""


class ComplexVectorSpace:
    """C^d with the standard basis and a fixed inner-product convention."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = int(dim)
        self.rdim = 2 * self.dim

    def complex_structure(self) -> np.ndarray:
        """Real 2d x 2d matrix of multiplication by i."""
        d = self.dim
        J = np.zeros((2 * d, 2 * d))
        J[:d, d:] = -np.eye(d)
        J[d:, :d] = np.eye(d)
        return J

    def realify(self, coords: np.ndarray) -> np.ndarray:
        z = np.asarray(coords, dtype=complex)
        return np.concatenate([z.real, z.imag], axis=-min(z.ndim, 2))

    def unrealify(self, v: np.ndarray) -> np.ndarray:
        re, im = _halves(np.asarray(v, dtype=float))
        return re + 1j * im

    def basis_vector(self, j: int) -> np.ndarray:
        e = np.zeros(self.dim, dtype=complex)
        e[j] = 1.0
        return e

    def random_vector(self, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim)

    def __eq__(self, other):
        return isinstance(other, ComplexVectorSpace) and other.dim == self.dim

    def __hash__(self):
        return hash(("ComplexVectorSpace", self.dim))

    def __repr__(self):
        return f"ComplexVectorSpace(dim={self.dim})"


def _halves(a: np.ndarray):
    """Views of the halves of a along axis -min(ndim, 2): 0 or -2."""
    d = a.shape[-min(a.ndim, 2)] // 2
    return (a[:d], a[d:]) if a.ndim == 1 else (a[..., :d, :], a[..., d:, :])


def _same_space(x, y):
    if x.space != y.space:
        raise SpaceMismatchError(f"{x.space} vs {y.space}")


def inner(x, y) -> complex:
    """<x, y>, conjugate-linear in x, linear in y."""
    x, y = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
    if x.shape != y.shape:
        raise SpaceMismatchError(f"vectors of shape {x.shape} and {y.shape}")
    return complex(np.vdot(x, y))


def times_i(M: np.ndarray) -> np.ndarray:
    """Multiplication by i on realified vectors or columns: Jc @ M,
    computed as (a, b) -> (-b, a) without forming Jc."""
    M = np.asarray(M, dtype=float)
    a, b = _halves(M)
    out = np.concatenate([-b, a], axis=-min(M.ndim, 2))
    out += 0.0          # -0.0 -> +0.0, as in the matrix product Jc @ M
    return out


def orthonormalize_columns(M: np.ndarray) -> np.ndarray:
    """Classical Gram-Schmidt applied twice (CGS2), one column at a time
    against the block of columns before it.

    Columns whose residual norm is at most ORTHO_DROP_TOL are linearly
    dependent and become zero columns.  Returns orthonormal columns in
    the order of the input columns, trimmed as in the module docstring.
    """
    M = np.asarray(M, dtype=float)
    QT = np.zeros(M.swapaxes(-1, -2).shape)   # Q^T: rows QT[..., :j, :] contiguous
    for j in range(M.shape[-1]):
        v = M[..., :, j, None].copy()
        Qj = QT[..., :j, :]
        for _ in range(2):
            v -= Qj.swapaxes(-1, -2) @ (Qj @ v)
        nv = np.sqrt(v.swapaxes(-1, -2) @ v)
        np.divide(v, nv, out=QT[..., j, :, None], where=nv > ORTHO_DROP_TOL)
    Q = QT.swapaxes(-1, -2)
    live = np.any(Q, axis=tuple(range(Q.ndim - 1)))   # not zero in every slice
    return Q if live.all() else Q[..., live]


def operator_norm(M: np.ndarray):
    """Spectral norm of a matrix, or of each matrix of a stack."""
    return np.linalg.norm(M, 2, axis=(-2, -1))


class Operator:
    """Linear or antilinear map on C^n, held as a square complex matrix M.

    A linear operator acts as x -> M x, an antilinear one as x -> M conj(x).
    The adjoint is defined by <A x, y> = <x, A* y> for linear A and by
    <F x, y> = <F* y, x> for antilinear F; its matrix is M^H or M^T.
    """

    def __init__(self, matrix, antilinear: bool = False):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim < 2 or matrix.shape[-1] != matrix.shape[-2]:
            raise SpaceMismatchError(f"matrix shape {matrix.shape} is not square")
        self.matrix = matrix
        self.antilinear = bool(antilinear)

    def apply(self, x) -> np.ndarray:
        """Image of a vector, or of each column of a matrix."""
        x = np.asarray(x, dtype=complex)
        return self.matrix @ (np.conj(x) if self.antilinear else x)

    def __matmul__(self, other: "Operator") -> "Operator":
        if other.matrix.shape != self.matrix.shape:
            raise SpaceMismatchError(
                f"operators of shape {self.matrix.shape} and {other.matrix.shape}")
        M = self.matrix @ (np.conj(other.matrix) if self.antilinear
                           else other.matrix)
        return Operator(M, antilinear=self.antilinear != other.antilinear)

    def adjoint(self) -> "Operator":
        M = self.matrix.swapaxes(-1, -2)
        return Operator(M if self.antilinear else M.conj(), self.antilinear)

    def realified(self) -> np.ndarray:
        """The real 2n x 2n matrix of the map on realified vectors (a, b)."""
        X, Y = self.matrix.real, self.matrix.imag
        if self.antilinear:
            return np.block([[X, Y], [Y, -X]])
        return np.block([[X, -Y], [Y, X]])


class RealSubspace:
    """Closed real-linear subspace, held as an orthonormal real basis.

    basis is a (2d x r) matrix with orthonormal columns w.r.t. the
    Euclidean product on the realification, i.e. w.r.t. Re<.,.>.
    """

    def __init__(self, space: ComplexVectorSpace, basis: np.ndarray,
                 check: bool = True):
        basis = np.asarray(basis, dtype=float)
        if basis.ndim < 2 or basis.shape[-2] != space.rdim:
            raise SpaceMismatchError(
                f"basis shape {basis.shape}, expected (..., {space.rdim}, r)")
        if check and basis.shape[-1] > 0:
            gram = basis.swapaxes(-1, -2) @ basis
            if np.max(np.abs(gram - np.eye(basis.shape[-1]))) > 1e-12:
                raise ValueError("basis is not orthonormal under Re<.,.>")
        self.space = space
        self.basis = basis

    @classmethod
    def from_real_span(cls, space: ComplexVectorSpace, M) -> "RealSubspace":
        return cls(space, orthonormalize_columns(M), check=False)

    @classmethod
    def from_complex_vectors(cls, space: ComplexVectorSpace,
                             vectors) -> "RealSubspace":
        """Real span of the given complex vectors."""
        rows = np.reshape(np.asarray(vectors, dtype=complex), (-1, space.dim))
        return cls.from_real_span(space, space.realify(rows.T))

    @classmethod
    def real_standard(cls, space: ComplexVectorSpace) -> "RealSubspace":
        """R^d inside C^d."""
        B = np.vstack([np.eye(space.dim), np.zeros((space.dim, space.dim))])
        return cls(space, B, check=False)

    @property
    def dim(self) -> int:
        """Real dimension; of a stack, the column count."""
        return self.basis.shape[-1]

    def mult_i(self) -> "RealSubspace":
        """The subspace iK."""
        return RealSubspace(self.space, times_i(self.basis), check=False)

    def project(self, v: np.ndarray) -> np.ndarray:
        return self.basis @ (self.basis.T @ v)

    def contains(self, x, tol: float = EQUALITY_TOL) -> bool:
        """Whether x, a complex vector or its realification, lies in K."""
        v = self.space.realify(x) if np.iscomplexobj(x) else np.asarray(x, float)
        nv = np.linalg.norm(v)
        if nv == 0:
            return True
        return np.linalg.norm(v - self.project(v)) <= tol * nv

    def complex_vectors(self) -> np.ndarray:
        """Basis columns as complex vectors, one per row."""
        return self.space.unrealify(self.basis).T

    def __repr__(self):
        return f"RealSubspace(dim={self.dim} in C^{self.space.dim})"


def symplectic_complement(K: RealSubspace) -> RealSubspace:
    """K' = all h with Im<h, k> = 0 for every k in K.

    Since Im<h, k> = -Re<h, i k>, the realification of K' is the
    Euclidean orthogonal complement of Jc K; in particular
    dim K + dim K' = 2d always.
    """
    space = K.space
    if K.dim == 0:
        return RealSubspace(space, np.eye(space.rdim), check=False)
    # null space of (Jc B)^T via full SVD, past the unit singular values
    _, sv, Vt = np.linalg.svd(times_i(K.basis).swapaxes(-1, -2))
    rank = np.sum(sv > 0.5, axis=-1)[..., None, None]
    null = (Vt * (np.arange(space.rdim)[:, None] >= rank))[..., np.min(rank):, :]
    return RealSubspace(space, null.swapaxes(-1, -2), check=False)


def subspace_sum(K1: RealSubspace, K2: RealSubspace) -> RealSubspace:
    _same_space(K1, K2)
    return RealSubspace.from_real_span(
        K1.space, np.concatenate([K1.basis, K2.basis], axis=-1))


def subspace_intersection(K1: RealSubspace, K2: RealSubspace,
                          cos_tol: float = 1e-9) -> RealSubspace:
    """Intersection via principal vectors: directions with principal angle
    cos above 1 - cos_tol are common to both subspaces."""
    _same_space(K1, K2)
    if K1.dim == 0 or K2.dim == 0:
        return RealSubspace(K1.space, K1.basis[..., :0], check=False)
    U, sv, Vt = np.linalg.svd(K1.basis.swapaxes(-1, -2) @ K2.basis,
                              full_matrices=False)
    take = sv >= 1.0 - cos_tol            # a prefix: sv descends
    k = np.max(np.sum(take, axis=-1))     # no slice takes more
    take = take[..., None, :k]
    # average the two principal frames (zero where not taken), clean up
    W1 = K1.basis @ (U[..., :k] * take)
    W2 = K2.basis @ (Vt[..., :k, :].swapaxes(-1, -2) * take)
    return RealSubspace.from_real_span(K1.space, 0.5 * (W1 + W2))


def inclusion_residual(K1: RealSubspace, K2: RealSubspace) -> float:
    """sup over unit x in K1 of the distance from x to K2 (0 iff K1 <= K2)."""
    _same_space(K1, K2)
    if K1.dim == 0:
        return np.zeros(K1.basis.shape[:-2])[()]
    R = K1.basis - K2.basis @ (K2.basis.swapaxes(-1, -2) @ K1.basis)
    return operator_norm(R)


def subspace_distance(K1: RealSubspace, K2: RealSubspace) -> float:
    """Operator norm of the difference of the orthogonal projections.

    By Kato's identity ||P1 - P2|| = max(||(1 - P2) P1||, ||(1 - P1) P2||),
    the larger of the two inclusion residuals; no 2d x 2d matrix is formed
    and nothing is orthonormalized, so small distances are not lost to
    ORTHO_DROP_TOL.
    """
    return np.maximum(inclusion_residual(K1, K2), inclusion_residual(K2, K1))


def principal_angles(K1: RealSubspace, K2: RealSubspace) -> np.ndarray:
    """Principal angles between the realified subspaces, ascending, in
    [0, pi/2].  Independent of basis choice; computed by SVD."""
    _same_space(K1, K2)
    if K1.dim == 0 or K2.dim == 0:
        return np.zeros(0)
    sv = np.linalg.svd(K1.basis.T @ K2.basis, compute_uv=False)
    return np.arccos(np.clip(np.sort(sv)[::-1], -1.0, 1.0))
