"""Finite-dimensional complex Hilbert spaces and their real subspaces.

A vector of C^d is a plain complex array of length d.  The inner product
<x, y> is conjugate-linear in the FIRST argument.

A linear or antilinear map is an Operator: a square complex matrix M with
a flag, acting as x -> M x or x -> M conj(x).  The same class serves C^d
and the truncated Fock space.

A real subspace K is held by complex basis columns alone, orthonormal for
the real inner product Re<x, y>; K is their real span, i times them spans
iK, and d is the row count.  Subspaces of different d do not combine.
Projections, residuals and principal angles use the real Gram matrix
Re(A^H B).  This module alone realifies (a + ib as the column (a, b) of
R^(2d), where the Euclidean product is Re<x, y>), and only where a real
matrix is needed: the SVD of a span, the null space of the symplectic
complement, the operator norm of a residual, the fixed space of a map and
the SVD of a real-linear map.  realified() gives the real matrix of a map;
ComplexVectorSpace(d).complex_structure(), that of i, has no caller here.

Stacks of bases (..., d, r) or matrices (..., n, n) give, slice by
slice, what each slice gives alone.  An empty subspace, or an empty stack
slice, takes the same path as any other: numpy's SVD and eigvalsh accept
empty matrices.  A direction dropped in one slice is a zero column there,
which changes no projection or residual; columns zero in every slice are
removed, so 2-D results keep only kept columns.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ComplexVectorSpace", "Operator", "RealSubspace",
    "inner", "orthonormalize_columns", "real_svd", "fixed_space",
    "symplectic_complement", "subspace_sum", "subspace_intersection",
    "inclusion_residual", "subspace_distance", "operator_norm",
    "principal_angles", "SpaceMismatchError",
]

ORTHO_DROP_TOL = 1e-10
EQUALITY_TOL = 1e-9


class SpaceMismatchError(ValueError):
    """Operands live in different complex vector spaces."""


class ComplexVectorSpace:
    """C^d, kept for the real matrix of multiplication by i."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = int(dim)

    def complex_structure(self) -> np.ndarray:
        """Real 2d x 2d matrix of multiplication by i."""
        d = self.dim
        J = np.zeros((2 * d, 2 * d))
        J[:d, d:] = -np.eye(d)
        J[d:, :d] = np.eye(d)
        return J


def _realify(Z: np.ndarray) -> np.ndarray:
    """Real columns (..., 2d, r) of complex columns (..., d, r)."""
    return np.concatenate([Z.real, Z.imag], axis=-2)


def _unrealify(M: np.ndarray) -> np.ndarray:
    d = M.shape[-2] // 2
    return M[..., :d, :] + 1j * M[..., d:, :]


def _re_gram(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Re(A^H B): the real inner products of the columns of A and B."""
    return (A.conj().swapaxes(-1, -2) @ B).real


def _same_space(x, y):
    if x.basis.shape[-2] != y.basis.shape[-2]:
        raise SpaceMismatchError(
            f"subspaces of C^{x.basis.shape[-2]} and C^{y.basis.shape[-2]}")


def inner(x, y) -> complex:
    """<x, y>, conjugate-linear in x, linear in y."""
    x, y = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
    if x.shape != y.shape:
        raise SpaceMismatchError(f"vectors of shape {x.shape} and {y.shape}")
    return complex(np.vdot(x, y))


def orthonormalize_columns(M: np.ndarray) -> np.ndarray:
    """Columns orthonormal for Re<.,.> with the real span of those of M.

    The left singular vectors of the realified columns, by one stacked
    SVD; those of singular value at most ORTHO_DROP_TOL become zero
    columns, so the kept dimension does not depend on the column order.
    Returns complex columns, trimmed as in the module docstring.  A NaN
    raises numpy's LinAlgError.
    """
    U, sv, _ = np.linalg.svd(_realify(np.asarray(M, dtype=complex)),
                             full_matrices=False)
    keep = sv > ORTHO_DROP_TOL               # a prefix: sv descends
    Q = _unrealify(U * keep[..., None, :])
    return Q[..., :np.max(np.sum(keep, axis=-1), initial=0)]


def operator_norm(M: np.ndarray):
    """Spectral norm of a matrix, or of each matrix of a stack: the root of
    the largest eigenvalue of the smaller Gram matrix, 0 if it is empty.
    A real M is not copied for its conjugate, and a complex one's copy is
    freed before eigvalsh runs."""
    if M.shape[-1] > M.shape[-2]:
        M = M.swapaxes(-1, -2)          # same singular values
    G = (M.conj() if np.iscomplexobj(M) else M).swapaxes(-1, -2) @ M
    return np.sqrt(np.max(np.linalg.eigvalsh(G), axis=-1, initial=0.0))


def real_svd(Z: np.ndarray):
    """Singular values and right singular vectors (sv, Vt) of the
    real-linear map c -> Z c from R^r to C^d, Z complex columns (d, r)."""
    _, sv, Vt = np.linalg.svd(_realify(Z), full_matrices=False)
    return sv, Vt


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
    """Closed real-linear subspace K of C^d, held by complex basis columns.

    basis is a (d x r) complex matrix whose columns are orthonormal for
    Re<.,.>; K is their real span and d is read from its shape.
    """

    def __init__(self, basis: np.ndarray):
        basis = np.asarray(basis, dtype=complex)
        if basis.ndim < 2:
            raise SpaceMismatchError(
                f"basis shape {basis.shape}, expected (..., d, r)")
        self.basis = basis

    @classmethod
    def span(cls, Z) -> "RealSubspace":
        """The real span of the columns of Z."""
        return cls(orthonormalize_columns(Z))

    @property
    def dim(self) -> int:
        """Real dimension; of a stack, the column count."""
        return self.basis.shape[-1]

    def mult_i(self) -> "RealSubspace":
        """The subspace iK."""
        return RealSubspace(1j * self.basis)

    def project(self, v: np.ndarray) -> np.ndarray:
        """Orthogonal projection, for Re<.,.>, of columns (or a vector) onto K."""
        return self.basis @ _re_gram(self.basis, np.asarray(v, dtype=complex))

    def contains(self, x) -> bool:
        """Whether the complex vector x lies in K, to relative EQUALITY_TOL."""
        return np.linalg.norm(x - self.project(x)) <= EQUALITY_TOL * np.linalg.norm(x)

    def __repr__(self):
        return f"RealSubspace(dim={self.dim} in C^{self.basis.shape[-2]})"


def fixed_space(op: Operator) -> RealSubspace:
    """The real subspace {x : op x = x} of a map self-adjoint for Re<.,.>,
    such as an antiunitary involution or a positive operator: eigenvectors
    of its real matrix with eigenvalue within 1e-8 of 1."""
    M = op.realified()
    ev, W = np.linalg.eigh(0.5 * (M + M.swapaxes(-1, -2)))
    return RealSubspace.span(_unrealify(W * (abs(ev - 1.0) < 1e-8)[..., None, :]))


def symplectic_complement(K: RealSubspace) -> RealSubspace:
    """K' = all h with Im<h, k> = 0 for every k in K.

    Since Im<h, k> = -Re<h, i k>, K' is the Re-orthogonal complement of
    iK; in particular dim K + dim K' = 2d always.
    """
    d = K.basis.shape[-2]
    # realified null space of (iB)^T by full SVD, past the unit singular values
    _, sv, Vt = np.linalg.svd(_realify(1j * K.basis).swapaxes(-1, -2))
    rank = np.sum(sv > 0.5, axis=-1)[..., None, None]
    null = (Vt * (np.arange(2 * d)[:, None] >= rank))[..., np.min(rank):, :]
    return RealSubspace(_unrealify(null.swapaxes(-1, -2)))


def subspace_sum(K1: RealSubspace, K2: RealSubspace) -> RealSubspace:
    _same_space(K1, K2)
    return RealSubspace.span(np.concatenate([K1.basis, K2.basis], axis=-1))


def subspace_intersection(K1: RealSubspace, K2: RealSubspace,
                          cos_tol: float = 1e-8) -> RealSubspace:
    """Intersection via principal vectors: directions with principal angle
    cos above 1 - cos_tol are common to both subspaces."""
    _same_space(K1, K2)
    U, sv, Vt = np.linalg.svd(_re_gram(K1.basis, K2.basis),
                              full_matrices=False)
    take = sv >= 1.0 - cos_tol            # a prefix: sv descends
    k = np.max(np.sum(take, axis=-1))     # no slice takes more
    take = take[..., None, :k]
    # average the two principal frames (zero where not taken), clean up
    W1 = K1.basis @ (U[..., :k] * take)
    W2 = K2.basis @ (Vt[..., :k, :].swapaxes(-1, -2) * take)
    return RealSubspace.span(0.5 * (W1 + W2))


def inclusion_residual(K1: RealSubspace, K2: RealSubspace) -> float:
    """sup over unit x in K1 of the distance from x to K2 (0 iff K1 <= K2)."""
    _same_space(K1, K2)
    # the norm of a real-linear map: of the realified matrix
    return operator_norm(_realify(K1.basis - K2.project(K1.basis)))


def subspace_distance(K1: RealSubspace, K2: RealSubspace) -> float:
    """Operator norm of the difference of the orthogonal projections.

    By Kato's identity ||P1 - P2|| = max(||(1 - P2) P1||, ||(1 - P1) P2||),
    the larger of the two inclusion residuals; no 2d x 2d matrix is formed
    and nothing is orthonormalized, so small distances are not lost to
    ORTHO_DROP_TOL.
    """
    return np.maximum(inclusion_residual(K1, K2), inclusion_residual(K2, K1))


def principal_angles(K1: RealSubspace, K2: RealSubspace) -> np.ndarray:
    """Principal angles between the real subspaces, ascending, in
    [0, pi/2].  Independent of basis choice; computed by SVD."""
    _same_space(K1, K2)
    sv = np.linalg.svd(_re_gram(K1.basis, K2.basis), compute_uv=False)
    return np.arccos(np.clip(sv, -1.0, 1.0))     # sv descends
