"""Finite-dimensional complex Hilbert spaces seen as real vector spaces.

A complex vector a + ib in C^d is stored, when realified, as the real
vector (a, b) in R^(2d).  Multiplication by i then becomes the block
matrix Jc = [[0, -I], [I, 0]], the Euclidean inner product on R^(2d)
equals Re<x, y>, and antilinearity of a map is the checkable condition
that its real matrix anticommutes with Jc.

Jc is never formed on the library's own paths: times_i applies it to
realified columns as (a, b) -> (-b, a) in O(d r) work.
ComplexVectorSpace.complex_structure() still returns the dense 2d x 2d
matrix for callers that want it.

A vector of C^d is a plain complex array of length d; RealLinearMap.apply
takes and returns such arrays.  The inner product <x, y> is
conjugate-linear in the FIRST argument.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ComplexVectorSpace", "RealLinearMap", "RealSubspace",
    "inner", "times_i", "orthonormalize_columns", "antilinear_adjoint",
    "symplectic_complement", "subspace_sum", "subspace_intersection",
    "inclusion_residual", "subspace_distance", "subspaces_equal",
    "principal_angles", "SpaceMismatchError", "LinearityError",
]

LINEARITY_TOL = 1e-12
ORTHO_DROP_TOL = 1e-10
EQUALITY_TOL = 1e-9


class SpaceMismatchError(ValueError):
    """Operands live in different complex vector spaces."""


class LinearityError(ValueError):
    """A map does not have the claimed (anti)linearity."""


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
        return np.concatenate([z.real, z.imag])

    def unrealify(self, v: np.ndarray) -> np.ndarray:
        d = self.dim
        v = np.asarray(v, dtype=float)
        return v[:d] + 1j * v[d:]

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
    d = M.shape[0] // 2
    out = np.concatenate([-M[d:], M[:d]])
    out += 0.0          # -0.0 -> +0.0, as in the matrix product Jc @ M
    return out


def orthonormalize_columns(M: np.ndarray, drop_tol: float = ORTHO_DROP_TOL) -> np.ndarray:
    """Classical Gram-Schmidt applied twice (CGS2), one column at a time
    against the block of columns kept so far.

    Columns whose residual norm falls below drop_tol are discarded as
    linearly dependent.  Returns a matrix with orthonormal columns, in
    the order of the kept input columns.
    """
    M = np.asarray(M, dtype=float)
    Q = np.empty(M.shape, order="F")     # so that Q[:, :r] is contiguous
    r = 0
    for j in range(M.shape[1]):
        v = M[:, j].copy()
        Qr = Q[:, :r]
        for _ in range(2):
            v -= Qr @ (Qr.T @ v)
        nv = np.linalg.norm(v)
        if nv > drop_tol:
            Q[:, r] = v / nv
            r += 1
    return Q[:, :r]


class RealLinearMap:
    """Real-linear map on the realification of a complex space.

    kind is 'linear' (real matrix commutes with Jc) or 'antilinear'
    (anticommutes).  The claim is verified at construction.
    """

    def __init__(self, space: ComplexVectorSpace, matrix: np.ndarray, kind: str,
                 check: bool = True):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape != (space.rdim, space.rdim):
            raise SpaceMismatchError(
                f"matrix shape {matrix.shape}, expected {(space.rdim, space.rdim)}")
        if kind not in ("linear", "antilinear"):
            raise ValueError(f"kind must be 'linear' or 'antilinear', got {kind!r}")
        if check:
            res = self._linearity_residual(space, matrix, kind)
            if res > LINEARITY_TOL * max(1.0, np.linalg.norm(matrix, 2)):
                raise LinearityError(
                    f"matrix is not {kind} (residual {res:.2e})")
        self.space = space
        self.matrix = matrix
        self.kind = kind

    @staticmethod
    def _linearity_residual(space, matrix, kind) -> float:
        sign = 1.0 if kind == "linear" else -1.0
        MJ = -times_i(matrix.T).T           # matrix @ Jc = -(Jc @ matrix.T).T
        return float(np.linalg.norm(MJ - sign * times_i(matrix), 2))

    # -- constructors -------------------------------------------------

    @classmethod
    def from_complex(cls, space: ComplexVectorSpace, A) -> "RealLinearMap":
        """Complex-linear map z -> A z."""
        A = np.asarray(A, dtype=complex)
        X, Y = A.real, A.imag
        M = np.block([[X, -Y], [Y, X]])
        return cls(space, M, "linear", check=False)

    @classmethod
    def antilinear_from_complex(cls, space: ComplexVectorSpace, B) -> "RealLinearMap":
        """Antilinear map z -> B conj(z)."""
        B = np.asarray(B, dtype=complex)
        X, Y = B.real, B.imag
        M = np.block([[X, Y], [Y, -X]])
        return cls(space, M, "antilinear", check=False)

    @classmethod
    def conjugation(cls, space: ComplexVectorSpace) -> "RealLinearMap":
        """Componentwise complex conjugation in the standard basis."""
        return cls.antilinear_from_complex(space, np.eye(space.dim))

    @classmethod
    def identity(cls, space: ComplexVectorSpace) -> "RealLinearMap":
        return cls(space, np.eye(space.rdim), "linear", check=False)

    # -- conversions ---------------------------------------------------

    def to_complex(self) -> np.ndarray:
        """Complex d x d matrix: A for linear maps, B (acting as B conj z)
        for antilinear ones."""
        d = self.space.dim
        X = self.matrix[:d, :d]
        Y = self.matrix[d:, :d]
        return X + 1j * Y

    # -- algebra --------------------------------------------------------

    def apply(self, x) -> np.ndarray:
        return self.space.unrealify(self.matrix @ self.space.realify(x))

    def __matmul__(self, other: "RealLinearMap") -> "RealLinearMap":
        _same_space(self, other)
        kind = "linear" if self.kind == other.kind else "antilinear"
        return RealLinearMap(self.space, self.matrix @ other.matrix, kind,
                             check=False)

    def adjoint(self) -> "RealLinearMap":
        """Adjoint w.r.t. <.,.>; for antilinear s this is the map s* with
        <s x, y> = <s* y, x>.  Either way it is the matrix transpose."""
        return RealLinearMap(self.space, self.matrix.T, self.kind, check=False)

    def norm(self) -> float:
        return float(np.linalg.norm(self.matrix, 2))

    def __repr__(self):
        return f"RealLinearMap(kind={self.kind!r}, dim={self.space.dim})"


def antilinear_adjoint(s: RealLinearMap) -> RealLinearMap:
    """s* of an antilinear map s, defined by <s x, y> = <s* y, x>."""
    if s.kind != "antilinear":
        raise LinearityError("antilinear_adjoint requires an antilinear map")
    return s.adjoint()


class RealSubspace:
    """Closed real-linear subspace, held as an orthonormal real basis.

    basis is a (2d x r) matrix with orthonormal columns w.r.t. the
    Euclidean product on the realification, i.e. w.r.t. Re<.,.>.
    """

    def __init__(self, space: ComplexVectorSpace, basis: np.ndarray,
                 check: bool = True):
        basis = np.asarray(basis, dtype=float)
        if basis.ndim != 2 or basis.shape[0] != space.rdim:
            raise SpaceMismatchError(
                f"basis shape {basis.shape}, expected ({space.rdim}, r)")
        if check and basis.shape[1] > 0:
            gram = basis.T @ basis
            if np.max(np.abs(gram - np.eye(basis.shape[1]))) > 1e-12:
                raise ValueError("basis is not orthonormal under Re<.,.>")
        self.space = space
        self.basis = basis

    @classmethod
    def from_real_span(cls, space: ComplexVectorSpace, M,
                       drop_tol: float = ORTHO_DROP_TOL) -> "RealSubspace":
        return cls(space, orthonormalize_columns(np.asarray(M, dtype=float),
                                                 drop_tol), check=False)

    @classmethod
    def from_complex_vectors(cls, space: ComplexVectorSpace, vectors,
                             drop_tol: float = ORTHO_DROP_TOL) -> "RealSubspace":
        """Real span of the given complex vectors."""
        cols = [space.realify(v) for v in vectors]
        if not cols:
            return cls(space, np.zeros((space.rdim, 0)), check=False)
        return cls.from_real_span(space, np.column_stack(cols), drop_tol)

    @classmethod
    def real_standard(cls, space: ComplexVectorSpace) -> "RealSubspace":
        """R^d inside C^d."""
        B = np.vstack([np.eye(space.dim), np.zeros((space.dim, space.dim))])
        return cls(space, B, check=False)

    @property
    def dim(self) -> int:
        """Real dimension."""
        return self.basis.shape[1]

    def mult_i(self) -> "RealSubspace":
        """The subspace iK."""
        return RealSubspace(self.space, times_i(self.basis), check=False)

    def projector(self) -> np.ndarray:
        """Orthogonal projection onto the realified subspace."""
        return self.basis @ self.basis.T

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
    JB = times_i(K.basis)
    r = JB.shape[1]
    if r == 0:
        return RealSubspace(space, np.eye(space.rdim), check=False)
    # null space of (Jc B)^T via full SVD
    _, _, Vt = np.linalg.svd(JB.T, full_matrices=True)
    basis = Vt[r:].T
    return RealSubspace(space, basis, check=False)


def subspace_sum(K1: RealSubspace, K2: RealSubspace,
                 drop_tol: float = ORTHO_DROP_TOL) -> RealSubspace:
    _same_space(K1, K2)
    return RealSubspace.from_real_span(
        K1.space, np.hstack([K1.basis, K2.basis]), drop_tol)


def subspace_intersection(K1: RealSubspace, K2: RealSubspace,
                          cos_tol: float = 1e-9) -> RealSubspace:
    """Intersection via principal vectors: directions with principal angle
    cos above 1 - cos_tol are common to both subspaces."""
    _same_space(K1, K2)
    if K1.dim == 0 or K2.dim == 0:
        return RealSubspace(K1.space, np.zeros((K1.space.rdim, 0)), check=False)
    U, sv, Vt = np.linalg.svd(K1.basis.T @ K2.basis, full_matrices=False)
    take = sv >= 1.0 - cos_tol
    if not np.any(take):
        return RealSubspace(K1.space, np.zeros((K1.space.rdim, 0)), check=False)
    # average the two principal frames, then clean up
    W1 = K1.basis @ U[:, take]
    W2 = K2.basis @ Vt[take].T
    return RealSubspace.from_real_span(K1.space, 0.5 * (W1 + W2))


def inclusion_residual(K1: RealSubspace, K2: RealSubspace) -> float:
    """sup over unit x in K1 of the distance from x to K2 (0 iff K1 <= K2)."""
    _same_space(K1, K2)
    if K1.dim == 0:
        return 0.0
    R = K1.basis - K2.basis @ (K2.basis.T @ K1.basis)
    return float(np.linalg.norm(R, 2))


def subspace_distance(K1: RealSubspace, K2: RealSubspace) -> float:
    """Operator norm of the difference of the orthogonal projections.

    By Kato's identity ||P1 - P2|| = max(||(1 - P2) P1||, ||(1 - P1) P2||),
    the larger of the two inclusion residuals; no 2d x 2d matrix is formed
    and nothing is orthonormalized, so small distances are not lost to
    drop_tol.
    """
    return max(inclusion_residual(K1, K2), inclusion_residual(K2, K1))


def subspaces_equal(K1: RealSubspace, K2: RealSubspace,
                    tol: float = EQUALITY_TOL) -> bool:
    return subspace_distance(K1, K2) <= tol


def principal_angles(K1: RealSubspace, K2: RealSubspace) -> np.ndarray:
    """Principal angles between the realified subspaces, ascending, in
    [0, pi/2].  Independent of basis choice; computed by SVD."""
    _same_space(K1, K2)
    if K1.dim == 0 or K2.dim == 0:
        return np.zeros(0)
    sv = np.linalg.svd(K1.basis.T @ K2.basis, compute_uv=False)
    return np.arccos(np.clip(np.sort(sv)[::-1], -1.0, 1.0))
