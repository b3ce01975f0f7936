import numpy as np
import pytest

from modlab.hilbert import (
    ComplexVectorSpace, Operator, RealSubspace, SpaceMismatchError,
    inner, symplectic_complement,
    subspace_sum, subspace_intersection, inclusion_residual,
    subspace_distance, principal_angles,
    orthonormalize_columns, times_i,
)


def random_matrix(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def random_antilinear(space, rng):
    return Operator(random_matrix(rng, space.dim), antilinear=True)


def test_inner_convention():
    V = ComplexVectorSpace(3)
    e1 = V.basis_vector(0)
    assert inner(e1, e1) == pytest.approx(1)
    # linear in the second slot: <e1, i e1> = i
    assert inner(e1, 1j * e1) == pytest.approx(1j)
    assert inner(1j * e1, e1) == pytest.approx(-1j)


def test_inner_conjugate_symmetry():
    V = ComplexVectorSpace(5)
    rng = np.random.default_rng(11)
    for _ in range(100):
        x, y = V.random_vector(rng), V.random_vector(rng)
        assert abs(np.conj(inner(x, y)) - inner(y, x)) < 1e-14


def test_inner_dimension_mismatch():
    V, W = ComplexVectorSpace(2), ComplexVectorSpace(3)
    with pytest.raises(SpaceMismatchError):
        inner(V.basis_vector(0), W.basis_vector(0))


def test_polarization():
    V = ComplexVectorSpace(4)
    rng = np.random.default_rng(12)
    for _ in range(50):
        h, k = V.random_vector(rng), V.random_vector(rng)
        assert inner(h, k).imag == pytest.approx(inner(1j * h, k).real, abs=1e-12)


def test_realification_roundtrip_and_structure():
    V = ComplexVectorSpace(3)
    rng = np.random.default_rng(13)
    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    np.testing.assert_allclose(V.unrealify(V.realify(z)), z)
    J = V.complex_structure()
    np.testing.assert_allclose(J @ J, -np.eye(6), atol=1e-15)
    np.testing.assert_allclose(V.unrealify(J @ V.realify(z)), 1j * z)


@pytest.mark.parametrize("d, r", [(1, 1), (1, 3), (8, 5), (8, 16), (8, 0)])
def test_times_i_equals_complex_structure_product(d, r):
    V = ComplexVectorSpace(d)
    B = np.random.default_rng(d + r).standard_normal((2 * d, r))
    B[::3] = 0.0
    B[1::3] = -0.0      # the product with Jc turns every zero into +0.0
    JB = V.complex_structure() @ B
    out = times_i(B)
    assert out.shape == JB.shape == (2 * d, r)
    assert np.array_equal(out, JB)
    assert np.array_equal(np.signbit(out), np.signbit(JB))
    if r:
        assert np.array_equal(times_i(B[:, 0]), JB[:, 0])


def test_apply_matches_complex_action():
    V = ComplexVectorSpace(4)
    rng = np.random.default_rng(15)
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    x = V.random_vector(rng)
    lin = Operator(A)
    np.testing.assert_allclose(lin.apply(x), A @ x, atol=1e-13)
    anti = Operator(A, antilinear=True)
    np.testing.assert_allclose(anti.apply(x), A @ np.conj(x),
                               atol=1e-13)
    # a matrix of columns is mapped column by column
    X = np.column_stack([x, V.random_vector(rng)])
    np.testing.assert_allclose(anti.apply(X)[:, 0], anti.apply(x), atol=1e-13)


def test_antilinearity_certificate():
    V = ComplexVectorSpace(4)
    rng = np.random.default_rng(16)
    s = random_antilinear(V, rng)
    for _ in range(20):
        lam = complex(rng.standard_normal(), rng.standard_normal())
        x = V.random_vector(rng)
        lhs = s.apply(lam * x)
        rhs = np.conj(lam) * s.apply(x)
        bound = 1e-12 * max(1.0, abs(lam) * np.linalg.norm(x)) \
            * np.linalg.norm(s.matrix, 2)
        assert np.linalg.norm(lhs - rhs) < bound


def test_adjoint_of_conjugation_is_itself():
    C = Operator(np.eye(3), antilinear=True)
    assert C.adjoint().antilinear
    np.testing.assert_allclose(C.adjoint().matrix, C.matrix, atol=1e-14)


def test_adjoint_involutive_and_defining_identity():
    rng = np.random.default_rng(17)
    V = ComplexVectorSpace(4)
    s = random_antilinear(V, rng)
    np.testing.assert_allclose(s.adjoint().adjoint().matrix,
                               s.matrix, atol=1e-12)
    W = ComplexVectorSpace(6)
    s = random_antilinear(W, rng)
    st = s.adjoint()
    worst = 0.0
    for a in range(6):
        for b in range(6):
            for pa in (1.0, 1j):
                for pb in (1.0, 1j):
                    x = pa * W.basis_vector(a)
                    y = pb * W.basis_vector(b)
                    worst = max(worst, abs(inner(s.apply(x), y)
                                           - inner(st.apply(y), x)))
    assert worst < 1e-12 * max(1.0, np.linalg.norm(s.matrix, 2))


def test_adjoint_identities_on_random_vectors():
    # <F x, y> = <F* y, x> for antilinear F, <A x, y> = <x, A* y> for linear A
    rng = np.random.default_rng(25)
    V = ComplexVectorSpace(5)
    M = random_matrix(rng, 5)
    F, A = Operator(M, antilinear=True), Operator(M)
    assert F.adjoint().antilinear and not A.adjoint().antilinear
    for _ in range(20):
        x, y = V.random_vector(rng), V.random_vector(rng)
        scale = np.linalg.norm(M, 2) * np.linalg.norm(x) * np.linalg.norm(y)
        assert abs(inner(F.apply(x), y) - inner(F.adjoint().apply(y), x)) \
            < 1e-13 * scale
        assert abs(inner(A.apply(x), y) - inner(x, A.adjoint().apply(y))) \
            < 1e-13 * scale


@pytest.mark.parametrize("first, second", [(False, False), (False, True),
                                           (True, False), (True, True)])
def test_composition_kind_and_matrix(first, second):
    rng = np.random.default_rng(26)
    V = ComplexVectorSpace(4)
    P = Operator(random_matrix(rng, 4), antilinear=first)
    Q = Operator(random_matrix(rng, 4), antilinear=second)
    PQ = P @ Q
    assert PQ.antilinear == (first != second)
    expected = P.matrix @ (np.conj(Q.matrix) if first else Q.matrix)
    np.testing.assert_array_equal(PQ.matrix, expected)
    x = V.random_vector(rng)
    np.testing.assert_allclose(PQ.apply(x), P.apply(Q.apply(x)), atol=1e-12)
    np.testing.assert_allclose(PQ.realified(), P.realified() @ Q.realified(),
                               atol=1e-12)


def test_operator_shape_checks():
    with pytest.raises(SpaceMismatchError):
        Operator(np.zeros((2, 3)))
    with pytest.raises(SpaceMismatchError):
        Operator(np.eye(2)) @ Operator(np.eye(3))


@pytest.mark.parametrize("antilinear", [False, True])
def test_realified_block_form_and_complex_structure(antilinear):
    # linear maps commute with multiplication by i, antilinear ones
    # anticommute; the block forms are those of z -> A z and z -> A conj z
    rng = np.random.default_rng(27)
    V = ComplexVectorSpace(4)
    A = random_matrix(rng, 4)
    R = Operator(A, antilinear=antilinear).realified()
    X, Y = A.real, A.imag
    block = (np.block([[X, Y], [Y, -X]]) if antilinear
             else np.block([[X, -Y], [Y, X]]))
    np.testing.assert_array_equal(R, block)
    Jc = V.complex_structure()
    sign = -1.0 if antilinear else 1.0
    np.testing.assert_allclose(R @ Jc, sign * (Jc @ R), atol=1e-14)
    x = V.random_vector(rng)
    np.testing.assert_allclose(V.unrealify(R @ V.realify(x)),
                               Operator(A, antilinear).apply(x), atol=1e-13)
    # the 2-norm of a realified matrix is the complex 2-norm
    assert np.linalg.norm(R, 2) == pytest.approx(np.linalg.norm(A, 2),
                                                 rel=1e-12)


def test_symplectic_complement_of_real_standard():
    V = ComplexVectorSpace(4)
    K = RealSubspace.real_standard(V)
    Kp = symplectic_complement(K)
    assert subspace_distance(K, Kp) <= 1e-9
    assert K.dim + Kp.dim == V.rdim


def test_symplectic_complement_of_zero():
    V = ComplexVectorSpace(3)
    K = RealSubspace(V, np.zeros((6, 0)))
    assert symplectic_complement(K).dim == 6


def test_double_complement():
    rng = np.random.default_rng(18)
    V = ComplexVectorSpace(5)
    for _ in range(50):
        r = int(rng.integers(1, 10))
        M = rng.standard_normal((V.rdim, r))
        K = RealSubspace.from_real_span(V, M)
        Kpp = symplectic_complement(symplectic_complement(K))
        assert subspace_distance(K, Kpp) < 1e-10


def test_complement_pairing_vanishes():
    rng = np.random.default_rng(19)
    V = ComplexVectorSpace(4)
    K = RealSubspace.from_real_span(V, rng.standard_normal((8, 3)))
    Kp = symplectic_complement(K)
    for h in Kp.complex_vectors():
        for k in K.complex_vectors():
            assert abs(inner(h, k).imag) < 1e-12


def test_complement_reverses_inclusion():
    rng = np.random.default_rng(20)
    V = ComplexVectorSpace(4)
    M = rng.standard_normal((8, 5))
    K2 = RealSubspace.from_real_span(V, M)
    K1 = RealSubspace.from_real_span(V, M[:, :2])
    assert inclusion_residual(K1, K2) < 1e-12
    K2p, K1p = symplectic_complement(K2), symplectic_complement(K1)
    assert inclusion_residual(K2p, K1p) < 1e-10


def test_subspace_ops():
    V = ComplexVectorSpace(3)
    rng = np.random.default_rng(21)
    K = RealSubspace.from_real_span(V, rng.standard_normal((6, 3)))
    assert subspace_distance(subspace_intersection(K, K), K) <= 1e-9
    assert subspace_distance(subspace_sum(K, K), K) <= 1e-9
    e1 = RealSubspace.from_complex_vectors(V, [V.basis_vector(0)])
    e2 = RealSubspace.from_complex_vectors(V, [V.basis_vector(1)])
    assert subspace_intersection(e1, e2).dim == 0
    with pytest.raises(SpaceMismatchError):
        subspace_sum(K, RealSubspace.real_standard(ComplexVectorSpace(4)))


def test_sum_dimension_for_standard_K():
    # K + K' has real dimension 2d - dim(K cap K')
    rng = np.random.default_rng(22)
    V = ComplexVectorSpace(4)
    for _ in range(10):
        Z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        K = RealSubspace.from_complex_vectors(V, list(Z.T))
        Kp = symplectic_complement(K)
        cap = subspace_intersection(K, Kp, cos_tol=1e-8)
        total = subspace_sum(K, Kp)
        assert total.dim == V.rdim - cap.dim


def test_principal_angles_basics():
    V = ComplexVectorSpace(3)
    K = RealSubspace.real_standard(V)
    ang = principal_angles(K, K.mult_i())
    np.testing.assert_allclose(ang, np.pi / 2, atol=1e-12)
    same = principal_angles(K, K)
    np.testing.assert_allclose(same, 0.0, atol=1e-7)


@pytest.mark.parametrize("delta", [1e-6, 1e-9, 1e-11, 1e-13])
def test_subspace_distance_at_small_angles(delta):
    # real 3-dimensional subspaces of C^4 with one principal angle delta;
    # the frame is exact so that the distance sin(delta) is the only error
    V = ComplexVectorSpace(4)
    E = np.eye(V.rdim)
    K1 = RealSubspace(V, E[:, [0, 5, 2]])
    tilted = np.cos(delta) * E[:, 2] + np.sin(delta) * E[:, 7]
    K2 = RealSubspace(V, np.column_stack([E[:, 0], E[:, 5], tilted]))
    assert subspace_distance(K1, K2) == pytest.approx(delta, rel=1e-3, abs=0)
    assert subspace_distance(K2, K1) == pytest.approx(delta, rel=1e-3, abs=0)


def test_subspace_distance_of_unequal_and_empty_subspaces():
    V = ComplexVectorSpace(3)
    rng = np.random.default_rng(24)
    K = RealSubspace.from_real_span(V, rng.standard_normal((6, 3)))
    smaller = RealSubspace.from_real_span(V, K.basis[:, :2])
    empty = RealSubspace(V, np.zeros((6, 0)))
    assert subspace_distance(K, smaller) == pytest.approx(1.0, abs=1e-12)
    assert subspace_distance(empty, K) == pytest.approx(1.0, abs=1e-12)
    assert subspace_distance(empty, empty) == 0.0


def mgs_reference(M, drop_tol=1e-10):
    """Modified Gram-Schmidt with a re-orthogonalization pass, one column
    against each earlier one."""
    cols = []
    for j in range(M.shape[1]):
        v = M[:, j].copy()
        for _ in range(2):
            for q in cols:
                v -= (q @ v) * q
        nv = np.linalg.norm(v)
        if nv > drop_tol:
            cols.append(v / nv)
    return np.column_stack(cols) if cols else np.zeros((M.shape[0], 0))


def assert_matches_mgs(M):
    Q, ref = orthonormalize_columns(M), mgs_reference(M)
    assert Q.shape == ref.shape
    np.testing.assert_allclose(Q.T @ Q, np.eye(Q.shape[1]), rtol=0, atol=1e-13)
    if Q.shape[1]:
        V = ComplexVectorSpace(M.shape[0] // 2)
        dist = subspace_distance(RealSubspace(V, Q), RealSubspace(V, ref))
        assert dist < 1e-12
    return Q


@pytest.mark.parametrize("rows, cols", [(8, 5), (8, 8), (8192, 12), (6, 0)])
def test_orthonormalize_matches_mgs_reference(rows, cols):
    M = np.random.default_rng(rows + cols).standard_normal((rows, cols))
    assert assert_matches_mgs(M).shape == (rows, cols)
    assert assert_matches_mgs(np.zeros((rows, cols))).shape == (rows, 0)


def test_orthonormalize_discards_dependent():
    rng = np.random.default_rng(23)
    M = rng.standard_normal((6, 2))
    M = np.hstack([M, M @ np.array([[1.0], [2.0]])])
    Q = assert_matches_mgs(M)
    assert Q.shape[1] == 2
    # residuals 1e-9 and 1e-11, on either side of the default drop_tol
    E = np.eye(6)
    for eps, kept in ((1e-9, 3), (1e-11, 2)):
        M = np.column_stack([E[:, 0], E[:, 1], E[:, 0] + 2 * E[:, 1] + eps * E[:, 2]])
        Q = assert_matches_mgs(M)
        assert Q.shape[1] == kept
        np.testing.assert_array_equal(Q[:, :2], E[:, :2])
