import numpy as np
import pytest

from modlab.hilbert import (
    ComplexVectorSpace, RealLinearMap, RealSubspace, SpaceMismatchError,
    LinearityError, inner, antilinear_adjoint, symplectic_complement,
    subspace_sum, subspace_intersection, inclusion_residual,
    subspace_distance, subspaces_equal, principal_angles,
    orthonormalize_columns, times_i,
)


def random_antilinear(space, rng):
    B = rng.standard_normal((space.dim, space.dim)) \
        + 1j * rng.standard_normal((space.dim, space.dim))
    return RealLinearMap.antilinear_from_complex(space, B)


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


def test_linearity_classification():
    V = ComplexVectorSpace(3)
    rng = np.random.default_rng(14)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    lin = RealLinearMap.from_complex(V, A)
    assert RealLinearMap(V, lin.matrix, "linear").kind == "linear"
    anti = RealLinearMap.antilinear_from_complex(V, A)
    with pytest.raises(LinearityError):
        RealLinearMap(V, anti.matrix, "linear")


def test_apply_matches_complex_action():
    V = ComplexVectorSpace(4)
    rng = np.random.default_rng(15)
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    x = V.random_vector(rng)
    lin = RealLinearMap.from_complex(V, A)
    np.testing.assert_allclose(lin.apply(x), A @ x, atol=1e-13)
    anti = RealLinearMap.antilinear_from_complex(V, A)
    np.testing.assert_allclose(anti.apply(x), A @ np.conj(x),
                               atol=1e-13)
    np.testing.assert_allclose(anti.to_complex(), A, atol=1e-13)


def test_antilinearity_certificate():
    V = ComplexVectorSpace(4)
    rng = np.random.default_rng(16)
    s = random_antilinear(V, rng)
    for _ in range(20):
        lam = complex(rng.standard_normal(), rng.standard_normal())
        x = V.random_vector(rng)
        lhs = s.apply(lam * x)
        rhs = np.conj(lam) * s.apply(x)
        bound = 1e-12 * max(1.0, abs(lam) * np.linalg.norm(x)) * s.norm()
        assert np.linalg.norm(lhs - rhs) < bound


def test_adjoint_of_conjugation_is_itself():
    V = ComplexVectorSpace(3)
    C = RealLinearMap.conjugation(V)
    np.testing.assert_allclose(antilinear_adjoint(C).matrix, C.matrix, atol=1e-14)


def test_adjoint_involutive_and_defining_identity():
    rng = np.random.default_rng(17)
    V = ComplexVectorSpace(4)
    s = random_antilinear(V, rng)
    np.testing.assert_allclose(antilinear_adjoint(antilinear_adjoint(s)).matrix,
                               s.matrix, atol=1e-12)
    W = ComplexVectorSpace(6)
    s = random_antilinear(W, rng)
    st = antilinear_adjoint(s)
    worst = 0.0
    for a in range(6):
        for b in range(6):
            for pa in (1.0, 1j):
                for pb in (1.0, 1j):
                    x = pa * W.basis_vector(a)
                    y = pb * W.basis_vector(b)
                    worst = max(worst, abs(inner(s.apply(x), y)
                                           - inner(st.apply(y), x)))
    assert worst < 1e-12 * max(1.0, s.norm())


def test_adjoint_requires_antilinear():
    V = ComplexVectorSpace(2)
    with pytest.raises(LinearityError):
        antilinear_adjoint(RealLinearMap.identity(V))


def test_symplectic_complement_of_real_standard():
    V = ComplexVectorSpace(4)
    K = RealSubspace.real_standard(V)
    Kp = symplectic_complement(K)
    assert subspaces_equal(K, Kp)
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
    assert subspaces_equal(subspace_intersection(K, K), K)
    assert subspaces_equal(subspace_sum(K, K), K)
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


def test_orthonormalize_discards_dependent():
    rng = np.random.default_rng(23)
    M = rng.standard_normal((6, 2))
    M = np.hstack([M, M @ np.array([[1.0], [2.0]])])
    Q = orthonormalize_columns(M)
    assert Q.shape[1] == 2
    np.testing.assert_allclose(Q.T @ Q, np.eye(2), atol=1e-12)
