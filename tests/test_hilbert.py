import numpy as np
import pytest

from modlab.hilbert import (
    ComplexVectorSpace, Operator, RealSubspace, SpaceMismatchError,
    inner, symplectic_complement,
    subspace_sum, subspace_intersection, inclusion_residual,
    subspace_distance, principal_angles,
    orthonormalize_columns, fixed_space, real_svd, operator_norm,
)


def realify(Z):
    """Reference realification a + ib -> (a, b) of vectors or columns."""
    Z = np.asarray(Z, dtype=complex)
    return np.concatenate([Z.real, Z.imag], axis=-min(Z.ndim, 2))


def unrealify(M):
    """Complex columns of realified ones, for real test data."""
    d = M.shape[-2] // 2
    return M[..., :d, :] + 1j * M[..., d:, :]


def orthonormal(B):
    """B, once its columns are checked orthonormal for Re<.,.>."""
    gram = (B.conj().swapaxes(-1, -2) @ B).real
    assert np.max(np.abs(gram - np.eye(B.shape[-1]))) <= 1e-12
    return B


def random_vector(rng, d):
    return rng.standard_normal(d) + 1j * rng.standard_normal(d)


def random_matrix(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def random_antilinear(d, rng):
    return Operator(random_matrix(rng, d), antilinear=True)


def test_inner_convention():
    e1 = np.eye(3)[0]
    assert inner(e1, e1) == pytest.approx(1)
    # linear in the second slot: <e1, i e1> = i
    assert inner(e1, 1j * e1) == pytest.approx(1j)
    assert inner(1j * e1, e1) == pytest.approx(-1j)


def test_inner_conjugate_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(100):
        x, y = random_vector(rng, 5), random_vector(rng, 5)
        assert abs(np.conj(inner(x, y)) - inner(y, x)) < 1e-14


def test_inner_dimension_mismatch():
    with pytest.raises(SpaceMismatchError):
        inner(np.eye(2)[0], np.eye(3)[0])


def test_polarization():
    rng = np.random.default_rng(12)
    for _ in range(50):
        h, k = random_vector(rng, 4), random_vector(rng, 4)
        assert inner(h, k).imag == pytest.approx(inner(1j * h, k).real, abs=1e-12)


def test_complex_structure_multiplies_by_i():
    rng = np.random.default_rng(13)
    z = random_vector(rng, 3)
    J = ComplexVectorSpace(3).complex_structure()
    np.testing.assert_allclose(J @ J, -np.eye(6), atol=1e-15)
    np.testing.assert_allclose(J @ realify(z), realify(1j * z))


@pytest.mark.parametrize("d, r", [(1, 1), (1, 3), (8, 5), (8, 16), (8, 0)])
def test_mult_i_equals_complex_structure_product(d, r):
    B = unrealify(np.random.default_rng(d + r).standard_normal((2 * d, r)))
    B[::3] = 0.0
    iK = RealSubspace(B).mult_i()
    assert iK.basis.shape == (d, r)
    J = ComplexVectorSpace(d).complex_structure()
    assert np.array_equal(realify(iK.basis), J @ realify(B))


def test_span_is_the_real_span_of_the_columns():
    # 3 columns and a real combination of them span a real 3-space; the
    # column times i is outside it, so the span is not complex-linear
    rng = np.random.default_rng(14)
    Z = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    K = RealSubspace.span(np.column_stack([Z, Z @ [1.0, -2.0, 0.5]]))
    assert K.dim == 3
    np.testing.assert_allclose(realify(K.basis).T @ realify(K.basis),
                               np.eye(3), rtol=0, atol=1e-13)
    assert all(K.contains(z) for z in Z.T)
    assert not K.contains(1j * Z[:, 0])
    assert K.mult_i().contains(1j * Z[:, 0])


def test_project_is_the_real_orthogonal_projection():
    rng = np.random.default_rng(28)
    K = RealSubspace.span(random_matrix(rng, 4)[:, :3])
    x = random_vector(rng, 4)
    Px = K.project(x)
    assert K.contains(Px)
    np.testing.assert_allclose(K.project(Px), Px, atol=1e-13)
    # the residual is Re-orthogonal to K, though not complex-orthogonal
    assert np.max(np.abs((K.basis.conj().T @ (x - Px)).real)) < 1e-13
    P = realify(K.basis) @ realify(K.basis).T
    np.testing.assert_allclose(realify(Px), P @ realify(x), atol=1e-13)
    X = np.column_stack([x, random_vector(rng, 4)])
    np.testing.assert_allclose(K.project(X)[:, 0], Px, atol=1e-13)


def test_stacked_project_and_principal_angles_match_each_slice():
    rng = np.random.default_rng(29)
    B1 = orthonormalize_columns(unrealify(rng.standard_normal((4, 6, 3))))
    B2 = orthonormalize_columns(unrealify(rng.standard_normal((4, 6, 2))))
    X = unrealify(rng.standard_normal((4, 6, 2)))
    K1, K2 = RealSubspace(orthonormal(B1)), RealSubspace(orthonormal(B2))
    proj, ang = K1.project(X), principal_angles(K1, K2)
    assert proj.shape == (4, 3, 2) and ang.shape == (4, 2)
    for i in range(4):
        one, two = RealSubspace(B1[i]), RealSubspace(B2[i])
        np.testing.assert_allclose(proj[i], one.project(X[i]), rtol=0,
                                   atol=1e-14)
        np.testing.assert_allclose(ang[i], principal_angles(one, two),
                                   rtol=0, atol=1e-12)
        assert np.all(np.diff(ang[i]) >= 0)


def test_fixed_space_of_conjugation_and_of_a_positive_map():
    real = RealSubspace(np.eye(3))
    conj = fixed_space(Operator(np.eye(3), antilinear=True))
    assert subspace_distance(conj, real) < 1e-12
    # diag(1, 2, 1) fixes the complex span of e_1 and e_3: real dimension 4
    pos = fixed_space(Operator(np.diag([1.0, 2.0, 1.0])))
    assert pos.dim == 4
    e1, e3 = np.eye(3)[0], np.eye(3)[2]
    assert all(pos.contains(z) for z in (e1, 1j * e1, e3, 1j * e3))


def test_real_svd_is_the_svd_of_the_real_linear_map():
    rng = np.random.default_rng(30)
    Z = random_matrix(rng, 5)[:, :3]
    sv, Vt = real_svd(Z)
    np.testing.assert_allclose(sv, np.linalg.svd(realify(Z), compute_uv=False),
                               rtol=1e-13)
    # ||Z v|| = sv for each real right singular vector v
    np.testing.assert_allclose(np.linalg.norm(Z @ Vt.T, axis=0), sv,
                               rtol=1e-13)


def test_apply_matches_complex_action():
    rng = np.random.default_rng(15)
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    x = random_vector(rng, 4)
    lin = Operator(A)
    np.testing.assert_allclose(lin.apply(x), A @ x, atol=1e-13)
    anti = Operator(A, antilinear=True)
    np.testing.assert_allclose(anti.apply(x), A @ np.conj(x),
                               atol=1e-13)
    # a matrix of columns is mapped column by column
    X = np.column_stack([x, random_vector(rng, 4)])
    np.testing.assert_allclose(anti.apply(X)[:, 0], anti.apply(x), atol=1e-13)


def test_antilinearity_certificate():
    rng = np.random.default_rng(16)
    s = random_antilinear(4, rng)
    for _ in range(20):
        lam = complex(rng.standard_normal(), rng.standard_normal())
        x = random_vector(rng, 4)
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
    s = random_antilinear(4, rng)
    np.testing.assert_allclose(s.adjoint().adjoint().matrix,
                               s.matrix, atol=1e-12)
    s = random_antilinear(6, rng)
    st = s.adjoint()
    worst = 0.0
    for a in range(6):
        for b in range(6):
            for pa in (1.0, 1j):
                for pb in (1.0, 1j):
                    x = pa * np.eye(6)[a]
                    y = pb * np.eye(6)[b]
                    worst = max(worst, abs(inner(s.apply(x), y)
                                           - inner(st.apply(y), x)))
    assert worst < 1e-12 * max(1.0, np.linalg.norm(s.matrix, 2))


def test_adjoint_identities_on_random_vectors():
    # <F x, y> = <F* y, x> for antilinear F, <A x, y> = <x, A* y> for linear A
    rng = np.random.default_rng(25)
    M = random_matrix(rng, 5)
    F, A = Operator(M, antilinear=True), Operator(M)
    assert F.adjoint().antilinear and not A.adjoint().antilinear
    for _ in range(20):
        x, y = random_vector(rng, 5), random_vector(rng, 5)
        scale = np.linalg.norm(M, 2) * np.linalg.norm(x) * np.linalg.norm(y)
        assert abs(inner(F.apply(x), y) - inner(F.adjoint().apply(y), x)) \
            < 1e-13 * scale
        assert abs(inner(A.apply(x), y) - inner(x, A.adjoint().apply(y))) \
            < 1e-13 * scale


@pytest.mark.parametrize("first, second", [(False, False), (False, True),
                                           (True, False), (True, True)])
def test_composition_kind_and_matrix(first, second):
    rng = np.random.default_rng(26)
    P = Operator(random_matrix(rng, 4), antilinear=first)
    Q = Operator(random_matrix(rng, 4), antilinear=second)
    PQ = P @ Q
    assert PQ.antilinear == (first != second)
    expected = P.matrix @ (np.conj(Q.matrix) if first else Q.matrix)
    np.testing.assert_array_equal(PQ.matrix, expected)
    x = random_vector(rng, 4)
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
    A = random_matrix(rng, 4)
    R = Operator(A, antilinear=antilinear).realified()
    X, Y = A.real, A.imag
    block = (np.block([[X, Y], [Y, -X]]) if antilinear
             else np.block([[X, -Y], [Y, X]]))
    np.testing.assert_array_equal(R, block)
    Jc = ComplexVectorSpace(4).complex_structure()
    sign = -1.0 if antilinear else 1.0
    np.testing.assert_allclose(R @ Jc, sign * (Jc @ R), atol=1e-14)
    x = random_vector(rng, 4)
    np.testing.assert_allclose(R @ realify(x),
                               realify(Operator(A, antilinear).apply(x)),
                               atol=1e-13)
    # the 2-norm of a realified matrix is the complex 2-norm
    assert np.linalg.norm(R, 2) == pytest.approx(np.linalg.norm(A, 2),
                                                 rel=1e-12)


def test_symplectic_complement_of_real_standard():
    K = RealSubspace(np.eye(4))
    Kp = symplectic_complement(K)
    assert subspace_distance(K, Kp) <= 1e-9
    assert K.dim + Kp.dim == 8


def test_symplectic_complement_of_zero():
    K = RealSubspace(np.zeros((3, 0)))
    assert symplectic_complement(K).dim == 6


def test_double_complement():
    rng = np.random.default_rng(18)
    for _ in range(50):
        r = int(rng.integers(1, 10))
        M = rng.standard_normal((10, r))
        K = RealSubspace.span(unrealify(M))
        Kpp = symplectic_complement(symplectic_complement(K))
        assert subspace_distance(K, Kpp) < 1e-10


def test_complement_pairing_vanishes():
    rng = np.random.default_rng(19)
    K = RealSubspace.span(unrealify(rng.standard_normal((8, 3))))
    Kp = symplectic_complement(K)
    for h in Kp.basis.T:
        for k in K.basis.T:
            assert abs(inner(h, k).imag) < 1e-12


def test_complement_reverses_inclusion():
    rng = np.random.default_rng(20)
    M = rng.standard_normal((8, 5))
    K2 = RealSubspace.span(unrealify(M))
    K1 = RealSubspace.span(unrealify(M[:, :2]))
    assert inclusion_residual(K1, K2) < 1e-12
    K2p, K1p = symplectic_complement(K2), symplectic_complement(K1)
    assert inclusion_residual(K2p, K1p) < 1e-10


def test_subspace_ops():
    rng = np.random.default_rng(21)
    K = RealSubspace.span(unrealify(rng.standard_normal((6, 3))))
    assert subspace_distance(subspace_intersection(K, K), K) <= 1e-9
    assert subspace_distance(subspace_sum(K, K), K) <= 1e-9
    e1 = RealSubspace.span(np.eye(3)[0][:, None])
    e2 = RealSubspace.span(np.eye(3)[1][:, None])
    assert subspace_intersection(e1, e2).dim == 0


@pytest.mark.parametrize("d1, d2", [(3, 4), (4, 3)])
@pytest.mark.parametrize("op", [subspace_sum, subspace_intersection,
                                inclusion_residual, subspace_distance,
                                principal_angles], ids=lambda op: op.__name__)
def test_subspaces_of_different_dimension_do_not_combine(op, d1, d2):
    # d is the row count of a basis; bases in C^3 and C^4 do not combine
    with pytest.raises(SpaceMismatchError):
        op(RealSubspace(np.eye(d1)), RealSubspace(np.eye(d2)))


def test_sum_dimension_for_standard_K():
    # K + K' has real dimension 2d - dim(K cap K')
    rng = np.random.default_rng(22)
    for _ in range(10):
        Z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        K = RealSubspace.span(Z)
        Kp = symplectic_complement(K)
        cap = subspace_intersection(K, Kp, cos_tol=1e-8)
        total = subspace_sum(K, Kp)
        assert total.dim == 8 - cap.dim


def test_principal_angles_basics():
    K = RealSubspace(np.eye(3))
    ang = principal_angles(K, K.mult_i())
    np.testing.assert_allclose(ang, np.pi / 2, atol=1e-12)
    same = principal_angles(K, K)
    np.testing.assert_allclose(same, 0.0, atol=1e-7)


@pytest.mark.parametrize("delta", [1e-6, 1e-9, 1e-11, 1e-13])
def test_subspace_distance_at_small_angles(delta):
    # real 3-dimensional subspaces of C^4 with one principal angle delta;
    # the frame is exact so that the distance sin(delta) is the only error
    E = np.eye(8)
    K1 = RealSubspace(unrealify(E[:, [0, 5, 2]]))
    tilted = np.cos(delta) * E[:, 2] + np.sin(delta) * E[:, 7]
    K2 = RealSubspace(unrealify(np.column_stack([E[:, 0], E[:, 5], tilted])))
    assert subspace_distance(K1, K2) == pytest.approx(delta, rel=1e-3, abs=0)
    assert subspace_distance(K2, K1) == pytest.approx(delta, rel=1e-3, abs=0)


def test_subspace_distance_of_unequal_and_empty_subspaces():
    rng = np.random.default_rng(24)
    K = RealSubspace.span(unrealify(rng.standard_normal((6, 3))))
    smaller = RealSubspace.span(K.basis[:, :2])
    empty = RealSubspace(np.zeros((3, 0)))
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


def assert_matches_mgs(M, dist_tol=1e-12):
    """The realified orthonormalized columns of unrealify(M), checked
    against the reference on M: same dimension, spans within dist_tol."""
    Q, ref = realify(orthonormalize_columns(unrealify(M))), mgs_reference(M)
    assert Q.shape == ref.shape
    np.testing.assert_allclose(Q.T @ Q, np.eye(Q.shape[1]), rtol=0, atol=1e-13)
    if Q.shape[1]:
        dist = subspace_distance(RealSubspace(unrealify(Q)),
                                 RealSubspace(orthonormal(unrealify(ref))))
        assert dist < dist_tol
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
    # residuals 1e-9 and 1e-11, on either side of ORTHO_DROP_TOL.  The SVD
    # drops the weakest direction, not the last column, so when it drops
    # the residual eps its span and the reference's differ by at most eps
    # over the smallest kept singular value, 1 here (3.7e-12 measured)
    E = np.eye(6)
    for eps, kept, tol in ((1e-9, 3, 1e-12), (1e-11, 2, 1e-11)):
        M = np.column_stack([E[:, 0], E[:, 1], E[:, 0] + 2 * E[:, 1] + eps * E[:, 2]])
        Q = assert_matches_mgs(M, tol)
        assert Q.shape[1] == kept
        assert subspace_distance(RealSubspace(unrealify(Q)),
                                 RealSubspace(unrealify(E[:, :kept]))) < tol


def test_orthonormalize_keeps_a_dimension_independent_of_column_order():
    # c is a 1e-3 multiple of a plus 1e-12 off its line: one direction
    # either way round, not one one way and two the other
    a = np.eye(3)[:, 0]
    c = 1e-3 * (a + 1e-9 * np.eye(3)[:, 1])
    ac = orthonormalize_columns(np.column_stack([a, c]))
    ca = orthonormalize_columns(np.column_stack([c, a]))
    assert ac.shape == ca.shape == (3, 1)
    assert subspace_distance(RealSubspace(ac), RealSubspace(ca)) < 1e-12


def test_orthonormalize_raises_on_a_nan_column():
    M = np.column_stack([np.eye(3)[:, 0], [np.nan, 1.0, 0.0]])
    with pytest.raises(np.linalg.LinAlgError):
        orthonormalize_columns(M)


def test_stacked_orthonormalize_keeps_each_slice_count():
    # slice 1 has a dependent column, slice 2 a zero one, and column 5 is
    # zero in every slice, so the stack loses it as a 2-D matrix would
    rng = np.random.default_rng(24)
    M = rng.standard_normal((3, 8, 6))
    M[1, :, 3] = M[1, :, :2] @ np.array([1.0, 2.0])
    M[2, :, 4] = 0.0
    M[:, :, 5] = 0.0
    M = unrealify(M)
    Q = orthonormalize_columns(M)
    assert Q.shape == (3, 4, 5)
    for Ms, Qs, count in zip(M, Q, (5, 4, 4)):
        kept = Qs[:, np.any(Qs, axis=0)]
        ref = orthonormalize_columns(Ms)
        assert kept.shape == ref.shape == (4, count)
        np.testing.assert_allclose(realify(kept).T @ realify(kept),
                                   np.eye(count), rtol=0, atol=1e-13)
        assert subspace_distance(RealSubspace(kept),
                                 RealSubspace(orthonormal(ref))) < 1e-12


def test_stacked_subspace_ops_match_each_slice():
    # a zero column (a direction dropped in that slice) must change
    # neither the complement nor the intersection nor the residuals
    rng = np.random.default_rng(25)
    B = orthonormalize_columns(unrealify(rng.standard_normal((3, 8, 3))))
    B[1, :, 2] = 0.0
    C = orthonormalize_columns(np.concatenate(
        [B[..., :2], unrealify(rng.standard_normal((3, 8, 2)))], axis=-1))
    K1, K2 = RealSubspace(B), RealSubspace(orthonormal(C))
    comp = symplectic_complement(K1)
    assert comp.dim == 6          # dimension 6 in slice 1, 5 in the others
    cap = subspace_intersection(K1, K2)
    res = inclusion_residual(K1, K2)
    dist = subspace_distance(K2, K1)
    for i in range(3):
        one = RealSubspace(orthonormal(B[i][:, np.any(B[i], axis=0)]))
        two = RealSubspace(C[i])
        assert subspace_distance(RealSubspace(comp.basis[i]),
                                 symplectic_complement(one)) < 1e-12
        assert subspace_distance(RealSubspace(cap.basis[i]),
                                 subspace_intersection(one, two)) < 1e-12
        assert abs(res[i] - inclusion_residual(one, two)) < 1e-12
        assert abs(dist[i] - subspace_distance(two, one)) < 1e-12


def empty_operand_results(empty, K):
    """What each subspace kernel gives with the empty subspace as an operand."""
    return {"complement": symplectic_complement(empty).basis,
            "empty & K": subspace_intersection(empty, K).basis,
            "K & empty": subspace_intersection(K, empty).basis,
            "empty <= K": inclusion_residual(empty, K),
            "K <= empty": inclusion_residual(K, empty),
            "angles": principal_angles(empty, K),
            "angles'": principal_angles(K, empty),
            "distance": subspace_distance(empty, K)}


def test_a_stack_of_empty_subspaces_keeps_its_stack_axis():
    # an empty operand takes the general path, so a stack (3, d, 0) gives
    # a stack of what the 2-D empty subspace gives, slice by slice
    rng = np.random.default_rng(26)
    empty = RealSubspace(np.zeros((3, 4, 0), dtype=complex))
    K = RealSubspace(orthonormal(orthonormalize_columns(
        unrealify(rng.standard_normal((3, 8, 3))))))
    stacked = empty_operand_results(empty, K)
    for i in range(3):
        alone = empty_operand_results(RealSubspace(empty.basis[i]),
                                      RealSubspace(K.basis[i]))
        for name, got in stacked.items():
            assert np.shape(got) == (3,) + np.shape(alone[name]), name
            np.testing.assert_allclose(got[i], alone[name], rtol=0,
                                       atol=1e-14, err_msg=name)
    assert stacked["complement"].shape == (3, 4, 8)


@pytest.mark.parametrize("shape", [(0, 4), (4, 0), (0, 0), (3, 0, 4),
                                   (3, 4, 0)])
def test_numpy_decomposes_empty_matrices(shape):
    # the subspace kernels have no branch for an empty operand: they rely
    # on numpy's svd and eigvalsh accepting empty matrices, stacked or not
    A, stack, (m, n) = np.zeros(shape), shape[:-2], shape[-2:]
    U, sv, Vt = np.linalg.svd(A)
    assert (U.shape, sv.shape) == (stack + (m, m), stack + (0,))
    # a full SVD still gives an orthonormal basis of the whole row space
    np.testing.assert_array_equal(Vt @ Vt.swapaxes(-1, -2),
                                  np.broadcast_to(np.eye(n), stack + (n, n)))
    U, sv, Vt = np.linalg.svd(A, full_matrices=False)
    assert (U.shape, sv.shape, Vt.shape) == (stack + (m, 0), stack + (0,),
                                             stack + (0, n))
    assert np.linalg.svd(A, compute_uv=False).shape == stack + (0,)
    assert np.linalg.eigvalsh(np.zeros(stack + (0, 0))).shape == stack + (0,)


@pytest.mark.parametrize("shape", [(4, 3), (3, 4), (5, 5), (2, 6, 3),
                                   (3, 4, 4)])
def test_operator_norm_matches_the_largest_singular_value(shape):
    rng = np.random.default_rng(12)
    M = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ref = np.linalg.svd(M, compute_uv=False)[..., 0]
    np.testing.assert_allclose(operator_norm(M), ref, rtol=1e-14)
    assert np.shape(operator_norm(M)) == shape[:-2]


@pytest.mark.parametrize("shape", [(3, 0), (0, 3), (0, 0), (2, 0, 3),
                                   (2, 3, 0)])
def test_operator_norm_of_an_empty_matrix_is_zero(shape):
    got = operator_norm(np.zeros(shape, dtype=complex))
    assert np.shape(got) == shape[:-2]
    assert np.all(got == 0.0)
    assert operator_norm(np.zeros((0, 3, 3))).shape == (0,)


def test_operator_norm_of_a_nan_matrix_is_nan():
    # a NaN residual fails its record instead of raising LinAlgError
    assert np.isnan(operator_norm(np.full((2, 2), np.nan)))
