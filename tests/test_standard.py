import numpy as np
import pytest

from modlab.hilbert import (
    ComplexVectorSpace, Operator, RealSubspace, principal_angles,
    subspace_distance, subspace_intersection,
    symplectic_complement, times_i,
)
from modlab.standard import (
    NotStandardError, fiber_standard_subspace, fiberize, is_standard,
    modular_data, modular_flow, random_standard_subspace,
    reassemble_modular, tomita_operator,
)


def test_real_standard_is_standard():
    V = ComplexVectorSpace(4)
    ok, cert = is_standard(RealSubspace.real_standard(V))
    assert ok and cert.dim_intersection == 0 and cert.dim_sum == 8


def test_complex_line_is_not_standard():
    V = ComplexVectorSpace(2)
    e1 = V.basis_vector(0)
    K = RealSubspace.from_complex_vectors(V, [e1, 1j * e1])
    ok, cert = is_standard(K)
    assert not ok
    assert cert.dim_sum == 2  # K + iK is only the complex line


def test_fiber_subspace_is_standard():
    V = ComplexVectorSpace(2)
    K = fiber_standard_subspace(V, [np.pi / 3])
    ok, _ = is_standard(K)
    assert ok


def test_tomita_on_real_standard_is_conjugation():
    V = ComplexVectorSpace(3)
    s = tomita_operator(RealSubspace.real_standard(V))
    assert s.antilinear
    np.testing.assert_allclose(s.matrix, np.eye(3), atol=1e-12)


def test_tomita_requires_standard():
    V = ComplexVectorSpace(2)
    e1 = V.basis_vector(0)
    K = RealSubspace.from_complex_vectors(V, [e1, 1j * e1])
    with pytest.raises(NotStandardError) as exc:
        tomita_operator(K)
    assert exc.value.certificate.dim_sum == 2


def test_fiber_delta_spectrum():
    # tan^2(pi/6) = 1/3: delta eigenvalues {1/3, 3}
    V = ComplexVectorSpace(2)
    K = fiber_standard_subspace(V, [np.pi / 3])
    md = modular_data(tomita_operator(K))
    ev = np.sort(np.unique(np.round(md._eigenvalues, 9)))
    np.testing.assert_allclose(ev, [1.0 / 3.0, 3.0], atol=1e-9)
    logs = sorted(lg for lg, _ in md.log_delta_spectrum)
    np.testing.assert_allclose(logs, [-np.log(3.0), np.log(3.0)], atol=1e-9)


def test_tomita_squares_to_identity():
    rng = np.random.default_rng(31)
    V = ComplexVectorSpace(6)
    for _ in range(10):
        K = random_standard_subspace(V, rng)
        s = tomita_operator(K)
        assert np.linalg.norm((s @ s).matrix - np.eye(6), 2) < 1e-10


def test_fixed_points_of_tomita_are_K():
    rng = np.random.default_rng(32)
    V = ComplexVectorSpace(5)
    K = random_standard_subspace(V, rng)
    s = tomita_operator(K)
    for k in K.complex_vectors():
        assert np.linalg.norm(s.apply(k) - k) < 1e-10
    x = V.random_vector(rng)
    fixed = 0.5 * (x + s.apply(x))
    assert K.contains(fixed, tol=1e-9)


def test_modular_data_of_conjugation():
    V = ComplexVectorSpace(3)
    md = modular_data(tomita_operator(RealSubspace.real_standard(V)))
    np.testing.assert_allclose(md.delta.matrix, np.eye(3), atol=1e-12)
    assert md.j.antilinear
    np.testing.assert_allclose(md.j.matrix, np.eye(3), atol=1e-12)


def delta_power(md, p):
    """delta^p by spectral calculus on its own eigendecomposition."""
    ev, V = np.linalg.eigh(md.delta.matrix)
    return Operator((V * ev ** p) @ V.conj().T)


def test_modular_data_invariants():
    rng = np.random.default_rng(33)
    V = ComplexVectorSpace(5)
    for _ in range(5):
        K = random_standard_subspace(V, rng)
        md = modular_data(tomita_operator(K))
        half = delta_power(md, 0.5)
        np.testing.assert_allclose((md.j @ half).matrix, md.s.matrix, atol=1e-10)
        np.testing.assert_allclose((md.j @ md.j).matrix, np.eye(5), atol=1e-10)
        # j delta j = delta^(-1)
        lhs = (md.j @ md.delta @ md.j).matrix
        np.testing.assert_allclose(lhs, delta_power(md, -1.0).matrix, atol=1e-9)
        # j anticommutes with delta^(1/2): j d^(1/2) = d^(-1/2) j
        np.testing.assert_allclose((md.j @ half).matrix,
                                   (delta_power(md, -0.5) @ md.j).matrix,
                                   atol=1e-10)


def test_adjoint_is_tomita_of_complement():
    rng = np.random.default_rng(34)
    V = ComplexVectorSpace(5)
    for _ in range(5):
        K = random_standard_subspace(V, rng)
        s = tomita_operator(K)
        sp = tomita_operator(symplectic_complement(K))
        np.testing.assert_allclose(sp.matrix, s.adjoint().matrix, atol=1e-9)


def test_j_maps_K_to_complement():
    rng = np.random.default_rng(35)
    V = ComplexVectorSpace(5)
    for _ in range(5):
        K = random_standard_subspace(V, rng)
        md = modular_data(tomita_operator(K))
        jK = RealSubspace.from_complex_vectors(
            V, md.j.apply(K.complex_vectors().T).T)
        assert subspace_distance(jK, symplectic_complement(K)) < 1e-9


def test_K_cap_Kprime_is_joint_fixed_space():
    V = ComplexVectorSpace(4)
    # one genuine fiber plus a two-dimensional fixed part
    K = fiber_standard_subspace(V, [np.pi / 4], n_fixed=2)
    md = modular_data(tomita_operator(K))
    cap = subspace_intersection(K, symplectic_complement(K), cos_tol=1e-8)
    fix_j = RealSubspace.from_real_span(
        V, _fixed_space(md.j.realified()))
    fix_d = RealSubspace.from_real_span(
        V, _fixed_space(md.delta.realified()))
    joint = subspace_intersection(fix_j, fix_d, cos_tol=1e-8)
    assert subspace_distance(cap, joint) < 1e-8


def _fixed_space(M):
    ev, V = np.linalg.eigh(0.5 * (M + M.T))
    return V[:, np.abs(ev - 1.0) < 1e-8]


def test_modular_flow_identity_and_group_law():
    rng = np.random.default_rng(36)
    V = ComplexVectorSpace(4)
    K = random_standard_subspace(V, rng)
    md = modular_data(tomita_operator(K))
    np.testing.assert_allclose(modular_flow(md, 0.0).matrix, np.eye(4),
                               atol=1e-12)
    s_, t_ = 0.37, -1.21
    lhs = (modular_flow(md, s_) @ modular_flow(md, t_)).matrix
    np.testing.assert_allclose(lhs, modular_flow(md, s_ + t_).matrix,
                               atol=1e-11)


def test_modular_flow_preserves_K():
    rng = np.random.default_rng(37)
    V = ComplexVectorSpace(5)
    K = random_standard_subspace(V, rng)
    md = modular_data(tomita_operator(K))
    for t in (0.3, 1.7):
        FK = RealSubspace.from_complex_vectors(
            V, modular_flow(md, t).apply(K.complex_vectors().T).T)
        assert subspace_distance(FK, K) < 1e-9


def test_flow_mixes_fiber_frame():
    # delta^it y+ = cos(t log tan^2(th/2)) y+ + sin(...) y-,
    # delta^it y- = cos(...) y- - sin(...) y+
    V = ComplexVectorSpace(2)
    th = np.pi / 3
    K = fiber_standard_subspace(V, [th])
    md = modular_data(tomita_operator(K))
    blocks, _ = fiberize(K)
    yp, ym = blocks[0].y_plus, blocks[0].y_minus
    w = np.log(np.tan(th / 2.0) ** 2)
    for t in (0.21, 1.3):
        F = modular_flow(md, t)
        lhs_p = F.apply(yp)
        rhs_p = np.cos(w * t) * yp + np.sin(w * t) * ym
        np.testing.assert_allclose(lhs_p, rhs_p, atol=1e-11)
        lhs_m = F.apply(ym)
        rhs_m = np.cos(w * t) * ym - np.sin(w * t) * yp
        np.testing.assert_allclose(lhs_m, rhs_m, atol=1e-11)


def test_fiberize_real_standard():
    V = ComplexVectorSpace(3)
    K = RealSubspace.real_standard(V)
    blocks, fixed = fiberize(K)
    assert blocks == []
    assert subspace_distance(fixed, K) <= 1e-9
    ang = principal_angles(K, K.mult_i())
    np.testing.assert_allclose(ang, np.pi / 2, atol=1e-12)


def test_fiberize_recovers_theta():
    V = ComplexVectorSpace(2)
    K = fiber_standard_subspace(V, [np.pi / 3])
    blocks, fixed = fiberize(K)
    assert fixed.dim == 0
    assert len(blocks) == 1
    assert abs(blocks[0].theta - np.pi / 3) < 1e-10
    # y vectors lie in K and are fixed by s
    s = tomita_operator(K)
    for y in (blocks[0].y_plus, blocks[0].y_minus):
        assert K.contains(y, tol=1e-10)
        assert np.linalg.norm(s.apply(y) - y) < 1e-10


def test_fiberize_matches_principal_angles():
    rng = np.random.default_rng(38)
    for d in (4, 6, 7):
        V = ComplexVectorSpace(d)
        K = random_standard_subspace(V, rng)
        blocks, fixed = fiberize(K)
        thetas = sorted([b.theta for b in blocks for _ in range(2)]
                        + [np.pi / 2] * fixed.dim)
        oracle = np.sort(principal_angles(K, K.mult_i()))
        np.testing.assert_allclose(np.sort(thetas), oracle, atol=1e-9)


def test_reassembly_reproduces_modular_data():
    rng = np.random.default_rng(39)
    for d in (2, 4, 5):
        V = ComplexVectorSpace(d)
        K = random_standard_subspace(V, rng)
        md = modular_data(tomita_operator(K))
        blocks, fixed = fiberize(K)
        jmat, dmat = reassemble_modular(V, blocks, fixed)
        assert np.linalg.norm(jmat - md.j.matrix, 2) < 1e-9
        assert np.linalg.norm(dmat - md.delta.matrix, 2) < 1e-9 * md.condition_number ** 0.5


def test_block_y_vectors_span_K_trace():
    V = ComplexVectorSpace(4)
    K = fiber_standard_subspace(V, [0.5, 1.1])
    blocks, fixed = fiberize(K)
    vecs = [b.y_plus for b in blocks] + [b.y_minus for b in blocks]
    recon = RealSubspace.from_complex_vectors(V, vecs)
    assert subspace_distance(recon, K) < 1e-10


def realified_tomita(K):
    """Reference: s on the realification, from the 2d x 2d solve
    x = B u + (iB) v  ->  s x = B u - (iB) v."""
    B, iB = K.basis, times_i(K.basis)
    P, Q = np.hstack([B, iB]), np.hstack([B, -iB])
    return Q @ np.linalg.solve(P, np.eye(P.shape[0]))


def realified_modular_data(M):
    """Reference: delta = M^T M, j = M delta^(-1/2) and delta^(it) from a
    real eigh of the realified delta; each eigenvalue appears twice."""
    D = M.T @ M
    ev, V = np.linalg.eigh(0.5 * (D + D.T))
    J = M @ ((V * ev ** -0.5) @ V.T)

    def flow(t):
        C = (V * np.cos(t * np.log(ev))) @ V.T
        S = (V * np.sin(t * np.log(ev))) @ V.T
        return C + times_i(S)
    return ev, D, J, flow


def test_complex_route_matches_realified_reference():
    rng = np.random.default_rng(40)
    for d in range(2, 9):
        V = ComplexVectorSpace(d)
        for _ in range(3):
            K = random_standard_subspace(V, rng)
            s = tomita_operator(K)
            md = modular_data(s)
            M = realified_tomita(K)
            ev, D, J, flow = realified_modular_data(M)
            assert np.linalg.norm(s.realified() - M, 2) < 1e-10
            assert np.linalg.norm(md.delta.realified() - D, 2) < 1e-10
            assert np.linalg.norm(md.j.realified() - J, 2) < 1e-10
            for t in (0.3, 1.7):
                assert np.linalg.norm(
                    modular_flow(md, t).realified() - flow(t), 2) < 1e-10
            # log-spectra agree, each realified eigenvalue counted twice
            np.testing.assert_allclose(np.repeat(np.log(md._eigenvalues), 2),
                                       np.log(ev), atol=1e-10)
            counts = [m for _, m in md.log_delta_spectrum]
            assert sum(counts) == d
            for lg, m in md.log_delta_spectrum:
                assert np.sum(np.abs(np.log(ev) - lg) < 1e-8) == 2 * m


def test_fiberize_degenerate_angles():
    # a repeated angle: its delta eigenspace is a complex plane
    rng = np.random.default_rng(41)
    V = ComplexVectorSpace(7)
    K0 = fiber_standard_subspace(V, [0.7, 0.7, 1.2], n_fixed=1)
    Q, R = np.linalg.qr(rng.standard_normal((7, 7))
                        + 1j * rng.standard_normal((7, 7)))
    U = Operator(Q * (np.diag(R) / np.abs(np.diag(R)))).realified()
    K = RealSubspace.from_real_span(V, U @ K0.basis)
    md = modular_data(tomita_operator(K))
    assert [m for _, m in md.log_delta_spectrum] == [2, 1, 1, 1, 2]
    blocks, fixed = fiberize(K)
    np.testing.assert_allclose([b.theta for b in blocks], [0.7, 0.7, 1.2],
                               atol=1e-10)
    assert fixed.dim == 1
    jmat, dmat = reassemble_modular(V, blocks, fixed)
    assert np.linalg.norm(jmat - md.j.matrix, 2) < 1e-9
    assert np.linalg.norm(dmat - md.delta.matrix, 2) < 1e-9 * md.condition_number ** 0.5
    s = tomita_operator(K)
    ys = [y for b in blocks for y in (b.y_plus, b.y_minus)]
    for y in ys:
        assert np.linalg.norm(s.apply(y) - y) < 1e-10
    span = RealSubspace.from_complex_vectors(
        V, ys + list(fixed.complex_vectors()))
    assert span.dim == K.dim
    assert subspace_distance(span, K) < 1e-10
