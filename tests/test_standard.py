import numpy as np
import pytest

from modlab import checks
from modlab.checks import check_standard_suite, worst
from modlab.config import ExperimentConfig
from modlab.hilbert import (
    Operator, RealSubspace, principal_angles,
    fixed_space, subspace_distance, subspace_intersection,
    symplectic_complement,
)
from modlab.standard import (
    NotStandardError, delta_fixed_space, draw_standard_subspace,
    fiber_standard_subspace, fiberize, is_standard, modular_data, modular_flow, random_standard_subspace,
    reassemble_modular, rotated_standard_subspace, tomita_operator,
)


def test_real_standard_is_standard():
    ok, cert = is_standard(RealSubspace(np.eye(4)))
    assert ok and cert.dim_intersection == 0 and cert.dim_sum == 8


def test_complex_line_is_not_standard():
    e1 = np.eye(2)[0]
    K = RealSubspace.span(np.column_stack([e1, 1j * e1]))
    ok, cert = is_standard(K)
    assert not ok
    assert cert.dim_sum == 2  # K + iK is only the complex line


def test_fiber_subspace_is_standard():
    K = fiber_standard_subspace(2, [np.pi / 3])
    ok, _ = is_standard(K)
    assert ok


def test_tomita_on_real_standard_is_conjugation():
    s = tomita_operator(RealSubspace(np.eye(3)))
    assert s.antilinear
    np.testing.assert_allclose(s.matrix, np.eye(3), atol=1e-12)


def test_tomita_requires_standard():
    e1 = np.eye(2)[0]
    K = RealSubspace.span(np.column_stack([e1, 1j * e1]))
    with pytest.raises(NotStandardError) as exc:
        tomita_operator(K)
    assert exc.value.certificate.dim_sum == 2


def test_fiber_delta_spectrum():
    # tan^2(pi/6) = 1/3: delta eigenvalues {1/3, 3}
    K = fiber_standard_subspace(2, [np.pi / 3])
    md = modular_data(K)
    ev = np.sort(np.unique(np.round(np.exp(md.log_delta), 9)))
    np.testing.assert_allclose(ev, [1.0 / 3.0, 3.0], atol=1e-9)
    logs = sorted(lg for lg, _ in md.log_delta_spectrum)
    np.testing.assert_allclose(logs, [-np.log(3.0), np.log(3.0)], atol=1e-9)


def test_tomita_squares_to_identity():
    rng = np.random.default_rng(31)
    for _ in range(10):
        K = random_standard_subspace(6, rng)
        s = tomita_operator(K)
        assert np.linalg.norm((s @ s).matrix - np.eye(6), 2) < 1e-10


def test_fixed_points_of_tomita_are_K():
    rng = np.random.default_rng(32)
    K = random_standard_subspace(5, rng)
    s = tomita_operator(K)
    for k in K.basis.T:
        assert np.linalg.norm(s.apply(k) - k) < 1e-10
    x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    fixed = 0.5 * (x + s.apply(x))
    assert K.contains(fixed)


def test_modular_data_of_conjugation():
    md = modular_data(RealSubspace(np.eye(3)))
    np.testing.assert_allclose(md.delta.matrix, np.eye(3), atol=1e-12)
    assert md.j.antilinear
    np.testing.assert_allclose(md.j.matrix, np.eye(3), atol=1e-12)


def delta_power(md, p):
    """delta^p by spectral calculus on its own eigendecomposition."""
    ev, V = np.linalg.eigh(md.delta.matrix)
    return Operator((V * ev ** p) @ V.conj().T)


def test_modular_data_invariants():
    rng = np.random.default_rng(33)
    for _ in range(5):
        K = random_standard_subspace(5, rng)
        md = modular_data(K)
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
    for _ in range(5):
        K = random_standard_subspace(5, rng)
        s = tomita_operator(K)
        sp = tomita_operator(symplectic_complement(K))
        np.testing.assert_allclose(sp.matrix, s.adjoint().matrix, atol=1e-9)


def test_j_maps_K_to_complement():
    rng = np.random.default_rng(35)
    for _ in range(5):
        K = random_standard_subspace(5, rng)
        md = modular_data(K)
        jK = RealSubspace.span(md.j.apply(K.basis))
        assert subspace_distance(jK, symplectic_complement(K)) < 1e-9


def test_K_cap_Kprime_is_joint_fixed_space():
    # one genuine fiber plus a two-dimensional fixed part
    K = fiber_standard_subspace(4, [np.pi / 4], n_fixed=2)
    md = modular_data(K)
    cap = subspace_intersection(K, symplectic_complement(K), cos_tol=1e-8)
    joint = subspace_intersection(fixed_space(md.j), delta_fixed_space(md),
                                  cos_tol=1e-8)
    assert subspace_distance(cap, joint) < 1e-8
    # the fixed spaces themselves, against eigh of the realified maps
    for op in (md.j, md.delta):
        ref = RealSubspace.span(unrealify(_fixed_space(op.realified())))
        assert subspace_distance(fixed_space(op), ref) < 1e-10
    ref = RealSubspace.span(unrealify(_fixed_space(md.delta.realified())))
    assert delta_fixed_space(md).dim == 4
    assert subspace_distance(delta_fixed_space(md), ref) < 1e-10


def test_delta_fixed_space_of_a_stack_is_that_of_each_slice():
    # delta fixed spaces of real dimension 2, 6 and 2 in one stack of C^3
    rng = np.random.default_rng(34)
    draws = [(fiber_standard_subspace(3, [0.9], n_fixed=1).basis,
              rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))),
             (np.eye(3, dtype=complex),
              rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))]
    draws.append(draws[0])
    stack = rotated_standard_subspace(*map(np.stack, zip(*draws)))
    got = delta_fixed_space(modular_data(stack))
    for i, fib in enumerate(draws):
        md = modular_data(rotated_standard_subspace(*fib))
        ref = RealSubspace.span(unrealify(_fixed_space(md.delta.realified())))
        slice_ = RealSubspace(got.basis[i])
        assert subspace_distance(slice_, ref) < 1e-10


def realify(Z):
    """Reference realification a + ib -> (a, b) of columns."""
    return np.concatenate([Z.real, Z.imag], axis=-2)


def unrealify(M):
    d = M.shape[-2] // 2
    return M[..., :d, :] + 1j * M[..., d:, :]


def times_i(M):
    """Multiplication by i on realified columns: (a, b) -> (-b, a)."""
    d = M.shape[-2] // 2
    return np.concatenate([-M[..., d:, :], M[..., :d, :]], axis=-2)


def _fixed_space(M):
    ev, V = np.linalg.eigh(0.5 * (M + M.T))
    return V[:, np.abs(ev - 1.0) < 1e-8]


def test_modular_flow_identity_and_group_law():
    rng = np.random.default_rng(36)
    K = random_standard_subspace(4, rng)
    md = modular_data(K)
    np.testing.assert_allclose(modular_flow(md, 0.0).matrix, np.eye(4),
                               atol=1e-12)
    s_, t_ = 0.37, -1.21
    lhs = (modular_flow(md, s_) @ modular_flow(md, t_)).matrix
    np.testing.assert_allclose(lhs, modular_flow(md, s_ + t_).matrix,
                               atol=1e-11)


def test_modular_flow_preserves_K():
    rng = np.random.default_rng(37)
    K = random_standard_subspace(5, rng)
    md = modular_data(K)
    for t in (0.3, 1.7):
        FK = RealSubspace.span(modular_flow(md, t).apply(K.basis))
        assert subspace_distance(FK, K) < 1e-9


def test_flow_mixes_fiber_frame():
    # delta^it y+ = cos(t log tan^2(th/2)) y+ + sin(...) y-,
    # delta^it y- = cos(...) y- - sin(...) y+
    th = np.pi / 3
    K = fiber_standard_subspace(2, [th])
    md = modular_data(K)
    fibers = fiberize(K)
    yp, ym = fibers.y_plus[:, 0], fibers.y_minus[:, 0]
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
    K = RealSubspace(np.eye(3))
    fibers = fiberize(K)
    assert fibers.theta.shape == (0,)
    for block in (fibers.v, fibers.jv, fibers.y_plus, fibers.y_minus):
        assert block.shape == (3, 0)
    assert subspace_distance(fibers.fixed, K) <= 1e-9
    ang = principal_angles(K, K.mult_i())
    np.testing.assert_allclose(ang, np.pi / 2, atol=1e-12)


def test_fiberize_recovers_theta():
    K = fiber_standard_subspace(2, [np.pi / 3])
    fibers = fiberize(K)
    assert fibers.fixed.dim == 0
    assert fibers.theta.shape == (1,)
    assert abs(fibers.theta[0] - np.pi / 3) < 1e-10
    # y vectors lie in K and are fixed by s
    s = tomita_operator(K)
    for y in (fibers.y_plus[:, 0], fibers.y_minus[:, 0]):
        assert np.linalg.norm(y - K.project(y)) <= 1e-10 * np.linalg.norm(y)
        assert np.linalg.norm(s.apply(y) - y) < 1e-10


def test_fiberize_matches_principal_angles():
    rng = np.random.default_rng(38)
    for d in (4, 6, 7):
        K = random_standard_subspace(d, rng)
        fibers = fiberize(K)
        assert np.all(np.diff(fibers.theta) >= 0)
        thetas = np.concatenate([np.repeat(fibers.theta, 2),
                                 np.full(fibers.fixed.dim, np.pi / 2)])
        oracle = np.sort(principal_angles(K, K.mult_i()))
        np.testing.assert_allclose(thetas, oracle, atol=1e-9)


def test_reassembly_reproduces_modular_data():
    rng = np.random.default_rng(39)
    for d in (2, 4, 5):
        K = random_standard_subspace(d, rng)
        md = modular_data(K)
        jmat, dmat = reassemble_modular(fiberize(K))
        assert np.linalg.norm(jmat - md.j.matrix, 2) < 1e-9
        assert np.linalg.norm(dmat - md.delta.matrix, 2) < 1e-9 * md.condition_number ** 0.5


def test_block_y_vectors_span_K_trace():
    K = fiber_standard_subspace(4, [0.5, 1.1])
    fibers = fiberize(K)
    recon = RealSubspace.span(np.hstack([fibers.y_plus, fibers.y_minus]))
    assert subspace_distance(recon, K) < 1e-10


def realified_tomita(K):
    """Reference: s on the realification, from the 2d x 2d solve
    x = B u + (iB) v  ->  s x = B u - (iB) v."""
    B = realify(K.basis)
    iB = times_i(B)
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
        for _ in range(3):
            K = random_standard_subspace(d, rng)
            md = modular_data(K)
            s = md.s
            M = realified_tomita(K)
            ev, D, J, flow = realified_modular_data(M)
            assert np.linalg.norm(s.realified() - M, 2) < 1e-10
            assert np.linalg.norm(md.delta.realified() - D, 2) < 1e-10
            assert np.linalg.norm(md.j.realified() - J, 2) < 1e-10
            for t in (0.3, 1.7):
                assert np.linalg.norm(
                    modular_flow(md, t).realified() - flow(t), 2) < 1e-10
            # log-spectra agree, each realified eigenvalue counted twice
            np.testing.assert_allclose(np.repeat(md.log_delta, 2),
                                       np.log(ev), atol=1e-10)
            counts = [m for _, m in md.log_delta_spectrum]
            assert sum(counts) == d
            for lg, m in md.log_delta_spectrum:
                assert np.sum(np.abs(np.log(ev) - lg) < 1e-8) == 2 * m


def test_fiberize_degenerate_angles():
    # a repeated angle: its delta eigenspace is a complex plane
    rng = np.random.default_rng(41)
    K0 = fiber_standard_subspace(7, [0.7, 0.7, 1.2], n_fixed=1)
    Q, R = np.linalg.qr(rng.standard_normal((7, 7))
                        + 1j * rng.standard_normal((7, 7)))
    U = Q * (np.diag(R) / np.abs(np.diag(R)))
    K = RealSubspace.span(U @ K0.basis)
    md = modular_data(K)
    assert [m for _, m in md.log_delta_spectrum] == [2, 1, 1, 1, 2]
    fibers = fiberize(K)
    np.testing.assert_allclose(fibers.theta, [0.7, 0.7, 1.2], atol=1e-10)
    assert fibers.fixed.dim == 1
    jmat, dmat = reassemble_modular(fibers)
    assert np.linalg.norm(jmat - md.j.matrix, 2) < 1e-9
    assert np.linalg.norm(dmat - md.delta.matrix, 2) < 1e-9 * md.condition_number ** 0.5
    s = tomita_operator(K)
    ys = np.hstack([fibers.y_plus, fibers.y_minus])
    assert np.linalg.norm(s.apply(ys) - ys, axis=0).max() < 1e-10
    span = RealSubspace.span(np.hstack([ys, fibers.fixed.basis]))
    assert span.dim == K.dim
    assert subspace_distance(span, K) < 1e-10


def small_angle_subspace(theta):
    """One fiber of angle theta, one of 0.4 and a fixed direction in C^5,
    rotated at random."""
    rng = np.random.default_rng(5)
    Z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    return rotated_standard_subspace(
        fiber_standard_subspace(5, [theta, 0.4], n_fixed=1).basis, Z)


@pytest.mark.parametrize("theta", [1e-3, 3e-4, 1e-4, 5e-5])
def test_small_angle_modular_data_in_the_log_domain(theta):
    # the singular values sqrt(2) sin(theta/2) keep their relative
    # precision, so delta's smallest eigenvalue is resolved wherever
    # is_standard accepts
    K = small_angle_subspace(theta)
    assert is_standard(K)[0]
    md = modular_data(K)
    want = 2.0 * np.log(np.tan(theta / 2.0))
    assert abs(md.log_delta[0] - want) <= 1e-12 * abs(want)
    assert np.linalg.norm((md.j @ md.j).matrix - np.eye(5), 2) < 1e-10
    assert abs(fiberize(K).theta[0] - theta) <= 1e-11 * theta


def test_angle_below_the_rank_floor_is_not_standard():
    K = small_angle_subspace(1e-5)
    assert not is_standard(K)[0]
    with pytest.raises(NotStandardError):
        modular_data(K)


def test_stack_with_one_nonstandard_slice_raises_its_certificate():
    e1 = np.eye(2)[0]
    good = np.eye(2, dtype=complex)
    line = RealSubspace.span(np.column_stack([e1, 1j * e1])).basis
    K = RealSubspace(np.stack([good, line, good]))
    assert not is_standard(K)[0]
    with pytest.raises(NotStandardError) as exc:
        tomita_operator(K)
    cert = is_standard(RealSubspace(line))[1]
    assert exc.value.certificate == cert
    assert (cert.dim_intersection, cert.dim_sum) == (2, 2)


@pytest.mark.parametrize("d", [2, 5, checks.MAX_DIM])
def test_isometry_images_are_re_orthonormal(d):
    # rotated_standard_subspace and check_standard_suite hold these images
    # as RealSubspace bases without re-orthonormalizing them: U and the
    # modular flow are unitary, j antiunitary, and the fibers Re-orthonormal.
    # j divides by the basis' singular values, down to about 0.1 at the
    # smallest fiber angle, so its image is orthonormal to 1e-12, not 1e-13
    rng = np.random.default_rng(d)
    fibers, Z = map(np.stack, zip(*(draw_standard_subspace(d, rng)
                                    for _ in range(16))))
    K = rotated_standard_subspace(fibers, Z)
    md = modular_data(K)
    images = [(fibers, 1e-13), (K.basis, 1e-13), (md.j.apply(K.basis), 1e-12),
              *((modular_flow(md, t).apply(K.basis), 1e-13)
                for t in checks.FLOW_TIMES)]
    for B, tol in images:
        gram = (B.conj().swapaxes(-1, -2) @ B).real
        assert np.max(np.abs(gram - np.eye(d))) <= tol


def loop_reference(config, rng):
    """check_standard_suite one sample at a time, as it ran before it
    checked stacks: the record values by name."""
    p = config.subspace
    found = {k: [] for k in ("involution", "adjoint", "conjugation", "flow",
                             "fixed")}
    for _ in range(p["n_samples"]):
        d = int(rng.integers(2, checks.MAX_DIM + 1))
        K = random_standard_subspace(d, rng)
        md = modular_data(K)
        s = md.s
        found["involution"].append(np.linalg.norm(
            (s @ s).matrix - np.eye(d), 2))
        Kp = symplectic_complement(K)
        sp = tomita_operator(Kp)
        found["adjoint"].append(np.linalg.norm(
            sp.matrix - s.adjoint().matrix, 2))
        jK = RealSubspace.span(md.j.apply(K.basis))
        found["conjugation"].append(subspace_distance(jK, Kp))
        for t in checks.FLOW_TIMES:
            FK = RealSubspace.span(modular_flow(md, float(t)).apply(K.basis))
            found["flow"].append(subspace_distance(FK, K))
        cap = subspace_intersection(K, Kp, cos_tol=1e-8)
        fix = subspace_intersection(
            RealSubspace.span(unrealify(_fixed_space(md.j.realified()))),
            RealSubspace.span(unrealify(_fixed_space(md.delta.realified()))),
            cos_tol=1e-8)
        found["fixed"].append(subspace_distance(cap, fix))
    return {f"subspace.{k}": worst(v) for k, v in found.items()}


@pytest.mark.parametrize("seed, subspace, max_dim", [
    *((seed, {}, 8) for seed in range(8)),
    (7, {"n_samples": 1}, 8), (7, {}, 2), (7, {}, 3),
], ids=[*(f"seed{seed}" for seed in range(8)), "one_sample", "one_group",
        "two_groups"])
def test_stacked_suite_matches_the_loop_reference(monkeypatch, seed, subspace,
                                                  max_dim):
    monkeypatch.setattr(checks, "MAX_DIM", max_dim)
    cfg = ExperimentConfig.from_dict({"kind": "subspace", "seed": seed,
                                      "subspace": subspace})
    got = {r["name"]: r["value"]
           for r in check_standard_suite(cfg, np.random.default_rng(seed))}
    want = loop_reference(cfg, np.random.default_rng(seed))
    assert got.keys() == want.keys()
    for name, value in want.items():
        assert abs(got[name] - value) <= 1e-10, name


def test_tiny_tolerance_fails_every_suite_record():
    cfg = ExperimentConfig.from_dict({"kind": "subspace",
                                      "subspace": {"tolerance": 1e-300}})
    records = check_standard_suite(cfg, np.random.default_rng(7))
    assert len(records) == 5
    assert not any(r["passed"] for r in records)
