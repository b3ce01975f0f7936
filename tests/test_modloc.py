import numpy as np
import pytest

from modlab import modloc
from modlab.freefield import (
    FreeFieldModel, PoincareElement, Region2, SupportError, TestFunction2,
    bw_residual_of_vector, compressed_fixed_defect, embed, poincare_act,
    wedge_tomita_apply,
)
from modlab.hilbert import RealSubspace, subspace_distance, subspace_sum
from modlab.modloc import (
    EmptyModelError, LocalizedNet, PoincareRep2, doublecone_space,
    embed_probe, localized_subspace, net_checks,
)


@pytest.fixture(scope="module")
def rep():
    return PoincareRep2([FreeFieldModel()])


@pytest.fixture(scope="module")
def rep2():
    return PoincareRep2([FreeFieldModel(mass=1.0), FreeFieldModel(mass=1.4)])


def right_dict(shift=(0.0, 0.0)):
    g = PoincareElement.translation(*shift)
    base = [TestFunction2.bump((0.0, 3.0), 0.5),
            TestFunction2.bump((0.4, 3.6), 0.55),
            TestFunction2.bump((-0.3, 2.8), 0.45),
            TestFunction2.bump((0.1, 4.0), 0.6)]
    if shift == (0.0, 0.0):
        return base
    return [f.transform(g) for f in base]


def inner(rep, x, y):
    """<x, y> on the direct sum: the grid-weighted product over all summands."""
    return rep.grid.spacing * complex(np.vdot(x, y))


def tomita(rep, W, X):
    """s_W X = u(g) s_R u(g)^(-1) X for W = g W_R, with freefield's s_R
    on the shared grid: the map localized_subspace works with in the
    wedge frame."""
    g = W.frame
    return rep.act(g, wedge_tomita_apply(rep.act(g.inv(), X), rep.grid)[0])


def test_wedge_frame_roundtrip():
    for W in (Region2.right_wedge((0.3, -0.2)), Region2.left_wedge((0.0, 1.0))):
        W0 = Region2.right_wedge((0.0, 0.0)).transform(W.frame)
        assert W0 == W


def test_origin_wedge_tomita_matches_freefield(rep):
    # on the right wedge at the origin the prescription is the freefield
    # one: the compressed fixed-point defect matches the bw residual scale
    f = TestFunction2.bump((0.0, 3.0), 0.5)
    p = embed_probe(rep, f)
    res = bw_residual_of_vector(p[0], rep.grid)
    defect = compressed_fixed_defect(p, rep.grid)
    assert np.linalg.norm(defect) / np.linalg.norm(p) < 5 * max(res, 1e-4)
    _, tail = wedge_tomita_apply(p, rep.grid)
    assert np.max(tail) < 1e-10


def test_translated_wedge_conjugation(rep):
    # s_{W+a} = u(a) s_W u(a)^(-1): transported probes are fixed points
    a = (0.0, 1.0)
    W = Region2.right_wedge(a)
    g = PoincareElement.translation(*a)
    f = TestFunction2.bump((0.0, 3.0), 0.5).transform(g)
    p = embed_probe(rep, f)
    _, report = localized_subspace(rep, W, [p])
    # the one singular value is || P (s_W - 1) p || / || p ||
    assert report.singular_values[0] < 1e-2
    assert report.certificates[0] < 1e-10


def test_translated_wedge_operator_identity(rep):
    # the composite maps satisfy s_{W+a}(u(a) phi) = u(a) s_W(phi) on
    # probes: the shift phases and the half boost compose consistently
    a = (0.0, 1.0)
    W0, Wa = Region2.right_wedge(), Region2.right_wedge(a)
    g = PoincareElement.translation(*a)
    f = TestFunction2.bump((0.0, 3.0), 0.5)
    p = embed_probe(rep, f)
    lhs = tomita(rep, Wa, rep.act(g, p))
    rhs = rep.act(g, tomita(rep, W0, p))
    # limited by phase-roundtrip rounding amplified inside the half boost;
    # measured 3.3e-7 relative
    assert np.linalg.norm(lhs - rhs) < 1e-5 * np.linalg.norm(rhs)


def test_wedge_adjoint_relation(rep):
    # <s_W x, y> = <s_W' y, x> on band-limited probes
    W = Region2.right_wedge()
    Wp = W.causal_complement()
    x = embed_probe(rep, TestFunction2.bump((0.0, 3.0), 0.5))
    y = embed_probe(rep, TestFunction2.bump((0.2, -3.1), 0.5))
    sx = tomita(rep, W, x)
    sy = tomita(rep, Wp, y)
    lhs = inner(rep, sx, y)
    rhs = inner(rep, sy, x)
    assert abs(lhs - rhs) < 1e-6 * max(abs(lhs), 1.0)


def test_localized_subspace_contains_probes(rep):
    W = Region2.right_wedge()
    probes = [embed_probe(rep, f) for f in right_dict()]
    K, report = localized_subspace(rep, W, probes)
    assert K.dim == len(probes)
    assert not report.fallback_used
    V = np.reshape(probes, (len(probes), -1)).T     # one column per probe
    for v in V.T:
        res = np.linalg.norm(v - K.project(v)) / np.linalg.norm(v)
        assert res < 1e-3
    # when every probe clears the threshold the model is the probe span
    span = RealSubspace.span(V)
    assert subspace_distance(K, span) < 1e-9


def test_extraction_moves_the_probes_once_each_way(rep, monkeypatch):
    # one pull into the wedge frame, one push of the kept basis back, and
    # one orthonormalization: the pushed columns are orthonormal already
    W = Region2.right_wedge((0.0, 0.5))
    probes = [embed_probe(rep, f) for f in right_dict((0.0, 0.5))]
    calls = []
    act, ortho = PoincareRep2.act, modloc.orthonormalize_columns
    monkeypatch.setattr(PoincareRep2, "act",
                        lambda self, g, X: calls.append("act") or act(self, g, X))
    monkeypatch.setattr(modloc, "orthonormalize_columns",
                        lambda M: calls.append("ortho") or ortho(M))
    K, _ = localized_subspace(rep, W, probes)
    assert calls == ["act", "ortho", "act"]
    gram = K.basis.conj().T @ K.basis
    assert np.allclose(gram.real, np.eye(K.dim), atol=1e-12)


def test_localized_subspace_rejects_wrong_wedge(rep):
    W = Region2.right_wedge()
    bad = [embed_probe(rep, TestFunction2.bump((0.0, -3.0), 0.5)),
           embed_probe(rep, TestFunction2.bump((0.3, -2.6), 0.45))]
    with pytest.raises(EmptyModelError):
        localized_subspace(rep, W, bad)


def test_localized_subspace_refuses_dictionary_without_localized_content(rep):
    # i Ef is not in K_W when Ef is: the defect of every direction of
    # span{i Ef, i Eg} is of order one, so there is no model to return
    W = Region2.right_wedge()
    Ef, Eg = (embed_probe(rep, f) for f in right_dict()[:2])
    with pytest.raises(EmptyModelError, match="singular value"):
        localized_subspace(rep, W, [1j * Ef, 1j * Eg])


def test_localized_subspace_keeps_localized_part_of_mixed_dictionary(rep):
    W = Region2.right_wedge()
    Ef, Eg = (embed_probe(rep, f) for f in right_dict()[:2])
    K, report = localized_subspace(rep, W, [Ef, 1j * Eg])
    assert K.dim == report.kept == 1
    assert not report.fallback_used
    sv = report.singular_values
    assert sv[0] > 1.0 and sv[1] < 1e-3        # measured 1.72 and 9.1e-5
    v = Ef.ravel()
    assert np.linalg.norm(v - K.project(v)) < 1e-3 * np.linalg.norm(v)
    assert np.linalg.norm(1j * v - K.project(1j * v)) > 0.5 * np.linalg.norm(v)


def test_subspace_columns_move_summandwise(rep2):
    f = TestFunction2.bump((0.0, 3.0), 0.5)
    g = TestFunction2.bump((0.4, 3.4), 0.55)
    X = np.array([embed_probe(rep2, f, 0), embed_probe(rep2, g, 1)])
    # each summand moves with its own mass
    a = PoincareElement.translation(0.3, 0.7)
    moved = rep2.act(a, X)
    for i, m in enumerate(rep2.models):
        assert np.array_equal(
            moved[:, i], poincare_act(a, X[:, i], m))
    # a basis column is a direct-sum vector with its rows laid end to end
    K = RealSubspace.span(X.reshape(2, -1).T)
    assert K.basis.shape == (rep2.n_summands * rep2.grid.n_points, 2)
    expected = RealSubspace.span(moved.reshape(2, -1).T)
    assert subspace_distance(LocalizedNet(rep2).act_on_subspace(a, K),
                             expected) < 1e-12


def test_localized_subspace_real_linear(rep):
    # the recovered model is a real-linear span closed under combinations
    W = Region2.right_wedge()
    probes = [embed_probe(rep, f) for f in right_dict()]
    K, _ = localized_subspace(rep, W, probes)
    rng = np.random.default_rng(71)
    c = rng.standard_normal(K.dim)
    v = K.basis @ c
    assert np.linalg.norm(v - K.project(v)) < 1e-12 * np.linalg.norm(v)


def test_modular_flow_covariance_of_model(rep):
    # delta_W^it K_W = K_W: the finite model can only probe this through
    # matched dictionaries, so compare u(Lambda_W(t)) K against the model
    # built from the flow-transported test functions
    W = Region2.right_wedge()
    net = LocalizedNet(rep)
    fns = right_dict()
    K = net.populate_wedge(W, fns)
    t = 0.03
    flow = PoincareElement.boost(-2.0 * np.pi * t)      # Lambda_W(t)
    moved = net.act_on_subspace(flow, K)
    transported = [f.transform(flow) for f in fns]
    probes = [embed_probe(rep, f) for f in transported]
    K_t, _ = localized_subspace(rep, W, probes)
    assert subspace_distance(moved, K_t) < 1e-3


def test_populate_wedge_refuses_a_bump_outside_the_wedge(rep):
    net = LocalizedNet(rep)
    left = TestFunction2.bump((0.0, -3.0), 0.5, region=Region2.left_wedge())
    with pytest.raises(SupportError):
        net.populate_wedge(Region2.right_wedge(),
                           [right_dict()[0], left])
    assert not net.entries


def test_reflection_maps_model_to_complement_model(rep):
    net = LocalizedNet(rep)
    gamma = PoincareElement.reflection()
    KR = net.populate_wedge(Region2.right_wedge(), right_dict())
    left_fns = [f.transform(gamma) for f in right_dict()]
    KL = net.populate_wedge(Region2.left_wedge(), left_fns)
    # j_W = u(reflection) for the origin wedge in 2D
    moved = net.act_on_subspace(gamma, KR)
    assert subspace_distance(moved, KL) < 1e-3


def build_net(rep):
    """Three nested right wedges, their causal complements, and nested
    dictionaries throughout (a bigger wedge always contains the probes
    of the wedges inside it)."""
    net = LocalizedNet(rep)
    gamma = PoincareElement.reflection()
    shifts = [(0.0, 0.0), (0.0, 0.5), (0.0, 1.0)]
    dicts = {s: right_dict(s) for s in shifts}
    right_fns = {
        (0.0, 0.0): [f for s in shifts for f in dicts[s]],
        (0.0, 0.5): [f for s in shifts[1:] for f in dicts[s]],
        (0.0, 1.0): list(dicts[(0.0, 1.0)]),
    }
    for apex, fns in right_fns.items():
        net.populate_wedge(Region2.right_wedge(apex), fns)
    # complements: left wedges at the same apexes.  W_L((0,s)) grows with
    # s, so the dictionary of W_L((0,1)) holds all reflected families
    left_dicts = {s: [f.transform(gamma).transform(
        PoincareElement.translation(0.0, s[1]))
        for f in dicts[(0.0, 0.0)]] for s in shifts}
    left_fns = {
        (0.0, 0.0): left_dicts[(0.0, 0.0)],
        (0.0, 0.5): left_dicts[(0.0, 0.0)] + left_dicts[(0.0, 0.5)],
        (0.0, 1.0): [f for s in shifts for f in left_dicts[s]],
    }
    for apex, fns in left_fns.items():
        net.populate_wedge(Region2.left_wedge(apex), fns)
    return net


def test_net_checks(rep):
    net = build_net(rep)
    assert len(net.entries) == 6
    rep_checks = net_checks(
        net, covariance_elements=[PoincareElement.translation(0.0, 0.5)])
    assert rep_checks["isotony"], "no isotony pairs found"
    for row in rep_checks["isotony"]:
        assert row["residual"] < 1e-3, row
    assert len(rep_checks["duality"]) == 6
    for row in rep_checks["duality"]:
        assert row["residual"] < 1e-3, row
    assert rep_checks["covariance"]
    for row in rep_checks["covariance"]:
        assert row["residual"] < 1e-3, row


def test_complement_within_span_needs_no_second_orthonormalization(rep):
    # orthonormal joint columns times the orthonormal real rows of an SVD
    # factor are Re-orthonormal as they stand, and pair to zero with K
    net = build_net(rep)
    for e in net.entries.values():
        ec = net.entries[e.region.causal_complement()]
        joint = subspace_sum(e.subspace, ec.subspace)
        B = modloc._complement_within_span(joint, e.subspace).basis
        assert B.shape[-1] == joint.dim - e.subspace.dim
        gram = (B.conj().T @ B).real
        assert np.max(np.abs(gram - np.eye(B.shape[-1]))) <= 1e-13
        assert np.max(np.abs((e.subspace.basis.conj().T @ B).imag)) <= 1e-13


def test_net_checks_transport_each_dictionary_function_once(rep):
    net = build_net(rep)
    elements = [PoincareElement.translation(0.0, 0.5), PoincareElement.boost(0.1)]
    expected = []
    for g in elements:
        for e in net.entries.values():
            probes = [embed_probe(rep, f.transform(g)) for f in e.functions]
            K, _ = localized_subspace(rep, e.region.transform(g), probes)
            res = subspace_distance(net.act_on_subspace(g, e.subspace), K)
            expected.append({"wedge": e.region, "element": repr(g),
                             "residual": float(res)})
    rows = net_checks(net, covariance_elements=elements)["covariance"]
    assert rows == expected
    # a transport is a value, so embedding it again is a memo hit
    computed = embed.cache_info().misses
    assert net_checks(net, covariance_elements=elements)["covariance"] == rows
    assert embed.cache_info().misses == computed


def test_doublecone_space(rep):
    # cone bumps sit in both generating wedges, so both dictionaries
    # contain them and the intersection keeps them; probes keep a healthy
    # margin from the cone's lightlike boundary
    O = Region2.double_cone((0.0, 0.0), 2.2)
    cone_fns = [TestFunction2.bump((0.0, 0.0), 0.5),
                TestFunction2.bump((0.15, 0.2), 0.4),
                TestFunction2.bump((-0.1, -0.15), 0.4)]
    WR, WL = O.wedges
    wr_extra = [TestFunction2.bump((0.0, 1.4), 0.5)]
    wl_extra = [TestFunction2.bump((0.0, -1.4), 0.5)]
    net = LocalizedNet(rep)
    net.populate_wedge(WR, cone_fns + wr_extra)
    net.populate_wedge(WL, cone_fns + wl_extra)
    probes = [embed_probe(rep, f) for f in cone_fns]
    K, report = doublecone_space(net, O, cone_probes=probes)
    assert report["dimension"] >= len(cone_fns)
    for r in report["probe_residuals"]:
        assert r < 1e-2
    # degenerate cone from one wedge only: missing wedge is an error
    with pytest.raises(ValueError):
        doublecone_space(net, Region2.double_cone((5.0, 5.0), 1.0))


def mixed_cone():
    """The intersection of two right wedges: not a double cone."""
    return Region2(Region2.right_wedge((0.0, -1.0)).frames
                   + Region2.right_wedge((0.0, 1.0)).frames)


@pytest.mark.parametrize("call, region, says", [
    (lambda rep, R: doublecone_space(LocalizedNet(rep), R),
     Region2.right_wedge(), "not a right and a left wedge"),
    (lambda rep, R: doublecone_space(LocalizedNet(rep), R),
     mixed_cone(), "not a right and a left wedge"),
    (lambda rep, R: localized_subspace(
        rep, R, [embed_probe(rep, TestFunction2.bump((0.0, 0.0), 0.5))]),
     Region2.double_cone((0.0, 0.0), 2.0), "not a wedge"),
], ids=["doublecone_space-wedge", "doublecone_space-two-right-frames",
        "localized_subspace-double-cone"])
def test_a_region_of_the_wrong_shape_is_refused_by_name(rep, call, region,
                                                       says):
    with pytest.raises(ValueError) as info:
        call(rep, region)
    assert str(info.value) == f"{says}: {region}"


def test_doublecone_disjoint_dictionaries(rep):
    O = Region2.double_cone((0.0, 0.0), 2.0)
    WR, WL = O.wedges
    net = LocalizedNet(rep)
    net.populate_wedge(WR, [TestFunction2.bump((0.0, 1.2), 0.4)])
    net.populate_wedge(WL, [TestFunction2.bump((0.0, -1.2), 0.4)])
    probe = embed_probe(rep, TestFunction2.bump((0.0, 0.0), 0.3))
    K, report = doublecone_space(net, O, cone_probes=[probe])
    assert report["dimension"] == 0
    assert report["conditioning_warning"]


def test_doublecone_without_probes_returns_the_intersection(rep):
    # the default empty probe stack reshapes to no columns, not an error
    O = Region2.double_cone((0.0, 0.0), 2.0)
    WR, WL = O.wedges
    net = LocalizedNet(rep)
    net.populate_wedge(WR, [TestFunction2.bump((0.0, 1.2), 0.4)])
    net.populate_wedge(WL, [TestFunction2.bump((0.0, -1.2), 0.4)])
    K, report = doublecone_space(net, O)
    assert K.basis.shape == (rep.grid.n_points, 0)
    # an empty intersection warns whether or not probes were given
    assert report == {"dimension": 0, "probe_residuals": [],
                      "conditioning_warning": True}


def test_direct_sum_block_property(rep2):
    W = Region2.right_wedge()
    f = TestFunction2.bump((0.0, 3.0), 0.5)
    g = TestFunction2.bump((0.4, 3.4), 0.55)
    p1 = embed_probe(rep2, f, summand=0)
    p2 = embed_probe(rep2, g, summand=1)
    K_joint, _ = localized_subspace(rep2, W, [p1, p2])
    K_1, _ = localized_subspace(rep2, W, [p1])
    K_2, _ = localized_subspace(rep2, W, [p2])
    from modlab.hilbert import subspace_sum
    assert subspace_distance(K_joint, subspace_sum(K_1, K_2)) < 1e-10

