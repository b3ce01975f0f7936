import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import modlab
from modlab import fock
from modlab.fock import (
    FockSpace, TruncationError,
    vacuum, coherent, coherent_inner, coherent_tail_mass, tensor_power_level,
    sym_project, sym_power_expand, creation, annihilation,
    creation_overflow_mass, field_operator, gamma,
    weyl_matrix, weyl_on_coherent, weyl_unitarity_defect,
    second_quantized_modular_check,
)
from modlab.checks import FIBER_THETA, FOCK_CUTOFF, RECORDS
from modlab.hilbert import (
    Operator, RealSubspace, symplectic_complement,
)
from modlab.standard import fiber_standard_subspace, tomita_operator

def rand_vec(rng, d):
    return rng.standard_normal(d) + 1j * rng.standard_normal(d)


def test_space_dimension():
    fs = FockSpace(3, 4)
    expected = sum(math.comb(n + 2, 2) for n in range(5))
    assert fs.dim == expected
    sizes = [s.stop - s.start for s in fs.level_slices]
    assert sizes[0] == 1 and sizes[2] == 6


def test_vacuum_is_coherent_of_zero():
    fs = FockSpace(2, 5)
    np.testing.assert_allclose(coherent(fs, [0, 0]), vacuum(fs))


def test_sym_project_of_power_is_itself():
    fs = FockSpace(3, 4)
    rng = np.random.default_rng(41)
    x = rand_vec(rng, 3)
    got = sym_project(fs, [x, x])[fs.level_slices[2]]
    np.testing.assert_allclose(got, tensor_power_level(fs, x, 2), atol=1e-12)


def test_sym_project_e1_e2():
    # sym(e1 x e2) = (e1 x e2 + e2 x e1)/2, i.e. the |1,1,0...> state over sqrt 2
    fs = FockSpace(2, 2)
    v = sym_project(fs, [[1, 0], [0, 1]])
    idx = _occupations(fs).index((1, 1))
    expected = np.zeros(fs.dim)
    expected[idx] = 1.0 / math.sqrt(2.0)
    np.testing.assert_allclose(v, expected, atol=1e-14)


def test_sym_project_contracts():
    fs = FockSpace(3, 3)
    rng = np.random.default_rng(42)
    for _ in range(20):
        xs = [rand_vec(rng, 3) for _ in range(3)]
        tensor_norm = math.prod(np.linalg.norm(x) for x in xs)
        assert np.linalg.norm(sym_project(fs, xs)) <= tensor_norm + 1e-12


def test_sym_project_degree_guard():
    fs = FockSpace(2, 1)
    with pytest.raises(TruncationError):
        sym_project(fs, [[1, 0], [0, 1]])


def test_sym_project_guard_refuses_before_any_permutation(monkeypatch):
    # (2, 12) is 12! * 13 product terms, about 20 minutes; (4, 5) is the
    # largest shape check_symmetrization draws
    def no_permutations(*args):
        raise AssertionError("permutations drawn before the guard")
    rng = np.random.default_rng(12)
    sym_project(FockSpace(4, 5), [rand_vec(rng, 4) for _ in range(5)])
    monkeypatch.setattr(fock.itertools, "permutations", no_permutations)
    with pytest.raises(ValueError, match="symmetrization too large"):
        sym_project(FockSpace(2, 12), [rand_vec(rng, 2) for _ in range(12)])


def test_sym_project_at_degree_8_stays_small():
    # 8! permutation terms, taken in chunks: no dense stack of them
    fs = FockSpace(2, 8)
    rng = np.random.default_rng(96)
    xs = [rand_vec(rng, 2) for _ in range(8)]
    expected = sym_power_expand(fs, xs)
    tracemalloc.start()
    try:
        got = sym_project(fs, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)
    assert peak <= 8 * 2 ** 20


@pytest.mark.parametrize("d", [1, 2, 3])
def test_both_symmetrizations_of_no_vectors_are_the_vacuum(d):
    # the general path at n = 0: one permutation of nothing, over the
    # one empty word, and the empty subset's sign
    fs = FockSpace(d, 2)
    for symmetrize in (sym_project, sym_power_expand):
        np.testing.assert_array_equal(symmetrize(fs, []), vacuum(fs))


def test_sym_power_expand_single_vector():
    fs = FockSpace(3, 2)
    rng = np.random.default_rng(43)
    x = rand_vec(rng, 3)
    got = sym_power_expand(fs, [x])[fs.level_slices[1]]
    np.testing.assert_allclose(got, x, atol=1e-13)


def test_sym_power_expand_two_vectors_hand_identity():
    # 1/2 [(x1+x2)^(x2) - x1^(x2) - x2^(x2)] = sym(x1 x x2)
    fs = FockSpace(2, 2)
    rng = np.random.default_rng(44)
    x1, x2 = rand_vec(rng, 2), rand_vec(rng, 2)
    lhs = 0.5 * (tensor_power_level(fs, x1 + x2, 2)
                 - tensor_power_level(fs, x1, 2)
                 - tensor_power_level(fs, x2, 2))
    level2 = fs.level_slices[2]
    np.testing.assert_allclose(lhs, sym_project(fs, [x1, x2])[level2],
                               atol=1e-12)
    np.testing.assert_allclose(lhs, sym_power_expand(fs, [x1, x2])[level2],
                               atol=1e-12)


def test_sym_routes_agree_random():
    fs = FockSpace(3, 4)
    rng = np.random.default_rng(45)
    for _ in range(10):
        xs = [rand_vec(rng, 3) for _ in range(4)]
        a = sym_project(fs, xs)
        b = sym_power_expand(fs, xs)
        assert np.linalg.norm(a - b) < 1e-12 * max(1.0, np.linalg.norm(a))


def test_coherent_inner_is_partial_exponential():
    rng = np.random.default_rng(46)
    fs = FockSpace(3, 10)
    h, k = rand_vec(rng, 3), rand_vec(rng, 3)
    h /= np.linalg.norm(h); k /= np.linalg.norm(k)
    lhs = np.vdot(coherent(fs, h), coherent(fs, k))
    np.testing.assert_allclose(lhs, coherent_inner(h, k, 10), atol=1e-13)


def test_coherent_norm_approaches_e():
    fs = FockSpace(2, 12)
    h = np.array([1.0, 0.0])
    val = np.vdot(coherent(fs, h), coherent(fs, h)).real
    assert abs(val - math.e) < 1e-9  # tail sum_{n>12} 1/n! ~ 1.6e-10


@pytest.mark.parametrize("d, cutoff, r", [(1, 10, 1.0), (2, 8, 2.0),
                                          (3, 6, 0.5)])
def test_coherent_tail_mass_is_the_truncated_norm(d, cutoff, r):
    # ||e^h||^2 = exp(||h||^2) untruncated; the cutoff drops the tail
    rng = np.random.default_rng(47)
    h = rand_vec(rng, d)
    h *= r / np.linalg.norm(h)
    v = coherent(FockSpace(d, cutoff), h)
    kept = np.vdot(v, v).real
    assert coherent_tail_mass(r, cutoff) == pytest.approx(
        math.exp(r ** 2) - kept, rel=1e-6)


def test_coherent_derivative_recovers_levels():
    # d^n/dt^n e^(t h) at 0 equals sqrt(n!) h^(x n); check via central
    # differences at orders 1 and 2
    fs = FockSpace(2, 6)
    rng = np.random.default_rng(47)
    h = rand_vec(rng, 2)
    h /= np.linalg.norm(h)
    step = 1e-4
    first = (1.0 / (2 * step)) * (coherent(fs, step * h) - coherent(fs, -step * h))
    np.testing.assert_allclose(first[fs.level_slices[1]], h, atol=1e-7)
    second = (1.0 / step ** 2) * (
        coherent(fs, step * h) - 2.0 * coherent(fs, 0 * h) + coherent(fs, -step * h))
    np.testing.assert_allclose(second[fs.level_slices[2]],
                               math.sqrt(2.0) * tensor_power_level(fs, h, 2) / math.sqrt(2.0) * math.sqrt(math.factorial(2)),
                               atol=1e-6)


def test_creation_annihilation_adjoint_and_ccr():
    fs = FockSpace(2, 5)
    rng = np.random.default_rng(48)
    g, k = rand_vec(rng, 2), rand_vec(rng, 2)
    C, A = creation(fs, g), annihilation(fs, g)
    np.testing.assert_allclose(C.matrix.conj().T, A.matrix, atol=1e-13)
    # [a(g), a*(k)] = <g, k> on levels below the cutoff
    Ck = creation(fs, k)
    Ag = annihilation(fs, g)
    comm = Ag.matrix @ Ck.matrix - Ck.matrix @ Ag.matrix
    inside = fs.level_slices[fs.cutoff].start
    np.testing.assert_allclose(comm[:inside, :inside],
                               np.vdot(g, k) * np.eye(inside), atol=1e-12)


def test_creation_overflow_mass():
    fs = FockSpace(1, 3)
    g = np.array([1.0 + 0j])
    v = coherent(fs, [0.9])
    # overflow = |c_top| * sqrt(N+1) for d = 1
    expected = abs(v[_occupations(fs).index((3,))]) * math.sqrt(4.0)
    assert creation_overflow_mass(fs, g, v) == pytest.approx(expected)


# -- references: the per-multi-index loops the ladder table replaced -------

def _occupations(space):
    return [tuple(a) for a in space.occ.tolist()]


def _creation_loop(space, g):
    g = np.asarray(g, dtype=complex)
    M = np.zeros((space.dim, space.dim), dtype=complex)
    occupations = _occupations(space)
    for col, alpha in enumerate(occupations):
        if sum(alpha) >= space.cutoff:
            continue
        for i in range(space.d):
            if g[i] == 0:
                continue
            beta = list(alpha)
            beta[i] += 1
            row = occupations.index(tuple(beta))
            M[row, col] += g[i] * math.sqrt(alpha[i] + 1)
    return M


def _annihilation_loop(space, g):
    g = np.asarray(g, dtype=complex)
    M = np.zeros((space.dim, space.dim), dtype=complex)
    occupations = _occupations(space)
    for col, alpha in enumerate(occupations):
        for i in range(space.d):
            if g[i] == 0 or alpha[i] == 0:
                continue
            beta = list(alpha)
            beta[i] -= 1
            row = occupations.index(tuple(beta))
            M[row, col] += np.conj(g[i]) * math.sqrt(alpha[i])
    return M


def _overflow_loop(space, g, v):
    g = np.asarray(g, dtype=complex)
    top = space.level_slices[space.cutoff]
    occupations = _occupations(space)
    over = {}
    for col in range(top.start, top.stop):
        c = v[col]
        if c == 0:
            continue
        alpha = occupations[col]
        for i in range(space.d):
            if g[i] == 0:
                continue
            beta = list(alpha)
            beta[i] += 1
            key = tuple(beta)
            over[key] = over.get(key, 0.0) + c * g[i] * math.sqrt(alpha[i] + 1)
    return math.sqrt(sum(abs(x) ** 2 for x in over.values()))


def _tensor_power_loop(space, h, n):
    h = np.asarray(h, dtype=complex)
    sl = space.level_slices[n]
    out = np.empty(sl.stop - sl.start, dtype=complex)
    sqrt_n_fact = math.sqrt(math.factorial(n))
    for i, alpha in enumerate(_occupations(space)[sl.start:sl.stop]):
        prod = 1.0 + 0.0j
        for hi, ai in zip(h, alpha):
            if ai:
                prod *= hi ** ai
        out[i] = sqrt_n_fact / space._sqrt_fact[sl.start + i] * prod
    return out


def _compositions(d, n):
    """The occupations (a_1 .. a_d) with sum n, descending lexicographically,
    built from the box of all occupations rather than from multisets."""
    return sorted((a for a in itertools.product(range(n + 1), repeat=d)
                   if sum(a) == n), reverse=True)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_the_basis_is_the_multisets_of_modes(d):
    # gamma's parent-first recursion and creation_overflow_mass rely on
    # this order: level by level, occupations descending
    for N in range(7):
        fs = FockSpace(d, N)
        assert len(fs.words) == N + 1
        for n, sl in enumerate(fs.level_slices):
            words = [tuple(w) for w in fs.words[n].tolist()]
            assert words == list(
                itertools.combinations_with_replacement(range(d), n))
            assert not fs.words[n].flags.writeable
            occupations = [tuple(a) for a in fs.occ[sl].tolist()]
            assert occupations == [tuple(map(w.count, range(d)))
                                   for w in words]
            assert occupations == _compositions(d, n)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_ladder_table_steps_up_one_mode(d):
    fs = FockSpace(d, 5)
    assert fs.occ.shape == fs.up.shape == (fs.dim, d)
    for k in range(fs.dim):
        for i in range(d):
            if fs.occ[k].sum() == fs.cutoff:
                assert fs.up[k, i] == -1
            else:
                step = fs.occ[fs.up[k, i]] - fs.occ[k]
                assert np.array_equal(step, np.eye(d, dtype=int)[i])
    # the overflow diagnostic relies on this prefix property
    assert np.array_equal(FockSpace(d, 6).occ[:fs.dim], fs.occ)


@pytest.mark.parametrize("d, cutoffs", [(1, (0, 1, 5, 12)), (2, (0, 1, 4, 8)),
                                        (3, (0, 2, 5, 8))])
def test_ladder_operators_equal_the_loops(d, cutoffs):
    rng = np.random.default_rng(60 + d)
    for N in cutoffs:
        fs = FockSpace(d, N)
        g = rand_vec(rng, d)
        with_zero = g.copy()
        with_zero[0] = 0.0
        for h in (g, with_zero, g.real.astype(complex)):
            C, A = _creation_loop(fs, h), _annihilation_loop(fs, h)
            assert np.array_equal(creation(fs, h).matrix, C)
            assert np.array_equal(annihilation(fs, h).matrix, A)
            assert np.array_equal(field_operator(fs, h).matrix,
                                  (A + C) / math.sqrt(2.0))
            for n in range(N + 1):
                assert np.array_equal(tensor_power_level(fs, h, n),
                                      _tensor_power_loop(fs, h, n))


@pytest.mark.parametrize("d", [2, 3])
def test_creation_overflow_mass_equals_the_loop(d):
    # the summation order differs from the loop's, so equality is to 1e-14
    rng = np.random.default_rng(70 + d)
    for N in (1, 3, 6):
        fs = FockSpace(d, N)
        for v in (coherent(fs, rand_vec(rng, d)), rand_vec(rng, fs.dim)):
            g = rand_vec(rng, d)
            ref = _overflow_loop(fs, g, v)
            assert ref > 0
            assert abs(creation_overflow_mass(fs, g, v) - ref) <= 1e-14 * ref


def _gamma_by_creation_words(space, A):
    """Reference: column alpha is (a*(A e_1))^a_1 ... (a*(A e_d))^a_d Omega
    / sqrt(alpha!), built from the vacuum with sum(alpha) matvecs."""
    cols = [creation(space, A[:, i]).matrix for i in range(space.d)]
    M = np.zeros((space.dim, space.dim), dtype=complex)
    omega = np.zeros(space.dim, dtype=complex)
    omega[0] = 1.0
    for colidx, alpha in enumerate(space.occ):
        v = omega.copy()
        for i, ai in enumerate(alpha):
            for _ in range(ai):
                v = cols[i] @ v
        M[:, colidx] = v / space._sqrt_fact[colidx]
    return M


def _assert_roundoff_equal(G, R):
    """Same zero pattern exactly, entries equal to 1e-15 of the largest."""
    np.testing.assert_array_equal(G != 0, R != 0)
    assert np.abs(G - R).max() <= 1e-15 * np.abs(R).max()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gamma_equals_column_by_column_reference(d):
    # the level blocks sum in another order than the creation words
    fs = FockSpace(d, 10)
    rng = np.random.default_rng(48 + d)
    A = rand_vec(rng, d * d).reshape(d, d)
    G = gamma(fs, A)
    assert not G.antilinear
    _assert_roundoff_equal(G.matrix, _gamma_by_creation_words(fs, A))
    S = Operator(rand_vec(rng, d * d).reshape(d, d), antilinear=True)
    G = gamma(fs, S)
    assert G.antilinear
    _assert_roundoff_equal(G.matrix, _gamma_by_creation_words(fs, S.matrix))


@pytest.mark.parametrize("d, N", [(1, 6), (2, 5), (3, 4), (4, 3)])
def test_gamma_blocks_are_exact_at_levels_0_and_1_and_zero_across(d, N):
    fs = FockSpace(d, N)
    rng = np.random.default_rng(90 + d)
    A = rand_vec(rng, d * d).reshape(d, d)
    G = gamma(fs, A).matrix
    level0, level1 = fs.level_slices[:2]
    assert G[level0, level0].tolist() == [[1.0]]
    assert np.array_equal(G[level1, level1], A)
    across = np.ones_like(G, dtype=bool)
    for sl in fs.level_slices:
        across[sl, sl] = False
    assert np.all(G[across] == 0)


def test_gamma_is_multiplicative_at_dimension_969():
    fs = FockSpace(3, 16)
    assert fs.dim == 969
    rng = np.random.default_rng(95)
    # contractions, the maps whose second quantization is bounded
    A, B = (X / np.linalg.norm(X, 2)
            for X in rand_vec(rng, 18).reshape(2, 3, 3))
    lhs = (gamma(fs, A) @ gamma(fs, B)).matrix
    assert np.abs(lhs - gamma(fs, A @ B).matrix).max() < 1e-10


def test_gamma_identity_and_multiplicativity():
    fs = FockSpace(2, 4)
    rng = np.random.default_rng(49)
    np.testing.assert_allclose(gamma(fs, np.eye(2)).matrix, np.eye(fs.dim),
                               atol=1e-12)
    A = rand_vec(rng, 4).reshape(2, 2)
    B = rand_vec(rng, 4).reshape(2, 2)
    lhs = (gamma(fs, A) @ gamma(fs, B)).matrix
    np.testing.assert_allclose(lhs, gamma(fs, A @ B).matrix, atol=1e-10)


def test_gamma_on_coherent():
    fs = FockSpace(3, 10)
    rng = np.random.default_rng(50)
    A = rand_vec(rng, 9).reshape(3, 3) / 2.0
    h = rand_vec(rng, 3) / 2.0
    lhs = gamma(fs, A).apply(coherent(fs, h))
    rhs = coherent(fs, A @ h)
    assert np.linalg.norm(lhs - rhs) < 1e-10


def test_gamma_selfadjoint_and_unitary():
    fs = FockSpace(2, 5)
    rng = np.random.default_rng(51)
    X = rand_vec(rng, 4).reshape(2, 2)
    H = 0.5 * (X + X.conj().T)
    GH = gamma(fs, H).matrix
    np.testing.assert_allclose(GH, GH.conj().T, atol=1e-11)
    U = np.linalg.qr(X)[0]
    GU = gamma(fs, U).matrix
    np.testing.assert_allclose(GU @ GU.conj().T, np.eye(fs.dim), atol=1e-11)
    # the vacuum (level 0) is fixed by every second quantization, exactly
    e0 = np.zeros(fs.dim)
    e0[0] = 1.0
    np.testing.assert_array_equal(GU[:, 0], e0)


def test_gamma_antilinear_conjugation():
    fs = FockSpace(2, 6)
    rng = np.random.default_rng(52)
    C = Operator(np.eye(2), antilinear=True)
    h = rand_vec(rng, 2) / 2.0
    lhs = gamma(fs, C).apply(coherent(fs, h))
    rhs = coherent(fs, np.conj(h))
    assert np.linalg.norm(lhs - rhs) < 1e-12


def test_weyl_matrix_of_zero():
    fs = FockSpace(1, 6)
    np.testing.assert_allclose(weyl_matrix(fs, [0]).matrix, np.eye(fs.dim),
                               atol=1e-13)


def test_weyl_vacuum_coefficient():
    fs = FockSpace(2, 12)
    h = np.array([1.0, 0.0], dtype=complex)
    v = weyl_on_coherent(fs, h, np.zeros(2))
    assert abs(v[0] - math.exp(-0.25)) < 1e-12


def test_weyl_matrix_is_unitary():
    fs = FockSpace(3, 6)
    rng = np.random.default_rng(54)
    W = weyl_matrix(fs, rand_vec(rng, 3)).matrix
    assert np.linalg.norm(W @ W.conj().T - np.eye(fs.dim), 2) < 1e-13
    assert np.linalg.norm(W.conj().T @ W - np.eye(fs.dim), 2) < 1e-13


@pytest.mark.parametrize("d, cutoff", [(1, 16), (3, 6)])
def test_weyl_matrix_agrees_with_expm(d, cutoff):
    linalg = pytest.importorskip("scipy.linalg")
    fs = FockSpace(d, cutoff)
    rng = np.random.default_rng(55)
    h = rand_vec(rng, d) / math.sqrt(d)
    expected = linalg.expm(1j * field_operator(fs, h).matrix)
    assert np.linalg.norm(weyl_matrix(fs, h).matrix - expected, 2) < 1e-13


def test_importing_the_cli_needs_no_scipy():
    # a fresh interpreter, importing the same modlab as this test
    root = os.path.dirname(os.path.dirname(modlab.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import modlab.cli; "
            "print('scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, root],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def test_weyl_on_coherent_h_zero():
    fs = FockSpace(2, 8)
    rng = np.random.default_rng(53)
    k = rand_vec(rng, 2) / 2.0
    v = weyl_on_coherent(fs, np.zeros(2), k)
    w = coherent(fs, 1j / math.sqrt(2.0) * k)
    assert np.linalg.norm(v - w) < 1e-14


def test_weyl_closed_form_vs_matrix_exponential():
    # W(h) e^(-(i/sqrt2) h) = exp(|h|^2/4) vacuum, checked against the
    # spectral exponential of the truncated field
    fs = FockSpace(1, 14)
    h = np.array([1.0], dtype=complex)
    closed = weyl_on_coherent(fs, h, -h)
    W = weyl_matrix(fs, h)
    arg = coherent(fs, -1j / math.sqrt(2.0) * h)
    assert np.linalg.norm(W.apply(arg) - closed) < 1e-8
    expected = math.exp(0.25) * vacuum(fs)
    np.testing.assert_allclose(closed, expected, atol=1e-12)


def test_ccr_phase():
    # h = e1, k = i e1: Im<h,k> = 1, so W(h)W(k) = e^(-i/2) W(h+k)
    fs = FockSpace(1, 16)
    h = np.array([1.0], dtype=complex)
    k = np.array([1j], dtype=complex)
    Wh, Wk, Whk = weyl_matrix(fs, h), weyl_matrix(fs, k), weyl_matrix(fs, h + k)
    lhs = (Wh @ Wk).apply(vacuum(fs))
    rhs = np.exp(-0.5j) * Whk.apply(vacuum(fs))
    low = fs.level_slices[8].stop
    assert np.linalg.norm(lhs[:low] - rhs[:low]) < 1e-6


def test_weyl_agreement_improves_with_cutoff():
    h = np.array([0.8 + 0.3j], dtype=complex)
    k = np.array([0.5 - 0.2j], dtype=complex)
    devs = []
    for N in (8, 12, 16):
        fs = FockSpace(1, N)
        lhs = weyl_matrix(fs, h).apply(coherent(fs, 1j / math.sqrt(2.0) * k))
        rhs = weyl_on_coherent(fs, h, k)
        low = fs.level_slices[min(6, N)].stop
        devs.append(np.linalg.norm(lhs[:low] - rhs[:low]))
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 1e-6


def test_displacement_columns_match_matrix_exponential():
    # the closed-form displacement matrix elements agree with the matrix
    # exponential at a cutoff deep enough that truncation is negligible
    h = 0.7 - 0.4j
    fs = FockSpace(1, 24)
    W = weyl_matrix(fs, [h]).matrix
    from modlab.fock import weyl_displacement_columns
    V = weyl_displacement_columns(h, 5, 5)
    np.testing.assert_allclose(W[:5, :5], V, atol=1e-12)


def test_weyl_unitarity_defect_monotone():
    defects = [weyl_unitarity_defect(1.0 + 0.0j, N, 8) for N in (8, 12, 16, 20)]
    assert defects[0] > defects[1] > defects[2] > defects[3]
    # measured decay: 0.98, 7.1e-2, 4.0e-5, 1.5e-9
    assert defects[2] < 1e-4
    assert defects[3] < 1e-6


def test_second_quantized_check_real_line():
    # K = R in C: gamma(s) e^(i) = e^(-i) exactly (conjugation)
    K = RealSubspace(np.eye(1))
    rng = np.random.default_rng(54)
    rep = second_quantized_modular_check(K, 8, rng)
    assert np.max(rep["conjugation_on_coherent"]) < 1e-12
    assert np.max(rep["ccr_phase_across_complement"]) < 1e-12


def test_second_quantized_check_fiber():
    K = fiber_standard_subspace(2, [np.pi / 3])
    rng = np.random.default_rng(55)
    rep = second_quantized_modular_check(K, 10, rng)
    # every sample: 6 for (1), 3 for (2), 3 times 2 for (3), 50 for (4)
    assert {name: len(vals) for name, vals in rep.items()} == {
        "conjugation_on_coherent": 6, "weyl_conjugation": 3,
        "weyl_flow_covariance": 6, "ccr_phase_across_complement": 50}
    for name, vals in rep.items():
        assert np.max(vals) < 1e-7, (name, vals)


# -- controls: each claim must fail on a wrong input --------------------------

def _unit_sample(K, rng):
    z = K.basis @ rng.standard_normal(K.dim)
    return z / np.linalg.norm(z)


def _conjugation_residual(fs, K, sample_from, rng):
    """max |gamma(s) e^(ik) - e^(-ik)| over k drawn from sample_from."""
    gs = gamma(fs, tomita_operator(K))
    worst = 0.0
    for _ in range(6):
        k = _unit_sample(sample_from, rng)
        worst = max(worst, np.linalg.norm(gs.apply(coherent(fs, 1j * k))
                                          - coherent(fs, -1j * k)))
    return worst


def _phase_residual(K1, K2, rng):
    """max |exp(-i Im<h, k>) - 1| over h drawn from K1 and k from K2."""
    return max(abs(np.exp(-1j * np.vdot(_unit_sample(K1, rng),
                                        _unit_sample(K2, rng)).imag) - 1.0)
               for _ in range(50))


def test_gamma_on_coherent_fails_for_the_transpose():
    tol = RECORDS["fock.gamma_on_coherent"].threshold
    rng = np.random.default_rng(80)
    for d in (2, 3):
        fs = FockSpace(d, 10)
        h = rand_vec(rng, d)
        h /= np.linalg.norm(h)
        A = rand_vec(rng, d * d).reshape(d, d) / 2.0
        image = gamma(fs, A).apply(coherent(fs, h))
        assert np.linalg.norm(image - coherent(fs, A @ h)) < tol
        assert np.linalg.norm(image - coherent(fs, A.T @ h)) > 1e6 * tol


def test_ccr_phase_fails_with_the_sign_flipped():
    tol = RECORDS["fock.ccr_phase"].threshold
    fs = FockSpace(1, 16)
    h = np.array([1.0], dtype=complex)
    k = np.array([1j], dtype=complex)
    lhs = (weyl_matrix(fs, h) @ weyl_matrix(fs, k)).apply(vacuum(fs))
    Whk = weyl_matrix(fs, h + k).apply(vacuum(fs))
    low = fs.level_slices[8].stop
    assert np.linalg.norm(lhs[:low] - np.exp(-0.5j) * Whk[:low]) < tol
    assert np.linalg.norm(lhs[:low] - np.exp(0.5j) * Whk[:low]) > 1e5 * tol


def test_second_quantized_claims_fail_on_wrong_samples():
    # the bound of every record of check_second_quantized
    tol = RECORDS["fock.conjugation_on_coherent"].threshold
    K = fiber_standard_subspace(2, [FIBER_THETA])
    fs = FockSpace(2, FOCK_CUTOFF)
    rng = np.random.default_rng(81)
    # gamma(s) e^(ik) = e^(-ik) holds for k in K, not for k in iK
    assert _conjugation_residual(fs, K, K, rng) < tol
    assert _conjugation_residual(fs, K, K.mult_i(), rng) > 1e5 * tol
    # the Weyl phase is trivial across K and K', not within K
    assert _phase_residual(K, symplectic_complement(K), rng) < tol
    assert _phase_residual(K, K, rng) > 1e5 * tol
