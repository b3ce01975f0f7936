"""Truncated symmetric Fock space over C^d.

States are stored in the occupation-number basis.  A level-n basis
state is a sorted word of n modes, a multiset of modes, so the level has
C(n + d - 1, d - 1) states instead of d^n, enumerated once by
itertools.combinations_with_replacement.  Its occupation multi-index
alpha = (a_1 .. a_d) counts each mode in the word, and the state |alpha>
is the normalized symmetrization of e_1^(x a_1) x ... x e_d^(x a_d); a
tensor power h^(x n) then has coefficients sqrt(n!/alpha!) prod_i
h_i^alpha_i.

A vector of the truncated space is a plain complex array of length
FockSpace.dim, and v[fs.level_slices[n]] is its level-n block.  FockSpace
holds the basis and the ladder: its tables words, occ and up are the only
place that knows the states and which of them are neighbours, and every
operator below reads them.
Operators are hilbert.Operator matrices in the occupation basis, the same
type that holds maps on C^d.  gamma and both symmetrizations work on
whole level blocks: gamma raises level n to n + 1 with one array product
per level, and the symmetrizations stack permutations or subsets.

Operators that would populate level N + 1 drop the overflow; the
overflow mass is available as a diagnostic.
"""

from __future__ import annotations

import functools
import itertools
import math
from types import MappingProxyType

import numpy as np

from .hilbert import (Operator, RealSubspace, operator_norm,
                      symplectic_complement)
from .standard import modular_data, modular_flow

__all__ = [
    "FockSpace", "TruncationError",
    "vacuum", "coherent", "coherent_inner", "tensor_power_level",
    "sym_project", "sym_power_expand", "creation", "annihilation",
    "creation_overflow_mass", "field_operator", "gamma",
    "weyl_matrix", "weyl_on_coherent", "weyl_displacement_columns",
    "weyl_unitarity_defect", "coherent_tail_mass",
    "second_quantized_modular_check",
]


class TruncationError(ValueError):
    """Requested tensor degree exceeds the Fock cutoff."""


@functools.lru_cache(maxsize=32)
def _ladder_tables(d, cutoff):
    """words, occ, up, sqrt(alpha!), level slices and the index of each
    occupation of FockSpace(d, cutoff): built once per (d, cutoff) and
    shared read-only by every space of that shape.  words[n] holds one
    sorted word of n modes per level-n state, in the order of
    combinations_with_replacement, and every other table is read off it."""
    words = tuple(np.fromiter(itertools.chain.from_iterable(
        itertools.combinations_with_replacement(range(d), n)), dtype=int)
        .reshape(math.comb(n + d - 1, n), n) for n in range(cutoff + 1))
    occ = np.concatenate([(w[:, :, None] == np.arange(d)).sum(axis=1)
                          for w in words])
    ends = list(itertools.accumulate(map(len, words), initial=0))
    level_slices = tuple(map(slice, ends, ends[1:]))
    index = {a: i for i, a in enumerate(map(tuple, occ.tolist()))}
    up = np.array([[index.get(a[:i] + (a[i] + 1,) + a[i + 1:], -1)
                    for i in range(d)] for a in index])
    sqrt_fact = np.array([math.sqrt(math.prod(math.factorial(k) for k in a))
                          for a in index])
    for table in (occ, up, sqrt_fact) + words:
        table.flags.writeable = False
    return words, occ, up, sqrt_fact, level_slices, MappingProxyType(index)


class FockSpace:
    """Symmetric Fock space over C^d truncated at total particle number N.

    The basis is ordered by level, so FockSpace(d, N + 1) starts with the
    basis of FockSpace(d, N).  words[n] holds the level-n states as sorted
    words of modes, an integer array of shape (level dim, n); occ[k] is
    the occupation multi-index of basis state k, an integer array of shape
    (dim, d); up[k, i] is the index of occ[k] + e_i, or -1 when that lies
    above the cutoff.  These tables, sqrt(alpha!) per basis state
    (_sqrt_fact), level_slices and index are read-only and shared by the
    spaces of one (d, N).
    """

    def __init__(self, one_particle_dim: int, cutoff: int):
        if one_particle_dim < 1 or cutoff < 0:
            raise ValueError("need dim >= 1 and cutoff >= 0")
        self.d = int(one_particle_dim)
        self.cutoff = int(cutoff)
        (self.words, self.occ, self.up, self._sqrt_fact, self.level_slices,
         self.index) = _ladder_tables(self.d, self.cutoff)
        self.dim = len(self.occ)

    def __repr__(self):
        return f"FockSpace(d={self.d}, N={self.cutoff}, dim={self.dim})"


# -- vectors ------------------------------------------------------------

def vacuum(space: FockSpace) -> np.ndarray:
    c = np.zeros(space.dim, dtype=complex)
    c[0] = 1.0
    return c


def tensor_power_level(space: FockSpace, h, n: int) -> np.ndarray:
    """Level-n block of h^(x n): coefficients sqrt(n!/alpha!) prod h^alpha.

    h may be a stack (..., d); the result is then a stack (..., level dim).
    """
    if n > space.cutoff:
        raise TruncationError(f"degree {n} exceeds cutoff {space.cutoff}")
    h = np.asarray(h, dtype=complex)
    sl = space.level_slices[n]
    return (math.sqrt(math.factorial(n)) / space._sqrt_fact[sl]
            * np.prod(h[..., None, :] ** space.occ[sl], axis=-1))


def coherent(space: FockSpace, h) -> np.ndarray:
    """e^h = sum_n h^(x n)/sqrt(n!), truncated at the cutoff: the
    coefficient of state alpha is prod h^alpha / sqrt(alpha!)."""
    h = np.asarray(h, dtype=complex)
    return np.prod(h ** space.occ, axis=1) / space._sqrt_fact


def coherent_inner(h, k, cutoff: int) -> complex:
    """<e^h, e^k> on the truncation: the degree-N partial sum of exp<h, k>."""
    z = complex(np.vdot(np.asarray(h, complex), np.asarray(k, complex)))
    total = term = 1.0 + 0.0j
    for n in range(1, cutoff + 1):
        term *= z / n
        total += term
    return total


def coherent_tail_mass(norm_h: float, cutoff: int) -> float:
    """sum_{n > N} r^(2n)/n!  with r = norm_h; bounds the truncation loss
    of a coherent vector."""
    r2 = norm_h ** 2
    term = r2 ** (cutoff + 1) / math.factorial(cutoff + 1)
    total = 0.0
    n = cutoff + 1
    while term > total * 1e-18 + 1e-300 and n < cutoff + 400:
        total += term
        n += 1
        term *= r2 / n
    return total


# -- symmetrization ------------------------------------------------------

def sym_project(space: FockSpace, vectors) -> np.ndarray:
    """Symmetrization of x_1 x ... x x_n by the literal permutation average.

    The average (1/n!) sum_sigma prod_k x_sigma(k)[w_k] is taken only at
    the word w of each level-n state, space.words[n], over chunks of
    permutations, so the degree-n tensor is never formed.
    Intended for small n and d: the guard refuses more than 2e6 product
    terms, n! times the level-n dimension (about half a second).
    Result is a Fock vector that is zero outside level n.
    """
    xs = np.array(vectors, dtype=complex).reshape(len(vectors), space.d)
    n = len(xs)
    if n > space.cutoff:
        raise TruncationError(f"degree {n} exceeds cutoff {space.cutoff}")
    sl = space.level_slices[n]
    if math.factorial(n) * (sl.stop - sl.start) > 2_000_000:
        raise ValueError("symmetrization too large: n! x level size "
                         "above 2e6 product terms; lower n or d")
    if n == 0:
        return vacuum(space)
    words = space.words[n]
    T = np.zeros(sl.stop - sl.start, dtype=complex)
    perms = itertools.permutations(range(n))
    step = max(1, 2 ** 16 // words.size)     # 1 MB of terms per chunk
    while chunk := list(itertools.islice(perms, step)):
        sigma = np.array(chunk)[:, None, :]
        T += np.prod(xs[sigma, words], axis=2).sum(axis=0)
    T /= math.factorial(n)
    out = np.zeros(space.dim, dtype=complex)
    out[sl] = math.sqrt(math.factorial(n)) / space._sqrt_fact[sl] * T
    return out


def sym_power_expand(space: FockSpace, vectors) -> np.ndarray:
    """Symmetrization via the tensor-power expansion
    (1/n!) sum_{F subset {1..n}} (-1)^(|F|+n) (sum_{j in F} x_j)^(x n).
    Agrees with sym_project to rounding."""
    xs = np.array(vectors, dtype=complex).reshape(len(vectors), space.d)
    n = len(xs)
    if n > space.cutoff:
        raise TruncationError(f"degree {n} exceeds cutoff {space.cutoff}")
    if n == 0:
        return vacuum(space)
    # row F of subsets is the 0/1 indicator of one nonempty F
    subsets = (np.arange(1, 2 ** n)[:, None] >> np.arange(n)) & 1
    signs = (-1.0) ** (subsets.sum(axis=1) + n)
    block = signs @ tensor_power_level(space, subsets @ xs, n)
    out = np.zeros(space.dim, dtype=complex)
    out[space.level_slices[n]] = block / math.factorial(n)
    return out


# -- creation / annihilation / second quantization -----------------------

def creation(space: FockSpace, g) -> Operator:
    """a*(g) = sum_i g_i a*_i, linear in g: column alpha holds
    g_i sqrt(alpha_i + 1) in row alpha + e_i.  Overflow at the top level
    is dropped (see creation_overflow_mass)."""
    g = np.asarray(g, dtype=complex)
    M = np.zeros((space.dim, space.dim), dtype=complex)
    col, i = np.nonzero((space.up >= 0) & (g != 0))
    M[space.up[col, i], col] += g[i] * np.sqrt(space.occ[col, i] + 1)
    return Operator(M)


def annihilation(space: FockSpace, g) -> Operator:
    """a(g) = sum_i conj(g_i) a_i; the adjoint of creation(g)."""
    return creation(space, g).adjoint()


def creation_overflow_mass(space: FockSpace, g, v) -> float:
    """Norm of the level-(N+1) part of a*(g) v that truncation drops.

    FockSpace(d, N + 1) starts with this space's basis, so that part is
    the top block of its creation matrix applied to v."""
    big = FockSpace(space.d, space.cutoff + 1)
    C = creation(big, g).matrix[big.level_slices[-1], :space.dim]
    return float(np.linalg.norm(C @ np.asarray(v, dtype=complex)))


def field_operator(space: FockSpace, h) -> Operator:
    """phi(h) = (a(h) + a*(h)) / sqrt(2); selfadjoint on the truncation."""
    C = creation(space, h).matrix
    return Operator((C.conj().T + C) / math.sqrt(2.0))


def gamma(space: FockSpace, a) -> Operator:
    """Second quantization: level-n block acts as a^(x n).

    a may be a complex d x d matrix (complex-linear) or an Operator on
    C^d; an antilinear argument yields an antilinear Fock operator.  Exact
    on the truncation and multiplicative: gamma(a) gamma(b) = gamma(ab).

    Column alpha is a*(A e_1)^a_1 ... a*(A e_d)^a_d Omega / sqrt(alpha!).
    Its unnormalized vector is a*(A e_i) applied to that of its parent
    alpha - e_i, i the last occupied mode, which lies one level lower.  So
    the blocks are built level by level: the level-n vectors P (one row
    per state) are raised by each a*_j through up at once, contracted with
    A into a*(A e_i) P for every mode i, and the children keep the rows
    of (parent p, mode i) with i at or after p's last occupied mode.  In
    that order, parent first, they are exactly the level-(n+1) basis.
    """
    a = a if isinstance(a, Operator) else Operator(a)
    d = space.d
    if a.matrix.shape != (d, d):
        raise ValueError("one-particle matrix has wrong shape")
    M = np.zeros((space.dim, space.dim), dtype=complex)
    M[0, 0] = 1.0
    P = np.ones((1, 1), dtype=complex)      # row p: unnormalized column p
    last = np.zeros(1, dtype=int)           # last occupied mode per row
    for lo, hi in zip(space.level_slices, space.level_slices[1:]):
        # raised[p, c, j]: coefficient of state c in a*_j P[p]
        raised = np.zeros((len(P), hi.stop - hi.start, d), dtype=complex)
        raised[:, space.up[lo] - hi.start, np.arange(d)] = (
            P[:, :, None] * np.sqrt(space.occ[lo] + 1))
        mixed = (raised.reshape(-1, d) @ a.matrix).reshape(raised.shape)
        parent, last = np.nonzero(np.arange(d) >= last[:, None])
        P = mixed[parent, :, last]
        M[hi, hi] = (P / space._sqrt_fact[hi, None]).T
    return Operator(M, antilinear=a.antilinear)


# -- Weyl operators -------------------------------------------------------

def weyl_matrix(space: FockSpace, h) -> Operator:
    """W(h) = exp(i phi(h)) from the spectral decomposition of the
    truncated field, V e^(i Lambda) V*.

    The truncated phi(h) is exactly Hermitian, so this is unitary to
    roundoff; it agrees with the closed-form action on coherent vectors
    up to a truncation defect that shrinks with the cutoff (roughly like
    sqrt(coherent_tail_mass))."""
    lam, V = np.linalg.eigh(field_operator(space, h).matrix)
    return Operator((V * np.exp(1j * lam)) @ V.conj().T)


def weyl_on_coherent(space: FockSpace, h, k):
    """Closed form of W(h) applied to e^((i/sqrt2) k).

    W(h) e^((i/sqrt2)k) = exp(|k|^2/4 - |h+k|^2/4 - (i/2) Im<h,k>)
                          * e^((i/sqrt2)(h+k));
    follows from the vacuum action and the composition law of the Weyl
    unitaries.  Exact up to losing the coherent tail beyond the cutoff.
    """
    h = np.asarray(h, dtype=complex)
    k = np.asarray(k, dtype=complex)
    phase = (np.vdot(k, k).real / 4.0
             - np.vdot(h + k, h + k).real / 4.0
             - 0.5j * np.vdot(h, k).imag)
    coeff = np.exp(phase)
    return coeff * coherent(space, 1j / math.sqrt(2.0) * (h + k))


def weyl_displacement_columns(h: complex, rows: int, cols: int) -> np.ndarray:
    """Occupation-basis matrix elements <m| W(h) |n> for d = 1, exact.

    W(h) is the displacement by alpha = i h / sqrt(2); the element is the
    finite sum e^(-|a|^2/2) sum_j (-conj(a))^j a^(m-n+j)
    sqrt(m! n!) / (j! (m-n+j)! (n-j)!).  Used as the truncation-free
    reference for unitarity-defect studies."""
    alpha = 1j * complex(h) / math.sqrt(2.0)
    pref = math.exp(-abs(alpha) ** 2 / 2.0)
    lg = [math.lgamma(x + 1) for x in range(max(rows, cols) + 1)]
    V = np.zeros((rows, cols), dtype=complex)
    for mi in range(rows):
        for ni in range(cols):
            total = 0.0 + 0.0j
            for j in range(max(0, ni - mi), ni + 1):
                p = mi - ni + j
                amp = math.exp(0.5 * (lg[mi] + lg[ni]) - lg[j] - lg[p] - lg[ni - j])
                total += (-np.conj(alpha)) ** j * alpha ** p * amp
            V[mi, ni] = pref * total
    return V


def weyl_unitarity_defect(h: complex, cutoff: int, probe_cutoff: int) -> float:
    """Unitarity defect of the cutoff-truncated Weyl operator, measured on
    levels <= probe_cutoff.

    The truncation chops the exact displacement matrix to columns
    n <= cutoff; on the probe block the defect
    || P - V V^dagger ||  with  V = P W P_N  is the mass the unitary
    sends above the cutoff, a positive semidefinite quantity that can
    only decrease as the cutoff grows."""
    V = weyl_displacement_columns(h, probe_cutoff + 1, cutoff + 1)
    D = np.eye(probe_cutoff + 1) - V @ V.conj().T
    return float(operator_norm(D))


# -- second-quantized modular objects -------------------------------------

def second_quantized_modular_check(K: RealSubspace, cutoff: int,
                                   rng: np.random.Generator) -> dict:
    """Verify the second-quantized modular identities on the truncation.

    For the Tomita data (s, j, delta), modular_data(K), of a standard K:
      (1) gamma(s) e^(ik) = e^(-ik) for k in K,
      (2) gamma(j) W(k) gamma(j) = W(jk)*,
      (3) gamma(delta^it) W(k) gamma(delta^-it) = W(delta^it k),
      (4) the Weyl phase exp(-i Im<h, k'>) is 1 across K and K'.
    Returns the four largest residuals in a dict, over 6 random unit k
    for (1), 3 for (2) and (3), with t = 0.3 and 0.7, and 50 pairs for (4).
    """
    fs = FockSpace(K.basis.shape[-2], cutoff)
    md = modular_data(K)
    s = md.s
    Kp = symplectic_complement(K)

    def sample(space_sub):
        z = space_sub.basis @ rng.standard_normal(space_sub.dim)
        return z / max(np.linalg.norm(z), 1e-12)

    gs = gamma(fs, s)
    res1, res2, res3, res4 = [], [], [], []
    for _ in range(6):
        k = sample(K)
        lhs = gs.apply(coherent(fs, 1j * k))
        rhs = coherent(fs, -1j * k)
        res1.append(np.linalg.norm(lhs - rhs))

    gj = gamma(fs, md.j)
    for _ in range(3):
        k = sample(K)
        W = weyl_matrix(fs, k)
        lhs = (gj @ W) @ gj
        jk = md.j.apply(k)
        rhs = weyl_matrix(fs, jk).adjoint()
        res2.append(operator_norm(lhs.matrix - rhs.matrix))
        for t in (0.3, 0.7):
            flow = modular_flow(md, t)
            gflow = gamma(fs, flow)
            gflow_inv = gamma(fs, modular_flow(md, -t))
            lhs3 = (gflow @ W) @ gflow_inv
            kt = flow.apply(k)
            rhs3 = weyl_matrix(fs, kt)
            res3.append(operator_norm(lhs3.matrix - rhs3.matrix))

    for _ in range(50):
        h = sample(K)
        kp = sample(Kp)
        phase = np.exp(-1j * np.vdot(h, kp).imag)
        res4.append(abs(phase - 1.0))

    # np.max keeps a NaN that the builtin max would drop
    return {
        "conjugation_on_coherent": np.max(res1),
        "weyl_conjugation": np.max(res2),
        "weyl_flow_covariance": np.max(res3),
        "ccr_phase_across_complement": np.max(res4),
    }
