import functools
import math
import sys
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from modlab import checks, freefield, modloc
from modlab.checks import run_checks
from modlab.config import REFINEMENT_RUNGS, ExperimentConfig
from modlab.freefield import _band_mask, _window
from modlab.freefield import (
    AMPLIFICATION_CAP, BAND_MARGIN, BAND_ROLL, DomainViolationError,
    FreeFieldModel, LeakageError, PoincareElement, RapidityGrid, Region2,
    SupportError, TestFunction2,
    borchers_check, bw_residual, bw_residual_of_vector,
    compressed_fixed_defect, covariance_residual, domain_certificate, embed,
    embed_with_error, gaussian_packet, locality_pairing,
    modular_blowup_profile, poincare_act, wedge_tomita_apply,
)
from modlab.hilbert import (
    RealSubspace, inclusion_residual, subspace_distance,
)


def rung_model(k):
    """Rung k's model, built by the path a run takes."""
    return checks._model(ExperimentConfig().on_rung(k))


@pytest.fixture(scope="module")
def model():
    return FreeFieldModel()


@pytest.fixture(scope="module")
def light_model():
    return rung_model(1)


def test_grid_validation():
    with pytest.raises(ValueError):
        RapidityGrid(6.0, 100)          # not a power of two
    with pytest.raises(ValueError):
        RapidityGrid(2.0, 256)          # theta_max too small
    with pytest.raises(ValueError):
        FreeFieldModel(mass=0.0)


@pytest.mark.parametrize("theta_max, n", [(5.3, 4096), (7.1, 2048), (6.0, 4096)])
def test_grid_is_antisymmetric_bit_for_bit(theta_max, n):
    model = FreeFieldModel(1.0, RapidityGrid(theta_max, n), 4.0, 1.2)
    theta = model.grid.theta
    p0, p1 = freefield._momenta(model.mass, model.grid)
    j = np.arange(1, n)
    assert np.array_equal(theta[n - j], -theta[j])
    assert np.array_equal(p0[n - j], p0[j])
    assert np.array_equal(p1[n - j], -p1[j])


@pytest.mark.parametrize("theta_max", [5.0, 6.0])
@pytest.mark.parametrize("n", [2048, 4096])
def test_grid_keeps_its_samples_where_the_spacing_is_exact(theta_max, n):
    grid = RapidityGrid(theta_max, n)
    assert np.array_equal(grid.theta, -theta_max + grid.spacing * np.arange(n))


def test_region_geometry():
    W = Region2.right_wedge((0.0, 0.0))
    assert W.contains(0.0, 3.0)
    assert not W.contains(0.0, -3.0)
    assert not W.contains(2.0, 1.0)
    assert W.causal_complement().contains(0.0, -3.0)
    assert W.causal_complement() == Region2.left_wedge((0.0, 0.0))
    O = Region2.double_cone((0.0, 0.0), 1.0)
    assert O.contains(0.0, 0.0)
    assert not O.contains(0.8, 0.5)
    # double cone = intersection of its two generating wedges
    assert O.wedges == (Region2.right_wedge((0.0, -1.0)),
                        Region2.left_wedge((0.0, 1.0)))
    # only a wedge has one frame, and a causal complement that is a region
    with pytest.raises(ValueError, match="not a wedge"):
        O.causal_complement()


def test_region_transforms():
    W = Region2.right_wedge((0.0, 0.0))
    g = PoincareElement.translation(0.5, 1.0)
    assert W.transform(g) == Region2.right_wedge((0.5, 1.0))
    refl = W.transform(PoincareElement.reflection())
    assert refl == Region2.left_wedge((0.0, 0.0))
    b = W.transform(PoincareElement.boost(0.7))
    assert b == W


def random_elements(rng, n):
    """Boosts, translations, reflections and products of up to three."""
    def one():
        pick = rng.integers(3)
        if pick == 0:
            return PoincareElement.boost(rng.uniform(-1.0, 1.0))
        if pick == 1:
            return PoincareElement.translation(*rng.uniform(-2.0, 2.0, 2))
        return PoincareElement.reflection()

    out = []
    for _ in range(n):
        g = one()
        for _ in range(rng.integers(3)):
            g = g * one()
        out.append(g)
    return out


@pytest.mark.parametrize("make", [
    lambda rng: Region2.right_wedge(rng.uniform(-1.0, 1.0, 2)),
    lambda rng: Region2.left_wedge(rng.uniform(-1.0, 1.0, 2)),
    lambda rng: Region2.double_cone(rng.uniform(-1.0, 1.0, 2),
                                    rng.uniform(0.5, 2.0)),
], ids=["right_wedge", "left_wedge", "double_cone"])
def test_transformed_region_holds_the_transformed_points(make):
    rng = np.random.default_rng(63)
    x = rng.uniform(-3.0, 3.0, (2, 400))
    elements = random_elements(rng, 40)
    assert any(g.reflect for g in elements)
    assert any(g.rapidity != 0.0 for g in elements)
    inside = 0
    for g in elements:
        R = make(rng)
        held = R.contains(*x)
        assert np.array_equal(R.transform(g).contains(*g.apply_point(x)), held)
        inside += int(held.sum())
    assert 0 < inside < x.shape[1] * len(elements)


def test_wedge_inclusion_agrees_with_sampled_points():
    # points of the origin right wedge, from near its apex to far out, in
    # lightcone coordinates u = x1 + x0, v = x1 - x0
    u, v = np.meshgrid(np.geomspace(0.01, 3.0, 12), np.geomspace(0.01, 3.0, 12))
    x = ((u - v).ravel() / 2, (u + v).ravel() / 2)
    rng = np.random.default_rng(64)
    # apexes on a lattice of step 0.5: a wedge that is not included has
    # points at least 0.49 outside, which the samples near its apex see
    apexes = 0.5 * rng.integers(-2, 3, (20, 2))
    wedges = [make(a) for a in apexes
              for make in (Region2.right_wedge, Region2.left_wedge)]
    for W in wedges:
        assert Region2.right_wedge().transform(W.frame) == W
        assert np.all(W.contains(*W.frame.apply_point(x)))
    verdicts = []
    for W1 in wedges:
        for W2 in wedges:
            sampled = bool(np.all(W1.contains(*W2.frame.apply_point(x))))
            assert W1.includes(W2) == sampled, (W1, W2)
            verdicts.append(sampled)
    assert any(verdicts) and not all(verdicts)


def test_poincare_group_law():
    rng = np.random.default_rng(61)

    def element():
        return PoincareElement(rng.uniform(-0.5, 0.5), *rng.uniform(-1, 1, 2),
                               bool(rng.integers(2)))

    def fields(g):
        return (g.rapidity, g.a0, g.a1)

    for _ in range(20):
        g1, g2, g3 = element(), element(), element()
        x = tuple(rng.uniform(-2, 2, 2))
        lhs = g1.apply_point(g2.apply_point(x))
        rhs = (g1 * g2).apply_point(x)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)
        # the product's translation is g1 applied to g2's, bit for bit
        g12 = g1 * g2
        assert (g12.a0, g12.a1) == g1.apply_point((g2.a0, g2.a1))
        # a two-sided inverse
        for e in (g1.inv() * g1, g1 * g1.inv()):
            assert not e.reflect
            np.testing.assert_allclose(fields(e), 0.0, atol=1e-12)
            np.testing.assert_allclose(e.apply_point(x), x, atol=1e-12)
        np.testing.assert_allclose(g1.inv().apply_point(g1.apply_point(x)), x,
                                   atol=1e-12)
        left, right = (g1 * g2) * g3, g1 * (g2 * g3)
        assert left.reflect == right.reflect
        np.testing.assert_allclose(fields(left), fields(right), atol=1e-12)


def test_bump_support_validation():
    W = Region2.right_wedge()
    f = TestFunction2.bump((0.0, 3.0), 0.5, region=W)   # fine
    with pytest.raises(SupportError):
        TestFunction2.bump((0.0, 0.5), 1.0, region=W)
    assert f.supported_in(W) and f.supported_in(Region2.right_wedge((0.0, 2.0)))
    assert not f.supported_in(Region2.left_wedge())
    assert not f.supported_in(Region2.right_wedge((0.0, 2.8)))


def test_embed_zero_function(model):
    # a disk narrower than half a step, centred between the lattice rows,
    # holds no lattice point
    step = 1.0 / 64
    f = TestFunction2.bump((step / 2, step / 2), step / 4, step)
    assert not np.any(f.values)
    assert np.linalg.norm(embed(f, model).values) == 0.0


def test_embed_linearity(light_model):
    f = TestFunction2.bump((0.0, 2.0), 0.5)
    g = TestFunction2.bump((0.3, 2.5), 0.4)
    a, b = 0.7, -1.3
    # a f + b g sampled on one lattice box that holds both disks
    lo = np.minimum(f.lattice()[0], g.lattice()[0])
    hi = np.maximum(np.add(f.lattice()[0], f.values.shape),
                    np.add(g.lattice()[0], g.values.shape))
    combo = np.zeros(hi - lo)
    for c, h in ((a, f), (b, g)):
        (i, j), (m0, m1) = h.lattice()[0] - lo, h.values.shape
        combo[i:i + m0, j:j + m1] += c * h.values
    fg = SimpleNamespace(step=f.step, values=combo,
                         x0=f.step * np.arange(lo[0], hi[0]),
                         x1=f.step * np.arange(lo[1], hi[1]))
    lhs = uncached_embedding(fg, light_model)
    rhs = a * embed(f, light_model).values + b * embed(g, light_model).values
    assert np.linalg.norm(lhs - rhs) < 1e-12 * np.linalg.norm(rhs)


def test_embed_reality(light_model):
    # conj(fhat(p)) = fhat(-p) for real f: compare against the quadrature
    # evaluated at -p(theta) directly, inside the window bulk
    f = TestFunction2.bump((0.3, 2.7), 0.5)
    Ef = embed(f, light_model)
    p0, p1 = freefield._momenta(light_model.mass, light_model.grid)
    E0 = np.exp(1j * np.outer(f.x0, -p0))
    E1 = np.exp(-1j * np.outer(f.x1, -p1))
    v = np.einsum("xt,xt->t", E0, f.values @ E1) * f.step ** 2 / math.sqrt(2 * np.pi)
    bulk = np.abs(light_model.grid.theta) < 3.0
    np.testing.assert_allclose(np.conj(Ef.values[bulk]), v[bulk], atol=1e-12)


def uncached_embedding(f, model):
    """The embedding formula with whole exp(i p.x) tables and no cache."""
    p0, p1 = freefield._momenta(model.mass, model.grid)
    E0 = np.exp(1j * np.outer(f.x0, p0))
    E1 = np.exp(-1j * np.outer(f.x1, p1))
    v = np.einsum("xt,xt->t", E0, f.values @ E1)
    v *= f.step ** 2 / math.sqrt(2.0 * np.pi)
    return v * _window(model, model.grid.theta)


def clear_caches():
    freefield.embed.cache_clear()
    freefield._phase_chunk.cache_clear()


def touched_chunks(f):
    """The (axis, chunk of |k|) pairs of f's lattice rows."""
    origin, values = f.lattice()
    return {(axis, abs(k) // freefield.PHASE_CHUNK) for axis in (0, 1)
            for k in range(origin[axis], origin[axis] + values.shape[axis])}


def assert_embed_is_exact(model, center, g):
    clear_caches()
    f = TestFunction2.bump(center, 0.5).transform(g)
    expected = uncached_embedding(f, model)
    assert np.array_equal(embed(f, model).values, expected)   # cold
    assert np.array_equal(embed(f, model).values, expected)   # memo
    # each chunk of |k| is filled once, and only the rapidity columns
    # 0 ... N/2 are tabulated
    touched = touched_chunks(f)
    assert freefield._phase_chunk.cache_info().misses == len(touched)
    half = (freefield.PHASE_CHUNK, model.grid.n_points // 2 + 1)
    for axis, c in touched:
        rows = freefield._phase_chunk(model.mass, model.grid, f.step, axis, c)
        assert rows.shape == half and not rows.flags.writeable
    assert freefield._phase_chunk.cache_info().misses == len(touched)


# both lattice origins positive for the first center, negative for the second
exact_centers = pytest.mark.parametrize("center", [(1.0, 3.0), (-1.2, -2.6)])
exact_transforms = pytest.mark.parametrize("g", [
    PoincareElement.translation(0.3, -0.45),
    PoincareElement.boost(0.2),
    PoincareElement.reflection(),
], ids=["translated", "boosted", "reflected"])


@exact_centers
@exact_transforms
def test_embed_equals_uncached_formula_exactly(light_model, center, g):
    assert_embed_is_exact(light_model, center, g)


big_models = pytest.mark.parametrize("big_model", [
    FreeFieldModel(),
    FreeFieldModel(1.0, RapidityGrid(5.3, 4096), 5.0, 1.2),
], ids=["default", "theta_max_5.3"])


@exact_centers
@exact_transforms
@big_models
def test_embed_equals_uncached_formula_exactly_at_4096_points(big_model, center, g):
    assert_embed_is_exact(big_model, center, g)


def recorded_blocks(monkeypatch):
    """The column ranges embed asks _phase_rows for, one per call."""
    blocks, phase_rows = [], freefield._phase_rows

    def recording(model, step, axis, k0, count, columns, out):
        blocks.append((columns.start, columns.stop))
        return phase_rows(model, step, axis, k0, count, columns, out)

    monkeypatch.setattr(freefield, "_phase_rows", recording)
    return blocks


block_models = pytest.mark.parametrize("n, blocks", [
    (2 * freefield.BLOCK, 2),           # N/2 + 1 is one more than BLOCK
    (freefield.BLOCK, 1),               # N/2 + 1 fits in one block
    (4096, -(-2049 // freefield.BLOCK)),
], ids=["block_plus_one", "one_block", "default"])


@block_models
@exact_centers
@exact_transforms
def test_embed_in_column_blocks_equals_uncached_formula(monkeypatch, n, blocks,
                                                         center, g):
    taken = recorded_blocks(monkeypatch)
    assert_embed_is_exact(FreeFieldModel(1.0, RapidityGrid(6.0, n), 5.0, 1.2),
                          center, g)
    # each block asks for its axis-1 rows, then its axis-0 rows, and the
    # blocks tile the columns 0 ... N/2 with none narrower than two
    edges = sorted(set(taken))
    assert len(taken) == 2 * len(edges) and len(edges) == blocks
    assert [a for a, _ in edges] == [0] + [b for _, b in edges[:-1]]
    assert edges[-1][1] == n // 2 + 1
    assert min(b - a for a, b in edges) >= 2


def assert_same_bits(got, expected):
    """Equal values, and equal signs of zero in both parts."""
    assert np.array_equal(got, expected)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(expected)))


@big_models
@pytest.mark.parametrize("k0", [-65, -64, -33, -32, -1, 0, 31])
def test_phase_rows_equal_the_complex_exponential(big_model, k0):
    # counts that end inside a chunk, on a chunk edge, and past zero
    freefield._phase_chunk.cache_clear()
    step = 1.0 / 128
    half = big_model.grid.n_points // 2 + 1
    for count in (1, 2, 31, 32, 33, 64, 65, 97, 131):
        x = step * np.arange(k0, k0 + count)
        for axis, sign in ((0, 1j), (1, -1j)):
            p = freefield._momenta(big_model.mass, big_model.grid)[axis][:half]
            full = np.exp(sign * np.outer(x, p))
            # all the columns, and ranges of them, written into out
            for a, b in ((0, half), (0, 2), (7, 263), (half - 2, half)):
                out = np.empty((count, b - a), dtype=complex)
                assert freefield._phase_rows(big_model, step, axis, k0, count,
                                             slice(a, b), out) is out
                assert_same_bits(out, full[:, a:b])
    # rows with k < 0 are served as conjugates of the cached rows |k|:
    # no chunk beyond those of |k| is filled, each once
    chunks = {abs(k) // freefield.PHASE_CHUNK for k in range(k0, k0 + 131)}
    assert freefield._phase_chunk.cache_info().misses == 2 * len(chunks)


def test_reflected_bump_reuses_the_cached_phase_rows(model):
    clear_caches()
    f = TestFunction2.bump((0.4, 3.0), 0.5)
    embed(f, model)
    fills = freefield._phase_chunk.cache_info().misses
    reflected = f.transform(PoincareElement.reflection())
    assert max(reflected.x1) < 0 < min(f.x1)
    assert np.array_equal(embed(reflected, model).values,
                          uncached_embedding(reflected, model))
    assert freefield._phase_chunk.cache_info().misses == fills


def test_transformed_support_corners_equal_the_pointwise_images():
    f = TestFunction2.bump((0.3, 2.5), 0.5)
    g, h = PoincareElement(0.2, 0.3, -0.45, True), PoincareElement.boost(-0.1)
    moved = f.transform(g).transform(h)
    assert moved.g == h * g
    # the boundary circle, moved by the composed element point by point
    expected = np.array([(h * g).apply_point((float(p0), float(p1)))
                         for p0, p1 in zip(*f._boundary)]).T
    assert np.array_equal(moved._boundary, expected)


def test_building_or_moving_a_test_function_computes_nothing(monkeypatch):
    calls = []
    boundary = TestFunction2._boundary
    monkeypatch.setattr(TestFunction2, "_boundary", property(
        lambda f: calls.append(f) or boundary.fget(f)))
    f = TestFunction2.bump((0.0, 3.0), 0.5)
    f.transform(PoincareElement(0.3, 0.1, -0.2, True)).refine()
    assert calls == []
    # support is checked only where a region is named, once
    TestFunction2.bump((0.0, 3.0), 0.5, region=Region2.right_wedge())
    assert len(calls) == 1


def test_each_lattice_read_computes_the_boundary_ring_once(monkeypatch,
                                                            light_model):
    calls = []
    boundary = TestFunction2._boundary
    monkeypatch.setattr(TestFunction2, "_boundary", property(
        lambda f: calls.append(f) or boundary.fget(f)))
    f = TestFunction2.bump((0.1, 2.6), 0.5)
    for read in ("x0", "x1", "lattice", "values"):
        calls.clear()
        attribute = getattr(f, read)
        if callable(attribute):
            attribute()
        assert len(calls) == 1, read
    # a swept embedding: the sort key reads the disk centre, and embed
    # the lattice once
    clear_caches()
    calls.clear()
    freefield.embed_sweep([f], light_model)
    assert len(calls) == 1


def test_a_test_function_is_a_value(kind_all_embeddings):
    f = TestFunction2.bump((0.0, 3.0), 0.5, region=Region2.right_wedge())
    same = TestFunction2.bump((0.0, 3.0), 0.5)
    # naming a region checks the function; it does not change it
    assert f == same and hash(f) == hash(same)
    T = PoincareElement.translation
    assert f.transform(T(0, .5)).transform(T(0, .5)) == f.transform(T(0, 1))
    assert embed(f, small_model) is embed(same, small_model)
    # the samples are computed when read, not held
    assert not any(isinstance(v, np.ndarray) for v in vars(f).values())
    # the net's transports equal to dictionary members are memo hits
    assert kind_all_embeddings.info.misses <= 72


def test_embed_memo_tells_lattice_origins_apart(light_model):
    f = TestFunction2.bump((0.0, 2.5), 0.5)
    g = f.transform(PoincareElement.translation(8 * f.step, 16 * f.step))
    assert np.array_equal(f.values, g.values)
    assert f.lattice()[0] != g.lattice()[0]
    Ef, Eg = embed(f, light_model), embed(g, light_model)
    # a lattice translate is its phase times the untranslated embedding
    assert np.array_equal(Eg.values, translate_phase(g, light_model) * Ef.values)
    assert relative_gap(Eg.values, uncached_embedding(g, light_model)) < 4e-15
    assert not np.array_equal(Ef.values, Eg.values)


def translate_phase(f, model, sign1=-1):
    """exp(i (a0 p0 - a1 p1)) for f's translation a; sign1=+1 flips the
    a1 term."""
    p0, p1 = freefield._momenta(model.mass, model.grid)
    return np.exp(1j * (f.g.a0 * p0 + sign1 * f.g.a1 * p1))


def relative_gap(v, w):
    return np.linalg.norm(v - w) / np.linalg.norm(w)


@pytest.mark.parametrize("h", [
    PoincareElement(),
    PoincareElement.reflection(),
    PoincareElement.boost(0.1),
    PoincareElement(-0.15, 0.0, 0.0, True),
], ids=["plain", "reflected", "boosted", "boosted_reflected"])
# whole-step translations of either sign, along one axis or both
@pytest.mark.parametrize("n0, n1", [
    (8, 16), (-64, 128), (0, -192), (37, 0), (-5, -77)])
def test_a_lattice_translate_embeds_as_its_phase_times_the_base(
        light_model, monkeypatch, h, n0, n1):
    clear_caches()
    base = TestFunction2.bump((0.3, 2.6), 0.5).transform(h)
    f = base.transform(PoincareElement.translation(n0 * base.step,
                                                   n1 * base.step))
    Ebase = embed(base, light_model).values
    read = []
    lattice = TestFunction2.lattice
    monkeypatch.setattr(TestFunction2, "lattice",
                        lambda g: read.append(g) or lattice(g))
    Ef = embed(f, light_model).values
    # the translate's own lattice is never read
    assert read == [] and not Ef.flags.writeable
    assert np.array_equal(Ef, translate_phase(f, light_model) * Ebase)
    assert relative_gap(Ef, uncached_embedding(f, light_model)) < 4e-15
    # must fail: with the a1 term's sign flipped the phase misses
    if n1 != 0:
        flipped = translate_phase(f, light_model, sign1=+1) * Ebase
        assert relative_gap(flipped, uncached_embedding(f, light_model)) > 1e-2


def test_embed_result_is_read_only(light_model):
    f = TestFunction2.bump((0.2, 2.2), 0.5)
    first = embed(f, light_model)
    kept = first.values.copy()
    with pytest.raises(ValueError):
        first.values[0] = 1.0
    with pytest.raises(ValueError):
        first.values *= 2.0
    assert np.array_equal(embed(f, light_model).values, kept)


small_model = FreeFieldModel(1.0, RapidityGrid(6.0, 256), 5.0, 1.2)


def test_embed_memo_evicts_least_recent_within_its_bound():
    clear_caches()
    size = freefield.embed.cache_info().maxsize
    assert size == freefield.EMBED_MEMO
    bumps = [TestFunction2.bump((0.0, 2.0 + i / 16), 0.5, 1.0 / 16)
             for i in range(size + 1)]
    first = [embed(f, small_model).values for f in bumps[:size]]
    # a hit: bumps[1] is now the least recent
    assert embed(bumps[0], small_model).values is first[0]
    embed(bumps[size], small_model)
    info = freefield.embed.cache_info()
    assert info.currsize == size and (info.hits, info.misses) == (1, size + 1)
    assert embed(bumps[0], small_model).values is first[0]
    again = embed(bumps[1], small_model).values         # evicted, so recomputed
    assert again is not first[1] and np.array_equal(again, first[1])
    # an entry counts once, whatever its size; a hit adds no entry
    embed(bumps[0], rung_model(1))
    embed(bumps[0], rung_model(1))
    assert freefield.embed.cache_info().currsize == size


def test_concurrent_embeds_are_exact_within_both_bounds():
    clear_caches()
    size = freefield.EMBED_MEMO
    # more bumps than embed keeps, whose lattice rows touch more chunks
    # than are kept
    bumps = [TestFunction2.bump((0.6 * (i % 8) - 2.1, 1.0 + 0.3 * i), 0.5,
                                1.0 / 16) for i in range(size + 64)]
    assert len(set().union(*map(touched_chunks, bumps))) > 16
    expected = [uncached_embedding(f, small_model) for f in bumps]
    drawn, wrong = [], []
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def work(seed):
            rng = np.random.default_rng(seed)
            for _ in range(100):
                i = int(rng.integers(0, len(bumps)))
                drawn.append(i)
                if not np.array_equal(embed(bumps[i], small_model).values,
                                      expected[i]):
                    wrong.append(i)

        threads = [threading.Thread(target=work, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert not wrong
    # more embeddings than embed keeps were put into it, and more than 16
    # chunks into 16: neither ends over its bound
    assert len(set(drawn)) > size
    info = freefield.embed.cache_info()
    assert info.currsize <= info.maxsize == size
    info = freefield._phase_chunk.cache_info()
    assert info.currsize <= info.maxsize == 16 and info.misses > 16


def test_embed_holds_at_most_two_phase_tables(model):
    f = TestFunction2.bump((0.3, 2.7), 0.5)
    embed(f, model)                     # its phase chunks are now cached
    freefield.embed.cache_clear()
    tracemalloc.start()
    try:
        embed(f, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = max(len(f.x0), len(f.x1)) * (model.grid.n_points // 2 + 1) * 16
    assert peak <= 2.25 * table


def traced_embed_peak(f, model):
    """tracemalloc peak of one embed of f, its phase chunks cached."""
    embed(f, model)
    freefield.embed.cache_clear()
    tracemalloc.start()
    try:
        embed(f, model)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_embed_peak_does_not_grow_with_the_grid_beyond_its_output():
    f = TestFunction2.bump((0.3, 2.7), 0.5)
    peaks = {n: traced_embed_peak(f, FreeFieldModel(1.0, RapidityGrid(6.0, n),
                                                    5.8, 1.2))
             for n in (4096, 8192)}
    output = 8192 * 16
    assert peaks[8192] <= peaks[4096] + output
    # one full-width (lattice rows x (N/2 + 1)) table at 8192 points
    table = max(len(f.x0), len(f.x1)) * (8192 // 2 + 1) * 16
    assert peaks[8192] < 0.25 * table


@pytest.fixture
def counted_fills(monkeypatch):
    """The keys of every phase-chunk fill, from cold caches.  The net's
    sweep empties the chunk cache with cache_clear(), which also zeroes
    cache_info(), so the fills are counted by a wrapper of the uncached
    function, under a cache of the same bound."""
    fills = []
    fill = freefield._phase_chunk.__wrapped__

    def counting(*key):
        fills.append(key)
        return fill(*key)
    size = freefield._phase_chunk.cache_info().maxsize
    monkeypatch.setattr(freefield, "_phase_chunk",
                        functools.lru_cache(maxsize=size)(counting))
    freefield.embed.cache_clear()
    return fills


def test_default_checks_keep_16_phase_chunks_and_fill_at_most_58(counted_fills):
    # 55 with the chunks kept past the net's sweep: check_doublecone
    # fills 3 of them again
    for kind in ("freefield", "modloc"):
        records, _ = run_checks(ExperimentConfig.from_dict({"kind": kind}))
        assert all(r["passed"] for r in records)
    info = freefield._phase_chunk.cache_info()
    assert info.currsize <= info.maxsize == 16 and len(counted_fills) <= 58


NET_ELEMENTS = (PoincareElement.translation(0.0, 0.5),
                PoincareElement.boost(0.1))


def test_the_net_sweep_releases_the_chunks_and_leaves_only_memo_hits(
        monkeypatch):
    clear_caches()
    swept = []
    sweep = freefield.embed_sweep

    def recording(functions, model):
        sweep(functions, model)
        swept.append(freefield.embed.cache_info().misses)
    monkeypatch.setattr(freefield, "embed_sweep", recording)
    net = checks._build_net(ExperimentConfig.from_dict({"kind": "modloc"}),
                            NET_ELEMENTS)
    assert freefield._phase_chunk.cache_info().currsize == 0
    # populate_wedge and net_checks compute no embedding the sweep did not
    assert len(swept) == 1 and swept[0] > 0
    assert freefield.embed.cache_info().misses == swept[0]
    modloc.net_checks(net, covariance_elements=NET_ELEMENTS)
    assert freefield.embed.cache_info().misses == swept[0]
    assert freefield._phase_chunk.cache_info().currsize == 0


def net_records_and_fills(fills):
    clear_caches()
    fills.clear()
    records = checks.check_net(ExperimentConfig.from_dict({"kind": "modloc"}),
                               None)
    return records, len(fills)


@pytest.fixture(scope="module")
def kind_all_embeddings():
    """embed's cache_info after a kind-all run from cold caches, and the
    number of test-function lattices that run read."""
    clear_caches()
    reads = []
    lattice = TestFunction2.lattice
    with pytest.MonkeyPatch.context() as m:
        m.setattr(TestFunction2, "lattice",
                  lambda f: reads.append(f) or lattice(f))
        run_checks(ExperimentConfig.from_dict({"kind": "all"}))
    return SimpleNamespace(info=freefield.embed.cache_info(),
                           lattice_reads=len(reads))


def test_kind_all_reads_48_lattices_for_72_embeddings(kind_all_embeddings):
    # the net's dictionary moved by (0, 0.5), (0, 1) and (0, 1.5), 24
    # functions, is embedded as phases times the unmoved dictionary
    assert kind_all_embeddings.info.currsize == 72
    assert kind_all_embeddings.lattice_reads == 48


def test_the_net_sweep_changes_only_the_order_of_work(monkeypatch,
                                                      counted_fills,
                                                      kind_all_embeddings):
    swept, swept_fills = net_records_and_fills(counted_fills)
    with monkeypatch.context() as m:
        m.setattr(freefield, "embed_sweep", lambda *args: None)
        unswept, unswept_fills = net_records_and_fills(counted_fills)
    assert repr(swept) == repr(unswept)
    assert 0 < swept_fills < unswept_fills
    # every embedding of kind all stays in embed's memo until the run ends
    info = kind_all_embeddings.info
    assert 0 < info.currsize == info.misses


def test_embed_error_estimate(light_model):
    f = TestFunction2.bump((0.0, 2.5), 0.5)
    vec, err = embed_with_error(f, light_model)
    assert err < 1e-8
    assert np.linalg.norm(vec) > 0


def test_poincare_act_identity_and_reflection(model):
    f = TestFunction2.bump((0.0, 2.5), 0.5)
    Ef = embed(f, model).values
    assert np.array_equal(poincare_act(PoincareElement(), Ef, model), Ef)
    refl = poincare_act(PoincareElement.reflection(), Ef, model)
    np.testing.assert_allclose(refl, np.conj(Ef))


def test_unitarity_of_action(model):
    phi = gaussian_packet(model.grid, momentum=0.4)
    n = np.linalg.norm(phi)
    for g in (PoincareElement.boost(0.3),
              PoincareElement.translation(0.2, -0.4),
              PoincareElement(0.15, 0.1, 0.3, True)):
        assert abs(np.linalg.norm(poincare_act(g, phi, model)) - n) < 1e-10 * n


def test_group_law_on_vectors(model):
    phi = gaussian_packet(model.grid, width=0.8, momentum=0.2)
    g1 = PoincareElement(0.15, 0.2, -0.1, False)
    g2 = PoincareElement(-0.1, 0.05, 0.3, False)
    lhs = poincare_act(g1, poincare_act(g2, phi, model), model)
    rhs = poincare_act(g1 * g2, phi, model)
    assert np.linalg.norm(lhs - rhs) < 1e-8 * np.linalg.norm(phi)


def test_leakage_guard(model):
    phi = gaussian_packet(model.grid, center=0.0, width=0.75)
    with pytest.raises(LeakageError):
        poincare_act(PoincareElement.boost(5.5), phi, model)


def test_leakage_guard_checks_every_vector_of_a_stack(model):
    boost = PoincareElement.boost(1.0)
    inside = gaussian_packet(model.grid, center=0.0, width=0.75)
    edge = gaussian_packet(model.grid, center=4.0, width=0.75)
    poincare_act(boost, np.array([inside, inside]), model)
    with pytest.raises(LeakageError):
        poincare_act(boost, np.array([inside, edge]), model)


def probe_stack(model):
    """Right-wedge, left-wedge and off-centre embeddings as one stack."""
    fs = [TestFunction2.bump((0.0, 3.0), 0.5),
          TestFunction2.bump((0.0, -3.0), 0.5),
          TestFunction2.bump((0.4, 1.2), 0.55)]
    return np.array([embed(f, model).values for f in fs])


@pytest.mark.parametrize("g", [
    PoincareElement.reflection(), PoincareElement.boost(0.2),
    PoincareElement.translation(0.3, -0.45)],
    ids=["reflection", "boost", "translation"])
def test_poincare_act_on_a_stack_equals_per_vector_calls(model, g):
    stack = probe_stack(model)
    moved = poincare_act(g, stack, model)
    assert np.array_equal(moved, [poincare_act(g, v, model) for v in stack])


def test_spectral_maps_on_a_stack_equal_per_vector_calls(model):
    stack, grid = probe_stack(model), model.grid
    assert np.array_equal(compressed_fixed_defect(stack, grid),
                          [compressed_fixed_defect(v, grid) for v in stack])
    assert np.array_equal(domain_certificate(stack, grid),
                          [domain_certificate(v, grid) for v in stack])
    image, tail = wedge_tomita_apply(stack, grid)
    images = [wedge_tomita_apply(v, grid) for v in stack]
    assert np.array_equal(image, [s for s, _ in images])
    assert np.array_equal(tail, [t for _, t in images])
    assert tail[0] < 1e-10 < tail[1]


def inline_smooth_step(x, start, width):
    """The smooth step as _window and _band_mask each wrote it inline."""
    s = (x - start) / width
    s = np.clip(s, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(s > 0, np.exp(-1.0 / np.where(s > 0, s, 1.0)), 0.0)
        b = np.where(s < 1, np.exp(-1.0 / np.where(s < 1, 1.0 - s, 1.0)), 0.0)
    return b / (a + b)


@pytest.mark.parametrize("m", [FreeFieldModel(), rung_model(1)],
                         ids=["default", "rung1"])
def test_window_and_band_mask_match_the_inline_formula(m):
    theta, omega = m.grid.theta, m.grid.omega
    assert np.array_equal(
        _window(m, theta),
        inline_smooth_step(np.abs(theta), m.window - m.window_width,
                           m.window_width))
    wb = math.log(AMPLIFICATION_CAP) / np.pi - BAND_MARGIN
    assert np.array_equal(_band_mask(omega),
                          inline_smooth_step(np.abs(omega), wb - BAND_ROLL,
                                             BAND_ROLL))


def test_covariance_identity_is_exact(model):
    f = TestFunction2.bump((0.0, 2.5), 0.5)
    assert covariance_residual(f, PoincareElement(), model) == 0.0


def test_covariance_translation(model):
    f = TestFunction2.bump((0.0, 2.5), 0.5)
    res = covariance_residual(f, PoincareElement.translation(0.3, 0.0), model)
    assert res < 1e-6
    res2 = covariance_residual(f, PoincareElement.translation(0.1, 0.2), model)
    assert res2 < 1e-6


def test_check_covariance_samples_every_translate_it_tests(monkeypatch):
    # off the lattice at every rung, a translation is no phase identity:
    # covariance_translation compares u(g) E f with a sampled E(f o g^-1)
    clear_caches()
    moved, read = [], set()
    residual, lattice = freefield.covariance_residual, TestFunction2.lattice
    monkeypatch.setattr(freefield, "covariance_residual", lambda f, g, m: (
        moved.append(f.transform(g)) or residual(f, g, m)))
    monkeypatch.setattr(TestFunction2, "lattice",
                        lambda f: read.add(f) or lattice(f))
    for k in REFINEMENT_RUNGS:
        moved.clear()
        read.clear()
        checks.check_covariance(ExperimentConfig().on_rung(k), None)
        translated = [f for f in moved if (f.g.a0, f.g.a1) != (0.0, 0.0)]
        assert len(translated) == 2 and set(translated) <= read


def test_covariance_boost(model):
    f = TestFunction2.bump((0.0, 2.5), 0.5)
    res = covariance_residual(f, PoincareElement.boost(0.2), model)
    assert res < 1e-4


def test_covariance_ladder_decreases():
    f = TestFunction2.bump((0.0, 2.5), 0.5)
    g = PoincareElement.boost(0.2)
    res = [covariance_residual(f, g, rung_model(k)) for k in (1, 2, 3)]
    assert res[0] > res[1] > res[2]


def span_of(model, vectors):
    """The real span of one-particle vectors."""
    return RealSubspace.span(np.reshape(vectors, (-1, model.grid.n_points)).T)


def test_reflection_covariance_on_subspaces(model):
    # u(gamma) K(O) = K(-O) on dictionary subspaces
    dict_pos = [TestFunction2.bump((0.1, 2.3), 0.45),
                TestFunction2.bump((-0.2, 2.9), 0.5)]
    gamma_el = PoincareElement.reflection()
    dict_neg = [f.transform(gamma_el) for f in dict_pos]
    K_neg = span_of(model, [embed(f, model).values for f in dict_neg])
    moved = span_of(model, [poincare_act(gamma_el, embed(f, model).values, model)
                            for f in dict_pos])
    assert subspace_distance(moved, K_neg) < 1e-6


def test_locality_spacelike_pairs(model):
    f = TestFunction2.bump((0.0, -2.0), 0.5)
    g = TestFunction2.bump((0.0, 2.0), 0.5)
    assert abs(locality_pairing(f, g, model)) < 1e-6
    f2 = TestFunction2.bump((0.3, -1.7), 0.4)
    g2 = TestFunction2.bump((-0.2, 2.1), 0.45)
    assert abs(locality_pairing(f2, g2, model)) < 1e-6


def test_locality_self_pairing_vanishes(model):
    f = TestFunction2.bump((0.2, 1.8), 0.5)
    assert abs(locality_pairing(f, f, model)) < 1e-14


def test_locality_timelike_pair(model):
    f = TestFunction2.bump((0.0, 0.0), 0.5)
    g = TestFunction2.bump((1.5, 0.0), 0.5)
    val = abs(locality_pairing(f, g, model))
    assert val > 1e-3          # calibrated timelike pair, value ~3.5e-3


def test_locality_antisymmetry(model):
    f = TestFunction2.bump((0.1, 0.2), 0.5)
    g = TestFunction2.bump((1.4, -0.1), 0.45)
    a = locality_pairing(f, g, model)
    b = locality_pairing(g, f, model)
    assert abs(a + b) < 1e-14


def test_local_subspace_rank_and_isotony(model):
    cone = Region2.double_cone((0.0, 2.5), 1.4)
    rng = np.random.default_rng(62)
    fs = [TestFunction2.bump((c0, c1), 0.3)
          for c0, c1 in zip(rng.uniform(-0.4, 0.4, 12), rng.uniform(2.0, 3.0, 12))]
    assert all(f.supported_in(cone) for f in fs)
    E = [embed(f, model).values for f in fs]
    K = span_of(model, E)
    assert K.dim == 12          # no rank collapse
    assert inclusion_residual(span_of(model, E[:5]), K) < 1e-12


def test_gaussian_is_in_domain(model):
    phi = gaussian_packet(model.grid, width=1.2)
    _, tail = wedge_tomita_apply(phi, model.grid)
    assert tail < 1e-8
    profile = modular_blowup_profile(phi, model.grid)
    assert profile[2] / profile[0] < 1e3


def test_right_wedge_bump_is_in_domain(model):
    Ef = embed(TestFunction2.bump((0.0, 3.0), 0.5), model).values
    cert = domain_certificate(Ef, model.grid)
    assert cert < 1e-10
    profile = modular_blowup_profile(Ef, model.grid)
    assert profile[2] / profile[0] < 1e3


def test_bw_residual_right_wedge(model):
    f = TestFunction2.bump((0.0, 3.0), 0.5, region=Region2.right_wedge())
    assert bw_residual(f, model) < 1e-3


def test_bw_residual_ladder_decreases():
    res = []
    for k in (1, 2, 3):
        m = rung_model(k)
        f = TestFunction2.bump((0.0, 3.0), 0.5, region=Region2.right_wedge())
        res.append(bw_residual(f, m))
    assert res[0] > res[1] > res[2]
    assert res[2] < 1e-3


def test_bw_real_linearity(model):
    f1 = TestFunction2.bump((0.0, 3.0), 0.5)
    f2 = TestFunction2.bump((0.5, 3.5), 0.45)
    E1, E2 = embed(f1, model).values, embed(f2, model).values
    r1 = bw_residual_of_vector(E1, model.grid)
    r2 = bw_residual_of_vector(E2, model.grid)
    combo = 0.6 * E1 + 1.7 * E2
    assert bw_residual_of_vector(combo, model.grid) <= max(r1, r2) * 4 + 1e-12


def test_left_wedge_bump_violates_domain(model):
    f = TestFunction2.bump((0.0, -3.0), 0.5, region=Region2.left_wedge())
    with pytest.raises(DomainViolationError) as exc:
        bw_residual(f, model)
    assert exc.value.tail_mass > 1e-3


def test_flipped_wedge_direction_swaps_the_wedges(model, monkeypatch):
    # with the multiplier exp(-pi omega) the left wedge is the fixed one:
    # the certificate and the defect must both follow the one constant
    monkeypatch.setattr(freefield, "RIGHT_WEDGE_DIRECTION", 1)
    f = TestFunction2.bump((0.0, 3.0), 0.5, region=Region2.right_wedge())
    with pytest.raises(DomainViolationError):
        bw_residual(f, model)
    g = TestFunction2.bump((0.0, -3.0), 0.5, region=Region2.left_wedge())
    assert bw_residual(g, model) < 1e-3


def test_left_wedge_blowup(model):
    Eg = embed(TestFunction2.bump((0.0, -3.0), 0.5), model).values
    profile = modular_blowup_profile(Eg, model.grid)
    assert profile[1] / profile[0] > 1e3
    assert profile[2] / profile[1] > 1e3


def test_band_mask_commutes_with_tomita(model):
    # the band mask is an even function of the frequency, so it commutes
    # with s_W: masking before or after the half-boost agrees (checked on
    # a domain-safe probe so no amplified junk enters)
    grid = model.grid
    mask = _band_mask(grid.omega)

    def P(v):
        return np.fft.ifft(mask * np.fft.fft(v))

    phi = gaussian_packet(grid, width=1.0, momentum=0.3)
    masked_first, _ = wedge_tomita_apply(P(phi), grid)
    masked_last = P(wedge_tomita_apply(phi, grid)[0])
    assert (np.linalg.norm(masked_first - masked_last)
            < 1e-7 * np.linalg.norm(masked_last))
    # so the compressed defect (s_W - 1) P phi is also P s_W phi - P phi
    defect = compressed_fixed_defect(phi, grid)
    assert (np.linalg.norm(defect - (masked_last - P(phi)))
            < 1e-7 * np.linalg.norm(phi))
    # and the BW residual is its norm relative to that of P v
    Ef = embed(TestFunction2.bump((0.0, 3.0), 0.5), model).values
    ratio = np.linalg.norm(compressed_fixed_defect(Ef, grid)) / np.linalg.norm(P(Ef))
    assert abs(bw_residual_of_vector(Ef, grid) - ratio) < 1e-12 * ratio
    kept = np.linalg.norm(P(Ef)) ** 2 / np.linalg.norm(Ef) ** 2
    assert 0.5 < kept <= 1.0


def test_borchers_relations(model):
    # probes narrow enough that the 2 pi t theta-shift stays clear of the
    # periodic boundary at the 1e-9 level
    probes = [gaussian_packet(model.grid, width=0.65, momentum=0.3),
              gaussian_packet(model.grid, center=0.3, width=0.7, momentum=-0.2)]
    rep = borchers_check(0.5, (0.1, 0.25), probes, model)
    assert rep["flow_commutation"] < 1e-6
    assert rep["reflection_commutation"] < 1e-6
    rep0 = borchers_check(0.0, (0.3,), probes, model)
    assert rep0["flow_commutation"] < 1e-14
    rep_t0 = borchers_check(0.7, (0.0,), probes, model)
    assert rep_t0["flow_commutation"] < 1e-14



def test_borchers_check_keeps_a_nan_deviation(model):
    # a NaN probe after a finite one: max(worst, nan) would keep worst
    probes = [gaussian_packet(model.grid), np.full(model.grid.n_points, np.nan + 0j)]
    rep = borchers_check(0.5, (0.1,), probes, model)
    assert math.isnan(rep["flow_commutation"])
    assert math.isnan(rep["reflection_commutation"])
