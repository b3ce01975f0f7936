"""Mass-m scalar field on 2D Minkowski space, discretized in rapidity.

The one-particle space is L^2 of the mass hyperboloid
p(theta) = (m cosh theta, m sinh theta) with the invariant measure
d theta, sampled on a uniform periodic grid.  Boosts act as theta
shifts (FFT phase shifts), translations as multiplication by
exp(i a.p(theta)), and the total spacetime reflection as pointwise
conjugation.  Test functions are smooth bumps sampled on a global
spacetime lattice; their embedding into the one-particle space is a
Fourier quadrature windowed where the lattice stops resolving the
oscillation of exp(i p.x).

The origin right wedge's delta^(1/2) is, by the Bisognano-Wichmann
theorem, the Fourier multiplier exp(pi omega) in the rapidity frequency
omega; modloc transports it to other wedges.  Amplification is
capped at 1e12; the input mass at capped frequencies is the domain
diagnostic, and identity checks are run on band-limited
representatives, for which the capped operator is faithful.

A one-particle vector is a complex array of samples on the rapidity
grid, and a stack of them an array (..., n_points).  Every map acts
along the last axis, so a stack takes the path of one vector, and is
handed the model when it needs the momenta or else just the grid.
"""

from __future__ import annotations

import hashlib
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "RapidityGrid", "FreeFieldModel", "Region2", "TestFunction2",
    "OneParticleVector", "PoincareElement", "LeakageError",
    "DomainViolationError", "SupportError",
    "embed", "embed_with_error", "poincare_act", "covariance_residual",
    "locality_pairing", "realify", "band_project",
    "domain_certificate", "wedge_modular_half",
    "wedge_tomita_apply", "compressed_fixed_defect",
    "bw_residual", "bw_residual_of_vector",
    "modular_blowup_profile", "borchers_check", "gaussian_packet",
    "REFINEMENT_RUNGS",
]

AMPLIFICATION_CAP = 1e12
BAND_MARGIN = 1.0
DOMAIN_CERT_THRESHOLD = 1e-10
RIGHT_WEDGE_DIRECTION = -1    # multiplier exp(+pi omega); frozen by the
                              # calibration "right-wedge bumps are fixed"
LEAKAGE_BUFFER = 0.3
LEAKAGE_BUDGET = 1e-8

# (n_points, lattice step, window, window width); rung 3 is the default
REFINEMENT_RUNGS = {
    1: dict(n_points=2048, step=1.0 / 128, window=5.2, window_width=1.4),
    2: dict(n_points=4096, step=1.0 / 128, window=5.5, window_width=1.3),
    3: dict(n_points=4096, step=1.0 / 128, window=5.8, window_width=1.2),
}


class LeakageError(RuntimeError):
    def __init__(self, leaked):
        self.leaked = leaked
        super().__init__(f"boundary leakage {leaked:.3e} above budget")


class DomainViolationError(RuntimeError):
    """Raised when a vector fails the spectral-decay certificate of the
    modular half-boost; carries the offending tail mass."""

    def __init__(self, tail_mass):
        self.tail_mass = tail_mass
        super().__init__(
            f"outside the numerical domain of delta^(1/2): "
            f"capped-band mass {tail_mass:.3e}")


class SupportError(ValueError):
    """Test-function support violates its declared region."""


@dataclass(frozen=True)
class RapidityGrid:
    theta_max: float
    n_points: int

    def __post_init__(self):
        n = self.n_points
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError("n_points must be a power of two, >= 8")
        if self.theta_max < 4.0:
            raise ValueError("theta_max must be >= 4")

    @property
    def spacing(self) -> float:
        return 2.0 * self.theta_max / self.n_points

    @property
    def theta(self) -> np.ndarray:
        """Samples k h for k = -N/2 ... N/2 - 1: exactly antisymmetric,
        theta[N - j] == -theta[j], which embed's mirror relies on."""
        n = self.n_points
        return self.spacing * (np.arange(n) - n // 2)

    @property
    def omega(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.spacing)


@dataclass(frozen=True)
class FreeFieldModel:
    """Massive 2D scalar model on a rapidity grid.

    window / window_width locate the smooth cutoff applied by embed
    where the spacetime lattice stops resolving exp(i p.x); they are a
    discretization parameter of the embedding, not of the field.
    """
    mass: float = 1.0
    grid: RapidityGrid = field(default_factory=lambda: RapidityGrid(6.0, 4096))
    window: float = 5.8
    window_width: float = 1.2

    def __post_init__(self):
        if self.mass <= 0:
            raise ValueError("massive case only: mass > 0")
        if self.window >= self.grid.theta_max:
            raise ValueError("window must sit inside the grid")

    @classmethod
    def rung(cls, k: int):
        p = REFINEMENT_RUNGS[k]
        return cls(1.0, RapidityGrid(6.0, p["n_points"]),
                   p["window"], p["window_width"])

    def momenta(self):
        th = self.grid.theta
        return self.mass * np.cosh(th), self.mass * np.sinh(th)


class OneParticleVector(NamedTuple):
    """What embed returns: the model and the read-only samples."""
    model: FreeFieldModel
    values: np.ndarray


def _inner(x, y, grid: RapidityGrid) -> complex:
    """<x, y> = h sum conj(x) y, h the rapidity spacing."""
    return grid.spacing * complex(np.vdot(x, y))


def _norm(v, grid: RapidityGrid) -> float:
    return math.sqrt(max(_inner(v, v, grid).real, 0.0))


# -- spacetime regions ----------------------------------------------------

@dataclass(frozen=True)
class Region2:
    """2D region: right/left wedge with an apex, double cone given by the
    apexes of its two generating wedges, or a causal complement."""
    kind: str                       # right_wedge | left_wedge | double_cone | complement
    apex: tuple = None              # wedges
    right_apex: tuple = None        # double cones: apex of the right wedge
    left_apex: tuple = None
    inner: "Region2" = None         # complement

    # constructors ------------------------------------------------------

    @staticmethod
    def right_wedge(apex=(0.0, 0.0)) -> "Region2":
        return Region2("right_wedge", apex=tuple(apex))

    @staticmethod
    def left_wedge(apex=(0.0, 0.0)) -> "Region2":
        return Region2("left_wedge", apex=tuple(apex))

    @staticmethod
    def double_cone(center=(0.0, 0.0), radius=1.0) -> "Region2":
        c0, c1 = center
        return Region2("double_cone",
                       right_apex=(c0, c1 - radius), left_apex=(c0, c1 + radius))

    # geometry ------------------------------------------------------------

    def contains(self, x0, x1):
        x0 = np.asarray(x0, dtype=float)
        x1 = np.asarray(x1, dtype=float)
        if self.kind == "right_wedge":
            a0, a1 = self.apex
            return (x1 - a1) - np.abs(x0 - a0) > 0.0
        if self.kind == "left_wedge":
            a0, a1 = self.apex
            return -(x1 - a1) - np.abs(x0 - a0) > 0.0
        if self.kind == "double_cone":
            r = Region2.right_wedge(self.right_apex)
            l = Region2.left_wedge(self.left_apex)
            return r.contains(x0, x1) & l.contains(x0, x1)
        if self.kind == "complement":
            r, l = self.inner.causal_complement_parts()
            return r.contains(x0, x1) | l.contains(x0, x1)
        raise ValueError(self.kind)

    def causal_complement(self) -> "Region2":
        if self.kind == "right_wedge":
            return Region2.left_wedge(self.apex)
        if self.kind == "left_wedge":
            return Region2.right_wedge(self.apex)
        if self.kind == "complement":
            return self.inner
        return Region2("complement", inner=self)

    def causal_complement_parts(self):
        """The complement of a double cone is the union of two wedges."""
        if self.kind != "double_cone":
            raise ValueError("parts only defined for double cones")
        return [Region2.right_wedge(self.left_apex),
                Region2.left_wedge(self.right_apex)]

    def transform(self, g: "PoincareElement") -> "Region2":
        if self.kind in ("right_wedge", "left_wedge"):
            new_apex = g.apply_point(self.apex)
            kind = self.kind
            if g.reflect:
                kind = "left_wedge" if kind == "right_wedge" else "right_wedge"
            return Region2(kind, apex=tuple(new_apex))
        if self.kind == "double_cone":
            ra = g.apply_point(self.right_apex)
            la = g.apply_point(self.left_apex)
            if g.reflect:
                ra, la = la, ra
            return Region2("double_cone", right_apex=tuple(ra), left_apex=tuple(la))
        raise ValueError(f"cannot transform region of kind {self.kind}")


# -- Poincare group elements ----------------------------------------------

@dataclass(frozen=True)
class PoincareElement:
    """(Lambda, a) with Lambda = boost(rapidity) times optional total
    reflection gamma: x -> -x.  Action on points: x -> Lambda x + a."""
    rapidity: float = 0.0
    a0: float = 0.0
    a1: float = 0.0
    reflect: bool = False

    @staticmethod
    def translation(a0, a1) -> "PoincareElement":
        return PoincareElement(0.0, a0, a1, False)

    @staticmethod
    def boost(rapidity) -> "PoincareElement":
        return PoincareElement(rapidity, 0.0, 0.0, False)

    @staticmethod
    def reflection() -> "PoincareElement":
        return PoincareElement(0.0, 0.0, 0.0, True)

    def apply_point(self, x):
        x0, x1 = float(x[0]), float(x[1])
        c, s = math.cosh(self.rapidity), math.sinh(self.rapidity)
        y0, y1 = c * x0 + s * x1, s * x0 + c * x1
        if self.reflect:
            y0, y1 = -y0, -y1
        return (y0 + self.a0, y1 + self.a1)

    def __mul__(self, other: "PoincareElement") -> "PoincareElement":
        # L = L1 L2 (gamma is central in 2D), a = a1 + L1 a2
        La2 = PoincareElement(self.rapidity, 0.0, 0.0, self.reflect).apply_point(
            (other.a0, other.a1))
        return PoincareElement(self.rapidity + other.rapidity,
                               self.a0 + La2[0], self.a1 + La2[1],
                               self.reflect != other.reflect)

    def inv(self) -> "PoincareElement":
        ainv = PoincareElement(-self.rapidity, 0.0, 0.0, self.reflect).apply_point(
            (-self.a0, -self.a1))
        return PoincareElement(-self.rapidity, ainv[0], ainv[1], self.reflect)


# -- test functions --------------------------------------------------------

def _bump(q):
    out = np.zeros_like(q)
    mk = q < 1.0
    out[mk] = np.exp(-1.0 / (1.0 - q[mk]))
    return out


class TestFunction2:
    """Real smooth test function sampled on the global spacetime lattice
    {(i h, j h)}; holding the analytic profile so that Poincare
    transforms are evaluated exactly, never interpolated."""

    __test__ = False            # despite the name, not a pytest class

    def __init__(self, region: Region2, profile, bbox, step: float,
                 support_boundary=None):
        self.region = region
        self.profile = profile
        self.step = float(step)
        (lo0, hi0), (lo1, hi1) = bbox
        i0, i1 = math.floor(lo0 / step) - 1, math.ceil(hi0 / step) + 1
        j0, j1 = math.floor(lo1 / step) - 1, math.ceil(hi1 / step) + 1
        self.origin = (i0, j0)          # lattice integers of x0[0], x1[0]
        self.x0 = step * np.arange(i0, i1 + 1)
        self.x1 = step * np.arange(j0, j1 + 1)
        self.values = profile(self.x0[:, None], self.x1[None, :])
        self._boundary = support_boundary
        if not self.supported_in(region):
            raise SupportError("support is not inside the declared region")

    def supported_in(self, region: Region2) -> bool:
        """Whether the recorded support boundary, if any, lies in region."""
        b = self._boundary
        return b is None or bool(np.all(region.contains(*b)))

    @staticmethod
    def bump(center, radius, step: float = 1.0 / 128,
             region: Region2 = None) -> "TestFunction2":
        """Mollifier bump exp(-1/(1 - |x-c|^2/r^2)) on the disk of the
        given center and radius."""
        c0, c1 = float(center[0]), float(center[1])
        r = float(radius)
        if region is None:
            region = Region2.double_cone((c0, c1), r * math.sqrt(2.0) * 1.001)
        ang = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
        boundary = (c0 + r * np.cos(ang), c1 + r * np.sin(ang))

        def profile(x0, x1):
            return _bump(((x0 - c0) ** 2 + (x1 - c1) ** 2) / r ** 2)

        f = TestFunction2(region, profile, ((c0 - r, c0 + r), (c1 - r, c1 + r)),
                          step, support_boundary=boundary)
        f.center = (c0, c1)
        f.radius = r
        return f

    def refine(self) -> "TestFunction2":
        g = TestFunction2(self.region, self.profile,
                          ((self.x0[0], self.x0[-1]), (self.x1[0], self.x1[-1])),
                          self.step / 2, support_boundary=self._boundary)
        for attr in ("center", "radius"):
            if hasattr(self, attr):
                setattr(g, attr, getattr(self, attr))
        return g

    def transform(self, g: PoincareElement) -> "TestFunction2":
        """The transformed function x -> f(g^(-1) x), sampled on the
        lattice over the transformed support box."""
        corners0, corners1 = [], []
        if self._boundary is not None:
            b0, b1 = self._boundary
        else:
            b0 = np.array([self.x0[0], self.x0[0], self.x0[-1], self.x0[-1]])
            b1 = np.array([self.x1[0], self.x1[-1], self.x1[0], self.x1[-1]])
        for p0, p1 in zip(b0, b1):
            q = g.apply_point((p0, p1))
            corners0.append(q[0])
            corners1.append(q[1])
        corners0, corners1 = np.array(corners0), np.array(corners1)

        def profile(x0, x1):
            c, s = math.cosh(g.rapidity), math.sinh(g.rapidity)
            y0 = x0 - g.a0
            y1 = x1 - g.a1
            if g.reflect:
                y0, y1 = -y0, -y1
            z0 = c * y0 - s * y1
            z1 = -s * y0 + c * y1
            return self.profile(z0, z1)

        new_boundary = (corners0, corners1) if self._boundary is not None else None
        return TestFunction2(self.region.transform(g), profile,
                             ((corners0.min(), corners0.max()),
                              (corners1.min(), corners1.max())),
                             self.step, support_boundary=new_boundary)


def _smooth_step(s):
    """C-infinity step from 1 at s <= 0 down to 0 at s >= 1."""
    s = np.clip(s, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(s > 0, np.exp(-1.0 / np.where(s > 0, s, 1.0)), 0.0)
        b = np.where(s < 1, np.exp(-1.0 / np.where(s < 1, 1.0 - s, 1.0)), 0.0)
    return b / (a + b)


def _window(model: FreeFieldModel, theta):
    return _smooth_step((np.abs(theta) - (model.window - model.window_width))
                        / model.window_width)


class _LRUCache:
    """Least-recently-used map of arrays, bounded by their total bytes;
    a lock keeps it consistent when embeddings run in several threads."""

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self.nbytes = 0
        self._data = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key):
        with self._lock:
            value = self._data.get(key)
            if value is not None:
                self._data.move_to_end(key)
            return value

    def put(self, key, value: np.ndarray):
        with self._lock:
            old = self._data.pop(key, None)
            if old is not None:
                self.nbytes -= old.nbytes
            self._data[key] = value
            self.nbytes += value.nbytes
            while self.nbytes > self.max_bytes and len(self._data) > 1:
                self.nbytes -= self._data.popitem(last=False)[1].nbytes

    def clear(self):
        with self._lock:
            self._data.clear()
            self.nbytes = 0


PHASE_CHUNK = 32                                # lattice rows per cached chunk
_PHASE_ROWS = _LRUCache(96 * 2 ** 20)           # chunks of exp(+-i (k h) p)
_EMBEDDINGS = _LRUCache(16 * 2 ** 20)           # read-only embed results


def _phase_rows(model: FreeFieldModel, step: float, axis: int, k0: int,
                count: int) -> np.ndarray:
    """Rows exp(i (k h) p0) (axis 0) or exp(-i (k h) p1) (axis 1) for the
    lattice integers k0 <= k < k0 + count, over the rapidity columns
    0 ... N/2 only; embed mirrors the other columns.

    The rows depend on the model only through its momenta, so chunks of
    PHASE_CHUNK rows are cached per (mass, grid, step, axis, chunk).  A
    chunk is filled as cos(arg) + i sin(arg), about a third cheaper than
    the complex exponential exp(+-1j * outer(x, p)) and bit-identical to
    it where the host's exp and cos/sin agree.  arg carries the signs of
    zero of the complex products: 1j * t has imaginary part t + 0.0 and
    -1j * t has -t.
    """
    half = model.grid.n_points // 2 + 1
    first, last = k0 // PHASE_CHUNK, (k0 + count - 1) // PHASE_CHUNK
    parts = []
    for c in range(first, last + 1):
        key = (model.mass, model.grid, step, axis, c)
        rows = _PHASE_ROWS.get(key)
        if rows is None:
            x = step * np.arange(c * PHASE_CHUNK, (c + 1) * PHASE_CHUNK)
            arg = np.outer(x, model.momenta()[axis][:half])
            arg = arg + 0.0 if axis == 0 else -arg
            rows = np.empty(arg.shape, dtype=complex)
            rows.real = np.cos(arg)
            rows.imag = np.sin(arg)
            _PHASE_ROWS.put(key, rows)
        lo = max(k0 - c * PHASE_CHUNK, 0)
        hi = min(k0 + count - c * PHASE_CHUNK, PHASE_CHUNK)
        parts.append(rows[lo:hi])
    return np.concatenate(parts)


def embed(f: TestFunction2, model: FreeFieldModel) -> OneParticleVector:
    """(Ef)(theta) = sqrt(2 pi) fhat(p(theta)) with
    fhat(p) = (2 pi)^(-1) int f(x) exp(i p.x) d^2x, p.x = p0 x0 - p1 x1.

    Trapezoid quadrature on the function's lattice, evaluated through
    the separable structure of exp(i p.x), then windowed where the
    lattice no longer resolves the phase.

    Only the rapidity columns 0 ... N/2 are computed.  The grid is
    antisymmetric, p0 = m cosh(theta) is bitwise even and p1 = m sinh(theta)
    bitwise odd, cos is even and sin odd, and f is real; so with
    E0 = exp(i x0 p0), B = f @ exp(-i x1 p1) on those columns,
    v(theta[N - j]) = sum_x E0[x, j] conj(B[x, j]), bit for bit the
    full-width quadrature.

    Results are memoized on (model, step, lattice origin, shape and
    digest of the sampled values); the returned values are read-only.
    """
    values = f.values
    key = (model, f.step, f.origin, values.shape, values.dtype.str,
           hashlib.blake2b(values.tobytes(), digest_size=16).digest())
    v = _EMBEDDINGS.get(key)
    if v is None:
        n = model.grid.n_points
        E0 = _phase_rows(model, f.step, 0, f.origin[0], len(f.x0))
        B = values @ _phase_rows(model, f.step, 1, f.origin[1], len(f.x1))
        mirror = slice(n // 2 - 1, 0, -1)          # columns N/2 - 1 ... 1
        v = np.empty(n, dtype=complex)
        v[:n // 2 + 1] = np.einsum("xt,xt->t", E0, B)
        v[n // 2 + 1:] = np.einsum("xt,xt->t", E0[:, mirror],
                                   np.conj(B[:, mirror]))
        v *= f.step ** 2 / math.sqrt(2.0 * np.pi)
        v *= _window(model, model.grid.theta)
        v.flags.writeable = False
        _EMBEDDINGS.put(key, v)
    return OneParticleVector(model, v)


def embed_with_error(f: TestFunction2, model: FreeFieldModel):
    """The half-step embedding's values plus a Richardson-style error
    estimate from comparing them with the function's own resolution."""
    coarse = embed(f, model).values
    fine = embed(f.refine(), model).values
    err = _norm(coarse - fine, model.grid) / max(_norm(fine, model.grid), 1e-300)
    return fine, err


def realify(values, spacing: float) -> np.ndarray:
    """Isometric real columns of a stack of vectors: column j holds the
    real and then the imaginary parts of values[j], flattened and scaled
    by sqrt(spacing), so the Euclidean product of columns is Re <., .>."""
    values = np.asarray(values)
    z = values.reshape(len(values), math.prod(values.shape[1:]))
    z = z * math.sqrt(spacing)
    return np.concatenate([z.real.T, z.imag.T])


# -- Poincare action -------------------------------------------------------

def _shift(values, lam, omega):
    return np.fft.ifft(np.fft.fft(values) * np.exp(-1j * omega * lam))


def _mass_fraction(values, zone):
    """Relative mass of each vector of a stack on the samples in zone."""
    power = np.abs(values) ** 2
    # compress keeps the rows contiguous, so each row sums as a lone vector
    return (np.sum(np.compress(zone, power, axis=-1), axis=-1)
            / np.maximum(np.sum(power, axis=-1), 1e-300))


def _leaked_mass(values, grid: RapidityGrid) -> float:
    """Largest relative mass over a stack within LEAKAGE_BUFFER of the ends."""
    zone = np.abs(grid.theta) > grid.theta_max - LEAKAGE_BUFFER
    return float(np.max(_mass_fraction(values, zone), initial=0.0))


def poincare_act(g: PoincareElement, v, model: FreeFieldModel) -> np.ndarray:
    """u(g) v: reflection acts as conjugation, a boost of rapidity l as
    the shift theta -> theta - l, a translation as the phase exp(i a.p).
    A boost raises LeakageError if a vector leaks above LEAKAGE_BUDGET."""
    if g.reflect:
        v = np.conj(v)
    if g.rapidity != 0.0:
        v = _shift(v, g.rapidity, model.grid.omega)
        leak = _leaked_mass(v, model.grid)
        if leak > LEAKAGE_BUDGET:
            raise LeakageError(leak)
    if g.a0 != 0.0 or g.a1 != 0.0:
        p0, p1 = model.momenta()
        v = np.exp(1j * (g.a0 * p0 - g.a1 * p1)) * v
    return v


def covariance_residual(f: TestFunction2, g: PoincareElement,
                        model: FreeFieldModel) -> float:
    """|| E(f o g^(-1)) - u(g) E f || / || E f ||."""
    Ef = embed(f, model).values
    lhs = embed(f.transform(g), model).values
    rhs = poincare_act(g, Ef, model)
    return _norm(lhs - rhs, model.grid) / _norm(Ef, model.grid)


def locality_pairing(f: TestFunction2, g: TestFunction2,
                     model: FreeFieldModel) -> float:
    """Im <Ef, Eg>: the smeared commutator pairing; zero (to quadrature)
    for spacelike-separated supports."""
    return _inner(embed(f, model).values, embed(g, model).values,
                  model.grid).imag


# -- wedge modular structure ----------------------------------------------

def _log_multiplier(grid: RapidityGrid):
    """Log of the multiplier of delta^(1/2), pi omega for the origin
    right wedge; its sign is RIGHT_WEDGE_DIRECTION's."""
    return -RIGHT_WEDGE_DIRECTION * np.pi * grid.omega


def _capped(values, grid: RapidityGrid, cap: float):
    """Spectrum of values, the log multiplier of delta^(1/2), the mask of
    frequencies it would amplify beyond cap, and the relative input mass
    there (the tail), one per vector."""
    ph = np.fft.fft(values)
    logmult = _log_multiplier(grid)
    kill = logmult > math.log(cap)
    return ph, logmult, kill, _mass_fraction(ph, kill)


def wedge_modular_half(v, grid: RapidityGrid, cap: float = AMPLIFICATION_CAP):
    """Apply delta^(1/2) = the multiplier exp(pi omega).

    Frequencies with amplification above cap are zeroed; their input
    mass (relative) is returned as the tail diagnostic.  A large tail
    signals that v is not in the domain of this half-boost.
    """
    ph, logmult, kill, tail = _capped(v, grid, cap)
    mult = np.where(kill, 0.0, np.exp(np.where(kill, -np.inf, logmult)))
    return np.fft.ifft(ph * mult), tail


def domain_certificate(v, grid: RapidityGrid):
    """Relative input mass at frequencies the half-boost capped at
    AMPLIFICATION_CAP cannot amplify; the spectral-decay certificate for
    membership in the numerical domain of delta^(1/2)."""
    return _capped(v, grid, AMPLIFICATION_CAP)[3]


def _band_mask(omega, margin: float, cap: float, roll: float = 1.5):
    """Smooth, even frequency mask: 1 inside |w| <= wb - roll, 0 beyond
    wb = ln(cap)/pi - margin.  Evenness makes it a bounded function of
    the modular operator, so it maps wedge fixed points to fixed points;
    smoothness keeps the masked vectors decaying in theta."""
    wb = math.log(cap) / np.pi - margin
    return _smooth_step((np.abs(omega) - (wb - roll)) / roll)


def band_project(v, grid: RapidityGrid):
    """Smoothly band-limit one vector to the frequency region on which
    the capped delta^(1/2) is faithful, BAND_MARGIN inside the
    AMPLIFICATION_CAP band; returns (vector, retained mass fraction).

    The mask is an even function of the rapidity frequency, hence of the
    wedge modular generator: it maps K_W into itself.
    """
    mask = _band_mask(grid.omega, BAND_MARGIN, AMPLIFICATION_CAP)
    ph = np.fft.fft(v)
    total = float(np.sum(np.abs(ph) ** 2))
    kept = float(np.sum(np.abs(mask * ph) ** 2)) / max(total, 1e-300)
    return np.fft.ifft(mask * ph), kept


def wedge_tomita_apply(v, grid: RapidityGrid):
    """s_W v = conj(delta^(1/2) v) for the origin right wedge."""
    half, tail = wedge_modular_half(v, grid)
    return np.conj(half), tail


def _band_defect(c, grid: RapidityGrid, mask):
    """Spectrum of s_W v - v for the origin right wedge, c that of v:
    m(-w) conj(c(-w)) - c(w) where mask > 0, and -c elsewhere, with m the
    multiplier of delta^(1/2)."""
    flip = -np.arange(grid.n_points) % grid.n_points      # index of -w
    live = mask > 0.0
    s_hat = np.zeros_like(c)
    s_hat[..., live] = (np.exp(_log_multiplier(grid)[flip[live]])
                        * np.conj(c[..., flip[live]]))
    return s_hat - c


def compressed_fixed_defect(v, grid: RapidityGrid) -> np.ndarray:
    """P (s_W v - v) with P the smooth band mask, in one spectral pass.

    This is the cap-safe fixed-point defect for the origin right wedge:
    applying s_W on the masked band never exceeds the amplification cap,
    and raw (un-limited) vectors may be fed in directly.
    """
    mask = _band_mask(grid.omega, BAND_MARGIN, AMPLIFICATION_CAP)
    defect = _band_defect(np.fft.fft(v), grid, mask)
    return np.fft.ifft(mask * defect)


def bw_residual_of_vector(v, grid: RapidityGrid) -> float:
    """|| s_W v_B - v_B || / || v_B || for one vector v, on its
    band-limited representative v_B; raises DomainViolationError when the
    certificate exceeds DOMAIN_CERT_THRESHOLD (wrong-wedge localization).

    Projection, half-boost and conjugation are fused into a single
    spectral pass, so no re-transform roundoff enters the amplified
    band: with c the spectrum of v_B, the comparison is
    m(-w) conj(c(-w)) against c(w) over the kept band, m the multiplier
    of delta^(1/2).
    """
    cert = domain_certificate(v, grid)
    if cert > DOMAIN_CERT_THRESHOLD:
        raise DomainViolationError(cert)
    mask = _band_mask(grid.omega, BAND_MARGIN, AMPLIFICATION_CAP)
    c = mask * np.fft.fft(v)
    return float(np.linalg.norm(_band_defect(c, grid, mask)) / np.linalg.norm(c))


def bw_residual(f: TestFunction2, model: FreeFieldModel) -> float:
    """One-particle Bisognano-Wichmann check for the origin right wedge:
    the embedding of a right-wedge test function is a fixed point of
    s_W = (conjugation) after (half boost)."""
    return bw_residual_of_vector(embed(f, model).values, model.grid)


def modular_blowup_profile(v, grid: RapidityGrid, caps=(1e4, 1e8, 1e12)):
    """Norms of the capped delta^(1/2) images along a ladder of
    amplification caps.  For vectors in the domain the sequence is
    stable; outside it grows without bound as the cap is raised, the
    numerical signature of the domain violation."""
    return [_norm(wedge_modular_half(v, grid, cap)[0], grid) for cap in caps]


def gaussian_packet(grid: RapidityGrid, center: float = 0.0,
                    width: float = 0.75, momentum: float = 0.0) -> np.ndarray:
    th = grid.theta
    return np.exp(-(th - center) ** 2 / (2.0 * width ** 2)) \
        * np.exp(1j * momentum * th)


def borchers_check(a_magnitude: float, times, probes,
                   model: FreeFieldModel) -> dict:
    """Verify the positive-generator translation commutation relations
    for the right wedge: with U(a) the lightlike translation along
    (1, 1) and delta, J the wedge modular data,

        delta^(it) U(a) delta^(-it) = U(exp(-2 pi t) a),
        J U(a) J = U(-a).

    a.p = a m exp(-theta), so the generator is positive; the boost
    shift turns a into exp(-2 pi t) a exactly.  Returns the maximum
    relative deviations over the probe vectors and times; a NaN deviation
    makes its maximum NaN.
    """
    grid = model.grid
    ray_phase = model.mass * np.exp(-grid.theta)

    def U(s, values):
        return np.exp(1j * s * ray_phase) * values

    dev_flow, dev_j = [], []
    for v in probes:
        nv = np.linalg.norm(v)
        for t in times:
            # delta^(it) v (theta) = v(theta + 2 pi t)
            shifted = _shift(v, 2.0 * np.pi * t, grid.omega)    # delta^(-it)
            lhs = _shift(U(a_magnitude, shifted), -2.0 * np.pi * t, grid.omega)
            rhs = U(math.exp(-2.0 * np.pi * t) * a_magnitude, v)
            dev_flow.append(np.linalg.norm(lhs - rhs) / nv)
        lhs_j = np.conj(U(a_magnitude, np.conj(v)))
        rhs_j = U(-a_magnitude, v)
        dev_j.append(np.linalg.norm(lhs_j - rhs_j) / nv)
    return {"flow_commutation": np.max(dev_flow, initial=0.0),
            "reflection_commutation": np.max(dev_j, initial=0.0)}
