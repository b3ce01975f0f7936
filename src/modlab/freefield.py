"""Mass-m scalar field on 2D Minkowski space, discretized in rapidity.

The one-particle space is L^2 of the mass hyperboloid
p(theta) = (m cosh theta, m sinh theta) with the invariant measure
d theta, sampled on a uniform periodic grid.  Boosts act as theta
shifts (FFT phase shifts), translations as multiplication by
exp(i a.p(theta)), and the total spacetime reflection as pointwise
conjugation.  A region is an intersection of wedges g W_R, held as
their frames g; a double cone is a right and a left wedge.  Test
functions are values, smooth bumps moved by Poincare elements, sampled
on a global spacetime lattice when read; their embedding into the
one-particle space is a Fourier quadrature windowed where the lattice
stops resolving the oscillation of exp(i p.x).

The origin right wedge's delta^(1/2) is, by the Bisognano-Wichmann
theorem, the Fourier multiplier exp(pi omega) in the rapidity frequency
omega, and s_W = conj after delta^(1/2); modloc transports it to other
wedges.  Amplification is capped at 1e12; the input mass at capped
frequencies is the domain diagnostic, and identity checks are run on
band-limited representatives, for which the capped operator is
faithful; the blow-up profile reads the capped images along the fixed
ladder of caps BLOWUP_CAPS.  One kernel, _half_spectrum, forms the
capped multiplier, and every wedge map reads it.

A one-particle vector is a complex array of samples on the rapidity
grid, and a stack of them an array (..., n_points).  Every map acts
along the last axis, so a stack takes the path of one vector, and is
handed the model when it needs the momenta or else just the grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_RUNG, THETA_MAX

__all__ = [
    "RapidityGrid", "FreeFieldModel", "Region2", "TestFunction2",
    "OneParticleVector", "PoincareElement", "LeakageError",
    "DomainViolationError", "SupportError",
    "embed", "embed_sweep", "embed_with_error", "poincare_act",
    "covariance_residual", "locality_pairing", "domain_certificate",
    "wedge_tomita_apply", "compressed_fixed_defect",
    "bw_residual", "bw_residual_of_vector",
    "modular_blowup_profile", "borchers_check", "gaussian_packet",
]

AMPLIFICATION_CAP = 1e12
BAND_MARGIN = 1.0
BAND_ROLL = 1.5             # width of the band mask's smooth edge
BLOWUP_CAPS = (1e4, 1e8, 1e12)
DOMAIN_CERT_THRESHOLD = 1e-10
RIGHT_WEDGE_DIRECTION = -1    # multiplier exp(+pi omega); frozen by the
                              # calibration "right-wedge bumps are fixed"
LEAKAGE_BUFFER = 0.3
LEAKAGE_BUDGET = 1e-8


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
    """Test-function support is not inside the named region."""


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
    grid: RapidityGrid = field(default_factory=lambda: RapidityGrid(
        THETA_MAX, DEFAULT_RUNG["n_points"]))
    window: float = DEFAULT_RUNG["window"]
    window_width: float = DEFAULT_RUNG["window_width"]

    def __post_init__(self):
        if self.mass <= 0:
            raise ValueError("massive case only: mass > 0")
        if self.window >= self.grid.theta_max:
            raise ValueError("window must sit inside the grid")

    def momenta(self):
        return _momenta(self.mass, self.grid)


def _momenta(mass: float, grid: RapidityGrid):
    """(p0, p1) = (m cosh theta, m sinh theta) on the grid."""
    return mass * np.cosh(grid.theta), mass * np.sinh(grid.theta)


class OneParticleVector(NamedTuple):
    """What embed returns: the model and the read-only samples."""
    model: FreeFieldModel
    values: np.ndarray


def _inner(x, y, grid: RapidityGrid) -> complex:
    """<x, y> = h sum conj(x) y, h the rapidity spacing."""
    return grid.spacing * complex(np.vdot(x, y))


def _norm(v, grid: RapidityGrid) -> float:
    return math.sqrt(max(_inner(v, v, grid).real, 0.0))


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
        """The image of a point, or of arrays of its coordinates."""
        x0, x1 = x
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


# -- spacetime regions ----------------------------------------------------

@dataclass(frozen=True)
class Region2:
    """2D region: the intersection of the wedges g W_R, one for each frame
    g, with W_R the right wedge at the origin.  A frame is the translation
    to the wedge's apex, after the reflection for a left wedge; a wedge
    has one frame, a double cone a right and a left one.  Boosts fix W_R,
    so no frame holds one."""
    frames: tuple

    @staticmethod
    def right_wedge(apex=(0.0, 0.0)) -> "Region2":
        return Region2((PoincareElement.translation(*apex),))

    @staticmethod
    def left_wedge(apex=(0.0, 0.0)) -> "Region2":
        return Region2((PoincareElement.translation(*apex)
                        * PoincareElement.reflection(),))

    @staticmethod
    def double_cone(center=(0.0, 0.0), radius=1.0) -> "Region2":
        c0, c1 = center
        return Region2(Region2.right_wedge((c0, c1 - radius)).frames
                       + Region2.left_wedge((c0, c1 + radius)).frames)

    @property
    def frame(self) -> PoincareElement:
        """g with the wedge = g W_R."""
        if len(self.frames) != 1:
            raise ValueError(f"not a wedge: {self}")
        return self.frames[0]

    @property
    def is_double_cone(self) -> bool:
        """Whether the region is a right and a left wedge."""
        return sorted(g.reflect for g in self.frames) == [False, True]

    @property
    def wedges(self) -> tuple:
        """The wedges whose intersection the region is, one per frame."""
        return tuple(Region2((g,)) for g in self.frames)

    def contains(self, x0, x1):
        """Whether the points x lie in the region: g^(-1) x in W_R for
        every frame g."""
        x = (np.asarray(x0, dtype=float), np.asarray(x1, dtype=float))
        inside = True
        for g in self.frames:
            y0, y1 = g.inv().apply_point(x)
            inside = inside & (y1 - np.abs(y0) > 0.0)
        return inside

    def includes(self, W: "Region2") -> bool:
        """Whether the wedge W lies in this wedge: with this = g W_R and
        W = h W_R, g^(-1) h moves W_R into itself."""
        k = self.frame.inv() * W.frame
        return not k.reflect and k.a1 >= abs(k.a0)

    def causal_complement(self) -> "Region2":
        """The wedge's causal complement: W_R' is the reflected W_R."""
        return Region2((self.frame * PoincareElement.reflection(),))

    def transform(self, g: PoincareElement) -> "Region2":
        """The region g R: a frame h becomes g h, less the boost it holds."""
        return Region2(tuple(replace(g * h, rapidity=0.0)
                             for h in self.frames))


# -- test functions --------------------------------------------------------

def _bump(q):
    out = np.zeros_like(q)
    mk = q < 1.0
    out[mk] = np.exp(-1.0 / (1.0 - q[mk]))
    return out


@dataclass(frozen=True)
class TestFunction2:
    """The bump exp(-1/(1 - |y - c|^2/r^2)) on the disk of center c and
    radius r, moved by g: x -> bump(g^(-1) x).  A value, so equal functions
    share their embedding.  The samples on the global lattice {(i h, j h)}
    over the box of the moved boundary circle are computed from the
    profile when read, never interpolated or held."""

    __test__ = False            # despite the name, not a pytest class

    center: tuple
    radius: float
    step: float
    g: PoincareElement = PoincareElement()

    @staticmethod
    def bump(center, radius, step: float = DEFAULT_RUNG["lattice_step"],
             region: Region2 = None) -> "TestFunction2":
        """The unmoved bump; SupportError if a region is named and the
        bump is not supported in it."""
        f = TestFunction2((float(center[0]), float(center[1])),
                          float(radius), float(step))
        if region is not None and not f.supported_in(region):
            raise SupportError("support is not inside the named region")
        return f

    @property
    def _boundary(self):
        """The disk's 256-point boundary circle, moved by g."""
        ang = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
        return self.g.apply_point((self.center[0] + self.radius * np.cos(ang),
                                   self.center[1] + self.radius * np.sin(ang)))

    def _rows(self):
        """Lattice integers of the rows along x0 and along x1, from one
        ring: the boundary's box, one step wider on each side."""
        return [np.arange(math.floor(b.min() / self.step) - 1,
                          math.ceil(b.max() / self.step) + 2)
                for b in self._boundary]

    x0 = property(lambda self: self.step * self._rows()[0])
    x1 = property(lambda self: self.step * self._rows()[1])
    values = property(lambda self: self.lattice()[1])

    def lattice(self):
        """The lattice integers of x0[0] and x1[0], and the samples on
        the lattice, from one ring."""
        k0, k1 = self._rows()
        y0, y1 = self.g.inv().apply_point((self.step * k0[:, None],
                                           self.step * k1[None, :]))
        c0, c1 = self.center
        return ((int(k0[0]), int(k1[0])),
                _bump(((y0 - c0) ** 2 + (y1 - c1) ** 2) / self.radius ** 2))

    def supported_in(self, region: Region2) -> bool:
        """Whether the moved boundary circle lies in region."""
        return bool(np.all(region.contains(*self._boundary)))

    def refine(self) -> "TestFunction2":
        return replace(self, step=self.step / 2)

    def transform(self, h: PoincareElement) -> "TestFunction2":
        """The transformed function x -> f(h^(-1) x)."""
        return replace(self, g=h * self.g)


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


PHASE_CHUNK = 32                # lattice rows per cached chunk
BLOCK = 256                     # widest block of rapidity columns in embed
EMBED_MEMO = 256                # embed results kept


@functools.lru_cache(maxsize=16)
def _phase_chunk(mass: float, grid: RapidityGrid, step: float, axis: int,
                 c: int) -> np.ndarray:
    """Read-only rows exp(i (k h) p0) (axis 0) or exp(-i (k h) p1) (axis 1)
    for c PHASE_CHUNK <= k < (c + 1) PHASE_CHUNK, on the rapidity columns
    0 ... N/2.  The 16 most recent are kept, whatever N: reuse follows
    the lattice rows, which the net's embed_sweep walks once, and empties
    this cache when it ends, so cache_info()'s counts restart there.
    Keyed on the momenta's (mass, grid), not on the model, so models that
    differ only in window share chunks.  Filled in place, cos(arg) into
    the real and sin(arg) into the imaginary part: bit-identical to
    exp(+-1j * outer(x, p)) where the host's exp and cos/sin agree, and
    cheaper.  arg carries the signs of zero of the complex products:
    1j * t has imaginary part t + 0.0 and -1j * t has -t.
    """
    x = step * np.arange(c * PHASE_CHUNK, (c + 1) * PHASE_CHUNK)
    arg = np.outer(x, _momenta(mass, grid)[axis][:grid.n_points // 2 + 1])
    if axis == 0:
        arg += 0.0
    else:
        np.negative(arg, out=arg)
    rows = np.empty(arg.shape, dtype=complex)
    np.cos(arg, out=rows.real)
    np.sin(arg, out=rows.imag)
    rows.flags.writeable = False
    return rows


def _phase_rows(model: FreeFieldModel, step: float, axis: int, k0: int,
                count: int, columns: slice, out: np.ndarray) -> np.ndarray:
    """Rows exp(i (k h) p0) (axis 0) or exp(-i (k h) p1) (axis 1) for the
    lattice integers k0 <= k < k0 + count, over the range columns of the
    rapidity columns 0 ... N/2 (embed mirrors the other columns), written
    into out and returned.  Row -k is the complex conjugate of row k, bit
    for bit (h (-k) = -(h k), cos is even and sin odd), so every row is
    read from the _phase_chunk of |k|.
    """
    k, stop = k0, k0 + count
    while k < stop:
        c, r = divmod(abs(k), PHASE_CHUNK)
        rows = _phase_chunk(model.mass, model.grid, step, axis, c)
        if k >= 0:
            n = min(stop - k, PHASE_CHUNK - r)
            out[k - k0:k - k0 + n] = rows[r:r + n, columns]
        else:                           # rows |k|, |k| - 1, ... of the chunk
            n = min(stop - k, r + 1, -k)
            np.conjugate(rows[r - n + 1:r + 1, columns][::-1],
                         out=out[k - k0:k - k0 + n])
        k += n
    return out


@functools.lru_cache(maxsize=EMBED_MEMO)
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
    full-width quadrature.  The columns go in near-equal blocks of at most
    BLOCK, through one reused buffer for the phase rows and one for B,
    which the mirror reads conjugated in place.  Blocks of a matrix
    product and of column sums keep each output's order of summation, so
    the bits are those of full-width tables; no block is one column wide,
    which numpy would send to gemv, summing in another order.

    The EMBED_MEMO most recent results are kept, keyed on (f, model):
    a test function is a value, so equal ones share one result, whose
    values are read-only.
    """
    (i0, j0), values = f.lattice()
    (m0, m1), n = values.shape, model.grid.n_points
    half = n // 2 + 1
    nb = -(-half // BLOCK)                      # near-equal column blocks
    rows = np.empty(max(m0, m1) * -(-half // nb), dtype=complex)
    B = np.empty(m0 * -(-half // nb), dtype=complex)
    values, v = values.astype(complex), np.empty(n, dtype=complex)
    for i in range(nb):
        a, b = half * i // nb, half * (i + 1) // nb
        E1 = _phase_rows(model, f.step, 1, j0, m1, slice(a, b),
                         rows[:m1 * (b - a)].reshape(m1, -1))
        Bb = np.matmul(values, E1, out=B[:m0 * (b - a)].reshape(m0, -1))
        E0 = _phase_rows(model, f.step, 0, i0, m0, slice(a, b),
                         rows[:m0 * (b - a)].reshape(m0, -1))
        v[a:b] = np.einsum("xt,xt->t", E0, Bb)
        np.conjugate(Bb, out=Bb)
        lo, hi = max(a, 1), min(b, n // 2)      # columns j into v[N - j]
        v[n - lo:n - hi:-1] = np.einsum("xt,xt->t", E0[:, lo - a:hi - a],
                                        Bb[:, lo - a:hi - a])
    del rows, B, E0, E1, Bb         # before the window's temporaries
    v *= f.step ** 2 / math.sqrt(2.0 * np.pi)
    v *= _window(model, model.grid.theta)
    v.flags.writeable = False
    return OneParticleVector(model, v)


def embed_sweep(functions, model: FreeFieldModel) -> None:
    """Embed the functions in one sweep of the lattice rows, in ascending
    |x1| of each one's moved disk centre: embed reads the phase rows of
    |k|, so the sweep walks the rows once, and a later embed of any of
    the functions is a memo hit.  No such embed reads a phase row, so the
    chunks go when the sweep ends."""
    for f in sorted(functions, key=lambda f: abs(f.g.apply_point(f.center)[1])):
        embed(f, model)
    _phase_chunk.cache_clear()


def embed_with_error(f: TestFunction2, model: FreeFieldModel):
    """The half-step embedding's values plus a Richardson-style error
    estimate from comparing them with the function's own resolution."""
    coarse = embed(f, model).values
    fine = embed(f.refine(), model).values
    err = _norm(coarse - fine, model.grid) / max(_norm(fine, model.grid), 1e-300)
    return fine, err


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


def _half_spectrum(c, grid: RapidityGrid, cap: float = AMPLIFICATION_CAP):
    """The spectrum c of v times the multiplier of delta^(1/2), zeroed
    where it would amplify beyond cap, and the relative mass of c there
    (the tail), one per vector.  The one place the multiplier is formed:
    with h the first result, the spectrum of s_W v is conj(h[..., -w])."""
    logmult = _log_multiplier(grid)
    kill = logmult > math.log(cap)
    return c * np.exp(np.where(kill, -np.inf, logmult)), _mass_fraction(c, kill)


def domain_certificate(v, grid: RapidityGrid):
    """Relative input mass at frequencies the half-boost capped at
    AMPLIFICATION_CAP cannot amplify; the spectral-decay certificate for
    membership in the numerical domain of delta^(1/2)."""
    return _half_spectrum(np.fft.fft(v), grid)[1]


def _band_mask(omega):
    """Smooth, even frequency mask: 1 inside |w| <= wb - BAND_ROLL, 0
    beyond wb = ln(AMPLIFICATION_CAP)/pi - BAND_MARGIN.  Evenness makes
    it a bounded function of the modular operator, so it maps wedge fixed
    points to fixed points; smoothness keeps the masked vectors decaying
    in theta."""
    wb = math.log(AMPLIFICATION_CAP) / np.pi - BAND_MARGIN
    return _smooth_step((np.abs(omega) - (wb - BAND_ROLL)) / BAND_ROLL)


def wedge_tomita_apply(v, grid: RapidityGrid):
    """s_W v = conj(delta^(1/2) v) for the origin right wedge, with
    delta^(1/2) capped at AMPLIFICATION_CAP; returns (s_W v, tail), the
    tail being the domain certificate of v."""
    half, tail = _half_spectrum(np.fft.fft(v), grid)
    return np.conj(np.fft.ifft(half)), tail


def _band_defect(ph, grid: RapidityGrid):
    """(Pc, spectrum of s_W v_B - v_B) for the origin right wedge, with
    ph the spectrum of v, P the smooth band mask and Pc the spectrum of
    the band-limited representative v_B.  The mask is applied before
    s_W, so the half-boost never sees frequencies beyond the band."""
    Pc = _band_mask(grid.omega) * ph
    flip = -np.arange(grid.n_points) % grid.n_points      # index of -w
    return Pc, np.conj(_half_spectrum(Pc, grid)[0][..., flip]) - Pc


def compressed_fixed_defect(v, grid: RapidityGrid) -> np.ndarray:
    """(s_W - 1) P v with P the smooth band mask, in one spectral pass.

    This is the cap-safe fixed-point defect for the origin right wedge:
    P is even, so it commutes with s_W and this is also P (s_W - 1) v;
    s_W never acts beyond the band, and raw (un-limited) vectors may be
    fed in directly.
    """
    return np.fft.ifft(_band_defect(np.fft.fft(v), grid)[1])


def bw_residual_of_vector(v, grid: RapidityGrid) -> float:
    """|| s_W v_B - v_B || / || v_B || for one vector v, on its
    band-limited representative v_B; raises DomainViolationError when the
    certificate exceeds DOMAIN_CERT_THRESHOLD (wrong-wedge localization).

    Projection, half-boost and conjugation are fused into a single
    spectral pass, so no re-transform roundoff enters the amplified band.
    """
    ph = np.fft.fft(v)
    cert = _half_spectrum(ph, grid)[1]
    if cert > DOMAIN_CERT_THRESHOLD:
        raise DomainViolationError(cert)
    c, defect = _band_defect(ph, grid)
    return float(np.linalg.norm(defect) / np.linalg.norm(c))


def bw_residual(f: TestFunction2, model: FreeFieldModel) -> float:
    """One-particle Bisognano-Wichmann check for the origin right wedge:
    the embedding of a right-wedge test function is a fixed point of
    s_W = (conjugation) after (half boost)."""
    return bw_residual_of_vector(embed(f, model).values, model.grid)


def modular_blowup_profile(v, grid: RapidityGrid):
    """Norms of the capped delta^(1/2) images along the amplification
    caps BLOWUP_CAPS, from one transform of v.  For vectors in the
    domain the sequence is stable; outside it grows without bound as the
    cap is raised, the numerical signature of the domain violation."""
    ph = np.fft.fft(v)
    return [_norm(np.fft.ifft(_half_spectrum(ph, grid, cap)[0]), grid)
            for cap in BLOWUP_CAPS]


def gaussian_packet(grid: RapidityGrid, center: float = 0.0,
                    width: float = 0.75, momentum: float = 0.0) -> np.ndarray:
    th = grid.theta
    return np.exp(-(th - center) ** 2 / (2.0 * width ** 2)) \
        * np.exp(1j * momentum * th)


def borchers_check(a_magnitude: float, times, probes,
                   model: FreeFieldModel) -> dict:
    """Verify the positive-generator translation commutation relations
    for the right wedge: with U(a) the lightlike translation along
    (1, 1), and the wedge modular data delta^(it) = u(boost(-2 pi t)),
    J = u(reflection),

        delta^(it) U(a) delta^(-it) = U(exp(-2 pi t) a),
        J U(a) J = U(-a).

    a.p = a m exp(-theta), so the generator is positive; the boost
    shift turns a into exp(-2 pi t) a exactly.  Returns the maximum
    relative deviations over the probe vectors and times; a NaN deviation
    makes its maximum NaN.
    """
    ray_phase = model.mass * np.exp(-model.grid.theta)
    boost, J = PoincareElement.boost, PoincareElement.reflection()
    u = functools.partial(poincare_act, model=model)

    def U(s, values):
        return np.exp(1j * s * ray_phase) * values

    dev_flow, dev_j = [], []
    for v in probes:
        nv = np.linalg.norm(v)
        for t in times:
            lam = 2.0 * np.pi * t
            lhs = u(boost(-lam), U(a_magnitude, u(boost(lam), v)))
            rhs = U(math.exp(-lam) * a_magnitude, v)
            dev_flow.append(np.linalg.norm(lhs - rhs) / nv)
        lhs_j = u(J, U(a_magnitude, u(J, v)))
        rhs_j = U(-a_magnitude, v)
        dev_j.append(np.linalg.norm(lhs_j - rhs_j) / nv)
    return {"flow_commutation": np.max(dev_flow, initial=0.0),
            "reflection_commutation": np.max(dev_j, initial=0.0)}
