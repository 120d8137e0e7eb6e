"""Singular model potentials, the decreasing approximation scheme, and the
Lelong-number slope estimator.

Model potentials are built from the torus Green's function

    Delta G = 2 pi (delta_{z0} - 1/L^2),   G(z) = log|z - z0| + O(|z - z0|^2),

evaluated through a rapidly convergent theta-function product, so that a
log pole of mass gamma is periodized with its Lelong mass kept exactly
gamma.  The price is a uniform curvature background -pi gamma / (2 L^2) on
the complex Hessian, which bounds the admissible gamma for a given period
(gamma = 1 needs period >= ~1.26; the singular test scenarios use L = 2).

Regularization replaces abstract smoothing theory by an explicit scheme
that is exact on the flat torus: truncate at depth j*K, mollify with the
heat kernel at radius delta_j (a positive kernel, so omega-psh survives),
and add the compensating constant C*delta_j^2 with C = 2n + 1/2 so the
levels decrease pointwise in j.  The sphere averages of the Lelong estimator
interpolate with scipy.ndimage, which is imported by the first of them; one
estimate fits one cubic spline to its field and evaluates it at every radius
in one call.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from .errors import InsufficientResolution, InvalidSpec, MonotonicityFailure
from .geometry import PotentialField

_THETA_Q = np.exp(-np.pi)  # nome of the square torus


def _theta1(v):
    """Jacobi theta_1(v, q=e^{-pi}) for complex array v (6 terms, ~1e-12)."""
    out = np.zeros_like(v, dtype=np.complex128)
    for m in range(6):
        out += (-1) ** m * _THETA_Q ** ((m + 0.5) ** 2) * np.sin((2 * m + 1) * v)
    return 2.0 * out


def _theta1_prime0():
    return 2.0 * sum((-1) ** m * (2 * m + 1) * _THETA_Q ** ((m + 0.5) ** 2)
                     for m in range(6))


def green_function(grid, z0, axis_pair=0):
    """Torus Green's function centered at z0 = (x0, y0), sampled on the grid.

    For n=2, ``axis_pair`` selects which complex coordinate carries the pole;
    the result is constant along the other pair.
    """
    L = grid.period
    x = grid.coord(2 * axis_pair) - z0[0]
    y = grid.coord(2 * axis_pair + 1) - z0[1]
    # reduce to the fundamental cell so the theta series converges fast
    x = x - L * np.round(x / L)
    y = y - L * np.round(y / L)
    v = (np.pi / L) * (x + 1j * y)
    mod = np.abs(_theta1(v))
    g = np.log(np.maximum(mod, 1e-300)) - np.pi * y ** 2 / L ** 2
    g = g - np.log(np.pi * _theta1_prime0() / L)
    return np.broadcast_to(g, grid.shape).copy()


def default_center(grid):
    """Half a cell off the grid nodes, so samples of log poles stay finite."""
    c = (grid.res // 2 + 0.5) * grid.h
    return (c,) * (2 * grid.n)


@dataclass
class PotentialSpec:
    """Initial-potential description with a prescribed regularity class.

    kind is one of:
      smooth                  band-limited modes: [(kvec, amp, phase), ...]
      lelong                  gamma * log|z - z0|, periodized; Lelong mass gamma
      zero_lelong_unbounded   -(s0 + max(-G, 0))^a, unbounded, zero Lelong number
      bounded_discontinuous   max(gamma*G, floor): bounded, kinked
      finite_energy           same family as zero_lelong with tail a < 1/2
      from_file               load a snapshot file
    """

    kind: str
    gamma: float = 1.0
    a: float = 0.5
    center: tuple = None
    floor: float = -1.0
    s0: float = 1.0
    modes: list = field(default_factory=list)
    path: str = ""
    clip_floor: float = -1e6

    KINDS = ("smooth", "lelong", "zero_lelong_unbounded",
             "bounded_discontinuous", "finite_energy", "from_file")
    # the data class of each kind, in KINDS order: the values a run records
    # in its meta.json, and the only ones a saved run may carry
    DATA_CLASSES = ("smooth", "lelong", "zero_lelong", "bounded", "finite_energy", "unknown")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise InvalidSpec(f"unknown potential kind {self.kind!r}")
        for name in ("gamma", "a", "floor", "s0", "clip_floor"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidSpec(f"{name} = {getattr(self, name)!r} is not finite")
        if self.kind == "lelong" and self.gamma < 0:
            raise InvalidSpec("lelong mass gamma must be >= 0")
        if self.kind in ("zero_lelong_unbounded", "finite_energy"):
            if not 0.0 < self.a < 1.0:
                raise InvalidSpec("exponent a must lie in (0, 1)")
        if self.kind == "finite_energy" and self.a >= 0.5:
            raise InvalidSpec("finite-energy tail exponent must satisfy a < 1/2")

    @property
    def data_class(self):
        return self.DATA_CLASSES[self.KINDS.index(self.kind)]


def cos_mode(grid, kvec, amp, phase=0.0):
    """amp * cos(2 pi k.x / L + phase) for an integer frequency vector."""
    L = grid.period
    arg = phase
    for axis, k in enumerate(kvec):
        if k:
            arg = arg + (2.0 * np.pi * k / L) * grid.coord(axis)
    return amp * np.cos(np.broadcast_to(arg, grid.shape))


def parse_modes(text):
    """The one reader of a mode list, 'k1 k2 ... : amp [: phase]; ...' -> [(kvec, amp, phase)];
    an entry that is not integers, an amplitude and an optional phase is an InvalidSpec."""
    out = []
    for entry in filter(None, (e.strip() for e in text.split(";"))):
        parts = entry.split(":")
        try:
            if len(parts) not in (2, 3):
                raise ValueError
            kvec = tuple(int(k) for k in parts[0].split())
            out.append((kvec, float(parts[1]), float(parts[2]) if len(parts) == 3 else 0.0))
        except ValueError:
            raise InvalidSpec(f"bad mode entry {entry!r}") from None
    return out


def check_modes(modes, n):
    """The mode list itself; an InvalidSpec where a kvec has not 2n entries."""
    for kvec, _, _ in modes:
        if len(kvec) != 2 * n:
            raise InvalidSpec(f"mode {kvec} has {len(kvec)} entries, need {2 * n}")
    return modes


def mode_sum(grid, modes):
    """Sum of cos_mode over a mode list, in its order (checked by check_modes)."""
    vals = np.zeros(grid.shape)
    for kvec, amp, phase in check_modes(modes, grid.n):
        vals += cos_mode(grid, kvec, amp, phase)
    return vals


def log_pole(grid, z0):
    """Periodized log|z - z0|, of Lelong mass 1 at z0 (shared by the oracle)."""
    if grid.n == 1:
        return green_function(grid, z0[:2])
    g1 = green_function(grid, z0[:2], axis_pair=0)
    g2 = green_function(grid, z0[2:], axis_pair=1)
    # (1/2) log(e^{2G1} + e^{2G2}) ~ log|z - z0| near the pole
    return 0.5 * np.logaddexp(2.0 * g1, 2.0 * g2)


def _pole_potential(spec, grid):
    z0 = spec.center if spec.center is not None else default_center(grid)
    if len(z0) != 2 * grid.n:
        raise InvalidSpec(f"center needs {2 * grid.n} coordinates, got {len(z0)}")
    return log_pole(grid, z0), z0


def sample_potential(spec, grid):
    """Sample a model potential on the grid, clipped at spec.clip_floor.

    The sample must be omega-psh at grid scale: a copy mollified at radius
    2h must have min eig(I + H) >= -1e-6 (a NaN, from values too large to
    transform, fails), or InvalidSpec is raised; so must a clip_floor at or
    above the sample's sup, which would clip it to a constant.
    """
    if spec.kind == "smooth":
        vals = mode_sum(grid, spec.modes)
    elif spec.kind == "from_file":
        from . import io as _io
        fld, _ = _io.read_field(spec.path)
        if fld.grid != grid:
            raise InvalidSpec("snapshot grid does not match the requested grid")
        vals = fld.values
    else:
        g, _ = _pole_potential(spec, grid)
        with np.errstate(over="ignore"):   # a gamma g past the floats is clipped below
            if spec.kind == "lelong":
                vals = spec.gamma * g
            elif spec.kind == "bounded_discontinuous":
                vals = np.maximum(spec.gamma * g, spec.floor)
            else:  # zero_lelong_unbounded / finite_energy
                vals = -(spec.s0 + np.maximum(-g, 0.0)) ** spec.a
    if not spec.clip_floor < vals.max():
        raise InvalidSpec(f"clip_floor = {spec.clip_floor!r} clips the whole potential, whose "
                          f"sup is {vals.max():.6g}; lower it or shrink gamma")
    vals = np.maximum(vals, spec.clip_floor)
    emin = geo.metric_raw(grid, geo.mollify_raw(grid, vals, 2.0 * grid.h))[2]
    if not emin >= -1e-6:
        raise InvalidSpec(
            f"sampled potential is not omega-psh at grid scale "
            f"(min eig {emin:.3e}); reduce gamma or the amplitudes, or enlarge the period")
    return PotentialField(grid, vals)


@dataclass
class ApproximationLevel:
    j: int
    phi: PotentialField
    delta: float
    eps: float   # strict psh margin: min eig of I + H(phi_j)


@dataclass
class ApproximationSequence:
    spec: PotentialSpec
    grid: "geo.TorusGrid"
    levels: list


LEVEL_BLEND = 0.01   # s_1, the first level's blend towards its sup (approximation_sequence)


def approximation_sequence(spec, grid, J, K=1.0, delta0=None, ratio=0.7):
    """Decreasing smooth strictly omega-psh approximants of the sampled spec.

    Level j (j = 1..J): truncate at -j*K, heat-mollify at radius
    delta_j = delta0 * ratio^(j-1), blend by s_j = LEVEL_BLEND * ratio^(2(j-1))
    towards the sup (for a strict cone margin), and add (2n + 1/2) delta_j^2.
    The construction telescopes through the heat semigroup, so levels
    decrease pointwise; this is checked and MonotonicityFailure raised
    otherwise.
    """
    if J < 1:
        raise InvalidSpec("need at least one approximation level")
    phi0 = sample_potential(spec, grid)
    if delta0 is None:
        delta0 = max(6.0 * grid.h, grid.period / 32.0)
    C = 2.0 * grid.n + 0.5
    levels = []
    for j in range(1, J + 1):
        delta = delta0 * ratio ** (j - 1)
        s = LEVEL_BLEND * ratio ** (2 * (j - 1))
        trunc = np.maximum(phi0.values, -j * K)
        psi = geo.mollify_raw(grid, trunc, delta)
        vals = (1.0 - s) * psi + s * psi.max() + C * delta ** 2
        eps = geo.metric_raw(grid, vals)[2]
        if eps <= 0.0:
            raise InvalidSpec(
                f"level {j} is not strictly omega-psh (min eig {eps:.3e})")
        levels.append(ApproximationLevel(j, PotentialField(grid, vals), delta, eps))
    for lo, hi in zip(levels[1:], levels[:-1]):
        gap = float((lo.phi.values - hi.phi.values).max())
        if gap > 1e-12:
            raise MonotonicityFailure(
                f"levels {hi.j} -> {lo.j} fail pointwise decrease by {gap:.3e}")
    return ApproximationSequence(spec, grid, levels)


# ---------------------------------------------------------------------------
# Lelong-number estimation

LELONG_RADII = 10
SPHERE_DIRECTIONS = 96


def _sphere_directions(n, count):
    rng = np.random.default_rng(7)
    if n == 1:
        th = 2.0 * np.pi * np.arange(count) / count
        return np.stack([np.cos(th), np.sin(th)], axis=1)
    v = rng.standard_normal((count, 4))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def sphere_average(phi, z0, radii):
    """Averages of phi over the spheres |z - z0| = r, r in the array ``radii`` (periodic).

    The cubic spline of phi is fitted once, as
    ``map_coordinates(order=3, mode="grid-wrap")`` fits it, and all radii
    are evaluated in one interpolation call, so each average is
    bit-identical to that call on its own radius.
    """
    # imported on first use, so processes that take no Lelong estimate never load scipy.ndimage
    from scipy.ndimage import map_coordinates, spline_filter

    grid = phi.grid
    dirs = _sphere_directions(grid.n, SPHERE_DIRECTIONS)
    pts = (np.asarray(z0)[None, None, :] + radii.reshape(-1, 1, 1) * dirs[None]) / grid.h
    coeffs = spline_filter(phi.values, 3, output=np.float64, mode="grid-wrap")
    vals = map_coordinates(coeffs, pts.reshape(-1, 2 * grid.n).T, order=3, mode="grid-wrap",
                           prefilter=False)
    return vals.reshape(-1, SPHERE_DIRECTIONS).mean(axis=1)


def lelong_estimate(phi, z0):
    """Log-slope estimate of the Lelong mass of phi at z0.

    Sphere averages a(r) over SPHERE_DIRECTIONS directions, at LELONG_RADII
    radii from 3h to 0.22 * period (InsufficientResolution below res 15),
    are fitted against [1, log r, r^2]; the r^2 term absorbs the smooth
    curvature background (including the Green-function compensation), and
    the log r coefficient estimates the mass.  Clamped at zero.
    """
    grid = phi.grid
    r_min, r_max = 3.0 * grid.h, 0.22 * grid.period
    if r_max <= r_min * 1.05:
        raise InsufficientResolution(
            f"radius window [{r_min:.3g}, {r_max:.3g}] too narrow at res {grid.res}")
    radii = np.geomspace(r_min, r_max, LELONG_RADII)
    avgs = sphere_average(phi, z0, radii)
    A = np.stack([np.ones_like(radii), np.log(radii), radii ** 2], axis=1)
    coef, *_ = np.linalg.lstsq(A, avgs, rcond=None)
    return max(0.0, float(coef[1]))
