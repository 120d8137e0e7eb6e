"""Density form of the n=1 flow: the logarithmic fast diffusion equation.

With the untwisted n=1 potential flow dphi/dt = log(1 + H(phi)) and the
conformal density f = 1 + H(phi), the same dynamics reads

    df/dt = H(log f) = (1/4) Delta log f,

where H is the flat complex Hessian (kappa = 1/4 is the module's
normalization constant: a cos(2 pi k x / L) perturbation of f = 1 decays
at rate pi^2 k^2 / L^2 = 4 pi^2 kappa k^2 / L^2).  The right-hand side is
a pure Fourier multiplier applied to log f, so every stage has exactly
zero mean and the stepping conserves mass to round-off.  The semi-implicit
policy hands that multiplier's spectrum sym * rfftn(log f) straight to
the SBDF2 kernel it shares with the potential form (``flow``), so a step
takes two transforms: rfftn(log f) and the inverse of the new density.

The flow is kept on the torus rather than a chart of the sphere so the
spectral stack is shared; the PDE is identical.
"""

from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

from . import functionals as fnl
from . import geometry as geo
from .errors import ConfigError, MassMismatch, PositivityLoss
from .flow import Snapshot, Trajectory, _sbdf2_spectrum
from .geometry import PotentialField

KAPPA = 0.25


@dataclass
class DensityField:
    grid: geo.TorusGrid
    values: np.ndarray

    def __post_init__(self):
        if self.grid.n != 1:
            raise ConfigError("density form is the n=1 module")
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != self.grid.shape:
            raise ValueError("density shape does not match the grid")
        if not np.all(self.values > 0.0):
            raise PositivityLoss("density must be strictly positive")

    def mass(self):
        return float(self.values.mean() * self.grid.volume)

    def copy(self):
        return DensityField(self.grid, self.values.copy())


def potential_to_density(phi):
    """f = (omega + dd^c phi) / omega = 1 + H(phi) (n = 1)."""
    grid = phi.grid
    if grid.n != 1:
        raise ConfigError("density form is the n=1 module")
    return DensityField(grid, 1.0 + geo.hessian_raw(grid, phi.values))


def density_to_potential(f):
    """Mean-zero potential with 1 + H(phi) = f; requires mass = V."""
    grid = f.grid
    if abs(f.mass() - grid.volume) > 1e-8 * grid.volume:
        raise MassMismatch(f"density mass {f.mass():.12g} != V = {grid.volume}")
    sym = grid.flat_symbol(rfft=True)
    spec = sfft.rfftn(f.values - 1.0)
    out = np.zeros_like(spec)
    np.divide(spec, sym, out=out, where=sym != 0.0)
    return PotentialField(grid, sfft.irfftn(out, s=grid.shape))


def _rhs(grid, f):
    return sfft.irfftn(grid.flat_symbol(rfft=True) * sfft.rfftn(np.log(f)),
                       s=grid.shape)


def _rk4(grid, f, dt):
    k1 = _rhs(grid, f)
    f2 = f + (0.5 * dt) * k1
    if f2.min() <= 0.0:
        return None
    k2 = _rhs(grid, f2)
    f3 = f + (0.5 * dt) * k2
    if f3.min() <= 0.0:
        return None
    k3 = _rhs(grid, f3)
    f4 = f + dt * k3
    if f4.min() <= 0.0:
        return None
    k4 = _rhs(grid, f4)
    new = f + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if new.min() <= 0.0 or not np.all(np.isfinite(new)):
        return None
    return new


def step_logfd(f, dt, dt_min=1e-12, t=0.0):
    """Advance by exactly dt, sub-stepping by halving to keep f > 0.

    ``t`` is the time of ``f``; a PositivityLoss carries the start time of
    the sub-step that underflowed.
    """
    grid = f.grid
    arr = f.values

    def advance(a, start, span):
        if span < dt_min:
            raise PositivityLoss(
                f"dt underflow while preserving positivity at t={start:.6g}", t=start)
        new = _rk4(grid, a, span)
        if new is not None:
            return new
        half = advance(a, start, 0.5 * span)
        return advance(half, start + 0.5 * span, 0.5 * span)

    return DensityField(grid, advance(arr, float(t), float(dt)))


def _cfl(grid, fmin, safety):
    return safety * grid.h ** 2 * fmin / 4.0


def evolve_density(f0, T, dt_policy="rk4", dt_init=1e-2, dt_min=1e-12,
                   safety=0.9, record_every=25, snapshot_times=(),
                   stab_factor=1.0):
    """Run the density flow on [0, T]; shares the trajectory CSV schema.

    Snapshots store the equivalent mean-zero potential (the density is
    recovered exactly as 1 + H(phi)), so the result is a plain Trajectory
    with variant "logfd".
    """
    grid = f0.grid
    f = f0.values.copy()
    t = 0.0
    boundaries = sorted({float(s) for s in snapshot_times if 0.0 < s <= T}
                        | ({T} if T > 0 else set()))
    rows, snaps = [], []

    def record(dt_used):
        phi = density_to_potential(DensityField(grid, f))
        m_raw = f
        th_raw = np.ones_like(f)
        rows.append(fnl.series_row(grid, t, phi.values, m_raw, th_raw, f,
                                   float(f.min()), dt_used))
        return phi

    def snapshot(phi):
        snaps.append(Snapshot(t, phi.values.copy(), np.log(f), float(f.min())))

    snapshot(record(0.0))
    hist = {}
    since = 0
    bi = 0
    while bi < len(boundaries):
        target = boundaries[bi]
        if dt_policy == "rk4":
            dt = min(_cfl(grid, float(f.min()), safety), dt_init, target - t)
            f = step_logfd(DensityField(grid, f), dt, dt_min, t).values
            hist = {}
        elif dt_policy == "semi_implicit":
            dt = min(dt_init, target - t)
            f, hist = _sbdf2_density(grid, f, dt, dt_init, stab_factor, hist, t)
        else:
            raise ConfigError(f"unknown dt policy {dt_policy!r}")
        t += dt
        since += 1
        landed = t >= target - 1e-12 * max(1.0, abs(target))
        if landed:
            t = target
        if landed or since >= record_every:
            phi = record(dt)
            since = 0
        if landed:
            snapshot(phi)
            hist = {}
            bi += 1
    times = np.array([r["t"] for r in rows])
    series = {k: np.array([r[k] for r in rows]) for k in fnl.SERIES_COLUMNS}
    meta = {"variant": "logfd", "n": 1, "res": grid.res, "period": grid.period,
            "c": 0.0, "T": T, "t0": 0.0, "dt_policy": dt_policy,
            "dt_init": dt_init, "safety": safety, "sign_class": "zero",
            "sup_h": 0.0, "inf_h": 0.0, "data_class": "smooth",
            "snapshot_times": list(boundaries), "kappa": KAPPA}
    return Trajectory(grid, meta, times, series, snaps)


def _sbdf2_density(grid, f, dt, dt_full, stab_factor, hist, t):
    """One semi-implicit step of the density form from time t: (new f, new hist).

    Two transforms: the explicit term's spectrum sym * rfftn(log f) goes
    straight to the shared SBDF2 kernel, and one inverse transform returns
    the new density (f's own spectrum comes from the history).
    """
    sym = grid.flat_symbol(rfft=True)
    f_spec = hist.get("spec")
    if f_spec is None:
        f_spec = sfft.rfftn(f)
    beta0 = stab_factor / max(float(f.min()), 1e-12)
    new_spec, hist = _sbdf2_spectrum(sym, f_spec, sym * sfft.rfftn(np.log(f)), hist,
                                     dt, dt_full, beta0)
    new = sfft.irfftn(new_spec, s=grid.shape)
    if new.min() <= 0.0 or not np.all(np.isfinite(new)):
        raise PositivityLoss(f"semi-implicit density step lost positivity at t={t:.6g}",
                             t=t)
    return new, hist
