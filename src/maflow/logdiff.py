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
The density form is a ``flow._Stepper`` (``_DensityStepper``) built from a
FlowConfig, so it runs on flow's one time loop (``flow._march``) with the
potential form's landing, record cadence, snapshots and setting checks.

The flow is kept on the torus rather than a chart of the sphere so the
spectral stack is shared; the PDE is identical.
"""

from dataclasses import dataclass

import numpy as np

from . import functionals as fnl
from . import geometry as geo
from .errors import ConfigError, MassMismatch, PositivityLoss, StepSizeUnderflow
from .flow import FlowConfig, Snapshot, Trajectory, _Stepper, _cfl_dt, _march, _sbdf2_spectrum
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
    sym = grid.flat_symbol()
    spec = grid.fft(f.values - 1.0)
    out = np.zeros_like(spec)
    np.divide(spec, sym, out=out, where=sym != 0.0)
    return PotentialField(grid, grid.ifft(out))


def _rhs(grid, f):
    return grid.ifft(grid.flat_symbol() * grid.fft(np.log(f)))


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

    dt_min bounds each halved span, not dt itself, which may be the short
    last step to a boundary.  ``t`` is the time of ``f``; a PositivityLoss
    carries the start time of the sub-step that could not be halved.
    """
    grid = f.grid
    arr = f.values

    def advance(a, start, span):
        new = _rk4(grid, a, span)
        if new is not None:
            return new
        if 0.5 * span < dt_min:
            raise PositivityLoss(
                f"dt underflow while preserving positivity at t={start:.6g}", t=start)
        half = advance(a, start, 0.5 * span)
        return advance(half, start + 0.5 * span, 0.5 * span)

    return DensityField(grid, advance(arr, float(t), float(dt)))


class _DensityStepper(_Stepper):
    """The density f at time t as a stepper of ``flow._march`` (no FlowState).

    RK4 takes the potential form's CFL step, whose min_eig is min f, and
    the potential form's dt_min rule: a CFL step below dt_min is
    StepSizeUnderflow, the last step to a boundary is never checked.
    """

    def __init__(self, config, f0):
        super().__init__(config)
        self.f, self.t = f0.values.copy(), 0.0
        self.phi = None   # the potential of the last series row

    def advance(self, target, floor):
        cfg, t = self.cfg, self.t
        if cfg.dt_policy == "rk4":
            dt = min(_cfl_dt(cfg, float(self.f.min())), cfg.dt_init)
            if dt < cfg.dt_min:
                raise StepSizeUnderflow(f"dt underflow at t={t:.6g}", t=t)
            dt = min(dt, target - t)
            self.f = step_logfd(DensityField(self.grid, self.f), dt, cfg.dt_min, t).values
        else:
            dt = min(cfg.dt_init, target - t)
            self.f, self.hist = _sbdf2_density(self.grid, self.f, dt, cfg.dt_init,
                                               cfg.stab_factor, self.hist, t)
        self.t = t + dt
        if self.t >= floor:
            self.t = target
        return dt, self.t == target

    def row(self, dt):
        f = self.f
        self.phi = density_to_potential(DensityField(self.grid, f))
        return fnl.series_row(self.grid, self.t, self.phi.values, f, np.ones_like(f), f,
                              float(f.min()), dt)

    def snapshot(self):
        return Snapshot(self.t, self.phi.values.copy(), np.log(self.f), float(self.f.min()))


def evolve_density(f0, T, dt_policy="rk4", dt_init=1e-2, dt_min=1e-12,
                   safety=0.9, record_every=25, snapshot_times=(),
                   stab_factor=1.0):
    """Run the density flow on [0, T]; shares the trajectory CSV schema.

    The settings pass FlowConfig's checks first, and the meta records them
    all.  Snapshots store the equivalent mean-zero potential (the density
    is recovered exactly as 1 + H(phi)), so the result is a plain
    Trajectory with variant "logfd".
    """
    if dt_policy not in ("rk4", "semi_implicit"):
        raise ConfigError(f"unknown dt policy {dt_policy!r}")
    grid = f0.grid
    cfg = FlowConfig(grid=grid, T=T, dt_policy=dt_policy, dt_init=dt_init, dt_min=dt_min,
                     safety=safety, record_every=record_every,
                     snapshot_times=snapshot_times, stab_factor=stab_factor)
    times, series, snaps = _march(_DensityStepper(cfg, f0), 0.0)
    meta = {**cfg.settings(), "variant": "logfd", "n": 1, "res": grid.res,
            "period": grid.period, "c": 0.0, "t0": 0.0, "sign_class": "zero",
            "sup_h": 0.0, "inf_h": 0.0, "data_class": "smooth",
            "snapshot_times": [s.t for s in snaps[1:]], "kappa": KAPPA}
    return Trajectory(grid, meta, times, series, snaps)


def _sbdf2_density(grid, f, dt, dt_full, stab_factor, hist, t):
    """One semi-implicit step of the density form from time t: (new f, new hist).

    Two transforms: the explicit term's spectrum sym * rfftn(log f) goes
    straight to the shared SBDF2 kernel, and one inverse transform returns
    the new density (f's own spectrum comes from the history).
    """
    sym = grid.flat_symbol()
    f_spec = hist.get("spec")
    if f_spec is None:
        f_spec = grid.fft(f)
    beta0 = stab_factor / max(float(f.min()), 1e-12)
    new_spec, hist = _sbdf2_spectrum(sym, f_spec, sym * grid.fft(np.log(f)), hist,
                                     dt, dt_full, beta0)
    new = grid.ifft(new_spec)
    if new.min() <= 0.0 or not np.all(np.isfinite(new)):
        raise PositivityLoss(f"semi-implicit density step lost positivity at t={t:.6g}",
                             t=t)
    return new, hist
