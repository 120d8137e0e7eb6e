"""Density form of the n=1 flow: the logarithmic fast diffusion equation.

With the untwisted n=1 potential flow dphi/dt = log(1 + H(phi)) and the
conformal density f = 1 + H(phi), the same dynamics reads

    df/dt = H(log f) = (1/4) Delta log f,

where H is the flat complex Hessian (kappa = 1/4 is the module's
normalization constant: a cos(2 pi k x / L) perturbation of f = 1 decays
at rate pi^2 k^2 / L^2 = 4 pi^2 kappa k^2 / L^2).  The right-hand side is
a pure Fourier multiplier applied to log f, so every stage has exactly
zero mean and the stepping conserves mass to round-off.  The density form
is a ``flow._Stepper`` (``_DensityStepper``) built from a FlowConfig, and
``evolve_density`` is its one entry point: flow's one step driver
(``flow._advance``) and one time loop (``flow._march``) run it under the
potential form's policies, landing (one right-hand side per candidate,
the landed one at the boundary), record cadence, snapshots and setting
checks.  Its right-hand side is the spectrum sym * rfftn(log f), which is
the SBDF2 explicit term as it stands, so a semi-implicit step takes two
transforms: rfftn(log f) and the inverse of the new density.  A step that
loses positivity is rejected, and one that may not be halved past is a
PositivityLoss carrying t.

The flow is kept on the torus rather than a chart of the sphere so the
spectral stack is shared; the PDE is identical.
"""

from dataclasses import dataclass

import numpy as np

from . import functionals as fnl
from . import geometry as geo
from .errors import ConfigError, MassMismatch, PositivityLoss
from .flow import FlowConfig, Snapshot, Trajectory, _Reject, _Stepper, _initial_state, _march
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
        if not (np.all(self.values > 0.0) and np.all(np.isfinite(self.values))):
            raise PositivityLoss("density must be finite and strictly positive")

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
    sym = grid.flat_symbol
    spec = grid.fft(f.values - 1.0)
    out = np.zeros_like(spec)
    np.divide(spec, sym, out=out, where=sym != 0.0)
    return PotentialField(grid, grid.ifft(out))


def _positive_min(f):
    """min f; raises _Reject unless f is finite and positive."""
    fmin = float(f.min())
    if not fmin > 0.0 or not np.all(np.isfinite(f)):
        raise _Reject(fmin)
    return fmin


class _DensityStepper(_Stepper):
    """The density f as a ``flow._Stepper`` (see the module docstring)."""

    def __init__(self, config, f0):
        super().__init__(config)
        self.sym = self.grid.flat_symbol
        # the FlowState holds f as phi, its rhs spectrum as phi_dot and min f as min_eig
        self.state = _initial_state(self, PotentialField(self.grid, f0.values), 0.0)
        self.phi = None   # the potential of the last series row

    def parts(self, t, f):
        """(rhs spectrum, None, min f, None) at the field f; _Reject unless f is finite and > 0."""
        fmin = _positive_min(f.values)
        return self.sym * self.grid.fft(np.log(f.values)), None, fmin, None

    def rate(self, rhs):
        return self.grid.ifft(rhs)

    def explicit_spec(self, rhs):
        return rhs

    def failure(self, t, halved, min_eig=None):
        why = "no step above dt_min keeps" if halved else f"the {self.cfg.dt_policy} step lost"
        return PositivityLoss(f"{why} the density positive at t={t:.6g}", t=t)

    def row(self, dt):
        s, f = self.state, self.state.phi.values
        self.phi = density_to_potential(DensityField(self.grid, f))
        return fnl.series_row(self.grid, s.t, self.phi.values, f, f, s.min_eig, dt)

    def snapshot(self):
        s = self.state
        return Snapshot(s.t, self.phi.values.copy(), np.log(s.phi.values), s.min_eig)


def evolve_density(f0, T, dt_policy="rk4", dt_init=1e-2, dt_min=1e-12,
                   record_every=25, snapshot_times=(), stab_factor=1.0):
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
                     record_every=record_every, snapshot_times=snapshot_times,
                     stab_factor=stab_factor)
    series, snaps = _march(_DensityStepper(cfg, f0), 0.0)
    meta = {**cfg.settings(), "variant": FlowConfig.VARIANTS[2], "n": 1, "res": grid.res,
            "period": grid.period, "c": 0.0, "t0": 0.0, "sign_class": "zero",
            "sup_h": 0.0, "inf_h": 0.0, "data_class": "smooth",
            "snapshot_times": [s.t for s in snaps[1:]], "kappa": KAPPA}
    return Trajectory(grid, meta, series, snaps)
