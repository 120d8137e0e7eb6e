"""Time integration of the scalar parabolic Monge-Ampere flows.

Two equation variants on the flat torus:

    cmaf    dphi/dt = log det((1+tc) I + H(t psi_chi + phi)) - h
    ncmaf   dphi/dt = log det(I + H(phi)) - h + phi        (trivial twist only)

Method of lines: pseudospectral space, explicit RK4 in time with the
parabolic CFL dt = safety * h_grid^2 * min_eig / (4n) (the effective
diffusivity is the inverse metric, so dt shrinks as the metric degenerates)
and a positivity guard that rejects and halves any step leaving the Kaehler
cone ("rk4"); RK4 at a fixed dt_init ("rk4_fixed"); and a linearly-stabilized
SBDF2 variant ("semi_implicit", fixed dt) that treats beta0 * (flat complex
Laplacian) implicitly with beta0 = stab_factor / min_eig, for stiff
high-resolution runs; its two-step history restarts after every snapshot,
which makes restarting from a snapshot reproduce the subsequent series
exactly, and the restart step keeps the scheme second order.

One step driver (``_advance``) serves both flow forms and all three
policies: it takes the policy's step, clips it to the next boundary,
builds the RK4 (``_rk4_candidate``) or SBDF2 (``_sbdf2_candidate``)
candidate and evaluates the right-hand side once, where the step ends.  It
is the one place a run meets a boundary: a candidate that ends within
1e-12 (relative) of it lands on it exactly, as its real values, restarts
the SBDF2 history and is evaluated at the boundary time itself, so a
rejection there is that step's rejection; boundaries may lie any distance
apart.  Only rk4 halves a rejected step; under the fixed-dt policies the
step is their contract (the rk4_fixed convergence order and SBDF2's
two-step history assume dt_init), so a rejection is fatal.  dt_min bounds the
policy's step (StepSizeUnderflow below it) and each halving, never the
last step to a boundary, which is as short as the boundary leaves it.  A
flow form is a ``_Stepper`` that supplies the right-hand side (``parts``,
which rejects a state outside the form's domain), its real-space and SBDF2
forms, and the error for a rejection that may not be halved past
(``failure``): KaehlerConeViolation for a fixed-dt step and
StepSizeUnderflow below dt_min here, PositivityLoss for both in the
density form (``logdiff``).

An SBDF2 step keeps its state as the spectrum it solves for
(``_SpectralPotential``) at every n and in both flow forms, and the next
right-hand side takes its Hessian from it: a cmaf step takes one rfftn
and one irfftn at n = 1, one rfftn and four irfftn at n = 2.  The real
phi is formed once, where it is first read.  Landing turns the state into its real values, so a
restart from the snapshot starts from the same spectrum, fft(phi).

One right-hand-side evaluation (``_Stepper.parts``) takes the Hessian of
``phi.spectrum()`` (one inverse transform at n = 1, four at n = 2) and
turns it in place into the metric, its determinant, its smallest
eigenvalue and log det - h (+ phi) in one fused pointwise pass
(``geometry.metric_det_eigmin``).  A cone exit anywhere in a run reaches
the caller as a typed error carrying t.

``_march`` is the one time loop of both flow forms: it owns the snapshot
boundaries, the record cadence and the snapshots, steps to each boundary
until ``_advance`` has landed on it, and returns (series, snapshots); a
Trajectory's times are its series' t column.  A state's det and metric (5
fields at n = 2) live only until its own series row is taken or skipped:
``_march`` drops them then, so a step starts from phi and phi_dot alone
(and the SBDF2 history).  An RK4 step gathers its stages into one sum in
place and frees each stage once it is added.

A run is deterministic, and its output does not depend on the threads or
processes it is given; trajectories are immutable once produced, and the
grid and the twist are frozen values (see ``geometry``).  Where a CPU is
free and ``geometry.lane_pays`` (n = 2 from res 16 on), ``run`` gives its
``_Stepper`` one helper thread, a lane: it runs two of the Hessian's four
inverse transforms and half of the pointwise pass of every right-hand
side (see ``geometry``); ``run`` enters it with ``with``, so it is joined
before ``run`` returns or raises.  ``run_levels`` runs each approximation
level in a forked child process, all of them at once, and the kernel
shares the CPUs among them; a level's child runs the same ``run`` on the
same inputs, so every trajectory is bit-identical to a sequential run of
its level.  Levels in threads of one process share one GIL for the Python
they run between the FFTs: one lelong_smoothing level took 0.24 s alone,
and two copies of it 0.31 s in two threads but 0.27 s in two forked
processes (2 cores, medians of 7).  ``workers`` caps the CPUs of a call:
the levels get them first, and a level has its lane only where the cap
leaves two CPUs per level.
"""

import contextlib
import dataclasses
import math
import multiprocessing
import multiprocessing.connection
import os
import pickle
import signal
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dfield
from functools import cached_property

import numpy as np

from . import functionals as fnl
from . import geometry as geo
from .errors import ConfigError, KaehlerConeViolation, MaflowError, StepSizeUnderflow
from .geometry import PotentialField
from .initial import ApproximationLevel, PotentialSpec

SIGN_TOL = 1e-10
LIMIT_RATIO = 0.85   # the level limit converges when every decrement ratio is at most this


@dataclass(frozen=True)
class TwistSpec:
    """The closed twist form chi = c * omega + dd^c psi_chi, a frozen value.

    What it derives on psi_chi's own grid is cached on first read, and shared
    by FlowConfig's checks, its ``replace``s, its meta and its steppers.
    """

    c: float = 0.0
    psi_chi: PotentialField = None

    @cached_property
    def hpsi(self):
        """H(psi_chi) (None without psi_chi), read-only."""
        if self.psi_chi is None:
            return None
        grid = self.psi_chi.grid
        return geo.readonly_raw(grid, geo.hessian_raw(grid, self.psi_chi.values))

    @cached_property
    def eig_range(self):
        """(min, max) over the grid of the eigenvalues of c I + H(psi_chi).

        Evaluated block by block into one field (``geometry.by_rows``).
        """
        if self.psi_chi is None:
            return self.c, self.c
        grid, hpsi = self.psi_chi.grid, self.hpsi

        def low(a, scale):   # the grid min of the smallest eigenvalue of a I + scale H
            def eig(rows):
                raw = geo.raw_combine(grid, a, geo.raw_rows(grid, hpsi, rows), scale)
                return geo.eigmin_raw(grid, raw)
            return float(geo.by_rows(grid, eig).min())
        # the largest eigenvalue of A is minus the smallest of -A, exactly
        return low(self.c, 1.0), -low(-self.c, -1.0)

    # the classes sign_class returns: the values a run records in its
    # meta.json, and the only ones a saved run may carry
    SIGN_CLASSES = ("zero", "nonneg", "nonpos", "mixed")

    @property
    def sign_class(self):
        """The sign of c I + H(psi_chi) over the grid, to SIGN_TOL: one of SIGN_CLASSES."""
        emin, emax = self.eig_range
        zero, nonneg, nonpos, mixed = self.SIGN_CLASSES
        if abs(emin) <= SIGN_TOL and abs(emax) <= SIGN_TOL:
            return zero
        if emin >= -SIGN_TOL:
            return nonneg
        if emax <= SIGN_TOL:
            return nonpos
        return mixed

    @property
    def is_trivial(self):
        return self.c == 0.0 and self.psi_chi is None


def t_max(twist):
    """sup{t >= 0 : the deformed class (1 + t c)[omega] stays nef}; inf when c >= 0."""
    if twist.c >= 0.0:
        return math.inf
    return 1.0 / abs(twist.c)


def normalize_h(h):
    """Shift h so that int e^h omega^n = V (relative 1e-10 by construction)."""
    if h is None:
        return None
    shift = math.log(float(np.exp(h.values).mean()))
    if abs(shift) < 1e-15:
        return h
    return PotentialField(h.grid, h.values - shift)


@dataclass
class FlowConfig:
    """A run's grid, equation, data and integrator settings.

    ``stab_factor`` sets the semi_implicit damping beta0 = stab_factor /
    min_eig.  It has a stability floor near one half, as linearly
    stabilized schemes do: on three smooth n = 1 modes (amplitudes <= 0.03)
    to T = 0.04, dt 4e-3 ... 1.25e-4, the error fell 4x per halving of dt
    from 0.6 up, turned erratic at 0.4 (res 32) and 0.5 (res 64), and the
    step left the Kaehler cone below that.  The default 1.0 lies well above.
    """

    # the variants a run records in its meta.json, and the only ones a saved
    # run may carry: FlowConfig's two equations, then the density form's
    # (logdiff.evolve_density)
    VARIANTS = ("cmaf", "ncmaf", "logfd")

    grid: geo.TorusGrid
    variant: str = "cmaf"          # cmaf | ncmaf
    twist: TwistSpec = dfield(default_factory=TwistSpec)
    h: PotentialField = None
    T: float = 1.0
    dt_policy: str = "rk4"         # rk4 | rk4_fixed | semi_implicit
    dt_init: float = 1e-2
    dt_min: float = 1e-12
    safety: float = 0.9
    record_every: int = 25
    snapshot_times: tuple = ()
    dealias: bool = False
    stab_factor: float = 1.0

    def __post_init__(self):
        self.snapshot_times = tuple(sorted(float(s) for s in self.snapshot_times))
        values = [(f.name, getattr(self, f.name)) for f in SETTINGS if f.type is float]
        values += [("c", self.twist.c)] + [("snapshot_times", s) for s in self.snapshot_times]
        for name, value in values:
            if not math.isfinite(value):
                raise ConfigError(f"{name}={value!r} is not finite")
        if self.stab_factor < 0.0:   # beta0 < 0 would anti-damp the SBDF2 step
            raise ConfigError(f"stab_factor={self.stab_factor!r} must be >= 0")
        if self.variant not in self.VARIANTS[:2]:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.dt_policy not in ("rk4", "rk4_fixed", "semi_implicit"):
            raise ConfigError(f"unknown dt_policy {self.dt_policy!r}")
        if not 0.0 < self.safety < 1.0:
            raise ConfigError("safety factor must lie in (0, 1)")
        if self.dt_min <= 0.0 or self.dt_init <= 0.0:
            raise ConfigError("dt_init and dt_min must be positive")
        if self.dt_init < self.dt_min:
            raise ConfigError(f"dt_init={self.dt_init} lies below dt_min={self.dt_min}")
        if self.T < 0.0:
            raise ConfigError("horizon T must be >= 0")
        if self.record_every < 1:
            raise ConfigError(f"record_every={self.record_every!r} must be >= 1")
        if self.twist.psi_chi is not None and self.twist.psi_chi.grid != self.grid:
            raise ConfigError("psi_chi lives on a different grid")
        if self.variant == "ncmaf" and not self.twist.is_trivial:
            raise ConfigError("the normalized flow requires a trivial twist")
        if self.variant == "cmaf":
            tm = t_max(self.twist)
            if self.T >= tm:
                raise ConfigError(f"T={self.T} reaches T_max={tm} = 1/|c|")
            # discrete form of the standing normalization omega/2 <= theta_t <= 2 omega
            emin, emax = self.twist.eig_range
            bound = self.T * max(abs(emin), abs(emax))
            if bound > 0.5 + 1e-12:
                raise ConfigError(
                    f"|t chi| up to {bound:.3g} exceeds 1/2 on [0, T]; shrink T or the twist "
                    "(c, psi_chi)")
        self.h = normalize_h(self.h)

    def replace(self, **kw):
        return dataclasses.replace(self, **kw)

    def settings(self):
        """{name: value} of the scalar settings (``SETTINGS``)."""
        return {f.name: getattr(self, f.name) for f in SETTINGS}

    def meta(self):
        g = self.grid
        return {
            **self.settings(), "n": g.n, "res": g.res, "period": g.period,
            "c": self.twist.c, "sign_class": self.twist.sign_class,
            "sup_h": 0.0 if self.h is None else self.h.sup,
            "inf_h": 0.0 if self.h is None else self.h.inf,
            "t_max": t_max(self.twist) if self.variant == "cmaf" else math.inf,
            "snapshot_times": list(self.snapshot_times),
        }


# FlowConfig's scalar fields: the one list the INI, meta.json and restarts read
SETTINGS = tuple(f for f in dataclasses.fields(FlowConfig)
                 if f.name not in ("grid", "twist", "h", "snapshot_times"))


@dataclass
class FlowState:
    t: float
    phi: PotentialField
    phi_dot: np.ndarray
    min_eig: float
    step_count: int = 0
    # det and raw metric at t, for the state's own series row: set by the
    # driver, dropped by ``_march`` once the row is taken or skipped
    det: np.ndarray = None
    metric: np.ndarray = None


class _SpectralPotential(PotentialField):
    """A PotentialField held as its spectrum ``spec``; its values are formed on first read.

    The values are ``grid.ifft(spec)``, bit-identical to forming them at
    once: ``spec`` is never written (the SBDF2 history only reads it).  The
    property shadows PotentialField's ``values`` slot, which stays empty.
    """

    __slots__ = ("spec", "_values")

    def __init__(self, grid, spec):
        self.grid, self.spec, self._values = grid, spec, None

    @property
    def values(self):
        if self._values is None:
            self._values = self.grid.ifft(self.spec)
        return self._values

    def spectrum(self):
        return self.spec


@dataclass
class Snapshot:
    t: float
    phi: np.ndarray
    phi_dot: np.ndarray
    min_eig: float


@dataclass
class Trajectory:
    grid: geo.TorusGrid
    meta: dict
    series: dict               # {column: values} of SERIES_COLUMNS, the times as "t"
    snapshots: list
    twist: TwistSpec = None    # the run's twist; None: a bare c from meta (density form)

    @property
    def times(self):
        return self.series["t"]

    def column(self, name):
        return np.asarray(self.series[name])

    def snapshot_at(self, t):
        """The snapshot nearest t; a ConfigError when none lies within 1e-9 * max(1, |t|)."""
        s = min(self.snapshots, key=lambda snap: abs(snap.t - t), default=None)
        if s is not None and abs(s.t - t) <= 1e-9 * max(1.0, abs(t)):
            return s
        recorded = ", ".join(f"{s.t:.6g}" for s in self.snapshots)
        raise ConfigError(f"no snapshot at t={t:.6g}; the snapshot times are {recorded}")

    @property
    def snapshot_times(self):
        return [s.t for s in self.snapshots]

    @property
    def t0(self):
        return float(self.meta["t0"])


class _Reject(Exception):
    pass


class _Stepper:
    """One run's state, and everything reusable across its steps, cached."""

    def __init__(self, config):
        self.cfg = config
        self.grid = config.grid
        self.lane = None   # a helper thread for the right-hand side (``run`` enters it)
        self.c = config.twist.c
        self.hpsi = config.twist.hpsi
        self.h_arr = None if config.h is None else config.h.values
        self.exp_h = None if config.h is None else np.exp(self.h_arr)
        self.ncmaf = config.variant == "ncmaf"
        self.mask = self.grid.dealias_mask if config.dealias else None
        self.hist = {}   # semi-implicit two-step history; cleared where a step lands
        self.state = None   # the FlowState reached

    def _filter(self, arr):
        if self.mask is None:
            return arr
        return self.grid.ifft(self.mask * self.grid.fft(arr))

    def parts(self, t, phi):
        """(rhs, det, min_eig, metric_raw); raises _Reject on cone exit.

        The Hessian comes from ``phi.spectrum()``; only ncmaf reads ``phi.values``.
        """
        phi_arr = phi.values if self.ncmaf else None

        def rhs_rows(rows, det):   # log det - h (+ phi) on the metric pass's rows
            out = r[rows]
            np.log(det, out=out)
            if self.h_arr is not None:
                out -= self.h_arr[rows]
            if self.ncmaf:
                out += phi_arr[rows]

        hpsi = self.hpsi if t != 0.0 else None
        hess = geo.hessian_raw(self.grid, None, spec=phi.spectrum(), lane=self.lane)
        r = np.empty(self.grid.shape)   # after the Hessian, whose transforms peak higher
        m, det, emin = geo.metric_det_eigmin(self.grid, hess, 1.0 + t * self.c, hpsi, t,
                                             lane=self.lane, then=rhs_rows)
        if not np.isfinite(emin) or emin <= 0.0:
            raise _Reject(emin)
        return self._filter(r), det, emin, m

    def rate(self, rhs):
        """``rhs`` as ``parts`` returns it, in real space (what an RK4 stage adds)."""
        return rhs

    def explicit_spec(self, rhs):
        """The spectrum of the SBDF2 explicit term, from ``rhs`` as ``parts`` returns it."""
        return self.grid.fft(rhs)

    def failure(self, t, halved, min_eig):
        """The error for a step from t rejected at a fixed dt, or ``halved`` below dt_min."""
        if halved:
            return StepSizeUnderflow(f"dt underflow at t={t:.6g}: the halved step still left "
                                     f"the Kaehler cone (min_eig={min_eig:.3e})", t=t)
        return KaehlerConeViolation(f"{self.cfg.dt_policy} step left the Kaehler cone at "
                                    f"t={t:.6g}", t=t, min_eig=min_eig)

    def row(self, dt):
        s = self.state
        return fnl.series_row(self.grid, s.t, s.phi.values, s.metric, s.det, s.min_eig, dt,
                              exp_h=self.exp_h, twist=self.cfg.twist)

    def snapshot(self):
        s = self.state
        return Snapshot(s.t, s.phi.values.copy(), s.phi_dot.copy(), s.min_eig)


def _cfl_dt(config, min_eig):
    return config.safety * config.grid.h ** 2 * min_eig / (4.0 * config.grid.n)


def _advance(st, state, t_bound):
    """One step of the configured policy towards ``t_bound``: (FlowState, dt).

    The policy's step (the CFL step capped by dt_init under rk4, dt_init
    otherwise) is clipped to t_bound.  A candidate that lands becomes
    PotentialField(its values) at t_bound, with the SBDF2 history reset,
    before ``st.parts`` evaluates it, once per candidate; an infinite
    t_bound is never landed on.  Rejections and dt_min as in the module
    docstring.  Commits the SBDF2 history (before ``parts``, freeing the
    old one) and returns one FlowState, with its det and metric.
    """
    cfg, t = st.cfg, state.t
    if t_bound <= t:
        raise StepSizeUnderflow(
            f"no step left at t={t:.6g}: the boundary t={t_bound:.6g} is not ahead", t=t)
    adaptive = cfg.dt_policy == "rk4"
    dt = min(_cfl_dt(cfg, state.min_eig), cfg.dt_init) if adaptive else cfg.dt_init
    if dt < cfg.dt_min:
        raise StepSizeUnderflow(f"dt underflow at t={t:.6g} (min_eig={state.min_eig:.3e})",
                                t=t)
    dt = min(dt, t_bound - t)
    while True:
        t_new = t + dt
        try:
            if cfg.dt_policy == "semi_implicit":   # its rejection is fatal: commit now
                phi, st.hist = _sbdf2_candidate(st, state, dt)
            else:
                phi = PotentialField(st.grid, _rk4_candidate(st, t, state.phi.values,
                                                             state.phi_dot, dt))
            if t_new >= t_bound - 1e-12 * max(1.0, abs(t_bound)):   # nan at inf: never lands
                t_new, phi, st.hist = t_bound, PotentialField(st.grid, phi.values), {}
            r_new, det, emin, m = st.parts(t_new, phi)
            break
        except _Reject as e:
            dt *= 0.5
            if not adaptive or dt < cfg.dt_min:
                raise st.failure(t, adaptive, e.args[0]) from None
    return FlowState(t_new, phi, r_new, emin, state.step_count + 1, det=det, metric=m), dt


def _rk4_candidate(st, t, y, rhs, dt):
    """RK4 from (t, y) with right-hand side ``rhs``: y at t + dt, not yet checked by parts.

    Raises _Reject where a stage's ``st.parts`` does.  The result is not
    scanned for NaN or inf: ``_advance``, its one caller, rejects a
    non-finite one through ``st.parts`` at the candidate.  In the potential
    form the FFT spreads a NaN or inf over the whole Hessian, so min_eig is
    NaN; in the density form ``logdiff._positive_min`` rejects it.
    """
    r1 = st.rate(rhs)   # may be the state's own phi_dot: only read
    # acc gathers r1 + 2 r2 + 2 r3 + r4 in that order, in place, and each
    # later stage, fresh from parts, is overwritten and freed once added
    acc = st.rate(st.parts(t + 0.5 * dt, PotentialField(st.grid, y + (0.5 * dt) * r1))[0])
    stage = PotentialField(st.grid, y + (0.5 * dt) * acc)
    acc *= 2.0
    acc += r1
    r = st.rate(st.parts(t + 0.5 * dt, stage)[0])
    stage = PotentialField(st.grid, y + dt * r)
    r *= 2.0
    acc += r
    r = None
    acc += st.rate(st.parts(t + dt, stage)[0])
    acc *= dt / 6.0
    acc += y
    return acc


def _sbdf2_spectrum(sym, u_spec, n_spec, hist, dt, dt_full, beta0):
    """One linearly stabilized SBDF2 step in spectral space: (new_spec, new_hist).

    Solves for the spectrum of u at t + dt given the spectra of the state
    ``u_spec`` and of the explicit term ``n_spec`` at t, with
    beta0 * ``sym`` (the flat symbol) taken implicitly.  The potential
    form and the density form share it.  ``hist`` is the dict this returned
    for the previous step, or {} after a reset.  A step shorter than
    ``dt_full`` and the first step after a reset take stabilized backward
    Euler, which restarts the two-step history.  Both carry the
    stabilization as a difference, beta0 sym (u_new - u) in the restart:
    taken alone, beta0 sym u_new would cost O(dt) at every restart, and
    the scheme would be first order.

    Built in place with the operations, and in the order, of the textbook
    expressions (4u - u_1 + 2dt(2N - N_1) + a(u_1 - 2u)) / (3 - a) with
    a = 2 dt beta0 sym, and (u + dt N - dt beta0 sym u) / (1 - dt beta0 sym),
    so the result is bit-identical to them.  ``u_spec`` and ``n_spec`` are only read.
    The division by the real denominator is a multiply by its reciprocal,
    which costs less: numpy divides complex by real with Smith's formula,
    which for a zero imaginary part multiplies by 1 / denominator, so every
    nonzero part of the quotient is the same to the bit (a part that is
    exactly zero may differ in the sign of that zero).
    """
    full = dt >= dt_full * (1.0 - 1e-12)
    if full and hist.get("ok"):
        a = np.multiply(2.0 * dt * beta0, sym)
        num = np.multiply(4.0, u_spec)
        num -= hist["u_spec"]
        scr = np.multiply(2.0, n_spec)
        scr -= hist["n_spec"]
        scr *= 2.0 * dt
        num += scr
        np.multiply(2.0, u_spec, out=scr)
        np.subtract(hist["u_spec"], scr, out=scr)
        scr *= a
        num += scr
        np.subtract(3.0, a, out=a)
    else:
        a = np.multiply(dt * beta0, sym)
        num = np.multiply(dt, n_spec)
        num += u_spec
        num -= a * u_spec
        np.subtract(1.0, a, out=a)
    np.divide(1.0, a, out=a)
    num *= a
    return num, {"ok": full, "u_spec": u_spec, "n_spec": n_spec}


def _sbdf2_candidate(st, state, dt):
    """Stabilized SBDF2 around the flat complex Laplacian: (state at t + dt, history).

    The state is a ``_SpectralPotential`` of the new spectrum at every n,
    in both flow forms and under both variants.  It steps from
    ``state.phi.spectrum()``: the previous step's spectrum while the
    history runs, fft(phi) after a reset.  The explicit term comes from
    ``st.explicit_spec``.
    """
    beta0 = st.cfg.stab_factor / max(state.min_eig, 1e-12)
    new_spec, hist = _sbdf2_spectrum(st.grid.flat_symbol, state.phi.spectrum(),
                                     st.explicit_spec(state.phi_dot), st.hist, dt,
                                     st.cfg.dt_init, beta0)
    return _SpectralPotential(st.grid, new_spec), hist


def _initial_state(st, phi0, t0):
    try:
        r, det, emin, m = st.parts(t0, phi0)
    except _Reject as e:
        raise KaehlerConeViolation("initial potential is not strictly inside the Kaehler cone",
                                   t=t0, min_eig=e.args[0]) from None
    return FlowState(t0, phi0.copy(), r, emin, det=det, metric=m)


def run(source, config, t0=0.0, data_class="smooth", meta_extra=None, workers=None):
    """Integrate the flow on [t0, T], recording series and snapshots.

    ``source`` is a PotentialField or an ApproximationLevel (singular data
    must come through approximation levels).  Deterministic given inputs.
    Snapshot times are landed on exactly and reset the record cadence and
    the integrator history, so restarting from any snapshot reproduces the
    subsequent series.

    ``workers`` (>= 1; default: the usable CPUs) caps the threads the run
    keeps busy.  From two on, a grid where ``geometry.lane_pays`` gets one
    helper thread for the right-hand side, joined before the call returns;
    the output does not depend on it.  ``data_class``, recorded in the
    meta, is one of ``PotentialSpec.DATA_CLASSES``.
    """
    cap = _cpu_cap(workers)
    if data_class not in PotentialSpec.DATA_CLASSES:
        raise ConfigError(f"data class {data_class!r} is not one of "
                          f"{', '.join(PotentialSpec.DATA_CLASSES)}")
    level_meta = {}
    if isinstance(source, ApproximationLevel):
        level_meta = {"level": source.j, "delta": source.delta, "level_eps": source.eps}
        phi0 = source.phi
    elif isinstance(source, PotentialField):
        phi0 = source
    else:
        raise ConfigError("run() takes a PotentialField or an ApproximationLevel")
    if phi0.grid != config.grid:
        raise ConfigError("initial data grid does not match the configuration")
    if config.T < t0:
        raise ConfigError(f"horizon T={config.T} lies before t0={t0}")

    st = _Stepper(config)
    lane = (ThreadPoolExecutor(1, thread_name_prefix="maflow-lane")
            if cap > 1 and geo.lane_pays(config.grid) else contextlib.nullcontext())
    with lane as st.lane:   # the executor's exit joins its thread
        st.state = _initial_state(st, phi0, t0)
        meta = config.meta()
        meta.update({"t0": t0, "data_class": data_class,
                     "phi0_sup": phi0.sup, "phi0_inf": phi0.inf})
        meta.update(level_meta)
        if meta_extra:
            meta.update(meta_extra)
        series, snaps = _march(st, t0)
    return Trajectory(config.grid, meta, series, snaps, config.twist)


def _march(st, t0):
    """The one time loop of both flow forms: (series, snapshots) on [t0, T].

    Steps ``st`` with ``_advance`` to each boundary (the snapshot times in
    (t0, T], and T), which lands on it.  A series row is recorded at t0,
    every ``record_every`` steps and at each boundary, where a snapshot is
    taken.
    """
    cfg = st.cfg
    boundaries = sorted({float(s) for s in cfg.snapshot_times if t0 < s <= cfg.T}
                        | ({cfg.T} if cfg.T > t0 else set()))
    rows, snaps, since = [st.row(0.0)], [st.snapshot()], 0
    st.state.det = st.state.metric = None   # only the state's own row reads them
    for target in boundaries:
        while st.state.t != target:
            st.state, dt = _advance(st, st.state, target)
            since += 1
            if st.state.t == target or since >= cfg.record_every:
                rows.append(st.row(dt))
                since = 0
            st.state.det = st.state.metric = None
        snaps.append(st.snapshot())
    return {k: np.array([r[k] for r in rows]) for k in fnl.SERIES_COLUMNS}, snaps


def continue_run(traj, from_t, config, T=None, workers=None):
    """Restart a run from one of its snapshots (exact state hand-off).

    The meta records the snapshot's time as ``restarted_from``.  ``workers``
    caps the run's threads as in ``run``.
    """
    snap = traj.snapshot_at(from_t)
    cfg = config if T is None else config.replace(T=T)
    phi = PotentialField(traj.grid, snap.phi.copy())
    return run(phi, cfg, t0=float(snap.t), data_class=traj.meta["data_class"],
               meta_extra={"restarted_from": float(snap.t)}, workers=workers)


def _cpu_cap(workers):
    """min(usable CPUs, ``workers``): the CPUs a call may keep busy."""
    if workers is not None and workers < 1:
        raise ConfigError(f"workers={workers}: at least one thread must run")
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return min(cpus, workers or cpus)


def run_levels(seq, config, meta_extra=None, workers=None):
    """Run the levels of ``seq`` under ``config`` concurrently; trajectories in level order.

    The levels are ApproximationLevels, or PotentialFields.  With the cap
    min(usable CPUs, ``workers``) and r = min(level count, cap), each level
    is a ``run`` with cap // r as its ``workers``, so a level has a lane
    only where the cap is at least 2r.  Where r is two or more, every level
    runs in its own forked child process, all of them started at once
    whatever their count, and the kernel shares the CPUs among them; where
    ``workers`` lies below the usable CPUs, the children are pinned to cap
    of them.  Otherwise (r = 1, or no ``os.fork``) the levels run in the
    calling thread, one after the other.  Each trajectory is bit-identical
    to a sequential ``run`` (see the module docstring).  When a level fails, the
    levels after it are killed, the ones before it are waited for, and the
    error of the earliest failing level in level order is raised, as a
    sequential run raises it; a level's traceback stays in its child, and
    ``workers=1`` shows it.  The children ignore SIGINT; an error or
    KeyboardInterrupt in the caller kills them all.  Every child is joined
    before the call returns or raises.
    """
    cap = _cpu_cap(workers)
    count = len(seq.levels)
    runners = min(count, cap)
    kw = dict(t0=0.0, data_class=seq.spec.data_class, meta_extra=meta_extra,
              workers=cap // max(runners, 1))
    if runners < 2 or not hasattr(os, "fork"):
        return [run(lev, config, **kw) for lev in seq.levels]
    usable = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    cpus = usable[:cap] if cap < len(usable) else None
    fork = multiprocessing.get_context("fork")
    procs, pipes, out, failed = [], [], [None] * count, {}
    try:
        # SIGINT stays blocked from each fork until the child ignores it
        blocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            for k, lev in enumerate(seq.levels):
                r, w = os.pipe()
                pipes.append(open(r, "rb"))
                proc = fork.Process(target=_level_child, args=(w, cpus, lev, config, kw),
                                    name=f"maflow-level-{k}")
                try:
                    proc.start()
                finally:
                    os.close(w)   # the child's copy is the only writer left
                procs.append(proc)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
        pending = dict(enumerate(pipes))
        while any(j < min(failed, default=count) for j in pending):
            for pipe in multiprocessing.connection.wait(list(pending.values())):
                k = pipes.index(pipe)
                if pending.pop(k, None) is None:   # killed after a failure above
                    continue
                out[k] = _receive(pipe, procs[k])
                if isinstance(out[k], Exception):
                    failed[k] = out[k]
                    for later in range(k + 1, count):
                        procs[later].kill()
                        pending.pop(later, None)
    except BaseException:   # e.g. KeyboardInterrupt: no level outlives the call
        for proc in procs:
            proc.kill()
        raise
    finally:
        for proc in procs:
            proc.join()
            proc.close()
        for pipe in pipes:
            pipe.close()
    if failed:
        raise failed[min(failed)]
    for traj in out:   # the child sent neither: the parent holds both
        traj.grid, traj.twist = config.grid, config.twist
    return out


def _level_child(fd, cpus, level, config, kw):
    """Body of a level's child: ``run`` the level and pickle its outcome to ``fd``.

    The outcome is the Trajectory, without its grid and twist, or the
    level's error.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    if cpus is not None:
        os.sched_setaffinity(0, cpus)
    try:
        outcome = run(level, config, **kw)
        outcome.grid = outcome.twist = None
    except Exception as e:
        outcome = e
    with open(fd, "wb") as fh:
        pickle.dump(outcome, fh, protocol=pickle.HIGHEST_PROTOCOL)


def _receive(pipe, proc):
    """The outcome a level's child pickled to ``pipe``, unpickled as it arrives.

    A child that ended without sending one gives a MaflowError without a t.
    """
    try:
        return pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        proc.join()
        return MaflowError(f"{proc.name} ended with exit code {proc.exitcode} "
                           "and sent no result")


@dataclass
class LimitReport:
    t: float
    decrements: list
    ratios: list
    converged: bool
    monotone: bool


def limit_potential(trajs, t):
    """Decreasing limit at time t across the levels' trajectories (``run_levels``).

    Returns (phi_t of the deepest level, LimitReport).  Every trajectory
    needs a snapshot at t.  Convergence is flagged when the sup-norm Cauchy
    decrements fall geometrically (successive ratios <= LIMIT_RATIO);
    non-convergence is reported in the LimitReport, not raised.
    """
    if len(trajs) < 3:
        raise ConfigError("need at least 3 levels to assess convergence")
    fields = [tr.snapshot_at(t).phi for tr in trajs]
    decrements = [float(np.abs(a - b).max()) for a, b in zip(fields[:-1], fields[1:])]
    ratios = [d2 / d1 if d1 > 0 else 0.0
              for d1, d2 in zip(decrements[:-1], decrements[1:])]
    monotone = all(float((b - a).max()) <= 1e-9 for a, b in zip(fields[:-1], fields[1:]))
    converged = len(ratios) > 0 and all(r <= LIMIT_RATIO for r in ratios)
    report = LimitReport(t=float(t), decrements=decrements, ratios=ratios,
                         converged=converged, monotone=monotone)
    return PotentialField(trajs[-1].grid, fields[-1].copy()), report
