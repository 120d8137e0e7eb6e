"""Time integration of the scalar parabolic Monge-Ampere flows.

Two equation variants on the flat torus:

    cmaf    dphi/dt = log det((1+tc) I + H(t psi_chi + phi)) - h
    ncmaf   dphi/dt = log det(I + H(phi)) - h + phi        (trivial twist only)

Method of lines: pseudospectral space, explicit RK4 in time with the
parabolic CFL dt = safety * h_grid^2 * min_eig / (4n) (the effective
diffusivity is the inverse metric, so dt shrinks as the metric degenerates)
and a positivity guard that rejects and halves any step leaving the Kaehler
cone.  A linearly-stabilized SBDF2 variant ("semi_implicit", fixed dt)
treats beta0 * (flat complex Laplacian) implicitly with
beta0 = stab_factor / min_eig, for stiff high-resolution runs; its two-step
history restarts after every snapshot, which makes restarting from a
snapshot reproduce the subsequent series exactly.  One in-place spectral
kernel (``_sbdf2_spectrum``) carries the SBDF2 / backward-Euler algebra and
its history for this flow and for the density form in ``logdiff``; an
n = 1 potential step takes three transforms.

One right-hand-side evaluation (``_Stepper.parts``) takes one spectral
Hessian (three inverse transforms at n = 2) and turns it in place into the
metric, its determinant and its smallest eigenvalue in one fused pointwise
pass (``geometry.metric_det_eigmin``).  A cone exit anywhere in a run,
including the recompute after landing on a snapshot time, reaches the
caller as KaehlerConeViolation carrying t.

A single run is sequential and deterministic; distinct runs may execute
concurrently and trajectories are immutable once produced.
"""

import dataclasses
import math
from dataclasses import dataclass, field as dfield

import numpy as np
from scipy import fft as sfft

from . import functionals as fnl
from . import geometry as geo
from .errors import ConfigError, KaehlerConeViolation, StepSizeUnderflow
from .geometry import PotentialField
from .initial import ApproximationLevel, ApproximationSequence, approximation_sequence

SIGN_TOL = 1e-10


@dataclass
class TwistSpec:
    """The closed twist form chi = c * omega + dd^c psi_chi."""

    c: float = 0.0
    psi_chi: PotentialField = None
    _hpsi: tuple = dfield(default=None, init=False, repr=False, compare=False)

    def hessian_raw(self, grid):
        """H(psi_chi) on ``grid`` (None without psi_chi), read-only.

        Computed once per psi_chi object (whose grid must equal ``grid``)
        and cached: FlowConfig's checks, its meta and every stepper of the
        configuration share it.  psi_chi's values are never changed.
        """
        if self.psi_chi is None:
            return None
        if self.psi_chi.grid != grid:
            raise ConfigError("psi_chi lives on a different grid")
        if self._hpsi is None or self._hpsi[0] is not self.psi_chi:
            raw = geo.hessian_raw(grid, self.psi_chi.values)
            for arr in (raw,) if grid.n == 1 else raw:
                arr.flags.writeable = False
            self._hpsi = (self.psi_chi, raw)
        return self._hpsi[1]

    def eig_range(self, grid):
        """(min, max) over the grid of the eigenvalues of c I + H(psi_chi)."""
        if self.psi_chi is None:
            return self.c, self.c
        raw = geo.raw_combine(grid, self.c, self.hessian_raw(grid))
        emin = float(geo.eigmin_raw(grid, raw).min())
        if grid.n == 1:
            emax = float(raw.max())
        else:
            m11, m22, m12 = raw
            disc = np.sqrt(np.maximum((m11 - m22) ** 2
                                      + 4.0 * (m12.real ** 2 + m12.imag ** 2), 0.0))
            emax = float((0.5 * (m11 + m22 + disc)).max())
        return emin, emax

    def sign_class(self, grid):
        emin, emax = self.eig_range(grid)
        if abs(emin) <= SIGN_TOL and abs(emax) <= SIGN_TOL:
            return "zero"
        if emin >= -SIGN_TOL:
            return "nonneg"
        if emax <= SIGN_TOL:
            return "nonpos"
        return "mixed"

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
        if self.variant not in ("cmaf", "ncmaf"):
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.dt_policy not in ("rk4", "rk4_fixed", "semi_implicit"):
            raise ConfigError(f"unknown dt policy {self.dt_policy!r}")
        if not 0.0 < self.safety < 1.0:
            raise ConfigError("safety factor must lie in (0, 1)")
        if self.dt_min <= 0.0 or self.dt_init <= 0.0:
            raise ConfigError("dt_init and dt_min must be positive")
        if self.T < 0.0:
            raise ConfigError("horizon T must be >= 0")
        if self.variant == "ncmaf" and not self.twist.is_trivial:
            raise ConfigError("the normalized flow requires a trivial twist")
        if self.variant == "cmaf":
            tm = t_max(self.twist)
            if self.T >= tm:
                raise ConfigError(f"T={self.T} reaches T_max={tm}")
            # discrete form of the standing normalization omega/2 <= theta_t <= 2 omega
            emin, emax = self.twist.eig_range(self.grid)
            bound = self.T * max(abs(emin), abs(emax))
            if bound > 0.5 + 1e-12:
                raise ConfigError(
                    f"|t chi| up to {bound:.3f} exceeds 1/2 on [0, T]; shrink T or the twist")
        self.h = normalize_h(self.h)
        self.snapshot_times = tuple(sorted(float(s) for s in self.snapshot_times))

    def replace(self, **kw):
        return dataclasses.replace(self, **kw)

    def meta(self):
        g = self.grid
        return {
            "variant": self.variant, "n": g.n, "res": g.res, "period": g.period,
            "c": self.twist.c, "T": self.T, "dt_policy": self.dt_policy,
            "dt_init": self.dt_init, "dt_min": self.dt_min, "safety": self.safety,
            "record_every": self.record_every, "dealias": self.dealias,
            "stab_factor": self.stab_factor,
            "sign_class": self.twist.sign_class(g),
            "sup_h": 0.0 if self.h is None else self.h.sup,
            "inf_h": 0.0 if self.h is None else self.h.inf,
            "t_max": t_max(self.twist) if self.variant == "cmaf" else math.inf,
            "snapshot_times": list(self.snapshot_times),
        }


@dataclass
class FlowState:
    t: float
    phi: PotentialField
    phi_dot: np.ndarray
    min_eig: float
    step_count: int = 0


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
    times: np.ndarray
    series: dict
    snapshots: list

    def column(self, name):
        return np.asarray(self.series[name])

    def snapshot_at(self, t, tol=1e-9):
        for s in self.snapshots:
            if abs(s.t - t) <= tol * max(1.0, abs(t)):
                return s
        raise KeyError(f"no snapshot at t={t}")

    @property
    def snapshot_times(self):
        return [s.t for s in self.snapshots]

    @property
    def t0(self):
        return float(self.meta.get("t0", 0.0))


class _Reject(Exception):
    pass


class _Stepper:
    """Caches everything reusable across the steps of one run."""

    def __init__(self, config):
        self.cfg = config
        self.grid = config.grid
        self.c = config.twist.c
        self.hpsi = config.twist.hessian_raw(self.grid)
        self.h_arr = None if config.h is None else config.h.values
        self.exp_h = None if config.h is None else np.exp(self.h_arr)
        self.ncmaf = config.variant == "ncmaf"
        self.mask = self.grid.dealias_mask(rfft=self.grid.n == 1) if config.dealias else None
        self.hist = {}   # semi-implicit two-step history; cleared at snapshots

    def _filter(self, arr):
        if self.mask is None:
            return arr
        if self.grid.n == 1:
            return sfft.irfftn(self.mask * sfft.rfftn(arr), s=self.grid.shape)
        return sfft.ifftn(self.mask * sfft.fftn(arr)).real

    def theta_raw(self, t):
        if self.hpsi is None:
            return geo.raw_combine(self.grid, 1.0 + t * self.c, geo.raw_zero(self.grid))
        return geo.raw_combine(self.grid, 1.0 + t * self.c, self.hpsi, scale=t)

    def parts(self, t, phi_arr, spec=None):
        """(rhs, det, min_eig, metric_raw); raises _Reject on cone exit."""
        hpsi = self.hpsi if t != 0.0 else None
        m, det, emin = geo.metric_det_eigmin(
            self.grid, geo.hessian_raw(self.grid, phi_arr, spec=spec),
            1.0 + t * self.c, hpsi, t)
        if not np.isfinite(emin) or emin <= 0.0:
            raise _Reject(emin)
        r = np.log(det)
        if self.h_arr is not None:
            r = r - self.h_arr
        if self.ncmaf:
            r = r + phi_arr
        return self._filter(r), det, emin, m


def _checked_parts(st, t, phi_arr, message):
    """st.parts at (t, phi_arr), a cone exit raised as KaehlerConeViolation at t."""
    try:
        return st.parts(t, phi_arr)
    except _Reject as e:
        raise KaehlerConeViolation(message, t=t, min_eig=e.args[0]) from None


def rhs(t, phi, config):
    """Right-hand side of the flow at (t, phi); raises KaehlerConeViolation."""
    r, _, _, _ = _checked_parts(_Stepper(config), t, phi.values,
                                f"potential left the Kaehler cone at t={t}")
    return r


def _cfl_dt(config, min_eig):
    return config.safety * config.grid.h ** 2 * min_eig / (4.0 * config.grid.n)


def _advance(st, state, t_bound, scratch):
    cfg = st.cfg
    if cfg.dt_policy == "semi_implicit":
        return _advance_sbdf2(st, state, t_bound, scratch)
    dt = cfg.dt_init if cfg.dt_policy == "rk4_fixed" else min(
        _cfl_dt(cfg, state.min_eig), cfg.dt_init)
    dt = min(dt, t_bound - state.t)
    phi = state.phi.values
    while True:
        if dt < cfg.dt_min:
            raise StepSizeUnderflow(
                f"dt underflow at t={state.t:.6g} (min_eig={state.min_eig:.3e})",
                t=state.t)
        try:
            r1 = state.phi_dot
            r2, _, _, _ = st.parts(state.t + 0.5 * dt, phi + (0.5 * dt) * r1)
            r3, _, _, _ = st.parts(state.t + 0.5 * dt, phi + (0.5 * dt) * r2)
            r4, _, _, _ = st.parts(state.t + dt, phi + dt * r3)
            new = phi + (dt / 6.0) * (r1 + 2.0 * r2 + 2.0 * r3 + r4)
            if not np.all(np.isfinite(new)):
                raise _Reject(float("nan"))
            r_new, det, emin, m = st.parts(state.t + dt, new)
        except _Reject:
            if cfg.dt_policy == "rk4_fixed":
                raise KaehlerConeViolation(
                    f"fixed-dt step left the Kaehler cone at t={state.t:.6g}",
                    t=state.t) from None
            dt *= 0.5
            continue
        break
    scratch["det"], scratch["metric"] = det, m
    return FlowState(state.t + dt, PotentialField(st.grid, new), r_new, emin,
                     state.step_count + 1), dt


def _sbdf2_spectrum(sym, u_spec, n_spec, hist, dt, dt_full, beta0):
    """One linearly stabilized SBDF2 step in spectral space: (new_spec, new_hist).

    Solves for the spectrum of u at t + dt given the spectra of the state
    ``u_spec`` and of the explicit term ``n_spec`` at t, with
    beta0 * ``sym`` (the flat symbol) taken implicitly.  The potential
    form and the density form share it.  ``hist`` is the dict this returned
    for the previous step, or {} after a reset; its "spec" is the new
    spectrum, which the caller passes back as the next ``u_spec``.  A step
    shorter than ``dt_full`` and the first step after a reset take
    stabilized backward Euler, which restarts the two-step history.

    Built in place with the operations, and in the order, of the textbook
    expressions (4u - u_1 + 2dt(2N - N_1) + a(u_1 - 2u)) / (3 - a) with
    a = 2 dt beta0 sym, and (u + dt N) / (1 - dt beta0 sym), so the result
    is bit-identical to them.  ``u_spec`` and ``n_spec`` are only read.
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
        np.subtract(1.0, a, out=a)
    num /= a
    return num, {"ok": full, "u_spec": u_spec, "n_spec": n_spec, "spec": num}


def _advance_sbdf2(st, state, t_bound, scratch):
    """Stabilized SBDF2 step around the flat complex Laplacian.

    At n = 1, once the history holds the phi spectrum, a step takes three
    transforms: the spectrum of phi_dot, the new potential, and the
    Hessian of the next right-hand side (taken from the new spectrum).
    """
    cfg = st.cfg
    grid = st.grid
    use_rfft = grid.n == 1
    fwd = sfft.rfftn if use_rfft else sfft.fftn
    dt = min(cfg.dt_init, t_bound - state.t)
    beta0 = cfg.stab_factor / max(state.min_eig, 1e-12)
    phi_spec = st.hist.get("spec")
    if phi_spec is None:
        phi_spec = fwd(state.phi.values)
    new_spec, hist = _sbdf2_spectrum(grid.flat_symbol(rfft=use_rfft), phi_spec,
                                     fwd(state.phi_dot), st.hist, dt, cfg.dt_init, beta0)
    new = sfft.irfftn(new_spec, s=grid.shape) if use_rfft else sfft.ifftn(new_spec).real
    try:
        r_new, det, emin, m = st.parts(state.t + dt, new,
                                       spec=new_spec if use_rfft else None)
    except _Reject as e:
        raise KaehlerConeViolation(
            f"semi-implicit step left the Kaehler cone at t={state.t:.6g}",
            t=state.t, min_eig=e.args[0]) from None
    st.hist = hist
    scratch["det"], scratch["metric"] = det, m
    return FlowState(state.t + dt, PotentialField(grid, new), r_new, emin,
                     state.step_count + 1), dt


def _initial_state(st, phi0, t0):
    r, det, emin, m = _checked_parts(
        st, t0, phi0.values, "initial potential is not strictly inside the Kaehler cone")
    return FlowState(t0, phi0.copy(), r, emin), det, m


def step(state, config):
    """One adaptive step of the configured flow from the given state."""
    st = _Stepper(config)
    if state.phi_dot is None:
        state, _, _ = _initial_state(st, state.phi, state.t)
    new, _ = _advance(st, state, math.inf, {})
    return new


def run(source, config, t0=0.0, data_class="smooth", meta_extra=None):
    """Integrate the flow on [t0, T], recording series and snapshots.

    ``source`` is a PotentialField or an ApproximationLevel (singular data
    must come through approximation levels).  Deterministic given inputs.
    Snapshot times are landed on exactly and reset the record cadence and
    the integrator history, so restarting from any snapshot reproduces the
    subsequent series.
    """
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
    state, det, m = _initial_state(st, phi0, t0)

    meta = config.meta()
    meta.update({"t0": t0, "data_class": data_class,
                 "phi0_sup": phi0.sup, "phi0_inf": phi0.inf})
    meta.update(level_meta)
    if meta_extra:
        meta.update(meta_extra)

    boundaries = sorted({float(s) for s in config.snapshot_times
                         if t0 < s <= config.T} | ({config.T} if config.T > t0 else set()))
    rows, snaps = [], []

    def emit_row(dt_used, det_, m_):
        rows.append(fnl.series_row(
            config.grid, state.t, state.phi.values, m_, st.theta_raw(state.t),
            det_, state.min_eig, dt_used, exp_h=st.exp_h))

    def emit_snapshot():
        snaps.append(Snapshot(state.t, state.phi.values.copy(),
                              state.phi_dot.copy(), state.min_eig))

    emit_row(0.0, det, m)
    emit_snapshot()
    scratch = {}
    since = 0
    bi = 0
    while bi < len(boundaries):
        target = boundaries[bi]
        state, dt = _advance(st, state, target, scratch)
        since += 1
        landed = state.t >= target - 1e-12 * max(1.0, abs(target))
        if landed:
            state.t = target   # snap exactly; paired runs share boundary times
            # recompute cached rhs at the snapped time for exact reporting
            state.phi_dot, scratch["det"], state.min_eig, scratch["metric"] = \
                _checked_parts(st, state.t, state.phi.values,
                               f"potential left the Kaehler cone on landing at t={target:.6g}")
        if landed or since >= config.record_every:
            emit_row(dt, scratch["det"], scratch["metric"])
            since = 0
        if landed:
            emit_snapshot()
            st.hist = {}
            bi += 1
    times = np.array([r["t"] for r in rows])
    series = {k: np.array([r[k] for r in rows]) for k in fnl.SERIES_COLUMNS}
    return Trajectory(config.grid, meta, times, series, snaps)


def continue_run(traj, from_t, config, T=None, meta_extra=None):
    """Restart a run from one of its snapshots (exact state hand-off)."""
    snap = traj.snapshot_at(from_t)
    cfg = config if T is None else config.replace(T=T)
    phi = PotentialField(traj.grid, snap.phi.copy())
    extra = {"restarted_from": float(snap.t)}
    if meta_extra:
        extra.update(meta_extra)
    return run(phi, cfg, t0=float(snap.t),
               data_class=traj.meta.get("data_class", "smooth"), meta_extra=extra)


def run_levels(seq, config, meta_extra=None):
    """Run every approximation level under the same configuration."""
    out = []
    for lev in seq.levels:
        out.append(run(lev, config, data_class=seq.spec.data_class,
                       meta_extra=meta_extra))
    return out


@dataclass
class LimitReport:
    t: float
    decrements: list
    ratios: list
    converged: bool
    monotone: bool
    level_count: int
    details: dict = dfield(default_factory=dict)


def limit_potential(seq_or_trajs, config=None, t=None, ratio_tol=0.85):
    """Decreasing limit across approximation levels at time t.

    Returns (phi_t of the deepest level, LimitReport).  Convergence is
    flagged when the sup-norm Cauchy decrements fall geometrically
    (successive ratios <= ratio_tol); non-convergence is reported in the
    LimitReport, not raised.
    """
    if isinstance(seq_or_trajs, ApproximationSequence):
        if config is None or t is None:
            raise ConfigError("limit_potential(seq) needs a config and a time")
        if t > config.T:
            raise ConfigError("probe time beyond the configured horizon")
        if t not in set(config.snapshot_times) | {config.T}:
            config = config.replace(
                snapshot_times=tuple(sorted(set(config.snapshot_times) | {t})))
        trajs = run_levels(seq_or_trajs, config)
    else:
        trajs = list(seq_or_trajs)
        if t is None:
            raise ConfigError("limit_potential(trajs) needs the probe time")
    if len(trajs) < 3:
        raise ConfigError("need at least 3 levels to assess convergence")
    fields = [tr.snapshot_at(t).phi for tr in trajs]
    decrements = [float(np.abs(a - b).max()) for a, b in zip(fields[:-1], fields[1:])]
    ratios = [d2 / d1 if d1 > 0 else 0.0
              for d1, d2 in zip(decrements[:-1], decrements[1:])]
    monotone = all(float((b - a).max()) <= 1e-9 for a, b in zip(fields[:-1], fields[1:]))
    converged = len(ratios) > 0 and all(r <= ratio_tol for r in ratios)
    grid = trajs[-1].grid
    report = LimitReport(t=float(t), decrements=decrements, ratios=ratios,
                         converged=converged, monotone=monotone,
                         level_count=len(trajs))
    return PotentialField(grid, fields[-1].copy()), report


def maximal_stretch_gap(spec, grid, config, t, J=4, alt_kwargs=None):
    """Empirical independence of the limit from the chosen sequence.

    Runs two distinct approximation sequences and reports the sup gap of
    their limits at time t; a report field, never an assertion.
    """
    a = approximation_sequence(spec, grid, J)
    kw = dict(delta0=max(8.0 * grid.h, grid.period / 24.0), ratio=0.6, s0=0.02)
    if alt_kwargs:
        kw.update(alt_kwargs)
    b = approximation_sequence(spec, grid, J, **kw)
    fa, ra = limit_potential(a, config, t)
    fb, rb = limit_potential(b, config, t)
    gap = float(np.abs(fa.values - fb.values).max())
    scale = max(1.0, float(np.abs(fa.values).max()))
    return {"sup_gap": gap, "relative_gap": gap / scale,
            "converged_a": ra.converged, "converged_b": rb.converged,
            "decrements_a": ra.decrements, "decrements_b": rb.decrements}
