"""The four benchmark workloads.

A workload is built from a seed alone (``Workload(seed, workdir)``; the
work directory takes files it writes) and has three phases with fixed roles:

* ``setup()``  builds the grid, the initial data and the approximation
  levels (timed as ``setup_s``; returns nothing, keeps its state);
* ``op()``     the timed unit of work, returning the outputs the gate checks;
* ``check(out, first)`` raises ``GateFailure`` when an output is wrong.

``reference(out)`` returns the field ``err_ref`` measures and its reference,
made at a tighter time step outside every timed region; ``calibration`` is
the machine-speed kernel timed around every set-up and op (calibrate.py).
The seed varies mode amplitudes and phases, h / psi_chi phases and the
pole's sub-cell offset; it never varies n, res, period, level count or
dt policy, so every seed exercises the same code paths.

The workloads call the package through module attributes
(``flow.run``, ``elliptic.solve_ma``, ...), never through names bound at
import time, so that the tracer's wrappers see every call.
"""

import json
import math
import os
import shutil
from types import SimpleNamespace

import numpy as np

import maflow
from maflow import cli, elliptic, flow, geometry, initial, logdiff, verify
from maflow import io as mio

from calibrate import SpectralUnit

# seconds each workload's calibration kernel takes at the reference speed: the
# 10th percentile of 60 calls on the 2-core Xeon host the benchmark was sized
# on (its fast phase), so scaled seconds read as that host's unloaded wall time
CAL_REF_S = {"lelong_smoothing": 0.100, "n2_twisted": 0.100, "verify_saved": 0.025,
             "stiff_density": 0.050}


class GateFailure(Exception):
    """An op's output failed the benchmark's correctness gate."""


def _jitter(rng, base, rel):
    return base * (1.0 + rel * rng.uniform(-1.0, 1.0))


def _same_verdicts(a, b):
    """Verdict lists equal in name, status and bit-identical slack."""
    return [(r.name, r.status, r.slack) for r in a] == \
        [(r.name, r.status, r.slack) for r in b]


def _require_same(out, first, fields):
    """Gate: an op reproduces the first op's fields and verdicts bit for bit."""
    if first is None:
        return
    if not (all(np.array_equal(out[k], first[k]) for k in fields)
            and _same_verdicts(out["reports"], first["reports"])):
        raise GateFailure("op is not deterministic: output differs from the first op")


class LelongSmoothing:
    """n=1 log pole: 3 levels, limit, subsolution solve, Lelong attenuation."""

    name = "lelong_smoothing"
    res, period, gamma, beta, levels, K = 128, 2.0, 1.0, 0.9, 3, 2.0
    # long enough that the flow is ~80% of the op and solve_ma ~20%
    T = 0.01

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, 1])
        self.calibration = SpectralUnit(n=1, res=128, reps=400, ref_s=CAL_REF_S[self.name])
        h = self.period / self.res
        base = initial.default_center(maflow.TorusGrid(1, self.res, self.period))
        # sub-cell offset of the pole; stays a quarter cell away from the nodes
        self.center = tuple(c + h * rng.uniform(-0.25, 0.25) for c in base)
        self.probes = (self.T / 3.0, 2.0 * self.T / 3.0, self.T)
        self.boundaries = self.probes

    def setup(self):
        grid = maflow.TorusGrid(1, self.res, self.period)
        spec = initial.PotentialSpec("lelong", gamma=self.gamma, center=self.center)
        phi0 = initial.sample_potential(spec, grid)
        self.seq = initial.approximation_sequence(spec, grid, self.levels, K=self.K)
        self.sm = geometry.PotentialField(
            grid, geometry.mollify_raw(grid, phi0.values, 2.0 * grid.h))
        self.cfg = flow.FlowConfig(grid=grid, T=self.T, snapshot_times=self.probes,
                                   record_every=400)
        self.grid = grid

    def op(self):
        trajs = flow.run_levels(self.seq, self.cfg,
                                meta_extra={"center": list(self.center)})
        phi_t, lim = flow.limit_potential(trajs, t=self.T)
        alpha = 2.0 * self.beta
        u, log = elliptic.solve_ma(
            alpha, g=geometry.PotentialField(self.grid, -alpha * self.sm.values),
            u0=self.sm)
        rep = verify.verify_lelong_attenuation(trajs, self.gamma, self.beta, self.sm,
                                               u, probe_times=self.probes)
        return {"phi": phi_t.values, "u": u.values, "reports": [rep],
                "monotone": lim.monotone}

    def check(self, out, first):
        if not out["monotone"]:
            raise GateFailure("approximation levels lost their order along the flow")
        _require_same(out, first, ("phi", "u"))

    def reference(self, out):
        """Deepest level rerun at half the CFL step (safety / 2)."""
        cfg = self.cfg.replace(safety=self.cfg.safety / 2.0)
        return out["phi"], flow.run(self.seq.levels[-1], cfg).snapshot_at(self.T).phi


class N2Twisted:
    """n=2 res 16, twist c=-0.5 plus a psi_chi mode, RK4, single-run verify."""

    name = "n2_twisted"
    res, period, amp, c = 16, 1.0, 0.03, -0.5
    T = 0.004

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, 2])
        self.calibration = SpectralUnit(n=2, res=16, reps=10, ref_s=CAL_REF_S[self.name])
        amp = _jitter(rng, self.amp, 0.01)
        # the acceptance gate's three modes, one per real axis
        self.modes = [((1, 0, 0, 0), amp, rng.uniform(0, 2 * math.pi)),
                      ((0, 1, 0, 0), amp / 2, rng.uniform(0, 2 * math.pi)),
                      ((0, 0, 1, 0), amp / 2, rng.uniform(0, 2 * math.pi))]
        self.h_phase = rng.uniform(0, 2 * math.pi)
        self.psi_phase = rng.uniform(0, 2 * math.pi)
        self.boundaries = (self.T / 2.0, self.T)

    def setup(self):
        grid = maflow.TorusGrid(2, self.res, self.period)
        vals = sum(initial.cos_mode(grid, k, a, p) for k, a, p in self.modes)
        self.phi0 = geometry.PotentialField(grid, vals)
        h = geometry.PotentialField(
            grid, initial.cos_mode(grid, (0, 1, 0, 0), 0.05, self.h_phase))
        psi = geometry.PotentialField(
            grid, initial.cos_mode(grid, (0, 0, 0, 1), 0.02, self.psi_phase))
        self.cfg = flow.FlowConfig(grid=grid, twist=flow.TwistSpec(self.c, psi), h=h,
                                   T=self.T, snapshot_times=self.boundaries,
                                   record_every=5)

    def op(self):
        traj = flow.run(self.phi0, self.cfg)
        reports = verify.run_checks(traj)
        return {"phi": traj.snapshot_at(self.T).phi, "reports": reports}

    def check(self, out, first):
        _require_same(out, first, ("phi",))

    def reference(self, out):
        cfg = self.cfg.replace(safety=self.cfg.safety / 2.0)
        return out["phi"], flow.run(self.phi0, cfg).snapshot_at(self.T).phi

    def known_defect(self, T=0.05, rows=(0.01, 0.05)):
        """verify_mean_value on the same data at the sizing horizon T = 0.05.

        ``verify_mean_value`` bounds each interval's secant slope of I(t) by
        ``n log(1 + t c)`` taken at the interval's *later* end.  For c < 0
        that end carries the smallest cap on the interval, so a long
        interval fails although its slope passes against the interval's
        largest cap (its earlier end), which is what dI/dt <= n log(1 + t c)
        permits.  The op's intervals are too short to show it; rows at
        t = 0, 0.01, 0.05 do.  Returns the verdict next to both slacks.
        """
        cfg = self.cfg.replace(T=T, snapshot_times=rows, record_every=10 ** 6)
        traj = flow.run(self.phi0, cfg)
        rep = verify.verify_mean_value(traj)
        ts, I = traj.column("t"), traj.column("I")
        n, c = traj.meta["n"], traj.meta["c"]
        slopes = np.diff(I) / np.diff(ts)
        return {"check": rep.name, "T": T, "status": rep.status, "slack_x_tol": rep.slack,
                "slope_slack_later_end_cap": float((n * np.log1p(ts[1:] * c) - slopes).min()),
                "slope_slack_largest_cap": float((n * np.log1p(ts[:-1] * c) - slopes).min())}


class VerifySaved:
    """Save a 4-level bounded run, then `maflow verify` on the directory."""

    name = "verify_saved"
    res, period, gamma, floor, levels, K = 128, 2.0, 1.0, -0.8, 4, 2.0
    T, n_snaps = 0.004, 5

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, 3])
        self.calibration = SpectralUnit(n=1, res=128, reps=100, ref_s=CAL_REF_S[self.name])
        h = self.period / self.res
        base = initial.default_center(maflow.TorusGrid(1, self.res, self.period))
        self.center = tuple(c + h * rng.uniform(-0.25, 0.25) for c in base)
        self.boundaries = tuple(self.T * (i + 1) / self.n_snaps
                                for i in range(self.n_snaps))
        self.rundir = os.path.join(workdir, "verify_saved_run")

    def setup(self):
        grid = maflow.TorusGrid(1, self.res, self.period)
        spec = initial.PotentialSpec("bounded_discontinuous", gamma=self.gamma,
                                     floor=self.floor, center=self.center)
        self.seq = initial.approximation_sequence(spec, grid, self.levels, K=self.K)
        self.cfg = flow.FlowConfig(grid=grid, T=self.T, snapshot_times=self.boundaries,
                                   record_every=1)
        self.trajs = flow.run_levels(self.seq, self.cfg,
                                     meta_extra={"center": list(self.center)})

    def op(self):
        # a fresh directory each op: overwriting the previous op's files in
        # place measured slower and twice as noisy on the sizing host
        if os.path.isdir(self.rundir):
            shutil.rmtree(self.rundir)
        for j, traj in enumerate(self.trajs):
            mio.save_run(traj, os.path.join(self.rundir, f"level_{j:02d}"), self.cfg)
        return {"code": cli.main(["verify", self.rundir])}

    def check(self, out, first):
        if out["code"] not in (0, 4):
            raise GateFailure(f"maflow verify exited with code {out['code']}")
        with open(os.path.join(self.rundir, "verdicts.json")) as fh:
            out["reports"] = [SimpleNamespace(**d) for d in json.load(fh)]
        # the saved run must read back bit for bit
        for j, traj in enumerate(self.trajs):
            back = mio.load_trajectory(os.path.join(self.rundir, f"level_{j:02d}"))
            if self.round_trip_gap(traj, back) != 0.0:
                raise GateFailure(f"level {j} does not round-trip bit-exactly")
        _require_same(out, first, ())

    @staticmethod
    def round_trip_gap(a, b):
        gaps = [np.abs(a.times - b.times).max()]
        for col in a.series:
            gaps.append(np.abs(np.asarray(a.series[col]) - b.series[col]).max())
        if len(a.snapshots) != len(b.snapshots):
            return math.inf
        for sa, sb in zip(a.snapshots, b.snapshots):
            gaps += [abs(sa.t - sb.t), np.abs(sa.phi - sb.phi).max(),
                     np.abs(sa.phi_dot - sb.phi_dot).max(), abs(sa.min_eig - sb.min_eig)]
        return float(max(gaps))

    def reference(self, out):
        """The deepest level as the op left it on disk, against a safety / 2 rerun.

        The round trip itself is gated bit-exact, so its own distance is
        always 0 and cannot carry a relative bound.  Read back from the
        op's files, this field has the producing flow's error as long as
        io is exact, and more as soon as io loses precision.
        """
        back = mio.load_trajectory(os.path.join(self.rundir, f"level_{self.levels - 1:02d}"))
        cfg = self.cfg.replace(safety=self.cfg.safety / 2.0)
        return (back.snapshot_at(self.T).phi,
                flow.run(self.seq.levels[-1], cfg).snapshot_at(self.T).phi)


class StiffDensity:
    """n=1 res 256: semi-implicit SBDF2 in potential form and density form."""

    name = "stiff_density"
    res, dt = 256, 4e-4
    T = 0.04
    gap_tol = 1e-4

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, 4])
        self.calibration = SpectralUnit(n=1, res=128, reps=200, ref_s=CAL_REF_S[self.name])
        # the acceptance gate's modes, shifted as a whole by a random offset: phases
        # that move independently swing err_ref by ~15% from seed to seed
        shift = rng.uniform(0.0, 2.0 * math.pi, size=2)
        self.modes = [(k, _jitter(rng, a, 0.01), p + float(np.dot(k, shift)))
                      for k, a, p in (((1, 0), 0.03, 0.0), ((0, 1), 0.015, 0.4),
                                      ((1, 1), 0.008, 1.1))]
        self.snaps = (self.T / 2.0, self.T)
        self.boundaries = self.snaps

    def setup(self):
        grid = maflow.TorusGrid(1, self.res)
        vals = sum(initial.cos_mode(grid, k, a, p) for k, a, p in self.modes)
        self.phi0 = geometry.PotentialField(grid, vals)
        self.cfg = flow.FlowConfig(grid=grid, T=self.T, dt_policy="semi_implicit",
                                   dt_init=self.dt, snapshot_times=self.snaps,
                                   record_every=500)
        self.grid = grid

    def op(self):
        traj = flow.run(self.phi0, self.cfg)
        trd = logdiff.evolve_density(logdiff.potential_to_density(self.phi0), self.T,
                                     dt_policy="semi_implicit", dt_init=self.dt,
                                     snapshot_times=self.snaps, record_every=500)
        return {"phi": traj.snapshot_at(self.T).phi, "traj": traj, "dens": trd,
                "reports": verify.run_checks(traj)}

    def check(self, out, first):
        gap = max(float(np.abs(geometry.hessian_raw(self.grid, out["traj"].snapshot_at(t).phi)
                               - geometry.hessian_raw(self.grid,
                                                      out["dens"].snapshot_at(t).phi)).max())
                  for t in self.snaps)
        if not gap <= self.gap_tol:
            raise GateFailure(f"potential/density Hessian gap {gap:.3e} > {self.gap_tol}")
        _require_same(out, first, ("phi",))

    def reference(self, out):
        """Same SBDF2 path at dt / 4.

        At this size the path measured first order in dt (its distance to
        dt/4 and dt/8 references), so the reference carries about a quarter
        of the op's error.
        """
        cfg = self.cfg.replace(dt_init=self.dt / 4.0)
        return out["phi"], flow.run(self.phi0, cfg).snapshot_at(self.T).phi


WORKLOADS = {w.name: w for w in (LelongSmoothing, N2Twisted, VerifySaved, StiffDensity)}
