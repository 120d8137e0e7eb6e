"""Quantified pass/fail checks of the flow's a priori estimates.

Every check scans a recorded trajectory (or a pair / family of them) and
reports the worst signed slack of one inequality: slack >= 0 is a clean
pass, and the verdict passes iff slack >= -tolerance.  Checks whose
hypotheses fail (twist sign, data class, variant) report "skip", never
"fail".  Maximum-principle checks assert the sharp constant-free quantity
(e.g. H = t phidot - (phi - phi0) - nt <= 0) rather than a weakened bound
with loose constants.  Multi-part checks (lelong_attenuation, minodot) report
the minimum of their per-part slack/tolerance ratios against tolerance 1,
with the raw numbers in details.

All verifiers are pure over immutable trajectories and deterministic given
trajectory files.
"""

import math
from dataclasses import dataclass, field as dfield

import numpy as np

from . import geometry as geo
from .errors import ConfigError, ConfigMismatch
from .flow import TwistSpec
from .geometry import PotentialField
from .initial import lelong_estimate

# Smallest C making the dot-lower-bound pass on the reference smooth run
# (n=1, res=64, single+double mode data, h=0, chi=0, T=1, A=1); frozen for
# the whole suite, see tests/test_verify.py::test_reference_calibration.
STBELOW_C = 0.0


@dataclass
class VerdictReport:
    name: str
    statement: str
    slack: float
    tolerance: float
    status: str                    # pass | fail | skip
    gated_on: str = ""
    location: tuple = ()
    advisory: bool = False
    details: dict = dfield(default_factory=dict)


def _verdict(name, statement, slack, tol, **kw):
    status = "pass" if slack >= -tol else "fail"
    return VerdictReport(name, statement, float(slack), float(tol), status, **kw)


def _skip(name, statement, reason, advisory=False):
    return VerdictReport(name, statement, None, 0.0, "skip",
                         gated_on=reason, advisory=advisory)


def _elapsed(traj):
    t0 = traj.t0
    return [(s, s.t - t0) for s in traj.snapshots]


def shared_snapshot_times(*trajs):
    """The snapshot times all of ``trajs`` recorded, rounded to 12 decimals, ascending."""
    return sorted(set.intersection(*({round(t, 12) for t in tr.snapshot_times}
                                     for tr in trajs)))


def _worst(pairs):
    """(min, location) of the fields over (t, field) pairs; (inf, ()) for none.

    The location is (t,) + the index of the field's first argmin.  A ``t``
    that is an array labels the field's first axis, so one pair holds a
    whole series and its location is (t[i],) + the rest of the index.  A
    NaN is the worst value: the first one met is the minimum (``np.argmin``
    returns the first NaN, else the first least value)."""
    slack, at = math.inf, None
    for t, field in pairs:
        i = np.argmin(field)
        m = float(field.flat[i])
        if not m >= slack:
            slack, at = m, (t, i, field.shape)
            if math.isnan(m):
                break
    if at is None:
        return slack, ()
    t, i, shape = at
    index = np.unravel_index(i, shape)
    return slack, ((t[index[0]],) + index[1:] if np.ndim(t) else (t,) + index)


def _worst_after_t0(traj, margin):
    """``_worst`` of margin(snap, tau) over the snapshots at tau = t - t0 > 0."""
    return _worst((snap.t, margin(snap, tau)) for snap, tau in _elapsed(traj) if tau > 0.0)


def _worst_margin(traj, name, stmt, margin, tol, details=None):
    """Verdict on the minimum of margin(snap, tau) over the positive-time snapshots.

    margin is >= 0 where the inequality holds; the location is its first argmin."""
    slack, loc = _worst_after_t0(traj, margin)
    if not loc:
        return _skip(name, stmt, "no positive-time snapshots recorded")
    return _verdict(name, stmt, slack, tol, location=loc, details=details or {})


# ---------------------------------------------------------------------------


def verify_comparison(run_low, run_high, tol=1e-6):
    """phi0 <= psi0 pointwise implies phi_t <= psi_t at every snapshot time.

    Without a second run (``run_high`` None) the check reports skip.
    """
    stmt = "phi0 <= psi0  =>  phi_t <= psi_t for all t"
    if run_high is None:
        return _skip("comparison", stmt, "needs two or more levels")
    for key in ("n", "res", "period", "variant", "c", "T", "dt_policy",
                "sup_h", "inf_h"):
        if run_low.meta.get(key) != run_high.meta.get(key):   # io does not require dt_policy
            raise ConfigMismatch(f"paired runs differ in {key!r}")
    lo0 = run_low.snapshots[0].phi
    hi0 = run_high.snapshots[0].phi
    if float((lo0 - hi0).max()) > 1e-12:
        raise ConfigMismatch("initial data are not ordered (phi0 <= psi0 fails)")
    ts = shared_snapshot_times(run_low, run_high)
    slack, loc = _worst((t, run_high.snapshot_at(t).phi - run_low.snapshot_at(t).phi)
                        for t in ts)
    return _verdict("comparison", stmt, slack, tol, location=loc,
                    details={"times": ts})


def verify_sup_bound(traj, tol=1e-6):
    """sup phi_t <= sup phi_0 + (n log 2 - inf h) t."""
    stmt = "sup phi_t <= sup phi_0 + (n log 2 - inf h) * t"
    if traj.meta["variant"] != "cmaf":
        return _skip("sup_bound", stmt, "cmaf-only check")
    n = traj.meta["n"]
    rate = n * math.log(2.0) - traj.meta["inf_h"]
    sup0 = float(traj.column("sup")[0])
    ts = traj.column("t")
    slack, loc = _worst([(ts, sup0 + rate * (ts - traj.t0) - traj.column("sup"))])
    return _verdict("sup_bound", stmt, slack, tol, location=loc,
                    details={"rate": rate, "sup0": sup0})


def _minoinf_cn(n, T):
    """Smallest margin making -1/(2 sqrt t) - C_n < (n/2) log t - n log 2 on (0,T]."""
    tpeak = min(T, 1.0 / (4.0 * n * n))
    g = n * math.log(2.0) - 0.5 * n * math.log(tpeak) - 0.5 / math.sqrt(tpeak)
    return max(0.0, g) + 0.1


def verify_minoinf(traj, tol=1e-5):
    """(1-sqrt t)(phi0 - inf phi0 + 1) - C t + inf phi0 - 1 <= phi_t (bounded data)."""
    stmt = "(1 - sqrt(t)) (phi0 - inf phi0 + 1) - C t + inf phi0 - 1 <= phi_t"
    name = "minoinf"
    dc = traj.meta["data_class"]
    if dc not in ("smooth", "bounded"):
        return _skip(name, stmt, f"needs bounded initial data, got {dc!r}")
    if traj.meta["variant"] != "cmaf":
        return _skip(name, stmt, "cmaf-only check")
    Te = traj.meta["T"] - traj.t0
    tm = traj.meta.get("t_max", math.inf)   # the density form records no t_max
    if not Te > 0.0:
        return _skip(name, stmt, "no positive-time snapshots recorded")
    if math.isfinite(tm) and math.sqrt(Te) >= 0.999 * tm:
        return _skip(name, stmt, "sqrt(T) reaches T_max; subsolution undefined")
    n = traj.meta["n"]
    C = traj.meta["sup_h"] + _minoinf_cn(n, Te)
    phi0 = traj.snapshots[0].phi
    m0 = float(phi0.min())

    def margin(snap, tau):
        return snap.phi - ((1.0 - math.sqrt(tau)) * (phi0 - m0 + 1.0) - C * tau + m0 - 1.0)

    return _worst_margin(traj, name, stmt, margin, tol, details={"C": C})


def _dot_upper(traj, name, stmt, weight, tol):
    """H = weight(t) phidot - (phi - phi0) - n t <= 0 (H(0, .) = 0 identically).

    The margin is the exact negation -H: slack and location are those of max H."""
    n = traj.meta["n"]
    phi0 = traj.snapshots[0].phi

    def margin(snap, tau):
        return -(weight(tau) * snap.phi_dot - (snap.phi - phi0) - n * tau)

    return _worst_margin(traj, name, stmt, margin, tol)


def verify_clef(traj, tol=1e-5):
    """Sharp form of the dot upper bound: t phidot - (phi - phi0) - n t <= 0."""
    stmt = "t * phidot_t - (phi_t - phi_0) - n t <= 0"
    if traj.meta["variant"] != "cmaf":
        return _skip("clef", stmt, "cmaf-only check (see ncmaf_bound)")
    return _dot_upper(traj, "clef", stmt, lambda tau: tau, tol)


def verify_ncmaf_bound(traj, tol=1e-5):
    """Normalized-flow analogue: (1-e^-t) phidot - (phi - phi0) - n t <= 0."""
    stmt = "(1 - e^{-t}) phidot_t - (phi_t - phi_0) - n t <= 0"
    if traj.meta["variant"] != "ncmaf":
        return _skip("ncmaf_bound", stmt, "ncmaf-only check")
    return _dot_upper(traj, "ncmaf_bound", stmt, lambda tau: 1.0 - math.exp(-tau), tol)


def default_stbelow_A(traj):
    tm = traj.meta.get("t_max", math.inf)   # the density form records no t_max
    Te = traj.meta["T"] - traj.t0
    if math.isfinite(tm):
        return 1.05 / (tm - Te)
    return 1.0


def _stbelow_margin(traj, A, C):
    """margin(snap, tau) of phidot >= n log tau - A Osc(phi0) - C, and {A, C, osc0}.

    A None is ``default_stbelow_A(traj)``."""
    if A is None:
        A = default_stbelow_A(traj)
    n = traj.meta["n"]
    phi0 = traj.snapshots[0].phi
    osc0 = float(phi0.max() - phi0.min())

    def margin(snap, tau):
        return snap.phi_dot - (n * math.log(tau) - A * osc0 - C)

    return margin, {"A": A, "C": C, "osc0": osc0}


def calibrate_stbelow(traj, A=None):
    """Smallest C with phidot >= n log t - A Osc(phi0) - C along the run; NaN if phidot has one."""
    margin, _ = _stbelow_margin(traj, A, 0.0)
    worst = _worst_after_t0(traj, margin)[0]
    return worst if math.isnan(worst) else max(0.0, -worst)


def verify_stbelow(traj, A=None, tol=1e-5):
    """phidot_t >= n log t - A Osc(phi0) - C for bounded data, with C = STBELOW_C."""
    stmt = "phidot_t >= n log t - A * Osc(phi0) - C"
    name = "stbelow"
    dc = traj.meta["data_class"]
    if dc not in ("smooth", "bounded"):
        return _skip(name, stmt, f"needs bounded initial data, got {dc!r}")
    if traj.meta["variant"] != "cmaf":
        return _skip(name, stmt, "cmaf-only check")
    margin, details = _stbelow_margin(traj, A, STBELOW_C)
    return _worst_margin(traj, name, stmt, margin, tol, details=details)


def verify_density_monotone(traj, tol=1e-5):
    """chi <= 0: sup f_t nonincreasing and int f log(1+f) dmu nonincreasing."""
    stmt = "sup f_t and int f_t log(1+f_t) dmu nonincreasing (chi <= 0)"
    name = "density_monotone"
    sign = traj.meta["sign_class"]
    if sign not in ("zero", "nonpos"):
        return _skip(name, stmt, f"needs chi <= 0, twist is {sign!r}")
    if len(traj.times) < 2:
        return _skip(name, stmt, "series too short")
    fmax = traj.column("fmax")
    orl = traj.column("orlicz_xlogx")
    ts = traj.column("t")
    d_sup = fmax[:-1] - fmax[1:]
    d_orl = orl[:-1] - orl[1:]
    slack, loc = _worst([(ts[1:], np.minimum(d_sup, d_orl))])
    return _verdict(name, stmt, slack, tol, location=loc,
                    details={"sup_slack": float(d_sup.min()),
                             "orlicz_slack": float(d_orl.min()),
                             "sup_f0_slack": float((fmax[0] - fmax).min())})


def verify_density_min(traj, tol=1e-5):
    """chi >= 0: inf f_t nondecreasing (so f stays away from zero)."""
    stmt = "inf f_t nondecreasing (chi >= 0)"
    name = "density_min"
    sign = traj.meta["sign_class"]
    if sign not in ("zero", "nonneg"):
        return _skip(name, stmt, f"needs chi >= 0, twist is {sign!r}")
    if len(traj.times) < 2:
        return _skip(name, stmt, "series too short")
    fmin = traj.column("fmin")
    slack, loc = _worst([(traj.column("t")[1:], fmin[1:] - fmin[:-1])])
    return _verdict(name, stmt, slack, tol, location=loc,
                    details={"inf_f0_slack": float((fmin - fmin[0]).min())})


def verify_volume_identity(traj):
    """integrate(ma_ratio) = (1 + t c)^n V at every recorded time, to relative 1e-6."""
    stmt = "int det(M_t) omega^n = (1 + t c)^n V"
    n = traj.meta["n"]
    c = traj.meta["c"]
    V = traj.meta["period"] ** (2 * n)
    ts = traj.column("t")
    target = (1.0 + ts * c) ** n * V
    slack, loc = _worst([(ts, -np.abs(traj.column("vol") / target - 1.0))])
    return _verdict("volume_identity", stmt, slack, 1e-6, location=loc,
                    details={"max_rel_err": -slack})


def verify_energy_monotone(traj, tol=1e-4):
    """chi = 0: t -> E(phi_t) is nondecreasing along the flow."""
    stmt = "E(phi_t) nondecreasing (chi = 0)"
    name = "energy_monotone"
    if traj.meta["sign_class"] != "zero":
        return _skip(name, stmt, "needs chi = 0")
    if traj.meta["variant"] != "cmaf":
        return _skip(name, stmt, "cmaf-only check")
    if len(traj.times) < 2:
        return _skip(name, stmt, "series too short")
    E = traj.column("E")
    slack, loc = _worst([(traj.column("t")[1:], E[1:] - E[:-1])])
    return _verdict(name, stmt, slack, tol, location=loc)


def verify_mean_value(traj, slope_tol=1e-3, convex_tol=1e-3):
    """I'(t) <= n log(1+tc), and I convex when chi >= 0 (c > 0, exact part 0)."""
    stmt = "dI/dt <= n log(1 + t c); I convex when chi >= 0"
    name = "mean_value"
    if traj.meta["variant"] != "cmaf":
        return _skip(name, stmt, "cmaf-only check")
    n = traj.meta["n"]
    c = traj.meta["c"]
    ts = traj.column("t")
    I = traj.column("I")
    if len(ts) < 3:
        return _skip(name, stmt, "series too short")
    dt = np.diff(ts)
    slopes = np.diff(I) / dt
    # the interval's largest cap: at its earlier end when c < 0
    caps = n * np.log1p(np.maximum(ts[:-1] * c, ts[1:] * c))
    slope_slack = float((caps - slopes).min())
    details = {"worst_slope_gap": float((slopes - caps).max())}
    slack = slope_slack / slope_tol
    if traj.meta["sign_class"] == "nonneg" and c > 0:
        mid = 2.0 * (slopes[1:] - slopes[:-1]) / (ts[2:] - ts[:-2])
        details["worst_second_difference"] = float(mid.min())
        slack = min(slack, float(mid.min()) / convex_tol)
    return _verdict(name, stmt, slack, 1.0, details=details)


def verify_lelong_attenuation(level_trajs, gamma, beta, phi0_singular, u,
                              probe_times, slope_tol_rel=0.05):
    """Linear attenuation of the log singularity, in two slacks.

    (a) subsolution bound on the deepest level for t < 1/(2 beta):
        (1-2 beta t) phi0 + 2 beta t u + n (t log t - t) <= phi_t
    (b) measured Lelong slope: nu(phi_t) <= (1 - 2 beta t) gamma + tol.

    Reports min(slack_a / 1e-3, slack_b / slope_tol) against tolerance 1, where
    slope_tol = slope_tol_rel * gamma.
    """
    stmt = ("(1-2bt) phi0 + 2bt u + n(t log t - t) <= phi_t ;  "
            "nu(phi_t) <= (1-2bt) gamma")
    name = "lelong_attenuation"
    deep = level_trajs[-1]
    if deep.meta["data_class"] != "lelong":
        return _skip(name, stmt, "needs lelong initial data")
    n = deep.meta["n"]
    alpha = 2.0 * beta
    grid = deep.grid
    center = deep.meta.get("center")   # only a meta_extra records it
    if center is None:
        from .initial import default_center
        center = default_center(grid)
    phi0 = phi0_singular.values
    uv = u.values
    sub_slack, _ = _worst(
        (snap.t, snap.phi - ((1.0 - 2.0 * beta * tau) * phi0 + alpha * tau * uv
                             + n * (tau * math.log(tau) - tau)))
        for snap, tau in _elapsed(deep) if 0.0 < tau < 1.0 / (2.0 * beta))
    slope_tol = slope_tol_rel * gamma
    slope_slack = math.inf
    slopes = {}
    for tau in probe_times:
        snap = deep.snapshot_at(deep.t0 + tau)
        nu = lelong_estimate(PotentialField(grid, snap.phi), center)
        cap = max(0.0, (1.0 - 2.0 * beta * tau)) * gamma
        slopes[tau] = nu
        slope_slack = min(slope_slack, cap - nu)
    l2 = [float(tr.column("f_l2")[-1]) for tr in level_trajs]
    slack = min(sub_slack / 1e-3, slope_slack / slope_tol)
    return _verdict(name, stmt, slack, 1.0,
                    details={"subsolution_slack": sub_slack,
                             "slope_slack": slope_slack,
                             "measured_slopes": {str(k): v for k, v in slopes.items()},
                             "final_f_l2_by_level": l2})


def verify_minodot(original, restarted, tol=1e-5):
    """Semigroup property + dot lower bound from the restart time.

    The restarted run must reproduce the original to 1e-8 at the shared
    snapshot times, after which the stbelow bound (its default A) applies
    with Osc(phi_s).  Without a restarted run (None) the check reports skip.
    """
    stmt = ("restart reproduces the flow;  "
            "phidot_{t+s} >= n log t - A Osc(phi_s) - C")
    name = "minodot"
    if restarted is None:
        return _skip(name, stmt, "needs a restarted run (--restart-dir)")
    s = restarted.t0
    common = shared_snapshot_times(original, restarted)
    if not common:
        return _skip(name, stmt, "no shared snapshot times")
    diff = max(float(np.abs(original.snapshot_at(t).phi
                            - restarted.snapshot_at(t).phi).max())
               for t in common)
    sub = verify_stbelow(restarted, tol=tol)
    if sub.status == "skip":
        return _skip(name, stmt, sub.gated_on)
    slack = min(-diff / 1e-8, sub.slack / tol)
    return _verdict(name, stmt, slack, 1.0,
                    details={"semigroup_sup_diff": diff, "restart_time": s,
                             "stbelow_slack": sub.slack})


def verify_c2_diagnostic(traj, tol=1e-6):
    """Advisory: t log tr(M_t) against Osc(phi_{t/2}), free-constant ratio.

    M_t = (1+tc) I + H(phi_t) + t H(psi_chi) with the trajectory's own
    twist (a bare c from its meta when it carries none).
    """
    stmt = "0 <= t log Tr(omega_t) <= 2A Osc(phi_{t/2}) + C' (constants free)"
    name = "c2_diagnostic"
    twist = traj.twist if traj.twist is not None else TwistSpec(traj.meta["c"])
    snaps = {round(s.t - traj.t0, 12): s for s in traj.snapshots}
    ratios = {}
    lower = math.inf
    for tau, snap in snaps.items():
        half = round(tau / 2.0, 12)
        if tau <= 0.0 or half not in snaps:
            continue
        m, _, _ = geo.metric_raw(traj.grid, snap.phi, twist, snap.t)
        trmax = float(geo.trace_raw(traj.grid, m).max())
        osc_half = float(snaps[half].phi.max() - snaps[half].phi.min())
        val = tau * math.log(max(trmax, 1e-300))
        ratios[tau] = val / (osc_half + 1.0)
        lower = min(lower, val)
    if not ratios:
        return _skip(name, stmt, "no (t, t/2) snapshot pairs recorded",
                     advisory=True)
    return VerdictReport(name, stmt, float(lower), tol, "pass",
                         advisory=True,
                         details={"ratio_by_time": {str(k): v for k, v in ratios.items()},
                                  "max_ratio": max(ratios.values()),
                                  "min_t_log_trace": lower})


def verify_oscillation_levels(level_trajs, t_min=None):
    """Osc(phi_t) stabilizes across approximation levels for zero-Lelong data.

    The initial oscillations grow without bound down the sequence, so the
    meaningful level-independence is that of the Cauchy tail: the spread of
    the deepest 3 levels at fixed t > 0 must fall below 10%.  The full
    per-level oscillation table is reported in details.
    """
    stmt = "Osc(phi_t) spread across the deepest approximation levels <= 10%"
    name = "oscillation_levels"
    if len(level_trajs) < 2:
        return _skip(name, stmt, "needs two or more levels")
    if level_trajs[-1].meta["data_class"] == "lelong":
        return _skip(name, stmt, "positive Lelong mass: oscillation may depend "
                                 "on the level before the smoothing time")
    if t_min is None:
        t_min = 0.25 * (level_trajs[-1].meta["T"] - level_trajs[-1].t0)
    ts = [t for t in shared_snapshot_times(*level_trajs)
          if t - level_trajs[-1].t0 >= t_min]
    if not ts:
        return _skip(name, stmt, "no shared snapshot times past t_min")
    worst = 0.0
    table = {}
    for t in ts:
        oscs = [float(tr.snapshot_at(t).phi.max() - tr.snapshot_at(t).phi.min())
                for tr in level_trajs]
        table[str(t)] = oscs
        deep = oscs[-3:]
        hi, lo = max(deep), min(deep)
        worst = max(worst, (hi - lo) / max(hi, 1e-12))
    return _verdict(name, stmt, 0.10 - worst, 0.0,
                    details={"max_tail_spread": worst, "times": ts,
                             "osc_by_level": table})


# ---------------------------------------------------------------------------

SINGLE_RUN_CHECKS = {
    "sup_bound": verify_sup_bound,
    "minoinf": verify_minoinf,
    "clef": verify_clef,
    "ncmaf_bound": verify_ncmaf_bound,
    "stbelow": verify_stbelow,
    "density_monotone": verify_density_monotone,
    "density_min": verify_density_min,
    "volume_identity": verify_volume_identity,
    "energy_monotone": verify_energy_monotone,
    "mean_value": verify_mean_value,
    "c2_diagnostic": verify_c2_diagnostic,
}

# every check `maflow verify` runs by name, each ``verify_<name>``: the
# single-run checks on the deepest level, two across the levels, and
# minodot against a restart
CHECK_NAMES = (*SINGLE_RUN_CHECKS, "comparison", "oscillation_levels", "minodot")


def validate_check_names(names, known=CHECK_NAMES):
    """Raise ConfigError naming the first of ``names`` that is not in ``known``."""
    for name in names:
        if name not in known:
            raise ConfigError(f"unknown check {name!r}; the checks are {', '.join(known)}")


def run_checks(traj, names=None):
    names = list(SINGLE_RUN_CHECKS) if names is None else names
    validate_check_names(names, SINGLE_RUN_CHECKS)
    return [SINGLE_RUN_CHECKS[name](traj) for name in names]
