"""The estimate checkers: slacks, gating, determinism."""

import math
from dataclasses import asdict

import numpy as np
import pytest

import maflow as mf
from maflow.elliptic import solve_ma
from maflow.errors import ConfigMismatch
from maflow.flow import (FlowConfig, Trajectory, TwistSpec, continue_run, normalize_h,
                         run)
from maflow.geometry import PotentialField, hessian_raw, mollify_raw
from maflow.initial import (PotentialSpec, approximation_sequence, cos_mode,
                            default_center, sample_potential)
from maflow import verify as ver


def grid1(res=64, period=1.0):
    return mf.TorusGrid(1, res, period)


def mode(grid, kvec, amp, phase=0.0):
    return PotentialField(grid, cos_mode(grid, kvec, amp, phase))


SNAPS = (0.025, 0.05, 0.1, 0.2, 0.4)


@pytest.fixture(scope="module")
def smooth_run():
    g = grid1()
    phi0 = PotentialField(g, cos_mode(g, (1, 0), 0.03)
                          + cos_mode(g, (0, 2), 0.008, 0.5))
    cfg = FlowConfig(grid=g, T=0.4, snapshot_times=SNAPS, record_every=50)
    return run(phi0, cfg), cfg


@pytest.fixture(scope="module")
def shifted_run(smooth_run):
    """smooth_run's data + 1.0 under the same configuration."""
    tr, cfg = smooth_run
    return run(PotentialField(tr.grid, tr.snapshots[0].phi + 1.0), cfg)


@pytest.fixture(scope="module")
def flat_run():
    g = grid1()
    cfg = FlowConfig(grid=g, T=0.4, snapshot_times=SNAPS, record_every=50)
    return run(PotentialField(g, np.zeros(g.shape)), cfg)


@pytest.fixture(scope="module")
def fixed_point_run():
    g = grid1()
    h = normalize_h(mode(g, (1, 0), 0.1))
    u, _ = solve_ma(0.0, grid=g, h=h)
    cfg = FlowConfig(grid=g, h=h, T=0.4, snapshot_times=SNAPS, record_every=50)
    return run(u, cfg), cfg


@pytest.fixture(scope="module")
def ncmaf_run():
    g = grid1()
    phi0 = mode(g, (1, 0), 0.03)
    cfg = FlowConfig(grid=g, variant="ncmaf", T=0.4, snapshot_times=SNAPS,
                     record_every=50)
    return run(phi0, cfg), cfg


class TestComparison:
    def test_identical_runs_have_zero_slack(self, smooth_run):
        tr, _ = smooth_run
        rep = ver.verify_comparison(tr, tr)
        assert rep.status == "pass" and rep.slack == 0.0

    def test_constant_shift_gives_constant_gap(self, smooth_run, shifted_run):
        tr, hi = smooth_run[0], shifted_run
        rep = ver.verify_comparison(tr, hi)
        assert rep.slack >= 1.0 - 1e-8
        d = hi.snapshot_at(0.4).phi - tr.snapshot_at(0.4).phi
        assert np.abs(d - 1.0).max() <= 1e-8

    def test_nested_levels_pass(self):
        g = grid1(64, period=2.0)
        seq = approximation_sequence(PotentialSpec("lelong", gamma=0.5), g, 3)
        cfg = FlowConfig(grid=g, T=0.2, snapshot_times=(0.1, 0.2), record_every=100)
        trs = [run(lev, cfg, data_class="lelong") for lev in seq.levels]
        for lo, hi in zip(trs[1:], trs[:-1]):
            assert ver.verify_comparison(lo, hi).status == "pass"

    def test_config_mismatch_detected(self, smooth_run, ncmaf_run):
        with pytest.raises(ConfigMismatch):
            ver.verify_comparison(smooth_run[0], ncmaf_run[0])

    def test_unordered_data_detected(self, smooth_run):
        tr, cfg = smooth_run
        lower = run(PotentialField(tr.grid, tr.snapshots[0].phi - 0.5), cfg)
        with pytest.raises(ConfigMismatch):
            ver.verify_comparison(tr, lower)


class TestSupBound:
    def test_flat_data_bounded_by_rate_line(self, flat_run):
        tr = flat_run
        # sup phi_t <= n t log 2 with sup phi_0 = inf h = 0
        assert ver.verify_sup_bound(tr).status == "pass"
        assert (tr.column("sup") <= tr.column("t") * math.log(2.0) + 1e-9).all()

    def test_fixed_point_slack_grows_linearly(self, fixed_point_run):
        tr, _ = fixed_point_run
        rep = ver.verify_sup_bound(tr)
        assert rep.status == "pass" and rep.slack >= 0.0

    def test_generic_smooth(self, smooth_run):
        assert ver.verify_sup_bound(smooth_run[0]).status == "pass"

    def test_tampered_series_fails(self, smooth_run):
        tr, _ = smooth_run
        sup = tr.series["sup"].copy()
        sup[1:] += 1.0   # inflate every recorded value after time zero
        bad = mf.Trajectory(tr.grid, dict(tr.meta), {**tr.series, "sup": sup}, tr.snapshots)
        assert ver.verify_sup_bound(bad).status == "fail"


class TestMinoinf:
    def test_flat_data(self, flat_run):
        assert ver.verify_minoinf(flat_run).status == "pass"

    def test_bounded_discontinuous_passes(self):
        g = grid1(64, period=2.0)
        seq = approximation_sequence(
            PotentialSpec("bounded_discontinuous", gamma=1.0, floor=-0.8), g, 3)
        cfg = FlowConfig(grid=g, T=0.4, snapshot_times=SNAPS, record_every=200)
        tr = run(seq.levels[-1], cfg, data_class="bounded")
        assert ver.verify_minoinf(tr).status == "pass"

    def test_lelong_data_skipped_with_reason(self):
        g = grid1(64, period=2.0)
        seq = approximation_sequence(PotentialSpec("lelong", gamma=0.5), g, 3)
        cfg = FlowConfig(grid=g, T=0.1, snapshot_times=(0.1,), record_every=100)
        tr = run(seq.levels[-1], cfg, data_class="lelong")
        rep = ver.verify_minoinf(tr)
        assert rep.status == "skip" and "bounded" in rep.gated_on


class TestClef:
    def test_smooth_run_passes(self, smooth_run):
        rep = ver.verify_clef(smooth_run[0])
        assert rep.status == "pass"

    def test_fixed_point_H_is_minus_nt(self, fixed_point_run):
        tr, _ = fixed_point_run
        rep = ver.verify_clef(tr)
        # H = t*phidot - nt with phidot ~ 0: slack ~ +n*t_min at the argmax
        assert rep.status == "pass"
        assert rep.slack >= 0.9 * SNAPS[0]

    def test_initial_snapshot_contributes_zero(self, smooth_run):
        tr, _ = smooth_run
        s0 = tr.snapshots[0]
        H0 = 0.0 * s0.phi_dot - (s0.phi - s0.phi) - 0.0
        assert np.abs(H0).max() == 0.0

    def test_gated_off_ncmaf(self, ncmaf_run):
        assert ver.verify_clef(ncmaf_run[0]).status == "skip"


class TestNcmafBound:
    def test_stationary_zero(self):
        g = grid1()
        cfg = FlowConfig(grid=g, variant="ncmaf", T=0.4, snapshot_times=SNAPS,
                         record_every=100)
        rep = ver.verify_ncmaf_bound(run(PotentialField(g, np.zeros(g.shape)), cfg))
        assert rep.status == "pass"
        assert rep.slack >= 0.9 * SNAPS[0]   # H = -nt exactly

    def test_generic_run_passes(self, ncmaf_run):
        assert ver.verify_ncmaf_bound(ncmaf_run[0]).status == "pass"

    def test_gated_off_cmaf(self, smooth_run):
        assert ver.verify_ncmaf_bound(smooth_run[0]).status == "skip"


class TestStBelow:
    def test_reference_calibration(self):
        # the frozen constant is the smallest C on the documented reference run
        g = grid1()
        phi0 = PotentialField(g, cos_mode(g, (1, 0), 0.03)
                              + cos_mode(g, (0, 2), 0.008, 0.5))
        cfg = FlowConfig(grid=g, T=1.0,
                         snapshot_times=(0.05, 0.1, 0.2, 0.4, 0.7, 1.0),
                         record_every=200)
        tr = run(phi0, cfg)
        assert ver.default_stbelow_A(tr) == 1.0   # untwisted: no T_max
        cstar = ver.calibrate_stbelow(tr)
        assert cstar == pytest.approx(ver.STBELOW_C, abs=1e-12)
        assert ver.verify_stbelow(tr).status == "pass"

    def test_bounded_run_passes_with_frozen_constant(self):
        g = grid1(64, period=2.0)
        seq = approximation_sequence(
            PotentialSpec("bounded_discontinuous", gamma=1.0, floor=-0.8), g, 3)
        cfg = FlowConfig(grid=g, T=0.4, snapshot_times=SNAPS, record_every=300)
        tr = run(seq.levels[-1], cfg, data_class="bounded")
        assert ver.verify_stbelow(tr).status == "pass"

    def test_dt_refinement_leaves_verdict_unchanged(self):
        g = grid1(32)
        phi0 = mode(g, (1, 0), 0.03)
        reps = []
        for safety in (0.9, 0.45):
            cfg = FlowConfig(grid=g, T=0.4, snapshot_times=SNAPS,
                             record_every=100, safety=safety)
            reps.append(ver.verify_stbelow(run(phi0, cfg)))
        assert reps[0].status == reps[1].status == "pass"
        assert abs(reps[0].slack - reps[1].slack) < 1e-5

    def test_gated_on_unbounded_data(self):
        g = grid1(64, period=2.0)
        seq = approximation_sequence(PotentialSpec("lelong", gamma=0.5), g, 3)
        cfg = FlowConfig(grid=g, T=0.1, snapshot_times=(0.1,), record_every=100)
        tr = run(seq.levels[-1], cfg, data_class="lelong")
        assert ver.verify_stbelow(tr).status == "skip"


class TestDensityChecks:
    def test_fixed_point_series_constant(self, fixed_point_run):
        tr, _ = fixed_point_run
        assert np.abs(tr.column("fmax") - tr.column("fmax")[0]).max() < 1e-9
        assert ver.verify_density_monotone(tr).status == "pass"
        assert ver.verify_density_min(tr).status == "pass"

    def test_generic_untwisted_run(self, smooth_run):
        tr, _ = smooth_run
        assert ver.verify_density_monotone(tr).status == "pass"
        assert ver.verify_density_min(tr).status == "pass"
        assert ver.verify_density_monotone(tr).details["sup_f0_slack"] >= -1e-5

    def test_mixed_twist_skips_both_gates(self):
        g = grid1()
        tw = TwistSpec(c=0.0, psi_chi=mode(g, (1, 0), 0.002))
        cfg = FlowConfig(grid=g, twist=tw, T=0.1, snapshot_times=(0.1,),
                         record_every=50)
        tr = run(mode(g, (0, 1), 0.01), cfg)
        assert tr.meta["sign_class"] == "mixed"
        assert ver.verify_density_monotone(tr).status == "skip"
        assert ver.verify_density_min(tr).status == "skip"

    def test_nonpos_twist_monotone_only(self):
        g = grid1()
        cfg = FlowConfig(grid=g, twist=TwistSpec(c=-0.5), T=0.4,
                         snapshot_times=(0.4,), record_every=50)
        tr = run(mode(g, (1, 0), 0.02), cfg)
        assert ver.verify_density_monotone(tr).status == "pass"
        assert ver.verify_density_min(tr).status == "skip"


class TestEnergyAndMeanValue:
    def test_energy_monotone_untwisted(self, smooth_run):
        assert ver.verify_energy_monotone(smooth_run[0]).status == "pass"

    def test_mean_value_slope_untwisted(self, smooth_run):
        assert ver.verify_mean_value(smooth_run[0]).status == "pass"

    def test_mean_value_convex_with_positive_twist(self):
        g = grid1()
        cfg = FlowConfig(grid=g, twist=TwistSpec(c=0.5), T=0.4,
                         snapshot_times=(0.4,), record_every=20)
        tr = run(mode(g, (1, 0), 0.02), cfg)
        rep = ver.verify_mean_value(tr)
        assert rep.status == "pass"
        assert "worst_second_difference" in rep.details


    @staticmethod
    def _series(c, slopes, ts):
        # a bare trajectory carrying the mean value I(t) with given slopes
        I = np.concatenate([[0.0], np.cumsum(np.diff(ts) * slopes)])
        meta = {"variant": "cmaf", "n": 2, "c": c, "sign_class": "nonpos"}
        return Trajectory(mf.TorusGrid(2, 8), meta, {"t": ts, "I": I}, [])

    def test_mean_value_cap_is_the_intervals_largest_when_c_negative(self):
        # slopes on the caps at each interval's earlier end: within
        # n log(1 + t c) on every interval, but above the later-end cap
        c, n = -0.5, 2
        ts = np.linspace(0.0, 0.1, 6)
        slopes = n * np.log1p(ts[:-1] * c)
        assert np.all(slopes > n * np.log1p(ts[1:] * c) + 10 * 1e-3)
        assert ver.verify_mean_value(self._series(c, slopes, ts)).status == "pass"
        over = slopes + 2e-3
        assert ver.verify_mean_value(self._series(c, over, ts)).status == "fail"


class TestMinodot:
    def test_restart_matches_and_bound_holds(self, smooth_run):
        tr, cfg = smooth_run
        restarted = continue_run(tr, 0.1, cfg)
        rep = ver.verify_minodot(tr, restarted)
        assert rep.status == "pass"
        assert rep.details["semigroup_sup_diff"] <= 1e-10

    def test_restart_at_zero_equals_stbelow(self, smooth_run):
        tr, cfg = smooth_run
        rep = ver.verify_minodot(tr, tr)
        sub = ver.verify_stbelow(tr)
        assert rep.status == sub.status == "pass"
        assert rep.details["stbelow_slack"] == pytest.approx(sub.slack)


class TestC2Diagnostic:
    def test_flat_run_trace_is_constant(self, flat_run):
        rep = ver.verify_c2_diagnostic(flat_run)
        assert rep.advisory and rep.status == "pass"
        assert abs(rep.details["max_ratio"]) < 1e-8   # tr = n, log tr = 0

    def test_smooth_run_ratio_bounded(self, smooth_run):
        rep = ver.verify_c2_diagnostic(smooth_run[0])
        assert rep.status == "pass"
        assert rep.details["max_ratio"] < 1.0

    def test_singular_run_ratio_bounded_after_smoothing(self):
        g = grid1(64, period=2.0)
        seq = approximation_sequence(PotentialSpec("lelong", gamma=0.5), g, 3)
        cfg = FlowConfig(grid=g, T=0.4, snapshot_times=(0.1, 0.2, 0.4),
                         record_every=200)
        tr = run(seq.levels[-1], cfg, data_class="lelong")
        rep = ver.verify_c2_diagnostic(tr)
        assert rep.status == "pass" and math.isfinite(rep.details["max_ratio"])


class TestC2DiagnosticTwist:
    """c2 builds M_t = (1+tc) I + H(phi_t) + t H(psi_chi) with the run's own twist."""

    @pytest.fixture(scope="class")
    def twisted(self):
        g = grid1(32)
        psi = PotentialField(g, 0.01 * np.cos(2 * np.pi * g.coord(1)) + 0.0 * g.coord(0))
        cfg = FlowConfig(grid=g, twist=TwistSpec(0.0, psi), T=0.2,
                         snapshot_times=(0.1, 0.2), record_every=10)
        return run(mode(g, (1, 0), 0.02), cfg), cfg

    @staticmethod
    def expected(tr, psi):
        # the one (t, t/2) pair is t = 0.2; trace of I + H(phi_t + t psi_chi)
        snap = tr.snapshot_at(0.2)
        H = hessian_raw(tr.grid, snap.phi + 0.2 * psi.values)
        return 0.2 * math.log(float((1.0 + H).max()))

    def test_in_memory_run(self, twisted):
        tr, cfg = twisted
        rep = ver.verify_c2_diagnostic(tr)
        want = self.expected(tr, cfg.twist.psi_chi)
        assert rep.details["min_t_log_trace"] == pytest.approx(want, rel=1e-12)
        assert tr.twist is cfg.twist

    def test_saved_then_loaded_run(self, twisted, tmp_path):
        from maflow import io as mio
        tr, cfg = twisted
        mio.save_run(tr, tmp_path / "run", cfg)
        back = mio.load_trajectory(tmp_path / "run")
        rep = ver.verify_c2_diagnostic(back)
        want = self.expected(tr, cfg.twist.psi_chi)
        assert rep.details["min_t_log_trace"] == pytest.approx(want, rel=1e-12)
        assert back.twist.c == cfg.twist.c
        assert np.array_equal(back.twist.psi_chi.values, cfg.twist.psi_chi.values)

    def test_untwisted_saved_run_unchanged(self, smooth_run, tmp_path):
        from maflow import io as mio
        tr, cfg = smooth_run
        mio.save_run(tr, tmp_path / "run", cfg)
        back = mio.load_trajectory(tmp_path / "run")
        assert back.twist is None
        assert asdict(ver.verify_c2_diagnostic(back)) == asdict(ver.verify_c2_diagnostic(tr))


class TestOscillationLevels:
    def test_zero_lelong_deep_levels_agree(self):
        g = grid1(64, period=2.0)
        seq = approximation_sequence(
            PotentialSpec("zero_lelong_unbounded", a=0.5), g, 6, K=3.0, ratio=0.55)
        cfg = FlowConfig(grid=g, T=0.2, snapshot_times=(0.2,), record_every=100)
        trs = [run(lev, cfg, data_class="zero_lelong") for lev in seq.levels]
        rep = ver.verify_oscillation_levels(trs)
        assert rep.status == "pass"
        assert rep.details["max_tail_spread"] <= 0.10

    def test_lelong_gated(self):
        g = grid1(64, period=2.0)
        seq = approximation_sequence(PotentialSpec("lelong", gamma=0.5), g, 3)
        cfg = FlowConfig(grid=g, T=0.1, snapshot_times=(0.1,), record_every=100)
        trs = [run(lev, cfg, data_class="lelong") for lev in seq.levels]
        assert ver.verify_oscillation_levels(trs).status == "skip"


class TestVolumeIdentity:
    def test_twisted_run(self):
        g = grid1()
        cfg = FlowConfig(grid=g, twist=TwistSpec(c=-0.5), T=0.4, record_every=20)
        tr = run(mode(g, (1, 0), 0.02), cfg)
        assert ver.verify_volume_identity(tr).status == "pass"


class TestLelongAttenuation:
    def test_full_suite_on_levels(self):
        # desk-size variant of the acceptance scenario (see test_acceptance)
        g = grid1(64, period=2.0)
        gamma, beta = 0.5, 0.9
        spec = PotentialSpec("lelong", gamma=gamma)
        phi0 = sample_potential(spec, g)
        seq = approximation_sequence(spec, g, 3, K=2.0)
        probes = (0.1, 0.25, 0.4)
        cfg = FlowConfig(grid=g, T=0.4, snapshot_times=probes, record_every=400)
        trs = [run(lev, cfg, data_class="lelong",
                   meta_extra={"center": list(default_center(g))})
               for lev in seq.levels]
        sm = PotentialField(g, mollify_raw(g, phi0.values, 2 * g.h))
        u, _ = solve_ma(2 * beta, g=PotentialField(g, -2 * beta * sm.values), u0=sm)
        rep = ver.verify_lelong_attenuation(trs, gamma, beta, sm, u,
                                            probe_times=probes)
        assert rep.status == "pass"
        assert rep.details["subsolution_slack"] > 0
        slopes = rep.details["measured_slopes"]
        assert slopes["0.1"] > slopes["0.4"]

    def test_t0_bound_touches_data(self):
        # at t=0 the bound is phi0 itself; levels sit above the sample
        g = grid1(64, period=2.0)
        spec = PotentialSpec("lelong", gamma=0.5)
        phi0 = sample_potential(spec, g)
        seq = approximation_sequence(spec, g, 3)
        for lev in seq.levels:
            assert (lev.phi.values - phi0.values).min() > -1e-9


class TestDeterminism:
    def test_verdicts_repeatable(self, smooth_run):
        tr, _ = smooth_run
        a = ver.run_checks(tr)
        b = ver.run_checks(tr)
        for ra, rb in zip(a, b):
            assert asdict(ra) == asdict(rb)

    def test_every_skip_never_fail(self, smooth_run, ncmaf_run):
        for tr in (smooth_run[0], ncmaf_run[0]):
            for rep in ver.run_checks(tr):
                assert rep.status in ("pass", "skip")

    def test_zero_horizon_run_skips_what_needs_a_later_time(self):
        # one row and one snapshot, at t = 0
        g = grid1(16)
        tr = run(mode(g, (1, 0), 0.02), FlowConfig(grid=g, T=0.0))
        reps = {rep.name: rep for rep in ver.run_checks(tr)}
        assert len(tr.times) == 1 and all(r.status in ("pass", "skip") for r in reps.values())
        for name in ("minoinf", "density_monotone", "density_min", "mean_value",
                     "energy_monotone"):
            assert reps[name].status == "skip" and reps[name].gated_on, name
        assert reps["energy_monotone"].gated_on == "series too short"


@pytest.fixture(scope="module")
def variants():
    # record_every scales with the step count so the physical recording
    # cadence matches across the three discretizations
    out = {}
    for tag, res, safety, rec in (("base", 32, 0.9, 50),
                                  ("res2", 64, 0.9, 200),
                                  ("dt2", 32, 0.45, 100)):
        g = grid1(res)
        phi0 = PotentialField(g, cos_mode(g, (1, 0), 0.03)
                              + cos_mode(g, (0, 2), 0.008, 0.5))
        cfg = FlowConfig(grid=g, T=0.4, snapshot_times=SNAPS,
                         record_every=rec, safety=safety)
        ncfg = FlowConfig(grid=g, variant="ncmaf", T=0.4,
                          snapshot_times=SNAPS, record_every=rec,
                          safety=safety)
        out[tag] = (run(phi0, cfg), run(phi0, ncfg))
    return out


class TestResolutionStability:
    """Doubling res or halving dt may not flip any verdict
    (one scenario per verifier)."""

    @pytest.mark.parametrize("check,tol,which", [
        (ver.verify_sup_bound, 1e-6, 0),
        (ver.verify_clef, 1e-5, 0),
        (ver.verify_minoinf, 1e-5, 0),
        (ver.verify_stbelow, 1e-5, 0),
        (ver.verify_density_monotone, 1e-5, 0),
        (ver.verify_density_min, 1e-5, 0),
        (ver.verify_energy_monotone, 1e-4, 0),
        (ver.verify_ncmaf_bound, 1e-5, 1),
    ])
    def test_slack_stable_under_refinement(self, variants, check, tol, which):
        # the verdict may not flip: either the slack moves by less than the
        # gating tolerance, or it sits so far inside the pass region on both
        # grids that the tolerance is irrelevant
        base = check(variants["base"][which])
        assert base.status == "pass"
        for tag in ("res2", "dt2"):
            other = check(variants[tag][which])
            assert other.status == "pass"
            stable = (abs(other.slack - base.slack) < tol
                      or min(other.slack, base.slack) >= 10.0 * tol)
            assert stable, (tag, base, other)


class TestViolationsAreCaught:
    def test_doctored_phidot_fails_clef(self, smooth_run):
        tr, _ = smooth_run
        import copy
        bad = mf.Trajectory(tr.grid, dict(tr.meta), tr.series,
                            [copy.deepcopy(s) for s in tr.snapshots])
        bad.snapshots[-1].phi_dot = bad.snapshots[-1].phi_dot + 10.0
        assert ver.verify_clef(bad).status == "fail"

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_phidot_fails_stbelow(self, smooth_run, value):
        tr, _ = smooth_run
        import copy
        bad = mf.Trajectory(tr.grid, dict(tr.meta), tr.series,
                            [copy.deepcopy(s) for s in tr.snapshots])
        bad.snapshots[2].phi_dot[3, 5] = value
        rep = ver.verify_stbelow(bad)
        assert rep.status == "fail" and rep.location == (bad.snapshots[2].t, 3, 5)
        assert not math.isfinite(ver.calibrate_stbelow(bad))   # nan, or inf for -inf

    def test_worst_keeps_the_first_nan(self):
        ones = np.ones((4, 4))
        nan, minus_inf = ones.copy(), ones.copy()
        nan[1, 2] = np.nan
        minus_inf[0, 3] = -np.inf
        slack, loc = ver._worst([(0.1, ones), (0.2, nan), (0.3, minus_inf), (0.4, nan)])
        assert math.isnan(slack) and loc == (0.2, 1, 2)
        assert ver._worst([(0.1, ones), (0.3, minus_inf)]) == (-np.inf, (0.3, 0, 3))
        assert ver._worst([]) == (math.inf, ())

    def test_unordered_levels_fail_comparison(self, smooth_run, shifted_run):
        # swap roles: the higher run passed as the lower one must fail
        with pytest.raises(ConfigMismatch):
            ver.verify_comparison(shifted_run, smooth_run[0])
