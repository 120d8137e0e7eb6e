"""Flow integration: fixed points, comparison, equivariance, convergence."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import fft as sfft

import maflow as mf
from maflow import flow, logdiff
from maflow.elliptic import solve_ma
from maflow.errors import (ConfigError, KaehlerConeViolation, PositivityLoss,
                           StepSizeUnderflow)
from maflow.flow import (FlowConfig, TwistSpec, continue_run, limit_potential, normalize_h,
                         run, run_levels, t_max)
from maflow.geometry import PotentialField, hessian_raw
from maflow.initial import PotentialSpec, approximation_sequence, cos_mode
from maflow.logdiff import evolve_density, potential_to_density
from maflow.oracles import heat_decay_factor


def grid1(res=32, period=1.0):
    return mf.TorusGrid(1, res, period)


def mode(grid, kvec, amp, phase=0.0):
    return PotentialField(grid, cos_mode(grid, kvec, amp, phase))


class TestTMax:
    def test_nonnegative_twist_lives_forever(self):
        assert t_max(TwistSpec(c=0.0)) == math.inf
        assert t_max(TwistSpec(c=0.3)) == math.inf

    def test_negative_twist_kills_the_class(self):
        assert t_max(TwistSpec(c=-0.25)) == pytest.approx(4.0)


class TestConfigValidation:
    def test_replace_keeps_every_field(self):
        g = mf.TorusGrid(2, 8)
        psi = PotentialField(g, cos_mode(g, (1, 0, 0, 1), 0.01))
        cfg = FlowConfig(grid=g, variant="cmaf", twist=TwistSpec(c=-0.5, psi_chi=psi),
                         h=normalize_h(PotentialField(g, cos_mode(g, (0, 1, 0, 0), 0.05))),
                         T=0.2, dt_policy="semi_implicit", dt_init=3e-3, dt_min=1e-9,
                         safety=0.7, record_every=3, snapshot_times=(0.1, 0.05),
                         dealias=True, stab_factor=2.0)
        new = cfg.replace()
        for f in dataclasses.fields(FlowConfig):
            assert getattr(new, f.name) is getattr(cfg, f.name) or \
                getattr(new, f.name) == getattr(cfg, f.name), f.name
        assert cfg.replace(T=0.1).T == 0.1 and cfg.replace(T=0.1).stab_factor == 2.0

    def test_horizon_must_stay_nef(self):
        g = grid1()
        with pytest.raises(ConfigError):
            FlowConfig(grid=g, twist=TwistSpec(c=-1.0), T=1.0)

    def test_standing_normalization_guard(self):
        g = grid1()
        with pytest.raises(ConfigError):
            FlowConfig(grid=g, twist=TwistSpec(c=-0.4), T=2.0)

    def test_ncmaf_needs_trivial_twist(self):
        g = grid1()
        with pytest.raises(ConfigError):
            FlowConfig(grid=g, variant="ncmaf", twist=TwistSpec(c=0.1), T=0.5)

    @pytest.mark.parametrize("variant, grid", [("cmaf", mf.TorusGrid(1, 32)),
                                               ("cmaf", mf.TorusGrid(1, 16, 2.0)),
                                               ("ncmaf", mf.TorusGrid(1, 32))])
    def test_psi_chi_on_another_grid_rejected(self, variant, grid):
        psi = mode(grid1(16), (1, 0), 0.01)
        with pytest.raises(ConfigError, match="different grid"):
            FlowConfig(grid=grid, variant=variant, twist=TwistSpec(c=0.0, psi_chi=psi), T=0.1)

    @pytest.mark.parametrize("snaps", [(0.01, 0.01 + 1e-13), (0.02 - 1e-13,)])
    def test_boundaries_closer_than_dt_min_are_landed(self, snaps):
        # two snapshot times, or a snapshot time and T, less than dt_min apart
        # are each landed exactly, under every policy of both flow forms
        g = mf.TorusGrid(1, 16)
        phi = mode(g, (1, 0), 0.02)
        kw = dict(T=0.02, dt_init=1e-3, snapshot_times=snaps)
        for policy in ("rk4", "rk4_fixed", "semi_implicit"):
            tr = run(phi, FlowConfig(grid=g, dt_policy=policy, **kw))
            assert tr.snapshot_times == [0.0, *snaps, 0.02], policy
            assert tr.times[-1] == 0.02
        for policy in ("rk4", "semi_implicit"):
            tr = evolve_density(potential_to_density(phi), dt_policy=policy, **kw)
            assert tr.snapshot_times == [0.0, *snaps, 0.02], policy
            assert tr.times[-1] == 0.02

    def test_duplicate_snapshot_times_still_merge(self):
        g = mf.TorusGrid(1, 16)
        cfg = FlowConfig(grid=g, T=0.02, snapshot_times=(0.01, 0.01, 0.02, 0.05))
        tr = run(mode(g, (1, 0), 0.02), cfg)
        assert tr.snapshot_times == [0.0, 0.01, 0.02]

    def test_first_boundary_closer_than_dt_min_to_t0_is_landed(self):
        # a first boundary (snapshot time or T) less than dt_min after t0 is
        # landed exactly, under every policy of both flow forms
        g = mf.TorusGrid(1, 16)
        phi = mode(g, (1, 0), 0.02)
        kw = dict(T=0.02, dt_init=1e-3)
        for policy in ("rk4", "rk4_fixed", "semi_implicit"):
            cfg = FlowConfig(grid=g, dt_policy=policy, snapshot_times=(1e-13,), **kw)
            tr = run(phi, cfg)
            assert tr.snapshot_times == [0.0, 1e-13, 0.02] and tr.times[-1] == 0.02, policy
            tr = run(phi, cfg.replace(snapshot_times=()), t0=0.02 - 1e-13)
            assert tr.snapshot_times == [0.02 - 1e-13, 0.02], policy
            assert tr.times[-1] == 0.02
        for policy in ("rk4", "semi_implicit"):
            tr = evolve_density(potential_to_density(phi), dt_policy=policy,
                                snapshot_times=(1e-13,), **kw)
            assert tr.snapshot_times == [0.0, 1e-13, 0.02] and tr.times[-1] == 0.02, policy

    @pytest.mark.parametrize("kw", [
        {"T": math.nan}, {"dt_init": math.nan}, {"dt_min": math.nan}, {"safety": math.nan},
        {"stab_factor": math.nan}, {"stab_factor": math.inf},
        {"snapshot_times": (0.01, math.nan)}, {"twist": TwistSpec(c=math.nan)},
        {"variant": "ncmaf", "T": math.inf},   # built only: this run would never end
    ])
    def test_non_finite_setting_rejected(self, kw):
        with pytest.raises(ConfigError, match="not finite"):
            FlowConfig(grid=grid1(16), **kw)

    @pytest.mark.parametrize("value", [-1.0, -0.25, -5e-324])
    def test_negative_stab_factor_rejected(self, value):
        # beta0 = stab_factor / min_eig < 0 anti-damps the SBDF2 step: at n = 1 res 32,
        # dt 1e-3, -1.0 used to end in a KaehlerConeViolation at t = 0.005
        with pytest.raises(ConfigError, match="stab_factor"):
            FlowConfig(grid=grid1(32), T=0.02, dt_policy="semi_implicit", dt_init=1e-3,
                       stab_factor=value)

    def test_zero_stab_factor_allowed(self):
        g = grid1(32)
        cfg = FlowConfig(grid=g, T=0.02, dt_policy="semi_implicit", dt_init=1e-3,
                         stab_factor=0.0)
        assert run(mode(g, (1, 0), 0.02), cfg).times[-1] == 0.02

    def test_h_renormalized(self):
        g = grid1()
        cfg = FlowConfig(grid=g, h=PotentialField(g, np.full(g.shape, 0.7)), T=0.1)
        assert abs(float(np.exp(cfg.h.values).mean()) - 1.0) < 1e-12


def rhs(t, phi, config):
    """The flow's right-hand side at (t, phi), as the driver evaluates it."""
    return flow._initial_state(flow._Stepper(config), phi, t).phi_dot


def step(phi0, config):
    """The state after one step of the one driver from the initial state at t = 0."""
    st = flow._Stepper(config)
    return flow._advance(st, flow._initial_state(st, phi0, 0.0), math.inf)[0]


class TestRhs:
    def test_flat_fixed_point(self):
        g = grid1()
        cfg = FlowConfig(grid=g, T=0.5)
        assert np.abs(rhs(0.0, PotentialField(g, np.zeros(g.shape)), cfg)).max() == 0.0

    def test_ncmaf_constant_gives_constant(self):
        g = grid1()
        cfg = FlowConfig(grid=g, variant="ncmaf", T=0.5)
        a = 0.37
        r = rhs(0.0, PotentialField(g, np.full(g.shape, a)), cfg)
        assert np.allclose(r, a)

    def test_small_amplitude_log_expansion(self):
        # |log(1 - x) + x| <= x^2 for |x| <= 1/2, x = pi^2 eps cos
        g = grid1(64)
        eps = 0.02
        cfg = FlowConfig(grid=g, T=0.5)
        r = rhs(0.0, mode(g, (1, 0), eps), cfg)
        lin = -np.pi ** 2 * eps * np.broadcast_to(
            np.cos(2 * np.pi * g.coord(0)), g.shape)
        assert np.abs(r - lin).max() <= np.pi ** 4 * eps ** 2

    def test_cone_violation_propagates(self):
        g = grid1()
        cfg = FlowConfig(grid=g, T=0.5)
        with pytest.raises(KaehlerConeViolation):
            rhs(0.0, mode(g, (1, 0), 0.2), cfg)


    @staticmethod
    def reject_landing(monkeypatch):
        """The t of every parts call; the 5th, the first step's landed candidate, rejects."""
        orig = flow._Stepper.parts
        calls = []

        def parts(self, t, phi):
            calls.append(t)
            if len(calls) == 5:
                raise flow._Reject(-1.0)
            return orig(self, t, phi)

        monkeypatch.setattr(flow._Stepper, "parts", parts)
        return calls

    def test_landing_rejection_is_typed(self, monkeypatch):
        # one fixed step lands on T: the initial state, 3 stage evaluations,
        # then the landed candidate's at T, a fixed-step rejection from t = 0
        g = grid1()
        cfg = FlowConfig(grid=g, T=1e-4, dt_policy="rk4_fixed", dt_init=1e-4)
        calls = self.reject_landing(monkeypatch)
        with pytest.raises(KaehlerConeViolation) as exc:
            run(mode(g, (1, 0), 0.02), cfg)
        assert calls == [0.0, 5e-5, 5e-5, 1e-4, 1e-4]
        assert exc.value.t == 0.0 and exc.value.min_eig == -1.0

    def test_landing_rejection_halves_under_rk4(self, monkeypatch):
        # the rejected landing step is halved, and the next step lands on T exactly
        g = grid1()
        cfg = FlowConfig(grid=g, T=1e-4, dt_policy="rk4", dt_init=1e-4, record_every=1)
        calls = self.reject_landing(monkeypatch)
        tr = run(mode(g, (1, 0), 0.02), cfg)
        assert len(calls) == 13
        assert list(tr.times) == [0.0, 5e-5, 1e-4]


class TestStepDriver:
    """One driver for every dt policy; dt_min bounds the policy's step and each halving."""

    # a boundary 1e-10 past the 20th step end, closer than dt_min = 1e-9
    REMAINDER = dict(T=0.0100000001, dt_init=5e-4, dt_min=1e-9)

    @pytest.mark.parametrize("policy", ["rk4", "rk4_fixed", "semi_implicit"])
    def test_last_step_to_a_boundary_may_be_shorter_than_dt_min(self, policy):
        g = grid1(16)
        tr = run(mode(g, (1, 0), 0.02), FlowConfig(grid=g, dt_policy=policy, **self.REMAINDER))
        assert tr.times[-1] == self.REMAINDER["T"]
        assert 0.0 < tr.column("dt")[-1] < self.REMAINDER["dt_min"]

    @pytest.mark.parametrize("policy", ["rk4", "semi_implicit"])
    def test_density_form_lands_the_same_remainder(self, policy):
        g = grid1(16)
        tr = evolve_density(potential_to_density(mode(g, (1, 0), 0.02)),
                            dt_policy=policy, **self.REMAINDER)
        assert tr.times[-1] == self.REMAINDER["T"]

    @pytest.mark.parametrize("form", ["potential", "density"])
    @pytest.mark.parametrize("policy, evals", [("rk4", 4), ("rk4_fixed", 4),
                                               ("semi_implicit", 1)])
    def test_a_landing_step_evaluates_once_where_it_ends(self, form, policy, evals,
                                                         monkeypatch):
        # three RK4 stages and the candidate, or the SBDF2 candidate alone;
        # the landed candidate is evaluated at the boundary, and only there
        g = grid1(16)
        cfg = FlowConfig(grid=g, T=1e-4, dt_policy=policy, dt_init=1e-4)
        phi0 = mode(g, (1, 0), 0.02)
        if form == "potential":
            st = flow._Stepper(cfg)
            st.state = flow._initial_state(st, phi0, 0.0)
        else:
            st = logdiff._DensityStepper(cfg, potential_to_density(phi0))
        orig, calls = type(st).parts, []

        def parts(self, t, phi):
            calls.append(t)
            return orig(self, t, phi)

        monkeypatch.setattr(type(st), "parts", parts)
        st.state, dt = flow._advance(st, st.state, cfg.T)
        assert st.state.t == dt == cfg.T
        assert len(calls) == evals and calls[-1] == cfg.T

    def test_dt_init_below_dt_min_rejected(self):
        with pytest.raises(ConfigError, match="dt_min"):
            FlowConfig(grid=grid1(16), dt_init=1e-10, dt_min=1e-9)

    def test_fixed_dt_cone_exit_carries_t_and_min_eig(self):
        # dt_init far above the CFL step: the second fixed step leaves the cone
        g = grid1(16)
        cfg = FlowConfig(grid=g, T=0.1, dt_policy="rk4_fixed", dt_init=2e-2)
        with pytest.raises(KaehlerConeViolation) as exc:
            run(mode(g, (1, 0), 0.02), cfg)
        assert exc.value.t == pytest.approx(0.04)
        assert exc.value.min_eig < 0.0


class TestStep:
    def test_fixed_point_is_stationary(self):
        g = grid1()
        h = normalize_h(mode(g, (1, 0), 0.1))
        u, _ = solve_ma(0.0, grid=g, h=h)
        cfg = FlowConfig(grid=g, h=h, T=1.0)
        st = step(u, cfg)
        assert np.abs(st.phi.values - u.values).max() <= 1e-9

    def test_zero_stays_zero_under_ncmaf(self):
        g = grid1()
        cfg = FlowConfig(grid=g, variant="ncmaf", T=1.0)
        st = step(PotentialField(g, np.zeros(g.shape)), cfg)
        assert np.abs(st.phi.values).max() == 0.0

    def test_small_amplitude_step_matches_heat_oracle(self):
        # one step of the nonlinear flow = heat decay + O(eps^2)
        g = grid1(64)
        eps = 5e-3
        cfg = FlowConfig(grid=g, T=1.0, dt_policy="rk4_fixed", dt_init=1e-4)
        st = step(mode(g, (1, 0), eps), cfg)
        exact = eps * heat_decay_factor(g, (1, 0), 1e-4) * np.broadcast_to(
            np.cos(2 * np.pi * g.coord(0)), g.shape)
        # leading nonlinear correction is -x^2/2 with x = pi^2 eps cos
        assert np.abs(st.phi.values - exact).max() <= np.pi ** 4 * eps ** 2 * 1e-4


class TestRun:
    def test_zero_horizon_keeps_initial_state_only(self):
        g = grid1()
        tr = run(mode(g, (1, 0), 0.02), FlowConfig(grid=g, T=0.0))
        assert len(tr.times) == 1 and len(tr.snapshots) == 1

    def test_determinism(self):
        g = grid1()
        cfg = FlowConfig(grid=g, T=0.12, snapshot_times=(0.06,), record_every=7)
        a = run(mode(g, (1, 0), 0.03), cfg)
        b = run(mode(g, (1, 0), 0.03), cfg)
        assert np.array_equal(a.times, b.times)
        for k in a.series:
            assert np.array_equal(a.series[k], b.series[k])

    def test_constant_shift_equivariance(self):
        g = grid1()
        cfg = FlowConfig(grid=g, T=0.15, snapshot_times=(0.15,))
        phi = mode(g, (1, 0), 0.03)
        a = run(phi, cfg)
        b = run(PotentialField(g, phi.values + 2.3), cfg)
        d = b.snapshot_at(0.15).phi - a.snapshot_at(0.15).phi
        assert np.abs(d - 2.3).max() < 1e-10

    def test_volume_identity_along_twisted_run(self):
        g = grid1()
        tw = TwistSpec(c=-0.5, psi_chi=mode(g, (0, 1), 0.004))
        cfg = FlowConfig(grid=g, twist=tw, T=0.5, record_every=10)
        tr = run(mode(g, (1, 0), 0.02), cfg)
        target = (1.0 - 0.5 * tr.column("t")) ** 1 * g.volume
        assert np.abs(tr.column("vol") / target - 1.0).max() < 1e-6

    def test_comparison_principle_between_ordered_runs(self):
        g = grid1()
        cfg = FlowConfig(grid=g, T=0.2, snapshot_times=(0.1, 0.2))
        lo = run(mode(g, (1, 0), 0.03), cfg)
        hi = run(PotentialField(g, cos_mode(g, (1, 0), 0.03) + 0.4
                                + 0.05 * (1.0 + cos_mode(g, (0, 1), 1.0))), cfg)
        for t in (0.1, 0.2):
            d = hi.snapshot_at(t).phi - lo.snapshot_at(t).phi
            assert d.min() > -1e-6

    def test_snapshot_at_returns_the_nearest_snapshot(self):
        # two snapshots 5e-10 apart both lie within snapshot_at's 1e-9 of
        # either time: each snapshot's own t must return that snapshot
        g = mf.TorusGrid(1, 16)
        cfg = FlowConfig(grid=g, T=0.02, dt_min=1e-9, snapshot_times=(0.01, 0.01 + 5e-10))
        tr = run(mode(g, (1, 0), 0.02), cfg)
        assert tr.snapshot_times == [0.0, 0.01, 0.01 + 5e-10, 0.02]
        assert all(tr.snapshot_at(s.t) is s for s in tr.snapshots)

    def test_restart_reproduces_series(self):
        g = grid1()
        cfg = FlowConfig(grid=g, T=0.2, snapshot_times=(0.08, 0.14, 0.2),
                         record_every=5)
        full = run(mode(g, (1, 0), 0.03), cfg)
        tail = continue_run(full, 0.08, cfg)
        # series rows after the restart time coincide to 1e-12
        mask = full.times >= 0.08 - 1e-15
        assert len(tail.times) == int(mask.sum())
        assert np.abs(full.times[mask] - tail.times).max() < 1e-14
        for k in ("sup", "inf", "E", "fmax", "min_eig"):
            assert np.abs(full.series[k][mask] - tail.series[k]).max() <= 1e-12

    def test_restart_reproduces_semi_implicit_series(self):
        g = grid1()
        cfg = FlowConfig(grid=g, T=0.2, dt_policy="semi_implicit", dt_init=1e-3,
                         snapshot_times=(0.08, 0.14, 0.2), record_every=10)
        full = run(mode(g, (1, 0), 0.03), cfg)
        tail = continue_run(full, 0.08, cfg)
        mask = full.times >= 0.08 - 1e-15
        for k in ("sup", "inf", "E"):
            assert np.abs(full.series[k][mask] - tail.series[k]).max() <= 1e-12

    def test_timestep_fourth_order_convergence(self):
        g = grid1(16)
        phi = mode(g, (1, 0), 0.03)
        sols = []
        for dt in (4e-4, 2e-4, 1e-4):
            cfg = FlowConfig(grid=g, T=0.04, dt_policy="rk4_fixed", dt_init=dt)
            sols.append(run(phi, cfg).snapshot_at(0.04).phi)
        e1 = np.abs(sols[0] - sols[1]).max()
        e2 = np.abs(sols[1] - sols[2]).max()
        order = math.log2(e1 / e2)
        assert 3.5 <= order <= 4.2

    def test_ncmaf_rescaling_identity(self):
        # normalized flow at t  <->  e^t * (twisted flow, c=-1) at 1 - e^-t
        g = grid1(32)
        phi0 = mode(g, (1, 0), 0.03)
        tn = 0.4
        s = 1.0 - math.exp(-tn)
        trn = run(phi0, FlowConfig(grid=g, variant="ncmaf", T=tn,
                                   snapshot_times=(tn,)))
        trc = run(phi0, FlowConfig(grid=g, twist=TwistSpec(c=-1.0), T=s,
                                   snapshot_times=(s,)))
        mn = 1.0 + hessian_raw(g, trn.snapshot_at(tn).phi)
        mc = (1.0 - s) + hessian_raw(g, trc.snapshot_at(s).phi)
        rel = np.abs(mn - math.exp(tn) * mc) / np.abs(math.exp(tn) * mc)
        assert rel.max() < 1e-4

    def test_semi_implicit_tracks_rk4(self):
        g = grid1(32)
        phi0 = mode(g, (1, 0), 0.03)
        a = run(phi0, FlowConfig(grid=g, T=0.2, snapshot_times=(0.2,)))
        b = run(phi0, FlowConfig(grid=g, T=0.2, dt_policy="semi_implicit",
                                 dt_init=1e-4, snapshot_times=(0.2,)))
        # splitting error of the stabilized scheme, not spectral accuracy
        assert np.abs(a.snapshot_at(0.2).phi - b.snapshot_at(0.2).phi).max() < 5e-5


@pytest.fixture(scope="module")
def level_runs():
    g = mf.TorusGrid(1, 64, period=2.0)
    spec = PotentialSpec("zero_lelong_unbounded", a=0.5)
    # truncation depth below the sample minimum: decrements are then
    # mollification-driven and fall like ratio^2
    seq = approximation_sequence(spec, g, 4, K=3.0, ratio=0.55)
    cfg = FlowConfig(grid=g, T=0.1, snapshot_times=(0.05, 0.1),
                     record_every=50)
    return seq, cfg, run_levels(seq, cfg)


class TestLevelsAndLimit:

    def test_levels_stay_ordered_along_the_flow(self, level_runs):
        _, _, trajs = level_runs
        for t in (0.05, 0.1):
            for hi, lo in zip(trajs[:-1], trajs[1:]):
                gap = (hi.snapshot_at(t).phi - lo.snapshot_at(t).phi).min()
                assert gap > -1e-6

    def test_limit_decrements_fall_geometrically(self, level_runs):
        _, _, trajs = level_runs
        _, rep = limit_potential(trajs, t=0.1)
        assert rep.converged
        assert all(r <= 0.7 for r in rep.ratios)
        assert rep.monotone

    def test_limit_below_every_level(self, level_runs):
        _, _, trajs = level_runs
        lim, _ = limit_potential(trajs, t=0.1)
        for tr in trajs:
            assert (lim.values - tr.snapshot_at(0.1).phi).max() <= 1e-9


class TestTwistedN2:
    def test_twist_caches_unchanged_after_run(self, monkeypatch):
        # the metric is built in place on the Hessian; the cached twist
        # Hessian and psi_chi itself must only be read
        g = mf.TorusGrid(2, 8)
        psi = PotentialField(g, cos_mode(g, (1, 0, 0, 1), 0.01, 0.3))
        psi_before = psi.values.copy()
        hpsi_before = hessian_raw(g, psi.values)
        phi0 = PotentialField(g, cos_mode(g, (1, 0, 0, 0), 0.03)
                              + cos_mode(g, (0, 0, 0, 1), 0.015, 1.1))
        cfg = FlowConfig(grid=g, twist=TwistSpec(c=-0.5, psi_chi=psi), T=0.01,
                         snapshot_times=(0.005,), record_every=5)
        made = []
        orig_init = flow._Stepper.__init__

        def init(self, config):
            orig_init(self, config)
            made.append(self)

        monkeypatch.setattr(flow._Stepper, "__init__", init)
        tr = run(phi0, cfg)
        assert len(made) == 1 and tr.snapshots[-1].t == 0.01
        assert np.array_equal(psi.values, psi_before)
        for got, want in zip(made[0].hpsi, hpsi_before):
            assert np.array_equal(got, want)

    def test_twist_hessian_cached_once_and_read_only(self, monkeypatch):
        g = mf.TorusGrid(2, 8)
        psi = PotentialField(g, cos_mode(g, (1, 0, 0, 1), 0.01, 0.3))
        phi0 = PotentialField(g, cos_mode(g, (1, 0, 0, 0), 0.03))
        fresh = FlowConfig(grid=g, twist=TwistSpec(c=-0.5, psi_chi=psi), T=0.01,
                           snapshot_times=(0.005,), record_every=5)
        want = run(phi0, fresh)
        orig = flow.geo.hessian_raw
        seen = []

        def counting(grid, arr, spec=None, **kw):
            seen.append(arr is psi.values)
            return orig(grid, arr, spec=spec, **kw)

        monkeypatch.setattr(flow.geo, "hessian_raw", counting)
        cfg = FlowConfig(grid=g, twist=TwistSpec(c=-0.5, psi_chi=psi), T=0.01,
                         snapshot_times=(0.005,), record_every=5)
        runs = [run(phi0, cfg), run(phi0, cfg.replace(record_every=3))]
        assert sum(seen) == 1
        for tr in runs:
            for a, b in zip(tr.snapshots, want.snapshots):
                assert np.array_equal(a.phi, b.phi) and np.array_equal(a.phi_dot, b.phi_dot)
        cached = cfg.twist.hpsi
        for got, ref in zip(cached, orig(g, psi.values)):
            assert np.array_equal(got, ref) and not got.flags.writeable
        with pytest.raises(ValueError):
            cached[0][0, 0, 0, 0] = 1.0


    def test_eig_range_evaluated_once_per_twist_and_grid(self, monkeypatch):
        g = mf.TorusGrid(2, 8)
        psi = PotentialField(g, cos_mode(g, (1, 0, 0, 1), 0.01, 0.3))
        phi0 = PotentialField(g, cos_mode(g, (1, 0, 0, 0), 0.03))
        orig = flow.geo.eigmin_raw
        passes = []

        def counting(grid, m):
            passes.append(1)
            return orig(grid, m)

        monkeypatch.setattr(flow.geo, "eigmin_raw", counting)
        tw = TwistSpec(c=-0.5, psi_chi=psi)
        cfg = FlowConfig(grid=g, twist=tw, T=0.01, snapshot_times=(0.005,), record_every=5)
        first = len(passes)
        assert first > 0
        for T in (0.004, 0.006, 0.008):
            cfg = cfg.replace(T=T)
        cfg.meta()
        tw.sign_class
        run(phi0, cfg)
        assert len(passes) == first
        # the whole-grid expressions, bit for bit
        hpsi = tw.hpsi
        want = (float(orig(g, mf.geometry.raw_combine(g, -0.5, hpsi)).min()),
                -float(orig(g, mf.geometry.raw_combine(g, 0.5, hpsi, -1.0)).min()))
        assert tw.eig_range == want
        # a new c is a new twist, with its own range
        new = dataclasses.replace(tw, c=0.25)
        assert new.eig_range == TwistSpec(c=0.25, psi_chi=psi).eig_range
        assert len(passes) > first


class TestFrozenValues:
    """TorusGrid and TwistSpec are frozen values whose derived arrays are cached properties."""

    GRID_PROPERTIES = ("hessian_multipliers", "flat_symbol", "ksq_full", "dealias_mask")
    TWIST_PROPERTIES = ("hpsi", "eig_range")

    def test_equal_grids_compare_and_hash_equal(self):
        a, b = mf.TorusGrid(2, 8, 1), mf.TorusGrid(2.0, 8.0, 1.0)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != mf.TorusGrid(2, 8, 2.0) and a != mf.TorusGrid(1, 8)
        a.hessian_multipliers   # a filled cache changes neither
        assert a == b and hash(a) == hash(b)
        assert repr(mf.TorusGrid(1, 16)) == "TorusGrid(n=1, res=16, period=1.0)"

    def test_fields_cannot_be_assigned(self):
        g = mf.TorusGrid(2, 8)
        tw = TwistSpec(c=-0.5, psi_chi=PotentialField(g, cos_mode(g, (1, 0, 0, 1), 0.01)))
        for value, name, new in ((g, "res", 16), (g, "period", 2.0), (tw, "c", 0.25),
                                 (tw, "psi_chi", None)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, new)

    @pytest.mark.parametrize("n", [1, 2])
    def test_a_second_read_returns_the_same_object(self, n):
        g = mf.TorusGrid(n, 8)
        psi = PotentialField(g, cos_mode(g, (1,) + (0,) * (2 * n - 1), 0.01))
        for value, names in ((g, self.GRID_PROPERTIES),
                             (TwistSpec(c=-0.5, psi_chi=psi), self.TWIST_PROPERTIES)):
            for name in names:
                assert getattr(value, name) is getattr(value, name), name


class TestSBDF2Kernel:
    @staticmethod
    def textbook(sym, u, n, hist, dt, dt_full, beta0):
        if dt >= dt_full * (1.0 - 1e-12) and hist.get("ok"):
            lhs = 3.0 - 2.0 * dt * beta0 * sym
            num = (4.0 * u - hist["u_spec"]
                   + 2.0 * dt * (2.0 * n - hist["n_spec"])
                   + 2.0 * dt * beta0 * sym * (hist["u_spec"] - 2.0 * u))
            return num / lhs
        return (u + dt * n - dt * beta0 * sym * u) / (1.0 - dt * beta0 * sym)

    @staticmethod
    def assert_same_bits(got, want):
        """Every nonzero real and imaginary part of ``want`` is in ``got`` to the bit.

        The parts are compared as uint64 views, so a changed sign of zero
        would show too.  A part that is exactly zero in ``want`` must be zero
        in ``got`` but may carry the other sign: the kernel multiplies by the
        reciprocal of the real denominator where the textbook divides, and
        numpy's complex-by-real multiply and divide give a zero part the sign
        of different intermediate products.
        """
        got, want = got.view(np.float64), want.view(np.float64)
        nonzero = want != 0.0
        assert np.array_equal(got.view(np.uint64)[nonzero], want.view(np.uint64)[nonzero])
        assert np.all(got[~nonzero] == 0.0)

    def test_bit_identical_to_textbook_expressions(self):
        g = mf.TorusGrid(1, 256)
        sym = g.flat_symbol
        rng = np.random.default_rng(3)
        # real parts planted as +0.0 or -0.0 in every spectrum, so the
        # corresponding parts of the result are exactly zero
        planted = rng.choice(sym.size, 13, replace=False)
        signs = np.where(rng.random(planted.size) < 0.5, 0.0, -0.0)

        def spectrum():
            spec = rng.normal(size=sym.shape) + 1j * rng.normal(size=sym.shape)
            spec.real.flat[planted] = signs
            return spec

        dt, beta0 = 4e-4, 1.7
        hist = {}
        # backward Euler (empty history), SBDF2, a shortened step (backward Euler again)
        for step_dt in (dt, dt, dt, 0.3 * dt):
            u, n = spectrum(), spectrum()
            u0, n0 = u.copy(), n.copy()
            want = self.textbook(sym, u, n, hist, step_dt, dt, beta0)
            got, new_hist = flow._sbdf2_spectrum(sym, u, n, hist, step_dt, dt, beta0)
            assert np.all(want.real.flat[planted] == 0.0)
            self.assert_same_bits(got, want)
            assert u.tobytes() == u0.tobytes() and n.tobytes() == n0.tobytes()
            assert new_hist["ok"] == (step_dt == dt) and new_hist["u_spec"] is u
            hist = new_hist

    @pytest.mark.parametrize("n, res, transforms", [(1, 64, 2), (2, 8, 5)], ids=["n1", "n2"])
    def test_potential_step_transform_count(self, monkeypatch, n, res, transforms):
        g = mf.TorusGrid(n, res)
        cfg = FlowConfig(grid=g, T=1.0, dt_policy="semi_implicit", dt_init=1e-3)
        st = flow._Stepper(cfg)
        state = flow._initial_state(st, mode(g, (1, 0) + (0,) * (2 * n - 2), 0.03), 0.0)
        state, _ = flow._advance(st, state, 1.0)      # restart step
        counts = []
        for name in ("rfftn", "irfftn", "fftn", "ifftn"):
            orig = getattr(sfft, name)
            monkeypatch.setattr(sfft, name,
                                lambda *a, _o=orig, **k: counts.append(1) or _o(*a, **k))
        for _ in range(4):
            state, _ = flow._advance(st, state, 1.0)
        # the forward transform of the right-hand side and the Hessian's inverse
        # (four at n = 2); phi is not formed
        assert len(counts) == transforms * 4

    def test_n2_hessian_of_the_spectrum_matches_its_real_field(self):
        # the Hessian of the spectrum an SBDF2 step solves for and that of the
        # real field it stands for agree to round-off
        g = mf.TorusGrid(2, 8)
        rng = np.random.default_rng(11)
        for _ in range(4):
            u, n1, n2 = (g.fft(a * rng.normal(size=g.shape)) for a in (0.01, 1.0, 1.0))
            spec, hist = flow._sbdf2_spectrum(g.flat_symbol, u, n1, {}, 1e-3, 1e-3, 1.3)
            spec, _ = flow._sbdf2_spectrum(g.flat_symbol, spec, n2, hist, 1e-3, 1e-3, 1.3)
            got = hessian_raw(g, None, spec=spec)
            want = hessian_raw(g, g.ifft(spec))
            scale = max(float(np.abs(w).max()) for w in want)
            for a, b in zip(got, want):
                assert np.abs(a - b).max() <= 1e-14 * scale


class TestSemiImplicitOrder:
    @pytest.mark.parametrize("form", ["potential", "density"])
    def test_second_order_through_snapshot_restarts(self, form):
        # three snapshots inside the run, each a restart of the SBDF2 history;
        # an inconsistent restart costs O(dt) each, and the order reads ~0.9
        g = grid1(32)
        phi0 = PotentialField(g, cos_mode(g, (1, 0), 0.03) + cos_mode(g, (0, 1), 0.015, 0.4)
                              + cos_mode(g, (1, 1), 0.008, 1.1))
        T = 0.04
        kw = dict(dt_policy="semi_implicit", snapshot_times=(0.01, 0.02, 0.03),
                  record_every=1000)
        sols = []
        for dt in (2e-3, 1e-3, 5e-4):
            if form == "potential":
                tr = run(phi0, FlowConfig(grid=g, T=T, dt_init=dt, **kw))
            else:
                tr = evolve_density(potential_to_density(phi0), T, dt_init=dt, **kw)
            sols.append(tr.snapshot_at(T).phi)
        order = math.log2(np.abs(sols[0] - sols[1]).max() / np.abs(sols[1] - sols[2]).max())
        assert 1.8 <= order <= 2.2, f"{form} semi_implicit order {order}"


class TestSpectralState:
    """SBDF2 keeps phi as a spectrum; forming it where read changes no result.

    Here at n = 1 res 32 under cmaf; the subclasses below run ncmaf and n = 2 res 8.
    """

    n, res, variant = 1, 32, "cmaf"

    def grid(self):
        return mf.TorusGrid(self.n, self.res)

    def config(self, g, **kw):
        return FlowConfig(grid=g, variant=self.variant, T=0.02, dt_policy="semi_implicit",
                          dt_init=1e-3, snapshot_times=(0.0071, 0.0133), **kw)

    @staticmethod
    def initial(g):
        pad = (0,) * (2 * g.n - 2)
        k2 = (1, 1) if g.n == 1 else (1, 0, 0, 1)
        return PotentialField(g, cos_mode(g, (1, 0) + pad, 0.02) + cos_mode(g, k2, 0.01, 1.1))

    def test_rows_do_not_change_the_run(self):
        g = self.grid()
        dense = run(self.initial(g), self.config(g, record_every=1))
        sparse = run(self.initial(g), self.config(g, record_every=10 ** 6))
        assert len(sparse.times) == 4 and len(dense.times) > 20
        for a, b in zip(dense.snapshots, sparse.snapshots):
            assert a.t == b.t and np.array_equal(a.phi, b.phi)
            assert np.array_equal(a.phi_dot, b.phi_dot) and a.min_eig == b.min_eig
        rows = [int(np.flatnonzero(dense.times == t)[0]) for t in sparse.times]
        for name, col in sparse.series.items():
            assert np.array_equal(dense.series[name][rows], col), name

    @pytest.mark.parametrize("record_every", [1, 10 ** 6])
    def test_restart_reproduces_the_later_series(self, record_every):
        g = self.grid()
        cfg = self.config(g, record_every=record_every)
        parent = run(self.initial(g), cfg)
        tail = continue_run(parent, 0.0071, cfg)
        later = parent.times >= 0.0071
        assert np.array_equal(parent.times[later], tail.times)
        for name, col in tail.series.items():
            # the restart's first row has no step behind it
            start = 1 if name == "dt" else 0
            assert np.array_equal(parent.series[name][later][start:], col[start:]), name
        for a, b in zip(parent.snapshots[1:], tail.snapshots):
            assert a.t == b.t and np.array_equal(a.phi, b.phi)
            assert np.array_equal(a.phi_dot, b.phi_dot)

    def test_step_forms_phi_from_its_spectrum(self):
        g = self.grid()
        cfg = self.config(g).replace(T=1.0, snapshot_times=())
        u = self.initial(g)
        s0 = flow._initial_state(flow._Stepper(cfg), u, 0.0)
        # the first step restarts the history: stabilized backward Euler
        spec, _ = flow._sbdf2_spectrum(g.flat_symbol, g.fft(u.values), g.fft(s0.phi_dot),
                                       {}, 1e-3, 1e-3, cfg.stab_factor / s0.min_eig)
        new = step(u, cfg)
        assert new.t == 1e-3 and new.step_count == 1
        assert np.array_equal(new.phi.values, g.ifft(spec))
        assert new.phi.values is new.phi.values   # formed once


class TestSpectralStateNcmaf(TestSpectralState):
    variant = "ncmaf"


class TestSpectralStateN2(TestSpectralState):
    n, res = 2, 8


class TestSpectralStateN2Ncmaf(TestSpectralStateN2):
    variant = "ncmaf"


class TestDealias:
    def test_two_thirds_rule_run_stays_consistent(self):
        g = grid1(32)
        phi0 = mode(g, (1, 0), 0.03)
        cfg = FlowConfig(grid=g, T=0.1, snapshot_times=(0.1,), dealias=True,
                         record_every=20)
        tr = run(phi0, cfg)
        assert np.abs(tr.column("vol") - g.volume).max() < 1e-8
        plain = run(phi0, FlowConfig(grid=g, T=0.1, snapshot_times=(0.1,),
                                     record_every=20))
        # low-frequency data: filtering changes almost nothing
        assert np.abs(tr.snapshot_at(0.1).phi
                      - plain.snapshot_at(0.1).phi).max() < 1e-6


class TestSingularPointDecrements:
    def test_pole_decrements_shrink_with_level_after_smoothing(self):
        g = mf.TorusGrid(1, 64, period=2.0)
        spec = PotentialSpec("lelong", gamma=0.6)
        seq = approximation_sequence(spec, g, 4, K=2.0)
        t = 0.35   # past gamma/2: the pit has filled
        cfg = FlowConfig(grid=g, T=t, snapshot_times=(t,), record_every=200)
        trajs = run_levels(seq, cfg)
        pit = np.unravel_index(np.argmin(seq.levels[-1].phi.values),
                               g.shape)
        decs = [abs(a.snapshot_at(t).phi[pit] - b.snapshot_at(t).phi[pit])
                for a, b in zip(trajs[:-1], trajs[1:])]
        assert all(d2 < d1 for d1, d2 in zip(decs[:-1], decs[1:]))


class TestSmoothLevelClosenessAlongFlow:
    def test_levels_within_delta_squared_at_positive_time(self):
        # the comparison principle contracts sup differences, so flowed
        # levels stay within the O(delta^2) initial gaps
        g = grid1(32)
        spec = PotentialSpec("smooth", modes=[((1, 0), 0.03, 0.0)])
        seq = approximation_sequence(spec, g, 4)
        cfg = FlowConfig(grid=g, T=0.1, snapshot_times=(0.1,), record_every=100)
        trajs = run_levels(seq, cfg)
        for j, (hi, lo) in enumerate(zip(trajs[:-1], trajs[1:])):
            gap = np.abs(hi.snapshot_at(0.1).phi - lo.snapshot_at(0.1).phi).max()
            assert gap <= 8.0 * seq.levels[j].delta ** 2


class TestNoZeroLengthStep:
    def test_step_at_or_past_the_boundary_is_an_underflow(self):
        g = grid1(16)
        st = flow._Stepper(FlowConfig(grid=g, T=1.0))
        state = flow._initial_state(st, mode(g, (1, 0), 0.03), 0.0)
        while state.t < 1.0:
            state, _ = flow._advance(st, state, 1.0)
        assert state.t == 1.0
        for bound in (1.0, 0.5):
            with pytest.raises(StepSizeUnderflow) as err:
                flow._advance(st, state, bound)
            assert err.value.t == 1.0


class TestNonFiniteCandidate:
    """An RK4 candidate with a NaN or inf is rejected like a cone exit.

    The fourth stage's rate is poisoned at one point, so every stage passes
    and only the candidate itself is non-finite.
    """

    @staticmethod
    def poison(monkeypatch, cls, value, when):
        """Put ``value`` at one point of r4 in the k-th RK4 candidate where when(k) holds."""
        rate, calls = cls.rate, []

        def poisoned(st, rhs):
            r = rate(st, rhs)
            calls.append(1)
            if len(calls) % 4 == 0 and when(len(calls) // 4):
                r = r.copy()
                r.flat[r.size // 3] = value
            return r

        monkeypatch.setattr(cls, "rate", poisoned)
        return calls

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("n, res", [(1, 16), (2, 8)])
    def test_rk4_halves_the_step(self, monkeypatch, value, n, res):
        g = mf.TorusGrid(n, res)
        calls = self.poison(monkeypatch, flow._Stepper, value, lambda k: k == 1)
        tr = run(mode(g, (1,) + (0,) * (2 * n - 1), 0.02),
                 FlowConfig(grid=g, T=3e-4, dt_init=1e-4, record_every=1))
        assert np.allclose(tr.times, [0.0, 5e-5, 1.5e-4, 2.5e-4, 3e-4], rtol=0.0, atol=1e-15)
        assert len(calls) == 4 * 5   # the rejected candidate and four steps
        assert np.isfinite(tr.snapshot_at(3e-4).phi).all()

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rk4_ends_in_step_size_underflow(self, monkeypatch, value):
        g = grid1(16)
        calls = self.poison(monkeypatch, flow._Stepper, value, lambda k: True)
        with pytest.raises(StepSizeUnderflow) as err:
            run(mode(g, (1, 0), 0.02), FlowConfig(grid=g, T=1e-3, dt_init=1e-4, dt_min=3e-5))
        assert err.value.t == 0.0
        assert len(calls) == 4 * 2   # 1e-4 and 5e-5; 2.5e-5 is below dt_min

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rk4_fixed_is_a_cone_violation_carrying_t(self, monkeypatch, value):
        g = grid1(16)
        calls = self.poison(monkeypatch, flow._Stepper, value, lambda k: k == 3)
        with pytest.raises(KaehlerConeViolation) as err:
            run(mode(g, (1, 0), 0.02),
                FlowConfig(grid=g, T=1e-3, dt_policy="rk4_fixed", dt_init=1e-4))
        assert err.value.t == pytest.approx(2e-4, abs=1e-15)
        assert len(calls) == 4 * 3

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_density_rk4_is_positivity_loss(self, monkeypatch, value):
        g = grid1(16)
        calls = self.poison(monkeypatch, logdiff._DensityStepper, value, lambda k: True)
        f0 = potential_to_density(mode(g, (1, 0), 0.02))
        with pytest.raises(PositivityLoss) as err:
            evolve_density(f0, 1e-3, dt_init=1e-4, dt_min=3e-5)
        assert not isinstance(err.value, (StepSizeUnderflow, KaehlerConeViolation))
        assert err.value.t == 0.0
        assert len(calls) == 4 * 2
