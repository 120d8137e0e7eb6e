"""Density form of the n=1 flow and its equivalence with the potential form."""

import math

import numpy as np
import pytest
from scipy import fft as sfft

import maflow as mf
from maflow import flow, logdiff
from maflow.errors import (ConfigError, KaehlerConeViolation, MassMismatch, PositivityLoss,
                           StepSizeUnderflow)
from maflow.flow import FlowConfig, _Reject, run
from maflow.geometry import PotentialField, hessian_raw
from maflow.initial import cos_mode
from maflow.logdiff import (KAPPA, DensityField, density_to_potential,
                            evolve_density, potential_to_density, step_logfd)


def grid1(res=64):
    return mf.TorusGrid(1, res)


def mode_potential(grid, amp=0.03):
    return PotentialField(grid, cos_mode(grid, (1, 0), amp)
                          + cos_mode(grid, (0, 1), amp / 2, 0.4))


class TestConversions:
    def test_flat_pair(self):
        g = grid1()
        f = potential_to_density(PotentialField.zeros(g))
        assert np.allclose(f.values, 1.0)
        phi = density_to_potential(f)
        assert np.abs(phi.values).max() < 1e-14

    def test_single_mode_closed_form(self):
        g = grid1()
        eps = 0.04
        f = potential_to_density(PotentialField(g, cos_mode(g, (1, 0), eps)))
        exact = 1.0 - np.pi ** 2 * eps * np.broadcast_to(
            np.cos(2 * np.pi * g.coord(0)), g.shape)
        assert np.abs(f.values - exact).max() < 1e-12

    def test_round_trip_identity(self):
        g = grid1()
        phi = mode_potential(g)
        mean_zero = phi.values - phi.values.mean()
        rt = density_to_potential(potential_to_density(phi))
        assert np.abs(rt.values - mean_zero).max() <= 1e-10

    def test_mass_mismatch_rejected(self):
        g = grid1()
        with pytest.raises(MassMismatch):
            density_to_potential(DensityField(g, np.full(g.shape, 1.1)))

    def test_positivity_enforced(self):
        g = grid1()
        vals = np.ones(g.shape)
        vals[0, 0] = -0.1
        with pytest.raises(PositivityLoss):
            DensityField(g, vals)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_density_rejected(self, bad):
        g = grid1()
        vals = np.ones(g.shape)
        vals[3, 5] = bad
        with pytest.raises(PositivityLoss):
            DensityField(g, vals)


class TestStepping:
    def test_uniform_density_is_fixed(self):
        g = grid1()
        f = DensityField(g, np.ones(g.shape))
        out = step_logfd(f, 1e-3)
        assert np.abs(out.values - 1.0).max() < 1e-15

    def test_mass_conserved_over_many_steps(self):
        g = grid1()
        f = potential_to_density(mode_potential(g))
        for _ in range(100):
            f = step_logfd(f, 2e-5)
        assert abs(f.mass() - g.volume) <= 1e-8

    def test_perturbation_decays_at_heat_rate(self):
        # linearization at f = 1: df/dt = kappa Delta f, rate 4 pi^2 kappa
        g = grid1()
        eps = 1e-3
        T = 0.02
        f = DensityField(g, 1.0 + eps * cos_mode(g, (1, 0), 1.0))
        tr = evolve_density(f, T, record_every=10 ** 6)
        amp = tr.snapshot_at(T)
        got = potential_to_density(
            PotentialField(g, amp.phi)).values.max() - 1.0
        expect = eps * np.exp(-4.0 * np.pi ** 2 * KAPPA * T)
        assert got == pytest.approx(expect, rel=0.05)

    def test_density_maximum_principle(self):
        g = grid1()
        f0 = potential_to_density(mode_potential(g, amp=0.02))
        tr = evolve_density(f0, 0.1, record_every=20)
        fmin = tr.column("fmin")
        fmax = tr.column("fmax")
        assert (fmin[1:] - fmin[:-1]).min() >= -1e-8
        assert (fmax[:-1] - fmax[1:]).min() >= -1e-8


class TestDtPolicy:
    @pytest.mark.parametrize("T", [0.0, 0.01])
    def test_unknown_policy_rejected_before_any_work(self, T, monkeypatch):
        calls = []
        monkeypatch.setattr(logdiff, "density_to_potential",
                            lambda f: calls.append(1) or density_to_potential(f))
        with pytest.raises(ConfigError, match="bogus"):
            evolve_density(potential_to_density(mode_potential(grid1())), T,
                           dt_policy="bogus")
        assert calls == []


class TestSettings:
    @pytest.mark.parametrize("kw,match", [
        ({"safety": 1.5}, "safety"),
        ({"T": -1.0}, "horizon"),
        ({"dt_init": -1e-3}, "positive"),
        ({"dt_min": 0.0}, "positive"),
        ({"dt_policy": "rk4_fixed"}, "rk4_fixed"),
    ])
    def test_bad_setting_rejected_before_any_step(self, kw, match, monkeypatch):
        taken = []
        monkeypatch.setattr(flow, "_advance", lambda *a: taken.append(1))
        monkeypatch.setattr(logdiff._DensityStepper, "parts", lambda *a, **k: taken.append(1))
        monkeypatch.setattr(logdiff, "density_to_potential", lambda f: taken.append(1))
        args = {"T": 0.01, **kw}
        with pytest.raises(ConfigError, match=match):
            evolve_density(potential_to_density(mode_potential(grid1())), **args)
        assert taken == []


class TestEquivalenceWithPotentialForm:
    @pytest.mark.parametrize("policy,dt", [("rk4", 1e-2), ("semi_implicit", 2e-4)])
    def test_matched_runs_agree_in_density(self, policy, dt):
        g = grid1(64)
        phi0 = mode_potential(g)
        snaps = (0.1, 0.2)
        cfg = FlowConfig(grid=g, T=0.2, dt_policy=policy, dt_init=dt,
                         snapshot_times=snaps, record_every=100)
        tr = run(phi0, cfg)
        trd = evolve_density(potential_to_density(phi0), 0.2, dt_policy=policy,
                             dt_init=dt, snapshot_times=snaps, record_every=100)
        worst = max(
            np.abs(hessian_raw(g, tr.snapshot_at(t).phi)
                   - hessian_raw(g, trd.snapshot_at(t).phi)).max()
            for t in snaps)
        assert worst <= 1e-4

    def test_shared_csv_schema(self):
        g = grid1()
        tr = evolve_density(potential_to_density(mode_potential(g)), 0.01,
                            record_every=5)
        from maflow.functionals import SERIES_COLUMNS
        assert set(tr.series) == set(SERIES_COLUMNS)
        assert np.allclose(tr.column("vol"), g.volume)


def _four_transform_step(grid, f, dt, beta0, hist):
    """The density SBDF2 step with its explicit term taken to real space and back."""
    sym = grid.flat_symbol()
    n_spec = sfft.rfftn(sfft.irfftn(sym * sfft.rfftn(np.log(f)), s=grid.shape))
    f_spec = hist.get("spec")
    if f_spec is None:
        f_spec = sfft.rfftn(f)
    if hist.get("ok"):
        lhs = 3.0 - 2.0 * dt * beta0 * sym
        num = (4.0 * f_spec - hist["f_spec"]
               + 2.0 * dt * (2.0 * n_spec - hist["n_spec"])
               + 2.0 * dt * beta0 * sym * (hist["f_spec"] - 2.0 * f_spec))
        new_spec = num / lhs
    else:
        new_spec = ((f_spec + dt * n_spec - dt * beta0 * sym * f_spec)
                    / (1.0 - dt * beta0 * sym))
    return (sfft.irfftn(new_spec, s=grid.shape),
            {"ok": True, "f_spec": f_spec, "n_spec": n_spec, "spec": new_spec})


class TestSemiImplicitDensityStep:
    dt = 4e-4

    def start(self):
        """A semi-implicit density stepper at res 256, unbounded in time."""
        g = grid1(256)
        cfg = FlowConfig(grid=g, dt_policy="semi_implicit", dt_init=self.dt)
        return logdiff._DensityStepper(cfg, potential_to_density(mode_potential(g)))

    def test_matches_four_transform_step(self):
        st = self.start()
        ref, ref_hist = st.state.phi.values, {}
        for _ in range(50):
            beta0 = 1.0 / max(float(ref.min()), 1e-12)
            ref, ref_hist = _four_transform_step(st.grid, ref, self.dt, beta0, ref_hist)
            st.state, _ = flow._advance(st, st.state, math.inf)
        f = st.state.phi.values
        assert np.abs(f - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_full_step_takes_two_transforms(self, monkeypatch):
        st = self.start()
        st.state, _ = flow._advance(st, st.state, math.inf)
        counts = count_transforms(monkeypatch)
        for _ in range(4):
            st.state, _ = flow._advance(st, st.state, math.inf)
        assert len(counts) == 2 * 4


def count_transforms(monkeypatch):
    """A list that gains one entry per scipy.fft transform from now on."""
    counts = []
    for name in ("rfftn", "irfftn", "fftn", "ifftn"):
        orig = getattr(sfft, name)
        monkeypatch.setattr(sfft, name,
                            lambda *a, _o=orig, **k: counts.append(1) or _o(*a, **k))
    return counts


class TestFailureTime:
    def test_semi_implicit_positivity_loss_carries_t(self, monkeypatch):
        g = grid1()
        kernel = flow._sbdf2_spectrum
        calls = []

        def failing_fourth(*args):
            spec, hist = kernel(*args)
            calls.append(1)
            return (-spec if len(calls) == 4 else spec), hist

        monkeypatch.setattr(flow, "_sbdf2_spectrum", failing_fourth)
        with pytest.raises(PositivityLoss) as err:
            evolve_density(potential_to_density(mode_potential(g)), 0.01,
                           dt_policy="semi_implicit", dt_init=1e-3)
        assert err.value.t == pytest.approx(3e-3, abs=1e-15)

    def test_rk4_underflow_carries_substep_start(self, monkeypatch):
        g = grid1()
        rk4 = logdiff._rk4_candidate
        calls = []

        def fail_first_and_third(st, t, f, rhs, dt):
            calls.append(dt)
            if len(calls) in (1, 3):
                raise _Reject(-1.0)
            return rk4(st, t, f, rhs, dt)

        monkeypatch.setattr(logdiff, "_rk4_candidate", fail_first_and_third)
        f = potential_to_density(mode_potential(g))
        with pytest.raises(PositivityLoss) as err:
            step_logfd(f, 1e-3, dt_min=4e-4, t=0.25)
        # whole step fails, its first half passes, the second half cannot be split
        assert calls == [1e-3, 5e-4, 5e-4]
        assert err.value.t == pytest.approx(0.25 + 5e-4, abs=1e-15)

    @pytest.mark.parametrize("kw", [
        {"dt": math.nan}, {"dt": math.inf}, {"dt": -1e-3},
        {"dt": 1e-3, "dt_min": 0.0}, {"dt": 1e-3, "dt_min": -1e-9},
        {"dt": 1e-3, "dt_min": math.nan},
    ])
    def test_step_logfd_rejects_bad_spans(self, kw):
        # a non-finite dt would recurse without end, a negative one integrate backward
        with pytest.raises(ConfigError):
            step_logfd(potential_to_density(mode_potential(grid1())), **kw)

    def test_cfl_step_below_dt_min_is_step_size_underflow(self):
        # as in the potential form, dt_min bounds the CFL step: one below it
        # is StepSizeUnderflow carrying t, not a loss of positivity
        f = potential_to_density(mode_potential(grid1()))
        with pytest.raises(StepSizeUnderflow) as err:
            evolve_density(f, 0.05, dt_min=1e-2)
        assert err.value.t == 0.0


class TestSharedDriver:
    """The density form steps through flow._advance, with the potential form's rules."""

    def reject_at(self, monkeypatch, when):
        """Make the density right-hand side reject where when(call number, t) holds."""
        parts, calls = logdiff._DensityStepper.parts, []

        def patched(st, t, f):
            calls.append(t)
            if when(len(calls), t):
                raise _Reject(-1.0)
            return parts(st, t, f)

        monkeypatch.setattr(logdiff._DensityStepper, "parts", patched)

    def test_rk4_rejection_halves_once_and_moves_on(self, monkeypatch):
        # call 1 is the initial state, call 2 the first stage of the first step
        self.reject_at(monkeypatch, lambda k, t: k == 2)
        f0 = potential_to_density(mode_potential(grid1(32)))
        tr = evolve_density(f0, 3.5e-4, dt_init=1e-4, record_every=1)
        assert np.allclose(tr.times, [0.0, 5e-5, 1.5e-4, 2.5e-4, 3.5e-4], rtol=0.0, atol=1e-15)

    def test_halving_below_dt_min_is_positivity_loss(self, monkeypatch):
        self.reject_at(monkeypatch, lambda k, t: t > 0.0)
        f0 = potential_to_density(mode_potential(grid1(32)))
        with pytest.raises(PositivityLoss) as err:
            evolve_density(f0, 1e-3, dt_init=1e-4, dt_min=6e-5)
        assert not isinstance(err.value, (StepSizeUnderflow, KaehlerConeViolation))
        assert err.value.t == 0.0

    @pytest.mark.parametrize("policy, per_step", [("rk4", [8, 8, 8]),
                                                  ("semi_implicit", [3, 2, 2])])
    def test_landing_takes_no_transform(self, policy, per_step, monkeypatch):
        # steps of 1e-4, 1e-4 and the 5e-5 that lands on the boundary; the
        # right-hand side does not depend on t, so landing recomputes nothing
        target = 2.5e-4
        cfg = FlowConfig(grid=grid1(32), T=target, dt_policy=policy, dt_init=1e-4)
        st = logdiff._DensityStepper(cfg, potential_to_density(mode_potential(cfg.grid)))
        counts, taken = count_transforms(monkeypatch), []
        while st.state.t != target:
            before = len(counts)
            st.state, _ = flow._advance(st, st.state, target)
            taken.append(len(counts) - before)
        assert taken == per_step
        assert st.state.t == target
