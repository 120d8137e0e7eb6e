"""Density form of the n=1 flow and its equivalence with the potential form."""

import numpy as np
import pytest
from scipy import fft as sfft

import maflow as mf
from maflow import logdiff
from maflow.errors import MassMismatch, PositivityLoss
from maflow.flow import FlowConfig, run
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
    sym = grid.flat_symbol(rfft=True)
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
        new_spec = (f_spec + dt * n_spec) / (1.0 - dt * beta0 * sym)
    return (sfft.irfftn(new_spec, s=grid.shape),
            {"ok": True, "f_spec": f_spec, "n_spec": n_spec, "spec": new_spec})


class TestSemiImplicitDensityStep:
    dt = 4e-4

    def start(self):
        g = grid1(256)
        return g, potential_to_density(mode_potential(g)).values

    def test_matches_four_transform_step(self):
        g, f = self.start()
        ref, hist, ref_hist = f, {}, {}
        for _ in range(50):
            beta0 = 1.0 / max(float(ref.min()), 1e-12)
            ref, ref_hist = _four_transform_step(g, ref, self.dt, beta0, ref_hist)
            f, hist = logdiff._sbdf2_density(g, f, self.dt, self.dt, 1.0, hist, 0.0)
        assert np.abs(f - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_full_step_takes_two_transforms(self, monkeypatch):
        g, f = self.start()
        f, hist = logdiff._sbdf2_density(g, f, self.dt, self.dt, 1.0, {}, 0.0)
        counts = []
        for name in ("rfftn", "irfftn", "fftn", "ifftn"):
            orig = getattr(sfft, name)
            monkeypatch.setattr(sfft, name,
                                lambda *a, _o=orig, **k: counts.append(1) or _o(*a, **k))
        for _ in range(4):
            f, hist = logdiff._sbdf2_density(g, f, self.dt, self.dt, 1.0, hist, 0.0)
        assert len(counts) == 2 * 4


class TestFailureTime:
    def test_semi_implicit_positivity_loss_carries_t(self, monkeypatch):
        g = grid1()
        kernel = logdiff._sbdf2_spectrum
        calls = []

        def failing_fourth(*args):
            spec, hist = kernel(*args)
            calls.append(1)
            return (-spec if len(calls) == 4 else spec), hist

        monkeypatch.setattr(logdiff, "_sbdf2_spectrum", failing_fourth)
        with pytest.raises(PositivityLoss) as err:
            evolve_density(potential_to_density(mode_potential(g)), 0.01,
                           dt_policy="semi_implicit", dt_init=1e-3)
        assert err.value.t == pytest.approx(3e-3, abs=1e-15)

    def test_rk4_underflow_carries_substep_start(self, monkeypatch):
        g = grid1()
        rk4 = logdiff._rk4
        calls = []

        def fail_first_and_third(grid, f, dt):
            calls.append(dt)
            return None if len(calls) in (1, 3) else rk4(grid, f, dt)

        monkeypatch.setattr(logdiff, "_rk4", fail_first_and_third)
        f = potential_to_density(mode_potential(g))
        with pytest.raises(PositivityLoss) as err:
            step_logfd(f, 1e-3, dt_min=4e-4, t=0.25)
        # whole step fails, its first half passes, the second half cannot be split
        assert calls == [1e-3, 5e-4, 5e-4]
        assert err.value.t == pytest.approx(0.25 + 5e-4, abs=1e-15)
