"""Energy, mean value, oscillation, density moments."""

import numpy as np
import pytest

import maflow as mf
from maflow import geometry as geo
from maflow.functionals import (SERIES_COLUMNS, density, energy_from_raws, lp_norm,
                                mean_value, orlicz_integral, oscillation, series_row,
                                w_xlog1px)
from maflow.flow import FlowConfig, TwistSpec, normalize_h, run
from maflow.geometry import PotentialField
from maflow.initial import PotentialSpec, cos_mode, sample_potential


def grid1(res=32, period=1.0):
    return mf.TorusGrid(1, res, period)


def mode(grid, kvec, amp, phase=0.0):
    return PotentialField(grid, cos_mode(grid, kvec, amp, phase))


def energy(phi, twist=None, t=0.0):
    """E of phi by ``energy_from_raws`` from M_t and det M_t, as series_row takes it."""
    g = phi.grid
    m, det, _ = geo.metric_raw(g, phi.values, twist, t)
    return energy_from_raws(g, phi.values, m, twist, t, det)


class TestEnergy:
    def test_constant_at_time_zero(self):
        g = grid1()
        assert energy(PotentialField(g, np.full(g.shape, 1.3))) == pytest.approx(1.3)

    def test_single_mode_closed_form(self):
        # E = (1/2V) [int phi omega + int phi (omega + dd^c phi)]
        #   = (1/2V) int phi H(phi) = -pi^2 eps^2 / 4 for eps cos(2 pi x)
        g = grid1()
        eps = 0.04
        val = energy(mode(g, (1, 0), eps))
        assert val == pytest.approx(-np.pi ** 2 * eps ** 2 / 4.0, rel=1e-12)

    def test_single_mode_against_quadrature_oracle(self):
        g = grid1()
        eps = 0.03
        phi = mode(g, (1, 0), eps)
        H = geo.hessian_raw(g, phi.values)
        oracle = float((phi.values * (2.0 + H)).mean()) / 2.0
        assert energy(phi) == pytest.approx(oracle, rel=1e-13)

    def test_constant_shift(self):
        g = grid1()
        phi = mode(g, (1, 0), 0.02)
        a = 0.9
        shifted = PotentialField(g, phi.values + a)
        assert energy(shifted) == pytest.approx(energy(phi) + a, abs=1e-13)

    def test_constant_shift_n2(self):
        g = mf.TorusGrid(2, 8)
        phi = PotentialField(g, cos_mode(g, (1, 0, 0, 0), 0.02))
        shifted = PotentialField(g, phi.values + 2.0)
        assert energy(shifted) == pytest.approx(energy(phi) + 2.0, abs=1e-13)

    def test_monotone_in_the_potential(self):
        # phi <= psi (same twist, t) implies E(phi) <= E(psi)
        g = grid1()
        phi = mode(g, (1, 0), 0.03)
        bump = 0.05 * (1.1 + cos_mode(g, (0, 1), 1.0))
        psi = PotentialField(g, phi.values + bump)
        assert energy(phi) <= energy(psi)

    def test_n2_against_wedge_oracle(self):
        # independent oracle: E = 1/(3V) int phi (det Th + D(M,Th) + det M)
        # with the mixed determinant computed from numpy det polarization
        g = mf.TorusGrid(2, 8)
        phi = PotentialField(g, cos_mode(g, (1, 0, 0, 0), 0.02)
                             + cos_mode(g, (0, 0, 1, 1), 0.01, 0.3))
        psi = PotentialField(g, cos_mode(g, (0, 1, 1, 0), 0.008))
        tw = TwistSpec(c=0.2, psi_chi=psi)
        t = 0.5
        M = geo.metric_raw(g, phi.values, tw, t)[0]
        Th = [m - h for m, h in zip(M, geo.hessian_raw(g, phi.values))]   # theta_t, raw
        M, Th = (np.moveaxis(np.array([[a, cr + 1j * ci], [cr - 1j * ci, b]]), (0, 1), (-2, -1))
                 for a, b, cr, ci in (M, Th))
        det = np.linalg.det
        mixed = 0.5 * (det(M + Th) - det(M) - det(Th)).real
        oracle = float((phi.values * (det(Th).real + mixed + det(M).real)).mean()) / 3.0
        assert energy(phi, tw, t) == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2])
    def test_twisted_energy_takes_one_hessian(self, n, monkeypatch):
        # theta_t reads the twist's cached H(psi_chi); only H(phi) is taken afresh
        g = mf.TorusGrid(n, 16 if n == 1 else 8)
        kvec = (1,) + (0,) * (2 * n - 1)
        phi, psi = mode(g, kvec, 0.02), mode(g, kvec[::-1], 0.01)
        tw = TwistSpec(c=0.2, psi_chi=psi)
        before = energy(phi, tw, 0.5)   # warms the cache
        calls = []
        hess = geo.hessian_raw

        def counted(*args, **kw):
            calls.append(1)
            return hess(*args, **kw)

        monkeypatch.setattr(geo, "hessian_raw", counted)
        assert energy(phi, tw, 0.5) == before
        assert len(calls) == 1


class TestMeanValue:
    def test_constant(self):
        g = grid1()
        assert mean_value(PotentialField(g, np.full(g.shape, 2.2))) == pytest.approx(2.2)

    def test_mode_with_flat_measure(self):
        g = grid1()
        assert mean_value(mode(g, (1, 0), 0.05)) == pytest.approx(0.0, abs=1e-15)

    def test_weighted_against_quadrature_oracle(self):
        g = grid1()
        rng = np.random.default_rng(3)
        phi = PotentialField(g, rng.standard_normal(g.shape))
        h = normalize_h(mode(g, (0, 1), 0.3))
        oracle = float((phi.values * np.exp(h.values)).mean())
        assert mean_value(phi, h) == pytest.approx(oracle, rel=1e-14)

    def test_sup_bound_gap_reported(self):
        # sup phi - C_mu <= I <= sup phi: the gap exists; report-style check
        g = grid1()
        phi = mode(g, (1, 0), 0.05)
        h = normalize_h(mode(g, (0, 1), 0.2))
        I = mean_value(phi, h)
        assert I <= phi.sup + 1e-14


class TestOscillation:
    def test_constant_is_zero(self):
        g = grid1()
        assert oscillation(PotentialField(g, np.full(g.shape, 5.0))) == 0.0

    def test_mode(self):
        g = grid1()
        assert oscillation(mode(g, (1, 0), 0.07)) == pytest.approx(0.14, rel=1e-12)

    def test_clipped_pole_hits_floor(self):
        g = mf.TorusGrid(1, 128, period=2.0)
        spec = PotentialSpec("lelong", gamma=1.0, clip_floor=-3.0)
        phi = sample_potential(spec, g)
        assert oscillation(phi) == pytest.approx(phi.sup - (-3.0))


class TestDensity:
    def test_flat(self):
        g = grid1()
        assert np.allclose(density(PotentialField(g, np.zeros(g.shape))), 1.0)
        f = density(PotentialField(g, np.zeros(g.shape)))
        assert geo.integrate(f, g) == pytest.approx(g.volume)

    def test_mass_identity_with_twist(self):
        g = grid1()
        phi = mode(g, (1, 0), 0.02)
        tw = TwistSpec(c=-0.3)
        t = 0.8
        h = normalize_h(mode(g, (0, 1), 0.15))
        f = density(phi, tw, t, h)
        mass = orlicz_integral(f, lambda x: x, h=h, grid=g)
        assert mass == pytest.approx((1.0 - t * 0.3) ** g.n * g.volume, rel=1e-10)


class TestMoments:
    def test_unit_density(self):
        g = grid1()
        f = np.ones(g.shape)
        for p in (1.0, 2.0, 3.5):
            assert lp_norm(f, p, grid=g) == pytest.approx(g.volume)
        assert orlicz_integral(f, w_xlog1px, grid=g) == pytest.approx(
            np.log(2.0) * g.volume)

    def test_total_mass_at_p1(self):
        g = grid1()
        rng = np.random.default_rng(5)
        f = 1.0 + 0.4 * rng.random(g.shape)
        assert lp_norm(f, 1.0, grid=g) == pytest.approx(float(f.mean()) * g.volume)

    def test_weighted_against_quadrature_oracle(self):
        g = grid1()
        rng = np.random.default_rng(6)
        f = 0.5 + rng.random(g.shape)
        h = normalize_h(mode(g, (1, 1), 0.2))
        oracle = float((f ** 2 * np.exp(h.values)).mean()) * g.volume
        assert lp_norm(f, 2.0, h=h, grid=g) == pytest.approx(oracle, rel=1e-14)


class TestSeriesColumns:
    @pytest.mark.parametrize("n, res", [(1, 16), (2, 8)])
    def test_series_columns_match_the_public_functionals(self, n, res):
        # series_row computes every column on its own from the stepper's raw
        # caches; at each snapshot of a twisted run with h it must read what the
        # tested functionals read
        g = mf.TorusGrid(n, res)
        e = [tuple(int(a == b) for b in range(2 * n)) for a in range(2 * n)]
        tw = TwistSpec(c=0.2, psi_chi=mode(g, e[-1], 0.01, 0.3))
        h = normalize_h(mode(g, e[1], 0.1))
        phi0 = PotentialField(g, 0.4 + cos_mode(g, e[0], 0.03))
        cfg = FlowConfig(grid=g, twist=tw, h=h, T=0.02, snapshot_times=(0.01,), record_every=5)
        tr = run(phi0, cfg)
        assert len(tr.snapshots) == 3
        for snap in tr.snapshots:
            i = list(tr.times).index(snap.t)
            phi = PotentialField(g, snap.phi)
            f = density(phi, tw, snap.t, cfg.h)
            want = {"sup": phi.sup, "inf": phi.inf, "osc": oscillation(phi),
                    "I": mean_value(phi, cfg.h), "E": energy(phi, tw, snap.t),
                    "fmin": f.min(), "fmax": f.max(), "f_l2": lp_norm(f, 2, h=cfg.h, grid=g),
                    "orlicz_xlogx": orlicz_integral(f, w_xlog1px, h=cfg.h, grid=g),
                    "vol": lp_norm(density(phi, tw, snap.t), 1, grid=g)}
            for name, value in want.items():
                np.testing.assert_allclose(tr.column(name)[i], value, rtol=1e-14, err_msg=name)


def whole_array_theta(grid, twist, t):
    """theta_t as one whole-array expression (the oracle's)."""
    a = 1.0 if twist is None else 1.0 + t * twist.c
    if twist is not None and twist.psi_chi is not None and t != 0.0:
        hpsi = geo.hessian_raw(grid, twist.psi_chi.values)
        return a + t * hpsi if grid.n == 1 else (a + t * hpsi[0], a + t * hpsi[1],
                                                 t * hpsi[2], t * hpsi[3])
    diag = np.full(grid.shape, a)
    return diag if grid.n == 1 else (diag, diag.copy(), np.zeros(grid.shape),
                                     np.zeros(grid.shape))


def whole_array_energy(grid, phi_arr, m_raw, th_raw):
    """The energy as one whole-array expression, as before the block-wise pass."""
    if grid.n == 1:
        wedge = th_raw + m_raw
    else:
        m11, m22, m12r, m12i = m_raw
        t11, t22, t12r, t12i = th_raw
        cross = m12r * t12r + m12i * t12i
        det_th = t11 * t22 - (t12r ** 2 + t12i ** 2)
        det_m = m11 * m22 - (m12r ** 2 + m12i ** 2)
        wedge = det_th + 0.5 * (m11 * t22 + m22 * t11 - 2.0 * cross) + det_m
    return float((phi_arr * wedge).mean() / (grid.n + 1))


def whole_array_row(grid, t, phi_arr, m_raw, th_raw, det, min_eig, dt, exp_h=None):
    """The series row as whole-array expressions, as before the block-wise pass."""
    eh = 1.0 if exp_h is None else exp_h
    f = det if exp_h is None else det / exp_h
    sup = float(phi_arr.max())
    inf = float(phi_arr.min())
    ii = float((phi_arr * eh).mean()) if exp_h is not None else float(phi_arr.mean())
    return {
        "t": t, "sup": sup, "inf": inf, "osc": sup - inf, "I": ii,
        "E": whole_array_energy(grid, phi_arr, m_raw, th_raw),
        "fmin": float(f.min()), "fmax": float(f.max()),
        "f_l2": float(((f * f) * eh).mean() * grid.volume),
        "orlicz_xlogx": float((w_xlog1px(f) * eh).mean() * grid.volume),
        "vol": float(det.mean() * grid.volume), "min_eig": min_eig, "dt": dt,
    }


class TestBlockwiseRow:
    @pytest.mark.parametrize("n, res", [(1, 32), (2, 8), (2, 16)])
    @pytest.mark.parametrize("twisted", [False, True])
    @pytest.mark.parametrize("with_h", [False, True])
    def test_every_column_bit_identical_to_the_whole_array_row(self, n, res, twisted, with_h):
        g = mf.TorusGrid(n, res)
        e = [tuple(int(a == b) for b in range(2 * n)) for a in range(2 * n)]
        tw = TwistSpec(c=-0.4, psi_chi=mode(g, e[-1], 0.02, 0.3)) if twisted else None
        h = normalize_h(mode(g, e[1], 0.1, 0.2)) if with_h else None
        exp_h = None if h is None else np.exp(h.values)
        vals = cos_mode(g, e[0], 0.03, 0.1) + cos_mode(g, e[1], 0.02, 0.7)
        # phi as a flow state forms it, an inverse transform
        phi_arr = g.ifft(g.fft(vals))
        t = 0.3
        m, det, emin = geo.metric_raw(g, phi_arr, tw, t)
        th = whole_array_theta(g, tw, t)
        got = series_row(g, t, phi_arr, m, det, emin, 1e-3, exp_h=exp_h, twist=tw)
        want = whole_array_row(g, t, phi_arr, m, th, det, emin, 1e-3, exp_h=exp_h)
        assert list(got) == list(SERIES_COLUMNS)
        assert got == want
        m_phi = geo.raw_add(g, th, geo.hessian_raw(g, vals))
        assert energy_from_raws(g, vals, m_phi, tw, t) == whole_array_energy(g, vals, m_phi, th)
