"""Spectral calculus checks against closed forms and independent oracles."""

import numpy as np
import numpy.linalg as la
import pytest
from scipy import fft as sfft

import maflow as mf
from maflow import geometry as geo
from maflow.errors import KaehlerConeViolation
from maflow.flow import TwistSpec
from maflow.initial import cos_mode


def grid1(res=64, period=1.0):
    return mf.TorusGrid(1, res, period)


def grid2(res=8, period=1.0):
    return mf.TorusGrid(2, res, period)


def field(grid, arr):
    return mf.PotentialField(grid, np.broadcast_to(arr, grid.shape).copy())


def matrix_from_raw(grid, m):
    """The (..., n, n) Hermitian matrix of a raw field, for the numpy.linalg oracles."""
    if grid.n == 1:
        return m[..., None, None].astype(np.complex128)
    out = np.empty(grid.shape + (2, 2), dtype=np.complex128)
    out[..., 0, 0], out[..., 1, 1] = m[0], m[1]
    out[..., 0, 1], out[..., 1, 0] = m[2] + 1j * m[3], m[2] - 1j * m[3]
    return out


def random_bandlimited(grid, seed, amp=0.02, kmax=3):
    # per-mode amplitude scaled by 1/|k|^2 so the Hessian stays O(amp)
    rng = np.random.default_rng(seed)
    vals = np.zeros(grid.shape)
    for _ in range(6):
        kvec = tuple(int(k) for k in rng.integers(-kmax, kmax + 1, 2 * grid.n))
        ksq = max(1, sum(k * k for k in kvec))
        vals += cos_mode(grid, kvec,
                         amp * rng.uniform(0.2, 1.0) * grid.period ** 2 / ksq,
                         rng.uniform(0, 2 * np.pi))
    return mf.PotentialField(grid, vals)


class TestTorusGrid:
    def test_invariants(self):
        g = mf.TorusGrid(2, 16, 2.0)
        assert g.npoints == 16 ** 4
        assert g.h == 2.0 / 16
        assert g.volume == 2.0 ** 4

    @pytest.mark.parametrize("bad", [dict(n=3, res=16), dict(n=1, res=6),
                                     dict(n=1, res=48), dict(n=1, res=16, period=0.0)])
    def test_rejects_bad_parameters(self, bad):
        with pytest.raises(ValueError):
            mf.TorusGrid(**bad)

    @pytest.mark.parametrize("bad", [dict(n=1.5, res=16), dict(n=None, res=16),
                                     dict(n=1, res=16.5), dict(n=1, res=16, period=np.nan),
                                     dict(n=1, res=16, period=np.inf)])
    def test_rejects_values_int_would_change_and_a_non_finite_period(self, bad):
        with pytest.raises(ValueError):
            mf.TorusGrid(**bad)

    def test_checked_grid_names_its_source(self):
        assert mf.TorusGrid.checked(2, 8.0, 2, "src") == mf.TorusGrid(2, 8, 2.0)
        with pytest.raises(mf.ConfigError, match=r"^a\.mafl: res must be a power of two"):
            mf.TorusGrid.checked(1, 16.5, 1.0, "a.mafl")
        with pytest.raises(mf.ConfigError, match="^meta.json: "):
            mf.TorusGrid.checked(1, 16, None, "meta.json")

    @pytest.mark.parametrize("n", [1, 2])
    def test_one_half_spectrum_layout_and_real_raw_fields(self, n):
        # one spectral layout at every n, the half spectrum; the raw layout is
        # one real array at n = 1 and four at n = 2
        g = mf.TorusGrid(n, 8)
        want = g.shape[:-1] + (g.res // 2 + 1,)
        arr = random_bandlimited(g, 1).values
        assert g.fft(arr).shape == want
        arrays = [*g.hessian_multipliers, g.flat_symbol, g.ksq_full, g.dealias_mask]
        assert [a.shape for a in arrays] == [want] * len(arrays)
        assert all(m.dtype == np.float64 for m in g.hessian_multipliers)
        tw = TwistSpec(-0.4, random_bandlimited(g, 2))
        for raw in (geo.hessian_raw(g, arr), geo.theta_raw(g, tw, 0.3), geo.theta_raw(g),
                    geo.metric_raw(g, arr, tw, 0.3)[0]):
            parts = components(g, raw)
            assert len(parts) == (1 if n == 1 else 4)
            assert all(type(x) is np.ndarray and x.dtype == np.float64
                       and x.shape == g.shape for x in parts)

    @pytest.mark.parametrize("n", [1, 2])
    def test_ifft_owns_its_data(self, n):
        # a view of the complex transform's real part would keep both alive
        g = mf.TorusGrid(n, 8)
        arr = np.random.default_rng(3).normal(size=g.shape)
        out = g.ifft(g.fft(arr))
        assert out.base is None and out.flags.owndata and out.dtype == np.float64
        assert np.allclose(out, arr, rtol=0.0, atol=1e-14)

    def test_n2_mollify_matches_an_rfftn_reference(self):
        g = grid2(8)
        arr = np.random.default_rng(2).normal(size=g.shape)
        delta = 2.0 * g.h
        # the rfftn layout: the last axis keeps the non-negative frequencies
        k = 2.0 * np.pi * np.fft.fftfreq(g.res, d=g.h)
        ksq = sum(k.reshape([-1 if a == b else 1 for b in range(4)]) ** 2 for a in range(3))
        ksq = ksq + (2.0 * np.pi * np.fft.rfftfreq(g.res, d=g.h)) ** 2
        ref = sfft.irfftn(np.exp(-0.5 * delta ** 2 * ksq) * sfft.rfftn(arr), s=g.shape)
        assert np.abs(geo.mollify_raw(g, arr, delta) - ref).max() <= 1e-15


class TestComplexHessian:
    def test_constant_has_zero_hessian(self):
        g = grid1()
        H = geo.hessian_raw(g, np.full(g.shape, 3.7))
        assert np.abs(H).max() == 0.0

    def test_single_mode_matches_symbolic_derivative(self):
        # oracle: d^2/dz dzbar = Delta/4 applied to eps cos(2 pi x) by hand
        g = grid1()
        eps = 0.03
        x = g.coord(0)
        H = geo.hessian_raw(g, field(g, eps * np.cos(2 * np.pi * x)).values)
        exact = -np.pi ** 2 * eps * np.cos(2 * np.pi * x)
        assert np.abs(H - np.broadcast_to(exact, g.shape)).max() < 1e-10 * eps

    def test_separable_2d_is_diagonal(self):
        g = grid2()
        u = 0.02 * np.cos(2 * np.pi * g.coord(0))
        v = 0.015 * np.cos(2 * np.pi * g.coord(3))
        h11, _, h12r, h12i = geo.hessian_raw(g, field(g, u + v).values)
        assert np.abs(h12r).max() < 1e-14 and np.abs(h12i).max() < 1e-14
        hu = geo.hessian_raw(g, field(g, np.broadcast_to(u, g.shape)).values)[0]
        assert np.allclose(h11, hu, atol=1e-13)

    def test_spectral_exactness_random_trigonometric(self):
        # any polynomial with max frequency < res/4 must differentiate exactly
        g = grid1(32)
        kx, ky, amp, ph = 3, -5, 0.011, 0.7
        phi = field(g, amp * np.cos(2 * np.pi * (kx * g.coord(0) + ky * g.coord(1)) + ph))
        H = geo.hessian_raw(g, phi.values)
        exact = -(np.pi ** 2) * (kx ** 2 + ky ** 2) * amp * np.cos(
            2 * np.pi * (kx * g.coord(0) + ky * g.coord(1)) + ph)
        rel = np.abs(H - np.broadcast_to(exact, g.shape)).max() / np.abs(exact).max()
        assert rel < 1e-10

    def test_hermitian_symmetry(self):
        # the raw layout stores h12 once, as two real arrays: d^2/dz2 dzbar1 of a
        # real potential must be its conjugate, and the diagonal transforms real
        g = grid2()
        arr = random_bandlimited(g, 0).values
        h11, h22, h12, h21 = c2c_hessian(g, arr, ((0, 0), (1, 1), (0, 1), (1, 0)))
        assert np.abs(h12 - np.conj(h21)).max() < 1e-13
        assert np.abs(h11.imag).max() < 1e-13 and np.abs(h22.imag).max() < 1e-13
        got = geo.hessian_raw(g, arr)
        assert [x.dtype for x in got] == [np.float64] * 4
        for x, want in zip(got, (h11.real, h22.real, h12.real, h12.imag)):
            assert np.abs(x - want).max() < 1e-13


def c2c_hessian(grid, arr, pairs=((0, 0), (1, 1), (0, 1))):
    """d^2 arr / dz_j dzbar_k for each (j, k) of ``pairs`` at n = 2, by full complex transforms.

    An oracle independent of the grid's multipliers: the frequencies come from
    np.fft.fftfreq, with the Nyquist modes dropped.
    """
    k = 2.0 * np.pi * np.fft.fftfreq(grid.res, d=grid.h)
    k[grid.res // 2] = 0.0
    kx1, ky1, kx2, ky2 = (k.reshape([-1 if a == b else 1 for b in range(4)]) for a in range(4))
    # the symbols of d/dz = (d/dx - i d/dy)/2 and d/dzbar = (d/dx + i d/dy)/2
    dz = [0.5 * (1j * kx + ky) for kx, ky in ((kx1, ky1), (kx2, ky2))]
    dzbar = [0.5 * (1j * kx - ky) for kx, ky in ((kx1, ky1), (kx2, ky2))]
    spec = np.fft.fftn(arr)
    return [np.fft.ifftn(dz[j] * dzbar[k] * spec) for j, k in pairs]


def four_transform_hessian(grid, arr):
    # the n = 2 raw Hessian (h11, h22, Re h12, Im h12) from the c2c oracle
    h11, h22, h12 = c2c_hessian(grid, arr)
    return h11.real, h22.real, h12.real, h12.imag


def old_metric_chain(grid, hess, a, hpsi=None, t=0.0):
    # the separate pointwise passes the fused kernel replaces
    if hpsi is not None:
        hess = geo.raw_add(grid, hess, hpsi, s2=t)
    m = geo.raw_combine(grid, a, hess)
    return m, geo.det_raw(grid, m), geo.eigmin_raw(grid, m).min()


class TestPackedHessian:
    @pytest.mark.parametrize("res", [8, 16])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_four_transform_form(self, res, seed):
        g = grid2(res)
        arr = random_bandlimited(g, seed, kmax=res // 2 - 1).values
        ref = four_transform_hessian(g, arr)
        scale = max(np.abs(r).max() for r in ref)
        for got, want in zip(geo.hessian_raw(g, arr), ref):
            assert np.abs(got - want).max() <= 1e-13 * scale

    def test_components_owned_by_the_caller(self):
        g = grid2(16)
        parts = geo.hessian_raw(g, random_bandlimited(g, 3).values)
        assert len(parts) == 4
        for h in parts:
            assert h.dtype == np.float64
            assert h.flags.c_contiguous and h.flags.writeable
        for i, a in enumerate(parts):
            for b in parts[i + 1:]:
                assert not np.shares_memory(a, b)


def components(grid, raw):
    return list(raw) if grid.n == 2 else [raw]


class TestFusedMetric:
    @pytest.mark.parametrize("n,res", [(1, 32), (2, 8), (2, 16)])
    @pytest.mark.parametrize("twisted", [False, True])
    def test_bit_identical_to_pointwise_chain(self, n, res, twisted):
        g = mf.TorusGrid(n, res)
        hess = geo.hessian_raw(g, random_bandlimited(g, 4).values)
        hpsi = geo.hessian_raw(g, random_bandlimited(g, 5).values) if twisted else None
        hpsi_before = [x.copy() for x in components(g, hpsi)] if twisted else []
        a, t = 1.0 - 0.5 * 0.07, 0.07
        m_old, det_old, emin_old = old_metric_chain(g, hess, a, hpsi, t)
        m, det, emin = geo.metric_det_eigmin(g, hess, a, hpsi, t)
        assert np.array_equal(det, det_old)
        assert np.array_equal(emin, emin_old)
        for got, want in zip(components(g, m), components(g, m_old)):
            assert np.array_equal(got, want)
        if twisted:   # the twist Hessian is only read
            for got, want in zip(components(g, hpsi), hpsi_before):
                assert np.array_equal(got, want)


class TestOneMetricConstruction:
    """theta_raw and metric_raw against the expressions they replaced."""

    @staticmethod
    def twist(grid, with_psi):
        psi = random_bandlimited(grid, 9) if with_psi else None
        return TwistSpec(-0.4, psi)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("with_psi", [False, True])
    @pytest.mark.parametrize("t", [0.0, 0.3])
    def test_theta_bit_identical(self, n, with_psi, t):
        g = mf.TorusGrid(n, 16 if n == 1 else 8)
        tw = self.twist(g, with_psi)
        a = 1.0 + t * tw.c
        if with_psi and t != 0.0:
            want = geo.raw_combine(g, a, geo.hessian_raw(g, tw.psi_chi.values), scale=t)
        else:   # a I + 0, the former raw_zero route
            zero = np.zeros(g.shape) if n == 1 else tuple(np.zeros(g.shape) for _ in range(4))
            want = geo.raw_combine(g, a, zero)
        got = geo.theta_raw(g, tw, t)
        for x, y in zip(components(g, got), components(g, want)):
            assert x.shape == y.shape and np.array_equal(x, y)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("t", [0.0, 0.3])
    def test_untwisted_metric_bit_identical(self, n, t):
        g = mf.TorusGrid(n, 16 if n == 1 else 8)
        arr = random_bandlimited(g, 4).values
        tw = self.twist(g, False)
        want = geo.raw_combine(g, 1.0 + t * tw.c, geo.hessian_raw(g, arr))
        m, det, emin = geo.metric_raw(g, arr, tw, t)
        for x, y in zip(components(g, m), components(g, want)):
            assert np.array_equal(x, y)
        assert np.array_equal(det, geo.det_raw(g, want))
        assert emin == float(geo.eigmin_raw(g, want).min())

    @pytest.mark.parametrize("n", [1, 2])
    def test_psi_chi_dropped_at_time_zero(self, n):
        g = mf.TorusGrid(n, 16 if n == 1 else 8)
        arr = random_bandlimited(g, 4).values
        m, _, _ = geo.metric_raw(g, arr, self.twist(g, True), 0.0)
        for x, y in zip(components(g, m), components(g, geo.metric_raw(g, arr)[0])):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("n", [1, 2])
    def test_twisted_metric_matches_combined_potential(self, n):
        # H(phi) + t H(psi_chi) against the former H(phi + t psi_chi) route
        g = mf.TorusGrid(n, 16 if n == 1 else 8)
        arr = random_bandlimited(g, 4).values
        tw, t = self.twist(g, True), 0.3
        want = geo.raw_combine(g, 1.0 + t * tw.c,
                               geo.hessian_raw(g, arr + t * tw.psi_chi.values))
        m, _, _ = geo.metric_raw(g, arr, tw, t)
        scale = max(np.abs(y).max() for y in components(g, want))
        for x, y in zip(components(g, m), components(g, want)):
            assert np.abs(x - y).max() <= 1e-13 * scale

    @pytest.mark.parametrize("n", [1, 2])
    def test_eig_range_matches_discriminant_and_eigvalsh(self, n):
        g = mf.TorusGrid(n, 16 if n == 1 else 8)
        tw = self.twist(g, True)
        raw = geo.raw_combine(g, tw.c, geo.hessian_raw(g, tw.psi_chi.values))
        if n == 1:
            emax_old = float(raw.max())
        else:   # the former closed-form largest eigenvalue
            m11, m22, m12r, m12i = raw
            disc = np.sqrt(np.maximum((m11 - m22) ** 2 + 4.0 * (m12r ** 2 + m12i ** 2), 0.0))
            emax_old = float((0.5 * (m11 + m22 + disc)).max())
        emin, emax = tw.eig_range
        assert emax == emax_old
        assert emin == float(geo.eigmin_raw(g, raw).min())
        eigs = la.eigvalsh(matrix_from_raw(g, raw))
        assert emin == pytest.approx(eigs.min(), abs=1e-14)
        assert emax == pytest.approx(eigs.max(), abs=1e-14)


def trace_wrt(grid, m, h):
    """tr_M(H) of raw M and H, through the elliptic linearization's kernels."""
    return geo.contract_raw(grid, geo.inverse_raw(grid, m, geo.det_raw(grid, m)), h)


class TestMetricAndRatio:
    def test_flat_reference(self):
        g = grid1()
        m, _, _ = geo.metric_raw(g, np.zeros(g.shape))
        assert np.abs(m - 1.0).max() == 0.0

    def test_scalar_twist(self):
        g = grid1()
        m, _, _ = geo.metric_raw(g, np.zeros(g.shape), TwistSpec(c=-0.5), t=1.0)
        assert np.allclose(m, 0.5)

    def test_cone_violation_iff_amplitude_too_large(self):
        g = grid1()
        x = g.coord(0)
        ok = 0.9 / np.pi ** 2
        _, _, min_eig = geo.metric_raw(g, field(g, ok * np.cos(2 * np.pi * x)).values)
        assert min_eig > 0
        with pytest.raises(KaehlerConeViolation):
            mf.ma_ratio(field(g, (1.1 / np.pi ** 2) * np.cos(2 * np.pi * x)))

    def test_cone_violation_carries_t_and_min_eig(self):
        # H(psi_chi) = -cos(2 pi x), so M_t = 1 - t cos(2 pi x) leaves the cone past t = 1
        g = grid1()
        psi = field(g, np.cos(2 * np.pi * g.coord(0)) / np.pi ** 2)
        t = 1.5
        with pytest.raises(KaehlerConeViolation) as err:
            mf.ma_ratio(mf.PotentialField.zeros(g), TwistSpec(c=0.0, psi_chi=psi), t)
        assert err.value.t == t and err.value.min_eig < 0
        assert err.value.min_eig == pytest.approx(1.0 - t, abs=1e-12)

    def test_ratio_identity_and_separable_product(self):
        g = grid2()
        assert np.allclose(mf.ma_ratio(mf.PotentialField.zeros(g)), 1.0)
        u = 0.02 * np.cos(2 * np.pi * g.coord(0))
        v = 0.015 * np.cos(2 * np.pi * g.coord(2))
        r = mf.ma_ratio(field(g, u + v))
        ru = 1.0 + geo.hessian_raw(g, field(g, np.broadcast_to(u, g.shape)).values)[0]
        rv = 1.0 + geo.hessian_raw(g, field(g, np.broadcast_to(v, g.shape)).values)[1]
        assert np.abs(r - ru * rv).max() < 1e-12

    def test_det_against_cofactor_oracle(self):
        g = grid2()
        phi = random_bandlimited(g, 1)
        m, _, _ = geo.metric_raw(g, phi.values)
        assert np.abs(mf.ma_ratio(phi) - la.det(matrix_from_raw(g, m)).real).max() < 1e-12

    def test_min_eigenvalue_against_eigvalsh_oracle(self):
        g = grid2()
        m, _, min_eig = geo.metric_raw(g, random_bandlimited(g, 2).values)
        want = float(la.eigvalsh(matrix_from_raw(g, m)).min())
        assert min_eig == pytest.approx(want, abs=1e-12)
        assert float(geo.eigmin_raw(g, m).min()) == pytest.approx(want, abs=1e-12)

    def test_min_eigenvalue_constant_diagonal(self):
        g = grid2()
        m = (np.full(g.shape, 2.0), np.full(g.shape, 0.3), np.zeros(g.shape), np.zeros(g.shape))
        assert float(geo.eigmin_raw(g, m).min()) == pytest.approx(0.3)


class TestTraces:
    def test_laplacian_flat_metric_is_quarter_laplacian(self):
        g = grid1()
        psi = random_bandlimited(g, 3)
        m, _, _ = geo.metric_raw(g, np.zeros(g.shape))
        lap = trace_wrt(g, m, geo.hessian_raw(g, psi.values))
        assert np.abs(lap - geo.hessian_raw(g, psi.values)).max() < 1e-13

    def test_laplacian_scalar_metric(self):
        g = grid1()
        psi = random_bandlimited(g, 4)
        a = 1.8
        lap = trace_wrt(g, np.full(g.shape, a), geo.hessian_raw(g, psi.values))
        assert np.abs(lap - geo.hessian_raw(g, psi.values) / a).max() < 1e-13

    def test_laplacian_pointwise_division_oracle_n1(self):
        g = grid1(32)
        phi = random_bandlimited(g, 5, amp=0.01)
        psi = random_bandlimited(g, 6)
        m, _, _ = geo.metric_raw(g, phi.values)
        lap = trace_wrt(g, m, geo.hessian_raw(g, psi.values))
        oracle = geo.hessian_raw(g, psi.values) / m
        assert np.abs(lap - oracle).max() < 1e-12

    def test_linearity(self):
        g = grid2()
        m, _, _ = geo.metric_raw(g, random_bandlimited(g, 7, amp=0.01).values)
        p1, p2 = random_bandlimited(g, 8), random_bandlimited(g, 9)
        a, b = 1.3, -0.4

        def lap(p):
            return trace_wrt(g, m, geo.hessian_raw(g, p))

        lhs = lap(a * p1.values + b * p2.values)
        rhs = a * lap(p1.values) + b * lap(p2.values)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_divergence_form_integrates_to_zero(self):
        g = grid1()
        psi = random_bandlimited(g, 10)
        m, _, _ = geo.metric_raw(g, np.zeros(g.shape))
        assert abs(geo.integrate(trace_wrt(g, m, geo.hessian_raw(g, psi.values)), g)) < 1e-10

    def test_trace_of_self_is_dimension(self):
        g = grid2()
        m, _, _ = geo.metric_raw(g, random_bandlimited(g, 11, amp=0.01).values)
        tr = trace_wrt(g, m, m)
        assert np.abs(tr - 2.0).max() < 1e-12

    def test_trace_diag_flat(self):
        g = grid2()
        I, _, _ = geo.metric_raw(g, np.zeros(g.shape))
        h = (np.full(g.shape, 0.7), np.full(g.shape, 2.2), np.zeros(g.shape), np.zeros(g.shape))
        assert np.allclose(trace_wrt(g, I, h), 2.9)

    def test_trace_inequalities_on_random_positive_pairs(self):
        # Hermitian-pair inequality: n (det a / det b)^(1/n) <= tr_b(a)
        #                            <= n (det a / det b) (tr_a b)^(n-1)
        rng = np.random.default_rng(12)
        n = 2
        for _ in range(1000):
            ra = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            rb = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a = ra @ ra.conj().T + 0.05 * np.eye(n)
            b = rb @ rb.conj().T + 0.05 * np.eye(n)
            det_r = la.det(a).real / la.det(b).real
            tr_ba = np.trace(la.inv(b) @ a).real
            tr_ab = np.trace(la.inv(a) @ b).real
            assert tr_ba - n * det_r ** (1.0 / n) >= -1e-12
            assert n * det_r * tr_ab ** (n - 1) - tr_ba >= -1e-12


class TestIntegrate:
    def test_constant(self):
        g = grid1(16, period=2.0)
        assert geo.integrate(field(g, np.full(g.shape, 3.0))) == pytest.approx(
            3.0 * g.volume)

    def test_mean_zero_mode(self):
        g = grid1(16)
        assert abs(geo.integrate(field(g, np.cos(2 * np.pi * g.coord(0))))) < 1e-14

    def test_cos_squared_closed_form(self):
        g = grid1(16)
        val = geo.integrate(field(g, np.cos(2 * np.pi * g.coord(0)) ** 2))
        assert val == pytest.approx(g.volume / 2.0, rel=1e-14)

    @pytest.mark.parametrize("n,res", [(1, 32), (2, 8)])
    def test_cohomological_volume(self, n, res):
        g = mf.TorusGrid(n, res)
        phi = random_bandlimited(g, 13, amp=0.015)
        psi = random_bandlimited(g, 14, amp=0.01)
        tw = TwistSpec(c=0.4, psi_chi=psi)
        t = 0.7
        val = geo.integrate(mf.ma_ratio(phi, tw, t), g)
        assert val == pytest.approx((1.0 + t * 0.4) ** n * g.volume, rel=1e-8)


def test_min_eigenvalue_identity_metric():
    g = mf.TorusGrid(1, 16)
    m, _, min_eig = geo.metric_raw(g, np.zeros(g.shape))
    assert min_eig == 1.0 and float(geo.eigmin_raw(g, m).min()) == 1.0
