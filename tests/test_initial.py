"""Model potentials, approximation levels, and the Lelong slope estimator."""

import numpy as np
import pytest

import maflow as mf
from maflow import geometry as geo
from maflow import io as mio
from maflow.errors import InsufficientResolution, InvalidSpec
from maflow.initial import (LEVEL_BLEND, ApproximationSequence, PotentialSpec,
                            approximation_sequence, cos_mode, default_center,
                            green_function, lelong_estimate, sample_potential,
                            sphere_average, _sphere_directions)


@pytest.fixture(scope="module")
def g128():
    return mf.TorusGrid(1, 128, period=2.0)


@pytest.fixture(scope="module")
def g64():
    return mf.TorusGrid(1, 64, period=1.0)


class TestGreenFunction:
    def test_log_pole_normalization(self, g64):
        # G(z) = log|z - z0| + O(|z - z0|^2) near the pole
        z0 = (0.31, 0.47)
        G = green_function(g64, z0)
        x = np.broadcast_to(g64.coord(0), g64.shape)
        y = np.broadcast_to(g64.coord(1), g64.shape)
        r = np.hypot(x - z0[0], y - z0[1])
        near = (r > 0) & (r < 0.04)
        assert np.abs(G[near] - np.log(r[near])).max() < 4.0 * 0.04 ** 2

    def test_periodic_mass_balance(self, g64):
        # Delta G integrates to zero on the torus: spectral Laplacian check
        G = green_function(g64, (0.5078125, 0.5078125))
        lap = geo.hessian_raw(g64, G)
        assert abs(lap.mean()) < 1e-10
        # compensating background curvature is -pi/(2 L^2) on H = Delta/4
        far = G > np.quantile(G, 0.6)
        assert np.allclose(lap[far], -np.pi / 2.0, atol=0.02)


class TestSamplePotential:
    def test_smooth_single_mode_exact(self, g64):
        spec = PotentialSpec("smooth", modes=[((1, 0), 0.05, 0.0)])
        phi = sample_potential(spec, g64)
        exact = 0.05 * np.cos(2 * np.pi * g64.coord(0))
        assert np.abs(phi.values - np.broadcast_to(exact, g64.shape)).max() < 1e-14

    def test_lelong_sample_mass(self, g128):
        phi = sample_potential(PotentialSpec("lelong", gamma=1.0), g128)
        nu = lelong_estimate(phi, default_center(g128))
        assert nu == pytest.approx(1.0, abs=0.05)

    def test_zero_lelong_unbounded_slope_decays_with_resolution(self):
        # -(s0 - log r)^a has local log-slope a (s0 - log r)^(a-1): positive at
        # any finite radius but -> 0, so the estimate must track the analytic
        # window value and shrink as the grid refines.
        a, s0 = 0.5, 1.0
        estimates = []
        for res in (64, 128, 256):
            g = mf.TorusGrid(1, res, period=2.0)
            phi = sample_potential(PotentialSpec("zero_lelong_unbounded", a=a), g)
            estimates.append(lelong_estimate(phi, default_center(g)))
        g = mf.TorusGrid(1, 256, period=2.0)
        r_mid = np.sqrt(3.0 * g.h * 0.22 * g.period)  # window midpoint
        window_slope = a * (s0 - np.log(r_mid)) ** (a - 1.0)
        assert estimates[-1] == pytest.approx(window_slope, rel=0.25)
        assert estimates[2] < estimates[1] < estimates[0]
        phi = sample_potential(PotentialSpec("zero_lelong_unbounded", a=a),
                               mf.TorusGrid(1, 128, period=2.0))
        assert phi.inf < -1.5  # genuinely unbounded at this resolution

    def test_bounded_discontinuous_is_bounded(self, g128):
        spec = PotentialSpec("bounded_discontinuous", gamma=1.0, floor=-1.0)
        phi = sample_potential(spec, g128)
        assert phi.inf == pytest.approx(-1.0)
        assert phi.sup < 0.5

    def test_deterministic(self, g128):
        spec = PotentialSpec("lelong", gamma=0.8)
        a = sample_potential(spec, g128)
        b = sample_potential(spec, g128)
        assert np.array_equal(a.values, b.values)

    def test_psh_validation_rejects_too_much_mass(self):
        # gamma = 1 on the unit torus carries background curvature -pi/2 < -1
        g = mf.TorusGrid(1, 64, period=1.0)
        with pytest.raises(InvalidSpec):
            sample_potential(PotentialSpec("lelong", gamma=1.0), g)

    @pytest.mark.parametrize("kind", ["smooth", "from_file"])
    def test_psh_validation_covers_every_kind(self, kind, tmp_path):
        # 1 + H(eps cos 2 pi x) has min 1 - pi^2 eps: 0.51 at eps = 0.05, -0.97 at 0.2
        g = mf.TorusGrid(1, 32, period=1.0)

        def spec(eps):
            if kind == "smooth":
                return PotentialSpec("smooth", modes=[((1, 0), eps, 0.0)])
            path = tmp_path / f"{eps}.mafl"
            mio.write_field(path, mf.PotentialField(g, cos_mode(g, (1, 0), eps)))
            return PotentialSpec("from_file", path=str(path))

        assert np.array_equal(sample_potential(spec(0.05), g).values,
                              cos_mode(g, (1, 0), 0.05))
        with pytest.raises(InvalidSpec, match="not omega-psh at grid scale"):
            sample_potential(spec(0.2), g)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidSpec):
            PotentialSpec("lelong", gamma=-1.0)
        with pytest.raises(InvalidSpec):
            PotentialSpec("zero_lelong_unbounded", a=1.5)
        with pytest.raises(InvalidSpec):
            PotentialSpec("finite_energy", a=0.7)
        with pytest.raises(InvalidSpec):
            PotentialSpec("spiky")

    def test_n2_lelong_sample(self):
        g = mf.TorusGrid(2, 16, period=2.0)
        phi = sample_potential(PotentialSpec("lelong", gamma=1.0), g)
        c = default_center(g)
        # pit sits at the requested center
        idx = np.unravel_index(np.argmin(phi.values), g.shape)
        pit = np.array(idx) * g.h
        assert np.abs(pit - np.array(c)).max() <= g.h


class TestApproximationSequence:
    def test_smooth_levels_close_to_sample(self, g64):
        spec = PotentialSpec("smooth", modes=[((1, 0), 0.04, 0.0), ((0, 2), 0.01, 0.4)])
        phi0 = sample_potential(spec, g64)
        seq = approximation_sequence(spec, g64, 4)
        for lev in seq.levels:
            # levels sit within O(delta^2) above the sample: compensating
            # constant (2n + 1/2) delta^2 plus the heat-mollification shift
            gap = lev.phi.values - phi0.values
            assert gap.min() > -1e-9
            assert gap.max() <= 6.0 * lev.delta ** 2

    def test_pointwise_decreasing_and_strictly_psh(self, g128):
        seq = approximation_sequence(PotentialSpec("lelong", gamma=1.0), g128, 5,
                                     K=1.0)
        for hi, lo in zip(seq.levels[:-1], seq.levels[1:]):
            assert float((lo.phi.values - hi.phi.values).max()) <= 1e-12
            assert lo.eps > 0
        minima = [lev.phi.inf for lev in seq.levels]
        assert all(b < a for a, b in zip(minima[:-1], minima[1:]))

    def test_lelong_truncation_depth_and_closeness(self, g128):
        K = 1.0
        spec = PotentialSpec("lelong", gamma=1.0)
        phi0 = sample_potential(spec, g128)
        seq = approximation_sequence(spec, g128, 4, K=K)
        # sup-norm closeness away from the truncation set {phi0 > -jK/2};
        # C frozen from the level-1 measurement with margin
        for lev in seq.levels:
            mask = phi0.values > -lev.j * K / 2.0
            err = np.abs(lev.phi.values - phi0.values)[mask].max()
            assert err <= 14.0 * lev.delta ** 2

    def test_bounded_data_uniform_bound(self, g128):
        spec = PotentialSpec("bounded_discontinuous", gamma=1.0, floor=-0.8)
        phi0 = sample_potential(spec, g128)
        seq = approximation_sequence(spec, g128, 3)
        bound = np.abs(phi0.values).max() + 1.0
        for lev in seq.levels:
            assert np.abs(lev.phi.values).max() <= bound

    def test_levels_follow_the_documented_construction(self, g64):
        # level j: truncate at -jK, mollify at delta_j, blend by
        # s_j = LEVEL_BLEND ratio^(2(j-1)) towards the sup, add (2n + 1/2) delta_j^2
        spec = PotentialSpec("lelong", gamma=0.5)
        K, ratio = 0.5, 0.7
        phi0 = sample_potential(spec, g64).values
        seq = approximation_sequence(spec, g64, 3, K=K, ratio=ratio)
        delta0 = max(6.0 * g64.h, g64.period / 32.0)
        assert LEVEL_BLEND == 0.01
        for lev in seq.levels:
            delta = delta0 * ratio ** (lev.j - 1)
            s = LEVEL_BLEND * ratio ** (2 * (lev.j - 1))
            psi = geo.mollify_raw(g64, np.maximum(phi0, -lev.j * K), delta)
            want = (1.0 - s) * psi + s * psi.max() + 2.5 * delta ** 2
            assert lev.delta == delta
            assert np.array_equal(lev.phi.values, want)

    def test_sequence_container(self, g64):
        spec = PotentialSpec("smooth", modes=[((1, 0), 0.02, 0.0)])
        seq = approximation_sequence(spec, g64, 3)
        assert isinstance(seq, ApproximationSequence)
        assert len(seq.levels) == 3
        assert seq.levels[0].j == 1


class TestLelongEstimate:
    def test_closed_form_pole(self, g64):
        z0 = default_center(g64)
        phi = mf.PotentialField(g64, 0.7 * green_function(g64, z0))
        assert lelong_estimate(phi, z0) == pytest.approx(0.7, rel=0.05)

    def test_smooth_field_is_zero(self, g64):
        z0 = default_center(g64)
        phi = mf.PotentialField(
            g64, 0.05 * np.broadcast_to(np.cos(2 * np.pi * g64.coord(0)),
                                        g64.shape).copy())
        assert lelong_estimate(phi, z0) <= 0.02

    def test_superposition_reads_local_mass(self, g64):
        z0 = default_center(g64)
        z1 = (z0[0] + 0.37, z0[1] + 0.29)
        phi = mf.PotentialField(
            g64, 0.5 * green_function(g64, z0) + 0.8 * green_function(g64, z1))
        assert lelong_estimate(phi, z0) == pytest.approx(0.5, rel=0.07)

    def test_insufficient_resolution(self):
        g = mf.TorusGrid(1, 8)
        phi = mf.PotentialField.zeros(g)
        with pytest.raises(InsufficientResolution):
            lelong_estimate(phi, (0.5, 0.5))


    @pytest.mark.parametrize("n, res, period", [(1, 64, 2.0), (2, 8, 1.0)])
    def test_sphere_averages_match_one_interpolation_per_radius(self, n, res, period):
        # one spline fit for all radii reads the same bits as map_coordinates
        # fitting its own spline at each radius (n = 2: the random directions)
        from scipy.ndimage import map_coordinates

        g = mf.TorusGrid(n, res, period)
        phi = mf.PotentialField(g, np.random.default_rng(n).standard_normal(g.shape))
        z0 = np.asarray(default_center(g)) + 0.3 * g.h
        radii = np.geomspace(2.0 * g.h, 0.22 * period, 7)
        dirs = _sphere_directions(n, 96)
        expected = []
        for r in radii:
            pts = (z0[None, :] + r * dirs) / g.h
            vals = map_coordinates(phi.values, [pts[:, a] for a in range(2 * n)], order=3,
                                   mode="grid-wrap")
            expected.append(vals.mean())
        avgs = sphere_average(phi, z0, radii)
        assert np.array_equal(avgs, expected)
        one = sphere_average(phi, z0, radii[3])
        assert type(one) is float and one == expected[3]


def test_center_length_validated():
    g = mf.TorusGrid(2, 8, period=2.0)
    with pytest.raises(InvalidSpec):
        sample_potential(PotentialSpec("lelong", gamma=0.5, center=(0.5, 0.5)), g)
