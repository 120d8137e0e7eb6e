"""Damped Newton solver for the elliptic Monge-Ampere problems."""

import math

import numpy as np
import pytest

import maflow as mf
from maflow import elliptic
from maflow import geometry as geo
from maflow import io as mio
from maflow.elliptic import SolverLog, newton_residual_and_linearization, solve_ma
from maflow.errors import IncompatibleData, SingularMetric
from maflow.flow import TwistSpec, normalize_h
from maflow.geometry import PotentialField
from maflow.initial import PotentialSpec, cos_mode, sample_potential


def grid1(res=64):
    return mf.TorusGrid(1, res)


def mode(grid, kvec, amp, phase=0.0):
    return PotentialField(grid, cos_mode(grid, kvec, amp, phase))


def modes(grid, terms):
    """sum of amp * cos(k.x + phase) over (k, amp, phase), k padded to 2n entries."""
    vals = np.zeros(grid.shape)
    for k, amp, phase in terms:
        vals += cos_mode(grid, tuple(k) + (0,) * (2 * grid.n - len(k)), amp, phase)
    return PotentialField(grid, vals)


def smooth_data(grid):
    """g and h of the saved solve_ma scenarios: one g mode, three h modes of amplitude 0.2."""
    h = normalize_h(modes(grid, [((1, 0), 0.2, 0.0), ((0, 1), 0.2, 0.4), ((1, 1), 0.2, 0.9)]))
    return dict(g=modes(grid, [((0, 1), 0.1, 0.0)]), h=h, grid=grid)


def lelong_subsolution(res):
    """(alpha, kwargs) of the Lelong check's subsolution solve: alpha = 2 beta, beta = 0.9.

    The data is the mollified gamma = 1 log pole on the period-2 torus, so
    the metric at the initial guess is steep near the pole.
    """
    grid = mf.TorusGrid(1, res, 2.0)
    phi0 = sample_potential(PotentialSpec("lelong", gamma=1.0), grid)
    sm = PotentialField(grid, geo.mollify_raw(grid, phi0.values, 2.0 * grid.h))
    return 1.8, dict(g=PotentialField(grid, -1.8 * sm.values), u0=sm)


class TestSolveMa:
    def test_trivial_solution_is_zero(self):
        g = grid1()
        u, log = solve_ma(1.0, grid=g)
        assert np.abs(u.values).max() <= 1e-9
        assert log.iterations >= 1

    def test_constant_solution(self):
        # alpha u = -g at constant data: u = -a for g = a
        g = grid1()
        a = 0.45
        u, _ = solve_ma(1.0, g=PotentialField(g, np.full(g.shape, a)))
        assert np.abs(u.values + a).max() <= 1e-9

    def test_alpha_zero_constructed_solution(self):
        # e^(g) = det(I + H(eps cos)) recovers eps cos up to its mean
        g = grid1()
        eps = 0.04
        target = cos_mode(g, (1, 0), eps)
        det = 1.0 - np.pi ** 2 * eps * np.broadcast_to(
            np.cos(2 * np.pi * g.coord(0)), g.shape)
        u, _ = solve_ma(0.0, g=PotentialField(g, np.log(det)))
        assert np.abs(u.values - (target - target.mean())).max() <= 1e-8

    def test_alpha_zero_mass_mismatch_rejected(self):
        g = grid1()
        with pytest.raises(IncompatibleData):
            solve_ma(0.0, g=PotentialField(g, np.full(g.shape, 0.2)))

    def test_residual_at_solution_small(self):
        g = grid1()
        h = normalize_h(mode(g, (1, 1), 0.2))
        u, _ = solve_ma(1.0, g=mode(g, (0, 1), 0.3), h=h)
        r, _ = newton_residual_and_linearization(u, 1.0, g=mode(g, (0, 1), 0.3), h=h)
        assert np.abs(r).max() <= 1e-9

    def test_output_strictly_inside_cone(self):
        g = grid1()
        u, _ = solve_ma(1.0, g=mode(g, (1, 0), 0.5))
        assert geo.metric_raw(g, u.values)[2] > 0

    def test_comparison_monotone_in_g(self):
        # g1 <= g2 implies u1 >= u2 for the monotone alpha > 0 problem
        g = grid1()
        g1 = mode(g, (1, 0), 0.2)
        g2 = PotentialField(g, g1.values + 0.3 * (1.02 + cos_mode(g, (0, 1), 1.0)))
        u1, _ = solve_ma(1.0, g=g1)
        u2, _ = solve_ma(1.0, g=g2)
        assert (u1.values - u2.values).min() >= -1e-8

    def test_n2_solution(self):
        g = mf.TorusGrid(2, 8)
        gf = PotentialField(g, cos_mode(g, (1, 0, 0, 0), 0.1)
                            + cos_mode(g, (0, 0, 1, 0), 0.05, 0.7))
        u, _ = solve_ma(1.0, g=gf)
        r, _ = newton_residual_and_linearization(u, 1.0, g=gf)
        assert np.abs(r).max() <= 1e-9

    def test_twisted_problem(self):
        g = grid1()
        tw = TwistSpec(c=0.3)
        u, _ = solve_ma(1.0, g=mode(g, (1, 0), 0.2), twist=tw, t=0.5)
        r, _ = newton_residual_and_linearization(u, 1.0, g=mode(g, (1, 0), 0.2),
                                                 twist=tw, t=0.5)
        assert np.abs(r).max() <= 1e-9

    def test_inner_solve_stays_cheap_for_large_alpha(self):
        g = grid1()
        log = SolverLog()
        solve_ma(25.0, g=mode(g, (1, 0), 0.3), log=log)
        assert log.iterations <= 30

    def test_log_csv_roundtrip(self, tmp_path):
        g = grid1()
        _, log = solve_ma(1.0, g=mode(g, (1, 0), 0.2))
        path = tmp_path / "newton.csv"
        mio.write_csv(path, log.COLUMNS, log.rows)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iteration,residual,damping"
        assert len(lines) == log.iterations + 1


class TestLinearization:
    def test_matches_finite_differences(self):
        # |res(u + s d) - res(u) - s Lin(d)| = O(s^2)
        g = grid1(32)
        rng = np.random.default_rng(8)
        u = mode(g, (1, 0), 0.02)
        d = cos_mode(g, (0, 1), 1.0, 0.3) + cos_mode(g, (1, 1), 0.5, 1.1)
        r0, lin = newton_residual_and_linearization(u, 1.0)
        errs = []
        for s in (1e-3, 5e-4, 2.5e-4):
            r1, _ = newton_residual_and_linearization(
                PotentialField(g, u.values + s * d), 1.0)
            errs.append(np.abs(r1 - r0 - s * lin(d)).max())
        ratio1 = errs[0] / errs[1]
        ratio2 = errs[1] / errs[2]
        assert 3.5 <= ratio1 <= 4.5 and 3.5 <= ratio2 <= 4.5

    def test_linearization_reduces_to_flat_laplacian_minus_alpha(self):
        g = grid1(32)
        alpha = 2.0
        _, lin = newton_residual_and_linearization(PotentialField(g, np.zeros(g.shape)), alpha)
        d = cos_mode(g, (1, 0), 1.0)
        expected = -np.pi ** 2 * d - alpha * d
        assert np.abs(lin(d) - expected).max() < 1e-12

    @pytest.mark.parametrize("n", [1, 2])
    def test_raw_inverse_matches_matrix_inverse(self, n):
        g = mf.TorusGrid(n, 16)
        rng = np.random.default_rng(n)
        hess = geo.hessian_raw(g, 0.02 * rng.standard_normal(g.shape))
        m, det, _ = geo.metric_det_eigmin(g, hess, 1.0)
        inv, _ = elliptic._linearization(g, m, det, 0.0)
        want = geo.inverse_raw(g, m, det)
        for got, ref in zip((inv,) if n == 1 else inv, (want,) if n == 1 else want):
            assert np.array_equal(got, ref)

    def test_singular_metric_rejected(self):
        g = grid1(16)
        m = np.ones(g.shape)
        m[3, 5] = 0.0
        with pytest.raises(SingularMetric):
            elliptic._linearization(g, m, m, 1.0)


def twisted_n2_data():
    grid = mf.TorusGrid(2, 16)
    twist = TwistSpec(-0.5, modes(grid, [((0, 1), 0.004, 0.5), ((1, 1), 0.003, 0.0)]))
    return dict(twist=twist, t=0.5, **smooth_data(grid))


# name -> (() -> (alpha, solve_ma keyword arguments), total GMRES matvecs under
# the flat preconditioner (mbar Delta - alpha)^{-1} that the det-weighted one replaced)
MATVEC_CASES = {
    "n1_alpha1.5": (lambda: (1.5, smooth_data(grid1(64))), 40),
    "n1_alpha25": (lambda: (25.0, smooth_data(grid1(64))), 19),
    "n2_alpha1.5": (lambda: (1.5, smooth_data(mf.TorusGrid(2, 8))), 40),
    "n2_alpha25": (lambda: (25.0, smooth_data(mf.TorusGrid(2, 8))), 19),
    "n2_twisted_res16": (lambda: (1.5, twisted_n2_data()), 42),
    # a compatible h mode; the flat preconditioner took 2,569 matvecs in the last step
    "n1_alpha0": (lambda: (0.0, dict(grid=grid1(64), h=normalize_h(
        mode(grid1(64), (1, 1), 0.3, -math.pi / 2)))), 2593),
    "lelong_subsolution_res64": (lambda: lelong_subsolution(64), 146),
    "lelong_subsolution_res128": (lambda: lelong_subsolution(128), 296),
}


class TestInnerIterations:
    def test_large_alpha_diagonally_dominant(self):
        # strong zeroth-order term: a handful of inner Krylov steps suffice
        g = grid1(64)
        log = SolverLog()
        solve_ma(25.0, g=mode(g, (1, 0), 0.3), log=log)
        assert log.inner_iterations
        assert max(log.inner_iterations) <= 30

    @pytest.mark.parametrize("name", sorted(MATVEC_CASES))
    def test_matvecs_no_more_than_flat_preconditioner(self, name):
        data, flat = MATVEC_CASES[name]
        alpha, kwargs = data()
        log = SolverLog()
        solve_ma(alpha, log=log, **kwargs)
        total = sum(log.inner_iterations)
        assert total <= flat, (total, log.inner_iterations)
        if name.startswith("lelong_subsolution"):
            # the steep metric near the pole is what the det weighting absorbs
            assert 3 * total <= flat, (total, log.inner_iterations)
        assert log.rows[-1][1] <= 1e-9


class TestInnerConverged:
    def test_stalled_inner_solve_recorded(self):
        # alpha = 0, three modes of amplitude 0.2 at the compatible mass: the
        # Nyquist corner modes keep the last inner solve from reaching its rtol
        g = grid1(64)
        data = normalize_h(modes(g, [((1, 0), 0.2, 0.0), ((0, 1), 0.2, -math.pi / 2),
                                     ((1, 1), 0.2, 0.0)]))
        log = SolverLog()
        solve_ma(0.0, g=data, log=log)
        assert len(log.inner_converged) == len(log.inner_iterations) == log.iterations - 1
        assert log.inner_converged[-1] is False
        assert all(log.inner_converged[:-1])

    def test_smooth_solve_converges_every_step(self):
        log = SolverLog()
        solve_ma(1.5, log=log, **smooth_data(grid1(64)))
        assert log.inner_converged and all(c is True for c in log.inner_converged)
