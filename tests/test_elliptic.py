"""Damped Newton solver for the elliptic Monge-Ampere problems."""

import numpy as np
import pytest

import maflow as mf
from maflow import elliptic
from maflow import geometry as geo
from maflow.elliptic import SolverLog, newton_residual_and_linearization, solve_ma
from maflow.errors import IncompatibleData, SingularMetric
from maflow.flow import FlowConfig, TwistSpec, normalize_h, run
from maflow.geometry import PotentialField
from maflow.initial import cos_mode


def grid1(res=64):
    return mf.TorusGrid(1, res)


def mode(grid, kvec, amp, phase=0.0):
    return PotentialField(grid, cos_mode(grid, kvec, amp, phase))


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
        assert mf.metric_matrix(u).min_eig > 0

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
        log.write_csv(path)
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
        _, lin = newton_residual_and_linearization(PotentialField.zeros(g), alpha)
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
        want = geo.raw_from_matrix(g, geo.inverse_hermitian(g, geo.matrix_from_raw(g, m)))
        for got, ref in zip((inv,) if n == 1 else inv, (want,) if n == 1 else want):
            assert np.array_equal(got, ref)

    def test_singular_metric_rejected(self):
        g = grid1(16)
        m = np.ones(g.shape)
        m[3, 5] = 0.0
        with pytest.raises(SingularMetric):
            elliptic._linearization(g, m, m, 1.0)


class TestFixedPointHandoff:
    def test_flow_drift_below_budget(self):
        # run(solve_ma output) under matching h drifts <= 1e-7 per unit time
        g = grid1(64)
        h = normalize_h(mode(g, (1, 0), 0.08))
        u, _ = solve_ma(0.0, grid=g, h=h)
        cfg = FlowConfig(grid=g, h=h, T=1.0, snapshot_times=(1.0,), record_every=500)
        tr = run(u, cfg)
        drift = np.abs(tr.snapshot_at(1.0).phi - u.values).max()
        assert drift <= 1e-7


class TestInnerIterations:
    def test_large_alpha_diagonally_dominant(self):
        # strong zeroth-order term: a handful of inner Krylov steps suffice
        g = grid1(64)
        log = SolverLog()
        solve_ma(25.0, g=mode(g, (1, 0), 0.3), log=log)
        assert log.inner_iterations
        assert max(log.inner_iterations) <= 30
