"""Acceptance gate: every criterion at its stated tolerance, one line each.

Scenario pool (session-scoped): n in {1, 2} crossed with smooth /
bounded-discontinuous / log-pole-level initial data, each run under both
equation variants; plus the dedicated high-resolution runs the oracle
equivalences pin (res 256 for the density-form cross-check).  Singular
scenarios live on period-2 tori so the periodized poles stay inside the
Kaehler cone.
"""

import math

import numpy as np
import pytest

import maflow as mf
from maflow import verify as ver
from maflow.elliptic import newton_residual_and_linearization, solve_ma
from maflow.flow import (FlowConfig, TwistSpec, limit_potential, normalize_h,
                         run, run_levels)
from maflow.geometry import PotentialField, hessian_raw, mollify_raw
from maflow.initial import (PotentialSpec, approximation_sequence, cos_mode,
                            default_center, sample_potential)
from maflow.logdiff import evolve_density, potential_to_density
from maflow.oracles import heat_decay_factor

SNAPS = (0.05, 0.1, 0.2, 0.4)


def report(criterion, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {criterion}: {text}")
    assert ok, text


def smooth_field(grid, amp=0.03):
    vals = cos_mode(grid, (1, 0) + (0,) * (2 * grid.n - 2), amp)
    vals += cos_mode(grid, (0, 1) + (0,) * (2 * grid.n - 2), amp / 2, 0.4)
    if grid.n == 2:
        vals += cos_mode(grid, (0, 0, 1, 0), amp / 2, 1.1)
    return PotentialField(grid, vals)


def _scenario(n, kind):
    if kind == "smooth":
        grid = mf.TorusGrid(n, 64 if n == 1 else 8, period=1.0)
        source = smooth_field(grid)
        data_class = "smooth"
        h = normalize_h(PotentialField(
            grid, cos_mode(grid, (0, 1) + (0,) * (2 * n - 2), 0.05)))
    else:
        grid = mf.TorusGrid(n, 64 if n == 1 else 8, period=2.0)
        spec = (PotentialSpec("bounded_discontinuous", gamma=1.0, floor=-0.8)
                if kind == "bounded" else PotentialSpec("lelong", gamma=1.0))
        seq = approximation_sequence(spec, grid, 3, K=2.0)
        source = seq.levels[-1]
        data_class = spec.data_class
        h = None
    cmaf = FlowConfig(grid=grid, T=0.4, h=h, snapshot_times=SNAPS,
                      record_every=50)
    ncmaf = FlowConfig(grid=grid, variant="ncmaf", T=0.4, h=h,
                       snapshot_times=SNAPS, record_every=50)
    extra = {"center": list(default_center(grid))}
    return {
        "name": f"n{n}-{kind}",
        "cmaf": run(source, cmaf, data_class=data_class, meta_extra=extra),
        "ncmaf": run(source, ncmaf, data_class=data_class, meta_extra=extra),
    }


@pytest.fixture(scope="session")
def pool():
    return [_scenario(n, kind)
            for n in (1, 2) for kind in ("smooth", "bounded", "lelong")]


def test_criterion_1_maximum_principles(pool):
    worst = {"clef": math.inf, "ncmaf_bound": math.inf, "sup_bound": math.inf}
    for scen in pool:
        r1 = ver.verify_clef(scen["cmaf"], tol=1e-5)
        r2 = ver.verify_ncmaf_bound(scen["ncmaf"], tol=1e-5)
        r3 = ver.verify_sup_bound(scen["cmaf"], tol=1e-6)
        for name, rep in (("clef", r1), ("ncmaf_bound", r2), ("sup_bound", r3)):
            assert rep.status == "pass", f"{name} on {scen['name']}: {rep}"
            worst[name] = min(worst[name], rep.slack)
    report("criterion 1",
           all(v > -1e-6 for v in worst.values()),
           "maximum-principle suite on 6 scenarios, worst slacks "
           + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))


@pytest.fixture(scope="session")
def comparison_levels():
    out = {}
    grid = mf.TorusGrid(1, 64, period=2.0)
    for label, spec, kw in (
            ("zero_lelong", PotentialSpec("zero_lelong_unbounded", a=0.5),
             dict(K=3.0, ratio=0.55)),
            ("smooth", PotentialSpec(
                "smooth", modes=[((1, 0), 0.03, 0.0), ((0, 2), 0.008, 0.5)]), {})):
        seq = approximation_sequence(spec, grid, 4, **kw)
        cfg = FlowConfig(grid=grid, T=0.25, snapshot_times=(0.1, 0.25),
                         record_every=100)
        out[label] = run_levels(seq, cfg)
    return out


def test_criterion_2_comparison_and_limit(comparison_levels):
    worst_slack = math.inf
    worst_ratio = 0.0
    for label, trajs in comparison_levels.items():
        for lo, hi in zip(trajs[1:], trajs[:-1]):
            rep = ver.verify_comparison(lo, hi, tol=1e-6)
            assert rep.status == "pass", f"comparison on {label}: {rep}"
            worst_slack = min(worst_slack, rep.slack)
        _, lim = limit_potential(trajs, t=0.25)
        assert lim.monotone
        assert all(r <= 0.7 for r in lim.ratios), f"{label} ratios {lim.ratios}"
        worst_ratio = max(worst_ratio, max(lim.ratios))
    report("criterion 2", True,
           f"nested-level comparison slack {worst_slack:.2e} (tol 1e-6), "
           f"worst decrement ratio {worst_ratio:.3f} <= 0.7")


def test_criterion_3_energy_and_mean_value(pool):
    scen = pool[0]["cmaf"]   # n=1 smooth, chi = 0
    E = scen.column("E")
    e_slack = float((E[1:] - E[:-1]).min())
    assert e_slack >= -1e-4, f"energy monotonicity slack {e_slack}"
    rep = ver.verify_mean_value(scen, slope_tol=1e-3)
    assert rep.status == "pass"
    # convexity of I under a positive twist
    g = mf.TorusGrid(1, 64)
    cfg = FlowConfig(grid=g, twist=TwistSpec(c=0.3), T=0.4,
                     snapshot_times=(0.4,), record_every=20)
    tr = run(smooth_field(g), cfg)
    rep2 = ver.verify_mean_value(tr, slope_tol=1e-3, convex_tol=1e-3)
    assert rep2.status == "pass"
    assert rep2.details["worst_second_difference"] >= -1e-3
    report("criterion 3", True,
           f"E nondecreasing (slack {e_slack:.2e} >= -1e-4), I slope within "
           f"n log(1+tc) + 1e-3, I convex for c=0.3 "
           f"(d2I >= {rep2.details['worst_second_difference']:.2e})")


def test_criterion_4_density_suite(pool):
    worst = math.inf
    used = []
    for scen in pool:
        tr = scen["cmaf"]
        if tr.meta["sign_class"] != "zero" or tr.meta["data_class"] == "lelong":
            continue
        used.append(scen["name"])
        mono = ver.verify_density_monotone(tr, tol=1e-5)
        mini = ver.verify_density_min(tr, tol=1e-5)
        assert mono.status == "pass", f"{scen['name']}: {mono}"
        assert mini.status == "pass", f"{scen['name']}: {mini}"
        worst = min(worst, mono.slack, mini.slack)
    assert len(used) >= 4
    report("criterion 4", worst >= -1e-5,
           f"sup f down / inf f up / orlicz down on {used}, worst slack {worst:.2e}")


@pytest.fixture(scope="session")
def lelong_suite():
    grid = mf.TorusGrid(1, 128, period=2.0)
    gamma, beta = 1.0, 0.9
    spec = PotentialSpec("lelong", gamma=gamma)
    phi0 = sample_potential(spec, grid)
    seq = approximation_sequence(spec, grid, 3, K=2.0)
    probes = (0.1, 0.25, 0.4)
    cfg = FlowConfig(grid=grid, T=0.6, snapshot_times=probes + (0.6,),
                     record_every=400)
    trajs = run_levels(seq, cfg, meta_extra={"center": list(default_center(grid))})
    return grid, gamma, beta, phi0, trajs, probes


def test_criterion_5_lelong_smoothing(lelong_suite):
    grid, gamma, beta, phi0, trajs, probes = lelong_suite
    sm = PotentialField(grid, mollify_raw(grid, phi0.values, 2 * grid.h))
    u, _ = solve_ma(2 * beta, g=PotentialField(grid, -2 * beta * sm.values), u0=sm)
    rep = ver.verify_lelong_attenuation(trajs, gamma, beta, sm, u,
                                        probe_times=probes, slope_tol_rel=0.05)
    assert rep.status == "pass", rep
    slopes = rep.details["measured_slopes"]
    for t in probes:
        assert slopes[str(t)] <= (1.0 - 2.0 * beta * t) * gamma + 0.05
    # past the smoothing time 1/(2 beta): slope ~ 0, density in L^2 uniformly
    nu_end = mf.lelong_estimate(
        PotentialField(grid, trajs[-1].snapshot_at(0.6).phi), default_center(grid))
    assert nu_end <= 0.05
    l2 = rep.details["final_f_l2_by_level"]
    assert all(math.isfinite(v) for v in l2)
    assert max(l2) <= 2.0 * min(l2)
    fmax_end = max(tr.column("fmax")[-1] for tr in trajs)
    assert math.isfinite(fmax_end)
    report("criterion 5", True,
           f"nu(t) <= (1-2bt) + 0.05 at {probes}, nu(0.6)={nu_end:.3f} <= 0.05, "
           f"f_t in L2 uniformly across levels (spread {max(l2)/min(l2):.2f}x)")


def test_criterion_6_continuity_at_zero():
    grid = mf.TorusGrid(1, 64, period=2.0)
    t = 0.01
    msgs = []
    for kind, a in (("zero_lelong_unbounded", 0.5), ("finite_energy", 0.3)):
        spec = PotentialSpec(kind, a=a)
        phi0 = sample_potential(spec, grid)
        seq = approximation_sequence(spec, grid, 3, K=3.0, ratio=0.55)
        cfg = FlowConfig(grid=grid, T=t, snapshot_times=(t,), record_every=20)
        trajs = run_levels(seq, cfg)
        for tr in trajs:
            start = tr.snapshots[0].phi
            end = tr.snapshot_at(t).phi
            l1 = np.abs(end - start).mean() * grid.volume
            l1_0 = np.abs(start).mean() * grid.volume
            assert l1 <= 0.05 * l1_0, f"{kind} level {tr.meta['level']}: {l1} vs {l1_0}"
        deep = trajs[-1]
        l1_sing = np.abs(deep.snapshot_at(t).phi - phi0.values).mean() * grid.volume
        l1_sing0 = np.abs(phi0.values).mean() * grid.volume
        assert l1_sing <= 0.05 * l1_sing0
        msgs.append(f"{kind}: |phi_t - phi_0|_L1 / |phi_0|_L1 = "
                    f"{l1_sing / l1_sing0:.4f}")
        if kind == "finite_energy":
            E = deep.column("E")
            assert abs(E[-1] - E[0]) <= 0.05 * abs(E[0]), (E[0], E[-1])
            msgs.append(f"energy drift {abs(E[-1] - E[0]) / abs(E[0]):.4f}")
    report("criterion 6", True, "; ".join(msgs) + " (all <= 0.05)")


def test_criterion_7_oracle_equivalences():
    msgs = []
    # (a) heat limit: nonlinear-vs-heat error quarters when eps halves
    g = mf.TorusGrid(1, 32)
    T = 0.05
    errs = []
    for eps in (0.02, 0.01):
        cfg = FlowConfig(grid=g, T=T, snapshot_times=(T,), record_every=1000)
        tr = run(PotentialField(g, cos_mode(g, (1, 0), eps)), cfg)
        exact = eps * heat_decay_factor(g, (1, 0), T) * np.broadcast_to(
            np.cos(2 * np.pi * g.coord(0)), g.shape)
        errs.append(np.abs(tr.snapshot_at(T).phi - exact).max())
    ratio = errs[0] / errs[1]
    assert 3.5 <= ratio <= 4.5, f"heat-limit ratio {ratio}"
    msgs.append(f"heat-limit ratio {ratio:.2f} in [3.5, 4.5]")

    # (b) elliptic fixed point: drift <= 1e-7 per unit time
    g = mf.TorusGrid(1, 64)
    h = normalize_h(PotentialField(g, cos_mode(g, (1, 0), 0.08)))
    u, _ = solve_ma(0.0, grid=g, h=h)
    tr = run(u, FlowConfig(grid=g, h=h, T=1.0, snapshot_times=(1.0,),
                           record_every=2000))
    drift = float(np.abs(tr.snapshot_at(1.0).phi - u.values).max())
    assert drift <= 1e-7, f"fixed-point drift {drift}"
    msgs.append(f"fixed-point drift {drift:.2e} <= 1e-7")

    # (c) potential form vs density form at res 256 on [0, 1]
    g = mf.TorusGrid(1, 256)
    phi0 = PotentialField(g, cos_mode(g, (1, 0), 0.03)
                          + cos_mode(g, (0, 1), 0.015, 0.4)
                          + cos_mode(g, (1, 1), 0.008, 1.1))
    snaps = (0.25, 0.5, 1.0)
    cfg = FlowConfig(grid=g, T=1.0, dt_policy="semi_implicit", dt_init=4e-4,
                     snapshot_times=snaps, record_every=500)
    tr = run(phi0, cfg)
    trd = evolve_density(potential_to_density(phi0), 1.0,
                         dt_policy="semi_implicit", dt_init=4e-4,
                         snapshot_times=snaps, record_every=500)
    worst = max(np.abs(hessian_raw(g, tr.snapshot_at(t).phi)
                       - hessian_raw(g, trd.snapshot_at(t).phi)).max()
                for t in snaps)
    assert worst <= 1e-4, f"potential/density sup gap {worst}"
    msgs.append(f"potential vs density sup gap {worst:.2e} <= 1e-4 (res 256)")

    # (d) normalized flow equals the rescaled c=-1 twisted flow
    g = mf.TorusGrid(1, 32)
    phi0 = smooth_field(g)
    tn = 0.4
    s = 1.0 - math.exp(-tn)
    trn = run(phi0, FlowConfig(grid=g, variant="ncmaf", T=tn, snapshot_times=(tn,)))
    trc = run(phi0, FlowConfig(grid=g, twist=TwistSpec(c=-1.0), T=s,
                               snapshot_times=(s,)))
    mn = 1.0 + hessian_raw(g, trn.snapshot_at(tn).phi)
    mc = (1.0 - s) + hessian_raw(g, trc.snapshot_at(s).phi)
    rel = float((np.abs(mn - math.exp(tn) * mc) / np.abs(math.exp(tn) * mc)).max())
    assert rel <= 1e-4, f"rescaling identity rel err {rel}"
    msgs.append(f"normalized/twisted rescaling rel err {rel:.2e} <= 1e-4")
    report("criterion 7", True, "; ".join(msgs))


def test_criterion_8_numerical_hygiene(pool):
    msgs = []
    # RK4 order on a smooth run
    g = mf.TorusGrid(1, 16)
    phi0 = PotentialField(g, cos_mode(g, (1, 0), 0.03))
    sols = [run(phi0, FlowConfig(grid=g, T=0.04, dt_policy="rk4_fixed",
                                 dt_init=dt, snapshot_times=(0.04,))
                ).snapshot_at(0.04).phi
            for dt in (4e-4, 2e-4, 1e-4)]
    order = math.log2(np.abs(sols[0] - sols[1]).max()
                      / np.abs(sols[1] - sols[2]).max())
    assert 3.5 <= order <= 4.2, f"RK4 order {order}"
    msgs.append(f"RK4 order {order:.2f} in [3.5, 4.2]")

    # Newton linearization vs finite differences: O(s^2)
    g = mf.TorusGrid(1, 32)
    u = PotentialField(g, cos_mode(g, (1, 0), 0.02))
    d = cos_mode(g, (0, 1), 1.0, 0.3)
    r0, lin = newton_residual_and_linearization(u, 1.0)
    fd = []
    for s in (1e-3, 5e-4):
        r1, _ = newton_residual_and_linearization(
            PotentialField(g, u.values + s * d), 1.0)
        fd.append(np.abs(r1 - r0 - s * lin(d)).max())
    fd_ratio = fd[0] / fd[1]
    assert 3.5 <= fd_ratio <= 4.5, f"linearization FD ratio {fd_ratio}"
    msgs.append(f"linearization FD ratio {fd_ratio:.2f} (quadratic)")

    # spectral Hessian exactness on a band-limited field
    g = mf.TorusGrid(1, 64)
    eps = 0.05
    H = hessian_raw(g, cos_mode(g, (2, 1), eps))
    exact = -np.pi ** 2 * 5 * eps * np.broadcast_to(
        np.cos(2 * np.pi * (2 * g.coord(0) + g.coord(1))), g.shape)
    hess_err = float(np.abs(H - exact).max() / np.abs(exact).max())
    assert hess_err <= 1e-10
    msgs.append(f"spectral Hessian rel err {hess_err:.2e} <= 1e-10")

    # volume identity along every pooled run
    worst = 0.0
    for scen in pool:
        for key in ("cmaf", "ncmaf"):
            tr = scen[key]
            n, c = tr.meta["n"], tr.meta["c"]
            V = tr.meta["period"] ** (2 * n)
            target = (1.0 + tr.column("t") * c) ** n * V
            worst = max(worst, float(np.abs(tr.column("vol") / target - 1.0).max()))
    assert worst <= 1e-6, f"volume identity rel err {worst}"
    msgs.append(f"volume identity rel err {worst:.2e} <= 1e-6 along every run")
    report("criterion 8", True, "; ".join(msgs))
