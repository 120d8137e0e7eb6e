"""Command-line interface: run, verify, oracle, compare, restart.

Exit codes: 0 ok, 2 configuration error (runs paired under different
configurations included), 3 solver failure (failure time in the report),
4 verification failure (advisory checks never affect the code).
"""

import argparse
import json
import os
import sys

import numpy as np

from . import io as mio
from . import oracles, verify as ver
from .config import load_config
from .elliptic import solve_ma
from .errors import ConfigError, ConfigMismatch, InvalidSpec, MaflowError
from .flow import continue_run, limit_potential, run_levels
from .geometry import TorusGrid
from .initial import (ApproximationSequence, approximation_sequence, default_center,
                      sample_potential)


def _build_levels(setup):
    """The run's levels: a smooth or file potential is the one level."""
    spec = setup.spec
    if spec.kind == "smooth" or spec.kind == "from_file":
        return ApproximationSequence(spec, setup.grid, [sample_potential(spec, setup.grid)])
    return approximation_sequence(spec, setup.grid, max(setup.levels, 1),
                                  K=setup.trunc_depth, delta0=setup.delta0,
                                  ratio=setup.ratio)


def cmd_run(args):
    setup = load_config(args.config)
    os.makedirs(setup.outdir, exist_ok=True)
    center = setup.spec.center or default_center(setup.grid)
    trajs = run_levels(_build_levels(setup), setup.flow,
                       meta_extra={"center": list(center)}, workers=args.workers)
    for j, traj in enumerate(trajs):
        name = f"level_{j:02d}"
        mio.save_run(traj, os.path.join(setup.outdir, name), setup.flow)
        print(f"{name}: {len(traj.times)} rows, "
              f"min_eig {traj.column('min_eig').min():.4g}")
    if len(trajs) >= 3:
        _, rep = limit_potential(trajs, t=setup.flow.T)
        with open(os.path.join(setup.outdir, "limit.json"), "w") as fh:
            json.dump({"t": rep.t, "decrements": rep.decrements,
                       "ratios": rep.ratios, "converged": rep.converged,
                       "monotone": rep.monotone}, fh, indent=1)
        print(f"limit: decrements {['%.3g' % d for d in rep.decrements]} "
              f"converged={rep.converged}")
    with open(os.path.join(setup.outdir, "config_echo.ini"), "w") as fh:
        with open(args.config) as src:
            fh.write(src.read())
    return 0


def _load_levels(rundir):
    dirs = mio.level_dirs(rundir)
    if not dirs:
        raise ConfigError(f"{rundir}: no level_* subdirectories")
    return [mio.load_trajectory(d) for d in dirs]


def cmd_verify(args):
    trajs = _load_levels(args.rundir)
    checks, tol = None, {}
    echo = os.path.join(args.rundir, "config_echo.ini")
    if os.path.exists(echo):   # the run's [verify] checks and tol.<check> keys
        setup = load_config(echo)
        checks = setup.checks or None
        tol = {name: {"tol": v} for name, v in setup.tolerances.items()}
    if args.checks:
        checks = args.checks.replace(",", " ").split()
        ver.validate_check_names(checks)
    reports = []
    deep = trajs[-1]
    single = checks or list(ver.SINGLE_RUN_CHECKS)
    for name in single:
        if name in ver.SINGLE_RUN_CHECKS:
            reports.append(ver.SINGLE_RUN_CHECKS[name](deep, **tol.get(name, {})))
    named = checks or ()   # a named check whose input is missing reports skip
    if len(trajs) >= 2 and (checks is None or "comparison" in checks):
        for lo, hi in zip(trajs[1:], trajs[:-1]):
            reports.append(ver.verify_comparison(lo, hi, **tol.get("comparison", {})))
    elif "comparison" in named:
        reports.append(ver.verify_comparison(deep, None))
    if (len(trajs) >= 2 and checks is None) or "oscillation_levels" in named:
        reports.append(ver.verify_oscillation_levels(trajs))
    restarted = mio.load_trajectory(args.restart_dir) if args.restart_dir else None
    if restarted is not None or "minodot" in named:
        reports.append(ver.verify_minodot(deep, restarted, **tol.get("minodot", {})))
    out = args.out or os.path.join(args.rundir, "verdicts.json")
    mio.write_verdicts(out, reports)
    failed = [r for r in reports if r.status == "fail" and not r.advisory]
    for r in reports:
        mark = {"pass": "PASS", "fail": "FAIL", "skip": "skip"}[r.status]
        extra = f" [{r.gated_on}]" if r.status == "skip" else \
            f" slack={r.slack:.3g} tol={r.tolerance:.3g}"
        adv = " (advisory)" if r.advisory else ""
        print(f"[{mark}] {r.name}{adv}: {r.statement}{extra}")
    print(f"verdicts written to {out}")
    return 4 if failed else 0


def cmd_oracle(args):
    """Write the named oracle under --out; the inputs are checked before it is made."""
    try:
        grid = TorusGrid(args.n, args.res, args.period)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    if args.name == "heat":
        try:
            kvec = tuple(int(k) for k in args.mode.split())
        except ValueError:
            kvec = ()
        if len(kvec) != 2 * grid.n:
            raise ConfigError(f"--mode {args.mode!r}: give {2 * grid.n} integers at n = {grid.n}")
    elif args.name == "elliptic_fixed_point":
        from .config import _mode_field
        from .flow import normalize_h
        h = normalize_h(_mode_field(grid, args.h_modes)) if args.h_modes else None
    os.makedirs(args.out, exist_ok=True)
    if args.name == "heat":
        table = oracles.heat_mode_series(grid, kvec, args.amp, args.T)
        path = os.path.join(args.out, "heat_mode.csv")
        with open(path, "w") as fh:
            fh.write("t,amplitude\n")
            for t, a in table:
                fh.write(f"{t:.17g},{a:.17g}\n")
        print(f"heat oracle (rate 4 pi^2 kappa |k|^2 / L^2, kappa={oracles.KAPPA}) "
              f"-> {path}")
    elif args.name == "lelong_field":
        fld, center = oracles.lelong_model_field(grid, args.gamma)
        path = os.path.join(args.out, "lelong_field.mafl")
        mio.write_field(path, fld)
        print(f"model log pole gamma={args.gamma} at {center} -> {path}")
    else:   # elliptic_fixed_point; argparse admits no other name
        u, log = solve_ma(0.0, grid=grid, h=h)
        path = os.path.join(args.out, "fixed_point.mafl")
        mio.write_field(path, u)
        print(f"stationary potential (residual {log.rows[-1][1]:.3g}, "
              f"{log.iterations} iterations) -> {path}")
        log.write_csv(os.path.join(args.out, "newton_log.csv"))
    return 0


def cmd_compare(args):
    ta = mio.load_trajectory(args.run_a)
    tb = mio.load_trajectory(args.run_b)
    if ta.grid != tb.grid:
        raise ConfigMismatch(f"the runs lie on different grids, {ta.grid} and {tb.grid}")
    common = sorted(set(np.round(ta.times, 12)) & set(np.round(tb.times, 12)))
    report = {"common_rows": len(common)}
    if common:
        ia = {round(t, 12): i for i, t in enumerate(ta.times)}
        ib = {round(t, 12): i for i, t in enumerate(tb.times)}
        for col in ("sup", "inf", "I", "E", "fmin", "fmax"):
            d = [tb.series[col][ib[t]] - ta.series[col][ia[t]] for t in common]
            report[f"max_abs_d_{col}"] = float(np.abs(d).max())
    diffs = {}
    for t in ver.shared_snapshot_times(ta, tb):
        d = tb.snapshot_at(t).phi - ta.snapshot_at(t).phi
        diffs[str(t)] = {"min": float(d.min()), "max": float(d.max())}
    report["field_diffs"] = diffs
    if diffs:
        report["signed_min_diff"] = min(v["min"] for v in diffs.values())
    out = args.out or "compare.json"
    with open(out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    for k, v in report.items():
        if k != "field_diffs":
            print(f"{k}: {v}")
    print(f"report written to {out}")
    return 0


def cmd_restart(args):
    traj = mio.load_trajectory(args.rundir)
    config = mio.load_run_config(args.rundir, traj.twist)
    out = continue_run(traj, args.at, config, T=args.to, workers=args.workers)
    dest = args.out or os.path.join(os.path.dirname(args.rundir.rstrip("/")) or ".",
                                    "restart")
    mio.save_run(out, dest, config if args.to is None else config.replace(T=args.to))
    print(f"restarted at t={args.at} to T={out.meta['T']}; saved to {dest}")
    return 0


WORKERS_HELP = ("cap on the CPUs of the run (default: the usable CPUs): with two or more "
                "levels and a cap of two or more, every level runs at once in a process of "
                "its own, pinned to that many CPUs below the usable ones; each level's share "
                "is cap // min(levels, cap), and an n = 2 level at res >= 16 takes a helper "
                "thread where its share is two or more; 1 runs the levels one after the "
                "other and starts no thread or process; the output does not depend on it")


def build_parser():
    p = argparse.ArgumentParser(prog="maflow",
                                description="parabolic Monge-Ampere flows on flat tori")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="run a configured flow (all levels)")
    pr.add_argument("config")
    pr.add_argument("--workers", type=int, default=None, help=WORKERS_HELP)
    pr.set_defaults(func=cmd_run)

    pv = sub.add_parser("verify", help="check the a priori estimates on a run dir")
    pv.add_argument("rundir")
    pv.add_argument("--checks", default="")
    pv.add_argument("--restart-dir", default="")
    pv.add_argument("--out", default="")
    pv.set_defaults(func=cmd_verify)

    po = sub.add_parser("oracle", help="emit reference outputs")
    po.add_argument("name", choices=["heat", "lelong_field", "elliptic_fixed_point"])
    po.add_argument("--n", type=int, default=1)
    po.add_argument("--res", type=int, default=64)
    po.add_argument("--period", type=float, default=1.0)
    po.add_argument("--mode", default="1 0")
    po.add_argument("--amp", type=float, default=1.0)
    po.add_argument("--T", type=float, default=1.0)
    po.add_argument("--gamma", type=float, default=1.0)
    po.add_argument("--h-modes", default="")
    po.add_argument("--out", default="oracle_out")
    po.set_defaults(func=cmd_oracle)

    pc = sub.add_parser("compare", help="paired-difference report of two runs")
    pc.add_argument("run_a")
    pc.add_argument("run_b")
    pc.add_argument("--out", default="")
    pc.set_defaults(func=cmd_compare)

    ps = sub.add_parser("restart", help="continue a saved run from a snapshot")
    ps.add_argument("rundir")
    ps.add_argument("--at", type=float, required=True)
    ps.add_argument("--to", type=float, default=None)
    ps.add_argument("--out", default="")
    ps.add_argument("--workers", type=int, default=None, help=WORKERS_HELP)
    ps.set_defaults(func=cmd_restart)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ConfigMismatch, InvalidSpec) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except MaflowError as e:
        at = f" at t={e.t:.6g}" if e.t is not None else ""
        print(f"solver failure{at}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
