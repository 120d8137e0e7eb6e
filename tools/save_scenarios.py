"""Save a fixed set of maflow scenarios, so two code versions compare by `diff -r`.

Usage:

    PYTHONPATH=src python tools/save_scenarios.py OUTDIR

Every scenario is seeded and deterministic, and writes only its results:
trajectory directories (``series.csv``, snapshot ``.mafl`` files,
``meta.json``) as ``io.save_run`` writes them, ``solve_ma`` fields with
their Newton log and inner-iteration counts, and oracle fields.  Run it
once against each version (``PYTHONPATH`` pointing at that version's
``src``) into two directories; a refactor that leaves the numerics alone
shows no difference in

    diff -r OUTDIR_A OUTDIR_B

The set: at n = 1 res 32 and n = 2 res 8, a smooth run, a twisted run
(psi_chi and h, c = -0.5), the normalized flow (ncmaf, with h) under rk4
and semi_implicit, the semi-implicit and fixed-step policies and a
dealiased run, and
``solve_ma`` at alpha = 0 and 1.5 (a NewtonDiverged is recorded in
``error.txt``, not raised); the n = 1 semi-implicit run again with rows
only at t0 and its boundaries, the snapshot times off the step grid
(``n1_semi_implicit_sparse/``), so its phi is formed only there; a
short twisted run at n = 2 res 16 (``n2_res16_twisted/``), the smallest
size at which a run with a CPU to spare takes a helper thread
(``geometry.lane_pays``); three Lelong approximation levels at n = 1
res 64 (``lelong/``, run at a time by ``run_levels``, and again with
``workers=1`` in the calling process, ``lelong_sequential/``), and the Lelong check's subsolution ``solve_ma`` (alpha = 1.8)
from the mollified pole on the same grid (``lelong_subsolution/``), the
steepest metric a Newton solve meets here; the density form under rk4
and semi_implicit with snapshot times off the step grid; under rk4,
rk4_fixed and semi_implicit and in the density form under rk4 and
semi_implicit, with dt_min = 1e-9, a snapshot 1e-10 past a step end
(``boundary_remainder/``) and two snapshot times 5e-10 apart
(``boundary_close/``) (a failure is recorded in ``error.txt``); the ``lelong_field`` oracle at n = 1 and n = 2; and the
command line on an INI whose [flow] and [initial] values are off
their defaults (``cli/``): ``maflow run`` (three bounded levels, twisted
with psi_chi and h), ``maflow restart --at`` of the deepest level and
``maflow verify`` with that restart, whose exit codes go to
``cli/exit_codes.json``.  Takes about a minute on one core.
"""

import json
import os
import sys

import numpy as np

from maflow import cli
from maflow import io as mio
from maflow import oracles
from maflow.elliptic import SolverLog, solve_ma
from maflow.errors import MaflowError, NewtonDiverged
from maflow.flow import FlowConfig, TwistSpec, normalize_h, run, run_levels
from maflow.geometry import PotentialField, TorusGrid, mollify_raw
from maflow.initial import PotentialSpec, approximation_sequence, cos_mode, sample_potential
from maflow.logdiff import evolve_density, potential_to_density

GRIDS = {"n1": TorusGrid(1, 32), "n2": TorusGrid(2, 8)}


def modes(grid, terms):
    """sum of amp * cos(k.x + phase) over (k, amp, phase), k padded to 2n entries."""
    vals = np.zeros(grid.shape)
    for k, amp, phase in terms:
        kvec = tuple(k) + (0,) * (2 * grid.n - len(k))
        vals += cos_mode(grid, kvec, amp, phase)
    return PotentialField(grid, vals)


def initial(grid):
    return modes(grid, [((1, 0), 0.02, 0.0), ((0, 1), 0.015, 0.3), ((1, 1), 0.01, 1.1)]
                 + ([((0, 0, 1, 0), 0.012, 0.7), ((1, 0, 0, 1), 0.008, 0.2)]
                    if grid.n == 2 else []))


def flow_configs(grid):
    """name -> FlowConfig of the run scenarios on one grid."""
    h = normalize_h(modes(grid, [((1, 0), 0.1, 0.2), ((0, 1), 0.05, 0.0)]))
    twist = TwistSpec(-0.5, modes(grid, [((0, 1), 0.004, 0.5), ((1, 1), 0.003, 0.0)]))
    base = dict(grid=grid, T=0.02, record_every=3, snapshot_times=(0.0071, 0.0133))
    return {
        "smooth": FlowConfig(**base),
        "twisted": FlowConfig(twist=twist, h=h, **base),
        "ncmaf": FlowConfig(variant="ncmaf", h=h, **base),
        "semi_implicit": FlowConfig(dt_policy="semi_implicit", dt_init=1e-3, **base),
        "ncmaf_semi_implicit": FlowConfig(variant="ncmaf", h=h, dt_policy="semi_implicit",
                                          dt_init=1e-3, **base),
        "rk4_fixed": FlowConfig(dt_policy="rk4_fixed", dt_init=2e-4, **base),
        "dealiased": FlowConfig(dealias=True, **base),
    }


def save_solve(outdir, alpha, **data):
    """solve_ma at alpha on ``data``; the field, the Newton log, the inner counts."""
    os.makedirs(outdir, exist_ok=True)
    log = SolverLog()
    try:
        u, _ = solve_ma(alpha, log=log, **data)
        mio.write_field(os.path.join(outdir, "u.mafl"), u)
    except NewtonDiverged as e:
        with open(os.path.join(outdir, "error.txt"), "w") as fh:
            fh.write(f"NewtonDiverged: {e}\n")
    log.write_csv(os.path.join(outdir, "newton_log.csv"))
    with open(os.path.join(outdir, "inner_iterations.json"), "w") as fh:
        json.dump([int(k) for k in log.inner_iterations], fh)


def smooth_solve_data(alpha, grid):
    """Smooth h (three modes) and, for alpha > 0, one g mode."""
    h = normalize_h(modes(grid, [((1, 0), 0.2, 0.0), ((0, 1), 0.2, 0.4), ((1, 1), 0.2, 0.9)]))
    g = None if alpha == 0.0 else modes(grid, [((0, 1), 0.1, 0.0)])
    return dict(g=g, h=h, grid=grid)


def save_boundary_runs(outdir, **kw):
    """One run of a smooth n = 1 res 16 potential per policy and flow form under ``kw``.

    The potential form runs under rk4, rk4_fixed and semi_implicit, the
    density form under rk4 and semi_implicit; a failure goes to ``error.txt``.
    """
    grid = TorusGrid(1, 16)
    phi0 = modes(grid, [((1, 0), 0.02, 0.0)])
    for name in ("rk4", "rk4_fixed", "semi_implicit", "density_rk4", "density_semi_implicit"):
        path = os.path.join(outdir, name)
        try:
            if name.startswith("density_"):
                policy = name[len("density_"):]
                traj = evolve_density(potential_to_density(phi0), dt_policy=policy, **kw)
                mio.save_trajectory(traj, path)
            else:
                cfg = FlowConfig(grid=grid, dt_policy=name, **kw)
                mio.save_run(run(phi0, cfg), path, cfg)
        except MaflowError as e:
            os.makedirs(path, exist_ok=True)
            with open(os.path.join(path, "error.txt"), "w") as fh:
                fh.write(f"{type(e).__name__}: {e}\n")


CLI_CONFIG = """\
[grid]
n = 1
res = 32
period = 2.0

[initial]
kind = bounded_discontinuous
gamma = 0.8
floor = -0.6
center = 1.03 0.97
clip_floor = -1e5
levels = 3
trunc_depth = 1.5
ratio = 0.6

[flow]
variant = cmaf
c = -0.5
psi_chi_modes = 0 1 : 0.004 : 0.5; 1 1 : 0.003 : 0.0
h_modes = 1 0 : 0.1 : 0.2; 0 1 : 0.05 : 0.0
T = 0.01
dt_init = 5e-3
dt_min = 1e-11
safety = 0.8
record_every = 5
dealias = true
stab_factor = 1.5

[output]
dir = run
snapshots = 0.0025, 0.005, 0.01
"""


def save_cli(outdir):
    """maflow run, restart --at and verify on CLI_CONFIG, all under outdir."""
    os.makedirs(outdir, exist_ok=True)
    config = os.path.join(outdir, "config.ini")
    with open(config, "w") as fh:
        fh.write(CLI_CONFIG)
    os.environ["MAFLOW_OUTPUT_ROOT"] = outdir   # [output] dir is relative
    run_dir, restart_dir = os.path.join(outdir, "run"), os.path.join(outdir, "restart")
    codes = {
        "run": cli.main(["run", config]),
        "restart": cli.main(["restart", os.path.join(run_dir, "level_02"), "--at", "0.005",
                             "--out", restart_dir]),
        "verify": cli.main(["verify", run_dir, "--restart-dir", restart_dir]),
    }
    with open(os.path.join(outdir, "exit_codes.json"), "w") as fh:
        json.dump(codes, fh, indent=1, sort_keys=True)


def main(argv):
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    out = argv[0]
    for tag, grid in GRIDS.items():
        phi0 = initial(grid)
        for name, cfg in flow_configs(grid).items():
            mio.save_run(run(phi0, cfg), os.path.join(out, f"{tag}_{name}"), cfg)
        for alpha in (0.0, 1.5):
            save_solve(os.path.join(out, f"{tag}_solve_ma_alpha{alpha:g}"), alpha,
                       **smooth_solve_data(alpha, grid))
        fld, _ = oracles.lelong_model_field(grid, 0.5)
        os.makedirs(os.path.join(out, "lelong_field"), exist_ok=True)
        mio.write_field(os.path.join(out, "lelong_field", f"{tag}.mafl"), fld)

    # record_every above the step count: rows at t0 and the boundaries only
    cfg = flow_configs(GRIDS["n1"])["semi_implicit"].replace(record_every=1000)
    mio.save_run(run(initial(GRIDS["n1"]), cfg), os.path.join(out, "n1_semi_implicit_sparse"),
                 cfg)

    grid = TorusGrid(2, 16)
    cfg = flow_configs(grid)["twisted"].replace(T=0.004, snapshot_times=(0.0017,))
    mio.save_run(run(initial(grid), cfg), os.path.join(out, "n2_res16_twisted"), cfg)

    grid = TorusGrid(1, 64, 2.0)
    seq = approximation_sequence(PotentialSpec("lelong", gamma=1.0), grid, 3, K=2.0)
    cfg = FlowConfig(grid=grid, T=0.01, record_every=50, snapshot_times=(0.005,))
    # the same levels in the calling process, one after the other: inside one
    # tree, `diff -r lelong lelong_sequential` checks the fan-out against them
    for name, workers in (("lelong", None), ("lelong_sequential", 1)):
        for k, traj in enumerate(run_levels(seq, cfg, workers=workers)):
            mio.save_run(traj, os.path.join(out, name, f"level_{k + 1:02d}"), cfg)
    # the Lelong check's subsolution solve (alpha = 2 beta, beta = 0.9) from the
    # mollified pole, whose metric is steep near the pole
    phi0 = sample_potential(PotentialSpec("lelong", gamma=1.0), grid)
    sm = PotentialField(grid, mollify_raw(grid, phi0.values, 2.0 * grid.h))
    save_solve(os.path.join(out, "lelong_subsolution"), 1.8,
               g=PotentialField(grid, -1.8 * sm.values), u0=sm)

    f0 = potential_to_density(initial(GRIDS["n1"]))
    for policy in ("rk4", "semi_implicit"):
        traj = evolve_density(f0, 0.02, dt_policy=policy, dt_init=1e-3, record_every=4,
                              snapshot_times=(0.00731, 0.0171))
        mio.save_trajectory(traj, os.path.join(out, f"density_{policy}"))

    # ten steps of dt_init (below the CFL step) end 1e-10 before the snapshot,
    # so the last step to it is shorter than dt_min
    save_boundary_runs(os.path.join(out, "boundary_remainder"), T=0.01, dt_init=5e-4,
                       dt_min=1e-9, record_every=4, snapshot_times=(10 * 5e-4 + 1e-10,))
    # two snapshot times closer together than dt_min
    save_boundary_runs(os.path.join(out, "boundary_close"), T=0.02, dt_init=5e-4,
                       dt_min=1e-9, record_every=4, snapshot_times=(0.01, 0.01 + 5e-10))
    save_cli(os.path.join(out, "cli"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
