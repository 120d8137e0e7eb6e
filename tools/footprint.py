"""Measure what a fresh interpreter costs: ``import maflow.cli``, or one n = 2 run.

Usage:

    python tools/footprint.py [REV] [--runs N] [--run RES]

Starts N fresh interpreters (default 9), one after the other, with
``PYTHONPATH`` on this tree's ``src``.  By default each times
``import maflow.cli`` and reports its peak resident set size
(``ru_maxrss``) and the scipy subpackages it loaded.  With ``--run RES``
each instead runs one fixed n = 2 ``flow.run`` at res RES: the three-mode
data (amplitudes 0.03, 0.015, 0.015 on the first three real axes), cmaf,
``semi_implicit`` at dt 1e-3 for 4 steps (T = 0.004), on the usable CPUs;
it reports the run's wall time, ``ru_maxrss`` and the series' last energy
E.  Prints the median time and peak over the N runs, one line per tree.
Given REV, also exports REV's ``src`` with ``git archive`` (as
``tools/diff_scenarios.py`` does), alternates its interpreters with this
tree's and prints its line first.  Wall times depend on the host and its
load; compare two trees in one call, not across calls.  A res 64 run
needs about 2.5 GB and 11 s on 2 cores.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

from diff_scenarios import ROOT, export_src

PROBE = """
import json, resource, sys, time
t = time.perf_counter()
import maflow.cli
t = time.perf_counter() - t
print(json.dumps({
    "s": t,
    "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    "scipy": sorted({m.split(".")[1] for m in sys.modules
                     if m.startswith("scipy.") and not m.split(".")[1].startswith("_")}),
}))
"""

RUN_PROBE = """
import json, resource, sys, time
import maflow
from maflow.initial import cos_mode
g = maflow.TorusGrid(2, int(sys.argv[1]))
modes = [((1, 0, 0, 0), 0.03), ((0, 1, 0, 0), 0.015), ((0, 0, 1, 0), 0.015)]
phi0 = maflow.PotentialField(g, sum(cos_mode(g, k, a) for k, a in modes))
cfg = maflow.FlowConfig(grid=g, T=0.004, dt_policy="semi_implicit", dt_init=1e-3)
t = time.perf_counter()
traj = maflow.run(phi0, cfg)
t = time.perf_counter() - t
print(json.dumps({
    "s": t,
    "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    "E": repr(float(traj.column("E")[-1])),
}))
"""


def probe(src, res=None):
    """One fresh interpreter's import of maflow.cli (or run at ``res``) from ``src``: its report."""
    argv = ["-c", PROBE] if res is None else ["-c", RUN_PROBE, str(res)]
    done = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    return json.loads(done.stdout)


def line(label, reports, res=None):
    """Median time and ru_maxrss over ``reports``, and the scipy subpackages or last E."""
    s = statistics.median(r["s"] for r in reports)
    mb = statistics.median(r["maxrss_kb"] for r in reports) / 1024.0
    if res is not None:
        energies = sorted({r["E"] for r in reports})
        return (f"{label}: n = 2 res {res} semi_implicit run, 4 steps {s:.2f} s, "
                f"ru_maxrss {mb:.0f} MB (medians of {len(reports)}); last E {', '.join(energies)}")
    return (f"{label}: import maflow.cli {1e3 * s:.0f} ms, ru_maxrss {mb:.1f} MB "
            f"(medians of {len(reports)}); scipy subpackages: {', '.join(reports[0]['scipy'])}")


def main(argv):
    ap = argparse.ArgumentParser(prog="python tools/footprint.py")
    ap.add_argument("rev", nargs="?", help="git revision whose src is measured too")
    ap.add_argument("--runs", type=int, default=9, help="fresh interpreters per tree")
    ap.add_argument("--run", type=int, metavar="RES",
                    help="measure one n = 2 semi_implicit run at res RES, not the import")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be >= 1")
    with tempfile.TemporaryDirectory(prefix="footprint_") as tmp:
        trees = {"this tree": os.path.join(ROOT, "src")}
        if args.rev is not None:
            trees = {args.rev: export_src(args.rev, tmp), **trees}
        reports = {label: [] for label in trees}
        for _ in range(args.runs):   # the trees alternate, so a change in load hits both
            for label, src in trees.items():
                reports[label].append(probe(src, args.run))
    for label, runs in reports.items():
        print(line(label, runs, args.run))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
