"""Measure what a fresh ``import maflow.cli`` costs: wall time, peak memory, scipy loaded.

Usage:

    python tools/footprint.py [REV] [--runs N]

Starts N fresh interpreters (default 9), one after the other, with
``PYTHONPATH`` on this tree's ``src``.  Each times ``import maflow.cli``
and reports its peak resident set size (``ru_maxrss``) and the scipy
subpackages it loaded.  Prints the median time and peak over the N runs
and the subpackages, one line per tree.  Given REV, also exports REV's
``src`` with ``git archive`` (as ``tools/diff_scenarios.py`` does),
alternates its interpreters with this tree's and prints its line first.
Wall times depend on the host and its load; compare two trees in one
call, not across calls.
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


def probe(src):
    """One fresh interpreter's import of maflow.cli from ``src``: its JSON report."""
    done = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    return json.loads(done.stdout)


def line(label, reports):
    """Median import time and ru_maxrss over ``reports``, and the scipy subpackages loaded."""
    ms = 1e3 * statistics.median(r["s"] for r in reports)
    mb = statistics.median(r["maxrss_kb"] for r in reports) / 1024.0
    return (f"{label}: import maflow.cli {ms:.0f} ms, ru_maxrss {mb:.1f} MB "
            f"(medians of {len(reports)}); scipy subpackages: {', '.join(reports[0]['scipy'])}")


def main(argv):
    ap = argparse.ArgumentParser(prog="python tools/footprint.py")
    ap.add_argument("rev", nargs="?", help="git revision whose src is measured too")
    ap.add_argument("--runs", type=int, default=9, help="fresh interpreters per tree")
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
                reports[label].append(probe(src))
    for label, runs in reports.items():
        print(line(label, runs))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
