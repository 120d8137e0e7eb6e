"""Compare the scenario outputs of a git revision with this tree's.

Usage:

    python tools/diff_scenarios.py REV [OUTDIR]

Exports REV's ``src`` and ``tools/save_scenarios.py`` with ``git archive``
into a temporary directory, and runs each tree's own
``tools/save_scenarios.py`` with ``PYTHONPATH`` on that tree's ``src``:
REV's into OUTDIR/before, this tree's into OUTDIR/after; so a revision
whose script calls what this tree's ``src`` lacks, or the other way
round, still compares.  Then ``diff -r`` compares the two and the files
that differ are listed, each with how far apart it is: a ``series.csv`` with
the largest |difference| in each column, a ``.mafl`` field with the
largest |difference| in its data, a verdict list (``verdicts.json``,
``lelong_attenuation.json``) with each verdict whose status changed and
the largest |slack| change (``report``).  Exits 1 if any differ, 0
if none do, and 2 on a usage error.  Without OUTDIR both outputs go to
the temporary directory and are removed at the end.  ``save_scenarios.py``
writes the verdicts of every single-run check beside its grid and
density-form runs, so the checks are compared too.  Takes about 40 s on 2
cores (two scenario runs).
"""

import json
import os
import re
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MAFL_HEADER = 28   # the bytes before a .mafl file's float64 data (maflow.io)


def export_src(rev, dest):
    """REV's ``src`` tree and ``tools/save_scenarios.py``, extracted under ``dest``; the
    path of its ``src``."""
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", rev, "src", "tools/save_scenarios.py"],
        check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    return os.path.join(dest, "src")


def save_scenarios(src, outdir):
    """Run the tools/save_scenarios.py beside ``src`` into ``outdir``, importing from ``src``."""
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    save = os.path.join(os.path.dirname(src), "tools", "save_scenarios.py")
    subprocess.run([sys.executable, save, outdir], env=dict(os.environ, PYTHONPATH=path),
                   stdout=subprocess.DEVNULL, check=True)


def differing(before, after):
    """``diff -rq``'s lines for the two directories: one per file that differs."""
    done = subprocess.run(["diff", "-rq", before, after], capture_output=True, text=True)
    if done.returncode > 1:
        raise RuntimeError(f"diff failed: {done.stderr.strip()}")
    return done.stdout.splitlines()


def _series(path):
    """A series.csv's header and its rows as a float array."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, np.array(rows, dtype=float).reshape(-1, len(header))


def _verdicts(path):
    """The verdicts of a verdict list (``maflow.io.write_verdicts``); None for other JSON."""
    with open(path) as fh:
        data = json.load(fh)
    keys = {"name", "status", "slack"}
    if isinstance(data, list) and all(isinstance(v, dict) and keys <= v.keys() for v in data):
        return data
    return None


def how_far(before, after):
    """How far two differing versions of a file lie apart, or None where it is not measured."""
    if os.path.basename(before) == "series.csv":
        (cols, a), (cols_after, b) = _series(before), _series(after)
        if cols != cols_after or a.shape != b.shape:
            return "columns or rows differ"
        gaps = np.abs(a - b).max(axis=0, initial=0.0)
        return "max |diff| " + ", ".join(f"{c} {g:.3g}" for c, g in zip(cols, gaps))
    if before.endswith(".mafl"):
        a, b = (np.fromfile(p, dtype="<f8", offset=MAFL_HEADER) for p in (before, after))
        if a.shape != b.shape:
            return "data sizes differ"
        return f"max |diff| {np.abs(a - b).max(initial=0.0):.3g}"
    if before.endswith(".json"):
        a, b = _verdicts(before), _verdicts(after)
        if a is None or b is None:
            return None
        if [v["name"] for v in a] != [v["name"] for v in b]:
            return "verdict names differ"
        changed = [f"{x['name']} {x['status']} -> {y['status']}"
                   for x, y in zip(a, b) if x["status"] != y["status"]]
        gaps = [abs(x["slack"] - y["slack"]) for x, y in zip(a, b)
                if x["slack"] is not None and y["slack"] is not None]
        return (f"status changed: {', '.join(changed) or 'none'}; "
                f"max |slack change| {np.max(gaps, initial=0.0):.3g}")
    return None


def report(before, after):
    """``differing``'s lines, each followed by ``how_far`` for the pair where it is measured."""
    lines = []
    for line in differing(before, after):
        pair = re.fullmatch(r"Files (.*) and (.*) differ", line)
        far = pair and how_far(*pair.groups())
        lines.append(f"{line}: {far}" if far else line)
    return lines


def main(argv):
    if len(argv) not in (1, 2):
        print("usage: python tools/diff_scenarios.py REV [OUTDIR]", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="diff_scenarios_") as tmp:
        out = argv[1] if len(argv) == 2 else tmp
        before, after = os.path.join(out, "before"), os.path.join(out, "after")
        for path in (before, after):
            if os.path.exists(path):
                print(f"{path} exists; give an OUTDIR without before/ and after/",
                      file=sys.stderr)
                return 2
        save_scenarios(export_src(argv[0], tmp), before)
        save_scenarios(os.path.join(ROOT, "src"), after)
        lines = report(before, after)
    for line in lines:
        print(line)
    print(f"{argv[0]} against this tree: {len(lines)} differing files")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
