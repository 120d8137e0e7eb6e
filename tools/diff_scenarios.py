"""Compare the scenario outputs of a git revision's ``src`` with this tree's.

Usage:

    python tools/diff_scenarios.py REV [OUTDIR]

Exports REV's ``src`` with ``git archive`` into a temporary directory and
runs this tree's ``tools/save_scenarios.py`` twice, with ``PYTHONPATH`` on
that ``src`` (into OUTDIR/before) and on this tree's ``src`` (into
OUTDIR/after).  Then ``diff -r`` compares the two and the files that
differ are listed.  Exits 1 if any differ, 0 if none do, and 2 on a usage
error.  Without OUTDIR both outputs go to the temporary directory and are
removed at the end.  Takes about 20 s on 2 cores (two scenario runs).
"""

import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SAVE = os.path.join(ROOT, "tools", "save_scenarios.py")


def export_src(rev, dest):
    """REV's ``src`` tree, extracted under ``dest``; its path."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev, "src"],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    return os.path.join(dest, "src")


def save_scenarios(src, outdir):
    """Run save_scenarios.py into ``outdir`` with the package imported from ``src``."""
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, SAVE, outdir], env=dict(os.environ, PYTHONPATH=path),
                   stdout=subprocess.DEVNULL, check=True)


def differing(before, after):
    """``diff -rq``'s lines for the two directories: one per file that differs."""
    done = subprocess.run(["diff", "-rq", before, after], capture_output=True, text=True)
    if done.returncode > 1:
        raise RuntimeError(f"diff failed: {done.stderr.strip()}")
    return done.stdout.splitlines()


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
        lines = differing(before, after)
    for line in lines:
        print(line)
    print(f"{argv[0]} against this tree: {len(lines)} differing files")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
