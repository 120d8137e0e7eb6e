"""Import footprint: scipy's Krylov and interpolation stacks load on first use."""

import json
import os
import subprocess
import sys

import maflow

# the directory this session imports maflow from, so the probe sees the same package
SRC = os.path.dirname(os.path.dirname(os.path.abspath(maflow.__file__)))

# prints the scipy subpackages of WATCHED that are loaded after each stage
PROBE = """
import json, sys

WATCHED = {"linalg", "ndimage", "sparse"}

def loaded():
    return sorted({m.split(".")[1] for m in sys.modules if m.startswith("scipy.")} & WATCHED)

stages = {}
import maflow, maflow.cli
stages["import"] = loaded()
g = maflow.TorusGrid(1, 8)
u, _ = maflow.solve_ma(1.0, g=maflow.PotentialField(g, maflow.initial.cos_mode(g, (1, 0), 0.01)))
stages["solve_ma"] = loaded()
maflow.initial.sphere_average(u, (0.5, 0.5), 0.2)
stages["sphere_average"] = loaded()
print(json.dumps(stages))
"""


def test_scipy_sparse_and_ndimage_load_only_at_their_call_sites():
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        "import": [],
        "solve_ma": ["linalg", "sparse"],
        "sphere_average": ["linalg", "ndimage", "sparse"],
    }
