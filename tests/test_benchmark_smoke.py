"""Every benchmark workload still runs on the package: set-up, one op, its gate and
its reference.

The benchmark calls the package by name (``flow.limit_potential(trajs, t=...)``,
``flow.run_levels``, ``cli.main``, ...), so a change that breaks one of those calls
fails here.  ``perfbench`` is imported as ``tests/test_tracer.py`` does.
"""

import os

import numpy as np
import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
NAMES = ("lelong_smoothing", "n2_twisted", "verify_saved", "stiff_density")


@pytest.fixture()
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads

    return workloads


@pytest.mark.parametrize("name", NAMES)
def test_workload_runs_one_op_and_passes_its_gate(workloads, name, tmp_path):
    wl = workloads.WORKLOADS[name](1, str(tmp_path))
    wl.setup()
    out = wl.op()
    wl.check(out, None)
    got, ref = wl.reference(out)
    assert np.shape(got) == np.shape(ref) and np.isfinite(got).all()


def test_every_workload_is_covered(workloads):
    assert set(workloads.WORKLOADS) == set(NAMES)
