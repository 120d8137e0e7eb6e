"""Memory of the n = 2 step: the tracemalloc peak of a run and of a series row, in fields.

A field is one real float64 array of the grid.  The configuration is the
``n2_twisted`` benchmark's (res 16, twist c = -0.5 with a psi_chi mode, an
h mode, the three-mode data, rk4, a row every 5 steps) at a short horizon,
on one thread.  Building the configuration, before the trace starts,
fills the twist's H(psi_chi) and eigenvalue range, and with them the
grid's multipliers, so the run's bound does not count them.
"""

import tracemalloc

import maflow as mf
from maflow import flow
from maflow.geometry import PotentialField
from maflow.initial import cos_mode


def n2_twisted(T):
    g = mf.TorusGrid(2, 16)
    modes = [((1, 0, 0, 0), 0.03, 0.3), ((0, 1, 0, 0), 0.015, 1.1), ((0, 0, 1, 0), 0.015, 2.0)]
    phi0 = PotentialField(g, sum(cos_mode(g, k, a, p) for k, a, p in modes))
    h = PotentialField(g, cos_mode(g, (0, 1, 0, 0), 0.05, 0.7))
    psi = PotentialField(g, cos_mode(g, (0, 0, 0, 1), 0.02, 0.4))
    cfg = flow.FlowConfig(grid=g, twist=flow.TwistSpec(-0.5, psi), h=h, T=T,
                          snapshot_times=(T / 2.0,), record_every=5)
    return phi0, cfg


def traced_peak(fn):
    """The tracemalloc peak of fn(), above what was allocated when it started."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_n2_twisted_run_peaks_at_17_fields_or_less():
    phi0, cfg = n2_twisted(T=0.002)
    field = cfg.grid.npoints * 8
    peak = traced_peak(lambda: flow.run(phi0, cfg, workers=1))
    assert peak <= 17 * field, peak / field


def test_n2_series_row_peaks_at_3_fields_above_its_start():
    phi0, cfg = n2_twisted(T=0.002)
    field = cfg.grid.npoints * 8
    st = flow._Stepper(cfg)
    st.state = flow._initial_state(st, phi0, 0.001)
    row = []
    peak = traced_peak(lambda: row.append(st.row(1e-3)))
    assert row[0]["t"] == 0.001
    assert peak <= 3 * field, peak / field
