"""Property tests of the one time loop (``flow._march``) on generated inputs.

Hypothesis runs derandomized and without an example database, so the
suite stays deterministic and writes nothing.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import maflow as mf
from maflow.flow import FlowConfig, continue_run, run
from maflow.functionals import SERIES_COLUMNS
from maflow.geometry import PotentialField
from maflow.initial import cos_mode
from maflow.logdiff import evolve_density, potential_to_density

GRID = mf.TorusGrid(1, 16)
T = 0.02
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=25)


def start(a1, a2):
    return PotentialField(GRID, cos_mode(GRID, (1, 0), a1) + cos_mode(GRID, (0, 1), a2, 0.4))


def snapshot_sets(ticks):
    # snapshot times k T / ticks, off the step grids below; distinct ticks
    # keep them further apart than dt_min
    return st.sets(st.integers(1, ticks - 1), min_size=1, max_size=4).map(
        lambda ks: tuple(T * k / ticks for k in ks))


amplitudes = st.floats(-0.03, 0.03)


@PROPERTY
@given(policy=st.sampled_from(["rk4", "semi_implicit"]), snaps=snapshot_sets(23),
       record_every=st.integers(1, 6), a1=amplitudes, a2=amplitudes,
       pick=st.integers(0, 3))
def test_restart_from_interior_snapshot_is_exact(policy, snaps, record_every, a1, a2, pick):
    cfg = FlowConfig(grid=GRID, T=T, dt_policy=policy, dt_init=1e-3,
                     snapshot_times=snaps, record_every=record_every)
    orig = run(start(a1, a2), cfg)
    i = 1 + pick % len(snaps)            # an interior snapshot
    t0 = orig.snapshots[i].t
    tail = continue_run(orig, t0, cfg)
    later = orig.times > t0
    at = np.flatnonzero(orig.times == t0)[0]
    assert np.array_equal(tail.times[1:], orig.times[later])
    for k in SERIES_COLUMNS:
        assert np.array_equal(tail.series[k][1:], orig.series[k][later]), k
        if k != "dt":                    # the restart's first row has dt = 0
            assert tail.series[k][0] == orig.series[k][at], k
    assert len(tail.snapshots) == len(orig.snapshots) - i
    for a, b in zip(orig.snapshots[i:], tail.snapshots):
        assert a.t == b.t and a.min_eig == b.min_eig
        assert np.array_equal(a.phi, b.phi) and np.array_equal(a.phi_dot, b.phi_dot)


@PROPERTY
@given(snaps=snapshot_sets(37), record_every=st.integers(1, 8),
       dt_init=st.sampled_from([7e-4, 1e-3, 1.3e-3]), a1=amplitudes, a2=amplitudes)
def test_both_forms_share_the_cadence(snaps, record_every, dt_init, a1, a2):
    phi0 = start(a1, a2)
    kw = dict(dt_policy="semi_implicit", dt_init=dt_init, snapshot_times=snaps,
              record_every=record_every)
    tr = run(phi0, FlowConfig(grid=GRID, T=T, **kw))
    trd = evolve_density(potential_to_density(phi0), T, **kw)
    assert np.array_equal(tr.column("t"), trd.column("t"))
    assert np.array_equal(tr.column("dt"), trd.column("dt"))
    assert tr.snapshot_times == trd.snapshot_times == [0.0, *sorted(snaps), T]
