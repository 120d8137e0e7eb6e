"""Threads: run_levels' concurrent levels, and a run's lane helper, against sequential runs."""

import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

import maflow as mf
from maflow import flow
from maflow import geometry as geo
from maflow import io as mio
from maflow.cli import main
from maflow.errors import ConfigError, KaehlerConeViolation, RunStopped
from maflow.flow import FlowConfig, TwistSpec, run, run_levels
from maflow.geometry import PotentialField
from maflow.initial import PotentialSpec, approximation_sequence, cos_mode


def twisted_config(n, res):
    """A twisted config (psi_chi and h) on a fresh grid, its lazy caches empty."""
    g = mf.TorusGrid(n, res)
    k = (1, 0) if n == 1 else (1, 0, 0, 1)
    psi = PotentialField(g, cos_mode(g, k, 0.02))
    h = PotentialField(g, cos_mode(g, k[::-1], 0.05))
    cfg = FlowConfig(grid=g, twist=TwistSpec(c=-0.3, psi_chi=psi), h=h, T=0.05,
                     snapshot_times=(0.02,), record_every=4)
    # FlowConfig's checks fill both caches; empty them so the levels race to fill them
    g._cache.clear()
    cfg.twist._hpsi = None
    return cfg


def assert_same_trajectory(a, b):
    assert np.array_equal(a.times, b.times)
    assert a.series.keys() == b.series.keys()
    for name in a.series:
        assert np.array_equal(a.series[name], b.series[name]), name
    assert len(a.snapshots) == len(b.snapshots)
    for sa, sb in zip(a.snapshots, b.snapshots):
        assert sa.t == sb.t and sa.min_eig == sb.min_eig
        assert np.array_equal(sa.phi, sb.phi) and np.array_equal(sa.phi_dot, sb.phi_dot)
    assert a.meta == b.meta


class TestConcurrentLevels:
    @pytest.mark.parametrize("n, res", [(1, 16), (2, 8)])
    def test_threaded_levels_are_bit_identical_to_sequential_runs(self, n, res, monkeypatch):
        # six threads whatever the core count, a GIL switch every microsecond,
        # and the grid's and the twist's lazily filled caches shared by every level
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(6)), raising=False)
        k = (1, 0) if n == 1 else (1, 0, 0, 1)
        spec = PotentialSpec("smooth", modes=[(k, 0.03, 0.0), (k[::-1], 0.01, 0.5)])
        seq = approximation_sequence(spec, mf.TorusGrid(n, res), 6, ratio=0.8)
        cfg = twisted_config(n, res)
        threads = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            trajs = run_levels(seq, cfg, meta_extra={"tag": "x"}, workers=6)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == threads
        assert [tr.meta["level"] for tr in trajs] == [lev.j for lev in seq.levels]
        for lev, tr in zip(seq.levels, trajs):
            ref = run(lev, twisted_config(n, res), data_class="smooth",
                      meta_extra={"tag": "x"})
            assert_same_trajectory(tr, ref)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_is_a_config_error(self, workers):
        seq = SimpleNamespace(levels=[], spec=SimpleNamespace(data_class="smooth"))
        with pytest.raises(ConfigError):
            run_levels(seq, None, workers=workers)


def record_steps(monkeypatch, seq):
    """The level index of every accepted step, in the order the steps were taken."""
    index = {id(lev.phi): k for k, lev in enumerate(seq.levels)}
    level_of, steps = {}, []
    initial_state, advance = flow._initial_state, flow._advance

    def initial(st, phi0, t0):
        level_of[st] = index[id(phi0)]
        return initial_state(st, phi0, t0)

    def step(st, state, t_bound):
        out = advance(st, state, t_bound)
        steps.append(level_of[st])
        return out

    monkeypatch.setattr(flow, "_initial_state", initial)
    monkeypatch.setattr(flow, "_advance", step)
    return steps


class TestSlicedLevels:
    """More levels than runners: the runners share the levels in slices of SLICE_STEPS."""

    def test_unequal_levels_on_two_runners_are_bit_identical(self, monkeypatch):
        usable_cpus(monkeypatch, 2)
        g = mf.TorusGrid(1, 16, 1.0)
        seq = approximation_sequence(PotentialSpec("lelong", gamma=0.6), g, 5, K=2.0)
        cfg = FlowConfig(grid=g, T=0.02, snapshot_times=(0.01,), record_every=7)
        steps = record_steps(monkeypatch, seq)
        threads = threading.active_count()
        trajs = run_levels(seq, cfg, meta_extra={"tag": "x"})
        assert threading.active_count() == threads
        counts = [steps.count(k) for k in range(5)]
        # from under two slices to many, so levels end while others still run
        assert counts == sorted(counts) and counts[0] < 2 * flow.SLICE_STEPS < counts[-1] // 4
        for lev, tr in zip(seq.levels, trajs):
            ref = run(lev, cfg, data_class="lelong", meta_extra={"tag": "x"}, workers=1)
            assert_same_trajectory(tr, ref)

    def test_the_third_level_starts_before_the_first_two_end(self, monkeypatch):
        # three levels of four slices each on two runners: with whole levels,
        # level 2 would wait for level 0 or level 1 to end
        usable_cpus(monkeypatch, 2)
        g = mf.TorusGrid(1, 16, 1.0)
        seq = approximation_sequence(PotentialSpec("smooth", modes=[((1, 0), 0.03, 0.0)]),
                                     g, 3, ratio=0.8)
        dt = 1e-4
        cfg = FlowConfig(grid=g, T=4 * flow.SLICE_STEPS * dt, dt_policy="rk4_fixed",
                         dt_init=dt, record_every=50)
        steps = record_steps(monkeypatch, seq)
        run_levels(seq, cfg)
        assert [steps.count(k) for k in range(3)] == [4 * flow.SLICE_STEPS] * 3
        last = {k: len(steps) - 1 - steps[::-1].index(k) for k in (0, 1)}
        assert steps.index(2) < min(last.values())

    def test_one_runner_runs_the_levels_one_after_the_other(self, monkeypatch):
        usable_cpus(monkeypatch, 1)
        g = mf.TorusGrid(1, 16, 1.0)
        seq = approximation_sequence(PotentialSpec("lelong", gamma=0.6), g, 3, K=2.0)
        steps = record_steps(monkeypatch, seq)
        run_levels(seq, FlowConfig(grid=g, T=0.01, record_every=50))
        assert steps == sorted(steps)

    def test_a_failing_fan_out_closes_every_parked_level(self, monkeypatch):
        # six levels of many slices on two runners; level 1 fails in its third
        # slice, so levels 2 to 5 stop, most of them parked in the queue
        usable_cpus(monkeypatch, 2)
        opened, closed = set(), set()

        def fake(level, config, **kw):
            opened.add(level)
            try:
                for i in range(10 * flow.SLICE_STEPS):
                    if level == 1 and i == 2 * flow.SLICE_STEPS:
                        raise KaehlerConeViolation("level 1 failed", t=0.5)
                    time.sleep(1e-5)
                    yield
            finally:
                closed.add(level)
            return level

        monkeypatch.setattr(flow, "_run_steps", fake)
        threads = threading.active_count()
        with pytest.raises(KaehlerConeViolation) as err:
            run_levels(int_levels(6), None)
        assert err.value.t == 0.5 and threading.active_count() == threads
        assert {0, 1, 2, 3} <= opened and opened == closed

    def test_a_failing_fan_out_with_lanes_joins_every_thread(self, monkeypatch, lanes):
        # RK4 at a fixed dt far above its stability bound leaves the cone at step 5
        usable_cpus(monkeypatch, 6)
        g = mf.TorusGrid(2, 16)
        seq = SimpleNamespace(levels=[PotentialField(g, s * n2_initial(g).values)
                                      for s in (1.0, 1.1, 1.2)],
                              spec=SimpleNamespace(data_class="smooth"))
        cfg = FlowConfig(grid=g, T=0.06, dt_policy="rk4_fixed", dt_init=5e-3)
        threads = threading.active_count()
        with pytest.raises(KaehlerConeViolation) as err:
            run_levels(seq, cfg)
        assert err.value.t > 0.0 and len(lanes) == 3
        assert threading.active_count() == threads


def fake_run_steps(fail, delay=None, started=None):
    """A stand-in for flow._run_steps over integer levels: level k in ``fail`` raises
    KaehlerConeViolation at t = 0.1 * (k + 1); level k first waits ``delay[k]`` s."""
    delay = delay or {}

    def fake(level, config, **kw):
        if started is not None:
            started.append(level)
        time.sleep(delay.get(level, 0.0))
        if level in fail:
            raise KaehlerConeViolation(f"level {level} failed", t=0.1 * (level + 1))
        return level
        yield   # a generator, as flow._run_steps is
    return fake


def int_levels(count):
    return SimpleNamespace(levels=list(range(count)), spec=SimpleNamespace(data_class="smooth"))


class TestLevelFailures:
    def _raised(self, fn):
        with pytest.raises(KaehlerConeViolation) as err:
            fn()
        return err.value

    def test_failure_of_level_two_reaches_the_caller_typed(self, monkeypatch):
        seq = int_levels(6)
        monkeypatch.setattr(flow, "_run_steps", fake_run_steps({2}))
        threads = threading.active_count()
        got = self._raised(lambda: run_levels(seq, None))
        assert threading.active_count() == threads
        want = self._raised(lambda: [flow.run(lev, None) for lev in seq.levels])
        assert type(got) is type(want) and got.t == want.t == pytest.approx(0.3)

    def test_earliest_failing_level_in_level_order_wins(self, monkeypatch):
        # level 1 fails first in time, level 0 first in level order
        monkeypatch.setattr(flow, "_run_steps", fake_run_steps({0, 1}, delay={0: 0.3}))
        threads = threading.active_count()
        err = self._raised(lambda: run_levels(int_levels(4), None, workers=2))
        assert threading.active_count() == threads
        assert err.t == pytest.approx(0.1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_level_starts_after_a_failure(self, monkeypatch, workers):
        # level 3 may be running beside level 2; it holds its runner while the
        # failure stops the others
        started = []
        monkeypatch.setattr(flow, "_run_steps",
                            fake_run_steps({2}, delay={3: 0.5}, started=started))
        threads = threading.active_count()
        self._raised(lambda: run_levels(int_levels(6), None, workers=workers))
        assert threading.active_count() == threads
        assert {0, 1, 2} <= set(started) and not {4, 5} & set(started)


class TestRunCommand:
    def _config(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text(f"""
[grid]
n = 1
res = 16
period = 2.0
[initial]
kind = lelong
gamma = 0.6
levels = 3
trunc_depth = 2.0
[flow]
T = 0.01
record_every = 20
[output]
dir = {tmp_path / 'out'}
""")
        return str(p)

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exits_2(self, tmp_path, workers, capsys):
        assert main(["run", self._config(tmp_path), "--workers", workers]) == 2
        assert "workers" in capsys.readouterr().err
        assert not (tmp_path / "out" / "level_00").exists()

    def test_failing_level_exits_3_with_its_time(self, tmp_path, monkeypatch, capsys):
        real = flow._run_steps

        def fail_level_2(level, config, **kw):
            if level.j == 3:
                raise KaehlerConeViolation("forced", t=0.0075)
            return (yield from real(level, config, **kw))
        monkeypatch.setattr(flow, "_run_steps", fail_level_2)
        threads = threading.active_count()
        assert main(["run", self._config(tmp_path)]) == 3
        assert threading.active_count() == threads
        assert "at t=0.0075" in capsys.readouterr().err


def usable_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


@pytest.fixture
def lanes(monkeypatch):
    """The lane helpers that flow starts, recorded as they are made."""
    made = []

    class Recorded(ThreadPoolExecutor):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            made.append(self)

    monkeypatch.setattr(flow, "ThreadPoolExecutor", Recorded)
    return made


def n2_initial(g):
    return PotentialField(g, cos_mode(g, (1, 0, 0, 0), 0.03, 0.2)
                          + cos_mode(g, (0, 1, 0, 0), 0.015, 1.1)
                          + cos_mode(g, (0, 0, 1, 1), 0.01, 0.4))


def n2_config(kind, res=16):
    g = mf.TorusGrid(2, res)
    h = PotentialField(g, cos_mode(g, (0, 1, 0, 0), 0.05, 0.3))
    base = dict(grid=g, T=0.003, snapshot_times=(0.0013,), record_every=2)
    if kind == "twisted":
        psi = PotentialField(g, cos_mode(g, (0, 0, 0, 1), 0.02, 0.6))
        return FlowConfig(twist=TwistSpec(c=-0.5, psi_chi=psi), h=h, **base)
    if kind == "ncmaf":
        return FlowConfig(variant="ncmaf", h=h, **base)
    return FlowConfig(dealias=True, **base)


class TestLanes:
    """An n = 2 run at res >= geometry.LANE_MIN_RES with a CPU to spare has one helper."""

    @pytest.mark.parametrize("kind", ["twisted", "ncmaf", "dealiased"])
    def test_run_with_a_lane_is_bit_identical_to_one_worker(self, kind, monkeypatch, lanes):
        usable_cpus(monkeypatch, 2)
        cfg = n2_config(kind)
        assert geo.lane_pays(cfg.grid)
        threads = threading.active_count()
        laned = run(n2_initial(cfg.grid), cfg)
        assert len(lanes) == 1
        alone = run(n2_initial(cfg.grid), cfg, workers=1)
        assert len(lanes) == 1 and threading.active_count() == threads
        assert_same_trajectory(laned, alone)

    def test_below_the_size_floor_no_lane_starts(self, monkeypatch, lanes):
        usable_cpus(monkeypatch, 2)
        cfg = n2_config("twisted", res=8)
        run(n2_initial(cfg.grid), cfg)
        assert not lanes and not geo.lane_pays(cfg.grid)

    def test_threads_joined_after_a_cone_violation(self, monkeypatch, lanes):
        # RK4 at a fixed dt far above its stability bound leaves the cone at step 5
        usable_cpus(monkeypatch, 2)
        g = mf.TorusGrid(2, 16)
        cfg = FlowConfig(grid=g, T=0.06, dt_policy="rk4_fixed", dt_init=5e-3)
        threads = threading.active_count()
        with pytest.raises(KaehlerConeViolation) as err:
            run(n2_initial(g), cfg)
        assert err.value.t > 0.0 and len(lanes) == 1
        assert threading.active_count() == threads

    def test_nan_in_the_lane_half_is_rejected(self):
        g = mf.TorusGrid(2, 16)
        cfg = n2_config("twisted")
        st = flow._Stepper(cfg)
        # a NaN in the twist's Hessian reaches the second half of the first axis only
        st.hpsi = tuple(x.copy() for x in st.hpsi)
        st.hpsi[1][g.res - 1, 2, 3, 4] = np.nan
        phi = n2_initial(g).values
        with ThreadPoolExecutor(1) as st.lane:
            with pytest.raises(flow._Reject) as err:
                st.parts(0.001, PotentialField(g, phi))
            assert np.isnan(err.value.args[0])
            hess = geo.hessian_raw(g, phi, lane=st.lane)
            hess[0][g.res - 1, 0, 0, 0] = np.nan
            assert np.isnan(geo.metric_det_eigmin(g, hess, 1.0, lane=st.lane)[2])

    def test_an_error_on_the_lane_reaches_the_caller(self):
        g = mf.TorusGrid(2, 16)
        done = []

        def then(rows, det):
            if rows.start is not None:   # the lane's half
                raise flow._Reject(-1.0)
            done.append(rows)

        with ThreadPoolExecutor(1) as lane:
            with pytest.raises(flow._Reject):
                geo.metric_det_eigmin(g, geo.hessian_raw(g, n2_initial(g).values), 1.0,
                                      lane=lane, then=then)
        assert done == [slice(None, g.res // 2)]

    def test_workers_below_one_is_a_config_error(self):
        cfg = n2_config("twisted")
        with pytest.raises(ConfigError, match="workers"):
            run(n2_initial(cfg.grid), cfg, workers=0)

    def test_levels_take_lanes_only_from_spare_cpus(self, monkeypatch, lanes):
        g = mf.TorusGrid(2, 16)
        spec = PotentialSpec("smooth", modes=[((1, 0, 0, 0), 0.03, 0.0)])
        seq = approximation_sequence(spec, g, 3, ratio=0.8)
        cfg = FlowConfig(grid=g, T=5e-4, record_every=50)
        threads = threading.active_count()
        usable_cpus(monkeypatch, 2)   # two runners for three levels: no CPU to spare
        trajs = run_levels(seq, cfg)
        assert not lanes and threading.active_count() == threads
        usable_cpus(monkeypatch, 6)   # three runners with a lane each; GIL switches every 1e-6 s
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            laned = run_levels(seq, cfg)
        finally:
            sys.setswitchinterval(interval)
        assert len(lanes) == 3 and threading.active_count() == threads
        for tr, ref in zip(laned, trajs):
            assert_same_trajectory(tr, ref)

    def test_maflow_run_workers_1_starts_no_thread(self, tmp_path, monkeypatch, lanes):
        usable_cpus(monkeypatch, 2)
        p = tmp_path / "run.ini"
        p.write_text(f"""
[grid]
n = 2
res = 16
[initial]
modes = 1 0 0 0 : 0.03 : 0.0
[flow]
T = 5e-4
[output]
dir = {tmp_path / 'out'}
""")
        started, real_start = [], threading.Thread.start

        def start(thread):
            started.append(thread.name)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        assert main(["run", str(p), "--workers", "1"]) == 0
        assert started == [] and lanes == []
        assert main(["run", str(p)]) == 0
        assert len(lanes) == 1 and len(started) == 1

    @staticmethod
    def _saved_n2_run(tmp_path):
        cfg = n2_config("twisted")
        return mio.save_run(run(n2_initial(cfg.grid), cfg, workers=1),
                            str(tmp_path / "parent"), cfg)

    def test_maflow_restart_workers_1_starts_no_thread(self, tmp_path, monkeypatch, lanes):
        usable_cpus(monkeypatch, 2)
        parent = self._saved_n2_run(tmp_path)
        started, real_start = [], threading.Thread.start

        def start(thread):
            started.append(thread.name)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        alone, laned = tmp_path / "alone", tmp_path / "laned"
        assert main(["restart", parent, "--at", "0.0013", "--out", str(alone),
                     "--workers", "1"]) == 0
        assert started == [] and lanes == []
        assert main(["restart", parent, "--at", "0.0013", "--out", str(laned)]) == 0
        assert len(lanes) == 1 and started == ["maflow-lane_0"]
        names = sorted(os.listdir(alone))
        assert names == sorted(os.listdir(laned)) and "series.csv" in names
        for name in names:
            assert (alone / name).read_bytes() == (laned / name).read_bytes(), name

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_maflow_restart_workers_below_one_exits_2(self, tmp_path, workers, capsys):
        parent = self._saved_n2_run(tmp_path)
        out = tmp_path / "restart"
        assert main(["restart", parent, "--at", "0.0013", "--out", str(out),
                     "--workers", workers]) == 2
        assert "workers" in capsys.readouterr().err and not out.exists()


class TestStop:
    def test_set_stop_event_ends_a_run_at_its_first_step(self):
        cfg = twisted_config(1, 16)
        stop = threading.Event()
        stop.set()
        with pytest.raises(RunStopped) as err:
            run(PotentialField.zeros(cfg.grid), cfg, stop=stop)
        assert 0.0 < err.value.t < cfg.T

    def test_interrupt_stops_every_level_within_one_step(self, monkeypatch, lanes):
        # two n = 2 levels with a lane each; the calling thread's level is
        # interrupted at its step 5, as Ctrl-C would
        usable_cpus(monkeypatch, 4)
        g = mf.TorusGrid(2, 16)
        spec = PotentialSpec("smooth", modes=[((1, 0, 0, 0), 0.03, 0.0)])
        seq = approximation_sequence(spec, g, 2, ratio=0.8)
        cfg = FlowConfig(grid=g, T=0.01, record_every=50)
        after, reached = {}, {}   # per thread: steps taken with the stop set, last t
        orig = flow._advance

        def advance(st, state, t_bound):
            out = orig(st, state, t_bound)
            me = threading.current_thread()
            reached[me.name] = out[0].t
            if st.stop.is_set():
                after[me.name] = after.get(me.name, 0) + 1
            elif me is threading.main_thread() and out[0].step_count == 5:
                raise KeyboardInterrupt
            return out

        monkeypatch.setattr(flow, "_advance", advance)
        threads = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            run_levels(seq, cfg)
        assert threading.active_count() == threads and len(lanes) == 2
        assert reached.keys() == {"MainThread", "maflow-level"}
        assert reached["maflow-level"] < cfg.T    # stopped, not finished
        assert after.get("maflow-level", 0) <= 1 and "MainThread" not in after

    def test_interrupt_while_the_caller_waits_stops_the_helper(self):
        # the calling thread's level ends first and it waits for the helper;
        # Ctrl-C then must stop the helper's level too, not wait for its end.
        # A child process takes the signal, so the test run never sees it.
        script = """
import os, signal, threading, time
from types import SimpleNamespace
import maflow as mf
from maflow import flow
from maflow.initial import cos_mode
os.sched_getaffinity = lambda pid: {0, 1}
g = mf.TorusGrid(1, 16)
levels = [mf.PotentialField(g, cos_mode(g, (1, 0), a)) for a in (0.01, 0.02)]
seq = SimpleNamespace(levels=levels, spec=SimpleNamespace(data_class="smooth"))
advance, helper_steps = flow._advance, []
def step(st, state, t_bound):
    if threading.current_thread() is not threading.main_thread():
        time.sleep(0.02)
        helper_steps.append(st.stop.is_set())
        if len(helper_steps) == 25:
            os.kill(os.getpid(), signal.SIGINT)
    return advance(st, state, t_bound)
flow._advance = step
try:
    flow.run_levels(seq, flow.FlowConfig(grid=g, T=0.04, record_every=50))
except KeyboardInterrupt:
    print(threading.active_count(), sum(helper_steps), len(helper_steps))
"""
        pkg = os.path.dirname(os.path.dirname(mf.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (pkg, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert len(done.stdout.split()) == 3, done.stderr
        threads, after_stop, taken = map(int, done.stdout.split())
        # no helper left running, at most one step after the stop, far from T
        assert threads == 1 and after_stop <= 1 and taken <= 27, done.stderr
