"""Concurrency: run_levels' level processes, and a run's lane helper, against sequential runs."""

import functools
import inspect
import multiprocessing
import os
import pickle
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
from maflow.errors import (ConfigError, KaehlerConeViolation, MaflowError, PositivityLoss,
                           StepSizeUnderflow)
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
    # FlowConfig's checks fill the cached properties; empty them so the levels race to fill them
    for value in (g, cfg.twist):
        for name, attr in vars(type(value)).items():
            if isinstance(attr, functools.cached_property):
                vars(value).pop(name, None)
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


def record_steps(monkeypatch, seq, tmp_path, delay=0.0):
    """A reader of the level index of every accepted step, in the order the steps were taken.

    Every process appends its steps to one file, so the steps of forked
    level processes are there too; each step first sleeps ``delay`` s.
    """
    index = {id(lev.phi): k for k, lev in enumerate(seq.levels)}
    path = tmp_path / ".steps"
    initial_state, advance = flow._initial_state, flow._advance

    def initial(st, phi0, t0):
        st.level = index[id(phi0)]
        return initial_state(st, phi0, t0)

    def step(st, state, t_bound):
        out = advance(st, state, t_bound)
        time.sleep(delay)
        note(path, st.level)
        return out

    monkeypatch.setattr(flow, "_initial_state", initial)
    monkeypatch.setattr(flow, "_advance", step)
    return lambda: [int(k) for k in path.read_text().split()] if path.exists() else []


def note(path, line):
    """Append ``line`` to the file ``path``; one short write, whole even beside other processes."""
    with open(path, "a") as fh:
        fh.write(f"{line}\n")


def no_child_left():
    return not multiprocessing.active_children()


class TestSlicedLevels:
    """More levels than CPUs: the kernel time-slices the level processes."""

    def test_unequal_levels_on_two_runners_are_bit_identical(self, monkeypatch, tmp_path):
        usable_cpus(monkeypatch, 2)
        g = mf.TorusGrid(1, 16, 1.0)
        seq = approximation_sequence(PotentialSpec("lelong", gamma=0.6), g, 5, K=2.0)
        cfg = FlowConfig(grid=g, T=0.02, snapshot_times=(0.01,), record_every=7)
        steps = record_steps(monkeypatch, seq, tmp_path)
        threads = threading.active_count()
        trajs = run_levels(seq, cfg, meta_extra={"tag": "x"})
        assert threading.active_count() == threads and no_child_left()
        counts = [steps().count(k) for k in range(5)]
        # from a few steps to many, so levels end while others still run
        assert counts == sorted(counts) and 4 * counts[0] < counts[-1]
        for lev, tr in zip(seq.levels, trajs):
            ref = run(lev, cfg, data_class="lelong", meta_extra={"tag": "x"}, workers=1)
            assert_same_trajectory(tr, ref)

    def test_the_third_level_starts_before_the_first_two_end(self, monkeypatch, tmp_path):
        # three levels of 80 steps on two CPUs: with a pool of two runners,
        # level 2 would wait for level 0 or level 1 to end
        usable_cpus(monkeypatch, 2)
        g = mf.TorusGrid(1, 16, 1.0)
        seq = approximation_sequence(PotentialSpec("smooth", modes=[((1, 0), 0.03, 0.0)]),
                                     g, 3, ratio=0.8)
        dt = 1e-4
        cfg = FlowConfig(grid=g, T=80 * dt, dt_policy="rk4_fixed", dt_init=dt,
                         record_every=50)
        steps = record_steps(monkeypatch, seq, tmp_path, delay=1e-3)
        run_levels(seq, cfg)
        taken = steps()
        assert [taken.count(k) for k in range(3)] == [80] * 3
        last = {k: len(taken) - 1 - taken[::-1].index(k) for k in (0, 1)}
        assert taken.index(2) < min(last.values())

    def test_one_runner_runs_the_levels_one_after_the_other(self, monkeypatch, tmp_path):
        usable_cpus(monkeypatch, 1)
        g = mf.TorusGrid(1, 16, 1.0)
        seq = approximation_sequence(PotentialSpec("lelong", gamma=0.6), g, 3, K=2.0)
        steps = record_steps(monkeypatch, seq, tmp_path)
        run_levels(seq, FlowConfig(grid=g, T=0.01, record_every=50))
        assert steps() == sorted(steps())

    def test_a_failing_fan_out_closes_every_parked_level(self, monkeypatch, tmp_path):
        # six levels of 400 ms on two CPUs; level 1 fails after 40 ms, so
        # levels 2 to 5 are killed, level 0 is waited for, and every level
        # process is joined
        usable_cpus(monkeypatch, 2)
        log = tmp_path / "log"

        def fake(level, config, **kw):
            note(log, f"start {level}")
            for i in range(400):
                if level == 1 and i == 40:
                    raise KaehlerConeViolation("level 1 failed", t=0.5)
                time.sleep(1e-3)
            note(log, f"end {level}")
            return SimpleNamespace(level=level)

        monkeypatch.setattr(flow, "run", fake)
        threads = threading.active_count()
        with pytest.raises(KaehlerConeViolation) as err:
            run_levels(int_levels(6), None)
        assert err.value.t == 0.5 and threading.active_count() == threads
        started, ended = read_log(log)
        assert {0, 1} <= started and ended == {0} and no_child_left()

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
        # a lane in each of three level processes, none in this one
        assert err.value.t > 0.0 and len(set(lanes.pids())) == 3
        assert os.getpid() not in lanes.pids()
        assert threading.active_count() == threads and no_child_left()

    def test_levels_below_the_usable_cpus_are_pinned_to_the_cap(self, monkeypatch, tmp_path):
        # three levels on --workers 2 of four CPUs share two CPUs; at the
        # usable CPUs no level process is pinned
        usable_cpus(monkeypatch, 4)
        pins = tmp_path / "pins"
        monkeypatch.setattr(os, "sched_setaffinity",
                            lambda pid, cpus: note(pins, f"{pid} {sorted(cpus)}"))
        monkeypatch.setattr(flow, "run", fake_run(set()))
        config = SimpleNamespace(grid=None, twist=None)
        assert [tr.level for tr in run_levels(int_levels(3), config, workers=2)] == [0, 1, 2]
        assert pins.read_text().splitlines() == ["0 [0, 1]"] * 3
        pins.unlink()
        run_levels(int_levels(3), config)
        assert not pins.exists() and no_child_left()


def level_error(cls, level):
    """Level ``level``'s ``cls`` error at t = 0.1 * (level + 1), with min_eig if it has one."""
    extra = {"min_eig": -0.5 * level} if cls is KaehlerConeViolation else {}
    return cls(f"level {level} failed", t=0.1 * (level + 1), **extra)


def fake_run(fail, delay=None, log=None, error=KaehlerConeViolation):
    """A stand-in for flow.run over integer levels: level k first waits ``delay[k]`` s,
    then raises ``level_error(error, k)`` if it is in ``fail``.

    Every process notes "start k" and "end k" in the file ``log``, if given.
    """
    delay = delay or {}

    def fake(level, config, **kw):
        if log is not None:
            note(log, f"start {level}")
        time.sleep(delay.get(level, 0.0))
        if level in fail:
            raise level_error(error, level)
        if log is not None:
            note(log, f"end {level}")
        return SimpleNamespace(level=level)
    return fake


def read_log(path):
    """(started, ended): the level sets of ``fake_run``'s log."""
    lines = path.read_text().splitlines() if path.exists() else []
    return tuple({int(ln.split()[1]) for ln in lines if ln.startswith(word)}
                 for word in ("start", "end"))


def int_levels(count):
    return SimpleNamespace(levels=list(range(count)), spec=SimpleNamespace(data_class="smooth"))


class TestLevelFailures:
    def _raised(self, fn, error=KaehlerConeViolation):
        with pytest.raises(error) as err:
            fn()
        return err.value

    @pytest.mark.parametrize("error", [KaehlerConeViolation, StepSizeUnderflow, PositivityLoss],
                             ids=lambda c: c.__name__)
    def test_failure_of_level_two_reaches_the_caller_typed(self, monkeypatch, error):
        # the error crosses the level pipe with its attributes: t, and min_eig
        seq = int_levels(6)
        monkeypatch.setattr(flow, "run", fake_run({2}, error=error))
        threads = threading.active_count()
        got = self._raised(lambda: run_levels(seq, None), error)
        assert threading.active_count() == threads and no_child_left()
        want = self._raised(lambda: [flow.run(lev, None) for lev in seq.levels], error)
        assert type(got) is type(want) is error and vars(got) == vars(want)
        assert got.t == pytest.approx(0.3) and str(got) == "level 2 failed"
        assert error is not KaehlerConeViolation or got.min_eig == -1.0

    def test_earliest_failing_level_in_level_order_wins(self, monkeypatch):
        # level 1 fails first in time, level 0 first in level order
        monkeypatch.setattr(flow, "run", fake_run({0, 1}, delay={0: 0.3}))
        threads = threading.active_count()
        err = self._raised(lambda: run_levels(int_levels(4), None, workers=2))
        assert threading.active_count() == threads and no_child_left()
        assert err.t == pytest.approx(0.1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_level_starts_after_a_failure(self, monkeypatch, tmp_path, workers):
        # in the calling process (one worker) no level after the failing one
        # starts; level processes all start at once, and the failure kills
        # the ones after it before their end
        log = tmp_path / "log"
        monkeypatch.setattr(flow, "run", fake_run({2}, delay=dict.fromkeys((3, 4, 5), 0.5),
                                                  log=log))
        threads = threading.active_count()
        self._raised(lambda: run_levels(int_levels(6), None, workers=workers))
        assert threading.active_count() == threads and no_child_left()
        started, ended = read_log(log)
        assert {0, 1, 2} <= started and not {3, 4, 5} & ended
        assert workers > 1 or started == {0, 1, 2}


    def test_a_level_process_that_dies_is_an_error_of_its_level(self, monkeypatch):
        # a level process that ends without a result (killed, say) fails its
        # level; level 2's error comes later in level order
        def fake(level, config, **kw):
            if level == 1:
                os._exit(3)
            if level == 2:
                raise KaehlerConeViolation("level 2 failed", t=0.3)
            return SimpleNamespace(level=level)

        monkeypatch.setattr(flow, "run", fake)
        with pytest.raises(MaflowError, match="maflow-level-1 ended with exit code 3"):
            run_levels(int_levels(3), None, workers=2)
        assert no_child_left()


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
        real = flow.run

        def fail_level_2(level, config, **kw):
            if level.j == 3:
                raise KaehlerConeViolation("forced", t=0.0075)
            return real(level, config, **kw)
        monkeypatch.setattr(flow, "run", fail_level_2)
        threads = threading.active_count()
        assert main(["run", self._config(tmp_path)]) == 3
        assert threading.active_count() == threads
        assert "at t=0.0075" in capsys.readouterr().err

    def test_a_level_process_that_dies_exits_3_in_one_line(self, tmp_path, monkeypatch,
                                                            capsys):
        # level 2's process ends without a result; level 3's is killed
        real = flow.run

        def die_at_level_2(level, config, **kw):
            if level.j == 2:
                os._exit(9)
            return real(level, config, **kw)
        usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(flow, "run", die_at_level_2)
        assert main(["run", self._config(tmp_path)]) == 3
        assert capsys.readouterr().err == ("solver failure: maflow-level-1 ended with exit "
                                           "code 9 and sent no result\n")
        assert no_child_left() and not (tmp_path / "out" / "level_00").exists()


def usable_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


class LaneLog:
    """The lane helpers that flow starts, one line per lane with its process id.

    Forked level processes append to the same file; ``len`` is the count.
    """

    def __init__(self, path):
        self.path = path

    def pids(self):
        return [int(p) for p in self.path.read_text().split()] if self.path.exists() else []

    def __len__(self):
        return len(self.pids())


@pytest.fixture
def lanes(monkeypatch, tmp_path):
    """A LaneLog of the lane helpers that flow starts, in this process or a level's."""
    log = LaneLog(tmp_path / ".lanes")

    class Recorded(ThreadPoolExecutor):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            note(log.path, os.getpid())

    monkeypatch.setattr(flow, "ThreadPoolExecutor", Recorded)
    return log


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
        usable_cpus(monkeypatch, 2)   # three levels on two CPUs: no CPU to spare
        trajs = run_levels(seq, cfg)
        assert not lanes and threading.active_count() == threads
        usable_cpus(monkeypatch, 6)   # two CPUs per level: a lane in each level's process
        laned = run_levels(seq, cfg)
        assert len(set(lanes.pids())) == 3 and os.getpid() not in lanes.pids()
        assert threading.active_count() == threads and no_child_left()
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
        assert started == [] and not lanes
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
        assert started == [] and not lanes
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
    def test_interrupt_stops_every_level_within_one_step(self, monkeypatch, tmp_path, lanes):
        # two n = 2 level processes with a lane each; Ctrl-C reaches the
        # caller, which waits for them, once level 0 has taken 5 steps
        usable_cpus(monkeypatch, 4)
        g = mf.TorusGrid(2, 16)
        spec = PotentialSpec("smooth", modes=[((1, 0, 0, 0), 0.03, 0.0)])
        seq = approximation_sequence(spec, g, 2, ratio=0.8)
        cfg = FlowConfig(grid=g, T=0.01, record_every=50)
        steps = record_steps(monkeypatch, seq, tmp_path, delay=0.01)
        real_wait, at_interrupt = multiprocessing.connection.wait, []

        def wait(objects, timeout=None):
            while steps().count(0) < 5 or 1 not in steps():
                assert not real_wait(objects, timeout=0.005), "a level ended"
            at_interrupt.extend(steps())
            raise KeyboardInterrupt

        monkeypatch.setattr(multiprocessing.connection, "wait", wait)
        threads = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            run_levels(seq, cfg)
        assert threading.active_count() == threads and no_child_left()
        time.sleep(0.1)   # ten steps of a level that still ran
        after = steps()
        assert len(set(lanes.pids())) == 2
        assert all(after.count(k) - at_interrupt.count(k) <= 1 for k in (0, 1))

    def test_interrupt_while_the_caller_waits_stops_the_helper(self, tmp_path):
        # level 0 ends first and the caller waits for level 1, whose process
        # sends the caller SIGINT at its step 25, as Ctrl-C would: level 1
        # must be killed, not waited for.  The caller is a child process, so
        # the test run never sees the signal.
        done = run_script(LEVEL_SCRIPT + """
def step(st, state, t_bound):
    if st.level == 1:
        time.sleep(0.02)
        note(st.level)
        if open(LOG).read().count("1") == 25:
            os.kill(os.getppid(), signal.SIGINT)
    return advance(st, state, t_bound)
flow._advance = step
try:
    flow.run_levels(seq, flow.FlowConfig(grid=g, T=0.04, record_every=50))
except KeyboardInterrupt:
    time.sleep(0.3)
    print(threading.active_count(), len(multiprocessing.active_children()),
          open(LOG).read().count("1"))
""", tmp_path)
        threads, children, taken = map(int, done.stdout.split())
        # no thread or process left, at most one step after the signal, far from T
        assert threads == 1 and children == 0 and taken <= 26, done.stderr


# two n = 1 levels on two CPUs; each _Stepper knows its level, and note(k)
# appends k to the file LOG, from any process
LEVEL_SCRIPT = """
import multiprocessing, os, signal, sys, threading, time
from types import SimpleNamespace
import maflow as mf
from maflow import flow
from maflow.initial import cos_mode
LOG = sys.argv[1]
os.sched_getaffinity = lambda pid: {0, 1}
g = mf.TorusGrid(1, 16)
levels = [mf.PotentialField(g, cos_mode(g, (1, 0), a)) for a in (0.01, 0.02)]
seq = SimpleNamespace(levels=levels, spec=SimpleNamespace(data_class="smooth"))
initial_state, advance = flow._initial_state, flow._advance
def initial(st, phi0, t0):
    st.level = [id(lev) for lev in levels].index(id(phi0))
    return initial_state(st, phi0, t0)
flow._initial_state = initial
def note(line):
    with open(LOG, "a") as fh:
        fh.write(f"{line}\\n")
def no_child():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return len(multiprocessing.active_children()) == 0
    return False
"""


def run_script(script, tmp_path, *args):
    """Run ``script`` in a fresh interpreter with maflow importable; fails on no stdout.

    The interpreter leads a process group of its own, which a Ctrl-C it
    sends itself reaches, and nothing else.
    """
    pkg = os.path.dirname(os.path.dirname(mf.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (pkg, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "log"), *args],
                          env=env, capture_output=True, text=True, timeout=120,
                          start_new_session=True)
    assert done.stdout.strip(), done.stderr
    return done


class TestNoProcessLeft:
    def test_no_child_or_zombie_after_success_failure_and_sigint(self, tmp_path):
        # after each way out of run_levels the caller has no child process at
        # all, running or a zombie.  The SIGINT goes to the process group, as
        # Ctrl-C's does: the level processes ignore it, and print nothing
        done = run_script(LEVEL_SCRIPT + """
cfg = flow.FlowConfig(grid=g, T=0.04, record_every=50)
threads = threading.active_count()
flow.run_levels(seq, cfg)
print("success", no_child(), threading.active_count() == threads)
def failing(st, state, t_bound):
    if st.level == 1 and state.step_count == 3:
        raise flow.KaehlerConeViolation("forced", t=state.t, min_eig=-1.0)
    return advance(st, state, t_bound)
flow._advance = failing
try:
    flow.run_levels(seq, cfg)
except flow.KaehlerConeViolation as e:
    print("failure", no_child(), threading.active_count() == threads, e.min_eig == -1.0)
def interrupting(st, state, t_bound):
    time.sleep(0.01)
    if st.level == 1 and state.step_count == 3:
        os.killpg(0, signal.SIGINT)
    return advance(st, state, t_bound)
flow._advance = interrupting
try:
    flow.run_levels(seq, cfg)
except KeyboardInterrupt:
    print("sigint", no_child(), threading.active_count() == threads)
""", tmp_path)
        assert done.stdout.split("\n")[:3] == ["success True True", "failure True True True",
                                                "sigint True True"], done.stderr
        assert done.stderr == ""


def maflow_errors():
    found, todo = [], [MaflowError]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo += cls.__subclasses__()
    return sorted(found, key=lambda c: c.__name__)


@pytest.mark.parametrize("cls", maflow_errors(), ids=lambda c: c.__name__)
def test_error_survives_a_pickle_round_trip(cls):
    # a level's error reaches the caller pickled, with its attributes (t, min_eig)
    params = inspect.signature(cls.__init__).parameters
    attrs = {name: 0.25 * (k + 1) for k, name in enumerate(params)
             if name not in ("self", "message", "args", "kwargs")}
    err = cls("failed here", **attrs)
    got = pickle.loads(pickle.dumps(err, protocol=pickle.HIGHEST_PROTOCOL))
    assert type(got) is cls and str(got) == "failed here" and got.args == err.args
    assert vars(got) == vars(err) == attrs


class TestOutput:
    def test_maflow_run_prints_the_same_with_one_worker(self, tmp_path):
        # stdout is a pipe, so it is block-buffered: a level process that
        # flushed the caller's buffer again would print its lines twice
        outputs = []
        for workers in ([], ["--workers", "1"]):
            run_dir = tmp_path / f"run{len(outputs)}"
            run_dir.mkdir()
            done = run_script("import sys\nfrom maflow.cli import main\n"
                              "print('before the levels')\n"
                              "sys.exit(main(sys.argv[2:]))", tmp_path,
                              "run", TestRunCommand()._config(run_dir), *workers)
            assert done.returncode == 0, done.stderr
            outputs.append((done.stdout, done.stderr))
        assert outputs[0] == outputs[1]
        assert outputs[0][0].count("before the levels") == 1
        assert outputs[0][0].count("level_0") == 3 and "limit:" in outputs[0][0]
