"""Concurrent approximation levels: run_levels against sequential runs."""

import os
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

import maflow as mf
from maflow import flow
from maflow.cli import main
from maflow.errors import ConfigError, KaehlerConeViolation
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


def fake_run(fail, delay=None, started=None):
    """A stand-in for flow.run over integer levels: level k in ``fail`` raises
    KaehlerConeViolation at t = 0.1 * (k + 1); level k first waits ``delay[k]`` s."""
    delay = delay or {}

    def fake(level, config, **kw):
        if started is not None:
            started.append(level)
        time.sleep(delay.get(level, 0.0))
        if level in fail:
            raise KaehlerConeViolation(f"level {level} failed", t=0.1 * (level + 1))
        return level
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
        monkeypatch.setattr(flow, "run", fake_run({2}))
        threads = threading.active_count()
        got = self._raised(lambda: run_levels(seq, None))
        assert threading.active_count() == threads
        want = self._raised(lambda: [flow.run(lev, None) for lev in seq.levels])
        assert type(got) is type(want) and got.t == want.t == pytest.approx(0.3)

    def test_earliest_failing_level_in_level_order_wins(self, monkeypatch):
        # level 1 fails first in time, level 0 first in level order
        monkeypatch.setattr(flow, "run", fake_run({0, 1}, delay={0: 0.3}))
        threads = threading.active_count()
        err = self._raised(lambda: run_levels(int_levels(4), None, workers=2))
        assert threading.active_count() == threads
        assert err.t == pytest.approx(0.1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_level_starts_after_a_failure(self, monkeypatch, workers):
        # level 3 may be running beside level 2; it holds its runner while the
        # failure stops the others
        started = []
        monkeypatch.setattr(flow, "run", fake_run({2}, delay={3: 0.5}, started=started))
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
