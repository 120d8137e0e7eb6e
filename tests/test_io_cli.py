"""Snapshot format, trajectory persistence, configuration, CLI surface."""

import json

import numpy as np
import pytest

import maflow as mf
from maflow import io as mio
from maflow import verify as ver
from maflow.cli import main
from maflow.config import load_config, parse_modes
from maflow.errors import ConfigError
from maflow.flow import FlowConfig, run
from maflow.geometry import PotentialField
from maflow.initial import cos_mode
from maflow.logdiff import evolve_density, potential_to_density


def mode(grid, kvec, amp, phase=0.0):
    return PotentialField(grid, cos_mode(grid, kvec, amp, phase))


class TestSnapshotFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        g = mf.TorusGrid(2, 8, period=2.0)
        rng = np.random.default_rng(0)
        f = PotentialField(g, rng.standard_normal(g.shape))
        path = tmp_path / "f.mafl"
        mio.write_field(path, f, t=0.375)
        back, t = mio.read_field(path)
        assert t == 0.375
        assert back.grid == g
        assert np.array_equal(back.values, f.values)

    def test_magic_bytes(self, tmp_path):
        g = mf.TorusGrid(1, 8)
        path = tmp_path / "f.mafl"
        mio.write_field(path, PotentialField.zeros(g))
        assert path.read_bytes()[:4] == b"MAFL"

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.mafl"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(ConfigError):
            mio.read_field(path)


class TestTrajectoryPersistence:
    @pytest.fixture()
    def traj(self):
        g = mf.TorusGrid(1, 16)
        cfg = FlowConfig(grid=g, T=0.1, snapshot_times=(0.05, 0.1), record_every=5)
        return run(mode(g, (1, 0), 0.02), cfg), cfg

    def test_round_trip(self, tmp_path, traj):
        tr, cfg = traj
        d = tmp_path / "run"
        mio.save_run(tr, d, cfg)
        back = mio.load_trajectory(d)
        assert np.array_equal(back.times, tr.times)
        for k in tr.series:
            assert np.array_equal(back.series[k], tr.series[k])
        for a, b in zip(tr.snapshots, back.snapshots):
            assert np.array_equal(a.phi, b.phi)
            assert np.array_equal(a.phi_dot, b.phi_dot)

    def test_config_reconstruction(self, tmp_path, traj):
        tr, cfg = traj
        d = tmp_path / "run"
        mio.save_run(tr, d, cfg)
        back = mio.load_run_config(d)
        assert back.T == cfg.T and back.dt_policy == cfg.dt_policy
        assert back.grid == cfg.grid


class TestConfigFile:
    GOOD = """
[schema]
version = 1
[grid]
n = 1
res = 16
[initial]
kind = smooth
modes = 1 0 : 0.02 : 0.0
[flow]
T = 0.05
record_every = 10
[output]
dir = {out}
snapshots = 0.025, 0.05
[verify]
checks = sup_bound, clef
tol.sup_bound = 1e-6
"""

    def test_parse(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text(self.GOOD.format(out=tmp_path / "out"))
        setup = load_config(p)
        assert setup.grid.res == 16
        assert setup.flow.snapshot_times == (0.025, 0.05)
        assert setup.checks == ["sup_bound", "clef"]
        assert setup.tolerances["sup_bound"] == 1e-6

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text("[grid]\nn = 1\nres = 16\nspacing = 3\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text("[grid]\nn = 1\nres = 16\n[extra]\nx = 1\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_mode_syntax(self):
        modes = parse_modes("1 0 : 0.05 : 0.2; 0 2 : 0.01")
        assert modes == [((1, 0), 0.05, 0.2), ((0, 2), 0.01, 0.0)]

    def test_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MAFLOW_OUTPUT_ROOT", str(tmp_path / "root"))
        p = tmp_path / "run.ini"
        p.write_text("[grid]\nn = 1\nres = 16\n[output]\ndir = sub\n")
        setup = load_config(p)
        assert setup.outdir == str(tmp_path / "root" / "sub")

    @pytest.mark.parametrize("value, want", [("on", True), ("Yes", True), ("1", True),
                                             ("off", False), ("no", False), ("0", False)])
    def test_boolean_values(self, tmp_path, value, want):
        p = tmp_path / "run.ini"
        p.write_text(f"[grid]\nres = 16\n[flow]\ndealias = {value}\n")
        assert load_config(p).flow.dealias is want

    def test_misspelt_boolean_rejected(self, tmp_path):
        # read as False before, which silently switched dealiasing off
        p = tmp_path / "run.ini"
        p.write_text("[grid]\nres = 16\n[flow]\ndealias = ture\n")
        with pytest.raises(ConfigError, match=r"\[flow\] dealias"):
            load_config(p)

    def test_float_lists(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text("[grid]\nres = 16\n[initial]\ncenter = 0.5, 0.25\ndelta0 =\n"
                     "[output]\nsnapshots = 0.01 0.02\n")
        setup = load_config(p)
        assert setup.spec.center == (0.5, 0.25) and setup.delta0 is None
        assert setup.flow.snapshot_times == (0.01, 0.02)
        p.write_text("[grid]\nres = 16\n[initial]\ndelta0 = 0.1\n")
        assert load_config(p).delta0 == 0.1

    @pytest.mark.parametrize("section, line", [
        ("output", "snapshots = 0.005x"),
        ("initial", "center = 0.5 x"),
        ("initial", "delta0 = 0.1y"),
        ("initial", "delta0 = 0.1 0.2"),
    ])
    def test_malformed_float_list_is_config_error(self, tmp_path, monkeypatch, section, line):
        monkeypatch.setenv("MAFLOW_OUTPUT_ROOT", str(tmp_path))
        p = tmp_path / "run.ini"
        p.write_text(f"[grid]\nres = 16\n[{section}]\n{line}\n")
        key = line.split()[0]
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key}"):
            load_config(p)
        assert main(["run", str(p)]) == 2

    def test_non_finite_horizon_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MAFLOW_OUTPUT_ROOT", str(tmp_path))
        p = tmp_path / "run.ini"
        p.write_text("[grid]\nres = 16\n[flow]\nT = nan\n")
        assert main(["run", str(p)]) == 2

    def test_negative_stab_factor_exits_2(self, tmp_path, monkeypatch, capsys):
        # it used to run, anti-damped, into a KaehlerConeViolation at t = 0.005 (exit 3)
        monkeypatch.setenv("MAFLOW_OUTPUT_ROOT", str(tmp_path))
        p = tmp_path / "run.ini"
        p.write_text("[grid]\nres = 32\n[initial]\nmodes = 1 0 : 0.02 : 0.0\n"
                     "[flow]\nT = 0.02\ndt_policy = semi_implicit\ndt_init = 1e-3\n"
                     "stab_factor = -1.0\n")
        assert main(["run", str(p)]) == 2
        assert "stab_factor" in capsys.readouterr().err


class TestCli:
    def _write_config(self, tmp_path, extra_verify=""):
        p = tmp_path / "run.ini"
        p.write_text(f"""
[grid]
n = 1
res = 16
[initial]
kind = smooth
modes = 1 0 : 0.02 : 0.0
[flow]
T = 0.05
record_every = 10
[output]
dir = {tmp_path / 'out'}
snapshots = 0.025, 0.05
{extra_verify}
""")
        return p

    def test_run_and_verify_roundtrip(self, tmp_path, capsys):
        cfgp = self._write_config(tmp_path)
        assert main(["run", str(cfgp)]) == 0
        out = tmp_path / "out"
        assert (out / "level_00" / "series.csv").exists()
        assert main(["verify", str(out)]) == 0
        verdicts = json.loads((out / "verdicts.json").read_text())
        names = {v["name"] for v in verdicts}
        assert "sup_bound" in names and "clef" in names
        assert all(v["status"] in ("pass", "skip") for v in verdicts)

    def test_rerun_is_byte_identical(self, tmp_path):
        cfgp = self._write_config(tmp_path)
        assert main(["run", str(cfgp)]) == 0
        first = (tmp_path / "out" / "level_00" / "series.csv").read_bytes()
        assert main(["run", str(cfgp)]) == 0
        second = (tmp_path / "out" / "level_00" / "series.csv").read_bytes()
        assert first == second

    def test_config_error_exit_code(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[grid]\nn = 7\nres = 16\n")
        assert main(["run", str(p)]) == 2

    def test_solver_failure_exit_code(self, tmp_path):
        # dt_min above the parabolic CFL: immediate step-size underflow, exit 3
        p = tmp_path / "run.ini"
        p.write_text(f"""
[grid]
n = 1
res = 16
[initial]
kind = smooth
modes = 1 0 : 0.02 : 0.0
[flow]
T = 0.05
dt_min = 1e-2
[output]
dir = {tmp_path / 'out'}
""")
        assert main(["run", str(p)]) == 3

    def test_unsampleable_data_is_config_error(self, tmp_path):
        # data outside the Kaehler cone is rejected at sampling, exit 2
        p = tmp_path / "run.ini"
        p.write_text(f"""
[grid]
n = 1
res = 16
[initial]
kind = smooth
modes = 1 0 : 0.2 : 0.0
[flow]
T = 0.05
[output]
dir = {tmp_path / 'out'}
""")
        assert main(["run", str(p)]) == 2

    def test_tampered_run_fails_verify(self, tmp_path):
        cfgp = self._write_config(tmp_path)
        main(["run", str(cfgp)])
        series = tmp_path / "out" / "level_00" / "series.csv"
        lines = series.read_text().splitlines()
        cols = lines[0].split(",")
        i = cols.index("sup")
        doctored = [lines[0]]
        for row in lines[1:]:
            parts = row.split(",")
            if float(parts[0]) > 0:
                parts[i] = str(float(parts[i]) + 5.0)
            doctored.append(",".join(parts))
        series.write_text("\n".join(doctored) + "\n")
        assert main(["verify", str(tmp_path / "out"), "--checks", "sup_bound"]) == 4

    def test_advisory_never_affects_exit_code(self, tmp_path):
        cfgp = self._write_config(tmp_path)
        main(["run", str(cfgp)])
        assert main(["verify", str(tmp_path / "out"),
                     "--checks", "c2_diagnostic"]) == 0

    def test_oracle_heat(self, tmp_path):
        out = tmp_path / "oracle"
        assert main(["oracle", "heat", "--res", "16", "--T", "0.5",
                     "--out", str(out)]) == 0
        rows = (out / "heat_mode.csv").read_text().splitlines()
        t, a = map(float, rows[-1].split(","))
        assert a == pytest.approx(np.exp(-np.pi ** 2 * 0.5), rel=1e-12)

    def test_oracle_fixed_point(self, tmp_path):
        out = tmp_path / "oracle"
        assert main(["oracle", "elliptic_fixed_point", "--res", "16",
                     "--h-modes", "1 0 : 0.05 : 0.0", "--out", str(out)]) == 0
        assert (out / "fixed_point.mafl").exists()
        assert (out / "newton_log.csv").exists()

    def test_compare_identical_runs(self, tmp_path):
        cfgp = self._write_config(tmp_path)
        main(["run", str(cfgp)])
        rep_path = tmp_path / "cmp.json"
        assert main(["compare", str(tmp_path / "out" / "level_00"),
                     str(tmp_path / "out" / "level_00"),
                     "--out", str(rep_path)]) == 0
        rep = json.loads(rep_path.read_text())
        assert rep["max_abs_d_sup"] == 0.0
        assert rep["signed_min_diff"] == 0.0

    def test_restart_reproduces_tail(self, tmp_path):
        cfgp = self._write_config(tmp_path)
        main(["run", str(cfgp)])
        dest = tmp_path / "restart"
        assert main(["restart", str(tmp_path / "out" / "level_00"),
                     "--at", "0.025", "--out", str(dest)]) == 0
        orig = mio.load_trajectory(tmp_path / "out" / "level_00")
        tail = mio.load_trajectory(dest)
        t_final = orig.meta["T"]
        d = np.abs(orig.snapshot_at(t_final).phi - tail.snapshot_at(t_final).phi)
        assert d.max() <= 1e-12


class TestWorkersAndTiming:
    def _singular_config(self, tmp_path, workers_unused=None):
        p = tmp_path / "run.ini"
        p.write_text(f"""
[grid]
n = 1
res = 32
period = 2.0
[initial]
kind = lelong
gamma = 0.6
levels = 3
trunc_depth = 2.0
[flow]
T = 0.05
record_every = 20
[output]
dir = {tmp_path / 'out'}
snapshots = 0.05
""")
        return p

    def test_parallel_levels_match_sequential(self, tmp_path):
        cfgp = self._singular_config(tmp_path)
        assert main(["run", str(cfgp), "--workers", "1"]) == 0
        seq_csv = [(tmp_path / "out" / f"level_{j:02d}" / "series.csv").read_bytes()
                   for j in range(3)]
        assert main(["run", str(cfgp), "--workers", "2"]) == 0
        par_csv = [(tmp_path / "out" / f"level_{j:02d}" / "series.csv").read_bytes()
                   for j in range(3)]
        assert seq_csv == par_csv

    def test_minimal_res256_run_under_ten_seconds(self, tmp_path):
        import time
        p = tmp_path / "run.ini"
        p.write_text(f"""
[grid]
n = 1
res = 256
[initial]
kind = smooth
modes = 1 0 : 0.02 : 0.0
[flow]
T = 0.01
dt_policy = semi_implicit
dt_init = 2e-4
record_every = 20
[output]
dir = {tmp_path / 'out'}
""")
        t0 = time.monotonic()
        assert main(["run", str(p)]) == 0
        assert time.monotonic() - t0 < 10.0

    def test_verify_with_restart_dir_runs_minodot(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text(f"""
[grid]
n = 1
res = 16
[initial]
kind = smooth
modes = 1 0 : 0.02 : 0.0
[flow]
T = 0.05
record_every = 10
[output]
dir = {tmp_path / 'out'}
snapshots = 0.025, 0.05
""")
        main(["run", str(p)])
        dest = tmp_path / "restart"
        main(["restart", str(tmp_path / "out" / "level_00"),
              "--at", "0.025", "--out", str(dest)])
        code = main(["verify", str(tmp_path / "out"),
                     "--checks", "sup_bound", "--restart-dir", str(dest)])
        assert code == 0
        verdicts = json.loads((tmp_path / "out" / "verdicts.json").read_text())
        assert any(v["name"] == "minodot" and v["status"] == "pass"
                   for v in verdicts)

    def test_oracle_lelong_field(self, tmp_path):
        out = tmp_path / "oracle"
        assert main(["oracle", "lelong_field", "--res", "64", "--period", "2.0",
                     "--gamma", "0.7", "--out", str(out)]) == 0
        fld, _ = mio.read_field(out / "lelong_field.mafl")
        from maflow.initial import default_center, lelong_estimate
        nu = lelong_estimate(fld, default_center(fld.grid))
        assert abs(nu - 0.7) <= 0.05


class TestTypedErrors:
    """Each case is a configuration error: exit 2 with a one-line message."""

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        """Saved runs at res 16 (snapshots at 0, 0.005, 0.01) and res 8, and one with T = 0."""
        root = tmp_path_factory.mktemp("runs")
        for name, res, T in (("res16", 16, 0.01), ("res8", 8, 0.01), ("zero", 16, 0.0)):
            g = mf.TorusGrid(1, res)
            cfg = FlowConfig(grid=g, T=T, snapshot_times=(0.005,) if T else (),
                             record_every=5)
            mio.save_run(run(mode(g, (1, 0), 0.02), cfg), root / name / "level_00", cfg)
        return root

    @pytest.mark.parametrize("argv, message", [
        (["restart", "res16/level_00", "--at", "0.003"], "the snapshot times are 0, 0.005, 0.01"),
        (["compare", "res16/level_00", "res8/level_00"], "different grids"),
        (["oracle", "heat", "--mode", "a b"], "give 2 integers at n = 1"),
        (["oracle", "heat", "--mode", "1 0 0"], "give 2 integers at n = 1"),
        (["oracle", "heat", "--n", "2", "--res", "8", "--mode", "1 0"],
         "give 4 integers at n = 2"),
        (["verify", "missing"], "no such run directory"),
        (["compare", "missing", "res16/level_00"], "no saved trajectory"),
        (["restart", "missing", "--at", "0.005"], "no saved trajectory"),
    ])
    def test_exits_2_with_a_one_line_message(self, runs, argv, message, capsys, monkeypatch):
        monkeypatch.chdir(runs)
        assert main(argv + (["--out", "out"] if argv[0] == "oracle" else [])) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("argv", [
        ["oracle", "heat", "--mode", "a b"],
        ["oracle", "heat", "--n", "2", "--res", "8", "--mode", "1 0"],
        ["oracle", "lelong_field", "--res", "0"],
        ["oracle", "elliptic_fixed_point", "--res", "16", "--h-modes", "1 0 0 : 0.05 : 0.0"],
    ])
    def test_rejected_oracle_leaves_no_output_directory(self, tmp_path, argv, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--out", "o"]) == 2
        assert not (tmp_path / "o").exists()

    def test_verify_of_a_zero_horizon_run_exits_0(self, runs):
        assert main(["verify", str(runs / "zero")]) == 0


def edit_meta(level, change):
    """Apply ``change`` to the loaded meta.json of ``level`` and write it back."""
    meta = json.loads((level / "meta.json").read_text())
    change(meta)
    (level / "meta.json").write_text(json.dumps(meta))


def edit_series(level, change):
    """Replace the lines of series.csv of ``level`` by ``change(lines)``."""
    csv = level / "series.csv"
    csv.write_text("\n".join(change(csv.read_text().splitlines())) + "\n")


CORRUPTIONS = {   # name: (file named in the message, corruption of a saved level)
    "malformed_meta": ("meta.json", lambda d: (d / "meta.json").write_text('{"n": 1,')),
    "meta_not_an_object": ("meta.json", lambda d: (d / "meta.json").write_text("[1, 2]")),
    "meta_without_n": ("meta.json", lambda d: edit_meta(d, lambda m: m.pop("n"))),
    "snapshot_without_min_eig": (
        "meta.json", lambda d: edit_meta(d, lambda m: m["snapshot_index"][1].pop("min_eig"))),
    "non_numeric_value": (
        "series.csv", lambda d: edit_series(d, lambda ls: ls[:2] + ["x" + ls[2]] + ls[3:])),
    "short_row": (
        "series.csv", lambda d: edit_series(d, lambda ls: ls[:2] + [ls[2].rsplit(",", 1)[0]]
                                            + ls[3:])),
    "no_series": ("series.csv", lambda d: (d / "series.csv").unlink()),
    "header_without_t": (
        "series.csv", lambda d: edit_series(d, lambda ls: ["time" + ls[0][1:]] + ls[1:])),
}


class TestLoaderValidation:
    @pytest.fixture()
    def saved(self, tmp_path):
        g = mf.TorusGrid(1, 16)
        cfg = FlowConfig(grid=g, T=0.02, snapshot_times=(0.01,), record_every=5)
        d = tmp_path / "level_00"
        mio.save_run(run(mode(g, (1, 0), 0.02), cfg), d, cfg)
        return d

    def test_header_only_series_is_config_error(self, saved, capsys):
        csv = saved / "series.csv"
        csv.write_text(csv.read_text().splitlines()[0] + "\n")
        with pytest.raises(ConfigError, match="no series rows"):
            mio.read_series_csv(csv)
        assert main(["verify", str(saved.parent)]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["phi", "phidot"])
    def test_snapshot_time_must_match_meta(self, saved, kind):
        path = saved / f"snap_001_{kind}.mafl"
        field, t = mio.read_field(path)
        assert t == 0.01
        mio.write_field(path, field, 0.011)
        with pytest.raises(ConfigError, match="snapshot 1"):
            mio.load_trajectory(saved)

    def test_missing_snapshot_file_exits_2_naming_it(self, saved, capsys):
        (saved / "snap_001_phidot.mafl").unlink()
        with pytest.raises(ConfigError, match="snap_001_phidot.mafl"):
            mio.load_trajectory(saved)
        assert main(["verify", str(saved.parent)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and err.count("\n") == 1
        assert "snap_001_phidot.mafl: no such snapshot file" in err

    @pytest.mark.parametrize("case", CORRUPTIONS)
    def test_corrupted_run_directory_exits_2_naming_the_file(self, saved, case, capsys):
        name, corrupt = CORRUPTIONS[case]
        corrupt(saved)
        with pytest.raises(ConfigError, match=name):
            mio.load_trajectory(saved)
        assert main(["verify", str(saved.parent)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert str(saved) in err and name in err

    def test_truncated_header_exits_2_naming_the_file(self, saved, capsys):
        path = saved / "snap_001_phi.mafl"
        path.write_bytes(path.read_bytes()[:10])
        assert main(["verify", str(saved.parent)]) == 2
        assert "snap_001_phi.mafl: truncated snapshot header" in capsys.readouterr().err


class TestTwistedRestart:
    def test_restart_reads_psi_chi_once(self, tmp_path, monkeypatch):
        g = mf.TorusGrid(1, 16)
        psi = PotentialField(g, cos_mode(g, (1, 1), 0.01, 0.3))
        cfg = FlowConfig(grid=g, twist=mf.TwistSpec(-0.5, psi), T=0.02,
                         snapshot_times=(0.01,), record_every=5)
        src = tmp_path / "run"
        mio.save_run(run(mode(g, (1, 0), 0.02), cfg), src, cfg)
        reads = []
        orig = mio.read_field

        def counting(path):
            reads.append(str(path))
            return orig(path)

        monkeypatch.setattr(mio, "read_field", counting)
        dest = tmp_path / "restart"
        assert main(["restart", str(src), "--at", "0.01", "--out", str(dest)]) == 0
        assert sum(p.endswith("psi_chi.mafl") for p in reads) == 1
        monkeypatch.undo()
        tail = mio.load_trajectory(dest)
        assert np.array_equal(tail.twist.psi_chi.values, psi.values)
        assert tail.snapshots[-1].t == 0.02


class TestDensityRunRestart:
    def test_restart_of_density_run_is_a_config_error(self, tmp_path, capsys):
        g = mf.TorusGrid(1, 16)
        f0 = potential_to_density(mode(g, (1, 0), 0.02))
        src = tmp_path / "density"
        mio.save_trajectory(evolve_density(f0, 0.02, snapshot_times=(0.01,)), src)
        with pytest.raises(ConfigError, match="logfd"):
            mio.load_run_config(src)
        assert main(["restart", str(src), "--at", "0.01", "--out", str(tmp_path / "r")]) == 2
        assert "logfd" in capsys.readouterr().err


class TestRunSettingsInMeta:
    def test_density_run_records_every_setting(self, tmp_path):
        g = mf.TorusGrid(1, 16)
        f0 = potential_to_density(mode(g, (1, 0), 0.02))
        traj = evolve_density(f0, 0.02, dt_policy="semi_implicit", dt_init=1e-3,
                              dt_min=1e-11, record_every=3, stab_factor=1.5,
                              snapshot_times=(0.01,))
        mio.save_trajectory(traj, tmp_path / "density")
        meta = json.loads((tmp_path / "density" / "meta.json").read_text())
        assert (meta["dt_min"], meta["record_every"], meta["stab_factor"]) == (1e-11, 3, 1.5)
        assert meta["dealias"] is False

    def test_meta_without_a_setting_is_a_config_error(self, tmp_path, capsys):
        g = mf.TorusGrid(1, 16)
        cfg = FlowConfig(grid=g, T=0.02, snapshot_times=(0.01,))
        src = tmp_path / "run"
        mio.save_run(run(mode(g, (1, 0), 0.02), cfg), src, cfg)
        meta = json.loads((src / "meta.json").read_text())
        del meta["safety"]
        (src / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ConfigError, match="safety"):
            mio.load_run_config(src)
        assert main(["restart", str(src), "--at", "0.01", "--out", str(tmp_path / "r")]) == 2
        assert "safety" in capsys.readouterr().err


class TestVerifySection:
    def _write_config(self, tmp_path, verify):
        p = tmp_path / "run.ini"
        p.write_text(f"""
[grid]
n = 1
res = 16
[initial]
kind = smooth
modes = 1 0 : 0.02 : 0.0
[flow]
T = 0.05
record_every = 10
[output]
dir = {tmp_path / 'out'}
snapshots = 0.025, 0.05
[verify]
{verify}
""")
        return p

    def _verdicts(self, tmp_path):
        verdicts = json.loads((tmp_path / "out" / "verdicts.json").read_text())
        return [(v["name"], v["tolerance"]) for v in verdicts]

    def test_verify_runs_the_configured_checks_with_their_tolerances(self, tmp_path):
        p = self._write_config(tmp_path, "checks = sup_bound, clef\ntol.clef = 0.5")
        assert main(["run", str(p)]) == 0
        assert main(["verify", str(tmp_path / "out")]) == 0
        assert self._verdicts(tmp_path) == [("sup_bound", 1e-6), ("clef", 0.5)]
        # --checks replaces the configured list; the tolerances still apply
        assert main(["verify", str(tmp_path / "out"), "--checks", "clef"]) == 0
        assert self._verdicts(tmp_path) == [("clef", 0.5)]

    @pytest.mark.parametrize("verify, name", [
        ("checks = sup_bound, no_such_check", "no_such_check"),
        ("tol.no_such_check = 1e-3", "no_such_check"),
        ("tol.volume_identity = 1e-3", "volume_identity"),
        ("tol.mean_value = 1e-3", "mean_value"),
        ("tol.oscillation_levels = 1e-3", "oscillation_levels"),
    ])
    def test_unknown_check_or_tol_of_a_tol_less_check_rejected(self, tmp_path, verify, name):
        p = self._write_config(tmp_path, verify)
        with pytest.raises(ConfigError, match=name):
            load_config(p)
        assert main(["run", str(p)]) == 2

    def test_unknown_check_exits_2_before_any_check_runs(self, tmp_path, monkeypatch, capsys):
        p = self._write_config(tmp_path, "")
        assert main(["run", str(p)]) == 0
        called = []
        monkeypatch.setitem(ver.SINGLE_RUN_CHECKS, "sup_bound",
                            lambda *a, **k: called.append(a))
        assert main(["verify", str(tmp_path / "out"), "--checks", "sup_bound,bogus"]) == 2
        assert called == [] and "bogus" in capsys.readouterr().err

    def test_named_check_without_its_input_reports_skip(self, tmp_path):
        # one level and no restart: these checks were dropped from verdicts.json
        p = self._write_config(tmp_path, "checks = sup_bound, comparison, "
                                         "oscillation_levels, minodot")
        assert main(["run", str(p)]) == 0
        assert main(["verify", str(tmp_path / "out")]) == 0
        verdicts = json.loads((tmp_path / "out" / "verdicts.json").read_text())
        assert [(v["name"], v["status"]) for v in verdicts] == [
            ("sup_bound", "pass"), ("comparison", "skip"),
            ("oscillation_levels", "skip"), ("minodot", "skip")]
        assert "levels" in verdicts[1]["gated_on"] and "levels" in verdicts[2]["gated_on"]
        assert "--restart-dir" in verdicts[3]["gated_on"]
        assert main(["verify", str(tmp_path / "out"), "--checks", "minodot"]) == 0
        assert self._verdicts(tmp_path) == [("minodot", 0.0)]
