"""Property test of the saved-run boundary: one corruption of a saved 2-level
run, drawn from the ``meta.json`` keys that ``io._check_values`` reads, the
MAFL header fields, the ``series.csv`` cells and the MAFL payloads, makes
``maflow verify`` exit 2 with one stderr line that names the corrupted
file.  An exception out of ``main`` (exit 1) fails the test.  One change
of a ``meta.json`` key that ``maflow verify`` never reads leaves it at exit
0, with the clean run's ``verdicts.json``, byte for byte.

Hypothesis runs derandomized and without an example database, as in
``test_properties.py``; every example corrupts a fresh copy of one saved run.
"""

import contextlib
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import maflow as mf
from maflow import io as mio
from maflow.cli import main
from maflow.flow import FlowConfig, TwistSpec, run_levels
from maflow.functionals import SERIES_COLUMNS
from maflow.initial import PotentialSpec, approximation_sequence

CORRUPTION = settings(derandomize=True, database=None, deadline=None, max_examples=200)

STAMPS = (0.0, 0.01, 0.02)   # the saved snapshot times; the run has h = 0 and c = 0
SNAPSHOTS = [f"snap_{i:03d}_{kind}.mafl" for i in range(len(STAMPS))
             for kind in ("phi", "phidot")]
DROP = object()   # a meta.json "value" that removes the key

not_a_number = st.sampled_from([None, "x", [], {}, True, math.nan, math.inf, -math.inf,
                                10 ** 400])


def not_one_of(known):
    return st.one_of(st.text(max_size=8).filter(lambda v: v not in known),
                     st.sampled_from([None, 1, 1.5, [], {}]))


def set_key(key, value):
    def change(meta):
        if value is DROP:
            del meta[key]
        else:
            meta[key] = value
    return change


def set_first_time(t):
    def change(meta):
        meta["snapshot_index"][0]["t"] = t
    return change


# changes of a loaded meta.json: every value below is one that io must reject
meta_changes = st.one_of(
    st.builds(set_key, st.sampled_from(["c", "sup_h", "inf_h", "t0", "T"]), not_a_number),
    st.builds(set_key, st.just("t0"), st.floats().filter(lambda v: v != 0.0)),
    st.builds(set_key, st.just("T"),
              st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: v != STAMPS[-1])),
    st.builds(set_key, st.just("inf_h"), st.floats(min_value=5e-324)),     # above sup_h = 0
    st.builds(set_key, st.just("sup_h"), st.floats(max_value=-5e-324)),    # below inf_h = 0
    st.builds(set_key, st.just("t_max"),
              st.one_of(not_a_number.filter(lambda v: v != math.inf), st.floats(max_value=0.0))),
    st.builds(set_key, st.just("variant"), not_one_of(FlowConfig.VARIANTS)),
    st.builds(set_key, st.just("sign_class"), not_one_of(TwistSpec.SIGN_CLASSES)),
    st.builds(set_key, st.just("data_class"), not_one_of(PotentialSpec.DATA_CLASSES)),
    st.builds(set_key, st.just("snapshot_index"), st.sampled_from([[], None, "x", 0])),
    st.builds(set_key, st.sampled_from(["c", "sup_h", "inf_h", "t0", "T", "variant",
                                        "sign_class", "snapshot_index"]), st.just(DROP)),
    st.builds(set_first_time, st.floats().filter(lambda v: v != 0.0)),
)


def edit_meta(change):
    def corrupt(level):
        meta = json.loads((level / "meta.json").read_text())
        change(meta)
        (level / "meta.json").write_text(json.dumps(meta))
    return "meta.json", corrupt


def edit_header(name, field, value):
    def corrupt(level):
        raw = (level / name).read_bytes()
        head = dict(zip(("magic", "n", "res", "period", "t"), mio._HEADER.unpack_from(raw)))
        head[field] = value
        (level / name).write_bytes(mio._HEADER.pack(*head.values()) + raw[mio._HEADER.size:])
    return name, corrupt


def edit_cell(row, column, value):
    def corrupt(level):
        lines = (level / "series.csv").read_text().splitlines()
        k = 1 + row % (len(lines) - 1)   # line 0 is the header
        cells = lines[k].split(",")
        cells[SERIES_COLUMNS.index(column)] = value
        lines[k] = ",".join(cells)
        (level / "series.csv").write_text("\n".join(lines) + "\n")
    return "series.csv", corrupt


def edit_payload(name, point, value):
    def corrupt(level):
        field, t = mio.read_field(level / name)
        field.values.flat[point] = value
        mio.write_field(level / name, field, t)
    return name, corrupt


uint32 = st.integers(0, 2 ** 32 - 1)
header_changes = st.one_of(
    st.tuples(st.just("magic"), st.binary(min_size=4, max_size=4).filter(lambda v: v != b"MAFL")),
    st.tuples(st.just("n"), uint32.filter(lambda v: v != 1)),
    st.tuples(st.just("res"), uint32.filter(lambda v: v != 16)),
    st.tuples(st.just("period"), st.floats().filter(lambda v: v != 2.0)),
    st.tuples(st.just("t"), st.floats().filter(lambda v: v not in STAMPS)),
)

corruptions = st.one_of(
    meta_changes.map(edit_meta),
    st.builds(lambda name, fv: edit_header(name, *fv), st.sampled_from(SNAPSHOTS), header_changes),
    st.builds(edit_cell, st.integers(0, 10 ** 6), st.sampled_from(SERIES_COLUMNS),
              st.sampled_from(["nan", "inf", "-inf", "1e999", "x", "", "0x1p3"])),
    st.builds(edit_payload, st.sampled_from(SNAPSHOTS), st.integers(0, 16 * 16 - 1),
              st.sampled_from([math.nan, math.inf, -math.inf])),
)


@pytest.fixture(scope="module")
def saved_run(tmp_path_factory):
    """A saved 2-level n = 1 res 16 lelong run, which verify passes."""
    g = mf.TorusGrid(1, 16, 2.0)
    seq = approximation_sequence(PotentialSpec("lelong", gamma=1.0), g, 2, K=2.0)
    cfg = FlowConfig(grid=g, T=STAMPS[-1], snapshot_times=STAMPS[1:-1], record_every=5)
    rundir = tmp_path_factory.mktemp("saved") / "run"
    for k, traj in enumerate(run_levels(seq, cfg, workers=1)):
        mio.save_run(traj, rundir / f"level_{k:02d}", cfg)
    return rundir


def verify(rundir, *options):
    """(exit code, stderr) of ``maflow verify`` on rundir."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["verify", str(rundir), *options])
    return code, err.getvalue()


def test_the_clean_run_verifies(saved_run):
    assert verify(saved_run) == (0, "")


@CORRUPTION
@given(level=st.sampled_from(["level_00", "level_01"]), corruption=corruptions)
def test_a_corrupted_saved_run_exits_2_naming_the_file(saved_run, level, corruption):
    name, corrupt = corruption
    with tempfile.TemporaryDirectory() as d:
        rundir = Path(shutil.copytree(saved_run, Path(d) / "run"))
        corrupt(rundir / level)
        code, err = verify(rundir)
        assert code == 2, err
        assert err.startswith("configuration error: ") and err.count("\n") == 1, err
        assert str(rundir / level) in err and name in err, err


# the keys of a level's meta.json that `maflow verify` never reads (dt_policy is
# left out: comparison reads it), and the values of the saved-run corruption sweep
UNREAD_KEYS = ("dt_init", "dt_min", "safety", "record_every", "dealias", "stab_factor",
               "snapshot_times", "phi0_sup", "phi0_inf", "level", "delta", "level_eps")
SWEEP_VALUES = (None, "x", -1, 0, 3, 1.5, [], {}, 1e308, math.nan)


@pytest.fixture(scope="module")
def clean_verdicts(saved_run, tmp_path_factory):
    out = tmp_path_factory.mktemp("clean") / "verdicts.json"
    assert verify(saved_run, "--out", str(out)) == (0, "")
    return out.read_bytes()


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(level=st.sampled_from(["level_00", "level_01"]), key=st.sampled_from(UNREAD_KEYS),
       value=st.sampled_from(SWEEP_VALUES))
def test_a_key_verify_never_reads_leaves_the_verdicts_unchanged(saved_run, clean_verdicts,
                                                                 level, key, value):
    with tempfile.TemporaryDirectory() as d:
        rundir = Path(shutil.copytree(saved_run, Path(d) / "run"))
        edit_meta(set_key(key, value))[1](rundir / level)
        assert verify(rundir) == (0, "")
        assert (rundir / "verdicts.json").read_bytes() == clean_verdicts
