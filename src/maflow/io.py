"""Persistence: field snapshots, trajectory directories, verdict files.

Field snapshot format (magic bytes "MAFL", all little-endian):

    bytes 0..3    magic "MAFL"
    bytes 4..7    uint32  n        complex dimension
    bytes 8..11   uint32  res      points per real axis
    bytes 12..19  float64 period
    bytes 20..27  float64 t        time stamp of the field
    bytes 28..    float64 data, res^(2n) values, C (row-major) order

Round trips are bit-exact and copy no data.  A trajectory directory holds
series.csv (``write_csv``, fixed columns), meta.json, the h / psi_chi
fields when present, and one phi / phidot snapshot pair per snapshot time.
"""

import contextlib
import json
import math
import os
import struct
import sys
from dataclasses import asdict

import numpy as np

from . import functionals as fnl
from .errors import ConfigError
from .flow import SETTINGS, FlowConfig, Snapshot, Trajectory, TwistSpec
from .geometry import PotentialField, TorusGrid
from .initial import PotentialSpec

MAGIC = b"MAFL"
_HEADER = struct.Struct("<4sIIdd")


def write_field(path, field, t=0.0):
    g = field.grid
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, g.n, g.res, g.period, float(t)))
        np.asarray(field.values, dtype="<f8").tofile(fh)   # C order, no copy of the bytes


def read_field(path):
    """Returns (PotentialField, t); a missing file, a bad header, a data size other than
    the header's grid holds or a non-finite value is a ConfigError naming it."""
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        raise ConfigError(f"{path}: no such snapshot file") from None
    with fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise ConfigError(f"{path}: truncated snapshot header")
        magic, n, res, period, t = _HEADER.unpack(head)
        if magic != MAGIC:
            raise ConfigError(f"{path}: not a MAFL snapshot")
        grid = TorusGrid.checked(n, res, period, path)
        size = os.fstat(fh.fileno()).st_size - _HEADER.size   # a huge res must not reach read
        if size != grid.npoints * 8:
            raise ConfigError(f"{path}: {size} data bytes, not the {grid.npoints * 8} of its grid")
        data = np.fromfile(fh, dtype="<f8", count=grid.npoints).reshape(grid.shape)
        if not np.isfinite(data).all():
            raise ConfigError(f"{path}: non-finite value in the snapshot data")
        return PotentialField(grid, data), t


def write_csv(path, columns, rows):
    """The one CSV writer: a header of ``columns``, then each row, every value as %.17g."""
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", header=",".join(columns), comments="")


def write_series_csv(path, times, series):
    """series.csv: the SERIES_COLUMNS of ``series``, whose t column is ``times``."""
    write_csv(path, fnl.SERIES_COLUMNS, np.column_stack([series[c] for c in fnl.SERIES_COLUMNS]))


def read_series_csv(path):
    """(times, {column: values}); a missing or malformed table, or a NaN or +-inf cell,
    is a ConfigError naming it (and the cell's column)."""
    try:
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            rows = [line.strip().split(",") for line in fh if line.strip()]
        if not rows:
            raise ConfigError(f"{path}: no series rows")
        data = np.array([[float(x) for x in row] for row in rows])
        series = {name: data[:, i] for i, name in enumerate(header)}
        for name, col in series.items():
            if not np.isfinite(col).all():
                raise ConfigError(f"{path}: column {name!r} holds a non-finite value")
        return series["t"], series
    except FileNotFoundError:
        raise ConfigError(f"{path}: no such series file") from None
    except KeyError as e:
        raise ConfigError(f"{path}: no column {e.args[0]!r}") from None
    except (ValueError, IndexError) as e:
        raise ConfigError(f"{path}: malformed series: {e}") from None


def save_trajectory(traj, dirpath):
    os.makedirs(dirpath, exist_ok=True)
    write_series_csv(os.path.join(dirpath, "series.csv"), traj.times, traj.series)
    snap_index = []
    for i, s in enumerate(traj.snapshots):
        phi = PotentialField(traj.grid, s.phi)
        dot = PotentialField(traj.grid, s.phi_dot)
        write_field(os.path.join(dirpath, f"snap_{i:03d}_phi.mafl"), phi, s.t)
        write_field(os.path.join(dirpath, f"snap_{i:03d}_phidot.mafl"), dot, s.t)
        snap_index.append({"i": i, "t": s.t, "min_eig": s.min_eig})
    meta = dict(traj.meta)
    meta["snapshot_index"] = snap_index
    with open(os.path.join(dirpath, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
    return dirpath


def save_run(traj, dirpath, config=None):
    """Trajectory plus the fields needed to rebuild its FlowConfig."""
    save_trajectory(traj, dirpath)
    if config is not None:
        if config.h is not None:
            write_field(os.path.join(dirpath, "h.mafl"), config.h)
        if config.twist.psi_chi is not None:
            write_field(os.path.join(dirpath, "psi_chi.mafl"), config.twist.psi_chi)
    return dirpath


def _read_on(path, grid):
    """read_field(path) of a saved run; a field off the run's grid is a ConfigError naming path."""
    field, t = read_field(path)
    if field.grid != grid:
        f = field.grid
        raise ConfigError(f"{path}: grid (n, res, period) = ({f.n}, {f.res}, {f.period:g}) "
                          f"differs from meta.json's ({grid.n}, {grid.res}, {grid.period:g})")
    return field, t


def _optional_field(dirpath, name, grid):
    """The field saved as ``name`` in dirpath, on ``grid``, or None when there is no such file."""
    path = os.path.join(dirpath, name)
    return _read_on(path, grid)[0] if os.path.exists(path) else None


@contextlib.contextmanager
def _meta_values(dirpath):
    """The one error boundary of meta.json's values: a missing key, or a value of the
    wrong type or range (KeyError, TypeError, ValueError, OverflowError), is a
    ConfigError naming the file."""
    path = os.path.join(dirpath, "meta.json")
    try:
        yield
    except KeyError as e:
        raise ConfigError(f"{path} lacks {e.args[0]!r}") from None
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"{path}: {e}") from None


def _read_meta(dirpath):
    """(meta, grid) of a saved run: its meta.json, parsed here only, and the grid it names."""
    path = os.path.join(dirpath, "meta.json")
    try:
        with open(path) as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{dirpath}: no saved trajectory (no meta.json)") from None
    except ValueError as e:
        raise ConfigError(f"{path}: malformed JSON: {e}") from None
    if not isinstance(meta, dict):
        raise ConfigError(f"{path}: not a JSON object")
    meta.setdefault("data_class", "unknown")   # the one default of a run that left it out
    with _meta_values(dirpath):
        return meta, TorusGrid.checked(meta["n"], meta["res"], meta["period"], path)


def _check_values(meta, times):
    """meta.json's values that verify reads: c, sup_h, inf_h, t0 and T finite numbers,
    t_max (when saved) a positive number or Infinity, inf_h <= sup_h, t0 the first and
    T the last series time, snapshot_index a non-empty list whose first entry is at t0,
    variant one of FlowConfig.VARIANTS, sign_class one of TwistSpec.SIGN_CLASSES and
    data_class one of PotentialSpec.DATA_CLASSES; a ValueError names the key."""
    t_first, t_last = float(times[0]), float(times[-1])
    big = sys.float_info.max   # abs(v) <= big fails for NaN, +-Infinity and ints past floats
    for key in ("c", "sup_h", "inf_h", "t0", "T"):
        if type(meta[key]) not in (int, float) or not abs(meta[key]) <= big:
            raise ValueError(f"{key} = {meta[key]!r} is not a finite number")
    t_max = meta.get("t_max", math.inf)
    if type(t_max) not in (int, float) or not (0.0 < t_max <= big or t_max == math.inf):
        raise ValueError(f"t_max = {t_max!r} is not a positive number or Infinity")
    if meta["inf_h"] > meta["sup_h"]:
        raise ValueError(f"inf_h = {meta['inf_h']!r} exceeds sup_h = {meta['sup_h']!r}")
    if meta["t0"] != t_first:
        raise ValueError(f"t0 = {meta['t0']!r} is not the first series time {t_first!r}")
    if meta["T"] != t_last:
        raise ValueError(f"T = {meta['T']!r} is not the last series time {t_last!r}")
    index = meta["snapshot_index"]
    if not index or index[0]["t"] != meta["t0"]:
        raise ValueError(f"snapshot_index is empty or does not start at t0 = {meta['t0']!r}")
    for key, known in (("variant", FlowConfig.VARIANTS), ("sign_class", TwistSpec.SIGN_CLASSES),
                       ("data_class", PotentialSpec.DATA_CLASSES)):
        if meta[key] not in known:
            raise ValueError(f"{key} = {meta[key]!r} is not one of {', '.join(known)}")


def load_trajectory(dirpath):
    """A saved trajectory; it carries its twist when psi_chi.mafl was saved."""
    meta, grid = _read_meta(dirpath)
    times, series = read_series_csv(os.path.join(dirpath, "series.csv"))
    snaps = []
    with _meta_values(dirpath):
        _check_values(meta, times)
        for rec in meta.pop("snapshot_index"):
            fields = []
            for kind in ("phi", "phidot"):   # a stamp off meta.json's is an error naming the file
                path = os.path.join(dirpath, f"snap_{rec['i']:03d}_{kind}.mafl")
                field, t = _read_on(path, grid)
                if t != rec["t"]:
                    raise ConfigError(f"{path}: snapshot {rec['i']} is stamped t={t}; "
                                      f"meta.json says t={rec['t']}")
                fields.append(field.values)
            snaps.append(Snapshot(t, *fields, rec["min_eig"]))
        psi = _optional_field(dirpath, "psi_chi.mafl", grid)
        twist = None if psi is None else TwistSpec(meta["c"], psi)
    return Trajectory(grid, meta, series, snaps, twist)


def _run_config(dirpath, meta, grid, twist):
    """The FlowConfig of the run saved in dirpath, from its parsed meta.json and grid;
    ``twist``, when given, spares reading psi_chi.mafl."""
    with _meta_values(dirpath):
        settings = {f.name: meta[f.name] for f in SETTINGS}
        if twist is None:
            twist = TwistSpec(meta["c"], _optional_field(dirpath, "psi_chi.mafl", grid))
        return FlowConfig(grid=grid, twist=twist, h=_optional_field(dirpath, "h.mafl", grid),
                          snapshot_times=tuple(meta["snapshot_times"]), **settings)


def load_run_config(dirpath):
    """The FlowConfig of a saved run."""
    return _run_config(dirpath, *_read_meta(dirpath), None)


def load_run(dirpath):
    """(trajectory, FlowConfig) of a saved run, for a restart: one read of meta.json."""
    traj = load_trajectory(dirpath)
    return traj, _run_config(dirpath, traj.meta, traj.grid, traj.twist)


def load_levels(rundir):
    """The trajectories of a run directory's level_* subdirectories, in name order."""
    if not os.path.isdir(rundir):
        raise ConfigError(f"{rundir}: no such run directory")
    names = sorted(d for d in os.listdir(rundir) if d.startswith("level_"))
    if not names:
        raise ConfigError(f"{rundir}: no level_* subdirectories")
    return [load_trajectory(os.path.join(rundir, d)) for d in names]


def write_verdicts(path, reports):
    with open(path, "w") as fh:
        json.dump([asdict(r) for r in reports], fh, indent=1, sort_keys=True,
                  default=lambda v: v.tolist())
