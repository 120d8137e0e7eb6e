"""Persistence: field snapshots, trajectory directories, verdict files.

Field snapshot format (magic bytes "MAFL", all little-endian):

    bytes 0..3    magic "MAFL"
    bytes 4..7    uint32  n        complex dimension
    bytes 8..11   uint32  res      points per real axis
    bytes 12..19  float64 period
    bytes 20..27  float64 t        time stamp of the field
    bytes 28..    float64 data, res^(2n) values, C (row-major) order

Round trips are bit-exact.  A trajectory directory holds series.csv with
the fixed column schema, meta.json, the h / psi_chi fields when present,
and one phi / phidot snapshot pair per recorded snapshot time.
"""

import contextlib
import json
import os
import struct

import numpy as np

from . import functionals as fnl
from .errors import ConfigError
from .flow import SETTINGS, FlowConfig, Snapshot, Trajectory, TwistSpec
from .geometry import PotentialField, TorusGrid

MAGIC = b"MAFL"
_HEADER = struct.Struct("<4sIIdd")


def write_field(path, field, t=0.0):
    g = field.grid
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, g.n, g.res, g.period, float(t)))
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())


def read_field(path):
    """Returns (PotentialField, t); a missing file or a bad header is a ConfigError naming it."""
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
        data = np.frombuffer(fh.read(grid.npoints * 8), dtype="<f8")
        if data.size != grid.npoints:
            raise ConfigError(f"{path}: truncated snapshot")
        return PotentialField(grid, data.reshape(grid.shape).copy()), t


def write_series_csv(path, times, series):
    cols = fnl.SERIES_COLUMNS
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for i in range(len(times)):
            fh.write(",".join(f"{float(series[c][i]):.17g}" for c in cols) + "\n")


def read_series_csv(path):
    """(times, {column: values}); a missing or malformed table is a ConfigError naming it."""
    try:
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            rows = [line.strip().split(",") for line in fh if line.strip()]
        if not rows:
            raise ConfigError(f"{path}: no series rows")
        data = np.array([[float(x) for x in row] for row in rows])
        series = {name: data[:, i] for i, name in enumerate(header)}
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


def _optional_field(dirpath, name):
    """The field saved as ``name`` in dirpath, or None when there is no such file."""
    path = os.path.join(dirpath, name)
    return read_field(path)[0] if os.path.exists(path) else None


@contextlib.contextmanager
def _meta_values(dirpath):
    """The one error boundary of meta.json's values: a missing key, or a value of the
    wrong type or range (KeyError, TypeError, ValueError), is a ConfigError naming the file."""
    path = os.path.join(dirpath, "meta.json")
    try:
        yield
    except KeyError as e:
        raise ConfigError(f"{path} lacks {e.args[0]!r}") from None
    except (TypeError, ValueError) as e:
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
    with _meta_values(dirpath):
        return meta, TorusGrid.checked(meta["n"], meta["res"], meta["period"], path)


def load_trajectory(dirpath):
    """A saved trajectory; it carries its twist when psi_chi.mafl was saved."""
    meta, grid = _read_meta(dirpath)
    times, series = read_series_csv(os.path.join(dirpath, "series.csv"))
    snaps = []
    with _meta_values(dirpath):
        for rec in meta.pop("snapshot_index", []):
            i = rec["i"]
            phi, t = read_field(os.path.join(dirpath, f"snap_{i:03d}_phi.mafl"))
            dot, t_dot = read_field(os.path.join(dirpath, f"snap_{i:03d}_phidot.mafl"))
            if t != rec["t"] or t_dot != rec["t"]:
                raise ConfigError(f"{dirpath}: snapshot {i} is stamped t={t}, t={t_dot}; "
                                  f"meta.json says t={rec['t']}")
            snaps.append(Snapshot(t, phi.values, dot.values, rec["min_eig"]))
        psi = _optional_field(dirpath, "psi_chi.mafl")
        twist = None if psi is None else TwistSpec(meta["c"], psi)
    return Trajectory(grid, meta, times, series, snaps, twist)


def _run_config(dirpath, meta, grid, twist):
    """The FlowConfig of the run saved in dirpath, from its parsed meta.json and grid."""
    with _meta_values(dirpath):
        settings = {f.name: meta[f.name] for f in SETTINGS}
        if twist is None:
            twist = TwistSpec(meta["c"], _optional_field(dirpath, "psi_chi.mafl"))
        return FlowConfig(grid=grid, twist=twist, h=_optional_field(dirpath, "h.mafl"),
                          snapshot_times=tuple(meta["snapshot_times"]), **settings)


def load_run_config(dirpath, twist=None):
    """The FlowConfig of a saved run; ``twist``, when given, spares reading psi_chi.mafl."""
    return _run_config(dirpath, *_read_meta(dirpath), twist)


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
    payload = [r.to_dict() for r in reports]
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
