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
    """Returns (PotentialField, t); a missing file is a ConfigError naming it."""
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
        grid = TorusGrid(n, res, period)
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
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if not rows:
        raise ConfigError(f"{path}: no series rows")
    data = np.array([[float(x) for x in row] for row in rows])
    series = {name: data[:, i] for i, name in enumerate(header)}
    return series["t"], series


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


def _read_meta(dirpath):
    """The meta.json of a saved trajectory; ConfigError where there is none."""
    try:
        with open(os.path.join(dirpath, "meta.json")) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{dirpath}: no saved trajectory (no meta.json)") from None


def load_trajectory(dirpath):
    """A saved trajectory; it carries its twist when psi_chi.mafl was saved."""
    meta = _read_meta(dirpath)
    grid = TorusGrid(meta["n"], meta["res"], meta["period"])
    times, series = read_series_csv(os.path.join(dirpath, "series.csv"))
    snaps = []
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


def load_run_config(dirpath, twist=None):
    """Rebuild the FlowConfig of a saved run (for restarts and verifiers).

    ``twist`` is the run's twist when already loaded (a loaded trajectory's),
    so psi_chi.mafl is not read again; by default it is rebuilt from dirpath.
    """
    meta = _read_meta(dirpath)
    try:
        settings = {f.name: meta[f.name] for f in SETTINGS}
        grid = TorusGrid(meta["n"], meta["res"], meta["period"])
        c, snapshot_times = meta["c"], tuple(meta["snapshot_times"])
    except KeyError as e:
        raise ConfigError(f"{dirpath}: meta.json lacks {e.args[0]!r}") from None
    if twist is None:
        twist = TwistSpec(c, _optional_field(dirpath, "psi_chi.mafl"))
    return FlowConfig(grid=grid, twist=twist, h=_optional_field(dirpath, "h.mafl"),
                      snapshot_times=snapshot_times, **settings)


def write_verdicts(path, reports):
    payload = [r.to_dict() for r in reports]
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)


def level_dirs(rundir):
    if not os.path.isdir(rundir):
        raise ConfigError(f"{rundir}: no such run directory")
    out = sorted(d for d in os.listdir(rundir) if d.startswith("level_"))
    return [os.path.join(rundir, d) for d in out]
