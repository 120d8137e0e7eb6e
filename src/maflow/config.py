"""Plain-text run configuration (INI key-value, schema version 1).

Sections and keys (defaults in parentheses; unknown sections or keys are
rejected):

  [schema]   version (1)
  [grid]     n (1) | res (128) | period (1.0)
  [initial]  kind (smooth) | modes ("") | center ("") | levels (1) |
             trunc_depth (1.0) | delta0 ("") | ratio (0.7), and the
             scalar fields of initial.PotentialSpec (gamma, a, floor, s0,
             path, clip_floor), typed and defaulted by the dataclass
  [flow]     c (0.0) | psi_chi_modes ("") | h_modes (""), and the run
             settings flow.SETTINGS, FlowConfig's scalar fields (variant,
             T, dt_policy, dt_init, dt_min, safety, record_every, dealias,
             stab_factor), typed and defaulted by the dataclass; dt_min
             (<= dt_init) bounds the policy's step and each halving, never
             the last step to a snapshot time or T
  [output]   dir (out) | snapshots ("")
  [verify]   checks ("": all) | tol.<check> (that check's tol)

``maflow verify RUNDIR`` runs the [verify] checks of RUNDIR/config_echo.ini
(``--checks`` replaces the list) and passes each tol.<check> to its check
as ``tol``.  A check outside verify.CHECK_NAMES, or a tol.<check> for a
check without a ``tol`` parameter, is a ConfigError.  A listed check whose
input is missing (comparison or oscillation_levels on a one-level run,
minodot without ``--restart-dir``) reports skip.

A boolean is 1/true/yes/on or 0/false/no/off; snapshots, center and delta0
(one value) are floats separated by commas or blanks.  Anything else is a
ConfigError naming the section and key.

A mode list is semicolon-separated entries "k1 k2 ... : amp : phase", one
integer frequency per real axis, e.g. "1 0 : 0.05 : 0.0; 0 2 : 0.01 : 1.2".
The environment variable MAFLOW_OUTPUT_ROOT prefixes relative output dirs.
"""

import configparser
import inspect
import os
from dataclasses import dataclass, field as dfield, fields

import numpy as np

from . import verify as ver
from .errors import ConfigError
from .flow import SETTINGS, FlowConfig, TwistSpec
from .geometry import PotentialField, TorusGrid
from .initial import PotentialSpec, cos_mode

SCHEMA_VERSION = 1

# PotentialSpec's scalars: its fields but the kind and the structured ones
_SPEC_SCALARS = tuple(f for f in fields(PotentialSpec)
                      if f.name not in ("kind", "center", "modes"))

_KNOWN = {
    "schema": {"version"},
    "grid": {"n", "res", "period"},
    "initial": {"kind", "modes", "center", "levels", "trunc_depth", "delta0",
                "ratio", *(f.name for f in _SPEC_SCALARS)},
    "flow": {"c", "psi_chi_modes", "h_modes", *(f.name for f in SETTINGS)},
    "output": {"dir", "snapshots"},
    "verify": set(),   # checks + tol.<name> keys, validated separately
}


def parse_modes(text):
    """'k1 k2 : amp : phase; ...' -> [(kvec, amp, phase), ...]"""
    out = []
    for entry in text.split(";"):
        entry = entry.strip()
        if not entry:
            continue
        parts = [p.strip() for p in entry.split(":")]
        if len(parts) not in (2, 3):
            raise ConfigError(f"bad mode entry {entry!r}")
        kvec = tuple(int(k) for k in parts[0].split())
        amp = float(parts[1])
        phase = float(parts[2]) if len(parts) == 3 else 0.0
        out.append((kvec, amp, phase))
    return out


def _mode_field(grid, text):
    modes = parse_modes(text)
    if not modes:
        return None
    vals = np.zeros(grid.shape)
    for kvec, amp, phase in modes:
        if len(kvec) != 2 * grid.n:
            raise ConfigError(f"mode {kvec} has {len(kvec)} entries, "
                              f"need {2 * grid.n}")
        vals += cos_mode(grid, kvec, amp, phase)
    return PotentialField(grid, vals)


@dataclass
class RunSetup:
    grid: TorusGrid
    spec: PotentialSpec
    levels: int
    trunc_depth: float
    delta0: float
    ratio: float
    flow: FlowConfig
    outdir: str
    checks: list = dfield(default_factory=list)
    tolerances: dict = dfield(default_factory=dict)


def _get(cp, section, key, default, cast):
    if cp.has_option(section, key):
        raw = cp.get(section, key)
        try:
            if cast is bool:   # 1/true/yes/on or 0/false/no/off, else ValueError
                return cp.getboolean(section, key)
            return cast(raw)
        except ValueError as e:
            raise ConfigError(f"[{section}] {key} = {raw!r}: {e}") from None
    return default


def _floats(text):
    """A list of floats separated by commas or blanks: 'a, b c' -> (a, b, c)."""
    return tuple(float(s) for s in text.replace(",", " ").split())


def _read_fields(cp, section, dataclass_fields):
    """{name: value} of the fields in [section], each typed and defaulted by its field."""
    return {f.name: _get(cp, section, f.name, f.default, f.type) for f in dataclass_fields}


def load_config(path):
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    cp.optionxform = str   # keys are case-sensitive (T vs t)
    try:
        cp.read(path)
    except configparser.Error as e:
        raise ConfigError(str(e)) from None
    for section in cp.sections():
        if section not in _KNOWN:
            raise ConfigError(f"unknown section [{section}]")
        if section == "verify":
            for key in cp.options(section):
                if key != "checks" and not key.startswith("tol."):
                    raise ConfigError(f"unknown key {key!r} in [verify]")
        else:
            for key in cp.options(section):
                if key not in _KNOWN[section]:
                    raise ConfigError(f"unknown key {key!r} in [{section}]")
    version = _get(cp, "schema", "version", SCHEMA_VERSION, int)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema version {version}")

    try:
        grid = TorusGrid(_get(cp, "grid", "n", 1, int),
                         _get(cp, "grid", "res", 128, int),
                         _get(cp, "grid", "period", 1.0, float))
    except ValueError as e:
        raise ConfigError(f"[grid] {e}") from None

    kind = _get(cp, "initial", "kind", "smooth", str)
    center = _get(cp, "initial", "center", (), _floats) or None
    if center is not None and len(center) != 2 * grid.n:
        raise ConfigError(f"center needs {2 * grid.n} coordinates")
    spec = PotentialSpec(kind=kind, center=center,
                         modes=parse_modes(_get(cp, "initial", "modes", "", str)),
                         **_read_fields(cp, "initial", _SPEC_SCALARS))

    snapshots = _get(cp, "output", "snapshots", (), _floats)
    flow = FlowConfig(
        grid=grid,
        twist=TwistSpec(_get(cp, "flow", "c", 0.0, float),
                        _mode_field(grid, _get(cp, "flow", "psi_chi_modes", "", str))),
        h=_mode_field(grid, _get(cp, "flow", "h_modes", "", str)),
        snapshot_times=snapshots, **_read_fields(cp, "flow", SETTINGS))

    outdir = _get(cp, "output", "dir", "out", str)
    root = os.environ.get("MAFLOW_OUTPUT_ROOT", "")
    if root and not os.path.isabs(outdir):
        outdir = os.path.join(root, outdir)

    checks = _get(cp, "verify", "checks", "", str).replace(",", " ").split()
    tolerances = {key[4:]: _get(cp, "verify", key, None, float)
                  for key in (cp.options("verify") if cp.has_section("verify") else ())
                  if key.startswith("tol.")}
    ver.validate_check_names(checks + list(tolerances))
    for name in tolerances:
        if "tol" not in inspect.signature(getattr(ver, f"verify_{name}")).parameters:
            raise ConfigError(f"[verify] check {name!r} takes no tol")

    delta0 = _get(cp, "initial", "delta0", (), _floats)
    if len(delta0) > 1:
        raise ConfigError(f"[initial] delta0 takes one value, got {len(delta0)}")
    return RunSetup(
        grid=grid, spec=spec,
        levels=_get(cp, "initial", "levels", 1, int),
        trunc_depth=_get(cp, "initial", "trunc_depth", 1.0, float),
        delta0=delta0[0] if delta0 else None,
        ratio=_get(cp, "initial", "ratio", 0.7, float),
        flow=flow, outdir=outdir, checks=checks, tolerances=tolerances)
