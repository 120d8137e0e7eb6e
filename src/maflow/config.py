"""Plain-text run configuration (INI key-value, schema version 1).

``SCHEMA`` is the INI schema: {section: {key: (default, cast)}}.  It names
every key an INI may hold (any other section or key is rejected) and reads
each one.  The [initial] scalars of initial.PotentialSpec and the [flow]
run settings flow.SETTINGS (FlowConfig's scalar fields) enter it typed and
defaulted by their dataclass fields; dt_min (<= dt_init) bounds the
policy's step and each halving, never the last step to a snapshot time or T.
[verify] holds checks ("": all) and tol.<check> (that check's tol), read
apart: ``maflow verify RUNDIR`` runs the [verify] checks of
RUNDIR/config_echo.ini (``--checks`` replaces the list) and passes each
tol.<check> to its check as ``tol``.  A check outside verify.CHECK_NAMES,
or a tol.<check> for a check without a ``tol`` parameter, is a
ConfigError.  A listed check whose input is missing (comparison or
oscillation_levels on a one-level run, minodot without ``--restart-dir``)
reports skip.

A boolean is 1/true/yes/on or 0/false/no/off; snapshots, center and delta0
(one value) are floats separated by commas or blanks.  A mode list
(modes, psi_chi_modes, h_modes) is semicolon-separated entries
"k1 k2 ... : amp : phase", 2n integer frequencies, one per real axis, e.g.
"1 0 : 0.05 : 0.0; 0 2 : 0.01 : 1.2" (initial.parse_modes).  Anything else,
a mode without 2n frequencies included, is a ConfigError naming the section
and key; so is a [grid] value TorusGrid rejects, [initial] levels < 1, a
trunc_depth that is not finite and > 0, a ratio outside (0, 1] and a
delta0 outside (0, period] (the approximation levels' construction,
initial.approximation_sequence).  The environment variable
MAFLOW_OUTPUT_ROOT prefixes relative output dirs.
"""

import configparser
import inspect
import math
import os
from dataclasses import dataclass, field as dfield, fields

from . import verify as ver
from .errors import ConfigError, InvalidSpec
from .flow import SETTINGS, FlowConfig, TwistSpec
from .geometry import PotentialField, TorusGrid
from .initial import PotentialSpec, check_modes, mode_sum, parse_modes

SCHEMA_VERSION = 1


def _floats(text):
    """A list of floats separated by commas or blanks: 'a, b c' -> (a, b, c)."""
    return tuple(float(s) for s in text.replace(",", " ").split())


SCHEMA = {   # the INI schema, but [verify]: {section: {key: (default, cast)}}
    "schema": {"version": (SCHEMA_VERSION, int)},
    "grid": {"n": (1, int), "res": (128, int), "period": (1.0, float)},
    "initial": {"kind": ("smooth", str), "modes": ((), parse_modes), "center": ((), _floats),
                "levels": (1, int), "trunc_depth": (1.0, float), "delta0": ((), _floats),
                "ratio": (0.7, float),
                # PotentialSpec's scalars: its fields but the kind and the structured ones
                **{f.name: (f.default, f.type) for f in fields(PotentialSpec)
                   if f.name not in ("kind", "center", "modes")}},
    "flow": {"c": (0.0, float), "psi_chi_modes": ((), parse_modes),
             "h_modes": ((), parse_modes), **{f.name: (f.default, f.type) for f in SETTINGS}},
    "output": {"dir": ("out", str), "snapshots": ((), _floats)},
}


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
        except (ValueError, InvalidSpec) as e:
            raise ConfigError(f"[{section}] {key} = {raw!r}: {e}") from None
    return default


def _mode_list(values, section, key, grid):
    """The mode list read as [section] key, taken out of values and checked against the grid."""
    try:
        return check_modes(values[section].pop(key), grid.n)
    except InvalidSpec as e:
        raise ConfigError(f"[{section}] {key}: {e}") from None


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
        if section not in SCHEMA and section != "verify":
            raise ConfigError(f"unknown section [{section}]")
        for key in cp.options(section):
            if not (key in SCHEMA[section] if section != "verify"
                    else key == "checks" or key.startswith("tol.")):
                raise ConfigError(f"unknown key {key!r} in [{section}]")
    values = {section: {key: _get(cp, section, key, *rule) for key, rule in keys.items()}
              for section, keys in SCHEMA.items()}
    if values["schema"]["version"] != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema version {values['schema']['version']}")
    grid = TorusGrid.checked(**values["grid"], source="[grid]")

    initial, flow = values["initial"], values["flow"]
    if initial["center"] and len(initial["center"]) != 2 * grid.n:
        raise ConfigError(f"center needs {2 * grid.n} coordinates")
    delta0 = initial.pop("delta0")
    if len(delta0) > 1:
        raise ConfigError(f"[initial] delta0 takes one value, got {len(delta0)}")
    setup = {key: initial.pop(key) for key in ("levels", "trunc_depth", "ratio")}
    delta0 = delta0[0] if delta0 else None
    levels, depth, ratio = setup["levels"], setup["trunc_depth"], setup["ratio"]
    for key, value, ok, want in (
            ("levels", levels, levels >= 1, "at least one level"),
            ("trunc_depth", depth, 0.0 < depth < math.inf, "a finite depth > 0"),
            ("ratio", ratio, 0.0 < ratio <= 1.0, "a ratio in (0, 1]"),
            ("delta0", delta0, delta0 is None or 0.0 < delta0 <= grid.period,
             f"a radius in (0, period] = (0, {grid.period:g}]")):
        if not ok:
            raise ConfigError(f"[initial] {key} = {value!r}: need {want}")
    try:
        spec = PotentialSpec(modes=_mode_list(values, "initial", "modes", grid),
                             center=initial.pop("center") or None, **initial)
    except InvalidSpec as e:
        raise ConfigError(f"[initial] {e}") from None

    psi, h = (_mode_list(values, "flow", key, grid) for key in ("psi_chi_modes", "h_modes"))
    twist = TwistSpec(flow.pop("c"), PotentialField(grid, mode_sum(grid, psi)) if psi else None)
    run = FlowConfig(grid=grid, twist=twist,
                     h=PotentialField(grid, mode_sum(grid, h)) if h else None,
                     snapshot_times=values["output"]["snapshots"], **flow)

    # joined to an absolute dir, the root drops out
    outdir = os.path.join(os.environ.get("MAFLOW_OUTPUT_ROOT", ""), values["output"]["dir"])

    checks = _get(cp, "verify", "checks", "", str).replace(",", " ").split()
    tolerances = {key[4:]: _get(cp, "verify", key, None, float)
                  for key in (cp.options("verify") if cp.has_section("verify") else ())
                  if key.startswith("tol.")}
    ver.validate_check_names(checks + list(tolerances))
    for name in tolerances:
        if "tol" not in inspect.signature(getattr(ver, f"verify_{name}")).parameters:
            raise ConfigError(f"[verify] check {name!r} takes no tol")

    return RunSetup(grid=grid, spec=spec, delta0=delta0,
                    flow=run, outdir=outdir, checks=checks, tolerances=tolerances, **setup)
