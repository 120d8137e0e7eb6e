"""Plain-text run configuration (INI key-value, schema version 1).

``SCHEMA`` is the INI schema: {section: {key: (default, cast)}}.  It names
every key an INI may hold (any other section or key is rejected) and reads
each one (``read_config``, which builds nothing; ``load_config`` builds the
run).  The [initial] scalars of initial.PotentialSpec and the [flow] run
settings flow.SETTINGS (FlowConfig's scalar fields) enter it typed and
defaulted by their dataclass fields; dt_min (<= dt_init) bounds the
policy's step and each halving, never the last step to a snapshot time or T.
[verify] holds checks (none: all of them) and a tol.<check> for each check
whose verify_<check> takes a ``tol``: ``maflow verify RUNDIR`` reads them
from RUNDIR/config_echo.ini (``--checks`` replaces the list).  A listed
check whose input is missing (comparison or oscillation_levels on a
one-level run, minodot without ``--restart-dir``) reports skip.

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
from dataclasses import dataclass, fields

from . import verify as ver
from .errors import ConfigError, InvalidSpec
from .flow import SETTINGS, FlowConfig, TwistSpec
from .geometry import PotentialField, TorusGrid
from .initial import PotentialSpec, check_modes, mode_sum, parse_modes

SCHEMA_VERSION = 1


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{value} is not finite")
    return value


def _floats(text):
    """A list of finite floats separated by commas or blanks: 'a, b c' -> (a, b, c)."""
    return tuple(_finite(s) for s in text.replace(",", " ").split())


def check_names(text):
    """Check names separated by commas or blanks, each one of verify.CHECK_NAMES."""
    names = tuple(text.replace(",", " ").split())
    ver.validate_check_names(names)
    return names


SCHEMA = {   # the INI schema: {section: {key: (default, cast)}}
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
    # tol.<check> for each check that takes a tol; None leaves the check's own default
    "verify": {"checks": ((), check_names),
               **{f"tol.{name}": (None, _finite) for name in ver.CHECK_NAMES
                  if "tol" in inspect.signature(getattr(ver, f"verify_{name}")).parameters}},
}


_POLE = ("center", "levels", "trunc_depth", "delta0", "ratio")   # a model pole: center, levels
# the [initial] keys each kind reads; any other is a ConfigError naming it
INITIAL_KEYS = {kind: ("kind", "clip_floor") + keys for kind, keys in (
    ("smooth", ("modes",)), ("from_file", ("path",)), ("lelong", ("gamma",) + _POLE),
    ("bounded_discontinuous", ("gamma", "floor") + _POLE),
    ("zero_lelong_unbounded", ("a", "s0") + _POLE), ("finite_energy", ("a", "s0") + _POLE))}


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


def _get(cp, section, key, default, cast):
    if cp.has_option(section, key):
        raw = cp.get(section, key)
        try:
            if cast is bool:   # 1/true/yes/on or 0/false/no/off, else ValueError
                return cp.getboolean(section, key)
            return cast(raw)
        except (ValueError, InvalidSpec, ConfigError) as e:
            raise ConfigError(f"[{section}] {key} = {raw!r}: {e}") from None
    return default


def _mode_list(values, section, key, grid):
    """The mode list read as [section] key, taken out of values and checked against the grid."""
    try:
        return check_modes(values[section].pop(key), grid.n)
    except InvalidSpec as e:
        raise ConfigError(f"[{section}] {key}: {e}") from None


def read_config(path):
    """{section: {key: value}} of the INI at ``path``, every SCHEMA key cast or defaulted."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    cp.optionxform = str   # keys are case-sensitive (T vs t)
    try:
        cp.read(path)
    except configparser.Error as e:
        raise ConfigError(str(e)) from None
    kind = cp.get("initial", "kind", fallback=SCHEMA["initial"]["kind"][0])
    for section in cp.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp.options(section):
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            if section == "initial" and key not in INITIAL_KEYS.get(kind, (key,)):
                raise ConfigError(f"[initial] {key}: kind {kind!r} never reads it")
    return {section: {key: _get(cp, section, key, *rule) for key, rule in keys.items()}
            for section, keys in SCHEMA.items()}


def load_config(path):
    values = read_config(path)
    if values["schema"]["version"] != SCHEMA_VERSION:
        raise ConfigError(f"[schema] version = {values['schema']['version']!r}: "
                          f"need {SCHEMA_VERSION}")
    grid = TorusGrid.checked(**values["grid"], source="[grid]")

    initial, flow = values["initial"], values["flow"]
    if initial["center"] and len(initial["center"]) != 2 * grid.n:
        raise ConfigError(f"[initial] center needs {2 * grid.n} coordinates")
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
    try:
        run = FlowConfig(grid=grid, twist=twist,
                         h=PotentialField(grid, mode_sum(grid, h)) if h else None,
                         snapshot_times=values["output"]["snapshots"], **flow)
    except ConfigError as e:
        raise ConfigError(f"[flow] {e}") from None
    outside = [s for s in run.snapshot_times if not 0.0 < s <= run.T]
    if outside:
        raise ConfigError(f"[output] snapshots: {outside[0]!r} lies outside (0, T] of "
                          f"[flow] T = {run.T!r}")

    # joined to an absolute dir, the root drops out
    outdir = os.path.join(os.environ.get("MAFLOW_OUTPUT_ROOT", ""), values["output"]["dir"])
    return RunSetup(grid=grid, spec=spec, delta0=delta0, flow=run, outdir=outdir, **setup)
