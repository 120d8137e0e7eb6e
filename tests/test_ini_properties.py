"""Property test of the INI boundary: one corruption of a valid small INI (an
n = 1 res 16 period 2 lelong run of 3 levels to T = 0.002), drawn from a
``config.SCHEMA`` key set to one value of "", "x", -1, 0, 3, 1.5, 1e308,
nan and inf, an unknown key or a malformed mode entry, makes ``maflow run``
exit 2 with one stderr line that names the section and the key, or, for a
value README lists as accepted (``ACCEPTED``), exit 0 or 3.  An exception
out of ``main`` (exit 1) fails the test, and so does a warning, which the
command line would print as a further stderr line.  ``T`` = 1e308 is left
out: it runs as asked.

Hypothesis runs derandomized and without an example database, as in
``test_properties.py``; every example runs in a fresh output directory.
"""

import contextlib
import io
import math
import os
import re
import tempfile
import warnings
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from maflow.cli import main
from maflow.config import SCHEMA
from maflow.verify import CHECK_NAMES

SWEEP = settings(derandomize=True, database=None, deadline=None, max_examples=400)

BASE = {"grid": {"n": "1", "res": "16", "period": "2"},
        "initial": {"kind": "lelong", "gamma": "1", "levels": "3"},
        "flow": {"T": "0.002"},
        "output": {"dir": "run", "snapshots": "0.001, 0.002"}}
VALUES = ("", "x", "-1", "0", "3", "1.5", "1e308", "nan", "inf")
BAD_MODES = ("1 0 : x", "1 : 0.01", "a 0 : 0.01", "1 0 0.01", "1 0 : 0.01 : 0 : 1")


def number(accept, cast=float):
    """The values ``cast`` reads and ``accept`` takes."""
    def check(text):
        try:
            return accept(cast(text))
        except ValueError:
            return False
    return check


def floats(accept, counts):
    """A comma- or blank-separated list of floats, of a length in ``counts``, each taken by
    ``accept``."""
    return number(lambda vs: len(vs) in counts and all(accept(v) for v in vs),
                  lambda text: [float(s) for s in text.replace(",", " ").split()])


never = number(lambda v: False)   # a key the lelong kind never reads, or no sweep value fits
finite = math.isfinite
T = float(BASE["flow"]["T"])

# The sweep values README lists as accepted on BASE, by the bounds it states
# for each key; every other value must exit 2 naming its section and key.
ACCEPTED = {
    ("schema", "version"): number(lambda v: v == 1, int),
    ("grid", "n"): number(lambda v: v in (1, 2), int),
    ("grid", "res"): number(lambda v: v >= 8 and v & (v - 1) == 0, int),
    ("grid", "period"): number(lambda v: 0.0 < v < 1e154),   # period^(2n) a finite float
    ("initial", "kind"): lambda text: text == "lelong",
    ("initial", "center"): floats(finite, (0, 2)),   # none: the default center
    ("initial", "levels"): number(lambda v: v >= 1, int),
    ("initial", "trunc_depth"): number(lambda v: 0.0 < v < math.inf),
    ("initial", "delta0"): floats(lambda v: 0.0 < v <= 2.0, (0, 1)),
    ("initial", "ratio"): number(lambda v: 0.0 < v <= 1.0),
    # the sampled pole stays omega-psh at grid scale up to a mass the period sets
    ("initial", "gamma"): number(lambda v: 0.0 <= v <= 1.5),
    # below the pole's sup, -0.27 gamma at period 2
    ("initial", "clip_floor"): number(lambda v: -math.inf < v <= -1.0),
    # T < T_max = 1/|c| and |T c| <= 1/2
    ("flow", "c"): number(lambda v: abs(v) * T <= 0.5),
    ("flow", "psi_chi_modes"): lambda text: text == "",
    ("flow", "h_modes"): lambda text: text == "",
    ("flow", "variant"): lambda text: text in ("cmaf", "ncmaf"),
    ("flow", "T"): number(lambda v: T <= v < math.inf),   # every snapshot in (0, T]
    ("flow", "dt_policy"): lambda text: text in ("rk4", "rk4_fixed", "semi_implicit"),
    ("flow", "dt_init"): number(lambda v: 1e-12 <= v < math.inf),
    ("flow", "dt_min"): number(lambda v: 0.0 < v <= 1e-2),
    ("flow", "safety"): number(lambda v: 0.0 < v < 1.0),
    ("flow", "record_every"): number(lambda v: v >= 1, int),
    ("flow", "dealias"): lambda text: text.lower() in ("0", "1", "true", "false", "yes",
                                                       "no", "on", "off"),
    # read by semi_implicit only; under rk4 any finite value >= 0 (README)
    ("flow", "stab_factor"): number(lambda v: 0.0 <= v < math.inf),
    ("output", "dir"): lambda text: True,
    ("output", "snapshots"): floats(lambda v: 0.0 < v <= T, range(3)),
    ("verify", "checks"): lambda text: all(
        name in CHECK_NAMES for name in text.replace(",", " ").split()),
}
ACCEPTED.update({("verify", key): number(finite)
                 for key in SCHEMA["verify"] if key.startswith("tol.")})

KEYS = [(section, key) for section, keys in SCHEMA.items() for key in keys]
corruptions = st.one_of(
    st.tuples(st.sampled_from(KEYS), st.sampled_from(VALUES)).filter(
        lambda c: c != (("flow", "T"), "1e308")),
    st.tuples(st.tuples(st.sampled_from(sorted(SCHEMA)), st.sampled_from(["spacing", "Gamma"])),
              st.just("1")),
    st.tuples(st.tuples(st.just("flow"), st.sampled_from(["psi_chi_modes", "h_modes"])),
              st.sampled_from(BAD_MODES)),
)


def run_ini(ini):
    """``maflow run`` of the INI text in a fresh directory: (exit code, stderr lines)."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {"MAFLOW_OUTPUT_ROOT": tmp}), \
            warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        path = os.path.join(tmp, "run.ini")
        with open(path, "w") as fh:
            fh.write(ini)
        code = main(["run", path, "--workers", "1"])
    return code, err.getvalue().splitlines() + [str(w.message) for w in caught]


@SWEEP
@given(corruption=corruptions)
@example(corruption=(("output", "snapshots"), "3"))   # dropped before, at exit 0
@example(corruption=(("initial", "a"), "1.5"))        # read by no lelong run, at exit 0
@example(corruption=(("grid", "n"), "3"))             # named no key before
def test_one_corruption_is_named_or_accepted(corruption):
    (section, key), value = corruption
    values = {s: dict(kv) for s, kv in BASE.items()}
    values.setdefault(section, {})[key] = value
    code, lines = run_ini("".join(f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
                                  for s, kv in values.items()))
    if ACCEPTED.get((section, key), never)(value):
        assert code in (0, 3), (corruption, code, lines)
        return
    assert code == 2, (corruption, code, lines)
    assert len(lines) == 1, (corruption, lines)
    assert f"[{section}]" in lines[0], (corruption, lines)
    assert re.search(rf"(?<![\w.]){re.escape(key)}(?!\w)", lines[0]), (corruption, lines)
