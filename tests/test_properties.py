"""Property tests on generated inputs: the one time loop (``flow._march``)
and boundary landing (``flow._advance``) under every dt policy, at any
boundary spacing, the raw metric algebra of ``geometry``, the discrete
volume identity, the comparison principle and constant-shift equivariance,
bit-exact MAFL round trips, the run settings' round trips through the INI
and ``meta.json``, and the worst-slack scan of a whole series
(``verify._worst``) against a row-by-row scan.

Hypothesis runs derandomized and without an example database, so the
suite stays deterministic; files go to temporary directories only.
"""

import os
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import maflow as mf
from maflow import geometry as geo
from maflow import io as mio
from maflow.config import load_config
from maflow import verify as ver
from maflow.verify import verify_comparison
from maflow.flow import (SETTINGS, FlowConfig, Trajectory, TwistSpec, _Stepper, continue_run,
                         run)
from maflow.functionals import SERIES_COLUMNS
from maflow.geometry import PotentialField
from maflow.initial import cos_mode
from maflow.logdiff import evolve_density, potential_to_density

GRID = mf.TorusGrid(1, 16)
T = 0.02
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=25)


def start(a1, a2):
    return PotentialField(GRID, cos_mode(GRID, (1, 0), a1) + cos_mode(GRID, (0, 1), a2, 0.4))


def snapshot_sets(ticks):
    # snapshot times k T / ticks, off the step grids below; distinct ticks
    # keep them further apart than dt_min
    return st.sets(st.integers(1, ticks - 1), min_size=1, max_size=4).map(
        lambda ks: tuple(T * k / ticks for k in ks))


amplitudes = st.floats(-0.03, 0.03)


@PROPERTY
@given(policy=st.sampled_from(["rk4", "semi_implicit"]), snaps=snapshot_sets(23),
       record_every=st.integers(1, 6), a1=amplitudes, a2=amplitudes,
       pick=st.integers(0, 3))
def test_restart_from_interior_snapshot_is_exact(policy, snaps, record_every, a1, a2, pick):
    cfg = FlowConfig(grid=GRID, T=T, dt_policy=policy, dt_init=1e-3,
                     snapshot_times=snaps, record_every=record_every)
    orig = run(start(a1, a2), cfg)
    i = 1 + pick % len(snaps)            # an interior snapshot
    t0 = orig.snapshots[i].t
    tail = continue_run(orig, t0, cfg)
    later = orig.times > t0
    at = np.flatnonzero(orig.times == t0)[0]
    assert np.array_equal(tail.times[1:], orig.times[later])
    for k in SERIES_COLUMNS:
        assert np.array_equal(tail.series[k][1:], orig.series[k][later]), k
        if k != "dt":                    # the restart's first row has dt = 0
            assert tail.series[k][0] == orig.series[k][at], k
    assert len(tail.snapshots) == len(orig.snapshots) - i
    for a, b in zip(orig.snapshots[i:], tail.snapshots):
        assert a.t == b.t and a.min_eig == b.min_eig
        assert np.array_equal(a.phi, b.phi) and np.array_equal(a.phi_dot, b.phi_dot)


@PROPERTY
@given(snaps=snapshot_sets(37), record_every=st.integers(1, 8),
       dt_init=st.sampled_from([7e-4, 1e-3, 1.3e-3]), a1=amplitudes, a2=amplitudes)
def test_both_forms_share_the_cadence(snaps, record_every, dt_init, a1, a2):
    phi0 = start(a1, a2)
    kw = dict(dt_policy="semi_implicit", dt_init=dt_init, snapshot_times=snaps,
              record_every=record_every)
    tr = run(phi0, FlowConfig(grid=GRID, T=T, **kw))
    trd = evolve_density(potential_to_density(phi0), T, **kw)
    assert np.array_equal(tr.column("t"), trd.column("t"))
    assert np.array_equal(tr.column("dt"), trd.column("dt"))
    assert tr.snapshot_times == trd.snapshot_times == [0.0, *sorted(snaps), T]


# dt_init below the CFL step of every start() (min_eig >= 1 - 0.06 pi^2), so
# the step ends before a boundary are the multiples of dt_init
REMAINDER_DT = 2.5e-4
REMAINDER_T = 20 * REMAINDER_DT
FORMS = [("potential", "rk4"), ("potential", "rk4_fixed"), ("potential", "semi_implicit"),
         ("density", "rk4"), ("density", "semi_implicit")]


def run_form(form, phi0, **kw):
    """A run of phi0 to REMAINDER_T in the flow form and dt policy of ``form``."""
    kw = dict(dt_policy=form[1], dt_init=REMAINDER_DT, record_every=1, **kw)
    if form[0] == "potential":
        return run(phi0, FlowConfig(grid=GRID, T=REMAINDER_T, **kw))
    return evolve_density(potential_to_density(phi0), REMAINDER_T, **kw)


@PROPERTY
@given(form=st.sampled_from(FORMS), k=st.integers(1, 18), dt_min=st.floats(1e-11, 1e-9),
       frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       a1=amplitudes, a2=amplitudes)
def test_boundary_a_remainder_past_a_step_end_is_landed(form, k, dt_min, frac, a1, a2):
    # the last step to the snapshot, r in (1e-12, dt_min), is shorter than dt_min
    snap = k * REMAINDER_DT + (1e-12 + frac * (dt_min - 1e-12))
    tr = run_form(form, start(a1, a2), dt_min=dt_min, snapshot_times=(snap,))
    assert tr.snapshot_times == [0.0, snap, REMAINDER_T]
    assert tr.times[-1] == REMAINDER_T
    if form[0] == "potential":   # the landed phi_dot is the right-hand side at the boundary
        stepper = _Stepper(FlowConfig(grid=GRID, T=REMAINDER_T))
        for s in tr.snapshots[1:]:
            fresh = stepper.parts(s.t, PotentialField(GRID, s.phi))[0]
            assert np.array_equal(s.phi_dot, fresh)


def within_dt_min(dt_min, frac):
    """A gap in (1e-13, dt_min)."""
    return 1e-13 + frac * (dt_min - 1e-13)


@PROPERTY
@given(form=st.sampled_from(FORMS), k=st.integers(1, 21), dt_min=st.floats(1e-11, 1e-9),
       frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       a1=amplitudes, a2=amplitudes)
def test_snapshot_times_closer_than_dt_min_are_landed(form, k, dt_min, frac, a1, a2):
    snaps = (REMAINDER_T * k / 23, REMAINDER_T * k / 23 + within_dt_min(dt_min, frac))
    tr = run_form(form, start(a1, a2), dt_min=dt_min, snapshot_times=snaps)
    assert tr.snapshot_times == [0.0, *snaps, REMAINDER_T]
    assert tr.times[-1] == REMAINDER_T


@PROPERTY
@given(form=st.sampled_from(FORMS), k=st.integers(1, 21), dt_min=st.floats(1e-11, 1e-9),
       frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       a1=amplitudes, a2=amplitudes)
def test_first_boundary_within_dt_min_of_t0_is_landed(form, k, dt_min, frac, a1, a2):
    # a restart from the snapshot t0 (the density form: a run from 0) whose
    # first snapshot time lies less than dt_min after t0
    t0 = REMAINDER_T * k / 23 if form[0] == "potential" else 0.0
    first = t0 + within_dt_min(dt_min, frac)
    if form[0] == "potential":
        cfg = FlowConfig(grid=GRID, T=REMAINDER_T, dt_policy=form[1], dt_init=REMAINDER_DT,
                         dt_min=dt_min, record_every=1, snapshot_times=(t0,))
        tr = continue_run(run(start(a1, a2), cfg), t0, cfg.replace(snapshot_times=(first,)))
    else:
        tr = run_form(form, start(a1, a2), dt_min=dt_min, snapshot_times=(first,))
    assert tr.snapshot_times == [t0, first, REMAINDER_T]
    assert tr.times[-1] == REMAINDER_T


# -- the raw metric algebra against numpy.linalg ---------------------------

ALGEBRA_GRIDS = {1: mf.TorusGrid(1, 8), 2: mf.TorusGrid(2, 8)}


def hermitian_field(rng, n, shape, lam_min, lam_max):
    """Hermitian matrices U diag(lam) U^* per point, lam drawn in [lam_min, lam_max]."""
    lam = rng.uniform(lam_min, lam_max, shape + (n,))
    z = rng.standard_normal(shape + (n, n)) + 1j * rng.standard_normal(shape + (n, n))
    u, _ = np.linalg.qr(z)
    return np.einsum("...jk,...k,...lk->...jl", u, lam, u.conj())


def raw_from_matrix(grid, values):
    """The raw layout of a (..., n, n) Hermitian field: its upper triangle."""
    if grid.n == 1:
        return values[..., 0, 0].real
    m12 = values[..., 0, 1]
    return values[..., 0, 0].real, values[..., 1, 1].real, m12.real, m12.imag


@PROPERTY
@given(n=st.sampled_from([1, 2]), seed=st.integers(0, 2 ** 32 - 1),
       lam_min=st.floats(1e-3, 1.0), spread=st.floats(1.0, 1e3))
def test_raw_algebra_matches_numpy_linalg(n, seed, lam_min, spread):
    grid = ALGEBRA_GRIDS[n]
    rng = np.random.default_rng(seed)
    lam_max = lam_min * spread
    mat = hermitian_field(rng, n, grid.shape, lam_min, lam_max)
    hmat = hermitian_field(rng, n, grid.shape, -1.0, 1.0)
    m, h = raw_from_matrix(grid, mat), raw_from_matrix(grid, hmat)
    eps = 1e-12

    det = geo.det_raw(grid, m)
    assert np.abs(det - np.linalg.det(mat).real).max() <= eps * lam_max ** n
    emin = geo.eigmin_raw(grid, m)
    assert np.abs(emin - np.linalg.eigvalsh(mat)[..., 0]).max() <= eps * lam_max
    inv = geo.inverse_raw(grid, m, det)
    want = raw_from_matrix(grid, np.linalg.inv(mat))
    for got, ref in zip((inv,) if n == 1 else inv, (want,) if n == 1 else want):
        assert np.abs(got - ref).max() <= eps * spread / lam_min
    # tr_M(H) as the (..., n, n) einsum
    tr = np.einsum("...jk,...kj->...", np.linalg.inv(mat), hmat).real
    assert np.abs(geo.contract_raw(grid, inv, h) - tr).max() <= eps * n * spread / lam_min


# -- the discrete volume identity ------------------------------------------

VOLUME_GRIDS = {1: mf.TorusGrid(1, 16), 2: mf.TorusGrid(2, 8)}


def bandlimited(grid, draw_modes, bound):
    """sum of cos modes, scaled so every eigenvalue of H has |.| <= bound.

    Frequencies reach the Nyquist index and beyond (grid aliases of lower
    ones); the bound from |k| covers the aliases, whose |k| is smaller.
    """
    vals, weight = np.zeros(grid.shape), 0.0
    for k, amp, phase in draw_modes:
        k = tuple(k[: 2 * grid.n])
        vals += cos_mode(grid, k, amp, phase)
        # a mode's Hessian has rank one and eigenvalue -amp cos(.) pi^2 |k|^2 / L^2
        weight += abs(amp) * np.pi ** 2 * sum(q * q for q in k) / grid.period ** 2
    return PotentialField(grid, vals * (bound / weight if weight > bound else 1.0))


mode_lists = st.lists(
    st.tuples(st.lists(st.integers(-8, 8), min_size=4, max_size=4),
              st.floats(-1.0, 1.0), st.floats(0.0, 6.3)),
    min_size=1, max_size=5)


@PROPERTY
@given(n=st.sampled_from([1, 2]), phi_modes=mode_lists, psi_modes=mode_lists,
       with_psi=st.booleans(), c=st.floats(-0.5, 0.5), t=st.floats(0.0, 0.5))
def test_volume_identity_inside_the_cone(n, phi_modes, psi_modes, with_psi, c, t):
    # |H(phi)|, |H(psi_chi)| <= 0.4 and |t c| <= 0.25 keep theta_t + dd^c phi >= 0.15
    grid = VOLUME_GRIDS[n]
    phi = bandlimited(grid, phi_modes, 0.4)
    twist = TwistSpec(c, bandlimited(grid, psi_modes, 0.4) if with_psi else None)
    vol = geo.integrate(mf.ma_ratio(phi, twist, t), grid)
    assert abs(vol - (1.0 + t * c) ** n * grid.volume) <= 1e-13 * grid.volume


# -- the comparison principle and constant-shift equivariance --------------

ORDER_T = 0.01


def runs_from(policy, phi0, offset):
    """Runs under ``policy`` from phi0 and from phi0 + offset (an array or a constant)."""
    cfg = FlowConfig(grid=phi0.grid, T=ORDER_T, dt_policy=policy, dt_init=1e-3,
                     snapshot_times=(ORDER_T / 2,))
    return run(phi0, cfg), run(PotentialField(phi0.grid, phi0.values + offset), cfg)


# |H(phi0)|, |H(gap)| <= 0.3 keep both runs' metrics above 0.4
@PROPERTY
@given(policy=st.sampled_from(["rk4", "semi_implicit"]), n=st.sampled_from([1, 2]),
       phi_modes=mode_lists, gap_modes=mode_lists, gap=st.floats(0.0, 0.1))
def test_comparison_principle(policy, n, phi_modes, gap_modes, gap):
    grid = VOLUME_GRIDS[n]
    bump = bandlimited(grid, gap_modes, 0.3).values
    lo, hi = runs_from(policy, bandlimited(grid, phi_modes, 0.3), bump - bump.min() + gap)
    assert verify_comparison(lo, hi).status == "pass"


@PROPERTY
@given(policy=st.sampled_from(["rk4", "semi_implicit"]), n=st.sampled_from([1, 2]),
       phi_modes=mode_lists, shift=st.floats(-5.0, 5.0))
def test_constant_shift_equivariance(policy, n, phi_modes, shift):
    lo, hi = runs_from(policy, bandlimited(VOLUME_GRIDS[n], phi_modes, 0.3), shift)
    for a, b in zip(lo.snapshots, hi.snapshots):
        assert a.t == b.t
        assert np.abs(b.phi - a.phi - shift).max() <= 1e-10 * max(1.0, abs(shift))


# -- bit-exact MAFL round trips --------------------------------------------

def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


finite_or_special = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225e-308, -1e-310, 1e300, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False))


@PROPERTY
@given(n=st.sampled_from([1, 2]), period=st.floats(1e-3, 1e3),
       t=st.floats(allow_nan=False), data=st.data())
def test_mafl_round_trip_is_bit_exact(n, period, t, data):
    grid = mf.TorusGrid(n, 8, period)
    values = data.draw(arrays(np.float64, grid.shape, elements=finite_or_special))
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "f.mafl")
        mio.write_field(path, PotentialField(grid, values), t)
        back, t_back = mio.read_field(path)
    assert back.grid == grid and bits(back.grid.period) == bits(period)
    assert bits(t_back) == bits(t)
    assert np.array_equal(bits(back.values), bits(values))


# -- every run setting survives the INI and meta.json ----------------------

# off-default values of the str settings; a new str setting needs an entry
OFF_DEFAULT_STR = {"variant": ["ncmaf"], "dt_policy": ["rk4_fixed", "semi_implicit"]}


def off_default(f):
    """Values of the setting ``f`` off its default, drawn by its type."""
    if f.type is bool:
        return st.just(not f.default)
    if f.type is int:
        return st.integers(f.default + 1, f.default + 100)
    if f.type is float:
        # a factor in [1/4, 1) keeps every positive setting positive, safety in (0, 1)
        return st.floats(0.25, 0.99).map(lambda x: f.default * x if f.default else x)
    return st.sampled_from(OFF_DEFAULT_STR[f.name])


def ini_text(value):
    return str(value).lower() if isinstance(value, bool) else repr(value) \
        if isinstance(value, float) else str(value)


def assert_settings(cfg, values):
    for f in SETTINGS:
        got = getattr(cfg, f.name)
        assert type(got) is f.type and got == values[f.name], f.name


@PROPERTY
@given(values=st.fixed_dictionaries({f.name: off_default(f) for f in SETTINGS}))
def test_every_setting_survives_the_ini_and_meta_json(values):
    with tempfile.TemporaryDirectory() as d:
        ini = os.path.join(d, "run.ini")
        with open(ini, "w") as fh:
            fh.write("[grid]\nres = 16\n[flow]\n"
                     + "".join(f"{k} = {ini_text(v)}\n" for k, v in values.items()))
        cfg = load_config(ini).flow
        assert_settings(cfg, values)
        one_row = {k: np.zeros(1) for k in SERIES_COLUMNS}
        traj = Trajectory(cfg.grid, {**cfg.meta(), "t0": 0.0}, one_row, [])
        mio.save_run(traj, os.path.join(d, "run"), cfg)
        assert_settings(mio.load_run_config(os.path.join(d, "run")), values)


def row_scan(ts, margin):
    """(min, location) of ``margin`` by one row and one value at a time: the first NaN,
    else the first least value, located at (t of its row,) + its index in the row."""
    slack, loc = np.inf, ()
    for t, row in zip(ts, margin):
        for index in np.ndindex(row.shape):
            v = float(row[index])
            if np.isnan(v):
                return v, (t,) + index
            if v < slack:
                slack, loc = v, (t,) + index
    return slack, loc


special = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -1.0, 1.0])


@settings(PROPERTY, max_examples=300)
@given(margin=st.integers(1, 3).flatmap(lambda d: arrays(
    np.float64, st.tuples(st.integers(1, 12), *[st.integers(1, 3)] * (d - 1)),
    elements=st.one_of(special, st.floats(-2.0, 2.0)))))
def test_worst_over_a_series_is_the_row_scan(margin):
    # one (times, margin) pair: its times label the margin's first axis
    ts = 0.25 * np.arange(1, len(margin) + 1)
    slack, loc = ver._worst([(ts, margin)])
    want, want_loc = row_scan(ts, margin)
    assert (slack == want or np.isnan(slack) and np.isnan(want)) and loc == want_loc
