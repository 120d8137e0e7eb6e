"""Spectral calculus on flat complex tori.

Fields live on a uniform periodic grid over the real coordinates
(x_1, y_1, ..., x_n, y_n) of X = C^n / (period * Z^(2n)).  All derivatives
are discrete Fourier derivatives, hence exact (to round-off) for
band-limited data.

Conventions, fixed once and used by every module:

* d/dz = (d/dx - i d/dy)/2, so the complex Hessian is
  H(phi)[j, k] = d^2 phi / dz_j dzbar_k and for n = 1 it equals Delta/4.
* The reference form omega has matrix I in these coordinates, theta_t =
  omega + t(c omega + dd^c psi_chi) has matrix (1 + t*c) I + t H(psi_chi)
  (``theta_raw``), M_t = theta_t + dd^c phi has (1 + t*c) I + H(phi) +
  t H(psi_chi) (``metric_raw``, the fused ``metric_det_eigmin`` pass), the
  Monge-Ampere ratio (theta_t + dd^c phi)^n / omega^n is det(M_t), and
  vol(X) = period^(2n).
  The customary 1/pi in dd^c is absorbed into this normalization, which
  makes gamma * log|z - z0| carry Lelong mass exactly gamma.
* Nyquist modes are dropped from the derivative multipliers.  This keeps
  every multiplier even on the discrete grid (the Nyquist frequency has no
  partner of opposite sign), so each Hessian component of a real phi,
  Re h12 and Im h12 included, is the real inverse transform of a real
  multiplier times the spectrum.

This module owns the two per-n raw layouts, so no other module branches on
them.  The raw layout of a Hermitian field is a real array at n = 1 and the
four real arrays (m11, m22, Re m12, Im m12) at n = 2; its algebra
(``det_raw``, ``eigmin_raw``, ``trace_raw``, ``inverse_raw``, the
contraction tr_M(H) ``contract_raw`` and the wedge sum ``wedge_sum``)
lives here and runs on real arrays only.  The spectral layout is one at
every n: the half spectrum of ``rfftn`` (``TorusGrid.fft`` /
``TorusGrid.ifft``); the grid's multipliers, symbols and masks use it.

One row-block convention serves every pointwise pass that ends in a grid
mean, min or max (``by_rows``): it walks contiguous slices of the first
axis (``row_blocks``: one row at n = 2, the whole field at n = 1, where
blocks would only add calls), writes each block into one output field and
reduces the whole field.  Its temporaries are block-sized, and every value,
hence every result, is bit-identical to the whole-array expression.  The
n = 2 metric pass (``metric_det_eigmin``) walks two blocks, the halves of
the first axis, into its det field.

All operations here are pure functions of immutable snapshots and are
safe to call concurrently; ``TorusGrid``, like ``flow.TwistSpec``, is a
frozen value whose derived arrays are computed on first read, never first
on a lane: ``hessian_raw`` reads the multipliers before any hand-off, and
a stepper reads the twist's when it is built.

``hessian_raw`` and ``metric_det_eigmin`` take an optional ``lane``: a
helper thread (anything with ``submit(fn, *args)`` returning a future, such
as a one-worker ``concurrent.futures.ThreadPoolExecutor``).  At n = 2 the
helper runs the two inverse transforms of h12 while the caller runs the
two diagonal ones, and then the metric pass on the second half of the
first axis while the caller runs the first half; without it the caller
runs both halves in turn.  Both splits keep every
floating-point operation of the sequential path on the same operands, so
the results are bit-identical; ``lane_pays`` says where the helper is worth its cost.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import fft as sfft

from .errors import ConfigError, KaehlerConeViolation, SingularMetric


def _is_power_of_two(m):
    return m >= 1 and (m & (m - 1)) == 0


def _whole(x):
    """int(x) where that keeps the value of x; None for 1.5, NaN, inf, "8" or None."""
    try:
        return int(x) if int(x) == x else None
    except (TypeError, ValueError, OverflowError):
        return None


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic grid with ``res`` points per real axis.

    Parameters
    ----------
    n : complex dimension, 1 or 2.
    res : points per real axis, a power of two >= 8.
    period : real period per axis (default 1), whose volume period^(2n) is finite, > 0.

    A frozen value: two grids compare equal iff (n, res, period) agree,
    and its multipliers, symbol and masks are cached properties.
    """

    n: int
    res: int
    period: float = 1.0

    def __post_init__(self):
        n, res, period = _whole(self.n), _whole(self.res), float(self.period)
        if n not in (1, 2):
            raise ValueError("complex dimension n must be 1 or 2")
        if res is None or res < 8 or not _is_power_of_two(res):
            raise ValueError("res must be a power of two >= 8")
        try:
            volume = period ** (2 * n)
        except OverflowError:   # a float period too large for its volume
            volume = np.inf
        if not (0.0 < period and 0.0 < volume < np.inf):
            raise ValueError("period must be finite and positive, with a finite, nonzero "
                             "volume period^(2n)")
        for name, value in (("n", n), ("res", res), ("period", period)):
            object.__setattr__(self, name, value)

    @classmethod
    def checked(cls, n, res, period, source):
        """The grid of outside values; a value it rejects is a ConfigError naming ``source``."""
        try:
            return cls(n, res, period)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"{source}: {e}") from None

    # -- basic geometry -------------------------------------------------

    @property
    def shape(self):
        return (self.res,) * (2 * self.n)

    @property
    def npoints(self):
        return self.res ** (2 * self.n)

    @property
    def h(self):
        """Grid spacing per real axis."""
        return self.period / self.res

    @property
    def volume(self):
        """V = integral of omega^n = period^(2n)."""
        return self.period ** (2 * self.n)

    def axis_coords(self):
        return np.arange(self.res) * self.h

    def coord(self, axis):
        """Coordinate array along real axis ``axis``, broadcastable to shape."""
        c = self.axis_coords()
        sh = [1] * (2 * self.n)
        sh[axis] = self.res
        return c.reshape(sh)

    # -- spectral machinery ----------------------------------------------

    def _freq(self, zero_nyquist=True):
        """Angular frequencies along one axis (1d)."""
        k = 2.0 * np.pi * np.fft.fftfreq(self.res, d=self.h)
        if zero_nyquist:
            k[self.res // 2] = 0.0
        return k

    def _along(self, axis, k):
        """Per-axis values ``k`` (fftfreq order), broadcastable to the spectrum shape."""
        sh = [1] * (2 * self.n)
        sh[axis] = self._spec_shape()[axis]
        return k[: sh[axis]].reshape(sh)

    @cached_property
    def hessian_multipliers(self):
        """Real multipliers of the raw Hessian's components (spectrum shape).

        (d^2/dz dzbar,) at n = 1; at n = 2 those of h11, h22, Re h12 and Im h12.
        """
        f = [self._along(a, self._freq()) for a in range(2 * self.n)]

        # d/dz_j = (d/dx_j - i d/dy_j)/2 times d/dzbar_k = (d/dx_k + i d/dy_k)/2
        def mult(j, k):
            return 0.5 * (1j * f[2 * j] + f[2 * j + 1]) * (0.5 * (1j * f[2 * k] - f[2 * k + 1]))
        parts = [mult(j, j).real for j in range(self.n)]   # -(kx_j^2 + ky_j^2)/4
        if self.n == 2:
            m12 = mult(0, 1)
            parts += [m12.real, m12.imag]
        return tuple(np.broadcast_to(m, self._spec_shape()).copy() for m in parts)

    def fft(self, arr):
        """Spectrum of a real field in the grid's layout, the half spectrum ``rfftn``."""
        return sfft.rfftn(arr)

    def ifft(self, spec):
        """The real field whose spectrum in the grid's layout is ``spec``, in an owned array."""
        return sfft.irfftn(spec, s=self.shape)

    @cached_property
    def flat_symbol(self):
        """Symbol of tr H = sum_j d^2/dz_j dzbar_j; at n = 1 the multiplier itself."""
        m = self.hessian_multipliers
        return m[0] if self.n == 1 else m[0] + m[1]

    def _spec_shape(self):
        """Shape of ``fft``'s spectrum: the last axis halved (plus one)."""
        return self.shape[:-1] + (self.res // 2 + 1,)

    @cached_property
    def ksq_full(self):
        """|k|^2 over all 2n real axes, Nyquist included (for mollification)."""
        tot = 0.0
        for a in range(2 * self.n):
            tot = tot + self._along(a, self._freq(zero_nyquist=False)) ** 2
        return np.broadcast_to(tot, self._spec_shape()).copy()

    @cached_property
    def dealias_mask(self):
        """2/3-rule mask (True = keep)."""
        cut = self.res // 3
        idx = np.abs(np.rint(np.fft.fftfreq(self.res) * self.res).astype(int))
        keep = np.ones(self._spec_shape(), dtype=bool)
        for a in range(2 * self.n):
            keep &= self._along(a, idx) <= cut
        return keep


# ---------------------------------------------------------------------------
# field containers


class PotentialField:
    """Real scalar field on a torus grid (the potential state variable)."""

    __slots__ = ("grid", "values")

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != grid.shape:
            raise ValueError(f"values shape {values.shape} != grid shape {grid.shape}")
        self.grid = grid
        self.values = values

    def copy(self):
        return PotentialField(self.grid, self.values.copy())

    def spectrum(self):
        """The values' spectrum in the grid's layout (``TorusGrid.fft``)."""
        return self.grid.fft(self.values)

    @property
    def sup(self):
        return float(self.values.max())

    @property
    def inf(self):
        return float(self.values.min())

    def __add__(self, a):
        return PotentialField(self.grid, self.values + float(a))

    __radd__ = __add__

    def __sub__(self, a):
        return PotentialField(self.grid, self.values - float(a))

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(grid.shape))


# ---------------------------------------------------------------------------
# raw spectral kernels (ndarray in, ndarray out; hot path of the stepper)


# One _Stepper.parts at n = 2 (twisted, with h), sequential -> with a lane, quartiles
# of 12 alternating rounds on a 2-core Xeon (Python 3.11, numpy 2.4, scipy 1.17):
# res 8 0.34-0.34 -> 0.51-0.71 ms, res 16 4.55-5.19 -> 5.10-5.98 ms (the hand-off
# costs more than it saves at both), res 32 103-110 -> 67-88 ms.  Output bit-identical.
LANE_MIN_RES = 16


def lane_pays(grid):
    """Whether a helper thread (``lane``) speeds up one right-hand side on ``grid``.

    n = 1 has one inverse transform per Hessian and nothing to overlap.
    """
    return grid.n == 2 and grid.res >= LANE_MIN_RES


def _pair(lane, first, second):
    """(first(), second()), ``second`` on ``lane`` while ``first`` runs here.

    Without a lane both run here, in order.  An error raised on the lane
    reaches the caller, and the lane's task has ended when this returns or
    raises.
    """
    if lane is None:
        return first(), second()
    other = lane.submit(second)
    try:
        mine = first()
    finally:
        theirs = other.result()
    return mine, theirs


def hessian_raw(grid, arr, spec=None, lane=None):
    """Complex Hessian of a real array, in the raw layout.

    Returns the scalar H for n = 1, and (h11, h22, Re h12, Im h12) for
    n = 2, all real.  ``spec`` optionally supplies ``grid.fft(arr)``,
    precomputed; ``arr`` is then not read and may be None.

    Each component is one inverse transform of the spectrum times its real
    multiplier (``TorusGrid.hessian_multipliers``); at n = 2 the two of
    h12 run on ``lane`` when one is given.  The returned arrays are fresh,
    C-contiguous and unaliased; they belong to the caller, who may
    overwrite them (``metric_det_eigmin`` does).
    """
    if spec is None:
        spec = grid.fft(arr)
    mults = grid.hessian_multipliers
    if grid.n == 1:
        return grid.ifft(mults[0] * spec)

    def two(m1, m2):
        return lambda: (grid.ifft(m1 * spec), grid.ifft(m2 * spec))
    diag, off = _pair(lane, two(*mults[:2]), two(*mults[2:]))
    return diag + off


def readonly_raw(grid, raw):
    """``raw``, a raw Hermitian field, with each of its arrays marked read-only."""
    for arr in (raw,) if grid.n == 1 else raw:
        arr.flags.writeable = False
    return raw


def row_blocks(grid):
    """The slices of the first axis a block-wise pass walks, in order (module docstring)."""
    if grid.n == 1:
        return [slice(None)]
    return [slice(i, i + 1) for i in range(grid.res)]


def raw_rows(grid, raw, rows):
    """The rows ``rows`` (a slice of the first axis) of a raw field, as views."""
    return raw[rows] if grid.n == 1 else tuple(x[rows] for x in raw)


def by_rows(grid, fn, out=None):
    """The field fn(rows) makes on every block of ``row_blocks``, for reading only.

    The blocks are written into ``out`` (a fresh real field by default);
    a single block (n = 1) is fn's own result, which may be a view.
    """
    blocks = row_blocks(grid)
    if len(blocks) == 1:
        return fn(blocks[0])
    if out is None:
        out = np.empty(grid.shape)
    for rows in blocks:
        out[rows] = fn(rows)
    return out


def raw_combine(grid, a, raw, scale=1.0):
    """a*I + scale*raw as a raw metric rep (a may be a scalar)."""
    if grid.n == 1:
        return a + scale * raw
    h11, h22, h12r, h12i = raw
    return a + scale * h11, a + scale * h22, scale * h12r, scale * h12i


def raw_add(grid, r1, r2, s2=1.0):
    if grid.n == 1:
        return r1 + s2 * r2
    return tuple(x + s2 * y for x, y in zip(r1, r2))


def det_raw(grid, m):
    """Determinant of a raw metric rep, pointwise."""
    if grid.n == 1:
        return m
    m11, m22, m12r, m12i = m
    return m11 * m22 - (m12r ** 2 + m12i ** 2)


def trace_raw(grid, m):
    if grid.n == 1:
        return m
    return m[0] + m[1]


def inverse_raw(grid, m, det):
    """Raw M^{-1} of raw M with determinant det: 1/m, or (m22, m11, -m12) * (1/det)."""
    bad = np.abs(det).min()
    if not np.isfinite(bad) or bad < 1e-300:
        raise SingularMetric(f"matrix inversion failed (|det| down to {bad:.3e})")
    if grid.n == 1:
        return 1.0 / m
    s = 1.0 / det
    return m[1] * s, m[0] * s, -m[2] * s, -m[3] * s


def contract_raw(grid, inv, h):
    """tr_M(H) = sum_{jk} (M^{-1})_{jk} H_{kj} from raw M^{-1} and a raw Hermitian H."""
    if grid.n == 1:
        return inv * h
    return inv[0] * h[0] + inv[1] * h[1] + 2.0 * (inv[2] * h[2] + inv[3] * h[3])


def wedge_sum(grid, m, th, det=None):
    """sum_{j=0..n} M^j wedge Theta^(n-j) / omega^n of raw M and Theta, pointwise.

    ``det``, when given, is det_raw(grid, m), as the metric pass leaves it.
    """
    if grid.n == 1:
        return th + m
    cross = m[2] * th[2] + m[3] * th[3]   # Re(m12 conj t12)
    return (det_raw(grid, th) + 0.5 * (m[0] * th[1] + m[1] * th[0] - 2.0 * cross)
            + (det_raw(grid, m) if det is None else det))


def eigmin_raw(grid, m):
    """Pointwise smallest eigenvalue of a raw metric rep."""
    if grid.n == 1:
        return m
    m11, m22, m12r, m12i = m
    tr = m11 + m22
    disc = np.sqrt(np.maximum((m11 - m22) ** 2 + 4.0 * (m12r ** 2 + m12i ** 2), 0.0))
    return 0.5 * (tr - disc)


def metric_det_eigmin(grid, hess, a, hpsi=None, t=0.0, lane=None, then=None):
    """Metric a I + hess (+ t hpsi), its determinant and smallest eigenvalue.

    One fused pass that overwrites ``hess`` (a raw Hessian the caller owns,
    as ``hessian_raw`` returns it) with the metric; ``hpsi`` is only read.
    The floating-point operations and their order are those of raw_add,
    raw_combine, det_raw and eigmin_raw, so the results are bit-identical
    to that chain.  Returns (m, det, emin), emin being the grid minimum of
    the pointwise smallest eigenvalue (a float).

    ``then(rows, det_rows)``, when given, continues the pass on the same
    rows (a slice of the first axis) and thread, once their smallest
    eigenvalue is known to be positive; rows outside the cone skip it, and
    the caller rejects the state.  At n = 2 the pass runs on the two
    halves of the first axis, the second on ``lane`` when one is given.
    """
    if grid.n == 1:
        if hpsi is not None:
            hess += t * hpsi
        hess += a
        emin = float(hess.min())
        if then is not None and emin > 0.0:
            then(slice(None), hess)
        return hess, hess, emin
    det = np.empty(grid.shape)

    def rows_pass(rows):
        m = [x[rows] for x in hess]
        if hpsi is not None:
            for x, p in zip(m, hpsi):
                x += t * p[rows]
        m11, m22, m12r, m12i = m
        m11 += a
        m22 += a
        q = m12r ** 2
        q += m12i ** 2                # |m12|^2, shared by det and the discriminant
        d = det[rows]
        np.multiply(m11, m22, out=d)
        d -= q
        disc = m11 - m22
        disc *= disc
        q *= 4.0
        disc += q
        np.sqrt(np.maximum(disc, 0.0, out=disc), out=disc)
        tr = np.add(m11, m22, out=q)   # q is spent: the trace reuses it
        tr -= disc
        low = tr.min()
        if then is not None and low > 0.0:
            then(rows, d)
        return low

    half = grid.res // 2
    # np.min, not min(): min(x, nan) is x, and would pass a NaN block as inside the cone
    low = np.min(_pair(lane, lambda: rows_pass(slice(None, half)),
                       lambda: rows_pass(slice(half, None))))
    return hess, det, 0.5 * float(low)


def _twist_terms(twist, t):
    """(1 + t c, the twist's cached H(psi_chi)), the latter None at t = 0 or without it."""
    if twist is None:
        return 1.0, None
    return 1.0 + t * twist.c, twist.hpsi if t != 0.0 else None


def theta_raw(grid, twist=None, t=0.0, rows=slice(None)):
    """theta_t = (1+tc) I + t H(psi_chi) in the raw layout (fresh arrays), on ``rows``."""
    a, hpsi = _twist_terms(twist, t)
    if hpsi is not None:
        return raw_combine(grid, a, raw_rows(grid, hpsi, rows), scale=t)
    shape = (len(range(grid.res)[rows]),) + grid.shape[1:]
    diag = np.full(shape, a)
    return diag if grid.n == 1 else (diag, diag.copy(), np.zeros(shape), np.zeros(shape))


def metric_raw(grid, arr, twist=None, t=0.0):
    """(M_t, det M_t, grid min of its smallest eigenvalue), M_t = theta_t + H(arr), raw.

    ``twist`` is duck-typed: ``c`` and ``hpsi`` (H(psi_chi) on ``grid``), as on a TwistSpec.
    """
    a, hpsi = _twist_terms(twist, t)
    return metric_det_eigmin(grid, hessian_raw(grid, arr), a, hpsi, t)


def mollify_raw(grid, arr, delta):
    """Gaussian (heat-kernel) mollification at radius delta.

    Multiplier exp(-delta^2 |k|^2 / 2): the heat semigroup at time
    delta^2/2, whose positive kernel preserves omega-psh fields.
    """
    if delta <= 0.0:
        return np.array(arr, dtype=np.float64, copy=True)
    mult = np.exp(-0.5 * delta ** 2 * grid.ksq_full)
    return grid.ifft(mult * grid.fft(arr))


# ---------------------------------------------------------------------------
# public operations on potentials


def ma_ratio(phi, twist=None, t=0.0):
    """(theta_t + dd^c phi)^n / omega^n = det M_t; KaehlerConeViolation outside the cone.

    An independent reference for the volume identity check.
    """
    _, det, min_eig = metric_raw(phi.grid, phi.values, twist, t)
    if not min_eig > 0.0:
        raise KaehlerConeViolation(
            f"metric not positive definite (min eigenvalue {min_eig:.3e})",
            t=t, min_eig=min_eig)
    return det


def integrate(field, grid=None):
    """Integral against omega^n (grid mean times V); a reference for the volume identity."""
    if isinstance(field, PotentialField):
        grid, arr = field.grid, field.values
    else:
        arr = np.asarray(field)
        if grid is None:
            raise ValueError("integrate(ndarray) needs the grid")
    return float(arr.mean() * grid.volume)
