"""Damped Newton solver for the elliptic complex Monge-Ampere equations.

Solves, in log form,

    n log(alpha) + log det(M_t(u)) - alpha u - g - h = 0        (alpha > 0)
              log det(M_t(u)) - g - h = 0,  int u dmu = 0        (alpha = 0)

with M_t(u) = (1+tc) I + H(u) + t H(psi_chi) (``geometry.metric_raw``).  For
alpha > 0 the problem is monotone and the solution unique; for alpha = 0
the data must satisfy the compatibility int e^{g+h} omega^n = (1+tc)^n V
and the solution is fixed by the mu-mean normalization.

The Newton linearization is L delta = tr_M(dd^c delta) - alpha delta.  The
inner solve is left-preconditioned GMRES: scipy's ``lgmres`` passes its M to
the inner ``_fgmres`` as ``lpsolve``, applied to the residual, and stops when
the unpreconditioned residual |b - L delta| <= rtol |b| at the start of an
outer cycle.  Its preconditioner inverts L scaled by det M, with the
coefficients frozen at their means.  Scaled, L
reads cof(M) : dd^c delta - alpha det delta, where cof(M) = det M^{-1} is
the cofactor matrix.  At n = 1 cof(M) = 1, so near a steep metric (the
mollified pole of the Lelong check) only the zeroth-order term varies
(``_inner_solve``).  Each Newton step records its GMRES matvecs and whether
the inner solve met its tolerance in ``SolverLog``.  Damping backtracks on
the residual sup-norm with factor 1/2 down to 2^-20.  GMRES (scipy.sparse,
with scipy.linalg) is imported by the first inner solve, not with the package.
"""

import math
from dataclasses import dataclass, field as dfield

import numpy as np

from . import geometry as geo
from .errors import IncompatibleData, NewtonDiverged, SingularMetric
from .geometry import PotentialField

DAMPING_FLOOR = 2.0 ** -20
NEWTON_TOL = 1e-9
NEWTON_MAX_ITER = 60


@dataclass
class SolverLog:
    COLUMNS = ("iteration", "residual", "damping")   # of each row (``io.write_csv``)

    rows: list = dfield(default_factory=list)
    inner_iterations: list = dfield(default_factory=list)   # GMRES matvecs per Newton step
    inner_converged: list = dfield(default_factory=list)    # did that inner solve meet rtol

    def append(self, it, res, damping):
        self.rows.append((it, float(res), float(damping)))

    @property
    def iterations(self):
        return len(self.rows)


def _residual_raw(grid, u_arr, alpha, g_arr, twist, t, h_arr):
    m, det, emin = geo.metric_raw(grid, u_arr, twist, t)
    if not np.isfinite(emin) or emin <= 0.0:
        return None, None, None, emin
    r = np.log(det)
    if alpha > 0.0:
        r = r + grid.n * math.log(alpha) - alpha * u_arr
    if g_arr is not None:
        r = r - g_arr
    if h_arr is not None:
        r = r - h_arr
    return r, m, det, emin


def _linearization(grid, m, det, alpha):
    """(raw M^{-1}, apply) at the metric m with determinant det.

    apply(delta) = tr_M(dd^c delta) - alpha delta.  The inverse is built
    from m directly (``geometry.inverse_raw``, SingularMetric when det
    vanishes).
    """
    inv = geo.inverse_raw(grid, m, det)

    def apply(delta):
        delta = np.asarray(delta)
        out = geo.contract_raw(grid, inv, geo.hessian_raw(grid, delta))
        if alpha > 0.0:
            out = out - alpha * delta
        return out

    return inv, apply


def newton_residual_and_linearization(u, alpha, g=None, twist=None, t=0.0, h=None):
    """Residual field and the linearized-operator application at u.

    Returns (residual, apply) where apply(delta) = tr_M(dd^c delta) - alpha delta.
    """
    grid = u.grid
    g_arr = None if g is None else g.values
    h_arr = None if h is None else h.values
    r, m, det, emin = _residual_raw(grid, u.values, alpha, g_arr, twist, t, h_arr)
    if r is None:
        raise SingularMetric(f"metric at u not positive definite (min eig {emin:.3e})")
    _, apply = _linearization(grid, m, det, alpha)
    return r, apply


def _inner_solve(grid, apply, rhs_arr, alpha, inv, det, rtol):
    """Left-preconditioned GMRES for apply(delta) = rhs; apply is the linearization at M.

    Returns (delta, matvecs, converged); converged is False when lgmres ran
    out at maxiter without meeting rtol.  lgmres applies the preconditioner
    on the left (its inner ``_fgmres`` takes M as ``lpsolve``), and tests
    |b - apply(delta)| <= rtol |b|, the residual without the preconditioner,
    at the start of each outer cycle.  ``inv`` is raw M^{-1} and ``det``
    det M.  Multiplied by det M the linearization reads

        det (tr_M(dd^c delta) - alpha delta) = cof(M) : dd^c delta - alpha det delta,

    with cof(M) = det M^{-1} the cofactor matrix.  Freezing cof(M) at
    cbar I, cbar = mean(det tr M^{-1}) / n, and det at dbar = mean(det)
    leaves the constant-coefficient operator cbar Delta - alpha dbar, so

        P x = F^{-1}[ F[det x] / (cbar sym - alpha dbar) ]

    approximates the inverse of apply.  At n = 1 cof(M) = 1 and cbar = 1:
    P inverts the second-order term exactly and only -alpha det delta is
    frozen, which is why a steep metric costs few matvecs.  At alpha = 0
    the zero symbol (constants, and the Nyquist corner modes that
    ``geometry.hessian_raw`` zeroes) is replaced by -1 and both operators
    act on mean-zero fields.
    """
    # imported on first use, so processes that solve no elliptic problem never load scipy.sparse
    from scipy.sparse.linalg import LinearOperator, lgmres

    cbar = float((det * geo.trace_raw(grid, inv)).mean() / grid.n)
    pre = cbar * grid.flat_symbol - alpha * float(det.mean())
    if alpha == 0.0:
        pre = np.where(pre == 0.0, -1.0, pre)
    # dividing a spectrum by the real pre multiplies by 1 / pre (see flow._sbdf2_spectrum)
    inv_pre = np.divide(1.0, pre)

    def proj(arr):
        return arr - arr.mean() if alpha == 0.0 else arr

    shape = grid.shape
    size = rhs_arr.size
    calls = [0]

    def mv(x):
        calls[0] += 1
        return proj(apply(proj(x.reshape(shape)))).ravel()

    def pc(x):
        return proj(grid.ifft(grid.fft(det * x.reshape(shape)) * inv_pre)).ravel()

    A = LinearOperator((size, size), matvec=mv)
    M = LinearOperator((size, size), matvec=pc)
    b = proj(rhs_arr).ravel()
    sol, info = lgmres(A, b, M=M, rtol=rtol, atol=0.0, maxiter=400)
    return proj(sol.reshape(shape)), calls[0], info == 0


def solve_ma(alpha, g=None, twist=None, t=0.0, h=None, grid=None, u0=None, log=None):
    """Solve the elliptic Monge-Ampere problem to residual sup-norm <= NEWTON_TOL
    within NEWTON_MAX_ITER Newton iterations.

    alpha = 0 requires the mass compatibility and returns the mu-mean-zero
    solution.  Raises NewtonDiverged on damping underflow and
    IncompatibleData on an alpha = 0 mass mismatch.
    """
    if grid is None:
        for f in (g, h, u0):
            if f is not None:
                grid = f.grid
                break
    if grid is None:
        raise ValueError("solve_ma needs a grid (directly or through a field)")
    if alpha < 0.0:
        raise ValueError("alpha must be >= 0")
    g_arr = None if g is None else g.values
    h_arr = None if h is None else h.values
    c = 0.0 if twist is None else twist.c
    exp_h = np.ones(grid.shape) if h_arr is None else np.exp(h_arr)

    if alpha == 0.0:
        gh = (g_arr if g_arr is not None else 0.0) + (h_arr if h_arr is not None else 0.0)
        mass = float(np.exp(gh).mean()) if np.ndim(gh) else math.exp(gh)
        target = (1.0 + t * c) ** grid.n
        if abs(mass - target) > 1e-6 * max(1.0, target):
            raise IncompatibleData(
                f"int e^(g+h) = {mass:.8g} V but the class volume is {target:.8g} V")

    u = np.zeros(grid.shape) if u0 is None else np.array(u0.values, copy=True)
    if log is None:
        log = SolverLog()

    def mu_mean(arr):
        return float((arr * exp_h).mean())

    if alpha == 0.0:
        u -= mu_mean(u)

    r, m, det, emin = _residual_raw(grid, u, alpha, g_arr, twist, t, h_arr)
    if r is None:
        raise NewtonDiverged("initial guess lies outside the Kaehler cone")
    rnorm = float(np.abs(r).max())
    log.append(0, rnorm, 1.0)

    for it in range(1, NEWTON_MAX_ITER + 1):
        if rnorm <= NEWTON_TOL:
            break
        inv_raw, apply = _linearization(grid, m, det, alpha)
        rhs_arr = -r
        if alpha == 0.0:
            rhs_arr = rhs_arr - (rhs_arr * det).mean() / det.mean()
        delta, matvecs, converged = _inner_solve(grid, apply, rhs_arr, alpha, inv_raw, det,
                                                 rtol=min(1e-2, 0.1 * rnorm))
        log.inner_iterations.append(matvecs)
        log.inner_converged.append(converged)
        s = 1.0
        while True:
            cand = u + s * delta
            if alpha == 0.0:
                cand = cand - mu_mean(cand)
            r_new, m_new, det_new, emin = _residual_raw(grid, cand, alpha, g_arr, twist, t,
                                                        h_arr)
            if r_new is not None:
                rn = float(np.abs(r_new).max())
                if rn <= (1.0 - 0.25 * s) * rnorm or rn <= NEWTON_TOL:
                    break
            s *= 0.5
            if s < DAMPING_FLOOR:
                raise NewtonDiverged(
                    f"damping underflow at iteration {it} (residual {rnorm:.3e})")
        u, r, m, det, rnorm = cand, r_new, m_new, det_new, rn
        log.append(it, rnorm, s)
    if rnorm > NEWTON_TOL:
        raise NewtonDiverged(f"no convergence in {NEWTON_MAX_ITER} iterations "
                             f"(residual {rnorm:.3e})")
    return PotentialField(grid, u), log
