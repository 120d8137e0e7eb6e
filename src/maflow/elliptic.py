"""Damped Newton solver for the elliptic complex Monge-Ampere equations.

Solves, in log form,

    n log(alpha) + log det(M_t(u)) - alpha u - g - h = 0        (alpha > 0)
              log det(M_t(u)) - g - h = 0,  int u dmu = 0        (alpha = 0)

with M_t(u) = (1+tc) I + H(t psi_chi + u).  For alpha > 0 the problem is
monotone and the solution unique; for alpha = 0 the data must satisfy the
compatibility int e^{g+h} omega^n = (1+tc)^n V and the solution is fixed by
the mu-mean normalization.

The Newton linearization is delta -> tr_{M}(dd^c delta) - alpha delta; the
inner solve is GMRES with a spectral preconditioner (flat inverse Laplacian
shifted by alpha), and damping backtracks on the residual sup-norm with
factor 1/2 down to 2^-20.
"""

import math
from dataclasses import dataclass, field as dfield

import numpy as np
from scipy import fft as sfft
from scipy.sparse.linalg import LinearOperator, lgmres

from . import geometry as geo
from .errors import IncompatibleData, NewtonDiverged, SingularMetric
from .geometry import PotentialField

DAMPING_FLOOR = 2.0 ** -20


@dataclass
class SolverLog:
    rows: list = dfield(default_factory=list)   # (iteration, residual, damping)
    inner_iterations: list = dfield(default_factory=list)

    def append(self, it, res, damping):
        self.rows.append((it, float(res), float(damping)))

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("iteration,residual,damping\n")
            for it, res, damping in self.rows:
                fh.write(f"{it},{res:.17g},{damping:.17g}\n")

    @property
    def iterations(self):
        return len(self.rows)


def _residual_raw(grid, u_arr, alpha, g_arr, twist, t, h_arr):
    c = 0.0 if twist is None else twist.c
    arr = u_arr
    if twist is not None and twist.psi_chi is not None and t != 0.0:
        arr = arr + t * twist.psi_chi.values
    m, det, emin = geo.metric_det_eigmin(grid, geo.hessian_raw(grid, arr), 1.0 + t * c)
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
    from m directly (1/m at n = 1, (m22, m11, -m12) * (1/det) at n = 2),
    bit-identical to inverting the (..., n, n) matrix field.
    """
    bad = np.abs(det).min()
    if not np.isfinite(bad) or bad < 1e-300:
        raise SingularMetric(f"matrix inversion failed (|det| down to {bad:.3e})")
    if grid.n == 1:
        inv = 1.0 / m
    else:
        s = 1.0 / det
        inv = (m[1] * s, m[0] * s, -m[2] * s)

    def apply(delta):
        delta = np.asarray(delta)
        hd = geo.hessian_raw(grid, delta)
        if grid.n == 1:
            out = inv * hd
        else:
            i11, i22, i12 = inv
            h11, h22, h12 = hd
            out = i11 * h11 + i22 * h22 + 2.0 * (i12 * np.conj(h12)).real
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


def _inner_solve(grid, apply, rhs_arr, alpha, mbar, mean_zero, rtol, counter=None):
    """Preconditioned GMRES for apply(delta) = rhs."""
    use_rfft = grid.n == 1
    sym = grid.flat_symbol(rfft=use_rfft)       # <= 0
    pre = mbar * sym - max(alpha, 0.0)
    if alpha == 0.0:
        pre = np.where(pre == 0.0, -1.0, pre)
    fwd = sfft.rfftn if use_rfft else sfft.fftn

    def bwd(spec):
        return sfft.irfftn(spec, s=grid.shape) if use_rfft else sfft.ifftn(spec).real

    def proj(arr):
        return arr - arr.mean() if mean_zero else arr

    shape = grid.shape
    size = rhs_arr.size
    calls = [0]

    def mv(x):
        calls[0] += 1
        return proj(apply(proj(x.reshape(shape)))).ravel()

    def pc(x):
        return proj(bwd(fwd(x.reshape(shape)) / pre)).ravel()

    A = LinearOperator((size, size), matvec=mv)
    M = LinearOperator((size, size), matvec=pc)
    b = proj(rhs_arr).ravel()
    sol, info = lgmres(A, b, M=M, rtol=rtol, atol=0.0, maxiter=400)
    if counter is not None:
        counter.append(calls[0])
    return proj(sol.reshape(shape))


def solve_ma(alpha, g=None, twist=None, t=0.0, h=None, grid=None, u0=None,
             tol=1e-9, max_iter=60, log=None):
    """Solve the elliptic Monge-Ampere problem; residual sup-norm <= tol.

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

    for it in range(1, max_iter + 1):
        if rnorm <= tol:
            break
        inv_raw, apply = _linearization(grid, m, det, alpha)
        if grid.n == 1:
            mbar = float(inv_raw.mean())
        else:
            mbar = float((0.5 * (inv_raw[0] + inv_raw[1])).mean())
        rhs_arr = -r
        if alpha == 0.0:
            rhs_arr = rhs_arr - (rhs_arr * det).mean() / det.mean()
        delta = _inner_solve(grid, apply, rhs_arr, alpha, mbar,
                             mean_zero=(alpha == 0.0),
                             rtol=min(1e-2, 0.1 * rnorm),
                             counter=log.inner_iterations)
        s = 1.0
        while True:
            cand = u + s * delta
            if alpha == 0.0:
                cand = cand - mu_mean(cand)
            r_new, m_new, det_new, emin = _residual_raw(grid, cand, alpha, g_arr, twist, t,
                                                        h_arr)
            if r_new is not None:
                rn = float(np.abs(r_new).max())
                if rn <= (1.0 - 0.25 * s) * rnorm or rn <= tol:
                    break
            s *= 0.5
            if s < DAMPING_FLOOR:
                raise NewtonDiverged(
                    f"damping underflow at iteration {it} (residual {rnorm:.3e})")
        u, r, m, det, rnorm = cand, r_new, m_new, det_new, rn
        log.append(it, rnorm, s)
    if rnorm > tol:
        raise NewtonDiverged(f"no convergence in {max_iter} iterations "
                             f"(residual {rnorm:.3e})")
    return PotentialField(grid, u), log
