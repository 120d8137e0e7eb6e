"""Scalar diagnostics of a potential: energy, mean value, oscillation, densities.

The energy is the mixed-wedge functional

    E(phi) = 1/((n+1) V) * sum_{j=0..n} int phi (theta_t + dd^c phi)^j wedge theta_t^(n-j),

evaluated for n <= 2 through closed-form mixed determinants of the local
matrices Theta = (1+tc) I + t H(psi_chi) (``geometry.theta_raw``, with
H(psi_chi) the twist's ``hpsi``) and M = Theta + H(phi), summed
pointwise by ``geometry.wedge_sum``.  All integrals
share the spectral quadrature of :func:`maflow.geometry.integrate`.

The energy and the series row follow geometry's row-block convention
(``geometry.by_rows``): Theta, the wedge sum and the density moments are
formed block by block into one output field, and each mean, min and max
is taken over the whole field, bit-identical to the whole-array
expressions.
"""

import numpy as np

from . import geometry as geo


def energy_from_raws(grid, phi_arr, m_raw, twist=None, t=0.0, det=None, out=None):
    """E of phi from its raw metric M_t (and det M_t, where known), block by block.

    ``out``, when given, is the real field the pointwise terms are written to.
    """
    def term(rows):
        d = None if det is None else det[rows]
        th = geo.theta_raw(grid, twist, t, rows)
        return phi_arr[rows] * geo.wedge_sum(grid, geo.raw_rows(grid, m_raw, rows), th, d)
    return float(geo.by_rows(grid, term, out).mean() / (grid.n + 1))


def mean_value(phi, h=None):
    """I = (1/V) int phi dmu, dmu = e^h omega^n; an independent reference for ``series_row``."""
    if h is None:
        return float(phi.values.mean())
    return float((phi.values * np.exp(h.values)).mean())


def oscillation(phi):
    """sup - inf; an independent reference for ``series_row``'s osc."""
    return phi.sup - phi.inf


def density(phi, twist=None, t=0.0, h=None):
    """f_t = det(M_t) e^{-h} > 0; an independent reference for ``series_row``'s f columns."""
    f = geo.ma_ratio(phi, twist, t)
    if h is not None:
        f = f * np.exp(-h.values)
    return f


def w_power(p):
    return lambda x: x ** p


def _square(x):
    return x * x


def w_xlog1px(x):
    return x * np.log1p(x)


def lp_norm(f, p, h=None, grid=None):
    """int f^p dmu (the p-th moment against mu; p=1 gives the total mass)."""
    return orlicz_integral(f, w_power(p), h=h, grid=grid)


def orlicz_integral(f, w, h=None, grid=None):
    """int (w o f) dmu for a weight w, e.g. w(x)=x^p or w(x)=x log(1+x)."""
    arr = np.asarray(f)
    if grid is None:
        raise ValueError("orlicz_integral needs the grid")
    wf = w(arr)
    if h is not None:
        wf = wf * np.exp(h.values)
    return float(wf.mean() * grid.volume)


SERIES_COLUMNS = ("t", "sup", "inf", "osc", "I", "E", "fmin", "fmax",
                  "f_l2", "orlicz_xlogx", "vol", "min_eig", "dt")


def series_row(grid, t, phi_arr, m_raw, det, min_eig, dt, exp_h=None, twist=None):
    """One row of the trajectory series from the stepper's metric M_t and det M_t.

    theta_t comes from ``twist`` (None: omega).  Beyond its inputs the row
    allocates one real field: each pointwise term is formed into it block
    by block, and its mean, min or max taken over the whole field.
    """
    out = np.empty(grid.shape)

    def f(rows):   # the density f = det M_t e^-h on the rows
        return det[rows] if exp_h is None else det[rows] / exp_h[rows]

    def mu_mean(term):   # the grid mean of term(rows) e^h
        if exp_h is None:
            return float(geo.by_rows(grid, term, out).mean())
        return float(geo.by_rows(grid, lambda rows: term(rows) * exp_h[rows], out).mean())

    sup = float(phi_arr.max())
    inf = float(phi_arr.min())
    ii = float(phi_arr.mean()) if exp_h is None else mu_mean(lambda rows: phi_arr[rows])
    ee = energy_from_raws(grid, phi_arr, m_raw, twist, t, det, out)
    vol = float(det.mean() * grid.volume)
    fl2 = mu_mean(lambda rows: _square(f(rows))) * grid.volume
    orl = mu_mean(lambda rows: w_xlog1px(f(rows))) * grid.volume
    fs = det if exp_h is None else geo.by_rows(grid, f, out)
    return {
        "t": t, "sup": sup, "inf": inf, "osc": sup - inf, "I": ii, "E": ee,
        "fmin": float(fs.min()), "fmax": float(fs.max()), "f_l2": fl2,
        "orlicz_xlogx": orl, "vol": vol, "min_eig": min_eig, "dt": dt,
    }
