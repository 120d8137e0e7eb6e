"""Scalar diagnostics of a potential: energy, mean value, oscillation, densities.

The energy is the mixed-wedge functional

    E(phi) = 1/((n+1) V) * sum_{j=0..n} int phi (theta_t + dd^c phi)^j wedge theta_t^(n-j),

evaluated for n <= 2 through closed-form mixed determinants of the local
matrices Theta = (1+tc) I + t H(psi_chi) (``geometry.theta_raw``, with
H(psi_chi) from the twist's cache) and M = Theta + H(phi), summed
pointwise by ``geometry.wedge_sum``.  All integrals
share the spectral quadrature of :func:`maflow.geometry.integrate`.
"""

import numpy as np

from . import geometry as geo


def energy_from_raws(grid, phi_arr, m_raw, th_raw):
    return float((phi_arr * geo.wedge_sum(grid, m_raw, th_raw)).mean() / (grid.n + 1))


def energy(phi, twist=None, t=0.0):
    """Aubin-Yau type energy of phi with respect to theta_t."""
    grid = phi.grid
    th = geo.theta_raw(grid, twist, t)
    m = geo.raw_add(grid, th, geo.hessian_raw(grid, phi.values))
    return energy_from_raws(grid, phi.values, m, th)


def mean_value(phi, h=None):
    """I = (1/V) int phi dmu with dmu = e^h omega^n (h normalized upstream)."""
    if h is None:
        return float(phi.values.mean())
    return float((phi.values * np.exp(h.values)).mean())


def oscillation(phi):
    return phi.sup - phi.inf


def density(phi, twist=None, t=0.0, h=None):
    """f_t = (theta_t + dd^c phi)^n / mu = det(M_t) e^{-h}, a positive field."""
    f = geo.ma_ratio(phi, twist, t)
    if h is not None:
        f = f * np.exp(-h.values)
    return f


def w_power(p):
    return lambda x: x ** p


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


def series_row(grid, t, phi_arr, m_raw, th_raw, det, min_eig, dt, exp_h=None):
    """One row of the trajectory series, reusing the stepper's raw caches."""
    eh = 1.0 if exp_h is None else exp_h
    f = det if exp_h is None else det / exp_h
    sup = float(phi_arr.max())
    inf = float(phi_arr.min())
    ii = float((phi_arr * eh).mean()) if exp_h is not None else float(phi_arr.mean())
    ee = energy_from_raws(grid, phi_arr, m_raw, th_raw)
    vol = float(det.mean() * grid.volume)
    fl2 = float(((f * f) * eh).mean() * grid.volume)
    orl = float((w_xlog1px(f) * eh).mean() * grid.volume)
    return {
        "t": t, "sup": sup, "inf": inf, "osc": sup - inf, "I": ii, "E": ee,
        "fmin": float(f.min()), "fmax": float(f.max()), "f_l2": fl2,
        "orlicz_xlogx": orl, "vol": vol, "min_eig": min_eig, "dt": dt,
    }
