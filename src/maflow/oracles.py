"""Independent reference solutions used by the test suite and `maflow oracle`.

These deliberately avoid the production code paths they are checked
against: the heat decay of a mode is a closed-form factor (no time
stepping), and the model log-pole field comes straight from the Green's
function.
"""

import numpy as np

from .geometry import PotentialField
from .initial import default_center, log_pole

KAPPA = 0.25  # heat constant of the linearized flow: rate 4 pi^2 kappa |k|^2 / L^2


def heat_decay_factor(grid, kvec, t):
    """Exact decay of one cosine mode under dphi/dt = tr H(phi)."""
    ksq = sum((2.0 * np.pi * k / grid.period) ** 2 for k in kvec)
    return float(np.exp(-KAPPA * ksq * t))


def lelong_model_field(grid, gamma):
    """(gamma * log(periodized distance to the center), center), the closed-form pole at
    ``initial.default_center``, clipped at -1e6 as ``PotentialSpec`` clips by default."""
    center = default_center(grid)
    return PotentialField(grid, np.maximum(gamma * log_pole(grid, center), -1e6)), center


def heat_mode_series(grid, kvec, amp, T):
    """(t, amplitude) table of one decaying mode at 50 times from 0 to T; emitted by
    `maflow oracle heat`."""
    ts = np.linspace(0.0, T, 50)
    return np.stack([ts, amp * np.array([heat_decay_factor(grid, kvec, t) for t in ts])],
                    axis=1)
