"""Machine-speed calibration kernels, built from numpy / scipy only.

The host this benchmark was sized on runs a fixed FFT kernel anywhere
between 1x and 2x its best speed, in phases lasting seconds to minutes,
with CPU time tracking wall time (so the process is slowed, not
descheduled).  A wall-clock median over one 20 s run cannot average that
out.  The harness therefore times a calibration kernel right before and
after every op (and set-up), and rescales the op's wall time by
``ref_s / calibration time``: the op's seconds at the speed at which the
kernel takes ``ref_s``.

A calibration kernel mimics its workload's mix of primitives (FFT size,
pointwise array algebra) so that it slows down in the same proportion.  It
never calls maflow: a change to the program must not move its own
yardstick.  Measured on the sizing host: a file-writing kernel drifted
apart from verify_saved's op within a minute, and an n = 1 res 256 unit
ran 2.5x slow for minutes while stiff_density's res 256 op did not, so
every n = 1 workload uses the res 128 unit.
"""

import time

import numpy as np
import scipy.fft as sfft


class SpectralUnit:
    """One RHS-like evaluation on an n = 1 or n = 2 grid, repeated ``reps`` times."""

    def __init__(self, n, res, reps, ref_s):
        rng = np.random.default_rng(0)
        shape = (res,) * (2 * n)
        self.n, self.reps, self.ref_s = n, reps, ref_s
        self.field = 0.01 * rng.standard_normal(shape)
        spec = sfft.rfftn(self.field) if n == 1 else sfft.fftn(self.field)
        self.mult = 0.01 * rng.standard_normal(spec.shape)

    def _unit(self):
        if self.n == 1:
            h = sfft.irfftn(self.mult * sfft.rfftn(self.field), s=self.field.shape)
            m = 1.0 + h
            return float(np.log(m).mean() + m.min())
        spec = sfft.fftn(self.field)
        h11 = sfft.ifftn(self.mult * spec).real
        h22 = sfft.ifftn(self.mult * spec).real
        h12 = sfft.ifftn(self.mult * spec)
        m11, m22 = 1.0 + h11, 1.0 + h22
        off = h12.real ** 2 + h12.imag ** 2
        disc = np.sqrt(np.maximum((m11 - m22) ** 2 + 4.0 * off, 0.0))
        return float(np.log(m11 * m22 - off).mean() + (0.5 * (m11 + m22 - disc)).min())

    def __call__(self):
        t0 = time.perf_counter()
        for _ in range(self.reps):
            self._unit()
        return time.perf_counter() - t0
