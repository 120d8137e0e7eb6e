"""maflow: parabolic complex Monge-Ampere flows on flat tori.

Pseudospectral simulator for the scalar potential flow
dphi/dt = log[(theta_t + dd^c phi)^n / mu] and its normalized variant,
with singular initial data handled through decreasing smooth
approximations, plus a harness that machine-checks the flow's a priori
estimates (maximum principles, comparison, energy and density
monotonicity, Lelong-number attenuation) as quantified inequalities.
"""

from .errors import (ConfigError, ConfigMismatch, IncompatibleData,
                     InsufficientResolution, InvalidSpec,
                     KaehlerConeViolation, MassMismatch, MonotonicityFailure,
                     NewtonDiverged, PositivityLoss, SingularMetric, StepSizeUnderflow)
from .geometry import PotentialField, TorusGrid, ma_ratio
from .initial import (ApproximationSequence, PotentialSpec, approximation_sequence,
                      lelong_estimate, sample_potential)
from .flow import (FlowConfig, FlowState, Trajectory, TwistSpec,
                   continue_run, limit_potential, run, run_levels, t_max)
from .functionals import lp_norm, orlicz_integral
from .elliptic import newton_residual_and_linearization, solve_ma
from .logdiff import (DensityField, density_to_potential, evolve_density,
                      potential_to_density)
from . import oracles, verify

__version__ = "0.1.0"
