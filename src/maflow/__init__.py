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
from .geometry import (HermitianField, MetricField, PotentialField, TorusGrid,
                       complex_hessian, integrate, laplacian_wrt, ma_ratio,
                       metric_matrix, min_eigenvalue, trace_wrt)
from .initial import (ApproximationSequence, PotentialSpec,
                      approximation_sequence, integrability_threshold,
                      lelong_estimate, sample_potential)
from .flow import (FlowConfig, FlowState, Trajectory, TwistSpec,
                   continue_run, limit_potential, rhs, run, run_levels, step,
                   t_max)
from .functionals import (density, energy, lp_norm, mean_value, orlicz_integral,
                          oscillation)
from .elliptic import newton_residual_and_linearization, solve_ma
from .logdiff import (DensityField, density_to_potential, evolve_density,
                      potential_to_density, step_logfd)
from . import oracles, verify

__version__ = "0.1.0"
