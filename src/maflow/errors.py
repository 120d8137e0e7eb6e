"""Exception types shared across the package."""


class MaflowError(Exception):
    """Base class for package errors; ``t`` is the flow time of the failure, if any."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class KaehlerConeViolation(MaflowError):
    """The discrete potential left the Kaehler cone (metric not positive definite)."""

    def __init__(self, message, t=None, min_eig=None):
        super().__init__(message, t)
        self.min_eig = min_eig


class SingularMetric(MaflowError):
    """A metric matrix could not be inverted numerically."""


class InvalidSpec(MaflowError):
    """Initial-data spec with out-of-range or inconsistent parameters."""


class MonotonicityFailure(MaflowError):
    """Approximation levels failed to decrease pointwise at tolerance."""


class InsufficientResolution(MaflowError):
    """Grid too coarse for the requested estimator."""


class StepSizeUnderflow(MaflowError):
    """Adaptive dt fell below dt_min; parabolicity lost at this resolution."""


class NewtonDiverged(MaflowError):
    """Damped Newton iteration exhausted its backtracking budget."""


class IncompatibleData(MaflowError):
    """alpha=0 elliptic problem with mismatched total mass."""


class MassMismatch(MaflowError):
    """Density field does not carry the reference volume."""


class PositivityLoss(MaflowError):
    """Density stepping could not maintain a positive field."""


class ConfigError(MaflowError):
    """Malformed or contradictory run configuration."""


class ConfigMismatch(MaflowError):
    """Paired trajectories were produced under different configurations."""
