"""Exception hierarchy shared across the package."""


class TcmvError(Exception):
    """Base class for all package errors."""


class MarketValidationError(TcmvError):
    """Market parameters or correlation structure failed validation."""


class InvalidCorrelationError(MarketValidationError):
    """Correlation matrix is not symmetric / unit-diagonal / in [-1, 1] / PSD."""


class DegenerateMarketError(MarketValidationError):
    """The two stocks have (numerically) identical volatility rows.

    Carries the structured classification produced by
    :func:`tcmv.market.validate_distinct_volatility`.
    """

    def __init__(self, check):
        super().__init__(check.message)
        self.check = check


class SingularMarketError(MarketValidationError):
    """The instantaneous covariance matrix is singular (rank-deficient factors).

    When the market is effectively driven by a single Brownian motion the
    one-factor diagnosis is attached as ``diagnosis``.
    """

    def __init__(self, message, diagnosis=None):
        super().__init__(message)
        self.diagnosis = diagnosis


class CoefficientRangeError(MarketValidationError):
    """The market's equilibrium coefficients exceed the float64 range."""


class NonConvergenceError(TcmvError):
    """Fixed-point iteration hit its cap without meeting the tolerance."""

    def __init__(self, message, iterations, last_delta):
        super().__init__(message)
        self.iterations = iterations
        self.last_delta = last_delta


class SimulationExplosionError(TcmvError):
    """More than the tolerated fraction of Monte Carlo paths went non-finite,
    or the moments of the finite ones exceed the float64 range."""

    def __init__(self, message, n_excluded, n_paths):
        super().__init__(message)
        self.n_excluded = n_excluded
        self.n_paths = n_paths


class ConfigError(TcmvError):
    """Scenario configuration file could not be parsed or validated."""
