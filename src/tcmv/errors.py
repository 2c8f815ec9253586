"""Exception hierarchy shared across the package.

A market without a unique equilibrium is reported by its exception alone:
DegenerateMarketError, and its subclass SingularMarketError, carry the
market's classification beside the message.
"""


class TcmvError(Exception):
    """Base class for all package errors."""


class MarketValidationError(TcmvError):
    """Market parameters or correlation structure failed validation."""


class InvalidCorrelationError(MarketValidationError):
    """Correlation matrix is not symmetric / unit-diagonal / in [-1, 1] / PSD."""


class DegenerateMarketError(MarketValidationError):
    """The market has no unique equilibrium.

    ``classification`` names the kind of market where one is known, else
    None. :func:`tcmv.market.validate_distinct_volatility` raises this error
    with IDENTICAL_ASSETS or NO_EQUILIBRIUM when the two stocks have
    (numerically) identical volatility rows.
    """

    def __init__(self, message, classification=None):
        super().__init__(message)
        self.classification = classification


class SingularMarketError(DegenerateMarketError):
    """The instantaneous covariance matrix is singular (rank-deficient factors).

    ``classification`` is SHARED_RISK_CONSTRAINT or ARBITRAGE when
    :func:`tcmv.model1.diagnose_one_factor` finds two stocks on a single
    Brownian motion, else None.
    """


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
