"""Time-consistent mean-variance portfolio selection.

Equilibrium feedback strategies for three settings: a closed form with a
risk-free bank account, a variance-only objective with two stocks and no
bank account, and the full mean-variance objective with two stocks and no
bank account (gain k1 plus intercept k2 via a Volterra equation), together
with analytic terminal-wealth moments and Monte Carlo validation.
"""

from .errors import (
    CoefficientRangeError,
    ConfigError,
    DegenerateAssetError,
    DegenerateMarketError,
    InvalidCorrelationError,
    MarketValidationError,
    NonConvergenceError,
    SimulationExplosionError,
    SingularMarketError,
    TcmvError,
)
from .market import (
    CorrelationSpec,
    MarketParams,
    ObjectiveSpec,
    decorrelate,
    market_price_of_risk,
    price_covariance,
    validate_distinct_volatility,
)
from .model1 import Model1Solution, diagnose_one_factor, solve_model1
from .model2 import Model2Solution, Model2Values, evaluate_model2, solve_model2
from .model3 import Model3Solution, solve_model3
from .montecarlo import FeedbackStrategy, SimConfig, SimulationReport, simulate
from .numerics import PicardConfig, SampledFunction, TimeGrid, convergence_bound

__version__ = "0.1.0"

__all__ = [
    "CoefficientRangeError",
    "ConfigError",
    "CorrelationSpec",
    "DegenerateAssetError",
    "DegenerateMarketError",
    "FeedbackStrategy",
    "InvalidCorrelationError",
    "MarketParams",
    "MarketValidationError",
    "Model1Solution",
    "Model2Solution",
    "Model2Values",
    "Model3Solution",
    "NonConvergenceError",
    "ObjectiveSpec",
    "PicardConfig",
    "SampledFunction",
    "SimConfig",
    "SimulationExplosionError",
    "SimulationReport",
    "SingularMarketError",
    "TcmvError",
    "TimeGrid",
    "convergence_bound",
    "decorrelate",
    "diagnose_one_factor",
    "evaluate_model2",
    "market_price_of_risk",
    "price_covariance",
    "simulate",
    "solve_model1",
    "solve_model2",
    "solve_model3",
    "validate_distinct_volatility",
]
