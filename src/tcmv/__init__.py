"""Time-consistent mean-variance portfolio selection.

Equilibrium feedback strategies for three settings: a closed form with a
risk-free bank account, a variance-only objective with two stocks and no
bank account, and the full mean-variance objective with two stocks and no
bank account (gain k1 plus intercept k2 via a Volterra equation), together
with analytic terminal-wealth moments and Monte Carlo validation.

The Monte Carlo engine loads on first use: simulate, simulate_models and
SimulationReport resolve through the module __getattr__ (PEP 562), so
importing the package, or solving, never loads tcmv.montecarlo.
"""

from .errors import (
    CoefficientRangeError,
    ConfigError,
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
    validate_distinct_volatility,
)
from .model1 import Model1Solution, diagnose_one_factor, solve_model1
from .model2 import Model2Solution, evaluate_model2, solve_model2
from .model3 import Model3Solution, solve_model3
from .numerics import (
    PicardConfig,
    SampledFunction,
    SimConfig,
    TimeGrid,
    convergence_bound,
)

_MONTECARLO = ("SimulationReport", "simulate", "simulate_models")


def __getattr__(name: str):
    if name in _MONTECARLO:
        from . import montecarlo

        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__version__ = "0.1.0"

__all__ = [
    "CoefficientRangeError",
    "ConfigError",
    "CorrelationSpec",
    "DegenerateMarketError",
    "InvalidCorrelationError",
    "MarketParams",
    "MarketValidationError",
    "Model1Solution",
    "Model2Solution",
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
    "simulate",
    "simulate_models",
    "solve_model1",
    "solve_model2",
    "solve_model3",
    "validate_distinct_volatility",
]
