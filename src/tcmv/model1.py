"""Equilibrium mean-variance allocation with a risk-free bank account.

The control is wealth-independent and available in closed form:
u^(t) = (1/gamma) e^{-r(T-t)} (sigma sigma^T)^{-1} (alpha - r 1).
The value function and the expected-wealth function are affine in wealth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateAssetError, SingularMarketError
from .market import EQUAL_PRICE_OF_RISK_TOL, MarketParams, ObjectiveSpec

# Condition-number threshold above which sigma sigma^T counts as singular.
CONDITION_LIMIT = 1e10

# Classifications of the one-factor (singular covariance) market.
SHARED_RISK_CONSTRAINT = "shared-risk-constraint"
ARBITRAGE = "arbitrage"


@dataclass(frozen=True)
class Model1Solution:
    params: MarketParams
    obj: ObjectiveSpec
    weights: np.ndarray  # (sigma sigma^T)^{-1} (alpha - r 1)
    theta_sq: float  # (alpha - r 1)^T (sigma sigma^T)^{-1} (alpha - r 1)

    def control(self, t) -> np.ndarray:
        """Dollar amounts in each stock at time t, independent of wealth:
        (n_stocks,) at one time, (len(t), n_stocks) at an array of times."""
        r, T = self.params.r, self.obj.horizon_T
        return np.multiply.outer(np.exp(-r * (T - t)) / self.obj.gamma, self.weights)

    def unit_control(self, t) -> np.ndarray:
        """The control at gamma = 1, which control() scales by 1/gamma."""
        r, T = self.params.r, self.obj.horizon_T
        return np.multiply.outer(np.exp(-r * (T - t)), self.weights)

    def expected_wealth(self, t: float, x: float) -> float:
        """g(t, x) = E[X_T] under the equilibrium control."""
        r, T = self.params.r, self.obj.horizon_T
        return np.exp(r * (T - t)) * x + self.theta_sq * (T - t) / self.obj.gamma

    def value(self, t: float, x: float) -> float:
        """V(t, x) = E[X_T] - (gamma/2) Var[X_T]."""
        r, T = self.params.r, self.obj.horizon_T
        return np.exp(r * (T - t)) * x + self.theta_sq * (T - t) / (2 * self.obj.gamma)

    def terminal_variance(self, t: float) -> float:
        """Var[X_T] = (2/gamma)(g - V) = theta_sq (T - t) / gamma^2."""
        return self.theta_sq * (self.obj.horizon_T - t) / self.obj.gamma**2


@dataclass(frozen=True)
class Model1Strategy:
    """Wealth-independent dollars from the closed-form equilibrium."""

    solution: Model1Solution

    @property
    def gamma(self) -> float:
        return self.solution.obj.gamma

    def unit_coefficients(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """G = 0 and b1 = the closed-form control at gamma = 1 at each time."""
        b1 = self.solution.unit_control(times)
        return np.zeros_like(b1), b1

    def coefficients(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """G = 0 and b = the closed-form control at each time."""
        b = self.solution.control(times)
        return np.zeros_like(b), b


def solve_model1(params: MarketParams, obj: ObjectiveSpec) -> Model1Solution:
    """Closed-form equilibrium with a bank account; any number of stocks.

    A numerically singular covariance is routed to the one-factor diagnosis
    and reported through SingularMarketError.
    """
    cov = params.sigma @ params.sigma.T
    cond = np.linalg.cond(cov)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        diagnosis = None
        try:
            diagnosis = diagnose_one_factor(params, obj)
        except ValueError:
            pass
        raise SingularMarketError(
            "instantaneous covariance matrix is singular; no unique equilibrium",
            diagnosis=diagnosis,
        )
    excess = params.alpha - params.r
    weights = np.linalg.solve(cov, excess)
    return Model1Solution(params, obj, weights, float(excess @ weights))


@dataclass(frozen=True)
class OneFactorDiagnosis:
    """Outcome of the single-Brownian-motion analysis for two stocks.

    With equal market prices of risk the control is non-unique: only the
    combination s11 u1 + s21 u2 is pinned down, and V and g are still
    available.  With unequal prices of risk there is no equilibrium
    (arbitrage between the co-driven stocks).
    """

    params: MarketParams
    obj: ObjectiveSpec
    classification: str  # SHARED_RISK_CONSTRAINT or ARBITRAGE
    prices_of_risk: tuple[float, float]
    message: str

    @property
    def equal_price_of_risk(self) -> bool:
        return self.classification == SHARED_RISK_CONSTRAINT

    def _require_constraint_case(self):
        if not self.equal_price_of_risk:
            raise ValueError("no equilibrium exists in the arbitrage case")

    def constraint_value(self, t: float) -> float:
        """Target of s11 u1 + s21 u2: (1/gamma) theta e^{-r(T-t)}."""
        self._require_constraint_case()
        r, T = self.params.r, self.obj.horizon_T
        return self.prices_of_risk[0] * np.exp(-r * (T - t)) / self.obj.gamma

    def expected_wealth(self, t: float, x: float) -> float:
        self._require_constraint_case()
        r, T = self.params.r, self.obj.horizon_T
        theta = self.prices_of_risk[0]
        return np.exp(r * (T - t)) * x + theta**2 * (T - t) / self.obj.gamma

    def value(self, t: float, x: float) -> float:
        self._require_constraint_case()
        r, T = self.params.r, self.obj.horizon_T
        theta = self.prices_of_risk[0]
        return np.exp(r * (T - t)) * x + theta**2 * (T - t) / (2 * self.obj.gamma)


def diagnose_one_factor(params: MarketParams, obj: ObjectiveSpec) -> OneFactorDiagnosis:
    """Classify a two-stock market driven by a single Brownian motion."""
    if params.n_stocks != 2:
        raise ValueError("one-factor diagnosis applies to two-stock markets")
    scale = max(1.0, float(np.max(np.abs(params.sigma))))
    if params.n_factors > 1 and np.max(np.abs(params.sigma[:, 1:])) > 1e-12 * scale:
        raise ValueError("market is not effectively one-factor (column 2 not ~0)")
    s1, s2 = params.sigma[0, 0], params.sigma[1, 0]
    if s1 == 0.0 or s2 == 0.0:
        raise DegenerateAssetError("one-factor diagnosis needs both loadings nonzero")
    theta1 = (params.alpha[0] - params.r) / s1
    theta2 = (params.alpha[1] - params.r) / s2
    if abs(theta1 - theta2) <= EQUAL_PRICE_OF_RISK_TOL * max(1.0, abs(theta1), abs(theta2)):
        return OneFactorDiagnosis(
            params,
            obj,
            SHARED_RISK_CONSTRAINT,
            (theta1, theta2),
            "equal market prices of risk: allocations on the constraint line "
            "are all equilibria",
        )
    return OneFactorDiagnosis(
        params,
        obj,
        ARBITRAGE,
        (theta1, theta2),
        "no equilibrium exists: unequal market prices of risk on one "
        "Brownian motion imply arbitrage",
    )
