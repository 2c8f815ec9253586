"""Equilibrium mean-variance allocation with a risk-free bank account.

The control is wealth-independent and available in closed form:
u^(t) = (1/gamma) e^{-r(T-t)} (sigma sigma^T)^{-1} (alpha - r 1).
Its moments are model2.MomentCoefficients in closed form, with growth
e^{r(T-t)}, c0 = 0 and the load theta^2 (T - t): the mean and the value
are affine in wealth, and the variance does not depend on it.
Risk aversion only scales the control, so the solution is its own Monte
Carlo strategy: G = 0 and the control at gamma = 1 as intercept b1, which
a column divides by its objective's gamma.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import SingularMarketError
from .market import EQUAL_PRICE_OF_RISK_TOL, MarketParams, ObjectiveSpec, _require_finite
from .model2 import MomentCoefficients

# Condition-number threshold above which sigma sigma^T counts as singular.
CONDITION_LIMIT = 1e10

# Classifications of the one-factor (singular covariance) market.
SHARED_RISK_CONSTRAINT = "shared-risk-constraint"
ARBITRAGE = "arbitrage"


class Model1Solution(NamedTuple):
    params: MarketParams
    obj: ObjectiveSpec
    weights: np.ndarray  # (sigma sigma^T)^{-1} (alpha - r 1)
    theta_sq: float  # (alpha - r 1)^T (sigma sigma^T)^{-1} (alpha - r 1)

    def unit_control(self, t) -> np.ndarray:
        """Dollars in each stock at time t at gamma = 1, independent of wealth:
        (n_stocks,) at one time, (len(t), n_stocks) at an array of times."""
        r, T = self.params.r, self.obj.horizon_T
        return np.multiply.outer(np.exp(-r * (T - t)), self.weights)

    def control(self, t) -> np.ndarray:
        """The dollars of the equilibrium: unit_control(t) / gamma."""
        return self.unit_control(t) / self.obj.gamma

    def unit_coefficients(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """G = 0 and b1 = unit_control at each time, (len(times), n_stocks) each."""
        b1 = self.unit_control(times)
        return np.zeros_like(b1), b1

    @property
    def moments(self) -> MomentCoefficients:
        """The moment triple in closed form, on no grid: g = e^{r(T-t)}, c0 = 0
        and the load theta_sq (T - t)."""
        r, T = self.params.r, self.obj.horizon_T
        return MomentCoefficients(self.obj.gamma, lambda t: np.exp(r * (T - t)),
                                  lambda t: np.zeros(np.shape(t)), self.theta_sq, lambda t: T - t)

    # perfbench's analytic moments read these two names
    def expected_wealth(self, t, x):
        return self.moments.mean(t, x)

    def terminal_variance(self, t):
        return self.moments.variance(t, 0.0)


def solve_model1(params: MarketParams, obj: ObjectiveSpec) -> Model1Solution:
    """Closed-form equilibrium with a bank account; any number of stocks.

    A numerically singular covariance raises SingularMarketError, classified
    by diagnose_one_factor where that applies.  CoefficientRangeError where
    a value the solution forms at its extremes leaves float64: the control
    at t = 0 and T, e^{-rT} w / gamma and w / gamma; the mean of its moment
    triple at t = 0 and T and x = 0 and 1, with its growth e^{rT} and load
    theta_sq T / gamma; the variance at t = 0 and T, theta_sq T / gamma^2.
    """
    cov = params.sigma @ params.sigma.T
    cond = np.linalg.cond(cov)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise diagnose_one_factor(params) or SingularMarketError(
            "instantaneous covariance matrix is singular; no unique equilibrium")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # refused below
        excess = params.alpha - params.r
        weights = np.linalg.solve(cov, excess)
        solution = Model1Solution(params, obj, weights, float(excess @ weights))
        ends, moments = np.array([0.0, obj.horizon_T]), solution.moments
        extremes = [solution.control(ends), moments.variance(ends, 0.0),
                    moments.mean(ends[:, None], np.array([0.0, 1.0]))]
    _require_finite(f"of the bank-account model over the horizon T={obj.horizon_T:g} "
                    f"at gamma={obj.gamma:g}", *extremes)
    return solution


def diagnose_one_factor(params: MarketParams) -> SingularMarketError | None:
    """The classified SingularMarketError of a two-stock market driven by a
    single Brownian motion; None for any other market, or when a stock does
    not load on that motion.

    With equal market prices of risk the control is non-unique: only the
    combination s11 u1 + s21 u2 is pinned down (SHARED_RISK_CONSTRAINT).
    With unequal prices of risk there is no equilibrium (ARBITRAGE between
    the co-driven stocks).
    """
    if params.n_stocks != 2:
        return None
    scale = max(1.0, float(np.max(np.abs(params.sigma))))
    if params.n_factors > 1 and np.max(np.abs(params.sigma[:, 1:])) > 1e-12 * scale:
        return None
    s1, s2 = params.sigma[0, 0], params.sigma[1, 0]
    if s1 == 0.0 or s2 == 0.0:
        return None
    # exact rationals, so that prices of risk beyond float64 still compare;
    # imported here, where only a one-factor market goes, so that no other
    # run pays for fractions and the decimal module it loads
    from fractions import Fraction

    theta1, theta2 = ((Fraction(a) - Fraction(params.r)) / Fraction(s)
                      for a, s in zip(params.alpha, (s1, s2)))
    if abs(theta1 - theta2) <= Fraction(EQUAL_PRICE_OF_RISK_TOL) * max(1, abs(theta1), abs(theta2)):
        return SingularMarketError(
            f"{SHARED_RISK_CONSTRAINT}: equal market prices of risk: allocations "
            "on the constraint line are all equilibria",
            SHARED_RISK_CONSTRAINT,
        )
    return SingularMarketError(
        f"{ARBITRAGE}: no equilibrium exists: unequal market prices of risk on "
        "one Brownian motion imply arbitrage",
        ARBITRAGE,
    )
