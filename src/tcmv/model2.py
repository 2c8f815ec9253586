"""Variance-only objective with two stocks and no bank account.

The equilibrium allocation is u^(t, x) = k(t) x where k solves a nonlinear
backward integral equation; given k, expected wealth and variance follow
from exponentials of backward integrals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMarketError
from .market import MarketParams, validate_distinct_volatility
from .numerics import (
    PicardConfig,
    PicardResult,
    SampledFunction,
    TimeGrid,
    picard_solve,
    tail_integrals,
)


def _coeffs(params: MarketParams):
    """Recurring scalar combinations of the two-stock parameters."""
    (s11, s12), (s21, s22) = params.sigma
    ds1, ds2 = s11 - s21, s12 - s22
    denom = ds1 * ds1 + ds2 * ds2
    csig = s21 * ds1 + s22 * ds2
    dalpha = params.alpha[0] - params.alpha[1]
    return s21, s22, ds1, ds2, denom, csig, dalpha


def portfolio_variance_rate(params: MarketParams, k: np.ndarray) -> np.ndarray:
    """{s21 + k (s11-s21)}^2 + {s22 + k (s12-s22)}^2, the instantaneous
    variance rate of the wealth under the fraction-of-wealth gain k."""
    s21, s22, ds1, ds2, _, _, _ = _coeffs(params)
    return (s21 + k * ds1) ** 2 + (s22 + k * ds2) ** 2


def gain_equation_map(params: MarketParams, grid: TimeGrid):
    """Fixed-point map of the backward equation for the wealth-proportional
    gain.  Shared verbatim by the mean-variance model's k1."""
    _, _, _, _, denom, csig, dalpha = _coeffs(params)
    dt = grid.dt

    def step(k: np.ndarray) -> np.ndarray:
        tail = tail_integrals(portfolio_variance_rate(params, k), dt)
        return (dalpha * np.expm1(-tail) - csig) / denom

    return step


def gain_residual(params: MarketParams, grid: TimeGrid, k: np.ndarray) -> float:
    """Sup-norm defect when k is substituted back into its own equation."""
    return float(np.max(np.abs(gain_equation_map(params, grid)(k) - k)))


def gain_iterate_bounds(params: MarketParams) -> tuple[float, float]:
    """Uniform bounds holding for every iterate (n >= 1) and the solution."""
    _, _, _, _, denom, csig, dalpha = _coeffs(params)
    a = -csig / denom
    b = -(csig + dalpha) / denom
    return min(a, b), max(a, b)


def solve_gain(
    params: MarketParams,
    grid: TimeGrid,
    cfg: PicardConfig | None = None,
    record_history: bool = False,
) -> PicardResult:
    """Picard solve of the gain equation: the variance-only k, and the
    mean-variance k1, which does not depend on risk aversion."""
    check = validate_distinct_volatility(params)
    if not check.passed:
        raise DegenerateMarketError(check)
    return picard_solve(
        gain_equation_map(params, grid), grid.n_nodes, cfg, record_history
    )


@dataclass(frozen=True)
class Model2Solution:
    params: MarketParams
    grid: TimeGrid
    k: SampledFunction  # fraction of wealth in stock 1
    iterations: int
    delta: float
    history: list[np.ndarray] | None = None

    def control(self, t, x):
        """Dollar amounts (stock 1, stock 2) at time t and wealth x."""
        u1 = self.k(t) * x
        return u1, x - u1


def solve_model2(
    params: MarketParams,
    grid: TimeGrid,
    cfg: PicardConfig | None = None,
    record_history: bool = False,
) -> Model2Solution:
    """Solve the backward integral equation for k by Picard iteration."""
    result = solve_gain(params, grid, cfg, record_history)
    return Model2Solution(
        params,
        grid,
        SampledFunction(grid, result.values),
        result.iterations,
        result.delta,
        result.history,
    )


@dataclass(frozen=True)
class Model2Values:
    """Expected-wealth multiplier a, value multiplier A, and the terminal
    moments they generate: E = a(t) x, Var = -(2/gamma) A(t) x^2."""

    grid: TimeGrid
    gamma: float
    a: SampledFunction
    A: SampledFunction
    var_factor: SampledFunction  # Var(t, x) = var_factor(t) x^2

    def mean(self, t, x):
        return self.a(t) * x

    def variance(self, t, x):
        return self.var_factor(t) * x * x

    def expected_wealth(self, t, x):
        return self.mean(t, x)

    def value(self, t, x):
        return self.A(t) * x * x


def evaluate_model2(
    params: MarketParams, k: SampledFunction, gamma: float
) -> Model2Values:
    """Evaluate a(t), A(t) and the terminal wealth moments from a solved k."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    grid = k.grid
    _, _, _, _, _, _, dalpha = _coeffs(params)
    drift = params.alpha[1] + k.values * dalpha
    tail_drift = tail_integrals(drift, grid.dt)
    tail_var = tail_integrals(portfolio_variance_rate(params, k.values), grid.dt)
    a = np.exp(tail_drift)
    var_factor = a * a * np.expm1(tail_var)
    big_a = -(gamma / 2.0) * var_factor
    return Model2Values(
        grid,
        gamma,
        SampledFunction(grid, a),
        SampledFunction(grid, big_a),
        SampledFunction(grid, var_factor),
    )
