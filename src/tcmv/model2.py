"""Variance-only objective with two stocks and no bank account, and the
moment triple and Equilibrium record of all three models.

The equilibrium allocation is u^(t, x) = k(t) x where k solves a nonlinear
backward integral equation.  The mean-variance model's gain k1 solves the
same equation, so its wealth under u^ = k1 x + k2 is this model's with
k2 = 0.  Everything their MomentCoefficients need is in the KernelTables of
k and free of risk aversion: I1(t,T)^{-1}, c0 and the tail S(t) = int_t^T
I2(v,T) dv, formed once per kernel build and shared by this model, with no
load, and every gamma of model 3, with the load theta~^2 S(t).

The records are named tuples of values, each fact held once:
Model2Solution holds the market, k on its grid (k.grid) and its solve's
PicardResult, whose final iterate is the array k.values; what a record
derives, the moments' scales and the kernels' M3, is a property formed on
each read.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import ConfigError
from .market import (MarketParams, _coeffs, _require_finite, factor_sum, square,
                     validate_distinct_volatility)
from .numerics import (
    PicardConfig,
    PicardResult,
    SampledFunction,
    TimeGrid,
    forward_integrals,
    picard_solve,
    tail_integrals,
)

if TYPE_CHECKING:
    from .montecarlo import Strategy


def portfolio_variance_rate(params: MarketParams, k: np.ndarray) -> np.ndarray:
    """|sigma_2 + k (sigma_1 - sigma_2)|^2, the instantaneous variance rate
    of the wealth under the fraction-of-wealth gain k."""
    s2, ds, _, _, _ = _coeffs(params)
    return factor_sum([(s + k * d) ** 2 for s, d in zip(s2, ds)])


def gain_equation_map(params: MarketParams, grid: TimeGrid):
    """Fixed-point map of the backward equation for the wealth-proportional
    gain.  Shared verbatim by the mean-variance model's k1."""
    _, _, denom, csig, dalpha = _coeffs(params)
    dt = grid.dt

    def step(k: np.ndarray) -> np.ndarray:
        tail = tail_integrals(portfolio_variance_rate(params, k), dt)
        return (dalpha * np.expm1(-tail) - csig) / denom

    return step


def gain_residual(params: MarketParams, grid: TimeGrid, k: np.ndarray) -> float:
    """Sup-norm defect when k is substituted back into its own equation."""
    return float(np.max(np.abs(gain_equation_map(params, grid)(k) - k)))


class Model2Solution(NamedTuple):
    params: MarketParams
    k: SampledFunction  # fraction of wealth in stock 1, on the solve's grid
    solve: PicardResult  # its Picard solve: sweeps, final delta, every iterate

    def unit_coefficients(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The Monte Carlo strategy u = k x: G = (k, 1 - k) and b1 = 0 at
        each time, (len(times), 2) each."""
        k = self.k(times)
        G = np.stack([k, 1.0 - k], axis=-1)
        return G, np.zeros_like(G)


def solve_model2(
    params: MarketParams,
    grid: TimeGrid,
    cfg: PicardConfig | None = None,
) -> Model2Solution:
    """Solve the backward integral equation for k by Picard iteration: the
    variance-only k, and the mean-variance k1, which does not depend on
    risk aversion.  CoefficientRangeError before any sweep when the
    volatility gap denom, csig, theta~^2 = dalpha^2 / denom or a row's
    |sigma_i|^2, a variance rate the sweeps form, overflows.  ConfigError
    when dt theta~^2 >= 4: each node of the trapezoid sweep solves tau -
    (dt/2) f(tau) = c for the variance tail, f(tau) = sigma_mv^2 + theta~^2
    (1 - e^{-tau})^2 of slope at most theta~^2 / 2, with one root only below 4.

    Picard starts from the terminal value k(T) = -csig / denom = w1, the
    weight of stock 1 in the minimum-variance portfolio, held constant; its
    first sweep forms the variance rate f(w1) = sigma_mv^2 <= |sigma_2|^2.
    NonConvergenceError when max_iter sweeps do not reach tol."""
    validate_distinct_volatility(params)
    _, _, denom, csig, dalpha = _coeffs(params)
    with np.errstate(over="ignore", invalid="ignore"):
        theta_sq = dalpha * dalpha / denom
        norms = [factor_sum(row * row) for row in params.sigma]
        coarseness = grid.dt * theta_sq
        # the fewest steps n with T theta~^2 / n < 4
        least_steps = np.floor(grid.T * theta_sq / 4.0) + 1.0
    _require_finite(f"over the horizon T={grid.T:g}", denom, csig, theta_sq, *norms)
    if coarseness >= 4.0:
        raise ConfigError(
            f"grid too coarse for the market over the horizon T={grid.T:g}: "
            f"dt*theta~^2 = {coarseness:.6g} must be below 4, "
            f"which takes at least {least_steps:.15g} grid steps")
    result = picard_solve(gain_equation_map(params, grid),
                          np.full(grid.n_nodes, -csig / denom), cfg)
    return Model2Solution(params, SampledFunction(grid, result.values), result)


class KernelTables(NamedTuple):
    """Exponential kernels of a gain k1, stored separably, and the tables
    the moments and the intercept check read.  With A(t) = int_0^t {a2 +
    k1 (a1-a2)} and B(t) = int_0^t of the portfolio variance rate,

    I1(t,v) = exp(A(t) - A(v)),
    I2(t,v) = exp(B(t) - B(v)),
    I3(t,v) = dalpha * I2(t,T) - h(v) * I2(t,v),
    with h(v) = dalpha + ds . {sigma_2 + k1(v) ds}, ds = sigma_1 - sigma_2,
    summed over the factors.

    I1 and I2 give the moments of wealth under u = k1 x; the mean-variance
    model's intercept equation adds I3.  build_kernels forms every table
    below once from A, B and h, which it does not keep; M3 reads the factors.
    """

    grid: TimeGrid
    lam: float  # dalpha / denom
    dalpha: float
    i1_inv: SampledFunction  # I1(t,T)^{-1} = e^{A(T)-A(t)}
    c0: SampledFunction  # e^{B(T)-B(t)} - 1: the x^2 coefficient of the variance
    unit_intercept: SampledFunction  # phi_1 = lam I1(t,T) I2(t,T), k2 at gamma = 1
    i2_tail: SampledFunction  # S(t) = int_t^T I2(v,T) dv
    # (f, g) with I1(t,v) I3(t,v) = f(t) g(v) at every node: f(t) =
    # e^{A(t)+B(t)} > 0 and g(v) = e^{-A(v)} {dalpha e^{-B(T)} - h(v) e^{-B(v)}}
    kernel_factors: tuple[np.ndarray, np.ndarray]

    @property
    def theta_sq(self) -> float:
        """dalpha^2 / denom, the squared Sharpe ratio of long stock 1, short stock 2."""
        return self.lam * self.dalpha

    @property
    def M3(self) -> float:
        """sup over grid pairs t <= v of |I1(t,v) I3(t,v)| = max_v |g(v)|
        max_{t<=v} f(t), in O(N)."""
        f, g = self.kernel_factors
        return float(np.max(np.abs(g) * np.maximum.accumulate(f)))


def build_kernels(params: MarketParams, k1: SampledFunction) -> KernelTables:
    """Kernel tables of the gain k1 on its grid; CoefficientRangeError when a
    table, I1(t,T)^{-1}, c0, phi_1, S, f or g, leaves the float64 range."""
    s2, ds, denom, _, dalpha = _coeffs(params)
    k, grid = k1.values, k1.grid
    a = forward_integrals(params.alpha[1] + k * dalpha, grid.dt)
    b = forward_integrals(portfolio_variance_rate(params, k), grid.dt)
    h = sum((d * (s + k * d) for s, d in zip(s2, ds)), dalpha)
    lam = dalpha / denom
    with np.errstate(over="ignore", invalid="ignore"):
        i1_inv = np.exp(a[-1] - a)
        c0 = np.expm1(b[-1] - b)
        phi = lam * np.exp(a - a[-1]) * np.exp(b - b[-1])
        tail = tail_integrals(np.exp(b - b[-1]), grid.dt)
        f = np.exp(a + b)
        g = np.exp(-a) * (dalpha * np.exp(-b[-1]) - h * np.exp(-b))
    _require_finite(f"over the horizon T={grid.T:g}", i1_inv, c0, phi, tail, f, g)
    return KernelTables(
        grid, lam, dalpha,
        *(SampledFunction(grid, table) for table in (i1_inv, c0, phi, tail)),
        (f, g),
    )


class MomentCoefficients(NamedTuple):
    """Conditional moments of terminal wealth, the one form of all three
    models, with g(t) the growth of a unit of wealth and L = sharpe_sq tail(t):

    mean(t, x)     = g(t) x + L(t) / gamma
    variance(t, x) = g(t)^2 c0(t) x^2 + L(t) / gamma^2
    value(t, x)    = mean(t, x) - (gamma / 2) variance(t, x), the reward

    Model 1 has g = e^{r(T-t)}, c0 = 0 and L = theta^2 (T - t); models 2
    and 3 have g = I1(t,T)^{-1} and c0 of their gain's kernels, and L = 0
    and theta~^2 S(t) (kernel_moments).
    """

    gamma: float
    growth: Callable  # g(t)
    c0: Callable
    sharpe_sq: float  # theta^2, theta~^2, or 0 for no load
    tail: Callable  # T - t or S(t)

    @property
    def scales(self) -> tuple[float, float]:
        """sharpe_sq / gamma and sharpe_sq / gamma^2, numpy scalars that
        overflow to inf; no Sharpe ratio carries no load, even where
        gamma^2 underflows to 0."""
        if not self.sharpe_sq:
            return 0.0, 0.0
        load = np.float64(self.sharpe_sq)
        with np.errstate(over="ignore", divide="ignore"):
            return load / self.gamma, load / square(self.gamma)

    def mean(self, t, x):
        return self.growth(t) * x + self.scales[0] * self.tail(t)

    def variance(self, t, x):
        g = self.growth(t)
        # g (g c0 x^2): where c0 = 0, an overflowing g^2 would give inf * 0
        return g * (g * (self.c0(t) * x * x)) + self.scales[1] * self.tail(t)

    def value(self, t, x):
        return self.mean(t, x) - 0.5 * self.gamma * self.variance(t, x)


class Equilibrium(NamedTuple):
    """One model's equilibrium at one (gamma, T): its Monte Carlo strategy,
    (G, b1) at gamma = 1, and its moment triple at that gamma."""

    strategy: Strategy  # anything with unit_coefficients; named, not imported
    moments: MomentCoefficients


def kernel_moments(kernels: KernelTables, gamma: float, sharpe_sq: float) -> MomentCoefficients:
    """Moments of u = k1 x + k2 on the kernels of the solved k1, where I3 = 0
    leaves no x-linear term: g = I1(t,T)^{-1}, the kernels' c0 and the load
    sharpe_sq S(t), 0 for model 2's k2 = 0, theta~^2 for model 3's phi_1 / gamma."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return MomentCoefficients(float(gamma), kernels.i1_inv, kernels.c0, sharpe_sq, kernels.i2_tail)


def evaluate_model2(params: MarketParams, k: SampledFunction, gamma: float) -> MomentCoefficients:
    """Terminal wealth moments and value of a solved k."""
    return kernel_moments(build_kernels(params, k), gamma, 0.0)
