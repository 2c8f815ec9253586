"""Euler-Maruyama simulation of the wealth process under feedback
strategies, with Monte Carlo estimates of the terminal mean, variance and
mean-variance reward.

Randomness contract: Gaussian increments come from counter-based Philox
streams keyed by (seed, block index) over fixed-size path blocks, so the
same seed and config give bit-identical results regardless of evaluation
order.  The wealth SDE is simulated in levels, not logs: dollar strategies
with an intercept can legitimately push wealth through zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import SimulationExplosionError
from .market import MarketParams, ObjectiveSpec
from .model1 import Model1Solution
from .numerics import SampledFunction

# Fixed block size of the per-block Philox streams; part of the
# reproducibility contract, do not make it configurable.
_BLOCK = 4096

# Paths may explode under aggressive dollar strategies; more than this
# fraction of non-finite paths is an error instead of a silent exclusion.
_MAX_EXPLODED_FRACTION = 1e-3

Strategy = Callable[[float, np.ndarray], np.ndarray]
"""Maps (time, wealth vector of shape (m,)) to dollars of shape (m, n_stocks)."""


@dataclass(frozen=True)
class SimConfig:
    n_paths: int
    n_time_steps: int
    seed: int
    x0: float = 1.0

    def __post_init__(self):
        if self.n_paths < 1 or self.n_time_steps < 1:
            raise ValueError("need at least one path and one time step")
        if not 0 <= self.seed < 2**64:
            # the seed is one 64-bit word of the Philox key
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")


@dataclass(frozen=True)
class SimulationReport:
    mean_estimate: float
    variance_estimate: float
    reward_estimate: float  # mean - (gamma/2) variance
    se_mean: float
    se_variance: float
    se_reward: float
    n_effective: int
    n_excluded: int


@dataclass(frozen=True)
class FeedbackStrategy:
    """u^(t, x) = k1(t) x + k2(t) dollars in stock 1, remainder in stock 2."""

    k1: SampledFunction
    k2: SampledFunction | None = None

    def __call__(self, t: float, x: np.ndarray) -> np.ndarray:
        u1 = self.k1(t) * x
        if self.k2 is not None:
            u1 = u1 + self.k2(t)
        return np.stack([u1, x - u1], axis=-1)


def model1_strategy(solution: Model1Solution) -> Strategy:
    """Wealth-independent dollar vector from the closed-form equilibrium."""

    def alloc(t: float, x: np.ndarray) -> np.ndarray:
        u = solution.control(t)
        return np.broadcast_to(u, (x.shape[0], u.size)).copy()

    return alloc


def _block_normals(seed: int, block: int, shape: tuple[int, ...]) -> np.ndarray:
    key = np.array([seed, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).standard_normal(shape)


def simulate(
    params: MarketParams,
    strategy: Strategy,
    obj: ObjectiveSpec,
    cfg: SimConfig,
) -> SimulationReport:
    """Euler-Maruyama over [0, T]; cash (wealth minus invested dollars)
    accrues the risk-free rate, which is vacuous for strategies investing
    the full wealth."""
    T = obj.horizon_T
    n_steps = cfg.n_time_steps
    dt = T / n_steps
    sqdt = np.sqrt(dt)
    alpha, sigma, r = params.alpha, params.sigma, params.r
    times = np.linspace(0.0, T, n_steps + 1)

    terminal = np.empty(cfg.n_paths)
    alive = np.ones(cfg.n_paths, dtype=bool)
    for block, start in enumerate(range(0, cfg.n_paths, _BLOCK)):
        stop = min(start + _BLOCK, cfg.n_paths)
        m = stop - start
        dw = _block_normals(cfg.seed, block, (m, n_steps, params.n_factors)) * sqdt
        x = np.full(m, cfg.x0)
        ok = np.ones(m, dtype=bool)
        # exploded paths are detected and zeroed out, so overflow inside a
        # step is expected and must not warn
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(n_steps):
                u = strategy(times[i], x)
                cash = x - u.sum(axis=1)
                drift = r * cash + u @ alpha
                vol = u @ sigma  # (m, d) diffusion loadings
                x = x + drift * dt + np.einsum("ij,ij->i", vol, dw[:, i, :])
                bad = ~np.isfinite(x)
                if bad.any():
                    ok &= ~bad
                    x = np.where(bad, 0.0, x)
        terminal[start:stop] = x
        alive[start:stop] = ok

    n_excluded = int(np.count_nonzero(~alive))
    if n_excluded > _MAX_EXPLODED_FRACTION * cfg.n_paths:
        raise SimulationExplosionError(
            f"{n_excluded} of {cfg.n_paths} paths went non-finite",
            n_excluded,
            cfg.n_paths,
        )
    return _report(terminal[alive], obj.gamma, n_excluded)


def _report(values: np.ndarray, gamma: float, n_excluded: int) -> SimulationReport:
    n = values.size
    mean = float(np.mean(values))
    centered = values - mean
    m2 = float(np.mean(centered**2))
    m3 = float(np.mean(centered**3))
    m4 = float(np.mean(centered**4))
    var = m2 * n / (n - 1) if n > 1 else 0.0
    se_mean = np.sqrt(var / n) if n > 1 else 0.0
    # delta-method standard error of the sample variance
    se_var = np.sqrt(max(m4 - (n - 3) / (n - 1) * var**2, 0.0) / n) if n > 3 else 0.0
    reward = mean - 0.5 * gamma * var
    var_reward = se_mean**2 + (0.5 * gamma * se_var) ** 2 - gamma * m3 / n
    se_reward = np.sqrt(max(var_reward, 0.0))
    return SimulationReport(
        mean, var, reward, float(se_mean), float(se_var), float(se_reward), n, n_excluded
    )


@dataclass(frozen=True)
class PathTables:
    """One shared pair of stock-price paths plus per-model wealth and
    allocation time series on a common grid (common random numbers)."""

    times: np.ndarray
    prices: np.ndarray  # (n_nodes, 2)
    wealth: dict[str, np.ndarray] = field(default_factory=dict)
    stock1_dollars: dict[str, np.ndarray] = field(default_factory=dict)
    stock2_dollars: dict[str, np.ndarray] = field(default_factory=dict)


def reproduce_figure_paths(
    params: MarketParams,
    obj: ObjectiveSpec,
    strategies: dict[str, Strategy],
    cfg: SimConfig,
) -> PathTables:
    """Drive every model with the same Brownian increments.

    Prices are sampled exactly (log-space GBM on the shared increments);
    wealth follows the Euler scheme of :func:`simulate` on one path.
    """
    T = obj.horizon_T
    n_steps = cfg.n_time_steps
    dt = T / n_steps
    times = np.linspace(0.0, T, n_steps + 1)
    # separate key namespace from the block streams used by simulate()
    dw = _block_normals(cfg.seed, 2**63, (n_steps, params.n_factors)) * np.sqrt(dt)
    w = np.vstack([np.zeros(params.n_factors), np.cumsum(dw, axis=0)])

    log_drift = params.alpha - 0.5 * np.sum(params.sigma**2, axis=1)
    prices = np.exp(times[:, None] * log_drift[None, :] + w @ params.sigma.T)

    tables = PathTables(times, prices)
    for name, strategy in strategies.items():
        x = np.array([cfg.x0])
        wealth = np.empty(n_steps + 1)
        u1 = np.empty(n_steps + 1)
        u2 = np.empty(n_steps + 1)
        for i in range(n_steps + 1):
            u = strategy(times[i], x)
            wealth[i] = x[0]
            u1[i], u2[i] = u[0, 0], u[0, 1]
            if i == n_steps:
                break
            cash = x - u.sum(axis=1)
            drift = params.r * cash + u @ params.alpha
            vol = u @ params.sigma
            x = x + drift * dt + vol @ dw[i]
        tables.wealth[name] = wealth
        tables.stock1_dollars[name] = u1
        tables.stock2_dollars[name] = u2
    return tables
