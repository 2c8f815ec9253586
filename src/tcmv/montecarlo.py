"""Euler-Maruyama simulation of the wealth process under feedback
strategies, with Monte Carlo estimates of the terminal mean, variance and
mean-variance reward.

Randomness contract: Gaussian increments come from counter-based Philox
streams keyed by (seed, block index) over fixed-size path blocks, so the
same seed and config give bit-identical results regardless of evaluation
order and thread count.  The wealth SDE is simulated in levels, not logs:
dollar strategies with an intercept can legitimately push wealth through
zero.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
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

# A block's normals are min(n_paths, _BLOCK) x n_time_steps x n_factors
# float64s, and up to `threads` blocks are alive at once; larger blocks are
# refused when the config is loaded instead of exhausting memory mid-run.
MAX_BLOCK_BYTES = 512 * 2**20

# Paths may explode under aggressive dollar strategies; more than this
# fraction of non-finite paths is an error instead of a silent exclusion.
_MAX_EXPLODED_FRACTION = 1e-3

Strategy = Callable[[float, np.ndarray], np.ndarray]
"""Maps (time, wealth vector of shape (m,)) to dollars of shape (m, n_stocks)."""

Allocation = Callable[[int, np.ndarray], np.ndarray]
"""A strategy on a fixed time grid: maps (node index, wealth) to dollars."""


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
        if not np.isfinite(self.x0):
            raise ValueError(f"initial wealth x0 must be finite, got {self.x0}")


def block_nbytes(cfg: SimConfig, n_factors: int) -> int:
    """Bytes of Gaussian increments in the largest block of one simulation."""
    return min(cfg.n_paths, _BLOCK) * cfg.n_time_steps * n_factors * 8


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


def _feedback_dollars(k1, k2, x: np.ndarray) -> np.ndarray:
    u1 = k1 * x
    if k2 is not None:
        u1 = u1 + k2
    return np.stack([u1, x - u1], axis=-1)


@dataclass(frozen=True)
class FeedbackStrategy:
    """u^(t, x) = k1(t) x + k2(t) dollars in stock 1, remainder in stock 2."""

    k1: SampledFunction
    k2: SampledFunction | None = None

    def __call__(self, t: float, x: np.ndarray) -> np.ndarray:
        return _feedback_dollars(self.k1(t), None if self.k2 is None else self.k2(t), x)

    def on_grid(self, times: np.ndarray) -> Allocation:
        """The same dollars with k1 and k2 interpolated once, at every node."""
        k1 = self.k1(times)
        if self.k2 is None:
            return lambda i, x: _feedback_dollars(k1[i], None, x)
        k2 = self.k2(times)
        return lambda i, x: _feedback_dollars(k1[i], k2[i], x)


def _constant_dollars(u: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.broadcast_to(u, (x.shape[0], u.size)).copy()


@dataclass(frozen=True)
class Model1Strategy:
    """Wealth-independent dollar vector from the closed-form equilibrium."""

    solution: Model1Solution

    def __call__(self, t: float, x: np.ndarray) -> np.ndarray:
        return _constant_dollars(self.solution.control(t), x)

    def on_grid(self, times: np.ndarray) -> Allocation:
        u = [self.solution.control(t) for t in times]
        return lambda i, x: _constant_dollars(u[i], x)


def _on_grid(strategy: Strategy, times: np.ndarray) -> Allocation:
    """A strategy sampled at the nodes, or evaluated at each node if it
    cannot sample itself."""
    on_grid = getattr(strategy, "on_grid", None)
    if on_grid is not None:
        return on_grid(times)
    return lambda i, x: strategy(times[i], x)


def _block_normals(seed: int, block: int, shape: tuple[int, ...]) -> np.ndarray:
    key = np.array([seed, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).standard_normal(shape)


def _row_sums(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=1), bitwise.  numpy sums a two-column row as
    (0.0 + a0) + a1 in a loop of its own per row, which costs several times
    the arithmetic, so two columns are added whole in that order."""
    if a.shape[1] != 2:
        return a.sum(axis=1)
    return (a[:, 0] + 0.0) + a[:, 1]


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.einsum("ij,ij->i", a, b), bitwise: for two columns einsum also
    forms (0.0 + a0 b0) + a1 b1."""
    if a.shape[1] != 2:
        return np.einsum("ij,ij->i", a, b)
    return _row_sums(a * b)


def _euler_step(
    params: MarketParams, u: np.ndarray, x: np.ndarray, dt: float, dw: np.ndarray
) -> np.ndarray:
    """Wealth after one step from x under dollars u, (m, n_stocks), on the
    Brownian increments dw, (m, d)."""
    cash = x - _row_sums(u)
    drift = params.r * cash + u @ params.alpha
    vol = u @ params.sigma  # (m, d) diffusion loadings
    return x + drift * dt + _row_dots(vol, dw)


def _run_blocks(
    draw: Callable[[int], np.ndarray],
    step: Callable[[int, np.ndarray], None],
    n_blocks: int,
    threads: int,
):
    """step(b, draw(b)) for b = 0, ..., n_blocks - 1, in order, with up to
    threads - 1 blocks drawn ahead on worker threads.

    numpy releases the GIL for a whole Philox fill, so the draws overlap
    the stepping of the block before them.  Stepping stays on the calling
    thread: its numpy calls on one block take a few microseconds each, and
    threads stepping blocks side by side lose more to handing the GIL back
    and forth than they gain.  At most ``threads`` blocks are alive at
    once: the one being stepped and those drawn ahead.
    """
    ahead = min(threads, n_blocks) - 1
    if ahead < 1:
        for block in range(n_blocks):
            step(block, draw(block))
        return
    with ThreadPoolExecutor(max_workers=ahead) as pool:
        pending = deque(pool.submit(draw, b) for b in range(ahead))
        for block in range(n_blocks):
            if block + ahead < n_blocks:
                pending.append(pool.submit(draw, block + ahead))
            step(block, pending.popleft().result())


def simulate_models(
    params: MarketParams,
    strategies: dict[str, Strategy],
    obj: ObjectiveSpec,
    cfg: SimConfig,
    threads: int = 1,
) -> dict[str, SimulationReport]:
    """Euler-Maruyama over [0, T] for every strategy on common increments;
    cash (wealth minus invested dollars) accrues the risk-free rate, which
    is vacuous for strategies investing the full wealth.

    Each block's normals are drawn once; every step scales one contiguous
    slice of them and drives every strategy with it.  Strategies are
    sampled once on the time grid.  With ``threads`` > 1, worker threads
    draw the next blocks while this one steps (see :func:`_run_blocks`);
    each block is drawn from its own stream and stepped in order, so every
    thread count gives identical reports.
    """
    T = obj.horizon_T
    n_steps = cfg.n_time_steps
    dt = T / n_steps
    sqdt = np.sqrt(dt)
    times = np.linspace(0.0, T, n_steps + 1)
    allocations = {name: _on_grid(s, times) for name, s in strategies.items()}
    terminal = {name: np.empty(cfg.n_paths) for name in strategies}
    alive = {name: np.empty(cfg.n_paths, dtype=bool) for name in strategies}

    def draw(block: int) -> np.ndarray:
        m = min(_BLOCK, cfg.n_paths - block * _BLOCK)
        return _block_normals(cfg.seed, block, (m, n_steps, params.n_factors))

    def run_block(block: int, normals: np.ndarray):
        m, d = normals.shape[0], normals.shape[2]
        start, stop = block * _BLOCK, block * _BLOCK + m
        x = {name: np.full(m, cfg.x0) for name in strategies}
        ok = {name: np.ones(m, dtype=bool) for name in strategies}
        # a step's normals lie one path apart; as one d-float record per
        # path they are gathered in one strided copy, not one per path
        records = normals.view(np.dtype((np.void, 8 * d)))[..., 0]
        # exploded paths are detected and zeroed out, so overflow inside a
        # step is expected and must not warn
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(n_steps):
                dw = records[:, i].copy().view(np.float64).reshape(m, d)
                dw *= sqdt
                for name, alloc in allocations.items():
                    xi = _euler_step(params, alloc(i, x[name]), x[name], dt, dw)
                    finite = np.isfinite(xi)
                    if not finite.all():
                        ok[name] &= finite
                        xi = np.where(finite, xi, 0.0)
                    x[name] = xi
        for name in strategies:
            terminal[name][start:stop] = x[name]
            alive[name][start:stop] = ok[name]

    _run_blocks(draw, run_block, -(-cfg.n_paths // _BLOCK), threads)

    reports = {}
    for name in strategies:
        n_excluded = int(np.count_nonzero(~alive[name]))
        if n_excluded > _MAX_EXPLODED_FRACTION * cfg.n_paths:
            raise SimulationExplosionError(
                f"{n_excluded} of {cfg.n_paths} paths went non-finite",
                n_excluded,
                cfg.n_paths,
            )
        reports[name] = _report(terminal[name][alive[name]], obj.gamma, n_excluded)
    return reports


def simulate(
    params: MarketParams,
    strategy: Strategy,
    obj: ObjectiveSpec,
    cfg: SimConfig,
) -> SimulationReport:
    """:func:`simulate_models` for one strategy."""
    return simulate_models(params, {"": strategy}, obj, cfg)[""]


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
    wealth follows the Euler scheme of :func:`simulate_models` on one path.
    """
    T = obj.horizon_T
    n_steps = cfg.n_time_steps
    dt = T / n_steps
    times = np.linspace(0.0, T, n_steps + 1)
    # separate key namespace from the block streams used by simulate_models()
    dw = _block_normals(cfg.seed, 2**63, (n_steps, params.n_factors)) * np.sqrt(dt)
    w = np.vstack([np.zeros(params.n_factors), np.cumsum(dw, axis=0)])

    log_drift = params.alpha - 0.5 * np.sum(params.sigma**2, axis=1)
    prices = np.exp(times[:, None] * log_drift[None, :] + w @ params.sigma.T)

    tables = PathTables(times, prices)
    for name, strategy in strategies.items():
        alloc = _on_grid(strategy, times)
        x = np.array([cfg.x0])
        wealth = np.empty(n_steps + 1)
        u1 = np.empty(n_steps + 1)
        u2 = np.empty(n_steps + 1)
        for i in range(n_steps + 1):
            u = alloc(i, x)
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
