"""Euler-Maruyama simulation of the wealth process under the equilibrium
strategies, with Monte Carlo estimates of the terminal mean, variance and
mean-variance reward.

Every equilibrium of the package is affine in wealth: a strategy is its
coefficients G(t) and b(t), with u = G x + b dollars in the stocks and the
rest of the wealth in cash at the risk-free rate.  Wealth then follows the
linear SDE dX = (a X + beta) dt + (c X + e) dW, with a = r + G (alpha - r 1),
beta = b (alpha - r 1), c = G sigma and e = b sigma, and one Euler step on
standard normals z is x <- x (1 + a dt + c z sqrt(dt)) + beta dt + e z sqrt(dt).

Randomness contract: Gaussian increments come from counter-based Philox
streams keyed by (seed, block index) over fixed-size path blocks, so the
same seed and config give bit-identical results regardless of evaluation
order and thread count.  The figure paths of every column share one more
stream, keyed by (seed, 2**63) and drawn once per call.  The wealth SDE is
simulated in levels, not logs: dollar strategies with an intercept can
legitimately push wealth through zero.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import astuple, dataclass
from typing import Callable

import numpy as np

from .errors import SimulationExplosionError
from .market import MarketParams, ObjectiveSpec
from .model1 import Model1Solution
from .numerics import SampledFunction

# Fixed block size of the per-block Philox streams; part of the
# reproducibility contract, do not make it configurable.
_BLOCK = 4096

# Most bytes of any one array a run sizes (see array_nbytes), a block's
# normals included: larger ones are refused when the config is loaded
# instead of exhausting memory mid-run, and fewer blocks are drawn ahead
# than would pass it.
MAX_BLOCK_BYTES = 512 * 2**20

# Paths may explode under aggressive dollar strategies; more than this
# fraction of non-finite paths is an error instead of a silent exclusion.
_MAX_EXPLODED_FRACTION = 1e-3


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


def array_nbytes(cfg: SimConfig, n_stocks: int, n_factors: int, n_columns: int) -> dict[str, int]:
    """Bytes of each array that :func:`simulate_models` and
    :func:`reproduce_figure_paths` size for n_columns columns."""
    n, m = cfg.n_time_steps, min(cfg.n_paths, _BLOCK)
    return {
        "Gaussian increments per block": block_nbytes(cfg, n_factors),
        "step table": n * n_columns * (2 + 2 * n_factors) * 8,
        "sampled strategy coefficients": (n + 1) * n_columns * 2 * n_stocks * 8,
        "column state": 4 * n_columns * m * 8,  # x and the (3, M, m) work array
        "terminal wealth": n_columns * cfg.n_paths * 8,
        "figure paths": (n + 1) * n_columns * (1 + n_stocks) * 8,  # wealth and dollars
    }


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
    """u^(t, x) = k1(t) x + k2(t) dollars in stock 1, the rest of x in stock 2."""

    k1: SampledFunction
    k2: SampledFunction | None = None

    def coefficients(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """G = (k1, 1 - k1) and b = (k2, -k2) at each time, (len(times), 2) each."""
        k1 = self.k1(times)
        k2 = np.zeros_like(k1) if self.k2 is None else self.k2(times)
        return np.stack([k1, 1.0 - k1], axis=-1), np.stack([k2, -k2], axis=-1)


@dataclass(frozen=True)
class Model1Strategy:
    """Wealth-independent dollars from the closed-form equilibrium."""

    solution: Model1Solution

    def coefficients(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """G = 0 and b = the closed-form control at each time."""
        b = self.solution.control(times)
        return np.zeros_like(b), b


def _block_normals(seed: int, block: int, shape: tuple[int, ...]) -> np.ndarray:
    key = np.array([seed, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).standard_normal(shape)


def _step_table(params: MarketParams, columns: list[tuple]) -> np.ndarray:
    """Per step and column (G, b, dt), with G and b at the n + 1 nodes: an
    (n, 2 + 2d, M, 1) array of 1 + a dt, beta dt, c sqrt(dt) and e sqrt(dt)
    at the node each step starts from.  Sums over the stocks are
    elementwise, not BLAS, like those of :func:`_step`."""
    load = np.column_stack([params.alpha - params.r, params.sigma])  # (s, 1 + d)
    rows = []
    for G, b, dt in columns:
        g = (G[:-1, :, None] * load).sum(axis=1)  # (n, 1 + d)
        h = (b[:-1, :, None] * load).sum(axis=1)
        rows.append(np.column_stack([1.0 + (params.r + g[:, 0]) * dt, h[:, 0] * dt,
                                     g[:, 1:] * np.sqrt(dt), h[:, 1:] * np.sqrt(dt)]))
    return np.stack(rows, axis=-1)[..., None]


def _sample(columns: dict, n: int) -> tuple[dict, list]:
    """Every column on its own grid of n uniform steps on [0, T]: the nodes
    of each distinct T, and each column's (G, b) at its nodes with its
    dt = T / n, as :func:`_step_table` takes them."""
    grids = {obj.horizon_T: np.linspace(0.0, obj.horizon_T, n + 1) for _, obj in columns.values()}
    return grids, [(*strategy.coefficients(grids[obj.horizon_T]), obj.horizon_T / n)
                   for strategy, obj in columns.values()]


def _step(x: np.ndarray, z: np.ndarray, coef: np.ndarray, work: np.ndarray):
    """x <- x (A + C z) + (B + E z) in place, for x of shape (M, m), the d
    rows of z of m standard normals, coef one step of the table and work
    a (3, M, m) scratch array.  Each operation is elementwise, so a row's
    bits depend on its own coefficients alone, and a non-finite wealth
    stays non-finite."""
    d = len(z)
    gain, shift, tmp = work
    np.multiply(coef[2], z[0], out=gain)
    np.multiply(coef[2 + d], z[0], out=shift)
    for j in range(1, d):
        gain += np.multiply(coef[2 + j], z[j], out=tmp)
        shift += np.multiply(coef[2 + d + j], z[j], out=tmp)
    gain += coef[0]
    shift += coef[1]
    x *= gain
    x += shift


def _draw_ahead(threads: int, n_blocks: int, nbytes: int) -> int:
    """Workers drawing blocks ahead of the one being stepped: fewer than the
    threads, the blocks and the CPUs, and the blocks alive at once fit in
    MAX_BLOCK_BYTES."""
    return max(0, min(threads, n_blocks, os.cpu_count() or 1, MAX_BLOCK_BYTES // nbytes) - 1)


def _run_blocks(
    draw: Callable[[int], np.ndarray],
    step: Callable[[int, np.ndarray], None],
    n_blocks: int,
    ahead: int,
):
    """step(b, draw(b)) for b = 0, ..., n_blocks - 1, in order, with up to
    ``ahead`` blocks drawn ahead on worker threads.

    numpy releases the GIL for a whole Philox fill, so the draws overlap
    the stepping of the block before them.  Stepping stays on the calling
    thread: its numpy calls on one block take a few microseconds each, and
    threads stepping blocks side by side lose more to handing the GIL back
    and forth than they gain.  At most ahead + 1 blocks are alive at once:
    the one being stepped and those drawn ahead.
    """
    if ahead < 1:
        for block in range(n_blocks):
            step(block, draw(block))
        return
    # imported here: only a run drawing ahead pays for it
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=ahead) as pool:
        pending = deque(pool.submit(draw, b) for b in range(ahead))
        for block in range(n_blocks):
            if block + ahead < n_blocks:
                pending.append(pool.submit(draw, block + ahead))
            step(block, pending.popleft().result())


def simulate_models(
    params: MarketParams,
    columns: dict[object, tuple[FeedbackStrategy | Model1Strategy, ObjectiveSpec]],
    cfg: SimConfig,
    threads: int = 1,
) -> dict[object, SimulationReport]:
    """Euler-Maruyama of every (strategy, objective) column in one pass.

    Each column samples its strategy's coefficients once on its own grid,
    dt = T / n_time_steps, and reports with its own gamma.  Each block's
    normals are drawn once and drive every column; the columns step as
    rows of one array, and each row's arithmetic is its own, so a column
    reports what its :func:`simulate` run does.  Paths whose terminal
    wealth is not finite are excluded; too many of them, or estimates
    beyond float64, raise SimulationExplosionError.  Up to
    :func:`_draw_ahead` worker threads draw the next blocks while this one
    steps; every thread count gives identical reports.
    """
    n_steps, d = cfg.n_time_steps, params.n_factors
    table = _step_table(params, _sample(columns, n_steps)[1])
    terminal = np.empty((len(columns), cfg.n_paths))

    def draw(block: int) -> np.ndarray:
        m = min(_BLOCK, cfg.n_paths - block * _BLOCK)
        return _block_normals(cfg.seed, block, (m, n_steps, d))

    def run_block(block: int, normals: np.ndarray):
        m = normals.shape[0]
        x = np.full((len(columns), m), cfg.x0)
        work = np.empty((3, len(columns), m))
        # a step's normals lie one path apart; as one d-float record per
        # path they are gathered in one strided copy, not one per path
        records = normals.view(np.dtype((np.void, 8 * d)))[..., 0]
        # overflow is how a path explodes, and its non-finite wealth is
        # excluded at the end, so it must not warn
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(n_steps):
                z = records[:, i].copy().view(np.float64).reshape(m, d).T
                _step(x, z, table[i], work)
        terminal[:, block * _BLOCK : block * _BLOCK + m] = x

    n_blocks = -(-cfg.n_paths // _BLOCK)
    ahead = _draw_ahead(threads, n_blocks, block_nbytes(cfg, d))
    _run_blocks(draw, run_block, n_blocks, ahead)

    reports = {}
    for (key, (_, obj)), values in zip(columns.items(), terminal):
        alive = np.isfinite(values)
        n_excluded = cfg.n_paths - int(np.count_nonzero(alive))
        if n_excluded > _MAX_EXPLODED_FRACTION * cfg.n_paths:
            raise SimulationExplosionError(
                f"{n_excluded} of {cfg.n_paths} paths went non-finite",
                n_excluded,
                cfg.n_paths,
            )
        # finite paths can still have moments beyond float64 (a huge x0):
        # refused below, so the overflow must not warn
        with np.errstate(over="ignore", invalid="ignore"):
            report = _report(values[alive], obj.gamma, n_excluded)
        if not np.all(np.isfinite(astuple(report))):
            raise SimulationExplosionError(
                f"the moments of terminal wealth exceed the float64 range "
                f"(x0 = {cfg.x0:g})",
                n_excluded,
                cfg.n_paths,
            )
        reports[key] = report
    return reports


def simulate(
    params: MarketParams,
    strategy: FeedbackStrategy | Model1Strategy,
    obj: ObjectiveSpec,
    cfg: SimConfig,
) -> SimulationReport:
    """:func:`simulate_models` for one column."""
    return simulate_models(params, {"": (strategy, obj)}, cfg)[""]


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
class PathRecord:
    """One column's common-noise path: the grid and stock prices of its T,
    shared by the columns of that T, and its own wealth and stock dollars."""

    times: np.ndarray  # (n_nodes,)
    prices: np.ndarray  # (n_nodes, n_stocks)
    wealth: np.ndarray  # (n_nodes,)
    dollars: np.ndarray  # (n_nodes, n_stocks)


def reproduce_figure_paths(
    params: MarketParams,
    columns: dict[object, tuple[FeedbackStrategy | Model1Strategy, ObjectiveSpec]],
    cfg: SimConfig,
) -> dict[object, PathRecord]:
    """One path of every column of :func:`simulate_models`, all driven by
    the same normals, drawn once and scaled by each column's sqrt(dt).

    Prices are sampled exactly (log-space GBM), once per distinct T; wealth
    follows the Euler step of :func:`simulate_models`, each column on its
    own row, so a column's path does not depend on its company.
    """
    n_steps, d = cfg.n_time_steps, params.n_factors
    grids, sampled = _sample(columns, n_steps)
    table = _step_table(params, sampled)
    # separate key namespace from the block streams used by simulate_models()
    z = _block_normals(cfg.seed, 2**63, (n_steps, d))

    log_drift = params.alpha - 0.5 * np.sum(params.sigma**2, axis=1)
    prices = {}
    for T, times in grids.items():
        w = np.vstack([np.zeros(d), np.cumsum(z * np.sqrt(T / n_steps), axis=0)])
        prices[T] = np.exp(times[:, None] * log_drift[None, :] + w @ params.sigma.T)

    wealth = np.full((n_steps + 1, len(columns), 1), cfg.x0)
    work = np.empty((3, len(columns), 1))
    for i in range(n_steps):
        wealth[i + 1] = wealth[i]
        _step(wealth[i + 1], z[i, :, None], table[i], work)

    return {
        key: PathRecord(grids[obj.horizon_T], prices[obj.horizon_T], path, G * path[:, None] + b)
        for (key, (_, obj)), (G, b, _), path in zip(columns.items(), sampled, wealth[:, :, 0].T)
    }
