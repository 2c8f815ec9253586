"""Euler-Maruyama simulation of the wealth process under the equilibrium
strategies, with Monte Carlo estimates of the terminal mean, variance and
mean-variance reward.

Every equilibrium of the package is affine in wealth: a strategy is its
coefficients G(t) and b(t), with u = G x + b dollars in the stocks and the
rest of the wealth in cash at the risk-free rate.  Wealth then follows the
linear SDE dX = (a X + beta) dt + (c X + e) dW, with a = r + G (alpha - r 1),
beta = b (alpha - r 1), c = G sigma and e = b sigma, and one Euler step on
standard normals z is x <- x (1 + a dt + c z sqrt(dt)) + beta dt + e z sqrt(dt).

Risk aversion is a scale factor: a Strategy gives G and the intercept b1
at gamma = 1, and a column takes b = b1 / gamma with its objective's gamma.
Each step is x <- A x + B with A from G alone and B linear in b, so
terminal wealth is x0 Y + Z / gamma, where the row Y steps the gain (b = 0)
from 1 and the row Z steps (G, b1) from 0: a row pair that shares its
multiplier A.  The engine steps one pair for each distinct (T, G, b1),
however many columns share it: per horizon two, model 3's (the gain k1
and its unit intercept) and model 1's (G = 0 and its control at
gamma = 1), whose Y is the bank account's growth prod (1 + r dt).  A
column with b1 = 0 reads the Y of a pair of its own G, as model 2 reads
model 3's, and has a pair of its own only where no such pair exists.
Each column combines its pair at the end: model 2 = x0 Y and models 1
and 3 = x0 Y + Z / gamma.  Each step forms a pair's factors once, alike for
every pair: A + C z, which Y and Z share (1 + r dt where G = 0, as C = +0
there), and Z's B + E z.
The figure paths step the same pairs through the same recurrence, as one
block of one path that keeps its rows at every node.

Randomness contract: Gaussian increments come from counter-based Philox
streams keyed by (seed, block index) over fixed-size path blocks, so the
same seed and config give bit-identical results regardless of evaluation
order and thread count.  Blocks are independent, so each worker thread
takes the next block, makes its stream once and draws it in groups of at
most 512 paths, each in one call into its own buffer, path by path as the
stream yields them, stepping each group before it draws the next; the
draws run side by side, the stepping one group at a time.  The stepping
gathers each chunk of steps of a group's normals step-major into the
worker's step-factor scratch.
The figure paths of every column share one more stream, keyed by
(seed, 2**63) and drawn once per call.  The wealth SDE is simulated in
levels, not logs: dollar strategies with an intercept can legitimately
push wealth through zero.

Only the simulate command of the CLI imports this module.
"""

from __future__ import annotations

import os
import threading
from typing import TYPE_CHECKING, Callable, NamedTuple, Protocol

import numpy as np

from .errors import SimulationExplosionError
from .market import MarketParams, ObjectiveSpec, square

if TYPE_CHECKING:
    from .numerics import SimConfig

# Fixed block size of the per-block Philox streams; part of the
# reproducibility contract, do not make it configurable.  A worker draws and
# steps each block of m paths in g = max(4, ceil(m / _GROUP)) groups, cut at
# ceil(q m / g) for q = 0, ..., g and skipping empty ones, the block's stream
# continued from one to the next, so that it holds one group's normals: a
# full block in eight groups of 512 paths, one of 2048 paths or fewer in
# quarters.
_BLOCK = 4096
_GROUP = 512

# Numbers of the step factors _step_rows forms in one call, one numpy call
# per factor term over as many steps as fit, before it steps them one at a
# time, beside their normals: 384 KiB of scratch.  Forming several steps a
# call keeps down the numpy calls a path, each a turn at the GIL beside the
# other worker's draw: the 512-path groups of 2 pairs on 2 factors (6
# factor numbers and 2 normals a path and step) form 12 steps a call.
_FACTORS = 49152

# Most bytes of any one array a run sizes (see array_nbytes), a worker's
# normals included: tcmv simulate refuses larger ones before it solves
# instead of exhausting memory mid-run, and no more worker threads run
# than their groups of normals pass it together.
MAX_BLOCK_BYTES = 512 * 2**20

# Paths may explode under aggressive dollar strategies; more than this
# fraction of non-finite paths is an error instead of a silent exclusion.
_MAX_EXPLODED_FRACTION = 1e-3


def _cuts(m: int) -> list[int]:
    """Where a block of m paths is cut into its groups: at ceil(q m / g)
    for q = 0, ..., g, g = max(4, ceil(m / _GROUP)), so that no group holds
    more than _GROUP paths and the first is the widest."""
    g = max(4, -(-m // _GROUP))
    return [-(-q * m // g) for q in range(g + 1)]


def _width(n_paths: int) -> int:
    """Paths of the widest group a run draws: the first block's first."""
    return _cuts(min(n_paths, _BLOCK))[1]


def group_nbytes(cfg: SimConfig, n_factors: int) -> int:
    """Bytes of Gaussian increments a worker holds: its widest group."""
    return _width(cfg.n_paths) * cfg.n_time_steps * n_factors * 8


def array_nbytes(
    cfg: SimConfig, n_stocks: int, n_factors: int, n_pairs: int, n_columns: int
) -> dict[str, int]:
    """Bytes of each array that :func:`simulate_models` and
    :func:`reproduce_figure_paths` size for n_columns columns stepped as
    n_pairs row pairs.  The step table, the sampled coefficients, the step
    factors and the terminal wealth grow with the pairs, which do not
    depend on how many gammas share a horizon; only the figure paths handed
    back grow with the columns.  The figure path steps as a group of one
    path, so its factors are within the step factors of a group."""
    n = cfg.n_time_steps
    return {
        "Gaussian increments per worker": group_nbytes(cfg, n_factors),
        "step table": n * n_pairs * (2 + 2 * n_factors) * 8,
        "sampled strategy coefficients": (n + 1) * n_pairs * 2 * n_stocks * 8,
        # the multipliers, shifts and products of as many steps as fit in
        # _FACTORS, or of one step, 3 numbers a pair and path, and the
        # steps' normals, n_factors a path
        "step factors": max(_FACTORS, (3 * n_pairs + n_factors) * _width(cfg.n_paths)) * 8,
        "terminal wealth": 2 * n_pairs * cfg.n_paths * 8,
        # the pairs' wealth, and each column's wealth and dollars
        "figure paths": (n + 1) * (2 * n_pairs + n_columns * (1 + n_stocks)) * 8,
    }


class Strategy(Protocol):
    """All the engine reads of a strategy: G and b1 sampled at each time,
    (len(times), n_stocks) each, for u = G x + b1 / gamma dollars with the
    gamma of the column's objective.  The solutions of models 1 to 3 are one."""

    def unit_coefficients(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]: ...


class SimulationReport(NamedTuple):
    mean_estimate: float
    variance_estimate: float
    reward_estimate: float  # mean - (gamma/2) variance
    se_mean: float
    se_variance: float
    se_reward: float
    n_effective: int
    n_excluded: int


def _stream(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, block], dtype=np.uint64)))


def _loaded(coef: np.ndarray, load: np.ndarray) -> np.ndarray:
    """sum_s coef[:, s] load[s], added to 0 in stock order, as numpy sums
    over an axis (so a sum of negative zeros is +0)."""
    total = 0.0 + coef[:, 0] * load[0]
    for s in range(1, len(load)):
        total += coef[:, s] * load[s]
    return total


def _step_table(params: MarketParams, rows: list[tuple], n: int) -> np.ndarray:
    """Per step and entry (G, b, dt) of rows (a row pair's G and b1 in the
    engine), with G and b at the n + 1 nodes: an (n, 2 + 2d, R, 1) array of 1 + a dt, beta dt, c sqrt(dt) and e sqrt(dt)
    at the node each step starts from.  Each entry is written into the
    table in place, so the build needs little memory beyond the table.
    Sums over the stocks are elementwise, not BLAS, like those of
    :func:`_step_rows`."""
    d = params.n_factors
    load = np.column_stack([params.alpha - params.r, params.sigma])  # (s, 1 + d)
    table = np.empty((n, 2 + 2 * d, len(rows), 1))
    for j, (G, b, dt) in enumerate(rows):
        out = table[:, :, j, 0]
        G, b, root = G[:-1], b[:-1], np.sqrt(dt)
        out[:, 0] = 1.0 + (params.r + _loaded(G, load[:, 0])) * dt
        out[:, 1] = _loaded(b, load[:, 0]) * dt
        for k in range(1, 1 + d):
            out[:, 1 + k] = _loaded(G, load[:, k]) * root
            out[:, 1 + d + k] = _loaded(b, load[:, k]) * root
    return table


class _Column(NamedTuple):
    """One column's wealth x0 Y + Z / gamma, from the rows of a pair: Y is
    row ``gain`` and Z row ``intercept``, absent where b1 = 0."""

    T: float
    gamma: float
    gain: int
    intercept: int | None

    def wealth(self, x0: float, rows: np.ndarray) -> np.ndarray:
        """x0 Y + Z / gamma from the rows' values (rows on the first axis);
        inf or nan without a warning where a row overflowed, as a path
        explodes: the Monte Carlo pass excludes it, the figure pass keeps it."""
        with np.errstate(over="ignore", invalid="ignore"):
            x = x0 * rows[self.gain]
            if self.intercept is None:
                return x
            z = rows[self.intercept] / self.gamma
            z += x  # x0 Y + Z / gamma, as addition commutes
        return z


class _Rows:
    """Every column sampled on its own grid of n uniform steps on [0, T] and
    split into row pairs: the nodes of each distinct T, each pair's
    (G, b1, dt) and each column's _Column.  A pair is keyed by its sampled
    values, so the columns that share a gain and a unit intercept on one
    horizon share it.  A column with b1 = 0 reads the Y of the first pair of
    its G with b1 != 0; only a G without one gets a pair of its own, b1 = 0.
    The pairs are in the order their columns are met.  Of the 2P rows of P
    pairs, row j is pair j's Y and row P + j its Z."""

    def __init__(self, columns: dict, n: int):
        self.n, self.grids, pairs, met = n, {}, {}, []
        for strategy, obj in columns.values():
            T = obj.horizon_T
            if T not in self.grids:
                self.grids[T] = np.linspace(0.0, T, n + 1)
            G, b1 = strategy.unit_coefficients(self.grids[T])
            key = (T, G.tobytes(), b1.tobytes() if b1.any() else None)
            pairs.setdefault(key, (G, b1, T / n))
            met.append((T, float(obj.gamma), key))
        gains = {}  # the first pair of each (T, G), one with b1 != 0 where there is one
        for key in sorted(pairs, key=lambda k: k[2] is None):
            gains.setdefault(key[:2], key)
        keys = [k for k in pairs if k[2] is not None or gains[k[:2]] == k]
        index = {k: i for i, k in enumerate(keys)}
        self.rows = [pairs[k] for k in keys]
        self.columns = [
            _Column(T, g, index.get(k, index[gains[k[:2]]]),
                    None if k[2] is None else len(keys) + index[k])
            for T, g, k in met
        ]

    def step_size(self, m: int, d: int) -> int:
        """Numbers :func:`_step_rows` holds for one step of m paths on d
        factors: the multipliers, the shifts and the products of every pair,
        and the step's normals."""
        return (3 * len(self.rows) + d) * m

    def factor_size(self, m: int, d: int) -> int:
        """Numbers of as many steps of m paths on d factors as fit in
        _FACTORS, at least one and at most n."""
        step = self.step_size(m, d)
        return min(self.n, max(1, _FACTORS // step)) * step


def _step_rows(x: np.ndarray, table: np.ndarray, normals: np.ndarray, plan: _Rows,
               scratch: np.ndarray | None = None, path: np.ndarray | None = None):
    """x <- x A + B in place for every step of the table, for x the (2P, m)
    rows of plan's P pairs on m paths, set first to 1 for each Y and 0 for
    each Z, and normals their (m, n, d) standard normals, path by path.  A
    pair's A + C z multiplies its Y and its Z; a G = 0 pair's is its entry
    1 + r dt, as C = +0.  Y's B + E z is +0 and is not formed: +0 is added
    to the Y rows once after the last step, which turns -0 into +0 as adding
    it every step would (a Z row's x A + B may itself be -0, and is kept).
    The factors A + C z and B + E z of as many steps as fit in the scratch
    are formed together, from those steps' normals copied step-major beside
    them, one numpy call per term for all P pairs alike, into
    one multiplier a pair and the shifts of the Z rows.  The Z rows are then
    stepped one step at a time, two calls a step, in an array of their own
    that is copied into x after the last step, and the Y rows take the
    steps' multipliers g0, ..., g(k-1) in one left fold, ((Y g0) g1) ...,
    the products of stepping them one at a time (with path, accumulated
    into its nodes, the last of which goes on to the next call's fold).
    Each row's operations are elementwise and those of the per-row step, so
    its bits depend on its own coefficients alone.
    The factors go in a view of scratch where one is given, else in
    plan.factor_size(m, d) numbers.  With path, an (n + 1, 2P, m) array, x is
    kept at the start and after every step."""
    (R, m), d = x.shape, normals.shape[2]
    P = R // 2
    if scratch is None:
        scratch = np.empty(plan.factor_size(m, d))
    c = min(len(table), scratch.size // plan.step_size(m, d))
    mult, shift, tmp = scratch[: 3 * c * P * m].reshape(3, c, P, m)
    chunk = scratch[3 * c * P * m : (3 * P + d) * c * m].reshape(c, d, m)
    x[:P], x[P:] = 1.0, 0.0
    # a call on a contiguous array of the Z rows takes half the time it
    # does on rows of x that lie apart in memory
    y_rows, z_rows = x[:P], np.zeros((P, m))
    if path is not None:
        path[0] = x
    with np.errstate():
        # to broadcast a (k, P, 1) entry against (k, 1, m) normals numpy
        # copies them through its ufunc buffer; with the least buffer it
        # forms them in place, 1.5-2.5 times faster a call, and every
        # operation is elementwise
        np.setbufsize(16)
        for first in range(0, len(table), c):
            coef = table[first : first + c]
            k = len(coef)
            g, s, t, z = mult[:k], shift[:k], tmp[:k], chunk[:k]
            z[...] = normals[:, first : first + k].transpose(1, 2, 0)
            np.multiply(coef[:, 2], z[:, :1], out=g)
            np.multiply(coef[:, 2 + d], z[:, :1], out=s)
            for j in range(1, d):
                g += np.multiply(coef[:, 2 + j], z[:, j : j + 1], out=t)
                s += np.multiply(coef[:, 2 + d + j], z[:, j : j + 1], out=t)
            g += coef[:, 0]
            s += coef[:, 1]
            for i in range(k):
                z_rows *= g[i]
                z_rows += s[i]
                if path is not None:
                    path[first + i + 1, P:] = z_rows
            np.multiply(y_rows, g[0], out=g[0])  # spent on Z, g[0] starts the fold of Y
            if path is None:
                np.multiply.reduce(g[:k], axis=0, out=y_rows)
            else:
                np.multiply.accumulate(g[:k], axis=0, out=path[first + 1 : first + k + 1, :P])
                y_rows[...] = path[first + k, :P]
        y_rows += 0.0
        x[P:] = z_rows
        if path is not None:
            path[1:, :P] += 0.0


def _workers(threads: int, n_blocks: int, nbytes: int) -> int:
    """Threads that draw and step blocks, the calling one included: at most
    the threads asked for, the blocks and the CPUs, and their groups of
    nbytes of normals each fit in MAX_BLOCK_BYTES together; at least one."""
    return max(1, min(threads, n_blocks, os.cpu_count() or 1, MAX_BLOCK_BYTES // nbytes))


def _run_blocks(worker: Callable[[], Callable[[int], None]], n_blocks: int, workers: int):
    """work(b) for b = 0, ..., n_blocks - 1 on ``workers`` threads, the
    calling one included: each thread calls work = worker() once, for its
    buffers, then runs work on the next block not yet taken until none is
    left.  One worker runs every block on the calling thread, in order.
    work guards what it shares: :func:`simulate_models` draws side by side
    and steps under a lock: 0.306-0.312 s against 0.334-0.348 s stepping
    side by side, 2 threads on simulate_wide's config on 2 vCPUs (medians of
    12 alternating in-process runs, three sessions).

    An exception on any thread stops every thread after its block, and is
    raised here once all have ended.
    """
    blocks, lock, stop, errors = iter(range(n_blocks)), threading.Lock(), threading.Event(), []

    def loop():
        try:
            work = worker()
            while not stop.is_set():
                with lock:
                    block = next(blocks, None)
                if block is None:
                    return
                work(block)
        except BaseException as exc:
            errors.append(exc)
            stop.set()

    threads = [threading.Thread(target=loop) for _ in range(workers - 1)]
    try:
        for thread in threads:
            thread.start()
        loop()
    finally:
        stop.set()  # the calling thread is done or interrupted: take no more
        for thread in threads:
            if thread.ident is not None:
                thread.join()
    if errors:
        raise errors[0]


def simulate_models(
    params: MarketParams,
    columns: dict[object, tuple[Strategy, ObjectiveSpec]],
    cfg: SimConfig,
    threads: int = 1,
) -> dict[object, SimulationReport]:
    """Euler-Maruyama of every (strategy, objective) column in one pass.

    Each column samples its strategy's G and b1 once on its own grid,
    dt = T / n_time_steps, and reports x0 Y + Z / gamma with its objective's
    gamma, the one its reward takes.
    Each block's normals are drawn once and drive every row; each row's
    arithmetic is its own, and so is each column's combination of its rows,
    so a column reports what its :func:`simulate` run does.  Paths whose
    terminal wealth is not finite are excluded; too many of them, or
    estimates beyond float64, raise SimulationExplosionError.  Blocks are
    drawn and stepped on :func:`_workers` threads, this one included, each
    holding one group of normals; every thread count gives identical
    reports.
    """
    n_steps, d = cfg.n_time_steps, params.n_factors
    plan = _Rows(columns, n_steps)
    table = _step_table(params, plan.rows, n_steps)
    n_blocks = -(-cfg.n_paths // _BLOCK)
    # NaN until stepped: a path left unstepped is excluded, or raises
    terminal = np.full((2 * len(plan.rows), cfg.n_paths), np.nan)
    width = _width(cfg.n_paths)
    workers = _workers(threads, n_blocks, group_nbytes(cfg, d))
    # Each worker makes a block's stream once and draws it in groups, one
    # call a group, stepping each group before it draws the next.  Threads
    # draw side by side, as a Philox fill runs without the GIL, and step one
    # group at a time: stepping's short numpy calls take the GIL every few
    # microseconds, and two threads stepping at once were no faster than
    # one stepping while the other draws.
    stepping = threading.Lock()

    def worker() -> Callable[[int], None]:
        # one thread's buffers for the run: a group's normals, path by path,
        # and the scratch of the step factors
        normals, scratch = np.empty(width * n_steps * d), np.empty(plan.factor_size(width, d))

        def run_block(block: int):
            stream = _stream(cfg.seed, block)
            first = block * _BLOCK
            cuts = [first + c for c in _cuts(min(cfg.n_paths - first, _BLOCK))]
            for lo, hi in zip(cuts, cuts[1:]):
                if hi == lo:  # an empty group of a block of fewer than 4 paths
                    continue
                z = normals[: (hi - lo) * n_steps * d].reshape(hi - lo, n_steps, d)
                stream.standard_normal(out=z)
                # the rows are stepped where their terminal wealth goes;
                # overflow is how a path explodes, and its non-finite wealth
                # is excluded at the end, so it must not warn
                x = terminal[:, lo:hi]
                with stepping, np.errstate(over="ignore", invalid="ignore"):
                    _step_rows(x, table, z, plan, scratch)

        return run_block

    _run_blocks(worker, n_blocks, workers)

    reports = {}
    for key, column in zip(columns, plan.columns):
        values = column.wealth(cfg.x0, terminal)
        alive = np.isfinite(values)
        n_excluded = cfg.n_paths - int(np.count_nonzero(alive))
        if n_excluded > _MAX_EXPLODED_FRACTION * cfg.n_paths:
            raise SimulationExplosionError(
                f"{n_excluded} of {cfg.n_paths} paths went non-finite",
                n_excluded,
                cfg.n_paths,
            )
        # finite paths can still have moments beyond float64 (a huge x0),
        # or a reward whose terms scale with gamma beyond it (a huge gamma):
        # refused below, so the overflow must not warn
        with np.errstate(over="ignore", invalid="ignore"):
            report = _report(values[alive] if n_excluded else values, column.gamma, n_excluded)
        if not np.all(np.isfinite(report)):
            moments = (report.mean_estimate, report.variance_estimate,
                       report.se_mean, report.se_variance)
            raise SimulationExplosionError(
                f"the moments of terminal wealth exceed the float64 range (x0 = {cfg.x0:g})"
                if not np.all(np.isfinite(moments)) else
                f"the reward mean - (gamma/2) variance or its standard error exceeds "
                f"the float64 range (gamma = {column.gamma:g})",
                n_excluded,
                cfg.n_paths,
            )
        reports[key] = report
    return reports


def simulate(
    params: MarketParams,
    strategy: Strategy,
    obj: ObjectiveSpec,
    cfg: SimConfig,
) -> SimulationReport:
    """:func:`simulate_models` for one column."""
    return simulate_models(params, {"": (strategy, obj)}, cfg)[""]


def _report(values: np.ndarray, gamma: float, n_excluded: int) -> SimulationReport:
    n = values.size
    mean = float(np.mean(values))
    c = values - mean
    s = c * c  # the powers as products: c**3 and c**4 would call pow per value
    m2 = float(np.mean(s))
    m3 = float(np.mean(s * c))
    m4 = float(np.mean(s * s))
    var = m2 * n / (n - 1) if n > 1 else 0.0
    se_mean = np.sqrt(var / n) if n > 1 else 0.0
    # delta-method standard error of the sample variance
    se_var = np.sqrt(max(m4 - (n - 3) / (n - 1) * square(var), 0.0) / n) if n > 3 else 0.0
    reward = mean - 0.5 * gamma * var
    var_reward = se_mean**2 + (0.5 * gamma * se_var) ** 2 - gamma * m3 / n
    se_reward = np.sqrt(max(var_reward, 0.0))
    if not np.isfinite(se_reward):  # gamma scaled out where its square overflows
        se_reward = gamma * np.sqrt(max((se_mean / gamma) ** 2 + (0.5 * se_var) ** 2
                                        - m3 / gamma / n, 0.0))
    return SimulationReport(
        mean, var, reward, float(se_mean), float(se_var), float(se_reward), n, n_excluded
    )


class PathRecord(NamedTuple):
    """One column's common-noise path: the grid and stock prices of its T,
    shared by the columns of that T, and its own wealth and stock dollars."""

    times: np.ndarray  # (n_nodes,)
    prices: np.ndarray  # (n_nodes, n_stocks)
    wealth: np.ndarray  # (n_nodes,)
    dollars: np.ndarray  # (n_nodes, n_stocks)


def reproduce_figure_paths(
    params: MarketParams,
    columns: dict[object, tuple[Strategy, ObjectiveSpec]],
    cfg: SimConfig,
) -> dict[object, PathRecord]:
    """One path of every column of :func:`simulate_models`, all driven by
    the same normals, drawn once and scaled by each column's sqrt(dt).

    Prices are sampled exactly (log-space GBM), once per distinct T; wealth
    follows the Euler step of :func:`simulate_models` on the same rows, each
    column combining its own rows, so a column's path does not depend on its
    company.
    """
    n_steps, d = cfg.n_time_steps, params.n_factors
    plan = _Rows(columns, n_steps)
    table = _step_table(params, plan.rows, n_steps)
    # separate key namespace from the block streams used by simulate_models()
    z = _stream(cfg.seed, 2**63).standard_normal((n_steps, d))

    log_drift = params.alpha - 0.5 * np.sum(params.sigma**2, axis=1)
    prices = {}
    for T, times in plan.grids.items():
        w = np.vstack([np.zeros(d), np.cumsum(z * np.sqrt(T / n_steps), axis=0)])
        prices[T] = np.exp(times[:, None] * log_drift[None, :] + w @ params.sigma.T)

    n_rows = 2 * len(plan.rows)
    wealth = np.empty((n_steps + 1, n_rows, 1))
    with np.errstate(over="ignore"):  # an overflowed row makes its columns' paths inf
        _step_rows(np.empty((n_rows, 1)), table, z[None], plan, path=wealth)
    rows = wealth[:, :, 0].T
    records = {}
    for (key, (strategy, _)), column in zip(columns.items(), plan.columns):
        times = plan.grids[column.T]
        path = column.wealth(cfg.x0, rows)
        G, b1 = strategy.unit_coefficients(times)
        live = (G != 0) | np.isfinite(path[:, None])  # G = 0 holds no stock, whatever the wealth
        dollars = np.multiply(G, path[:, None], out=np.zeros(G.shape), where=live)
        dollars += b1 / column.gamma
        records[key] = PathRecord(times, prices[column.T], path, dollars)
    return records
