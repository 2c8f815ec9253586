"""Time grid, trapezoid quadrature, the Picard fixed-point engine and the
factorial-tail convergence bound shared by the two no-bank models.

All backward integrals over [t, T] are evaluated once per sweep as a
backward cumulative array, so a full Picard sweep costs O(N) instead of
O(N^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import NonConvergenceError

DEFAULT_STEPS_PER_YEAR = 1000


@dataclass(frozen=True)
class TimeGrid:
    """Uniform mesh 0 = t_0 < ... < t_N = T."""

    T: float
    n_steps: int

    def __post_init__(self):
        if not (np.isfinite(self.T) and self.T > 0):
            raise ValueError("horizon must be positive")
        if self.n_steps < 2:
            raise ValueError("need at least 2 steps")

    @classmethod
    def default(cls, T: float, steps_per_year: int = DEFAULT_STEPS_PER_YEAR) -> "TimeGrid":
        """The grid of steps_per_year steps a year on [0, T], at least 2."""
        return cls(T, max(2, int(round(steps_per_year * T))))

    @property
    def dt(self) -> float:
        return self.T / self.n_steps

    @cached_property
    def nodes(self) -> np.ndarray:
        nodes = np.linspace(0.0, self.T, self.n_steps + 1)
        nodes.flags.writeable = False
        return nodes

    @property
    def n_nodes(self) -> int:
        return self.n_steps + 1


@dataclass(frozen=True)
class SampledFunction:
    """A function of time sampled at the grid nodes; linear between nodes.
    It holds a float array as given, no copy, and makes it read-only."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n_nodes,):
            raise ValueError(
                f"expected {self.grid.n_nodes} values, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("sampled values must be finite")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def constant(cls, grid: TimeGrid, c: float) -> "SampledFunction":
        return cls(grid, np.full(grid.n_nodes, float(c)))

    def __call__(self, t):
        return np.interp(t, self.grid.nodes, self.values)


def tail_integrals(values: np.ndarray, dt: float) -> np.ndarray:
    """int_{t_i}^{T} f ds for every node i, composite trapezoid rule."""
    values = np.asarray(values, dtype=float)
    segments = 0.5 * dt * (values[:-1] + values[1:])
    out = np.empty_like(values)
    out[-1] = 0.0
    out[:-1] = np.cumsum(segments[::-1])[::-1]
    return out


def forward_integrals(values: np.ndarray, dt: float) -> np.ndarray:
    """int_{0}^{t_i} f ds for every node i, composite trapezoid rule."""
    values = np.asarray(values, dtype=float)
    segments = 0.5 * dt * (values[:-1] + values[1:])
    out = np.empty_like(values)
    out[0] = 0.0
    out[1:] = np.cumsum(segments)
    return out


@dataclass(frozen=True)
class PicardConfig:
    """Stopping rule of the successive-substitution iteration."""

    tol: float = 1e-10
    max_iter: int = 200

    def __post_init__(self):
        if not 0 < self.tol < np.inf:
            raise ValueError(f"tolerance must be finite and positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class SimConfig:
    """Size, seed and initial wealth of a Monte Carlo run."""

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


class PicardResult(NamedTuple):
    values: np.ndarray
    iterations: int
    delta: float  # final sup-norm change
    history: list[np.ndarray]  # every iterate, the start included


def picard_solve(
    step: Callable[[np.ndarray], np.ndarray],
    start: np.ndarray,
    cfg: PicardConfig | None = None,
) -> PicardResult:
    """Iterate x <- step(x) from start, one value per grid node, until the
    sup-norm change drops below tol, keeping every iterate for the
    error-bound tables.  Raises NonConvergenceError when the cap is hit."""
    cfg = cfg or PicardConfig()
    current = start
    history = [current]
    delta = np.inf
    for iteration in range(1, cfg.max_iter + 1):
        new = np.asarray(step(current), dtype=float)
        if not np.all(np.isfinite(new)):
            raise NonConvergenceError(
                f"iteration produced non-finite values at step {iteration}",
                iteration,
                float("inf"),
            )
        delta = float(np.max(np.abs(new - current)))
        current = new
        history.append(current)
        if delta < cfg.tol:
            return PicardResult(current, iteration, delta, history)
    raise NonConvergenceError(
        f"no convergence after {cfg.max_iter} iterations (last delta {delta:.3e})",
        cfg.max_iter,
        delta,
    )


def convergence_bound(K: float, horizon: float, n: int) -> float:
    """Factorial-tail error bound sum_{i>=n} K^{i+1} h^i / i! after n sweeps.

    The series is truncated once a term falls below 1e-16 of the partial sum.
    Returns inf once a term overflows (K * horizon beyond about 709).
    """
    if not (np.isfinite(K) and K > 0):
        raise ValueError("K must be a positive constant")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if n < 1:
        raise ValueError("bound is stated for n >= 1")
    if horizon == 0.0:
        return 0.0
    # term_i = K^{i+1} horizon^i / i!, built incrementally from i = n, in
    # Python floats, whose products overflow to inf without a warning
    K, horizon = float(K), float(horizon)
    term = K
    for i in range(1, n + 1):
        term *= K * horizon / i
    total = 0.0
    i = n
    while np.isfinite(term):
        total += term
        i += 1
        term *= K * horizon / i
        if term <= 1e-16 * total:
            return total
    return float("inf")
