"""Time grid, trapezoid quadrature, the Picard fixed-point engine and the
factorial-tail convergence bound shared by the two no-bank models.

All backward integrals over [t, T] are evaluated once per sweep as a
backward cumulative array, so a full Picard sweep costs O(N) instead of
O(N^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

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
    def default(cls, T: float) -> "TimeGrid":
        return cls(T, max(2, int(round(DEFAULT_STEPS_PER_YEAR * T))))

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
    """A function of time sampled at the grid nodes; linear between nodes."""

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
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def from_callable(cls, grid: TimeGrid, f) -> "SampledFunction":
        return cls(grid, np.asarray([f(t) for t in grid.nodes], dtype=float))

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


def trapezoid_tail_integral(f: SampledFunction, t_index: int) -> float:
    """int_{t_index}^{T} f(s) ds on the grid of f. Exact for affine f."""
    n = f.grid.n_nodes
    if not 0 <= t_index < n:
        raise IndexError("node index out of range")
    return float(tail_integrals(f.values, f.grid.dt)[t_index])


@dataclass(frozen=True)
class PicardConfig:
    """Stopping rule of the successive-substitution iteration.

    The constant start at 1 keeps the iterate sequence comparable to the
    factorial-tail error bound.
    """

    tol: float = 1e-10
    max_iter: int = 200
    initial_value: float = 1.0

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tolerance must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class PicardResult:
    values: np.ndarray
    iterations: int
    delta: float  # final sup-norm change
    history: list[np.ndarray] | None = None  # iterates incl. the start, if recorded


def picard_solve(
    step: Callable[[np.ndarray], np.ndarray],
    n_nodes: int,
    cfg: PicardConfig | None = None,
    record_history: bool = False,
) -> PicardResult:
    """Iterate x <- step(x) from the constant start until the sup-norm change
    drops below tol.  Raises NonConvergenceError when the cap is hit."""
    cfg = cfg or PicardConfig()
    current = np.full(n_nodes, cfg.initial_value)
    history = [current] if record_history else None
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
        if record_history:
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
    # term_i = K^{i+1} horizon^i / i!, built incrementally from i = n
    term = float(K)
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
