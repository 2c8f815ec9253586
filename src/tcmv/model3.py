"""Mean-variance objective with two stocks and no bank account.

The equilibrium allocation is u^(t, x) = k1(t) x + k2(t).  The gain k1
solves the same nonlinear backward equation as the variance-only model and
is independent of risk aversion; the intercept k2 solves a linear Volterra
equation of the second kind built from the exponential kernels of k1.

At the solved k1 that equation's kernel I3 vanishes, so k2 is its own
forcing term: k2 = phi_1 / gamma with phi_1 = lam I1(t,T) I2(t,T), and
risk aversion is a scale factor.  solve_horizon solves k1 and builds the
kernels once per horizon; every gamma then takes phi_1 / gamma and the
moment triple of model2.MomentCoefficients with growth I1(t,T)^{-1}, the
kernels' c0 and the load theta~^2 S(t), S(t) = int_t^T I2(v,T) dv: mean =
I1(t,T)^{-1} x + theta~^2 S(t) / gamma and variance = I1(t,T)^{-2} c0(t)
x^2 + theta~^2 S(t) / gamma^2.  It forms no integral of its own, and model
2 is the same triple with no load.  Model3Solution is a plain record of
these values.  The Volterra equation stays the check of the closed form,
outside the record: solve_k2 runs its Picard solve only when called, once
per (gamma, T) case for diagnostics.txt and for the bounds command, never
on the way to the closed form.  Each solution is its own Monte Carlo
strategy, G = (k1, 1 - k1) and b1 = (phi_1, -phi_1), the intercept at
gamma = 1; its gain, the Model2Solution, is model 2's, with b1 = 0.

Every Volterra kernel is separable in (t, v), so each is generated from a
single cumulative integral and every Picard sweep runs in O(N).  With A
and B of KernelTables, the check's kernel is I1(t,v) I3(t,v) = f(t) g(v),
where f(t) = e^{A(t)+B(t)} > 0 and g(v) = e^{-A(v)} {dalpha e^{-B(T)} -
h(v) e^{-B(v)}} (KernelTables.kernel_factors): a sweep of the check is
phi_1 / gamma + lam f(t) int_t^T g k2, one tail integral, and the supremum
behind the k2 error bound is O(N) too.  At the solved k1, h(v) = dalpha
e^{B(v)-B(T)} makes g and so I3 vanish.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .market import MarketParams, ObjectiveSpec, _coeffs, _require_finite, factor_sum
from .model2 import (
    Equilibrium,
    KernelTables,
    Model2Solution,
    MomentCoefficients,
    build_kernels,
    kernel_moments,
    solve_model2,
)
from .numerics import (
    PicardConfig,
    PicardResult,
    SampledFunction,
    TimeGrid,
    forward_integrals,
    picard_solve,
    tail_integrals,
)


def intercept_equation_map(kernels: KernelTables, k2: SampledFunction):
    """Picard map of k2(t) = phi(t) + lam int_t^T I1(t,v) I3(t,v) k2(v) dv,
    whose forcing term phi is the closed form k2 = phi_1 / gamma itself.
    The kernel is f(t) g(v), so a sweep is one tail integral."""
    phi = k2.values
    f, g = kernels.kernel_factors
    lam, dt = kernels.lam, kernels.grid.dt

    def step(iterate: np.ndarray) -> np.ndarray:
        return phi + lam * f * tail_integrals(g * iterate, dt)

    return step


def solve_k2(
    kernels: KernelTables, k2: SampledFunction, cfg: PicardConfig | None = None
) -> PicardResult:
    """Picard solve of the Volterra equation forced by the closed form k2,
    its check, from k2's terminal value lam / gamma held constant; it stops
    at the absolute tol of the gain solve."""
    start = np.full(kernels.grid.n_nodes, k2.values[-1])
    return picard_solve(intercept_equation_map(kernels, k2), start, cfg)


def intercept_residual(kernels: KernelTables, k2: SampledFunction, candidate: np.ndarray) -> float:
    """Sup-norm defect of candidate in the Volterra equation forced by k2."""
    return float(np.max(np.abs(intercept_equation_map(kernels, k2)(candidate) - candidate)))


def _where(kernels: KernelTables, gamma: float) -> str:
    """The range error's place for one gamma; ValueError unless gamma > 0."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return f"over the horizon T={kernels.grid.T:g} at gamma={gamma:g}"


def intercept(kernels: KernelTables, gamma: float) -> SampledFunction:
    """k2 = phi_1 / gamma, the solution of the intercept equation at the
    kernels of the solved k1, where I3 = 0; CoefficientRangeError when a
    tiny gamma takes it beyond float64."""
    where = _where(kernels, gamma)
    with np.errstate(over="ignore"):
        k2 = kernels.unit_intercept.values / gamma
    _require_finite(where, k2)
    return SampledFunction(kernels.grid, k2)


def moments(kernels: KernelTables, gamma: float) -> MomentCoefficients:
    """The moments of one gamma, with the load theta~^2 S; CoefficientRangeError
    when a tiny gamma takes theta~^2 S / gamma or / gamma^2 beyond float64 at
    t = 0, where S is largest.

    Valid only for the kernels of the solved k1, where I3 = 0.
    """
    where = _where(kernels, gamma)
    m = kernel_moments(kernels, gamma, kernels.theta_sq)
    with np.errstate(over="ignore"):
        loads = [scale * kernels.i2_tail.values[0] for scale in m.scales]
    _require_finite(where, *loads)
    return m


class Model3Solution(NamedTuple):
    """One gamma of a horizon; the market and the grid are the gain's,
    gain.params and gain.k.grid."""

    obj: ObjectiveSpec
    gain: Model2Solution  # k1 is the variance-only gain, free of gamma
    kernels: KernelTables
    k2: SampledFunction  # the closed form phi_1 / gamma
    moments: MomentCoefficients

    @property
    def k1(self) -> SampledFunction:
        return self.gain.k

    def unit_coefficients(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The Monte Carlo strategy u = k1 x + phi_1 / gamma: the gain's
        G = (k1, 1 - k1) and b1 = (phi_1, -phi_1) at each time, (len(times),
        2) each.  Every gamma of a horizon shares phi_1, and so its rows."""
        phi = self.kernels.unit_intercept(times)
        return self.gain.unit_coefficients(times)[0], np.stack([phi, -phi], axis=-1)


def solve_horizon(
    params: MarketParams,
    gammas: list[float],
    grid: TimeGrid,
    cfg: PicardConfig | None = None,
) -> list[Model3Solution]:
    """Every gamma at one horizon: k1 -> kernels once, then k2 = phi_1 /
    gamma and the moments per gamma.

    k1 is the variance-only gain k and does not depend on gamma, nor do the
    kernels built from it, so the solutions share one ``gain`` and one
    ``kernels`` object, and with it phi_1 and S.
    """
    gain = solve_model2(params, grid, cfg)
    kernels = build_kernels(params, gain.k)
    return [
        Model3Solution(ObjectiveSpec(gamma, grid.T), gain, kernels,
                       intercept(kernels, gamma), moments(kernels, gamma))
        for gamma in gammas
    ]


def no_bank_equilibria(solution: Model3Solution) -> dict[str, Equilibrium]:
    """Models 2 and 3 at the solution's gamma.  Model 2 is model 3 with no
    load: its strategy is the gain, and its moments are the same triple on
    the same kernels with sharpe_sq = 0."""
    model2 = kernel_moments(solution.kernels, solution.obj.gamma, 0.0)
    return {
        "model2": Equilibrium(solution.gain, model2),
        "model3": Equilibrium(solution, solution.moments),
    }


def solve_model3(
    params: MarketParams,
    obj: ObjectiveSpec,
    grid: TimeGrid | None = None,
    cfg: PicardConfig | None = None,
) -> Model3Solution:
    """One gamma of :func:`solve_horizon`: k1 -> kernels -> k2 and moments."""
    grid = grid or TimeGrid.default(obj.horizon_T)
    return solve_horizon(params, [obj.gamma], grid, cfg)[0]


# ---------------------------------------------------------------------------
# Constants for the factorial-tail error bound of the Picard iterates.
# ---------------------------------------------------------------------------


def _first_sweep_l1(history: list[np.ndarray], dt: float) -> float:
    """omega_1(0) = int_0^T |k^(1) - k^(0)| ds from the recorded iterates."""
    if len(history) < 2:
        raise ValueError("need a recorded history with at least one sweep")
    diff = np.abs(history[1] - history[0])
    return float(forward_integrals(diff, dt)[-1])


@np.errstate(over="ignore")  # a bound beyond float64 is a deliberate inf
def _inflate_for_domination(base: float, omega1: float, horizon: float) -> float:
    """Smallest K (up to 5% steps) whose factorial-tail bound provably
    dominates the sweep-error recursion for n = 1..10.

    A Gronwall-style induction gives |k^(n) - k*|(t) <= omega_1(0) *
    sum_{i>=n-1} base^{i+1} (T-t)^i / i!; K is grown from
    1.01 max(base, omega_1 base) until the single-constant form
    sum_{i>=n} K^{i+1} (T-t)^i / i! dominates that series.
    """
    from .numerics import convergence_bound

    base = max(base, 1e-12)
    omega1 = max(omega1, 1e-12)
    # targets[n-1] for n = 1..10; n = 1 sums from i = 0: base e^{base h}
    targets = [omega1 * (base * np.exp(base * horizon))]
    targets += [omega1 * convergence_bound(base, horizon, n - 1) for n in range(2, 11)]
    # k (e^{kh} - 1) is the n = 1 bound in closed form.  The series agrees
    # with it far inside this margin, so a step it rules out also fails the
    # series check, which is then skipped.
    screen = targets[0] * (1.0 - 1e-9)
    k = 1.01 * max(base, omega1 * base)
    for _ in range(400):
        if k * np.expm1(k * horizon) >= screen and all(
            convergence_bound(k, horizon, n) >= target
            for n, target in enumerate(targets, start=1)
        ):
            return k
        k *= 1.05
    return k


def intercept_bound_constant(kernels: KernelTables, history: list[np.ndarray]) -> float:
    """Constant K for the k2 iterate error bound, from grid suprema."""
    base = abs(kernels.lam) * kernels.M3
    omega1 = _first_sweep_l1(history, kernels.grid.dt)
    return _inflate_for_domination(base, omega1, kernels.grid.T)


def gain_bound_constant(
    params: MarketParams, grid: TimeGrid, history: list[np.ndarray]
) -> float:
    """Constant K for the k1 iterate error bound.

    The map's Gronwall constant is (|dalpha| / denom) times the Lipschitz
    rate of the variance-rate integrand in k, maximized over the range the
    iterates actually visited.
    """
    s2, ds, denom, _, dalpha = _coeffs(params)
    lo = min(float(np.min(h)) for h in history)
    hi = max(float(np.max(h)) for h in history)

    def rate(k):
        return 2.0 * factor_sum([abs(s + k * d) * abs(d) for s, d in zip(s2, ds)])

    base = abs(dalpha) / denom * max(rate(lo), rate(hi))
    omega1 = _first_sweep_l1(history, grid.dt)
    return _inflate_for_domination(base, omega1, grid.T)


def iterate_sup_errors(history: list[np.ndarray], solution: np.ndarray) -> list[float]:
    """‖k^(n) - k*‖_inf for n = 1 .. len(history)-1."""
    return [float(np.max(np.abs(h - solution))) for h in history[1:]]
