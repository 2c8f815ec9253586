import warnings
from importlib import resources

import numpy as np
import pytest

from tcmv import (
    CoefficientRangeError,
    DegenerateMarketError,
    MarketParams,
    MarketValidationError,
    ObjectiveSpec,
    PicardConfig,
    TimeGrid,
    evaluate_model2,
    solve_model2,
    solve_model3,
)
from tcmv.cli import load_config
from tcmv.errors import NonConvergenceError
from tcmv.market import _coeffs
from tcmv.model2 import gain_equation_map, gain_residual, portfolio_variance_rate
from tcmv.numerics import picard_solve, tail_integrals
from .conftest import gain_iterate_bounds, random_distinct_market

# fraction of wealth in stock 1 at t=0 for the symmetric-volatility market
# with alpha = (0.2, 0.12), sigma = 0.25 I, T = 1; frozen from a
# tol=1e-13 solve on a 10^4-node grid
K_AT_ZERO = 0.480299164228281


def reference_model2_values(params, k, gamma):
    """The variance-only moments from their own backward quadrature:
    E = a(t) x and Var = var_factor(t) x^2, with a = e^{int_t^T drift} and
    var_factor = a^2 (e^{int_t^T variance rate} - 1); value = -(gamma/2) Var."""
    dt = k.grid.dt
    dalpha = params.alpha[0] - params.alpha[1]
    a = np.exp(tail_integrals(params.alpha[1] + k.values * dalpha, dt))
    var_factor = a * a * np.expm1(tail_integrals(portfolio_variance_rate(params, k.values), dt))
    return {"a": a, "var_factor": var_factor, "A": -(gamma / 2.0) * var_factor}


def shipped_market(name):
    with resources.as_file(resources.files("tcmv") / "configs" / name) as path:
        return load_config(str(path)).params


class TestGainEquation:
    def test_degenerate_riskfree_stock_gives_zero(self, unit_grid):
        p = MarketParams([0.2, 0.04], [[0.3, 0.0], [0.0, 0.0]], 0.04)
        sol = solve_model2(p, unit_grid)
        assert np.max(np.abs(sol.k.values)) < 1e-10

    def test_symmetric_equal_drift_gives_half(self, unit_grid):
        p = MarketParams([0.12, 0.12], [[0.25, 0.0], [0.0, 0.25]])
        sol = solve_model2(p, unit_grid)
        assert np.max(np.abs(sol.k.values - 0.5)) < 1e-10

    def test_terminal_value_and_interior(self, symmetric_params, unit_grid):
        sol = solve_model2(symmetric_params, unit_grid)
        assert sol.k.values[-1] == 0.5  # backward integral vanishes at T
        assert sol.k.values[0] == pytest.approx(K_AT_ZERO, abs=1e-9)

    def test_below_half_before_terminal(self, symmetric_params, unit_grid):
        sol = solve_model2(symmetric_params, unit_grid)
        assert np.all(sol.k.values[:-1] < 0.5)

    def test_residual(self, symmetric_params, unit_grid):
        cfg = PicardConfig(tol=1e-10)
        sol = solve_model2(symmetric_params, unit_grid, cfg)
        assert gain_residual(symmetric_params, unit_grid, sol.k.values) < 10 * cfg.tol

    def test_grid_convergence_second_order(self, symmetric_params):
        cfg = PicardConfig(tol=1e-13, max_iter=300)
        fine = solve_model2(symmetric_params, TimeGrid(1.0, 8000), cfg).k.values[0]
        errors = [
            abs(solve_model2(symmetric_params, TimeGrid(1.0, n), cfg).k.values[0] - fine)
            for n in (250, 500)
        ]
        order = np.log2(errors[0] / errors[1])
        assert 1.7 <= order <= 2.3

    def test_degenerate_market_rejected(self, unit_grid):
        p = MarketParams([0.2, 0.12], [[0.25, 0.0], [0.25, 0.0]])
        with pytest.raises(DegenerateMarketError) as err:
            solve_model2(p, unit_grid)
        assert "no equilibrium" in str(err.value)

    def test_three_stocks_are_market_error(self, unit_grid):
        # once a ValueError, which the CLI does not report as a market error
        p = MarketParams([0.2, 0.12, 0.1], np.eye(3) * 0.25, 0.04)
        message = "^models 2 and 3 need 2 stocks; got 3$"
        with pytest.raises(MarketValidationError, match=message):
            solve_model2(p, unit_grid)
        with pytest.raises(MarketValidationError, match=message):
            solve_model3(p, ObjectiveSpec(3.0, 1.0), unit_grid)

    @pytest.mark.parametrize(
        "alpha, sigma",
        [
            ([0.2, 0.12], [[1e200, 0.0], [0.0, 0.25]]),
            ([1e300, 0.0], [[0.25, 0.0], [0.0, 0.25]]),
            ([0.2, 0.12], [[1.0000000001e160, 0.0], [1e160, 0.25]]),  # csig is inf
            ([0.2, 0.12], [[1.5e154, 0.0], [1.499e154, 0.25]]),  # |sigma_1|^2 is inf
        ],
    )
    def test_overflowing_gap_or_sharpe_ratio_rejected(self, unit_grid, alpha, sigma):
        # refused before any sweep, and without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CoefficientRangeError, match="float64 range over the horizon T=1"):
                solve_model2(MarketParams(alpha, sigma, 0.04), unit_grid)

    def test_monotone_when_alpha1_larger(self, symmetric_params, unit_grid):
        sol = solve_model2(symmetric_params, unit_grid)
        assert np.all(np.diff(sol.k.values) >= -1e-14)

    def test_iterate_bounds_random_markets(self, unit_grid):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = random_distinct_market(rng)
            sol = solve_model2(p, unit_grid, PicardConfig(max_iter=500))
            lo, hi = gain_iterate_bounds(p)
            for iterate in sol.solve.history[1:]:
                assert np.all(iterate >= lo - 1e-12)
                assert np.all(iterate <= hi + 1e-12)



class TestTerminalStart:
    """The gain solve starts from its terminal value k(T) = -csig / denom =
    w1, the minimum-variance weight, held constant; where theta~^2 T runs
    to the hundreds, sweeps from the constant 1 outgrow max_iter."""

    @pytest.mark.parametrize("alpha, sigma, T", [
        ([0.2, 0.12], [[0.25, 0.0], [0.0, 0.25]], 3.0),  # figure1.cfg
        ([0.15, 0.05], [[0.3, 0.1], [0.05, 0.2]], 10.0),  # correlated
        ([0.6, 0.05], [[0.3, 0.1], [0.25, 0.15]], 3.0),  # steep, |k| up to 111
    ])
    def test_solve_reaches_the_fixed_point_in_no_more_sweeps(self, alpha, sigma, T):
        params, grid = MarketParams(alpha, sigma, 0.04), TimeGrid.default(T)
        cfg = PicardConfig(tol=1e-13, max_iter=300)
        sol = solve_model2(params, grid, cfg)
        from_one = picard_solve(gain_equation_map(params, grid), np.ones(grid.n_nodes), cfg)
        k = sol.k.values
        assert 1 < sol.solve.iterations <= from_one.iterations
        assert gain_residual(params, grid, k) <= 1e-13 * max(1.0, np.max(np.abs(k)))

    @pytest.mark.parametrize("alpha, sigma, T", [
        ([0.0, 0.25], [[0.0, 0.125], [1e-3, 0.109375]], 3.0),  # theta~^2 T near 768
        ([0.0, 0.5], [[0.0, 0.125], [0.0, 0.0]], 30.0),  # stock 2 riskless, theta~^2 T = 480
    ])
    def test_long_horizon_starts_from_the_terminal_value(self, alpha, sigma, T):
        params = MarketParams(alpha, sigma, 0.04)
        grid = TimeGrid.default(T, 200)
        step, cfg = gain_equation_map(params, grid), PicardConfig(tol=1e-13)
        with pytest.raises(NonConvergenceError):
            picard_solve(step, np.ones(grid.n_nodes), cfg)
        sol = solve_model2(params, grid, cfg)
        _, _, denom, csig, _ = _coeffs(params)
        assert np.array_equal(sol.solve.history[0], np.full(grid.n_nodes, -csig / denom))
        assert gain_residual(params, grid, sol.k.values) < 1e-13


def objective(vals, t, x):
    """Model 2's own objective, the variance alone: -(gamma/2) Var[X_T]."""
    return -0.5 * vals.gamma * vals.variance(t, x)


class TestValues:
    def test_terminal_boundary(self, symmetric_params, unit_grid):
        sol = solve_model2(symmetric_params, unit_grid)
        vals = evaluate_model2(symmetric_params, sol.k, 3.0)
        assert vals.mean(1.0, 2.3) == pytest.approx(2.3)
        assert vals.variance(1.0, 2.3) == pytest.approx(0.0, abs=1e-15)
        assert objective(vals, 1.0, 2.3) == pytest.approx(0.0, abs=1e-15)

    def test_deterministic_degenerate_case(self, unit_grid):
        # k = 0 and a riskless second stock: wealth compounds at alpha_2
        p = MarketParams([0.2, 0.12], [[0.3, 0.0], [0.0, 0.0]])
        sol = solve_model2(p, unit_grid)
        vals = evaluate_model2(p, sol.k, 1.0)
        assert vals.mean(0.0, 1.0) == pytest.approx(np.exp(0.12), abs=1e-9)
        assert vals.variance(0.0, 1.0) == pytest.approx(0.0, abs=1e-9)

    def test_symmetric_equal_drift_moments(self, unit_grid):
        # k = 1/2 exactly: Var = e^{2 alpha T}(e^{sigma^2 T / 2} - 1)
        p = MarketParams([0.12, 0.12], [[0.25, 0.0], [0.0, 0.25]])
        sol = solve_model2(p, unit_grid)
        vals = evaluate_model2(p, sol.k, 2.0)
        assert vals.mean(0.0, 1.0) == pytest.approx(np.exp(0.12), abs=1e-9)
        expected_var = np.exp(0.24) * np.expm1(0.03125)
        assert vals.variance(0.0, 1.0) == pytest.approx(expected_var, abs=1e-8)
        assert vals.variance(0.0, 1.0) == pytest.approx(0.04035, abs=5e-6)

    def test_k_is_gamma_free_and_A_scales(self, symmetric_params, unit_grid):
        sol = solve_model2(symmetric_params, unit_grid)
        v1 = evaluate_model2(symmetric_params, sol.k, 1.0)
        v7 = evaluate_model2(symmetric_params, sol.k, 7.0)
        assert np.array_equal(v1.growth.values, v7.growth.values)
        assert np.array_equal(v1.c0.values, v7.c0.values)
        t = unit_grid.nodes
        assert np.allclose(7.0 * objective(v1, t, 1.0), objective(v7, t, 1.0))
        # the objective's multiplier is nonpositive, variance nonnegative
        assert np.all(objective(v1, t, 1.0) <= 0.0)
        assert np.all(v1.c0.values >= 0.0)

    def test_variance_matches_value_identity(self, symmetric_params, unit_grid):
        # the value is the mean-variance reward of the column, so the
        # variance-only objective is what it adds to the mean
        sol = solve_model2(symmetric_params, unit_grid)
        vals = evaluate_model2(symmetric_params, sol.k, 3.0)
        for t in (0.0, 0.5):
            assert vals.value(t, 1.5) - vals.mean(t, 1.5) == pytest.approx(
                -0.5 * 3.0 * vals.variance(t, 1.5)
            )


MARKETS = [("figure1.cfg", None), ("section4.cfg", None), *((None, seed) for seed in range(20))]


@pytest.mark.parametrize("name,seed", MARKETS)
@pytest.mark.parametrize("T", [1.0, 5.0])
def test_moments_match_reference_quadrature(name, seed, T):
    # the kernels' forward integrals give the moments the tail integrals gave
    p = shipped_market(name) if name else random_distinct_market(np.random.default_rng(300 + seed))
    grid = TimeGrid(T, int(500 * T))
    k = solve_model2(p, grid, PicardConfig(tol=1e-12, max_iter=500)).k
    ref = reference_model2_values(p, k, 3.0)
    vals = evaluate_model2(p, k, 3.0)
    t = grid.nodes
    assert np.max(np.abs(vals.mean(t, 1.0) / ref["a"] - 1.0)) <= 1e-13
    variance = vals.variance(t, 1.0)
    assert np.max(np.abs(variance - ref["var_factor"])) <= 1e-12 * np.max(ref["var_factor"])
    assert np.max(np.abs(objective(vals, t, 1.0) - ref["A"])) <= 1e-12 * np.max(np.abs(ref["A"]))
