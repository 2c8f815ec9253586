import sys

import numpy as np
import pytest

from tcmv import (
    FeedbackStrategy,
    MarketParams,
    ObjectiveSpec,
    SimConfig,
    SimulationExplosionError,
    TimeGrid,
    evaluate_model2,
    simulate,
    simulate_models,
    solve_model1,
    solve_model2,
    solve_model3,
)
from tcmv.montecarlo import (
    _BLOCK,
    Model1Strategy,
    _block_normals,
    _report,
    reproduce_figure_paths,
)
from tcmv.numerics import SampledFunction


class TestSimulate:
    def test_deterministic_limit(self):
        # zero volatility and k = 0: every path compounds at alpha_2 exactly
        p = MarketParams([0.2, 0.12], [[0.0, 0.0], [0.0, 0.0]])
        grid = TimeGrid(1.0, 10)
        strat = FeedbackStrategy(SampledFunction.constant(grid, 0.0))
        report = simulate(p, strat, ObjectiveSpec(1.0, 1.0), SimConfig(500, 200, 1))
        assert report.mean_estimate == pytest.approx(np.exp(0.12), abs=1e-3)
        assert report.variance_estimate == pytest.approx(0.0, abs=1e-12)

    def test_martingale_sanity(self):
        p = MarketParams([0.0, 0.0], [[0.25, 0.0], [0.0, 0.25]])
        grid = TimeGrid(1.0, 10)
        strat = FeedbackStrategy(SampledFunction.constant(grid, 0.4))
        report = simulate(p, strat, ObjectiveSpec(1.0, 1.0), SimConfig(40_000, 100, 3))
        assert abs(report.mean_estimate - 1.0) < 3 * report.se_mean

    def test_seed_determinism(self, symmetric_params, unit_grid):
        sol = solve_model2(symmetric_params, unit_grid)
        strat = FeedbackStrategy(sol.k)
        obj = ObjectiveSpec(1.0, 1.0)
        a = simulate(symmetric_params, strat, obj, SimConfig(9000, 50, 42))
        b = simulate(symmetric_params, strat, obj, SimConfig(9000, 50, 42))
        assert a == b
        c = simulate(symmetric_params, strat, obj, SimConfig(9000, 50, 43))
        assert c.mean_estimate != a.mean_estimate

    def test_reward_consistent_with_moments(self, symmetric_params, unit_grid):
        sol = solve_model2(symmetric_params, unit_grid)
        report = simulate(
            symmetric_params,
            FeedbackStrategy(sol.k),
            ObjectiveSpec(3.0, 1.0),
            SimConfig(5000, 50, 7),
        )
        expected = report.mean_estimate - 1.5 * report.variance_estimate
        assert report.reward_estimate == pytest.approx(expected, abs=1e-12)
        assert report.se_mean >= 0 and report.se_variance >= 0 and report.se_reward >= 0

    def test_model2_moments_within_three_se(self, symmetric_params, unit_grid):
        sol = solve_model2(symmetric_params, unit_grid)
        vals = evaluate_model2(symmetric_params, sol.k, 1.0)
        report = simulate(
            symmetric_params,
            FeedbackStrategy(sol.k),
            ObjectiveSpec(1.0, 1.0),
            SimConfig(30_000, 300, 12),
        )
        assert abs(report.mean_estimate - vals.mean(0.0, 1.0)) < 3 * report.se_mean
        assert (
            abs(report.variance_estimate - vals.variance(0.0, 1.0))
            < 3 * report.se_variance
        )

    def test_model3_moments_within_three_se(self, symmetric_params, unit_grid):
        obj = ObjectiveSpec(3.0, 1.0)
        s = solve_model3(symmetric_params, obj, unit_grid)
        report = simulate(
            symmetric_params,
            FeedbackStrategy(s.k1, s.k2),
            obj,
            SimConfig(30_000, 300, 13),
        )
        assert abs(report.mean_estimate - s.moments.mean(0.0, 1.0)) < 3 * report.se_mean
        assert (
            abs(report.variance_estimate - s.moments.variance(0.0, 1.0))
            < 3 * report.se_variance
        )

    def test_explosion_reported(self):
        # an absurdly leveraged constant-dollar bet at coarse steps explodes
        p = MarketParams([0.2, 0.12], [[0.9, 0.0], [0.0, 0.9]])
        grid = TimeGrid(1.0, 10)
        strat = FeedbackStrategy(SampledFunction.constant(grid, 1e150))
        with pytest.raises(SimulationExplosionError) as err:
            simulate(p, strat, ObjectiveSpec(1.0, 1.0), SimConfig(2000, 50, 5))
        assert err.value.n_excluded > 0


def reference_simulate(params, strategy, obj, cfg):
    """The per-strategy Euler loop the shared engine replaced: the strategy
    is called at every node, rows are reduced by u.sum and np.einsum."""
    T = obj.horizon_T
    n_steps = cfg.n_time_steps
    dt = T / n_steps
    times = np.linspace(0.0, T, n_steps + 1)
    terminal = np.empty(cfg.n_paths)
    alive = np.ones(cfg.n_paths, dtype=bool)
    for block, start in enumerate(range(0, cfg.n_paths, _BLOCK)):
        stop = min(start + _BLOCK, cfg.n_paths)
        shape = (stop - start, n_steps, params.n_factors)
        dw = _block_normals(cfg.seed, block, shape) * np.sqrt(dt)
        x = np.full(stop - start, cfg.x0)
        ok = np.ones(stop - start, dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(n_steps):
                u = strategy(times[i], x)
                cash = x - u.sum(axis=1)
                drift = params.r * cash + u @ params.alpha
                vol = u @ params.sigma
                x = x + drift * dt + np.einsum("ij,ij->i", vol, dw[:, i, :])
                bad = ~np.isfinite(x)
                if bad.any():
                    ok &= ~bad
                    x = np.where(bad, 0.0, x)
        terminal[start:stop] = x
        alive[start:stop] = ok
    return _report(terminal[alive], obj.gamma, int(np.count_nonzero(~alive)))


@pytest.fixture
def three_strategies(diagonal_params, unit_grid):
    obj = ObjectiveSpec(3.0, 1.0)
    s1 = solve_model1(diagonal_params, obj)
    s2 = solve_model2(diagonal_params, unit_grid)
    s3 = solve_model3(diagonal_params, obj, unit_grid, gain=s2)
    return {
        "model1": Model1Strategy(s1),
        "model2": FeedbackStrategy(s2.k),
        "model3": FeedbackStrategy(s3.k1, s3.k2),
    }


class TestSimulateModels:
    # two full Philox blocks and a partial one
    CFG = SimConfig(9000, 20, 31)

    def test_thread_counts_and_separate_calls_agree(self, diagonal_params, three_strategies):
        assert 2 * _BLOCK < self.CFG.n_paths < 3 * _BLOCK
        obj = ObjectiveSpec(3.0, 1.0)
        serial = simulate_models(diagonal_params, three_strategies, obj, self.CFG)
        assert list(serial) == list(three_strategies)
        for threads in (2, 3):
            assert simulate_models(
                diagonal_params, three_strategies, obj, self.CFG, threads
            ) == serial
        for name, strategy in three_strategies.items():
            assert simulate(diagonal_params, strategy, obj, self.CFG) == serial[name]

    @pytest.mark.parametrize("n_paths", [1000, 9000])
    def test_more_threads_than_blocks(self, diagonal_params, three_strategies, n_paths):
        obj = ObjectiveSpec(3.0, 1.0)
        cfg = SimConfig(n_paths, 20, 31)
        assert simulate_models(
            diagonal_params, three_strategies, obj, cfg, threads=8
        ) == simulate_models(diagonal_params, three_strategies, obj, cfg)

    def test_draws_ahead_survive_frequent_thread_switches(
        self, diagonal_params, three_strategies
    ):
        # more drawing workers than blocks or cores and a tiny switch
        # interval must neither reorder nor lose a block
        obj = ObjectiveSpec(3.0, 1.0)
        serial = simulate_models(diagonal_params, three_strategies, obj, self.CFG)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert simulate_models(
                    diagonal_params, three_strategies, obj, self.CFG, threads=8
                ) == serial
        finally:
            sys.setswitchinterval(interval)

    def test_equals_the_reference_loop(self, diagonal_params, three_strategies):
        obj = ObjectiveSpec(3.0, 1.0)
        reports = simulate_models(diagonal_params, three_strategies, obj, self.CFG, 2)
        for name, strategy in three_strategies.items():
            assert reports[name] == reference_simulate(
                diagonal_params, strategy, obj, self.CFG
            )

    @pytest.mark.parametrize(
        "params, k1, k2",
        [
            # no volatility and a short position: signed zeros in every sum
            (MarketParams([0.2, 0.12], [[0.0, 0.0], [0.0, 0.0]], 0.04), -0.5, 0.0),
            # one factor, and three factors
            (MarketParams([0.2, 0.12], [[0.3], [0.1]], 0.04), 0.4, 0.1),
            (MarketParams([0.2, 0.12], [[0.3, 0.1, 0.0], [0.0, 0.2, 0.1]], 0.0), 0.7, -0.2),
        ],
    )
    def test_equals_the_reference_loop_on_other_shapes(self, params, k1, k2):
        grid = TimeGrid(1.0, 10)
        strategy = FeedbackStrategy(
            SampledFunction.constant(grid, k1), SampledFunction.constant(grid, k2)
        )
        obj = ObjectiveSpec(2.0, 1.0)
        cfg = SimConfig(5000, 15, 3)
        assert simulate(params, strategy, obj, cfg) == reference_simulate(
            params, strategy, obj, cfg
        )

    def test_equals_the_reference_loop_with_three_stocks(self):
        params = MarketParams(
            [0.2, 0.12, 0.08], [[0.3, 0.0, 0.0], [0.05, 0.2, 0.0], [0.0, 0.05, 0.15]], 0.03
        )
        obj = ObjectiveSpec(3.0, 2.0)
        strategy = Model1Strategy(solve_model1(params, obj))
        cfg = SimConfig(5000, 15, 4)
        assert simulate(params, strategy, obj, cfg) == reference_simulate(
            params, strategy, obj, cfg
        )

    def test_equals_the_reference_loop_with_excluded_paths(
        self, diagonal_params, monkeypatch
    ):
        # paths whose wealth passes 1.3 get an infinite position and are
        # excluded; the tolerated fraction is lifted so both loops report
        monkeypatch.setattr("tcmv.montecarlo._MAX_EXPLODED_FRACTION", 1.0)

        def strategy(t, x):
            u1 = np.where(x > 1.3, np.inf, 0.5 * x)
            return np.stack([u1, x - u1], axis=-1)

        obj = ObjectiveSpec(1.0, 1.0)
        report = simulate(diagonal_params, strategy, obj, self.CFG)
        assert 0 < report.n_excluded < self.CFG.n_paths
        assert report == reference_simulate(diagonal_params, strategy, obj, self.CFG)

    def test_grid_sampling_matches_calls_bitwise(self, three_strategies):
        # the engine reads coefficients sampled once on the MC grid; they
        # must give the dollars a call at each node gives
        times = np.linspace(0.0, 1.0, 301)
        x = np.linspace(-2.0, 5.0, 7)
        for strategy in three_strategies.values():
            alloc = strategy.on_grid(times)
            for i, t in enumerate(times):
                assert np.array_equal(alloc(i, x), strategy(t, x))

    def test_plain_callable_strategy(self, diagonal_params, three_strategies):
        strategy = three_strategies["model3"]
        obj = ObjectiveSpec(3.0, 1.0)
        plain = simulate(diagonal_params, lambda t, x: strategy(t, x), obj, self.CFG)
        assert plain == simulate(diagonal_params, strategy, obj, self.CFG)

    def test_one_exploding_model_is_reported(self, three_strategies):
        p = MarketParams([0.2, 0.12], [[0.9, 0.0], [0.0, 0.9]])
        grid = TimeGrid(1.0, 10)
        strategies = {
            "model2": three_strategies["model2"],
            "wild": FeedbackStrategy(SampledFunction.constant(grid, 1e150)),
        }
        with pytest.raises(SimulationExplosionError) as err:
            simulate_models(p, strategies, ObjectiveSpec(1.0, 1.0), SimConfig(5000, 50, 5), 2)
        assert err.value.n_excluded > 0


class TestFigurePaths:
    @pytest.fixture
    def strategies(self, diagonal_params, unit_grid):
        obj = ObjectiveSpec(3.0, 1.0)
        s1 = solve_model1(diagonal_params, obj)
        s2 = solve_model2(diagonal_params, unit_grid)
        s3 = solve_model3(diagonal_params, obj, unit_grid)
        return {
            "model1": Model1Strategy(s1),
            "model2": FeedbackStrategy(s2.k),
            "model3": FeedbackStrategy(s3.k1, s3.k2),
        }

    def test_bitwise_reproducible(self, diagonal_params, strategies):
        obj = ObjectiveSpec(3.0, 1.0)
        cfg = SimConfig(1, 100, 77)
        a = reproduce_figure_paths(diagonal_params, obj, strategies, cfg)
        b = reproduce_figure_paths(diagonal_params, obj, strategies, cfg)
        assert np.array_equal(a.prices, b.prices)
        for name in strategies:
            assert np.array_equal(a.wealth[name], b.wealth[name])

    def test_shared_prices_and_ordering(self, diagonal_params, strategies):
        obj = ObjectiveSpec(3.0, 1.0)
        tables = reproduce_figure_paths(
            diagonal_params, obj, strategies, SimConfig(1, 250, 5)
        )
        assert tables.prices.shape == (251, 2)
        assert np.all(tables.prices > 0)
        # variance-only model holds less of the high-drift stock throughout
        assert np.all(
            tables.stock1_dollars["model2"] <= tables.stock1_dollars["model3"] + 1e-12
        )

    def test_model1_borrows_at_start(self, diagonal_params, strategies):
        obj = ObjectiveSpec(3.0, 1.0)
        tables = reproduce_figure_paths(
            diagonal_params, obj, strategies, SimConfig(1, 50, 5)
        )
        total = tables.stock1_dollars["model1"][0] + tables.stock2_dollars["model1"][0]
        assert total > tables.wealth["model1"][0]
