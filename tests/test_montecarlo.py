import dataclasses
import re
import sys
import threading
import tracemalloc
from importlib import resources
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tcmv import (
    MarketParams,
    ObjectiveSpec,
    SimConfig,
    SimulationExplosionError,
    evaluate_model2,
    simulate,
    simulate_models,
    solve_model1,
    solve_model2,
    solve_model3,
)
from tcmv import cli, montecarlo
from tcmv.montecarlo import (
    _BLOCK,
    _FACTORS,
    MAX_BLOCK_BYTES,
    _cuts,
    _report,
    _step_table,
    _stream,
    _workers,
    group_nbytes,
    reproduce_figure_paths,
)

# models 2 and 3 read sigma through its rows' inner products, on any number of factors
TWO_STOCKS_ON_THREE_FACTORS = MarketParams(
    [0.2, 0.12], [[0.25, 0.0, 0.1], [0.0, 0.25, 0.0]], 0.04
)


class TestSimulate:
    def test_deterministic_limit(self):
        # zero volatility and k = 0: every path compounds at alpha_2 exactly
        p = MarketParams([0.2, 0.12], [[0.0, 0.0], [0.0, 0.0]])
        strat = feedback(0.0)
        report = simulate(p, strat, ObjectiveSpec(1.0, 1.0), SimConfig(500, 200, 1))
        assert report.mean_estimate == pytest.approx(np.exp(0.12), abs=1e-3)
        assert report.variance_estimate == pytest.approx(0.0, abs=1e-12)

    def test_martingale_sanity(self):
        p = MarketParams([0.0, 0.0], [[0.25, 0.0], [0.0, 0.25]])
        strat = feedback(0.4)
        report = simulate(p, strat, ObjectiveSpec(1.0, 1.0), SimConfig(40_000, 100, 3))
        assert abs(report.mean_estimate - 1.0) < 3 * report.se_mean

    def test_seed_determinism(self, symmetric_params, unit_grid):
        strat = solve_model2(symmetric_params, unit_grid)
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
            sol,
            ObjectiveSpec(3.0, 1.0),
            SimConfig(5000, 50, 7),
        )
        expected = report.mean_estimate - 1.5 * report.variance_estimate
        assert report.reward_estimate == pytest.approx(expected, abs=1e-12)
        assert report.se_mean >= 0 and report.se_variance >= 0 and report.se_reward >= 0

    def test_reward_error_scales_gamma_out_only_where_it_overflows(self):
        # (gamma/2 se_variance)^2 overflows at gamma = 1e300, not at 1e150:
        # the error of the reward, dominated by that term, scales with gamma
        values = np.random.default_rng(3).normal(size=500)
        with np.errstate(over="ignore"):  # as in simulate_models
            small, huge = _report(values, 1e150, 0), _report(values, 1e300, 0)
        assert np.isfinite(huge.reward_estimate) and np.isfinite(huge.se_reward)
        assert huge.se_reward == pytest.approx(1e150 * small.se_reward, rel=1e-12)
        # where the plain form is finite it is kept, bit for bit
        n, c = values.size, values - values.mean()
        m3 = float(np.mean(c * c * c))  # as _report forms it: (c c) c
        plain = small.se_mean**2 + (0.5 * 1e150 * small.se_variance) ** 2 - 1e150 * m3 / n
        assert small.se_reward == np.sqrt(plain)

    def test_central_moments_exact_in_float64(self):
        # 0.25 +- 1.5: every power of a deviation is exact, so m3 = 0 and
        # m4 = 1.5**4 = 5.0625, and the errors are their formulas bit for bit
        n, gamma = 8, 3.0
        report = _report(np.array([-1.25, 1.75] * (n // 2)), gamma, 0)
        var = 2.25 * n / (n - 1)
        assert (report.mean_estimate, report.variance_estimate) == (0.25, var)
        assert report.se_variance == np.sqrt((5.0625 - (n - 3) / (n - 1) * var**2) / n)
        assert report.se_reward == np.sqrt(
            report.se_mean**2 + (0.5 * gamma * report.se_variance) ** 2 - gamma * 0.0 / n)

    def test_model2_moments_within_three_se(self, symmetric_params, unit_grid):
        for params in (symmetric_params, TWO_STOCKS_ON_THREE_FACTORS):
            sol = solve_model2(params, unit_grid)
            vals = evaluate_model2(params, sol.k, 1.0)
            report = simulate(
                params,
                sol,
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
        for params in (symmetric_params, TWO_STOCKS_ON_THREE_FACTORS):
            s = solve_model3(params, obj, unit_grid)
            report = simulate(
                params,
                s,
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
        strat = feedback(1e150)
        with pytest.raises(SimulationExplosionError) as err:
            simulate(p, strat, ObjectiveSpec(1.0, 1.0), SimConfig(2000, 50, 5))
        assert err.value.n_excluded > 0


class TestSyntheticBank:
    """sigma2 = c sigma1, c != 1: the portfolio (-c, 1) / (1 - c) is riskless
    at rate rho = (alpha2 - c alpha1) / (1 - c), and models 2 and 3 hold it
    as a bank (test_model3.TestBankAccountLimit).  Model 2's gain steps every
    path by 1 + rho dt, and model 3 simulates model 1 on stock 1 at bank
    rate rho."""

    @pytest.mark.parametrize("c, alpha2", [(0.5, 0.15), (2.0, 0.3), (-1.0, 0.05), (0.0, 0.04)])
    def test_models_2_and_3_simulate_the_bank_account_model(self, unit_grid, c, alpha2):
        s1, alpha1, obj = np.array([0.3, 0.1]), 0.2, ObjectiveSpec(3.0, 1.0)
        params = MarketParams([alpha1, alpha2], [s1, c * s1], 0.04)
        rho = alpha1 - (alpha1 - alpha2) / (1.0 - c)
        cfg = SimConfig(8192, 250, 12345)
        s3 = solve_model3(params, obj, unit_grid)
        reports = simulate_models(params, {2: (s3.gain, obj), 3: (s3, obj)}, cfg)
        bank = np.prod(np.full(cfg.n_time_steps, 1.0 + rho * obj.horizon_T / cfg.n_time_steps))
        assert abs(reports[2].mean_estimate - bank) <= 1e-13 * bank
        assert reports[2].variance_estimate <= 1e-24
        m1 = solve_model1(MarketParams([alpha1], [s1], rho), obj).moments
        model3 = reports[3]
        assert abs(model3.mean_estimate - m1.mean(0.0, cfg.x0)) <= 3 * model3.se_mean
        assert abs(model3.variance_estimate - m1.variance(0.0, cfg.x0)) <= 3 * model3.se_variance


def reference_simulate(params, strategy, obj, cfg):
    """The per-strategy Euler loop in dollars: u = G x + b at every node,
    with b = b1 / gamma of the objective, cash at the risk-free rate, rows
    reduced by u.sum and np.einsum, and exploded paths masked at every step."""
    T = obj.horizon_T
    n_steps = cfg.n_time_steps
    dt = T / n_steps
    G, b1 = strategy.unit_coefficients(np.linspace(0.0, T, n_steps + 1))
    b = b1 / obj.gamma
    terminal = np.empty(cfg.n_paths)
    alive = np.ones(cfg.n_paths, dtype=bool)
    for block, start in enumerate(range(0, cfg.n_paths, _BLOCK)):
        stop = min(start + _BLOCK, cfg.n_paths)
        shape = (stop - start, n_steps, params.n_factors)
        dw = _stream(cfg.seed, block).standard_normal(shape) * np.sqrt(dt)
        x = np.full(stop - start, cfg.x0)
        ok = np.ones(stop - start, dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(n_steps):
                u = G[i] * x[:, None] + b[i]
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


def assert_close(report, reference, rel=1e-12):
    """Every float field within rel of the reference, n_excluded equal: the
    engine factors the Euler step as x (1 + a dt + c dW) + beta dt + e dW,
    which rounds differently from the dollar loop.  A field that vanishes
    is compared on the scale of the mean, or of its square for the
    variance and its standard error."""
    assert report.n_excluded == reference.n_excluded
    assert report.n_effective == reference.n_effective
    mean = abs(reference.mean_estimate)
    for f, scale in (("mean_estimate", mean), ("variance_estimate", mean**2),
                     ("reward_estimate", mean), ("se_mean", mean),
                     ("se_variance", mean**2), ("se_reward", mean)):
        new, old = getattr(report, f), getattr(reference, f)
        assert abs(new - old) <= rel * max(abs(old), scale), (f, new, old)


@dataclasses.dataclass(frozen=True)
class Affine:
    """u = G x + b / gamma dollars, with the gamma of the column's objective,
    and G and b given per node (n + 1 rows) or as one row for every node:
    the strategy protocol and nothing else, so an engine path that reads
    any other member fails."""

    G: np.ndarray
    b: np.ndarray

    def unit_coefficients(self, times):
        shape = (len(times), np.shape(self.G)[-1])
        return np.broadcast_to(self.G, shape), np.broadcast_to(self.b, shape)


def feedback(k1, k2=0.0):
    """Constant k1 x + k2 / gamma dollars in stock 1 and the rest in stock 2."""
    return Affine(np.array([k1, 1.0 - k1]), np.array([k2, -k2]))


@pytest.fixture
def three_strategies(diagonal_params, unit_grid):
    obj = ObjectiveSpec(3.0, 1.0)
    s1 = solve_model1(diagonal_params, obj)
    s3 = solve_model3(diagonal_params, obj, unit_grid)
    return {"model1": s1, "model2": s3.gain, "model3": s3}


def columns_of(strategies, obj):
    return {name: (strategy, obj) for name, strategy in strategies.items()}


class HookedStream:
    """Block ``block``'s stream, whose draws call hook(block, out) once out
    is filled: standard_normal(out=...) is the one call the engine makes of
    a block stream."""

    def __init__(self, seed, block, hook):
        self.stream, self.block, self.hook = _stream(seed, block), block, hook

    def standard_normal(self, *, out):
        self.stream.standard_normal(out=out)
        self.hook(self.block, out)


def hook_draws(monkeypatch, hook):
    """Has every block stream simulate_models makes call hook(block, out)
    after each of its draws."""
    monkeypatch.setattr(montecarlo, "_stream",
                        lambda seed, block: HookedStream(seed, block, hook))


class TestSimulateModels:
    # two full Philox blocks and a partial one
    CFG = SimConfig(9000, 20, 31)

    def test_thread_counts_and_separate_calls_agree(self, diagonal_params, three_strategies):
        assert 2 * _BLOCK < self.CFG.n_paths < 3 * _BLOCK
        obj = ObjectiveSpec(3.0, 1.0)
        columns = columns_of(three_strategies, obj)
        serial = simulate_models(diagonal_params, columns, self.CFG)
        assert list(serial) == list(three_strategies)
        for threads in (2, 3):
            assert simulate_models(diagonal_params, columns, self.CFG, threads) == serial
        for name, strategy in three_strategies.items():
            assert simulate(diagonal_params, strategy, obj, self.CFG) == serial[name]

    def test_columns_are_independent_of_their_company(
        self, diagonal_params, three_strategies
    ):
        # two cases of different gamma and T in one pass: each column
        # reports bitwise what it reports alone, at every thread count
        cases = [ObjectiveSpec(3.0, 1.0), ObjectiveSpec(1.0, 0.5)]
        columns = {
            (obj, name): (strategy, obj)
            for obj in cases for name, strategy in three_strategies.items()
        }
        solo = {
            key: simulate(diagonal_params, strategy, obj, self.CFG)
            for key, (strategy, obj) in columns.items()
        }
        for threads in (1, 2, 3):
            assert simulate_models(diagonal_params, columns, self.CFG, threads) == solo
        pair = {key: columns[key] for key in list(columns)[2:4]}
        assert simulate_models(diagonal_params, pair, self.CFG, 2) == {
            key: solo[key] for key in pair
        }

    @given(
        st.integers(2, 3),
        st.integers(1, 3),
        st.integers(0, 2**32),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_affine_columns_are_independent(self, n, d, seed):
        rng = np.random.default_rng(seed)
        params = MarketParams(
            rng.uniform(-0.1, 0.3, n), rng.uniform(-0.4, 0.4, (n, d)), rng.uniform(0, 0.05)
        )
        columns = {
            i: (Affine(rng.uniform(-2, 2, n), rng.uniform(-1, 1, n)),
                ObjectiveSpec(rng.uniform(0.5, 5.0), T))
            for i, T in enumerate([1.0, 0.5, 2.0])
        }
        cfg = SimConfig(300, 8, seed)
        together = simulate_models(params, columns, cfg)
        for key, (strategy, obj) in columns.items():
            assert simulate(params, strategy, obj, cfg) == together[key]

    def test_worker_count_is_bounded(self, monkeypatch):
        # computed only: no thread is started; the count includes the
        # calling thread
        monkeypatch.setattr("tcmv.montecarlo.os.cpu_count", lambda: 4)
        assert _workers(10**6, 10**6, 8) == 4  # the CPUs
        assert _workers(10**6, 2, 8) == 2  # the blocks
        assert _workers(10**6, 10**6, MAX_BLOCK_BYTES // 2) == 2  # the memory
        assert _workers(10**6, 10**6, MAX_BLOCK_BYTES) == 1
        assert _workers(2, 10**6, 8) == 2
        assert _workers(1, 10**6, 8) == 1
        monkeypatch.setattr("tcmv.montecarlo.os.cpu_count", lambda: None)
        assert _workers(10**6, 10**6, 8) == 1

    def test_worker_exception_propagates_and_no_thread_survives(
        self, diagonal_params, three_strategies, monkeypatch
    ):
        # a block stream's draw that fails on a thread other than the
        # caller's: the error leaves simulate_models once every worker has
        # ended
        caller, taken = threading.current_thread(), threading.Event()

        def failing(block, out):
            if threading.current_thread() is caller:
                taken.wait(10.0)  # a worker thread takes a block first
                return
            taken.set()
            raise RuntimeError(f"worker failed on a group of {len(out)} paths")

        hook_draws(monkeypatch, failing)
        monkeypatch.setattr("tcmv.montecarlo.os.cpu_count", lambda: 4)
        before = set(threading.enumerate())
        columns = columns_of(three_strategies, ObjectiveSpec(3.0, 1.0))
        with pytest.raises(RuntimeError, match="worker failed on a group"):
            simulate_models(diagonal_params, columns, self.CFG, threads=3)
        assert taken.is_set()
        assert set(threading.enumerate()) == before

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_each_worker_holds_one_block_buffer(
        self, diagonal_params, three_strategies, monkeypatch, threads
    ):
        # each thread draws the groups of every block it takes into the one
        # buffer of a group it allocated for the run, and the run's traced
        # peak stays below half a group more than the workers hold: their
        # normals and their scratch
        cfg = SimConfig(9000, 200, 31)
        columns = columns_of(three_strategies, ObjectiveSpec(3.0, 1.0))
        serial = simulate_models(diagonal_params, columns, cfg)
        monkeypatch.setattr("tcmv.montecarlo.os.cpu_count", lambda: 4)
        workers = _workers(threads, 3, group_nbytes(cfg, 2))
        assert workers == threads
        assert group_nbytes(cfg, 2) == 512 * 200 * 2 * 8
        buffers, groups = {}, []

        def recorded(block, out):
            # the buffer itself is kept, so a new one cannot reuse its address
            buffers.setdefault(threading.get_ident(), []).append(out.base)
            groups.append(len(out))

        hook_draws(monkeypatch, recorded)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            reports = simulate_models(diagonal_params, columns, cfg, threads)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert reports == serial
        assert 1 <= len(buffers) <= workers
        # blocks of 4096, 4096 and 808 paths, in eight, eight and four groups
        assert sorted(groups) == [202] * 4 + [512] * 16
        held = [{id(b) for b in kept} for kept in buffers.values()]
        assert all(len(ids) == 1 for ids in held)
        assert len(set().union(*held)) == len(buffers)
        assert all(b.nbytes == group_nbytes(cfg, 2) for kept in buffers.values() for b in kept)
        per_worker = group_nbytes(cfg, 2) + 8 * montecarlo._Rows(columns, 200).factor_size(512, 2)
        assert workers * per_worker < peak < workers * per_worker + 0.5 * group_nbytes(cfg, 2)

    @pytest.mark.parametrize("n_paths", [1023, 1024])
    def test_one_block_run_holds_a_quarter_of_its_normals(
        self, diagonal_params, three_strategies, monkeypatch, n_paths
    ):
        # one block of m paths, drawn in quarters cut at ceil(q m / 4) into
        # one buffer of the first: the run's traced peak is about a quarter
        # of the block's normals (one block makes one worker of two threads)
        cfg = SimConfig(n_paths, 400, 31)
        columns = columns_of(three_strategies, ObjectiveSpec(3.0, 1.0))
        serial = simulate_models(diagonal_params, columns, cfg)
        quarters = []
        hook_draws(monkeypatch, lambda block, out: quarters.append(len(out)))
        monkeypatch.setattr("tcmv.montecarlo.os.cpu_count", lambda: 4)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            reports = simulate_models(diagonal_params, columns, cfg, 2)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert reports == serial
        assert quarters == {1023: [256, 256, 256, 255], 1024: [256] * 4}[n_paths]
        block = n_paths * 400 * 2 * 8
        assert group_nbytes(cfg, 2) == 256 * 400 * 2 * 8
        assert 0.25 * block < peak < 0.4 * block  # the scratch is 0.06 of it

    @pytest.mark.parametrize("n_paths, parts", [
        (5, [2, 1, 1, 1]),
        (2048, [512] * 4),
        (4097, [512] * 8 + [1]),
        (4098, [512] * 8 + [1, 1]),
        (4099, [512] * 8 + [1, 1, 1]),
        (6145, [512] * 8 + [410, 410, 410, 410, 409]),
        (7001, [512] * 8 + [485] + [484] * 5),
        (8191, [512] * 8 + [512] * 7 + [511]),
    ])
    def test_groups_draw_every_path_once(
        self, diagonal_params, three_strategies, monkeypatch, n_paths, parts
    ):
        # a block of m paths is drawn in the non-empty groups cut at
        # ceil(q m / g), g = max(4, ceil(m / 512)), in order: quarters up to
        # 2048 paths, and as many groups as keep each within 512 paths past
        # that; a last block of 1, 2 or 3 paths skips its empty groups, the
        # last one or one between two of one path
        drawn = []
        hook_draws(monkeypatch, lambda block, out: drawn.append(len(out)))
        columns = columns_of(three_strategies, ObjectiveSpec(3.0, 1.0))
        simulate_models(diagonal_params, columns, SimConfig(n_paths, 2, 31))
        assert drawn == parts and sum(parts) == n_paths

    def test_an_unstepped_group_raises(self, diagonal_params, three_strategies, monkeypatch):
        # a group the engine leaves unstepped keeps the NaN it starts from,
        # not its start values or the bits of a freed array, so its 512
        # paths count as exploded
        step_rows, calls = montecarlo._step_rows, []

        def skip_second(x, *args, **kwargs):
            calls.append(x.shape[1])
            if len(calls) != 2:
                step_rows(x, *args, **kwargs)

        monkeypatch.setattr(montecarlo, "_step_rows", skip_second)
        columns = columns_of(three_strategies, ObjectiveSpec(3.0, 1.0))
        with pytest.raises(SimulationExplosionError, match="^512 of 4096 paths went non-finite"):
            simulate_models(diagonal_params, columns, SimConfig(4096, 10, 5))
        assert calls == [512] * 8

    # one block of 4, 5, 1023, 1024 or 4095 paths; paths about half a block
    # (in quarters up to 2048, in five groups at 2049) and one block, a last
    # block of 1, 2 or 3 paths (4097, 4098, 4099), whose empty groups come
    # last or between two of one path, two blocks and a partial one; one
    # step and more
    @pytest.mark.parametrize("n_steps", [1, 3, 21])
    @pytest.mark.parametrize("n_paths", [4, 5, 1023, 1024, 2047, 2048, 2049, 4095, 4097,
                                         4098, 4099, 6145, 9000])
    def test_groups_and_chunks_keep_the_bits_of_whole_blocks(
        self, diagonal_params, three_strategies, monkeypatch, n_paths, n_steps
    ):
        # each block drawn whole and stepped a step at a time by the
        # reference reports bit for bit what the groups of blocks and the
        # steps formed a call do, at every thread count, in the run's own
        # scratch and in scratch cut to 1, 2 or 3 steps' factors or to all
        cfg = SimConfig(n_paths, n_steps, 31)
        columns = {
            (obj, name): (strategy, obj)
            for obj in (ObjectiveSpec(3.0, 1.0), ObjectiveSpec(1.0, 0.5))
            for name, strategy in three_strategies.items()
        }
        expected = reference_models(diagonal_params, columns, cfg)
        step_rows = montecarlo._step_rows
        for steps in (None, 1, 2, 3, n_steps):

            def cut(x, table, normals, plan, scratch=None, path=None):
                given = np.empty(steps * plan.step_size(x.shape[1], normals.shape[2]))
                return step_rows(x, table, normals, plan, given, path)

            with monkeypatch.context() as patch:
                if steps is not None:
                    patch.setattr(montecarlo, "_step_rows", cut)
                for threads in (1, 2, 3):
                    assert simulate_models(diagonal_params, columns, cfg, threads) == expected

    @pytest.mark.parametrize("n_paths", [5, 4099, 9000])
    def test_each_group_is_one_draw_of_the_block_stream(
        self, diagonal_params, three_strategies, monkeypatch, n_paths
    ):
        # each non-empty group of a block is one call of its stream, into an
        # (m, n, d) buffer that holds the group's paths of the block's one
        # C-order fill, cut at _cuts: 200 steps of 2 factors, so that far
        # fewer than 512 paths of them fit in the step factors' budget
        cfg = SimConfig(n_paths, 200, 31)
        assert 512 * 200 * 2 > _FACTORS
        draws = []
        hook_draws(monkeypatch, lambda block, out: draws.append((block, out.copy())))
        columns = columns_of(three_strategies, ObjectiveSpec(3.0, 1.0))
        simulate_models(diagonal_params, columns, cfg)
        expected = []
        for block, first in enumerate(range(0, n_paths, _BLOCK)):
            m = min(_BLOCK, n_paths - first)
            fill = _stream(cfg.seed, block).standard_normal((m, 200, 2))
            cuts = _cuts(m)
            expected += [(block, fill[lo:hi]) for lo, hi in zip(cuts, cuts[1:]) if hi > lo]
        assert [block for block, _ in draws] == [block for block, _ in expected]
        assert all(same_bits(out, group) for (_, out), (_, group) in zip(draws, expected))

    @pytest.mark.parametrize("n_paths", [1000, 9000])
    def test_more_threads_than_blocks(self, diagonal_params, three_strategies, n_paths):
        columns = columns_of(three_strategies, ObjectiveSpec(3.0, 1.0))
        cfg = SimConfig(n_paths, 20, 31)
        assert simulate_models(
            diagonal_params, columns, cfg, threads=8
        ) == simulate_models(diagonal_params, columns, cfg)

    def test_workers_survive_frequent_thread_switches(
        self, diagonal_params, three_strategies, monkeypatch
    ):
        # more workers than cores and a tiny switch interval must neither
        # reorder nor lose a block
        columns = columns_of(three_strategies, ObjectiveSpec(3.0, 1.0))
        serial = simulate_models(diagonal_params, columns, self.CFG)
        monkeypatch.setattr("tcmv.montecarlo.os.cpu_count", lambda: 16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert simulate_models(diagonal_params, columns, self.CFG, threads=8) == serial
        finally:
            sys.setswitchinterval(interval)

    def test_equals_the_reference_loop(self, diagonal_params, three_strategies):
        obj = ObjectiveSpec(3.0, 1.0)
        reports = simulate_models(
            diagonal_params, columns_of(three_strategies, obj), self.CFG, 2
        )
        for name, strategy in three_strategies.items():
            assert_close(
                reports[name], reference_simulate(diagonal_params, strategy, obj, self.CFG)
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
        strategy = feedback(k1, k2)
        obj = ObjectiveSpec(2.0, 1.0)
        cfg = SimConfig(5000, 15, 3)
        assert_close(
            simulate(params, strategy, obj, cfg), reference_simulate(params, strategy, obj, cfg)
        )

    def test_equals_the_reference_loop_with_three_stocks(self):
        params = MarketParams(
            [0.2, 0.12, 0.08], [[0.3, 0.0, 0.0], [0.05, 0.2, 0.0], [0.0, 0.05, 0.15]], 0.03
        )
        obj = ObjectiveSpec(3.0, 2.0)
        strategy = solve_model1(params, obj)
        cfg = SimConfig(5000, 15, 4)
        assert_close(
            simulate(params, strategy, obj, cfg), reference_simulate(params, strategy, obj, cfg)
        )

    def test_equals_the_reference_loop_with_excluded_paths(self, monkeypatch):
        # Two steps of dt = 1 on a market whose stock 2 is riskless at
        # alpha2 = -1, so that G = (0, 1) makes the gain 1 + a dt exactly 0.
        # The first step's intercept in stock 1 overflows e dW on the paths
        # with |z| > 1.5 and leaves the rest finite; the second step's gain
        # of 0 leaves the survivors its intercept's noise alone, while the
        # exploded paths stay non-finite.  The tolerated fraction is lifted
        # so that both loops report.
        monkeypatch.setattr("tcmv.montecarlo._MAX_EXPLODED_FRACTION", 1.0)
        params = MarketParams([0.0, -1.0], [[4.0], [0.0]])
        huge = np.finfo(float).max / (4.0 * 1.5)
        strategy = Affine(np.array([0.0, 1.0]), np.array([[huge, 0.0], [1.0, 0.0], [1.0, 0.0]]))
        obj = ObjectiveSpec(1.0, 2.0)
        cfg = SimConfig(9000, 2, 31)
        report = simulate(params, strategy, obj, cfg)
        assert 0 < report.n_excluded < cfg.n_paths
        assert_close(report, reference_simulate(params, strategy, obj, cfg))

    def test_grid_sampling_matches_calls_bitwise(self, three_strategies):
        # the engine reads G and b sampled once on the MC grid; they must be
        # the coefficients each solution gives at every node
        times = np.linspace(0.0, 1.0, 301)
        s1 = three_strategies["model1"]
        k = three_strategies["model2"].k
        k1, phi = three_strategies["model3"].k1, three_strategies["model3"].kernels.unit_intercept
        G, b1 = s1.unit_coefficients(times)
        assert np.array_equal(G, np.zeros((301, 2)))
        assert np.array_equal(b1, [s1.unit_control(t) for t in times])
        G, b1 = three_strategies["model2"].unit_coefficients(times)
        assert np.array_equal(G, [[k(t), 1.0 - k(t)] for t in times])
        assert np.array_equal(b1, np.zeros((301, 2)))
        G, b1 = three_strategies["model3"].unit_coefficients(times)
        assert np.array_equal(G, [[k1(t), 1.0 - k1(t)] for t in times])
        assert np.array_equal(b1, [[phi(t), -phi(t)] for t in times])

    @pytest.mark.parametrize("T", [0.7, 1.0, 3.0, 10.0])
    @pytest.mark.parametrize("n_times", [1, 2, 3, 301])
    def test_model1_coefficients_in_one_call(self, diagonal_params, T, n_times):
        # two times on two stocks is where a plain broadcast of the time
        # factor against the weights would give a (2,) array
        gamma, r = 3.0, diagonal_params.r
        s1 = solve_model1(diagonal_params, ObjectiveSpec(gamma, T))
        times = np.linspace(0.0, T, n_times)
        G, b1 = s1.unit_coefficients(times)
        assert G.shape == b1.shape == (n_times, 2) and not G.any()
        # the closed-form control at gamma = 1 evaluated one time at a time
        assert np.array_equal(b1, [np.exp(-r * (T - t)) * s1.weights for t in times])
        assert np.array_equal(b1, [s1.unit_control(t) for t in times])  # one time a call
        # the control is the unit control scaled by 1 / gamma, in one call or one at a time
        assert s1.obj.gamma == gamma and not hasattr(s1, "gamma")
        assert np.array_equal(s1.control(times), b1 / gamma)
        assert np.array_equal([s1.control(t) for t in times], b1 / gamma)

    def test_one_exploding_model_is_reported(self, three_strategies):
        p = MarketParams([0.2, 0.12], [[0.9, 0.0], [0.0, 0.9]])
        obj = ObjectiveSpec(1.0, 1.0)
        columns = {
            "model2": (three_strategies["model2"], obj),
            "wild": (feedback(1e150), obj),
        }
        with pytest.raises(SimulationExplosionError) as err:
            simulate_models(p, columns, SimConfig(5000, 50, 5), 2)
        assert err.value.n_excluded > 0


@dataclasses.dataclass(frozen=True)
class PathTables:
    """One shared pair of stock-price paths plus per-model wealth and
    allocation time series on a common grid (common random numbers)."""

    times: np.ndarray
    prices: np.ndarray  # (n_nodes, 2)
    wealth: dict = dataclasses.field(default_factory=dict)
    stock1_dollars: dict = dataclasses.field(default_factory=dict)
    stock2_dollars: dict = dataclasses.field(default_factory=dict)


def reference_step(x, z, coef, work):
    """One Euler step of every row, x <- x (A + C z) + (B + E z) in place,
    as the engine steps: x (M, m), the d rows of z, coef one step of
    the table and work a (3, M, m) scratch array."""
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


def row_table(table):
    """The per-row table of a table of row pairs: each pair's Y row steps
    with its gain, B = E = +0, and then each pair's Z row with all of it."""
    d = (table.shape[1] - 2) // 2
    gains = table.copy()
    gains[:, 1] = gains[:, 2 + d :] = 0.0
    return np.concatenate([gains, table], axis=2)


def pair_starts(plan, m):
    """The 2P rows of plan's pairs on m paths at their start: Y 1, Z 0."""
    P = len(plan.rows)
    return np.repeat([1.0, 0.0], P * m).reshape(2 * P, m)


def reference_models(params, columns, cfg):
    """The reports of simulate_models with every block of _BLOCK paths drawn
    whole from its stream and every row stepped one step at a time by
    reference_step; the columns combine their rows as the engine does."""
    n = cfg.n_time_steps
    plan = montecarlo._Rows(columns, n)
    table = row_table(_step_table(params, plan.rows, n))
    terminal = np.empty((2 * len(plan.rows), cfg.n_paths))
    with np.errstate(over="ignore", invalid="ignore"):
        for block, first in enumerate(range(0, cfg.n_paths, _BLOCK)):
            m = min(_BLOCK, cfg.n_paths - first)
            z = _stream(cfg.seed, block).standard_normal((m, n, params.n_factors))
            x = pair_starts(plan, m)
            work = np.empty((3, *x.shape))
            for i in range(n):
                reference_step(x, z[:, i].T, table[i], work)
            terminal[:, first : first + m] = x
        reports = {}
        for key, column in zip(columns, plan.columns):
            values = column.wealth(cfg.x0, terminal)
            alive = np.isfinite(values)
            n_excluded = cfg.n_paths - int(np.count_nonzero(alive))
            reports[key] = _report(values[alive] if n_excluded else values, column.gamma,
                                   n_excluded)
    return reports


def random_plan(rng, n, d, shared, own):
    """A market of 2 stocks on d factors and the _Rows of n steps of random
    Affine columns, in random order: one gain G per entry of shared, with
    that many intercepts of its G or, for 0, one column of b = 0, and own
    intercepts of G = 0.
    Each coefficient array is scaled by 0, -0, 1 or 1e200, so a gain may
    vanish, signed zeros meet, and wealth may overflow."""
    sigma = {1: [[0.3], [0.1]], 2: [[0.25, 0.0], [0.0, 0.2]], 3: [[0.3, 0.1, 0.0], [0.0, 0.2, 0.1]]}
    params = MarketParams([0.2, 0.12], sigma[d], 0.04)

    def draw():
        return rng.normal(size=(n + 1, 2)) * rng.choice([0.0, -0.0, 1.0, 1e200])

    strategies = []
    for k in shared:
        T, G = rng.choice([1.0, 0.5]), draw()
        strategies += [(Affine(G, draw()), T) for _ in range(k)] or [(Affine(G, 0.0 * G), T)]
    for _ in range(own):
        G = np.full((n + 1, 2), rng.choice([0.0, -0.0]))
        strategies.append((Affine(G, draw()), rng.choice([1.0, 0.5])))
    columns = {i: (strategies[i][0], ObjectiveSpec(1.0, strategies[i][1]))
               for i in rng.permutation(len(strategies))}
    return params, montecarlo._Rows(columns, n)


PLANS = (
    st.integers(1, 40),
    st.integers(1, 3),
    st.lists(st.integers(0, 2), max_size=3),
    st.integers(0, 2),
    st.integers(0, 2**32),
)


# scratch for that many steps' factors, or none
SCRATCH_STEPS = st.none() | st.integers(1, 12)


@given(st.integers(1, 300), *PLANS, SCRATCH_STEPS)
# the figure paths' one path, all steps a call (P = 4 pairs, 3 of them
# of G = 0); columns of b1 = 0 that read a shared Y or own a pair, cash
# columns among them (P = 5, 2 of G = 0); fewer steps than fit in the
# scratch, and a last call cut short; no G = 0 pair (P = 2) and only G = 0
# pairs (P = 2)
@example(m=1, n=40, d=2, shared=[1, 1], own=2, seed=0, steps=40)
@example(m=5, n=10, d=2, shared=[2, 0, 1], own=1, seed=1, steps=None)
@example(m=3, n=3, d=3, shared=[1], own=1, seed=2, steps=4)
@example(m=7, n=9, d=2, shared=[2, 1], own=2, seed=3, steps=4)
@example(m=4, n=5, d=3, shared=[0, 1], own=1, seed=6, steps=2)
@example(m=3, n=6, d=2, shared=[1, 2], own=0, seed=4, steps=None)
@example(m=2, n=5, d=3, shared=[], own=2, seed=4, steps=3)
@settings(max_examples=40, deadline=None)
def test_step_rows_matches_the_per_step_reference(m, n, d, shared, own, seed, steps):
    # the pairs of a random plan stepped from normals drawn path by path
    # keep the bits of the per-row reference at every node, overflow and
    # signed zeros too, kept in a path or not, in their own buffers or in
    # given scratch of some steps' factors, past which nothing is written
    rng = np.random.default_rng(seed)
    params, plan = random_plan(rng, n, d, shared, own)
    table = _step_table(params, plan.rows, n)
    normals = rng.normal(size=(m, n, d))
    ref = pair_starts(plan, m)
    x, whole, path = np.empty_like(ref), np.empty_like(ref), np.full((n + 1, *ref.shape), np.nan)
    rows, work = row_table(table), np.empty((3, *ref.shape))
    given = None if steps is None else np.full(steps * plan.step_size(m, d) + 1, np.nan)
    bufsize = np.getbufsize()
    with np.errstate(over="ignore", invalid="ignore"):
        montecarlo._step_rows(x, table, normals, plan, given, path)
        montecarlo._step_rows(whole, table, normals, plan, given)
        assert np.getbufsize() == bufsize  # the stepping keeps its buffer size to itself
        assert same_bits(path[0], ref)
        for i in range(n):
            reference_step(ref, normals[:, i].T, rows[i], work)
            assert same_bits(path[i + 1], ref)
    assert same_bits(x, ref) and same_bits(whole, ref)
    assert given is None or np.isnan(given[-1])


@given(*PLANS, SCRATCH_STEPS)
@example(n=40, d=2, shared=[1, 1], own=2, seed=0, steps=None)
@example(n=3, d=3, shared=[1], own=1, seed=2, steps=4)
@example(n=9, d=2, shared=[2, 1], own=2, seed=3, steps=4)
@settings(max_examples=40, deadline=None)
def test_path_factors_step_as_the_blocks_do(n, d, shared, own, seed, steps):
    # the figure path, a whole run of one path that keeps its rows at every
    # node, holds at each node the bits of the block stepping at m = 1 over
    # the steps up to it, in its own scratch (every step a call) or in some
    # steps' scratch
    rng = np.random.default_rng(seed)
    params, plan = random_plan(rng, n, d, shared, own)
    table = _step_table(params, plan.rows, n)
    z = rng.normal(size=(1, n, d))
    x = np.empty((2 * len(plan.rows), 1))
    path = np.full((n + 1, *x.shape), np.nan)
    given = None if steps is None else np.empty(steps * plan.step_size(1, d))
    with np.errstate(over="ignore", invalid="ignore"):
        montecarlo._step_rows(x, table, z, plan, given, path=path)
        assert same_bits(path[0], pair_starts(plan, 1))
        for i in range(n):
            montecarlo._step_rows(x, table[: i + 1], z[:, : i + 1], plan)
            assert same_bits(path[i + 1], x)


@pytest.mark.parametrize("steps", [1, 2, 5])
def test_gain_rows_turn_negative_zero_positive(steps):
    # a Y row that meets a zero gain factor from below holds -0, which the
    # +0 shift of the per-row step turns +0; a Z row keeps a -0 that its
    # own x A + B makes.  The table is set by hand: the gain pair's A + C z
    # is -1, then 0, then 0.5, the G = 0 pair's 1.01, with C = +0 and both
    # pairs' B and E -0, on normals of 1
    G, b, obj = np.array([0.5, 0.5]), np.array([1.0, -1.0]), ObjectiveSpec(1.0, 1.0)
    columns = {0: (Affine(G, 0 * b), obj), 1: (Affine(G, b), obj), 2: (Affine(0 * G, b), obj)}
    plan = montecarlo._Rows(columns, 5)
    assert [G.any() for G, _, _ in plan.rows] == [True, False]  # in the order met
    table = np.zeros((5, 4, 2, 1))
    table[:, 0, 0, 0] = [-1.0, 0.0, 0.5, 0.5, 0.5]
    table[:, 0, 1, 0] = 1.01
    table[:, 1] = table[:, 3] = -0.0
    z, x = np.ones((2, 5, 1)), np.empty((4, 2))
    ref, work = pair_starts(plan, 2), np.empty((3, 4, 2))
    path = np.full((6, 4, 2), np.nan)
    montecarlo._step_rows(x, table, z, plan, np.empty(steps * plan.step_size(2, 1)), path)
    assert same_bits(path[0], ref)
    for i in range(5):
        reference_step(ref, z[:, i].T, row_table(table)[i], work)
        assert same_bits(path[i + 1], ref)
    # the gain's Y +0 from the second step on, its Z -0 throughout
    assert same_bits(path[2:, 0], np.zeros((4, 2)))
    assert same_bits(path[1:, 2], np.full((5, 2), -0.0))
    assert same_bits(x, ref) and same_bits(x, path[-1])


@pytest.mark.parametrize("steps", [1, 4, 6])
def test_every_step_reads_its_own_entry(steps):
    # every pair's multiplier is formed from its own step's entry, a G = 0
    # pair's too: the table is set by hand, the gain pair's A and C and the
    # G = 0 pair's A changing from step to step, the G = 0 pair's C +0 and
    # both pairs' B and E -0, on normals of both signs.  Every node keeps
    # the bits of the per-step reference, so the Z rows keep their signed
    # zeros, and both signs show
    G, b, obj = np.array([0.5, 0.5]), np.array([1.0, -1.0]), ObjectiveSpec(1.0, 1.0)
    plan = montecarlo._Rows({0: (Affine(G, b), obj), 1: (Affine(0 * G, b), obj)}, 6)
    table = np.full((6, 6, 2, 1), -0.0)
    table[:, 0, 0, 0] = [1.25, 0.5, -1.5, 2.0, 0.75, -0.25]
    table[:, 2:4, 0, 0] = [[0.1, -0.2], [-0.3, 0.05], [0.2, 0.2], [0.0, -0.1], [0.4, 0.3], [-0.1, 0.1]]
    table[:, 0, 1, 0] = [1.01, -0.5, 3.0, -2.0, 0.5, 1.5]
    table[:, 2:4, 1] = 0.0
    # each step's (d, m) normals, drawn path by path as (m, n, d)
    z = np.array([[[1.0, -0.5, 2.0], [-1.5, 0.25, 1.0]], [[-2.0, 1.0, -0.5], [0.5, -1.0, 1.5]]] * 3)
    ref, work = pair_starts(plan, 3), np.empty((3, 4, 3))
    x, path = np.empty((4, 3)), np.full((7, 4, 3), np.nan)
    drawn = np.ascontiguousarray(z.transpose(2, 0, 1))
    montecarlo._step_rows(x, table, drawn, plan, np.empty(steps * plan.step_size(3, 2)), path)
    assert same_bits(path[0], ref)
    for i in range(6):
        reference_step(ref, z[i], row_table(table)[i], work)
        assert same_bits(path[i + 1], ref)
    assert same_bits(x, ref)
    zeros = path[1:, 2:]
    assert not zeros.any() and np.signbit(zeros).any() and not np.signbit(zeros).all()


@given(st.floats(-0.9, 2.0), st.floats(0.01, 30.0), st.integers(1, 400))
# 1 + r dt below zero, and a product that overflows to inf
@example(r=-0.9, T=30.0, n=3)
@example(r=1e3, T=30.0, n=400)
@settings(max_examples=30, deadline=None)
def test_cash_pair_steps_the_sequential_product(r, T, n):
    # the Y of a G = 0 pair is np.multiply.accumulate of 1 + r dt, bit for
    # bit, at every node of the figure path and at the end of each group
    # of the block pass; the figure pass overflows to inf without a warning
    params = MarketParams([0.2, 0.12], [[0.25, 0.0], [0.0, 0.2]], r)
    cash = {"": (Affine(np.zeros(2), np.zeros(2)), ObjectiveSpec(2.0, T))}
    with np.errstate(over="ignore"):
        growth = np.multiply.accumulate(np.full(n, 1.0 + r * (T / n)))
    path = reproduce_figure_paths(params, cash, SimConfig(4, n, 7))[""]
    assert same_bits(path.wealth, np.concatenate([[1.0], growth]))
    ends, step_rows = [], montecarlo._step_rows

    def recorded(x, *args, **kwargs):
        step_rows(x, *args, **kwargs)
        ends.append(x[0].copy())

    with mock.patch.object(montecarlo, "_step_rows", recorded):
        try:
            simulate_models(params, cash, SimConfig(5, n, 7))
        except SimulationExplosionError:
            assert np.isinf(growth[-1])
    assert [e.size for e in ends] == [2, 1, 1, 1]
    assert all(same_bits(e, np.full(e.shape, growth[-1])) for e in ends)


@given(
    st.integers(1, 9),
    st.integers(1, 30),
    st.integers(1, 3),
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**63),
    st.lists(st.integers(0, 9), max_size=4),
)
@settings(max_examples=40, deadline=None)
def test_groups_drawn_in_turn_are_the_block_stream(m, n, d, seed, block, cuts):
    # drawn in groups of uneven sizes, one call after another into buffers
    # of their own, the stream gives the bits of one C-order fill of
    # (m, n, d)
    fill = _stream(seed, block).standard_normal((m, n, d))
    stream, edges = _stream(seed, block), sorted({0, m, *(c for c in cuts if c < m)})
    for first, stop in zip(edges, edges[1:]):
        group = np.empty((stop - first, n, d))
        stream.standard_normal(out=group)
        assert same_bits(group, fill[first:stop])


def reference_figure_paths(params, obj, strategies, cfg):
    """The figure paths of one (gamma, T) case: its own draw of the 2**63
    stream, its own grid and step table, and one row per model, each
    stepped from x0 with its own G and b."""
    T = obj.horizon_T
    n_steps = cfg.n_time_steps
    dt = T / n_steps
    times = np.linspace(0.0, T, n_steps + 1)
    z = _stream(cfg.seed, 2**63).standard_normal((n_steps, params.n_factors))
    w = np.vstack([np.zeros(params.n_factors), np.cumsum(z * np.sqrt(dt), axis=0)])

    log_drift = params.alpha - 0.5 * np.sum(params.sigma**2, axis=1)
    prices = np.exp(times[:, None] * log_drift[None, :] + w @ params.sigma.T)

    coefficients = []
    for s in strategies.values():
        G, b1 = s.unit_coefficients(times)
        coefficients.append((G, b1 / obj.gamma))
    table = _step_table(params, [(G, b, dt) for G, b in coefficients], n_steps)
    wealth = np.empty((n_steps + 1, len(strategies), 1))
    wealth[0] = cfg.x0
    work = np.empty((3, len(strategies), 1))
    for i in range(n_steps):
        wealth[i + 1] = wealth[i]
        reference_step(wealth[i + 1], z[i, :, None], table[i], work)

    tables = PathTables(times, prices)
    for name, (G, b), path in zip(strategies, coefficients, wealth[:, :, 0].T):
        dollars = G * path[:, None] + b
        tables.wealth[name] = path
        tables.stock1_dollars[name] = dollars[:, 0]
        tables.stock2_dollars[name] = dollars[:, 1]
    return tables


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_record(record, other):
    for field in ("times", "prices", "wealth", "dollars"):
        assert same_bits(getattr(record, field), getattr(other, field)), field


@pytest.mark.parametrize("model", ["model1", "model3"])
def test_a_columns_gamma_is_its_objectives(diagonal_params, unit_grid, model):
    # risk aversion only scales the intercept: the gamma = 1 and gamma = 3
    # solutions give the same unit coefficients, and the gamma = 1 solution
    # under the gamma = 3 objective reports and paths what the gamma = 3 one does
    def solve(gamma):
        obj = ObjectiveSpec(gamma, 1.0)
        if model == "model1":
            return solve_model1(diagonal_params, obj)
        return solve_model3(diagonal_params, obj, unit_grid)

    one, three, obj = solve(1.0), solve(3.0), ObjectiveSpec(3.0, 1.0)
    times = np.linspace(0.0, 1.0, 301)
    for a, b in zip(one.unit_coefficients(times), three.unit_coefficients(times)):
        assert same_bits(a, b)
    cfg = SimConfig(300, 20, 9)
    assert simulate(diagonal_params, one, obj, cfg) == simulate(diagonal_params, three, obj, cfg)
    paths = [reproduce_figure_paths(diagonal_params, {"": (s, obj)}, cfg)[""] for s in (one, three)]
    assert_same_record(*paths)


class TestFigurePaths:
    @pytest.fixture
    def strategies(self, diagonal_params, unit_grid):
        obj = ObjectiveSpec(3.0, 1.0)
        s1 = solve_model1(diagonal_params, obj)
        s2 = solve_model2(diagonal_params, unit_grid)
        s3 = solve_model3(diagonal_params, obj, unit_grid)
        return {"model1": s1, "model2": s2, "model3": s3}

    def test_bitwise_reproducible(self, diagonal_params, strategies):
        columns = columns_of(strategies, ObjectiveSpec(3.0, 1.0))
        cfg = SimConfig(1, 100, 77)
        a = reproduce_figure_paths(diagonal_params, columns, cfg)
        b = reproduce_figure_paths(diagonal_params, columns, cfg)
        assert list(a) == list(b) == list(strategies)
        for name in strategies:
            assert_same_record(a[name], b[name])

    def test_shared_prices_and_ordering(self, diagonal_params, strategies):
        columns = columns_of(strategies, ObjectiveSpec(3.0, 1.0))
        paths = reproduce_figure_paths(diagonal_params, columns, SimConfig(1, 250, 5))
        prices = paths["model1"].prices
        assert prices.shape == (251, 2)
        assert np.all(prices > 0)
        # one horizon: every column holds the same grid and prices
        assert all(p.prices is prices and p.times is paths["model1"].times
                   for p in paths.values())
        assert all(p.wealth.shape == (251,) and p.dollars.shape == (251, 2)
                   for p in paths.values())
        # variance-only model holds less of the high-drift stock throughout
        assert np.all(paths["model2"].dollars[:, 0] <= paths["model3"].dollars[:, 0] + 1e-12)

    def test_cash_column_holds_no_stock_of_an_overflowed_wealth(self):
        # G = 0 and b1 = 0 at r = 1000: the wealth overflows to inf, and the
        # column still holds b1 / gamma = 0 dollars at every node, without
        # a warning of 0 times inf
        params = MarketParams([0.2, 0.12], [[0.25, 0.0], [0.0, 0.2]], 1000.0)
        cash = {"": (Affine(np.zeros(2), np.zeros(2)), ObjectiveSpec(2.0, 30.0))}
        path = reproduce_figure_paths(params, cash, SimConfig(8, 400, 7))[""]
        assert np.isinf(path.wealth[-1])
        assert same_bits(path.dollars, np.zeros((401, 2)))

    def test_cash_column_of_opposite_infinities_is_nan_without_a_warning(self):
        # G = 0 and b1 = (1, 1) at r = 1000: x0 Y overflows to inf and Z / gamma
        # to -inf, so the wealth is nan, with no 'invalid value' warning,
        # and the column still holds b1 / gamma dollars at every node
        params = MarketParams([0.2, 0.12], [[0.25, 0.0], [0.0, 0.2]], 1000.0)
        cash = {"": (Affine(np.zeros(2), np.ones(2)), ObjectiveSpec(2.0, 30.0))}
        path = reproduce_figure_paths(params, cash, SimConfig(8, 400, 7))[""]
        assert not np.isfinite(path.wealth[-1])
        assert same_bits(path.dollars, np.full((401, 2), 0.5))

    def test_model1_borrows_at_start(self, diagonal_params, strategies):
        columns = columns_of(strategies, ObjectiveSpec(3.0, 1.0))
        model1 = reproduce_figure_paths(diagonal_params, columns, SimConfig(1, 50, 5))["model1"]
        assert model1.dollars[0].sum() > model1.wealth[0]

    def test_columns_are_independent_of_their_company(self, diagonal_params, strategies):
        # two cases of different gamma and T, and a third horizon: each
        # column's path alone is bitwise its path among the others
        cfg = SimConfig(1, 120, 8)
        columns = {
            (obj, name): (strategy, obj)
            for obj in (ObjectiveSpec(3.0, 1.0), ObjectiveSpec(1.0, 0.5), ObjectiveSpec(3.0, 2.0))
            for name, strategy in strategies.items()
        }
        together = reproduce_figure_paths(diagonal_params, columns, cfg)
        assert list(together) == list(columns)
        for key, column in columns.items():
            alone = reproduce_figure_paths(diagonal_params, {key: column}, cfg)[key]
            assert_same_record(alone, together[key])
        pair = {key: columns[key] for key in list(columns)[2:4]}
        for key, record in reproduce_figure_paths(diagonal_params, pair, cfg).items():
            assert_same_record(record, together[key])


def config_text(name):
    """A shipped config's text; "figure1.cfg:3x2" widens figure1.cfg to 3
    gammas x 2 horizons."""
    text = (resources.files("tcmv") / "configs" / name.split(":")[0]).read_text()
    if name.endswith(":3x2"):
        text = re.sub(r"(?m)^gamma = .*", "gamma = 1, 3, 10", text)
        text = re.sub(r"(?m)^T = .*", "T = 1, 0.5", text)
    if name.endswith(":5x2"):
        text = re.sub(r"(?m)^gamma = .*", "gamma = 1, 3, 10, 30, 100", text)
        text = re.sub(r"(?m)^T = .*", "T = 1, 0.5", text)
    return text


def assert_same_path(got, want, rel=1e-12):
    """Within rel of the reference on the scale of the whole path: the
    engine adds x0 Y and Z / gamma, which rounds differently from stepping
    wealth from x0, and a path may cross zero."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


def cli_run(name, tmp_path_factory):
    """A config of config_text(name), loaded and solved as the CLI does."""
    path = tmp_path_factory.mktemp("run") / "run.cfg"
    path.write_text(config_text(name))
    cfg = cli.load_config(str(path))
    return cfg, cli._solve_all(cfg)


def cli_columns(cases):
    """The (case, model) columns of tcmv simulate."""
    return {
        (i, name): (equilibrium.strategy, ObjectiveSpec(case.gamma, case.T))
        for i, case in enumerate(cases) for name, equilibrium in case.models.items()
    }


class TestRows:
    """Risk aversion is a scale factor: the columns of one horizon share
    two row pairs, however many gammas there are."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        return cli_run("figure1.cfg:5x2", tmp_path_factory)

    def test_five_gammas_by_two_horizons_step_four_pairs(self, run):
        cfg, cases = run
        columns = cli_columns(cases)
        assert len(columns) == 30
        plan = montecarlo._Rows(columns, 50)
        assert len(plan.rows) == 4
        assert _step_table(cfg.params, plan.rows, 50).shape == (50, 6, 4, 1)

    def test_pairs_are_ordered_as_met(self, run):
        # each horizon's pairs in the order its columns are met, model 1's
        # of G = 0 before model 3's of G != 0; the table is built in that
        # order
        cfg, cases = run
        plan = montecarlo._Rows(cli_columns(cases), 50)
        G, b, dt = zip(*plan.rows)
        assert [g.any() for g in G] == [False, True] * 2
        assert all(c.any() for c in b)
        assert dt == (1 / 50,) * 2 + (0.5 / 50,) * 2
        table = _step_table(cfg.params, plan.rows, 50)
        for j, row in enumerate(plan.rows):
            assert same_bits(table[:, :, j], _step_table(cfg.params, [row], 50)[:, :, 0])

    def test_columns_read_their_pairs(self):
        # one pair for each distinct (G, b1), in the order met, G = 0 or
        # not; a column with b1 = 0 reads the Y of the first pair of
        # its G, and only a G without one gets a pair of its own.  Of the
        # 2P rows, row j is pair j's Y and row P + j its Z
        G1, G2, zero, b = np.array([0.5, 0.5]), np.array([1.0, 0.0]), np.zeros(2), np.ones(2)
        obj = ObjectiveSpec(2.0, 1.0)
        strategies = [Affine(zero, b), Affine(G1, 0 * b), Affine(G1, b), Affine(G2, 0 * b),
                      Affine(G1, 2 * b), Affine(2 * G2, 3 * b), Affine(G2, 0 * b)]
        plan = montecarlo._Rows({i: (s, obj) for i, s in enumerate(strategies)}, 4)
        assert [(row[0][0].tolist(), row[1][0].tolist()) for row in plan.rows] == [
            (zero.tolist(), b.tolist()), (G1.tolist(), b.tolist()), (G2.tolist(), [0.0, 0.0]),
            (G1.tolist(), (2 * b).tolist()), ((2 * G2).tolist(), (3 * b).tolist()),
        ]
        assert [(c.gain, c.intercept) for c in plan.columns] == [
            (0, 5), (1, None), (1, 6), (2, None), (3, 8), (4, 9), (2, None)
        ]

    def test_rows_match_the_per_column_reference_loop(self, run):
        cfg, cases = run
        columns = cli_columns(cases)
        sim = SimConfig(5000, 30, 17)
        reports = simulate_models(cfg.params, columns, sim, 2)
        for key, (strategy, obj) in columns.items():
            assert_close(reports[key], reference_simulate(cfg.params, strategy, obj, sim))

    @pytest.mark.parametrize("x0", [1.0, 2.5])
    def test_model2_shares_the_gain_row_of_model3(self, run, x0):
        # model 2 is x0 Y on the pair model 3 combines with Z / gamma
        cfg, cases = run
        columns = cli_columns(cases)
        sim = SimConfig(300, 20, 3, x0)
        reports = simulate_models(cfg.params, columns, sim)
        for (i, name), (strategy, obj) in columns.items():
            assert reports[i, name] == simulate(cfg.params, strategy, obj, sim)
            if name == "model2":
                # model 3's gain without its intercept, stepped alone
                G, _ = cases[i].m3.unit_coefficients(np.linspace(0.0, obj.horizon_T, 21))
                alone = simulate(cfg.params, Affine(G, np.zeros_like(G)), obj, sim)
                assert reports[i, name] == alone

    def test_cash_column_compounds_at_the_bank_rate(self, diagonal_params):
        # G = 0 and b = 0: the column's own pair steps its Y, and every path
        # holds x0 prod (1 + r dt)
        idle = Affine(np.zeros(2), np.zeros(2))
        obj, cfg = ObjectiveSpec(2.0, 1.5), SimConfig(300, 40, 7, 2.5)
        plan = montecarlo._Rows({"idle": (idle, obj)}, 40)
        assert len(plan.rows) == 1 and not plan.rows[0][0].any()
        report = simulate(diagonal_params, idle, obj, cfg)
        growth = 1.0
        for _ in range(40):
            growth *= 1.0 + diagonal_params.r * (1.5 / 40)
        assert report.mean_estimate == 2.5 * growth
        assert report.variance_estimate == 0.0 and report.n_excluded == 0
        path = reproduce_figure_paths(diagonal_params, {"idle": (idle, obj)}, cfg)["idle"]
        assert path.wealth[-1] == 2.5 * growth and not path.dollars.any()

    def test_no_rows_step_in_any_scratch(self, diagonal_params):
        # a plan of no columns has no pair, and no pair takes no factor a
        # step, only the step's normals: nothing is stepped, in the plan's
        # own scratch, one step's or all steps'
        plan = montecarlo._Rows({}, 40)
        assert plan.step_size(7, 2) == 14 and plan.factor_size(7, 2) == 40 * 14
        table = _step_table(diagonal_params, plan.rows, 40)
        for scratch in (None, np.empty(14), np.empty(40 * 14)):
            x, path = np.empty((0, 7)), np.empty((41, 0, 7))
            montecarlo._step_rows(x, table, np.zeros((7, 40, 2)), plan, scratch, path)

    def test_step_table_build_peak(self, run):
        # each row is written into the preallocated table: the build peaks
        # near the table's own size, not at twice it
        cfg, cases = run
        plan = montecarlo._Rows(cli_columns(cases[:4]), 20_000)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            table = _step_table(cfg.params, plan.rows, 20_000)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert table.shape[2] == 4
        assert peak <= 1.3 * table.nbytes


class TestFigurePathsOnePass:
    """One call over every (case, model) column of a run against the
    per-case reference: prices bit for bit, wealth and dollars to 1e-12 of
    their path."""

    @pytest.fixture(scope="class", params=["figure1.cfg", "section4.cfg", "figure1.cfg:3x2"])
    def run(self, request, tmp_path_factory):
        return cli_run(request.param, tmp_path_factory)

    def test_every_column_matches_the_per_case_reference(self, run):
        cfg, cases = run
        columns = cli_columns(cases)
        paths = reproduce_figure_paths(cfg.params, columns, cfg.sim)
        assert list(paths) == list(columns)
        for i, case in enumerate(cases):
            strategies = {name: equilibrium.strategy for name, equilibrium in case.models.items()}
            ref = reference_figure_paths(
                cfg.params, ObjectiveSpec(case.gamma, case.T), strategies, cfg.sim
            )
            for name in strategies:
                record = paths[i, name]
                assert same_bits(record.times, ref.times)
                assert same_bits(record.prices, ref.prices)
                assert_same_path(record.wealth, ref.wealth[name])
                assert_same_path(record.dollars[:, 0], ref.stock1_dollars[name])
                assert_same_path(record.dollars[:, 1], ref.stock2_dollars[name])
