import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcmv import NonConvergenceError, PicardConfig, SampledFunction, TimeGrid
from tcmv.numerics import (
    convergence_bound,
    forward_integrals,
    picard_solve,
    tail_integrals,
    trapezoid_tail_integral,
)


class TestTimeGrid:
    def test_nodes_span_interval(self):
        grid = TimeGrid(2.0, 100)
        assert grid.nodes[0] == 0.0
        assert grid.nodes[-1] == 2.0
        assert grid.n_nodes == 101
        assert grid.dt == pytest.approx(0.02)

    def test_default_resolution(self):
        assert TimeGrid.default(3.0).n_steps == 3000

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            TimeGrid(-1.0, 100)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 1)


class TestSampledFunction:
    def test_interpolation(self):
        grid = TimeGrid(1.0, 10)
        f = SampledFunction.from_callable(grid, lambda t: 2 * t)
        assert f(0.55) == pytest.approx(1.1)

    def test_constant(self):
        grid = TimeGrid(1.0, 4)
        assert SampledFunction.constant(grid, 3.0)(0.37) == 3.0

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            SampledFunction(TimeGrid(1.0, 10), np.zeros(5))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SampledFunction(TimeGrid(1.0, 2), np.array([0.0, np.inf, 1.0]))


class TestTailIntegrals:
    def test_constant_integrand(self):
        grid = TimeGrid(2.0, 50)
        f = SampledFunction.constant(grid, 3.0)
        assert trapezoid_tail_integral(f, 0) == pytest.approx(6.0)

    def test_affine_exact(self):
        grid = TimeGrid(1.0, 100)
        f = SampledFunction.from_callable(grid, lambda t: t)
        assert trapezoid_tail_integral(f, 0) == pytest.approx(0.5, abs=1e-15)

    def test_quadratic_second_order(self):
        exact = 1.0 / 3.0
        errors = []
        for n in (100, 200):
            grid = TimeGrid(1.0, n)
            f = SampledFunction.from_callable(grid, lambda t: t * t)
            errors.append(abs(trapezoid_tail_integral(f, 0) - exact))
        assert errors[0] < 2e-5
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.05)

    def test_vanishes_at_terminal_node(self):
        grid = TimeGrid(1.0, 17)
        f = SampledFunction.from_callable(grid, np.sin)
        assert trapezoid_tail_integral(f, grid.n_steps) == 0.0

    def test_forward_plus_tail_is_total(self):
        grid = TimeGrid(1.0, 64)
        values = np.cos(5 * grid.nodes)
        fwd = forward_integrals(values, grid.dt)
        tail = tail_integrals(values, grid.dt)
        assert np.allclose(fwd + tail, fwd[-1], atol=1e-14)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 62))
    @settings(max_examples=40, deadline=None)
    def test_additivity_at_intermediate_node(self, seed, split):
        # int_t^T = int_t^s + int_s^T on shared nodes
        grid = TimeGrid(1.0, 63)
        values = np.random.default_rng(seed).standard_normal(grid.n_nodes)
        tail = tail_integrals(values, grid.dt)
        fwd = forward_integrals(values, grid.dt)
        middle = fwd[split] - fwd[0]
        assert tail[0] == pytest.approx(middle + tail[split], abs=1e-13)


class TestPicardSolve:
    def test_identity_map_immediate(self):
        result = picard_solve(lambda k: k, 11)
        assert result.iterations == 1
        assert result.delta == 0.0
        assert np.all(result.values == 1.0)

    def test_affine_contraction(self):
        # fixed point of k -> 0.5 k + 1 is 2
        result = picard_solve(lambda k: 0.5 * k + 1.0, 11, PicardConfig(tol=1e-12))
        assert np.allclose(result.values, 2.0, atol=1e-11)

    def test_divergent_map_reported(self):
        with pytest.raises(NonConvergenceError) as err:
            picard_solve(lambda k: 2.0 * k + 1.0, 5, PicardConfig(max_iter=10))
        assert err.value.iterations == 10
        assert err.value.last_delta > 0

    def test_residual_recheck(self):
        step = lambda k: 0.8 * np.tanh(k) + 0.1
        cfg = PicardConfig(tol=1e-11)
        result = picard_solve(step, 7, cfg)
        assert np.max(np.abs(step(result.values) - result.values)) <= cfg.tol

    def test_history_records_start(self):
        result = picard_solve(lambda k: 0.5 * k, 3, record_history=True)
        assert np.all(result.history[0] == 1.0)
        assert len(result.history) == result.iterations + 1


class TestConvergenceBound:
    def test_unit_constant_reference(self):
        # sum_{i>=3} 1/i! = e - 2.5
        assert convergence_bound(1.0, 1.0, 3) == pytest.approx(np.e - 2.5, rel=1e-12)

    def test_zero_horizon(self):
        assert convergence_bound(2.0, 0.0, 1) == 0.0
        assert convergence_bound(2.0, 0.0, 7) == 0.0

    def test_monotone_decreasing_in_n(self):
        values = [convergence_bound(1.0, 1.0, n) for n in (1, 3, 5, 9)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_vanishes_for_large_n(self):
        assert convergence_bound(2.0, 1.5, 60) < 1e-30

    def test_overflowing_series_returns_inf(self):
        # K * horizon = 1000: the terms overflow before the series peaks
        assert convergence_bound(100.0, 10.0, 1) == np.inf
        assert convergence_bound(50.0, 10.0, 1) == pytest.approx(7.0179610892642e218, rel=1e-12)

    def test_underflowing_series_returns_zero(self):
        assert convergence_bound(1e-300, 1.0, 5) == 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            convergence_bound(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            convergence_bound(1.0, -1.0, 1)
        with pytest.raises(ValueError):
            convergence_bound(1.0, 1.0, 0)
