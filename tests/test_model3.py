import numpy as np
import pytest

from tcmv import (
    MarketParams,
    ObjectiveSpec,
    PicardConfig,
    TimeGrid,
    evaluate_model2,
    solve_model1,
    solve_model2,
    solve_model3,
)
from tcmv import model3
from tcmv.model2 import gain_residual
from tcmv.model3 import (
    _inflate_for_domination,
    build_kernels,
    constant_gain_equal_drifts,
    gain_bound_constant,
    intercept_bound_constant,
    intercept_equation_map,
    intercept_residual,
    iterate_sup_errors,
    solve_k2,
)
from tcmv.numerics import (
    SampledFunction,
    convergence_bound,
    forward_integrals,
    tail_integrals,
)
from .conftest import random_distinct_market

# intercept at t=0 for the symmetric-volatility market with
# alpha = (0.2, 0.12), sigma = 0.25 I, gamma = 1, T = 1; frozen from a
# tol=1e-13 solve on a 10^4-node grid
K2_AT_ZERO = 0.5290028504822771
MEAN_AT_ZERO = 1.2229899581022097
VAR_AT_ZERO = 0.09407671998680726


def brute_force_M3(kernels) -> float:
    """Reference O(N^2) sup over grid pairs t <= v of |I1(t,v) I3(t,v)|."""
    n = kernels.grid.n_nodes
    idx = np.arange(n)
    best = 0.0
    for i in range(n):
        j = idx[i:]
        best = max(best, float(np.max(np.abs(kernels.I1(i, j) * kernels.I3(i, j)))))
    return best


def reference_moments(kernels, k2: np.ndarray) -> dict[str, np.ndarray]:
    """Reference moment coefficients for a general pair (k1, k2).

    variance = I1(t,T)^{-2} {c0 x^2 + c1 x + c2} with
    c1 = -2 I2(t,T)^{-1} int_t^T I1 I3 k2 and
    c2 = I2(t,T)^{-1} {denom int_t^T I1^2 I2 k2^2
                       - 2 dalpha int_t^T I1 I3 k2 (int_t^v I1 k2 dw) dv};
    the terms that carry I3 vanish only at the solved k1.
    """
    dt = kernels.grid.dt
    dalpha, denom = kernels.dalpha, kernels.denom
    cum_a, cum_b = kernels.cum_drift, kernels.cum_vol
    inv_a = np.exp(-cum_a)
    inv_b = np.exp(-cum_b)
    i2_tT = np.exp(cum_b - cum_b[-1])
    i2_tT_inv = np.exp(cum_b[-1] - cum_b)

    # int_t^T I1 k2 and int_t^T I1 I3 k2
    u = np.exp(cum_a) * tail_integrals(inv_a * k2, dt)
    w = np.exp(cum_a + cum_b) * tail_integrals(inv_a * inv_b * kernels.h * k2, dt)
    j = dalpha * i2_tT * u - w
    # int_t^T I1^2 I2 k2^2
    s = np.exp(2 * cum_a + cum_b) * tail_integrals(inv_a**2 * inv_b * k2**2, dt)
    # the nested double integral, written with the forward cumulative
    # Q(v) = int_0^v e^{-cumA} k2 dw
    q = forward_integrals(inv_a * k2, dt)
    m = k2 * inv_a * (dalpha * inv_b[-1] - kernels.h * inv_b)
    z = np.exp(2 * cum_a + cum_b) * (tail_integrals(m * q, dt) - q * tail_integrals(m, dt))
    return {
        "c0": np.expm1(cum_b[-1] - cum_b),
        "c1": -2.0 * i2_tT_inv * j,
        "c2": i2_tT_inv * (denom * s - 2.0 * dalpha * z),
        "drift_load": dalpha * u,
    }


def reference_inflate(base: float, omega1: float, horizon: float) -> float:
    """Reference linear search for the bound constant: every 5% step checks
    n = 1..10 against targets recomputed on the spot."""
    base = max(base, 1e-12)
    omega1 = max(omega1, 1e-12)
    k = 1.01 * max(base, omega1 * base)
    for _ in range(400):
        ok = True
        for n in range(1, 11):
            target = omega1 * (
                convergence_bound(base, horizon, n - 1)
                if n > 1
                else base * np.exp(base * horizon)
            )
            if convergence_bound(k, horizon, n) < target:
                ok = False
                break
        if ok:
            return k
        k *= 1.05
    return k


@pytest.fixture
def figure_solution(symmetric_params, unit_grid):
    obj = ObjectiveSpec(1.0, 1.0)
    return solve_model3(symmetric_params, obj, unit_grid, record_history=True)


class TestGainAndIntercept:
    def test_terminal_anchors(self, symmetric_params, unit_grid):
        s1 = solve_model3(symmetric_params, ObjectiveSpec(1.0, 1.0), unit_grid)
        assert s1.k1.values[-1] == 0.5
        assert s1.k2.values[-1] == pytest.approx(0.64, abs=1e-10)
        s3 = solve_model3(symmetric_params, ObjectiveSpec(3.0, 1.0), unit_grid)
        assert s3.k2.values[-1] == pytest.approx(0.64 / 3.0, abs=1e-10)

    def test_k2_at_zero(self, figure_solution):
        assert figure_solution.k2.values[0] == pytest.approx(K2_AT_ZERO, abs=1e-9)

    def test_k1_equals_variance_only_gain(self, symmetric_params, unit_grid):
        m2 = solve_model2(symmetric_params, unit_grid)
        m3 = solve_model3(symmetric_params, ObjectiveSpec(2.0, 1.0), unit_grid)
        assert np.array_equal(m3.k1.values, m2.k.values)
        assert (m3.k1_meta.iterations, m3.k1_meta.delta) == (m2.iterations, m2.delta)

    def test_shared_gain_is_bitwise_identical(self, symmetric_params, unit_grid):
        gain = solve_model2(symmetric_params, unit_grid, record_history=True)
        for gamma in (1.0, 3.0):
            obj = ObjectiveSpec(gamma, 1.0)
            alone = solve_model3(symmetric_params, obj, unit_grid, record_history=True)
            shared = solve_model3(
                symmetric_params, obj, unit_grid, record_history=True, gain=gain
            )
            assert shared.k1_meta == alone.k1_meta
            assert shared.k2_meta == alone.k2_meta
            for a, b in [
                (shared.k1.values, alone.k1.values),
                (shared.k2.values, alone.k2.values),
                (shared.moments.c2.values, alone.moments.c2.values),
                *zip(shared.k1_history, alone.k1_history, strict=True),
            ]:
                assert np.array_equal(a, b)
        with pytest.raises(ValueError):
            solve_model3(
                symmetric_params, ObjectiveSpec(1.0, 2.0), TimeGrid(2.0, 1000), gain=gain
            )

    def test_gamma_linearity(self, symmetric_params, unit_grid):
        base = solve_model3(symmetric_params, ObjectiveSpec(1.0, 1.0), unit_grid)
        for gamma in (2.0, 3.0, 10.0):
            s = solve_model3(symmetric_params, ObjectiveSpec(gamma, 1.0), unit_grid)
            assert np.array_equal(s.k1.values, base.k1.values)
            assert np.max(np.abs(gamma * s.k2.values - base.k2.values)) < 1e-9

    def test_equal_drifts_constant_k1_and_zero_k2(self, unit_grid):
        rng = np.random.default_rng(23)
        for _ in range(20):
            p = random_distinct_market(rng)
            p = MarketParams([p.alpha[0], p.alpha[0]], p.sigma, p.r)
            s = solve_model3(p, ObjectiveSpec(2.0, 1.0), unit_grid)
            expected = constant_gain_equal_drifts(p)
            assert np.max(np.abs(s.k1.values - expected)) < 1e-12
            assert np.max(np.abs(s.k2.values)) < 1e-9

    def test_kernels_built_once(self, symmetric_params, unit_grid, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return build_kernels(*args, **kwargs)

        monkeypatch.setattr(model3, "build_kernels", counting)
        solve_model3(symmetric_params, ObjectiveSpec(2.0, 1.0), unit_grid)
        assert len(calls) == 1

    def test_intercept_map_rejects_nonpositive_gamma(self, figure_solution):
        with pytest.raises(ValueError):
            intercept_equation_map(figure_solution.kernels, 0.0)

    def test_residuals(self, symmetric_params, unit_grid):
        cfg = PicardConfig(tol=1e-11)
        s = solve_model3(symmetric_params, ObjectiveSpec(3.0, 1.0), unit_grid, cfg)
        assert gain_residual(symmetric_params, unit_grid, s.k1.values) < 1e-9
        assert intercept_residual(s.kernels, 3.0, s.k2.values) < 1e-9

    def test_monotone_k1(self, symmetric_params, unit_grid):
        # alpha_1 > alpha_2: nondecreasing; flipped drifts: nonincreasing
        s = solve_model3(symmetric_params, ObjectiveSpec(1.0, 1.0), unit_grid)
        assert np.all(np.diff(s.k1.values) >= -1e-14)
        flipped = MarketParams([0.12, 0.2], symmetric_params.sigma, 0.04)
        sf = solve_model3(flipped, ObjectiveSpec(1.0, 1.0), unit_grid)
        assert np.all(np.diff(sf.k1.values) <= 1e-14)


class TestKernels:
    def test_unit_diagonal(self, figure_solution):
        k = figure_solution.kernels
        for i in (0, 300, 1000):
            assert k.I1(i, i) == 1.0
            assert k.I2(i, i) == 1.0

    def test_zero_gain_drift_kernel(self, unit_grid):
        # k1 = 0 and alpha_2 = 0.12 make I1 over the full horizon e^{-0.12}
        p = MarketParams([0.2, 0.04], [[0.3, 0.0], [0.0, 0.0]], 0.04)
        k1 = solve_model2(p, unit_grid).k
        p12 = MarketParams([0.2, 0.12], [[0.3, 0.0], [0.0, 0.0]], 0.04)
        kernels = build_kernels(p12, k1, unit_grid)
        assert kernels.I1(0, unit_grid.n_steps) == pytest.approx(
            np.exp(-0.12), abs=1e-10
        )

    @pytest.mark.parametrize("shape", ["constant", "linear"])
    @pytest.mark.parametrize("seed", [None, 1, 2, 3])
    def test_M3_matches_brute_force_off_equilibrium(self, symmetric_params, shape, seed):
        # a k1 that does not solve its equation leaves I3 != 0
        p = symmetric_params if seed is None else random_distinct_market(
            np.random.default_rng(seed)
        )
        grid = TimeGrid(2.0, 300)
        if shape == "constant":
            values = np.full(grid.n_nodes, 0.3)
        else:
            values = np.linspace(-0.5, 1.2, grid.n_nodes)
        kernels = build_kernels(p, SampledFunction(grid, values), grid)
        expected = brute_force_M3(kernels)
        assert expected > 1e-3
        assert kernels.M3 == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_M3_matches_brute_force_at_solution(self, figure_solution):
        # at the solved k1 the kernel vanishes up to roundoff
        expected = brute_force_M3(figure_solution.kernels)
        assert expected < 1e-12
        assert abs(figure_solution.kernels.M3 - expected) < 1e-13

    def test_forcing_scales_inversely_with_gamma(self, symmetric_params, unit_grid):
        k1 = solve_model2(symmetric_params, unit_grid).k
        kernels = build_kernels(symmetric_params, k1, unit_grid)
        assert np.allclose(4.0 * kernels.forcing(4.0), kernels.forcing(1.0))


class TestMoments:
    def test_terminal_boundary(self, figure_solution):
        m = figure_solution.moments
        for x in (0.5, 1.0, 3.7):
            assert m.mean(1.0, x) == pytest.approx(x)
            assert m.variance(1.0, x) == pytest.approx(0.0, abs=1e-14)
            assert m.value(1.0, x) == pytest.approx(x)
        assert m.c0.values[-1] == 0.0
        assert m.c2.values[-1] == 0.0

    def test_frozen_reference_moments(self, figure_solution):
        m = figure_solution.moments
        assert m.mean(0.0, 1.0) == pytest.approx(MEAN_AT_ZERO, abs=1e-8)
        assert m.variance(0.0, 1.0) == pytest.approx(VAR_AT_ZERO, abs=1e-8)
        assert m.value(0.0, 1.0) == pytest.approx(
            MEAN_AT_ZERO - 0.5 * VAR_AT_ZERO, abs=1e-8
        )

    @pytest.mark.parametrize("seed", [None, *range(20)])
    def test_reduced_moments_match_general_formula(self, symmetric_params, seed):
        # at the solved k1 the terms carrying I3 drop out of the general formula
        p = symmetric_params if seed is None else random_distinct_market(
            np.random.default_rng(100 + seed)
        )
        s = solve_model3(p, ObjectiveSpec(2.0, 1.0), TimeGrid(1.0, 500))
        ref = reference_moments(s.kernels, s.k2.values)
        m = s.moments
        assert np.array_equal(m.c0.values, ref["c0"])
        assert np.array_equal(m.drift_load.values, ref["drift_load"])
        scale = np.max(np.abs(ref["c2"]))
        assert np.max(np.abs(m.c2.values - ref["c2"])) <= 1e-12 * scale
        assert np.max(np.abs(ref["c1"])) <= 1e-10 * np.max(
            np.sqrt(m.c0.values * m.c2.values)
        )

    def test_general_formula_has_linear_term_off_equilibrium(self, symmetric_params):
        # a constant k1 = 0.3 does not solve the gain equation, so I3 != 0
        grid = TimeGrid(1.0, 500)
        kernels = build_kernels(
            symmetric_params, SampledFunction.constant(grid, 0.3), grid
        )
        k2, _ = solve_k2(kernels, 2.0)
        ref = reference_moments(kernels, k2.values)
        assert np.max(np.abs(ref["c1"])) > 1e-3 * np.max(
            np.sqrt(ref["c0"] * np.abs(ref["c2"]))
        )

    def test_reduces_to_variance_only_shape(self, unit_grid):
        # equal drifts force k2 = 0, so the variance must collapse to the
        # x^2-proportional form of the variance-only model with k = k1
        p = MarketParams([0.15, 0.15], [[0.3, 0.05], [0.1, 0.2]])
        s = solve_model3(p, ObjectiveSpec(2.0, 1.0), unit_grid)
        vals2 = evaluate_model2(p, s.k1, 2.0)
        for t in (0.0, 0.3, 0.8):
            for x in (0.5, 2.0):
                assert s.moments.mean(t, x) == pytest.approx(
                    vals2.mean(t, x), abs=1e-9
                )
                assert s.moments.variance(t, x) == pytest.approx(
                    vals2.variance(t, x), abs=1e-8
                )

    def test_variance_nonnegative_lattice(self, figure_solution):
        m = figure_solution.moments
        for t in np.linspace(0.0, 1.0, 21):
            for x in np.linspace(0.1, 10.0, 25):
                assert m.variance(t, x) >= -1e-10


class TestControl:
    def test_terminal_allocation_exceeds_wealth(self, figure_solution):
        u1, u2 = model3.control(figure_solution, 1.0, 1.0)
        assert u1 == pytest.approx(1.14, abs=1e-9)
        assert u2 == pytest.approx(-0.14, abs=1e-9)  # short position

    def test_zero_wealth_gives_intercept(self, figure_solution):
        u1, _ = model3.control(figure_solution, 0.4, 0.0)
        assert u1 == pytest.approx(figure_solution.k2(0.4))

    def test_symmetric_equal_drift_half_split(self, unit_grid):
        p = MarketParams([0.12, 0.12], [[0.25, 0.0], [0.0, 0.25]])
        s = solve_model3(p, ObjectiveSpec(1.0, 1.0), unit_grid)
        u1, u2 = model3.control(s, 0.5, 2.0)
        assert u1 == pytest.approx(1.0, abs=1e-9)
        assert u2 == pytest.approx(1.0, abs=1e-9)

    def test_out_of_domain_rejected(self, figure_solution):
        with pytest.raises(ValueError):
            model3.control(figure_solution, 1.5, 1.0)
        with pytest.raises(ValueError):
            model3.control(figure_solution, -0.1, 1.0)

    def test_degenerate_asset_matches_bank_account_model(self, unit_grid):
        # riskless second stock: the allocation must agree with the
        # single-stock closed form (alpha - r) e^{-r(T-t)} / (gamma sigma^2)
        p = MarketParams([0.2, 0.04], [[0.3, 0.0], [0.0, 0.0]], 0.04)
        s = solve_model3(p, ObjectiveSpec(3.0, 1.0), unit_grid)
        assert np.max(np.abs(s.k1.values)) < 1e-10
        for t in np.linspace(0.0, 1.0, 100):
            expected = 0.16 * np.exp(-0.04 * (1.0 - t)) / (3.0 * 0.09)
            u1, _ = model3.control(s, t, 1.7)
            assert u1 == pytest.approx(expected, abs=1e-8)


class TestIterateErrorBound:
    def test_bound_dominates_both_solves(self, symmetric_params, unit_grid):
        s = solve_model3(
            symmetric_params,
            ObjectiveSpec(1.0, 1.0),
            unit_grid,
            PicardConfig(tol=1e-13, max_iter=300),
            record_history=True,
        )
        cases = [
            (s.k1_history, s.k1.values, gain_bound_constant(symmetric_params, unit_grid, s.k1_history)),
            (s.k2_history, s.k2.values, intercept_bound_constant(s.kernels, s.k2_history)),
        ]
        for history, solution, K in cases:
            errors = iterate_sup_errors(history, solution)
            for n in range(1, min(10, len(errors)) + 1):
                assert errors[n - 1] <= convergence_bound(K, 1.0, n)

    def test_inflation_matches_reference_search(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            base = 10.0 ** rng.uniform(-14.0, 0.0)
            omega1 = 10.0 ** rng.uniform(-16.0, 1.0)
            horizon = rng.uniform(0.1, 10.0)
            assert _inflate_for_domination(base, omega1, horizon) == reference_inflate(
                base, omega1, horizon
            )

    def test_bound_dominates_random_markets(self, unit_grid):
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = random_distinct_market(rng)
            s = solve_model3(
                p,
                ObjectiveSpec(2.0, 1.0),
                unit_grid,
                PicardConfig(tol=1e-13, max_iter=500),
                record_history=True,
            )
            K = intercept_bound_constant(s.kernels, s.k2_history)
            errors = iterate_sup_errors(s.k2_history, s.k2.values)
            for n in range(1, min(10, len(errors)) + 1):
                assert errors[n - 1] <= convergence_bound(K, 1.0, n)


class TestCrossModel:
    def test_model1_singlestock_limit(self, unit_grid):
        # sanity companion to the degenerate-asset test: Model 1 with one
        # stock produces the same dollar amount
        p1 = MarketParams([0.2], [[0.3]], 0.04)
        sol1 = solve_model1(p1, ObjectiveSpec(3.0, 1.0))
        p3 = MarketParams([0.2, 0.04], [[0.3, 0.0], [0.0, 0.0]], 0.04)
        s3 = solve_model3(p3, ObjectiveSpec(3.0, 1.0), unit_grid)
        for t in (0.0, 0.5, 1.0):
            u1, _ = model3.control(s3, t, 1.0)
            assert u1 == pytest.approx(sol1.control(t)[0], abs=1e-8)
