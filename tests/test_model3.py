import tracemalloc
import warnings
from importlib import resources

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

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
from tcmv.cli import load_config, main
from tcmv.errors import CoefficientRangeError, ConfigError, NonConvergenceError
from tcmv.market import _coeffs
from tcmv.model2 import gain_equation_map, gain_residual, portfolio_variance_rate
from tcmv.model3 import (
    KernelTables,
    _inflate_for_domination,
    build_kernels,
    gain_bound_constant,
    intercept_bound_constant,
    intercept_equation_map,
    intercept_residual,
    iterate_sup_errors,
    solve_horizon,
    solve_k2,
)
from tcmv.numerics import SampledFunction, convergence_bound, forward_integrals, picard_solve
from .conftest import constant_gain_equal_drifts, random_distinct_market, shipped_config

# intercept at t=0 for the symmetric-volatility market with
# alpha = (0.2, 0.12), sigma = 0.25 I, gamma = 1, T = 1; frozen from a
# tol=1e-13 solve on a 10^4-node grid
K2_AT_ZERO = 0.5290028504822771
MEAN_AT_ZERO = 1.2229899581022097
VAR_AT_ZERO = 0.09407671998680726


def shipped(name):
    """The shipped config name, loaded."""
    with resources.as_file(resources.files("tcmv") / "configs" / name) as path:
        return load_config(str(path))


def gain_integrals(params, k1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A, B, h) of the gain k1, formed from the market in float64 as the
    kernels' inputs are, not read from the kernels under test: A(t) =
    int_0^t {a2 + k1 (a1-a2)}, B(t) = int_0^t of the portfolio variance
    rate and h(v) = dalpha + ds . {sigma_2 + k1(v) ds}."""
    s2, ds, _, _, dalpha = _coeffs(params)
    k, dt = k1.values, k1.grid.dt
    a = forward_integrals(params.alpha[1] + k * dalpha, dt)
    b = forward_integrals(portfolio_variance_rate(params, k), dt)
    h = sum((d * (s + k * d) for s, d in zip(s2, ds)), dalpha)
    return a, b, h


def kernel_rows(params, k1):
    """I1(t_i,v) I3(t_i,v) for the nodes v >= t_i, row i = 0 .. N, formed
    unfactored: I1(t,v) = e^{A(t)-A(v)}, I2(t,v) = e^{B(t)-B(v)} and
    I3(t,v) = dalpha I2(t,T) - h(v) I2(t,v) (gain_integrals)."""
    a, b, h = gain_integrals(params, k1)
    dalpha = _coeffs(params)[4]
    for i in range(k1.grid.n_nodes):
        i1 = np.exp(a[i] - a[i:])
        yield i1 * (dalpha * np.exp(b[i] - b[-1]) - h[i:] * np.exp(b[i] - b[i:]))


def brute_force_M3(params, k1) -> float:
    """Reference O(N^2) sup over grid pairs t <= v of |I1(t,v) I3(t,v)|."""
    return max(float(np.max(np.abs(row))) for row in kernel_rows(params, k1))


def direct_intercept_sweep(params, k1, phi, k2) -> np.ndarray:
    """Reference O(N^2) sweep of the intercept equation: phi(t_i) + lam
    times the trapezoid over v >= t_i of I1(t_i,v) I3(t_i,v) k2(v)."""
    _, _, denom, _, dalpha = _coeffs(params)
    dt = k1.grid.dt
    out = np.array(phi, dtype=float)
    for i, row in enumerate(kernel_rows(params, k1)):
        y = row * k2[i:]
        out[i] += dalpha / denom * np.sum(0.5 * dt * (y[:-1] + y[1:]))
    return out


def _tail(values, dt):
    """tail_integrals in the precision of values."""
    out = np.empty_like(values)
    out[-1] = 0.0
    out[:-1] = np.cumsum((0.5 * dt * (values[:-1] + values[1:]))[::-1])[::-1]
    return out


def _forward(values, dt):
    """forward_integrals in the precision of values."""
    out = np.empty_like(values)
    out[0] = 0.0
    out[1:] = np.cumsum(0.5 * dt * (values[:-1] + values[1:]))
    return out


def reference_moments(params, k1, k2: np.ndarray, dtype=float) -> dict[str, np.ndarray]:
    """Reference moment coefficients for a general pair (k1, k2), evaluated
    in dtype from the float64 integrals of gain_integrals.

    variance = I1(t,T)^{-2} {c0 x^2 + c1 x + c2} with
    c1 = -2 I2(t,T)^{-1} int_t^T I1 I3 k2 and
    c2 = I2(t,T)^{-1} {denom int_t^T I1^2 I2 k2^2
                       - 2 dalpha int_t^T I1 I3 k2 (int_t^v I1 k2 dw) dv};
    the terms that carry I3 vanish only at the solved k1.
    """
    dt = k1.grid.dt
    _, _, denom, _, dalpha = _coeffs(params)
    cum_a, cum_b, h = (x.astype(dtype) for x in gain_integrals(params, k1))
    k2 = np.asarray(k2, dtype=dtype)
    inv_a = np.exp(-cum_a)
    inv_b = np.exp(-cum_b)
    i2_tT = np.exp(cum_b - cum_b[-1])
    i2_tT_inv = np.exp(cum_b[-1] - cum_b)

    # int_t^T I1 k2 and int_t^T I1 I3 k2
    u = np.exp(cum_a) * _tail(inv_a * k2, dt)
    w = np.exp(cum_a + cum_b) * _tail(inv_a * inv_b * h * k2, dt)
    j = dalpha * i2_tT * u - w
    # int_t^T I1^2 I2 k2^2
    s = np.exp(2 * cum_a + cum_b) * _tail(inv_a**2 * inv_b * k2**2, dt)
    # the nested double integral, written with the forward cumulative
    # Q(v) = int_0^v e^{-cumA} k2 dw
    q = _forward(inv_a * k2, dt)
    m = k2 * inv_a * (dalpha * inv_b[-1] - h * inv_b)
    z = np.exp(2 * cum_a + cum_b) * (_tail(m * q, dt) - q * _tail(m, dt))
    return {
        "i1_inv": np.exp(cum_a[-1] - cum_a),
        "c0": np.expm1(cum_b[-1] - cum_b),
        "c1": -2.0 * i2_tT_inv * j,
        "c2": i2_tT_inv * (denom * s - 2.0 * dalpha * z),
        "drift_load": dalpha * u,
    }


def assert_moments_match_reference(s, rel=1e-12):
    """The closed-form mean and variance of a solution against the general
    formula of reference_moments at its own k2, on every node.  The
    reference runs in extended precision (where the platform has it): in
    float64 its long cumulative sums alone drift by ~1e-12 on some markets."""
    ref = reference_moments(s.gain.params, s.k1, s.k2.values, np.longdouble)
    t, inv = s.k2.grid.nodes, ref["i1_inv"]
    for x in (0.0, 0.5, 1.0, 3.0):
        mean = inv * (x + ref["drift_load"])
        variance = inv**2 * (ref["c0"] * x * x + ref["c1"] * x + ref["c2"])
        assert np.max(np.abs(s.moments.mean(t, x) - mean)) <= rel * np.max(np.abs(mean))
        assert np.max(np.abs(s.moments.variance(t, x) - variance)) <= rel * np.max(variance)


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
    return solve_model3(symmetric_params, obj, unit_grid)


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
        gain, alone = m3.gain.solve, m2.solve
        assert (gain.iterations, gain.delta) == (alone.iterations, alone.delta)

    def test_shared_gain_is_bitwise_identical(self, symmetric_params, unit_grid):
        shared = solve_horizon(symmetric_params, [1.0, 3.0], unit_grid)
        assert shared[0].gain is shared[1].gain
        assert shared[0].kernels is shared[1].kernels
        for gamma, one in zip((1.0, 3.0), shared, strict=True):
            alone = solve_model3(symmetric_params, ObjectiveSpec(gamma, 1.0), unit_grid)
            assert one.obj == alone.obj
            checks = [solve_k2(s.kernels, s.k2) for s in (one, alone)]
            for a, b in (one.gain.solve, alone.gain.solve), checks:
                assert (a.iterations, a.delta) == (b.iterations, b.delta)
            for a, b in [
                (one.k1.values, alone.k1.values),
                (one.k2.values, alone.k2.values),
                *zip(one.kernels.kernel_factors, alone.kernels.kernel_factors, strict=True),
                *((getattr(one.kernels, name).values, getattr(alone.kernels, name).values)
                  for name in ("i1_inv", "c0", "unit_intercept", "i2_tail")),
                (one.moments.growth.values, alone.moments.growth.values),
                (one.moments.c0.values, alone.moments.c0.values),
                (one.moments.tail.values, alone.moments.tail.values),
                (one.moments.scales, alone.moments.scales),
                *zip(one.gain.solve.history, alone.gain.solve.history, strict=True),
                *zip(checks[0].history, checks[1].history, strict=True),
            ]:
                assert np.array_equal(a, b)
            assert (one.moments.gamma, one.moments.sharpe_sq) == (gamma, one.kernels.theta_sq)
            assert (alone.moments.gamma, alone.moments.sharpe_sq) == (gamma, one.kernels.theta_sq)
            # a shared gain keeps its iterates, so both bound tables can be formed
            assert gain_bound_constant(
                symmetric_params, unit_grid, one.gain.solve.history
            ) == gain_bound_constant(symmetric_params, unit_grid, alone.gain.solve.history)

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
        # every build constructs one KernelTables, whichever module calls it
        built = []
        new = KernelTables.__new__

        def counting(cls, grid, *rest):
            built.append(grid)
            return new(cls, grid, *rest)

        monkeypatch.setattr(KernelTables, "__new__", counting)
        solve_model3(symmetric_params, ObjectiveSpec(2.0, 1.0), unit_grid)
        assert built == [unit_grid]

    @pytest.mark.parametrize("gamma", [0.0, -1.0])
    def test_closed_form_rejects_nonpositive_gamma(self, figure_solution, gamma):
        # the check takes k2 and no gamma; the closed form refuses it
        with pytest.raises(ValueError):
            model3.intercept(figure_solution.kernels, gamma)
        with pytest.raises(ValueError):
            model3.moments(figure_solution.kernels, gamma)

    def test_residuals(self, symmetric_params, unit_grid):
        cfg = PicardConfig(tol=1e-11)
        s = solve_model3(symmetric_params, ObjectiveSpec(3.0, 1.0), unit_grid, cfg)
        assert gain_residual(symmetric_params, unit_grid, s.k1.values) < 1e-9
        assert intercept_residual(s.kernels, s.k2, s.k2.values) < 1e-9

    def test_monotone_k1(self, symmetric_params, unit_grid):
        # alpha_1 > alpha_2: nondecreasing; flipped drifts: nonincreasing
        s = solve_model3(symmetric_params, ObjectiveSpec(1.0, 1.0), unit_grid)
        assert np.all(np.diff(s.k1.values) >= -1e-14)
        flipped = MarketParams([0.12, 0.2], symmetric_params.sigma, 0.04)
        sf = solve_model3(flipped, ObjectiveSpec(1.0, 1.0), unit_grid)
        assert np.all(np.diff(sf.k1.values) <= 1e-14)


class TestOneOwner:
    """Each solved array has one owner: the gain is its solve's final
    iterate, and the kernels keep only the tables that are read."""

    def test_the_gain_is_its_solves_final_iterate(self, figure_solution):
        solve = figure_solution.gain.solve
        assert figure_solution.k1.values is solve.values is solve.history[-1]

    def test_a_horizon_holds_its_iterates_six_tables_and_a_k2_per_gamma(self):
        # 100 001 nodes, so that an N-node array dwarfs every small object
        params, gammas = shipped("figure1.cfg").params, [1.0, 3.0, 10.0]
        grid = TimeGrid(1.0, 100_000)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            solutions = solve_horizon(params, gammas, grid)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            if started:
                tracemalloc.stop()
        arrays = len(solutions[0].gain.solve.history) + 6 + len(gammas)
        assert held == pytest.approx(arrays * 8 * grid.n_nodes, rel=0.01)


class TestKernels:
    def test_zero_gain_drift_kernel(self, unit_grid):
        # k1 = 0 and alpha_2 = 0.12 make I1 over the full horizon e^{-0.12},
        # and so I1(0,T)^{-1} e^{0.12}
        p = MarketParams([0.2, 0.04], [[0.3, 0.0], [0.0, 0.0]], 0.04)
        k1 = solve_model2(p, unit_grid).k
        p12 = MarketParams([0.2, 0.12], [[0.3, 0.0], [0.0, 0.0]], 0.04)
        kernels = build_kernels(p12, k1)
        assert kernels.i1_inv.values[0] == pytest.approx(np.exp(0.12), abs=1e-10)

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
        k1 = SampledFunction(grid, values)
        kernels = build_kernels(p, k1)
        expected = brute_force_M3(p, k1)
        assert expected > 1e-3
        assert kernels.M3 == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_M3_matches_brute_force_at_solution(self, figure_solution):
        # at the solved k1 the kernel vanishes up to roundoff
        s = figure_solution
        expected = brute_force_M3(s.gain.params, s.k1)
        assert expected < 1e-12
        assert abs(figure_solution.kernels.M3 - expected) < 1e-13


class TestMoments:
    def test_terminal_boundary(self, figure_solution):
        m = figure_solution.moments
        for x in (0.5, 1.0, 3.7):
            assert m.mean(1.0, x) == pytest.approx(x)
            assert m.variance(1.0, x) == pytest.approx(0.0, abs=1e-14)
            assert m.value(1.0, x) == pytest.approx(x)
        assert m.c0.values[-1] == 0.0
        assert m.mean(1.0, 0.0) == m.variance(1.0, 0.0) == 0.0  # the loads

    def test_frozen_reference_moments(self, figure_solution):
        m = figure_solution.moments
        assert m.mean(0.0, 1.0) == pytest.approx(MEAN_AT_ZERO, abs=1e-8)
        assert m.variance(0.0, 1.0) == pytest.approx(VAR_AT_ZERO, abs=1e-8)
        assert m.value(0.0, 1.0) == pytest.approx(
            MEAN_AT_ZERO - 0.5 * VAR_AT_ZERO, abs=1e-8
        )

    @pytest.mark.parametrize("seed", [None, *range(20)])
    def test_reduced_moments_match_general_formula(self, symmetric_params, seed):
        # at the solved k1 the terms carrying I3 drop out of the general
        # formula, and k2 = phi_1 / gamma makes the rest theta~^2 S
        p = symmetric_params if seed is None else random_distinct_market(
            np.random.default_rng(100 + seed)
        )
        s = solve_model3(p, ObjectiveSpec(2.0, 1.0), TimeGrid(1.0, 500))
        ref = reference_moments(s.gain.params, s.k1, s.k2.values)
        assert np.array_equal(s.moments.c0.values, ref["c0"])
        assert_moments_match_reference(s)
        assert np.max(np.abs(ref["c1"])) <= 1e-10 * np.max(np.sqrt(ref["c0"] * ref["c2"]))

    def test_general_formula_has_linear_term_off_equilibrium(self, symmetric_params):
        # a constant k1 = 0.3 does not solve the gain equation, so I3 != 0
        grid = TimeGrid(1.0, 500)
        k1 = SampledFunction.constant(grid, 0.3)
        kernels = build_kernels(symmetric_params, k1)
        k2 = solve_k2(kernels, model3.intercept(kernels, 2.0)).values
        ref = reference_moments(symmetric_params, k1, k2)
        assert np.max(np.abs(ref["c1"])) > 1e-3 * np.max(
            np.sqrt(ref["c0"] * np.abs(ref["c2"]))
        )

    @pytest.mark.parametrize("gamma", [2.0, 1e-200])
    def test_reduces_to_variance_only_shape(self, unit_grid, gamma):
        # equal drifts make lam = 0, so k2 = 0 exactly and model 3's moments
        # are those of the variance-only model with k = k1, to the bit; the
        # loads stay 0 where gamma^2 underflows to 0 (they were 0 / 0)
        p = MarketParams([0.15, 0.15], [[0.3, 0.05], [0.1, 0.2]])
        s = solve_model3(p, ObjectiveSpec(gamma, 1.0), unit_grid)
        vals2 = evaluate_model2(p, s.k1, gamma)
        assert not np.any(s.k2.values)
        t = unit_grid.nodes
        assert not np.any(s.moments.mean(t, 0.0)) and not np.any(s.moments.variance(t, 0.0))
        for x in (0.5, 1.0, 2.0, 3.7):
            assert np.array_equal(s.moments.mean(t, x), vals2.mean(t, x))
            assert np.array_equal(s.moments.variance(t, x), vals2.variance(t, x))

    def test_variance_nonnegative_lattice(self, figure_solution):
        m = figure_solution.moments
        for t in np.linspace(0.0, 1.0, 21):
            for x in np.linspace(0.1, 10.0, 25):
                assert m.variance(t, x) >= -1e-10


class TestClosedFormIntercept:
    """k2 = phi_1 / gamma and its moments, formed without a solve, against
    the Volterra equation, its Picard solve and the general moment formula."""

    GAMMAS = [0.5, 1.0, 3.0, 10.0, 49.0]

    def check_horizon(self, params, grid, cfg):
        solutions = solve_horizon(params, self.GAMMAS, grid, cfg)
        unit = solutions[0].kernels.unit_intercept
        eps = np.finfo(float).eps
        for s in solutions:
            gamma = s.obj.gamma
            # one phi_1 per horizon, each k2 its quotient by gamma, so k2
            # gamma is phi_1 to a rounding of the division and the product
            # (1/49 * 49 is not 1 in float64)
            assert s.kernels.unit_intercept is unit
            assert np.array_equal(s.k2.values, unit.values / gamma)
            assert np.max(np.abs(s.k2.values * gamma - unit.values)) <= 2 * eps * np.max(
                np.abs(unit.values)
            )
            picard = solve_k2(s.kernels, s.k2, cfg).values
            assert np.max(np.abs(s.k2.values - picard)) <= 1e-12 * np.max(np.abs(picard))
            # the residual is the discrete I3 term, the gain solve's error
            # times about theta~^2 T |k2|, which a k1 solved to 1e-12 leaves
            # at up to 6e-11 where |k2| reaches 830: 10 x the default tol up
            # to |k2| = 1000, and relative to |k2| beyond
            k2_max = np.max(np.abs(s.k2.values))
            assert intercept_residual(s.kernels, s.k2, s.k2.values) <= 1e-12 * max(1e3, k2_max)
            assert_moments_match_reference(s)

    @pytest.mark.parametrize("name", ["figure1.cfg", "section4.cfg"])
    def test_shipped_markets(self, name):
        cfg = shipped(name)
        for T in cfg.horizons:
            grid = TimeGrid(T, int(round(cfg.steps_per_year * T)))
            self.check_horizon(cfg.params, grid, cfg.picard)

    @given(st.integers(0, 2**32 - 1), st.floats(0.2, 5.0))
    @settings(max_examples=25, deadline=None)
    @example(seed=7399, T=3.0)  # 2.2e-12 apart when k1 is solved to tol 1e-10
    @example(seed=147161, T=5.0)  # |k2| reaches 5.6e4: an absolute residual of 1.2e-8
    def test_random_markets(self, seed, T):
        # the two k2 differ through the discrete I3 term by the gain solve's
        # error, so the 1e-12 agreement needs a k1 solved beyond it
        params = random_distinct_market(np.random.default_rng(seed))
        grid = TimeGrid(T, int(500 * T))
        self.check_horizon(params, grid, PicardConfig(tol=1e-12, max_iter=500))

    @pytest.fixture
    def k2_solves(self, monkeypatch):
        """The calls of model3.picard_solve, which only the k2 check makes:
        the gain's Picard solve is model2's."""
        solve, calls = model3.picard_solve, []

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(model3, "picard_solve", counted)
        return calls

    def test_closed_form_runs_no_solve(self, symmetric_params, unit_grid, k2_solves):
        # k2 and the moments need no Picard solve
        solve_model3(symmetric_params, ObjectiveSpec(2.0, 1.0), unit_grid)
        solve_horizon(symmetric_params, [1.0, 3.0, 10.0], unit_grid)
        assert k2_solves == []

    @pytest.mark.parametrize("command, per_case", [("solve", 1), ("bounds", 1), ("simulate", 0)])
    def test_commands_run_the_check_once_per_case(self, tmp_path, k2_solves, command, per_case):
        # diagnostics.txt and the bound tables run it once per (gamma, T)
        # case; simulate writes neither
        path = tmp_path / "cases.cfg"
        path.write_text(shipped_config("figure1", gamma="1, 3, 10", T="1, 0.5", n_steps=50,
                                       n_paths=64, n_time_steps=5))
        assert main([command, str(path), "--out-dir", str(tmp_path / "out")]) == 0
        assert len(k2_solves) == 6 * per_case


# alpha = (0.6, 0.05), sigma = [[0.3, 0.1], [0.25, 0.15]]: theta~ = 7.8, and
# at gamma = 3, T = 3 the intercept reaches about 3.5e3
STEEP = MarketParams([0.6, 0.05], [[0.3, 0.1], [0.25, 0.15]], 0.04)


class TestInterceptCheck:
    """The Picard check of the closed form: a sweep is phi_1 / gamma + lam
    f(t) int_t^T g k2 over the kernel factors (f, g), one tail integral."""

    @staticmethod
    def gain_of(market, grid):
        """(params, k1, gamma) of a shipped config by name, the steep
        market, a constant k1 = 0.3 off equilibrium, or a random market by
        seed."""
        if isinstance(market, int):
            params, gamma = random_distinct_market(np.random.default_rng(market)), 2.0
        elif market == "steep":
            params, gamma = STEEP, 3.0
        elif market == "off equilibrium":
            params = MarketParams([0.2, 0.12], [[0.25, 0.0], [0.0, 0.25]], 0.04)
            return params, SampledFunction.constant(grid, 0.3), 2.0
        else:
            cfg = shipped(market)
            params, gamma = cfg.params, cfg.gammas[0]
        return params, solve_model2(params, grid).k, gamma

    @given(st.integers(0, 2**32 - 1), st.floats(0.2, 5.0))
    @settings(max_examples=20, deadline=None)
    @example("figure1.cfg", 1.0)
    @example("section4.cfg", 1.0)
    @example("steep", 3.0)  # two integrals missed by 5.9e-13 of the scale, one by 2.9e-14
    @example("off equilibrium", 1.0)  # I1 I3 does not vanish: M3 = 0.025
    def test_sweep_matches_direct_quadrature(self, market, T):
        grid = TimeGrid.default(T, 200)
        params, k1, gamma = self.gain_of(market, grid)
        kernels = build_kernels(params, k1)
        closed_form = model3.intercept(kernels, gamma)
        sweep, phi = intercept_equation_map(kernels, closed_form), closed_form.values
        # the check's fixed point and its start, k2's terminal value held constant
        for k2 in phi, np.full(grid.n_nodes, phi[-1]):
            got, expected = sweep(k2), direct_intercept_sweep(params, k1, phi, k2)
            scale = np.max(np.abs(phi)) + abs(kernels.lam) * kernels.M3 * T * np.max(np.abs(k2))
            assert np.max(np.abs(got - expected)) <= 1e-13 * scale

    @given(st.integers(0, 2**32 - 1), st.floats(0.2, 5.0), st.floats(0.1, 50.0))
    @settings(max_examples=20, deadline=None)
    def test_the_check_starts_at_lam_over_gamma(self, seed, T, gamma):
        # k2's terminal value is phi_1(T) / gamma = lam e^0 e^0 / gamma
        params = random_distinct_market(np.random.default_rng(seed))
        (s,) = solve_horizon(params, [gamma], TimeGrid.default(T, 200))
        start = solve_k2(s.kernels, s.k2).history[0]
        expected = np.full(s.k2.grid.n_nodes, s.kernels.lam / gamma)
        assert start.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("gamma", [1e-3, 1e-6, 1e-9])
    def test_steep_market_converges_at_the_absolute_tol(self, gamma):
        # |k2| reaches 1.07e13 at gamma = 1e-9; a sweep adds to phi_1 / gamma
        # only lam f int g k2, which vanishes with I3, not a difference of
        # two integrals of the size of k2
        s = solve_model3(STEEP, ObjectiveSpec(3.0, 3.0))
        cfg = PicardConfig()
        result = solve_k2(s.kernels, model3.intercept(s.kernels, gamma), cfg)
        assert result.iterations <= 3
        assert result.delta < cfg.tol


def kernel_exponent(params, grid) -> float:
    """The largest exponent the kernel tables take, recomputed from the
    solved gain: A(T) - A, A - A(T), B(T) - B, A + B and -A (gain_integrals)."""
    a, b, _ = gain_integrals(params, solve_model2(params, grid).k)
    return float(max(np.max(e) for e in (a[-1] - a, a - a[-1], b[-1] - b, a + b, -a)))


class TestRangeRefusal:
    """A no-bank solve is refused only where a table it forms leaves
    float64, not where e^A and e^B, formed as separate factors, would."""

    @given(
        st.tuples(st.floats(-0.1, 0.6), st.floats(-0.1, 0.6)),
        st.tuples(*[st.floats(-0.4, 0.4)] * 4),
        st.sampled_from([0.3, 1.0, 3.0, 5.0, 10.0, 30.0]),
        st.floats(1e-3, 1e2),
    )
    @settings(max_examples=50, deadline=None)
    @example((0.6, 0.05), (0.3, 0.1, 0.25, 0.15), 5.0, 3.0)  # the steep market
    @example((0.6, 0.05), (0.3, 0.1, 0.25, 0.15), 10.0, 3.0)
    @example((0.6, 0.05), (0.3, 0.1, 0.25, 0.15), 30.0, 3.0)  # refused
    def test_refused_only_where_a_table_overflows(self, alpha, sigma, T, gamma):
        sigma = np.reshape(sigma, (2, 2))
        assume(np.sum((sigma[0] - sigma[1]) ** 2) > 0.01)
        params, grid = MarketParams(alpha, sigma, 0.04), TimeGrid.default(T, 200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                (s,) = solve_horizon(params, [gamma], grid)
                history = solve_k2(s.kernels, s.k2).history
                gain_residual(params, grid, s.k1.values)
                intercept_residual(s.kernels, s.k2, s.k2.values)
                gain_bound_constant(params, grid, s.gain.solve.history)
                intercept_bound_constant(s.kernels, history)
            except ConfigError:
                return
            except CoefficientRangeError:
                assert kernel_exponent(params, grid) > np.log(np.finfo(float).max)
                return
        x = np.array([[0.0], [1.0], [3.0]])
        assert np.all(np.isfinite(s.moments.mean(grid.nodes, x)))
        assert np.all(np.isfinite(s.moments.variance(grid.nodes, x)))

    def test_steep_market_is_second_order_at_T10(self):
        # the differences of k2(0), mean(0, 1) and variance(0, 1) between
        # 1000, 2000 and 4000 steps a year shrink 4-fold
        values = []
        for n in (1000, 2000, 4000):
            s = solve_model3(STEEP, ObjectiveSpec(3.0, 10.0), TimeGrid.default(10.0, n))
            values.append([s.k2(0.0), s.moments.mean(0.0, 1.0), s.moments.variance(0.0, 1.0)])
        coarse, mid, fine = np.array(values)
        assert np.all(np.abs((coarse - mid) / (mid - fine) - 4.0) <= 0.05)


class TestControl:
    """u1 = k1(t) x + k2(t) dollars in stock 1 and x - u1 in stock 2."""

    def test_terminal_allocation_exceeds_wealth(self, figure_solution):
        u1 = figure_solution.k1(1.0) + figure_solution.k2(1.0)
        assert u1 == pytest.approx(1.14, abs=1e-9)
        assert 1.0 - u1 == pytest.approx(-0.14, abs=1e-9)  # short position

    def test_zero_wealth_gives_intercept(self, figure_solution):
        # the strategy's dollars at x = 0 are b1 / gamma = (k2, -k2)
        _, b1 = figure_solution.unit_coefficients(np.array([0.4]))
        k2 = figure_solution.k2(0.4)
        assert b1[0] / figure_solution.obj.gamma == pytest.approx([k2, -k2], rel=1e-12)

    def test_symmetric_equal_drift_half_split(self, unit_grid):
        p = MarketParams([0.12, 0.12], [[0.25, 0.0], [0.0, 0.25]])
        s = solve_model3(p, ObjectiveSpec(1.0, 1.0), unit_grid)
        u1 = s.k1(0.5) * 2.0 + s.k2(0.5)
        assert u1 == pytest.approx(1.0, abs=1e-9)
        assert 2.0 - u1 == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_asset_matches_bank_account_model(self, unit_grid):
        # riskless second stock: the allocation must agree with the
        # single-stock closed form (alpha - r) e^{-r(T-t)} / (gamma sigma^2)
        p = MarketParams([0.2, 0.04], [[0.3, 0.0], [0.0, 0.0]], 0.04)
        s = solve_model3(p, ObjectiveSpec(3.0, 1.0), unit_grid)
        assert np.max(np.abs(s.k1.values)) < 1e-10
        for t in np.linspace(0.0, 1.0, 100):
            expected = 0.16 * np.exp(-0.04 * (1.0 - t)) / (3.0 * 0.09)
            u1 = s.k1(t) * 1.7 + s.k2(t)
            assert u1 == pytest.approx(expected, abs=1e-8)


class TestIterateErrorBound:
    def test_bound_dominates_both_solves(self, symmetric_params, unit_grid):
        cfg = PicardConfig(tol=1e-13, max_iter=300)
        s = solve_model3(symmetric_params, ObjectiveSpec(1.0, 1.0), unit_grid, cfg)
        k1_history, k2_solve = s.gain.solve.history, solve_k2(s.kernels, s.k2, cfg)
        cases = [
            (k1_history, s.k1.values, gain_bound_constant(symmetric_params, unit_grid, k1_history)),
            (k2_solve.history, k2_solve.values,
             intercept_bound_constant(s.kernels, k2_solve.history)),
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
            cfg = PicardConfig(tol=1e-13, max_iter=500)
            s = solve_model3(p, ObjectiveSpec(2.0, 1.0), unit_grid, cfg)
            k2_solve = solve_k2(s.kernels, s.k2, cfg)
            K = intercept_bound_constant(s.kernels, k2_solve.history)
            errors = iterate_sup_errors(k2_solve.history, k2_solve.values)
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
            u1 = s3.k1(t) + s3.k2(t)
            assert u1 == pytest.approx(sol1.control(t)[0], abs=1e-8)


class TestFactorCount:
    """Models 2 and 3 read sigma only through inner products of its two
    rows, so they solve on any number of factors: a zero factor column
    changes no bit, and a rotation of the factors only the roundoff."""

    @staticmethod
    def assert_same_solutions(got, expected, rel):
        t = got[0].k2.grid.nodes
        for a, b in zip(got, expected, strict=True):
            pairs = [(a.k1.values, b.k1.values), (a.k2.values, b.k2.values)]
            for x in (0.5, 1.0, 2.0):
                pairs.append((a.moments.mean(t, x), b.moments.mean(t, x)))
                pairs.append((a.moments.variance(t, x), b.moments.variance(t, x)))
            for u, v in pairs:
                assert np.max(np.abs(u - v)) <= rel * np.max(np.abs(v))

    @pytest.mark.parametrize("seed", range(5))
    def test_zero_factor_column_changes_no_bit(self, seed):
        # the draws are continuous: no signed zero for the padding to flip
        p = random_distinct_market(np.random.default_rng(600 + seed))
        padded = MarketParams(p.alpha, np.column_stack([p.sigma, np.zeros(2)]), p.r)
        grid = TimeGrid(1.0, 500)
        self.assert_same_solutions(
            solve_horizon(padded, [1.0, 3.0], grid), solve_horizon(p, [1.0, 3.0], grid), 0.0
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_three_factors_match_their_rotated_two_factor_twin(self, seed):
        # sigma^T = Q R gives sigma' = R^T on two factors with the same sigma sigma^T
        p = random_distinct_market(np.random.default_rng(700 + seed), n_factors=3)
        twin = MarketParams(p.alpha, np.linalg.qr(p.sigma.T)[1].T, p.r)
        grid = TimeGrid(1.0, 500)
        self.assert_same_solutions(
            solve_horizon(p, [1.0, 3.0], grid), solve_horizon(twin, [1.0, 3.0], grid), 1e-12
        )


@st.composite
def bank_lines(draw):
    """(c, sigma1) with |1 - c| >= 0.1, whose sigma2 = c sigma1 makes a
    synthetic bank."""
    c = draw(st.floats(-3.0, 3.0).filter(lambda c: abs(1.0 - c) >= 0.1))
    s1 = draw(st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))
              .filter(lambda s: np.hypot(*s) >= 0.05))
    return c, s1


@st.composite
def synthetic_bank_markets(draw):
    """(c, sigma1, (alpha1, alpha2), gamma, T) of a market with sigma2 =
    c sigma1 (bank_lines).

    Equal drifts, or drifts at least 0.01 apart: the one-stock market's
    excess alpha1 - rho = (alpha1 - alpha2) / (1 - c) is formed from rounded
    inputs, and a smaller nonzero gap would lose its digits to that
    cancellation.  theta~^2 T <= 2000, with theta~^2 = dalpha^2 / denom the
    squared Sharpe ratio of long stock 1, short stock 2, so that a grid of
    1000 steps has dt theta~^2 <= 2."""
    c, s1 = draw(bank_lines())
    drifts = st.floats(-0.1, 0.3)
    a1, a2 = draw(st.tuples(drifts, drifts)
                  .filter(lambda a: a[0] == a[1] or abs(a[0] - a[1]) >= 0.01))
    T = draw(st.floats(0.1, 30.0))
    assume((a1 - a2) ** 2 * T <= 2000.0 * (1.0 - c) ** 2 * (s1[0] ** 2 + s1[1] ** 2))
    return c, s1, (a1, a2), draw(st.floats(0.5, 10.0)), T


def assert_matches(got, exact, zero_bound, rtol=1e-12):
    """got is exact to rtol relative, give or take zero_bound."""
    assert np.all(np.abs(got - exact) <= rtol * np.abs(exact) + zero_bound)


class TestBankAccountLimit:
    """sigma2 = c sigma1, c != 1, makes the portfolio w = (-c, 1) / (1 - c)
    riskless, a synthetic bank at rate rho = (alpha2 - c alpha1) / (1 - c).
    Models 2 and 3 then hold the classical closed forms of stock 1 with that
    bank (Basak & Chabakauri, Rev. Financ. Stud. 23, 2010): model 2 the
    bank, k = w1; model 3 the bank-account equilibrium, u1 = y + (x - y) w1
    with y = e^{-rho(T-t)} (alpha1 - rho) / (gamma |sigma1|^2), whose
    moments are model 1's on the one-stock market (alpha1, sigma1, r = rho)."""

    @given(synthetic_bank_markets())
    @settings(max_examples=60, deadline=None)
    @example((0.0, (0.3, 0.0), (0.2, 0.05), 3.0, 1.0))  # a riskless stock 2
    @example((0.5, (0.3, 0.1), (0.2, 0.2), 3.0, 1.0))  # equal drifts: k2 = 0
    @example((1.1, (0.0, 0.5), (0.3, -0.1), 1.0, 30.0))  # theta~^2 T = 1920, rho T = 129
    def test_models_2_and_3_are_the_bank_account_model(self, market):
        c, s1, (a1, a2), gamma, T = market
        s1 = np.array(s1)
        params = MarketParams([a1, a2], [s1, c * s1], 0.04)
        rho = a1 - (a1 - a2) / (1.0 - c)
        w1 = -c / (1.0 - c)
        grid = TimeGrid(T, 1000)
        t, x = grid.nodes, np.array([[0.5], [1.0], [2.0]])
        s3 = solve_model3(params, ObjectiveSpec(gamma, T), grid)
        m1 = solve_model1(MarketParams([a1], [s1], rho), ObjectiveSpec(gamma, T))
        model2 = evaluate_model2(params, s3.gain.k, gamma)
        bank = np.exp(rho * (T - t)) * x
        # a gain is a fraction of wealth: its error counts against max(1, |w1|)
        assert np.max(np.abs(s3.k1.values - w1)) <= 1e-12 * max(1.0, abs(w1))
        # the tables form e^{rho (T - t)} as e^{A(T) - A(t)}, A a cumulative
        # trapezoid sum of N terms whose rounding reaches N u / 2 of |A|, u =
        # 2^-53; e^A carries that error times the exponent |rho| T
        rtol = max(1e-12, 0.5 * grid.n_steps * 2.0**-53 * abs(rho) * T)
        y = np.exp(-rho * (T - t)) * (a1 - a2) / ((1.0 - c) * gamma * (s1 @ s1))
        assert_matches(s3.k2.values, y * (1.0 - w1), 0.0, rtol)
        # a zero variance within the variance of a 1e-12 relative spread of
        # the mean.  sigma2 = c sigma1 rounds off the line, and model 3's
        # variance holds model 2's, of that size, beside model 1's
        zero = (1e-12 * bank) ** 2
        assert_matches(model2.mean(t, x), bank, 0.0, rtol)
        assert_matches(model2.variance(t, x), 0.0, zero)
        assert_matches(s3.moments.mean(t, x), m1.moments.mean(t, x), 0.0, rtol)
        assert_matches(s3.moments.variance(t, x), m1.moments.variance(t, x), zero)

    def test_dollars_leave_the_closed_form_at_first_order_off_the_line(self):
        # sigma2 = eps (0, 1) is off the line c sigma1 for eps > 0: stock 2
        # is a bank at rate alpha2 only in the limit, and model 3's dollars
        # leave that bank's closed form y (c = 0, so u1 = y) at O(eps)
        s1, (a1, a2), gamma, T = np.array([0.3, 0.1]), (0.2, 0.04), 3.0, 1.0
        gaps = []
        for eps in (2e-3, 1e-3, 5e-4):
            params = MarketParams([a1, a2], [s1, [0.0, eps]], 0.04)
            s3 = solve_model3(params, ObjectiveSpec(gamma, T), TimeGrid(T, 1000))
            gap = 0.0
            for t in (0.0, 0.5):
                y = np.exp(-a2 * (T - t)) * (a1 - a2) / (gamma * (s1 @ s1))
                for x in (0.5, 1.0, 2.0):
                    gap = max(gap, abs(s3.k1(t) * x + s3.k2(t) - y))
            gaps.append(gap)
        for wide, narrow in zip(gaps, gaps[1:]):
            assert 1.8 <= wide / narrow <= 2.2


class TestSteepSyntheticBank:
    """Synthetic-bank markets with a steep Sharpe ratio, theta~^2 = 256
    (theta~ = 16): sigma1 = (0, 0.125), alpha = (0, 0.25).  The exact gain
    is k = w1.  On a grid with dt theta~^2 >= 4 the discrete gain equation
    has spurious fixed points (k = 1033 at t = 0 on 64 steps over T = 2),
    so the gain solve refuses such a grid."""

    COARSE = ("grid too coarse for the market over the horizon T=2: dt*theta~^2 = 8 "
              "must be below 4, which takes at least 129 grid steps")

    def test_coarse_grid_is_refused(self, tmp_path, capsys):
        params = MarketParams([0.0, 0.25], [[0.0, 0.125], [0.0, 1.125 * 0.125]], 0.04)
        with pytest.raises(ConfigError) as err:
            solve_model2(params, TimeGrid(2.0, 64))
        assert str(err.value) == self.COARSE
        path = tmp_path / "coarse.cfg"
        path.write_text("[market]\nalpha = 0, 0.25\nsigma = 0 0.125; 0 0.140625\nr = 0.04\n"
                        "[objective]\ngamma = 1\nT = 2\n[solver]\nn_steps = 32\n")
        out = tmp_path / "out"
        assert main(["solve", str(path), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {self.COARSE}\n"
        assert not out.exists()

    def test_fine_grid_finds_the_bank_weight(self):
        # 129 steps, dt theta~^2 = 3.97: the one discrete solution is exact
        params = MarketParams([0.0, 0.25], [[0.0, 0.125], [0.0, 1.125 * 0.125]], 0.04)
        k = solve_model2(params, TimeGrid(2.0, 129), PicardConfig(max_iter=500)).k.values
        assert np.max(np.abs(k - 9.0)) <= 1e-12 * 9.0

    @given(st.floats(-3.0, 3.0).filter(lambda c: abs(1.0 - c) >= 0.1),
           st.floats(0.05, 0.5), st.floats(0.1, 3.0), st.floats(8.0, 100.0),
           st.floats(0.5, 8.0))
    @settings(max_examples=60, deadline=None)
    @example(1.125, 0.125, 2.0, 512.0, 8.0)  # the market above on 64 steps
    @example(1.125, 0.125, 1.5, 96.0, 3.9)  # 25 steps, dt theta~^2 = 3.84
    def test_grid_is_refused_or_finds_the_bank_weight(self, c, s1, T, scale, coarseness):
        # sigma1 = (0, s1), sigma2 = c sigma1 and theta~^2 T = scale, on a
        # grid near dt theta~^2 = coarseness: refused from 4 on, and below
        # it the discrete gain equation's one solution, k = w1
        dalpha = np.sqrt(scale / T) * abs(1.0 - c) * s1
        params = MarketParams([dalpha, 0.0], [[0.0, s1], [0.0, c * s1]], 0.04)
        _, _, denom, _, _ = _coeffs(params)
        theta_sq = dalpha * dalpha / denom
        grid = TimeGrid(T, max(2, round(T * theta_sq / coarseness)))
        if grid.dt * theta_sq >= 4.0:
            with pytest.raises(ConfigError, match=r"^grid too coarse for the market"):
                solve_model2(params, grid)
            return
        w1 = -c / (1.0 - c)
        k = solve_model2(params, grid).k.values
        assert np.max(np.abs(k - w1)) <= 1e-12 * max(1.0, abs(w1))

    def test_long_horizon_converges(self):
        # from the constant 1 the Picard solve needs more than max_iter =
        # 200 sweeps at theta~^2 T = 768; its start, the terminal value w1,
        # is the exact gain, which one sweep confirms
        c = 0.875
        params = MarketParams([0.0, 0.25], [[0.0, 0.125], [0.0, c * 0.125]], 0.04)
        grid = TimeGrid.default(3.0)
        with pytest.raises(NonConvergenceError):
            picard_solve(gain_equation_map(params, grid), np.ones(grid.n_nodes))
        sol = solve_model2(params, grid)
        assert sol.solve.iterations == 1 and np.all(sol.k.values == -7.0)


@st.composite
def near_bank_markets(draw):
    """((alpha1, alpha2), (sigma1, sigma2), T) with sigma2 = c sigma1 + eps
    (bank_lines), 1e-6 <= |eps| <= 0.1, and alpha1 set for theta~^2 T from
    1 to 3000: near the synthetic bank, where the sweeps from the constant 1
    outgrow max_iter once theta~^2 T passes about 500."""
    c, s1 = draw(bank_lines())
    angle = draw(st.floats(0.0, 2.0 * np.pi))
    size = 10.0 ** draw(st.floats(-6.0, -1.0))
    s2 = c * np.array(s1) + size * np.array([np.cos(angle), np.sin(angle)])
    T = draw(st.sampled_from([3.0, 10.0, 30.0]))
    gap = np.linalg.norm(np.array(s1) - s2)
    dalpha = draw(st.sampled_from([-1.0, 1.0])) * gap * np.sqrt(draw(st.floats(1.0, 3000.0)) / T)
    a2 = draw(st.floats(-0.1, 0.3))
    return (a2 + dalpha, a2), (s1, tuple(s2)), T


class TestNearSyntheticBank:
    """The gain solve from its terminal value converges within the default
    max_iter near the synthetic bank, wherever dt theta~^2 <= 2 and the
    kernel tables stay finite.  Each sweep contracts by about
    dt theta~^2 / 4, so the sweeps slow down as dt theta~^2 nears 4."""

    @given(near_bank_markets())
    @settings(max_examples=40, deadline=None)
    @example(((0.0, 0.25), ((0.0, 0.125), (1e-3, 0.109375)), 3.0))  # theta~^2 T near 768
    @example(((0.0, 0.5), ((0.0, 0.125), (0.0, 0.0)), 30.0))  # stock 2 riskless
    def test_gain_solve_converges(self, market):
        drifts, sigma, T = market
        params = MarketParams(drifts, sigma, 0.04)
        grid = TimeGrid.default(T, 200)
        _, _, denom, _, dalpha = _coeffs(params)
        assume(grid.dt * dalpha * dalpha / denom <= 2.0)
        cfg = PicardConfig()
        k = solve_model2(params, grid, cfg).k
        try:
            build_kernels(params, k)
        except CoefficientRangeError:
            reject()
        assert gain_residual(params, grid, k.values) <= 10.0 * cfg.tol

    def test_gain_solve_slows_near_dt_theta_sq_4(self):
        # dt theta~^2 = 3.70: the sweep contracts by about 0.88 and needs
        # 204 sweeps, more than the default max_iter; given 400 it converges
        params = MarketParams((-3.4104630672876866, 0.0), ((0.0, 0.5), (0.01, 0.625)), 0.04)
        grid = TimeGrid.default(3.0, 200)
        _, _, denom, _, dalpha = _coeffs(params)
        assert 3.69 < grid.dt * dalpha * dalpha / denom < 3.71
        with pytest.raises(NonConvergenceError):
            solve_model2(params, grid, PicardConfig())
        cfg = PicardConfig(max_iter=400)
        k = solve_model2(params, grid, cfg).k
        assert gain_residual(params, grid, k.values) <= 10.0 * cfg.tol
