import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from tcmv import (
    CoefficientRangeError,
    MarketParams,
    ObjectiveSpec,
    SingularMarketError,
    diagnose_one_factor,
    solve_model1,
)
from tcmv.model1 import ARBITRAGE, CONDITION_LIMIT, SHARED_RISK_CONSTRAINT


@st.composite
def bank_markets(draw):
    """(alpha, sigma, r, T, gamma): alpha in [-0.1, 0.6]^2, sigma entries in
    +-0.4 scaled by 10^U(-2.5, 0), r in [-80, 80], T from {0.5, 1, 3, 5, 10,
    30} and gamma log-uniform on [1e-3, 1e2]."""
    alpha = draw(st.tuples(st.floats(-0.1, 0.6), st.floats(-0.1, 0.6)))
    scale = 0.4 * 10.0 ** draw(st.floats(-2.5, 0.0))
    entries = draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
    sigma = tuple(scale * e for e in entries)
    r = draw(st.floats(-80.0, 80.0))
    T = draw(st.sampled_from([0.5, 1.0, 3.0, 5.0, 10.0, 30.0]))
    gamma = 10.0 ** draw(st.floats(-3.0, 2.0))
    return alpha, sigma, r, T, gamma


class TestClosedForm:
    @pytest.mark.parametrize("gamma", [2.0, 1e-200])
    def test_zero_excess_return(self, gamma):
        # at gamma = 1e-200, gamma^2 underflows to 0: theta_sq (T - t) /
        # gamma^2 was 0 / 0
        p = MarketParams([0.04, 0.04], [[0.3, 0.0], [0.0, 0.2]], 0.04)
        sol = solve_model1(p, ObjectiveSpec(gamma, 1.0))
        assert np.allclose(sol.control(0.0), 0.0)
        assert sol.moments.value(0.3, 1.7) == pytest.approx(np.exp(0.04 * 0.7) * 1.7)
        assert not np.any(sol.moments.variance(np.linspace(0.0, 1.0, 5), 1.7))

    def test_terminal_control(self, diagonal_params, objective):
        sol = solve_model1(diagonal_params, objective)
        assert np.allclose(sol.control(1.0), [0.16 / 0.27, 0.08 / 0.12], atol=1e-12)
        assert sol.control(1.0) == pytest.approx([0.59259, 0.66667], abs=1e-5)

    def test_control_at_time_zero(self, diagonal_params, objective):
        sol = solve_model1(diagonal_params, objective)
        assert sol.control(0.0) == pytest.approx([0.56936, 0.64052], abs=1e-5)

    def test_theta_sq_and_value(self, diagonal_params, objective):
        sol = solve_model1(diagonal_params, objective)
        assert sol.theta_sq == pytest.approx(0.16**2 / 0.09 + 0.08**2 / 0.04)
        assert sol.moments.value(0.0, 1.0) == pytest.approx(np.exp(0.04) + 0.44444 / 6, abs=1e-5)
        assert sol.moments.mean(0.0, 1.0) == pytest.approx(np.exp(0.04) + 0.44444 / 3, abs=1e-5)

    def test_first_order_condition_residual(self, diagonal_params, objective):
        # at the optimum: (alpha - r 1) = gamma e^{r(T-t)} sigma sigma^T u
        sol = solve_model1(diagonal_params, objective)
        for t in (0.0, 0.4, 1.0):
            u = sol.control(t)
            lhs = diagonal_params.alpha - diagonal_params.r
            cov = diagonal_params.sigma @ diagonal_params.sigma.T
            rhs = objective.gamma * np.exp(0.04 * (1.0 - t)) * (cov @ u)
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_control_independent_of_wealth_and_exponential_shape(
        self, diagonal_params, objective
    ):
        sol = solve_model1(diagonal_params, objective)
        assert np.allclose(sol.control(0.3), sol.control(1.0) * np.exp(-0.04 * 0.7))

    def test_gamma_scaling(self, diagonal_params):
        u1 = solve_model1(diagonal_params, ObjectiveSpec(1.0, 1.0)).control(0.2)
        u2 = solve_model1(diagonal_params, ObjectiveSpec(2.0, 1.0)).control(0.2)
        assert np.allclose(u1, 2.0 * u2)

    def test_variance_penalty_nonnegative(self, diagonal_params, objective):
        sol = solve_model1(diagonal_params, objective)
        for t in np.linspace(0.0, 1.0, 7):
            gap = sol.moments.mean(t, 1.3) - sol.moments.value(t, 1.3)
            assert gap == pytest.approx(sol.theta_sq * (1.0 - t) / 6)
            assert gap >= 0.0
            assert sol.moments.variance(t, 1.3) >= 0.0

    def test_moments_are_shaped_like_wealth(self, diagonal_params, objective):
        # the interface of MomentCoefficients: mean affine and variance
        # constant in x, each an array of x's shape
        sol = solve_model1(diagonal_params, objective)
        x, m = np.linspace(0.1, 5.0, 7), sol.moments
        mean, variance, value = m.mean(0.4, x), m.variance(0.4, x), m.value(0.4, x)
        assert mean.shape == variance.shape == value.shape == x.shape
        assert np.all(variance == sol.theta_sq * (1.0 - 0.4) / 9.0)
        assert np.array_equal(value, mean - 1.5 * variance)
        assert np.allclose(np.diff(mean) / np.diff(x), np.exp(0.04 * 0.6))

    def test_named_delegations_agree(self, diagonal_params, objective):
        sol = solve_model1(diagonal_params, objective)
        for t in (0.0, 0.4, 1.0):
            assert sol.expected_wealth(t, 1.3) == sol.moments.mean(t, 1.3)
            assert sol.terminal_variance(t) == sol.moments.variance(t, 1.3)

    def test_general_dimension(self):
        rng = np.random.default_rng(4)
        sigma = rng.uniform(0.1, 0.4, size=(4, 4)) + np.eye(4)
        p = MarketParams(rng.uniform(0.0, 0.3, size=4), sigma, 0.03)
        sol = solve_model1(p, ObjectiveSpec(2.0, 2.0))
        cov = sigma @ sigma.T
        assert np.allclose(cov @ sol.weights, p.alpha - p.r)

    @pytest.mark.parametrize("r, gamma, T", [
        (100.0, 1.0, 10.0),  # e^{r T} of the mean
        (-100.0, 1.0, 10.0),  # e^{-r T} of the control
        (-70.9, 1.0, 10.0),  # e^{-r T} fits, but not e^{-r T} times the weights
        (0.04, 1e-160, 1.0),  # the variance load theta_sq T / gamma^2
        (0.04, 1e-310, 1.0),  # the mean load theta_sq T / gamma
    ])
    def test_float64_overflow_is_range_error(self, diagonal_params, r, gamma, T):
        p = MarketParams(diagonal_params.alpha, diagonal_params.sigma, r)
        with pytest.raises(CoefficientRangeError, match=f"T={T:g} at gamma={gamma:g}"):
            solve_model1(p, ObjectiveSpec(gamma, T))

    def test_overflowing_price_of_risk_is_range_error(self, diagonal_params):
        p = MarketParams([1e200, 1e200], diagonal_params.sigma, diagonal_params.r)
        with pytest.raises(CoefficientRangeError, match="T=1 at gamma=1"):
            solve_model1(p, ObjectiveSpec(1.0, 1.0))

    @given(bank_markets())
    @settings(max_examples=300, deadline=None)
    # every value is finite: the control is at most 19 317 dollars, the
    # mean 3.8e303 at x = 1, the variance 8.9e6
    @example(((0.2, 0.12), (0.02, 0.0, 0.0, 0.02), 23.3, 30.0, 3.0))
    @example(((0.2, 0.12), (0.25, 0.0, 0.0, 0.25), -69.5, 10.0, 1e-4))  # e^{695} w / gamma
    def test_refused_exactly_where_a_formed_value_overflows(self, market):
        alpha, sigma, r, T, gamma = market
        sigma = np.reshape(sigma, (2, 2))
        cov = sigma @ sigma.T
        assume(np.linalg.cond(cov) <= CONDITION_LIMIT)
        with np.errstate(all="ignore"):
            excess = np.subtract(alpha, r)
            w = np.linalg.solve(cov, excess)
            theta_sq = excess @ w
            formed = [np.exp(-r * T) * w / gamma, w / gamma, np.exp(r * T),
                      theta_sq * T / gamma, theta_sq * T / gamma**2 if theta_sq else 0.0]
        in_range = all(np.all(np.isfinite(value)) for value in formed)
        try:
            solve_model1(MarketParams(alpha, sigma, r), ObjectiveSpec(gamma, T))
            refused = False
        except CoefficientRangeError:
            refused = True
        assert refused != in_range

    @given(bank_markets(), st.floats(0.0, 1.0), st.floats(0.0, 10.0))
    @settings(max_examples=300, deadline=None)
    # g = e^{699}: g^2 overflows, and the variance's c0 = 0 must give 0, not inf * 0
    @example(((0.2, 0.12), (0.02, 0.0, 0.0, 0.02), 23.3, 30.0, 3.0), 0.0, 5.0)
    # theta_sq = 1.6e-309 and a load of 4.7e-310 at gamma = 100, 4.7e-309 at
    # gamma = 10: subnormal, 6e-323 off the reference at T - t = 30
    @example(((0.0, 0.0), (0.0, 0.4, 0.4, 0.0), 1.1195614245865296e-155, 30.0, 100.0), 0.0, 0.0)
    @example(((0.0, 0.0), (0.0, 0.4, 0.4, 0.0), 1.1195614245865296e-155, 30.0, 10.0), 0.0, 0.0)
    def test_triple_is_the_closed_form(self, market, fraction, x):
        alpha, sigma, r, T, gamma = market
        sigma = np.reshape(sigma, (2, 2))
        assume(np.linalg.cond(sigma @ sigma.T) <= CONDITION_LIMIT)
        try:
            sol = solve_model1(MarketParams(alpha, sigma, r), ObjectiveSpec(gamma, T))
        except CoefficientRangeError:
            reject()
        m, t = sol.moments, fraction * T
        with np.errstate(over="ignore"):
            growth = np.exp(r * (T - t)) * x
        assume(np.isfinite(growth))  # the range check forms the mean at x = 1 only
        # A product or quotient is off by at most 2^-53 of itself, or, below
        # the least normal, by at most half the least subnormal, 2^-1075.
        # The triple forms the load (theta_sq / gamma) (T - t): its quotient's
        # error times T - t, then the product's own; the reference
        # theta_sq ((T - t) / gamma) rounds once there.  So the two differ
        # by a few 2^-53 of the magnitude, within 1e-15 of it, plus
        # (T - t + 2) 2^-1075, at most (T - t + 1) 2^-1074; so do the
        # variance and its reference, with gamma^2 for gamma
        tail = T - t
        floor = (tail + 1) * 2.0**-1074
        load = sol.theta_sq * (tail / gamma)
        assert abs(m.mean(t, x) - (growth + load)) <= 1e-15 * (abs(growth) + abs(load)) + floor
        with np.errstate(over="raise", invalid="raise"):
            variance = m.variance(t, np.array([0.0, x, 1e150]))
        assert np.all(variance == variance[0])
        load = sol.theta_sq * (tail / gamma**2)
        assert abs(variance[0] - load) <= 1e-15 * abs(load) + floor

    @pytest.mark.parametrize("r", [70.0, -70.0])
    def test_large_bank_rate_in_range(self, diagonal_params, r):
        # e^{|r| T} = e^700 still fits: the moments and the control are finite
        p = MarketParams(diagonal_params.alpha, diagonal_params.sigma, r)
        sol = solve_model1(p, ObjectiveSpec(1.0, 10.0))
        assert np.isfinite(sol.moments.mean(0.0, 1.0))
        assert np.isfinite(sol.moments.variance(0.0, 1.0))
        assert np.all(np.isfinite(sol.control(0.0))) and np.any(sol.control(0.0) != 0.0)


class TestSingularCovariance:
    def test_routes_to_diagnosis(self):
        p = MarketParams([0.2, 0.2], [[0.3, 0.0], [0.3, 0.0]], 0.04)
        with pytest.raises(SingularMarketError, match=SHARED_RISK_CONSTRAINT) as err:
            solve_model1(p, ObjectiveSpec(1.0, 1.0))
        assert err.value.classification == SHARED_RISK_CONSTRAINT

    def test_equal_price_of_risk_constraint_value(self):
        p = MarketParams([0.2, 0.2], [[0.3, 0.0], [0.3, 0.0]], 0.04)
        assert diagnose_one_factor(p).classification == SHARED_RISK_CONSTRAINT
        # the equilibria are those of stock 1 alone: s11 u1 + s21 u2 is the
        # one-stock s11 u1 = (1/gamma) theta e^{-r(T-t)}, theta = 0.5333...
        one = solve_model1(MarketParams([0.2], [[0.3, 0.0]], 0.04), ObjectiveSpec(1.0, 1.0))
        assert 0.3 * one.control(1.0)[0] == pytest.approx(0.16 / 0.3)
        # V and g keep the closed-form shape with that theta
        assert one.moments.value(0.0, 1.0) == pytest.approx(np.exp(0.04) + 0.5 * (0.16 / 0.3) ** 2)

    def test_unequal_price_of_risk_is_arbitrage(self):
        p = MarketParams([0.2, 0.12], [[0.3, 0.0], [0.3, 0.0]], 0.04)
        assert diagnose_one_factor(p).classification == ARBITRAGE
        with pytest.raises(SingularMarketError, match=f"^{ARBITRAGE}: no equilibrium exists"):
            solve_model1(p, ObjectiveSpec(1.0, 1.0))

    @pytest.mark.parametrize("s2, classification", [
        (0.25, ARBITRAGE),  # -inf against -4e300
        (2e-170, ARBITRAGE),  # -inf against -inf, -1e470 against -5e469
        (1e-170, SHARED_RISK_CONSTRAINT),  # -1e470 twice
    ])
    def test_prices_of_risk_beyond_float64_compare(self, s2, classification):
        # (alpha - r) / s once overflowed with a warning, and an infinite
        # price of risk compared equal to any other
        p = MarketParams([0.0, 0.0], [[1e-170, 0.0], [s2, 0.0]], 1e300)
        assert diagnose_one_factor(p).classification == classification

    @pytest.mark.parametrize("sigma", [
        [[0.3, 0.0], [0.0, 0.0]],
        [[0.0, 0.0], [0.3, 0.0]],
        [[0.3, 0.1], [0.0, 0.0]],
    ])
    def test_riskless_stock_has_no_diagnosis(self, sigma):
        # a stock without volatility once escaped the diagnosis as
        # an error the CLI did not catch, so solve, bounds and simulate exited 3
        p = MarketParams([0.2, 0.05], sigma, 0.04)
        assert diagnose_one_factor(p) is None
        with pytest.raises(SingularMarketError, match="covariance matrix is singular") as err:
            solve_model1(p, ObjectiveSpec(3.0, 1.0))
        assert err.value.classification is None

    def test_two_factor_symmetric_stocks_not_singular(self):
        # independent factors with equal entries: regular problem, equal splits
        p = MarketParams([0.2, 0.2], [[0.3, 0.0], [0.0, 0.3]], 0.04)
        sol = solve_model1(p, ObjectiveSpec(2.0, 1.0))
        u = sol.control(1.0)
        assert u[0] == pytest.approx(u[1])
        assert u[0] == pytest.approx(0.16 / (2.0 * 0.09))
