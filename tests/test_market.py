import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcmv import (
    CorrelationSpec,
    DegenerateAssetError,
    InvalidCorrelationError,
    MarketParams,
    MarketValidationError,
    decorrelate,
    market_price_of_risk,
    price_covariance,
    validate_distinct_volatility,
)
from tcmv.market import IDENTICAL_ASSETS, NO_EQUILIBRIUM


class TestMarketParams:
    def test_basic_construction(self):
        p = MarketParams([0.2, 0.12], [[0.3, 0.0], [0.0, 0.2]], 0.04)
        assert p.n_stocks == 2
        assert p.n_factors == 2
        assert p.r == 0.04

    def test_arrays_are_frozen(self):
        p = MarketParams([0.2], [[0.3]])
        with pytest.raises(ValueError):
            p.alpha[0] = 1.0

    def test_rejects_shape_mismatch(self):
        with pytest.raises(MarketValidationError):
            MarketParams([0.2, 0.12, 0.1], [[0.3, 0.0], [0.0, 0.2]])

    def test_rejects_non_finite(self):
        with pytest.raises(MarketValidationError):
            MarketParams([np.nan, 0.12], [[0.3, 0.0], [0.0, 0.2]])


class TestCorrelationSpec:
    def test_identity(self):
        assert np.array_equal(CorrelationSpec.identity(3).rho, np.eye(3))

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidCorrelationError):
            CorrelationSpec([[1.0, 1.5], [1.5, 1.0]])

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidCorrelationError):
            CorrelationSpec([[1.0, 0.2], [0.3, 1.0]])

    def test_rejects_bad_diagonal(self):
        with pytest.raises(InvalidCorrelationError):
            CorrelationSpec([[0.9, 0.0], [0.0, 1.0]])


class TestDecorrelate:
    def test_identity_is_noop(self):
        sigma = np.array([[0.3, 0.1], [0.05, 0.2]])
        out = decorrelate(sigma, CorrelationSpec.identity(2))
        assert np.allclose(out, sigma)

    def test_perfect_correlation_collapses_rank(self):
        sigma = np.array([[0.3, 0.0], [0.0, 0.2]])
        out = decorrelate(sigma, CorrelationSpec([[1.0, 1.0], [1.0, 1.0]]))
        assert np.allclose(out[:, 1], 0.0)

    def test_covariance_match_example(self):
        sigma = np.array([[0.3, 0.0], [0.0, 0.2]])
        rho = CorrelationSpec([[1.0, 0.5], [0.5, 1.0]])
        out = decorrelate(sigma, rho)
        assert np.allclose(out @ out.T, sigma @ rho.rho @ sigma.T, atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_covariance_preserved_random(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 5))
        # random correlation via a normalized Gram matrix
        g = rng.standard_normal((d, d + 2))
        c = g @ g.T
        scale = np.sqrt(np.diag(c))
        rho = CorrelationSpec(c / np.outer(scale, scale))
        sigma = rng.uniform(-0.5, 0.5, size=(int(rng.integers(1, 4)), d))
        out = decorrelate(sigma, rho)
        assert np.allclose(out @ out.T, sigma @ rho.rho @ sigma.T, atol=1e-12)


class TestPriceCovariance:
    def test_zero_at_time_zero(self):
        p = MarketParams([0.2, 0.12], [[0.3, 0.0], [0.0, 0.2]])
        assert price_covariance(p, CorrelationSpec.identity(2), 0, 1, 0.0) == 0.0

    def test_single_stock_variance(self):
        # Var(S_1t) = e^{2 alpha t} (e^{sigma^2 t} - 1) for one lognormal stock
        p = MarketParams([0.2, 0.12], [[0.3, 0.0], [0.0, 0.2]])
        got = price_covariance(p, CorrelationSpec.identity(2), 0, 0, 1.0)
        assert got == pytest.approx(np.exp(0.4) * np.expm1(0.09), rel=1e-12)

    def test_single_stock_variance_vs_sampling(self):
        p = MarketParams([0.2, 0.12], [[0.3, 0.0], [0.0, 0.2]])
        analytic = price_covariance(p, CorrelationSpec.identity(2), 0, 0, 1.0)
        rng = np.random.default_rng(99)
        z = rng.standard_normal(100_000)
        s = np.exp(0.2 - 0.5 * 0.09 + 0.3 * z)
        se = np.std((s - s.mean()) ** 2, ddof=1) / np.sqrt(z.size)
        assert abs(np.var(s, ddof=1) - analytic) < 3 * se

    def test_independent_stocks_uncorrelated(self):
        p = MarketParams([0.2, 0.12], [[0.3, 0.0], [0.0, 0.2]])
        assert price_covariance(p, CorrelationSpec.identity(2), 0, 1, 2.0) == 0.0

    def test_symmetric_in_indices(self):
        p = MarketParams([0.2, 0.12], [[0.3, 0.1], [0.05, 0.2]])
        rho = CorrelationSpec([[1.0, 0.3], [0.3, 1.0]])
        assert price_covariance(p, rho, 0, 1, 1.5) == pytest.approx(
            price_covariance(p, rho, 1, 0, 1.5)
        )

    def test_own_variance_nonnegative(self):
        p = MarketParams([0.2, 0.12], [[0.3, 0.1], [0.05, 0.2]])
        rho = CorrelationSpec([[1.0, -0.4], [-0.4, 1.0]])
        for t in np.linspace(0.0, 5.0, 11):
            assert price_covariance(p, rho, 0, 0, t) >= 0.0

    def test_negative_time_rejected(self):
        p = MarketParams([0.2], [[0.3]])
        with pytest.raises(ValueError):
            price_covariance(p, CorrelationSpec.identity(1), 0, 0, -1.0)


class TestMarketPriceOfRisk:
    def test_reference_values(self):
        p = MarketParams([0.2, 0.12], [[0.3, 0.0], [0.0, 0.2]], 0.04)
        assert market_price_of_risk(p, 0) == pytest.approx(0.5333, abs=5e-5)
        assert market_price_of_risk(p, 1) == pytest.approx(0.4000, abs=5e-5)

    def test_zero_excess_return(self):
        p = MarketParams([0.04], [[0.3]], 0.04)
        assert market_price_of_risk(p, 0) == 0.0

    def test_zero_volatility_row(self):
        p = MarketParams([0.2, 0.12], [[0.3, 0.0], [0.0, 0.0]], 0.04)
        with pytest.raises(DegenerateAssetError):
            market_price_of_risk(p, 1)


class TestValidateDistinctVolatility:
    def test_distinct_rows_pass(self):
        p = MarketParams([0.2, 0.12], [[0.3, 0.0], [0.0, 0.2]])
        assert validate_distinct_volatility(p).passed

    def test_identical_assets(self):
        p = MarketParams([0.12, 0.12], [[0.25, 0.0], [0.25, 0.0]])
        check = validate_distinct_volatility(p)
        assert not check.passed
        assert check.classification == IDENTICAL_ASSETS

    def test_no_equilibrium(self):
        p = MarketParams([0.2, 0.12], [[0.25, 0.0], [0.25, 0.0]])
        check = validate_distinct_volatility(p)
        assert not check.passed
        assert check.classification == NO_EQUILIBRIUM
        assert "no equilibrium exists" in check.message
