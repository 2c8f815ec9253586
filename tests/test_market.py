import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcmv import (
    CoefficientRangeError,
    CorrelationSpec,
    DegenerateMarketError,
    InvalidCorrelationError,
    MarketParams,
    MarketValidationError,
    decorrelate,
    validate_distinct_volatility,
)
from tcmv.market import IDENTICAL_ASSETS, NO_EQUILIBRIUM, _coeffs


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

    @pytest.mark.parametrize("bad", [-np.inf, np.inf, np.nan])
    def test_non_finite_sigma_is_refused_before_the_product(self, bad):
        # the product once warned "invalid value encountered in matmul"
        sigma = np.array([[0.25, 0.0], [bad, 0.25]])
        with pytest.raises(MarketValidationError, match="^alpha and sigma entries must be finite$"):
            decorrelate(sigma, CorrelationSpec([[1.0, 0.5], [0.5, 1.0]]))

    def test_overflowing_product_is_a_range_error(self):
        # 1.7e308 (1 + 0.5) is beyond float64: the product once warned
        # "overflow encountered in matmul"
        sigma = np.array([[1.7e308, 1.7e308], [0.0, 0.25]])
        with pytest.raises(CoefficientRangeError, match="decorrelated sigma"):
            decorrelate(sigma, CorrelationSpec([[1.0, 0.5], [0.5, 1.0]]))


class TestValidateDistinctVolatility:
    def test_distinct_rows_pass(self):
        p = MarketParams([0.2, 0.12], [[0.3, 0.0], [0.0, 0.2]])
        assert validate_distinct_volatility(p) is None

    def test_identical_assets(self):
        p = MarketParams([0.12, 0.12], [[0.25, 0.0], [0.25, 0.0]])
        with pytest.raises(DegenerateMarketError) as err:
            validate_distinct_volatility(p)
        assert err.value.classification == IDENTICAL_ASSETS

    def test_no_equilibrium(self):
        p = MarketParams([0.2, 0.12], [[0.25, 0.0], [0.25, 0.0]])
        with pytest.raises(DegenerateMarketError) as err:
            validate_distinct_volatility(p)
        assert err.value.classification == NO_EQUILIBRIUM
        assert "no equilibrium exists" in str(err.value)

    @pytest.mark.parametrize("n", [1, 3])
    def test_stock_count_is_market_error(self, n):
        p = MarketParams([0.2, 0.12, 0.1][:n], np.eye(3)[:n] * 0.25)
        with pytest.raises(MarketValidationError, match=f"^models 2 and 3 need 2 stocks; got {n}$"):
            validate_distinct_volatility(p)


class TestCoeffs:
    @pytest.mark.parametrize(
        "sigma", [[[-0.3, -0.1], [0.0, 0.0]], [[0.25, -0.1], [0.05, 0.3]], [[1e200, 0.0], [0.0, 0.25]]]
    )
    def test_two_factors_keep_the_two_term_bits(self, sigma):
        # each sum starts from its first term: on a riskless stock 2 under
        # sigma_1 = (-0.3, -0.1), csig sums -0 terms to -0, where a sum from
        # +0 gives +0 and k(T) would print as -0
        s2, ds, denom, csig, dalpha = _coeffs(MarketParams([0.2, 0.05], sigma))
        with np.errstate(over="ignore"):  # the gap at sigma11 = 1e200 is inf
            two_term = ds[0] * ds[0] + ds[1] * ds[1], s2[0] * ds[0] + s2[1] * ds[1]
        for got, expected in zip((denom, csig), two_term):
            assert got == expected and np.signbit(got) == np.signbit(expected)
        assert dalpha == 0.2 - 0.05
