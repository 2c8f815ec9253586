"""Market parameterization, validation and Brownian decorrelation for a
set of geometric Brownian stocks.

Stock i follows dS_i = alpha_i S_i dt + sum_j sigma_ij S_i dW_j, where the
driving Brownian motions may be correlated.  Everything downstream of this
module assumes independent factors, so correlated inputs are first mapped
through :func:`decorrelate`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CoefficientRangeError,
    DegenerateMarketError,
    InvalidCorrelationError,
    MarketValidationError,
)

# Classification codes for validate_distinct_volatility failures.
IDENTICAL_ASSETS = "identical-assets"
NO_EQUILIBRIUM = "no-equilibrium"

# Below this squared row gap the two stocks count as the same asset.
DISTINCT_VOLATILITY_TOL = 1e-12

# Below this relative gap two market prices of risk on one Brownian motion
# count as equal.
EQUAL_PRICE_OF_RISK_TOL = 1e-9


@dataclass(frozen=True)
class MarketParams:
    """Drifts, volatility loadings and the risk-free rate.

    alpha : per-stock drift vector (1/year)
    sigma : n_stocks x n_factors volatility matrix (1/sqrt(year))
    r     : risk-free rate (1/year); only the model with a bank account uses it
    """

    alpha: np.ndarray
    sigma: np.ndarray
    r: float = 0.0

    def __post_init__(self):
        alpha = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        sigma = np.atleast_2d(np.asarray(self.sigma, dtype=float))
        if alpha.ndim != 1:
            raise MarketValidationError("alpha must be a vector")
        if sigma.shape[0] != alpha.size:
            raise MarketValidationError(
                f"sigma has {sigma.shape[0]} rows but alpha has {alpha.size} entries"
            )
        if alpha.size < 1 or sigma.shape[1] < 1:
            raise MarketValidationError("need at least one stock and one factor")
        if not (np.all(np.isfinite(alpha)) and np.all(np.isfinite(sigma))):
            raise MarketValidationError("alpha and sigma entries must be finite")
        if not np.isfinite(self.r):
            raise MarketValidationError("risk-free rate must be finite")
        alpha.flags.writeable = False
        sigma.flags.writeable = False
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "r", float(self.r))

    @property
    def n_stocks(self) -> int:
        return self.alpha.size

    @property
    def n_factors(self) -> int:
        return self.sigma.shape[1]


@dataclass(frozen=True)
class CorrelationSpec:
    """Symmetric correlation matrix of the driving Brownian motions."""

    rho: np.ndarray

    def __post_init__(self):
        rho = np.atleast_2d(np.asarray(self.rho, dtype=float))
        if rho.shape[0] != rho.shape[1]:
            raise InvalidCorrelationError("correlation matrix must be square")
        if not np.all(np.isfinite(rho)):
            raise InvalidCorrelationError("correlations must be finite")
        if not np.allclose(rho, rho.T, atol=1e-12, rtol=0.0):
            raise InvalidCorrelationError("correlation matrix must be symmetric")
        if not np.allclose(np.diag(rho), 1.0, atol=1e-12, rtol=0.0):
            raise InvalidCorrelationError("correlation diagonal must be 1")
        if np.any(np.abs(rho) > 1.0 + 1e-12):
            raise InvalidCorrelationError("correlations must lie in [-1, 1]")
        rho.flags.writeable = False
        object.__setattr__(self, "rho", rho)

    @classmethod
    def identity(cls, d: int) -> "CorrelationSpec":
        return cls(np.eye(d))

    @property
    def n_factors(self) -> int:
        return self.rho.shape[0]


@dataclass(frozen=True)
class ObjectiveSpec:
    """Risk aversion and investment horizon of the mean-variance reward."""

    gamma: float
    horizon_T: float

    def __post_init__(self):
        if not (np.isfinite(self.gamma) and self.gamma > 0.0):
            raise ValueError("risk aversion gamma must be positive")
        if not (np.isfinite(self.horizon_T) and self.horizon_T > 0.0):
            raise ValueError("horizon must be positive")


def square(x: float) -> float:
    """x**2 as Python's float power gives it (libm pow, whose last bit can
    differ from x * x), and inf where that overflows instead of an
    OverflowError."""
    try:
        return x**2
    except OverflowError:
        return float("inf")


def _require_finite(where: str, *arrays):
    """CoefficientRangeError unless every entry of the arrays is finite."""
    if not all(np.all(np.isfinite(array)) for array in arrays):
        raise CoefficientRangeError(f"coefficients exceed the float64 range {where}")


def _psd_cholesky(rho: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor tolerating zero pivots (e.g. perfectly
    correlated factors).  Raises if rho is not positive semidefinite."""
    d = rho.shape[0]
    chol = np.zeros((d, d))
    for j in range(d):
        pivot = rho[j, j] - chol[j, :j] @ chol[j, :j]
        if pivot < -1e-10:
            raise InvalidCorrelationError(
                "correlation matrix is not positive semidefinite"
            )
        if pivot <= 1e-14:
            continue  # rank deficiency: column stays zero
        chol[j, j] = np.sqrt(pivot)
        for i in range(j + 1, d):
            chol[i, j] = (rho[i, j] - chol[i, :j] @ chol[j, :j]) / chol[j, j]
    return chol


def decorrelate(sigma: np.ndarray, rho: CorrelationSpec) -> np.ndarray:
    """Volatility matrix w.r.t. independent Brownian motions.

    Composes the pairwise substitution (W_i, W_j) ->
    (W~_i, rho_ij W~_i + sqrt(1 - rho_ij^2) W~_j) in index order, which for a
    full correlation matrix is exactly sigma @ chol(rho).  The returned
    matrix satisfies sigma~ sigma~^T = sigma rho sigma^T, the only property
    downstream code relies on.  A non-finite sigma is refused as
    :class:`MarketParams` refuses it, and a product beyond float64 raises
    CoefficientRangeError.
    """
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    if sigma.shape[1] != rho.n_factors:
        raise MarketValidationError(
            f"sigma has {sigma.shape[1]} factor columns, rho is {rho.n_factors}x{rho.n_factors}"
        )
    if not np.all(np.isfinite(sigma)):
        raise MarketValidationError("alpha and sigma entries must be finite")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        decorrelated = sigma @ _psd_cholesky(rho.rho)
    if not np.all(np.isfinite(decorrelated)):
        raise CoefficientRangeError("the decorrelated sigma exceeds the float64 range")
    return decorrelated


def factor_sum(terms):
    """terms[0] + terms[1] + ... in factor order: on two factors the
    two-term formula to the bit, signed zeros included (unlike @ or np.sum)."""
    return sum(terms[1:], terms[0])


def _coeffs(params: MarketParams):
    """(s2, ds, denom, csig, dalpha) of a two-stock market on any number of
    factors: the rows s2 = sigma_2 and ds = sigma_1 - sigma_2, the gap denom =
    |ds|^2, csig = s2 . ds and alpha_1 - alpha_2; inf where float64 overflows."""
    s1, s2 = params.sigma
    with np.errstate(over="ignore"):
        ds = s1 - s2
        denom = factor_sum(ds * ds)
        csig = factor_sum(s2 * ds)
        dalpha = params.alpha[0] - params.alpha[1]
    return s2, ds, denom, csig, dalpha


def validate_distinct_volatility(params: MarketParams) -> None:
    """Require the volatility gap |sigma_1 - sigma_2|^2 > DISTINCT_VOLATILITY_TOL
    of a two-stock market on any number of factors.

    Otherwise raise DegenerateMarketError with its classification: equal
    volatility rows with equal drifts mean the stocks are interchangeable
    (IDENTICAL_ASSETS: any split is admissible); equal rows with different
    drifts admit no equilibrium at all (NO_EQUILIBRIUM: arbitrage).  A
    market of n != 2 stocks is a MarketValidationError.
    """
    if params.n_stocks != 2:
        raise MarketValidationError(f"models 2 and 3 need 2 stocks; got {params.n_stocks}")
    _, _, gap, _, dalpha = _coeffs(params)  # an overflowing gap is inf, and distinct
    if gap > DISTINCT_VOLATILITY_TOL:
        return
    if abs(dalpha) <= 1e-12:
        raise DegenerateMarketError(
            "identical assets, any allocation admissible", IDENTICAL_ASSETS)
    raise DegenerateMarketError(
        "no equilibrium exists: equal volatility rows with unequal drifts imply arbitrage",
        NO_EQUILIBRIUM,
    )
