"""Market parameterization, validation, Brownian decorrelation and exact
price covariance for a set of geometric Brownian stocks.

Stock i follows dS_i = alpha_i S_i dt + sum_j sigma_ij S_i dW_j, where the
driving Brownian motions may be correlated.  Everything downstream of this
module assumes independent factors, so correlated inputs are first mapped
through :func:`decorrelate`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateAssetError,
    InvalidCorrelationError,
    MarketValidationError,
)

# Classification codes for validate_distinct_volatility failures.
IDENTICAL_ASSETS = "identical-assets"
NO_EQUILIBRIUM = "no-equilibrium"

# Below this squared row gap the two stocks count as the same asset.
DISTINCT_VOLATILITY_TOL = 1e-12


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
    downstream code relies on.
    """
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    if sigma.shape[1] != rho.n_factors:
        raise MarketValidationError(
            f"sigma has {sigma.shape[1]} factor columns, rho is {rho.n_factors}x{rho.n_factors}"
        )
    return sigma @ _psd_cholesky(rho.rho)


def price_covariance(
    params: MarketParams,
    rho: CorrelationSpec,
    i: int,
    j: int,
    t: float,
    s0: np.ndarray | None = None,
) -> float:
    """Cov(S_it, S_jt) = S_i0 S_j0 e^{(a_i+a_j)t} (e^{sum_k s~_ik s~_jk t} - 1)."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    n = params.n_stocks
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError("stock index out of range")
    if s0 is None:
        s0 = np.ones(n)
    sig = decorrelate(params.sigma, rho)
    cross = float(sig[i] @ sig[j])
    return float(
        s0[i]
        * s0[j]
        * np.exp((params.alpha[i] + params.alpha[j]) * t)
        * np.expm1(cross * t)
    )


def market_price_of_risk(params: MarketParams, i: int) -> float:
    """Excess drift per unit of total volatility, (alpha_i - r) / ||sigma row i||."""
    if not 0 <= i < params.n_stocks:
        raise IndexError("stock index out of range")
    norm = float(np.linalg.norm(params.sigma[i]))
    if norm <= 0.0:
        raise DegenerateAssetError(f"stock {i} has zero volatility")
    return (params.alpha[i] - params.r) / norm


@dataclass(frozen=True)
class VolatilityCheck:
    """Result of the distinct-volatility precondition for the two-stock models."""

    passed: bool
    gap: float  # (s11-s21)^2 + (s12-s22)^2
    classification: str | None  # IDENTICAL_ASSETS / NO_EQUILIBRIUM when failed
    message: str


def validate_distinct_volatility(
    params: MarketParams, tol: float = DISTINCT_VOLATILITY_TOL
) -> VolatilityCheck:
    """Check (s11-s21)^2 + (s12-s22)^2 > tol, classifying the failure mode.

    Equal volatility rows with equal drifts mean the stocks are
    interchangeable (any split is admissible); equal rows with different
    drifts admit no equilibrium at all (arbitrage).
    """
    if params.n_stocks != 2:
        raise ValueError("distinct-volatility check applies to two-stock markets")
    diff = params.sigma[0] - params.sigma[1]
    gap = float(diff @ diff)
    if gap > tol:
        return VolatilityCheck(True, gap, None, "volatility rows are distinct")
    if abs(params.alpha[0] - params.alpha[1]) <= 1e-12:
        return VolatilityCheck(
            False,
            gap,
            IDENTICAL_ASSETS,
            "identical assets, any allocation admissible",
        )
    return VolatilityCheck(
        False,
        gap,
        NO_EQUILIBRIUM,
        "no equilibrium exists: equal volatility rows with unequal drifts imply arbitrage",
    )
