import re
from importlib import resources

import numpy as np
import pytest

from tcmv import MarketParams, ObjectiveSpec
from tcmv.market import _coeffs
from tcmv.numerics import TimeGrid


@pytest.fixture
def symmetric_params():
    """Two stocks with symmetric diagonal volatility and distinct drifts."""
    return MarketParams([0.2, 0.12], [[0.25, 0.0], [0.0, 0.25]], 0.04)


@pytest.fixture
def diagonal_params():
    """Two stocks with distinct diagonal volatilities and a bank account."""
    return MarketParams([0.2, 0.12], [[0.3, 0.0], [0.0, 0.2]], 0.04)


@pytest.fixture
def unit_grid():
    return TimeGrid(1.0, 1000)


@pytest.fixture
def objective():
    return ObjectiveSpec(3.0, 1.0)


def random_distinct_market(rng: np.random.Generator, n_factors: int = 2) -> MarketParams:
    """Random two-stock market whose volatility rows are well separated."""
    while True:
        sigma = rng.uniform(-0.4, 0.4, size=(2, n_factors))
        diff = sigma[0] - sigma[1]
        if diff @ diff > 0.01:
            alpha = rng.uniform(-0.1, 0.3, size=2)
            return MarketParams(alpha, sigma, 0.02)


def constant_gain_equal_drifts(params: MarketParams) -> float:
    """Closed-form k1 when the two drifts coincide (time-independent)."""
    _, _, denom, csig, _ = _coeffs(params)
    return -csig / denom


def gain_iterate_bounds(params: MarketParams) -> tuple[float, float]:
    """Uniform bounds holding for every gain iterate (n >= 1) and the solution."""
    _, _, denom, csig, dalpha = _coeffs(params)
    a = -csig / denom
    b = -(csig + dalpha) / denom
    return min(a, b), max(a, b)


def shipped_config(name: str, **keys) -> str:
    """The text of the shipped config name.cfg with each of keys, which it
    sets once, set to its value."""
    text = (resources.files("tcmv") / "configs" / f"{name}.cfg").read_text()
    for key, value in keys.items():
        text, count = re.subn(rf"(?m)^{key} = .*", f"{key} = {value}", text)
        assert count == 1, f"{name}.cfg sets {key} once"
    return text
