"""Models 2 and 3 against the extended HJB system, solved by the method of
lines in tests/hjb_reference.py: the value, the mean and the dollars in
stock 1 at t = 0 that the CLI's equilibria give agree with the PDE's over
wealth in [0.2, 5].

The gap is the production grid's error at 1000 steps a year: it stays put
when the RK4 steps double.  The largest was 5.0e-9 relative (model 3's
value on the correlated market at T = 3), and at most 2.7e-10 on the
shipped markets at T = 1.  On hypothesis markets with theta~^2 T <= 2 that
error reached 6.5e-8, so there the test takes the Richardson value (4
q_2000 - q_1000) / 3 of the solves at 1000 and 2000 steps a year; it was
at most 1.8e-11 from the PDE's over 250 draws, each with theta~ > 0 and
a median theta~^2 T of 0.2.  The steep market is left
out: there V and g grow like e^{theta~^2 T}, and explicit RK4 diverges
from T = 1.5 on."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tcmv import cli
from tcmv.cli import load_config
from tcmv.market import MarketParams, _coeffs

from .conftest import shipped_config
from .hjb_reference import centred_differences, solve_hjb
from .test_equilibria import markets

RTOL = 1e-8
RK4_STEPS_PER_YEAR = 500
WEALTH = np.linspace(0.2, 5.0, 25)

# name: (shipped config, the keys it sets)
MARKETS = {
    "section4": ("section4", {}),
    "figure1": ("figure1", {"T": 1}),
    "correlated": ("section4", {"alpha": "0.15, 0.05", "sigma": "0.3 0.1; 0.05 0.2", "T": 3}),
}


def relative_gap(got, expected) -> float:
    return float(np.max(np.abs(got - expected)) / np.max(np.abs(expected)))


def test_the_stencil_is_exact_on_quadratics():
    x = np.linspace(0.2, 5.0, 7)
    h_x, h_xx = centred_differences(3.0 - 2.0 * x + 0.7 * x * x, x[1] - x[0])
    assert np.allclose(h_x, -2.0 + 1.4 * x, rtol=0.0, atol=1e-13)
    assert np.allclose(h_xx, 1.4, rtol=0.0, atol=1e-12)


def equilibria_at_zero(cfg, models=("model2", "model3")):
    """((gamma, T, model), {value, mean, u1}) at t = 0 over WEALTH for each
    case of cfg and each of models, from the CLI's equilibria.  Model 2's
    value is its objective, -(gamma/2) Var[X_T]."""
    for case in cli._solve_all(cfg):
        for model in models:
            strategy, moments = case.models[model]
            G, b1 = strategy.unit_coefficients(np.zeros(1))
            value = (moments.value(0.0, WEALTH) if model == "model3"
                     else -0.5 * case.gamma * moments.variance(0.0, WEALTH))
            yield (case.gamma, case.T, model), {
                "value": value,
                "mean": moments.mean(0.0, WEALTH),
                "u1": G[0, 0] * WEALTH + b1[0, 0] / case.gamma,
            }


def hjb_gaps(params, key, got) -> dict[str, float]:
    """The relative gap of each of got's curves from the extended HJB
    system's solve for the case key = (gamma, T, model)."""
    gamma, T, model = key
    reference = solve_hjb(params.alpha, params.sigma, gamma, T, WEALTH,
                          round(RK4_STEPS_PER_YEAR * T), model == "model3")
    return {name: relative_gap(curve, getattr(reference, name)) for name, curve in got.items()}


@pytest.mark.parametrize("model", ["model2", "model3"])
@pytest.mark.parametrize("market", sorted(MARKETS))
def test_equilibria_solve_the_extended_hjb_system(market, model, tmp_path):
    path = tmp_path / f"{market}.cfg"
    config, keys = MARKETS[market]
    path.write_text(shipped_config(config, **keys))
    cfg = load_config(str(path))
    for key, got in equilibria_at_zero(cfg, [model]):
        gaps = hjb_gaps(cfg.params, key, got)
        assert max(gaps.values()) <= RTOL, (key, gaps)


@st.composite
def calm_markets(draw):
    """test_equilibria's markets with r = 0 and one T in [0.2, 2], a
    multiple of 0.01 so that 1000 and 2000 steps a year make grids of n and
    2n steps, and drifts drawn apart: alpha_2 is the market's, and
    alpha_1 - alpha_2, a multiple of 1e-6 of either sign, gives theta~^2 T
    a value drawn in [0.01, 2].  So every case has theta~ > 0 and a k2 to
    test, and theta~^2 T <= 2 keeps V and g slow enough for RK4.  The gap
    is at most 0.4, the span of the markets' drifts: RK4 lost concavity at
    alpha = (1.36, 0), gamma = 0.5, T = 0.22."""
    cfg = draw(markets())
    T = round(draw(st.floats(0.2, 2.0)), 2)
    _, _, denom, _, _ = _coeffs(cfg.params)
    dalpha = round(np.sqrt(draw(st.floats(0.01, 2.0)) * denom / T), 6)
    assume(dalpha <= 0.4)
    alpha2 = cfg.params.alpha[1]
    alpha1 = alpha2 + draw(st.sampled_from([dalpha, -dalpha]))
    params = MarketParams([alpha1, alpha2], cfg.params.sigma, 0.0)
    _, _, denom, _, dalpha = _coeffs(params)
    assume(dalpha * dalpha / denom * T <= 2.0)  # as rounded
    return cfg._replace(params=params, horizons=[T])


@given(calm_markets())
@settings(max_examples=8, deadline=None)
def test_extrapolated_equilibria_solve_the_extended_hjb_system(cfg):
    # at 1000 steps a year the grid's error alone passes RTOL on such
    # markets; it is second order, so (4 q_2n - q_n) / 3 leaves the HJB gap
    coarse = equilibria_at_zero(cfg._replace(steps_per_year=1000))
    fine = equilibria_at_zero(cfg._replace(steps_per_year=2000))
    for (key, q_n), (twin, q_2n) in zip(coarse, fine, strict=True):
        assert key == twin
        extrapolated = {name: (4.0 * q_2n[name] - q_n[name]) / 3.0 for name in q_n}
        gaps = hjb_gaps(cfg.params, key, extrapolated)
        assert max(gaps.values()) <= RTOL, (key, gaps)
