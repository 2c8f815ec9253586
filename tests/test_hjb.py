"""Models 2 and 3 against the extended HJB system, solved by the method of
lines in tests/hjb_reference.py: the value, the mean and the dollars in
stock 1 at t = 0 that the CLI's equilibria give agree with the PDE's over
wealth in [0.2, 5].

The gap is the production grid's error at 1000 steps a year: it stays put
when the RK4 steps double.  The largest was 5.0e-9 relative (model 3's
value on the correlated market at T = 3), and at most 2.7e-10 on the
shipped markets at T = 1.  The steep market is left out: there V and g
grow like e^{theta~^2 T}, and explicit RK4 diverges from T = 1.5 on."""

import numpy as np
import pytest

from tcmv import cli
from tcmv.cli import load_config

from .conftest import shipped_config
from .hjb_reference import centred_differences, solve_hjb

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


@pytest.mark.parametrize("model", ["model2", "model3"])
@pytest.mark.parametrize("market", sorted(MARKETS))
def test_equilibria_solve_the_extended_hjb_system(market, model, tmp_path):
    path = tmp_path / f"{market}.cfg"
    config, keys = MARKETS[market]
    path.write_text(shipped_config(config, **keys))
    cfg = load_config(str(path))
    for case in cli._solve_all(cfg):
        strategy, moments = case.models[model]
        G, b1 = strategy.unit_coefficients(np.zeros(1))
        u1 = G[0, 0] * WEALTH + b1[0, 0] / case.gamma
        mean = moments.mean(0.0, WEALTH)
        # model 2's objective is -(gamma/2) Var[X_T]
        value = (moments.value(0.0, WEALTH) if model == "model3"
                 else -0.5 * case.gamma * moments.variance(0.0, WEALTH))
        reference = solve_hjb(cfg.params.alpha, cfg.params.sigma, case.gamma, case.T, WEALTH,
                              round(RK4_STEPS_PER_YEAR * case.T), model == "model3")
        gaps = {"value": relative_gap(value, reference.value),
                "mean": relative_gap(mean, reference.mean),
                "u1": relative_gap(u1, reference.u1)}
        assert max(gaps.values()) <= RTOL, (case.gamma, case.T, gaps)
