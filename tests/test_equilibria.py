"""Metamorphic relations over every model's Equilibrium record, as tcmv
builds them (cli._solve_all): three changes of the inputs that leave the
problem the same, checked on figure1.cfg's market and on hypothesis
markets, models 1, 2 and 3 alike.

- Relabelling the stocks (the rows of alpha and sigma swapped) swaps the
  columns of each model's G and b1, so k1 -> 1 - k1 and k2 -> -k2, and
  model 1's control is permuted; the mean and the variance of wealth at
  (0, x) stay.
- Wealth units: x -> l x with gamma -> gamma / l scales each model's
  dollars u = G x + b1 / gamma and its mean by l, and its variance by l^2.
- Time units: alpha -> c alpha, sigma -> sqrt(c) sigma, r -> c r and
  T -> T / c at the same number of grid steps leave each model's dollars
  and its mean and variance at t = 0 as they are.

Bounds, relative to the largest magnitude compared, from the gaps measured
on 1000 markets of the kind drawn below: at most 6.7e-15 under relabelling
(2.1e-16 on figure1.cfg), 1.3e-15 under a change of wealth units, and
7.4e-15 under a change of time units at c = 2 or 12 (5.8e-16 on
figure1.cfg).  At c = 1/4 every scaled number is exact, a power of 2 times
the unscaled one, and every bit is kept.  Model 1's weights are a linear
solve with the covariance's rows permuted, so its b1 gap grows with
cond(sigma sigma^T); the markets keep that at most 100.
"""

from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcmv import cli
from tcmv.market import MarketParams

RELABEL_RTOL = 1e-13
UNITS_RTOL = 1e-14
TIME_RTOL = 5e-14

# time units: a power of 2, and two that round
TIME_SCALES = [0.25, 2.0, 12.0]

WEALTH = np.linspace(0.1, 5.0, 50)


def figure1():
    return cli.load_config(str(resources.files("tcmv") / "configs" / "figure1.cfg"))


@st.composite
def markets(draw):
    """figure1.cfg's scenario on a drawn market: two stocks on two factors,
    sigma entries in +-0.4 with rows at least 0.1 apart and cond(sigma
    sigma^T) <= 100, drifts in [-0.1, 0.3] and r in [-0.05, 0.1]; two gammas
    in [0.5, 10], one T in [0.5, 3], 100 steps a year.  Drifts and r are
    multiples of 1e-6, so that an excess return is 0 or at least about
    1e-6: one nearer 0 takes theta^2 into the subnormal range, where a
    relative bound measures only the lost digits."""
    def floats(lo, hi):
        return st.floats(lo, hi, allow_subnormal=False)

    def rates(lo, hi):
        return floats(lo, hi).map(lambda v: round(v, 6))

    sigma = draw(st.lists(floats(-0.4, 0.4), min_size=4, max_size=4)
                 .map(lambda s: np.reshape(s, (2, 2)))
                 .filter(lambda s: np.sum((s[0] - s[1]) ** 2) >= 0.01
                         and np.linalg.cond(s @ s.T) <= 100.0))
    alpha = draw(st.lists(rates(-0.1, 0.3), min_size=2, max_size=2))
    return figure1()._replace(
        params=MarketParams(alpha, sigma, draw(rates(-0.05, 0.1))),
        gammas=draw(st.lists(floats(0.5, 10.0), min_size=2, max_size=2)),
        horizons=[draw(floats(0.5, 3.0))],
        steps_per_year=100,
    )


def assert_close(got, expected, rtol):
    got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
    scale = max(np.max(np.abs(got)), np.max(np.abs(expected)))
    assert np.max(np.abs(got - expected)) <= rtol * scale


def pairs(cfg, other):
    """Each model's records in the cases of cfg and of other, case by case."""
    for case, twin in zip(cli._solve_all(cfg), cli._solve_all(other), strict=True):
        assert list(case.models) == list(twin.models) == ["model1", "model2", "model3"]
        for name in case.models:
            yield case, twin, case.models[name], twin.models[name]


def check_relabelling(cfg):
    p = cfg.params
    swapped = cfg._replace(params=MarketParams(p.alpha[::-1], p.sigma[::-1], p.r))
    for case, _, eq, twin in pairs(cfg, swapped):
        times = np.linspace(0.0, case.T, 11)
        for got, expected in zip(twin.strategy.unit_coefficients(times),
                                 eq.strategy.unit_coefficients(times)):
            assert_close(got[:, ::-1], expected, RELABEL_RTOL)
        for moment in ("mean", "variance"):
            for x in WEALTH:
                assert_close(getattr(twin.moments, moment)(0.0, x),
                             getattr(eq.moments, moment)(0.0, x), RELABEL_RTOL)


def check_wealth_units(cfg, ell):
    scaled = cfg._replace(gammas=[gamma / ell for gamma in cfg.gammas])
    for case, twin_case, eq, twin in pairs(cfg, scaled):
        times = np.linspace(0.0, case.T, 11)
        G, b1 = eq.strategy.unit_coefficients(times)
        G_l, b1_l = twin.strategy.unit_coefficients(times)
        for x in WEALTH:
            assert_close(G_l * (ell * x) + b1_l / twin_case.gamma,
                         ell * (G * x + b1 / case.gamma), UNITS_RTOL)
            assert_close(twin.moments.mean(0.0, ell * x), ell * eq.moments.mean(0.0, x),
                         UNITS_RTOL)
            assert_close(twin.moments.variance(0.0, ell * x),
                         ell**2 * eq.moments.variance(0.0, x), UNITS_RTOL)


def check_time_units(cfg, c):
    p = cfg.params
    scaled = cfg._replace(params=MarketParams(c * p.alpha, np.sqrt(c) * p.sigma, c * p.r),
                          horizons=[T / c for T in cfg.horizons],
                          steps_per_year=round(c * cfg.steps_per_year))
    rtol = 0.0 if c == 0.25 else TIME_RTOL
    for case, twin_case, eq, twin in pairs(cfg, scaled):
        assert twin_case.m3.k2.grid.n_steps == case.m3.k2.grid.n_steps
        G, b1 = (v[0] for v in eq.strategy.unit_coefficients(np.zeros(1)))
        G_c, b1_c = (v[0] for v in twin.strategy.unit_coefficients(np.zeros(1)))
        for x in WEALTH:
            assert_close(G_c * x + b1_c / twin_case.gamma, G * x + b1 / case.gamma, rtol)
            for moment in ("mean", "variance"):
                assert_close(getattr(twin.moments, moment)(0.0, x),
                             getattr(eq.moments, moment)(0.0, x), rtol)


def test_relabelling_the_stocks_on_figure1():
    check_relabelling(figure1())


@pytest.mark.parametrize("ell", [0.01, 0.3, 3.7, 250.0])
def test_wealth_units_on_figure1(ell):
    check_wealth_units(figure1(), ell)


@pytest.mark.parametrize("c", TIME_SCALES)
def test_time_units_on_figure1(c):
    check_time_units(figure1(), c)


@given(markets())
@settings(max_examples=40, deadline=None)
def test_relabelling_the_stocks(cfg):
    check_relabelling(cfg)


@given(markets(), st.floats(0.1, 10.0))
@settings(max_examples=40, deadline=None)
def test_wealth_units(cfg, ell):
    check_wealth_units(cfg, ell)


@given(markets(), st.sampled_from(TIME_SCALES))
@settings(max_examples=40, deadline=None)
def test_time_units(cfg, c):
    # T a multiple of 0.01, so that 100 steps a year of T and 100 c of T / c
    # round to the same grid, not to either side of a half step
    check_time_units(cfg._replace(horizons=[round(T, 2) for T in cfg.horizons]), c)
