"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line (run with -s to see them all) and
asserts the same condition, so the suite doubles as a human-readable
checklist and a hard gate.
"""

import time

import numpy as np

from tcmv import (
    MarketParams,
    ObjectiveSpec,
    PicardConfig,
    SimConfig,
    TimeGrid,
    evaluate_model2,
    simulate_models,
    solve_model1,
    solve_model2,
    solve_model3,
)
from tcmv.model2 import gain_residual
from tcmv.model3 import (
    gain_bound_constant,
    intercept_bound_constant,
    intercept_residual,
    iterate_sup_errors,
    solve_k2,
)
from tcmv.montecarlo import reproduce_figure_paths
from tcmv.numerics import convergence_bound
from .conftest import constant_gain_equal_drifts, gain_iterate_bounds, random_distinct_market

SYMMETRIC = MarketParams([0.2, 0.12], [[0.25, 0.0], [0.0, 0.25]], 0.04)
DIAGONAL = MarketParams([0.2, 0.12], [[0.3, 0.0], [0.0, 0.2]], 0.04)


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:2d} [{status}] {name}{suffix}")
    assert ok, f"criterion {number}: {name}{suffix}"


def test_01_terminal_anchors():
    start = time.perf_counter()
    grid = TimeGrid(1.0, 1000)
    s1 = solve_model3(SYMMETRIC, ObjectiveSpec(1.0, 1.0), grid)
    s3 = solve_model3(SYMMETRIC, ObjectiveSpec(3.0, 1.0), grid)
    elapsed = time.perf_counter() - start
    ok = (
        s1.k1.values[-1] == 0.5
        and abs(s1.k2.values[-1] - 0.64) < 1e-3
        and abs(s3.k2.values[-1] - 0.2133) < 1e-3
        and elapsed < 1.0
    )
    _report(1, "terminal coefficient anchors", ok, f"{elapsed:.3f}s")


def test_02_gamma_linearity_of_intercept():
    start = time.perf_counter()
    grid = TimeGrid(1.0, 1999)  # 2000 nodes
    base = solve_model3(SYMMETRIC, ObjectiveSpec(1.0, 1.0), grid)
    worst = max(
        float(
            np.max(
                np.abs(
                    g * solve_model3(SYMMETRIC, ObjectiveSpec(g, 1.0), grid).k2.values
                    - base.k2.values
                )
            )
        )
        for g in (2.0, 3.0, 10.0)
    )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 5.0
    _report(2, "intercept scales exactly as 1/gamma", ok, f"max dev {worst:.2e}, {elapsed:.2f}s")


def test_03_degenerate_asset_equivalence():
    p = MarketParams([0.2, 0.04], [[0.3, 0.0], [0.0, 0.0]], 0.04)
    s = solve_model3(p, ObjectiveSpec(3.0, 1.0), TimeGrid(1.0, 1000))
    k1_ok = float(np.max(np.abs(s.k1.values))) < 1e-10
    worst = 0.0
    for t in np.linspace(0.0, 1.0, 100):
        closed_form = 0.16 * np.exp(-0.04 * (1.0 - t)) / (3.0 * 0.09)
        u1 = s.k1(t) + s.k2(t)
        worst = max(worst, abs(u1 - closed_form))
    ok = k1_ok and worst < 1e-8
    _report(3, "riskless second asset reduces to single-stock closed form", ok,
            f"max dev {worst:.2e}")


def test_04_variance_only_special_cases():
    grid = TimeGrid(1.0, 1000)
    riskfree = MarketParams([0.2, 0.04], [[0.3, 0.0], [0.0, 0.0]], 0.04)
    dev_zero = float(np.max(np.abs(solve_model2(riskfree, grid).k.values)))
    symmetric = MarketParams([0.12, 0.12], [[0.25, 0.0], [0.0, 0.25]])
    dev_half = float(np.max(np.abs(solve_model2(symmetric, grid).k.values - 0.5)))
    ok = dev_zero < 1e-10 and dev_half < 1e-10
    _report(4, "variance-only degenerate gains (0 and 1/2)", ok,
            f"devs {dev_zero:.2e}, {dev_half:.2e}")


def test_05_equal_drift_constant_solution():
    grid = TimeGrid(1.0, 500)
    rng = np.random.default_rng(17)
    worst_k1, worst_k2 = 0.0, 0.0
    cfg = PicardConfig(tol=1e-11, max_iter=500)
    for _ in range(20):
        p = random_distinct_market(rng)
        p = MarketParams([p.alpha[1], p.alpha[1]], p.sigma, p.r)
        s = solve_model3(p, ObjectiveSpec(2.0, 1.0), grid, cfg)
        worst_k1 = max(
            worst_k1, float(np.max(np.abs(s.k1.values - constant_gain_equal_drifts(p))))
        )
        worst_k2 = max(worst_k2, float(np.max(np.abs(s.k2.values))))
    ok = worst_k1 < 1e-12 and worst_k2 < 1e-9
    _report(5, "equal drifts give the constant gain and zero intercept", ok,
            f"devs {worst_k1:.2e}, {worst_k2:.2e}")


def test_06_residuals_and_grid_convergence():
    cfg = PicardConfig(tol=1e-11, max_iter=300)
    fine = TimeGrid(1.0, 4000)
    obj = ObjectiveSpec(1.0, 1.0)
    s = solve_model3(SYMMETRIC, obj, fine, cfg)
    m2 = solve_model2(SYMMETRIC, fine, cfg)
    res = max(
        gain_residual(SYMMETRIC, fine, m2.k.values),
        gain_residual(SYMMETRIC, fine, s.k1.values),
        intercept_residual(s.kernels, s.k2, s.k2.values),
    )

    def k_curves(n_steps):
        grid = TimeGrid(1.0, n_steps)
        sol = solve_model3(SYMMETRIC, obj, grid, cfg)
        return sol.k1.values, sol.k2.values

    k1_a, k2_a = k_curves(500)
    k1_b, k2_b = k_curves(1000)
    k1_c, k2_c = k_curves(2000)
    orders = []
    for coarse, mid, fine_v in ((k1_a, k1_b, k1_c), (k2_a, k2_b, k2_c)):
        e1 = float(np.max(np.abs(coarse - mid[::2])))
        e2 = float(np.max(np.abs(mid - fine_v[::2])))
        orders.append(np.log2(e1 / e2))
    ok = res < 1e-8 and all(1.7 <= o <= 2.3 for o in orders)
    _report(6, "substituted residuals and O(h^2) grid convergence", ok,
            f"residual {res:.2e}, orders {orders[0]:.2f}/{orders[1]:.2f}")


def test_07_iterate_error_bound_domination():
    grid = TimeGrid(1.0, 1000)
    cfg = PicardConfig(tol=1e-13, max_iter=300)
    s = solve_model3(SYMMETRIC, ObjectiveSpec(1.0, 1.0), grid, cfg)
    k1_history, k2_solve = s.gain.solve.history, solve_k2(s.kernels, s.k2, cfg)
    ok = True
    for history, solution, K in (
        (k1_history, s.k1.values, gain_bound_constant(SYMMETRIC, grid, k1_history)),
        (k2_solve.history, k2_solve.values, intercept_bound_constant(s.kernels, k2_solve.history)),
    ):
        errors = iterate_sup_errors(history, solution)
        for n in range(1, 11):
            empirical = errors[n - 1] if n <= len(errors) else 0.0
            ok &= empirical <= convergence_bound(K, 1.0, n)
    _report(7, "factorial-tail bound dominates every recorded sweep", ok)


def test_08_monte_carlo_consistency():
    start = time.perf_counter()
    obj = ObjectiveSpec(3.0, 1.0)
    grid = TimeGrid(1.0, 1000)
    cfg = SimConfig(100_000, 1000, 2024)
    s1 = solve_model1(DIAGONAL, obj)
    s2 = solve_model2(DIAGONAL, grid)
    v2 = evaluate_model2(DIAGONAL, s2.k, 3.0)
    s3 = solve_model3(DIAGONAL, obj, grid)
    strategies = {"model1": s1, "model2": s2, "model3": s3}
    moments = {"model1": s1.moments, "model2": v2, "model3": s3.moments}
    columns = {name: (strategy, obj) for name, strategy in strategies.items()}
    reports = simulate_models(DIAGONAL, columns, cfg, threads=2)
    ok = True
    zs = []
    for name, m in moments.items():
        mean_a, var_a = m.mean(0.0, 1.0), m.variance(0.0, 1.0)
        r = reports[name]
        z_mean = abs(r.mean_estimate - mean_a) / r.se_mean
        z_var = abs(r.variance_estimate - var_a) / r.se_variance
        zs.append(max(z_mean, z_var))
        ok &= z_mean < 3.0 and z_var < 3.0
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    _report(8, "Monte Carlo matches analytic moments within 3 SE", ok,
            f"max |z| {max(zs):.2f}, {elapsed:.1f}s")


def test_09_qualitative_orderings():
    obj = ObjectiveSpec(3.0, 1.0)
    grid = TimeGrid(1.0, 1000)
    s1 = solve_model1(DIAGONAL, obj)
    s2 = solve_model2(DIAGONAL, grid)
    v2 = evaluate_model2(DIAGONAL, s2.k, 3.0)
    s3 = solve_model3(DIAGONAL, obj, grid)
    xs = np.linspace(0.1, 5.0, 50)
    mean_ok = all(s3.moments.mean(0.0, x) >= v2.mean(0.0, x) - 1e-12 for x in xs)
    var_ok = all(v2.variance(0.0, x) <= s3.moments.variance(0.0, x) + 1e-12 for x in xs)
    strategies = {"model1": s1, "model2": s2, "model3": s3}
    columns = {name: (strategy, obj) for name, strategy in strategies.items()}
    paths = reproduce_figure_paths(DIAGONAL, columns, SimConfig(1, 1000, 5))
    alloc_ok = bool(
        np.all(paths["model2"].dollars[:, 0] <= paths["model3"].dollars[:, 0] + 1e-12)
    )
    borrow_ok = float(np.sum(s1.control(0.0))) > 1.0
    ok = mean_ok and var_ok and alloc_ok and borrow_ok
    _report(9, "cross-model orderings and bank-account borrowing", ok)


def test_10_randomized_property_suite():
    rng = np.random.default_rng(2718)
    grid = TimeGrid(1.0, 400)
    cfg = PicardConfig(tol=1e-11, max_iter=800)
    ok = True
    for _ in range(100):
        p = random_distinct_market(rng)
        s = solve_model3(p, ObjectiveSpec(2.0, 1.0), grid, cfg)
        diffs = np.diff(s.k1.values)
        if p.alpha[0] > p.alpha[1]:
            ok &= bool(np.all(diffs >= -1e-12))
        elif p.alpha[0] < p.alpha[1]:
            ok &= bool(np.all(diffs <= 1e-12))
        lo, hi = gain_iterate_bounds(p)
        for iterate in s.gain.solve.history[1:]:
            ok &= bool(np.all(iterate >= lo - 1e-10) and np.all(iterate <= hi + 1e-10))
        for t in np.linspace(0.0, 1.0, 5):
            for x in np.linspace(0.1, 10.0, 8):
                ok &= s.moments.variance(t, x) >= -1e-10
        if not ok:
            break
    _report(10, "monotonicity, iterate bounds and variance nonnegativity", ok)
