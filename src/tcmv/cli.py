"""Scenario-driven command line front end.

Reads a sectioned key-value config ([market], [objective], [solver],
[simulation], [outputs]), runs the solvers and/or simulations for every
(gamma, T) combination, and emits CSV tables plus a diagnostics report.

Exit codes: 0 success, 2 config error, 3 market validation error,
4 solver non-convergence, 5 simulation explosion.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import model3
from .errors import (
    ConfigError,
    MarketValidationError,
    NonConvergenceError,
    SimulationExplosionError,
    SingularMarketError,
)
from .market import CorrelationSpec, MarketParams, ObjectiveSpec, decorrelate
from .model1 import Model1Solution, solve_model1
from .model2 import Model2Solution, evaluate_model2, gain_residual, solve_model2
from .model3 import (
    Model3Solution,
    gain_bound_constant,
    intercept_bound_constant,
    intercept_residual,
    iterate_sup_errors,
    solve_model3,
)
from .montecarlo import (
    FeedbackStrategy,
    SimConfig,
    model1_strategy,
    reproduce_figure_paths,
    simulate,
)
from .numerics import PicardConfig, TimeGrid, convergence_bound

OUT_DIR_ENV = "TCMV_OUT_DIR"

_ALL_TABLES = (
    "k_curves",
    "allocation_vs_wealth",
    "mean_variance_vs_wealth",
    "simulated_paths",
)

# wealth lattice used by the per-wealth tables
_WEALTH_GRID = np.linspace(0.1, 5.0, 50)


def fmt(x: float) -> str:
    return f"{float(x):.12g}"


@dataclass(frozen=True)
class ScenarioConfig:
    params: MarketParams
    gammas: list[float]
    horizons: list[float]
    steps_per_year: int
    picard: PicardConfig
    sim: SimConfig
    tables: tuple[str, ...]
    out_dir: str


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.replace(",", " ").split()])
    except ValueError as exc:
        raise ConfigError(f"cannot parse number list {text!r}") from exc


def _parse_matrix(text: str) -> np.ndarray:
    rows = [_parse_vector(row) for row in text.split(";") if row.strip()]
    if not rows or len({r.size for r in rows}) != 1:
        raise ConfigError(f"cannot parse matrix {text!r}: ragged or empty rows")
    return np.vstack(rows)


def load_config(path: str, out_dir_override: str | None = None) -> ScenarioConfig:
    # ';' separates matrix rows, so only '#' may start an inline comment;
    # whole-line ';' comments still work
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc

    try:
        market = parser["market"]
        objective = parser["objective"]
    except KeyError as exc:
        raise ConfigError(f"missing required section {exc}") from exc

    try:
        alpha = _parse_vector(market["alpha"])
        sigma = _parse_matrix(market["sigma"])
        r = market.getfloat("r", 0.0)
        rho_text = market.get("rho", "identity").strip()
        if rho_text != "identity":
            rho = CorrelationSpec(_parse_matrix(rho_text))
            sigma = decorrelate(sigma, rho)
        params = MarketParams(alpha, sigma, r)

        gammas = [float(g) for g in _parse_vector(objective["gamma"])]
        horizons = [float(t) for t in _parse_vector(objective["T"])]
        for g in gammas:
            for T in horizons:
                ObjectiveSpec(g, T)  # validate eagerly

        solver = parser["solver"] if parser.has_section("solver") else {}
        steps_per_year = int(solver.get("n_steps", "1000"))
        picard = PicardConfig(
            tol=float(solver.get("tol", "1e-10")),
            max_iter=int(solver.get("max_iter", "200")),
        )

        sim_sec = parser["simulation"] if parser.has_section("simulation") else {}
        sim = SimConfig(
            n_paths=int(sim_sec.get("n_paths", "100000")),
            n_time_steps=int(sim_sec.get("n_time_steps", "1000")),
            seed=int(sim_sec.get("seed", "20240401")),
            x0=float(sim_sec.get("x0", "1.0")),
        )

        outputs = parser["outputs"] if parser.has_section("outputs") else {}
        tables_text = outputs.get("tables", ", ".join(_ALL_TABLES))
        tables = tuple(t.strip() for t in tables_text.split(",") if t.strip())
        unknown = set(tables) - set(_ALL_TABLES)
        if unknown:
            raise ConfigError(f"unknown output tables: {sorted(unknown)}")
        out_dir = (
            out_dir_override
            or os.environ.get(OUT_DIR_ENV)
            or outputs.get("directory", ".")
        )
    except ConfigError:
        raise
    except MarketValidationError:
        raise
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"invalid config {path}: {exc}") from exc

    if steps_per_year < 2:
        raise ConfigError("n_steps must be at least 2 per year")
    return ScenarioConfig(
        params, gammas, horizons, steps_per_year, picard, sim, tables, out_dir
    )


def _grid_for(cfg: ScenarioConfig, T: float) -> TimeGrid:
    return TimeGrid(T, max(2, int(round(cfg.steps_per_year * T))))


@dataclass
class SolvedCase:
    gamma: float
    T: float
    m1: Model1Solution | None
    m1_error: str | None
    m2: Model2Solution  # shared by every gamma of one horizon
    m3: Model3Solution


def _solve_horizon(cfg: ScenarioConfig, T: float) -> list[SolvedCase]:
    """Every gamma at one horizon, from one solve of the gain equation:
    model 2's k is model 3's k1, which does not depend on gamma."""
    grid = _grid_for(cfg, T)
    m2 = solve_model2(cfg.params, grid, cfg.picard, record_history=True)
    cases = []
    for gamma in cfg.gammas:
        obj = ObjectiveSpec(gamma, T)
        m1, m1_error = None, None
        try:
            m1 = solve_model1(cfg.params, obj)
        except SingularMarketError as exc:
            m1_error = str(exc)
        m3 = solve_model3(
            cfg.params, obj, grid, cfg.picard, record_history=True, gain=m2
        )
        cases.append(SolvedCase(gamma, T, m1, m1_error, m2, m3))
    return cases


def _solve_all(cfg: ScenarioConfig, threads: int) -> list[SolvedCase]:
    """All (gamma, T) cases in gamma-major order; threads fan out over T."""
    if threads > 1 and len(cfg.horizons) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            by_horizon = list(pool.map(lambda T: _solve_horizon(cfg, T), cfg.horizons))
    else:
        by_horizon = [_solve_horizon(cfg, T) for T in cfg.horizons]
    return [cases[i] for i in range(len(cfg.gammas)) for cases in by_horizon]


class _Emitter:
    """Tracks written files so partial outputs can be removed on failure."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.written: list[str] = []
        os.makedirs(out_dir, exist_ok=True)

    def write(self, name: str, lines: list[str]) -> str:
        path = os.path.join(self.out_dir, name)
        with open(path, "w", newline="\n", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        self.written.append(path)
        return path

    def cleanup(self):
        for path in self.written:
            try:
                os.remove(path)
            except OSError:
                pass


def _k_curves_lines(cases: list[SolvedCase]) -> list[str]:
    lines = ["gamma,T,t,k_model2,k1,k2"]
    for case in cases:
        nodes = case.m3.grid.nodes
        k_m2, k1, k2 = case.m2.k.values, case.m3.k1.values, case.m3.k2.values
        for i, t in enumerate(nodes):
            lines.append(
                f"{fmt(case.gamma)},{fmt(case.T)},{fmt(t)},"
                f"{fmt(k_m2[i])},{fmt(k1[i])},{fmt(k2[i])}"
            )
    return lines


def _allocation_lines(cases: list[SolvedCase]) -> list[str]:
    lines = ["gamma,T,model,x,u1,u2,prop1,prop2"]
    for case in cases:
        rows = []
        if case.m1 is not None:
            u = case.m1.control(0.0)
            rows += [("model1", x, u[0], u[1]) for x in _WEALTH_GRID]
        for x in _WEALTH_GRID:
            u1, u2 = case.m2.control(0.0, x)
            rows.append(("model2", x, u1, u2))
        for x in _WEALTH_GRID:
            u1, u2 = model3.control(case.m3, 0.0, x)
            rows.append(("model3", x, u1, u2))
        for model, x, u1, u2 in rows:
            lines.append(
                f"{fmt(case.gamma)},{fmt(case.T)},{model},{fmt(x)},"
                f"{fmt(u1)},{fmt(u2)},{fmt(u1 / x)},{fmt(u2 / x)}"
            )
    return lines


def _mean_variance_lines(cases: list[SolvedCase]) -> list[str]:
    lines = ["gamma,T,model,x,mean,variance"]
    for case in cases:
        rows = []
        if case.m1 is not None:
            rows += [
                ("model1", x, case.m1.expected_wealth(0.0, x), case.m1.terminal_variance(0.0))
                for x in _WEALTH_GRID
            ]
        vals2 = evaluate_model2(case.m2.params, case.m2.k, case.gamma)
        rows += [
            ("model2", x, vals2.mean(0.0, x), vals2.variance(0.0, x))
            for x in _WEALTH_GRID
        ]
        mom = case.m3.moments
        rows += [
            ("model3", x, mom.mean(0.0, x), mom.variance(0.0, x)) for x in _WEALTH_GRID
        ]
        for model, x, mean, var in rows:
            lines.append(
                f"{fmt(case.gamma)},{fmt(case.T)},{model},{fmt(x)},{fmt(mean)},{fmt(var)}"
            )
    return lines


def _strategies(case: SolvedCase) -> dict:
    strategies = {}
    if case.m1 is not None:
        strategies["model1"] = model1_strategy(case.m1)
    strategies["model2"] = FeedbackStrategy(case.m2.k)
    strategies["model3"] = FeedbackStrategy(case.m3.k1, case.m3.k2)
    return strategies


def _paths_lines(cfg: ScenarioConfig, case: SolvedCase) -> list[str]:
    obj = ObjectiveSpec(case.gamma, case.T)
    strategies = _strategies(case)
    tables = reproduce_figure_paths(cfg.params, obj, strategies, cfg.sim)
    names = list(strategies)
    header = ["t", "price1", "price2"]
    for name in names:
        header += [f"{name}_wealth", f"{name}_u1", f"{name}_u2"]
    lines = [",".join(header)]
    for i, t in enumerate(tables.times):
        row = [fmt(t), fmt(tables.prices[i, 0]), fmt(tables.prices[i, 1])]
        for name in names:
            row += [
                fmt(tables.wealth[name][i]),
                fmt(tables.stock1_dollars[name][i]),
                fmt(tables.stock2_dollars[name][i]),
            ]
        lines.append(",".join(row))
    return lines


def bound_table_text(history: list[np.ndarray], solution: np.ndarray, K: float, T: float) -> list[str]:
    """Rows n, empirical sup error, theoretical factorial-tail bound (n >= 1)."""
    errors = iterate_sup_errors(history, solution)
    lines = [f"K = {fmt(K)}", "n,empirical_sup_error,bound"]
    for n in range(1, min(len(errors), 10) + 1):
        lines.append(f"{n},{fmt(errors[n - 1])},{fmt(convergence_bound(K, T, n))}")
    return lines


def _gains(cases: list[SolvedCase]) -> dict[float, Model2Solution]:
    """The one gain solution of each horizon."""
    return {case.T: case.m2 for case in cases}


def _gain_bounds(cfg: ScenarioConfig, cases: list[SolvedCase]) -> dict[float, float]:
    """k1 iterate error-bound constant per horizon; it does not depend on gamma."""
    return {
        T: gain_bound_constant(cfg.params, m2.grid, m2.history)
        for T, m2 in _gains(cases).items()
    }


def _diagnostics_lines(cfg: ScenarioConfig, cases: list[SolvedCase]) -> list[str]:
    residuals = {
        T: gain_residual(cfg.params, m2.grid, m2.k.values)
        for T, m2 in _gains(cases).items()
    }
    k1_bounds = _gain_bounds(cfg, cases)
    lines = []
    for case in cases:
        lines.append(f"== gamma={fmt(case.gamma)} T={fmt(case.T)} ==")
        if case.m1 is not None:
            lines.append(f"model1: theta_sq={fmt(case.m1.theta_sq)}")
        else:
            lines.append(f"model1: {case.m1_error}")
        gain_res = residuals[case.T]
        lines.append(
            f"model2 k: iterations={case.m2.iterations} "
            f"delta={fmt(case.m2.delta)} residual={fmt(gain_res)}"
        )
        k2_res = intercept_residual(case.m3.kernels, case.gamma, case.m3.k2.values)
        lines.append(
            f"model3 k1: iterations={case.m3.k1_meta.iterations} "
            f"delta={fmt(case.m3.k1_meta.delta)} residual={fmt(gain_res)}"
        )
        lines.append(
            f"model3 k2: iterations={case.m3.k2_meta.iterations} "
            f"delta={fmt(case.m3.k2_meta.delta)} residual={fmt(k2_res)}"
        )
        k2_bound = intercept_bound_constant(case.m3.kernels, case.m3.k2_history)
        lines.append("k1 iterate error bound:")
        lines += bound_table_text(
            case.m3.k1_history, case.m3.k1.values, k1_bounds[case.T], case.T
        )
        lines.append("k2 iterate error bound:")
        lines += bound_table_text(case.m3.k2_history, case.m3.k2.values, k2_bound, case.T)
        lines.append("")
    return lines


def run_solve(cfg: ScenarioConfig, threads: int, verbose: bool) -> int:
    cases = _solve_all(cfg, threads)
    emitter = _Emitter(cfg.out_dir)
    try:
        if "k_curves" in cfg.tables:
            emitter.write("k_curves.csv", _k_curves_lines(cases))
        if "allocation_vs_wealth" in cfg.tables:
            emitter.write("allocation_vs_wealth.csv", _allocation_lines(cases))
        if "mean_variance_vs_wealth" in cfg.tables:
            emitter.write("mean_variance_vs_wealth.csv", _mean_variance_lines(cases))
        emitter.write("diagnostics.txt", _diagnostics_lines(cfg, cases))
    except Exception:
        emitter.cleanup()
        raise
    if verbose:
        for path in emitter.written:
            print(f"wrote {path}")
    return 0


def run_simulate(cfg: ScenarioConfig, threads: int, verbose: bool) -> int:
    cases = _solve_all(cfg, threads)
    emitter = _Emitter(cfg.out_dir)
    lines = ["gamma,T,model,mean,variance,reward,se_mean,se_variance,se_reward,n_excluded"]
    try:
        for case in cases:
            obj = ObjectiveSpec(case.gamma, case.T)
            for name, strategy in _strategies(case).items():
                report = simulate(cfg.params, strategy, obj, cfg.sim)
                lines.append(
                    f"{fmt(case.gamma)},{fmt(case.T)},{name},"
                    f"{fmt(report.mean_estimate)},{fmt(report.variance_estimate)},"
                    f"{fmt(report.reward_estimate)},{fmt(report.se_mean)},"
                    f"{fmt(report.se_variance)},{fmt(report.se_reward)},"
                    f"{report.n_excluded}"
                )
                if verbose:
                    print(f"{name} gamma={case.gamma} T={case.T}: "
                          f"mean={report.mean_estimate:.6f}")
        emitter.write("simulation_summary.csv", lines)
        if "simulated_paths" in cfg.tables:
            for case in cases:
                suffix = f"_g{fmt(case.gamma)}_T{fmt(case.T)}" if len(cases) > 1 else ""
                emitter.write(f"simulated_paths{suffix}.csv", _paths_lines(cfg, case))
    except Exception:
        emitter.cleanup()
        raise
    if verbose:
        for path in emitter.written:
            print(f"wrote {path}")
    return 0


def run_bounds(cfg: ScenarioConfig, threads: int, verbose: bool) -> int:
    cases = _solve_all(cfg, threads)
    k1_bounds = _gain_bounds(cfg, cases)
    for case in cases:
        print(f"== gamma={fmt(case.gamma)} T={fmt(case.T)} ==")
        print("k1 iterate error bound:")
        print("\n".join(bound_table_text(
            case.m3.k1_history, case.m3.k1.values, k1_bounds[case.T], case.T)))
        k2_bound = intercept_bound_constant(case.m3.kernels, case.m3.k2_history)
        print("k2 iterate error bound:")
        print("\n".join(bound_table_text(case.m3.k2_history, case.m3.k2.values, k2_bound, case.T)))
    return 0


_COMMANDS = {"solve": run_solve, "simulate": run_simulate, "bounds": run_bounds}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcmv",
        description="Equilibrium mean-variance portfolio solvers and simulations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("solve", "solve all models and emit coefficient/value tables"),
        ("simulate", "Monte Carlo validation and common-noise path tables"),
        ("bounds", "print the Picard iterate error-bound table"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("config", help="scenario config file")
        cmd.add_argument("--out-dir", default=None, help="output directory "
                         f"(default: ${OUT_DIR_ENV} or the config's outputs.directory)")
        cmd.add_argument("--threads", type=int, default=1,
                         help="worker threads across horizons T (each solves "
                         "the gain once and then every gamma)")
        cmd.add_argument("--verbose", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.out_dir)
        return _COMMANDS[args.command](cfg, max(1, args.threads), args.verbose)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (MarketValidationError, SingularMarketError) as exc:
        print(f"market validation error: {exc}", file=sys.stderr)
        return 3
    except NonConvergenceError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return 4
    except SimulationExplosionError as exc:
        print(f"simulation explosion: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
