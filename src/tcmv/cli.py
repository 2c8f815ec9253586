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
import gc
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from . import model3
from .errors import (
    ConfigError,
    MarketValidationError,
    NonConvergenceError,
    SimulationExplosionError,
    SingularMarketError,
)
from .market import CorrelationSpec, MarketParams, ObjectiveSpec, _require_finite, decorrelate
from .model1 import solve_model1
from .model2 import Equilibrium, Model2Solution, gain_residual
from .model3 import (
    Model3Solution,
    gain_bound_constant,
    intercept_bound_constant,
    intercept_residual,
    iterate_sup_errors,
    no_bank_equilibria,
    solve_horizon,
)
from .numerics import (DEFAULT_STEPS_PER_YEAR, PicardConfig, PicardResult, SimConfig, TimeGrid,
                       convergence_bound)

_ALL_TABLES = (
    "k_curves",
    "allocation_vs_wealth",
    "mean_variance_vs_wealth",
    "simulated_paths",
)

# wealth lattice used by the per-wealth tables
_WEALTH_GRID = np.linspace(0.1, 5.0, 50)

# Most solver grid steps of one horizon.  A horizon holds its gain's Picard
# iterates, all kept for the error-bound tables, six kernel tables and one
# k2 per gamma: 8 bytes a node each, 8 MB here.
MAX_GRID_STEPS = 10**6

# The variance's standard error needs more than three paths.
_MIN_PATHS = 4


# The Monte Carlo engine's names, which only simulate uses: bound into this
# module on first use (_engine), so solve and bounds never import it.
_ENGINE = ("MAX_BLOCK_BYTES", "array_nbytes", "reproduce_figure_paths", "simulate_models")


def _engine():
    """Import tcmv.montecarlo and bind each name of _ENGINE here that is not
    bound yet; a name already set on this module, a wrapper say, is kept,
    and the callers look every name up here."""
    from . import montecarlo

    for name in _ENGINE:
        globals().setdefault(name, getattr(montecarlo, name))


def __getattr__(name: str):
    if name in _ENGINE:
        _engine()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def fmt(x: float) -> str:
    return f"{float(x):.12g}"


def fmt_column(values) -> list[str]:
    """[fmt(v) for v in values], formatted as one column."""
    return ["%.12g" % v for v in np.asarray(values, dtype=float).tolist()]


def _rows(prefix: str, *columns) -> str:
    """One CSV row per index of the shortest column: the prefix, then each
    column's cell.  A column is text, a list of preformatted cells, or
    numbers, formatted here as fmt does.  The whole chunk is one %
    operation over one flat tuple of cells: "%s" for a text cell, "%.12g"
    (fmt's C routine) for a number, and the prefix with its % escaped."""
    n = min(map(len, columns), default=0)
    if n == 0:
        return ""
    width, cells, specs = len(columns), [None] * (n * len(columns)), []
    for j, column in enumerate(columns):
        if isinstance(column[0], str):
            specs.append("%s")
            cells[j::width] = column[:n]
        else:
            specs.append("%.12g")
            cells[j::width] = np.asarray(column, dtype=float)[:n].tolist()
    row = prefix.replace("%", "%%") + ",".join(specs) + "\n"
    return (row * n) % tuple(cells)


class ScenarioConfig(NamedTuple):
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
        if params.n_stocks != 2:
            raise MarketValidationError(f"models 2 and 3 need 2 stocks; got {params.n_stocks}")

        gammas = [float(g) for g in _parse_vector(objective["gamma"])]
        horizons = [float(t) for t in _parse_vector(objective["T"])]
        for g in gammas:
            for T in horizons:
                ObjectiveSpec(g, T)  # validate eagerly
        # the printed values name the rows and the path files
        for key, values in (("gamma", gammas), ("T", horizons)):
            printed = [fmt(v) for v in values]
            if not printed:
                raise ConfigError(f"{key} lists no values")
            if len(set(printed)) < len(printed):
                raise ConfigError(f"{key} lists a value twice: {', '.join(printed)}")

        solver = parser["solver"] if parser.has_section("solver") else {}
        steps_per_year = int(solver.get("n_steps", DEFAULT_STEPS_PER_YEAR))
        picard = PicardConfig(
            tol=float(solver.get("tol", PicardConfig.tol)),
            max_iter=int(solver.get("max_iter", PicardConfig.max_iter)),
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
        out_dir = out_dir_override or outputs.get("directory", ".")
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"invalid config {path}: {exc}") from exc

    if steps_per_year < 2:
        raise ConfigError("n_steps must be at least 2 per year")
    for T in horizons:
        if steps_per_year > MAX_GRID_STEPS / T:
            raise ConfigError(
                f"T={fmt(T)} at n_steps = {steps_per_year} per year needs more "
                f"than MAX_GRID_STEPS = {MAX_GRID_STEPS} grid steps"
            )
    return ScenarioConfig(
        params, gammas, horizons, steps_per_year, picard, sim, tables, out_dir
    )


def check_simulation_size(cfg: ScenarioConfig):
    """ConfigError when a simulate run has fewer than _MIN_PATHS paths for
    its standard errors, or when any array it would allocate passes
    MAX_BLOCK_BYTES.  Models 1 to 3 make 3 columns per case, stepped as 2
    row pairs per horizon; montecarlo.array_nbytes sizes the arrays, of
    which the figure paths are formed only for the simulated_paths table."""
    _engine()
    sim = cfg.sim
    if sim.n_paths < _MIN_PATHS:
        raise ConfigError(
            f"n_paths = {sim.n_paths}: the Monte Carlo standard errors need "
            f"at least {_MIN_PATHS} paths"
        )
    n_pairs = 2 * len(cfg.horizons)
    n_columns = 3 * len(cfg.horizons) * len(cfg.gammas)
    sizes = array_nbytes(sim, *cfg.params.sigma.shape, n_pairs, n_columns)
    if "simulated_paths" not in cfg.tables:
        del sizes["figure paths"]
    for what, nbytes in sizes.items():
        if nbytes > MAX_BLOCK_BYTES:
            # rounded up, so that a size just past the limit does not read as it
            raise ConfigError(
                f"n_paths = {sim.n_paths} and n_time_steps = {sim.n_time_steps} over "
                f"{n_columns} Monte Carlo columns on {n_pairs} row pairs need "
                f"{math.ceil(nbytes * 10 / 2**20) / 10:.1f} MiB of {what}, "
                f"above the {MAX_BLOCK_BYTES // 2**20} MiB limit per array"
            )


class SolvedCase(NamedTuple):
    gamma: float
    T: float
    models: dict[str, Equilibrium]  # model1 on a regular covariance, model2, model3
    m1_note: str  # model 1's diagnostics line: theta_sq, or why it has no solution
    m3: Model3Solution  # model 3's solver record; gain and kernels are one per horizon


def _solve_all(cfg: ScenarioConfig) -> list[SolvedCase]:
    """All (gamma, T) cases in gamma-major order, from one solve_horizon per T."""
    by_horizon = [
        solve_horizon(cfg.params, cfg.gammas, TimeGrid.default(T, cfg.steps_per_year), cfg.picard)
        for T in cfg.horizons
    ]
    cases = []
    for i, gamma in enumerate(cfg.gammas):
        for T, solutions in zip(cfg.horizons, by_horizon):
            try:
                m1 = solve_model1(cfg.params, ObjectiveSpec(gamma, T))
                models = {"model1": Equilibrium(m1, m1.moments)}
                m1_note = f"theta_sq={fmt(m1.theta_sq)}"
            except SingularMarketError as exc:
                models, m1_note = {}, str(exc)
            m3 = solutions[i]
            cases.append(SolvedCase(gamma, T, {**models, **no_bank_equilibria(m3)}, m1_note, m3))
    return cases


def _discard(path: str):
    try:
        os.remove(path)
    except OSError:
        pass


class _Emitter:
    """Writes each file whole or not at all: its text chunks stream into a
    temporary file, then os.replace.  Used as a context manager: on any exception,
    an interrupt included, the files written so far are removed; on success
    they are listed under --verbose.  An unusable output directory is a config error.
    A SIGKILL runs no cleanup and can leave the .<name>.<pid>.tmp file behind."""

    def __init__(self, out_dir: str, verbose: bool):
        self.out_dir = out_dir
        self.verbose = verbose
        self.written: list[str] = []
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc

    def __enter__(self) -> "_Emitter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        for path in self.written:
            if exc_type is not None:
                _discard(path)
            elif self.verbose:
                print(f"wrote {path}")

    def write(self, name: str, chunks) -> str:
        path = os.path.join(self.out_dir, name)
        tmp = os.path.join(self.out_dir, f".{name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "w", newline="\n", encoding="utf-8") as fh:
                for chunk in chunks:
                    fh.write(chunk)
            os.replace(tmp, path)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}") from exc
        finally:
            _discard(tmp)  # already gone unless the write failed
        self.written.append(path)
        return path


def _k_curves_lines(cases: list[SolvedCase]):
    # k_model2 and k1 are the one gain of a horizon: t and k are formatted
    # once per horizon, k2 once per case
    yield "gamma,T,t,k_model2,k1,k2\n"
    shared = {
        T: [f"{t},{k},{k}" for t, k in zip(fmt_column(m2.k.grid.nodes), fmt_column(m2.k.values))]
        for T, m2 in _gains(cases).items()
    }
    for case in cases:
        prefix = f"{fmt(case.gamma)},{fmt(case.T)},"
        yield _rows(prefix, shared[case.T], case.m3.k2.values)


def _require_finite_cells(name: str, case: SolvedCase, model: str, *cells):
    """CoefficientRangeError unless every one of a model's cells in file name
    is finite: the range checks form values at a unit wealth, and the wealth
    grid reaches 5."""
    _require_finite(f"in {name} at gamma={fmt(case.gamma)} T={fmt(case.T)} ({model})", *cells)


def _allocation_lines(cases: list[SolvedCase]):
    yield "gamma,T,model,x,u1,u2,prop1,prop2\n"
    x, x_text = _WEALTH_GRID[:, None], fmt_column(_WEALTH_GRID)
    for case in cases:
        for model, (strategy, _) in case.models.items():
            G, b1 = strategy.unit_coefficients(np.zeros(1))
            with np.errstate(over="ignore", invalid="ignore"):  # refused below
                u = G * x + b1 / case.gamma
                cells = np.hstack([u, u / x])
            _require_finite_cells("allocation_vs_wealth.csv", case, model, cells)
            yield _rows(f"{fmt(case.gamma)},{fmt(case.T)},{model},", x_text, *cells.T)


def _mean_variance_lines(cases: list[SolvedCase]):
    yield "gamma,T,model,x,mean,variance\n"
    x, x_text = _WEALTH_GRID, fmt_column(_WEALTH_GRID)
    for case in cases:
        for model, (_, m) in case.models.items():
            with np.errstate(over="ignore", invalid="ignore"):  # refused below
                mean, variance = m.mean(0.0, x), m.variance(0.0, x)
            _require_finite_cells("mean_variance_vs_wealth.csv", case, model, mean, variance)
            yield _rows(f"{fmt(case.gamma)},{fmt(case.T)},{model},", x_text, mean, variance)


def _paths_lines(T: float, records: dict, by_horizon: dict) -> list[str]:
    """One case's simulated_paths file; by_horizon keeps the cells of t and the prices."""
    if T not in by_horizon:
        first = next(iter(records.values()))
        by_horizon[T] = list(map(fmt_column, (first.times, *first.prices.T)))
    header = ["t", "price1", "price2"]
    columns = []
    for name, record in records.items():
        header += [f"{name}_wealth", f"{name}_u1", f"{name}_u2"]
        columns += (record.wealth, *record.dollars.T)
    return [",".join(header) + "\n", _rows("", *by_horizon[T], *columns)]


def bound_table_text(history: list[np.ndarray], solution: np.ndarray, K: float, T: float) -> list[str]:
    """Rows n, empirical sup error, theoretical factorial-tail bound (n >= 1)."""
    errors = iterate_sup_errors(history, solution)
    lines = [f"K = {fmt(K)}", "n,empirical_sup_error,bound"]
    for n in range(1, min(len(errors), 10) + 1):
        lines.append(f"{n},{fmt(errors[n - 1])},{fmt(convergence_bound(K, T, n))}")
    return lines


def _gains(cases: list[SolvedCase]) -> dict[float, Model2Solution]:
    """The one gain solution of each horizon."""
    return {case.T: case.m3.gain for case in cases}


def _gain_bounds(cfg: ScenarioConfig, cases: list[SolvedCase]) -> dict[float, float]:
    """k1 iterate error-bound constant per horizon; it does not depend on gamma."""
    return {
        T: gain_bound_constant(cfg.params, m2.k.grid, m2.solve.history)
        for T, m2 in _gains(cases).items()
    }


def _bound_tables(cfg: ScenarioConfig, case: SolvedCase, k1_bound: float) -> tuple[PicardResult, list[str]]:
    """The k2 check of one case, the Picard solve of the Volterra equation
    forced by the case's closed form k2, and the k1 and k2 iterate
    error-bound tables; the k2 table measures the check's iterates against
    their own limit.  solve_k2 is looked up on tcmv.model3 at each call."""
    m3 = case.m3
    k2_solve = model3.solve_k2(m3.kernels, m3.k2, cfg.picard)
    k2_bound = intercept_bound_constant(m3.kernels, k2_solve.history)
    return k2_solve, [
        "k1 iterate error bound:",
        *bound_table_text(m3.gain.solve.history, m3.k1.values, k1_bound, case.T),
        "k2 iterate error bound:",
        *bound_table_text(k2_solve.history, k2_solve.values, k2_bound, case.T),
    ]


def _diagnostics_lines(cfg: ScenarioConfig, cases: list[SolvedCase]):
    residuals = {
        T: gain_residual(cfg.params, m2.k.grid, m2.k.values)
        for T, m2 in _gains(cases).items()
    }
    k1_bounds = _gain_bounds(cfg, cases)
    for case in cases:
        gain = case.m3.gain.solve
        gain_text = (
            f"iterations={gain.iterations} delta={fmt(gain.delta)} "
            f"residual={fmt(residuals[case.T])}"
        )
        k2_solve, bound_lines = _bound_tables(cfg, case, k1_bounds[case.T])
        k2_res = intercept_residual(case.m3.kernels, case.m3.k2, k2_solve.values)
        lines = [
            f"== gamma={fmt(case.gamma)} T={fmt(case.T)} ==",
            f"model1: {case.m1_note}",
            f"model2 k: {gain_text}",
            f"model3 k1: {gain_text}",
            f"model3 k2: iterations={k2_solve.iterations} "
            f"delta={fmt(k2_solve.delta)} residual={fmt(k2_res)}",
            *bound_lines,
            "",
        ]
        yield "\n".join(lines) + "\n"


def run_solve(cfg: ScenarioConfig, threads: int, verbose: bool) -> int:
    cases = _solve_all(cfg)
    with _Emitter(cfg.out_dir, verbose) as emitter:
        if "k_curves" in cfg.tables:
            emitter.write("k_curves.csv", _k_curves_lines(cases))
        if "allocation_vs_wealth" in cfg.tables:
            emitter.write("allocation_vs_wealth.csv", _allocation_lines(cases))
        if "mean_variance_vs_wealth" in cfg.tables:
            emitter.write("mean_variance_vs_wealth.csv", _mean_variance_lines(cases))
        emitter.write("diagnostics.txt", _diagnostics_lines(cfg, cases))
    return 0


def run_simulate(cfg: ScenarioConfig, threads: int, verbose: bool) -> int:
    check_simulation_size(cfg)
    cases = _solve_all(cfg)
    lines = ["gamma,T,model,mean,variance,reward,se_mean,se_variance,se_reward,n_excluded\n"]
    with _Emitter(cfg.out_dir, verbose) as emitter:
        # every (case, model) column in one pass, figure paths included
        columns = {
            (i, name): (equilibrium.strategy, ObjectiveSpec(case.gamma, case.T))
            for i, case in enumerate(cases)
            for name, equilibrium in case.models.items()
        }
        reports = simulate_models(cfg.params, columns, cfg.sim, threads)
        for (i, name), report in reports.items():
            case = cases[i]
            lines.append(
                f"{fmt(case.gamma)},{fmt(case.T)},{name},"
                f"{fmt(report.mean_estimate)},{fmt(report.variance_estimate)},"
                f"{fmt(report.reward_estimate)},{fmt(report.se_mean)},"
                f"{fmt(report.se_variance)},{fmt(report.se_reward)},"
                f"{report.n_excluded}\n"
            )
            if verbose:
                print(f"{name} gamma={case.gamma} T={case.T}: "
                      f"mean={report.mean_estimate:.6f}")
        emitter.write("simulation_summary.csv", lines)
        if "simulated_paths" in cfg.tables:
            paths = reproduce_figure_paths(cfg.params, columns, cfg.sim)
            by_horizon = {}
            for i, case in enumerate(cases):
                suffix = f"_g{fmt(case.gamma)}_T{fmt(case.T)}" if len(cases) > 1 else ""
                records = {name: paths[i, name] for name in case.models}
                emitter.write(f"simulated_paths{suffix}.csv", _paths_lines(case.T, records, by_horizon))
    return 0


def run_bounds(cfg: ScenarioConfig, threads: int, verbose: bool) -> int:
    cases = _solve_all(cfg)
    k1_bounds = _gain_bounds(cfg, cases)
    for case in cases:
        print(f"== gamma={fmt(case.gamma)} T={fmt(case.T)} ==")
        print("\n".join(_bound_tables(cfg, case, k1_bounds[case.T])[1]))
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
                         "(default: the config's outputs.directory)")
        cmd.add_argument("--threads", type=int, default=1,
                         help="simulate draws and steps Monte Carlo path "
                         "blocks, in groups of at most 512 paths, on min(N, "
                         "CPUs, blocks, groups of normals that fit in 512 "
                         "MiB) worker threads, this one included; solve and "
                         "bounds accept it and run on one thread.  N below 1 "
                         "is a config error")
        cmd.add_argument("--verbose", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be at least 1; got {args.threads}")
        cfg = load_config(args.config, args.out_dir)
        return _COMMANDS[args.command](cfg, args.threads, args.verbose)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MarketValidationError as exc:
        print(f"market validation error: {exc}", file=sys.stderr)
        return 3
    except NonConvergenceError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return 4
    except SimulationExplosionError as exc:
        print(f"simulation explosion: {exc}", file=sys.stderr)
        return 5


def entry():
    """The program entry of ``tcmv`` and ``python -m tcmv.cli``: freeze the
    objects the imports made, which live as long as the process, so that no
    later collection, the ones at shutdown included, walks them again; then
    exit with main's code.

    It also keeps OpenSSL out of the process.  numpy.random, which simulate
    imports, imports secrets and with it hmac and hashlib, which load
    OpenSSL's libcrypto through _hashlib, about 3.4 MB of RSS that tcmv
    never uses.  With _hashlib set to None in sys.modules, unless something
    loaded it already, hmac and hashlib take the standard library's builtin
    hashes instead.  No output changes: tcmv hashes nothing, and every
    Philox stream has an explicit key, so no SeedSequence draws entropy.

    main does neither, so in-process callers keep normal collection and
    their sys.modules.  Under numpy 1.x, which imports numpy.random with
    numpy itself, the setting comes after OpenSSL is loaded and changes
    nothing."""
    gc.freeze()
    sys.modules.setdefault("_hashlib", None)
    sys.exit(main())


if __name__ == "__main__":
    entry()
