import builtins
import errno
import gc
import itertools
import os
import re
import subprocess
import sys
import warnings
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tcmv
from tcmv import cli
from tcmv.cli import MAX_GRID_STEPS, fmt, fmt_column, load_config, main
from tcmv import model3, montecarlo, numerics
from tcmv.errors import ConfigError, MarketValidationError
from tcmv.market import MarketParams, ObjectiveSpec
from tcmv.model2 import KernelTables, evaluate_model2
from tcmv.montecarlo import _BLOCK, MAX_BLOCK_BYTES

from .conftest import shipped_config

FIGURE_CFG = """\
[market]
alpha = 0.2, 0.12
sigma = 0.25 0; 0 0.25
rho = identity
r = 0.04

[objective]
gamma = 1, 3
T = 1

[solver]
n_steps = 200
tol = 1e-10
max_iter = 200

[simulation]
n_paths = 2000
n_time_steps = 100
seed = 9

[outputs]
tables = k_curves, allocation_vs_wealth, mean_variance_vs_wealth, simulated_paths
"""

# the files of tcmv solve, in write order
SOLVE_FILES = ("k_curves.csv", "allocation_vs_wealth.csv", "mean_variance_vs_wealth.csv",
               "diagnostics.txt")


@pytest.fixture
def figure_cfg(tmp_path):
    path = tmp_path / "figure.cfg"
    path.write_text(FIGURE_CFG)
    return str(path)


finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def scenarios(draw):
    """A market of 1-3 stocks and 1-3 factors, gammas and horizons."""
    n, d = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    alpha = draw(st.lists(finite, min_size=n, max_size=n))
    sigma = draw(st.lists(st.lists(finite, min_size=d, max_size=d), min_size=n, max_size=n))
    r = draw(finite)
    # load_config refuses a value listed twice as printed, so draw distinct ones
    gammas = draw(st.lists(positive, min_size=1, max_size=3, unique_by=fmt))
    # at the default 1000 steps a year, T <= 1000 keeps within MAX_GRID_STEPS
    horizons = draw(st.lists(
        st.floats(min_value=0.0, exclude_min=True, max_value=1000.0),
        min_size=1, max_size=3, unique_by=fmt,
    ))
    return MarketParams(alpha, sigma, r), gammas, horizons


def _scenario_text(params, gammas, horizons):
    def row(values):
        return ", ".join(repr(float(v)) for v in values)

    return "\n".join([
        "[market]",
        f"alpha = {row(params.alpha)}",
        "sigma = " + " ; ".join(" ".join(repr(float(v)) for v in r) for r in params.sigma),
        f"r = {params.r!r}",
        "[objective]",
        f"gamma = {row(gammas)}",
        f"T = {row(horizons)}",
        "",
    ])


def reference_k_curves_lines(cases):
    """k_curves.csv one fmt call per cell, as the emitter once wrote it."""
    lines = ["gamma,T,t,k_model2,k1,k2"]
    for case in cases:
        nodes = case.m3.k2.grid.nodes
        k_m2, k1, k2 = case.m3.gain.k.values, case.m3.k1.values, case.m3.k2.values
        for i, t in enumerate(nodes):
            lines.append(
                f"{fmt(case.gamma)},{fmt(case.T)},{fmt(t)},"
                f"{fmt(k_m2[i])},{fmt(k1[i])},{fmt(k2[i])}"
            )
    return lines


def reference_allocation_lines(cases):
    """allocation_vs_wealth.csv one fmt call per cell, with b = b1 / gamma."""
    lines = ["gamma,T,model,x,u1,u2,prop1,prop2"]
    for case in cases:
        for model, (strategy, _) in case.models.items():
            G, b1 = strategy.unit_coefficients(np.zeros(1))
            b = b1 / case.gamma
            for x, (u1, u2) in zip(cli._WEALTH_GRID, G * cli._WEALTH_GRID[:, None] + b):
                lines.append(
                    f"{fmt(case.gamma)},{fmt(case.T)},{model},{fmt(x)},"
                    f"{fmt(u1)},{fmt(u2)},{fmt(u1 / x)},{fmt(u2 / x)}"
                )
    return lines


def reference_mean_variance_lines(cases):
    """mean_variance_vs_wealth.csv one scalar moment and fmt call per cell,
    model 2 evaluated once per case from its own gain."""
    lines = ["gamma,T,model,x,mean,variance"]
    for case in cases:
        model2 = evaluate_model2(case.m3.gain.params, case.m3.gain.k, case.gamma)
        moments = {model: equilibrium.moments for model, equilibrium in case.models.items()}
        for model, m in {**moments, "model2": model2}.items():
            for x in cli._WEALTH_GRID:
                lines.append(
                    f"{fmt(case.gamma)},{fmt(case.T)},{model},{fmt(x)},"
                    f"{fmt(m.mean(0.0, x))},{fmt(m.variance(0.0, x))}"
                )
    return lines


def reference_paths_lines(cfg, case):
    """One case's simulated_paths file one fmt call per cell, from the
    figure paths of that case's columns alone."""
    obj = ObjectiveSpec(case.gamma, case.T)
    columns = {name: (equilibrium.strategy, obj) for name, equilibrium in case.models.items()}
    paths = montecarlo.reproduce_figure_paths(cfg.params, columns, cfg.sim)
    names = list(case.models)
    header = ["t", "price1", "price2"]
    for name in names:
        header += [f"{name}_wealth", f"{name}_u1", f"{name}_u2"]
    lines = [",".join(header)]
    shared = paths[names[0]]
    for i, t in enumerate(shared.times):
        row = [fmt(t), fmt(shared.prices[i, 0]), fmt(shared.prices[i, 1])]
        for name in names:
            row += [
                fmt(paths[name].wealth[i]),
                fmt(paths[name].dollars[i, 0]),
                fmt(paths[name].dollars[i, 1]),
            ]
        lines.append(",".join(row))
    return lines


def assert_same_text(text, lines):
    """text is the lines, each ended by a newline.  A mismatch names the
    first line that differs; pytest's own diff of megabyte strings would
    take minutes."""
    expected = "\n".join(lines) + "\n"
    if text != expected:
        pairs = itertools.zip_longest(text.splitlines(True), expected.splitlines(True))
        i, (got, want) = next((i, p) for i, p in enumerate(pairs, 1) if p[0] != p[1])
        pytest.fail(f"line {i}: {got!r}, expected {want!r}")


def _read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def _refused_mib(message):
    """The size in MiB that a check_simulation_size refusal prints."""
    return float(re.search(r" need (\S+) MiB of ", message).group(1))


def assert_finite_cells(out):
    """Every numeric cell of every CSV in out is finite."""
    for csv in out.glob("*.csv"):
        _, rows = _read_rows(csv)
        cells = [float(c) for row in rows for c in row if not c.startswith("model")]
        assert cells and np.all(np.isfinite(cells)), csv.name


def assert_same_files(got, expected, names):
    """The directories hold exactly names, byte for byte the same."""
    assert sorted(os.listdir(got)) == sorted(os.listdir(expected)) == sorted(names)
    for name in names:
        assert (got / name).read_bytes() == (expected / name).read_bytes()


class TestConfigParsing:
    def test_roundtrip(self, figure_cfg):
        cfg = load_config(figure_cfg)
        assert np.allclose(cfg.params.alpha, [0.2, 0.12])
        assert cfg.params.sigma.shape == (2, 2)
        assert cfg.gammas == [1.0, 3.0]
        assert cfg.horizons == [1.0]
        assert cfg.sim.n_paths == 2000

    def test_correlated_market_decorrelated(self, tmp_path):
        text = FIGURE_CFG.replace("rho = identity", "rho = 1 0.5; 0.5 1")
        path = tmp_path / "c.cfg"
        path.write_text(text)
        cfg = load_config(str(path))
        cov = cfg.params.sigma @ cfg.params.sigma.T
        assert cov[0, 1] == pytest.approx(0.5 * 0.25 * 0.25)

    @pytest.mark.parametrize(
        "sigma, message",
        [
            ("0.25 0; -inf 0.25", "alpha and sigma entries must be finite"),
            ("1.7e308 1.7e308; 0 0.25", "the decorrelated sigma exceeds the float64 range"),
        ],
    )
    @pytest.mark.parametrize("command", ["solve", "bounds", "simulate"])
    def test_correlated_sigma_beyond_float64_is_market_error(
        self, tmp_path, capsys, command, sigma, message
    ):
        # decorrelating a non-finite or an overflowing sigma once warned in
        # its matmul, a traceback under error::RuntimeWarning
        path = tmp_path / "c.cfg"
        path.write_text(FIGURE_CFG.replace("rho = identity", "rho = 1 0.5; 0.5 1")
                        .replace("0.25 0; 0 0.25", sigma))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, str(path), "--out-dir", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"market validation error: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_missing_section_is_config_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[market]\nalpha = 0.1, 0.2\nsigma = 0.2 0; 0 0.3\n")
        assert main(["solve", str(path)]) == 2

    def test_unparseable_numbers(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(FIGURE_CFG.replace("0.25 0; 0 0.25", "abc"))
        assert main(["solve", str(path)]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope.cfg")]) == 2

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_out_of_range_seed_is_config_error(self, tmp_path, capsys, seed):
        path = tmp_path / "seed.cfg"
        path.write_text(FIGURE_CFG.replace("seed = 9", f"seed = {seed}"))
        assert main(["simulate", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new",
        [
            ("sigma = 0.25 0; 0 0.25", "sigma = 0.25 0 ; 0 0.25"),
            ("rho = identity", "rho = 1 0.5 ; 0.5 1"),
        ],
    )
    def test_semicolon_with_spaces_separates_rows(self, tmp_path, old, new):
        path = tmp_path / "semi.cfg"
        path.write_text(FIGURE_CFG.replace(old, new) + "; a whole-line comment\n")
        cfg = load_config(str(path))
        assert cfg.params.sigma.shape == (2, 2)
        cov = cfg.params.sigma @ cfg.params.sigma.T
        rho = 0.5 if "rho" in new else 0.0
        assert cov[0, 1] == pytest.approx(rho * 0.25 * 0.25, abs=1e-15)


    @given(scenarios())
    @settings(max_examples=100, deadline=None)
    def test_written_config_parses_back(self, tmp_path_factory, scenario):
        params, gammas, horizons = scenario
        path = tmp_path_factory.mktemp("roundtrip") / "scenario.cfg"
        path.write_text(_scenario_text(params, gammas, horizons))
        if params.n_stocks != 2:
            with pytest.raises(MarketValidationError, match=f"need 2 stocks; got {params.n_stocks}$"):
                load_config(str(path))
            return
        cfg = load_config(str(path))
        assert np.array_equal(cfg.params.alpha, params.alpha)
        assert np.array_equal(cfg.params.sigma, params.sigma)
        assert cfg.params.sigma.shape == params.sigma.shape
        assert cfg.params.r == params.r
        assert cfg.gammas == gammas and cfg.horizons == horizons

    @pytest.mark.parametrize("x0", ["nan", "inf"])
    def test_non_finite_initial_wealth_is_config_error(self, tmp_path, capsys, x0):
        path = tmp_path / "x0.cfg"
        path.write_text(FIGURE_CFG.replace("seed = 9", f"seed = 9\nx0 = {x0}"))
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "x0" in err
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["inf", "nan", "0"])
    def test_non_finite_tolerance_is_config_error(self, tmp_path, capsys, tol):
        # tol = inf once stopped the Picard solves after one sweep, and
        # solve wrote that k as if converged
        path = tmp_path / "tol.cfg"
        path.write_text(FIGURE_CFG.replace("tol = 1e-10", f"tol = {tol}"))
        out = tmp_path / "out"
        assert main(["solve", str(path), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "tolerance must be finite and positive" in err
        assert not out.exists()

    @pytest.mark.parametrize("old, new, key", [
        ("gamma = 1, 3", "gamma =", "gamma"),
        ("T = 1", "T =", "T"),
        ("gamma = 1, 3", "gamma = 1, 1", "gamma"),
        ("T = 1", "T = 1, 1.00000000000001", "T"),  # both print as 1
    ])
    @pytest.mark.parametrize("command", ["solve", "simulate"])
    def test_empty_or_repeated_list_is_config_error(
        self, tmp_path, capsys, old, new, key, command
    ):
        path = tmp_path / "lists.cfg"
        path.write_text(FIGURE_CFG.replace(old, new))
        out = tmp_path / "out"
        assert main([command, str(path), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} lists ") and "Traceback" not in err
        assert not out.exists()

    def test_grid_step_bound(self, tmp_path, capsys):
        path = tmp_path / "grid.cfg"
        path.write_text(FIGURE_CFG.replace("n_steps = 200", f"n_steps = {MAX_GRID_STEPS}"))
        assert load_config(str(path)).steps_per_year == MAX_GRID_STEPS  # T = 1
        path.write_text(FIGURE_CFG.replace("n_steps = 200", "n_steps = 100000000")
                        .replace("T = 1", "T = 1, 10"))
        with pytest.raises(ConfigError):  # refused before any solve starts
            load_config(str(path))
        out = tmp_path / "out"
        assert main(["solve", str(path), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "T=1 " in err and "n_steps = 100000000" in err and "Traceback" not in err
        assert not out.exists()

    def test_too_few_paths_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "paths.cfg"
        path.write_text(FIGURE_CFG.replace("n_paths = 2000", "n_paths = 4"))
        assert load_config(str(path)).sim.n_paths == 4
        path.write_text(FIGURE_CFG.replace("n_paths = 2000", "n_paths = 3"))
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: n_paths = 3: the Monte Carlo standard errors need at least 4 paths\n"
        )
        assert not out.exists()

    def test_too_few_paths_concern_simulate_alone(self, tmp_path, capsys):
        # solve and bounds run no Monte Carlo, so any path count will do
        path = tmp_path / "paths.cfg"
        path.write_text(FIGURE_CFG.replace("n_paths = 2000", "n_paths = 3"))
        assert load_config(str(path)).sim.n_paths == 3
        assert main(["solve", str(path), "--out-dir", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "diagnostics.txt").exists()
        assert main(["bounds", str(path)]) == 0
        assert "empirical_sup_error,bound" in capsys.readouterr().out

    def test_block_memory_bound(self, tmp_path, capsys):
        # a worker holds a group of at most 512 paths of normals: 512 paths
        # x 65536 steps x 2 factors x 8 bytes is exactly the bound.  The
        # check refuses one step more before main is run, which would
        # otherwise simulate the whole run
        group = 512
        assert _BLOCK == 8 * group and MAX_BLOCK_BYTES == group * 65536 * 2 * 8
        path = tmp_path / "steps.cfg"
        path.write_text(FIGURE_CFG.replace("n_paths = 2000", "n_paths = 100000")
                        .replace("n_time_steps = 100", "n_time_steps = 65536"))
        cli.check_simulation_size(load_config(str(path)))
        path.write_text(FIGURE_CFG.replace("n_paths = 2000", "n_paths = 100000")
                        .replace("n_time_steps = 100", "n_time_steps = 65537"))
        with pytest.raises(ConfigError):
            cli.check_simulation_size(load_config(str(path)))
        assert main(["simulate", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "n_time_steps = 65537" in err and "Traceback" not in err
        assert "need 512.1 MiB of Gaussian increments per worker" in err
        assert _refused_mib(err) * 2**20 >= group * 65537 * 2 * 8 > MAX_BLOCK_BYTES
        assert not (tmp_path / "out").exists()

    def test_block_memory_bound_uses_the_path_count(self, tmp_path):
        # a run of 2048 paths or fewer is held a quarter at a time: 3 of
        # 10 paths, 500 of 2000
        path = tmp_path / "few.cfg"
        path.write_text(FIGURE_CFG.replace("n_paths = 2000", "n_paths = 10")
                        .replace("n_time_steps = 100", "n_time_steps = 1000000"))
        cli.check_simulation_size(load_config(str(path)))
        path.write_text(FIGURE_CFG.replace("n_time_steps = 100", "n_time_steps = 1000000"))
        with pytest.raises(ConfigError, match="7629.4 MiB of Gaussian increments per worker"):
            cli.check_simulation_size(load_config(str(path)))
        assert main(["simulate", str(path), "--out-dir", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("name, n_paths, n_time_steps, what, size", [
        # 4,000,000 steps x 4 row pairs (2 per horizon) x (2 + 2 d) float64s
        ("figure1.cfg", 4, 4_000_000, "of step table", "732.5 MiB"),
        # 4 rows (2 pairs) x 100,000,000 paths
        ("section4.cfg", 100_000_000, 1, "of terminal wealth", "3051.8 MiB"),
    ])
    def test_run_memory_bound(self, tmp_path, capsys, name, n_paths, n_time_steps, what, size):
        # each block fits, but another array of the run does not; refused
        # before anything is allocated or written
        text = (resources.files("tcmv") / "configs" / name).read_text()
        text = re.sub(r"(?m)^n_paths = .*", f"n_paths = {n_paths}", text)
        text = re.sub(r"(?m)^n_time_steps = .*", f"n_time_steps = {n_time_steps}", text)
        path = tmp_path / name
        path.write_text(text)
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert what in err and size in err and "Traceback" not in err
        assert f"n_paths = {n_paths} and n_time_steps = {n_time_steps}" in err
        assert not out.exists()

    def test_run_memory_bound_at_the_limit(self, tmp_path):
        # 4 rows (2 pairs) x n_paths x 8 bytes: just at and just above 512 MiB
        limit = MAX_BLOCK_BYTES // 32
        path = tmp_path / "paths.cfg"
        text = FIGURE_CFG.replace("gamma = 1, 3", "gamma = 1")
        path.write_text(text.replace("n_paths = 2000", f"n_paths = {limit}"))
        cli.check_simulation_size(load_config(str(path)))
        path.write_text(text.replace("n_paths = 2000", f"n_paths = {limit + 1}"))
        with pytest.raises(ConfigError, match="3 Monte Carlo columns on 2 row pairs need "
                           "512.1 MiB of terminal") as refused:
            cli.check_simulation_size(load_config(str(path)))
        assert _refused_mib(str(refused.value)) * 2**20 >= 32 * (limit + 1) > MAX_BLOCK_BYTES

    def test_run_memory_bound_applies_to_simulate_alone(self, tmp_path, capsys, monkeypatch):
        # solve and bounds never simulate, so a path count no Monte Carlo
        # array could hold does not stop them; no Monte Carlo array is made
        def refuse(*args, **kwargs):
            pytest.fail("a Monte Carlo array was allocated")

        monkeypatch.setattr(cli, "simulate_models", refuse)
        monkeypatch.setattr(cli, "reproduce_figure_paths", refuse)
        path = tmp_path / "huge.cfg"
        path.write_text(FIGURE_CFG.replace("n_paths = 2000", "n_paths = 1000000000"))
        out = tmp_path / "out"
        assert main(["solve", str(path), "--out-dir", str(out)]) == 0
        assert main(["bounds", str(path)]) == 0
        capsys.readouterr()
        assert main(["simulate", str(path), "--out-dir", str(tmp_path / "sim")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: n_paths = 1000000000 and n_time_steps = 100 over "
                              "6 Monte Carlo columns on 2 row pairs need 30517.6 MiB of "
                              "terminal wealth")
        assert not (tmp_path / "sim").exists()

    def test_figure_paths_count_only_where_their_table_is_written(self, tmp_path, monkeypatch):
        # 15 gammas x 16 horizons at 32000 steps of 8 paths: the figure
        # paths alone pass the limit, and only the simulated_paths table
        # forms them.  The check simulates nothing
        def refuse(*args, **kwargs):
            pytest.fail("a Monte Carlo array was allocated")

        monkeypatch.setattr(cli, "simulate_models", refuse)
        monkeypatch.setattr(cli, "reproduce_figure_paths", refuse)
        gammas = ", ".join(str(g) for g in range(1, 16))
        horizons = ", ".join(str(T) for T in range(1, 17))
        text = (FIGURE_CFG.replace("gamma = 1, 3", f"gamma = {gammas}")
                .replace("T = 1\n", f"T = {horizons}\n")
                .replace("n_paths = 2000", "n_paths = 8")
                .replace("n_time_steps = 100", "n_time_steps = 32000"))
        path = tmp_path / "wide.cfg"
        path.write_text(re.sub(r"(?m)^tables = .*", "tables = k_curves", text))
        cfg = load_config(str(path))
        assert cfg.tables == ("k_curves",) and len(cfg.gammas) * len(cfg.horizons) == 240
        cli.check_simulation_size(cfg)
        path.write_text(text)
        with pytest.raises(ConfigError, match="720 Monte Carlo columns on 32 row pairs need "
                           "543.0 MiB of figure paths"):
            cli.check_simulation_size(load_config(str(path)))


    @pytest.mark.parametrize(
        "alpha, sigma, n",
        [("0.2, 0.12, 0.1", "0.25 0 0; 0 0.25 0; 0 0 0.2", 3)],
    )
    def test_market_not_two_by_two_is_market_error(
        self, tmp_path, capsys, alpha, sigma, n
    ):
        path = tmp_path / "shape.cfg"
        path.write_text(FIGURE_CFG.replace("alpha = 0.2, 0.12", f"alpha = {alpha}")
                        .replace("0.25 0; 0 0.25", sigma))
        out = tmp_path / "out"
        for command in ("solve", "simulate"):
            assert main([command, str(path), "--out-dir", str(out)]) == 3
            err = capsys.readouterr().err
            assert err == f"market validation error: models 2 and 3 need 2 stocks; got {n}\n"
        assert not out.exists()

    @pytest.mark.parametrize("sigma", ["0.2; 0.3", "0.25 0 0.1; 0 0.25 0"])
    def test_two_stocks_on_one_or_three_factors_are_solved(self, tmp_path, capsys, sigma):
        path = tmp_path / "shape.cfg"
        path.write_text(FIGURE_CFG.replace("0.25 0; 0 0.25", sigma))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for command in ("solve", "simulate"):
                assert main([command, str(path), "--out-dir", str(out)]) == 0
        assert capsys.readouterr().err == ""
        _, rows = _read_rows(out / "simulation_summary.csv")
        assert {row[2] for row in rows} >= {"model2", "model3"}


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize("command", ["solve", "simulate", "bounds"])
def test_threads_below_one_is_config_error(figure_cfg, tmp_path, capsys, command, threads):
    # refused before the config is read: one stderr line, no output directory
    out = tmp_path / "out"
    assert main([command, figure_cfg, "--out-dir", str(out), "--threads", threads]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: --threads must be at least 1; got {threads}\n"
    assert captured.out == "" and not out.exists()


class TestOutputDirectory:
    def test_existing_file_is_config_error(self, figure_cfg, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("not a directory")
        assert main(["solve", figure_cfg, "--out-dir", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(target) in err
        assert target.read_text() == "not a directory"

    def test_path_below_a_file_is_config_error(self, figure_cfg, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("")
        assert main(["simulate", figure_cfg, "--out-dir", str(target / "sub")]) == 2
        assert str(target / "sub") in capsys.readouterr().err

    def test_unwritable_directory_is_config_error(
        self, figure_cfg, tmp_path, capsys, monkeypatch
    ):
        # directory modes do not bind a superuser, so the refusal a
        # read-only directory gives is simulated at the open call
        out = tmp_path / "readonly"
        out.mkdir()

        def refuse(path, *args, **kwargs):
            if os.path.dirname(path) == str(out):
                raise PermissionError(errno.EACCES, "Permission denied", path)
            return builtins.open(path, *args, **kwargs)

        monkeypatch.setattr(cli, "open", refuse, raising=False)
        assert main(["solve", figure_cfg, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(out) in err and "Permission denied" in err
        assert not any(out.iterdir())


class TestSolveCommand:
    def test_emits_tables(self, figure_cfg, tmp_path):
        out = tmp_path / "out"
        assert main(["solve", figure_cfg, "--out-dir", str(out)]) == 0
        for name in SOLVE_FILES:
            assert (out / name).exists()

    def test_k_curves_terminal_anchors(self, figure_cfg, tmp_path):
        out = tmp_path / "out"
        main(["solve", figure_cfg, "--out-dir", str(out)])
        header, rows = _read_rows(out / "k_curves.csv")
        assert header == ["gamma", "T", "t", "k_model2", "k1", "k2"]
        terminal = {
            float(r[0]): (float(r[4]), float(r[5])) for r in rows if r[2] == "1"
        }
        assert terminal[1.0][0] == 0.5
        assert terminal[1.0][1] == pytest.approx(0.64, abs=1e-9)
        assert terminal[3.0][1] == pytest.approx(0.2133, abs=1e-3)

    def test_large_intercept_converges(self, tmp_path):
        # max|k2| is about 130: an absolute stopping rule at tol = 1e-12
        # stalled at the roundoff of k2's Picard sweeps (last delta 2.5e-12)
        path = tmp_path / "intercept.cfg"
        path.write_text(
            FIGURE_CFG.replace("alpha = 0.2, 0.12",
                               "alpha = -0.08667410651821084, 0.2616480692165536")
            .replace("sigma = 0.25 0; 0 0.25", "sigma = -0.13659061396739247 0.21916617317092524; "
                     "0.008955406691751377 0.2437351701804653")
            .replace("r = 0.04", "r = 0.02")
            .replace("gamma = 1, 3", "gamma = 0.5")
            .replace("T = 1", "T = 3.158642197255569")
            .replace("n_steps = 200", "n_steps = 500")
            .replace("tol = 1e-10", "tol = 1e-12")
            .replace("max_iter = 200", "max_iter = 500")
        )
        out = tmp_path / "out"
        assert main(["solve", str(path), "--out-dir", str(out)]) == 0
        header, rows = _read_rows(out / "k_curves.csv")
        assert max(abs(float(r[header.index("k2")])) for r in rows) > 100
        assert "model3 k2: iterations=" in (out / "diagnostics.txt").read_text()

    def test_verbose_lists_each_file_in_write_order(self, figure_cfg, tmp_path, capsys):
        quiet, loud = tmp_path / "quiet", tmp_path / "loud"
        assert main(["solve", figure_cfg, "--out-dir", str(quiet)]) == 0
        assert capsys.readouterr().out == ""
        assert main(["solve", figure_cfg, "--out-dir", str(loud), "--verbose"]) == 0
        assert capsys.readouterr().out == "".join(f"wrote {loud / name}\n" for name in SOLVE_FILES)
        assert_same_files(loud, quiet, SOLVE_FILES)

    @pytest.mark.parametrize("config, sigma, padded", [
        (None, "0.3; -0.2", "0.3 0; -0.2 0"),
        ("figure1.cfg", "0.25 0; 0 0.25", "0.25 0 0; 0 0.25 0"),
    ], ids=["one_factor", "figure1.cfg"])
    def test_one_factor_market_equals_its_zero_padded_twin(self, tmp_path, config, sigma, padded):
        # models 2 and 3 read sigma as two rows over any number of factors:
        # a zero factor column changes no byte
        text = FIGURE_CFG if config is None else (
            resources.files("tcmv") / "configs" / config).read_text()
        assert text.count("sigma = 0.25 0; 0 0.25\n") == 1
        for name, rows in (("plain", sigma), ("padded", padded)):
            path = tmp_path / f"{name}.cfg"
            path.write_text(text.replace("0.25 0; 0 0.25", rows))
            assert main(["solve", str(path), "--out-dir", str(tmp_path / name)]) == 0
        assert_same_files(tmp_path / "plain", tmp_path / "padded", SOLVE_FILES)

    def test_byte_identical_reruns(self, figure_cfg, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["solve", figure_cfg, "--out-dir", str(out_a)])
        main(["solve", figure_cfg, "--out-dir", str(out_b)])
        for name in ("k_curves.csv", "mean_variance_vs_wealth.csv", "diagnostics.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_threads_give_same_output(self, tmp_path):
        # two horizons, solved one after the other whatever --threads says
        path = tmp_path / "two.cfg"
        path.write_text(FIGURE_CFG.replace("T = 1", "T = 1, 0.5"))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["solve", str(path), "--out-dir", str(out_a), "--threads", "1"]) == 0
        assert main(["solve", str(path), "--out-dir", str(out_b), "--threads", "4"]) == 0
        assert_same_files(out_a, out_b, SOLVE_FILES)
        headers = [
            line for line in (out_b / "diagnostics.txt").read_text().splitlines()
            if line.startswith("==")
        ]
        assert headers == [  # gamma-major, horizons in config order
            "== gamma=1 T=1 ==",
            "== gamma=1 T=0.5 ==",
            "== gamma=3 T=1 ==",
            "== gamma=3 T=0.5 ==",
        ]

    def test_kernels_are_built_once_per_horizon(self, tmp_path, monkeypatch):
        # every build constructs one KernelTables, whichever module calls it
        horizons = []
        new = KernelTables.__new__

        def counting(cls, grid, *rest):
            horizons.append(grid.T)
            return new(cls, grid, *rest)

        monkeypatch.setattr(KernelTables, "__new__", counting)
        path = tmp_path / "cases.cfg"
        path.write_text(FIGURE_CFG.replace("gamma = 1, 3", "gamma = 1, 3, 10")
                        .replace("T = 1", "T = 1, 0.5"))
        assert main(["solve", str(path), "--out-dir", str(tmp_path / "out")]) == 0
        assert horizons == [1.0, 0.5]

    def test_k_curves_formats_each_column_once(self, tmp_path, monkeypatch):
        # t and k once per horizon, as text; k2 once per case, as the
        # numbers of its rows' one % operation
        columns, numbers = [], []
        format_column, rows = cli.fmt_column, cli._rows
        monkeypatch.setattr(
            cli, "fmt_column", lambda values: columns.append(len(values)) or format_column(values)
        )

        def counting_rows(prefix, *cells):
            numbers.extend(len(c) for c in cells if not isinstance(c[0], str))
            return rows(prefix, *cells)

        monkeypatch.setattr(cli, "_rows", counting_rows)
        path = tmp_path / "cases.cfg"
        path.write_text(FIGURE_CFG.replace("gamma = 1, 3", "gamma = 1, 3, 10")
                        .replace("T = 1", "T = 1, 0.5")
                        .replace("tables = k_curves, allocation_vs_wealth, "
                                 "mean_variance_vs_wealth, simulated_paths", "tables = k_curves"))
        assert main(["solve", str(path), "--out-dir", str(tmp_path / "out")]) == 0
        assert columns == [201, 201, 101, 101]
        assert numbers == [201, 101] * 3

    def test_constant_column_count_and_lf_endings(self, figure_cfg, tmp_path):
        out = tmp_path / "out"
        main(["solve", figure_cfg, "--out-dir", str(out)])
        raw = (out / "allocation_vs_wealth.csv").read_bytes()
        assert b"\r" not in raw
        header, rows = _read_rows(out / "allocation_vs_wealth.csv")
        assert all(len(r) == len(header) for r in rows)

    def test_degenerate_market_exit_code(self, tmp_path):
        text = FIGURE_CFG.replace("0.25 0; 0 0.25", "0.25 0; 0.25 0")
        path = tmp_path / "deg.cfg"
        path.write_text(text)
        code = main(["solve", str(path), "--out-dir", str(tmp_path / "out")])
        assert code == 3

    def test_degenerate_message(self, tmp_path, capsys):
        # equal volatility rows: equal drifts make identical assets, unequal
        # ones an arbitrage
        for alpha, message in [
            ("0.12, 0.12", "identical assets, any allocation admissible"),
            ("0.2, 0.12", "no equilibrium exists: equal volatility rows with unequal "
                          "drifts imply arbitrage"),
        ]:
            path = tmp_path / "deg.cfg"
            path.write_text(FIGURE_CFG.replace("alpha = 0.2, 0.12", f"alpha = {alpha}")
                            .replace("0.25 0; 0 0.25", "0.25 0; 0.25 0"))
            assert main(["solve", str(path), "--out-dir", str(tmp_path / "out")]) == 3
            assert capsys.readouterr().err == f"market validation error: {message}\n"

    def test_nonconvergence_exit_code(self, figure_cfg, tmp_path):
        text = FIGURE_CFG.replace("max_iter = 200", "max_iter = 1")
        path = tmp_path / "tight.cfg"
        path.write_text(text)
        out = tmp_path / "out"
        assert main(["solve", str(path), "--out-dir", str(out)]) == 4
        # no partial outputs left behind
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("market", ["theta_sq_157", "steep"])
    def test_float64_overflow_is_market_error(self, tmp_path, capsys, market):
        # a steep Sharpe ratio (theta~^2 = 156.8, or 64 on the steep market)
        # and a long horizon drive the kernel exponents far past the float64
        # range: the variance tail B(T) alone grows like theta~^2 T
        text = STEEP_CFG.replace("T = 3", "T = 30") if market == "steep" else (
            FIGURE_CFG.replace("alpha = 0.2, 0.12", "alpha = 0.9, -0.5")
            .replace("0.25 0; 0 0.25", "0.25 0.0; 0.3 0.1")
            .replace("T = 1", "T = 30")
            .replace("n_steps = 200", "n_steps = 100")
        )
        path = tmp_path / "extreme.cfg"
        path.write_text(text)
        out = tmp_path / "out"
        assert main(["solve", str(path), "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert "exceed the float64 range" in err and "T=30" in err
        assert not out.exists() or not any(out.iterdir())

    def test_grid_too_coarse_is_config_error(self, tmp_path, capsys):
        # nearly equal volatility rows make theta~^2 = 9.8e7, so 100 steps
        # a year leave dt theta~^2 far above 4, where the discrete gain
        # equation has spurious solutions
        text = (
            FIGURE_CFG.replace("alpha = 0.2, 0.12", "alpha = 0.9, -0.5")
            .replace("0.25 0; 0 0.25", "0.25 0.0; 0.2501 0.0001")
            .replace("T = 1", "T = 30")
            .replace("n_steps = 200", "n_steps = 100")
        )
        path = tmp_path / "coarse.cfg"
        path.write_text(text)
        out = tmp_path / "out"
        for command in "solve", "bounds", "simulate":
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main([command, str(path), "--out-dir", str(out)]) == 2
            assert capsys.readouterr().err == (
                "config error: grid too coarse for the market over the horizon T=30: "
                "dt*theta~^2 = 980000 must be below 4, which takes at least 735000001 "
                "grid steps\n")
            assert not out.exists()

    def test_tiny_gamma_is_market_error(self, tmp_path, capsys):
        # k2 scales as 1/gamma: at gamma = 1e-320 it overflows, which the
        # range check reports before the forcing is formed (a warning would
        # fail the suite)
        path = tmp_path / "gamma.cfg"
        path.write_text(FIGURE_CFG.replace("gamma = 1, 3", "gamma = 1e-320"))
        out = tmp_path / "out"
        assert main(["solve", str(path), "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert "exceed the float64 range" in err and "T=1 at gamma=9.99989e-321" in err
        assert not out.exists()

    def test_small_gamma_variance_is_market_error(self, tmp_path, capsys):
        # at gamma = 1e-160, k2 fits in float64 but the variance load
        # theta~^2 S / gamma^2 does not
        path = tmp_path / "gamma.cfg"
        path.write_text(FIGURE_CFG.replace("gamma = 1, 3", "gamma = 1e-160"))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", str(path), "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert "exceed the float64 range" in err and "T=1 at gamma=1e-160" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "bounds", "simulate"])
    def test_zero_sharpe_ratio_at_tiny_gamma_is_solved(self, tmp_path, capsys, command):
        # with alpha = r on both stocks every Sharpe ratio is 0: the loads
        # theta~^2 S / gamma^2 and model 1's theta^2 (T - t) / gamma^2 once
        # became 0 / 0 where gamma^2 underflows, a traceback
        path = tmp_path / "flat.cfg"
        path.write_text(FIGURE_CFG.replace("alpha = 0.2, 0.12", "alpha = 0.04, 0.04")
                        .replace("gamma = 1, 3", "gamma = 1e-200"))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, str(path), "--out-dir", str(out)]) == 0
        assert capsys.readouterr().err == ""
        if command == "solve":
            header, rows = _read_rows(out / "k_curves.csv")
            assert {row[header.index("k2")] for row in rows} == {"0"}

    def test_tiny_gamma_overflows_the_bank_model_alone(self, tmp_path, capsys):
        # equal drifts leave models 2 and 3 no Sharpe ratio, but model 1's
        # theta^2 T / gamma^2 overflows at gamma = 1e-200
        path = tmp_path / "flat.cfg"
        path.write_text(FIGURE_CFG.replace("alpha = 0.2, 0.12", "alpha = 0.12, 0.12")
                        .replace("gamma = 1, 3", "gamma = 1e-200"))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", str(path), "--out-dir", str(out)]) == 3
        assert capsys.readouterr().err == (
            "market validation error: coefficients exceed the float64 range of the "
            "bank-account model over the horizon T=1 at gamma=1e-200\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "alpha, sigma",
        [
            ("0.2, 0.12", "1e200 0; 0 0.25"),  # the volatility gap is inf
            ("0.2, 0.12", "0.25 1e200; 0 0.25"),
            ("1e300, 0", "0.25 0; 0 0.25"),  # theta~^2 = dalpha^2 / gap is inf
            ("1e160, 0", "0.25 0; 0 0.25"),
            ("0.2, 0.12", "1.0000000001e160 0; 1e160 0.25"),  # csig is inf
            ("0.2, 0.12", "1.5e154 0; 1.499e154 0.25"),  # |sigma_1|^2 is inf
        ],
    )
    @pytest.mark.parametrize("command", ["solve", "bounds", "simulate"])
    def test_overflowing_gap_or_sharpe_ratio_is_market_error(
        self, tmp_path, capsys, command, alpha, sigma
    ):
        # an infinite gap once made the k1 bound constant nan, a traceback
        # from convergence_bound; an infinite theta~^2 overflowed with
        # warnings in the sweeps and the kernels before the range check; an
        # infinite csig or |sigma_1|^2 made the first sweep exit 4 or warn
        path = tmp_path / "overflow.cfg"
        path.write_text(FIGURE_CFG.replace("alpha = 0.2, 0.12", f"alpha = {alpha}")
                        .replace("0.25 0; 0 0.25", sigma).replace("gamma = 1, 3", "gamma = 3"))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, str(path), "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == ("market validation error: coefficients exceed the float64 range "
                       "over the horizon T=1\n")
        assert "Traceback" not in err and "RuntimeWarning" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "bounds"])
    def test_huge_gamma_is_solved(self, tmp_path, capsys, command):
        # gamma**2 once raised OverflowError from the variance loads
        # theta~^2 S / gamma^2, which are 0 at gamma = 1e300
        path = tmp_path / "gamma.cfg"
        path.write_text(FIGURE_CFG.replace("gamma = 1, 3", "gamma = 1e300"))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, str(path), "--out-dir", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        if command == "bounds":
            assert "== gamma=1e+300 T=1 ==" in captured.out
            return
        for csv in out.glob("*.csv"):
            _, rows = _read_rows(csv)
            assert np.all(np.isfinite([float(c) for row in rows for c in row if not c.startswith("model")]))
        _, rows = _read_rows(out / "mean_variance_vs_wealth.csv")
        assert {row[5] for row in rows if row[2] == "model1"} == {"0"}

    @pytest.mark.parametrize("r", ["100", "-100"])
    @pytest.mark.parametrize("command", ["solve", "simulate"])
    def test_bank_rate_overflow_is_market_error(self, tmp_path, capsys, r, command):
        # e^{|r| T} = e^1000 once overflowed in model 1's mean (r > 0) or
        # control (r < 0) with a warning, and solve wrote inf and 0 dollars
        path = tmp_path / "rate.cfg"
        path.write_text(FIGURE_CFG.replace("r = 0.04", f"r = {r}")
                        .replace("gamma = 1, 3", "gamma = 1").replace("T = 1", "T = 10"))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, str(path), "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("market validation error:")
        assert "exceed the float64 range of the bank-account model" in err and "T=10" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, stage", [("solve", "_diagnostics_lines"), ("simulate", "_paths_lines")]
    )
    def test_interrupt_leaves_no_partial_outputs(
        self, figure_cfg, tmp_path, monkeypatch, command, stage
    ):
        # the stage runs after at least one file has been written
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, stage, interrupt)
        out = tmp_path / "out"
        with pytest.raises(KeyboardInterrupt):
            main([command, figure_cfg, "--out-dir", str(out)])
        assert not any(out.iterdir())

    def test_interrupt_while_streaming_leaves_no_partial_outputs(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        k_curves_lines = cli._k_curves_lines

        def interrupted(cases):
            chunks = k_curves_lines(cases)
            yield next(chunks)  # the header
            yield next(chunks)  # the first case's rows
            # both went to the temporary file, and nothing is in place yet
            assert [f.name for f in out.iterdir()] == [f".k_curves.csv.{os.getpid()}.tmp"]
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_k_curves_lines", interrupted)
        path = tmp_path / "two.cfg"
        path.write_text(FIGURE_CFG.replace("T = 1", "T = 1, 0.5"))
        with pytest.raises(KeyboardInterrupt):
            main(["solve", str(path), "--out-dir", str(out)])
        assert not any(out.iterdir())

    @pytest.mark.parametrize("command", ["solve", "simulate"])
    def test_interrupt_inside_a_write_leaves_no_temporary_file(
        self, figure_cfg, tmp_path, monkeypatch, command
    ):
        # the second file is interrupted half written, after the first one
        # has been put in place
        opened = []

        class HalfWrite:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                raise KeyboardInterrupt

        def open_(path, *args, **kwargs):
            fh = builtins.open(path, *args, **kwargs)
            opened.append(path)
            return HalfWrite(fh) if len(opened) == 2 else fh

        monkeypatch.setattr(cli, "open", open_, raising=False)
        out = tmp_path / "out"
        with pytest.raises(KeyboardInterrupt):
            main([command, figure_cfg, "--out-dir", str(out)])
        assert len(opened) == 2 and opened[1].endswith(".tmp")
        assert not any(out.iterdir())

    def test_outputs_replace_old_files_whole(self, figure_cfg, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "k_curves.csv").write_text("stale\n")
        assert main(["solve", figure_cfg, "--out-dir", str(out)]) == 0
        assert (out / "k_curves.csv").read_text().startswith("gamma,T,t,")
        assert sorted(f.name for f in out.iterdir()) == [
            "allocation_vs_wealth.csv",
            "diagnostics.txt",
            "k_curves.csv",
            "mean_variance_vs_wealth.csv",
        ]


class TestSimulateCommand:
    def test_verbose_reports_each_column_then_each_file(self, figure_cfg, tmp_path, capsys):
        quiet, loud = tmp_path / "quiet", tmp_path / "loud"
        assert main(["simulate", figure_cfg, "--out-dir", str(quiet)]) == 0
        assert capsys.readouterr().out == ""
        assert main(["simulate", figure_cfg, "--out-dir", str(loud), "--verbose"]) == 0
        lines = capsys.readouterr().out.splitlines()
        names = ["simulation_summary.csv", "simulated_paths_g1_T1.csv", "simulated_paths_g3_T1.csv"]
        _, rows = _read_rows(quiet / "simulation_summary.csv")
        assert len(lines) == len(rows) + len(names) and len(rows) == 6
        for line, (gamma, T, model, mean, *_) in zip(lines, rows):
            prefix = f"{model} gamma={float(gamma)} T={float(T)}: mean="
            assert line.startswith(prefix)
            assert re.fullmatch(r"-?\d+\.\d{6}", line[len(prefix):])
            assert float(line[len(prefix):]) == pytest.approx(float(mean), abs=5e-7)
        assert lines[len(rows):] == [f"wrote {loud / name}" for name in names]
        assert_same_files(loud, quiet, names)

    @pytest.mark.parametrize("name", ["figure1", "section4"])
    def test_analytic_value_is_the_simulated_reward(self, tmp_path, name):
        # each column's analytic value(0, x0) = mean - (gamma/2) variance is
        # the reward its Monte Carlo column estimates, model 2's included
        path = tmp_path / f"{name}.cfg"
        path.write_text(shipped_config(name, n_steps=200, n_paths=4096, n_time_steps=100))
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--out-dir", str(out)]) == 0
        header, rows = _read_rows(out / "simulation_summary.csv")
        summary = {tuple(row[:3]): dict(zip(header, row)) for row in rows}
        cfg = load_config(str(path))
        checked = set()
        for case in cli._solve_all(cfg):
            for model, (_, m) in case.models.items():
                key = (fmt(case.gamma), fmt(case.T), model)
                reward, se = float(summary[key]["reward"]), float(summary[key]["se_reward"])
                assert abs(reward - m.value(0.0, cfg.sim.x0)) <= 3.0 * se, key
                checked.add(key)
        assert checked == set(summary) and len(checked) in (3, 12)

    def test_emits_summary_and_paths(self, figure_cfg, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", figure_cfg, "--out-dir", str(out)]) == 0
        assert (out / "simulation_summary.csv").exists()
        paths = sorted(f.name for f in out.iterdir() if f.name.startswith("simulated"))
        assert len(paths) == 2  # one per (gamma, T) combination

    @pytest.mark.parametrize("n_paths, n_time_steps", [
        # two full Monte Carlo blocks and a partial one
        (9000, 20),
        # a partial block of 2049 or 2905 paths in five or six groups, and
        # a last block of 1 or 3 paths, whose quarters are (1, 0, 0, 0) and
        # (1, 1, 1, 0); a last call of steps cut short (the 512-path groups
        # form 12 steps a call)
        (6145, 21),
        (7001, 21),
        (4097, 21),
        (4099, 21),
    ])
    def test_threads_give_same_output(self, tmp_path, monkeypatch, n_paths, n_time_steps):
        # as many workers as --threads and the blocks allow, whatever the CPUs
        monkeypatch.setattr("tcmv.montecarlo.os.cpu_count", lambda: 4)
        path = tmp_path / "blocks.cfg"
        path.write_text(FIGURE_CFG.replace("n_paths = 2000", f"n_paths = {n_paths}")
                        .replace("n_time_steps = 100", f"n_time_steps = {n_time_steps}"))
        for threads in (1, 2, 3):
            out = tmp_path / f"threads{threads}"
            assert main(["simulate", str(path), "--out-dir", str(out), "--threads", str(threads)]) == 0
        names = sorted(f.name for f in (tmp_path / "threads1").iterdir())
        assert "simulation_summary.csv" in names and len(names) == 3
        for threads in (2, 3):
            assert_same_files(tmp_path / f"threads{threads}", tmp_path / "threads1", names)

    def test_each_block_is_drawn_once_per_run(self, tmp_path, monkeypatch):
        # two gammas x two horizons share every block, each block's stream
        # is made once for all its groups, and the figure paths of every
        # case share one draw of their own stream
        draws = []

        def counted(seed, block):
            draws.append(block)
            return stream(seed, block)

        stream = montecarlo._stream
        monkeypatch.setattr(montecarlo, "_stream", counted)
        path = tmp_path / "cases.cfg"
        path.write_text(FIGURE_CFG.replace("T = 1", "T = 1, 0.5")
                        .replace("n_paths = 2000", "n_paths = 9000")
                        .replace("n_time_steps = 100", "n_time_steps = 5"))
        assert main(["simulate", str(path), "--out-dir", str(tmp_path / "out")]) == 0
        n_blocks = -(-9000 // _BLOCK)
        assert sorted(draws) == list(range(n_blocks)) + [2**63]

    def test_overflowing_moments_are_an_explosion(self, tmp_path, capsys):
        # every path stays finite, but its square overflows float64
        path = tmp_path / "x0.cfg"
        path.write_text(FIGURE_CFG.replace("seed = 9", "seed = 9\nx0 = 1e200")
                        .replace("n_paths = 2000", "n_paths = 500")
                        .replace("n_time_steps = 100", "n_time_steps = 20"))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", str(path), "--out-dir", str(out)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("simulation explosion:") and "x0 = 1e+200" in err
        assert not any(out.iterdir())

    @pytest.mark.parametrize("changes, cause", [
        # at gamma = 1e300 the reward's standard error squares gamma times
        # that of the variance beyond float64, and is finite with gamma
        # scaled out: the run succeeds
        ({"gamma = 1, 3": "gamma = 1e300"}, None),
        # at x0 = 1e10 too, model 2's (gamma/2) variance is about 1e318
        ({"gamma = 1, 3": "gamma = 1e300", "seed = 9": "seed = 9\nx0 = 1e10"},
         "the reward mean - (gamma/2) variance or its standard error exceeds the float64 "
         "range (gamma = 1e+300)"),
        ({"seed = 9": "seed = 9\nx0 = 1e80"},
         "the moments of terminal wealth exceed the float64 range (x0 = 1e+80)"),
    ], ids=["gamma", "reward", "x0"])
    def test_overflowing_estimates_name_their_cause(self, tmp_path, capsys, changes, cause):
        # the square of gamma (in the solve) or of the sample variance once
        # raised OverflowError, and the square of gamma times the variance's
        # standard error once refused a finite reward
        text = (FIGURE_CFG.replace("n_paths = 2000", "n_paths = 500")
                .replace("n_time_steps = 100", "n_time_steps = 20"))
        for old, new in changes.items():
            text = text.replace(old, new)
        path = tmp_path / "big.cfg"
        path.write_text(text)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["simulate", str(path), "--out-dir", str(out)])
        err = capsys.readouterr().err
        if cause is not None:
            assert (code, err) == (5, f"simulation explosion: {cause}\n")
            assert not any(out.iterdir())
            return
        assert (code, err) == (0, "")
        header, rows = _read_rows(out / "simulation_summary.csv")
        assert header[3:] == ["mean", "variance", "reward", "se_mean", "se_variance",
                              "se_reward", "n_excluded"]
        cells = np.array([row[3:] for row in rows], dtype=float)
        assert cells.shape == (3, 7) and np.all(np.isfinite(cells))

    def test_paths_have_all_models(self, figure_cfg, tmp_path):
        out = tmp_path / "out"
        main(["simulate", figure_cfg, "--out-dir", str(out)])
        path = next(f for f in out.iterdir() if f.name.startswith("simulated"))
        header, rows = _read_rows(path)
        assert header[:3] == ["t", "price1", "price2"]
        for model in ("model1", "model2", "model3"):
            assert f"{model}_wealth" in header


class TestBoundsCommand:
    def test_prints_dominated_table(self, figure_cfg, capsys):
        assert main(["bounds", figure_cfg]) == 0
        out = capsys.readouterr().out
        assert "empirical_sup_error,bound" in out
        for line in out.splitlines():
            parts = line.split(",")
            if len(parts) == 3 and parts[0].isdigit():
                n, emp, bound = int(parts[0]), float(parts[1]), float(parts[2])
                assert n >= 1  # bound table starts at the first sweep
                assert emp <= bound

    @pytest.mark.parametrize("keys", [
        {},  # figure1.cfg
        {"n_steps": 20, "gamma": 10, "T": "5, 10"},  # the solve_long golden
    ])
    def test_prints_the_tables_of_the_diagnostics(self, keys, tmp_path, capsys):
        # each printer runs the k2 check of a case itself; case for case
        # both print the same k1 and k2 tables
        def bound_tables(text):
            """Each case's header line and its lines from the k1 table on."""
            cases = re.split(r"^(?===)", text, flags=re.M)[1:]
            return [(case.partition("\n")[0], case[case.index("k1 iterate error bound:"):].strip())
                    for case in cases]

        path = tmp_path / "case.cfg"
        path.write_text(shipped_config("figure1", **keys))
        assert main(["solve", str(path), "--out-dir", str(tmp_path / "out")]) == 0
        assert main(["bounds", str(path)]) == 0
        printed = bound_tables(capsys.readouterr().out)
        written = bound_tables((tmp_path / "out" / "diagnostics.txt").read_text())
        cfg = load_config(str(path))
        assert len(printed) == len(cfg.gammas) * len(cfg.horizons)
        assert all("\nk2 iterate error bound:\n" in tables for _, tables in printed)
        assert printed == written

    def test_overflowing_bound_constants_do_not_warn(self, tmp_path, capsys):
        # the k1 bound constant K = 4474.5 at T = 3: e^{K T} and the
        # factorial tail beyond float64 once warned on numpy scalars; the
        # bound column is a deliberate inf
        path = tmp_path / "steep.cfg"
        path.write_text(STEEP_CFG)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", str(path), "--out-dir", str(tmp_path / "out")]) == 0
            assert main(["bounds", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        diagnostics = (tmp_path / "out" / "diagnostics.txt").read_text()
        for text in (captured.out, diagnostics):
            lines = text.splitlines()
            k1_table = lines[lines.index("k1 iterate error bound:") + 1 :][:12]
            assert k1_table[0] == "K = 4474.51246967"
            assert [row.split(",")[2] for row in k1_table[2:]] == ["inf"] * 10

    def test_steep_market_k2_check_stops_at_tol(self, tmp_path):
        # k2 reaches 3.5e3 here, yet a sweep of the check adds to phi_1 /
        # gamma only the I3 term, which vanishes: it stops at the absolute
        # tol (a tol scaled by max|k2| stopped it at residual 2.25e-10)
        path = tmp_path / "steep.cfg"
        path.write_text(STEEP_CFG)
        assert main(["solve", str(path), "--out-dir", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "diagnostics.txt").read_text().splitlines()
        k2_line = next(line for line in lines if line.startswith("model3 k2: "))
        fields = dict(word.split("=") for word in k2_line.split()[2:])
        assert float(fields["delta"]) < 1e-10 and float(fields["residual"]) <= 1e-10
        k2_table = lines[lines.index("k2 iterate error bound:") + 3 :]
        rows = [row.split(",") for row in k2_table if row.count(",") == 2]
        assert rows and all(float(emp) <= float(bound) for _, emp, bound in rows)


class TestSteepMarketLongHorizons:
    """The steep market at T = 5 and 10: e^{A} and e^{B} pass float64 as
    separate factors (2 max|A| + max|B| = 1696 at T = 10), yet every table
    the kernels form, and every output, is finite."""

    @pytest.fixture(params=[5, 10])
    def steep_cfg(self, request, tmp_path):
        path = tmp_path / "steep.cfg"
        path.write_text(STEEP_CFG.replace("T = 3", f"T = {request.param}")
                        + "[simulation]\nn_paths = 512\nn_time_steps = 50\n")
        return str(path)

    @staticmethod
    def _run(*argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return main(list(argv))

    def test_solve(self, steep_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        assert self._run("solve", steep_cfg, "--out-dir", str(out)) == 0
        assert capsys.readouterr().err == ""
        assert_finite_cells(out)
        lines = (out / "diagnostics.txt").read_text().splitlines()
        for name in ("model2 k: ", "model3 k1: ", "model3 k2: "):
            line = next(line for line in lines if line.startswith(name))
            assert float(line.split("residual=")[1]) <= 1e-10

    def test_bounds(self, steep_cfg, capsys):
        assert self._run("bounds", steep_cfg) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and "k2 iterate error bound:" in captured.out

    def test_simulate(self, steep_cfg, tmp_path, capsys):
        # k1 = -111 at t = 0 makes 50 Euler steps far from the analytic
        # moments; only finiteness is asserted
        out = tmp_path / "out"
        assert self._run("simulate", steep_cfg, "--out-dir", str(out)) == 0
        assert capsys.readouterr().err == ""
        assert_finite_cells(out)


class TestSingularBankMarkets:
    """Markets whose covariance is singular: model 1 has no unique
    equilibrium and its diagnostics line says why, while models 2 and 3,
    which have no bank, solve, a riskless stock acting as their bank."""

    SINGULAR = "instantaneous covariance matrix is singular; no unique equilibrium"
    MARKETS = {
        "riskless stock 2": ("0.2, 0.05", "0.3 0; 0 0", SINGULAR),
        "riskless stock 1": ("0.2, 0.05", "0 0; 0.3 0", SINGULAR),
        "riskless stock 2, two factors": ("0.2, 0.05", "0.3 0.1; 0 0", SINGULAR),
        "one factor": ("0.2, 0.12", "0.3 0; 0.2 0", "arbitrage: no equilibrium exists: "
                       "unequal market prices of risk on one Brownian motion imply arbitrage"),
        "one factor, equal prices of risk": (
            "0.2, 0.12", "0.3; 0.15", "shared-risk-constraint: equal market prices of risk: "
            "allocations on the constraint line are all equilibria"),
    }

    @pytest.fixture(params=sorted(MARKETS))
    def market(self, request, tmp_path):
        alpha, sigma, model1 = self.MARKETS[request.param]
        path = tmp_path / "singular.cfg"
        path.write_text(
            FIGURE_CFG.replace("alpha = 0.2, 0.12", f"alpha = {alpha}")
            .replace("0.25 0; 0 0.25", sigma)
            .replace("gamma = 1, 3", "gamma = 3")
            .replace("n_paths = 2000", "n_paths = 512")
            .replace("n_time_steps = 100", "n_time_steps = 50")
        )
        return str(path), model1

    @staticmethod
    def _run(*argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return main(list(argv))

    def test_solve(self, market, tmp_path, capsys):
        path, model1 = market
        out = tmp_path / "out"
        assert self._run("solve", path, "--out-dir", str(out)) == 0
        assert capsys.readouterr().err == ""
        assert (out / "diagnostics.txt").read_text().splitlines()[1] == f"model1: {model1}"
        for table in ("allocation_vs_wealth.csv", "mean_variance_vs_wealth.csv"):
            _, rows = _read_rows(out / table)
            assert sorted({row[2] for row in rows}) == ["model2", "model3"]

    def test_bounds(self, market, capsys):
        assert self._run("bounds", market[0]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and "== gamma=3 T=1 ==" in captured.out

    def test_simulate(self, market, tmp_path, capsys):
        out = tmp_path / "out"
        assert self._run("simulate", market[0], "--out-dir", str(out)) == 0
        assert capsys.readouterr().err == ""
        _, rows = _read_rows(out / "simulation_summary.csv")
        assert [row[2] for row in rows] == ["model2", "model3"]


class TestBankModelRange:
    """Model 1 refuses only a control, mean or variance that it forms at its
    extremes and finds beyond float64.  Two markets on figure1.cfg at 100
    steps a year that a prediction from logs got wrong: it refused the
    first, and passed the second on to an overflow."""

    # the control is at most 19 317 dollars, the mean 1.9e304 on the wealth
    # grid and the variance 8.9e6
    IN_RANGE = {"sigma": "0.02 0; 0 0.02", "r": 23.3, "gamma": 3, "T": 30}
    # the control e^{695} |w| / gamma overflows
    OUT_OF_RANGE = {"r": -69.5, "gamma": "1e-4", "T": 10}

    @staticmethod
    def config(tmp_path, edits):
        path = tmp_path / "bank.cfg"
        path.write_text(shipped_config("figure1", n_steps=100, n_paths=512, n_time_steps=50,
                                       **edits))
        return str(path)

    @staticmethod
    def _run(*argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return main(list(argv))

    @pytest.mark.parametrize("command", ["solve", "bounds", "simulate"])
    def test_formed_values_in_range_are_solved(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert self._run(command, self.config(tmp_path, self.IN_RANGE), "--out-dir", str(out)) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        if command == "bounds":
            assert captured.out.startswith("== gamma=3 T=30 ==\n")
            return
        assert_finite_cells(out)
        table = "mean_variance_vs_wealth.csv" if command == "solve" else "simulation_summary.csv"
        _, rows = _read_rows(out / table)
        assert {row[2] for row in rows} == {"model1", "model2", "model3"}

    @pytest.mark.parametrize("command", ["solve", "bounds", "simulate"])
    def test_an_overflowing_control_is_refused(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert self._run(command, self.config(tmp_path, self.OUT_OF_RANGE),
                         "--out-dir", str(out)) == 3
        assert capsys.readouterr() == ("", (
            "market validation error: coefficients exceed the float64 range of the "
            "bank-account model over the horizon T=10 at gamma=0.0001\n"))
        assert not out.exists()

    # every check passes at a unit wealth, but model 1's mean e^{rT} x
    # overflows on the wealth grid from x = 2.2, and so do models 2 and 3
    ON_THE_WEALTH_GRID = {"alpha": "70.95, 70.93", "r": 70.9, "gamma": 3, "T": 10}

    @pytest.mark.parametrize("action", ["error", "always"])
    @pytest.mark.parametrize("command, code, err", [
        ("solve", 3, "market validation error: coefficients exceed the float64 range in "
                     "mean_variance_vs_wealth.csv at gamma=3 T=10 (model1)\n"),
        ("bounds", 0, ""),
        ("simulate", 0, ""),
    ])
    def test_a_wealth_grid_cell_beyond_float64_is_refused(
        self, tmp_path, capsys, action, command, code, err
    ):
        # no inf is written and nothing warns: solve refuses the table it
        # would write, with one line and no file left; bounds and simulate
        # form no wealth grid, and the 50 Monte Carlo steps stay finite
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            assert main([command, self.config(tmp_path, self.ON_THE_WEALTH_GRID),
                         "--out-dir", str(out)]) == code
        assert caught == []
        captured = capsys.readouterr()
        assert captured.err == err
        if command == "solve":
            assert list(out.iterdir()) == []
        elif command == "bounds":
            assert captured.out.startswith("== gamma=3 T=10 ==\n")
        else:
            assert_finite_cells(out)


STEEP_CFG = """\
[market]
alpha = 0.6, 0.05
sigma = 0.3 0.1; 0.25 0.15
r = 0.04

[objective]
gamma = 3
T = 3
"""


class TestShippedConfigs:
    @pytest.mark.parametrize("name", ["figure1.cfg", "section4.cfg"])
    def test_solve_and_bounds(self, name, tmp_path, capsys):
        with resources.as_file(resources.files("tcmv") / "configs" / name) as path:
            cfg = load_config(str(path))
            out = tmp_path / "out"
            assert main(["solve", str(path), "--out-dir", str(out)]) == 0
            assert main(["bounds", str(path)]) == 0
        assert sorted(f.name for f in out.iterdir()) == [
            "allocation_vs_wealth.csv",
            "diagnostics.txt",
            "k_curves.csv",
            "mean_variance_vs_wealth.csv",
        ]
        diagnostics = (out / "diagnostics.txt").read_text()
        n_cases = len(cfg.gammas) * len(cfg.horizons)
        assert diagnostics.count("== gamma=") == n_cases
        residuals = [float(w[len("residual="):]) for w in diagnostics.split()
                     if w.startswith("residual=")]
        assert len(residuals) == 3 * n_cases
        assert max(residuals) <= 10 * cfg.picard.tol
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
        bounds = [(float(r[1]), float(r[2])) for r in rows if len(r) == 3 and r[0].isdigit()]
        assert bounds and all(emp <= bound for emp, bound in bounds)

    @pytest.mark.parametrize("name, n_cases", [("figure1.cfg", 4), ("section4.cfg", 1)])
    def test_simulate(self, name, n_cases, tmp_path, capsys):
        # shrunk to 512 paths of 50 steps: a summary row per model and
        # case, and a path file per case
        text = (resources.files("tcmv") / "configs" / name).read_text()
        text = re.sub(r"(?m)^n_paths = .*", "n_paths = 512", text)
        path = tmp_path / name
        path.write_text(re.sub(r"(?m)^n_time_steps = .*", "n_time_steps = 50", text))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", str(path), "--out-dir", str(out)]) == 0
        assert capsys.readouterr().err == ""
        _, rows = _read_rows(out / "simulation_summary.csv")
        assert len(rows) == 3 * n_cases
        paths = [f for f in out.iterdir() if f.name.startswith("simulated_paths")]
        assert len(paths) == n_cases and all(len(_read_rows(f)[1]) == 51 for f in paths)


class TestEmitters:
    """Each table emitter against its per-cell reference, byte for byte."""

    @pytest.fixture(scope="class", params=["figure1.cfg", "section4.cfg", "3 gammas x 2 T"])
    def solved(self, request, tmp_path_factory):
        if request.param.endswith(".cfg"):
            with resources.as_file(resources.files("tcmv") / "configs" / request.param) as path:
                cfg = load_config(str(path))
        else:
            path = tmp_path_factory.mktemp("emitters") / "cases.cfg"
            path.write_text(FIGURE_CFG.replace("gamma = 1, 3", "gamma = 1, 3, 10")
                            .replace("T = 1", "T = 1, 0.5"))
            cfg = load_config(str(path))
        return cfg, cli._solve_all(cfg)

    @pytest.mark.parametrize("emitter, reference", [
        (cli._k_curves_lines, reference_k_curves_lines),
        (cli._allocation_lines, reference_allocation_lines),
        (cli._mean_variance_lines, reference_mean_variance_lines),
    ])
    def test_tables_match_the_per_cell_reference(self, solved, emitter, reference):
        _, cases = solved
        assert_same_text("".join(emitter(cases)), reference(cases))

    def test_paths_match_the_per_cell_reference(self, solved):
        # one figure-path call over every column of the run, as tcmv
        # simulate makes it, formatted case by case
        cfg, cases = solved
        columns = {
            (i, name): (equilibrium.strategy, ObjectiveSpec(case.gamma, case.T))
            for i, case in enumerate(cases) for name, equilibrium in case.models.items()
        }
        paths = montecarlo.reproduce_figure_paths(cfg.params, columns, cfg.sim)
        by_horizon = {}
        for i, case in enumerate(cases):
            records = {name: paths[i, name] for name in case.models}
            text = "".join(cli._paths_lines(case.T, records, by_horizon))
            assert_same_text(text, reference_paths_lines(cfg, case))
        assert sorted(by_horizon) == sorted(cfg.horizons)


def _fresh_interpreter(*args, input: str | None = None) -> str:
    """Standard output of a new interpreter run on args, and on input as its
    standard input, with tcmv taken from the same source tree as these tests."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, *args], input=input, env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    return out.stdout


def _after(probe: str, *args) -> str:
    """The last line that probe, a line of Python, prints in a new
    interpreter once args, a -c command or a -m module with its arguments,
    has ended.  -i reads standard input then, where it is no terminal too,
    and after a SystemExit, which it keeps in sys.last_value."""
    return _fresh_interpreter("-i", *args, input=probe + "\n").splitlines()[-1]


def test_import_loads_no_thread_pool():
    # every tcmv process imports the CLI; concurrent.futures would add its
    # import time to each of them, and simulate's workers are plain threads
    code = "import sys, tcmv.cli; print('concurrent.futures' in sys.modules)"
    assert _fresh_interpreter("-c", code) == "False\n"


class TestLazyEngine:
    """The Monte Carlo engine, and numpy.random with it, loads for simulate
    alone."""

    @pytest.mark.parametrize("args", [
        ["-c", "import tcmv"],
        ["-c", "import sys, tcmv.cli; tcmv.cli.load_config(sys.argv[1])"],
        ["-c", "import sys, tcmv.cli; assert tcmv.cli.main(['solve', *sys.argv[1:]]) == 0"],
        ["-c", "import sys, tcmv.cli; assert tcmv.cli.main(['bounds', *sys.argv[1:]]) == 0"],
        ["-m", "tcmv.cli", "solve"],
        ["-m", "tcmv.cli", "bounds"],
    ], ids=["import", "load_config", "solve", "bounds", "module_solve", "module_bounds"])
    def test_solving_loads_no_engine(self, args, figure_cfg, tmp_path):
        # in process through main, and through python -m, which exits 0
        probe = ("import sys; print(getattr(sys, 'last_value', None), "
                 "sorted({'tcmv.montecarlo', 'numpy.random'} & set(sys.modules)))")
        after = _after(probe, *args, figure_cfg, "--out-dir", str(tmp_path / "out"))
        assert after == ("0 []" if args[0] == "-m" else "None []")

    def test_package_names_resolve_on_first_use(self):
        code = "\n".join([
            "import sys, tcmv",
            "assert 'tcmv.montecarlo' not in sys.modules",
            "engine = [tcmv.simulate_models, tcmv.simulate, tcmv.SimulationReport]",
            "from tcmv import montecarlo",
            "print(engine == [montecarlo.simulate_models, montecarlo.simulate, montecarlo.SimulationReport])",
            "names = {}",
            "exec('from tcmv import *', names)",
            "print(sorted(set(tcmv.__all__) - set(names)), hasattr(tcmv, 'no_such_name'))",
        ])
        assert _fresh_interpreter("-c", code) == "True\n[] False\n"

    def test_moved_names_are_the_same_objects(self):
        # the engine re-exports none of the names that live elsewhere
        assert not {"Model1Solution", "SimConfig"} & set(vars(montecarlo))
        assert tcmv.Model3Solution is model3.Model3Solution
        assert tcmv.SimConfig is numerics.SimConfig
        assert cli.SimConfig is numerics.SimConfig

    def test_cli_resolves_the_engine_names(self):
        assert cli.simulate_models is montecarlo.simulate_models
        assert cli.reproduce_figure_paths is montecarlo.reproduce_figure_paths
        assert cli.array_nbytes is montecarlo.array_nbytes
        assert cli.MAX_BLOCK_BYTES == montecarlo.MAX_BLOCK_BYTES
        with pytest.raises(AttributeError):
            cli.simulate  # the CLI never looked this one up

    def test_engine_keeps_a_name_already_set(self, monkeypatch):
        # a wrapper set on the module before the engine loads is the one
        # simulate calls
        sentinel = object()
        monkeypatch.setattr(cli, "reproduce_figure_paths", sentinel)
        cli._engine()
        assert cli.reproduce_figure_paths is sentinel


class TestEntry:
    def test_freezes_before_main(self, monkeypatch):
        calls = []
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr(cli, "main", lambda argv=None: calls.append("main") or 3)
        with pytest.raises(SystemExit) as exit_:
            cli.entry()
        assert calls == ["freeze", "main"]
        assert exit_.value.code == 3

    def test_keeps_openssl_out_before_main(self, monkeypatch):
        # entry sets _hashlib to None where nothing loaded it, so that the
        # numpy.random simulate imports takes hashlib's builtin hashes; a
        # _hashlib already loaded stays
        seen, loaded = [], object()
        monkeypatch.setattr(gc, "freeze", lambda: None)
        monkeypatch.setattr(cli, "main", lambda argv=None: seen.append(sys.modules["_hashlib"]))
        monkeypatch.delitem(sys.modules, "_hashlib", raising=False)
        with pytest.raises(SystemExit):
            cli.entry()
        monkeypatch.setitem(sys.modules, "_hashlib", loaded)
        with pytest.raises(SystemExit):
            cli.entry()
        assert seen == [None, loaded]

    def test_main_does_not_freeze(self, figure_cfg, tmp_path, capsys):
        frozen = gc.get_freeze_count()
        assert main(["solve", figure_cfg, "--out-dir", str(tmp_path / "out")]) == 0
        assert main(["bounds", figure_cfg]) == 0
        assert gc.get_freeze_count() == frozen

    def test_main_leaves_sys_modules_alone(self, monkeypatch, figure_cfg, tmp_path, capsys):
        # in-process callers keep their imports: main blocks no module
        monkeypatch.delitem(sys.modules, "_hashlib", raising=False)
        for command in ("solve", "simulate", "bounds"):
            assert main([command, figure_cfg, "--out-dir", str(tmp_path / command)]) == 0
        assert "_hashlib" not in sys.modules

    def test_module_entry_solves(self, tmp_path):
        # python -m tcmv.cli writes, byte for byte, what main writes in process
        module, in_process = tmp_path / "module", tmp_path / "main"
        with resources.as_file(resources.files("tcmv") / "configs" / "figure1.cfg") as path:
            _fresh_interpreter("-W", "error::RuntimeWarning", "-m", "tcmv.cli", "solve", str(path),
                               "--out-dir", str(module))
            assert main(["solve", str(path), "--out-dir", str(in_process)]) == 0
        assert (module / "diagnostics.txt").stat().st_size > 0
        assert_same_files(module, in_process, SOLVE_FILES)

    def test_module_entry_simulates(self, figure_cfg, tmp_path):
        # python -m tcmv.cli simulate exits 0 and writes, byte for byte, what
        # main writes in process, having imported numpy.random; where
        # importing tcmv.cli leaves OpenSSL unloaded, so does the run
        module, in_process = tmp_path / "module", tmp_path / "main"
        probe = ("import sys; print(sys.last_value, 'numpy.random' in sys.modules, "
                 "sys.modules.get('_hashlib') is None)")
        after = _after(probe, "-W", "error::RuntimeWarning", "-m", "tcmv.cli", "simulate",
                       figure_cfg, "--out-dir", str(module))
        assert main(["simulate", figure_cfg, "--out-dir", str(in_process)]) == 0
        assert_same_files(module, in_process, ["simulation_summary.csv",
                                               "simulated_paths_g1_T1.csv",
                                               "simulated_paths_g3_T1.csv"])
        imported = _fresh_interpreter("-c", "import sys, tcmv.cli; print('_hashlib' in sys.modules)")
        assert after == ("0 True True" if imported == "False\n" else "0 True False")


class TestFormatting:
    def test_twelve_significant_digits(self):
        assert fmt(1 / 3) == "0.333333333333"
        assert fmt(1.0) == "1"
        assert fmt(1.5e-7) == "1.5e-07"
        assert fmt_column([1 / 3, -0.0, float("nan"), 1e16]) == ["0.333333333333", "-0", "nan", "1e+16"]

    # signed zeros, subnormals, non-finite values, the switch to exponent
    # notation at 1e12 and the float64 extremes
    EDGE = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-5, 1e-4,
            float("inf"), float("-inf"), float("nan"), 99999999999.95, 999999999999.4,
            999999999999.5, 1e12, 1e15, 1e16, -1e16, 2.0**53 + 2, np.finfo(float).max,
            -np.finfo(float).max]

    @given(st.lists(st.one_of(
        st.floats(),
        st.floats(min_value=1e11, max_value=1e17),
        st.floats(min_value=-1e17, max_value=-1e11),
        st.sampled_from(EDGE),
    )))
    @example(EDGE)
    @settings(max_examples=300, deadline=None)
    def test_column_formatter_matches_fmt(self, values):
        expected = [fmt(v) for v in values]
        assert fmt_column(values) == expected
        assert fmt_column(np.array(values, dtype=float)) == expected


def reference_rows(prefix, *columns):
    """The rows as the emitters once built them: each number column through
    fmt_column, then one join per row.  A column is a list of str (text) or
    of floats (numbers)."""
    text = [c if c and isinstance(c[0], str) else fmt_column(c) for c in columns]
    return "".join(prefix + ",".join(cells) + "\n" for cells in zip(*text))


number_cells = st.one_of(
    st.floats(),
    st.floats(min_value=1e11, max_value=1e17),
    st.floats(min_value=-1e17, max_value=-1e11),
    st.sampled_from(TestFormatting.EDGE),
)


@st.composite
def row_columns(draw):
    """Up to four text or number columns of n rows, some a cell or two longer."""
    n, columns = draw(st.integers(0, 12)), []
    for _ in range(draw(st.integers(0, 4))):
        size = n + draw(st.integers(0, 2))
        cells = st.text(max_size=6) if draw(st.booleans()) else number_cells
        columns.append(draw(st.lists(cells, min_size=size, max_size=size)))
    return columns


class TestRows:
    @given(prefix=st.text(max_size=8), columns=row_columns(), as_arrays=st.booleans())
    @example(prefix="1%,%s,%%", columns=[["a%sb", "%d"], [float("nan"), 1e16]], as_arrays=True)
    @example(prefix="x,", columns=[[], [1.0]], as_arrays=False)  # zero rows
    @example(prefix="", columns=[TestFormatting.EDGE], as_arrays=True)  # one column
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_row_reference(self, prefix, columns, as_arrays):
        # number columns go in as lists or as float arrays
        passed = [np.array(c, dtype=float) if as_arrays and not (c and isinstance(c[0], str))
                  else c for c in columns]
        assert cli._rows(prefix, *passed) == reference_rows(prefix, *columns)
