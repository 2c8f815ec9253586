import os

import numpy as np
import pytest

from tcmv import cli
from tcmv.cli import OUT_DIR_ENV, fmt, load_config, main

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


@pytest.fixture
def figure_cfg(tmp_path):
    path = tmp_path / "figure.cfg"
    path.write_text(FIGURE_CFG)
    return str(path)


def _read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


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


class TestSolveCommand:
    def test_emits_tables(self, figure_cfg, tmp_path):
        out = tmp_path / "out"
        assert main(["solve", figure_cfg, "--out-dir", str(out)]) == 0
        for name in (
            "k_curves.csv",
            "allocation_vs_wealth.csv",
            "mean_variance_vs_wealth.csv",
            "diagnostics.txt",
        ):
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

    def test_byte_identical_reruns(self, figure_cfg, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["solve", figure_cfg, "--out-dir", str(out_a)])
        main(["solve", figure_cfg, "--out-dir", str(out_b)])
        for name in ("k_curves.csv", "mean_variance_vs_wealth.csv", "diagnostics.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_threads_give_same_output(self, tmp_path):
        # two horizons, so the solves fan out over threads
        path = tmp_path / "two.cfg"
        path.write_text(FIGURE_CFG.replace("T = 1", "T = 1, 0.5"))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["solve", str(path), "--out-dir", str(out_a), "--threads", "1"]) == 0
        assert main(["solve", str(path), "--out-dir", str(out_b), "--threads", "4"]) == 0
        for name in (
            "k_curves.csv",
            "allocation_vs_wealth.csv",
            "mean_variance_vs_wealth.csv",
            "diagnostics.txt",
        ):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
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

    def test_constant_column_count_and_lf_endings(self, figure_cfg, tmp_path):
        out = tmp_path / "out"
        main(["solve", figure_cfg, "--out-dir", str(out)])
        raw = (out / "allocation_vs_wealth.csv").read_bytes()
        assert b"\r" not in raw
        header, rows = _read_rows(out / "allocation_vs_wealth.csv")
        assert all(len(r) == len(header) for r in rows)

    def test_env_var_output_dir(self, figure_cfg, tmp_path, monkeypatch):
        out = tmp_path / "envout"
        monkeypatch.setenv(OUT_DIR_ENV, str(out))
        assert main(["solve", figure_cfg]) == 0
        assert (out / "k_curves.csv").exists()

    def test_degenerate_market_exit_code(self, tmp_path):
        text = FIGURE_CFG.replace("0.25 0; 0 0.25", "0.25 0; 0.25 0")
        path = tmp_path / "deg.cfg"
        path.write_text(text)
        code = main(["solve", str(path), "--out-dir", str(tmp_path / "out")])
        assert code == 3

    def test_degenerate_message(self, tmp_path, capsys):
        text = FIGURE_CFG.replace("0.25 0; 0 0.25", "0.25 0; 0.25 0")
        path = tmp_path / "deg.cfg"
        path.write_text(text)
        main(["solve", str(path), "--out-dir", str(tmp_path / "out")])
        assert "no equilibrium exists" in capsys.readouterr().err

    def test_nonconvergence_exit_code(self, figure_cfg, tmp_path):
        text = FIGURE_CFG.replace("max_iter = 200", "max_iter = 1")
        path = tmp_path / "tight.cfg"
        path.write_text(text)
        out = tmp_path / "out"
        assert main(["solve", str(path), "--out-dir", str(out)]) == 4
        # no partial outputs left behind
        assert not out.exists() or not any(out.iterdir())

    def test_float64_overflow_is_market_error(self, tmp_path, capsys):
        # nearly equal volatility rows and a long horizon drive the kernel
        # exponents far past the float64 range
        text = (
            FIGURE_CFG.replace("alpha = 0.2, 0.12", "alpha = 0.9, -0.5")
            .replace("0.25 0; 0 0.25", "0.25 0.0; 0.2501 0.0001")
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


class TestSimulateCommand:
    def test_emits_summary_and_paths(self, figure_cfg, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", figure_cfg, "--out-dir", str(out)]) == 0
        assert (out / "simulation_summary.csv").exists()
        paths = sorted(f.name for f in out.iterdir() if f.name.startswith("simulated"))
        assert len(paths) == 2  # one per (gamma, T) combination

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


class TestFormatting:
    def test_twelve_significant_digits(self):
        assert fmt(1 / 3) == "0.333333333333"
        assert fmt(1.0) == "1"
        assert fmt(1.5e-7) == "1.5e-07"
