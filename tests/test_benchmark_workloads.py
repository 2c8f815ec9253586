"""The benchmark's analytic moments, built from the library names it reads
(Model1Solution.expected_wealth and terminal_variance, evaluate_model2 and
solve_model3(...).moments), agree with the moments the CLI writes."""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

from tcmv import cli
from tcmv.cli import load_config

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_analytic_moments_are_the_cli_moments(tmp_path, name):
    w = workloads.WORKLOADS[name]
    moments = workloads.AnalyticMoments(w)
    path = tmp_path / f"{name}.cfg"
    path.write_text(w.config_text(seed=1))
    cfg = load_config(str(path))
    assert cfg.sim.x0 == workloads.X0
    expected = {}
    for case in cli._solve_all(cfg):
        for model, m in cli._moments(case).items():
            expected[(case.gamma, case.T, model)] = (
                float(m.mean(0.0, cfg.sim.x0)), float(m.variance(0.0, cfg.sim.x0)))
    assert len(expected) == 3 * len(w.cases)
    assert moments.values == expected
    assert all(math.isfinite(v) for pair in moments.values.values() for v in pair)
