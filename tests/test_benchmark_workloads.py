"""The library names the benchmark reads stay in place.

perfbench/workloads.py builds its analytic moments from
Model1Solution.expected_wealth and terminal_variance, evaluate_model2 and
solve_model3(...).moments; they agree with the moments the CLI writes.
perfbench/tracer.py wraps each (module, name) of its SPANS and COUNTED
where the caller looks it up, tcmv.cli's solve_model1, gain_residual,
intercept_residual, both bound constants and convergence_bound among them,
and tcmv.model3's moments; a name that no longer resolves silently zeroes
its metric, so the set of missing names is pinned."""

import importlib
import importlib.util
import math
import sys
from pathlib import Path

import pytest

from tcmv import cli
from tcmv.cli import load_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# the tracer's targets that no longer exist; none may join them
MISSING_TARGETS = {
    ("tcmv.cli", "solve_model2"),
    ("tcmv.cli", "evaluate_model2"),
    ("tcmv.cli", "solve_model3"),
    ("tcmv.cli", "simulate"),
    ("tcmv.model3", "solve_k1"),
}


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = load_perfbench("workloads")


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
        for model, (_, m) in case.models.items():
            expected[(case.gamma, case.T, model)] = (
                float(m.mean(0.0, cfg.sim.x0)), float(m.variance(0.0, cfg.sim.x0)))
    assert len(expected) == 3 * len(w.cases)
    assert moments.values == expected
    assert all(math.isfinite(v) for pair in moments.values.values() for v in pair)


def test_tracer_targets_resolve():
    # the lookup of Tracer.install, without wrapping anything
    tracer = load_perfbench("tracer")
    targets = {(module, attr) for module, attr, _ in tracer.SPANS + tracer.COUNTED}
    missing = {
        (module, attr) for module, attr in targets
        if not callable(getattr(importlib.import_module(module), attr, None))
    }
    assert missing == MISSING_TARGETS
