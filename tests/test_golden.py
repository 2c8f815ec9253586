"""Golden outputs of the shipped configs, shrunk, and of the steep market,
against the files recorded in tests/golden:

- ``tcmv simulate`` on figure1.cfg and section4.cfg at 4097 paths (one
  full block and a one-path block) of 50 steps, in tests/golden/<config>;
- ``tcmv simulate`` on the configs of the benchmark's
  simulate_wide and simulate_narrow workloads at benchmark seed 1, with
  fewer steps: simulate_wide's 32768 paths (eight full blocks) of 50 steps
  and simulate_narrow's 1024 paths (one partial block, four cases) of 100,
  in tests/golden/<workload>;
- ``tcmv solve``, with the stdout of ``tcmv bounds`` as bounds.txt, at 100
  grid steps a year on figure1.cfg, section4.cfg and the steep market
  (section4.cfg at alpha = (0.6, 0.05), sigma = [[0.3, 0.1], [0.25, 0.15]]
  and T = 3), in tests/golden/solve/<config>;
- ``tcmv solve`` and ``tcmv bounds`` on the configs of the three benchmark
  workloads at 20 grid steps a year and on one gamma each, in
  tests/golden/solve/<workload>: solve_long's gamma = 10 on both its
  horizons (T = 5 and 10), simulate_wide's one case (gamma = 3, T = 1) and
  simulate_narrow's gamma = 1 at T = 3.  At 100 steps a year, all cases,
  they would take about 510 KB.

On the numpy version and platform recorded in tests/golden/recorded.json
every file must match byte for byte.  Each simulate set runs at
``--threads 1``, again at ``--threads 2`` with two CPUs whatever the
machine has, and at ``--threads 3`` with four, against the same files.
Elsewhere vectorised functions such as exp may round differently, so
there each numeric cell may move by at most 1e-10 relative, and every
text cell must be equal; a cell is what commas, spaces and '=' separate,
so a number inside a diagnostics or bounds line counts as a cell too.  A
failure names the file, how many cells moved and the largest relative
change.

Rewrite the goldens from the checkout, printing that summary per file, with

    PYTHONPATH=src python tests/test_golden.py --rewrite

Rewriting them changes test data: CHANGES.md then says what moved and why.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import platform
import re
import shutil
import sys
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from tcmv.cli import main

GOLDEN = Path(__file__).parent / "golden"
SIMULATE = {"n_paths": 4097, "n_time_steps": 50}
SOLVE = {"n_steps": 100}
# the benchmark workloads' configs differ from the shipped ones in these
# keys; each seed is the workload's Monte Carlo seed at benchmark seed 1
WIDE = {"n_paths": 32768, "n_time_steps": 50, "seed": 1107356370439459513}
NARROW = {"n_paths": 1024, "n_time_steps": 100, "seed": 1026366774454091144}
STEEP = {"alpha": "0.6, 0.05", "sigma": "0.3 0.1; 0.25 0.15", "T": 3}
# the solve goldens of the workloads: fewer steps a year, one gamma each
BENCH_SOLVE = {"n_steps": 20}
# directory under tests/golden: (command, shipped config, the keys it sets)
SETS = {
    "figure1": ("simulate", "figure1", SIMULATE),
    "section4": ("simulate", "section4", SIMULATE),
    "simulate_wide": ("simulate", "section4", WIDE),
    "simulate_narrow": ("simulate", "figure1", NARROW),
    "solve/figure1": ("solve", "figure1", SOLVE),
    "solve/section4": ("solve", "section4", SOLVE),
    "solve/steep": ("solve", "section4", {**SOLVE, **STEEP}),
    "solve/solve_long": ("solve", "figure1", {**BENCH_SOLVE, "gamma": 10, "T": "5, 10"}),
    "solve/simulate_wide": ("solve", "section4", BENCH_SOLVE),
    "solve/simulate_narrow": ("solve", "figure1", {**BENCH_SOLVE, "gamma": 1, "T": 3}),
}
RTOL = 1e-10


def recorded_on() -> dict:
    """The numpy version and platform, SIMD dispatch included, that round
    the outputs."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        simd = " ".join(f for f in __cpu_dispatch__ if __cpu_features__.get(f))
    except ImportError:
        simd = "unknown"
    return {"numpy": np.__version__, "platform": f"{platform.system()} {platform.machine()}",
            "simd": simd}


def run(name: str, tmp: Path, threads: int = 1) -> dict[str, bytes]:
    """The files of golden set name, run in tmp: simulate's on that many
    threads, or solve's with the stdout of bounds as bounds.txt."""
    command, config, keys = SETS[name]
    text = (resources.files("tcmv") / "configs" / f"{config}.cfg").read_text()
    for key, value in keys.items():
        text, count = re.subn(rf"(?m)^{key} = .*", f"{key} = {value}", text)
        assert count == 1, f"{config}.cfg sets {key} once"
    cfg, out = tmp / f"{name.replace('/', '_')}.cfg", tmp / name
    cfg.write_text(text)
    assert main([command, str(cfg), "--threads", str(threads), "--out-dir", str(out)]) == 0
    got = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    if command == "solve":
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(["bounds", str(cfg)]) == 0
        got["bounds.txt"] = stdout.getvalue().encode()
    return got


def _relative(a: str | None, b: str | None) -> float:
    """|a - b| / max(|a|, |b|) of two numeric cells; inf where either is
    missing, text or not finite."""
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return math.inf
    if x == y:  # 0 and -0
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def moved(expected: bytes, got: bytes) -> tuple[int, float]:
    """How many cells of got, separated by commas, spaces or '=', differ
    from expected, and the largest relative change among them (0 where none
    moved)."""
    rows = itertools.zip_longest(expected.decode().splitlines(), got.decode().splitlines(),
                                 fillvalue="")
    n, worst = 0, 0.0
    for old, new in rows:
        for a, b in itertools.zip_longest(re.split("[, =]", old), re.split("[, =]", new)):
            if a != b:
                n, worst = n + 1, max(worst, _relative(a, b))
    return n, worst


def summary(file: str, expected: bytes, got: bytes) -> str:
    n, worst = moved(expected, got)
    same = "byte-identical" if got == expected else "bytes differ"
    return f"{file}: {n} cells moved, largest relative change {worst:.3g} ({same})"


def check(name: str, got: dict[str, bytes]):
    expected = {f.name: f.read_bytes() for f in sorted((GOLDEN / name).iterdir())}
    assert sorted(got) == sorted(expected)
    exact = json.loads((GOLDEN / "recorded.json").read_text()) == recorded_on()
    failures = [
        summary(f"{name}/{file}", data, got[file])
        for file, data in expected.items()
        if (got[file] != data if exact else moved(data, got[file])[1] > RTOL)
    ]
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("name", SETS)
def test_outputs_match_the_golden_files(name, tmp_path):
    check(name, run(name, tmp_path))


@pytest.mark.parametrize("name", [name for name, (command, *_) in SETS.items()
                                  if command == "simulate"])
def test_simulate_outputs_match_the_golden_files_at_two_threads(name, tmp_path, monkeypatch):
    monkeypatch.setattr("tcmv.montecarlo.os.cpu_count", lambda: 2)
    check(name, run(name, tmp_path, threads=2))


@pytest.mark.parametrize("name", [name for name, (command, *_) in SETS.items()
                                  if command == "simulate"])
def test_simulate_outputs_match_the_golden_files_at_three_threads(name, tmp_path, monkeypatch):
    # three workers take simulate_wide's eight blocks in yet another order
    monkeypatch.setattr("tcmv.montecarlo.os.cpu_count", lambda: 4)
    check(name, run(name, tmp_path, threads=3))


def test_moved_counts_cells_and_their_largest_change():
    old = b"t,model,x\n0,model1,1.5\n1,model2,-0\n"
    assert moved(old, old) == (0, 0.0)
    assert moved(old, old.replace(b"1.5", b"1.5000000000003")) == (1, pytest.approx(2e-13))
    assert moved(old, old.replace(b"-0", b"0")) == (1, 0.0)
    assert moved(old, old.replace(b"model2", b"model3")) == (1, math.inf)
    assert moved(old, old + b"2,model3,1\n") == (3, math.inf)
    assert moved(old, old.replace(b",1.5", b"")) == (1, math.inf)
    # a number inside a diagnostics or bounds line is a cell of its own
    lines = b"== gamma=3 T=1 ==\nK = 2.5\nmodel2 k: iterations=7 delta=1e-11\n"
    assert moved(lines, lines) == (0, 0.0)
    assert moved(lines, lines.replace(b"2.5", b"2.5000000000005")) == (1, pytest.approx(2e-13))
    assert moved(lines, lines.replace(b"=7", b"=8")) == (1, pytest.approx(0.125))
    assert moved(lines, lines.replace(b"gamma=3", b"gamma=3.5")) == (1, pytest.approx(1 / 7))
    assert moved(lines, lines.replace(b"model2 k:", b"model3 k:")) == (1, math.inf)


def rewrite():
    """Rewrite tests/golden from this checkout, with a summary per file."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in SETS:
            target = GOLDEN / name
            old = {f.name: f.read_bytes() for f in target.iterdir()} if target.is_dir() else {}
            got = run(name, Path(tmp))
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir(parents=True)
            for file, data in got.items():
                (target / file).write_bytes(data)
                print(summary(f"{name}/{file}", old[file], data) if file in old
                      else f"{name}/{file}: new")
            for file in sorted(set(old) - set(got)):
                print(f"{name}/{file}: removed")
    (GOLDEN / "recorded.json").write_text(json.dumps(recorded_on(), indent=2) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--rewrite"]:
        sys.exit(f"usage: python {sys.argv[0]} --rewrite")
    rewrite()
