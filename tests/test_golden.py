"""Golden outputs: ``tcmv simulate --threads 1`` on the shipped configs,
shrunk to 4097 paths (one full block and a one-path block) of 50 steps,
against the files recorded in tests/golden.

On the numpy version and platform recorded in tests/golden/recorded.json
every file must match byte for byte.  Elsewhere vectorised functions such
as exp may round differently, so there each numeric cell may move by at
most 1e-10 relative, and every text cell must be equal.  A failure names
the file, how many cells moved and the largest relative change.

Rewrite the goldens from the checkout, printing that summary per file, with

    PYTHONPATH=src python tests/test_golden.py --rewrite

Rewriting them changes test data: CHANGES.md then says what moved and why.
"""

from __future__ import annotations

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
CONFIGS = ("figure1", "section4")
SHRUNK = {"n_paths": 4097, "n_time_steps": 50}
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


def simulate(name: str, tmp: Path) -> dict[str, bytes]:
    """The files of simulate --threads 1 on the shrunk shipped config name,
    run in tmp."""
    text = (resources.files("tcmv") / "configs" / f"{name}.cfg").read_text()
    for key, value in SHRUNK.items():
        text, count = re.subn(rf"(?m)^{key} = .*", f"{key} = {value}", text)
        assert count == 1, f"{name}.cfg sets {key} once"
    cfg, out = tmp / f"{name}.cfg", tmp / name
    cfg.write_text(text)
    assert main(["simulate", str(cfg), "--threads", "1", "--out-dir", str(out)]) == 0
    return {f.name: f.read_bytes() for f in sorted(out.iterdir())}


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
    """How many comma-separated cells of got differ from expected, and the
    largest relative change among them (0 where none moved)."""
    rows = itertools.zip_longest(expected.decode().splitlines(), got.decode().splitlines(),
                                 fillvalue="")
    n, worst = 0, 0.0
    for old, new in rows:
        for a, b in itertools.zip_longest(old.split(","), new.split(",")):
            if a != b:
                n, worst = n + 1, max(worst, _relative(a, b))
    return n, worst


def summary(file: str, expected: bytes, got: bytes) -> str:
    n, worst = moved(expected, got)
    same = "byte-identical" if got == expected else "bytes differ"
    return f"{file}: {n} cells moved, largest relative change {worst:.3g} ({same})"


@pytest.mark.parametrize("name", CONFIGS)
def test_simulate_matches_the_golden_files(name, tmp_path):
    got = simulate(name, tmp_path)
    expected = {f.name: f.read_bytes() for f in sorted((GOLDEN / name).iterdir())}
    assert sorted(got) == sorted(expected)
    exact = json.loads((GOLDEN / "recorded.json").read_text()) == recorded_on()
    failures = [
        summary(f"{name}/{file}", data, got[file])
        for file, data in expected.items()
        if (got[file] != data if exact else moved(data, got[file])[1] > RTOL)
    ]
    assert not failures, "\n".join(failures)


def test_moved_counts_cells_and_their_largest_change():
    old = b"t,model,x\n0,model1,1.5\n1,model2,-0\n"
    assert moved(old, old) == (0, 0.0)
    assert moved(old, old.replace(b"1.5", b"1.5000000000003")) == (1, pytest.approx(2e-13))
    assert moved(old, old.replace(b"-0", b"0")) == (1, 0.0)
    assert moved(old, old.replace(b"model2", b"model3")) == (1, math.inf)
    assert moved(old, old + b"2,model3,1\n") == (3, math.inf)
    assert moved(old, old.replace(b",1.5", b"")) == (1, math.inf)


def rewrite():
    """Rewrite tests/golden from this checkout, with a summary per file."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in CONFIGS:
            target = GOLDEN / name
            old = {f.name: f.read_bytes() for f in target.iterdir()} if target.is_dir() else {}
            got = simulate(name, Path(tmp))
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
