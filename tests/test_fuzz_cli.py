"""Fuzz the command line: random config text, mostly ordinary values at tiny
sizes, with a few keys made odd: an entry replaced by an extreme value
(+-1e+-300, 5e-324, +-0, nan or +-inf), such a value added to a list, the
key left out, or the key given twice.

Whatever the config, ``main`` returns 0, 2, 3, 4 or 5 and raises nothing,
under the suite's ``error::RuntimeWarning``.  On a non-zero exit stderr is
one line with that category's prefix and no output file is left; on exit 0
the files written are those the config lists, and every CSV cell is finite.

A longer run by hand, of N random examples:

    PYTHONPATH=src python -m tests.test_fuzz_cli N
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import re
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tcmv.cli import _ALL_TABLES, main

from .conftest import shipped_config

EXTREMES = ("1e300", "-1e300", "1e-300", "-1e-300", "5e-324", "0", "-0", "nan", "inf", "-inf")
PREFIXES = {
    2: "config error: ",
    3: "market validation error: ",
    4: "solver did not converge: ",
    5: "simulation explosion: ",
}


def number(low: float, high: float):
    return st.floats(low, high).map(lambda v: f"{v:.6g}")


def numbers(low: float, high: float, min_size: int, max_size: int, sep: str = ", "):
    return st.lists(number(low, high), min_size=min_size, max_size=max_size).map(sep.join)


def sigma_text(n_factors: int):
    return st.tuples(*[numbers(-0.4, 0.4, n_factors, n_factors, " ")] * 2).map("; ".join)


@st.composite
def rho_text(draw, n_factors: int):
    """identity, or a correlation of the first two factors."""
    c = draw(st.floats(-0.9, 0.9))
    rho = np.eye(n_factors)
    rho[0, 1] = rho[1, 0] = c
    matrix = "; ".join(" ".join(f"{v:.6g}" for v in row) for row in rho)
    return draw(st.sampled_from(["identity", matrix]))


def sections(n_factors: int) -> dict:
    """Section: key and a strategy of its ordinary value, on n_factors factors."""
    return {
        "market": {
            "alpha": numbers(-0.1, 0.6, 2, 2),
            "sigma": sigma_text(n_factors),
            "rho": rho_text(n_factors),
            "r": number(-0.1, 0.2),
        },
        "objective": {
            "gamma": st.lists(st.sampled_from(["0.5", "1", "3", "10"]), min_size=1, max_size=2,
                              unique=True).map(", ".join),
            "T": st.lists(st.sampled_from(["0.25", "0.5", "1"]), min_size=1, max_size=2,
                          unique=True).map(", ".join),
        },
        "solver": {
            "n_steps": st.integers(8, 40).map(str),
            "tol": st.sampled_from(["1e-10", "1e-8"]),
            "max_iter": st.sampled_from(["50", "200"]),
        },
        "simulation": {
            "n_paths": st.integers(4, 64).map(str),
            "n_time_steps": st.integers(1, 16).map(str),
            "seed": st.integers(0, 2**32).map(str),
            "x0": number(0.1, 5.0),
        },
        "outputs": {
            "tables": st.lists(st.sampled_from(_ALL_TABLES), min_size=1, unique=True)
            .map(", ".join),
        },
    }


KEYS = [(section, key) for section, keys in sections(2).items() for key in keys]


@st.composite
def configs(draw):
    """Config text, and the tables it lists (all of them where it lists none)."""
    odd = draw(st.sets(st.sampled_from(KEYS), max_size=3))
    tables = _ALL_TABLES
    text = []
    for section, keys in sections(draw(st.sampled_from([2, 3]))).items():
        text.append(f"[{section}]")
        for key, ordinary in keys.items():
            value = draw(ordinary)
            how = draw(st.sampled_from(["extreme", "in a list", "missing", "twice"])) \
                if (section, key) in odd else "ordinary"
            if how == "missing":
                continue
            if how == "extreme":  # in place of one entry of a list or matrix
                parts = re.split(r"([,; ]+)", value)
                parts[2 * draw(st.integers(0, len(parts) // 2))] = draw(st.sampled_from(EXTREMES))
                value = "".join(parts)
            elif how == "in a list":
                value = f"{value}, {draw(st.sampled_from(EXTREMES))}"
            text += [f"{key} = {value}"] * (2 if how == "twice" else 1)
            if key == "tables":
                tables = tuple(t.strip() for t in value.split(","))
    return "\n".join(text) + "\n", tables


def _figure1(**keys) -> tuple[str, tuple[str, ...]]:
    """figure1.cfg at 100 grid steps a year and 512 paths of 50 steps, with
    keys set, and the tables it lists."""
    text = shipped_config("figure1", n_steps=100, n_paths=512, n_time_steps=50, **keys)
    return text, _ALL_TABLES


COMMANDS = ("solve", "bounds", "simulate")


def check(config: tuple[str, tuple[str, ...]], command: str):
    """Run command on the config text in a fresh directory and check its
    exit code, its stderr and the files it leaves."""
    text, tables = config
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "fuzz.cfg", Path(tmp) / "out"
        path.write_text(text)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, str(path), "--out-dir", str(out)])
        err = stderr.getvalue()
        written = sorted(f.name for f in out.iterdir()) if out.exists() else []
        if code:
            assert code in PREFIXES, (code, err)
            assert err.startswith(PREFIXES[code]) and err.count("\n") == 1, err
            assert not written, written
            return
        assert err == ""
        paths = {f for f in written if f.startswith("simulated_paths")}
        assert bool(paths) == (command == "simulate" and "simulated_paths" in tables)
        assert set(written) == {
            "solve": {f"{t}.csv" for t in tables if t != "simulated_paths"} | {"diagnostics.txt"},
            "bounds": set(),
            "simulate": {"simulation_summary.csv"} | paths,
        }[command]
        for name in written:
            if name.endswith(".csv"):
                with open(out / name, newline="") as fh:
                    rows = list(csv.reader(fh))[1:]
                cells = [float(c) for row in rows for c in row if not c.startswith("model")]
                assert all(map(math.isfinite, cells)), name


IN_RANGE = _figure1(sigma="0.02 0; 0 0.02", r=23.3, gamma=3, T=30)
OUT_OF_RANGE = _figure1(r=-69.5, gamma="1e-4", T=10)


@given(config=configs(), command=st.sampled_from(COMMANDS))
@example(config=IN_RANGE, command="solve")  # model 1 solves: every cell finite
@example(config=IN_RANGE, command="simulate")
@example(config=OUT_OF_RANGE, command="solve")  # model 1's control overflows
@example(config=OUT_OF_RANGE, command="simulate")
# model 1's one-factor diagnosis: a price of risk overflowed
@example(config=_figure1(alpha="0, 0", sigma="3.17211e-170 0; 0.25 0", r="1e300"),
         command="solve")
# no model 1 on a riskless stock, yet its prod (1 + r dt) overflowed
@example(config=_figure1(sigma="0 0; 0 0.25", r="1e300"), command="simulate")
@settings(max_examples=150, deadline=None)
def test_every_config_exits_with_its_category(config, command):
    check(config, command)


if __name__ == "__main__":
    if len(sys.argv) != 2 or not sys.argv[1].isdigit():
        sys.exit("usage: python -m tests.test_fuzz_cli N")
    warnings.simplefilter("error", RuntimeWarning)
    settings(max_examples=int(sys.argv[1]), deadline=None, database=None)(
        given(configs(), st.sampled_from(COMMANDS))(check))()
    print(f"{sys.argv[1]} examples passed")
