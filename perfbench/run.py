#!/usr/bin/env python3
"""Benchmark of the tcmv command line program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from anywhere inside a source checkout; the package is taken from the
checkout's src/ directory.  Each measured run is a fresh
``python3 -m tcmv.cli <command> <config> --threads 2 --out-dir <tmp>``
process, one at a time.  Every run's outputs are checked; the last line of
standard output is one JSON object with the metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy

from tracer import layer_metrics, missing_metrics
from workloads import WORKLOADS, AnalyticMoments, mc_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Scratch space for configs and CLI outputs (removed after each run) and
# for run records; everything the benchmark writes stays in the checkout.
WORK = ROOT / ".bench_runs"

THREADS = 2
# Timed set-up processes before each measured run (--trace 0).
SETUPS_PER_RUN = 2
CHILD_TIMEOUT_S = 150.0
# Fewest runs of each kind, however short --seconds is.
MIN_RUNS = {0: {"plain": 3}, 1: {"plain": 1, "traced": 2}}
SETUP_CODE = "import sys, tcmv.cli; tcmv.cli.load_config(sys.argv[1])"

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}
PER_LAYER = {
    "cli.load_config_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "cli.files_written": "count",
    "cli.cpu_util": "ratio",
    "model1.solve_s": "s",
    "model2.solve_s": "s",
    "model2.evaluate_s": "s",
    "model2.residual_s": "s",
    "model2.self_s": "s",
    "model3.solve_s": "s",
    "model3.solve_k1_s": "s",
    "model3.build_kernels_s": "s",
    "model3.solve_k2_s": "s",
    "model3.moments_s": "s",
    "model3.residual_s": "s",
    "model3.gain_bound_s": "s",
    "model3.intercept_bound_s": "s",
    "model3.self_s": "s",
    "numerics.picard_calls": "count",
    "numerics.picard_sweeps": "count",
    "numerics.picard_s": "s",
    "numerics.tail_integrals_calls": "count",
    "numerics.convergence_bound_calls": "count",
    "numerics.self_s": "s",
    "montecarlo.simulate_s": "s",
    "montecarlo.simulate_calls": "count",
    "montecarlo.path_steps": "count",
    "montecarlo.path_steps_per_s": "1/s",
    "montecarlo.strategy_s": "s",
    "montecarlo.strategy_calls": "count",
    "montecarlo.step_self_s": "s",
    "montecarlo.paths_s": "s",
    "montecarlo.n_excluded": "count",
    "trace.overhead_s": "s",
}
# Counts must repeat exactly between runs of the same inputs.
EXACT = [name for name, unit in PER_LAYER.items() if unit in ("count", "bytes")]


@dataclasses.dataclass
class Run:
    kind: str  # "plain" or "traced"
    wall: float
    cpu: float  # child user + system CPU seconds / wall
    rss_mb: float
    errors: list[str]
    digest: str | None = None
    n_bytes: int = 0
    n_files: int = 0
    layers: dict | None = None
    missing: list[str] = dataclasses.field(default_factory=list)


def spawn(argv: list[str], env: dict, log: Path) -> tuple[int, float, float, float]:
    """Run argv to completion with stdout and stderr in log.  Returns exit
    code, wall seconds, CPU utilisation and peak RSS in MB, the last two
    from the child's own rusage."""
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(log), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
               (os.POSIX_SPAWN_DUP2, 1, 2)]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    killer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:  # interrupted: leave no child behind
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    cpu = (usage.ru_utime + usage.ru_stime) / wall
    return os.waitstatus_to_exitcode(status), wall, cpu, usage.ru_maxrss / 1024.0


def _tail(log: Path, lines: int = 3) -> str:
    try:
        return " | ".join(log.read_text(errors="replace").strip().splitlines()[-lines:])
    except OSError:
        return ""


def _outputs(out: Path) -> tuple[str | None, int, int]:
    """Digest over names and contents, total bytes and number of files."""
    if not out.is_dir():
        return None, 0, 0
    digest, n_bytes, files = hashlib.sha256(), 0, sorted(out.iterdir())
    for path in files:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        n_bytes += len(data)
    return digest.hexdigest(), n_bytes, len(files)


def run_once(w, kind: str, i: int, cfg: Path, tmp: Path, env: dict, moments) -> Run:
    out, spans, log = tmp / f"out{i}", tmp / f"spans{i}.json", tmp / f"log{i}.txt"
    cli_args = [w.command, str(cfg), "--threads", str(THREADS), "--out-dir", str(out)]
    if kind == "plain":
        argv = [sys.executable, "-m", "tcmv.cli", *cli_args]
    else:
        argv = [sys.executable, str(HERE / "tracer.py"), str(spans), *cli_args]
    code, wall, cpu, rss = spawn(argv, env, log)
    run = Run(kind, wall, cpu, rss, [])
    if code != 0:
        run.errors.append(f"{kind} run exited {code}: {_tail(log)}")
    else:
        try:
            run.errors += w.check(str(out), moments)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            run.errors.append(f"malformed output: {exc!r}")
    run.digest, run.n_bytes, run.n_files = _outputs(out)
    if kind == "traced" and not run.errors:
        with open(spans) as fh:
            trace = json.load(fh)
        run.layers, run.missing = layer_metrics(trace), trace["missing"]
    shutil.rmtree(out, ignore_errors=True)
    return run


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def _stats(xs: list[float]) -> dict:
    if len(xs) >= 2:
        q1, _, q3 = statistics.quantiles(xs, n=4)
    else:
        q1 = q3 = _median(xs)
    return {"n": len(xs), "median": _median(xs), "q1": q1, "q3": q3, "samples": xs}


def _git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                capture_output=True, text=True, timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}
    return {"sha": sha or None, "dirty": bool(status.strip())}


def measure(w, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One benchmark run: the JSON result and the full run record."""
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK))
    try:
        return _measure(w, seed, seconds, trace, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _measure(w, seed: int, seconds: float, trace: int, tmp: Path) -> tuple[dict, dict]:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "TCMV_OUT_DIR")}
    env.update(PYTHONPATH=str(SRC), TMPDIR=str(tmp))
    cfg = tmp / "scenario.cfg"
    cfg.write_text(w.config_text(seed))
    errors: list[str] = []

    # Set-up: interpreter start, import and config parse, in a fresh process.
    # The first one fills the bytecode cache and is not timed; the timed ones
    # are spread over the run, so the median does not hang on one moment's
    # machine load.
    setup: list[float] = []

    def set_up(timed: bool):
        log = tmp / "setup.txt"
        code, wall, _, _ = spawn([sys.executable, "-c", SETUP_CODE, str(cfg)], env, log)
        if code != 0:
            errors.append(f"set-up exited {code}: {_tail(log)}")
        elif timed:
            setup.append(wall)

    start = time.perf_counter()
    set_up(timed=False)
    moments = None
    if w.command == "simulate":
        try:
            moments = AnalyticMoments(w)
        except Exception as exc:  # a broken library fails the runs, not the harness
            errors.append(f"analytic moments failed: {exc!r}")
    kinds = ("plain", "traced") if trace else ("plain",)
    setups_per_run = 0 if trace else SETUPS_PER_RUN
    runs: list[Run] = []
    for i in itertools.count():
        kind = kinds[i % len(kinds)]
        done = all(sum(r.kind == k for r in runs) >= n for k, n in MIN_RUNS[trace].items())
        last = [r.wall for r in runs if r.kind == kind]
        next_s = (last[-1] if last else 0.0) + setups_per_run * (setup[-1] if setup else 0.0)
        if done and time.perf_counter() - start + next_s > seconds:
            break
        for _ in range(setups_per_run):
            set_up(timed=True)
        runs.append(run_once(w, kind, i, cfg, tmp, env, moments))

    plain = [r for r in runs if r.kind == "plain"]
    failed = sum(1 for r in runs if r.errors)
    for r in runs:
        errors += r.errors
    good = [r for r in runs if not r.errors]
    if len({r.digest for r in good}) > 1:
        errors.append("outputs differ between runs of the same inputs")

    missing: set[str] = set()
    if trace == 0:
        samples = {"wall_s": [r.wall for r in plain], "setup_s": setup,
                   "peak_rss_mb": [r.rss_mb for r in plain],
                   "ok_frac": [1.0 - failed / len(runs)]}
        units = END_TO_END
    else:
        traced = [r for r in runs if r.layers is not None]
        samples = {name: [r.layers[name] for r in traced]
                   for name in PER_LAYER if traced and name in traced[0].layers}
        samples["cli.cpu_util"] = [r.cpu for r in plain]
        samples["cli.bytes_written"] = [r.n_bytes for r in good]
        samples["cli.files_written"] = [r.n_files for r in good]
        walls = [r.wall for r in runs if r.kind == "traced"]
        samples["trace.overhead_s"] = [_median(walls) - _median([r.wall for r in plain])]
        for name in EXACT:
            if len(set(samples.get(name, []))) > 1:
                errors.append(f"{name} differs between runs: {samples[name]}")
        for r in traced:
            missing |= missing_metrics(r.missing)
        units = PER_LAYER

    metrics = {name: {"value": _median(samples.get(name, [])), "unit": unit}
               for name, unit in units.items()}
    result = {"correct": not errors and failed == 0, "attempted": len(runs),
              "failed": failed, "metrics": metrics}
    record = {
        "workload": w.name, "seed": seed, "mc_seed": mc_seed(w.name, seed),
        "seconds": seconds, "trace": trace, "threads": THREADS,
        "git": _git_state(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "config": cfg.read_text(),
        "failed_frac": failed / len(runs),
        "errors": errors, "missing": sorted(missing),
        "runs": [{"kind": r.kind, "wall_s": r.wall, "cpu_util": r.cpu,
                  "peak_rss_mb": r.rss_mb, "errors": r.errors} for r in runs],
        "metrics": {name: {"unit": unit, "missing": name in missing,
                           **_stats(samples.get(name, []))}
                    for name, unit in units.items()},
        "result": result,
    }
    return result, record


def report(record: dict):
    """Human-readable lines: every metric with unit, spread and samples."""
    r = record["result"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"git {record['git']['sha']}  nproc {record['nproc']}  "
          f"python {record['python']}  numpy {record['numpy']}")
    print(f"{'failed_frac':34s} {record['failed_frac']:.4g} ratio  "
          f"({r['failed']} of {r['attempted']} runs failed)")
    for name, m in record["metrics"].items():
        flag = "  MISSING" if m["missing"] else ""
        print(f"{name:34s} {m['median']:.6g} {m['unit']}  "
              f"(n={m['n']}, q1={m['q1']:.6g}, q3={m['q3']:.6g}){flag}")
    for line in record["errors"][:20]:
        print(f"error: {line}", file=sys.stderr)


def smoke() -> int:
    """Every workload at tiny size in both modes: emitted names and units
    must match BENCHMARK.json, and a failing run must count as failed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("workload names differ from BENCHMARK.json")
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    tiny = {name: dataclasses.replace(w, steps_per_year=50, n_paths=min(w.n_paths, 512),
                                      n_time_steps=50)
            for name, w in WORKLOADS.items()}
    for w in tiny.values():
        for trace in (0, 1):
            result, record = measure(w, seed=1, seconds=0, trace=trace)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{w.name} trace {trace}: metrics {got} != BENCHMARK.json")
            if not result["correct"]:
                problems.append(f"{w.name} trace {trace} failed: {record['errors'][:3]}")
    # n_steps = 1 is a config error, so every CLI run must exit 2 and count.
    broken = dataclasses.replace(tiny["solve_long"], steps_per_year=1)
    result, _ = measure(broken, seed=1, seconds=0, trace=0)
    if not (result["failed"] == result["attempted"] > 0
            and result["metrics"]["ok_frac"]["value"] == 0.0 and not result["correct"]):
        problems.append(f"deliberately failing runs were not counted: {result}")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny size and check the harness")
    args = parser.parse_args(argv)
    # A terminated benchmark still kills its child and removes its scratch.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "tcmv" / "cli.py").is_file():
        print(f"no tcmv sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the analytic moments are computed in-process
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result, record = measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (records / name).write_text(json.dumps(record, indent=1) + "\n")
    report(record)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
