"""Traced run of the tcmv CLI and the per-layer metrics computed from it.

    python3 perfbench/tracer.py SPANS_JSON <tcmv CLI arguments...>

runs ``tcmv.cli.main`` in this process after wrapping the public entry
point of each layer where the calling module looks it up, then writes the
spans, counts and timers it recorded to SPANS_JSON.  Nothing under src/ is
edited and no private name is wrapped.  A target that no longer exists is
reported as missing, so a refactor that renames it does not break the run.

Spans live in memory and are written once, when the command has finished.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time

# (module, attribute, span name).  A name may be looked up in several
# modules; each lookup site is wrapped, so every call is seen exactly once.
SPANS = [
    ("tcmv.cli", "main", "cli.main"),
    ("tcmv.cli", "load_config", "cli.load_config"),
    ("tcmv.cli", "solve_model1", "model1.solve"),
    ("tcmv.cli", "solve_model2", "model2.solve"),
    ("tcmv.cli", "evaluate_model2", "model2.evaluate"),
    ("tcmv.cli", "gain_residual", "model2.residual"),
    ("tcmv.cli", "solve_model3", "model3.solve"),
    ("tcmv.model3", "solve_model3", "model3.solve"),
    ("tcmv.model3", "solve_k1", "model3.solve_k1"),
    ("tcmv.model3", "build_kernels", "model3.build_kernels"),
    ("tcmv.model3", "solve_k2", "model3.solve_k2"),
    ("tcmv.model3", "moments", "model3.moments"),
    ("tcmv.cli", "intercept_residual", "model3.residual"),
    ("tcmv.cli", "gain_bound_constant", "model3.gain_bound"),
    ("tcmv.cli", "intercept_bound_constant", "model3.intercept_bound"),
    ("tcmv.numerics", "picard_solve", "numerics.picard"),
    ("tcmv.model2", "picard_solve", "numerics.picard"),
    ("tcmv.model3", "picard_solve", "numerics.picard"),
    ("tcmv.numerics", "tail_integrals", "numerics.tail_integrals"),
    ("tcmv.model2", "tail_integrals", "numerics.tail_integrals"),
    ("tcmv.model3", "tail_integrals", "numerics.tail_integrals"),
    ("tcmv.cli", "simulate", "montecarlo.simulate"),
    ("tcmv.montecarlo", "simulate", "montecarlo.simulate"),
    ("tcmv.cli", "reproduce_figure_paths", "montecarlo.paths"),
]

# Called thousands of times inside the bound constants: counted, not spanned.
COUNTED = [
    ("tcmv.cli", "convergence_bound", "numerics.convergence_bound_calls"),
    ("tcmv.numerics", "convergence_bound", "numerics.convergence_bound_calls"),
]


class Tracer:
    """In-memory spans (id, name, start, end, parent id), counts and timers.

    Spans opened on a worker thread with nothing open on that thread take
    the innermost span open on the main thread as parent, so the parallel
    (gamma, T) solves nest under the command that started them.
    """

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: dict[str, int] = {}
        self.timers: dict[str, float] = {}
        self.missing: set[str] = set()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def add(self, key: str, amount: float, table: dict | None = None):
        table = self.counts if table is None else table
        with self._lock:
            table[key] = table.get(key, 0) + amount

    def span(self, name: str, fn, prepare=None):
        """fn wrapped in a span; prepare(bound_arguments) may replace
        arguments and returns a callback that sees the result."""
        signature = inspect.signature(fn) if prepare else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            finish = None
            if prepare:
                bound = signature.bind(*args, **kwargs)
                finish = prepare(bound.arguments)
                args, kwargs = bound.args, bound.kwargs
            stack = self._stack()
            main = self._main_stack
            parent = stack[-1] if stack else (main[-1] if main else None)
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append((sid, name, start, end, parent))
            if finish:
                finish(result)
            return result

        return traced

    def counted(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(key, 1)
            return fn(*args, **kwargs)

        return wrapper

    def timed(self, key: str, fn):
        """Accumulated time and call count, for callables too hot for spans."""

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(key + "_s", time.perf_counter() - start, self.timers)
                self.add(key + "_calls", 1)

        return wrapper

    def _prepare_simulate(self, arguments):
        strategy, cfg = arguments.get("strategy"), arguments.get("cfg")
        if callable(strategy):
            arguments["strategy"] = self.timed("montecarlo.strategy", strategy)
        else:
            self.missing.add("montecarlo.strategy")
        try:
            self.add("montecarlo.path_steps", int(cfg.n_paths) * int(cfg.n_time_steps))
        except AttributeError:
            self.missing.add("montecarlo.path_steps")

        def finish(report):
            try:
                self.add("montecarlo.n_excluded", int(report.n_excluded))
            except AttributeError:
                self.missing.add("montecarlo.n_excluded")

        return finish

    def _prepare_picard(self, arguments):
        step = arguments.get("step")
        if callable(step):
            arguments["step"] = self.counted("numerics.picard_sweeps", step)
        else:
            self.missing.add("numerics.picard_sweeps")
        return None

    def install(self):
        """Wrap every target that exists; record span names with none."""
        prepare = {"montecarlo.simulate": self._prepare_simulate,
                   "numerics.picard": self._prepare_picard}
        found = set()
        for module_name, attr, name in SPANS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if callable(fn):
                setattr(module, attr, self.span(name, fn, prepare.get(name)))
                found.add(name)
        self.missing |= {name for _, _, name in SPANS} - found
        found = set()
        for module_name, attr, key in COUNTED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if callable(fn):
                setattr(module, attr, self.counted(key, fn))
                found.add(key)
        self.missing |= {key for _, _, key in COUNTED} - found

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "timers": self.timers, "missing": sorted(self.missing)}, fh)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


# Wall seconds summed over all spans of one name.
SPAN_SECONDS = {
    "cli.load_config_s": "cli.load_config",
    "model1.solve_s": "model1.solve",
    "model2.solve_s": "model2.solve",
    "model2.evaluate_s": "model2.evaluate",
    "model2.residual_s": "model2.residual",
    "model3.solve_s": "model3.solve",
    "model3.solve_k1_s": "model3.solve_k1",
    "model3.build_kernels_s": "model3.build_kernels",
    "model3.solve_k2_s": "model3.solve_k2",
    "model3.moments_s": "model3.moments",
    "model3.residual_s": "model3.residual",
    "model3.gain_bound_s": "model3.gain_bound",
    "model3.intercept_bound_s": "model3.intercept_bound",
    "numerics.picard_s": "numerics.picard",
    "montecarlo.simulate_s": "montecarlo.simulate",
    "montecarlo.paths_s": "montecarlo.paths",
}
SPAN_CALLS = {
    "numerics.picard_calls": "numerics.picard",
    "numerics.tail_integrals_calls": "numerics.tail_integrals",
    "montecarlo.simulate_calls": "montecarlo.simulate",
}
COUNTS = ["numerics.picard_sweeps", "numerics.convergence_bound_calls",
          "montecarlo.path_steps", "montecarlo.strategy_calls", "montecarlo.n_excluded"]
SELF_LAYERS = ["cli", "model2", "model3", "numerics"]

# What each metric needs: span names from SPANS, and counts or timers that a
# wrapper records only when the wrapped call has the expected arguments.
SOURCES = {
    **{metric: (name,) for metric, name in {**SPAN_SECONDS, **SPAN_CALLS}.items()},
    **{f"{layer}.self_s": tuple(n for _, _, n in SPANS if n.startswith(layer + "."))
       for layer in SELF_LAYERS},
    "numerics.picard_sweeps": ("numerics.picard", "numerics.picard_sweeps"),
    "numerics.convergence_bound_calls": ("numerics.convergence_bound_calls",),
    "montecarlo.path_steps": ("montecarlo.simulate", "montecarlo.path_steps"),
    "montecarlo.path_steps_per_s": ("montecarlo.simulate", "montecarlo.path_steps"),
    "montecarlo.strategy_s": ("montecarlo.simulate", "montecarlo.strategy"),
    "montecarlo.strategy_calls": ("montecarlo.simulate", "montecarlo.strategy"),
    "montecarlo.step_self_s": ("montecarlo.simulate", "montecarlo.strategy"),
    "montecarlo.n_excluded": ("montecarlo.simulate", "montecarlo.n_excluded"),
}


def missing_metrics(missing: list[str]) -> set[str]:
    """Metrics that cannot be measured because a source is missing; a
    layer's self time only when all of that layer's spans are."""
    return {metric for metric, sources in SOURCES.items()
            if (set(sources) <= set(missing) if metric.endswith(".self_s")
                else set(sources) & set(missing))}


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run (see SOURCES for their names)."""
    spans = [tuple(s) for s in trace["spans"]]
    children: dict[int, list[tuple]] = {}
    for s in spans:
        children.setdefault(s[4], []).append(s)
    out: dict[str, float] = {}
    for metric, name in SPAN_SECONDS.items():
        out[metric] = sum(s[3] - s[2] for s in spans if s[1] == name)
    for metric, name in SPAN_CALLS.items():
        out[metric] = sum(1 for s in spans if s[1] == name)
    for key in COUNTS:
        out[key] = trace["counts"].get(key, 0)
    for layer in SELF_LAYERS:
        total = 0.0
        for s in spans:
            if s[1].split(".")[0] == layer:
                inside = [(max(c[2], s[2]), min(c[3], s[3])) for c in children.get(s[0], [])]
                total += (s[3] - s[2]) - _covered([iv for iv in inside if iv[1] > iv[0]])
        out[f"{layer}.self_s"] = total
    out["montecarlo.strategy_s"] = trace["timers"].get("montecarlo.strategy_s", 0.0)
    out["montecarlo.step_self_s"] = out["montecarlo.simulate_s"] - out["montecarlo.strategy_s"]
    out["montecarlo.path_steps_per_s"] = (
        out["montecarlo.path_steps"] / out["montecarlo.simulate_s"]
        if out["montecarlo.simulate_s"] > 0 else 0.0)
    return out


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    cli = sys.modules["tcmv.cli"]
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
