"""
Span recorder for the traced run.

The benchmark wraps the public functions of each ``sqglab`` module from the
outside; the program itself is not changed.  A span keeps its name, start,
end, parent span and repeat id in memory; the worker writes the spans out
when the repeat ends.  Self time is a span's duration minus the part of that
interval its child spans cover.

Counts are taken at the same boundaries from a function's arguments and
result (steps of a simulation, Picard iterations, tabulated radii, bytes
written), so per-call ratios are measured where the work happens.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from pathlib import Path

LAYERS = ("cli", "runconfig", "initial_data", "grid", "solver", "kernel", "special", "verify", "io")

# derived rates: metric stat -> (count it divides by, scale of busy seconds)
RATES = {
    "ns_per_point_step": ("point_steps", 1e9),
    "ms_per_iteration": ("iterations", 1e3),
    "ms_per_radius": ("radii", 1e3),
}


class Recorder:
    """In-memory spans of one repeat: [id, parent, name, start, end, repeat, counts]."""

    def __init__(self, repeat: int):
        self.repeat = repeat
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None, namer=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(self.spans), self._stack[-1] if self._stack else None,
                    namer(args, kwargs) if namer else name, time.perf_counter(), None, self.repeat, None]
            self.spans.append(span)
            self._stack.append(span[0])
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[4] = time.perf_counter()
            if count is not None:
                span[6] = count(args, kwargs, out)
            return out

        return traced


# ---------------------------------------------------------------------------
# counts taken at function boundaries
# ---------------------------------------------------------------------------


def simulation_counts(args, kwargs, result) -> dict:
    """IF-RK4 steps, derived from the diagnostics times; a step is CFL-limited
    when it is shorter than the configured dt without landing on a snapshot
    time or t_end."""
    cfg = result.config
    times = [r.time for r in result.diagnostics]
    targets = [s for s in cfg.snapshot_times if s > 0] + [cfg.t_end]
    cfl = 0
    for t0, t1 in zip(times, times[1:]):
        lands = any(abs(t1 - s) <= 1e-9 * max(1.0, s) for s in targets)
        if not lands and t1 - t0 < cfg.dt * (1 - 1e-9):
            cfl += 1
    steps = len(times) - 1
    return {"steps": steps, "cfl_limited_steps": cfl, "point_steps": steps * cfg.grid.n**2}


def picard_counts(args, kwargs, result) -> dict:
    return {"iterations": len(result.distances)}


def profile_counts(args, kwargs, result) -> dict:
    return {"radii": len(result.radii)}


def write_run_counts(args, kwargs, result) -> dict:
    run_dir = Path(args[0] if args else kwargs["run_dir"])
    files = [p for p in run_dir.iterdir() if p.name == "diagnostics.csv" or p.suffix == ".sqgf"]
    return {"bytes": sum(p.stat().st_size for p in files)}


COUNTS = {
    "solver.run_simulation": simulation_counts,
    "solver.picard_iterate": picard_counts,
    "kernel.build_profile": profile_counts,
    "io.write_run": write_run_counts,
}
COUNT_STATS = ("steps", "cfl_limited_steps", "point_steps", "iterations", "radii", "bytes")


def _cli_namer(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.{argv[0]}" if argv else "cli.main"


def public_functions(module) -> dict:
    """Non-underscore callables defined in ``module`` (classes excluded)."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and callable(obj)
        and not inspect.isclass(obj)
        and getattr(obj, "__module__", None) == module.__name__
    }


def install(recorder: Recorder) -> None:
    """Wrap the public functions of every layer module.  Each reference to an
    original function held by any loaded ``sqglab`` module (``from .grid
    import apply_semigroup`` copies one) is replaced, so internal calls are
    traced too."""
    replaced = {}
    for layer in LAYERS:
        module = importlib.import_module(f"sqglab.{layer}")
        for name, fn in public_functions(module).items():
            qual = f"{layer}.{name}"
            namer = _cli_namer if qual == "cli.main" else None
            replaced[id(fn)] = (fn, recorder.wrap(qual, fn, COUNTS.get(qual), namer))
    modules = [m for n, m in list(sys.modules.items()) if n == "sqglab" or n.startswith("sqglab.")]
    for module in modules:
        for attr, obj in list(vars(module).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> dict[int, float]:
    children: dict[int, list] = {}
    for s in spans:
        if s[1] is not None:
            children.setdefault(s[1], []).append((s[3], s[4]))
    return {s[0]: (s[4] - s[3]) - covered(s[3], s[4], children.get(s[0], ())) for s in spans}


def aggregate(spans) -> dict[str, dict]:
    """Per span name: calls, busy_s (total span time), self_s and summed counts."""
    own = self_times(spans)
    out: dict[str, dict] = {}
    for s in spans:
        a = out.setdefault(s[2], {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "counts": {}})
        a["calls"] += 1
        a["busy_s"] += s[4] - s[3]
        a["self_s"] += own[s[0]]
        for k, v in (s[6] or {}).items():
            a["counts"][k] = a["counts"].get(k, 0) + v
    return out


def metric(agg: dict, name: str, wall_s: float) -> float:
    """Value of ``<module>.<function>.<stat>`` from an aggregate; a function
    that was never called reads 0."""
    fn, stat = name.rsplit(".", 1)
    a = agg.get(fn, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "counts": {}})
    if stat in ("calls", "busy_s", "self_s"):
        return a[stat]
    if stat in ("busy_pct", "self_pct"):
        return 100.0 * a[stat[:-4] + "_s"] / wall_s
    if stat in RATES:
        count, scale = RATES[stat]
        n = a["counts"].get(count, 0)
        return scale * a["busy_s"] / n if n else 0.0
    if stat in COUNT_STATS:
        return a["counts"].get(stat, 0)
    raise KeyError(f"unknown per-layer metric {name!r}")


def all_metrics(agg: dict, wall_s: float) -> dict[str, float]:
    """Every per-layer metric the trace supports, for the result file."""
    out = {}
    for fn in sorted(agg):
        stats = ["calls", "busy_s", "self_s", "busy_pct", "self_pct", *sorted(agg[fn]["counts"])]
        stats += [r for r, (c, _) in RATES.items() if c in agg[fn]["counts"]]
        for stat in stats:
            out[f"{fn}.{stat}"] = metric(agg, f"{fn}.{stat}", wall_s)
    return out

