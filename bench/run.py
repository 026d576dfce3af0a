"""
sqglab benchmark: runs a workload, checks its outputs and prints every metric
by name with its unit; the last line of standard output is one JSON object.

    python3 bench/run.py                                  # every workload, untraced
    python3 bench/run.py --workload ladder1024 --seed 3 --seconds 30 --trace 0
    python3 bench/run.py --workload cli_bump256 --trace 1  # per-layer metrics

Workloads, metrics and bounds are declared in ``BENCHMARK.json`` at the root
of the checkout; the program is imported from ``src/`` of the same checkout
(or from ``--src``).  Every repeat runs in a fresh interpreter
(``worker.py``), because CLI users pay the imports and the lazy caches
(``grid._Spectra``, ``kernel._GL_CACHE``, the ``ladder_tie_phase`` cache) on
every invocation.  Load comes from one process, single-threaded: scipy FFT
keeps its default of one worker and the BLAS/OpenMP thread variables are
pinned to 1.

End-to-end metrics come from untraced repeats.  With ``--trace 1`` the run
alternates untraced and traced repeats; per-layer metrics come from the
traced ones and ``trace.overhead_s`` is the difference of the two medians.
A full result file with the environment stamp, every repeat and (traced)
every span is written to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from workloads import GRIDS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = ROOT / ".bench_out"

PINNED_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
}
SETUP_PROBES = 3
WORKER_TIMEOUT_S = 170
PROBE = (
    "import time; t = time.perf_counter(); import sqglab, sqglab.cli; "
    "print(time.perf_counter() - t)"
)


class BenchError(RuntimeError):
    """The benchmark cannot measure: no result is printed and the exit code is 1."""


def child_env(src: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_probe(env: dict) -> float:
    """Seconds a fresh interpreter takes to import sqglab with numpy and scipy."""
    p = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT, capture_output=True,
                       text=True, timeout=WORKER_TIMEOUT_S)
    if p.returncode != 0:
        raise BenchError(f"importing sqglab failed:\n{p.stderr.strip()}")
    return float(p.stdout.strip().splitlines()[-1])


def run_worker(workload: str, seed: int, repeat: int, traced: bool, src: Path, env: dict) -> dict:
    """One repeat in a fresh interpreter.  A worker that dies, hangs or
    writes no record counts as a failed repeat."""
    tag = f"{workload}_seed{seed}_r{repeat}{'_traced' if traced else ''}"
    out = OUT / "repeats" / f"{tag}.json"
    log = OUT / "logs" / f"{tag}.log"
    for d in (out.parent, log.parent):
        d.mkdir(parents=True, exist_ok=True)
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--repeat", str(repeat), "--trace", str(int(traced)), "--src", str(src),
           "--work", str(OUT / "work" / workload), "--out", str(out)]
    with open(log, "w") as fh:
        try:
            rc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT,
                                timeout=WORKER_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            rc = "timeout"
    if rc == 0 and out.exists():
        return json.loads(out.read_text())
    return {"workload": workload, "seed": seed, "repeat": repeat, "traced": traced, "ok": False,
            "crashed": True, "error": f"worker exit {rc}; log {log.relative_to(ROOT)}"}


def measure(workload: str, seed: int, seconds: float, trace: bool, src: Path) -> tuple[list, list]:
    """Setup probes (untraced runs only), then repeats until ``seconds`` have
    been measured: another repeat starts only if the last one would still
    fit.  With tracing, repeats alternate untraced/traced in pairs."""
    env = child_env(src)
    probes = [] if trace else [setup_probe(env) for _ in range(SETUP_PROBES)]
    records: list[dict] = []
    t0 = time.perf_counter()
    last = 0.0
    while not records or time.perf_counter() - t0 + last <= seconds:
        start = time.perf_counter()
        for traced in ((False, True) if trace else (False,)):
            records.append(run_worker(workload, seed, len(records), traced, src, env))
        last = time.perf_counter() - start
    if all(r.get("crashed") for r in records):
        raise BenchError(f"every repeat of {workload} crashed: {records[0]['error']}")
    return probes, records


def failing_checks(records: list) -> dict[str, int]:
    """Output check name -> number of repeats in which it failed.  A repeat
    that raised counts under "workload raised", one whose worker died under
    "worker crashed"."""
    out: dict[str, int] = {}
    for r in records:
        names = {n for n, ok, _ in r.get("checks", []) if not ok}
        if r.get("crashed"):
            names.add("worker crashed")
        elif r.get("error"):
            names.add("workload raised")
        for n in names:
            out[n] = out.get(n, 0) + 1
    return dict(sorted(out.items()))


def summarize(spec: dict, probes: list, records: list, trace: bool) -> tuple[dict, dict]:
    """(metrics for the JSON line, everything else for the result file)."""
    done = [r for r in records if not r.get("crashed")]
    plain = [r for r in done if not r["traced"]]
    failed = sum(not r["ok"] for r in records)
    extra = {
        "attempted": len(records),
        "failed": failed,
        "failed_share": failed / len(records),
        "failing_checks": failing_checks(records),
        "samples": {
            "wall_s": [r["wall_s"] for r in plain],
            "setup_s": probes + [r["import_s"] for r in done],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        },
    }
    metrics = {}
    if not trace:
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": statistics.median(extra["samples"][m["name"]]), "unit": m["unit"]}
        return metrics, extra

    traced = [r for r in done if r["traced"]]
    per_repeat = [(spans.aggregate(r["spans"]), r["wall_s"]) for r in traced]
    overhead = statistics.median([r["wall_s"] for r in traced]) - statistics.median(extra["samples"]["wall_s"])
    for m in spec["per_layer"]:
        if m["name"] == "trace.overhead_s":
            value = overhead
        else:
            # counts stay whole numbers: they are expected to agree across repeats
            middle = statistics.median_low if m["unit"] == "count" else statistics.median
            value = middle([spans.metric(agg, m["name"], wall) for agg, wall in per_repeat])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    tables = [spans.all_metrics(agg, wall) for agg, wall in per_repeat]
    names = sorted({k for t in tables for k in t})
    extra["all_per_layer"] = {k: statistics.median([t.get(k, 0.0) for t in tables]) for k in names}
    return metrics, extra


# ---------------------------------------------------------------------------
# environment stamp
# ---------------------------------------------------------------------------


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def cpu_caches() -> dict:
    out = {}
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read(d / "type") in ("Unified", "Data"):
            out[f"L{_read(d / 'level')}"] = _read(d / "size")
    return out


def cpu_model() -> str:
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor()


def git_commit(src: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(src.parent.parent))
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=src.parent, env=env,
                           capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return p.stdout.strip() if p.returncode == 0 else "unknown (not a git checkout)"


def _bytes(size: str) -> int:
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    size = size.strip()
    return int(size[:-1]) * units[size[-1]] if size and size[-1] in units else int(size or 0)


def environment(workload: str, seed: int, src: Path, records: list) -> dict:
    caches = cpu_caches()
    first = next((r for r in records if not r.get("crashed")), {})
    fields = {
        str(n): {"real_f64": 8 * n * n, "rfft_c128": 16 * n * (n // 2 + 1), "fft_c128": 16 * n * n}
        for n in GRIDS[workload]
    }
    largest = max(GRIDS[workload])
    real = 8 * largest * largest
    l2, l3 = _bytes(caches.get("L2", "0")), _bytes(caches.get("L3", "0"))
    where = "fits in L2" if real <= l2 else "larger than L2, inside L3" if real <= l3 else "larger than L3"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": first.get("numpy"),
        "scipy": first.get("scipy"),
        "fft_workers": first.get("fft_workers"),
        "pinned_threads": PINNED_THREADS,
        "git_commit": git_commit(src),
        "seed": seed,
        "field_bytes": fields,
        "bandwidth_note": (
            f"largest field {largest}^2 is {real / 2**20:g} MiB real ({where}); this is not a "
            f"memory-bandwidth measurement, which needs arrays of at least 4x the last-level "
            f"cache ({4 * l3 / 2**20:g} MiB)"
        ),
    }


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: bool, src: Path) -> dict:
    probes, records = measure(workload, seed, seconds, trace, src)
    metrics, extra = summarize(spec, probes, records, trace)
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload)
    OUT.mkdir(exist_ok=True)
    result = {
        "workload": workload,
        "why": why,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(workload, seed, src, records),
        "metrics": metrics,
        **extra,
        "repeats": [{k: v for k, v in r.items() if k != "spans"} for r in records],
    }
    if trace:
        result["spans"] = [s for r in records for s in r.get("spans", [])]
    path = OUT / f"{workload}_seed{seed}_trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=1))

    print(f"== {workload} (seed {seed}, {len(records)} repeats, {'traced' if trace else 'untraced'})")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'failed_share':48s} {extra['failed_share']:>16.6g} ratio "
          f"({extra['failed']} of {extra['attempted']} repeats)")
    for k, v in extra.get("all_per_layer", {}).items():
        if k not in metrics:
            print(f"  {k:46s} {v:>16.6g}")
    for r in records:
        reasons = r["error"].strip().splitlines()[-1:] if r.get("error") else []
        reasons += [f"{n} ({d})" for n, ok, d in r.get("checks", []) if not ok]
        if reasons:
            print(f"  repeat {r['repeat']} FAILED: " + "; ".join(reasons))
    print(f"  result file {path.relative_to(ROOT)}")
    return {"correct": extra["failed"] == 0, "attempted": extra["attempted"],
            "failed": extra["failed"], "metrics": metrics}


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="all", choices=names + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--src", default=str(ROOT / "src"), help="sqglab source tree to measure")
    args = p.parse_args(argv)

    src = Path(args.src).resolve()
    try:
        if not (src / "sqglab" / "__init__.py").is_file():
            raise BenchError(f"no sqglab package under {src}")
        results = {w: run_workload(spec, w, args.seed, args.seconds, bool(args.trace), src)
                   for w in (names if args.workload == "all" else [args.workload])}
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    if len(results) == 1:
        line = next(iter(results.values()))
    else:
        line = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
