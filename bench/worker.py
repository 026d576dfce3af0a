"""
One repeat of one workload in a fresh interpreter.

Run by ``run.py``, never by hand.  The first thing it does is import
``sqglab`` (with numpy and scipy) and time that import, because a CLI user
pays it on every invocation.  Then it makes the inputs, starts the clock,
runs the workload and its output checks, stops the clock, and writes one
JSON record to ``--out``.  With ``--trace 1`` the public functions of every
``sqglab`` module are wrapped first and the spans go into the record.
"""

import time

_t0 = time.perf_counter()
import sqglab  # noqa: E402
import sqglab.cli  # noqa: E402,F401
import numpy  # noqa: E402
import scipy  # noqa: E402
import scipy.fft  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--repeat", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args()

    src = Path(args.src).resolve()
    if Path(sqglab.__file__).resolve().parent != src / "sqglab":
        raise SystemExit(f"imported sqglab from {sqglab.__file__}, expected {src / 'sqglab'}")

    prepare, run, check = workloads.WORKLOADS[args.workload]
    inputs = prepare(args.seed, Path(args.work))
    recorder = None
    if args.trace:
        recorder = spans.Recorder(args.repeat)
        spans.install(recorder)

    t_start = time.perf_counter()
    try:
        checks = check(run(inputs))
        error = None
    except Exception:  # a raising repeat is a failed operation, not a crashed benchmark
        checks, error = [], traceback.format_exc()
    wall_s = time.perf_counter() - t_start

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "repeat": args.repeat,
        "traced": bool(args.trace),
        "import_s": IMPORT_S,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fft_workers": scipy.fft.get_workers(),
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok": error is None and workloads.passed(checks),
        "checks": [[name, bool(ok), detail] for name, ok, detail in checks],
        "error": error,
        "spans": recorder.spans if recorder else [],
    }
    Path(args.out).write_text(json.dumps(record))


if __name__ == "__main__":
    main()
