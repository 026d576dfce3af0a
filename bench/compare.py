"""
Compare two source trees (a parent commit and a change) with identical
benchmark code and settings.

    python3 bench/compare.py --base ../parent --head . [--workload ladder1024]

``--base`` and ``--head`` are checkouts holding ``src/sqglab``; both are
measured by this checkout's ``bench/run.py`` with the settings of
``BENCHMARK.json`` (``run_seconds`` per run).  There are 10 pairs; pair ``i``
uses seed ``i`` on both sides and alternates which side runs first.  For each
workload and end-to-end metric the report gives each side's median and
quartiles, the share of pairs the change won (ties count for neither) and a
verdict against the bound in ``BENCHMARK.json``:

- ``unresolved``: the run-to-run spread (quartile distance over median) of
  either side exceeds the bound, and not every run of the change beat every
  run of the parent;
- ``regression``: the change's median is worse than the parent's by more
  than the bound;
- ``gain``: the change won at least 9 of 10 pairs and the medians differ by
  more than the parent's quartile distance;
- ``better in every run``: every run of the change beat every run of the
  parent, without meeting the rule for a gain;
- ``within bound`` otherwise.

A change that fails a larger share of its repeats than the parent gets no
``gain`` and no ``better in every run``: those verdicts become ``within
bound``.  Output checks that fail on the change but never on the parent are
listed by name, so a new failure shows next to a known one.

A traced run per side and workload then compares every count (unit
``count``); any count that differs between the sides is flagged, since a
speed-only change must leave them unchanged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PAIRS = 10


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare_metric(base: list[float], head: list[float], better: str, bound: float,
                   failed_share: tuple[float, float] = (0.0, 0.0)) -> dict:
    """Verdict for one (metric, workload) pair; ``base[i]`` and ``head[i]``
    come from pair ``i``; ``failed_share`` is the share of failed repeats of
    (base, head)."""
    sign = 1.0 if better == "lower" else -1.0
    bq, hq = quartiles(base), quartiles(head)
    wins = sum(sign * (b - h) > 0 for b, h in zip(base, head))
    spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (bq, hq))
    worse = sign * (hq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
    all_better = all(sign * (b - h) > 0 for b in base for h in head)
    if spread > bound and not all_better:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "regression"
    elif wins >= 0.9 * len(base) and sign * (bq[1] - hq[1]) > bq[2] - bq[0]:
        verdict = "gain"
    elif all_better:
        verdict = "better in every run"
    else:
        verdict = "within bound"
    if failed_share[1] > failed_share[0] and verdict in ("gain", "better in every run"):
        verdict = "within bound"
    return {
        "base": bq, "head": hq, "win_share": wins / len(base),
        "change": -worse, "spread": spread, "verdict": verdict,
    }


def run_side(src: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(the JSON line, the failing checks from the result file) of one run."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--src", str(src)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if p.returncode != 0:
        raise SystemExit(f"benchmark failed on {src}:\n{p.stderr.strip()}")
    result = json.loads((ROOT / ".bench_out" / f"{workload}_seed{seed}_trace{trace}.json").read_text())
    return json.loads(p.stdout.strip().splitlines()[-1]), result["failing_checks"]


def new_failures(base: list[dict], head: list[dict]) -> dict[str, int]:
    """Checks that failed in some run of ``head`` and in no run of ``base``,
    with the number of head repeats they failed in."""
    known = {n for f in base for n in f}
    out: dict[str, int] = {}
    for f in head:
        for n, k in f.items():
            if n not in known:
                out[n] = out.get(n, 0) + k
    return dict(sorted(out.items()))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--base", required=True, help="checkout of the parent commit")
    p.add_argument("--head", required=True, help="checkout of the change")
    p.add_argument("--workload", action="append", choices=names, help="default: every workload")
    args = p.parse_args(argv)
    seconds = spec["run_seconds"]
    sides = {"base": Path(args.base).resolve() / "src", "head": Path(args.head).resolve() / "src"}
    workloads = args.workload or names

    runs = {w: {s: [] for s in sides} for w in workloads}
    checks = {w: {s: [] for s in sides} for w in workloads}
    for i in range(PAIRS):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for w in workloads:
            for side in order:
                line, failing = run_side(sides[side], w, i, seconds, 0)
                runs[w][side].append(line)
                checks[w][side].append(failing)

    report = {}
    print(f"{'workload':16s} {'metric':12s} {'base median [q1, q3]':>32s} {'head median [q1, q3]':>32s}"
          f" {'win':>5s} {'better':>8s}  verdict")
    for w in workloads:
        failed = {s: sum(r["failed"] for r in runs[w][s]) for s in sides}
        attempted = {s: sum(r["attempted"] for r in runs[w][s]) for s in sides}
        share = {s: failed[s] / attempted[s] for s in sides}
        report[w] = {"failed": failed, "attempted": attempted, "new_failures": new_failures(checks[w]["base"], checks[w]["head"])}
        for m in spec["end_to_end"]:
            vals = {s: [r["metrics"][m["name"]]["value"] for r in runs[w][s]] for s in sides}
            c = compare_metric(vals["base"], vals["head"], m["better"], m["bound"],
                               (share["base"], share["head"]))
            report[w][m["name"]] = c
            fmt = "{1:.4g} [{0:.4g}, {2:.4g}]"
            print(f"{w:16s} {m['name']:12s} {fmt.format(*c['base']):>32s} {fmt.format(*c['head']):>32s}"
                  f" {c['win_share']:5.2f} {c['change']:+8.2%}  {c['verdict']}")
        print(f"{w:16s} failed repeats: base {failed['base']} of {attempted['base']},"
              f" head {failed['head']} of {attempted['head']}")
        for n, k in report[w]["new_failures"].items():
            print(f"{w:16s} NEW FAILURE {n}: failed in {k} head repeats, in no base repeat")
        traced = {s: run_side(sides[s], w, 0, seconds, 1)[0]["metrics"] for s in sides}
        counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
        differ = {k: (traced["base"][k]["value"], traced["head"][k]["value"]) for k in counts
                  if traced["base"][k]["value"] != traced["head"][k]["value"]}
        report[w]["counts_differ"] = differ
        for k, (b, h) in differ.items():
            print(f"{w:16s} COUNT DIFFERS {k}: base {b}, head {h}")
    out = ROOT / ".bench_out" / "compare.json"
    out.parent.mkdir(exist_ok=True)
    settings = {**vars(args), "pairs": PAIRS, "seconds": seconds}
    out.write_text(json.dumps({"settings": settings, "report": report, "runs": runs, "failing_checks": checks},
                              indent=1))
    print(f"report {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
