"""
Self-test of the benchmark: each output check rejects a corrupted result and
raises ``failed_share``; the span arithmetic and the compare verdicts are
exact on hand-made inputs.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py -q
"""

import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import compare
import run
import spans
import workloads as W

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def good_cli():
    rows = [(n, True) for n in W.VERDICT_ROWS]
    limits = {"t_to_0": [0.004, 0.03, 0.02], "x_to_inf": [0.2, 0.1, 0.05, 0.02, 0.01]}
    return {str(a): {"simulate": 0, "verify": 0, "verdicts": list(rows),
                     "limits": {k: list(v) for k, v in limits.items()}} for a in W.ALPHAS}


def good_ladder():
    return {
        "alpha": 1.5,
        "linf": [1.0, 0.9, 0.8, 0.8 * (1 + 1e-7)],
        "l2": [2.0, 1.9, 1.8, 1.7],
        "slope": -1 / 3 + 0.04,
    }


def good_kernel():
    lp = []
    for a in W.ALPHAS:
        for k in (0, 1):
            for p in (2.0, math.inf):
                want = -(2 / a) * (1 - (0 if math.isinf(p) else 1 / p)) - k / a
                lp.append([a, k, p, want + 0.01, want])
    conv = [[W._beta(1 - (a - 1) / a, 1 - 1 / a)] * 2 for a in W.ALPHAS]
    return {
        "mass": {str(a): 1.0 + 3e-9 for a in W.ALPHAS},
        "gauss_dev": 2e-8,
        "cauchy_dev": 5e-9,
        "interval": {str(a): [0.1, 1.0] for a in W.ALPHAS},
        "lp_slopes": lp,
        "round_trip_exact": {str(a): True for a in W.ALPHAS},
        "picard": {str(a): {"rel_l2": 1.4e-6, "converged": True} for a in W.ALPHAS},
        "beta_half": math.pi,
        "beta_third": 2 * math.pi / math.sqrt(3),
        "time_convolution": conv,
        "radial_ratios": [2.4, 3.1],
        "tgamma_dev": 1e-14,
    }


def _set(path, value):
    def corrupt(o):
        *head, last = path
        for k in head:
            o = o[k]
        o[last] = value(o[last]) if callable(value) else value
    return corrupt


CORRUPTIONS = {
    "cli_bump256": (good_cli, [
        _set(["1.5", "simulate"], 2),
        _set(["1.8", "verify"], 1),
        _set(["1.2", "verdicts", 3], ("ratio_comparability", False)),
        _set(["1.5", "verdicts"], lambda v: v[:-1]),
        _set(["1.8", "verdicts"], []),
        _set(["1.2", "limits", "t_to_0", 0], 0.06),
        _set(["1.5", "limits", "t_to_0", 0], 0.025),
        _set(["1.8", "limits", "x_to_inf", 4], 0.3),
        _set(["1.8", "limits", "x_to_inf"], lambda v: v[::-1]),
        _set(["1.2", "limits", "x_to_inf"], []),
    ]),
    "ladder1024": (good_ladder, [
        _set(["linf", 2], 0.9 * (1 + 2e-6)),
        _set(["l2", 3], 1.8 * (1 + 2e-6)),
        _set(["slope"], -1 / 3 - 0.06),
        _set(["slope"], math.nan),
    ]),
    "kernel_crossval": (good_kernel, [
        _set(["mass", "1.2"], 1.0 + 2e-8),
        _set(["mass", "1.8"], math.nan),
        _set(["gauss_dev"], 2e-6),
        _set(["cauchy_dev"], 2e-6),
        _set(["interval", "1.5"], [0.0, 1.0]),
        _set(["interval", "1.8"], [0.1, math.inf]),
        _set(["lp_slopes", 4, 3], lambda s: s + 0.03),
        _set(["round_trip_exact", "1.5"], False),
        _set(["picard", "1.2", "rel_l2"], 2e-3),
        _set(["picard", "1.8", "converged"], False),
        _set(["beta_half"], math.pi * (1 + 1e-11)),
        _set(["beta_third"], 3.6),
        _set(["time_convolution", 1, 0], lambda v: v * (1 + 1e-7)),
        _set(["radial_ratios"], [0.0, 3.0]),
        _set(["tgamma_dev"], 2e-3),
    ]),
}


def record(ok):
    return {"traced": False, "ok": ok, "wall_s": 10.0, "import_s": 0.8, "peak_rss_mb": 100.0, "spans": []}


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_good_outcome_passes(name):
    good, _ = CORRUPTIONS[name]
    checks = W.WORKLOADS[name][2](good())
    assert W.passed(checks), [c for c in checks if not c[1]]


@pytest.mark.parametrize("name,i", [(n, i) for n, (_, cs) in CORRUPTIONS.items() for i in range(len(cs))])
def test_corrupted_outcome_fails_and_raises_failed_share(name, i):
    good, corruptions = CORRUPTIONS[name]
    outcome = copy.deepcopy(good())
    corruptions[i](outcome)
    ok = W.passed(W.WORKLOADS[name][2](outcome))
    assert not ok
    _, extra = run.summarize(SPEC, [0.8], [record(True), record(ok)], trace=False)
    assert extra["failed_share"] == 0.5
    assert extra["failed"] == 1 and extra["attempted"] == 2


def test_no_checks_is_a_failure():
    assert not W.passed([])


def test_seed_zero_is_the_acceptance_configuration():
    assert W.bump_rotation(0) == 0.0 and W.ladder_shift(0) == (0, 0)
    assert W.bump_rotation(7) == W.bump_rotation(7) != W.bump_rotation(8)
    assert W.ladder_shift(7) == W.ladder_shift(7)
    assert all(0 <= s < W.LADDER_N for s in W.ladder_shift(7))


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def test_covered_merges_overlaps_and_clips():
    assert spans.covered(0.0, 10.0, []) == 0.0
    assert spans.covered(0.0, 10.0, [(1, 3), (2, 5), (7, 8)]) == 5.0
    assert spans.covered(2.0, 6.0, [(0, 3), (5, 9)]) == 2.0
    assert spans.covered(0.0, 10.0, [(4, 6), (1, 9)]) == 8.0


def test_self_time_subtracts_direct_children_only():
    s = [
        [0, None, "a", 0.0, 10.0, 0, None],
        [1, 0, "b", 1.0, 4.0, 0, None],
        [2, 1, "c", 2.0, 3.0, 0, None],
        [3, 0, "c", 5.0, 6.5, 0, None],
        [4, None, "a", 20.0, 21.0, 0, None],
    ]
    own = spans.self_times(s)
    assert own == {0: 5.5, 1: 2.0, 2: 1.0, 3: 1.5, 4: 1.0}
    agg = spans.aggregate(s)
    assert agg["a"]["calls"] == 2 and agg["a"]["busy_s"] == 11.0 and agg["a"]["self_s"] == 6.5
    assert agg["c"]["calls"] == 2 and agg["c"]["busy_s"] == 2.5
    assert sum(a["self_s"] for a in agg.values()) == 11.0  # self times tile the root spans


def test_metric_rates_shares_and_missing_functions():
    s = [
        [0, None, "solver.run_simulation", 0.0, 2.0, 0, {"steps": 10, "point_steps": 1000}],
        [1, None, "solver.run_simulation", 3.0, 5.0, 0, {"steps": 10, "point_steps": 1000}],
        [2, None, "kernel.build_profile", 5.0, 5.5, 0, {"radii": 50}],
    ]
    agg = spans.aggregate(s)
    assert spans.metric(agg, "solver.run_simulation.steps", 8.0) == 20
    assert spans.metric(agg, "solver.run_simulation.ns_per_point_step", 8.0) == pytest.approx(2e6)
    assert spans.metric(agg, "solver.run_simulation.busy_pct", 8.0) == 50.0
    assert spans.metric(agg, "kernel.build_profile.ms_per_radius", 8.0) == 10.0
    assert spans.metric(agg, "solver.picard_iterate.iterations", 8.0) == 0
    assert spans.metric(agg, "solver.picard_iterate.ms_per_iteration", 8.0) == 0.0
    assert spans.metric(agg, "io.write_run.busy_pct", 8.0) == 0.0
    with pytest.raises(KeyError):
        spans.metric(agg, "grid.lp_norm.bogus", 8.0)


def test_every_declared_per_layer_metric_is_computable():
    for m in SPEC["per_layer"]:
        if m["name"] != "trace.overhead_s":
            spans.metric({}, m["name"], 1.0)


def test_recorder_links_parents_and_closes_spans_on_error():
    rec = spans.Recorder(repeat=3)

    def boom():
        raise ValueError("x")

    inner = rec.wrap("m.inner", boom)
    outer = rec.wrap("m.outer", lambda: inner(), count=lambda a, k, out: {"n": 1})
    with pytest.raises(ValueError):
        outer()
    assert [(s[0], s[1], s[2], s[5]) for s in rec.spans] == [(0, None, "m.outer", 3), (1, 0, "m.inner", 3)]
    assert all(s[4] is not None and s[4] >= s[3] for s in rec.spans)


def test_simulation_counts_exclude_landing_steps():
    diag = [SimpleNamespace(time=t) for t in (0.0, 0.2, 0.4, 0.5, 0.6, 0.65, 0.85, 1.0)]
    cfg = SimpleNamespace(dt=0.2, snapshot_times=(0.5,), t_end=1.0, grid=SimpleNamespace(n=16))
    c = spans.simulation_counts((), {}, SimpleNamespace(config=cfg, diagnostics=diag))
    # 0.5 and 1.0 are landing steps; 0.5->0.6 and 0.6->0.65 are CFL-limited
    assert c == {"steps": 7, "cfl_limited_steps": 2, "point_steps": 7 * 256}


def test_install_traces_calls_through_imported_names():
    code = (
        "import spans, sqglab.cli as cli\n"
        "r = spans.Recorder(0); spans.install(r)\n"
        "assert cli.main(['special', 'beta', '0.5', '0.5']) == 0\n"
        "print([(s[1], s[2]) for s in r.spans])\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]))
    p = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    got = eval(p.stdout.strip().splitlines()[-1])
    assert (None, "cli.special") in got and (0, "special.beta") in got


# ---------------------------------------------------------------------------
# compare verdicts
# ---------------------------------------------------------------------------


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    same = compare.compare_metric(base, list(base), "lower", 0.1)
    assert same["verdict"] == "within bound" and same["win_share"] == 0.0
    slow = compare.compare_metric(base, [b * 1.2 for b in base], "lower", 0.1)
    assert slow["verdict"] == "regression"
    fast = compare.compare_metric(base, [b * 0.8 for b in base], "lower", 0.1)
    assert fast["verdict"] == "gain" and fast["win_share"] == 1.0
    noisy = [5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0]
    assert compare.compare_metric(base, noisy, "lower", 0.1)["verdict"] == "unresolved"
    wide = [9.0, 11.0] * 5  # spread 0.2 exceeds the bound
    assert compare.compare_metric(wide, [8.5] * 10, "lower", 0.1)["verdict"] == "better in every run"
    assert compare.compare_metric(wide, [1.0] * 10, "lower", 0.1)["verdict"] == "gain"
    assert compare.compare_metric([5.0], [5.5], "higher", 0.05)["verdict"] == "gain"


def test_compare_no_gain_when_head_fails_more():
    base = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    fast = [b * 0.8 for b in base]
    assert compare.compare_metric(base, fast, "lower", 0.1, (0.0, 0.1))["verdict"] == "within bound"
    assert compare.compare_metric(base, fast, "lower", 0.1, (0.5, 0.5))["verdict"] == "gain"
    wide = [9.0, 11.0] * 5
    assert compare.compare_metric(wide, [8.5] * 10, "lower", 0.1, (0.0, 1.0))["verdict"] == "within bound"
    slow = [b * 1.2 for b in base]
    assert compare.compare_metric(base, slow, "lower", 0.1, (0.0, 1.0))["verdict"] == "regression"


def test_new_failures_are_named_next_to_known_ones():
    known = {"a=1.8 ratio_comparability passes": 4, "a=1.8 verify exit 0": 4}
    base = [dict(known), dict(known)]
    head = [dict(known), {**known, "a=1.2 mass_conservation passes": 3, "workload raised": 1}]
    assert compare.new_failures(base, head) == {"a=1.2 mass_conservation passes": 3, "workload raised": 1}
    assert compare.new_failures(head, base) == {}


def test_failing_checks_counts_repeats_per_check():
    outcome = good_cli()
    outcome["1.8"]["verdicts"][-1] = ("ratio_comparability", False)
    outcome["1.8"]["verify"] = 1
    bad = {"ok": False, "checks": W.check_cli_bump256(outcome), "error": None}
    recs = [bad, bad, {"ok": False, "checks": [], "error": "Traceback"}, {"ok": False, "crashed": True}]
    assert run.failing_checks(recs) == {
        "a=1.8 ratio_comparability passes": 2, "a=1.8 verify exit 0": 2, "worker crashed": 1, "workload raised": 1,
    }
