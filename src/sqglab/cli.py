"""
Command-line entry points.

Verbs: ``kernel`` (profile builds and estimate sweeps), ``simulate`` (run a
configured evolution and persist snapshots plus diagnostics), ``verify``
(turn a run directory into a pass/fail verdict report), ``special``
(special-function and singular-integral studies), ``fit`` (decay-exponent
fits on a diagnostics series).  Exit codes: 0 success, 1 check failure,
2 usage or configuration error, or a run the solver cannot complete.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import kernel as _kernel
from . import special as _special
from . import verify as _verify
from .grid import MultiIndex, RealField, apply_semigroup
from .io import (
    format_verdict_table,
    read_diagnostics,
    read_run_snapshots,
    write_run,
    write_verdicts,
)
from .runconfig import ConfigError, RunConfig, parse_config_file, serialize_config
from .solver import BlowUpError, CflViolationError, PicardDivergenceError, SimulationResult, run_simulation
from .verify import VerdictRow

USAGE_ERROR = 2
CHECK_FAILURE = 1


def _cmd_kernel(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    profile = _kernel.build_profile(args.alpha, r_max=args.r_max, tol=args.tol)
    ppath = out / f"profile_a{args.alpha:.4g}.sqgk"
    _kernel.save_profile(profile, ppath)
    mass = profile.total_mass()
    print(f"profile alpha={args.alpha} r_max={profile.r_max:.4g} mass={mass:.12f} -> {ppath}")
    sweep_path = out / f"estimate_sweep_a{args.alpha:.4g}.csv"
    ts = np.geomspace(args.t_min, args.t_max, 13)
    rs = np.concatenate([[0.0], np.geomspace(1e-2, args.x_max, 40)])
    with open(sweep_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "r", "ratio"])
        for t in ts:
            p = _kernel.kernel_eval_radial(profile, float(t), rs)
            ratio = p * (t ** (1 / args.alpha) + rs) ** (2 + args.alpha) / t
            for r, q in zip(rs, ratio):
                w.writerow([repr(float(t)), repr(float(r)), repr(float(q))])
    lo, hi = _kernel.check_two_sided_estimate(
        profile, ts, np.stack([rs, np.zeros_like(rs)], axis=-1)
    )
    print(f"two-sided ratio over sweep: [{lo:.6g}, {hi:.6g}] -> {sweep_path}")
    return 0


def _cmd_simulate(args) -> int:
    cfg = parse_config_file(args.config)
    out = Path(args.out) if args.out else Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    theta0 = cfg.build_theta0(base_dir=Path(args.config).parent)
    result = run_simulation(cfg.solver_config(), theta0)
    (out / "config.cfg").write_text(serialize_config(cfg))
    write_run(out, result)
    print(f"run complete: {len(result.snapshots)} snapshots, "
          f"{len(result.diagnostics)} diagnostic records -> {out}")
    return 0


def _load_run(run_dir: Path) -> tuple[RunConfig, SimulationResult]:
    cfg_path = run_dir / "config.cfg"
    if not cfg_path.exists():
        raise FileNotFoundError(f"missing run configuration {cfg_path}")
    cfg = parse_config_file(cfg_path)
    diag_path = run_dir / "diagnostics.csv"
    if not diag_path.exists():
        raise FileNotFoundError(f"missing diagnostics file {diag_path}")
    records = read_diagnostics(diag_path)
    snaps = read_run_snapshots(run_dir)
    for _, _, a in snaps:
        if abs(a - cfg.alpha) > 1e-12:
            raise ValueError(f"snapshot alpha {a} does not match run alpha {cfg.alpha}")
    result = SimulationResult(
        cfg.solver_config(),
        tuple((t, f) for t, f, _ in snaps),
        tuple(records),
    )
    return cfg, result


def _run_checks(cfg: RunConfig, result: SimulationResult, checks) -> list[VerdictRow]:
    rows: list[VerdictRow] = []
    recs = result.diagnostics
    window = cfg.window_fraction * cfg.box_length

    if "max_principle" in checks:
        for col in ("linf", "l2"):
            vals = np.array([getattr(r, col) for r in recs])
            scale = np.maximum(vals[:-1], 1e-300)
            worst = float(np.max(np.diff(vals) / scale)) if len(vals) > 1 else 0.0
            rows.append(VerdictRow(f"max_principle_{col}", worst, "<= 1e-6 per step", worst <= 1e-6))

    if "mass_conservation" in checks:
        means = np.array([r.mean for r in recs])
        scale = max(abs(means[0]), 1e-300)
        worst = float(np.max(np.abs(means - means[0])) / scale)
        rows.append(VerdictRow("mass_conservation", worst, "<= 1e-10 relative", worst <= 1e-10))

    if "ratio" in checks:
        worst = 1.0
        for t, th, pt in _verify.semigroup_reference(result):
            d = _verify.ratio_diagnostics(th, pt, window, cfg.floor_frac, time=t)
            if not (np.isfinite(d.sup_ratio) and d.inf_ratio > 0):
                worst = np.inf
                break
            worst = max(worst, d.sup_ratio / d.inf_ratio)
        rows.append(
            VerdictRow("ratio_comparability", worst, f"sup/inf < {cfg.ratio_alarm}", worst < cfg.ratio_alarm)
        )

    if "limits" in checks:
        times = [t for t, _ in result.snapshots if t > 0]
        if not times:
            raise ValueError("check 'limits' needs at least one snapshot at t > 0")
        t_split = float(np.sqrt(times[0] * times[-1]))
        early = _verify.limit_scan(result, _verify.T_TO_0, window, cfg.floor_frac,
                                   cfg.dev_threshold, t_max=t_split)
        rows.append(VerdictRow("limit_t_to_0", early.extreme_value,
                               f"series min and < {cfg.dev_threshold}", early.passed))
        late = _verify.limit_scan(result, _verify.T_TO_INF, window, cfg.floor_frac,
                                  cfg.dev_threshold, t_min=t_split)
        rows.append(VerdictRow("limit_t_to_inf", late.extreme_value,
                               f"series min and < {cfg.dev_threshold}", late.passed))
        space = _verify.limit_scan(result, _verify.X_TO_INF, window, cfg.floor_frac,
                                   cfg.dev_threshold)
        rows.append(VerdictRow("limit_x_to_inf", space.extreme_value,
                               "outermost annulus is scan min", space.extreme_is_minimum))

    if "gradients" in checks:
        theta0 = result.snapshots[0][1]
        abs0 = RealField(theta0.grid, np.abs(theta0.values))
        for kappa in (MultiIndex(1, 0), MultiIndex(0, 1), MultiIndex(2, 0), MultiIndex(1, 1), MultiIndex(0, 2)):
            qs = []
            for t, th in result.snapshots:
                if t <= 0:
                    continue
                pt = apply_semigroup(abs0, t, cfg.alpha)
                qs.append(_verify.gradient_bound_diag(th, pt, kappa, t, cfg.alpha, window, cfg.floor_frac))
            med = float(np.median(qs))
            spread = float(max(np.max(qs) / med, med / np.min(qs)))
            rows.append(VerdictRow(f"gradient_bound_{kappa.k1}{kappa.k2}", spread,
                                   "within factor 2 of median", spread <= 2.0))

    if "slopes" in checks:
        expected = _verify.expected_decay_exponent("theta_lp", cfg.alpha)
        t_lo = cfg.slope_t_lo or 0.0
        t_hi = cfg.slope_t_hi or np.inf
        for q in cfg.slope_quantities or ("linf", "riesz_linf"):
            ts = np.array([r.time for r in recs])
            vs = np.array([getattr(r, q) for r in recs])
            keep = (ts >= t_lo) & (ts <= t_hi)
            try:
                fit = _verify.decay_slope_fit(ts[keep], vs[keep], expected, q, cfg.slope_tolerance)
                rows.append(VerdictRow(f"slope_{q}", fit.slope,
                                       f"{expected:+.4f} +/- {cfg.slope_tolerance}", fit.passed))
            except ValueError as e:
                rows.append(VerdictRow(f"slope_{q}", float("nan"), str(e), False))

    if "above_critical" in checks:
        diags = _verify.above_critical_local_check(
            result, cfg.above_critical_p, cfg.above_critical_T, window, cfg.floor_frac
        )
        worst = max(d.sup_ratio / d.inf_ratio for d in diags)
        rows.append(VerdictRow("above_critical_ratio", worst,
                               f"finite, < {cfg.ratio_alarm}", np.isfinite(worst) and worst < cfg.ratio_alarm))
    return rows


def _cmd_verify(args) -> int:
    run_dir = Path(args.run)
    cfg, result = _load_run(run_dir)
    checks = tuple(x.strip() for x in args.checks.split(",")) if args.checks else cfg.checks
    if args.kernel:
        prof = _kernel.load_profile(args.kernel)
        if abs(prof.alpha - cfg.alpha) > 1e-12:
            raise ValueError(
                f"kernel profile alpha {prof.alpha} does not match run alpha {cfg.alpha}"
            )
    rows = _run_checks(cfg, result, checks)
    write_verdicts(run_dir / "verdict.csv", rows)
    table = format_verdict_table(rows)
    (run_dir / "summary.txt").write_text(table + "\n")
    print(table)
    return 0 if all(r.passed for r in rows) else CHECK_FAILURE


def _cmd_special(args) -> int:
    if args.what == "beta":
        print(repr(_special.beta(args.a, args.b)))
        return 0
    if args.what == "conv":
        val = _special.singular_time_convolution(args.a, args.b, args.t)
        closed = args.t ** (1 - args.a - args.b) * _special.beta(1 - args.b, 1 - args.a)
        print(f"quadrature={val!r} closed_form={closed!r} rel_err={abs(val-closed)/closed:.3e}")
        return 0
    if args.what == "radial-integral":
        vs = np.linspace(0.01, 0.99, args.n_points)
        rows = [(v, *_special.radial_singular_integral(args.alpha, args.beta_param, float(v))) for v in vs]
        if args.out:
            with open(args.out, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["v", "integral", "ratio"])
                for v, i, r in rows:
                    w.writerow([repr(float(v)), repr(i), repr(r)])
        ratios = [r for _, _, r in rows]
        print(f"ratio range over v-sweep: [{min(ratios):.6g}, {max(ratios):.6g}]")
        return 0
    if args.what == "tgamma":
        us = np.linspace(0.01, 0.99, args.n_points)
        ds = [_special.tgamma_inner_ratio(args.gamma, args.alpha, float(u)) for u in us]
        c2 = max(ds)
        b = _special.beta(1 - args.gamma - (args.alpha - 1) / args.alpha, 1 - 1 / args.alpha)
        print(f"first-level constant (Beta bound): {b:.6g}")
        print(f"two-level contraction constant c_gamma: {c2:.6g}")
        print(f"admissible drift threshold 1/c_gamma: {1.0 / c2:.6g}")
        return 0
    raise ConfigError(f"unknown special subcommand {args.what!r}")


def _cmd_fit(args) -> int:
    run_dir = Path(args.run)
    cfg, result = _load_run(run_dir)
    recs = result.diagnostics
    ts = np.array([r.time for r in recs])
    vs = np.array([getattr(r, args.quantity) for r in recs])
    keep = np.ones_like(ts, dtype=bool)
    if args.t_lo is not None:
        keep &= ts >= args.t_lo
    if args.t_hi is not None:
        keep &= ts <= args.t_hi
    expected = (
        args.expected
        if args.expected is not None
        else _verify.expected_decay_exponent("theta_lp", cfg.alpha)
    )
    fit = _verify.decay_slope_fit(ts[keep], vs[keep], expected, args.quantity, args.tolerance)
    print(
        f"slope({args.quantity}) = {fit.slope:+.5f} +/- {fit.stderr:.5f} over "
        f"t in [{fit.t_lo:.4g}, {fit.t_hi:.4g}], expected {fit.expected:+.5f} "
        f"-> {'pass' if fit.passed else 'FAIL'}"
    )
    return 0 if fit.passed else CHECK_FAILURE


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sqglab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    k = sub.add_parser("kernel", help="build a stable-kernel profile and estimate sweep")
    k.add_argument("--alpha", type=float, required=True)
    k.add_argument("--out", default="kernel_output")
    k.add_argument("--r-max", type=float, default=None)
    k.add_argument("--tol", type=float, default=1e-6)
    k.add_argument("--t-min", type=float, default=1e-2)
    k.add_argument("--t-max", type=float, default=1e2)
    k.add_argument("--x-max", type=float, default=50.0)
    k.set_defaults(func=_cmd_kernel)

    s = sub.add_parser("simulate", help="run a configured simulation")
    s.add_argument("--config", required=True)
    s.add_argument("--out", default=None)
    s.set_defaults(func=_cmd_simulate)

    v = sub.add_parser("verify", help="evaluate estimate checks on a run directory")
    v.add_argument("--run", required=True)
    v.add_argument("--checks", default=None)
    v.add_argument("--kernel", default=None, help="kernel profile for alpha cross-check")
    v.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("special", help="special-function studies")
    spsub = sp.add_subparsers(dest="what", required=True)
    b = spsub.add_parser("beta")
    b.add_argument("a", type=float)
    b.add_argument("b", type=float)
    c = spsub.add_parser("conv")
    c.add_argument("--a", type=float, required=True)
    c.add_argument("--b", type=float, required=True)
    c.add_argument("--t", type=float, default=1.0)
    lt = spsub.add_parser("radial-integral")
    lt.add_argument("--alpha", type=float, required=True)
    lt.add_argument("--beta-param", type=float, required=True)
    lt.add_argument("--n-points", type=int, default=50)
    lt.add_argument("--out", default=None)
    tg = spsub.add_parser("tgamma")
    tg.add_argument("--gamma", type=float, required=True)
    tg.add_argument("--alpha", type=float, required=True)
    tg.add_argument("--n-points", type=int, default=50)
    sp.set_defaults(func=_cmd_special)

    f = sub.add_parser("fit", help="decay-exponent fit on a diagnostics series")
    f.add_argument("--run", required=True)
    f.add_argument("--quantity", default="linf",
                   choices=["l2", "lcrit", "linf", "riesz_linf"])
    f.add_argument("--t-lo", type=float, default=None)
    f.add_argument("--t-hi", type=float, default=None)
    f.add_argument("--expected", type=float, default=None)
    f.add_argument("--tolerance", type=float, default=0.05)
    f.set_defaults(func=_cmd_fit)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, ValueError, OSError,
            PicardDivergenceError, BlowUpError, CflViolationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
