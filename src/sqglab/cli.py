"""
Command-line entry points.

Verbs: ``kernel`` (profile builds and estimate sweeps), ``simulate`` (run a
configured evolution and persist snapshots plus diagnostics), ``verify``
(turn a run directory into a pass/fail verdict report), ``special``
(special-function and singular-integral studies), ``fit`` (decay-exponent
fits on a diagnostics series).  Exit codes: 0 success, 1 check failure,
2 usage or configuration error, or a run the solver or the kernel quadrature
cannot complete, or a result beyond the float range, 3 internal error (any
other exception, reported on stderr).
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import math
import sys
from pathlib import Path

import numpy as np

from . import kernel as _kernel
from . import special as _special
from . import verify as _verify
from .io import (
    format_verdict_table,
    read_diagnostics,
    read_run_snapshots,
    write_csv,
    write_run,
    write_verdicts,
)
from .runconfig import ConfigError, RunConfig, _names, _validate, parse_config_file, serialize_config
from .solver import (DECAY_QUANTITIES, SNAPSHOT_TIME_TOL, BlowUpError, PicardDivergenceError,
                     SimulationResult, _snapshot_targets, run_simulation)

USAGE_ERROR = 2
CHECK_FAILURE = 1
INTERNAL_ERROR = 3


def _cmd_kernel(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    profile = _kernel.build_profile(args.alpha, tol=args.tol)
    ppath = out / f"profile_a{args.alpha:.4g}.sqgk"
    _kernel.save_profile(profile, ppath)
    mass = profile.total_mass()
    print(f"profile alpha={args.alpha} r_max={profile.r_max:.4g} mass={mass:.12f} -> {ppath}")
    sweep_path = out / f"estimate_sweep_a{args.alpha:.4g}.csv"
    ts = np.geomspace(args.t_min, args.t_max, 13)
    rs = np.concatenate([[0.0], np.geomspace(1e-2, args.x_max, 40)])
    ratios = _kernel.estimate_ratios(profile, ts, rs)
    write_csv(sweep_path, ("t", "r", "ratio"),
              ([float(t), float(r), float(q)] for t, row in zip(ts, ratios) for r, q in zip(rs, row)))
    print(f"two-sided ratio over sweep: [{ratios.min():.6g}, {ratios.max():.6g}] -> {sweep_path}")
    return 0


def _cmd_simulate(args) -> int:
    cfg = parse_config_file(args.config)
    out = Path(args.out) if args.out else Path(cfg.output_dir)
    theta0 = cfg.build_theta0(base_dir=Path(args.config).parent)
    result = run_simulation(cfg.solver_config(), theta0)
    out.mkdir(parents=True, exist_ok=True)
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
    if not records or records[0].time != 0.0:
        raise ValueError(f"{diag_path}: the first record must be at t = 0")
    snaps = read_run_snapshots(run_dir)
    if snaps[0][0] != 0.0:
        raise ValueError(f"{run_dir}: no snapshot at t = 0 (the earliest is at t = {snaps[0][0]:.6g})")
    # t = 0 and each solver target, within SNAPSHOT_TIME_TOL; inf pads the shorter
    # list (so the tolerance scales with the finite time of a pair)
    wanted = [0.0] + _snapshot_targets(cfg.solver_config())
    for t, want in itertools.zip_longest([t for t, _, _ in snaps], wanted, fillvalue=math.inf):
        if not abs(t - want) <= SNAPSHOT_TIME_TOL * max(1.0, min(t, want)):
            wrong = f"no snapshot at t = {want:.6g}" if t > want else f"an extra snapshot at t = {t:.6g}"
            raise ValueError(f"{run_dir}: {wrong}; config.cfg asks for t = 0, its snapshot_times and t_end")
    recorded = {r.time for r in records}
    for t, f, a in snaps:
        if t not in recorded:
            raise ValueError(f"{diag_path}: no record at the snapshot time t = {t!r}")
        if not abs(a - cfg.alpha) <= 1e-12:
            raise ValueError(f"{run_dir}: the snapshot at t = {t:.6g} has alpha {a}, config.cfg {cfg.alpha}")
        if f.grid != cfg.grid():
            raise ValueError(f"{run_dir}: the snapshot at t = {t:.6g} is on {f.grid}, config.cfg on {cfg.grid()}")
    result = SimulationResult(
        cfg.solver_config(),
        tuple((t, f) for t, f, _ in snaps),
        tuple(records),
    )
    return cfg, result


def _cmd_verify(args) -> int:
    run_dir = Path(args.run)
    cfg, result = _load_run(run_dir)
    if args.checks is not None:
        # the selection is held to the rules of verification.checks, as in config.cfg
        cfg = _validate(dataclasses.replace(cfg, checks=_names(args.checks)))
    rows = _verify.run_checks(cfg, result, cfg.checks)
    write_verdicts(run_dir / "verdict.csv", rows)
    table = format_verdict_table(rows)
    (run_dir / "summary.txt").write_text(table + "\n")
    print(table)
    return 0 if all(r.passed for r in rows) else CHECK_FAILURE


def _cmd_special(args) -> int:
    if args.what == "beta":
        print(repr(_special.beta(args.a, args.b)))
    elif args.what == "conv":
        val = _special.singular_time_convolution(args.a, args.b, args.t)
        closed = args.t ** (1 - args.a - args.b) * _special.beta(1 - args.b, 1 - args.a)
        print(f"quadrature={val!r} closed_form={closed!r} rel_err={abs(val-closed)/closed:.3e}")
    elif args.what == "radial-integral":
        vs = np.linspace(0.01, 0.99, args.n_points).tolist()
        rows = [(v, *_special.radial_singular_integral(args.alpha, args.beta_param, v)) for v in vs]
        if args.out:
            write_csv(args.out, ("v", "integral", "ratio"), rows)
        ratios = [r for _, _, r in rows]
        print(f"ratio range over v-sweep: [{min(ratios):.6g}, {max(ratios):.6g}]")
    else:  # tgamma, the last subcommand argparse allows
        us = np.linspace(0.01, 0.99, args.n_points)
        ds = [_special.tgamma_inner_ratio(args.gamma, args.alpha, float(u)) for u in us]
        c2 = max(ds)
        b = _special.beta(1 - args.gamma - (args.alpha - 1) / args.alpha, 1 - 1 / args.alpha)
        print(f"first-level constant (Beta bound): {b:.6g}")
        print(f"two-level contraction constant c_gamma: {c2:.6g}")
        print(f"admissible drift threshold 1/c_gamma: {1.0 / c2:.6g}")
    return 0


def _cmd_fit(args) -> int:
    cfg, result = _load_run(Path(args.run))
    fit = _verify.diagnostics_slope_fit(cfg.alpha, result.diagnostics, args.quantity, args.tolerance,
                                        args.t_lo, args.t_hi, args.expected)
    print(
        f"slope({args.quantity}) = {fit.slope:+.5f} +/- {fit.stderr:.5f} over "
        f"t in [{fit.t_lo:.4g}, {fit.t_hi:.4g}], expected {fit.expected:+.5f} "
        f"-> {'pass' if fit.passed else 'FAIL'}"
    )
    return 0 if fit.passed else CHECK_FAILURE


def _number(convert, rule: str = "finite", ok=lambda v: True):
    """An argparse ``type``: ``convert`` of the text, refused unless finite and
    ``ok``; ``rule`` words both, as a ``runconfig._RANGES`` entry does."""
    def number(text: str):  # argparse names it in "invalid number value: ..."
        value = convert(text)
        if not (math.isfinite(value) and ok(value)):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value
    return number


def _positive(convert):
    return _number(convert, "finite and positive", lambda v: v > 0)


_NONNEGATIVE = _number(float, "finite and >= 0", lambda v: v >= 0)
_EXPONENT = _number(float, "in [0, 1)", lambda v: 0 <= v < 1)
_ALPHA_OPEN = _number(float, "in (1, 2)", lambda v: 1 < v < 2)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sqglab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    k = sub.add_parser("kernel", help="build a stable-kernel profile and estimate sweep")
    k.add_argument("--alpha", type=_number(float, "in [1, 2]", lambda v: 1 <= v <= 2), required=True)
    k.add_argument("--out", default="kernel_output")
    k.add_argument("--tol", type=_positive(float), default=1e-6)
    k.add_argument("--t-min", type=_positive(float), default=1e-2)
    k.add_argument("--t-max", type=_positive(float), default=1e2)
    k.add_argument("--x-max", type=_positive(float), default=50.0)
    k.set_defaults(func=_cmd_kernel)

    s = sub.add_parser("simulate", help="run a configured simulation")
    s.add_argument("--config", required=True)
    s.add_argument("--out", default=None)
    s.set_defaults(func=_cmd_simulate)

    v = sub.add_parser("verify", help="evaluate estimate checks on a run directory")
    v.add_argument("--run", required=True)
    v.add_argument("--checks", default=None)
    v.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("special", help="special-function studies")
    spsub = sp.add_subparsers(dest="what", required=True)
    b = spsub.add_parser("beta")
    b.add_argument("a", type=_positive(float))
    b.add_argument("b", type=_positive(float))
    c = spsub.add_parser("conv")
    c.add_argument("--a", type=_EXPONENT, required=True)
    c.add_argument("--b", type=_EXPONENT, required=True)
    c.add_argument("--t", type=_positive(float), default=1.0)
    lt = spsub.add_parser("radial-integral")
    lt.add_argument("--alpha", type=_ALPHA_OPEN, required=True)
    lt.add_argument("--beta-param", type=_positive(float), required=True)
    lt.add_argument("--n-points", type=_positive(int), default=50)
    lt.add_argument("--out", default=None)
    tg = spsub.add_parser("tgamma")
    tg.add_argument("--gamma", type=_positive(float), required=True)
    tg.add_argument("--alpha", type=_ALPHA_OPEN, required=True)
    tg.add_argument("--n-points", type=_positive(int), default=50)
    sp.set_defaults(func=_cmd_special)

    f = sub.add_parser("fit", help="decay-exponent fit on a diagnostics series")
    f.add_argument("--run", required=True)
    f.add_argument("--quantity", default="linf", choices=DECAY_QUANTITIES)
    f.add_argument("--t-lo", type=_NONNEGATIVE, default=-math.inf)
    f.add_argument("--t-hi", type=_NONNEGATIVE, default=math.inf)
    f.add_argument("--expected", type=_number(float), default=None)
    f.add_argument("--tolerance", type=_positive(float), default=0.05)
    f.set_defaults(func=_cmd_fit)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "kernel" and not args.t_min < args.t_max:
        parser.error(f"--t-min {args.t_min} must lie below --t-max {args.t_max}")
    if getattr(args, "what", None) == "tgamma" and not args.gamma < 1 / args.alpha:
        parser.error(f"--gamma {args.gamma} must lie below 1/alpha = {1 / args.alpha:.6g}")
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, ValueError, OSError, OverflowError, PicardDivergenceError,
            BlowUpError, _kernel.QuadratureConvergenceError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
