"""
Numerical diagnostics for the pointwise-comparability, limit, gradient-bound,
and decay-exponent statements, evaluated on simulation snapshots.

Every diagnostic is a pure function of the snapshot data.  Thresholds are
harness configuration, not claims: the underlying statements assert existence
of constants and vanishing limits, so the checks report window suprema,
monotone trends against a configured threshold, and least-squares exponents
with their standard errors.  The ratio, limits, gradients and above_critical
comparisons with a semigroup reference share one window rule
(``_window_quotient``).  ``CHECKS`` maps each check name a run configuration
may select to the function that makes its verdict rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from .grid import MultiIndex, RealField, apply_derivative, lp_norm, semigroup_orbit
from .solver import DiagnosticRecord, SimulationResult, critical_exponent

if TYPE_CHECKING:
    from .runconfig import RunConfig

__all__ = [
    "RatioDiagnostic",
    "SlopeFit",
    "ScanReport",
    "VerdictRow",
    "ratio_diagnostics",
    "limit_scan",
    "gradient_bound_diag",
    "decay_slope_fit",
    "diagnostics_slope_fit",
    "above_critical_local_check",
    "expected_decay_exponent",
    "semigroup_reference",
    "CHECKS",
    "run_checks",
]

T_TO_0 = "T_TO_0"
T_TO_INF = "T_TO_INF"
X_TO_INF = "X_TO_INF"


@dataclass(frozen=True)
class RatioDiagnostic:
    time: float
    window_radius: float
    floor: float
    sup_ratio: float
    inf_ratio: float
    sup_abs_dev: float
    n_points: int


@dataclass(frozen=True)
class SlopeFit:
    quantity: str
    t_lo: float
    t_hi: float
    slope: float
    stderr: float
    expected: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return abs(self.slope - self.expected) <= self.tolerance


@dataclass(frozen=True)
class ScanReport:
    mode: str
    coordinates: tuple[float, ...]
    values: tuple[float, ...]
    threshold: float

    @property
    def extreme_value(self) -> float:
        return self.values[0] if self.mode == T_TO_0 else self.values[-1]

    @property
    def extreme_is_minimum(self) -> bool:
        # absolute slack keeps all-roundoff series (linear runs) well-posed
        return self.extreme_value <= min(self.values) + 1e-12

    @property
    def passed(self) -> bool:
        return self.extreme_is_minimum and self.extreme_value < self.threshold


@dataclass(frozen=True)
class VerdictRow:
    name: str
    measured: float
    requirement: str
    passed: bool


def _window_quotient(num: RealField, den: RealField, window_radius: float, floor_frac: float):
    """(num/den, |x|, floor) at the window points |x| <= window_radius where den >= floor
    = floor_frac * (window max of den); fields on two grids or an empty window raise."""
    if num.grid != den.grid:
        raise ValueError("fields live on different grids")
    r = np.hypot(*num.grid.centered_coordinates())
    inside = r <= window_radius
    floor = floor_frac * np.max(den.values, where=inside, initial=-np.inf)
    keep = inside & (den.values >= floor)
    if not np.any(keep):
        raise ValueError("window is empty after masking")
    return num.values[keep] / den.values[keep], r[keep], floor


def ratio_diagnostics(
    theta_t: RealField,
    p_t_theta0: RealField,
    window_radius: float,
    floor_frac: float = 1e-3,
    time: float = math.nan,
) -> RatioDiagnostic:
    """Window sup/inf of theta / P_t(theta0) with a relative denominator floor."""
    ratio, _, floor = _window_quotient(theta_t, p_t_theta0, window_radius, floor_frac)
    return RatioDiagnostic(
        time=time,
        window_radius=window_radius,
        floor=floor,
        sup_ratio=float(ratio.max()),
        inf_ratio=float(ratio.min()),
        sup_abs_dev=float(np.max(np.abs(ratio - 1.0))),
        n_points=ratio.size,
    )


def semigroup_reference(
    result: SimulationResult, t_min: float = 0.0, t_max: float = math.inf
) -> list[tuple[float, RealField, RealField]]:
    """(t, theta(t), P_t theta0) for every snapshot time t > 0 in [t_min, t_max]."""
    kept = [(t, th) for t, th in result.snapshots if t > 0 and t_min <= t <= t_max]
    return _with_orbit(kept, result.snapshots[0][1], result.config.alpha)


def _with_orbit(
    snaps: Sequence[tuple[float, RealField]], f: RealField, alpha: float
) -> list[tuple[float, RealField, RealField]]:
    """(t, theta(t), P_t f) for each (t, theta(t)) of ``snaps``, from one transform of f."""
    orbit = semigroup_orbit(f, [t for t, _ in snaps], alpha)
    return [(t, th, pt) for (t, th), pt in zip(snaps, orbit)]


def limit_scan(
    result: SimulationResult,
    mode: str,
    window_radius: float,
    floor_frac: float = 1e-3,
    threshold: float = 0.05,
    annuli: Sequence[float] | None = None,
    t_min: float = 0.0,
    t_max: float = math.inf,
) -> ScanReport:
    """
    Monotone-trend report for the three vanishing-ratio limits.  For the time
    scans the series is sup|theta/P_t theta0 - 1| per snapshot and the extreme
    (earliest or latest) entry must be the series minimum and below the
    threshold.  The spatial scan aggregates per-annulus suprema over all
    snapshot times and requires the outermost annulus to be the minimum; an
    annulus holds window points only, so one beyond ``window_radius`` is empty.
    """
    return _scan(semigroup_reference(result, t_min, t_max), mode, window_radius, floor_frac, threshold, annuli)


def _scan(
    pairs: Sequence[tuple[float, RealField, RealField]],
    mode: str,
    window_radius: float,
    floor_frac: float,
    threshold: float,
    annuli: Sequence[float] | None = None,
) -> ScanReport:
    """``limit_scan`` on given (t, theta(t), P_t theta0) triples."""
    if not pairs:
        raise ValueError("run contains no positive-time snapshots in the scan range")
    if mode in (T_TO_0, T_TO_INF):
        devs = [ratio_diagnostics(th, pt, window_radius, floor_frac).sup_abs_dev for _, th, pt in pairs]
        return ScanReport(mode, tuple(t for t, _, _ in pairs), tuple(devs), threshold)
    if mode != X_TO_INF:
        raise ValueError(f"unknown scan mode {mode!r}")
    if annuli is None:
        # the core holds theta ~ P_t theta0 ~ theta0 and says nothing about
        # |x| -> inf, so the default scan starts outside it, as criterion 7
        # does (from r = 3 on a window of 10)
        annuli = np.linspace(0.3 * window_radius, window_radius, 6)
    annuli = np.asarray(annuli, dtype=float)
    if np.any(np.diff(annuli) < 0):
        raise ValueError("annulus radii must ascend")
    sups = np.full(len(annuli) - 1, -np.inf)
    for _, th, pt in pairs:
        q, r, _ = _window_quotient(th, pt, window_radius, floor_frac)
        ring = np.searchsorted(annuli, r, side="right") - 1
        ok = (ring >= 0) & (ring < len(sups))
        np.maximum.at(sups, ring[ok], np.abs(q[ok] - 1.0))
    mids = 0.5 * (annuli[:-1] + annuli[1:])
    keep = np.isfinite(sups)
    if keep.sum() < 2:
        raise ValueError("insufficient populated annuli for the spatial scan")
    return ScanReport(X_TO_INF, tuple(mids[keep]), tuple(sups[keep]), threshold)


def gradient_bound_diag(
    theta_t: RealField,
    p_t_abs_theta0: RealField,
    kappa: MultiIndex,
    t: float,
    alpha: float,
    window_radius: float,
    floor_frac: float = 1e-3,
) -> float:
    """sup over the window of t^(|kappa|/alpha) |grad^kappa theta| / P_t|theta0|."""
    if kappa.order > 2:
        raise ValueError("the gradient diagnostic covers |kappa| <= 2")
    g = theta_t if kappa.order == 0 else apply_derivative(theta_t, kappa)
    num = RealField(g.grid, np.abs(g.values) * t ** (kappa.order / alpha))
    return float(np.max(_window_quotient(num, p_t_abs_theta0, window_radius, floor_frac)[0]))


def decay_slope_fit(
    times: Sequence[float],
    values: Sequence[float],
    expected: float,
    quantity: str = "",
    tolerance: float = 0.05,
    min_decades: float = 1.5,
) -> SlopeFit:
    """Unweighted least-squares exponent of log(value) against log(t)."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    ok = (t > 0) & (v > 0) & np.isfinite(v)
    t, v = t[ok], v[ok]
    if len(t) < 8:
        raise ValueError(f"slope fit needs at least 8 usable points, got {len(t)}")
    decades = math.log10(t.max() / t.min())
    if decades < min_decades:
        raise ValueError(f"slope fit needs >= {min_decades} decades of t, got {decades:.2f}")
    lt, lv = np.log(t), np.log(v)
    A = np.vstack([lt, np.ones_like(lt)]).T
    coef, *_ = np.linalg.lstsq(A, lv, rcond=None)
    resid = lv - A @ coef
    dof = max(len(t) - 2, 1)
    s2 = float(resid @ resid) / dof
    stderr = math.sqrt(s2 / float(np.sum((lt - lt.mean()) ** 2)))
    return SlopeFit(
        quantity=quantity,
        t_lo=float(t.min()),
        t_hi=float(t.max()),
        slope=float(coef[0]),
        stderr=stderr,
        expected=expected,
        tolerance=tolerance,
    )


def diagnostics_slope_fit(
    alpha: float,
    records: Sequence[DiagnosticRecord],
    quantity: str,
    tolerance: float,
    t_lo: float = -math.inf,
    t_hi: float = math.inf,
    expected: float | None = None,
) -> SlopeFit:
    """Decay fit of one diagnostics column over t_lo <= t <= t_hi; by default
    against the critical-data exponent of ``expected_decay_exponent("theta_lp", alpha)``."""
    if expected is None:
        expected = expected_decay_exponent("theta_lp", alpha)
    ts = np.array([r.time for r in records])
    vs = np.array([getattr(r, quantity) for r in records])
    keep = (ts >= t_lo) & (ts <= t_hi)
    return decay_slope_fit(ts[keep], vs[keep], expected, quantity, tolerance)


def above_critical_local_check(
    result: SimulationResult,
    p_exp: float,
    T: float,
    window_radius: float,
    floor_frac: float = 1e-3,
) -> list[RatioDiagnostic]:
    """
    Local-in-time comparability for data in L^p with p above the critical
    power: finiteness of the window ratio bounds uniformly over (0, T].
    """
    alpha = result.config.alpha
    if p_exp <= critical_exponent(alpha):
        raise ValueError(
            f"p_exp must exceed the critical power {critical_exponent(alpha):.3f}"
        )
    theta0 = result.snapshots[0][1]
    if np.any(theta0.values < -1e-12):
        raise ValueError("the comparability check requires nonnegative initial data")
    if not np.isfinite(lp_norm(theta0, p_exp)):
        raise ValueError("initial data has no finite L^p norm at the requested power")
    out = [
        ratio_diagnostics(th, pt, window_radius, floor_frac, time=t)
        for t, th, pt in semigroup_reference(result, t_max=T + 1e-12)
    ]
    if not out:
        raise ValueError("no snapshots in (0, T]")
    return out


def expected_decay_exponent(quantity: str, alpha: float, p: float = math.inf, kappa_order: int = 0) -> float:
    """
    Analytic decay exponents:

    - solution or Riesz-transform L^p norms from critical data:
      -(alpha-1)/alpha + 2/(alpha p)
    - kernel-derivative L^p norms: -(2/alpha)(1 - 1/p) - |kappa|/alpha
    - Riesz-semigroup sup norms: -(|kappa| + alpha - 1)/alpha
    """
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    if quantity in ("theta_lp", "riesz_lp"):
        return -(alpha - 1.0) / alpha + 2.0 * inv_p / alpha
    if quantity == "kernel_lp":
        return -(2.0 / alpha) * (1.0 - inv_p) - kappa_order / alpha
    if quantity == "riesz_semigroup_sup":
        return -(kappa_order + alpha - 1.0) / alpha
    raise ValueError(f"unknown quantity {quantity!r}")


def _window(cfg: RunConfig) -> float:
    return cfg.window_fraction * cfg.box_length


def _positive_times(result: SimulationResult, check: str) -> list[float]:
    times = [t for t, _ in result.snapshots if t > 0]
    if not times:
        raise ValueError(f"check {check!r} needs at least one snapshot at t > 0")
    return times


def _check_max_principle(cfg: RunConfig, result: SimulationResult) -> list[VerdictRow]:
    rows = []
    for col in ("linf", "l2"):
        vals = np.array([getattr(r, col) for r in result.diagnostics])
        scale = np.maximum(vals[:-1], 1e-300)
        worst = float(np.max(np.diff(vals) / scale)) if len(vals) > 1 else 0.0
        rows.append(VerdictRow(f"max_principle_{col}", worst, "<= 1e-6 per step", worst <= 1e-6))
    return rows


def _check_mass_conservation(cfg: RunConfig, result: SimulationResult) -> list[VerdictRow]:
    means = np.array([r.mean for r in result.diagnostics])
    scale = max(abs(means[0]), 1e-300)
    worst = float(np.max(np.abs(means - means[0])) / scale)
    return [VerdictRow("mass_conservation", worst, "<= 1e-10 relative", worst <= 1e-10)]


def _worst_ratio(diags: Iterable[RatioDiagnostic]) -> float:
    """Largest window sup/inf; inf as soon as a sup is not finite or an inf is <= 0."""
    worst = 1.0
    for d in diags:
        if not (np.isfinite(d.sup_ratio) and d.inf_ratio > 0):
            return math.inf
        worst = max(worst, d.sup_ratio / d.inf_ratio)
    return worst


def _check_ratio(cfg: RunConfig, result: SimulationResult) -> list[VerdictRow]:
    _positive_times(result, "ratio")
    worst = _worst_ratio(ratio_diagnostics(th, pt, _window(cfg), cfg.floor_frac, time=t)
                         for t, th, pt in semigroup_reference(result))
    return [VerdictRow("ratio_comparability", worst, f"sup/inf < {cfg.ratio_alarm}", worst < cfg.ratio_alarm)]


def _check_limits(cfg: RunConfig, result: SimulationResult) -> list[VerdictRow]:
    times = _positive_times(result, "limits")
    t_split = float(np.sqrt(times[0] * times[-1]))
    window, floor, dev = _window(cfg), cfg.floor_frac, cfg.dev_threshold
    # one semigroup application per snapshot, shared by the three scans
    pairs = semigroup_reference(result)
    early = _scan([p for p in pairs if p[0] <= t_split], T_TO_0, window, floor, dev)
    late = _scan([p for p in pairs if p[0] >= t_split], T_TO_INF, window, floor, dev)
    space = _scan(pairs, X_TO_INF, window, floor, dev)
    return [
        VerdictRow("limit_t_to_0", early.extreme_value, f"series min and < {dev}", early.passed),
        VerdictRow("limit_t_to_inf", late.extreme_value, f"series min and < {dev}", late.passed),
        VerdictRow("limit_x_to_inf", space.extreme_value, "outermost annulus is scan min",
                   space.extreme_is_minimum),
    ]


def _check_gradients(cfg: RunConfig, result: SimulationResult) -> list[VerdictRow]:
    _positive_times(result, "gradients")
    theta0 = result.snapshots[0][1]
    abs0 = RealField(theta0.grid, np.abs(theta0.values))
    refs = _with_orbit([(t, th) for t, th in result.snapshots if t > 0], abs0, cfg.alpha)
    rows = []
    for kappa in (MultiIndex(1, 0), MultiIndex(0, 1), MultiIndex(2, 0), MultiIndex(1, 1), MultiIndex(0, 2)):
        qs = [gradient_bound_diag(th, pt, kappa, t, cfg.alpha, _window(cfg), cfg.floor_frac)
              for t, th, pt in refs]
        med = float(np.median(qs))
        spread = float(max(np.max(qs) / med, med / np.min(qs)))
        rows.append(VerdictRow(f"gradient_bound_{kappa.k1}{kappa.k2}", spread,
                               "within factor 2 of median", spread <= 2.0))
    return rows


def _check_slopes(cfg: RunConfig, result: SimulationResult) -> list[VerdictRow]:
    rows = []
    for q in cfg.slope_quantities or ("linf", "riesz_linf"):
        try:
            # slope_t_hi = 0 leaves the window open above
            fit = diagnostics_slope_fit(cfg.alpha, result.diagnostics, q, cfg.slope_tolerance,
                                        cfg.slope_t_lo, cfg.slope_t_hi or math.inf)
            rows.append(VerdictRow(f"slope_{q}", fit.slope,
                                   f"{fit.expected:+.4f} +/- {cfg.slope_tolerance}", fit.passed))
        except ValueError as e:
            rows.append(VerdictRow(f"slope_{q}", float("nan"), str(e), False))
    return rows


def _check_above_critical(cfg: RunConfig, result: SimulationResult) -> list[VerdictRow]:
    _positive_times(result, "above_critical")
    worst = _worst_ratio(above_critical_local_check(
        result, cfg.above_critical_p, cfg.above_critical_T, _window(cfg), cfg.floor_frac
    ))
    return [VerdictRow("above_critical_ratio", worst, f"finite, < {cfg.ratio_alarm}",
                       worst < cfg.ratio_alarm)]


# check name -> fn(cfg, result) -> verdict rows; rows come out in this order
CHECKS: dict[str, Callable[[RunConfig, SimulationResult], list[VerdictRow]]] = {
    "max_principle": _check_max_principle,
    "mass_conservation": _check_mass_conservation,
    "ratio": _check_ratio,
    "limits": _check_limits,
    "gradients": _check_gradients,
    "slopes": _check_slopes,
    "above_critical": _check_above_critical,
}


def run_checks(cfg: RunConfig, result: SimulationResult, names: Sequence[str]) -> list[VerdictRow]:
    """Verdict rows of the selected checks, in ``CHECKS`` order, each check once."""
    for name in names:
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r}; known checks: {', '.join(CHECKS)}")
    if not names:
        raise ValueError("no check selected: verification.checks in config.cfg, or --checks, "
                         f"names none; known checks: {', '.join(CHECKS)}")
    return [row for name, fn in CHECKS.items() if name in names for row in fn(cfg, result)]
