"""
Flat key-value run configuration (INI sections), with strict validation and
loss-free round-tripping: parse -> serialize -> parse is the identity.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

from .grid import GridSpec, RealField
from . import initial_data as _id
from .io import read_snapshot
from .solver import SolverConfig, critical_exponent

__all__ = ["ConfigError", "RunConfig", "parse_config", "parse_config_file", "serialize_config"]

_KINDS = ("gaussian", "compact_bump", "power_tail", "from_file", "multiscale")
_CHECKS = (
    "max_principle",
    "mass_conservation",
    "ratio",
    "limits",
    "gradients",
    "slopes",
    "above_critical",
)


class ConfigError(ValueError):
    """Configuration parse or validation failure, naming section and field."""


@dataclass(frozen=True)
class RunConfig:
    # grid
    grid_n: int = 256
    box_length: float = 40.0
    # solver
    alpha: float = 1.5
    dt: float = 0.2
    t_end: float = 1.0
    scheme: str = "ifrk4"
    dealias: bool = True
    nonlinear: bool = True
    cfl_safety: float = 0.5
    snapshot_times: tuple[float, ...] = ()
    # initial data
    id_kind: str = "gaussian"
    id_amplitude: float = 0.25
    id_width: float = 1.0
    id_aspect: float = 2.0
    id_rotation: float = 0.0
    id_gamma: float = 0.0
    id_core: float = 0.0
    id_angular: float = 0.0
    id_scales: int = 10
    id_path: str = ""
    # output
    output_dir: str = "run_output"
    # verification
    checks: tuple[str, ...] = ("max_principle", "mass_conservation", "ratio", "limits")
    window_fraction: float = 0.25
    floor_frac: float = 1e-3
    dev_threshold: float = 0.05
    ratio_alarm: float = 10.0
    slope_quantities: tuple[str, ...] = ()
    slope_t_lo: float = 0.0
    slope_t_hi: float = 0.0
    slope_tolerance: float = 0.05
    above_critical_p: float = 6.0
    above_critical_T: float = 5.0

    def grid(self) -> GridSpec:
        return GridSpec(self.grid_n, self.box_length)

    def solver_config(self) -> SolverConfig:
        return SolverConfig(
            alpha=self.alpha,
            dt=self.dt,
            t_end=self.t_end,
            grid=self.grid(),
            scheme=self.scheme,
            dealias=self.dealias,
            nonlinear=self.nonlinear,
            snapshot_times=self.snapshot_times,
            cfl_safety=self.cfl_safety,
        )

    def build_theta0(self, base_dir: Path | None = None) -> RealField:
        g = self.grid()
        k = self.id_kind
        if k == "gaussian":
            return _id.gaussian_bump(
                g, self.id_amplitude, self.id_width, aspect=self.id_aspect, rotation=self.id_rotation
            )
        if k == "compact_bump":
            return _id.compact_bump(
                g, self.id_amplitude, self.id_width, aspect=self.id_aspect, rotation=self.id_rotation
            )
        if k == "power_tail":
            core = self.id_core if self.id_core > 0 else None
            return _id.power_tail(g, self.id_amplitude, self.id_gamma, core, self.id_angular)
        if k == "multiscale":
            field, _ = _id.multiscale_ladder(
                g, self.alpha, self.id_amplitude, n_scales=self.id_scales, lam_max=self.id_width
            )
            return field
        if k == "from_file":
            path = Path(self.id_path)
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            field, _, _ = read_snapshot(path)
            if field.grid != g:
                raise ConfigError(
                    f"initial_data.path: field grid {field.grid.n}/{field.grid.box_length} "
                    f"does not match configured grid {g.n}/{g.box_length}"
                )
            return field
        raise ConfigError(f"initial_data.kind: unknown kind {k!r}")


def _validate(cfg: RunConfig) -> RunConfig:
    if cfg.id_kind not in _KINDS:
        raise ConfigError(f"initial_data.kind: {cfg.id_kind!r} not one of {_KINDS}")
    if cfg.id_kind == "power_tail":
        if not cfg.id_gamma > cfg.alpha - 1.0:
            raise ConfigError(
                "initial_data.gamma_exp: power-tail exponent must exceed alpha-1 "
                f"= {cfg.alpha - 1.0:.3f} so the datum lies in the critical space "
                f"L^{critical_exponent(cfg.alpha):.3f}"
            )
    if cfg.id_kind == "from_file" and not cfg.id_path:
        raise ConfigError("initial_data.path: required for kind = from_file")
    for c in cfg.checks:
        if c not in _CHECKS:
            raise ConfigError(f"verification.checks: unknown check {c!r}")
    # SolverConfig and GridSpec run their own validations
    cfg.solver_config()
    return cfg


def _floats(text: str) -> tuple[float, ...]:
    items = [x.strip() for x in text.replace(";", ",").split(",")]
    return tuple(float(x) for x in items if x)


def _names(text: str) -> tuple[str, ...]:
    return tuple(x.strip() for x in text.split(",") if x.strip())


def parse_config(text: str) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise ConfigError(f"config syntax: {e}") from e

    def get(section, key, conv, default):
        if not cp.has_option(section, key):
            return default
        raw = cp.get(section, key)
        try:
            return conv(raw)
        except (ValueError, TypeError) as e:
            raise ConfigError(f"{section}.{key}: cannot parse {raw!r} ({e})") from e

    onoff = lambda s: s.strip().lower() in ("on", "true", "yes", "1")
    d = RunConfig()
    cfg = RunConfig(
        grid_n=get("grid", "n", int, d.grid_n),
        box_length=get("grid", "box_length", float, d.box_length),
        alpha=get("solver", "alpha", float, d.alpha),
        dt=get("solver", "dt", float, d.dt),
        t_end=get("solver", "t_end", float, d.t_end),
        scheme=get("solver", "scheme", str.strip, d.scheme),
        dealias=get("solver", "dealias", onoff, d.dealias),
        nonlinear=get("solver", "nonlinear", onoff, d.nonlinear),
        cfl_safety=get("solver", "cfl_safety", float, d.cfl_safety),
        snapshot_times=get("solver", "snapshot_times", _floats, d.snapshot_times),
        id_kind=get("initial_data", "kind", str.strip, d.id_kind),
        id_amplitude=get("initial_data", "amplitude", float, d.id_amplitude),
        id_width=get("initial_data", "width", float, d.id_width),
        id_aspect=get("initial_data", "aspect", float, d.id_aspect),
        id_rotation=get("initial_data", "rotation", float, d.id_rotation),
        id_gamma=get("initial_data", "gamma_exp", float, d.id_gamma),
        id_core=get("initial_data", "core", float, d.id_core),
        id_angular=get("initial_data", "angular", float, d.id_angular),
        id_scales=get("initial_data", "scales", int, d.id_scales),
        id_path=get("initial_data", "path", str.strip, d.id_path),
        output_dir=get("output", "directory", str.strip, d.output_dir),
        checks=get("verification", "checks", _names, d.checks),
        window_fraction=get("verification", "window_fraction", float, d.window_fraction),
        floor_frac=get("verification", "floor_frac", float, d.floor_frac),
        dev_threshold=get("verification", "dev_threshold", float, d.dev_threshold),
        ratio_alarm=get("verification", "ratio_alarm", float, d.ratio_alarm),
        slope_quantities=get("verification", "slope_quantities", _names, d.slope_quantities),
        slope_t_lo=get("verification", "slope_t_lo", float, d.slope_t_lo),
        slope_t_hi=get("verification", "slope_t_hi", float, d.slope_t_hi),
        slope_tolerance=get("verification", "slope_tolerance", float, d.slope_tolerance),
        above_critical_p=get("verification", "above_critical_p", float, d.above_critical_p),
        above_critical_T=get("verification", "above_critical_T", float, d.above_critical_T),
    )
    return _validate(cfg)


def parse_config_file(path) -> RunConfig:
    return parse_config(Path(path).read_text())


def serialize_config(cfg: RunConfig) -> str:
    lines = [
        "[grid]",
        f"n = {cfg.grid_n}",
        f"box_length = {cfg.box_length!r}",
        "",
        "[solver]",
        f"alpha = {cfg.alpha!r}",
        f"dt = {cfg.dt!r}",
        f"t_end = {cfg.t_end!r}",
        f"scheme = {cfg.scheme}",
        f"dealias = {'on' if cfg.dealias else 'off'}",
        f"nonlinear = {'on' if cfg.nonlinear else 'off'}",
        f"cfl_safety = {cfg.cfl_safety!r}",
        f"snapshot_times = {', '.join(repr(t) for t in cfg.snapshot_times)}",
        "",
        "[initial_data]",
        f"kind = {cfg.id_kind}",
        f"amplitude = {cfg.id_amplitude!r}",
        f"width = {cfg.id_width!r}",
        f"aspect = {cfg.id_aspect!r}",
        f"rotation = {cfg.id_rotation!r}",
        f"gamma_exp = {cfg.id_gamma!r}",
        f"core = {cfg.id_core!r}",
        f"angular = {cfg.id_angular!r}",
        f"scales = {cfg.id_scales}",
        f"path = {cfg.id_path}",
        "",
        "[output]",
        f"directory = {cfg.output_dir}",
        "",
        "[verification]",
        f"checks = {', '.join(cfg.checks)}",
        f"window_fraction = {cfg.window_fraction!r}",
        f"floor_frac = {cfg.floor_frac!r}",
        f"dev_threshold = {cfg.dev_threshold!r}",
        f"ratio_alarm = {cfg.ratio_alarm!r}",
        f"slope_quantities = {', '.join(cfg.slope_quantities)}",
        f"slope_t_lo = {cfg.slope_t_lo!r}",
        f"slope_t_hi = {cfg.slope_t_hi!r}",
        f"slope_tolerance = {cfg.slope_tolerance!r}",
        f"above_critical_p = {cfg.above_critical_p!r}",
        f"above_critical_T = {cfg.above_critical_T!r}",
        "",
    ]
    return "\n".join(lines)
