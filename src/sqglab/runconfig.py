"""
Flat key-value run configuration (INI sections), with strict validation and
loss-free round-tripping: parse -> serialize -> parse is the identity.

Each ``RunConfig`` field names its own INI ``(section, key)`` in its
metadata; parsing and serializing are one loop over the fields, with one
(parse, format) pair per field type.  Values are literal: ``%`` has no
interpolation meaning, and on/off fields accept only on/off, true/false,
yes/no and 1/0.  A section or key that no field names (``[DEFAULT]``
included) is an error naming it; only the retired keys of ``_RETIRED`` are
read and ignored.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .grid import GridSpec, RealField
from . import initial_data as _id
from .io import read_snapshot
from .solver import DECAY_QUANTITIES, SolverConfig, critical_exponent
from .verify import CHECKS

__all__ = ["ConfigError", "RunConfig", "parse_config", "parse_config_file", "serialize_config"]


class ConfigError(ValueError):
    """Configuration parse or validation failure, naming section and field."""


def _ini(section: str, key: str, default):
    return field(default=default, metadata={"ini": (section, key)})


@dataclass(frozen=True)
class RunConfig:
    grid_n: int = _ini("grid", "n", 256)
    box_length: float = _ini("grid", "box_length", 40.0)
    alpha: float = _ini("solver", "alpha", 1.5)
    dt: float = _ini("solver", "dt", 0.2)
    t_end: float = _ini("solver", "t_end", 1.0)
    scheme: str = _ini("solver", "scheme", "ifrk4")
    dealias: bool = _ini("solver", "dealias", True)
    nonlinear: bool = _ini("solver", "nonlinear", True)
    cfl_safety: float = _ini("solver", "cfl_safety", 0.5)
    snapshot_times: tuple[float, ...] = _ini("solver", "snapshot_times", ())
    id_kind: str = _ini("initial_data", "kind", "gaussian")
    id_amplitude: float = _ini("initial_data", "amplitude", 0.25)
    id_width: float = _ini("initial_data", "width", 1.0)
    id_aspect: float = _ini("initial_data", "aspect", 2.0)
    id_rotation: float = _ini("initial_data", "rotation", 0.0)
    id_gamma: float = _ini("initial_data", "gamma_exp", 0.0)
    id_core: float = _ini("initial_data", "core", 0.0)
    id_angular: float = _ini("initial_data", "angular", 0.0)
    id_scales: int = _ini("initial_data", "scales", 10)
    id_path: str = _ini("initial_data", "path", "")
    output_dir: str = _ini("output", "directory", "run_output")
    checks: tuple[str, ...] = _ini(
        "verification", "checks", ("max_principle", "mass_conservation", "ratio", "limits")
    )
    window_fraction: float = _ini("verification", "window_fraction", 0.25)
    floor_frac: float = _ini("verification", "floor_frac", 1e-3)
    dev_threshold: float = _ini("verification", "dev_threshold", 0.05)
    ratio_alarm: float = _ini("verification", "ratio_alarm", 10.0)
    slope_quantities: tuple[str, ...] = _ini("verification", "slope_quantities", ())
    slope_t_lo: float = _ini("verification", "slope_t_lo", 0.0)
    slope_t_hi: float = _ini("verification", "slope_t_hi", 0.0)
    slope_tolerance: float = _ini("verification", "slope_tolerance", 0.05)
    above_critical_p: float = _ini("verification", "above_critical_p", 6.0)
    above_critical_T: float = _ini("verification", "above_critical_T", 5.0)

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
        return _BUILDERS[self.id_kind](self, self.grid(), base_dir)


def _key(name: str) -> str:
    """``section.key`` of a RunConfig field, as error messages name it."""
    return ".".join(RunConfig.__dataclass_fields__[name].metadata["ini"])


def _from_file(cfg: RunConfig, g: GridSpec, base_dir: Path | None) -> RealField:
    path = Path(cfg.id_path)
    if base_dir is not None and not path.is_absolute():
        path = base_dir / path
    theta0, _, _ = read_snapshot(path)
    if theta0.grid != g:
        raise ConfigError(
            f"{_key('id_path')}: field grid {theta0.grid.n}/{theta0.grid.box_length} "
            f"does not match configured grid {g.n}/{g.box_length}"
        )
    return theta0


# initial-data kind -> builder(cfg, grid, base_dir)
_BUILDERS = {
    "gaussian": lambda c, g, _: _id.gaussian_bump(
        g, c.id_amplitude, c.id_width, aspect=c.id_aspect, rotation=c.id_rotation
    ),
    "compact_bump": lambda c, g, _: _id.compact_bump(
        g, c.id_amplitude, c.id_width, aspect=c.id_aspect, rotation=c.id_rotation
    ),
    "power_tail": lambda c, g, _: _id.power_tail(
        g, c.id_amplitude, c.id_gamma, c.id_core if c.id_core > 0 else None, c.id_angular
    ),
    "from_file": _from_file,
    "multiscale": lambda c, g, _: _id.multiscale_ladder(
        g, c.alpha, c.id_amplitude, n_scales=c.id_scales, lam_max=c.id_width
    )[0],
}


# [verification] field -> (its range, as errors word it; test of a finite value and the config)
_RANGES = (
    ("window_fraction", "in (0, 0.5]", lambda v, c: 0 < v <= 0.5),
    ("floor_frac", "in (0, 1]", lambda v, c: 0 < v <= 1),
    ("dev_threshold", "> 0", lambda v, c: v > 0),
    ("slope_tolerance", "> 0", lambda v, c: v > 0),
    ("above_critical_T", "> 0", lambda v, c: v > 0),
    ("ratio_alarm", "> 1", lambda v, c: v > 1),
    ("slope_t_lo", ">= 0", lambda v, c: v >= 0),
    ("slope_t_hi", "0 (open above) or > slope_t_lo", lambda v, c: v == 0 or v > c.slope_t_lo),
    # the default 6 lies below 2/(alpha-1) for alpha <= 4/3, so it binds only where the check runs
    ("above_critical_p", "> the critical power 2/(alpha-1) when above_critical is checked",
     lambda v, c: v > critical_exponent(c.alpha) or "above_critical" not in c.checks),
)


def _validate(cfg: RunConfig) -> RunConfig:
    # SolverConfig and GridSpec run their own validations; alpha must be in
    # (1, 2) before the critical exponent below can be formed
    cfg.solver_config()
    if cfg.id_kind not in _BUILDERS:
        raise ConfigError(f"{_key('id_kind')}: {cfg.id_kind!r} not one of {tuple(_BUILDERS)}")
    if cfg.id_kind == "power_tail" and not cfg.id_gamma > cfg.alpha - 1.0:
        raise ConfigError(
            f"{_key('id_gamma')}: power-tail exponent must exceed alpha-1 "
            f"= {cfg.alpha - 1.0:.3f} so the datum lies in the critical space "
            f"L^{critical_exponent(cfg.alpha):.3f}"
        )
    if cfg.id_kind == "from_file" and not cfg.id_path:
        raise ConfigError(f"{_key('id_path')}: required for kind = from_file")
    for name, known in (("checks", CHECKS), ("slope_quantities", DECAY_QUANTITIES)):
        unknown = [v for v in getattr(cfg, name) if v not in known]
        if unknown:
            raise ConfigError(f"{_key(name)}: unknown {unknown[0]!r}; known: {', '.join(known)}")
    for name, rule, ok in _RANGES:
        value = getattr(cfg, name)
        if not (math.isfinite(value) and ok(value, cfg)):
            raise ConfigError(f"{_key(name)}: {value!r} must be finite and {rule}")
    return cfg


_ON = ("on", "true", "yes", "1")
_OFF = ("off", "false", "no", "0")


def _onoff(text: str) -> bool:
    word = text.strip().lower()
    if word not in _ON + _OFF:
        raise ValueError(f"expected one of {', '.join(_ON + _OFF)}")
    return word in _ON


def _floats(text: str) -> tuple[float, ...]:
    items = [x.strip() for x in text.replace(";", ",").split(",")]
    return tuple(float(x) for x in items if x)


def _names(text: str) -> tuple[str, ...]:
    return tuple(x.strip() for x in text.split(",") if x.strip())


# field annotation -> (parse INI text, format value as INI text)
_CODECS = {
    "int": (int, str),
    "float": (float, repr),
    "str": (str.strip, str),
    "bool": (_onoff, lambda v: "on" if v else "off"),
    "tuple[float, ...]": (_floats, lambda v: ", ".join(repr(x) for x in v)),
    "tuple[str, ...]": (_names, ", ".join),
}


# keys a former RunConfig read, accepted and ignored so that old run directories load
_RETIRED = (("initial_data", "seed"),)


def _reject_unknown(cp: configparser.ConfigParser) -> None:
    """Every section and key of the text must be a RunConfig field's (or retired)."""
    names = [f.metadata["ini"] for f in fields(RunConfig)] + list(_RETIRED)
    known = {(section, cp.optionxform(key)) for section, key in names}
    given = [(cp.default_section, key) for key in cp.defaults()]
    given += [(section, key) for section in cp.sections() for key in cp.options(section)]
    for section, key in given:
        if (section, key) not in known:
            raise ConfigError(f"{section}.{key}: unknown key")
    for section in cp.sections():
        if section not in {s for s, _ in names}:
            raise ConfigError(f"[{section}]: unknown section")


def parse_config(text: str) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise ConfigError(f"config syntax: {e}") from e
    _reject_unknown(cp)
    values = {}
    for f in fields(RunConfig):
        section, key = f.metadata["ini"]
        if not cp.has_option(section, key):
            continue
        raw = cp.get(section, key)
        try:
            values[f.name] = _CODECS[f.type][0](raw)
        except (ValueError, TypeError) as e:
            raise ConfigError(f"{section}.{key}: cannot parse {raw!r} ({e})") from e
    return _validate(RunConfig(**values))


def parse_config_file(path) -> RunConfig:
    return parse_config(Path(path).read_text())


def serialize_config(cfg: RunConfig) -> str:
    lines: list[str] = []
    section = None
    for f in fields(RunConfig):
        sec, key = f.metadata["ini"]
        if sec != section:
            if section is not None:
                lines.append("")
            lines.append(f"[{sec}]")
            section = sec
        lines.append(f"{key} = {_CODECS[f.type][1](getattr(cfg, f.name))}")
    return "\n".join(lines) + "\n"
