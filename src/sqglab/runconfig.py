"""
Flat key-value run configuration (INI sections), with strict validation and
loss-free round-tripping: parse -> serialize -> parse is the identity.

Each ``RunConfig`` field names its own INI ``(section, key)`` in its
metadata, and the rule its values keep unless GridSpec or SolverConfig owns
it; parsing, validating and serializing are loops over the fields.  Values
are literal: ``%`` has no interpolation meaning, and on/off fields accept
only on/off, true/false, yes/no and 1/0.  A section or key that no field
names (``[DEFAULT]`` included) is an error naming it; a ``_RETIRED`` key is
read and ignored, if it holds its fixed value.  ``parse_config_file`` names
the file in its errors and makes a relative ``[initial_data] path`` absolute.
"""

from __future__ import annotations

import configparser
import contextlib
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .grid import GridSpec, RealField
from . import initial_data as _id
from .io import read_snapshot
from .solver import CFL_SAFETY, DECAY_QUANTITIES, SolverConfig, critical_exponent, initial_record
from .verify import CHECKS, FLOOR_FRAC, RATIO_ALARM, WINDOW_FRACTION

__all__ = ["ConfigError", "RunConfig", "parse_config", "parse_config_file", "serialize_config"]


class ConfigError(ValueError):
    """Configuration parse or validation failure, naming section and field."""


def _ini(section: str, key: str, default, rule=None):
    """A field read from ``[section] key``; ``rule`` = (its range, as errors word it; ok(value, cfg))."""
    return field(default=default, metadata={"ini": (section, key), "rule": rule})


def _finite(words: str = "", ok=lambda v, c: True):
    return f"finite and {words}" if words else "finite", lambda v, c: math.isfinite(v) and ok(v, c)


# a bump whose diameter is below the grid spacing falls between the samples
_BOX = "[half the grid spacing, the box length]"


def _in_box(v: float, c) -> bool:
    return c.box_length / c.grid_n / 2 <= v <= c.box_length


def _one_of(names) -> tuple:
    return f"one of {', '.join(names)}", lambda v, c: v in names


def _from_file(cfg: RunConfig, g: GridSpec) -> RealField:
    theta0, _, _ = read_snapshot(cfg.id_path)
    if theta0.grid != g:
        raise ConfigError(f"initial_data.path: field grid {theta0.grid.n}/{theta0.grid.box_length} "
                          f"does not match configured grid {g.n}/{g.box_length}")
    return theta0


# initial-data kind -> (the [initial_data] keys it reads, builder(cfg, grid))
_BUILDERS = {
    "gaussian": (("amplitude", "width", "aspect", "rotation"), lambda c, g: _id.gaussian_bump(
        g, c.id_amplitude, c.id_width, aspect=c.id_aspect, rotation=c.id_rotation)),
    "compact_bump": (("amplitude", "width", "aspect", "rotation"), lambda c, g: _id.compact_bump(
        g, c.id_amplitude, c.id_width, aspect=c.id_aspect, rotation=c.id_rotation)),
    "power_tail": (("amplitude", "gamma_exp", "core", "angular"), lambda c, g: _id.power_tail(
        g, c.id_amplitude, c.id_gamma, c.id_core, c.id_angular)),
    "from_file": (("path",), _from_file),
    "multiscale": (("amplitude", "width", "scales"), lambda c, g: _id.multiscale_ladder(
        g, c.alpha, c.id_amplitude, n_scales=c.id_scales, lam_max=c.id_width)[0]),
}
_POSITIVE = _finite("> 0", lambda v, c: v > 0)


@dataclass(frozen=True)
class RunConfig:
    grid_n: int = _ini("grid", "n", 256)
    box_length: float = _ini("grid", "box_length", 40.0)
    alpha: float = _ini("solver", "alpha", 1.5)
    dt: float = _ini("solver", "dt", 0.2)
    t_end: float = _ini("solver", "t_end", 1.0)
    scheme: str = _ini("solver", "scheme", SolverConfig.scheme)
    nonlinear: bool = _ini("solver", "nonlinear", SolverConfig.nonlinear)
    snapshot_times: tuple[float, ...] = _ini("solver", "snapshot_times", SolverConfig.snapshot_times)
    id_kind: str = _ini("initial_data", "kind", "gaussian", _one_of(_BUILDERS))
    id_amplitude: float = _ini("initial_data", "amplitude", 0.25, _finite())
    id_width: float = _ini("initial_data", "width", 1.0, _finite(f"in {_BOX}", _in_box))
    id_aspect: float = _ini("initial_data", "aspect", 2.0, _finite(
        f"> 0, with width * aspect in {_BOX}", lambda v, c: _in_box(c.id_width * v, c)))
    id_rotation: float = _ini("initial_data", "rotation", 0.0, _finite())
    id_gamma: float = _ini("initial_data", "gamma_exp", 0.0, _finite(
        "> alpha-1, so the datum lies in the critical space L^(2/(alpha-1))", lambda v, c: v > c.alpha - 1.0))
    id_core: float = _ini("initial_data", "core", 0.0, _finite(
        f"0 (for twice the grid spacing) or in {_BOX}", lambda v, c: v == 0 or _in_box(v, c)))
    id_angular: float = _ini("initial_data", "angular", 0.0, _finite("in (-1, 1)", lambda v, c: -1 < v < 1))
    id_scales: int = _ini("initial_data", "scales", 10, (
        ">= 1, with the finest scale initial_data.width * 2^((1 - scales)/2) at least 3 grid spacings",
        lambda v, c: _id._ladder_resolved(c.grid(), v, c.id_width)))
    id_path: str = _ini("initial_data", "path", "", ("the path of a snapshot file", lambda v, c: bool(v)))
    output_dir: str = _ini("output", "directory", "run_output", ("a non-empty path", lambda v, c: bool(v)))
    checks: tuple[str, ...] = _ini(
        "verification", "checks", ("max_principle", "mass_conservation", "ratio", "limits"), _one_of(CHECKS))
    dev_threshold: float = _ini("verification", "dev_threshold", 0.05, _POSITIVE)
    slope_quantities: tuple[str, ...] = _ini("verification", "slope_quantities", (), _one_of(DECAY_QUANTITIES))
    slope_t_lo: float = _ini("verification", "slope_t_lo", 0.0, _finite(">= 0", lambda v, c: v >= 0))
    slope_tolerance: float = _ini("verification", "slope_tolerance", 0.05, _POSITIVE)
    # the default 6 lies below 2/(alpha-1) for alpha <= 4/3, so it binds only where the check runs
    above_critical_p: float = _ini("verification", "above_critical_p", 6.0, _finite(
        "> the critical power 2/(alpha-1) when above_critical is checked",
        lambda v, c: v > critical_exponent(c.alpha) or "above_critical" not in c.checks))
    above_critical_T: float = _ini("verification", "above_critical_T", 5.0, _POSITIVE)

    def grid(self) -> GridSpec:
        return GridSpec(self.grid_n, self.box_length)

    def solver_config(self) -> SolverConfig:
        return SolverConfig(grid=self.grid(), **{name: getattr(self, name) for name in _SOLVER_FIELDS})

    def build_theta0(self) -> RealField:
        """theta0 of the [initial_data] keys.  Keys whose product leaves the
        float range give a datum with a non-finite value or t = 0 norm, which
        no one key's rule can see; it is refused naming the kind and its keys."""
        keys, build = _BUILDERS[self.id_kind]
        with np.errstate(over="ignore", invalid="ignore"):
            theta0 = build(self, self.grid())
        try:
            initial_record(self.solver_config(), theta0)
        except ValueError as e:
            raise ConfigError(f"initial_data: the {self.id_kind} datum of {', '.join(keys)} "
                              f"is beyond the float range ({e})") from None
        return theta0


# the SolverConfig fields a RunConfig field of the same name sets (all but grid)
_SOLVER_FIELDS = tuple(f.name for f in fields(SolverConfig) if f.name in RunConfig.__dataclass_fields__)


def _validate(cfg: RunConfig) -> RunConfig:
    # GridSpec and SolverConfig run their own validations, named here by section; the
    # rules below read the grid spacing and alpha, so those must hold first
    for section, build in (("grid", cfg.grid), ("solver", cfg.solver_config)):
        try:
            build()
        except ValueError as e:
            raise ConfigError(f"[{section}]: {e}") from None
    for f in fields(RunConfig):
        (section, key), rule = f.metadata["ini"], f.metadata["rule"]
        # kind, checked first of its section, selects the other [initial_data] keys that bind
        if rule is None or section == "initial_data" and key != "kind" and key not in _BUILDERS[cfg.id_kind][0]:
            continue
        words, ok = rule
        value = getattr(cfg, f.name)
        for item in value if isinstance(value, tuple) else (value,):
            if not ok(item, cfg):
                raise ConfigError(f"{section}.{key}: {item!r} must be {words}")
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


# keys a former RunConfig read, ignored so old run directories load: seed at any value, the rest only as fixed
_RETIRED = {
    ("initial_data", "seed"): None,
    ("solver", "dealias"): True, ("solver", "cfl_safety"): CFL_SAFETY,
    ("verification", "window_fraction"): WINDOW_FRACTION, ("verification", "floor_frac"): FLOOR_FRAC,
    ("verification", "ratio_alarm"): RATIO_ALARM, ("verification", "slope_t_hi"): 0.0,
}


def _reject_unknown(cp: configparser.ConfigParser) -> None:
    """Every section and key of the text must be a RunConfig field's, or retired and at its value."""
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
    for (section, key), fixed in _RETIRED.items():
        if fixed is None or not cp.has_option(section, key):
            continue
        parse, fmt = _CODECS[type(fixed).__name__]
        raw = cp.get(section, key)
        with contextlib.suppress(ValueError):
            if parse(raw) == fixed:
                continue
        raise ConfigError(f"{section}.{key}: retired key, accepted only as {fmt(fixed)}, got {raw!r}")


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
    path = Path(path)
    try:
        cfg = parse_config(path.read_text())
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from None
    if cfg.id_path and not Path(cfg.id_path).is_absolute():
        cfg = replace(cfg, id_path=str(path.parent.absolute() / cfg.id_path))
    return cfg


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
