import ast
import builtins
import contextlib
import csv
import dataclasses
import hashlib
import importlib.util
import inspect
import io
import math
import os
import re
import shutil
import struct
import subprocess
import sys
from datetime import timedelta
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import sqglab
import sqglab.solver as solver
import sqglab.verify as _verify
from sqglab.cli import _load_run, main
from sqglab.grid import GridSpec, RealField
from sqglab.initial_data import _ladder_resolved, compact_bump
from sqglab.kernel import KernelProfile, load_profile, save_profile
from sqglab.io import (
    read_diagnostics,
    read_snapshot,
    write_diagnostics,
    write_snapshot,
)
from sqglab.runconfig import _RETIRED, ConfigError, RunConfig, parse_config, serialize_config
from sqglab.solver import DECAY_QUANTITIES, MAX_STEPS, DiagnosticRecord, critical_exponent
from sqglab.verify import CHECKS


BASE_CONFIG = """
[grid]
n = 64
box_length = 20.0

[solver]
alpha = 1.5
dt = 0.05
t_end = 0.3
scheme = ifrk4
nonlinear = on
snapshot_times = 0.1, 0.3

[initial_data]
kind = gaussian
amplitude = 0.4
width = 1.0
aspect = 2.0

[output]
directory = {out}

[verification]
checks = max_principle, mass_conservation, ratio, limits
"""


_BASE_INITIAL_DATA = "kind = gaussian\namplitude = 0.4\nwidth = 1.0\naspect = 2.0"
_GAUSSIAN_BEYOND = "initial_data: the gaussian datum of amplitude, width, aspect, rotation is beyond the float range"


def run_cli(*args):
    return main([str(a) for a in args])


class TestRunConfig:
    def test_round_trip_identity(self):
        cfg = parse_config(BASE_CONFIG.format(out="x"))
        text = serialize_config(cfg)
        again = parse_config(text)
        assert again == cfg
        assert serialize_config(again) == text
        # run directories written before the unused seed field was dropped still load
        old = BASE_CONFIG.format(out="x").replace("aspect = 2.0", "aspect = 2.0\nseed = 0")
        assert parse_config(old) == cfg

    def test_power_tail_integrability_guard(self):
        text = BASE_CONFIG.format(out="x").replace(
            "kind = gaussian", "kind = power_tail\ngamma_exp = 0.3"
        )
        with pytest.raises(ConfigError, match="alpha-1"):
            parse_config(text)

    def test_power_tail_valid(self):
        text = BASE_CONFIG.format(out="x").replace(
            "kind = gaussian", "kind = power_tail\ngamma_exp = 0.6"
        )
        cfg = parse_config(text)
        th0 = cfg.build_theta0()
        assert np.all(th0.values > 0)

    def test_unknown_kind(self):
        text = BASE_CONFIG.format(out="x").replace("kind = gaussian", "kind = blob")
        with pytest.raises(ConfigError, match="kind"):
            parse_config(text)

    def test_unknown_check(self):
        text = BASE_CONFIG.format(out="x").replace("checks = max_principle", "checks = vibes")
        with pytest.raises(ConfigError, match="check"):
            parse_config(text)

    def test_unknown_slope_quantity(self):
        text = BASE_CONFIG.format(out="x") + "slope_quantities = linf, vibes\n"
        with pytest.raises(ConfigError, match="verification.slope_quantities: 'vibes' must be one of l2, "):
            parse_config(text)

    @pytest.mark.parametrize("old, new, name", [
        ("snapshot_times = 0.1, 0.3", "snapshot_time = 0.05", "solver.snapshot_time"),
        ("[grid]", "[DEFAULT]\nn = 64\n[grid]", "DEFAULT.n"),
        ("[output]", "[extra]\njunk = 1\n[output]", "extra.junk"),
        ("[output]", "[Grid]\nn = 64\n[output]", "Grid.n"),
        ("[output]", "[extra]\n[output]", r"\[extra\]: unknown section"),
    ])
    def test_unknown_section_or_key_named(self, old, new, name):
        text = BASE_CONFIG.format(out="x").replace(old, new)
        with pytest.raises(ConfigError, match=name):
            parse_config(text)

    def test_syntax_error_reported(self):
        with pytest.raises(ConfigError, match="syntax"):
            parse_config("[grid\nn = 64")

    def test_bad_field_named(self):
        text = BASE_CONFIG.format(out="x").replace("dt = 0.05", "dt = fast")
        with pytest.raises(ConfigError, match="solver.dt"):
            parse_config(text)

    def test_percent_is_literal(self):
        # no interpolation: '%%' stays '%%' and a run's own config.cfg reads back
        cfg = parse_config(BASE_CONFIG.format(out="runs/100%%"))
        assert cfg.output_dir == "runs/100%%"
        assert parse_config(serialize_config(cfg)) == cfg

    @pytest.mark.parametrize("key, word", [("dealias", "of"), ("nonlinear", "maybe")])
    def test_onoff_is_strict(self, key, word):
        # dealias is retired, but its value is still read as on/off
        text = BASE_CONFIG.format(out="x").replace("nonlinear = on", "nonlinear = on\ndealias = on")
        text = text.replace(f"{key} = on", f"{key} = {word}")
        with pytest.raises(ConfigError, match=f"solver.{key}"):
            parse_config(text)

    @pytest.mark.parametrize("word, value", [
        ("on", True), ("true", True), ("Yes", True), ("1", True),
        ("OFF", False), ("false", False), ("no", False), ("0", False),
    ])
    def test_onoff_spellings(self, word, value):
        text = BASE_CONFIG.format(out="x").replace("nonlinear = on", f"nonlinear = {word}")
        assert parse_config(text).nonlinear is value

    @pytest.mark.parametrize("section, key, spellings, refused", [
        ("solver", "dealias", ("on", "Yes"), ("off", "of")),
        ("solver", "cfl_safety", ("0.5", "5e-1"), ("0.25", "nan")),
        ("verification", "window_fraction", ("0.25", "2.5e-1"), ("0.5", "x")),
        ("verification", "floor_frac", ("0.001", "1e-3"), ("1e-6", "")),
        ("verification", "ratio_alarm", ("10.0", "1e1"), ("2", "inf")),
        ("verification", "slope_t_hi", ("0.0", "0"), ("5", "-0.0001")),
    ])
    def test_retired_key_only_at_its_value(self, tmp_path, capsys, section, key, spellings, refused):
        # a config written before the key became a constant loads as it ran;
        # any other value would run other than the file says
        plain = BASE_CONFIG.format(out=tmp_path / "o")
        for word in spellings:
            assert parse_config(plain.replace(f"[{section}]", f"[{section}]\n{key} = {word}")) == parse_config(plain)
        value = _RETIRED[section, key]
        accepted = "on" if value is True else repr(value)
        for word in refused:
            cfgfile = tmp_path / "run.cfg"
            cfgfile.write_text(plain.replace(f"[{section}]", f"[{section}]\n{key} = {word}"))
            assert run_cli("simulate", "--config", cfgfile) == 2
            assert capsys.readouterr().err == (f"error: {cfgfile}: {section}.{key}: retired key, "
                                               f"accepted only as {accepted}, got {word!r}\n")
        assert not (tmp_path / "o").exists()

    def test_bench_bump_config_loads(self, tmp_path):
        # the benchmark's config still writes dealias = on and cfl_safety = 0.5
        spec = importlib.util.spec_from_file_location(
            "bench_workloads", Path(__file__).parents[1] / "bench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        text = workloads._bump_config(1.5, 0.3, tmp_path / "o")
        assert "dealias = on\n" in text and "cfl_safety = 0.5\n" in text
        cfg = parse_config(text)
        assert cfg == parse_config(text.replace("dealias = on\n", "").replace("cfl_safety = 0.5\n", ""))
        assert (cfg.grid_n, cfg.alpha, cfg.id_rotation, cfg.nonlinear) == (256, 1.5, 0.3, True)

    @pytest.mark.parametrize("key, value, checks", [
        ("window_fraction", "nan", ""), ("window_fraction", "-1", ""), ("window_fraction", "0.6", ""),
        ("floor_frac", "-1", ""), ("floor_frac", "0", ""), ("floor_frac", "1.5", ""),
        ("dev_threshold", "0", ""), ("dev_threshold", "inf", ""),
        ("ratio_alarm", "nan", ""), ("ratio_alarm", "1.0", ""),
        ("slope_tolerance", "-1", ""), ("slope_t_lo", "-1", ""), ("slope_t_lo", "nan", ""),
        ("slope_t_hi", "-0.5", ""), ("above_critical_T", "0", ""),
        ("above_critical_p", "nan", ""), ("above_critical_p", "3.0", "above_critical"),
    ])
    def test_bad_verification_value_named(self, tmp_path, capsys, key, value, checks):
        text = BASE_CONFIG.format(out=tmp_path / "o") + f"{key} = {value}\n"
        if checks:
            text = text.replace("checks = max_principle, mass_conservation, ratio, limits", f"checks = {checks}")
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(text)
        assert run_cli("simulate", "--config", cfgfile) == 2
        if ("verification", key) in _RETIRED:
            # a retired key's former range check is now its one accepted value
            named = f"retired key, accepted only as {_RETIRED['verification', key]!r}, got {value!r}"
        else:
            named = f"{float(value)!r} must be finite and"
        assert f"error: {cfgfile}: verification.{key}: {named}" in capsys.readouterr().err

    @pytest.mark.parametrize("initial_data, named", [
        ("kind = multiscale\nscales = 0", "scales: 0 must be >= 1"),
        ("kind = multiscale\nscales = -2", "scales: -2 must be >= 1"),
        ("kind = multiscale\nwidth = 4.0\nscales = 6", "scales: 6 must be >= 1, with the finest scale initial_data.width"),
        ("kind = multiscale\nwidth = -4", "width: -4.0 must be finite and in [half the grid spacing"),
        ("kind = compact_bump\nwidth = 1e-300", "width: 1e-300 must be finite and in [half the grid spacing"),
        ("kind = compact_bump\naspect = 0", "aspect: 0.0 must be finite and > 0"),
        ("kind = gaussian\nwidth = 1e-200", "width: 1e-200 must be finite and"),
        ("kind = gaussian\nwidth = 21", "width: 21.0 must be finite and"),
        ("kind = gaussian\naspect = -1", "aspect: -1.0 must be finite and > 0"),
        ("kind = gaussian\naspect = 100", "aspect: 100.0 must be finite and > 0, with width * aspect in"),
        ("kind = gaussian\namplitude = nan", "amplitude: nan must be finite\n"),
        ("kind = gaussian\nrotation = inf", "rotation: inf must be finite\n"),
        ("kind = power_tail\ngamma_exp = 0.6\ncore = 1e-300", "core: 1e-300 must be finite and 0 (for twice"),
        ("kind = power_tail\ngamma_exp = 0.6\ncore = -1", "core: -1.0 must be finite and 0 (for twice"),
        ("kind = power_tail\ngamma_exp = 0.6\nangular = 1", "angular: 1.0 must be finite and in (-1, 1)"),
        ("kind = power_tail\ngamma_exp = nan", "gamma_exp: nan must be finite and > alpha-1"),
        ("kind = from_file", "path: '' must be the path of a snapshot file"),
        ("kind = blob", "kind: 'blob' must be one of gaussian, compact_bump, power_tail, from_file, multiscale"),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bad_initial_data_value_named(self, tmp_path, capsys, initial_data, named):
        # each value the kind reads is refused before any work, naming its key
        text = BASE_CONFIG.format(out=tmp_path / "o").replace(_BASE_INITIAL_DATA, initial_data)
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(text.replace("n = 64", "n = 16"))
        assert run_cli("simulate", "--config", cfgfile) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfgfile}: initial_data.{named}") and err.count("\n") == 1, err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind, unread", [
        ("gaussian", "core = -1"), ("gaussian", "gamma_exp = nan"), ("compact_bump", "scales = 0"),
        ("compact_bump", "angular = 5"), ("gaussian", "path = "), ("from_file\npath = seed.sqgf", "rotation = inf"),
        ("power_tail\ngamma_exp = 0.6", "rotation = nan"), ("multiscale\nscales = 1", "angular = -3"),
    ])
    def test_a_rule_binds_only_where_the_kind_reads_its_key(self, kind, unread):
        parse_config(BASE_CONFIG.format(out="x").replace(_BASE_INITIAL_DATA, f"kind = {kind}\n{unread}"))

    def test_every_number_outside_grid_and_solver_has_a_rule(self):
        # a key GridSpec and SolverConfig do not check is checked by its own rule, or a new key could skip the table
        numbers = [f for f in dataclasses.fields(RunConfig)
                   if f.type in ("int", "float") and f.metadata["ini"][0] not in ("grid", "solver")]
        assert numbers and [f.name for f in numbers if f.metadata["rule"] is None] == []

    def test_power_tail_alpha_one_names_alpha(self):
        # the solver's alpha range is checked before the critical exponent
        # 2/(alpha-1) of the power-tail guard is formed
        text = BASE_CONFIG.format(out="x").replace(
            "kind = gaussian", "kind = power_tail\ngamma_exp = 0.0"
        ).replace("alpha = 1.5", "alpha = 1.0")
        with pytest.raises(ValueError, match="alpha"):
            parse_config(text)


_PATHS = st.text(alphabet="abcXYZ019/._-%~", max_size=24)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=1e-9, max_value=1e9)


@st.composite
def _initial_data(draw, kind: str, alpha: float, grid: GridSpec) -> dict:
    """The [initial_data] fields of a valid config: each key ``kind`` reads from its declared range, the rest any."""
    dx, L = grid.dx, grid.box_length
    values = dict(id_amplitude=draw(_FLOATS), id_width=draw(_FLOATS), id_aspect=draw(_FLOATS),
                  id_rotation=draw(_FLOATS), id_gamma=draw(_FLOATS), id_core=draw(_FLOATS),
                  id_angular=draw(_FLOATS), id_scales=draw(st.integers(min_value=-10**9, max_value=10**9)),
                  id_path=draw(_PATHS.filter(bool) if kind == "from_file" else _PATHS))
    if kind in ("gaussian", "compact_bump"):
        width = values["id_width"] = draw(st.floats(dx / 2, L))
        values["id_aspect"] = draw(st.floats(dx / 2 / width, L / width).filter(lambda a: dx / 2 <= width * a <= L))
    elif kind == "power_tail":
        values["id_gamma"] = alpha - 1.0 + draw(st.floats(min_value=1e-6, max_value=10.0))
        values["id_core"] = draw(st.one_of(st.just(0.0), st.floats(dx / 2, L)))
        values["id_angular"] = draw(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
    elif kind == "multiscale":
        width = values["id_width"] = draw(st.floats(3 * dx, L))
        top = math.floor(1 + math.log(width / (3 * dx), math.sqrt(2)))
        values["id_scales"] = draw(st.integers(1, max(top, 1)).filter(lambda n: _ladder_resolved(grid, n, width)))
    return values


@st.composite
def _valid_configs(draw):
    alpha = draw(st.floats(min_value=1.0, max_value=2.0, exclude_min=True, exclude_max=True))
    t_end = draw(st.floats(min_value=0.0, max_value=1e6))
    kind = draw(st.sampled_from(["gaussian", "compact_bump", "power_tail", "from_file", "multiscale"]))
    grid = GridSpec(2 * draw(st.integers(min_value=8, max_value=10**6)), draw(_POSITIVE))
    return RunConfig(
        grid_n=grid.n,
        box_length=grid.box_length,
        alpha=alpha,
        # within the IF-RK4 step budget, with room for the rounding of t_end/dt
        dt=draw(st.floats(min_value=max(1e-9, 2 * t_end / MAX_STEPS), max_value=1e9)),
        t_end=t_end,
        scheme=draw(st.sampled_from(["ifrk4", "picard"])),
        nonlinear=draw(st.booleans()),
        snapshot_times=tuple(draw(st.lists(st.floats(min_value=0.0, max_value=t_end), max_size=5))),
        id_kind=kind,
        **draw(_initial_data(kind, alpha, grid)),
        output_dir=draw(_PATHS.filter(bool)),
        checks=tuple(draw(st.lists(st.sampled_from(list(CHECKS)), max_size=8))),
        dev_threshold=draw(_POSITIVE),
        slope_quantities=tuple(draw(st.lists(st.sampled_from(DECAY_QUANTITIES), max_size=3))),
        slope_t_lo=draw(st.floats(min_value=0.0, max_value=1e6)),
        slope_tolerance=draw(_POSITIVE),
        above_critical_p=critical_exponent(alpha) * draw(st.floats(min_value=1.001, max_value=10.0)),
        above_critical_T=draw(_POSITIVE),
    )


# every (section, key) of the format and the retired keys, plus keys the parser must reject
_KEYS = [f.metadata["ini"] for f in dataclasses.fields(RunConfig)] + list(_RETIRED)
_KEYS += [("DEFAULT", "n"), ("extra", "junk")]
_VALUES = st.one_of(
    st.text(max_size=20),
    st.sampled_from(["1.0", "1", "1.5", "0", "-1", "64", "1e999", "nan", "on", "power_tail",
                     "from_file", "ratio", "%", "%%", "%(x)s", "50%", ""]),
)


@st.composite
def _ini_texts(draw):
    sections: dict[str, list[str]] = {}
    for (section, key), value in draw(st.dictionaries(st.sampled_from(_KEYS), _VALUES, max_size=12)).items():
        sections.setdefault(section, []).append(f"{key} = {value}")
    return "\n".join(f"[{section}]\n" + "\n".join(lines) for section, lines in sections.items())


class TestRunConfigProperties:
    @settings(max_examples=200, deadline=None)
    @given(_valid_configs())
    def test_serialize_parse_identity(self, cfg):
        text = serialize_config(cfg)
        assert parse_config(text) == cfg
        assert serialize_config(parse_config(text)) == text

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), _ini_texts()))
    def test_parse_raises_only_value_error(self, text):
        try:
            parse_config(text)
        except ValueError:
            pass


class TestSnapshotIO:
    def test_round_trip(self, tmp_path):
        g = GridSpec(32, 7.0)
        rng = np.random.default_rng(3)
        f = RealField(g, rng.standard_normal(g.shape))
        p = tmp_path / "s.sqgf"
        write_snapshot(p, f, t=0.7, alpha=1.5)
        f2, t, alpha = read_snapshot(p)
        assert t == 0.7 and alpha == 1.5
        assert np.array_equal(f.values, f2.values)
        assert f2.grid == g

    def test_bad_magic_names_file(self, tmp_path):
        p = tmp_path / "junk.sqgf"
        p.write_bytes(b"WHAT" + bytes(100))
        with pytest.raises(ValueError, match="junk.sqgf"):
            read_snapshot(p)

    def test_every_truncation_names_file(self, tmp_path):
        g = GridSpec(16, 5.0)
        full = tmp_path / "full.sqgf"
        write_snapshot(full, RealField(g, np.ones(g.shape)), t=0.2, alpha=1.5)
        data = full.read_bytes()
        cut = tmp_path / "cut.sqgf"
        for size in range(len(data)):
            cut.write_bytes(data[:size])
            with pytest.raises(ValueError, match="cut.sqgf"):
                read_snapshot(cut)


    @pytest.mark.parametrize("n_claimed", [16, 2**31])
    def test_sample_count_must_match_the_file(self, tmp_path, n_claimed):
        # fewer samples than the file holds leaves bytes over; more is refused
        # before any read, however large
        p = tmp_path / "s.sqgf"
        write_snapshot(p, RealField(GridSpec(18, 5.0), np.ones((18, 18))), t=0.2, alpha=1.5)
        data = bytearray(p.read_bytes())
        data[8:12] = struct.pack("<I", n_claimed)
        p.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="s.sqgf: (unexpected bytes|file is truncated)"):
            read_snapshot(p)

    @pytest.mark.parametrize("t, alpha", [
        (-5.0, 1.5), (-1e-300, 1.5), (math.nan, 1.5), (math.inf, 1.5), (0.2, math.nan), (0.2, -math.inf),
    ])
    def test_header_time_and_alpha_are_checked(self, tmp_path, t, alpha):
        p = tmp_path / "s.sqgf"
        write_snapshot(p, RealField(GridSpec(16, 5.0), np.ones((16, 16))), t=t, alpha=alpha)
        with pytest.raises(ValueError, match="s.sqgf: snapshot time .* must be finite, with t >= 0"):
            read_snapshot(p)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_samples_are_checked(self, tmp_path, bad):
        values = np.ones((16, 16))
        values[5, 9] = bad
        p = tmp_path / "s.sqgf"
        write_snapshot(p, RealField(GridSpec(16, 5.0), values), t=0.2, alpha=1.5)
        with pytest.raises(ValueError, match="s.sqgf: snapshot samples must be finite"):
            read_snapshot(p)


class TestByteLayout:
    """Both binary files, packed by hand from the README layout: the writers
    produce exactly these bytes and the readers read them back, so a writer
    and reader that drifted together, away from files already on disk, fail."""

    def test_snapshot(self, tmp_path):
        n, L, t, alpha = 16, 7.5, 0.25, 1.5
        values = np.arange(n * n, dtype=float).reshape(n, n) / 7.0 - 3.0
        packed = (b"SQGF" + struct.pack("<I", 1) + struct.pack("<I", n)
                  + struct.pack("<d", L) + struct.pack("<d", t) + struct.pack("<d", alpha)
                  + b"".join(struct.pack("<d", v) for row in values for v in row))
        p = tmp_path / "s.sqgf"
        write_snapshot(p, RealField(GridSpec(n, L), values), t=t, alpha=alpha)
        assert p.read_bytes() == packed
        hand = tmp_path / "hand.sqgf"
        hand.write_bytes(packed)
        field, t2, alpha2 = read_snapshot(hand)
        assert (field.grid, t2, alpha2) == (GridSpec(n, L), t, alpha)
        assert np.array_equal(field.values, values)

    def test_kernel_profile(self, tmp_path):
        alpha, r_max = 1.5, 20.0
        radii = np.linspace(0.0, r_max, 7)
        values = np.exp(-radii)
        packed = (b"SQGK" + struct.pack("<I", 1) + struct.pack("<d", alpha) + struct.pack("<d", r_max)
                  + struct.pack("<I", len(radii))
                  + b"".join(struct.pack("<d", r) for r in radii)
                  + b"".join(struct.pack("<d", v) for v in values))
        p = tmp_path / "k.sqgk"
        save_profile(KernelProfile(alpha, r_max, radii, values), p)
        assert p.read_bytes() == packed
        hand = tmp_path / "hand.sqgk"
        hand.write_bytes(packed)
        back = load_profile(hand)
        assert (back.alpha, back.r_max) == (alpha, r_max)
        assert np.array_equal(back.radii, radii) and np.array_equal(back.values, values)


class TestDiagnosticsIO:
    def test_round_trip(self, tmp_path):
        recs = [
            DiagnosticRecord(0.1 * i, 1.0 / (1 + i), 2.0, 3.0, 0.5, 0.01)
            for i in range(5)
        ]
        p = tmp_path / "d.csv"
        write_diagnostics(p, recs)
        again = read_diagnostics(p)
        assert again == recs

    @pytest.mark.parametrize("row, why", [
        ("0.3,1.0,2.0", "expected 6 cells, found 3"),
        ("0.3,1.0,2.0,3.0,0.5,0.01,7.0", "expected 6 cells, found 7"),
        ("0.3,1.0,abc,3.0,0.5,0.01", "abc"),
    ])
    def test_bad_row_names_file_and_line(self, tmp_path, row, why):
        p = tmp_path / "d.csv"
        write_diagnostics(p, [DiagnosticRecord(0.1 * i, 1.0, 2.0, 3.0, 0.5, 0.01) for i in range(3)])
        lines = p.read_text().splitlines()
        lines[3] = row
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"d.csv, line 4: .*{why}"):
            read_diagnostics(p)

    def test_empty_file_names_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="empty.csv"):
            read_diagnostics(p)


def _flip(data: bytes, flips) -> bytes:
    out = bytearray(data)
    for i, mask in flips:
        out[i] ^= mask
    return bytes(out)


def damaged(data: bytes):
    """A truncation of ``data``, or one to three flipped bytes, drawn often in the header."""
    pos = st.one_of(st.integers(0, min(36, len(data) - 1)), st.integers(0, len(data) - 1))
    flips = st.lists(st.tuples(pos, st.integers(1, 255)), min_size=1, max_size=3)
    return st.one_of(st.integers(0, len(data) - 1).map(lambda n: data[:n]),
                     flips.map(lambda fl: _flip(data, fl)))


class TestDamagedFiles:
    """A truncated or corrupted file either reads back as what it holds or
    raises ValueError naming the file; through a CLI verb that reads it the
    latter is exit 2."""

    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("damage")
        cfg = d / "run.cfg"
        text = BASE_CONFIG.format(out=d / "run").replace("n = 64", "n = 16")
        cfg.write_text(text.replace("nonlinear = on", "nonlinear = off"))
        assert run_cli("simulate", "--config", cfg) == 0
        radii = np.expm1(np.linspace(0.0, np.log1p(20.0), 8))
        save_profile(KernelProfile(1.5, 20.0, radii, np.exp(-radii)), d / "k.sqgk")
        return d

    @staticmethod
    def outcome(path, bad: bytes, read, cli_args):
        """(what ``read`` gave or None, CLI exit code, CLI stderr) with ``bad`` in place of the file."""
        good = path.read_bytes()
        path.write_bytes(bad)
        try:
            try:
                got = read(path)
            except ValueError as e:
                assert path.name in str(e)
                got = None
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = run_cli(*cli_args)
        finally:
            path.write_bytes(good)
        return got, rc, err.getvalue()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_snapshot(self, run_dir, data):
        path = sorted((run_dir / "run").glob("snapshot_*.sqgf"))[-1]
        bad = data.draw(damaged(path.read_bytes()))
        got, rc, err = self.outcome(path, bad, read_snapshot,
                                    ["verify", "--run", run_dir / "run", "--checks", "max_principle"])
        if got is None:
            assert rc == 2 and path.name in err
        else:
            again = run_dir / "again.sqgf"
            write_snapshot(again, got[0], t=got[1], alpha=got[2])
            assert again.read_bytes() == bad
            assert rc in (0, 1, 2) and "internal error" not in err

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_kernel_profile(self, run_dir, data):
        # no verb reads a .sqgk, so only the reader is held to the rule
        path = run_dir / "damaged.sqgk"
        bad = data.draw(damaged((run_dir / "k.sqgk").read_bytes()))
        path.write_bytes(bad)
        try:
            got = load_profile(path)
        except ValueError as e:
            assert path.name in str(e)
            return
        again = run_dir / "again.sqgk"
        save_profile(got, again)
        assert again.read_bytes() == bad

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_diagnostics(self, run_dir, data):
        path = run_dir / "run" / "diagnostics.csv"
        bad = data.draw(damaged(path.read_bytes()))
        got, rc, err = self.outcome(path, bad, read_diagnostics, ["fit", "--run", run_dir / "run"])
        if got is None:
            assert rc == 2 and path.name in err
        else:
            # what was read is what the file holds: written out and read again it is unchanged
            again = run_dir / "again.csv"
            write_diagnostics(again, got)
            rows = [dataclasses.astuple(r) for r in read_diagnostics(again)]
            assert np.array_equal(rows, [dataclasses.astuple(r) for r in got], equal_nan=True)
            assert rc in (0, 1, 2) and "internal error" not in err


class TestSimulateCli:
    def test_run_writes_outputs(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        out = tmp_path / "out"
        cfgfile.write_text(BASE_CONFIG.format(out=out))
        assert run_cli("simulate", "--config", cfgfile) == 0
        assert (out / "config.cfg").exists()
        assert (out / "diagnostics.csv").exists()
        snaps = sorted(out.glob("snapshot_*.sqgf"))
        assert len(snaps) == 3  # t = 0 plus the two requested times

    def test_bit_identical_reruns(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        hashes = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            cfgfile.write_text(BASE_CONFIG.format(out=out))
            assert run_cli("simulate", "--config", cfgfile) == 0
            digest = hashlib.sha256()
            for f in sorted(out.iterdir()):
                if f.name != "config.cfg":
                    digest.update(f.read_bytes())
            hashes.append(digest.hexdigest())
        assert hashes[0] == hashes[1]

    def test_percent_in_output_directory(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        out = tmp_path / "runs" / "50%"
        cfgfile.write_text(BASE_CONFIG.format(out=out))
        assert run_cli("simulate", "--config", cfgfile) == 0
        assert parse_config((out / "config.cfg").read_text()).output_dir == str(out)

    def test_empty_output_directory_refused(self, tmp_path, capsys, monkeypatch):
        # an empty directory would be the current one, whose snapshot files simulate deletes
        monkeypatch.chdir(tmp_path)
        Path("snapshot_keep.sqgf").write_bytes(b"mine")
        Path("run.cfg").write_text(BASE_CONFIG.format(out="").replace("n = 64", "n = 16"))
        assert run_cli("simulate", "--config", "run.cfg") == 2
        assert capsys.readouterr().err == "error: run.cfg: output.directory: '' must be a non-empty path\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg", "snapshot_keep.sqgf"]

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(BASE_CONFIG.format(out=tmp_path / "o").replace("alpha = 1.5", "alpha = 2.5"))
        assert run_cli("simulate", "--config", cfgfile) == 2
        assert "alpha" in capsys.readouterr().err

    def test_snapshot_past_a_small_t_end_exit_two(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        out = tmp_path / "o"
        text = BASE_CONFIG.format(out=out).replace("t_end = 0.3", "t_end = 1e-15")
        cfgfile.write_text(text.replace("snapshot_times = 0.1, 0.3", "snapshot_times = 5e-13"))
        assert run_cli("simulate", "--config", cfgfile) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfgfile}: [solver]: snapshot_times must lie in [0, t_end]")
        assert err.count("\n") == 1 and not out.exists()

    def test_misspelt_key_exit_two(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        out = tmp_path / "o"
        cfgfile.write_text(BASE_CONFIG.format(out=out).replace("snapshot_times = 0.1, 0.3", "snapshot_time = 0.05"))
        assert run_cli("simulate", "--config", cfgfile) == 2
        assert "solver.snapshot_time" in capsys.readouterr().err
        assert not out.exists()

    def test_solver_error_exit_two(self, tmp_path):
        # a Picard run far outside the contraction regime is reported as an
        # error line with exit 2 (exit 1 means a failed check), not a traceback
        cfgfile = tmp_path / "div.cfg"
        text = BASE_CONFIG.format(out=tmp_path / "div").replace("scheme = ifrk4", "scheme = picard")
        text = text.replace("t_end = 0.3", "t_end = 5.0").replace("amplitude = 0.4", "amplitude = 30.0")
        cfgfile.write_text(text.replace("snapshot_times = 0.1, 0.3", "snapshot_times ="))
        src = str(Path(sqglab.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "sqglab.cli", "simulate", "--config", str(cfgfile)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: Picard iterate distances grew")
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "div").exists()

    @pytest.mark.parametrize("dt, t_end, amplitude, named", [
        ("1e-300", "1.0", "0.4", "dt = 1e-300 and t_end = 1.0 plan more than"),
        ("0.05", "1e12", "0.4", "dt = 0.05 and t_end = 1000000000000.0 plan more than"),
        ("0.05", "0.3", "1e70", f"at t = 0 the CFL step dt = 1.18e-70 leaves more than {MAX_STEPS} IF-RK4 steps"),
        ("0.05", "0.3", "1e300", f"error: {_GAUSSIAN_BEYOND} (non-finite l2, lcrit at t=0)\n"),
        ("0.05", "0.3", "1e308", f"error: {_GAUSSIAN_BEYOND} (non-finite l2, lcrit, linf, riesz_linf, mean at t=0)\n"),
    ])
    def test_step_budget_exit_two(self, tmp_path, dt, t_end, amplitude, named):
        # t + 1e-300 == t, and 2e13 steps do not end either: refused before any work;
        # a 1e70 bump plans 6 steps, but its CFL step is about 1e-70: refused before the first;
        # the norms of a 1e300 bump, and its transform at 1e308, overflow: refused at t = 0,
        # with no numpy warning on stderr
        out = tmp_path / "o"
        cfgfile = tmp_path / "run.cfg"
        text = BASE_CONFIG.format(out=out).replace("n = 64", "n = 16").replace("dt = 0.05", f"dt = {dt}")
        text = text.replace("amplitude = 0.4", f"amplitude = {amplitude}")
        cfgfile.write_text(text.replace("t_end = 0.3", f"t_end = {t_end}"))
        src = str(Path(sqglab.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "sqglab.cli", "simulate", "--config", str(cfgfile)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert named in proc.stderr
        assert not out.exists()

    def test_out_is_not_an_option(self, tmp_path, capsys):
        # [output] directory alone names the run directory
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(BASE_CONFIG.format(out=tmp_path / "o"))
        with pytest.raises(SystemExit) as ei:
            run_cli("simulate", "--config", cfgfile, "--out", tmp_path / "x")
        assert ei.value.code == 2
        assert "--out" in capsys.readouterr().err
        assert not any(p.name in ("o", "x") for p in tmp_path.iterdir())
        assert list(inspect.signature(RunConfig.build_theta0).parameters) == ["self"]

    @pytest.mark.parametrize("where", ["sqglab.runconfig.RunConfig.build_theta0", "sqglab.cli.run_simulation"])
    def test_out_of_memory_names_grid_n(self, tmp_path, capsys, monkeypatch, where):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(where, exhausted)
        out = tmp_path / "o"
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(BASE_CONFIG.format(out=out))
        assert run_cli("simulate", "--config", cfgfile) == 2
        assert capsys.readouterr().err == "error: grid.n = 64: not enough memory for a grid of this size\n"
        assert not out.exists()


class TestVerifyCli:
    @pytest.fixture
    def linear_run_dir(self, tmp_path):
        out = tmp_path / "linrun"
        cfgfile = tmp_path / "lin.cfg"
        cfgfile.write_text(
            BASE_CONFIG.format(out=out).replace("nonlinear = on", "nonlinear = off")
        )
        assert run_cli("simulate", "--config", cfgfile) == 0
        return out

    def test_linear_run_passes_all(self, linear_run_dir, capsys):
        assert run_cli("verify", "--run", linear_run_dir) == 0
        text = capsys.readouterr().out
        assert "FAIL" not in text
        assert (linear_run_dir / "verdict.csv").exists()
        assert (linear_run_dir / "summary.txt").exists()

    @pytest.mark.parametrize("pattern", ["snapshot_*.sqgf", "config.cfg", "diagnostics.csv"])
    def test_missing_run_file_named(self, linear_run_dir, capsys, pattern):
        for f in linear_run_dir.glob(pattern):
            f.unlink()
        assert run_cli("verify", "--run", linear_run_dir) == 2
        err = capsys.readouterr().err
        named = linear_run_dir / pattern if "*" not in pattern else f"no snapshot files found in {linear_run_dir}"
        assert err.startswith("error: ") and str(named) in err and err.count("\n") == 1

    @pytest.mark.parametrize("where", ["--checks", "verification.checks"])
    def test_empty_check_selection_named(self, linear_run_dir, capsys, where):
        if where == "--checks":
            args = ("--checks", "")
        else:
            cfg = linear_run_dir / "config.cfg"
            cfg.write_text(re.sub(r"(?m)^checks = .*$", "checks =", cfg.read_text()))
            args = ()
        assert run_cli("verify", "--run", linear_run_dir, *args) == 2
        err = capsys.readouterr().err
        assert "verification.checks" in err and "--checks" in err
        assert f"known checks: {', '.join(CHECKS)}" in err

    def test_kernel_option_refused(self, linear_run_dir, capsys):
        # verify reads no kernel profile, so argparse refuses the option
        with pytest.raises(SystemExit) as ei:
            run_cli("verify", "--run", linear_run_dir, "--kernel", "x")
        assert ei.value.code == 2
        assert "--kernel" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["verify", "fit"])
    def test_bad_diagnostics_row_exit_two(self, linear_run_dir, capsys, verb):
        diag = linear_run_dir / "diagnostics.csv"
        diag.write_text(diag.read_text() + "0.5,1.0\n")
        assert run_cli(verb, "--run", linear_run_dir) == 2
        assert "diagnostics.csv, line" in capsys.readouterr().err

    def test_failing_check_exit_one(self, tmp_path, capsys):
        # an aggressive deviation threshold forces a check failure
        out = tmp_path / "nl"
        cfgfile = tmp_path / "nl.cfg"
        text = BASE_CONFIG.format(out=out).replace(
            "checks = max_principle, mass_conservation, ratio, limits",
            "checks = limits\ndev_threshold = 1e-30",
        )
        cfgfile.write_text(text)
        assert run_cli("simulate", "--config", cfgfile) == 0
        assert run_cli("verify", "--run", out) == 1

    @pytest.mark.parametrize("check", ["limits", "ratio", "gradients", "above_critical"])
    def test_limits_without_positive_snapshots(self, tmp_path, capsys, check):
        out = tmp_path / "t0"
        cfgfile = tmp_path / "t0.cfg"
        text = BASE_CONFIG.format(out=out).replace("t_end = 0.3", "t_end = 0.0")
        cfgfile.write_text(text.replace("snapshot_times = 0.1, 0.3", "snapshot_times ="))
        assert run_cli("simulate", "--config", cfgfile) == 0
        capsys.readouterr()
        assert run_cli("verify", "--run", out, "--checks", check) == 2
        assert capsys.readouterr().err == f"error: check {check!r} needs at least one snapshot at t > 0\n"

    @pytest.mark.parametrize("selection, named", [
        ("vibes", "'vibes'"), ("ratio,limts", "'limts'"), ("", "no check"), (" , ", "no check"),
    ])
    def test_bad_check_selection_exit_two(self, linear_run_dir, capsys, selection, named):
        assert run_cli("verify", "--run", linear_run_dir, "--checks", selection) == 2
        assert named in capsys.readouterr().err
        assert not (linear_run_dir / "verdict.csv").exists()

    def test_rows_in_table_order_each_check_once(self, linear_run_dir):
        assert run_cli("verify", "--run", linear_run_dir, "--checks", "ratio,max_principle,ratio") == 0
        rows = (linear_run_dir / "verdict.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == [
            "max_principle_linf", "max_principle_l2", "ratio_comparability"
        ]

    def test_unknown_slope_quantity_exit_two(self, linear_run_dir, capsys):
        cfg_path = linear_run_dir / "config.cfg"
        text = cfg_path.read_text()
        assert "slope_quantities = \n" in text
        cfg_path.write_text(text.replace("slope_quantities = \n", "slope_quantities = vibes\n"))
        assert run_cli("verify", "--run", linear_run_dir, "--checks", "slopes") == 2
        assert "verification.slope_quantities" in capsys.readouterr().err

    def test_limits_apply_the_semigroup_once_per_snapshot(self, tmp_path, monkeypatch):
        out = tmp_path / "lim"
        cfgfile = tmp_path / "lim.cfg"
        cfgfile.write_text(BASE_CONFIG.format(out=out).replace("t_end = 0.3", "t_end = 0.7").replace(
            "snapshot_times = 0.1, 0.3", "snapshot_times = 0.1, 0.2, 0.3, 0.4, 0.5, 0.6"))
        assert run_cli("simulate", "--config", cfgfile) == 0
        orbits, applied = [], []
        orbit = _verify.semigroup_orbit

        def counted(f, times, alpha):
            orbits.append(times)
            for pt in orbit(f, times, alpha):
                applied.append(1)
                yield pt

        monkeypatch.setattr(_verify, "semigroup_orbit", counted)
        run_cli("verify", "--run", out, "--checks", "limits")
        assert len(orbits) == 1 and len(applied) == 7
        # the rows of three independent limit_scan calls
        cfg, result = _load_run(out)
        times = [t for t, _ in result.snapshots[1:]]
        t_split = float(np.sqrt(times[0] * times[-1]))
        args = (_verify.WINDOW_FRACTION * cfg.box_length, _verify.FLOOR_FRAC, cfg.dev_threshold)
        early = _verify.limit_scan(result, _verify.T_TO_0, *args, t_max=t_split)
        late = _verify.limit_scan(result, _verify.T_TO_INF, *args, t_min=t_split)
        space = _verify.limit_scan(result, _verify.X_TO_INF, *args)
        with open(out / "verdict.csv", newline="") as fh:
            measured = [row["measured"] for row in csv.DictReader(fh)]
        assert measured == [repr(float(s.extreme_value)) for s in (early, late, space)]

    def test_measured_cells_are_plain_floats(self, linear_run_dir):
        # limit_x_to_inf measures a numpy scalar
        assert run_cli("verify", "--run", linear_run_dir) == 0
        with open(linear_run_dir / "verdict.csv", newline="") as fh:
            cells = [row["measured"] for row in csv.DictReader(fh)]
        assert len(cells) > 3
        for cell in cells:
            float(cell)


class TestKernelCli:
    def test_profile_and_sweep(self, tmp_path, capsys):
        assert run_cli("kernel", "--alpha", 1.5, "--out", tmp_path) == 0
        out = capsys.readouterr().out
        assert "mass=" in out
        assert (tmp_path / "profile_a1.5.sqgk").exists()
        assert (tmp_path / "estimate_sweep_a1.5.csv").exists()

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for d in (a, b):
            assert run_cli("kernel", "--alpha", 1.8, "--out", d) == 0
        fa = (a / "profile_a1.8.sqgk").read_bytes()
        fb = (b / "profile_a1.8.sqgk").read_bytes()
        assert fa == fb

    def test_sweep_bounds_are_the_csv_extremes(self, tmp_path, capsys):
        assert run_cli("kernel", "--alpha", 1.2, "--out", tmp_path) == 0
        line = capsys.readouterr().out.splitlines()[1]
        with open(tmp_path / "estimate_sweep_a1.2.csv", newline="") as fh:
            ratios = [float(row["ratio"]) for row in csv.DictReader(fh)]
        assert len(ratios) == 13 * 41
        assert line.startswith(f"two-sided ratio over sweep: [{min(ratios):.6g}, {max(ratios):.6g}]")

    def test_table_edge_is_not_an_option(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            run_cli("kernel", "--alpha", 1.5, "--r-max", 100, "--out", tmp_path)
        assert e.value.code == 2

    @pytest.mark.parametrize("values, named", [
        (lambda r: 1.0 - r, "kernel profile lost positivity"),
        (lambda r: 1.0 + r, "kernel profile lost monotonicity"),
    ])
    def test_profile_refusals_exit_two(self, tmp_path, capsys, monkeypatch, values, named):
        # a tolerance no other test asks for, so no cached table is returned
        monkeypatch.setattr("sqglab.kernel._radial_value", lambda alpha, radii, order=None: values(radii))
        assert run_cli("kernel", "--alpha", 1.5, "--tol", "7e-6", "--out", tmp_path) == 2
        assert capsys.readouterr().err == f"error: {named}\n"

    def test_unreachable_tolerance_exit_two(self, tmp_path, capsys):
        # the directory is made only once the profile is built
        assert run_cli("kernel", "--alpha", 1.5, "--tol", "1e-20", "--out", tmp_path / "kout") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Hankel quadrature at r=")
        assert "Traceback" not in err
        assert not (tmp_path / "kout").exists()


def test_unexpected_exception_is_internal_error(tmp_path, capsys, monkeypatch):
    def broken(args):
        raise KeyError("lost")

    monkeypatch.setattr("sqglab.cli._cmd_kernel", broken)
    assert run_cli("kernel", "--alpha", 1.5, "--out", tmp_path) == 3
    assert capsys.readouterr().err == "internal error: KeyError: 'lost'\n"


def _modules_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    code += "\nimport sys\nprint(*sorted(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(Path(sqglab.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_modules_load_without_the_kernel(tmp_path):
    # the package re-exports nothing, so only what imports kernel loads it and scipy.interpolate
    loaded = _modules_after("import sqglab.grid, sqglab.initial_data, sqglab.special, sqglab.solver, "
                            "sqglab.verify, sqglab.io, sqglab.runconfig")
    assert {"sqglab.kernel", "scipy.interpolate"} & loaded == set()
    # only the kernel verb loads scipy: not the cli, nor a simulate, verify and fit of a 16^2 run
    assert [m for m in _modules_after("import sqglab.cli") if m.startswith("scipy")] == []
    cfgfile = tmp_path / "run.cfg"
    # dt 0.005 leaves the 8 records and 1.5 decades of t a fit needs
    cfgfile.write_text(BASE_CONFIG.replace("n = 64", "n = 16").replace("dt = 0.05", "dt = 0.005").format(
        out=tmp_path / "run"))
    verbs = [["simulate", "--config", str(cfgfile)], ["verify", "--run", str(tmp_path / "run")],
             ["fit", "--run", str(tmp_path / "run")]]
    loaded = _modules_after(f"from sqglab.cli import main\nfor argv in {verbs!r}:\n    assert main(argv) in (0, 1)")
    assert (tmp_path / "run" / "verdict.csv").exists()
    assert [m for m in loaded if m.startswith("scipy")] == []
    # the kernel itself needs scipy.special and scipy.linalg, and no larger scipy package
    loaded = _modules_after("import sqglab.kernel")
    assert [m for m in loaded if m.split(".")[:2] in (["scipy", "interpolate"], ["scipy", "optimize"],
                                                       ["scipy", "sparse"])] == []


def test_cli_restates_no_solver_rule():
    # every sqglab error is a ValueError, so main's except names only builtins; and
    # the snapshot contract is SimulationResult's, so cli needs no private solver name
    tree = ast.parse((Path(sqglab.__file__).parent / "cli.py").read_text())
    (main_def,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main"]
    caught = [n for h in ast.walk(main_def) if isinstance(h, ast.ExceptHandler) for n in ast.walk(h.type)]
    names = [n.id for n in caught if isinstance(n, ast.Name)]
    assert names and all(isinstance(getattr(builtins, n, None), type) for n in names)
    assert not [n for n in caught if isinstance(n, ast.Attribute)]
    private = [a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.module == "solver"
               for a in n.names if a.name.startswith("_")]
    assert private == []


def test_cli_names_no_run_directory_file():
    # the run directory's layout is io's alone
    tree = ast.parse((Path(sqglab.__file__).parent / "cli.py").read_text())
    texts = [n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)]
    for name in ("config.cfg", "diagnostics.csv", "verdict.csv", "summary.txt", "snapshot_"):
        assert [t for t in texts if name in t] == []


@pytest.mark.parametrize("args, option", [
    (("kernel", "--alpha", 1.5, "--t-min", "nan"), "--t-min"),
    (("kernel", "--alpha", 1.5, "--t-min", 0), "--t-min"),
    (("kernel", "--alpha", 1.5, "--t-max", "inf"), "--t-max"),
    (("kernel", "--alpha", 1.5, "--t-min", 5, "--t-max", 2), "--t-max"),
    (("kernel", "--alpha", 1.5, "--x-max", -1), "--x-max"),
    (("kernel", "--alpha", 1.5, "--tol", 0), "--tol"),
    (("special", "radial-integral", "--alpha", 1.5, "--beta-param", 1.0, "--n-points", 0), "--n-points"),
    (("special", "radial-integral", "--alpha", 1.5, "--beta-param", "nan"), "--beta-param"),
    (("special", "conv", "--a", 0.5, "--b", 0.5, "--t", "inf"), "--t"),
    (("special", "beta", "nan", 1.0), "argument a"),
    (("fit", "--run", "run", "--tolerance", -0.1), "--tolerance"),
    (("special", "tgamma", "--gamma", 0.3, "--alpha", 1.5, "--n-points", "1e3"), "--n-points"),
    (("special", "tgamma", "--gamma", 0.9, "--alpha", 1.5), "--gamma"),
    (("special", "tgamma", "--gamma", 0.3, "--alpha", 0), "--alpha"),
    (("kernel", "--alpha", "nan"), "--alpha"),
    (("kernel", "--alpha", 3), "--alpha"),
    (("special", "conv", "--a", "nan", "--b", 0.5), "--a"),
    (("special", "conv", "--a", 1.5, "--b", 0.5), "--a"),
    (("special", "conv", "--a", 0.5, "--b", 1), "--b"),
    (("special", "radial-integral", "--alpha", 2.5, "--beta-param", 1.0), "--alpha"),
    (("special", "radial-integral", "--alpha", "nan", "--beta-param", 1.0), "--alpha"),
    (("fit", "--run", "run", "--t-lo", "nan"), "--t-lo"),
    (("fit", "--run", "run", "--t-hi", "inf"), "--t-hi"),
    (("fit", "--run", "run", "--expected", "nan"), "--expected"),
    (("fit", "--run", "run", "--t-lo", 5, "--t-hi", 1), "--t-lo 5.0 must lie below --t-hi 1.0"),
    (("fit", "--run", "run", "--t-lo", 2, "--t-hi", 2), "--t-lo 2.0 must lie below --t-hi 2.0"),
])
def test_bad_option_is_named_exit_two(tmp_path, capsys, monkeypatch, args, option):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as ei:
        run_cli(*args)
    assert ei.value.code == 2
    err = capsys.readouterr().err
    assert option in err
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())


# option text: any float (nan and inf too), small counts, and text that is no number
_OPTION_TEXT = st.one_of(st.floats().map(repr), st.integers(-2, 4).map(str), st.sampled_from(["1e999", "x", ""]))
_ANY_POSITIVE = st.floats(0.0, exclude_min=True)
_OPEN_ALPHA = st.floats(1.0, 2.0, exclude_min=True, exclude_max=True)


def _option(valid):
    """The text of one option: half the time a value of its own range, else ``_OPTION_TEXT``."""
    return st.one_of(valid.map(str), _OPTION_TEXT)


def _argv(what, **valid):
    """``special what`` argv, each named option drawn by ``_option``."""
    pairs = [st.tuples(st.just("--" + n.replace("_", "-")), _option(v)) for n, v in valid.items()]
    return st.tuples(*pairs).map(lambda drawn: [what, *(w for pair in drawn for w in pair)])


_EXPONENT = st.floats(0.0, 1.0, exclude_max=True)
_SPECIAL_ARGV = st.one_of(  # every numeric option of ``special``, counts kept small
    st.tuples(_option(_ANY_POSITIVE), _option(_ANY_POSITIVE)).map(lambda ab: ["beta", *ab]),
    _argv("conv", a=_EXPONENT, b=_EXPONENT, t=_ANY_POSITIVE),
    _argv("radial-integral", alpha=_OPEN_ALPHA, beta_param=_ANY_POSITIVE, n_points=st.integers(1, 4)),
    _argv("tgamma", gamma=st.floats(0.0, 1.0, exclude_min=True), alpha=_OPEN_ALPHA, n_points=st.integers(1, 4)),
)


_KERNEL_ARGV = _argv("kernel", alpha=st.floats(1.0, 2.0), tol=_ANY_POSITIVE, t_min=_ANY_POSITIVE,
                     t_max=_ANY_POSITIVE, x_max=_ANY_POSITIVE)
# every [grid] and [solver] value of BASE_CONFIG but n, each drawn by ``_option`` from a
# range that keeps a 16^2 run short
_RUN_VALUES = st.fixed_dictionaries({
    "box_length": _option(st.floats(1.0, 100.0)),
    "alpha": _option(_OPEN_ALPHA),
    "dt": _option(st.floats(1e-3, 1.0)),
    "t_end": _option(st.floats(0.0, 2.0)),
    "scheme": st.sampled_from(["ifrk4", "picard", "euler", ""]),
    "nonlinear": st.sampled_from(["on", "off", "maybe"]),
    "snapshot_times": st.lists(_option(st.floats(0.0, 2.0)), max_size=3).map(", ".join),
})

_AMPLITUDE = _option(st.floats(-1.0, 1.0))
# each kind but from_file with every [initial_data] key it reads, drawn by ``_option``; at 16^2
# on the box of 20, half the grid spacing is 0.625 and a ladder's finest scale must span 3.75
_INITIAL_DATA_VALUES = st.one_of(
    st.fixed_dictionaries({
        "kind": st.sampled_from(["gaussian", "compact_bump"]), "amplitude": _AMPLITUDE,
        "width": _option(st.floats(0.625, 20.0)), "aspect": _option(st.floats(0.1, 4.0)),
        "rotation": _option(st.floats(-4.0, 4.0)),
    }),
    st.fixed_dictionaries({
        "kind": st.just("power_tail"), "amplitude": _AMPLITUDE, "gamma_exp": _option(st.floats(0.5, 3.0)),
        "core": _option(st.one_of(st.just(0.0), st.floats(0.625, 20.0))),
        "angular": _option(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)),
    }),
    st.fixed_dictionaries({
        "kind": st.just("multiscale"), "amplitude": _AMPLITUDE, "width": _option(st.floats(3.75, 20.0)),
        "scales": _option(st.integers(1, 3)),
    }),
)


def _exit_and_stderr(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            rc = run_cli(*argv)
        except SystemExit as e:
            rc = e.code
    return rc, err.getvalue()


# a numpy warning is a fault, not a message; only RuntimeWarning, so that a warning the
# hypothesis plugin raises while it reports a failing example does not end pytest
@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestNumericOptionProperties:
    """Whatever a numeric option of the fast verbs, or a [grid], [solver] or
    [initial_data] value of a 16^2 run, holds, the exit is 0, 1 or 2 with a
    message, never an internal error, a traceback or a warning."""

    @pytest.fixture(scope="class")
    def fit_run(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("fitprop")
        cfg = d / "run.cfg"
        text = BASE_CONFIG.format(out=d / "run").replace("n = 64", "n = 16").replace("t_end = 0.3", "t_end = 2.0")
        cfg.write_text(text.replace("snapshot_times = 0.1, 0.3", "snapshot_times = 2.0"))
        assert run_cli("simulate", "--config", cfg) == 0
        return d / "run"

    @settings(max_examples=150, deadline=None)
    @given(argv=_SPECIAL_ARGV)
    @example(argv=["conv", "--a", "0.5", "--b", "0.999", "--t", "5e-324"])
    def test_special(self, argv):
        rc, err = _exit_and_stderr(["special", *argv])
        assert rc in (0, 1, 2), err
        assert "Traceback" not in err

    @settings(max_examples=60, deadline=None)
    @given(options=st.dictionaries(st.sampled_from(["--t-lo", "--t-hi", "--expected", "--tolerance"]), _OPTION_TEXT))
    def test_fit(self, fit_run, options):
        rc, err = _exit_and_stderr(["fit", "--run", fit_run, *[w for kv in options.items() for w in kv]])
        assert rc in (0, 1, 2), err
        assert "Traceback" not in err

    @settings(max_examples=40, deadline=timedelta(seconds=20))
    @given(argv=_KERNEL_ARGV)
    def test_kernel(self, tmp_path_factory, argv):
        out = tmp_path_factory.getbasetemp() / "kernelprop"
        shutil.rmtree(out, ignore_errors=True)
        rc, err = _exit_and_stderr([*argv, "--out", out])
        assert rc in (0, 2), err
        # argparse puts its usage line before the error
        assert rc == 0 or err.count("\n") == 1 or err.startswith("usage: "), err
        assert rc == 0 or not out.exists()

    @staticmethod
    def simulate(d: Path, text: str) -> None:
        """``simulate`` of the 16^2 config ``text``, into ``d``: a run, or one error line and no directory."""
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir()
        (d / "run.cfg").write_text(text.replace("n = 64", "n = 16").format(out=d / "run"))
        # a run the step budget allows stays short; one beyond it is refused
        with mock.patch.object(solver, "MAX_STEPS", 2000):
            rc, err = _exit_and_stderr(["simulate", "--config", d / "run.cfg"])
        assert rc in (0, 2), err
        assert rc == 0 or (err.startswith("error: ") and err.count("\n") == 1 and not (d / "run").exists()), err

    @settings(max_examples=60, deadline=timedelta(seconds=20))
    @given(values=_RUN_VALUES)
    def test_simulate(self, tmp_path_factory, values):
        text = BASE_CONFIG
        for key, value in values.items():
            text = re.sub(rf"(?m)^{key} = .*$", lambda _: f"{key} = {value}", text)
        self.simulate(tmp_path_factory.getbasetemp() / "simprop", text)

    @settings(max_examples=80, deadline=timedelta(seconds=20))
    @given(values=_INITIAL_DATA_VALUES)
    @example(values={"kind": "power_tail", "amplitude": "0.4", "gamma_exp": "0.6", "core": "0", "angular": "0.3"})
    # a datum beyond the float range, which no one key's rule can see
    @example(values={"kind": "power_tail", "amplitude": "1.7e308", "gamma_exp": "3", "core": "0.625", "angular": "0"})
    @example(values={"kind": "multiscale", "amplitude": "1.7e308", "width": "8", "scales": "2"})
    def test_simulate_initial_data(self, tmp_path_factory, values):
        block = "\n".join(f"{key} = {value}" for key, value in values.items())
        self.simulate(tmp_path_factory.getbasetemp() / "idprop", BASE_CONFIG.replace(_BASE_INITIAL_DATA, block))


class TestSpecialCli:
    def test_beta(self, capsys):
        assert run_cli("special", "beta", 0.5, 0.5) == 0
        assert float(capsys.readouterr().out) == pytest.approx(math.pi, rel=1e-12)

    def test_conv(self, capsys):
        assert run_cli("special", "conv", "--a", 2 / 3, "--b", 1 / 3, "--t", 1.0) == 0
        out = capsys.readouterr().out
        assert "rel_err" in out

    def test_radial_integral_sweep(self, tmp_path, capsys):
        csv_path = tmp_path / "lt.csv"
        assert run_cli(
            "special", "radial-integral", "--alpha", 1.5, "--beta-param", 1.0,
            "--n-points", 11, "--out", csv_path,
        ) == 0
        assert "ratio range" in capsys.readouterr().out
        assert csv_path.exists()

    @pytest.mark.parametrize("argv, named", [
        (("beta", "1e308", "1e308"), "B(1e+308, 1e+308) or one of its log-gamma terms is beyond"),
        (("radial-integral", "--alpha", 1.5, "--beta-param", "1e6"), "beta_param = 1000000.0 is beyond"),
        # q = alpha/(alpha-1) is so large that the substitutions underflow to 0/0
        (("radial-integral", "--alpha", "1.0000000000000002", "--beta-param", 1, "--n-points", 2),
         "alpha = 1.0000000000000002"),
        # a subnormal t/2 loses the quadrature's nodes: nan, or 0 against a closed form of 4.67e-32
        (("conv", "--a", 0.5, "--b", 0.999, "--t", "5e-324"), "t must be at least 2.2250738585072014e-308"),
        (("conv", "--a", 0.9, "--b", 0, "--t", "5e-324"), "got 5e-324"),
        (("conv", "--a", 0.999, "--b", 0.999, "--t", "2.3e-308"), "t = 2.3e-308 is beyond the float range"),
    ])
    @pytest.mark.filterwarnings("error")  # a numpy warning would end the run as an internal error
    def test_unrepresentable_result_named_exit_two(self, capsys, argv, named):
        assert run_cli("special", *argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert named in err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_tgamma_study(self, capsys):
        assert run_cli("special", "tgamma", "--gamma", 0.3, "--alpha", 1.5, "--n-points", 9) == 0
        out = capsys.readouterr().out
        assert "drift threshold" in out


class TestFitCli:
    def test_fit_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "fitrun"
        cfgfile = tmp_path / "fit.cfg"
        text = BASE_CONFIG.format(out=out).replace("t_end = 0.3", "t_end = 2.0")
        text = text.replace("dt = 0.05", "dt = 0.02")
        text = text.replace("snapshot_times = 0.1, 0.3", "snapshot_times = 2.0")
        cfgfile.write_text(text)
        assert run_cli("simulate", "--config", cfgfile) == 0
        # self-consistent expectation: fit once, then require that exponent
        assert run_cli("fit", "--run", out, "--quantity", "l2", "--t-lo", 0.05,
                       "--expected", "-99.0") == 1
        line = capsys.readouterr().out
        slope = float(line.split("=")[1].split("+/-")[0])
        assert run_cli("fit", "--run", out, "--quantity", "l2", "--t-lo", 0.05,
                       "--expected", slope) == 0

    def test_quantity_choices_are_the_decay_quantities(self, tmp_path):
        out = tmp_path / "q"
        cfgfile = tmp_path / "q.cfg"
        cfgfile.write_text(BASE_CONFIG.format(out=out))
        assert run_cli("simulate", "--config", cfgfile) == 0
        assert DECAY_QUANTITIES == ("l2", "lcrit", "linf", "riesz_linf")
        for q in DECAY_QUANTITIES:
            # 0.3 time units is too short a fit range: exit 2 from the fit, not from argparse
            assert run_cli("fit", "--run", out, "--quantity", q) == 2
        with pytest.raises(SystemExit):
            run_cli("fit", "--run", out, "--quantity", "mean")


def test_usage_error_is_exit_two():
    with pytest.raises(SystemExit) as e:
        main(["unknown-verb"])
    assert e.value.code == 2


class TestVerifyExtendedChecks:
    def test_gradients_and_above_critical_rows(self, tmp_path):
        out = tmp_path / "ext"
        cfgfile = tmp_path / "ext.cfg"
        text = BASE_CONFIG.format(out=out).replace(
            "t_end = 0.3", "t_end = 4.0"
        ).replace(
            "snapshot_times = 0.1, 0.3", "snapshot_times = 0.5, 1.0, 2.0, 4.0"
        ).replace(
            "width = 1.0", "width = 0.5"
        ).replace(
            "checks = max_principle, mass_conservation, ratio, limits",
            "checks = gradients, above_critical\nabove_critical_T = 4.0",
        )
        cfgfile.write_text(text)
        assert run_cli("simulate", "--config", cfgfile) == 0
        code = run_cli("verify", "--run", out)
        assert code in (0, 1)
        verdicts = (out / "verdict.csv").read_text()
        assert "gradient_bound_10" in verdicts
        assert "above_critical_ratio" in verdicts

    def test_slopes_row_reports_insufficient_range(self, tmp_path, capsys):
        out = tmp_path / "sl"
        cfgfile = tmp_path / "sl.cfg"
        text = BASE_CONFIG.format(out=out).replace(
            "checks = max_principle, mass_conservation, ratio, limits",
            "checks = slopes",
        )
        cfgfile.write_text(text)
        assert run_cli("simulate", "--config", cfgfile) == 0
        assert run_cli("verify", "--run", out) == 1  # 0.3 time units < 1.5 decades
        assert "slope_linf" in (out / "verdict.csv").read_text()

    def test_slopes_row_is_the_diagnostics_fit(self, tmp_path):
        # a linear power-tail run over 1.5 decades: the fit succeeds and its row is the fit's
        out = tmp_path / "sl"
        cfgfile = tmp_path / "sl.cfg"
        text = BASE_CONFIG.format(out=out).replace("box_length = 20.0", "box_length = 100.0")
        text = text.replace("dt = 0.05", "dt = 0.5").replace("t_end = 0.3", "t_end = 100.0")
        text = text.replace("nonlinear = on", "nonlinear = off").replace("snapshot_times = 0.1, 0.3", "snapshot_times =")
        text = text.replace("kind = gaussian", "kind = power_tail\ngamma_exp = 0.55")
        cfgfile.write_text(text.replace("checks = max_principle, mass_conservation, ratio, limits",
                                        "checks = slopes\nslope_quantities = linf\nslope_t_lo = 3.0\n"
                                        "slope_tolerance = 0.1"))
        assert run_cli("simulate", "--config", cfgfile) == 0
        assert run_cli("verify", "--run", out) == 0
        with open(out / "verdict.csv", newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        fit = _verify.diagnostics_slope_fit(1.5, read_diagnostics(out / "diagnostics.csv"), "linf", 0.1, 3.0)
        assert row["check"] == "slope_linf" and row["passed"] == "1" and fit.passed
        assert float(row["measured"]) == pytest.approx(fit.slope, rel=1e-12)


def small_run(tmp_path, out, snapshot_times="0.1, 0.3"):
    """A 16^2 nonlinear run of BASE_CONFIG written into ``out``."""
    cfgfile = tmp_path / "small.cfg"
    text = BASE_CONFIG.format(out=out).replace("n = 64", "n = 16")
    cfgfile.write_text(text.replace("snapshot_times = 0.1, 0.3", f"snapshot_times = {snapshot_times}"))
    assert run_cli("simulate", "--config", cfgfile) == 0
    return sorted(out.glob("snapshot_*.sqgf"))


def rewrite_last_snapshot(snaps, t=None, alpha=None, centre=None):
    """Write the last snapshot again with its time, alpha or window-centre value replaced."""
    field, t0, alpha0 = read_snapshot(snaps[-1])
    values = field.values.copy()
    if centre is not None:
        values[field.grid.n // 2, field.grid.n // 2] = centre
    write_snapshot(snaps[-1], RealField(field.grid, values),
                   t=t0 if t is None else t, alpha=alpha0 if alpha is None else alpha)


class TestRunDirectoryFaults:
    def test_bad_snapshot_header_exit_two(self, tmp_path, capsys):
        snaps = small_run(tmp_path, tmp_path / "run")
        rewrite_last_snapshot(snaps, t=-5.0, alpha=math.nan)
        capsys.readouterr()
        assert run_cli("verify", "--run", tmp_path / "run", "--checks", "max_principle") == 2
        assert snaps[-1].name in capsys.readouterr().err

    @pytest.mark.parametrize("verb", [("verify", "--checks", "max_principle"), ("fit",)])
    def test_non_finite_sample_names_the_snapshot(self, tmp_path, capsys, verb):
        snaps = small_run(tmp_path, tmp_path / "run")
        rewrite_last_snapshot(snaps, centre=math.nan)
        capsys.readouterr()
        assert run_cli(verb[0], "--run", tmp_path / "run", *verb[1:]) == 2
        assert f"{snaps[-1].name}: snapshot samples must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("centre", [0.0, -1e-3])
    def test_above_critical_nonpositive_window_inf_fails(self, tmp_path, centre):
        # the ratio rule: a window inf <= 0 makes sup/inf meaningless, so the
        # worst ratio is inf for above_critical just as for ratio
        run = tmp_path / "run"
        rewrite_last_snapshot(small_run(tmp_path, run), centre=centre)
        for check, row in (("above_critical", "above_critical_ratio"), ("ratio", "ratio_comparability")):
            assert run_cli("verify", "--run", run, "--checks", check) == 1
            with open(run / "verdict.csv", newline="") as fh:
                (got,) = list(csv.DictReader(fh))
            assert got["check"] == row
            assert float(got["measured"]) == math.inf and got["passed"] == "0"

    @pytest.mark.parametrize("grid, alpha, named", [
        (GridSpec(32, 20.0), 1.5, f"is on {GridSpec(32, 20.0)}, config.cfg on {GridSpec(16, 20.0)}"),
        (GridSpec(16, 10.0), 1.5, f"is on {GridSpec(16, 10.0)}, config.cfg on {GridSpec(16, 20.0)}"),
        (GridSpec(16, 20.0), 1.6, "has alpha 1.6, config.cfg 1.5"),
    ])
    @pytest.mark.parametrize("check", ["gradients", "ratio"])
    def test_snapshot_off_the_config_exit_two(self, tmp_path, capsys, grid, alpha, named, check):
        run = tmp_path / "run"
        snaps = small_run(tmp_path, run)
        t = read_snapshot(snaps[-1])[1]
        write_snapshot(snaps[-1], RealField(grid, np.full(grid.shape, 0.1)), t=t, alpha=alpha)
        capsys.readouterr()
        assert run_cli("verify", "--run", run, "--checks", check) == 2
        assert f"{run}: the snapshot at t = 0.3 {named}" in capsys.readouterr().err

    def test_above_critical_negative_datum_exit_two(self, tmp_path, capsys):
        run = tmp_path / "run"
        snaps = small_run(tmp_path, run)
        rewrite_last_snapshot(snaps[:1], centre=-1e-3)  # the t = 0 snapshot
        capsys.readouterr()
        assert run_cli("verify", "--run", run, "--checks", "above_critical") == 2
        assert capsys.readouterr().err == "error: the comparability check requires nonnegative initial data\n"

    def test_above_critical_without_snapshots_up_to_T_exit_two(self, tmp_path, capsys):
        run = tmp_path / "run"
        small_run(tmp_path, run)  # snapshots at 0.1 and 0.3
        cfg = run / "config.cfg"
        cfg.write_text(cfg.read_text().replace("above_critical_T = 5.0", "above_critical_T = 0.05"))
        capsys.readouterr()
        assert run_cli("verify", "--run", run, "--checks", "above_critical") == 2
        assert capsys.readouterr().err == "error: no snapshots in (0, T]\n"

    @pytest.mark.parametrize("old, new, named", [
        ("alpha = 1.5", "alpha = 2.5", "[solver]: solver requires alpha in (1, 2), got 2.5"),
        ("n = 16", "n = 17", "[grid]: grid size must be even"),
        # a run directory written before the [initial_data] rules, with a value they refuse
        ("width = 1.0", "width = 1e-300", "initial_data.width: 1e-300 must be finite and in [half the grid spacing"),
    ])
    @pytest.mark.parametrize("argv", [("verify", "--run", "run"), ("simulate", "--config", "run/config.cfg")])
    def test_config_error_names_file_and_section(self, tmp_path, capsys, monkeypatch, old, new, named, argv):
        monkeypatch.chdir(tmp_path)
        small_run(tmp_path, Path("run"))
        cfg = Path("run", "config.cfg")
        cfg.write_text(cfg.read_text().replace(old, new))
        capsys.readouterr()
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: {named}") and err.count("\n") == 1

    @pytest.mark.parametrize("check", ["ratio", "max_principle", "gradients"])
    def test_missing_t0_snapshot_exit_two(self, tmp_path, capsys, check):
        run = tmp_path / "run"
        small_run(tmp_path, run)[0].unlink()
        capsys.readouterr()
        assert run_cli("verify", "--run", run, "--checks", check) == 2
        err = capsys.readouterr().err
        assert str(run) in err and "no snapshot at t = 0" in err

    @pytest.mark.parametrize("check", ["mass_conservation", "max_principle"])
    def test_header_only_diagnostics_exit_two(self, tmp_path, capsys, check):
        run = tmp_path / "run"
        small_run(tmp_path, run)
        diag = run / "diagnostics.csv"
        diag.write_text(diag.read_text().splitlines()[0] + "\n")
        capsys.readouterr()
        assert run_cli("verify", "--run", run, "--checks", check) == 2
        assert "diagnostics.csv: the first record must be at t = 0" in capsys.readouterr().err

    @pytest.mark.parametrize("keep, named", [
        (["0.1"], "no snapshot at t = 0.2;"),
        (["0.1", "0.2", "0.25", "0.3"], "an extra snapshot at t = 0.25;"),
    ])
    def test_snapshot_times_are_the_config_times(self, tmp_path, capsys, keep, named):
        run = tmp_path / "run"
        snaps = small_run(tmp_path, run, "0.1, 0.2")
        field = read_snapshot(snaps[-1])[0]
        for f in snaps[1:]:
            f.unlink()
        for i, t in enumerate(keep, start=1):
            write_snapshot(run / f"snapshot_{i:04d}.sqgf", field, t=float(t), alpha=1.5)
        capsys.readouterr()
        assert run_cli("verify", "--run", run, "--checks", "ratio,max_principle") == 2
        assert f"{run}: {named}" in capsys.readouterr().err

    def test_every_snapshot_time_has_a_record(self, tmp_path, capsys):
        run = tmp_path / "run"
        small_run(tmp_path, run, "0.1, 0.2")
        diag = run / "diagnostics.csv"
        diag.write_text("\n".join(diag.read_text().splitlines()[:2]) + "\n")
        capsys.readouterr()
        assert run_cli("verify", "--run", run, "--checks", "max_principle,mass_conservation") == 2
        assert "diagnostics.csv: no record at the snapshot time t = 0.1" in capsys.readouterr().err

    def test_above_critical_power_named_when_selected(self, tmp_path, capsys):
        # config.cfg does not select above_critical, so its p below 2/(alpha-1) = 4 loads
        run = tmp_path / "run"
        small_run(tmp_path, run)
        cfg = run / "config.cfg"
        cfg.write_text(cfg.read_text().replace("above_critical_p = 6.0", "above_critical_p = 3.0"))
        assert run_cli("verify", "--run", run, "--checks", "ratio") == 0
        capsys.readouterr()
        assert run_cli("verify", "--run", run, "--checks", "ratio,above_critical") == 2
        assert "verification.above_critical_p: 3.0 must be finite and" in capsys.readouterr().err

    @pytest.mark.parametrize("scheme", ["ifrk4", "picard"])
    def test_what_simulate_writes_verify_accepts(self, tmp_path, scheme):
        out = tmp_path / "run"
        cfgfile = tmp_path / "run.cfg"
        text = BASE_CONFIG.format(out=out).replace("n = 64", "n = 16").replace("scheme = ifrk4", f"scheme = {scheme}")
        cfgfile.write_text(text.replace("snapshot_times = 0.1, 0.3", "snapshot_times = 1e-14, 0.1, 0.2"))
        assert run_cli("simulate", "--config", cfgfile) == 0
        assert run_cli("verify", "--run", out, "--checks", "max_principle,mass_conservation,ratio") != 2

    def test_rerun_replaces_snapshots(self, tmp_path):
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        small_run(tmp_path, reused, "0.05, 0.1, 0.2, 0.3")
        (reused / "notes.txt").write_text("kept")
        assert len(small_run(tmp_path, reused, "0.1")) == 3
        assert (reused / "notes.txt").read_text() == "kept"
        assert len(small_run(tmp_path, fresh, "0.1")) == 3
        for d in (reused, fresh):
            assert run_cli("verify", "--run", d, "--checks", "limits") in (0, 1)
        assert (reused / "verdict.csv").read_text() == (fresh / "verdict.csv").read_text()


class TestFromFileInitialData:
    def test_round_trip_through_snapshot(self, tmp_path):
        from sqglab.grid import GridSpec
        from sqglab.initial_data import gaussian_bump
        from sqglab.io import write_snapshot

        g = GridSpec(64, 20.0)
        th0 = gaussian_bump(g, 0.4, 1.0, aspect=2.0)
        seed_file = tmp_path / "seed.sqgf"
        write_snapshot(seed_file, th0, t=0.0, alpha=1.5)
        out = tmp_path / "ff"
        cfgfile = tmp_path / "ff.cfg"
        text = BASE_CONFIG.format(out=out).replace(
            "kind = gaussian", f"kind = from_file\npath = {seed_file}"
        )
        cfgfile.write_text(text)
        assert run_cli("simulate", "--config", cfgfile) == 0
        from sqglab.io import read_snapshot

        first = sorted(out.glob("snapshot_*.sqgf"))[0]
        f, t, _ = read_snapshot(first)
        assert t == 0.0
        assert np.array_equal(f.values, th0.values)

    @pytest.mark.parametrize("keep", [20, 40 + 8 * 10])
    def test_truncated_seed_is_usage_error(self, tmp_path, capsys, keep):
        # cut inside the header, then inside the payload
        from sqglab.io import write_snapshot

        g = GridSpec(64, 20.0)
        seed_file = tmp_path / "seed.sqgf"
        write_snapshot(seed_file, RealField(g, np.ones(g.shape)), t=0.0, alpha=1.5)
        seed_file.write_bytes(seed_file.read_bytes()[:keep])
        cfgfile = tmp_path / "ff.cfg"
        text = BASE_CONFIG.format(out=tmp_path / "ff").replace(
            "kind = gaussian", f"kind = from_file\npath = {seed_file}"
        )
        cfgfile.write_text(text)
        assert run_cli("simulate", "--config", cfgfile) == 2
        assert "seed.sqgf" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_seed_is_usage_error(self, tmp_path, capsys, bad):
        g = GridSpec(64, 20.0)
        values = np.ones(g.shape)
        values[7, 11] = bad
        seed_file = tmp_path / "seed.sqgf"
        write_snapshot(seed_file, RealField(g, values), t=0.0, alpha=1.5)
        cfgfile = tmp_path / "ff.cfg"
        text = BASE_CONFIG.format(out=tmp_path / "ff").replace(
            "kind = gaussian", f"kind = from_file\npath = {seed_file}"
        )
        cfgfile.write_text(text)
        assert run_cli("simulate", "--config", cfgfile) == 2
        assert "seed.sqgf: snapshot samples must be finite" in capsys.readouterr().err
        assert not (tmp_path / "ff").exists()  # a refused datum leaves no output directory

    def test_relative_path_is_read_beside_the_config(self, tmp_path, monkeypatch):
        # and written back absolute, so the run's config.cfg re-runs it from anywhere
        g = GridSpec(16, 20.0)
        seed = RealField(g, np.random.default_rng(1).random(g.shape))
        write_snapshot(tmp_path / "seed.sqgf", seed, t=0.0, alpha=1.5)
        cfgfile = tmp_path / "ff.cfg"
        cfgfile.write_text(BASE_CONFIG.format(out=tmp_path / "ff").replace("n = 64", "n = 16").replace(
            "kind = gaussian", "kind = from_file\npath = seed.sqgf"))
        for d in ("elsewhere", "other"):
            (tmp_path / d).mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        assert run_cli("simulate", "--config", cfgfile) == 0
        text = (tmp_path / "ff" / "config.cfg").read_text()
        assert f"path = {tmp_path / 'seed.sqgf'}\n" in text
        monkeypatch.chdir(tmp_path / "other")
        again = tmp_path / "other" / "config.cfg"
        again.write_text(text.replace(f"directory = {tmp_path / 'ff'}", f"directory = {tmp_path / 'again'}"))
        assert run_cli("simulate", "--config", again) == 0
        first = sorted((tmp_path / "ff").glob("snapshot_*.sqgf"))
        second = sorted((tmp_path / "again").glob("snapshot_*.sqgf"))
        assert [p.name for p in first] == [p.name for p in second] and len(first) == 3
        assert all(a.read_bytes() == b.read_bytes() for a, b in zip(first, second))
        assert np.array_equal(read_snapshot(first[0])[0].values, seed.values)

    def test_seed_off_the_grid_named(self, tmp_path, capsys):
        g = GridSpec(32, 20.0)
        write_snapshot(tmp_path / "seed.sqgf", RealField(g, np.ones(g.shape)), t=0.0, alpha=1.5)
        cfgfile = tmp_path / "ff.cfg"
        cfgfile.write_text(BASE_CONFIG.format(out=tmp_path / "ff").replace(
            "kind = gaussian", "kind = from_file\npath = seed.sqgf"))
        assert run_cli("simulate", "--config", cfgfile) == 2
        assert capsys.readouterr().err == ("error: initial_data.path: field grid 32/20.0 "
                                           "does not match configured grid 64/20.0\n")
        assert not (tmp_path / "ff").exists()


class TestInitialDataKinds:
    @staticmethod
    def theta0(initial_data: str) -> np.ndarray:
        text = BASE_CONFIG.format(out="x").replace(_BASE_INITIAL_DATA, initial_data)
        return parse_config(text).build_theta0().values

    def test_compact_bump_support(self):
        # radius 1.5 and aspect 2: exp(1 - 1/(1 - q)) on q = (x^2 + (y/2)^2)/1.5^2 < 1, exactly 0 elsewhere
        values = self.theta0("kind = compact_bump\namplitude = 0.4\nwidth = 1.5\naspect = 2.0")
        X, Y = GridSpec(64, 20.0).centered_coordinates()
        q = (X**2 + (Y / 2) ** 2) / 1.5**2
        assert np.all(values[q >= 1] == 0.0) and np.all(values[q < 1] > 0)
        assert values[32, 32] == values.max() == 0.4  # the box centre, q = 0
        q_off = (0.625 / 1.5) ** 2  # two cells along x
        assert values[34, 32] == pytest.approx(0.4 * math.exp(1 - 1 / (1 - q_off)), rel=1e-14)

    def test_power_tail_core_zero_is_twice_the_grid_spacing(self):
        zero = self.theta0("kind = power_tail\namplitude = 0.4\ngamma_exp = 0.6\ncore = 0")
        assert np.array_equal(zero, self.theta0("kind = power_tail\namplitude = 0.4\ngamma_exp = 0.6\ncore = 0.625"))

    @pytest.mark.parametrize("aspect", [0.0, -1.0])
    def test_compact_bump_refuses_a_nonpositive_aspect(self, aspect):
        with pytest.raises(ValueError, match="aspect must be positive"):
            compact_bump(GridSpec(16, 20.0), 1.0, 2.0, aspect=aspect)

    # datums that only several keys together push past the float range: a value, then the l2 norm
    @pytest.mark.parametrize("initial_data, reason", [
        ("amplitude = 1.7e308\ngamma_exp = 3\ncore = 0.625", "initial data contains non-finite values"),
        ("amplitude = 1e300\ngamma_exp = 0.6\ncore = 0.7\nangular = 0.5", "non-finite l2, lcrit at t=0"),
    ])
    @pytest.mark.filterwarnings("error")
    def test_datum_beyond_the_float_range_names_kind_and_keys(self, tmp_path, capsys, initial_data, reason):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(BASE_CONFIG.format(out=tmp_path / "run").replace("n = 64", "n = 16").replace(
            _BASE_INITIAL_DATA, "kind = power_tail\n" + initial_data))
        assert run_cli("simulate", "--config", cfgfile) == 2
        assert capsys.readouterr().err == ("error: initial_data: the power_tail datum of amplitude, gamma_exp, "
                                           f"core, angular is beyond the float range ({reason})\n")
        assert not (tmp_path / "run").exists()

    def test_power_tail_angular_modulation(self):
        # (1 + angular cos(2 phi) |x|^2 / (1 + |x|^2)) times the unmodulated tail
        base = self.theta0("kind = power_tail\namplitude = 0.4\ngamma_exp = 0.6\ncore = 0.5")
        mod = self.theta0("kind = power_tail\namplitude = 0.4\ngamma_exp = 0.6\ncore = 0.5\nangular = 0.5")
        X, Y = GridSpec(64, 20.0).centered_coordinates()
        ratio = mod / base
        r2 = X**2 + Y**2
        on_x, on_y = (Y == 0) & (X != 0), (X == 0) & (Y != 0)
        assert np.allclose(ratio[on_x], 1 + 0.5 * r2[on_x] / (1 + r2[on_x]), rtol=1e-14, atol=0)
        assert np.allclose(ratio[on_y], 1 - 0.5 * r2[on_y] / (1 + r2[on_y]), rtol=1e-14, atol=0)
        assert ratio[32, 32] == 1.0


def test_kernel_cli_gaussian_endpoint_value(tmp_path):
    # the alpha = 2 profile stores the exact Gaussian origin value 1/(4 pi)
    from sqglab.kernel import load_profile

    assert run_cli("kernel", "--alpha", 2.0, "--out", tmp_path) == 0
    prof = load_profile(tmp_path / "profile_a2.sqgk")
    assert prof(0.0) == pytest.approx(1.0 / (4 * math.pi), rel=1e-8)
