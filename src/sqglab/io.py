"""
On-disk formats: the two binary containers and every CSV file.

A binary file is little-endian: magic, ``u32`` version, a ``struct`` header,
then ``f64`` arrays whose lengths follow from the header.  Each format is
declared once below and goes through ``_write_binary``/``_read_binary``; a
file must be exactly as long as its header says.

    ``*.sqgf`` snapshot: "SQGF", 1, ``u32`` n, ``f64`` box length, time t and
        alpha (finite, t >= 0); then n*n finite samples, row-major.
    ``*.sqgk`` kernel profile: "SQGK", 1, ``f64`` alpha and r_max, ``u32`` count;
        then count radii and count values (checked by ``kernel.KernelProfile``).

``write_csv`` writes every CSV file, floats as ``repr``: ``diagnostics.csv``
(``DIAG_COLUMNS``), ``verdict.csv``, the ``kernel`` verb's estimate sweep and
``special radial-integral --out``.

A run directory is this module's alone: ``write_run`` writes its ``config.cfg``,
``diagnostics.csv`` and ``snapshot_<index>_t<time>.sqgf`` files, ``read_run``
reads them back and ``write_verdicts`` adds ``verdict.csv`` and ``summary.txt``.
"""

from __future__ import annotations

import csv
import math
import os
import struct
from collections import namedtuple
from dataclasses import fields
from pathlib import Path

import numpy as np

from .grid import GridSpec, RealField
from .solver import DiagnosticRecord, SimulationResult, SolverConfig
from .verify import VerdictRow

__all__ = [
    "write_csv",
    "write_snapshot",
    "read_snapshot",
    "write_diagnostics",
    "read_diagnostics",
    "write_run",
    "read_run",
    "read_run_snapshots",
    "write_verdicts",
]


# ``kind`` names the format in errors; ``arrays(header)`` gives the f64 array lengths
BinaryFormat = namedtuple("BinaryFormat", "kind magic version header arrays")
SNAPSHOT_FORMAT = BinaryFormat("snapshot", b"SQGF", 1, "<Iddd", lambda h: (h[0] * h[0],))
PROFILE_FORMAT = BinaryFormat("kernel profile", b"SQGK", 1, "<ddI", lambda h: (h[2], h[2]))
DIAG_COLUMNS = tuple(f.name for f in fields(DiagnosticRecord))

# the files of a run directory
CONFIG_FILE = "config.cfg"
DIAGNOSTICS_FILE = "diagnostics.csv"
SNAPSHOT_GLOB = "snapshot_*.sqgf"
VERDICT_FILE = "verdict.csv"
SUMMARY_FILE = "summary.txt"


def _write_binary(path, fmt: BinaryFormat, header: tuple, *arrays) -> None:
    with open(path, "wb") as fh:
        fh.write(fmt.magic + struct.pack("<I", fmt.version) + struct.pack(fmt.header, *header))
        for a in arrays:
            fh.write(np.asarray(a, "<f8").tobytes())


def _read_binary(path, fmt: BinaryFormat, build):
    """``build(header, *arrays)`` of a ``fmt`` file.  A size past the end is refused before
    it is read; trailing bytes and a ``ValueError`` of ``build`` name the file."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def take(n: int) -> bytes:
            left = size - fh.tell()
            if n > left:
                raise ValueError(f"{path}: file is truncated (wanted {n} bytes, found {left})")
            return fh.read(n)

        magic = take(len(fmt.magic))
        if magic != fmt.magic:
            raise ValueError(f"{path}: not a {fmt.kind} file (magic {magic!r})")
        (version,) = struct.unpack("<I", take(4))
        if version != fmt.version:
            raise ValueError(f"{path}: unsupported {fmt.kind} version {version}")
        header = struct.unpack(fmt.header, take(struct.calcsize(fmt.header)))
        arrays = [np.frombuffer(take(8 * k), "<f8") for k in fmt.arrays(header)]
        if fh.read(1):
            raise ValueError(f"{path}: unexpected bytes after the data")
    try:
        return build(header, *arrays)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_snapshot(path, field: RealField, t: float, alpha: float) -> None:
    _write_binary(path, SNAPSHOT_FORMAT, (field.grid.n, field.grid.box_length, t, alpha), field.values)


def _snapshot(header, data) -> tuple[RealField, float, float]:
    n, L, t, alpha = header
    if not (math.isfinite(t) and t >= 0 and math.isfinite(alpha)):
        raise ValueError(f"snapshot time {t} and alpha {alpha} must be finite, with t >= 0")
    if not np.isfinite(data).all():
        raise ValueError("snapshot samples must be finite")
    return RealField(GridSpec(n, L), data.reshape(n, n).copy()), t, alpha


def read_snapshot(path) -> tuple[RealField, float, float]:
    """Returns (field, t, alpha)."""
    return _read_binary(path, SNAPSHOT_FORMAT, _snapshot)


def write_diagnostics(path, records) -> None:
    write_csv(path, DIAG_COLUMNS, ([repr(getattr(r, c)) for c in DIAG_COLUMNS] for r in records))


def read_diagnostics(path) -> list[DiagnosticRecord]:
    """The records of a diagnostics CSV; a bad header or row names the file and line."""
    out = []
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        try:
            header = next(rd, None)
            if header is None or tuple(header) != DIAG_COLUMNS:
                raise ValueError(f"unexpected diagnostics columns {header}")
            for row in rd:
                if len(row) != len(DIAG_COLUMNS):
                    raise ValueError(f"expected {len(DIAG_COLUMNS)} cells, found {len(row)}")
                out.append(DiagnosticRecord(*[float(x) for x in row]))
        except (ValueError, csv.Error) as e:  # UnicodeDecodeError is a ValueError
            where = f", line {rd.line_num}" if rd.line_num > 1 else ""
            raise ValueError(f"{path}{where}: {e}") from None
    return out


def write_run(run_dir, result: SimulationResult, config_text: str) -> None:
    """Persist one simulation and the configuration text that re-runs it; the
    directory's earlier snapshots go first, so a re-run replaces them."""
    d = Path(run_dir)
    d.mkdir(parents=True, exist_ok=True)
    for old in d.glob(SNAPSHOT_GLOB):
        old.unlink()
    (d / CONFIG_FILE).write_text(config_text)
    write_diagnostics(d / DIAGNOSTICS_FILE, result.diagnostics)
    for i, (t, field) in enumerate(result.snapshots):
        write_snapshot(d / f"snapshot_{i:04d}_t{t:.6e}.sqgf", field, t, result.config.alpha)


def read_run_snapshots(run_dir) -> list[tuple[float, RealField, float]]:
    """All snapshots in a run directory as (t, field, alpha), sorted by time."""
    d = Path(run_dir)
    files = sorted(d.glob(SNAPSHOT_GLOB))
    if not files:
        raise FileNotFoundError(f"no snapshot files found in {d}")
    return sorted([(t, f, a) for f, t, a in map(read_snapshot, files)], key=lambda x: x[0])


def read_run(run_dir, config: SolverConfig) -> SimulationResult:
    """The run's simulation; refused, naming the file, unless it is the one ``config`` asks for."""
    d = Path(run_dir)
    diag_path = d / DIAGNOSTICS_FILE
    records = read_diagnostics(diag_path)
    if not records or records[0].time != 0.0:
        raise ValueError(f"{diag_path}: the first record must be at t = 0")
    snaps = read_run_snapshots(d)
    try:
        result = SimulationResult(config, tuple((t, f) for t, f, _ in snaps), tuple(records))
    except ValueError as e:  # the snapshot times are not the ones the config asks for
        raise ValueError(f"{d}: {e}") from None
    recorded = {r.time for r in records}
    for t, f, a in snaps:
        if t not in recorded:
            raise ValueError(f"{diag_path}: no record at the snapshot time t = {t!r}")
        if not abs(a - config.alpha) <= 1e-12:
            raise ValueError(f"{d}: the snapshot at t = {t:.6g} has alpha {a}, {CONFIG_FILE} {config.alpha}")
        if f.grid != config.grid:
            raise ValueError(f"{d}: the snapshot at t = {t:.6g} is on {f.grid}, {CONFIG_FILE} on {config.grid}")
    return result


def write_verdicts(run_dir, rows: list[VerdictRow]) -> str:
    """Write ``verdict.csv`` and the table of ``summary.txt``; returns the table."""
    d = Path(run_dir)
    write_csv(d / VERDICT_FILE, ("check", "measured", "requirement", "passed"),
              ([r.name, float(r.measured), r.requirement, int(r.passed)] for r in rows))
    name_w = max([len(r.name) for r in rows] + [5])
    req_w = max([len(r.requirement) for r in rows] + [11])
    lines = [f"{'check':<{name_w}}  {'measured':>12}  {'requirement':<{req_w}}  verdict"]
    lines.append("-" * (name_w + req_w + 32))
    for r in rows:
        lines.append(
            f"{r.name:<{name_w}}  {r.measured:>12.5g}  {r.requirement:<{req_w}}  "
            + ("pass" if r.passed else "FAIL")
        )
    table = "\n".join(lines)
    (d / SUMMARY_FILE).write_text(table + "\n")
    return table
