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
from .solver import DiagnosticRecord, SimulationResult
from .verify import VerdictRow

__all__ = [
    "write_csv",
    "write_snapshot",
    "read_snapshot",
    "write_diagnostics",
    "read_diagnostics",
    "write_run",
    "read_run_snapshots",
    "write_verdicts",
    "format_verdict_table",
]


# ``kind`` names the format in errors; ``arrays(header)`` gives the f64 array lengths
BinaryFormat = namedtuple("BinaryFormat", "kind magic version header arrays")
SNAPSHOT_FORMAT = BinaryFormat("snapshot", b"SQGF", 1, "<Iddd", lambda h: (h[0] * h[0],))
PROFILE_FORMAT = BinaryFormat("kernel profile", b"SQGK", 1, "<ddI", lambda h: (h[2], h[2]))
DIAG_COLUMNS = tuple(f.name for f in fields(DiagnosticRecord))


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


def snapshot_filename(index: int, t: float) -> str:
    return f"snapshot_{index:04d}_t{t:.6e}.sqgf"


def write_run(run_dir, result: SimulationResult) -> None:
    """Persist snapshots and the diagnostics series of one simulation; the
    directory's earlier snapshots go first, so a re-run replaces them."""
    d = Path(run_dir)
    d.mkdir(parents=True, exist_ok=True)
    for old in d.glob("snapshot_*.sqgf"):
        old.unlink()
    write_diagnostics(d / "diagnostics.csv", result.diagnostics)
    for i, (t, field) in enumerate(result.snapshots):
        write_snapshot(d / snapshot_filename(i, t), field, t, result.config.alpha)


def read_run_snapshots(run_dir) -> list[tuple[float, RealField, float]]:
    """All snapshots in a run directory as (t, field, alpha), sorted by time."""
    d = Path(run_dir)
    files = sorted(d.glob("snapshot_*.sqgf"))
    if not files:
        raise FileNotFoundError(f"no snapshot files found in {d}")
    return sorted([(t, f, a) for f, t, a in map(read_snapshot, files)], key=lambda x: x[0])


def write_verdicts(path, rows: list[VerdictRow]) -> None:
    write_csv(path, ("check", "measured", "requirement", "passed"),
              ([r.name, float(r.measured), r.requirement, int(r.passed)] for r in rows))


def format_verdict_table(rows: list[VerdictRow]) -> str:
    name_w = max([len(r.name) for r in rows] + [5])
    req_w = max([len(r.requirement) for r in rows] + [11])
    lines = [f"{'check':<{name_w}}  {'measured':>12}  {'requirement':<{req_w}}  verdict"]
    lines.append("-" * (name_w + req_w + 32))
    for r in rows:
        lines.append(
            f"{r.name:<{name_w}}  {r.measured:>12.5g}  {r.requirement:<{req_w}}  "
            + ("pass" if r.passed else "FAIL")
        )
    return "\n".join(lines)
