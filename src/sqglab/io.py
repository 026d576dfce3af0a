"""
On-disk formats: snapshot fields, diagnostics CSV, and verdict reports.

Snapshot file layout (little-endian):
    bytes 0-3   magic "SQGF"
    uint32      format version (1)
    uint32      n (points per axis)
    float64     box side length L
    float64     snapshot time t
    float64     alpha
    n*n float64 field samples, row-major
"""

from __future__ import annotations

import csv
import os
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np

from .grid import GridSpec, RealField
from .solver import DiagnosticRecord, SimulationResult
from .verify import VerdictRow

__all__ = [
    "SNAPSHOT_MAGIC",
    "write_snapshot",
    "read_snapshot",
    "write_diagnostics",
    "read_diagnostics",
    "write_run",
    "read_run_snapshots",
    "write_verdicts",
    "format_verdict_table",
]

SNAPSHOT_MAGIC = b"SQGF"
SNAPSHOT_VERSION = 1
DIAG_COLUMNS = tuple(f.name for f in fields(DiagnosticRecord))


def write_snapshot(path, field: RealField, t: float, alpha: float) -> None:
    g = field.grid
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<I", SNAPSHOT_VERSION))
        fh.write(struct.pack("<I", g.n))
        fh.write(struct.pack("<d", g.box_length))
        fh.write(struct.pack("<d", t))
        fh.write(struct.pack("<d", alpha))
        fh.write(np.asarray(field.values, "<f8").tobytes())


def _read_exact(fh, size: int, path) -> bytes:
    """The next ``size`` bytes of a binary file; a file too short names itself
    before anything is read, so a damaged length field allocates nothing."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if size > left:
        raise ValueError(f"{path}: file is truncated (wanted {size} bytes, found {left})")
    return fh.read(size)


def _read_end(fh, path) -> None:
    """A binary file ends where its header says: trailing bytes name the file."""
    if fh.read(1):
        raise ValueError(f"{path}: unexpected bytes after the data")


def read_snapshot(path) -> tuple[RealField, float, float]:
    """Returns (field, t, alpha)."""
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, path)
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"{path}: not a snapshot file (magic {magic!r})")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, path))
        if version != SNAPSHOT_VERSION:
            raise ValueError(f"{path}: unsupported snapshot version {version}")
        n, L, t, alpha = struct.unpack("<Iddd", _read_exact(fh, 28, path))
        data = np.frombuffer(_read_exact(fh, 8 * n * n, path), "<f8").reshape(n, n).copy()
        _read_end(fh, path)
    try:
        return RealField(GridSpec(n, L), data), t, alpha
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def write_diagnostics(path, records) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(DIAG_COLUMNS)
        for r in records:
            w.writerow([repr(getattr(r, c)) for c in DIAG_COLUMNS])


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
    """Persist snapshots and the diagnostics series of one simulation."""
    d = Path(run_dir)
    d.mkdir(parents=True, exist_ok=True)
    write_diagnostics(d / "diagnostics.csv", result.diagnostics)
    for i, (t, field) in enumerate(result.snapshots):
        write_snapshot(d / snapshot_filename(i, t), field, t, result.config.alpha)


def read_run_snapshots(run_dir) -> list[tuple[float, RealField, float]]:
    """All snapshots in a run directory as (t, field, alpha), sorted by time."""
    d = Path(run_dir)
    files = sorted(d.glob("snapshot_*.sqgf"))
    if not files:
        raise FileNotFoundError(f"no snapshot files found in {d}")
    out = []
    for f in files:
        field, t, alpha = read_snapshot(f)
        out.append((t, field, alpha))
    out.sort(key=lambda x: x[0])
    return out


def write_verdicts(path, rows: list[VerdictRow]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["check", "measured", "requirement", "passed"])
        for r in rows:
            w.writerow([r.name, float(r.measured), r.requirement, int(r.passed)])


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
