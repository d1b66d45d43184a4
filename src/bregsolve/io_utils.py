"""Trace CSV files and binary PGM images.

Trace files carry the run manifest as ``#``-prefixed comment lines, then
the fixed column header, then one row per sweep.  Images are 8-bit binary
PGM (magic ``P5``) with a linear mapping between [0, 1] floats and 0..255.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from .metrics import CSV_COLUMNS, TraceRecord


class IOError_(RuntimeError):
    pass


class PGMError(IOError_):
    pass


# ---------------------------------------------------------------------------
# Trace CSV
# ---------------------------------------------------------------------------

def _format_cell(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    f = float(v)
    if math.isnan(f):
        return ""
    return repr(f)


def write_trace(path, records: list[TraceRecord],
                manifest: dict | None = None) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        if manifest:
            for key in sorted(manifest):
                fh.write(f"# {key}: {_manifest_value(manifest[key])}\n")
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow([_format_cell(v) for v in rec.row()])


def _manifest_value(v) -> str:
    if isinstance(v, (dict, list, tuple)):
        return json.dumps(v)
    return str(v)


def read_trace(path) -> tuple[dict, list[TraceRecord]]:
    """Parse a trace file back into ``(manifest, records)``."""
    path = Path(path)
    manifest: dict[str, str] = {}
    body = []
    with path.open() as fh:
        for line in fh:
            if line.startswith("#"):
                text = line[1:].strip()
                key, _, val = text.partition(":")
                manifest[key.strip()] = val.strip()
            else:
                body.append(line)
    rows = list(csv.reader(io.StringIO("".join(body))))
    if not rows or tuple(rows[0]) != CSV_COLUMNS:
        raise IOError_(f"{path}: missing or malformed trace header")
    records = []
    for row in rows[1:]:
        if len(row) != len(CSV_COLUMNS):
            raise IOError_(f"{path}: row has {len(row)} cells, "
                           f"expected {len(CSV_COLUMNS)}")
        try:
            vals = [float(c) if c else math.nan for c in row[1:]]
            records.append(TraceRecord(int(row[0]), *vals))
        except ValueError as err:
            raise IOError_(f"{path}: malformed row {row}: {err}")
    return manifest, records


# ---------------------------------------------------------------------------
# Binary PGM (P5), 8 bit
# ---------------------------------------------------------------------------

def write_pgm(path, img: np.ndarray) -> None:
    """Write a float image in [0, 1] as binary 8-bit PGM; values are
    clipped, scaled by 255 and rounded."""
    img = np.asarray(img, dtype=float)
    if img.ndim != 2:
        raise PGMError(f"expected a 2-d image, got shape {img.shape}")
    data = np.rint(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)
    h, w = data.shape
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read a binary 8-bit PGM into a float image in [0, 1]."""
    path = Path(path)
    raw = path.read_bytes()
    pos = 0

    def token():
        nonlocal pos
        while True:
            while pos < len(raw) and raw[pos:pos + 1].isspace():
                pos += 1
            if raw[pos:pos + 1] == b"#":
                while pos < len(raw) and raw[pos] != 0x0A:
                    pos += 1
                continue
            break
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise PGMError(f"{path}: truncated header at byte {start}")
        return raw[start:pos]

    magic = token()
    if magic != b"P5":
        raise PGMError(f"{path}: bad magic {magic!r} at byte 0, "
                       "expected b'P5'")
    try:
        w, h, maxval = int(token()), int(token()), int(token())
    except ValueError as err:
        raise PGMError(f"{path}: non-numeric header near byte {pos}: {err}")
    if w < 1 or h < 1:
        raise PGMError(f"{path}: image size {w}x{h} is not positive")
    if maxval != 255:
        raise PGMError(f"{path}: unsupported maxval {maxval}, expected 255")
    pos += 1  # single whitespace byte after maxval
    body = raw[pos:pos + w * h]
    if len(body) != w * h:
        raise PGMError(f"{path}: expected {w * h} pixel bytes at offset "
                       f"{pos}, found {len(body)}")
    data = np.frombuffer(body, dtype=np.uint8).reshape(h, w)
    return data.astype(float) / 255.0
