"""Deterministic report documents.

Reports are plain nested dicts serialized as JSON with insertion
ordering preserved, no timestamps, and every float rounded to 12
significant digits, so two runs over the same input produce
byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

__all__ = ["ReportDocument", "file_digest", "write_csv"]


def _round_floats(obj):
    """Recursively convert to JSON-friendly types with floats at 12 significant digits."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_round_floats(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


@contextmanager
def _replacing(path, mode="w", **kwargs):
    """Open a temporary file beside ``path`` that replaces it once written.

    The file is ``<path>.<pid>.tmp`` in the same directory, renamed onto
    ``path`` when the block ends.  On any exception, an interrupt included,
    it is removed and ``path`` is left as it was, so no failure leaves a
    partial file.  A symlink is written through; a path that exists and is
    not a regular file (``/dev/stdout``, a pipe) is written directly.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, mode, **kwargs) as fh:
            yield fh
        return
    path = os.path.realpath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass(frozen=True)
class ReportDocument:
    """A report: what was computed (kind), with what (parameters), results."""

    kind: str
    parameters: dict
    metrics: dict

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "parameters": _round_floats(self.parameters),
            "metrics": _round_floats(self.metrics),
        }

    def to_json(self) -> str:
        """Strict JSON: a NaN or infinity raises ValueError instead of being written."""
        return json.dumps(self.to_dict(), indent=2, allow_nan=False) + "\n"

    def write(self, path) -> None:
        with _replacing(path, encoding="utf-8") as fh:
            fh.write(self.to_json())


def file_digest(path) -> str:
    """sha256 hex digest of a file's bytes."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_csv(path, header, rows) -> None:
    """CSV with a fixed line terminator so output bytes are platform-stable."""
    with _replacing(path, encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else _round_floats(v) for v in row])
