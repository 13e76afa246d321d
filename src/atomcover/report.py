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
        text = self.to_json()  # serialize first, so a failure leaves no file
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def file_digest(path) -> str:
    """sha256 hex digest of a file's bytes."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_csv(path, header, rows) -> None:
    """CSV with a fixed line terminator so output bytes are platform-stable."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else _round_floats(v) for v in row])
