"""Correctness gate for the benchmark's commands, and an independent oracle.

Every command is one op.  An op fails when its report is not strict JSON,
breaks a bound the measures guarantee (0 <= H <= log N, 0 <= overlap <= 1,
efficiency = H / log N), or, for ``compress``, when the written file holds
a different number of frames than the selection.  Digests are compared by
the caller.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.spatial.distance import cdist
from scipy.special import logsumexp


class CheckError(Exception):
    """A command's output is wrong."""


def _reject_constant(name):
    raise CheckError(f"report holds the non-JSON constant {name}")


def strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def count_frames(path) -> int:
    """Frames in an extended-XYZ file, by hopping over the atom counts."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    frames = i = 0
    while i < len(lines):
        if lines[i].strip():
            frames += 1
            i += int(lines[i]) + 2
        else:
            i += 1
    return frames


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _check_entropy(h, log_n, efficiency, where: str) -> None:
    _require(0.0 <= h <= log_n, f"{where}: entropy {h} outside [0, log N = {log_n}]")
    if efficiency is not None:
        _require(math.isclose(efficiency, h / log_n, rel_tol=1e-10, abs_tol=1e-12),
                 f"{where}: efficiency {efficiency} != H / log N = {h / log_n}")


def _check_fraction(value, where: str) -> None:
    _require(0.0 <= value <= 1.0, f"{where}: {value} outside [0, 1]")


def check_report(command: str, report: dict, output_path=None):
    """Raise CheckError on a broken bound; return the report's headline figures."""
    m = report["metrics"]
    if command == "compress":
        selected = m["selection"]["indices"]
        frames = count_frames(output_path)
        _require(frames == len(selected) == m["sizes"]["n_structures_compressed"],
                 f"compress wrote {frames} frames for a selection of {len(selected)}")
        c = m["compressed"]
        _require(math.isclose(c["max_entropy_nats"],
                              math.log(m["sizes"]["n_environments_compressed"]), rel_tol=1e-10),
                 "compress: max_entropy_nats != log N of the selection")
        _check_entropy(c["entropy_nats"], c["max_entropy_nats"], c["efficiency"], "compress")
        _check_fraction(m["overlap"]["compressed_vs_full"], "compress overlap")
        _check_fraction(m["overlap"]["full_vs_compressed"], "compress overlap")
        return {"efficiency": c["efficiency"], "kept_overlap": m["overlap"]["full_vs_compressed"]}
    if command == "analyze":
        log_n = math.log(m["n_environments"])
        _require(math.isclose(m["max_entropy_nats"], log_n, rel_tol=1e-10),
                 "analyze: max_entropy_nats != log N")
        _check_entropy(m["entropy_nats"], m["max_entropy_nats"], m["efficiency"], "analyze")
        _require(0.0 <= m["diversity_nats"] <= log_n, "analyze: diversity outside [0, log N]")
        return {"efficiency": m["efficiency"]}
    if command == "overlap":
        _check_fraction(m["overlap"], "overlap")
        return {"overlap": m["overlap"]}
    if command == "compare":
        figures = {}
        for row in m["rows"]:
            where = f"compare {row['method']}/{row['fraction']}"
            _check_entropy(row["entropy_nats"], math.log(row["n_environments"]),
                           row["efficiency"], where)
            _check_fraction(row["overlap_full_vs_compressed"], where)
            if row["method"] == "msc" and row["fraction"] == 0.25:
                figures = {"efficiency": row["efficiency"],
                           "kept_overlap": row["overlap_full_vs_compressed"]}
        _require(bool(figures), "compare: no msc/0.25 row")
        return figures
    if command == "force-cdf":
        cdf = m["cdf"]
        _require(all(0.0 <= c <= 1.0 for c in cdf), "force-cdf: value outside [0, 1]")
        _require(all(a <= b for a, b in zip(cdf, cdf[1:])), "force-cdf: not monotone")
        return {}
    raise ValueError(f"no check for command {command!r}")


def neg_log_kernel_sums(queries, refs, bandwidth: float) -> np.ndarray:
    """-log sum_j exp(-|q_i - x_j|^2 / 2h^2) by explicit differences and logsumexp."""
    block = 512
    out = np.empty(len(queries))
    for q0 in range(0, len(queries), block):
        d2 = cdist(queries[q0:q0 + block], refs, "sqeuclidean")
        out[q0:q0 + block] = -logsumexp(-d2 / (2.0 * bandwidth * bandwidth), axis=1)
    return out


def oracle_analyze(ref_rows, query_rows, bandwidth: float) -> dict:
    """Entropy and diversity of the reference rows, overlap of the query rows."""
    dh_ref = neg_log_kernel_sums(ref_rows, ref_rows, bandwidth)
    dh_query = neg_log_kernel_sums(query_rows, ref_rows, bandwidth)
    return {
        "entropy_nats": max(float(dh_ref.mean() + np.log(len(ref_rows))), 0.0),
        "diversity_nats": max(float(logsumexp(dh_ref)), 0.0),
        "overlap": float(np.count_nonzero(dh_query <= 0) / len(dh_query)),
    }
