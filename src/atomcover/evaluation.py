"""Figures of merit for compressed datasets.

Everything here reports *how much information survived* a selection:
entropy/diversity/efficiency of the kept structures, the overlap of the
full dataset against them, the distribution of per-environment novelty
(delta entropy), and the force-magnitude CDF that shows whether the
high-force tail was retained.
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from .descriptor import DescriptorSet
from .information import KernelParams, contained_fraction, delta_entropy, entropy
from .errors import InputError
from .geometry import Dataset
from .report import ReportDocument
from .samplers import METHODS, SamplerConfig, run_sampler

__all__ = [
    "ForceCdf",
    "SweepRow",
    "SweepResult",
    "pooled_force_magnitudes",
    "default_threshold_grid",
    "force_cdf",
    "delta_h_histogram",
    "compression_report",
    "compare_methods",
]

#: Samplers whose first c picks at any count C >= c are their picks at count c.
_NESTED_METHODS = ("fps", "msc")

_HIST_RANGE = (-20.0, 20.0)
_HIST_BIN_WIDTH = 0.5


def delta_h_histogram(dh, kernel: KernelParams) -> dict:
    """Histogram block for per-environment delta entropies.

    Fixed 0.5-nat bins over [-20, 20] with explicit edges, plus counts
    of values falling outside the range, so the serialized report fully
    determines a replot.
    """
    dh = np.asarray(dh, dtype=float)
    lo, hi = _HIST_RANGE
    edges = np.linspace(lo, hi, int(round((hi - lo) / _HIST_BIN_WIDTH)) + 1)
    counts, _ = np.histogram(dh, bins=edges)
    return {
        "parameters": {
            "bandwidth": kernel.bandwidth,
            "bin_width": _HIST_BIN_WIDTH,
            "range": [lo, hi],
        },
        "bin_edges": edges,
        "counts": counts,
        "n_below_range": int(np.count_nonzero(dh < lo)),
        "n_above_range": int(np.count_nonzero(dh > hi)),
    }


@dataclass(frozen=True)
class ForceCdf:
    """Empirical CDF of per-atom force magnitudes, in eV/angstrom."""

    thresholds: np.ndarray
    cdf: np.ndarray
    max_force: float

    def __post_init__(self):
        thresholds = np.asarray(self.thresholds, dtype=float)
        cdf = np.asarray(self.cdf, dtype=float)
        if thresholds.ndim != 1 or thresholds.shape != cdf.shape:
            raise InputError("thresholds and cdf must be matching 1-D arrays")
        if not np.all(np.isfinite(thresholds)):
            raise InputError("thresholds must be finite")
        if len(thresholds) > 1 and not np.all(np.diff(thresholds) > 0):
            raise InputError("thresholds must be strictly ascending")
        if np.any(cdf < 0) or np.any(cdf > 1) or np.any(np.diff(cdf) < 0):
            raise InputError("cdf values must be non-decreasing fractions in [0, 1]")
        object.__setattr__(self, "thresholds", thresholds)
        object.__setattr__(self, "cdf", cdf)


def pooled_force_magnitudes(dataset: Dataset, selection=None) -> np.ndarray:
    """All per-atom |F| over the selected structures, pooled into one array."""
    indices = range(len(dataset)) if selection is None else selection
    chunks = []
    for idx in indices:
        s = dataset[int(idx)]
        if s.forces is None:
            raise InputError(f"structure {int(idx)} has no forces")
        chunks.append(np.sqrt((s.forces**2).sum(axis=1)))
    if not chunks:
        raise InputError("selection is empty")
    return np.concatenate(chunks)


def default_threshold_grid(dataset: Dataset, n_points: int = 256) -> np.ndarray:
    """Grid from the 80th percentile of the full dataset's |F| to the max."""
    mags = pooled_force_magnitudes(dataset)
    lo = float(np.percentile(mags, 80.0))
    hi = float(mags.max())
    if not hi > lo:  # all magnitudes in the tail identical
        return np.array([hi])
    return np.linspace(lo, hi, n_points)


def force_cdf(dataset: Dataset, selection=None, thresholds=None) -> ForceCdf:
    """Fraction of environments with |F| strictly below each threshold.

    Defaults to the tail grid from :func:`default_threshold_grid` over
    the full dataset, so subset CDFs stay comparable.
    """
    if thresholds is None:
        thresholds = default_threshold_grid(dataset)
    thresholds = np.asarray(thresholds, dtype=float)
    mags = np.sort(pooled_force_magnitudes(dataset, selection))
    below = np.searchsorted(mags, thresholds, side="left")
    return ForceCdf(
        thresholds=thresholds,
        cdf=below / len(mags),
        max_force=float(mags[-1]),
    )


def compression_report(
    descs: DescriptorSet,
    selection,
    kernel: KernelParams | None = None,
    parameters: dict | None = None,
) -> ReportDocument:
    """Information retention of a selection, as a serializable report.

    The headline overlap is of the FULL dataset's environments against
    the compressed references — the direction that can fall below 1 for
    a subset.  The reverse is 1.0 for every subset by construction, so it
    is written without a kernel pass.  A histogram of per-environment
    delta entropy and the counts above 0 and 10 nats complete the report.
    """
    if kernel is None:
        kernel = KernelParams()
    selection = [int(i) for i in selection]
    if not selection:
        raise InputError("selection is empty")
    sub = descs.subset(selection)
    kernel_params = {"bandwidth": kernel.bandwidth}

    compressed = entropy(sub, kernel)
    compressed_block = {
        "parameters": kernel_params,
        "entropy_nats": compressed.entropy_nats,
        "diversity_nats": compressed.diversity_nats,
        "max_entropy_nats": float(np.log(sub.n_environments)),
        "efficiency": compressed.efficiency,
    }

    dh = delta_entropy(descs.values, sub.values, kernel)
    overlap_block = {
        "parameters": kernel_params,
        "full_vs_compressed": contained_fraction(dh),
        # Every subset row is also a full-set row, whose d^2 to itself snaps
        # to 0: its kernel sum is >= 1, so delta H <= 0 and the whole subset
        # is contained.  No kernel pass is needed for that.
        "compressed_vs_full": 1.0,
        "n_delta_h_positive": int(np.count_nonzero(dh > 0)),
        "n_delta_h_above_10": int(np.count_nonzero(dh > 10)),
    }

    metrics = {
        "sizes": {
            "parameters": {},
            "n_structures_full": descs.n_structures,
            "n_structures_compressed": len(selection),
            "n_environments_full": descs.n_environments,
            "n_environments_compressed": sub.n_environments,
        },
        "selection": {"parameters": {}, "indices": list(selection)},
        "compressed": compressed_block,
        "overlap": overlap_block,
        "delta_h_histogram": delta_h_histogram(dh, kernel),
    }
    return ReportDocument(
        kind="compression",
        parameters=dict(parameters or {}),
        metrics=metrics,
    )


@dataclass(frozen=True)
class SweepRow:
    method: str
    fraction: float
    count: int
    n_environments: int
    entropy_nats: float
    diversity_nats: float
    efficiency: float
    overlap_full_vs_compressed: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]

    HEADER = tuple(f.name for f in fields(SweepRow))

    def to_table(self):
        return [list(astuple(r)) for r in self.rows]

    def to_metrics(self) -> dict:
        return {"rows": [asdict(r) for r in self.rows]}


def compare_methods(
    descs: DescriptorSet,
    fractions,
    methods=METHODS,
    seed: int = 0,
    kernel: KernelParams | None = None,
) -> SweepResult:
    """Run each sampler at each fraction and tabulate the figures of merit.

    Fractions are sorted ascending; one row per (method, fraction).
    ``fps`` and ``msc`` run once, at the largest count, and each smaller
    fraction takes the prefix of that selection, which is what they pick
    at that count.
    """
    if kernel is None:
        kernel = KernelParams()
    fractions = sorted(float(f) for f in fractions)
    if not fractions:
        raise InputError("no fractions given")
    for f in fractions:
        if not 0 < f <= 1:
            raise InputError(f"fraction must be in (0, 1], got {f}")
    methods = list(methods)
    for m in methods:
        if m not in METHODS:
            raise InputError(f"unknown method {m!r}; expected one of {METHODS}")

    rows = []
    for method in methods:
        configs = [
            SamplerConfig(method=method, fraction=f, seed=seed, kernel=kernel)
            for f in fractions
        ]
        if method in _NESTED_METHODS:
            largest = run_sampler(configs[-1], descs).selected
            selections = [largest[: c.resolve_count(descs.n_structures)] for c in configs]
        else:
            selections = [run_sampler(c, descs).selected for c in configs]
        for fraction, selected in zip(fractions, selections):
            sub = descs.subset(selected)
            kept = entropy(sub, kernel)
            dh = delta_entropy(descs.values, sub.values, kernel)
            rows.append(
                SweepRow(
                    method=method,
                    fraction=fraction,
                    count=len(selected),
                    n_environments=sub.n_environments,
                    entropy_nats=kept.entropy_nats,
                    diversity_nats=kept.diversity_nats,
                    efficiency=0.0 if kept.efficiency is None else kept.efficiency,
                    overlap_full_vs_compressed=contained_fraction(dh),
                )
            )
    return SweepResult(rows=tuple(rows))
