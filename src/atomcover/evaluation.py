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
from .information import (
    EntropyResult,
    KernelParams,
    _subset_delta_entropies,
    contained_fraction,
    delta_entropy,
)
from .errors import InputError
from .report import ReportDocument
from .samplers import METHODS, SamplerConfig, _sweep

__all__ = [
    "ForceCdf",
    "SweepRow",
    "SweepResult",
    "force_cdf",
    "delta_h_histogram",
    "compression_report",
    "compare_methods",
]

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


def _pooled_force_magnitudes(structures, selection=None) -> np.ndarray:
    """All per-atom |F| over the selected structures, pooled into one array."""
    indices = range(len(structures)) if selection is None else selection
    chunks = []
    for idx in indices:
        s = structures[int(idx)]
        if s.forces is None:
            raise InputError(f"structure {int(idx)} has no forces")
        chunks.append(np.sqrt((s.forces**2).sum(axis=1)))
    if not chunks:
        raise InputError("selection is empty")
    return np.concatenate(chunks)


def _default_threshold_grid(mags: np.ndarray) -> np.ndarray:
    """256 points from the 80th percentile of the full dataset's pooled |F| to the max."""
    lo = float(np.percentile(mags, 80.0))
    hi = float(mags.max())
    if not hi > lo:  # all magnitudes in the tail identical
        return np.array([hi])
    return np.linspace(lo, hi, 256)


def force_cdf(structures, selection=None, thresholds=None) -> ForceCdf:
    """Fraction of environments with |F| strictly below each threshold.

    ``structures`` is any sequence of Structures; ``selection`` picks
    indices into it.  Thresholds default to the tail grid from
    :func:`_default_threshold_grid` over every structure, so subset CDFs
    stay comparable.
    """
    if thresholds is not None and np.size(thresholds) == 0:
        raise InputError("no thresholds given")
    mags = None
    if thresholds is None:
        mags = _pooled_force_magnitudes(structures)
        thresholds = _default_threshold_grid(mags)
    if mags is None or selection is not None:
        mags = _pooled_force_magnitudes(structures, selection)
    thresholds = np.asarray(thresholds, dtype=float)
    mags = np.sort(mags)
    below = np.searchsorted(mags, thresholds, side="left")
    return ForceCdf(
        thresholds=thresholds,
        cdf=below / len(mags),
        max_force=float(mags[-1]),
    )


def _kept_figures(descs: DescriptorSet, selection, kernel: KernelParams, delta_h):
    """delta_entropy(full | kept) of every full-set row, and the kept set's figures.

    Every kept row is also a reference, so its entry of delta_entropy(full
    | kept) is its own delta entropy within the kept set: the kept set's H,
    D and efficiency are read off those entries, in the row order of
    ``descs.subset(selection)``, with no self pass.  ``delta_h``, when the
    caller already has that vector, stands in for the one cross pass.
    """
    rows, _ = descs._subset_rows(selection)
    if delta_h is None:
        delta_h = delta_entropy(descs, descs.subset(selection), kernel)
    delta_h = np.asarray(delta_h, dtype=float)
    if delta_h.shape != (descs.n_environments,):
        raise InputError(f"delta_h has shape {delta_h.shape}, not ({descs.n_environments},)")
    return delta_h, EntropyResult.of(delta_h[rows])


def compression_report(
    descs: DescriptorSet,
    selection,
    kernel: KernelParams = KernelParams(),
    parameters: dict | None = None,
    delta_h=None,
) -> ReportDocument:
    """Information retention of a selection, as a serializable report.

    The headline overlap is of the FULL dataset's environments against
    the compressed references — the direction that can fall below 1 for
    a subset.  The reverse is 1.0 for every subset by construction, so it
    is written without a kernel pass.  A histogram of per-environment
    delta entropy, the counts above 0 and 10 nats and the kept set's H, D
    and efficiency complete the report, all from the one
    delta_entropy(full | selection) vector of :func:`_kept_figures`.

    ``delta_h``, that vector with one value per full-set row, skips the
    full x selection cross pass when the caller already has it (as
    ``msc`` does, in its result's ``delta_h``).
    """
    selection = [int(i) for i in selection]
    dh, kept = _kept_figures(descs, selection, kernel, delta_h)
    kernel_params = {"bandwidth": kernel.bandwidth}

    compressed_block = {
        "parameters": kernel_params,
        "entropy_nats": kept.entropy_nats,
        "diversity_nats": kept.diversity_nats,
        "max_entropy_nats": float(np.log(kept.n_environments)),
        "efficiency": kept.efficiency,
    }

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
            "n_environments_compressed": kept.n_environments,
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
    efficiency: float | None  # None below two kept rows, as in compression_report
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
    kernel: KernelParams = KernelParams(),
) -> SweepResult:
    """Run each sampler at each fraction and tabulate the figures of merit.

    Fractions are sorted ascending; one row per (method, fraction).  Each
    method's picks at every fraction come from one :func:`_sweep`, which
    holds the per-count rule, so they are those of one ``run_sampler`` per
    fraction.  Each row's figures come from one delta_entropy(full | kept)
    vector (:func:`_kept_figures`).  ``msc`` rows read it off the greedy's
    own kernel sums; every other selection, counted once however many rows
    share it, is a column of one :func:`_subset_delta_entropies` self pass
    over the full set, which a sweep of ``msc`` alone skips.
    """
    fractions, sweep = _sweep_configs(fractions, methods, seed, kernel)
    runs = [(configs[0].method, _sweep(descs, configs)) for configs in sweep]
    dh_of = {_selection_key(r.selected): r.delta_h[len(r)]  # selection key -> its delta H
             for _, results in runs for r in results if r.delta_h}
    keys = [k for k in dict.fromkeys(_selection_key(r.selected) for _, rs in runs for r in rs)
            if k not in dh_of]
    dh_of.update(zip(keys, _subset_delta_entropies(
        descs, [descs._subset_rows(key)[0] for key in keys], kernel
    )))

    rows = []
    for method, results in runs:
        for fraction, result in zip(fractions, results):
            selected = result.selected
            dh, kept = _kept_figures(descs, selected, kernel, dh_of[_selection_key(selected)])
            rows.append(
                SweepRow(
                    method=method,
                    fraction=fraction,
                    count=len(selected),
                    n_environments=kept.n_environments,
                    entropy_nats=kept.entropy_nats,
                    diversity_nats=kept.diversity_nats,
                    efficiency=kept.efficiency,
                    overlap_full_vs_compressed=contained_fraction(dh),
                )
            )
    return SweepResult(rows=tuple(rows))


def _sweep_configs(fractions, methods, seed: int, kernel: KernelParams):
    """The ascending fractions of a sweep and its SamplerConfigs, one list
    per method with one config per fraction.

    Every config is built, and so checked, before any sampler runs or any
    input is described: an empty or repeated fraction or method, a fraction
    outside (0, 1], an unknown method or a negative seed raises InputError.
    """
    fractions = sorted(float(f) for f in fractions)
    if not fractions:
        raise InputError("no fractions given")
    _reject_repeats("fractions", fractions)
    methods = tuple(methods)
    if not methods:
        raise InputError("no methods given")
    _reject_repeats("methods", methods)
    return fractions, [
        [SamplerConfig(method=method, fraction=f, seed=seed, kernel=kernel) for f in fractions]
        for method in methods
    ]


def _reject_repeats(what: str, items) -> None:
    repeated = sorted({str(x) for x in items if items.count(x) > 1})
    if repeated:
        raise InputError(f"{what} given more than once: {', '.join(repeated)}")


def _selection_key(selected) -> tuple:
    """The structures of a selection, in a fixed order: equal for equal kept sets."""
    return tuple(sorted(int(i) for i in selected))
