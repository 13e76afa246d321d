"""Spans around atomcover's public functions, installed from outside the program.

A :class:`Tracer` replaces each boundary function listed in
``BOUNDARIES`` with a wrapper that records a span (name, layer, parent,
start, end) and, for some boundaries, a count taken from the arguments
or the result.  Every module-level binding of the same function object
inside the package is replaced too, so ``from .geometry import
nearest_neighbors`` in ``descriptor`` is traced like the original.  A
boundary that no longer exists is listed in ``Tracer.absent`` instead
of failing the run.  Spans stay in memory until the caller writes them.

Counts derived here (kernel pairs, msc pairs, flops) are computed from
argument shapes and returned selections, not counted inside the program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import sys
import time

import numpy as np

PACKAGE = "atomcover"


def _rows(x) -> tuple[int, int]:
    """(rows, width) of a DescriptorSet or a 1-D/2-D array of rows."""
    shape = np.shape(getattr(x, "values", x))
    return (1, shape[0]) if len(shape) == 1 else (shape[0], shape[1])


def _self_pass(args, result):
    n, w = _rows(args[0])
    return {"pairs": n * n, "width": w}


def _cross_pass(args, result):
    (nq, w), (nr, _) = _rows(args[0]), _rows(args[1])
    return {"pairs": nq * nr, "width": w}


def _per_structure_pass(args, result):
    lengths = np.asarray(args[0].offsets)[:, 1]
    return {"pairs": int((lengths * lengths).sum()), "width": args[0].width}


def _msc_counts(args, result):
    descs, selected = args[0], list(result.selected)
    lengths = np.asarray(descs.offsets)[:, 1]
    greedy = descs.n_environments * int(lengths[selected[:-1]].sum())
    return {"steps": len(selected), "msc_pairs": greedy + int((lengths * lengths).sum())}


# (layer, module in atomcover, attribute path, optional counter)
BOUNDARIES = (
    ("cli", "cli", "main", None),
    ("cli", "cli", "cmd_compress", None),
    ("cli", "cli", "cmd_analyze", None),
    ("cli", "cli", "cmd_overlap", None),
    ("cli", "cli", "cmd_force_cdf", None),
    ("cli", "cli", "cmd_compare", None),
    ("extxyz", "extxyz", "read_extxyz", lambda a, r: {"bytes": os.path.getsize(a[0])}),
    ("extxyz", "extxyz", "write_extxyz", None),
    ("geometry", "geometry", "nearest_neighbors", None),
    ("descriptor", "descriptor", "build_descriptor_set",
     lambda a, r: {"environments": r.n_environments}),
    ("descriptor", "descriptor", "save_descriptor_set", None),
    ("descriptor", "descriptor", "load_descriptor_set", None),
    ("information", "information", "entropy", _self_pass),
    ("information", "information", "diversity", _self_pass),
    ("information", "information", "efficiency", _self_pass),
    ("information", "information", "delta_entropy", _cross_pass),
    ("information", "information", "overlap", _cross_pass),
    ("information", "information", "per_structure_entropy", _per_structure_pass),
    ("samplers", "samplers", "sample_random", None),
    ("samplers", "samplers", "sample_kmeans", None),
    ("samplers", "samplers", "sample_fps", None),
    ("samplers", "samplers", "sample_msc", _msc_counts),
    ("evaluation", "evaluation", "compression_report", None),
    ("evaluation", "evaluation", "compare_methods", None),
    ("evaluation", "evaluation", "force_cdf", None),
    ("report", "report", "ReportDocument.to_json", lambda a, r: {"bytes": len(r.encode())}),
    ("report", "report", "ReportDocument.write", None),
    ("report", "report", "write_csv", None),
)


def import_all():
    """Import the package and every module in it; return the package."""
    pkg = importlib.import_module(PACKAGE)
    for info in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(f"{PACKAGE}.{info.name}")
    return pkg


class Tracer:
    """Records nested spans of the wrapped boundaries while installed."""

    def __init__(self, boundaries=BOUNDARIES):
        self.boundaries = boundaries
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        import_all()
        for layer, module, path, counter in self.boundaries:
            name = f"{module}.{path}"
            owner = sys.modules.get(f"{PACKAGE}.{module}")
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, layer, original, counter)
            self._replace(owner, attr, original, wrapper)
            if not parents:  # rebind `from .module import fn` copies as well
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.startswith(PACKAGE + ".") and mod is not owner:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._replace(mod, key, original, wrapper)
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False

    def _replace(self, owner, attr, original, wrapper) -> None:
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, layer, fn, counter):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if counter else None
        absent = self.absent

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": name, "layer": layer,
                    "parent": stack[-1] if stack else None,
                    "start": 0.0, "end": 0.0, "counts": {}}
            stack.append(len(spans))
            spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if counter is not None:
                bound = list(signature.bind(*args, **kwargs).arguments.values())
                try:
                    span["counts"] = counter(bound, result)
                except (AttributeError, IndexError, TypeError, ValueError):
                    # the boundary's signature moved; keep timing, drop the count
                    if f"{name}:counts" not in absent:
                        absent.append(f"{name}:counts")
            return result

        return wrapper


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_metrics(spans) -> dict:
    """Per-layer figures for one repetition of a workload's commands."""
    own = self_times(spans)
    has_kernel_child = [False] * len(spans)
    for s in spans:
        if s["parent"] is not None and s["layer"] == "information":
            has_kernel_child[s["parent"]] = True

    def total(names, times=None, count=None):
        out = 0
        for i, s in enumerate(spans):
            if s["name"] in names:
                if count:
                    out += s["counts"].get(count, 0)
                else:
                    out += (s["end"] - s["start"]) if times is None else times[i]
        return out

    def calls(name):
        return sum(1 for s in spans if s["name"] == name)

    def layer_self(layer):
        return sum(t for s, t in zip(spans, own) if s["layer"] == layer)

    kernel = [i for i, s in enumerate(spans)
              if s["layer"] == "information" and not has_kernel_child[i]]
    kernel_pairs = sum(spans[i]["counts"].get("pairs", 0) for i in kernel)
    kernel_flops = sum(2 * spans[i]["counts"].get("pairs", 0) * spans[i]["counts"].get("width", 0)
                       for i in kernel)
    kernel_s = layer_self("information")
    build_self = total({"descriptor.build_descriptor_set"}, own)
    built = total({"descriptor.build_descriptor_set"}, count="environments")
    return {
        "cli.self_s": layer_self("cli"),
        "cli.compress_s": total({"cli.cmd_compress"}),
        "cli.analyze_s": total({"cli.cmd_analyze"}),
        "cli.overlap_s": total({"cli.cmd_overlap"}),
        "cli.compare_s": total({"cli.cmd_compare"}),
        "cli.force_cdf_s": total({"cli.cmd_force_cdf"}),
        "extxyz.read_s": total({"extxyz.read_extxyz"}, own),
        "extxyz.read_mb": total({"extxyz.read_extxyz"}, count="bytes") / 1e6,
        "extxyz.write_s": total({"extxyz.write_extxyz"}, own),
        "geometry.neighbors_s": layer_self("geometry"),
        "geometry.neighbor_calls": calls("geometry.nearest_neighbors"),
        "descriptor.build_self_s": build_self,
        "descriptor.us_per_env": build_self / built * 1e6 if built else 0.0,
        "descriptor.cache_save_s": total({"descriptor.save_descriptor_set"}, own),
        "descriptor.cache_load_s": total({"descriptor.load_descriptor_set"}, own),
        "descriptor.cache_hits": calls("descriptor.load_descriptor_set"),
        "descriptor.cache_misses": calls("descriptor.build_descriptor_set"),
        "information.kernel_s": kernel_s,
        "information.kernel_calls": len(kernel),
        "information.kernel_pairs": kernel_pairs,
        "information.gflops": kernel_flops / kernel_s / 1e9 if kernel_s > 0 else 0.0,
        "samplers.msc_s": total({"samplers.sample_msc"}, own),
        "samplers.msc_steps": total({"samplers.sample_msc"}, count="steps"),
        "samplers.msc_pairs": total({"samplers.sample_msc"}, count="msc_pairs"),
        "samplers.baselines_s": total(
            {"samplers.sample_random", "samplers.sample_kmeans", "samplers.sample_fps"}, own),
        "evaluation.self_s": total(
            {"evaluation.compression_report", "evaluation.compare_methods"}, own),
        "evaluation.force_cdf_s": total({"evaluation.force_cdf"}),
        "report.write_s": layer_self("report"),
        "report.bytes": total({"report.ReportDocument.to_json"}, count="bytes"),
    }
