"""Dataset compression for atomistic machine learning.

Compresses collections of atomic structures by greedily covering
descriptor space, and measures what a compression kept with
information-theoretic figures of merit (entropy, diversity, overlap,
efficiency, force-tail CDFs).

Submodules are imported lazily so that the CLI can configure thread
pools before numpy loads.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    # errors
    "AtomcoverError": "errors",
    "InputError": "errors",
    "CellError": "errors",
    "DegenerateGeometryError": "errors",
    "ParseError": "errors",
    # geometry
    "Structure": "geometry",
    "Dataset": "geometry",
    "NeighborSet": "geometry",
    "replicate_for_search": "geometry",
    "nearest_neighbors": "geometry",
    # descriptor
    "DescriptorParams": "descriptor",
    "DescriptorSet": "descriptor",
    "cutoff_weight": "descriptor",
    "compute_x1": "descriptor",
    "compute_x2": "descriptor",
    "build_descriptor_set": "descriptor",
    "save_descriptor_set": "descriptor",
    "load_descriptor_set": "descriptor",
    # entropy
    "KernelParams": "information",
    "EntropyResult": "information",
    "entropy": "information",
    "delta_entropy": "information",
    "contained_fraction": "information",
    "diversity": "information",
    "overlap": "information",
    "efficiency": "information",
    "per_structure_entropy": "information",
    # io / reports
    "read_extxyz": "extxyz",
    "write_extxyz": "extxyz",
    "ReportDocument": "report",
    "round_floats": "report",
    "file_digest": "report",
    "write_csv": "report",
    # samplers
    "METHODS": "samplers",
    "SamplerConfig": "samplers",
    "StepDiagnostics": "samplers",
    "CompressionResult": "samplers",
    "sample_random": "samplers",
    "structure_means": "samplers",
    "sample_kmeans": "samplers",
    "sample_fps": "samplers",
    "sample_msc": "samplers",
    "run_sampler": "samplers",
    # evaluation
    "ForceCdf": "evaluation",
    "SweepRow": "evaluation",
    "SweepResult": "evaluation",
    "pooled_force_magnitudes": "evaluation",
    "default_threshold_grid": "evaluation",
    "force_cdf": "evaluation",
    "delta_h_histogram": "evaluation",
    "compression_report": "evaluation",
    "compare_methods": "evaluation",
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
