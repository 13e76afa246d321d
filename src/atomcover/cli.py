"""Command-line front-end: parse structures, compress, report.

Subcommands:

  compress   select K structures with a sampler; write them + a report
  analyze    entropy/diversity/efficiency of a dataset
  overlap    containment of one dataset's environments in another's
  force-cdf  cumulative distribution of per-atom force magnitudes
  compare    sweep all samplers over multiple fractions

Exit codes: 0 success, 2 unreadable/malformed input (for force-cdf,
also a structure without forces) or an output that cannot be written or
that another output or an input names too (checked before any input is
read), 3 invalid flags, 4 degenerate geometry (coincident atoms, singular
cells, cells too small to lay out), 5 out of memory, 130 interrupted
(Ctrl-C, the shell's code for SIGINT).  Each failure prints one line to
stderr, never a traceback.  Every file is written under a temporary name
and renamed into place, so a failure never leaves a partial one.

Library names are reached as ``ac.<name>``: the package resolves each on
first use, so importing this module and parsing the flags load no numpy,
and ``main`` sets the pool sizes of --threads before any command does.
Those take effect only where numpy has not loaded yet, as in the console
script or ``python -m atomcover.cli``; a process that has imported numpy
must set the variables before that import, as ``benchmarks/run.py`` does.
The thread count is a speed setting, but it can move the last bits of a
kernel figure (a multi-threaded BLAS may split a GEMM's sums
differently); reports, at 12 significant digits, have not been seen to
change.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict

import atomcover as ac

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_FLAGS = 3
EXIT_GEOMETRY = 4
EXIT_MEMORY = 5
EXIT_INTERRUPT = 130

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class _Parser(argparse.ArgumentParser):
    """argparse, but flag problems exit with our invalid-flags code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_FLAGS, f"{self.prog}: error: {message}\n")


def _float_list(text: str):
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


def _thread_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_descriptor_flags(parser):
    parser.add_argument("--k", type=int, default=32, help="neighbors per environment (default 32)")
    parser.add_argument("--cutoff", type=float, default=5.0, help="radial cutoff in angstrom (default 5.0)")
    parser.add_argument("--bandwidth", type=float, default=0.015, help="kernel bandwidth (default 0.015)")
    parser.add_argument("--cache", default=None, metavar="DIR", help="descriptor cache directory")
    parser.add_argument("--threads", type=_thread_count, default=None, help="BLAS/OpenMP pool size, at least 1; reports at 12 digits do not change, but the last bits of a kernel figure can")


def build_parser() -> _Parser:
    parser = _Parser(prog="atomcover", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name, func, summary, *inputs, **output):
        """A subcommand with its input paths and then -o (a report path by default)."""
        p = sub.add_parser(name, help=summary)
        for arg in inputs:
            p.add_argument(arg)
        p.add_argument("-o", "--output", **(output or {"help": "report JSON path (default stdout)"}))
        p.set_defaults(func=func)
        return p

    p = command("compress", cmd_compress, "select a subset of structures", "input",
                required=True, help="compressed extxyz path")
    p.add_argument("--report", default=None, help="report JSON path (default <output>.report.json)")
    # A literal, not ac.METHODS: parsing must not load numpy before --threads applies.
    p.add_argument("--method", choices=["random", "kmeans", "fps", "msc"], default="msc")
    size = p.add_mutually_exclusive_group(required=True)
    size.add_argument("--fraction", type=float, help="fraction of structures to keep")
    size.add_argument("--count", type=int, help="number of structures to keep")
    p.add_argument("--seed", type=int, default=0)
    _add_descriptor_flags(p)

    _add_descriptor_flags(command("analyze", cmd_analyze, "dataset information metrics", "input"))
    _add_descriptor_flags(command("overlap", cmd_overlap, "containment of query in reference",
                                  "query", "reference"))

    p = command("force-cdf", cmd_force_cdf, "force-magnitude CDF", "input")
    p.add_argument(
        "--thresholds",
        type=_float_list,
        default=None,
        help="comma-separated eV/A thresholds (default: 80th percentile to max)",
    )

    p = command("compare", cmd_compare, "sweep samplers over fractions", "input")
    p.add_argument("--csv", default=None, help="also write the sweep table as CSV")
    p.add_argument("--fractions", type=_float_list, default=[0.1, 0.25, 0.5, 0.75])
    p.add_argument("--methods", default="all", help='comma list of samplers, or "all"')
    p.add_argument("--seed", type=int, default=0)
    _add_descriptor_flags(p)

    return parser


def _prepare(args, *outputs, check=None):
    """Check a descriptor command's flags (exit 3), then its ``outputs`` (exit 2).

    Builds the kernel params, then ``check(kernel)`` (the command's own
    flags, checked against that kernel), then the descriptor params, and
    last checks the output paths, all before any input is read.  Returns
    the kernel params, the descriptor params and what ``check`` returned.
    """
    kernel = ac.KernelParams(bandwidth=args.bandwidth)
    checked = check(kernel) if check else None
    params = ac.DescriptorParams(n_neighbors=args.k, cutoff=args.cutoff)
    _check_outputs(args, *outputs)
    return kernel, params, checked


def _load_descriptors(path, args, params, structures=None):
    """Descriptors of one input file with ``params``, from the cache when it holds them.

    A cache hit reads only the cache file: its key pins the input's exact
    bytes, so the input is hashed, not parsed (and a reader change that
    alters parsed values needs a new cache format).  On a miss the input is
    parsed, unless the caller passes its parsed ``structures``.  A cache
    directory that cannot be made, or an entry that cannot be written, costs
    a warning on stderr, not the command.
    """
    cache_file = None
    if args.cache:
        try:
            os.makedirs(args.cache, exist_ok=True)
        except OSError as exc:
            # A cache directory that cannot be made is a miss on every run.
            print(f"atomcover: warning: descriptor cache not used: {exc}", file=sys.stderr)
        else:
            key = f"{ac.file_digest(path)[:16]}_k{params.n_neighbors}_rc{params.cutoff!r}"
            cache_file = os.path.join(args.cache, f"{key}.acds")
    if cache_file and os.path.exists(cache_file):
        try:
            descs = ac.load_descriptor_set(cache_file)
        except (ac.InputError, OSError):
            pass  # truncated or unreadable: a miss, rebuilt below
        else:
            if descs.params == params:
                return descs
    if structures is None:
        structures = ac.read_extxyz(path)
    descs = ac.build_descriptor_set(structures, params)
    if cache_file:
        try:
            ac.save_descriptor_set(descs, cache_file)
        except OSError as exc:
            # The descriptors are built; a cache that cannot take them
            # only costs the next run a rebuild.
            print(f"atomcover: warning: descriptor cache not written: {exc}", file=sys.stderr)
    return descs


def _check_outputs(args, *paths):
    """Fail, as an OSError (exit 2), on an output path that cannot be written.

    Called after the flag checks and before any input is read, so a bad
    path costs no work.  ``None`` (stdout) passes; any other path must not
    be a directory, its directory must exist and be writable, and no two
    outputs, nor an output and an input of ``args``, may name one file.
    """
    inputs = (getattr(args, name, None) for name in ("input", "query", "reference"))
    seen = {os.path.realpath(path): f"input {path}" for path in filter(None, inputs)}
    for path in filter(None, paths):
        folder = os.path.dirname(path) or "."
        if os.path.isdir(path):
            raise OSError(f"cannot write {path}: it is a directory")
        if not os.path.isdir(folder):
            raise OSError(f"cannot write {path}: no directory {folder}")
        if not os.access(folder, os.W_OK):
            raise OSError(f"cannot write {path}: directory {folder} is not writable")
        real = os.path.realpath(path)
        if real in seen:
            raise OSError(f"cannot write {path}: it is also the {seen[real]}")
        seen[real] = f"output {path}"


def _report(args, path, make, /, **parameters):
    """Write a descriptor command's report to ``path``, or to stdout for None.

    ``make`` builds the document from its parameters: the command, its
    descriptor and kernel flags, the format, then ``parameters``.
    """
    doc = make({"command": args.command, "k": args.k, "cutoff": args.cutoff,
                "bandwidth": args.bandwidth, "format": "extxyz", **parameters})
    if path is None:
        sys.stdout.write(doc.to_json())
    else:
        doc.write(path)


def cmd_compress(args):
    report_path = args.report or args.output + ".report.json"
    kernel, params, config = _prepare(
        args, args.output, report_path,
        check=lambda kernel: ac.SamplerConfig(
            method=args.method, count=args.count, fraction=args.fraction, seed=args.seed,
            kernel=kernel,
        ),
    )
    structures = ac.read_extxyz(args.input)
    config.resolve_count(len(structures))  # --count checked before anything is described
    descs = _load_descriptors(args.input, args, params, structures)
    result = ac.run_sampler(config, descs)

    def make(parameters):
        delta_h = result.delta_h[len(result)] if result.delta_h else None
        doc = ac.compression_report(descs, result.selected, kernel, parameters, delta_h)
        if result.per_step is not None:
            doc.metrics["steps"] = [asdict(s) for s in result.per_step]
        return doc

    # The report first: one that fails leaves no kept frames behind.
    _report(args, report_path, make, input=args.input, output=args.output,
            method=args.method, fraction=args.fraction, count=args.count, seed=args.seed)
    ac.write_extxyz(structures, args.output, result.selected)
    print(f"kept {len(result.selected)}/{len(structures)} structures -> {args.output}")
    print(f"report -> {report_path}")
    return EXIT_OK


def cmd_analyze(args):
    import numpy as np

    kernel, params, _ = _prepare(args, args.output)
    descs = _load_descriptors(args.input, args, params)
    result = ac.entropy(descs, kernel)
    metrics = {
        "n_structures": descs.n_structures,
        "n_environments": descs.n_environments,
        "entropy_nats": result.entropy_nats,
        "max_entropy_nats": float(np.log(descs.n_environments)),
        "diversity_nats": result.diversity_nats,
        "efficiency": result.efficiency,
        "per_structure_entropy_nats": ac.per_structure_entropy(descs, kernel),
    }
    _report(args, args.output, lambda p: ac.ReportDocument("analyze", p, metrics),
            input=args.input)
    return EXIT_OK


def cmd_overlap(args):
    import numpy as np

    kernel, params, _ = _prepare(args, args.output)
    query_descs = _load_descriptors(args.query, args, params)
    ref_descs = _load_descriptors(args.reference, args, params)
    dh = ac.delta_entropy(query_descs, ref_descs, kernel)
    metrics = {
        "n_query_environments": query_descs.n_environments,
        "n_reference_environments": ref_descs.n_environments,
        "overlap": ac.contained_fraction(dh),
        "n_delta_h_positive": int(np.count_nonzero(dh > 0)),
        "n_delta_h_above_10": int(np.count_nonzero(dh > 10)),
        "delta_h_histogram": ac.delta_h_histogram(dh, kernel),
    }
    _report(args, args.output, lambda p: ac.ReportDocument("overlap", p, metrics),
            query=args.query, reference=args.reference)
    return EXIT_OK


def cmd_force_cdf(args):
    _check_outputs(args, args.output)
    structures = ac.read_extxyz(args.input)
    # A frame without forces is a fault of the input file, not of a flag.
    missing = next((i for i, s in enumerate(structures) if s.forces is None), None)
    if missing is not None:
        print(f"atomcover: {args.input}: structure {missing} has no forces", file=sys.stderr)
        return EXIT_PARSE
    result = ac.force_cdf(structures, None, args.thresholds)
    doc = ac.ReportDocument(
        kind="force_cdf",
        parameters={"command": args.command, "input": args.input, "format": "extxyz"},
        metrics=asdict(result),  # thresholds, cdf, max_force
    )
    if args.output is None:
        sys.stdout.write(doc.to_json())
    else:
        doc.write(args.output)
    return EXIT_OK


def cmd_compare(args):
    from .evaluation import _sweep_configs  # private, so not a package name

    names = [m.strip() for m in args.methods.split(",") if m.strip()]  # as _float_list does
    methods = ac.METHODS if names == ["all"] else tuple(names)
    kernel, params, _ = _prepare(  # every config checked before loading
        args, args.output, args.csv,
        check=lambda kernel: _sweep_configs(args.fractions, methods, args.seed, kernel),
    )
    descs = _load_descriptors(args.input, args, params)
    sweep = ac.compare_methods(descs, args.fractions, methods, seed=args.seed, kernel=kernel)
    _report(args, args.output, lambda p: ac.ReportDocument("compare", p, sweep.to_metrics()),
            input=args.input, fractions=args.fractions, methods=list(methods), seed=args.seed)
    if args.csv:
        ac.write_csv(args.csv, sweep.HEADER, sweep.to_table())
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "threads", None):
        for var in _THREAD_VARS:
            os.environ[var] = str(args.threads)

    # Imported ahead of the try, so that matching an exception runs no import.
    from .errors import DegenerateGeometryError, InputError, ParseError

    try:
        return args.func(args)
    except ParseError as exc:
        print(f"atomcover: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DegenerateGeometryError as exc:
        print(f"atomcover: degenerate geometry: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY
    except InputError as exc:
        print(f"atomcover: {exc}", file=sys.stderr)
        return EXIT_FLAGS
    except OSError as exc:
        print(f"atomcover: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"atomcover: out of memory{detail}", file=sys.stderr)
        return EXIT_MEMORY
    except KeyboardInterrupt:
        print("atomcover: interrupted", file=sys.stderr)
        return EXIT_INTERRUPT


if __name__ == "__main__":
    sys.exit(main())
