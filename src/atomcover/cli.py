"""Command-line front-end: parse structures, compress, report.

Subcommands:

  compress   select K structures with a sampler; write them + a report
  analyze    entropy/diversity/efficiency of a dataset
  overlap    containment of one dataset's environments in another's
  force-cdf  cumulative distribution of per-atom force magnitudes
  compare    sweep all samplers over multiple fractions

Exit codes: 0 success, 2 unreadable/malformed input, 3 invalid flags,
4 degenerate geometry (coincident atoms, singular cells).

Heavy imports happen inside the command functions so that --threads can
pin the BLAS/OpenMP pool sizes before numpy is loaded; the thread count
never changes results, only speed.
"""

from __future__ import annotations

import argparse
import os
import sys

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_FLAGS = 3
EXIT_GEOMETRY = 4

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


def _add_descriptor_flags(parser):
    parser.add_argument("--k", type=int, default=32, help="neighbors per environment (default 32)")
    parser.add_argument("--cutoff", type=float, default=5.0, help="radial cutoff in angstrom (default 5.0)")
    parser.add_argument("--bandwidth", type=float, default=0.015, help="kernel bandwidth (default 0.015)")
    parser.add_argument("--format", choices=["extxyz"], default="extxyz", help="input file format")
    parser.add_argument("--cache", default=None, metavar="DIR", help="descriptor cache directory")
    parser.add_argument("--threads", type=int, default=None, help="BLAS/OpenMP thread count (speed only)")


def build_parser() -> _Parser:
    parser = _Parser(prog="atomcover", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("compress", help="select a subset of structures")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True, help="compressed extxyz path")
    p.add_argument("--report", default=None, help="report JSON path (default <output>.report.json)")
    p.add_argument("--method", choices=["random", "kmeans", "fps", "msc"], default="msc")
    size = p.add_mutually_exclusive_group(required=True)
    size.add_argument("--fraction", type=float, help="fraction of structures to keep")
    size.add_argument("--count", type=int, help="number of structures to keep")
    p.add_argument("--seed", type=int, default=0)
    _add_descriptor_flags(p)
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("analyze", help="dataset information metrics")
    p.add_argument("input")
    p.add_argument("-o", "--output", default=None, help="report JSON path (default stdout)")
    _add_descriptor_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("overlap", help="containment of query in reference")
    p.add_argument("query")
    p.add_argument("reference")
    p.add_argument("-o", "--output", default=None, help="report JSON path (default stdout)")
    _add_descriptor_flags(p)
    p.set_defaults(func=cmd_overlap)

    p = sub.add_parser("force-cdf", help="force-magnitude CDF")
    p.add_argument("input")
    p.add_argument("-o", "--output", default=None, help="report JSON path (default stdout)")
    p.add_argument(
        "--thresholds",
        type=_float_list,
        default=None,
        help="comma-separated eV/A thresholds (default: 80th percentile to max)",
    )
    p.add_argument("--format", choices=["extxyz"], default="extxyz")
    p.set_defaults(func=cmd_force_cdf)

    p = sub.add_parser("compare", help="sweep samplers over fractions")
    p.add_argument("input")
    p.add_argument("-o", "--output", default=None, help="report JSON path (default stdout)")
    p.add_argument("--csv", default=None, help="also write the sweep table as CSV")
    p.add_argument("--fractions", type=_float_list, default=[0.1, 0.25, 0.5, 0.75])
    p.add_argument("--methods", default="all", help='comma list of samplers, or "all"')
    p.add_argument("--seed", type=int, default=0)
    _add_descriptor_flags(p)
    p.set_defaults(func=cmd_compare)

    return parser


def _descriptor_params(args):
    from .descriptor import DescriptorParams

    return DescriptorParams(n_neighbors=args.k, cutoff=args.cutoff)


def _kernel_params(args):
    from .information import KernelParams

    return KernelParams(bandwidth=args.bandwidth)


def _load_descriptors(path, args):
    """Read a dataset and build (or reuse cached) descriptors for it."""
    from .descriptor import build_descriptor_set, load_descriptor_set, save_descriptor_set
    from .errors import InputError
    from .extxyz import read_extxyz
    from .report import file_digest

    params = _descriptor_params(args)
    dataset = read_extxyz(path)
    cache_file = None
    if args.cache:
        os.makedirs(args.cache, exist_ok=True)
        key = f"{file_digest(path)[:16]}_k{params.n_neighbors}_rc{params.cutoff!r}"
        cache_file = os.path.join(args.cache, f"{key}.acds")
        if os.path.exists(cache_file):
            try:
                descs = load_descriptor_set(cache_file)
            except (InputError, OSError):
                pass  # truncated or unreadable: a miss, rebuilt below
            else:
                if descs.params == params and descs.n_structures == len(dataset):
                    return dataset, descs
    descs = build_descriptor_set(dataset, params)
    if cache_file:
        save_descriptor_set(descs, cache_file)
    return dataset, descs


def _common_parameters(args, **extra):
    out = {"command": args.command, "k": args.k, "cutoff": args.cutoff,
           "bandwidth": args.bandwidth, "format": args.format}
    out.update(extra)
    return out


def _emit(doc, output):
    if output is None:
        sys.stdout.write(doc.to_json())
    else:
        doc.write(output)


def cmd_compress(args):
    from dataclasses import asdict

    from .evaluation import compression_report
    from .extxyz import write_extxyz
    from .samplers import SamplerConfig, run_sampler

    dataset, descs = _load_descriptors(args.input, args)
    config = SamplerConfig(
        method=args.method,
        count=args.count,
        fraction=args.fraction,
        seed=args.seed,
        kernel=_kernel_params(args),
    )
    result = run_sampler(config, descs)
    write_extxyz(dataset, args.output, result.selected)

    parameters = _common_parameters(
        args, input=args.input, output=args.output, method=args.method,
        fraction=args.fraction, count=args.count, seed=args.seed,
    )
    doc = compression_report(descs, result.selected, config.kernel, parameters)
    if result.per_step is not None:
        doc.metrics["steps"] = [asdict(s) for s in result.per_step]
    report_path = args.report or args.output + ".report.json"
    doc.write(report_path)
    print(f"kept {len(result.selected)}/{len(dataset)} structures -> {args.output}")
    print(f"report -> {report_path}")
    return EXIT_OK


def cmd_analyze(args):
    import numpy as np

    from .information import entropy, per_structure_entropy
    from .report import ReportDocument

    _, descs = _load_descriptors(args.input, args)
    kernel = _kernel_params(args)
    result = entropy(descs, kernel)
    metrics = {
        "n_structures": descs.n_structures,
        "n_environments": descs.n_environments,
        "entropy_nats": result.entropy_nats,
        "max_entropy_nats": float(np.log(descs.n_environments)),
        "diversity_nats": result.diversity_nats,
        "efficiency": result.efficiency,
        "per_structure_entropy_nats": per_structure_entropy(descs, kernel),
    }
    doc = ReportDocument(
        kind="analyze",
        parameters=_common_parameters(args, input=args.input),
        metrics=metrics,
    )
    _emit(doc, args.output)
    return EXIT_OK


def cmd_overlap(args):
    import numpy as np

    from .information import contained_fraction, delta_entropy
    from .evaluation import delta_h_histogram
    from .report import ReportDocument

    _, query_descs = _load_descriptors(args.query, args)
    _, ref_descs = _load_descriptors(args.reference, args)
    kernel = _kernel_params(args)
    dh = delta_entropy(query_descs, ref_descs, kernel)
    metrics = {
        "n_query_environments": query_descs.n_environments,
        "n_reference_environments": ref_descs.n_environments,
        "overlap": contained_fraction(dh),
        "n_delta_h_positive": int(np.count_nonzero(dh > 0)),
        "n_delta_h_above_10": int(np.count_nonzero(dh > 10)),
        "delta_h_histogram": delta_h_histogram(dh, kernel),
    }
    doc = ReportDocument(
        kind="overlap",
        parameters=_common_parameters(args, query=args.query, reference=args.reference),
        metrics=metrics,
    )
    _emit(doc, args.output)
    return EXIT_OK


def cmd_force_cdf(args):
    from .evaluation import force_cdf
    from .extxyz import read_extxyz
    from .report import ReportDocument

    dataset = read_extxyz(args.input)
    result = force_cdf(dataset, None, args.thresholds)
    metrics = {
        "thresholds": result.thresholds,
        "cdf": result.cdf,
        "max_force": result.max_force,
    }
    doc = ReportDocument(
        kind="force_cdf",
        parameters={"command": args.command, "input": args.input, "format": args.format},
        metrics=metrics,
    )
    _emit(doc, args.output)
    return EXIT_OK


def cmd_compare(args):
    from .evaluation import compare_methods
    from .report import ReportDocument, write_csv
    from .samplers import METHODS

    methods = METHODS if args.methods == "all" else tuple(args.methods.split(","))
    _, descs = _load_descriptors(args.input, args)
    sweep = compare_methods(
        descs, args.fractions, methods, seed=args.seed, kernel=_kernel_params(args)
    )
    doc = ReportDocument(
        kind="compare",
        parameters=_common_parameters(
            args, input=args.input, fractions=args.fractions,
            methods=list(methods), seed=args.seed,
        ),
        metrics=sweep.to_metrics(),
    )
    _emit(doc, args.output)
    if args.csv:
        write_csv(args.csv, sweep.HEADER, sweep.to_table())
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "threads", None):
        for var in _THREAD_VARS:
            os.environ[var] = str(args.threads)

    from .errors import CellError, DegenerateGeometryError, InputError, ParseError

    try:
        return args.func(args)
    except ParseError as exc:
        print(f"atomcover: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (CellError, DegenerateGeometryError) as exc:
        print(f"atomcover: degenerate geometry: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY
    except InputError as exc:
        print(f"atomcover: {exc}", file=sys.stderr)
        return EXIT_FLAGS
    except OSError as exc:
        print(f"atomcover: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
