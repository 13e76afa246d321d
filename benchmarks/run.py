"""atomcover benchmark: the CLI driven in-process over generated inputs.

Usage, from the root of a checkout that holds ``src/atomcover``::

    python3 benchmarks/run.py --workload cold-compress --seed 1 --seconds 10 --trace 0

Each run is one workload in its own process.  It imports the program,
generates the workload's inputs from ``--seed`` (and prebuilds descriptor
caches for the warm workloads) several times to time set-up, then repeats
the workload's command sequence through ``atomcover.cli.main`` for at
least ``--seconds`` seconds, one command after another (a closed loop of
one caller).  Every command's report is checked (see ``checks.py``) and
its digest must repeat across repetitions, across runs of the same seed
and source, and, on warm-analyze, match an independent recomputation.

End-to-end times are reported in reference seconds (units ``ref_s`` and
``env/ref_s``; ``setup_s`` is in reference seconds too, but the benchmark
format fixes its unit as ``s``).  A shared host's
speed drifts by 10-30% within minutes, so the run times a fixed probe
that touches no atomcover code (small BLAS products, ``exp`` and a Python
loop) three times before and after every set-up and every repetition.
Each set-up or repetition is rescaled by ``PROBE_REF_S`` over the median
of the probes that bracket it, and the metrics are medians of the
rescaled values.  One reference second is the time of ``1 / PROBE_REF_S``
probes (100).  The raw wall seconds and the probe median are printed on the line
before the result.  Per-layer times are raw, except ``trace.overhead_s``:
the median, over traced repetitions, of each one's rescaled time minus that
of the untraced repetition before it.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced repetitions with repetitions under the span wrappers of
``spans.py`` and prints the per-layer metrics; the spans are written to
``.bench_work/trace/`` when the run ends.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the line
before it records the inputs and the settings.  Working files go to
``.bench_work/``.
"""

import os

THREADS = 1  # every command runs with --threads 1; BLAS pools are pinned before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = ".bench_work"

SETUP_REPS = 3  # set-up is timed this many times; the median is reported
PROBE_REF_S = 0.010  # about the probe's time on an unloaded 2-vCPU x86-64 VM
MIN_REPS = 3  # command-sequence repetitions per run, whatever --seconds says

# name -> inputs {file: (stream, structures, cell side, jitter scale)},
# whether set-up prebuilds the caches, and the command that main_cmd_s times.
WORKLOADS = {
    "cold-compress": {
        "inputs": {"data": (0, 100, 4, 1.0)},
        "prebuild": False,
        "main": "compress",
    },
    "warm-analyze": {
        "inputs": {"ref": (0, 80, 4, 1.0), "query": (1, 80, 4, 1.5)},
        "prebuild": True,
        "main": "analyze",
    },
    "warm-sweep": {
        "inputs": {"data": (0, 400, 2, 1.0)},
        "prebuild": True,
        "main": "compare",
    },
}


def commands(workload: str, d: str):
    """(command, argv, report path, written extxyz path or None) in run order."""
    cache = ["--cache", f"{d}/cache", "--threads", str(THREADS)]
    if workload == "cold-compress":
        return [
            ("compress", ["compress", f"{d}/data.xyz", "-o", f"{d}/kept.xyz",
                          "--report", f"{d}/compress.json", "--method", "msc",
                          "--fraction", "0.25", *cache], f"{d}/compress.json", f"{d}/kept.xyz"),
            ("force-cdf", ["force-cdf", f"{d}/data.xyz", "-o", f"{d}/force_cdf.json"],
             f"{d}/force_cdf.json", None),
        ]
    if workload == "warm-analyze":
        return [
            ("analyze", ["analyze", f"{d}/ref.xyz", "-o", f"{d}/analyze.json", *cache],
             f"{d}/analyze.json", None),
            ("overlap", ["overlap", f"{d}/query.xyz", f"{d}/ref.xyz",
                         "-o", f"{d}/overlap.json", *cache], f"{d}/overlap.json", None),
        ]
    return [
        ("compare", ["compare", f"{d}/data.xyz", "--fractions", "0.1,0.25,0.5",
                     "--methods", "all", "--seed", "0", "-o", f"{d}/compare.json", *cache],
         f"{d}/compare.json", None),
    ]


def probe() -> float:
    """Seconds for a fixed mix of numpy kernels and Python bytecode.

    Temporaries stay under glibc's 128 KiB mmap threshold, so the probe's
    speed does not depend on what the program allocated before it.
    """
    import numpy as np

    rows = np.random.default_rng(0).normal(size=(100, 63))
    start = time.perf_counter()
    for _ in range(100):
        np.exp(-1e-3 * (rows @ rows.T)).sum()
    acc = 0
    for i in range(60000):
        acc += i * i
    return time.perf_counter() - start


class Clock:
    """Probe sets between timed items; each item's scale comes from the two around it."""

    def __init__(self):
        probe()  # the first call pays numpy's one-off start-up costs
        self.sets = [self._probes()]

    @staticmethod
    def _probes() -> list[float]:
        return [probe() for _ in range(3)]

    def scale(self) -> float:
        """Reference seconds per wall second for the item that just ended."""
        self.sets.append(self._probes())
        return PROBE_REF_S / statistics.median(self.sets[-2] + self.sets[-1])

    def median(self) -> float:
        return statistics.median(t for s in self.sets for t in s)


def call_cli(cli, argv):
    """Run one command in-process; return (exit code or None on a traceback, seconds)."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
    except Exception:  # a traceback is a failed op, not a failed benchmark
        traceback.print_exc()
        code = None
    return code, time.perf_counter() - start


IMPORT_PROBE = """
import time
start = time.perf_counter()
import spans
spans.import_all()
print(time.perf_counter() - start)
"""


def time_import() -> float:
    """Seconds a fresh interpreter spends importing every atomcover module."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


def setup(cli, gen, workload: str, seed: int, d: str) -> dict:
    """Fresh inputs, and for warm workloads their caches, built through the CLI."""
    spec = WORKLOADS[workload]
    shutil.rmtree(d, ignore_errors=True)
    stats = {name: gen.write_dataset(f"{d}/{name}.xyz", seed, *params)
             for name, params in spec["inputs"].items()}
    if spec["prebuild"]:
        for name in spec["inputs"]:
            code, _ = call_cli(cli, ["compress", f"{d}/{name}.xyz", "-o", f"{d}/prebuild.xyz",
                                     "--report", f"{d}/prebuild.json", "--method", "random",
                                     "--count", "1", "--cache", f"{d}/cache",
                                     "--threads", str(THREADS)])
            if code != 0:
                raise SystemExit(f"benchmark: cache prebuild of {name} exited {code}")
    return stats


def pin_key(workload: str, d: str) -> str:
    """Digest of everything a report depends on: source, command lines and inputs."""
    h = hashlib.sha256(json.dumps(commands(workload, d)).encode())
    paths = sorted(glob.glob(os.path.join(SRC, "atomcover", "*.py")))
    paths += [f"{d}/{name}.xyz" for name in WORKLOADS[workload]["inputs"]]
    for path in paths:
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run_rep(cli, checks, workload, d, tracer=None) -> dict:
    """One pass over the workload's commands; checks run outside the timed calls."""
    if not WORKLOADS[workload]["prebuild"]:
        shutil.rmtree(f"{d}/cache", ignore_errors=True)
    ops = []
    with tracer or contextlib.nullcontext():
        for command, argv, report_path, output_path in commands(workload, d):
            with contextlib.suppress(FileNotFoundError):
                os.remove(report_path)
            code, seconds = call_cli(cli, argv)
            op = {"command": command, "seconds": seconds, "error": None,
                  "digest": None, "figures": {}, "report": None}
            try:
                if code != 0:
                    raise checks.CheckError(f"exit code {code}")
                with open(report_path, "rb") as fh:
                    raw = fh.read()
                op["digest"] = hashlib.sha256(raw).hexdigest()
                op["report"] = checks.strict_json(raw.decode("utf-8"))
                op["figures"] = checks.check_report(command, op["report"], output_path)
            except (checks.CheckError, OSError, ValueError, KeyError, TypeError) as exc:
                op["error"] = f"{type(exc).__name__}: {exc}"
            ops.append(op)
    return {"ops": ops, "wall_s": sum(op["seconds"] for op in ops)}


def find_cache_rows(d: str, name: str):
    """Descriptor rows cached for one input, found by the input's digest prefix."""
    from atomcover.descriptor import load_descriptor_set

    with open(f"{d}/{name}.xyz", "rb") as fh:
        prefix = hashlib.sha256(fh.read()).hexdigest()[:16]
    (path,) = glob.glob(f"{d}/cache/{prefix}*.acds")
    return load_descriptor_set(path).values


def verify_oracle(checks, d, first_ops) -> str | None:
    """Recompute warm-analyze's figures independently; return a mismatch, if any."""
    reports = {op["command"]: op["report"]["metrics"] for op in first_ops}
    bandwidth = first_ops[0]["report"]["parameters"]["bandwidth"]
    expected = checks.oracle_analyze(find_cache_rows(d, "ref"), find_cache_rows(d, "query"),
                                     bandwidth)
    got = {"entropy_nats": reports["analyze"]["entropy_nats"],
           "diversity_nats": reports["analyze"]["diversity_nats"],
           "overlap": reports["overlap"]["overlap"]}
    for key, value in expected.items():
        if not math.isclose(got[key], value, rel_tol=0.0, abs_tol=1e-8):
            return f"{key}: report {got[key]!r}, oracle {value!r}"
    return None


def gate(checks, workload, d, reps) -> None:
    """Mark ops whose digest disagrees with the run, the pin, or the oracle as failed."""
    first = reps[0]["ops"]
    pins_path = f"{WORK}/verified.json"
    try:
        with open(pins_path, encoding="utf-8") as fh:
            pins = json.load(fh)
    except (OSError, ValueError):
        pins = {}
    prefix = f"{workload}/{pin_key(workload, d)}/"
    for rep in reps:
        for op, ref in zip(rep["ops"], first):
            if op["error"] is None and op["digest"] != ref["digest"]:
                op["error"] = "report digest differs from the run's first repetition"
            pinned = pins.get(prefix + op["command"])
            if op["error"] is None and pinned is not None and op["digest"] != pinned:
                op["error"] = "report digest differs from the one verified for this source and input"
    if any(op["error"] for rep in reps for op in rep["ops"]):
        return
    if all(prefix + op["command"] in pins for op in first):
        return
    try:
        mismatch = verify_oracle(checks, d, first) if workload == "warm-analyze" else None
    except (OSError, ValueError) as exc:  # cache missing, renamed or unreadable
        mismatch = f"could not recompute: {exc}"
    if mismatch:
        for rep in reps:
            for op in rep["ops"]:
                op["error"] = f"independent recomputation disagrees: {mismatch}"
        return
    pins.update({prefix + op["command"]: op["digest"] for op in first})
    with open(pins_path, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)


def median_of(rows, key):
    return statistics.median(row[key] for row in rows)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    os.chdir(ROOT)
    sys.path.insert(0, SRC)

    from spans import Tracer, import_all, layer_metrics

    try:
        atomcover = import_all()
        import atomcover.cli as cli
    except ImportError as exc:
        print(f"benchmark: cannot import atomcover from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(atomcover.__file__).startswith(SRC + os.sep):
        print(f"benchmark: atomcover resolves to {atomcover.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import checks
    import gen

    workload, d = args.workload, f"{WORK}/{args.workload}"
    clock = Clock()
    setup_times, setup_ref = [], []
    for _ in range(SETUP_REPS):
        import_s = time_import()
        t0 = time.perf_counter()
        inputs = setup(cli, gen, workload, args.seed, d)
        setup_times.append(import_s + time.perf_counter() - t0)
        setup_ref.append(setup_times[-1] * clock.scale())
    n_env = sum(s["n_environments"] for s in inputs.values())

    reps, traced = [], []
    t0 = time.perf_counter()
    while (not reps or time.perf_counter() - t0 < args.seconds
           or (len(reps) < MIN_REPS and time.perf_counter() - t0 < 3 * args.seconds)):
        tracer = Tracer() if args.trace and len(reps) % 2 == 1 else None
        rep = run_rep(cli, checks, workload, d, tracer)
        rep["scale"] = clock.scale()
        if tracer is not None:
            rep["layers"] = layer_metrics(tracer.spans)
            traced.append({"rep": len(reps), "wall_s": rep["wall_s"],
                           "absent": tracer.absent, "spans": tracer.spans})
        reps.append(rep)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    gate(checks, workload, d, reps)
    ops = [op for rep in reps for op in rep["ops"]]
    for op in ops:
        if op["error"]:
            print(f"benchmark: {op['command']} failed: {op['error']}", file=sys.stderr)
    failed = sum(1 for op in ops if op["error"])
    figures = {}
    for op in reps[0]["ops"]:
        figures.update(op["figures"])

    main_cmd = WORKLOADS[workload]["main"]
    plain = [rep for rep in reps if "layers" not in rep]
    probe_s = clock.median()

    def main_cmd_s(scaled: bool) -> float:
        return statistics.median(op["seconds"] * (rep["scale"] if scaled else 1.0)
                                 for rep in plain for op in rep["ops"] if op["command"] == main_cmd)

    raw = {"env_per_s": n_env / median_of(plain, "wall_s"), "main_cmd_s": main_cmd_s(False),
           "setup_s": statistics.median(setup_times)}
    if args.trace:
        layered = [rep["layers"] for rep in reps if "layers" in rep]
        metrics = {key: statistics.median(row[key] for row in layered) for key in layered[0]}
        metrics["trace.wall_s"] = median_of(traced, "wall_s")
        # each traced repetition against the untraced one before it, both rescaled
        metrics["trace.overhead_s"] = statistics.median(
            rep["wall_s"] * rep["scale"] - prev["wall_s"] * prev["scale"]
            for prev, rep in zip(reps, reps[1:]) if "layers" in rep)
        metrics["trace.absent_boundaries"] = len(traced[-1]["absent"])
        metrics["calibration.probe_s"] = probe_s
        os.makedirs(f"{WORK}/trace", exist_ok=True)
        trace_path = f"{WORK}/trace/{workload}-seed{args.seed}.json"
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": workload, "seed": args.seed, "inputs": inputs,
                       "reps": traced}, fh)
    else:
        trace_path = None
        metrics = {
            "env_per_s": n_env / statistics.median(rep["wall_s"] * rep["scale"] for rep in plain),
            "main_cmd_s": main_cmd_s(True),
            "setup_s": statistics.median(setup_ref),
            "peak_rss_mb": peak_rss_mb,
            "efficiency": figures.get("efficiency", 0.0),
        }

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(json.dumps({"workload": workload, "seed": args.seed, "threads": THREADS,
                      "nproc": os.cpu_count(), "inputs": inputs,
                      "rep_walls_s": [rep["wall_s"] for rep in reps],
                      "probe_sets_s": clock.sets,
                      "setup_runs_s": setup_times, "probe_median_s": probe_s,
                      "raw_wall": raw, "figures": figures,
                      "trace_file": trace_path}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
