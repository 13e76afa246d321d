"""Run every workload over several seeds and print every metric with its spread.

Usage, from the root of a checkout::

    python3 benchmarks/summary.py --seeds 1-10            # end-to-end metrics
    python3 benchmarks/summary.py --seeds 1-3 --trace 1   # per-layer metrics and splits
    python3 benchmarks/summary.py --seeds 1-5 --out FILE.json

Each (workload, seed) is one ``run.py`` process with the command, run
length and metric list of ``BENCHMARK.json``.  For every metric it prints
the median over seeds, the quartiles and the spread (quartile distance
over the median) next to a third of the metric's bound, and the error
rate (failed ops over attempted ops).  With ``--trace 1`` it also checks
the layer splits the benchmark was built to show.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec, workload, seed, trace) -> dict:
    argv = [sys.executable if spec["command"][0] == "python3" else spec["command"][0],
            *spec["command"][1:], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"info": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def split_checks(layers) -> list[tuple[str, bool, str]]:
    """The layer shares the workloads were chosen to show, from median per-layer figures."""
    def share(workload, *names):
        m = layers.get(workload)
        return sum(m[n] for n in names) / m["trace.wall_s"] if m else None

    out = []
    if "cold-compress" in layers:
        m = layers["cold-compress"]
        shares = {
            "descriptor+geometry": m["descriptor.build_self_s"] + m["geometry.neighbors_s"],
            "information": m["information.kernel_s"],
            "samplers": m["samplers.msc_s"] + m["samplers.baselines_s"],
            "extxyz": m["extxyz.read_s"] + m["extxyz.write_s"],
            "evaluation": m["evaluation.self_s"] + m["evaluation.force_cdf_s"],
        }
        top = max(shares, key=shares.get)
        out.append(("cold-compress: descriptor+geometry is the largest share of compress",
                    top == "descriptor+geometry",
                    f"{shares[top] / m['cli.compress_s']:.1%} is {top}"))
    for w in ("warm-analyze", "warm-sweep"):
        if w in layers:
            s = share(w, "descriptor.build_self_s", "geometry.neighbors_s")
            out.append((f"{w}: descriptor+geometry under 5% of wall", s < 0.05, f"{s:.1%}"))
    if "warm-analyze" in layers:
        s = share("warm-analyze", "information.kernel_s")
        out.append(("warm-analyze: kernel at least 80% of wall", s >= 0.8, f"{s:.1%}"))
    msc = {w: share(w, "samplers.msc_s") for w in layers}
    if "warm-sweep" in msc:
        others = [v for w, v in msc.items() if w != "warm-sweep"]
        out.append(("warm-sweep: largest msc share", all(msc["warm-sweep"] > v for v in others),
                    ", ".join(f"{w} {v:.1%}" for w, v in msc.items())))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="seed or inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write every value as JSON here")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = seed_range(args.seeds)

    import numpy
    import scipy

    env = {"threads": None, "nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__,
           "openblas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"],
           "run_seconds": spec["run_seconds"], "seeds": seeds, "trace": args.trace}
    record = {"environment": env, "workloads": {}}
    medians = {}
    for workload in workloads:
        runs = [run_once(spec, workload, seed, args.trace) for seed in seeds]
        env["threads"] = runs[0]["info"]["threads"]
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs, error_rate {failed / attempted:.4g} "
              f"({failed}/{attempted} ops), inputs of seed {seeds[0]}: {runs[0]['info']['inputs']}")
        rows = {}
        medians[workload] = {}
        for m in metrics:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            med, q1, q3, rel = spread(values) if len(values) > 1 else (values[0],) * 3 + (0.0,)
            medians[workload][m["name"]] = med
            limit = m.get("bound")
            flag = "" if limit is None else ("ok" if rel < limit / 3 else "WIDE")
            bound = "" if limit is None else f"  bound {limit} (third {limit / 3:.3f}) {flag}"
            print(f"  {m['name']:<28} {med:>14.6g} {m['unit']:<8} q1 {q1:<12.6g} q3 {q3:<12.6g}"
                  f" spread {rel:.4f}{bound}")
            rows[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                               "spread": rel, "values": values}
        if not args.trace:
            for name in runs[0]["info"]["raw_wall"]:
                values = [r["info"]["raw_wall"][name] for r in runs]
                med, q1, q3, rel = spread(values) if len(values) > 1 else (values[0],) * 3 + (0.0,)
                print(f"  raw wall {name:<19} {med:>14.6g} {'':<8} q1 {q1:<12.6g} q3 {q3:<12.6g}"
                      f" spread {rel:.4f}")
                rows[f"raw_wall.{name}"] = {"median": med, "q1": q1, "q3": q3, "spread": rel,
                                            "values": values}
        record["workloads"][workload] = {"error_rate": failed / attempted,
                                         "inputs": [r["info"]["inputs"] for r in runs],
                                         "metrics": rows}
    if args.trace:
        print("\nlayer splits (median per-layer figures):")
        for label, ok, detail in split_checks(medians):
            print(f"  {'PASS' if ok else 'FAIL'}  {label}: {detail}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
