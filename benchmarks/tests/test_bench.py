"""Tests of the benchmark itself: generator, tracing and correctness gate.

Run from the root of a checkout::

    python3 -m pytest -q benchmarks/tests
"""

import contextlib
import io
import os
import sys
import time

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import atomcover.cli as cli  # noqa: E402
import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from atomcover import information  # noqa: E402
from spans import BOUNDARIES, Tracer, layer_metrics, self_times  # noqa: E402


def frame_headers(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    out, i = [], 0
    while i < len(lines):
        n = int(lines[i])
        out.append((n, lines[i + 1]))
        i += n + 2
    return out


class TestGenerator:
    def test_same_seed_same_bytes(self, tmp_path):
        a = gen.write_dataset(tmp_path / "a.xyz", 7, 0, 12, 4)
        b = gen.write_dataset(tmp_path / "b.xyz", 7, 0, 12, 4)
        assert (tmp_path / "a.xyz").read_bytes() == (tmp_path / "b.xyz").read_bytes()
        assert a == b
        gen.write_dataset(tmp_path / "c.xyz", 8, 0, 12, 4)
        assert (tmp_path / "c.xyz").read_bytes() != (tmp_path / "a.xyz").read_bytes()
        gen.write_dataset(tmp_path / "d.xyz", 7, 1, 12, 4)
        assert (tmp_path / "d.xyz").read_bytes() != (tmp_path / "a.xyz").read_bytes()

    @pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
    def test_stated_counts(self, tmp_path, workload):
        for stream, n_structures, n_side, scale in run.WORKLOADS[workload]["inputs"].values():
            path = tmp_path / f"{stream}.xyz"
            stats = gen.write_dataset(path, 3, stream, n_structures, n_side, scale)
            frames = frame_headers(path)
            sizes = [n for n, _ in frames]
            full = n_side ** 3
            assert stats == {"n_structures": n_structures, "n_environments": sum(sizes),
                             "bytes": path.stat().st_size}
            assert len(frames) == n_structures
            assert all(full - 2 <= n <= full for n in sizes)
            assert min(sizes) < full  # vacancies make structure sizes vary
            periodic = ['pbc="T T T"' in header for _, header in frames]
            assert periodic == [i % 4 != 3 for i in range(n_structures)]

    def test_workload_sizes(self, tmp_path):
        totals = {}
        for workload, spec in run.WORKLOADS.items():
            totals[workload] = sum(
                gen.write_dataset(tmp_path / "x.xyz", 1, *params)["n_environments"]
                for params in spec["inputs"].values())
        # the sizes README.md states: about 6.3k, 2 x 5.0k and 2.8k environments
        assert 6200 <= totals["cold-compress"] <= 6400
        assert 9920 <= totals["warm-analyze"] <= 10240
        assert 2700 <= totals["warm-sweep"] <= 2900


@pytest.fixture
def tiny(tmp_path, monkeypatch):
    """A small reference and query set in the working directory."""
    monkeypatch.chdir(tmp_path)
    gen.write_dataset("ref.xyz", 5, 0, 12, 2)
    gen.write_dataset("query.xyz", 5, 1, 12, 2, 1.5)
    return tmp_path


COMMANDS = {
    "compress": ["compress", "ref.xyz", "-o", "kept.xyz", "--report", "out.json",
                 "--method", "msc", "--fraction", "0.25", "--cache", "cache"],
    "analyze": ["analyze", "ref.xyz", "-o", "out.json", "--cache", "cache"],
    "overlap": ["overlap", "query.xyz", "ref.xyz", "-o", "out.json", "--cache", "cache"],
    "compare": ["compare", "ref.xyz", "--fractions", "0.25,0.5", "--methods", "all",
                "-o", "out.json", "--csv", "out.csv", "--cache", "cache"],
    "force-cdf": ["force-cdf", "ref.xyz", "-o", "out.json"],
}


def call(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    with open("out.json", "rb") as fh:
        return fh.read()


class TestTracing:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_report_bytes_unchanged_by_tracing(self, tiny, command):
        plain = call(COMMANDS[command])
        with Tracer() as tracer:
            traced = call(COMMANDS[command])
        assert traced == plain
        assert tracer.absent == []
        assert tracer.spans

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_self_times_sum_to_wall(self, tiny, command):
        call(COMMANDS[command])  # warm the cache and the imports
        with Tracer() as tracer:
            start = time.perf_counter()
            call(COMMANDS[command])
            wall = time.perf_counter() - start
        roots = [s for s in tracer.spans if s["parent"] is None]
        assert [s["name"] for s in roots] == ["cli.main"]
        total_self = sum(self_times(tracer.spans))
        assert total_self == pytest.approx(roots[0]["end"] - roots[0]["start"], abs=1e-9)
        assert total_self <= wall
        assert wall - total_self < 0.002 + 0.05 * wall  # only the report read-back is outside
        assert all(t >= 0 for t in self_times(tracer.spans))

    def test_uninstall_restores_every_binding(self, tiny):
        from atomcover import descriptor, geometry, report, samplers

        before = (cli.main, geometry.nearest_neighbors, descriptor.nearest_neighbors,
                  samplers.per_structure_entropy, report.ReportDocument.to_json)
        with Tracer():
            assert descriptor.nearest_neighbors is geometry.nearest_neighbors
            assert samplers.per_structure_entropy is information.per_structure_entropy
            assert descriptor.nearest_neighbors is not before[1]
        after = (cli.main, geometry.nearest_neighbors, descriptor.nearest_neighbors,
                 samplers.per_structure_entropy, report.ReportDocument.to_json)
        assert after == before

    def test_missing_boundary_is_reported_absent(self, tiny):
        boundaries = BOUNDARIES + (
            ("descriptor", "descriptor", "compute_x9", None),
            ("information", "no_such_module", "entropy", None),
            ("report", "report", "NoSuchClass.write", None),
        )
        with Tracer(boundaries=boundaries) as tracer:
            call(COMMANDS["analyze"])
        assert tracer.absent == ["descriptor.compute_x9", "no_such_module.entropy",
                                 "report.NoSuchClass.write"]

    def test_layer_counts(self, tiny):
        call(COMMANDS["compress"])  # first run builds the cache
        with Tracer() as tracer:
            call(COMMANDS["analyze"])
        m = layer_metrics(tracer.spans)
        sizes = [n for n, _ in frame_headers("ref.xyz")]
        n = sum(sizes)
        # entropy, diversity, efficiency's entropy, one entropy per structure
        assert m["information.kernel_calls"] == 3 + len(sizes)
        assert m["information.kernel_pairs"] == 3 * n * n + sum(s * s for s in sizes)
        assert m["descriptor.cache_hits"] == 1 and m["descriptor.cache_misses"] == 0
        assert m["geometry.neighbor_calls"] == 0
        assert m["extxyz.read_mb"] == pytest.approx(os.path.getsize("ref.xyz") / 1e6)
        assert m["report.bytes"] == os.path.getsize("out.json")

    def test_msc_pairs(self, tiny):
        with Tracer() as tracer:
            call(COMMANDS["compress"])
        m = layer_metrics(tracer.spans)
        sizes = [n for n, _ in frame_headers("ref.xyz")]
        with open("out.json", encoding="utf-8") as fh:
            selected = checks.strict_json(fh.read())["metrics"]["selection"]["indices"]
        kept = [sizes[i] for i in selected]
        assert m["samplers.msc_steps"] == len(kept) == 3
        assert m["samplers.msc_pairs"] == sum(sizes) * sum(kept[:-1]) + sum(s * s for s in sizes)
        assert m["descriptor.cache_misses"] == 1 and m["geometry.neighbor_calls"] == 12


class TestChecks:
    def test_strict_json_rejects_nan(self):
        with pytest.raises(checks.CheckError):
            checks.strict_json('{"max_force": NaN}')
        assert checks.strict_json('{"a": 1.5}') == {"a": 1.5}

    def test_oracle_matches_program(self, tiny):
        rng = np.random.default_rng(0)
        ref = rng.normal(scale=0.02, size=(300, 5))
        query = rng.normal(scale=0.03, size=(200, 5))
        kernel = information.KernelParams()
        expected = checks.oracle_analyze(ref, query, kernel.bandwidth)
        assert expected["entropy_nats"] == pytest.approx(
            information.entropy(ref, kernel).entropy_nats, abs=1e-8)
        assert expected["diversity_nats"] == pytest.approx(
            information.diversity(ref, kernel), abs=1e-8)
        assert expected["overlap"] == information.overlap(query, ref, kernel)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_reports_pass_the_gate(self, tiny, command):
        report = checks.strict_json(call(COMMANDS[command]).decode())
        figures = checks.check_report(command, report, "kept.xyz")
        for value in figures.values():
            assert 0.0 <= value <= 1.0

    def test_broken_bound_fails(self, tiny):
        report = checks.strict_json(call(COMMANDS["analyze"]).decode())
        report["metrics"]["efficiency"] *= 1.001
        with pytest.raises(checks.CheckError):
            checks.check_report("analyze", report)
        report = checks.strict_json(call(COMMANDS["compress"]).decode())
        report["metrics"]["selection"]["indices"].append(0)
        with pytest.raises(checks.CheckError):
            checks.check_report("compress", report, "kept.xyz")
        # a wrong log N that agrees with a wrong efficiency still fails
        report = checks.strict_json(call(COMMANDS["compress"]).decode())
        compressed = report["metrics"]["compressed"]
        compressed["max_entropy_nats"] *= 1.1
        compressed["efficiency"] = compressed["entropy_nats"] / compressed["max_entropy_nats"]
        with pytest.raises(checks.CheckError):
            checks.check_report("compress", report, "kept.xyz")
