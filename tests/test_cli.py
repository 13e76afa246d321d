import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import atomcover
from atomcover import load_descriptor_set, read_extxyz
from atomcover.cli import _THREAD_VARS, main
from helpers import cache_with_value, count_self_passes, previous_format_cache, record_extends


def frame_text(positions, forces, cell=6.0):
    lines = [str(len(positions))]
    lattice = f"{cell} 0.0 0.0 0.0 {cell} 0.0 0.0 0.0 {cell}"
    lines.append(
        f'Lattice="{lattice}" '
        "Properties=species:S:1:pos:R:3:forces:R:3 pbc=\"T T T\""
    )
    for p, f in zip(positions, forces):
        nums = " ".join(f"{v:.10f}" for v in [*p, *f])
        lines.append(f"Si {nums}")
    return "\n".join(lines) + "\n"


def write_dataset(path, n_frames=12, seed=0, spread=0.15):
    """n_frames jittered three-atom chains in a cubic box."""
    rng = np.random.default_rng(seed)
    base = np.array([[1.0, 1.0, 1.0], [2.2, 1.0, 1.0], [3.4, 1.0, 1.0]])
    chunks = []
    for i in range(n_frames):
        pos = base + rng.normal(scale=spread, size=base.shape)
        forces = np.zeros_like(pos)
        forces[:, 0] = 0.1 * (i + 1)
        chunks.append(frame_text(pos, forces))
    path.write_text("".join(chunks))
    return path


def single_atom_forces_file(path, magnitudes):
    chunks = []
    for m in magnitudes:
        chunks.append(
            "1\n"
            "Properties=species:S:1:pos:R:3:forces:R:3\n"
            f"X 0.0 0.0 0.0 {m} 0.0 0.0\n"
        )
    path.write_text("".join(chunks))
    return path


class TestExitCodes:
    def test_malformed_input_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.xyz"
        bad.write_text("not-a-count\ncomment\n")
        assert main(["analyze", str(bad)]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.xyz")]) == 2

    def test_unknown_flag_exits_3(self, tmp_path):
        data = write_dataset(tmp_path / "d.xyz", n_frames=2)
        with pytest.raises(SystemExit) as err:
            main(["analyze", str(data), "--bogus"])
        assert err.value.code == 3

    def test_both_size_flags_exit_3(self, tmp_path):
        data = write_dataset(tmp_path / "d.xyz", n_frames=2)
        with pytest.raises(SystemExit) as err:
            main([
                "compress", str(data), "-o", str(tmp_path / "o.xyz"),
                "--fraction", "0.5", "--count", "1",
            ])
        assert err.value.code == 3

    def test_missing_size_flag_exits_3(self, tmp_path):
        data = write_dataset(tmp_path / "d.xyz", n_frames=2)
        with pytest.raises(SystemExit) as err:
            main(["compress", str(data), "-o", str(tmp_path / "o.xyz")])
        assert err.value.code == 3

    def test_zero_bandwidth_exits_3(self, tmp_path, capsys):
        data = write_dataset(tmp_path / "d.xyz", n_frames=2)
        assert main(["analyze", str(data), "--bandwidth", "0"]) == 3
        capsys.readouterr()

    # 1e-300: 2h^2 underflows to 0; 1e-160: 1/(2h^2) overflows; inf: not
    # finite.  Each used to end in a traceback, not a report.
    @pytest.mark.parametrize("bandwidth", ["1e-300", "1e-160", "inf"])
    def test_unusable_bandwidth_exits_3(self, tmp_path, capsys, bandwidth):
        data = write_dataset(tmp_path / "d.xyz", n_frames=2)
        report = tmp_path / "report.json"
        assert main(["analyze", str(data), "-o", str(report), "--bandwidth", bandwidth]) == 3
        err = capsys.readouterr().err
        assert "bandwidth" in err and "Traceback" not in err
        assert not report.exists()

    def test_smallest_usable_bandwidth_exits_0(self, tmp_path, capsys):
        data = write_dataset(tmp_path / "d.xyz", n_frames=3)
        for argv in (["analyze", str(data)], ["overlap", str(data), str(data)]):
            assert main([*argv, "--bandwidth", "1e-154"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["parameters"]["bandwidth"] == 1e-154

    @pytest.mark.parametrize("method", ["random", "kmeans", "fps", "msc"])
    def test_negative_seed_exits_3(self, tmp_path, capsys, method):
        data = write_dataset(tmp_path / "d.xyz", n_frames=4)
        out = tmp_path / "o.xyz"
        code = main([
            "compress", str(data), "-o", str(out), "--count", "2",
            "--method", method, "--seed", "-1",
        ])
        assert code == 3
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_in_compare_exits_3_before_any_sampler_runs(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_run(descs, configs):
            raise AssertionError(f"{configs[0].method} ran before the sweep was checked")

        monkeypatch.setattr("atomcover.evaluation._sweep", no_run)
        data = write_dataset(tmp_path / "d.xyz", n_frames=4)
        assert main(["compare", str(data), "--seed", "-1"]) == 3
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["compress", "d.xyz", "-o", "o.xyz", "--count", "1"],
        ["analyze", "d.xyz"],
        ["overlap", "d.xyz", "d.xyz"],
        ["force-cdf", "d.xyz"],
        ["compare", "d.xyz"],
    ])
    def test_format_flag_is_gone(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main([*argv, "--format", "extxyz"])
        assert err.value.code == 3
        assert "--format" in capsys.readouterr().err

    def test_huge_neighbor_count_exits_3_before_allocating(self, tmp_path, capsys):
        data = write_dataset(tmp_path / "d.xyz", n_frames=2)
        start = time.perf_counter()
        assert main(["analyze", str(data), "--k", "100000"]) == 3
        assert time.perf_counter() - start < 2.0
        err = capsys.readouterr().err
        assert "n_neighbors" in err and "Traceback" not in err

    def test_count_beyond_dataset_exits_3(self, tmp_path, capsys):
        data = write_dataset(tmp_path / "d.xyz", n_frames=3)
        code = main([
            "compress", str(data), "-o", str(tmp_path / "o.xyz"), "--count", "99",
        ])
        assert code == 3
        assert "exceeds" in capsys.readouterr().err

    def test_coincident_atoms_exit_4(self, tmp_path, capsys):
        bad = tmp_path / "coincident.xyz"
        bad.write_text(
            "2\n"
            'Lattice="5 0 0 0 5 0 0 0 5" Properties=species:S:1:pos:R:3 pbc="T T T"\n'
            "Si 1.0 1.0 1.0\n"
            "Si 1.0 1.0 1.0\n"
        )
        assert main(["analyze", str(bad)]) == 4
        assert "degenerate" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["analyze", "{bad}", "-o", "{out}"],
        ["overlap", "{bad}", "{bad}", "-o", "{out}"],
        ["compare", "{bad}", "-o", "{out}"],
        ["compress", "{bad}", "-o", "{kept}", "--count", "1", "--report", "{out}"],
    ], ids=["analyze", "overlap", "compare", "compress"])
    def test_near_coincident_atoms_exit_4(self, tmp_path, capsys, argv):
        # 1e-160 angstrom apart: each row's squared norm would overflow to
        # inf, and the figures come out NaN
        bad = tmp_path / "near.xyz"
        bad.write_text(
            "2\nProperties=species:S:1:pos:R:3\nSi 0.0 0.0 0.0\nSi 0.0 0.0 1e-160\n"
        )
        out, kept = tmp_path / "report.json", tmp_path / "kept.xyz"
        assert main([a.format(bad=bad, out=out, kept=kept) for a in argv]) == 4
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("atomcover: degenerate geometry: structure 0, atom 0: coincident")
        assert not out.exists() and not kept.exists()

    def test_pair_just_above_the_coincidence_floor_analyzes(self, tmp_path):
        data = tmp_path / "near.xyz"
        data.write_text(
            "2\nProperties=species:S:1:pos:R:3\nSi 0.0 0.0 0.0\nSi 0.0 0.0 1.01e-150\n"
        )
        out = tmp_path / "report.json"
        assert main(["analyze", str(data), "-o", str(out)]) == 0
        metrics = json.loads(out.read_text())["metrics"]
        assert metrics["n_environments"] == 2
        assert metrics["entropy_nats"] == 0.0  # the two rows coincide in the kernel
        assert np.isfinite(metrics["diversity_nats"]) and np.isfinite(metrics["efficiency"])

    def test_tiny_cell_exits_4_before_replicating(self, tmp_path, capsys, monkeypatch):
        from types import SimpleNamespace

        from atomcover import geometry

        def no_images(*ranges):
            raise AssertionError("periodic images were built for a 0.02 angstrom cell")

        # At the 5 angstrom cutoff this cell needs about 1.3e8 image points;
        # the limit must trip before any of them exist.
        monkeypatch.setattr(geometry, "itertools", SimpleNamespace(product=no_images))
        tiny = tmp_path / "tiny.xyz"
        tiny.write_text(
            "1\n"
            'Lattice="0.02 0 0 0 0.02 0 0 0 0.02" Properties=species:S:1:pos:R:3 pbc="T T T"\n'
            "Cu 0.0 0.0 0.0\n"
        )
        out = tmp_path / "report.json"
        start = time.perf_counter()
        assert main(["analyze", str(tiny), "-o", str(out)]) == 4
        assert time.perf_counter() - start < 2.0
        err = capsys.readouterr().err
        assert "0.02" in err and "image points" in err
        assert not out.exists()

    def test_image_limit_counts_the_laid_out_images(self, tmp_path, capsys):
        # ceil(5 / 0.046) = 109 images per side hold 219**3 > 1e7 points.
        tiny = tmp_path / "tiny.xyz"
        tiny.write_text(
            "1\n"
            'Lattice="0.046 0 0 0 0.046 0 0 0 0.046" Properties=species:S:1:pos:R:3 pbc="T T T"\n'
            "Cu 0.0 0.0 0.0\n"
        )
        out = tmp_path / "report.json"
        assert main(["analyze", str(tiny), "-o", str(out)]) == 4
        err = capsys.readouterr().err
        assert "10503459 periodic image points" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "force-cdf"])
    @pytest.mark.parametrize("field", ["force", "energy", "position"])
    def test_nonfinite_input_exits_2(self, tmp_path, capsys, command, field):
        lines = write_dataset(tmp_path / "d.xyz", n_frames=3).read_text().splitlines()
        if field == "energy":
            lines[6] += " energy=nan"  # comment line of the second frame
        else:
            nums = lines[7].split()
            nums[1 if field == "position" else 4] = "nan"
            lines[7] = " ".join(nums)
        bad = tmp_path / "bad.xyz"
        bad.write_text("\n".join(lines) + "\n")
        report = tmp_path / "report.json"
        assert main([command, str(bad), "-o", str(report)]) == 2
        assert "line 6" in capsys.readouterr().err  # the frame's first line
        assert not report.exists()

    def test_force_cdf_without_forces_exits_2(self, tmp_path, capsys):
        # frame 0 has forces, frames 1 and 2 have none: the first is named
        bare = "2\nProperties=species:S:1:pos:R:3\nSi 0 0 0\nSi 2.3 0 0\n"
        data = write_dataset(tmp_path / "d.xyz", n_frames=1)
        data.write_text(data.read_text() + bare + bare)
        report = tmp_path / "report.json"
        assert main(["force-cdf", str(data), "-o", str(report)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"atomcover: {data}: structure 1 has no forces"]
        assert not report.exists()

    def test_bad_fractions_token_exits_3(self, tmp_path, capsys):
        data = write_dataset(tmp_path / "d.xyz", n_frames=2)
        with pytest.raises(SystemExit) as err:
            main(["compare", str(data), "--fractions", "0.1,half"])
        assert err.value.code == 3
        assert "not a comma-separated float list" in capsys.readouterr().err

    def test_unknown_method_in_compare_exits_3(self, tmp_path, capsys):
        data = write_dataset(tmp_path / "d.xyz", n_frames=2)
        code = main(["compare", str(data), "--methods", "bogus"])
        assert code == 3
        capsys.readouterr()

    def test_method_list_with_spaces(self, tmp_path, capsys):
        data = write_dataset(tmp_path / "d.xyz", n_frames=4)
        assert main(["compare", str(data), "--fractions", "0.5, 1.0",
                     "--methods", " random, msc ,"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["parameters"]["methods"] == ["random", "msc"]
        assert [r["method"] for r in doc["metrics"]["rows"]] == ["random"] * 2 + ["msc"] * 2
        assert main(["compare", str(data), "--methods", " all "]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["parameters"]["methods"] == ["random", "kmeans", "fps", "msc"]
        assert main(["compare", str(data), "--methods", " , "]) == 3
        assert "no methods given" in capsys.readouterr().err

    def test_repeated_method_in_compare_exits_3_before_any_sampler_runs(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("a sampler ran before the sweep was checked")

        monkeypatch.setattr("atomcover.evaluation._sweep", no_run)
        data = write_dataset(tmp_path / "d.xyz", n_frames=4)
        out = tmp_path / "sweep.json"
        assert main(["compare", str(data), "--methods", "msc,fps,msc", "-o", str(out)]) == 3
        err = capsys.readouterr().err
        assert "more than once: msc" in err
        assert not out.exists()

    def test_repeated_fraction_in_compare_exits_3_before_any_sampler_runs(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("a sampler ran before the sweep was checked")

        monkeypatch.setattr("atomcover.evaluation._sweep", no_run)
        data = write_dataset(tmp_path / "d.xyz", n_frames=4)
        out = tmp_path / "sweep.json"
        csv_path = tmp_path / "sweep.csv"
        argv = ["compare", str(data), "--fractions", "0.1,0.1", "-o", str(out),
                "--csv", str(csv_path)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "fractions given more than once: 0.1" in err and "Traceback" not in err
        assert not out.exists() and not csv_path.exists()

    @pytest.mark.parametrize("argv", [
        ["analyze", "{data}", "-o", "{out}", "--bandwidth", "0"],
        ["overlap", "{data}", "{data}", "-o", "{out}", "--bandwidth", "0"],
        ["compress", "{data}", "-o", "{out}", "--fraction", "1.5"],
        ["compress", "{data}", "-o", "{out}", "--count", "2", "--seed", "-1"],
        ["compress", "{data}", "-o", "{out}", "--count", "99"],
        ["compare", "{data}", "-o", "{out}", "--fractions", "0.5,2"],
        ["compare", "{data}", "-o", "{out}", "--methods", "msc,bogus"],
        ["compare", "{data}", "-o", "{out}", "--seed", "-1"],
        ["compare", "{data}", "-o", "{out}", "--fractions", ","],
    ])
    def test_bad_flag_exits_3_before_any_descriptor_is_built(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        def no_build(*args):
            raise AssertionError("descriptors built before the flags were checked")

        monkeypatch.setattr("atomcover.descriptor.build_descriptor_set", no_build)
        data = write_dataset(tmp_path / "d.xyz", n_frames=3)
        out = tmp_path / "out.json"
        cache = tmp_path / "cache"
        cache.mkdir()
        argv = [arg.format(data=data, out=out) for arg in argv]
        assert main([*argv, "--cache", str(cache)]) == 3
        assert "Traceback" not in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cache", "d.xyz"]  # no report
        assert list(cache.iterdir()) == []

    @pytest.mark.parametrize("flag", [["--k", "100000"], ["--cutoff", "0"]])
    def test_bad_descriptor_flag_exits_3_before_compress_reads_the_input(
        self, tmp_path, capsys, monkeypatch, flag
    ):
        def no_read(*args, **kwargs):
            raise AssertionError("input read before the descriptor flags were checked")

        monkeypatch.setattr("atomcover.extxyz.read_extxyz", no_read)
        data = write_dataset(tmp_path / "d.xyz", n_frames=3)
        out = tmp_path / "out.xyz"
        assert main(["compress", str(data), "-o", str(out), "--count", "1", *flag]) == 3
        assert "Traceback" not in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.xyz"]  # no report

    @pytest.mark.parametrize("argv, bad", [
        (["compress", "{data}", "-o", "{missing}/kept.xyz", "--count", "1"], "{missing}/kept.xyz"),
        (["compress", "{data}", "-o", "{tmp}/kept.xyz", "--report", "{missing}/r.json",
          "--count", "1"], "{missing}/r.json"),
        (["analyze", "{data}", "-o", "{missing}/r.json"], "{missing}/r.json"),
        (["analyze", "{data}", "-o", "{tmp}"], "{tmp}"),  # a directory
        (["overlap", "{data}", "{data}", "-o", "{missing}/r.json"], "{missing}/r.json"),
        (["force-cdf", "{data}", "-o", "{missing}/r.json"], "{missing}/r.json"),
        (["compare", "{data}", "-o", "{missing}/r.json"], "{missing}/r.json"),
        (["compare", "{data}", "--csv", "{missing}/t.csv"], "{missing}/t.csv"),
    ], ids=["compress-o", "compress-report", "analyze", "analyze-directory", "overlap",
            "force-cdf", "compare-o", "compare-csv"])
    def test_unwritable_output_exits_2_before_the_input_is_read(
        self, tmp_path, capsys, monkeypatch, argv, bad
    ):
        def no_read(*args, **kwargs):
            raise AssertionError("input read before the outputs were checked")

        monkeypatch.setattr("atomcover.extxyz.read_extxyz", no_read)
        data = write_dataset(tmp_path / "d.xyz", n_frames=3)
        names = {"data": data, "missing": tmp_path / "missing", "tmp": tmp_path}
        argv = [arg.format(**names) for arg in argv]
        if argv[0] != "force-cdf":
            argv += ["--cache", str(tmp_path / "cache")]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"atomcover: cannot write {bad.format(**names)}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.xyz"]  # no .xyz, no cache

    @pytest.mark.parametrize("argv, name", [
        (["compress", "d.xyz", "-o", "k.xyz", "--report", "./k.xyz", "--count", "2"], "k.xyz"),
        (["compare", "d.xyz", "-o", "t.json", "--csv", "./t.json"], "t.json"),
    ], ids=["compress", "compare"])
    def test_two_outputs_naming_one_file_exit_2_before_the_input_is_read(
        self, tmp_path, capsys, monkeypatch, argv, name
    ):
        def no_read(*args, **kwargs):
            raise AssertionError("input read before the outputs were checked")

        monkeypatch.setattr("atomcover.extxyz.read_extxyz", no_read)
        monkeypatch.chdir(tmp_path)
        write_dataset(tmp_path / "d.xyz", n_frames=8)
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"atomcover: cannot write ./{name}: it is also the output {name}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.xyz"]

    @pytest.mark.parametrize("argv, name", [
        (["compress", "d.xyz", "-o", "./d.xyz", "--count", "2", "--method", "random"], "d.xyz"),
        (["compress", "d.xyz", "-o", "k.xyz", "--report", "./d.xyz", "--count", "2"], "d.xyz"),
        (["analyze", "d.xyz", "-o", "./d.xyz"], "d.xyz"),
        (["overlap", "d.xyz", "r.xyz", "-o", "./d.xyz"], "d.xyz"),
        (["overlap", "d.xyz", "r.xyz", "-o", "./r.xyz"], "r.xyz"),
        (["force-cdf", "d.xyz", "-o", "./d.xyz"], "d.xyz"),
        (["compare", "d.xyz", "-o", "./d.xyz"], "d.xyz"),
        (["compare", "d.xyz", "--csv", "./d.xyz"], "d.xyz"),
    ], ids=["compress-o", "compress-report", "analyze", "overlap-query", "overlap-reference",
            "force-cdf", "compare-o", "compare-csv"])
    def test_output_naming_an_input_exits_2_before_the_input_is_read(
        self, tmp_path, capsys, monkeypatch, argv, name
    ):
        def no_read(*args, **kwargs):
            raise AssertionError("input read before the outputs were checked")

        monkeypatch.setattr("atomcover.extxyz.read_extxyz", no_read)
        monkeypatch.chdir(tmp_path)
        inputs = {name: write_dataset(tmp_path / name, n_frames=9, seed=i).read_bytes()
                  for i, name in enumerate(["d.xyz", "r.xyz"])}
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"atomcover: cannot write ./{name}: it is also the input {name}\n")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == inputs

    def test_failing_report_leaves_no_kept_frames(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise atomcover.InputError("no report")

        monkeypatch.setattr("atomcover.evaluation.compression_report", fail)
        data = write_dataset(tmp_path / "d.xyz", n_frames=8)
        kept, report = tmp_path / "kept.xyz", tmp_path / "kept.json"
        argv = ["compress", str(data), "-o", str(kept), "--report", str(report), "--count", "2"]
        assert main(argv) == 3
        assert capsys.readouterr() == ("", "atomcover: no report\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.xyz"]

    @pytest.mark.parametrize("error, code, line", [
        (KeyboardInterrupt(), 130, "atomcover: interrupted"),
        (MemoryError(), 5, "atomcover: out of memory"),
        (
            MemoryError("Unable to allocate 7.45 GiB"),
            5,
            "atomcover: out of memory: Unable to allocate 7.45 GiB",
        ),
    ])
    def test_interrupt_and_memory_exhaustion_exit_without_a_traceback(
        self, tmp_path, capsys, monkeypatch, error, code, line
    ):
        def fail(args):
            raise error

        monkeypatch.setattr("atomcover.cli.cmd_analyze", fail)
        data = write_dataset(tmp_path / "d.xyz", n_frames=2)
        assert main(["analyze", str(data)]) == code
        out, err = capsys.readouterr()
        assert (out, err) == ("", line + "\n")

    def test_empty_threshold_list_exits_3(self, tmp_path, capsys):
        data = single_atom_forces_file(tmp_path / "f.xyz", [1.0, 2.0, 3.0])
        out = tmp_path / "cdf.json"
        assert main(["force-cdf", str(data), "--thresholds", ",", "-o", str(out)]) == 3
        err = capsys.readouterr().err
        assert "no thresholds given" in err and "Traceback" not in err
        assert not out.exists()


class TestCompress:
    def test_method_choices_are_the_samplers(self):
        # cli lists them by hand, since it must not import samplers (and so
        # numpy) before --threads is read
        from atomcover.cli import build_parser
        from atomcover.samplers import METHODS

        compress = build_parser()._subparsers._group_actions[0].choices["compress"]
        (method,) = [a for a in compress._actions if a.dest == "method"]
        assert tuple(method.choices) == METHODS

    def test_fraction_rounds_to_three_of_twelve(self, tmp_path, capsys):
        data = write_dataset(tmp_path / "d.xyz", n_frames=12)
        out = tmp_path / "out.xyz"
        assert main(["compress", str(data), "-o", str(out), "--fraction", "0.25"]) == 0
        assert "kept 3/12" in capsys.readouterr().out
        assert len(read_extxyz(out)) == 3

    def test_output_frames_come_from_input(self, tmp_path, capsys):
        data = write_dataset(tmp_path / "d.xyz", n_frames=6)
        out = tmp_path / "out.xyz"
        main(["compress", str(data), "-o", str(out), "--count", "2", "--method", "fps"])
        capsys.readouterr()
        full = read_extxyz(data)
        kept = read_extxyz(out)
        originals = [s.positions.tobytes() for s in full]
        for s in kept:
            assert s.positions.tobytes() in originals

    def test_byte_identical_reruns(self, tmp_path, capsys, monkeypatch):
        blobs = []
        for tag in ("a", "b"):
            run_dir = tmp_path / tag
            run_dir.mkdir()
            write_dataset(run_dir / "d.xyz", n_frames=8)
            monkeypatch.chdir(run_dir)
            main([
                "compress", "d.xyz", "-o", "out.xyz", "--report", "report.json",
                "--fraction", "0.5", "--method", "msc",
            ])
            blobs.append(
                ((run_dir / "out.xyz").read_bytes(), (run_dir / "report.json").read_bytes())
            )
        capsys.readouterr()
        assert blobs[0] == blobs[1]

    def test_default_report_path_and_steps(self, tmp_path, capsys):
        data = write_dataset(tmp_path / "d.xyz", n_frames=8)
        out = tmp_path / "out.xyz"
        main(["compress", str(data), "-o", str(out), "--count", "3"])
        capsys.readouterr()
        report = json.loads((tmp_path / "out.xyz.report.json").read_text())
        assert report["metrics"]["sizes"]["n_structures_compressed"] == 3
        assert len(report["metrics"]["steps"]) == 3  # msc is the default
        assert report["parameters"]["seed"] == 0

    def test_msc_makes_no_full_by_kept_cross_pass(self, tmp_path, capsys, monkeypatch):
        data = write_dataset(tmp_path / "d.xyz", n_frames=8)
        extends = record_extends(monkeypatch)
        report, cache = tmp_path / "report.json", tmp_path / "cache"
        argv = ["compress", str(data), "-o", str(tmp_path / "out.xyz"), "--count", "3",
                "--report", str(report), "--cache", str(cache)]
        assert main(argv) == 0
        capsys.readouterr()
        picks = json.loads(report.read_text())["metrics"]["selection"]["indices"]
        (cached,) = cache.glob("*.acds")
        descs = load_descriptor_set(cached)
        # the greedy's coverage of all 24 rows, grown round by round by its
        # three-atom picks, each once and in pick order; the report reads
        # delta H from it instead of another 24 x 9 pass
        greedy = extends[0][0]
        assert greedy.n_queries == descs.n_environments == 24
        assert all(cov is greedy for cov, _ in extends)
        added = np.vstack([refs for _, refs in extends])
        assert np.array_equal(added, descs.subset(picks).values)

    def test_random_method_report_has_no_steps(self, tmp_path, capsys):
        data = write_dataset(tmp_path / "d.xyz", n_frames=6)
        out = tmp_path / "out.xyz"
        main([
            "compress", str(data), "-o", str(out), "--count", "2",
            "--method", "random", "--seed", "7",
        ])
        capsys.readouterr()
        report = json.loads((tmp_path / "out.xyz.report.json").read_text())
        assert "steps" not in report["metrics"]


class TestAnalyze:
    def test_stdout_json(self, tmp_path, capsys):
        data = write_dataset(tmp_path / "d.xyz", n_frames=5)
        assert main(["analyze", str(data)]) == 0
        doc = json.loads(capsys.readouterr().out)
        m = doc["metrics"]
        assert m["n_structures"] == 5
        assert m["n_environments"] == 15
        assert 0 <= m["efficiency"] <= 1
        assert m["entropy_nats"] <= m["max_entropy_nats"] + 1e-9
        assert len(m["per_structure_entropy_nats"]) == 5
        assert doc["parameters"]["k"] == 32

    def test_one_full_set_self_pass(self, tmp_path, capsys, monkeypatch):
        data = write_dataset(tmp_path / "d.xyz", n_frames=5)
        sizes = count_self_passes(monkeypatch)
        assert main(["analyze", str(data)]) == 0
        capsys.readouterr()
        # one pass over all 15 environments, and the five 3-atom structures
        # in one stacked per-structure pass
        assert sizes == [(1, 15, 1), (5, 3, 1)]

    def test_output_file(self, tmp_path, capsys):
        data = write_dataset(tmp_path / "d.xyz", n_frames=4)
        out = tmp_path / "report.json"
        assert main(["analyze", str(data), "-o", str(out)]) == 0
        assert capsys.readouterr().out == ""
        json.loads(out.read_text())


class TestOverlap:
    def test_self_overlap_is_exactly_one(self, tmp_path, capsys):
        data = write_dataset(tmp_path / "d.xyz", n_frames=5)
        assert main(["overlap", str(data), str(data)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["metrics"]["overlap"] == 1.0
        assert doc["metrics"]["n_delta_h_positive"] == 0

    def test_disjoint_geometries_do_not_overlap(self, tmp_path, capsys):
        short = tmp_path / "short.xyz"
        rng = np.random.default_rng(1)
        base = np.array([[1.0, 1.0, 1.0], [1.9, 1.0, 1.0], [2.8, 1.0, 1.0]])
        chunks = []
        for _ in range(3):
            pos = base + rng.normal(scale=0.02, size=base.shape)
            chunks.append(frame_text(pos, np.zeros_like(pos)))
        short.write_text("".join(chunks))
        long = write_dataset(tmp_path / "long.xyz", n_frames=3, seed=2, spread=0.02)
        assert main(["overlap", str(short), str(long)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["metrics"]["overlap"] < 0.5
        hist = doc["metrics"]["delta_h_histogram"]
        assert (
            sum(hist["counts"]) + hist["n_below_range"] + hist["n_above_range"]
            == doc["metrics"]["n_query_environments"]
        )

    def test_overflowing_log_kernel_exits_3(self, tmp_path, capsys):
        # the middle atom of a 0.4 A chain is so far, in descriptor space,
        # from every row of the 1.2 A chains that d^2 / (2h^2) overflows
        query = tmp_path / "q.xyz"
        query.write_text(frame_text([[1.0, 1.0, 1.0], [1.4, 1.0, 1.0], [1.8, 1.0, 1.0]],
                                    np.zeros((3, 3))))
        ref = write_dataset(tmp_path / "r.xyz", n_frames=3, seed=2, spread=0.02)
        report = tmp_path / "overlap.json"
        argv = ["overlap", str(query), str(ref), "-o", str(report), "--bandwidth", "1e-154"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "bandwidth 1e-154" in err and "Traceback" not in err
        assert not report.exists()


class TestForceCdf:
    def test_hand_counted_thresholds(self, tmp_path, capsys):
        data = single_atom_forces_file(tmp_path / "f.xyz", [1.0, 2.0, 3.0])
        assert main(["force-cdf", str(data), "--thresholds", "2.0,2.5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["metrics"]["thresholds"] == [2.0, 2.5]
        assert doc["metrics"]["cdf"] == pytest.approx([1 / 3, 2 / 3])
        assert doc["metrics"]["max_force"] == 3.0

    def test_default_grid_has_256_points(self, tmp_path, capsys):
        data = single_atom_forces_file(tmp_path / "f.xyz", [1.0, 2.0, 3.0, 4.0])
        assert main(["force-cdf", str(data)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["metrics"]["thresholds"]) == 256
        assert doc["metrics"]["cdf"][-1] <= 1.0


class TestCompare:
    def test_csv_and_json(self, tmp_path, capsys):
        data = write_dataset(tmp_path / "d.xyz", n_frames=8)
        csv_path = tmp_path / "sweep.csv"
        code = main([
            "compare", str(data), "--fractions", "0.25,0.5",
            "--methods", "random,msc", "--csv", str(csv_path),
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        rows = doc["metrics"]["rows"]
        assert len(rows) == 4
        assert {r["method"] for r in rows} == {"random", "msc"}
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 5
        assert lines[0].split(",")[:3] == ["method", "fraction", "count"]

    def test_deterministic_csv(self, tmp_path, capsys):
        data = write_dataset(tmp_path / "d.xyz", n_frames=6)
        blobs = []
        for tag in ("a", "b"):
            csv_path = tmp_path / f"{tag}.csv"
            main([
                "compare", str(data), "--fractions", "0.5",
                "--methods", "all", "--seed", "3", "--csv", str(csv_path),
            ])
            blobs.append(csv_path.read_bytes())
        capsys.readouterr()
        assert blobs[0] == blobs[1]


DESCRIPTOR_PARAMETERS = ["command", "k", "cutoff", "bandwidth", "format"]
HISTOGRAM = ["parameters", "bin_edges", "counts", "n_below_range", "n_above_range"]


class TestReportFields:
    """Every report's keys, in the order README lists them."""

    REPORTS = {
        "compress": ("compression", DESCRIPTOR_PARAMETERS + [
            "input", "output", "method", "fraction", "count", "seed",
        ], {
            "sizes": ["parameters", "n_structures_full", "n_structures_compressed",
                      "n_environments_full", "n_environments_compressed"],
            "selection": ["parameters", "indices"],
            "compressed": ["parameters", "entropy_nats", "diversity_nats",
                           "max_entropy_nats", "efficiency"],
            "overlap": ["parameters", "full_vs_compressed", "compressed_vs_full",
                        "n_delta_h_positive", "n_delta_h_above_10"],
            "delta_h_histogram": HISTOGRAM,
            "steps": ["structure_index", "score", "max_delta_h", "structure_entropy"],
        }),
        "analyze": ("analyze", DESCRIPTOR_PARAMETERS + ["input"], {
            "n_structures": None, "n_environments": None, "entropy_nats": None,
            "max_entropy_nats": None, "diversity_nats": None, "efficiency": None,
            "per_structure_entropy_nats": None,
        }),
        "overlap": ("overlap", DESCRIPTOR_PARAMETERS + ["query", "reference"], {
            "n_query_environments": None, "n_reference_environments": None, "overlap": None,
            "n_delta_h_positive": None, "n_delta_h_above_10": None,
            "delta_h_histogram": HISTOGRAM,
        }),
        "force-cdf": ("force_cdf", ["command", "input", "format"], {
            "thresholds": None, "cdf": None, "max_force": None,
        }),
        "compare": ("compare", DESCRIPTOR_PARAMETERS + ["input", "fractions", "methods", "seed"], {
            "rows": ["method", "fraction", "count", "n_environments", "entropy_nats",
                     "diversity_nats", "efficiency", "overlap_full_vs_compressed"],
        }),
    }

    @pytest.mark.parametrize("command", list(REPORTS))
    def test_keys_are_the_documented_ones(self, tmp_path, capsys, command):
        data = str(write_dataset(tmp_path / "d.xyz", n_frames=6))
        report = tmp_path / "report.json"
        argv = {
            "compress": ["compress", data, "-o", str(tmp_path / "kept.xyz"),
                         "--report", str(report), "--count", "2"],
            "overlap": ["overlap", data, data, "-o", str(report)],
            "compare": ["compare", data, "-o", str(report), "--fractions", "0.5",
                        "--csv", str(tmp_path / "table.csv")],
        }.get(command, [command, data, "-o", str(report)])
        assert main(argv) == 0
        capsys.readouterr()
        doc = json.loads(report.read_text())
        kind, parameters, metrics = self.REPORTS[command]
        assert list(doc) == ["kind", "parameters", "metrics"]
        assert (doc["kind"], list(doc["parameters"])) == (kind, parameters)
        assert list(doc["metrics"]) == list(metrics)
        for name, keys in metrics.items():
            if keys is not None:
                block = doc["metrics"][name]
                for entry in block if isinstance(block, list) else [block]:
                    assert list(entry) == keys
        if command == "compare":  # the CSV header is a row's keys
            header = (tmp_path / "table.csv").read_text().splitlines()[0]
            assert header.split(",") == metrics["rows"]


class TestCache:
    def test_cache_file_created_and_reused(self, tmp_path, capsys):
        data = write_dataset(tmp_path / "d.xyz", n_frames=5)
        cache = tmp_path / "cache"
        main(["analyze", str(data), "--cache", str(cache)])
        first = capsys.readouterr().out
        cached = list(cache.glob("*.acds"))
        assert len(cached) == 1
        mtime = cached[0].stat().st_mtime_ns
        main(["analyze", str(data), "--cache", str(cache)])
        second = capsys.readouterr().out
        assert first == second
        assert cached[0].stat().st_mtime_ns == mtime  # reused, not rewritten

    def test_cache_respects_descriptor_params(self, tmp_path, capsys):
        data = write_dataset(tmp_path / "d.xyz", n_frames=3)
        cache = tmp_path / "cache"
        main(["analyze", str(data), "--cache", str(cache)])
        main(["analyze", str(data), "--cache", str(cache), "--k", "8"])
        capsys.readouterr()
        assert len(list(cache.glob("*.acds"))) == 2
        # cutoffs that agree to 7 significant digits still get their own file
        main(["analyze", str(data), "--cache", str(cache), "--cutoff", "5.0000001"])
        capsys.readouterr()
        assert len(list(cache.glob("*.acds"))) == 3

    def test_truncated_cache_is_a_miss(self, tmp_path, capsys):
        data = write_dataset(tmp_path / "d.xyz", n_frames=5)
        cache = tmp_path / "cache"
        main(["analyze", str(data), "-o", str(tmp_path / "uncached.json")])
        main(["analyze", str(data), "--cache", str(cache)])
        capsys.readouterr()
        (cached,) = cache.glob("*.acds")
        full = cached.read_bytes()
        cached.write_bytes(full[: len(full) // 2])
        out = tmp_path / "cached.json"
        assert main(["analyze", str(data), "--cache", str(cache), "-o", str(out)]) == 0
        assert out.read_bytes() == (tmp_path / "uncached.json").read_bytes()
        assert cached.read_bytes() == full  # rebuilt in place
        assert sorted(p.name for p in cache.iterdir()) == [cached.name]


    def test_corrupt_cache_is_a_miss(self, tmp_path, capsys):
        # a same-length cache with one changed value byte must not load
        data = write_dataset(tmp_path / "d.xyz", n_frames=5)
        cache = tmp_path / "cache"
        main(["analyze", str(data), "-o", str(tmp_path / "uncached.json")])
        main(["analyze", str(data), "--cache", str(cache)])
        capsys.readouterr()
        (cached,) = cache.glob("*.acds")
        full = cached.read_bytes()
        width = load_descriptor_set(cached).width
        # byte 5 of a value in the file's last descriptor row: it changes but
        # stays finite
        pos = len(full) - 4 - 8 * width + 5
        cached.write_bytes(full[:pos] + bytes([full[pos] ^ 0xFF]) + full[pos + 1 :])
        out = tmp_path / "cached.json"
        assert main(["analyze", str(data), "--cache", str(cache), "-o", str(out)]) == 0
        assert out.read_bytes() == (tmp_path / "uncached.json").read_bytes()
        assert cached.read_bytes() == full  # rebuilt in place

    @pytest.mark.parametrize("kind", ["non-finite", "format-2"])
    def test_checksummed_cache_that_does_not_load_is_a_miss(self, tmp_path, capsys, kind):
        # a file with a valid checksum: a NaN in its rows, or the row-major
        # values of format 2 under its own magic
        data = write_dataset(tmp_path / "d.xyz", n_frames=5)
        cache = tmp_path / "cache"
        main(["analyze", str(data), "-o", str(tmp_path / "uncached.json")])
        main(["analyze", str(data), "--cache", str(cache)])
        capsys.readouterr()
        (cached,) = cache.glob("*.acds")
        full = cached.read_bytes()
        if kind == "non-finite":
            cached.write_bytes(cache_with_value(full, 7, np.nan))
        else:
            cached.write_bytes(previous_format_cache(load_descriptor_set(cached)))
        out = tmp_path / "cached.json"
        assert main(["analyze", str(data), "--cache", str(cache), "-o", str(out)]) == 0
        assert out.read_bytes() == (tmp_path / "uncached.json").read_bytes()
        assert cached.read_bytes() == full  # rebuilt in place
        assert sorted(p.name for p in cache.iterdir()) == [cached.name]

    def test_unwritable_cache_entry_only_warns(self, tmp_path, capsys):
        # a directory at the entry's path can be neither read nor replaced
        data = write_dataset(tmp_path / "d.xyz", n_frames=5)
        cache = tmp_path / "cache"
        main(["analyze", str(data), "-o", str(tmp_path / "uncached.json")])
        main(["analyze", str(data), "--cache", str(cache)])
        (cached,) = cache.glob("*.acds")
        cached.unlink()
        cached.mkdir()
        capsys.readouterr()
        for run in range(2):
            out = tmp_path / f"cached{run}.json"
            assert main(["analyze", str(data), "--cache", str(cache), "-o", str(out)]) == 0
            assert out.read_bytes() == (tmp_path / "uncached.json").read_bytes()
            err = capsys.readouterr().err
            assert err.count("atomcover: warning:") == 1 and "Traceback" not in err
            assert [p.name for p in cache.iterdir()] == [cached.name]
            assert cached.is_dir()

    def test_cache_path_that_is_a_file_only_warns(self, tmp_path, capsys):
        data = write_dataset(tmp_path / "d.xyz", n_frames=5)
        main(["analyze", str(data), "-o", str(tmp_path / "uncached.json")])
        cache = tmp_path / "cache"
        cache.write_bytes(b"not a directory")
        capsys.readouterr()
        for run in range(2):
            out = tmp_path / f"cached{run}.json"
            assert main(["analyze", str(data), "--cache", str(cache), "-o", str(out)]) == 0
            assert out.read_bytes() == (tmp_path / "uncached.json").read_bytes()
            err = capsys.readouterr().err
            assert err.count("atomcover: warning:") == 1 and "Traceback" not in err
            assert cache.read_bytes() == b"not a directory"

    @pytest.mark.parametrize("command", ["analyze", "overlap", "compare"])
    def test_cache_hit_reads_only_the_cache(self, tmp_path, capsys, monkeypatch, command):
        inputs = [str(write_dataset(tmp_path / "d.xyz", n_frames=6))]
        if command == "overlap":
            inputs.append(str(write_dataset(tmp_path / "r.xyz", n_frames=4, seed=1)))
        cache = ["--cache", str(tmp_path / "cache")]
        assert main([command, *inputs, "-o", str(tmp_path / "uncached.json")]) == 0
        assert main([command, *inputs, "-o", str(tmp_path / "warm.json"), *cache]) == 0

        def no_parse(path):
            raise AssertionError(f"{path} parsed on a cache hit")

        monkeypatch.setattr("atomcover.extxyz.read_extxyz", no_parse)
        out = tmp_path / "cached.json"
        assert main([command, *inputs, "-o", str(out), *cache]) == 0
        assert out.read_bytes() == (tmp_path / "uncached.json").read_bytes()

    def test_cache_never_changes_what_compress_writes(self, tmp_path, capsys, monkeypatch):
        data = write_dataset(tmp_path / "d.xyz", n_frames=6)
        kept, report = tmp_path / "kept.xyz", tmp_path / "kept.json"
        argv = ["compress", str(data), "-o", str(kept), "--report", str(report), "--count", "3"]
        cache = ["--cache", str(tmp_path / "cache")]

        def run(extra):
            assert main([*argv, *extra]) == 0
            written = kept.read_bytes(), report.read_bytes()
            kept.unlink()
            report.unlink()
            return written

        uncached = run([])
        assert run(cache) == uncached  # cold: built, then saved
        assert len(list((tmp_path / "cache").glob("*.acds"))) == 1

        def no_build(*args):
            raise AssertionError("descriptors built on a cache hit")

        monkeypatch.setattr("atomcover.descriptor.build_descriptor_set", no_build)
        assert run(cache) == uncached  # warm: read from the cache
        capsys.readouterr()

    def test_compress_parses_once_on_a_miss_and_on_a_hit(self, tmp_path, capsys, monkeypatch):
        import atomcover.descriptor
        import atomcover.extxyz

        data = write_dataset(tmp_path / "d.xyz", n_frames=6)
        calls = []

        def counting(module, name):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a: calls.append(name) or real(*a))

        counting(atomcover.extxyz, "read_extxyz")
        counting(atomcover.descriptor, "build_descriptor_set")
        argv = ["compress", str(data), "-o", str(tmp_path / "kept.xyz"), "--count", "2",
                "--cache", str(tmp_path / "cache")]
        assert main(argv) == 0
        assert calls == ["read_extxyz", "build_descriptor_set"]  # a miss
        calls.clear()
        assert main(argv) == 0
        assert calls == ["read_extxyz"]  # a hit: parsed for the kept frames only
        capsys.readouterr()


class TestThreads:
    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_thread_count_below_one_exits_3(self, tmp_path, capsys, monkeypatch, threads):
        for var in _THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        data = write_dataset(tmp_path / "d.xyz", n_frames=2)
        with pytest.raises(SystemExit) as err:
            main(["analyze", str(data), "--threads", threads])
        assert err.value.code == 3
        assert "--threads" in capsys.readouterr().err
        assert not any(var in os.environ for var in _THREAD_VARS)

    @pytest.mark.parametrize("threads", ["1.5", "two"])
    def test_non_integer_thread_count_exits_3(self, tmp_path, capsys, threads):
        data = write_dataset(tmp_path / "d.xyz", n_frames=2)
        with pytest.raises(SystemExit) as err:
            main(["analyze", str(data), "--threads", threads])
        assert err.value.code == 3
        assert "not an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["compress", "analyze", "overlap", "compare"])
    def test_threads_reach_blas_before_numpy_loads(self, tmp_path, command):
        # A finder on sys.meta_path sees numpy's first import and records the
        # pool sizes that BLAS/OpenMP read then; each run needs a fresh
        # interpreter, since numpy loads once.
        data = str(write_dataset(tmp_path / "d.xyz", n_frames=4))
        argv = {
            "compress": ["compress", data, "-o", "kept.xyz", "--count", "2"],
            "analyze": ["analyze", data, "-o", "r.json"],
            "overlap": ["overlap", data, data, "-o", "r.json"],
            "compare": ["compare", data, "-o", "r.json", "--fractions", "0.5"],
        }[command]
        code = (
            "import json, os, sys\n"
            "seen = []\n"
            "class Spy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'numpy' and not seen:\n"
            "            seen.append([os.environ.get(v) for v in json.loads(sys.argv[2])])\n"
            "sys.meta_path.insert(0, Spy())\n"
            "from atomcover.cli import main\n"
            "assert main(json.loads(sys.argv[1])) == 0\n"
            "print(json.dumps(seen))\n"
        )
        src = os.path.dirname(os.path.dirname(atomcover.__file__))
        env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
        env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
        run = subprocess.run(
            [sys.executable, "-c", code, json.dumps([*argv, "--threads", "3"]),
             json.dumps(_THREAD_VARS)],
            cwd=tmp_path, env=env, check=True, capture_output=True, text=True,
        )
        assert json.loads(run.stdout.splitlines()[-1]) == [["3"] * len(_THREAD_VARS)]

    def test_thread_count_never_changes_reports(self, tmp_path):
        # the BLAS pool size is fixed when numpy loads, so each run needs
        # a fresh interpreter
        data = write_dataset(tmp_path / "d.xyz", n_frames=8)
        src = os.path.dirname(os.path.dirname(atomcover.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]
        ))
        blobs = []
        for threads in ("1", "2"):
            run = tmp_path / f"t{threads}"
            run.mkdir()
            for argv in (  # relative outputs: the report records their paths
                ["compress", str(data), "-o", "kept.xyz",
                 "--report", "compress.json", "--fraction", "0.5"],
                ["analyze", str(data), "-o", "analyze.json"],
            ):
                subprocess.run(
                    [sys.executable, "-m", "atomcover.cli", *argv, "--threads", threads],
                    cwd=run, env=env, check=True, capture_output=True,
                )
            blobs.append([
                (run / name).read_bytes()
                for name in ("kept.xyz", "compress.json", "analyze.json")
            ])
        assert blobs[0] == blobs[1]


def write_cells(path, n_frames=3, seed=0):
    """n_frames jittered 64-atom simple-cubic cells of side 10 angstrom."""
    rng = np.random.default_rng(seed)
    grid = np.argwhere(np.ones((4, 4, 4))) * 2.5
    chunks = []
    for _ in range(n_frames):
        pos = grid + rng.normal(scale=0.1, size=grid.shape)
        chunks.append(frame_text(pos, np.zeros_like(pos), cell=10.0))
    path.write_text("".join(chunks))
    return path


class TestScipyImport:
    """scipy.spatial takes longer to import than most commands take to run,
    so only the k-d tree search, for structures too large to batch, loads it."""

    SCRIPT = (
        "import importlib, json, pkgutil, sys\n"
        "import atomcover\n"
        "from atomcover.cli import main\n"
        "for info in pkgutil.iter_modules(atomcover.__path__):\n"
        "    importlib.import_module('atomcover.' + info.name)\n"
        "loaded = {'import': 'scipy' in sys.modules}\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0, argv\n"
        "    loaded[argv[0]] = 'scipy' in sys.modules\n"
        "print(json.dumps(loaded))\n"
    )

    def loaded_after(self, tmp_path, commands):
        """Whether scipy was loaded after importing atomcover and after each command."""
        src = os.path.dirname(os.path.dirname(atomcover.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]
        ))
        run = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, json.dumps(commands)],
            cwd=tmp_path, env=env, check=True, capture_output=True, text=True,
        )
        return json.loads(run.stdout.splitlines()[-1])

    def test_only_the_tree_search_loads_scipy(self, tmp_path, capsys):
        small = write_dataset(tmp_path / "small.xyz", n_frames=6)
        cells = write_cells(tmp_path / "cells.xyz")
        forces = single_atom_forces_file(tmp_path / "forces.xyz", [0.1, 0.5, 2.0])
        cache = ["--cache", str(tmp_path / "cache")]
        main(["analyze", str(cells), "-o", str(tmp_path / "warm.json"), *cache])
        capsys.readouterr()
        assert self.loaded_after(tmp_path, [
            ["compress", str(small), "-o", "kept.xyz", "--report", "compress.json",
             "--fraction", "0.5", *cache],
            ["analyze", str(cells), "-o", "analyze.json", *cache],
            ["overlap", str(cells), str(cells), "-o", "overlap.json", *cache],
            ["force-cdf", str(forces), "-o", "cdf.json"],
        ]) == {"import": False, "compress": False, "analyze": False, "overlap": False,
               "force-cdf": False}
        # 64-atom cells are searched with the tree, which loads scipy
        assert self.loaded_after(tmp_path, [
            ["compress", str(cells), "-o", "kept.xyz", "--report", "compress.json",
             "--fraction", "0.5"],
        ]) == {"import": False, "compress": True}


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        exe = shutil.which("atomcover")
        assert exe, "console script not installed"
        data = write_dataset(tmp_path / "d.xyz", n_frames=3)
        proc = subprocess.run(
            [exe, "analyze", str(data)], capture_output=True, text=True
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["kind"] == "analyze"
