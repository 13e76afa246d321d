import hashlib
import json

import numpy as np
import pytest

from atomcover import (
    ParseError,
    ReportDocument,
    file_digest,
    read_extxyz,
    write_csv,
    write_extxyz,
)
from atomcover.report import _round_floats
from helpers import crystal, dataset, molecule


def reference_parse(path):
    """Minimal second-opinion extxyz reader: (count, lattice, rows) per frame.

    Written independently of the library parser — shlex for the comment
    line, no column metadata beyond species + xyz (+ trailing floats).
    """
    import shlex

    frames = []
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    i = 0
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        n = int(lines[i])
        keyvals = {}
        for token in shlex.split(lines[i + 1]):
            if "=" in token:
                k, v = token.split("=", 1)
                keyvals[k] = v
        lattice = None
        if "Lattice" in keyvals:
            lattice = np.array([float(x) for x in keyvals["Lattice"].split()]).reshape(3, 3)
        rows = []
        for line in lines[i + 2 : i + 2 + n]:
            fields = line.split()
            rows.append((fields[0], [float(x) for x in fields[1:]]))
        frames.append((n, lattice, keyvals, rows))
        i += 2 + n
    return frames


def demo_dataset():
    rng = np.random.default_rng(77)
    structures = []
    for i in range(4):
        structures.append(
            crystal(
                np.eye(3) * 6.0 + rng.normal(scale=0.1, size=(3, 3)),
                rng.random((3, 3)) * 5.0,
                species=("Si", "O", "O"),
                forces=rng.normal(size=(3, 3)),
            )
        )
    structures.append(molecule(rng.random((2, 3)) * 4.0, species=("H", "H")))
    return tuple(structures)


class TestRoundTrip:
    def test_exact_values(self, tmp_path):
        ds = demo_dataset()
        path = tmp_path / "demo.xyz"
        write_extxyz(ds, path)
        back = read_extxyz(path)
        assert len(back) == len(ds)
        for a, b in zip(ds, back):
            assert np.array_equal(a.positions, b.positions)
            assert np.array_equal(a.cell, b.cell)
            assert np.array_equal(a.pbc, b.pbc)
            assert a.species == b.species
            if a.forces is None:
                assert b.forces is None
            else:
                assert np.array_equal(a.forces, b.forces)

    def test_energy_and_info_round_trip(self, tmp_path):
        s = molecule([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], energy=-13.625)
        s.info["config_type"] = "dimer"
        s.info["note"] = '"two words"'
        s.info["flagged"] = None
        path = tmp_path / "one.xyz"
        write_extxyz(dataset(s), path)
        back = read_extxyz(path)[0]
        assert back.energy == -13.625
        assert back.info == {"config_type": "dimer", "note": '"two words"', "flagged": None}

    def test_write_read_write_is_stable(self, tmp_path):
        ds = demo_dataset()
        p1, p2 = tmp_path / "a.xyz", tmp_path / "b.xyz"
        write_extxyz(ds, p1)
        write_extxyz(read_extxyz(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_selection_order(self, tmp_path):
        ds = demo_dataset()
        path = tmp_path / "sel.xyz"
        write_extxyz(ds, path, selection=[3, 0])
        back = read_extxyz(path)
        assert len(back) == 2
        assert np.array_equal(back[0].positions, ds[3].positions)
        assert np.array_equal(back[1].positions, ds[0].positions)

    def test_against_reference_parser(self, tmp_path):
        ds = demo_dataset()
        path = tmp_path / "ref.xyz"
        write_extxyz(ds, path)
        frames = reference_parse(path)
        assert len(frames) == len(ds)
        for s, (n, lattice, keyvals, rows) in zip(ds, frames):
            assert n == len(s)
            if s.pbc.any():
                assert np.array_equal(lattice, s.cell)
            for a, (symbol, numbers) in enumerate(rows):
                assert symbol == s.species[a]
                assert np.array_equal(numbers[:3], s.positions[a])
                if s.forces is not None:
                    assert np.array_equal(numbers[3:6], s.forces[a])

    @pytest.mark.parametrize("forces", [True, False])
    def test_atom_rows_format_each_value_alone(self, tmp_path, forces):
        # the writer formats a row at once; each value must be written as
        # f"{v:.17g}" writes it alone, "-0" and subnormals included
        special = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 3.0, -42.0, 1e16, 0.1, 1 / 3]
        rng = np.random.default_rng(78)
        values = np.array(special + list(rng.normal(scale=10.0, size=13)))
        positions = values[:12].reshape(4, 3)
        s = crystal(
            np.eye(3) * 4.0,
            positions,
            species=("Cu", "O", "H", "Xx"),
            forces=values[12:].reshape(4, 3) if forces else None,
        )
        s.info["config_type"] = "mix"
        s.info["flagged"] = None
        path = tmp_path / "rows.xyz"
        write_extxyz(dataset(s, s), path)
        lines = path.read_text().splitlines()
        props = ":forces:R:3" if forces else ""
        header = (
            'Lattice="4 0 0 0 4 0 0 0 4" '
            f'Properties=species:S:1:pos:R:3{props} pbc="T T T" config_type=mix flagged'
        )
        rows = [
            " ".join([sym] + [f"{v:.17g}" for v in np.concatenate(
                [s.positions[a]] + ([s.forces[a]] if forces else [])
            )])
            for a, sym in enumerate(s.species)
        ]
        assert lines == (["4", header] + rows) * 2
        assert "-0 0 4.9406564584124654e-324" in lines[2]
        back = read_extxyz(path)[0]
        assert back.positions.tobytes() == s.positions.tobytes()


class TestReadFeatures:
    def test_pbc_defaults_true_with_lattice(self, tmp_path):
        path = tmp_path / "t.xyz"
        path.write_text(
            '1\nLattice="4 0 0 0 4 0 0 0 4" Properties=species:S:1:pos:R:3\nC 1 1 1\n'
        )
        s = read_extxyz(path)[0]
        assert s.pbc.all()

    def test_pbc_defaults_false_without_lattice(self, tmp_path):
        path = tmp_path / "t.xyz"
        path.write_text("1\nProperties=species:S:1:pos:R:3\nC 1 1 1\n")
        s = read_extxyz(path)[0]
        assert not s.pbc.any()
        assert np.all(s.cell == 0)

    def test_single_pbc_flag_sets_all_three(self, tmp_path):
        path = tmp_path / "t.xyz"
        path.write_text(
            '1\nLattice="4 0 0 0 4 0 0 0 4" pbc=F Properties=species:S:1:pos:R:3\nC 1 1 1\n'
            '1\nLattice="4 0 0 0 4 0 0 0 4" pbc=T Properties=species:S:1:pos:R:3\nC 1 1 1\n'
        )
        assert [s.pbc.tolist() for s in read_extxyz(path)] == [[False] * 3, [True] * 3]

    def test_explicit_pbc_flags(self, tmp_path):
        path = tmp_path / "t.xyz"
        path.write_text(
            '1\nLattice="4 0 0 0 4 0 0 0 4" pbc="T T F" Properties=species:S:1:pos:R:3\nC 1 1 1\n'
        )
        assert read_extxyz(path)[0].pbc.tolist() == [True, True, False]

    def test_force_key_variant(self, tmp_path):
        path = tmp_path / "t.xyz"
        path.write_text(
            "1\nProperties=species:S:1:pos:R:3:force:R:3\nC 1 1 1 0.5 0 -0.5\n"
        )
        s = read_extxyz(path)[0]
        assert np.array_equal(s.forces, [[0.5, 0.0, -0.5]])

    def test_plain_xyz_fallback(self, tmp_path):
        path = tmp_path / "t.xyz"
        path.write_text("2\njust a comment without keys\nH 0 0 0\nH 1 0 0\n")
        s = read_extxyz(path)[0]
        assert s.species == ("H", "H")
        assert np.array_equal(s.positions, [[0, 0, 0], [1, 0, 0]])

    def test_unknown_per_atom_columns_skipped(self, tmp_path):
        path = tmp_path / "t.xyz"
        path.write_text(
            "1\nProperties=species:S:1:pos:R:3:charge:R:1:tag:I:1\nC 1 2 3 0.1 7\n"
        )
        s = read_extxyz(path)[0]
        assert np.array_equal(s.positions, [[1.0, 2.0, 3.0]])

    def test_blank_lines_between_frames(self, tmp_path):
        path = tmp_path / "t.xyz"
        path.write_text("1\nc\nH 0 0 0\n\n\n1\nc\nHe 1 1 1\n")
        ds = read_extxyz(path)
        assert len(ds) == 2
        assert ds[1].species == ("He",)

    def test_multi_frame_lattices_independent(self, tmp_path):
        path = tmp_path / "t.xyz"
        path.write_text(
            '1\nLattice="4 0 0 0 4 0 0 0 4"\nC 1 1 1\n'
            "1\nProperties=species:S:1:pos:R:3\nC 0 0 0\n"
        )
        ds = read_extxyz(path)
        assert ds[0].pbc.all()
        assert not ds[1].pbc.any()


class TestParseErrors:
    def check(self, text, match_line, tmp_path, match=None):
        path = tmp_path / "bad.xyz"
        path.write_text(text)
        with pytest.raises(ParseError, match=match) as err:
            read_extxyz(path)
        assert err.value.line == match_line
        assert f"line {match_line}" in str(err.value)

    def test_bad_count(self, tmp_path):
        self.check("abc\ncomment\n", 1, tmp_path)

    def test_nonpositive_count(self, tmp_path):
        self.check("0\ncomment\n", 1, tmp_path)

    def test_truncated_frame(self, tmp_path):
        self.check("3\ncomment\nH 0 0 0\n", 4, tmp_path)

    def test_wrong_column_count(self, tmp_path):
        self.check("1\nProperties=species:S:1:pos:R:3\nH 0 0\n", 3, tmp_path)

    def test_bad_float(self, tmp_path):
        self.check("1\nProperties=species:S:1:pos:R:3\nH 0 zero 0\n", 3, tmp_path)

    def test_bad_lattice(self, tmp_path):
        self.check('1\nLattice="1 2 3"\nH 0 0 0\n', 2, tmp_path)

    def test_bad_properties(self, tmp_path):
        self.check("1\nProperties=species:S:1:pos\nH 0 0 0\n", 2, tmp_path)

    def test_non_numeric_lattice(self, tmp_path):
        text = '1\nLattice="4 0 0 0 four 0 0 0 4"\nH 0 0 0\n'
        self.check(text, 2, tmp_path, "bad Lattice value")

    def test_two_pbc_flags(self, tmp_path):
        text = '1\nLattice="4 0 0 0 4 0 0 0 4" pbc="T T"\nH 0 0 0\n'
        self.check(text, 2, tmp_path, "pbc needs 3 flags")

    @pytest.mark.parametrize("width", ["x", "0"])
    def test_bad_properties_width(self, tmp_path, width):
        self.check(
            f"1\nProperties=species:S:1:pos:R:{width}\nH 0 0 0\n", 2, tmp_path, "bad column width"
        )

    @pytest.mark.parametrize("text", [
        "1\nProperties=species:S:1:pos:R:2\nH 0 0\n",
        "1\nProperties=species:S:1:pos:R:3:force:R:2\nH 0 0 0 1 1\n",
        "1\nProperties=pos:R:3\nH 0 0 0\n",  # the row is also one token too wide
        "1\nProperties=species:S:1:xyz:R:3\nH 0 0 0\n",
    ])
    def test_column_layout_errors_name_the_comment_line(self, tmp_path, text):
        # the layout is a fact of the frame, checked before any atom row
        self.check(text, 2, tmp_path)

    def test_bad_energy(self, tmp_path):
        self.check("1\nenergy=low\nH 0 0 0\n", 2, tmp_path)

    def test_bad_pbc(self, tmp_path):
        self.check('1\nLattice="4 0 0 0 4 0 0 0 4" pbc="T maybe F"\nH 0 0 0\n', 2, tmp_path)

    def test_empty_file(self, tmp_path):
        self.check("", 1, tmp_path)

    def test_second_frame_error_points_at_its_line(self, tmp_path):
        self.check("1\nc\nH 0 0 0\n1\nc\nH 0 x 0\n", 6, tmp_path)

    @pytest.mark.parametrize("end", [b"\n", b"\r", b"\r\n", b"\x0c", b"\xc2\x85"])
    def test_invalid_utf8_points_at_its_line(self, tmp_path, end):
        # line numbers follow str.splitlines(), as for every other ParseError
        path = tmp_path / "bad.xyz"
        path.write_bytes(b"1" + end + b"c" + end + b"H 0 \xff 0" + end)
        with pytest.raises(ParseError, match="line 3"):
            read_extxyz(path)
        path.write_bytes(b"1" + end + b"c" + end + b"H 0 0 0" + end + b"\xff")
        with pytest.raises(ParseError, match="line 4"):
            read_extxyz(path)


class TestRoundFloats:
    def test_12_significant_digits(self):
        assert _round_floats(1.0 / 3.0) == 0.333333333333
        assert _round_floats(123456789.123456789) == 123456789.123

    def test_preserves_types(self):
        out = _round_floats(
            {"a": np.float64(0.1), "b": np.int32(3), "c": [True, None, "x"], "d": (1.5,)}
        )
        assert out == {"a": 0.1, "b": 3, "c": [True, None, "x"], "d": [1.5]}
        assert isinstance(out["b"], int)
        assert out["c"][0] is True

    def test_arrays_become_lists(self):
        out = _round_floats(np.array([[1.0, 2.0]]))
        assert out == [[1.0, 2.0]]


class TestReportDocument:
    def test_byte_identical_serialization(self, tmp_path):
        doc = ReportDocument(
            kind="analyze",
            parameters={"bandwidth": 0.015, "k": 32},
            metrics={"entropy_nats": 1.2345678901234567, "values": np.arange(3) * 0.1},
        )
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        doc.write(p1)
        doc.write(p2)
        assert p1.read_bytes() == p2.read_bytes()
        data = json.loads(p1.read_text())
        assert data["kind"] == "analyze"
        assert data["metrics"]["entropy_nats"] == 1.23456789012

    def test_no_timestamps(self):
        doc = ReportDocument(kind="x", parameters={}, metrics={})
        text = doc.to_json().lower()
        assert "time" not in text and "date" not in text

    def test_insertion_order_kept(self):
        doc = ReportDocument(kind="x", parameters={"z": 1, "a": 2}, metrics={})
        text = doc.to_json()
        assert text.index('"z"') < text.index('"a"')


class TestCsvAndDigest:
    def test_csv_layout(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["name", "value"], [["row1", 0.123456789012345], ["row2", 2]])
        lines = path.read_text().splitlines()
        assert lines[0] == "name,value"
        assert lines[1] == "row1,0.123456789012"
        assert lines[2] == "row2,2"

    def test_digest_matches_hashlib(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"atomcover digest check")
        assert file_digest(path) == hashlib.sha256(b"atomcover digest check").hexdigest()
