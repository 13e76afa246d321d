"""Property tests: arbitrary input bytes fail closed, never with a traceback;
valid frames read back exactly whatever their column layout, and a bad atom
row fails as a row-by-row reader fails on it."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from atomcover import InputError, ParseError, Structure, read_extxyz, write_extxyz
from atomcover.cli import main
from atomcover.extxyz import _COMMENT_TOKEN
from helpers import reference_parse, reference_row_error

FUZZ = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@FUZZ
@given(data=st.binary())
def test_reader_raises_only_documented_errors(tmp_path, data):
    path = tmp_path / "fuzz.xyz"
    path.write_bytes(data)
    try:
        read_extxyz(path)
    except (ParseError, InputError):
        pass


@FUZZ
@given(data=st.binary())
def test_analyze_exits_with_a_documented_code(tmp_path, capsys, data):
    path = tmp_path / "fuzz.xyz"
    path.write_bytes(data)
    # 2: unreadable input; 4: readable, but coincident atoms or a bad cell
    assert main(["analyze", str(path)]) in (0, 2, 4)
    capsys.readouterr()


WHITESPACE = " \t\x0b\x0c\x1f\xa0　"
BARE = st.text(st.characters().filter(lambda c: c != '"' and not c.isspace()), min_size=1)
QUOTED = st.text(st.characters().filter(lambda c: c != '"')).map(lambda t: f'"{t}"')
TOKEN = st.lists(st.one_of(BARE, QUOTED), min_size=1, max_size=4).map("".join)


@FUZZ
@given(
    tokens=st.lists(TOKEN, max_size=6),
    gaps=st.lists(st.text(WHITESPACE, min_size=1), min_size=7, max_size=7),
    lead=st.text(WHITESPACE),
)
def test_comment_tokens_split_back_at_whitespace(tokens, gaps, lead):
    line = lead + "".join(t + g for t, g in zip(tokens, gaps))
    assert _COMMENT_TOKEN.findall(line) == tokens


COORD = st.floats(-50, 50, allow_nan=False)


@st.composite
def structures(draw):
    n = draw(st.integers(1, 4))

    def vectors():
        return np.array(draw(st.lists(COORD, min_size=3 * n, max_size=3 * n))).reshape(n, 3)

    if draw(st.booleans()):
        cell = np.diag(draw(st.lists(st.floats(3, 10), min_size=3, max_size=3)))
        cell += np.array(draw(st.lists(st.floats(-0.5, 0.5), min_size=9, max_size=9))).reshape(3, 3)
        pbc = draw(st.lists(st.booleans(), min_size=3, max_size=3))
    else:
        cell, pbc = np.zeros((3, 3)), [False] * 3
    info_value = st.one_of(
        st.none(), st.from_regex(r"[a-z0-9.]+", fullmatch=True),
        st.from_regex(r'"[a-z]+( [a-z0-9.]+)+"', fullmatch=True),
    )
    return Structure(
        cell=cell,
        pbc=pbc,
        positions=vectors(),
        species=draw(st.lists(st.sampled_from(["H", "C", "Si", "Ag"]), min_size=n, max_size=n)),
        forces=vectors() if draw(st.booleans()) else None,
        energy=draw(st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False))),
        info=draw(st.dictionaries(st.sampled_from(["note", "config_type", "step"]), info_value)),
    )


def relayout(text, order, force_alias):
    """Rewrite frames written as species, pos[, forces] with the columns in
    ``order`` (a permutation of range(4)), plus an integer Z column."""
    lines = text.splitlines()
    out, i = [], 0
    while i < len(lines):
        n = int(lines[i])
        has_forces = ":forces:R:3" in lines[i + 1]
        force_name = "force" if force_alias else "forces"
        declared = [("species:S:1", 0, 1), ("pos:R:3", 1, 4), ("Z:I:1", None, None)]
        if has_forces:
            declared.append((f"{force_name}:R:3", 4, 7))
        columns = [declared[j] for j in order if j < len(declared)]
        props = ":".join(spec for spec, _, _ in columns)
        old_props = "species:S:1:pos:R:3" + (":forces:R:3" if has_forces else "")
        out += [lines[i], lines[i + 1].replace(f"Properties={old_props}", f"Properties={props}")]
        for a, row in enumerate(lines[i + 2 : i + 2 + n]):
            tokens = row.split()
            out.append(" ".join(
                str(a - 7) if lo is None else " ".join(tokens[lo:hi]) for _, lo, hi in columns
            ))
        i += 2 + n
    return "\n".join(out) + "\n"


@FUZZ
@given(
    frames=st.lists(structures(), min_size=1, max_size=3),
    order=st.permutations(range(4)),
    force_alias=st.booleans(),
)
def test_frames_read_back_exactly_in_any_column_layout(tmp_path, frames, order, force_alias):
    path = tmp_path / "frames.xyz"
    write_extxyz(frames, path)
    path.write_text(relayout(path.read_text(), order, force_alias))
    got = read_extxyz(path)
    assert len(got) == len(frames)
    for s, r in zip(frames, got):
        for name in ("cell", "pbc", "positions"):
            assert getattr(r, name).tobytes() == getattr(s, name).tobytes(), name
            assert getattr(r, name).dtype == getattr(s, name).dtype
        assert (r.forces is None) == (s.forces is None)
        if s.forces is not None:
            assert r.forces.tobytes() == s.forces.tobytes()
        assert (r.species, r.energy, r.info) == (s.species, s.energy, s.info)


EXTRA_COLUMNS = [("charge", "R", 1), ("tag", "I", 1), ("velo", "R", 2), ("Z", "I", 3)]
BAD_FLOATS = ["x", "1.2.3", "--1", "1e", "0x10", "1,5"]


@st.composite
def atom_rows(draw):
    """Frames as (comment line, rows of tokens): species first, then pos, an
    optional forces or force column and up to two extra columns in any order."""
    frames = []
    for _ in range(draw(st.integers(1, 3))):
        force = draw(st.sampled_from([None, "forces", "force"]))
        columns = [("pos", "R", 3)] + ([(force, "R", 3)] if force else [])
        columns += draw(st.lists(st.sampled_from(EXTRA_COLUMNS), max_size=2, unique=True))
        columns = [("species", "S", 1)] + draw(st.permutations(columns))
        rows = []
        for _ in range(draw(st.integers(1, 5))):
            tokens = [draw(st.sampled_from(["H", "Cu", "Si"]))]
            for _, kind, width in columns[1:]:
                number = COORD.map(repr) if kind == "R" else st.integers(-9, 99).map(str)
                tokens += draw(st.lists(number, min_size=width, max_size=width))
            rows.append(tokens)
        comment = "Properties=" + ":".join(f"{n}:{k}:{w}" for n, k, w in columns)
        if draw(st.booleans()):
            comment = 'Lattice="5 0 0 0 5 0 0 0 5" ' + comment
        frames.append((comment, rows))
    return frames


def column_starts(comment):
    """The index of each column's first token in a row, by column name, from a
    comment line's Properties."""
    spec = comment.split("Properties=")[1].split(":")
    starts, at = {}, 0
    for name, width in zip(spec[::3], spec[2::3]):
        starts[name] = at
        at += int(width)
    return starts


def render(frames, newline, gap, padding):
    lines = []
    for comment, rows in frames:
        lines += [str(len(rows)), comment, *(gap.join(tokens) for tokens in rows), *padding]
    return newline.join(lines) + newline


LAYOUT = {
    "newline": st.sampled_from(["\n", "\r\n"]),
    "gap": st.sampled_from([" ", "\t", "   "]),
    "padding": st.lists(st.sampled_from(["", "  "]), max_size=2),
}


@FUZZ
@given(frames=atom_rows(), **LAYOUT)
def test_column_reads_equal_the_reference_in_any_layout(tmp_path, frames, newline, gap, padding):
    path = tmp_path / "frames.xyz"
    path.write_bytes(render(frames, newline, gap, padding).encode())
    got = read_extxyz(path)
    reference = reference_parse(path)
    assert len(got) == len(reference) == len(frames)
    for s, (comment, _), (_, _, _, rows) in zip(got, frames, reference):
        assert s.species == tuple(symbol for symbol, _ in rows)
        starts = column_starts(comment)
        for name in ("pos", "forces", "force"):
            if name in starts:
                lo = starts[name] - 1  # the numbers follow the species
                expect = np.array([numbers[lo : lo + 3] for _, numbers in rows])
                assert (s.positions if name == "pos" else s.forces).tobytes() == expect.tobytes()
        assert (s.forces is None) == ("forces" not in starts and "force" not in starts)


@FUZZ
@given(frames=atom_rows(), data=st.data(), **LAYOUT)
def test_a_bad_row_fails_as_a_row_by_row_read_fails(tmp_path, frames, data, newline, gap, padding):
    f = data.draw(st.integers(0, len(frames) - 1))
    comment, rows = frames[f]
    r = data.draw(st.integers(0, len(rows) - 1))
    tokens = list(rows[r])
    fault = data.draw(st.sampled_from(["short", "long", "float"]))
    if fault == "short":
        del tokens[data.draw(st.integers(0, len(tokens) - 1))]
    elif fault == "long":
        tokens.insert(data.draw(st.integers(0, len(tokens))), "7")
    else:
        starts = column_starts(comment)
        numeric = [starts[name] + c for name in ("pos", "forces", "force") if name in starts
                   for c in range(3)]
        tokens[data.draw(st.sampled_from(numeric))] = data.draw(st.sampled_from(BAD_FLOATS))
    frames[f] = (comment, rows[:r] + [tokens] + rows[r + 1 :])
    path = tmp_path / "bad.xyz"
    path.write_bytes(render(frames, newline, gap, padding).encode())
    message, line = reference_row_error(path)
    with pytest.raises(ParseError) as err:
        read_extxyz(path)
    assert (str(err.value), err.value.line) == (f"line {line}: {message}", line)
