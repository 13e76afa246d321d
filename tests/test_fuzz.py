"""Property tests: arbitrary input bytes fail closed, never with a traceback;
valid frames read back exactly whatever their column layout."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from atomcover import InputError, ParseError, Structure, read_extxyz, write_extxyz
from atomcover.cli import main
from atomcover.extxyz import _COMMENT_TOKEN

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
