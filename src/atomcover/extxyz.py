"""Extended-XYZ reader and writer.

Frames are the usual two header lines (atom count, then a key=value
comment) followed by one row per atom.  ``Lattice`` holds nine floats,
row-major, one lattice vector per row; ``Properties`` declares the
per-atom columns.  Unrecognized comment keys are kept as raw strings on
``Structure.info`` and written back untouched.  Floats are emitted with
17 significant digits so a write/read cycle reproduces values exactly.

A frame whose ``Properties`` lack a species or pos column, or declare pos
or forces other than 3 wide, fails on its comment line, before any atom
row is read.  A frame's atom rows are read column by column: each row is
split once, the rows' widths are checked together, and species, pos and
forces each come from strided slices of the frame's tokens.  Only a frame that fails those
checks is walked row by row, so a ParseError still names the first failing
row, with the message a row-by-row read gives.
"""

from __future__ import annotations

import itertools
import re

import numpy as np

from .errors import InputError, ParseError
from .geometry import Structure
from .report import _replacing

__all__ = ["read_extxyz", "write_extxyz"]

_TRUE_TOKENS = {"T", "true", "True", "TRUE", "1"}
_FALSE_TOKENS = {"F", "false", "False", "FALSE", "0"}
# One comment-line token: a run of non-space characters in which quoted spans
# may hold spaces.  An unclosed quote runs to the end of the line.
_COMMENT_TOKEN = re.compile(r'(?:"[^"]*(?:"|$)|[^\s"])+')


def _unquote(raw: str) -> str:
    if len(raw) >= 2 and raw[0] == '"' and raw[-1] == '"':
        return raw[1:-1]
    return raw


def _parse_comment(line: str, lineno: int):
    """Split the known keys out of a comment line.

    Returns (cell, pbc, energy, columns, info) where ``info`` maps
    unknown keys to their raw value text (None for bare flags).
    """
    cell = None
    pbc = None
    energy = None
    columns = None
    info: dict[str, str | None] = {}
    for item in _COMMENT_TOKEN.findall(line):
        key, sep, raw = item.partition("=")
        if not sep:
            info[key] = None
            continue
        lower = key.lower()
        if lower == "lattice":
            fields = _unquote(raw).split()
            if len(fields) != 9:
                raise ParseError(
                    f"Lattice needs 9 numbers, got {len(fields)}", line=lineno
                )
            try:
                cell = np.array([float(f) for f in fields]).reshape(3, 3)
            except ValueError:
                raise ParseError(f"bad Lattice value in {raw!r}", line=lineno) from None
        elif lower == "properties":
            columns = _parse_properties(_unquote(raw), lineno)
        elif lower == "pbc":
            tokens = _unquote(raw).split()
            if len(tokens) == 1:
                tokens = tokens * 3
            if len(tokens) != 3:
                raise ParseError(f"pbc needs 3 flags, got {raw!r}", line=lineno)
            flags = []
            for tok in tokens:
                if tok in _TRUE_TOKENS:
                    flags.append(True)
                elif tok in _FALSE_TOKENS:
                    flags.append(False)
                else:
                    raise ParseError(f"bad pbc flag {tok!r}", line=lineno)
            pbc = np.array(flags)
        elif lower == "energy":
            try:
                energy = float(_unquote(raw))
            except ValueError:
                raise ParseError(f"bad energy value {raw!r}", line=lineno) from None
        else:
            info[key] = raw
    return cell, pbc, energy, columns, info


def _parse_properties(text: str, lineno: int) -> list[tuple[str, str, int]]:
    parts = text.split(":")
    if len(parts) % 3 != 0 or not parts:
        raise ParseError(f"malformed Properties string {text!r}", line=lineno)
    columns = []
    for i in range(0, len(parts), 3):
        name, kind, width = parts[i], parts[i + 1], parts[i + 2]
        try:
            width = int(width)
        except ValueError:
            raise ParseError(
                f"bad column width in Properties entry {name!r}", line=lineno
            ) from None
        if width < 1:
            raise ParseError(
                f"bad column width in Properties entry {name!r}", line=lineno
            )
        columns.append((name, kind, width))
    return columns


_DEFAULT_COLUMNS = [("species", "S", 1), ("pos", "R", 3)]


def _column_layout(columns, lineno: int):
    """Where a frame's species, pos and forces tokens are, read once per frame.

    Returns (species start, numeric, row width in tokens), where ``numeric``
    holds (start, name, key) for the pos column and any forces column, in
    column order.  Names match case-insensitively, ``force`` is an alias of
    ``forces`` and a repeated column overrides the earlier one.
    """
    starts = {}
    width = 0
    for name, _, w in columns:
        key = name.lower()
        key = "forces" if key == "force" else key
        if key in ("pos", "forces") and w != 3:
            raise ParseError(f"{name} must have 3 columns", line=lineno)
        starts[key] = (width, name)
        width += w
    for key in ("pos", "species"):
        if key not in starts:
            raise ParseError(f"Properties has no {key} column", line=lineno)
    numeric = sorted(starts[key] + (key,) for key in ("pos", "forces") if key in starts)
    return starts["species"][0], numeric, width


def _atom_rows(body, first_line: int, width: int, species_at: int, numeric):
    """Species and the (n, 3) pos and forces arrays of one frame's atom rows.

    ``body`` holds the frame's n rows, the first on line ``first_line``.
    Each row is split once, and the rows are read column by column from the
    frame's flattened tokens: species is one strided slice, and each numeric
    column one ``map(float, ...)`` over its three strided slices, zipped back
    into row order.  Only a frame with a row of the wrong width or a bad
    number walks its rows one by one, each checking its width and then pos
    and forces in column order, so the first failing row's ParseError is
    raised, as a row-by-row read raises it.
    """
    fields = [line.split() for line in body]
    if set(map(len, fields)) == {width}:
        tokens = list(itertools.chain.from_iterable(fields))
        try:
            arrays = {
                key: np.fromiter(
                    map(float, itertools.chain.from_iterable(zip(
                        tokens[start::width], tokens[start + 1 :: width], tokens[start + 2 :: width]
                    ))),
                    float,
                    3 * len(fields),
                ).reshape(-1, 3)
                for start, _, key in numeric
            }
        except ValueError:
            pass
        else:
            return tokens[species_at::width], arrays
    for lineno, row in enumerate(fields, first_line):
        if len(row) != width:
            raise ParseError(f"expected {width} columns, got {len(row)}", line=lineno)
        for start, name, _ in numeric:
            try:
                [float(f) for f in row[start : start + 3]]
            except ValueError:
                raise ParseError(f"bad numeric value in column {name!r}", line=lineno) from None
    raise AssertionError("a frame that fails its checks has a failing row")


def read_extxyz(path) -> tuple[Structure, ...]:
    """Parse every frame of an extended-XYZ file into a tuple of Structures,
    in file order.

    Files without a Properties key fall back to plain xyz columns
    (species then x y z).  ``forces`` and ``force`` columns both map to
    Structure.forces.  Each frame's atom rows are read column by column
    (see :func:`_atom_rows`).  Malformed input raises ParseError naming the
    line: in atom rows, the first row that has the wrong width or a bad pos
    or forces value, with its columns checked in order.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        lines = raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        # Count lines as splitlines() does (\r, \x85, ... end lines too);
        # the extra character stands in for the undecodable byte.
        line = len((raw[: exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(f"not UTF-8 text: {exc.reason}", line=line) from None

    structures = []
    lineno = 0
    while lineno < len(lines):
        if not lines[lineno].strip():  # blank padding between frames
            lineno += 1
            continue
        try:
            natoms = int(lines[lineno].strip())
        except ValueError:
            raise ParseError(
                f"expected an atom count, got {lines[lineno]!r}", line=lineno + 1
            ) from None
        if natoms < 1:
            raise ParseError(f"atom count must be positive, got {natoms}", line=lineno + 1)
        if lineno + 1 >= len(lines):
            raise ParseError("missing comment line", line=lineno + 2)
        cell, pbc, energy, columns, info = _parse_comment(lines[lineno + 1], lineno + 2)
        species_at, numeric, width = _column_layout(columns or _DEFAULT_COLUMNS, lineno + 2)
        if lineno + 1 + natoms >= len(lines):
            raise ParseError(
                f"frame declares {natoms} atoms but the file ends early",
                line=len(lines) + 1,
            )

        species, arrays = _atom_rows(
            lines[lineno + 2 : lineno + 2 + natoms], lineno + 3, width, species_at, numeric
        )
        if cell is None:
            cell = np.zeros((3, 3))
            if pbc is None:
                pbc = np.zeros(3, dtype=bool)
        elif pbc is None:
            pbc = np.ones(3, dtype=bool)
        try:
            structure = Structure(
                cell=cell,
                pbc=pbc,
                positions=arrays["pos"],
                species=species,
                forces=arrays.get("forces"),
                energy=energy,
                info=info,
            )
        except InputError as exc:
            raise ParseError(str(exc), line=lineno + 1) from exc
        structures.append(structure)
        lineno += 2 + natoms

    if not structures:
        raise ParseError("no structures found", line=1)
    return tuple(structures)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_extxyz(structures, path, selection=None) -> None:
    """Write a sequence of Structures (all, or the given indices in order)
    as extended-XYZ."""
    indices = range(len(structures)) if selection is None else selection
    with _replacing(path, encoding="utf-8") as fh:
        for idx in indices:
            s = structures[int(idx)]
            parts = []
            if s.pbc.any() or np.any(s.cell != 0):
                flat = " ".join(_fmt(v) for v in s.cell.ravel())
                parts.append(f'Lattice="{flat}"')
            props = "species:S:1:pos:R:3"
            if s.forces is not None:
                props += ":forces:R:3"
            parts.append(f"Properties={props}")
            parts.append('pbc="{} {} {}"'.format(*["T" if p else "F" for p in s.pbc]))
            if s.energy is not None:
                parts.append(f"energy={_fmt(s.energy)}")
            for key, raw in s.info.items():
                parts.append(key if raw is None else f"{key}={raw}")
            fh.write(f"{len(s)}\n")
            fh.write(" ".join(parts) + "\n")
            values = s.positions if s.forces is None else np.hstack([s.positions, s.forces])
            # One format per row; "%.17g" of a float is _fmt's text.
            row = "%s" + " %.17g" * values.shape[1] + "\n"
            fh.write("".join(row % (sym, *v) for sym, v in zip(s.species, values.tolist())))
