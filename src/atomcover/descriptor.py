"""Per-environment descriptor built from sorted neighbor distances.

Each atom is represented by a vector of width ``2k - 1``: ``k`` two-body
entries ``w(r_ij) / r_ij`` over its sorted nearest neighbors, followed by
``k - 1`` rank-averaged three-body entries built from distances between
pairs of neighbors.  The descriptor is invariant under rigid translation,
rotation, atom-index permutation and species relabeling (species never
enter it), and a supercell produces exactly the same rows as its
primitive cell repeated.

:func:`build_descriptor_set` searches and describes structures of few
atom-point pairs in batches of one atom count and image reach, where
per-structure overhead would dominate, without a tree.  Every other
structure gets its own k-d tree, but is grouped the same way, so that its
neighbors are ranked and its rows described together with its group's.
A row's bits do not depend on the route it took.

Units: entries are in inverse angstrom.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, InputError
from .geometry import NeighborSet, _batched_neighbors, _image_reaches, _tree_neighbors

# Unused here, but bound: the benchmark's tracer (benchmarks/spans.py) wraps
# every binding of nearest_neighbors, and its tests expect this one.
from .geometry import nearest_neighbors  # noqa: F401

__all__ = [
    "DescriptorParams",
    "DescriptorSet",
    "compute_x1",
    "compute_x2",
    "build_descriptor_set",
    "save_descriptor_set",
    "load_descriptor_set",
]

#: Atoms per block in :func:`compute_x2` for up to 32 neighbors per atom;
#: blocks shrink as v grows, so its two (rows, v, v) buffers stay 1 MB each.
_CHUNK_ROWS = 128
#: Most atom-point pairs in one batch, so its (rows, points) arrays stay
#: within 256 kB.  A structure of n atoms and P layout points batches when
#: two of it fit, 2 n P <= _BATCH_PAIRS; past that the tree is as fast.
_BATCH_PAIRS = 2**15
#: Most rows, and layout points, in one group of the k-d tree route: the
#: group ranks and describes its rows at once, and holds every layout and
#: tree at once.  A structure of more atoms or points goes alone.
_TREE_ROWS = 256
_TREE_POINTS = 2**16
#: Largest accepted neighbor count, 32 times the default.
_MAX_NEIGHBORS = 1024


@dataclass(frozen=True)
class DescriptorParams:
    """Descriptor hyperparameters: neighbor count and radial cutoff."""

    n_neighbors: int = 32
    cutoff: float = 5.0

    def __post_init__(self):
        if not 2 <= self.n_neighbors <= _MAX_NEIGHBORS:
            raise InputError(
                f"n_neighbors must be in [2, {_MAX_NEIGHBORS}], got {self.n_neighbors}"
            )
        if not 0 < self.cutoff < np.inf:
            raise InputError(f"cutoff must be positive and finite, got {self.cutoff}")

    @property
    def width(self) -> int:
        """Descriptor row width: k two-body plus k-1 three-body entries."""
        return 2 * self.n_neighbors - 1


@dataclass(frozen=True)
class DescriptorSet:
    """Flat matrix of per-environment descriptor rows.

    ``offsets`` maps structures to row ranges: row ``offsets[i, 0]`` up to
    (but excluding) ``offsets[i, 0] + offsets[i, 1]`` belongs to structure
    ``i``.  Ranges form a contiguous partition of the rows, in order.
    """

    values: np.ndarray  # (n_env, width)
    offsets: np.ndarray  # (n_structures, 2) as (start, length)
    params: DescriptorParams | None = None

    def __post_init__(self):
        values = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if values.ndim != 2:
            raise InputError(f"values must be 2-D, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise InputError("descriptor values must be finite")
        offsets = np.asarray(self.offsets, dtype=int)
        if offsets.ndim != 2 or offsets.shape[1] != 2:
            raise InputError(f"offsets must be (n, 2), got shape {offsets.shape}")
        ends = offsets.sum(axis=1)
        if np.any(offsets[:, 1] < 1) or np.any(offsets[:, 0] != np.append(0, ends[:-1])):
            raise InputError("offsets must form a contiguous partition of the rows")
        covered = int(ends[-1]) if len(ends) else 0
        if covered != values.shape[0]:
            raise InputError(f"offsets cover {covered} rows but values has {values.shape[0]}")
        if self.params is not None and values.shape[1] != self.params.width:
            raise InputError(
                f"row width {values.shape[1]} does not match params width {self.params.width}"
            )
        values.flags.writeable = False
        offsets.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "offsets", offsets)

    @property
    def n_environments(self) -> int:
        return self.values.shape[0]

    @property
    def n_structures(self) -> int:
        return self.offsets.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    def rows_for(self, structure_index: int) -> np.ndarray:
        """Descriptor rows of one structure (a view)."""
        start, length = self.offsets[structure_index]
        return self.values[start : start + length]

    def subset(self, structure_indices) -> "DescriptorSet":
        """New set holding only the given structures, in the given order."""
        rows, offsets = self._subset_rows(structure_indices)
        return DescriptorSet(values=self.values[rows], offsets=offsets, params=self.params)

    def _subset_rows(self, structure_indices):
        """The rows of :meth:`subset` in this set, and the subset's offsets."""
        indices = np.array(list(structure_indices), dtype=int)
        if np.unique(indices).size != indices.size:
            raise InputError("structure indices must be unique")
        bad = np.flatnonzero((indices < 0) | (indices >= self.n_structures))
        if bad.size:
            raise InputError(f"structure index {indices[bad[0]]} out of range")
        if not indices.size:
            raise InputError("subset selection is empty")
        starts, lengths = self.offsets[indices].T
        new_starts = np.cumsum(lengths) - lengths
        rows = np.repeat(starts - new_starts, lengths) + np.arange(new_starts[-1] + lengths[-1])
        return rows, np.stack([new_starts, lengths], axis=1)

    def _stacks(self, max_rows: int):
        """Yield (structure indices, their rows as one (B, n, width) array).

        Structures of equal row count n are stacked in index order, at most
        ``max(1, max_rows // n)`` per stack, so every structure lands in
        exactly one stack and a stack holds at most ``max(max_rows, n)``
        rows.  Each stack is a copy of its rows.
        """
        starts, lengths = self.offsets[:, 0], self.offsets[:, 1]
        sizes, counts = np.unique(lengths, return_counts=True)
        groups = np.split(np.argsort(lengths, kind="stable"), np.cumsum(counts)[:-1])
        for n, group in zip(sizes.tolist(), groups):
            per = max(1, max_rows // n)
            for b0 in range(0, len(group), per):
                index = group[b0 : b0 + per]
                yield index, self.values[starts[index, None] + np.arange(n)]


def _cutoff_weight(r, cutoff: float):
    """Smooth cutoff weight ``(1 - (r/cutoff)^2)^2`` for ``r <= cutoff``, else 0.

    Continuous with continuous first derivative at the cutoff.  Accepts
    scalars or arrays; distances must be non-negative.
    """
    if cutoff <= 0:
        raise InputError(f"cutoff must be positive, got {cutoff}")
    arr = np.asarray(r, dtype=float)
    if np.any(arr < 0):
        raise InputError("distances must be non-negative")
    x = np.minimum(arr, cutoff) / cutoff
    w = (1.0 - x * x) ** 2
    if np.isscalar(r):
        return float(w)
    return w


def compute_x1(nbrs: NeighborSet, params: DescriptorParams) -> np.ndarray:
    """Two-body block, (n, k): ``w(r_ij) / r_ij`` in ascending-distance order.

    Row ``i`` belongs to atom ``i``.  Slots past the last neighbor found
    are zero.  Entries are kept in radial order, not re-sorted by value.
    """
    r = nbrs.distances
    bad = np.flatnonzero((r <= 0).any(axis=1))
    if bad.size:
        raise DegenerateGeometryError(
            f"atom {bad[0]}: coincident atoms, zero distance to a neighbor"
        )
    out = np.zeros((r.shape[0], params.n_neighbors))
    out[:, : r.shape[1]] = _cutoff_weight(r, params.cutoff) / r
    return out


def compute_x2(nbrs: NeighborSet, params: DescriptorParams) -> np.ndarray:
    """Three-body block, (n, k - 1), from distances between pairs of neighbors.

    For each neighbor j the terms ``sqrt(w(r_ij) w(r_il)) / r_jl`` over
    the other neighbors l are sorted descending; the block is the
    rank-wise mean over j, re-sorted descending, zero-padded to ``k - 1``.
    Atoms go through in blocks of at most ``_CHUNK_ROWS`` rows, fewer past
    v = 32, so the two (rows, v, v) buffers stay small however many rows
    come in; each row is independent of its block.
    """
    n, v = nbrs.distances.shape
    out = np.zeros((n, params.n_neighbors - 1))
    if v < 2:  # no pair of neighbors
        return out
    chunk = min(_CHUNK_ROWS, max(1, _CHUNK_ROWS * 32**2 // v**2))
    dist, terms = np.empty((2, min(chunk, n), v, v))
    for c0 in range(0, n, chunk):
        rows = slice(c0, c0 + chunk)
        m = min(chunk, n - c0)
        out[rows, : v - 1] = _x2_rows(
            nbrs.neighbor_positions[rows], nbrs.distances[rows], c0, params, dist[:m], terms[:m]
        )
    return out


def _x2_rows(pos, distances, first_atom, params, dist, terms) -> np.ndarray:
    """:func:`compute_x2` for one block of atoms, the first being ``first_atom``.

    Returns the v - 1 ranks, (rows, v - 1), for v neighbors per atom.
    ``dist`` and ``terms`` are (rows, v, v) buffers that are overwritten.
    """
    m, v = distances.shape
    w = _cutoff_weight(distances, params.cutoff)
    p = np.ascontiguousarray(pos.transpose(2, 0, 1))  # (3, m, v)
    # The diagonal distance is 0, so its terms are inf, or nan for a
    # neighbor beyond the cutoff; they are overwritten below.
    with np.errstate(invalid="ignore", divide="ignore"):
        # Same bits as the norm over the last axis of the (.., 3)
        # differences, one coordinate at a time.
        np.subtract(p[0, :, :, None], p[0, :, None, :], out=dist)
        dist *= dist
        for axis in (1, 2):
            np.subtract(p[axis, :, :, None], p[axis, :, None, :], out=terms)
            terms *= terms
            dist += terms
        np.sqrt(dist, out=dist)
        # One multiply per element, as np.multiply broadcasts it, but faster.
        np.einsum("ij,ik->ijk", w, w, out=terms)
        np.sqrt(terms, out=terms)
        terms /= dist
    diag = np.arange(v)
    # Neighbors are at distance 0 only from themselves, on the diagonal.
    if np.count_nonzero(dist <= 0) > m * v:
        coincident = dist <= 0
        coincident[:, diag, diag] = False
        bad = np.flatnonzero(coincident.any(axis=(1, 2)))
        raise DegenerateGeometryError(f"atom {first_atom + bad[0]}: coincident neighbors")
    # The zero on the diagonal sorts below every real term, so the top
    # v - 1 ranks of row j are its real terms.
    terms[:, diag, diag] = 0.0
    terms.sort(axis=2)
    # Rank r (descending) is column v - 1 - r.  Rank-wise sums of rows sorted
    # descending are themselves descending, so no final sort is needed.
    return terms.sum(axis=1)[:, :0:-1] / v


def build_descriptor_set(structures, params: DescriptorParams) -> DescriptorSet:
    """Compute one descriptor row per atom over a sequence of Structures.

    Rows are ordered by (structure index, atom index).  A geometry error
    names the first structure in sequence order that fails, and its atom.
    """
    try:
        return _build(structures, params)
    except DegenerateGeometryError as exc:
        error = exc
    # Groups do not run in sequence order, and a group's error names its
    # row, so the structures go through one at a time until one fails.
    for si, structure in enumerate(structures):
        try:
            _build((structure,), params)
        except DegenerateGeometryError as exc:
            raise DegenerateGeometryError(f"structure {si}, {exc}") from exc
    raise error


def _build(structures, params: DescriptorParams) -> DescriptorSet:
    """:func:`build_descriptor_set` over a sequence of structures.

    Structures are grouped by atom count n and image reach, so a group's
    search layouts share one size P.  Where n and P make at most
    ``_BATCH_PAIRS // 2`` pairs, ``_BATCH_PAIRS // (n * P)`` structures are
    searched at once without a tree (:func:`_batched_neighbors`); otherwise
    each structure gets its own k-d tree, in groups of at most
    ``_TREE_ROWS`` rows and ``_TREE_POINTS`` layout points, or of one
    structure (:func:`_tree_neighbors`).  Either way the group's
    candidates are ranked, and its rows described, in one call each.  Rows
    are the same bits either way.
    """
    k, cutoff = params.n_neighbors, params.cutoff
    lengths = np.array([len(s) for s in structures], dtype=int)
    starts = np.cumsum(lengths) - lengths
    reaches = _image_reaches(structures, cutoff, k)
    points = lengths * np.prod(2 * reaches + 1, axis=1)
    values = np.empty((int(lengths.sum()), params.width))

    def describe(indices, nbrs):
        rows = (starts[indices][:, None] + np.arange(lengths[indices[0]])).ravel()
        values[rows, :k] = compute_x1(nbrs, params)
        values[rows, k:] = compute_x2(nbrs, params)

    groups = {}
    for si in range(len(structures)):
        groups.setdefault((lengths[si], *reaches[si]), []).append(si)
    for (n, *reach), indices in groups.items():
        p = points[indices[0]]
        if 2 * n * p <= _BATCH_PAIRS:
            search, size = _batched_neighbors, _BATCH_PAIRS // (n * p)
        else:
            search, size = _tree_neighbors, max(1, min(_TREE_ROWS // n, _TREE_POINTS // p))
        for c0 in range(0, len(indices), size):
            batch = indices[c0 : c0 + size]
            describe(batch, search([structures[i] for i in batch], tuple(reach), k))
    return DescriptorSet(values=values, offsets=np.stack([starts, lengths], axis=1), params=params)


_CACHE_MAGIC = b"ACDS0002"
_CACHE_HEADER = struct.Struct("<IdQQ")
_CACHE_CHECKSUM = struct.Struct("<I")


def save_descriptor_set(descs: DescriptorSet, path) -> None:
    """Write a binary cache: header (k, cutoff, counts), offsets, rows, checksum.

    Layout is little-endian: magic, u32 neighbor count, f64 cutoff,
    u64 environment count, u64 structure count, then (start, length)
    pairs as i64, the row-major f64 value matrix and a u32 ``zlib.crc32``
    of those pairs and values.  The file is written under a temporary
    name in the same directory and renamed into place, so an interrupted
    write never leaves a partial cache at ``path``.
    """
    if descs.params is None:
        raise InputError("cannot cache a descriptor set without params")
    offsets = np.ascontiguousarray(descs.offsets, dtype="<i8").tobytes()
    values = np.ascontiguousarray(descs.values, dtype="<f8").tobytes()
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_CACHE_MAGIC)
            fh.write(
                _CACHE_HEADER.pack(
                    descs.params.n_neighbors,
                    descs.params.cutoff,
                    descs.n_environments,
                    descs.n_structures,
                )
            )
            fh.write(offsets)
            fh.write(values)
            fh.write(_CACHE_CHECKSUM.pack(zlib.crc32(values, zlib.crc32(offsets))))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_descriptor_set(path) -> DescriptorSet:
    """Read a cache written by :func:`save_descriptor_set`.

    Raises InputError unless the magic, the header, the exact file length
    and the checksum all match, and on a short read (a file that shrinks
    while it is read).  Files of the older checksum-free format fail on
    the magic.  The offsets and the rows are read straight into their
    arrays, with no intermediate bytes copy.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(_CACHE_MAGIC)) != _CACHE_MAGIC:
            raise InputError(f"{path}: not a descriptor cache file of this version")
        header = fh.read(_CACHE_HEADER.size)
        if len(header) != _CACHE_HEADER.size:
            raise InputError(f"{path}: descriptor cache header is truncated")
        n_neighbors, cutoff, n_env, n_structures = _CACHE_HEADER.unpack(header)
        params = DescriptorParams(n_neighbors=n_neighbors, cutoff=cutoff)
        expected = (
            len(_CACHE_MAGIC) + _CACHE_HEADER.size + 16 * n_structures
            + 8 * n_env * params.width + _CACHE_CHECKSUM.size
        )
        if size != expected:
            raise InputError(
                f"{path}: descriptor cache is {size} bytes, its header implies {expected}"
            )
        offsets = np.empty((n_structures, 2), dtype="<i8")
        values = np.empty((n_env, params.width), dtype="<f8")
        for arr in (offsets, values):
            if fh.readinto(arr) != arr.nbytes:
                raise InputError(f"{path}: descriptor cache is truncated")
        checksum = fh.read(_CACHE_CHECKSUM.size)
        if len(checksum) != _CACHE_CHECKSUM.size:
            raise InputError(f"{path}: descriptor cache is truncated")
    if zlib.crc32(values, zlib.crc32(offsets)) != _CACHE_CHECKSUM.unpack(checksum)[0]:
        raise InputError(f"{path}: descriptor cache checksum does not match")
    return DescriptorSet(
        values=values.astype(float, copy=False),
        offsets=offsets.astype(int, copy=False),
        params=params,
    )
