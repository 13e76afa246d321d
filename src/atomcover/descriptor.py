"""Per-environment descriptor built from sorted neighbor distances.

Each atom is represented by a vector of width ``2k - 1``: ``k`` two-body
entries ``w(r_ij) / r_ij`` over its sorted nearest neighbors, followed by
``k - 1`` rank-averaged three-body entries built from distances between
pairs of neighbors.  The descriptor is invariant under rigid translation,
rotation, atom-index permutation and species relabeling (species never
enter it), and a supercell produces exactly the same rows as its
primitive cell repeated.

:func:`build_descriptor_set` describes the rows of each group of
structures that :func:`atomcover.geometry._neighbor_groups` searches
together, in one call each; which candidate finder searched a group moves
no bit of its rows.

Units: entries are in inverse angstrom.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, InputError
from .geometry import NeighborSet, _distances, _neighbor_groups
from .information import _columns, _fill_store, _right_store
from .report import _replacing

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
#: blocks shrink as v grows, so its two (rows, v, v) buffers stay 512 kB
#: each and fit in L2 together.
_CHUNK_ROWS = 64
#: Largest accepted neighbor count, 32 times the default.
_MAX_NEIGHBORS = 1024
#: Neighbors closer than this (angstrom) are coincident.  A row's squared
#: norm, at most (2k - 1)/r^2 (2e303 at k = 1024), then stays below a quarter
#: of the largest float, so no kernel tile's GEMM overflows.
_COINCIDENT = 1e-150


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

    The rows are held once, in the form every kernel pass reads in place:
    a read-only C-contiguous (width + 2, n_env) store ``[y; 1; |y|^2]``,
    the rows transposed, a row of ones and the rows' squared norms
    (:func:`atomcover.information._fill_store`).  ``values`` is a
    read-only (n_env, width) view of the store's first width rows, so it
    is not C-contiguous: a row is strided, while ``values[index]`` and
    :meth:`rows_for` give new C-contiguous rows.  A set built from ``values``
    copies them into a new store; a NaN or infinite row is an InputError.
    """

    values: np.ndarray  # (n_env, width), a view of the store
    offsets: np.ndarray  # (n_structures, 2) as (start, length)
    params: DescriptorParams | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise InputError(f"values must be 2-D, got shape {values.shape}")
        self._hold(_right_store(values))

    @classmethod
    def _of_store(cls, store: np.ndarray, offsets, params) -> "DescriptorSet":
        """A set that takes a filled store of finite rows as its own, uncopied."""
        descs = cls.__new__(cls)
        object.__setattr__(descs, "offsets", offsets)
        object.__setattr__(descs, "params", params)
        descs._hold(store)
        return descs

    def _hold(self, store: np.ndarray) -> None:
        """Check the offsets and params against a store, and keep it read-only."""
        width, n_env = store.shape[0] - 2, store.shape[1]
        offsets = np.asarray(self.offsets, dtype=int)
        if offsets.ndim != 2 or offsets.shape[1] != 2:
            raise InputError(f"offsets must be (n, 2), got shape {offsets.shape}")
        ends = offsets.sum(axis=1)
        if np.any(offsets[:, 1] < 1) or np.any(offsets[:, 0] != np.append(0, ends[:-1])):
            raise InputError("offsets must form a contiguous partition of the rows")
        covered = int(ends[-1]) if len(ends) else 0
        if covered != n_env:
            raise InputError(f"offsets cover {covered} rows but values has {n_env}")
        if self.params is not None and width != self.params.width:
            raise InputError(
                f"row width {width} does not match params width {self.params.width}"
            )
        store.flags.writeable = False
        offsets.flags.writeable = False
        object.__setattr__(self, "_store", store)
        object.__setattr__(self, "values", store[:width].T)
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
        """Descriptor rows of one structure, as a new C-contiguous array.

        A copy, so that numpy reduces them in the order it reduces any
        C-contiguous rows: ``rows_for(i).mean(axis=0)`` adds rows in order.
        """
        start, length = self.offsets[structure_index]
        return np.ascontiguousarray(self.values[start : start + length])

    def subset(self, structure_indices) -> "DescriptorSet":
        """New set holding only the given structures, in the given order."""
        rows, offsets = self._subset_rows(structure_indices)
        return DescriptorSet._of_store(_columns(self._store, rows), offsets, self.params)

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
        """Yield (structure indices, their row indices as one (B, n) array).

        Structures of equal row count n are stacked in index order, at most
        ``max(1, max_rows // n)`` per stack, so every structure lands in
        exactly one stack and a stack holds at most ``max(max_rows, n)``
        rows.
        """
        starts, lengths = self.offsets[:, 0], self.offsets[:, 1]
        sizes, counts = np.unique(lengths, return_counts=True)
        groups = np.split(np.argsort(lengths, kind="stable"), np.cumsum(counts)[:-1])
        for n, group in zip(sizes.tolist(), groups):
            per = max(1, max_rows // n)
            for b0 in range(0, len(group), per):
                index = group[b0 : b0 + per]
                yield index, starts[index, None] + np.arange(n)


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
    A neighbor closer than ``_COINCIDENT`` is a DegenerateGeometryError;
    the three-body terms need no such floor, as two neighbors that close
    are two atoms that close.
    """
    r = nbrs.distances
    bad = np.flatnonzero((r < _COINCIDENT).any(axis=1))
    if bad.size:
        raise DegenerateGeometryError(
            f"atom {bad[0]}: coincident atoms, a neighbor closer than {_COINCIDENT:g} angstrom"
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
    v = 32, so the two (rows, v, v) buffers stay 512 kB each however many
    rows come in; each row is independent of its block, so the block size
    moves no bit.
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
    ``dist`` and ``terms`` are (rows, v, v) buffers that are overwritten;
    ``dist`` takes the neighbors' distances from :func:`_distances`.
    """
    m, v = distances.shape
    w = _cutoff_weight(distances, params.cutoff)
    p = np.ascontiguousarray(pos.transpose(2, 0, 1))  # (3, m, v)
    _distances(p[..., :, None], p[..., None, :], dist, terms)
    # The diagonal distance is 0, so its terms are inf, or nan for a
    # neighbor beyond the cutoff; they are overwritten below.
    with np.errstate(invalid="ignore", divide="ignore"):
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
    """:func:`build_descriptor_set` over a sequence of structures: the rows
    of each group of :func:`atomcover.geometry._neighbor_groups`, described
    at once and placed in the store."""
    k, width = params.n_neighbors, params.width
    lengths = np.array([len(s) for s in structures], dtype=int)
    starts = np.cumsum(lengths) - lengths
    store = np.empty((width + 2, int(lengths.sum())))
    for indices, nbrs in _neighbor_groups(structures, params.cutoff, k):
        rows = (starts[indices][:, None] + np.arange(lengths[indices[0]])).ravel()
        store[:k, rows] = compute_x1(nbrs, params).T
        store[k:width, rows] = compute_x2(nbrs, params).T
    _fill_store(store)
    offsets = np.stack([starts, lengths], axis=1)
    return DescriptorSet._of_store(store, offsets, params)


_CACHE_MAGIC = b"ACDS0003"
_CACHE_HEADER = struct.Struct("<IdQQ")
_CACHE_CHECKSUM = struct.Struct("<I")


def save_descriptor_set(descs: DescriptorSet, path) -> None:
    """Write a binary cache: header (k, cutoff, counts), offsets, rows, checksum.

    Layout is little-endian: magic, u32 neighbor count, f64 cutoff,
    u64 environment count, u64 structure count, then (start, length)
    pairs as i64, the first width rows of the set's store, each a
    contiguous run of n_env f64 (``values.T``, written from the store as
    it lies in memory), and a u32 ``zlib.crc32`` of those pairs and rows.
    The file is written under a temporary name in the same directory and
    renamed into place, so an interrupted write never leaves a partial
    cache at ``path``.
    """
    if descs.params is None:
        raise InputError("cannot cache a descriptor set without params")
    offsets = np.ascontiguousarray(descs.offsets, dtype="<i8")
    # A copy only on a big-endian host.
    body = np.asarray(descs._store[: descs.width], dtype="<f8")
    with _replacing(path, "wb") as fh:
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
        fh.write(body)
        fh.write(_CACHE_CHECKSUM.pack(zlib.crc32(body, zlib.crc32(offsets))))


def load_descriptor_set(path) -> DescriptorSet:
    """Read a cache written by :func:`save_descriptor_set`.

    Raises InputError unless the magic, the header, the exact file length
    and the checksum all match, on a short read (a file that shrinks
    while it is read), and on a NaN or infinite row.  Files of the older
    formats (the checksum-free one, and the one of row-major values) fail
    on the magic.  The offsets are read straight into their array, and the
    rows straight into the first width rows of the set's store, which
    :func:`atomcover.information._fill_store` then finishes.
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
        store = np.empty((params.width + 2, n_env))
        body = store[: params.width]
        for array in (offsets, body):
            if fh.readinto(array) != array.nbytes:
                raise InputError(f"{path}: descriptor cache is truncated")
        tail = fh.read(_CACHE_CHECKSUM.size)
        if len(tail) != _CACHE_CHECKSUM.size:
            raise InputError(f"{path}: descriptor cache is truncated")
    if zlib.crc32(body, zlib.crc32(offsets)) != _CACHE_CHECKSUM.unpack(tail)[0]:
        raise InputError(f"{path}: descriptor cache checksum does not match")
    if not np.little_endian:
        body.byteswap(inplace=True)
    _fill_store(store)
    return DescriptorSet._of_store(store, offsets.astype(int, copy=False), params)
