"""Per-environment descriptor built from sorted neighbor distances.

Each atom is represented by a vector of width ``2k - 1``: ``k`` two-body
entries ``w(r_ij) / r_ij`` over its sorted nearest neighbors, followed by
``k - 1`` rank-averaged three-body entries built from distances between
pairs of neighbors.  The descriptor is invariant under rigid translation,
rotation, atom-index permutation and species relabeling (species never
enter it), and a supercell produces exactly the same rows as its
primitive cell repeated.

Units: entries are in inverse angstrom.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, InputError
from .geometry import Dataset, NeighborSet, nearest_neighbors

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
#: blocks shrink as v grows, so the (rows, v, v) temporaries stay about 4 MB.
_CHUNK_ROWS = 512
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
        return DescriptorSet(
            values=self.values[rows],
            offsets=np.stack([new_starts, lengths], axis=1),
            params=self.params,
        )


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
    v = 32, so the (rows, v, v) temporaries stay small however large the
    structure; each row is independent of its block.
    """
    n, v = nbrs.distances.shape
    out = np.zeros((n, params.n_neighbors - 1))
    if v < 2:  # no pair of neighbors
        return out
    chunk = min(_CHUNK_ROWS, max(1, _CHUNK_ROWS * 32**2 // v**2))
    for c0 in range(0, n, chunk):
        rows = slice(c0, c0 + chunk)
        out[rows, : v - 1] = _x2_rows(
            nbrs.neighbor_positions[rows], nbrs.distances[rows], c0, params
        )
    return out


def _x2_rows(pos, distances, first_atom, params) -> np.ndarray:
    """:func:`compute_x2` for one block of atoms, the first being ``first_atom``.

    Returns the v - 1 ranks, (rows, v - 1), for v neighbors per atom.
    """
    m, v = distances.shape
    w = _cutoff_weight(distances, params.cutoff)
    p = np.ascontiguousarray(pos.transpose(2, 0, 1))  # (3, m, v)
    # The diagonal distance is 0, so its terms are inf, or nan for a
    # neighbor beyond the cutoff; they are overwritten below.
    with np.errstate(invalid="ignore", divide="ignore"):
        d = p[:, :, :, None] - p[:, :, None, :]
        d *= d
        # Same bits as the norm over the last axis of the (.., 3) differences.
        dist = d[0] + d[1]
        dist += d[2]
        np.sqrt(dist, out=dist)
        terms = w[:, :, None] * w[:, None, :]
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


def build_descriptor_set(dataset: Dataset, params: DescriptorParams) -> DescriptorSet:
    """Compute one descriptor row per atom over all structures.

    Rows are ordered by (structure index, atom index).  Geometry errors
    are re-raised with the offending structure and atom named.
    """
    k = params.n_neighbors
    values = np.empty((dataset.n_environments, params.width))
    offsets = np.empty((len(dataset), 2), dtype=int)
    pos = 0
    for si, structure in enumerate(dataset):
        nbrs = nearest_neighbors(structure, k, search_radius=params.cutoff)
        rows = values[pos : pos + len(structure)]
        try:
            rows[:, :k] = compute_x1(nbrs, params)
            rows[:, k:] = compute_x2(nbrs, params)
        except DegenerateGeometryError as exc:
            raise DegenerateGeometryError(f"structure {si}, {exc}") from exc
        offsets[si] = (pos, len(structure))
        pos += len(structure)
    return DescriptorSet(values=values, offsets=offsets, params=params)


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
    and the checksum all match.  Files of the older checksum-free format
    fail on the magic.
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
        n_offsets, n_values = 16 * n_structures, 8 * n_env * params.width
        expected = (
            len(_CACHE_MAGIC) + _CACHE_HEADER.size + n_offsets + n_values
            + _CACHE_CHECKSUM.size
        )
        if size != expected:
            raise InputError(
                f"{path}: descriptor cache is {size} bytes, its header implies {expected}"
            )
        offsets = fh.read(n_offsets)
        values = fh.read(n_values)
        (checksum,) = _CACHE_CHECKSUM.unpack(fh.read(_CACHE_CHECKSUM.size))
    if zlib.crc32(values, zlib.crc32(offsets)) != checksum:
        raise InputError(f"{path}: descriptor cache checksum does not match")
    return DescriptorSet(
        values=np.frombuffer(values, dtype="<f8").reshape(n_env, params.width).astype(float),
        offsets=np.frombuffer(offsets, dtype="<i8").reshape(n_structures, 2).astype(int),
        params=params,
    )
