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
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, InputError
from .geometry import Dataset, NeighborSet, nearest_neighbors

__all__ = [
    "DescriptorParams",
    "DescriptorSet",
    "cutoff_weight",
    "compute_x1",
    "compute_x2",
    "build_descriptor_set",
    "save_descriptor_set",
    "load_descriptor_set",
]


@dataclass(frozen=True)
class DescriptorParams:
    """Descriptor hyperparameters: neighbor count and radial cutoff."""

    n_neighbors: int = 32
    cutoff: float = 5.0

    def __post_init__(self):
        if self.n_neighbors < 2:
            raise InputError(f"n_neighbors must be >= 2, got {self.n_neighbors}")
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
        expected_start = 0
        for start, length in offsets:
            if start != expected_start or length < 1:
                raise InputError("offsets must form a contiguous partition of the rows")
            expected_start = start + length
        if expected_start != values.shape[0]:
            raise InputError(
                f"offsets cover {expected_start} rows but values has {values.shape[0]}"
            )
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
        indices = [int(i) for i in structure_indices]
        if len(set(indices)) != len(indices):
            raise InputError("structure indices must be unique")
        blocks = []
        offsets = []
        pos = 0
        for i in indices:
            if not 0 <= i < self.n_structures:
                raise InputError(f"structure index {i} out of range")
            block = self.rows_for(i)
            blocks.append(block)
            offsets.append((pos, len(block)))
            pos += len(block)
        if not blocks:
            raise InputError("subset selection is empty")
        return DescriptorSet(
            values=np.concatenate(blocks, axis=0),
            offsets=np.asarray(offsets, dtype=int),
            params=self.params,
        )


def cutoff_weight(r, cutoff: float):
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
    """Two-body block: ``w(r_ij) / r_ij`` in ascending-distance order.

    Slots past the last real neighbor are zero.  Entries are kept in
    radial order, not re-sorted by value.
    """
    k = params.n_neighbors
    out = np.zeros(k)
    v = nbrs.valid_count
    if v == 0:
        return out
    r = nbrs.distances[:v]
    if np.any(r <= 0):
        raise DegenerateGeometryError(
            f"coincident atoms: zero distance to neighbor of atom {nbrs.center_index}"
        )
    out[:v] = cutoff_weight(r, params.cutoff) / r
    return out


def compute_x2(nbrs: NeighborSet, params: DescriptorParams) -> np.ndarray:
    """Three-body block from distances between pairs of neighbors.

    For each neighbor j the terms ``sqrt(w(r_ij) w(r_il)) / r_jl`` over
    the other neighbors l are sorted descending; the block is the
    rank-wise mean over j, re-sorted descending, zero-padded to ``k - 1``.
    """
    k = params.n_neighbors
    out = np.zeros(k - 1)
    v = nbrs.valid_count
    if v <= 1:
        return out
    pos = nbrs.neighbor_positions[:v]
    w = cutoff_weight(nbrs.distances[:v], params.cutoff)
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    off_diag = ~np.eye(v, dtype=bool)
    if np.any(dist[off_diag] <= 0):
        raise DegenerateGeometryError(
            f"coincident neighbors around atom {nbrs.center_index}"
        )
    np.fill_diagonal(dist, 1.0)  # avoid 0/0; the slot is discarded below
    terms = np.sqrt(np.outer(w, w)) / dist
    np.fill_diagonal(terms, -1.0)  # sorts past every real (non-negative) term
    ranked = -np.sort(-terms, axis=1)[:, : v - 1]
    out[: v - 1] = ranked.sum(axis=0) / v
    return -np.sort(-out)


def build_descriptor_set(dataset: Dataset, params: DescriptorParams) -> DescriptorSet:
    """Compute one descriptor row per atom over all structures.

    Rows are ordered by (structure index, atom index).  Geometry errors
    are re-raised with the offending structure and atom named.
    """
    k = params.n_neighbors
    n_env = dataset.n_environments
    values = np.empty((n_env, params.width))
    offsets = np.empty((len(dataset), 2), dtype=int)
    pos = 0
    for si, structure in enumerate(dataset):
        nbrs = nearest_neighbors(structure, k, search_radius=params.cutoff)
        for ai, nb in enumerate(nbrs):
            try:
                values[pos + ai, :k] = compute_x1(nb, params)
                values[pos + ai, k:] = compute_x2(nb, params)
            except DegenerateGeometryError as exc:
                raise DegenerateGeometryError(
                    f"structure {si}, atom {ai}: {exc}"
                ) from exc
        offsets[si] = (pos, len(structure))
        pos += len(structure)
    return DescriptorSet(values=values, offsets=offsets, params=params)


_CACHE_MAGIC = b"ACDS0001"
_CACHE_HEADER = struct.Struct("<IdQQ")


def save_descriptor_set(descs: DescriptorSet, path) -> None:
    """Write a binary cache: header (k, cutoff, counts), offsets, rows.

    Layout is little-endian: magic, u32 neighbor count, f64 cutoff,
    u64 environment count, u64 structure count, then (start, length)
    pairs as i64 and the row-major f64 value matrix.  The file is written
    under a temporary name in the same directory and renamed into place,
    so an interrupted write never leaves a partial cache at ``path``.
    """
    if descs.params is None:
        raise InputError("cannot cache a descriptor set without params")
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
            fh.write(np.ascontiguousarray(descs.offsets, dtype="<i8").tobytes())
            fh.write(np.ascontiguousarray(descs.values, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_descriptor_set(path) -> DescriptorSet:
    """Read a cache written by :func:`save_descriptor_set`.

    Raises InputError unless the magic, the header and the exact file
    length all match what the header describes.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(_CACHE_MAGIC)) != _CACHE_MAGIC:
            raise InputError(f"{path}: not a descriptor cache file")
        header = fh.read(_CACHE_HEADER.size)
        if len(header) != _CACHE_HEADER.size:
            raise InputError(f"{path}: descriptor cache header is truncated")
        n_neighbors, cutoff, n_env, n_structures = _CACHE_HEADER.unpack(header)
        params = DescriptorParams(n_neighbors=n_neighbors, cutoff=cutoff)
        expected = (
            len(_CACHE_MAGIC) + _CACHE_HEADER.size
            + 16 * n_structures + 8 * n_env * params.width
        )
        if size != expected:
            raise InputError(
                f"{path}: descriptor cache is {size} bytes, its header implies {expected}"
            )
        offsets = np.frombuffer(fh.read(16 * n_structures), dtype="<i8").reshape(
            n_structures, 2
        )
        values = np.frombuffer(
            fh.read(8 * n_env * params.width), dtype="<f8"
        ).reshape(n_env, params.width)
    return DescriptorSet(
        values=values.astype(float),
        offsets=offsets.astype(int),
        params=params,
    )
