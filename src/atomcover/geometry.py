"""Structure model and periodic k-nearest-neighbor search.

Conventions match pymatgen/ASE: rows of the cell matrix are lattice
vectors, Cartesian positions are in angstrom, ``r = s @ cell`` maps
fractional to Cartesian coordinates.

Neighbor queries replicate periodic images explicitly and search them
with one k-d tree per structure.  The reference set is
``replicate_for_search``'s, out to ``ceil(search_radius / cell_height) + 1``
images per periodic direction.  The search lays out one image less per
side, which already holds every point within the search radius, or the
reference set when that would hold no more than k points.  Within the
search radius its result is bit for bit the reference set's; beyond it,
where the descriptor weight is 0, it is best effort.  Minimum-image
shortcuts are deliberately avoided: they are wrong for cells smaller than
the search radius, which occur routinely in the datasets this package
targets.  All atoms of a structure are searched in one batch.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import CellError, InputError

__all__ = [
    "Structure",
    "Dataset",
    "NeighborSet",
    "replicate_for_search",
    "nearest_neighbors",
]

#: Cell determinants below this (in cubic angstrom) are treated as singular.
_SINGULAR_VOLUME = 1e-12

#: Most replicated points one structure may need.  A 1-atom 0.2 angstrom
#: cell at a 5 angstrom cutoff needs 148,877; this limit only stops cells
#: far too small to be physical before they exhaust memory.
_MAX_IMAGE_POINTS = 10**7

#: Points within this many angstrom beyond the k-th nearest are candidates
#: too, so exact ties are ranked by atom and image offset, never by the tree.
_TIE_SLACK = 1e-8


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Structure:
    """One periodic or aperiodic collection of atoms.

    Parameters
    ----------
    cell : (3, 3) array
        Lattice vectors as rows, in angstrom.  May be all zeros for a
        fully aperiodic structure.
    pbc : (3,) bool array
        Periodic flags per lattice direction.
    positions : (N, 3) array
        Cartesian coordinates in angstrom.
    species : sequence of N chemical symbols
        Stored for bookkeeping and I/O; never enters any descriptor.
    forces : optional (N, 3) array
        Per-atom forces in eV/angstrom.
    energy : optional float
        Total energy in eV; carried through to reports only.
    info : dict
        Extra comment-line key/value pairs preserved for lossless
        round-trips through extended-XYZ files.
    """

    cell: np.ndarray
    pbc: np.ndarray
    positions: np.ndarray
    species: tuple[str, ...]
    forces: np.ndarray | None = None
    energy: float | None = None
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        positions = np.array(self.positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 3 or positions.shape[0] < 1:
            raise InputError(f"positions must be (N, 3) with N >= 1, got {positions.shape}")
        if not np.all(np.isfinite(positions)):
            raise InputError("positions contain non-finite values")
        cell = np.array(self.cell, dtype=float)
        if cell.shape != (3, 3):
            raise InputError(f"cell must be 3x3, got {cell.shape}")
        if not np.all(np.isfinite(cell)):
            raise InputError("cell contains non-finite values")
        pbc = np.array(self.pbc, dtype=bool)
        if pbc.shape != (3,):
            raise InputError(f"pbc must have 3 flags, got {pbc.shape}")
        if pbc.any() and abs(np.linalg.det(cell)) < _SINGULAR_VOLUME:
            raise CellError("cell is singular but periodic flags are set")
        species = tuple(str(s) for s in self.species)
        if len(species) != len(positions):
            raise InputError(
                f"species count {len(species)} does not match atom count {len(positions)}"
            )
        forces = self.forces
        if forces is not None:
            forces = np.array(forces, dtype=float)
            if forces.shape != positions.shape:
                raise InputError(
                    f"forces shape {forces.shape} does not match positions {positions.shape}"
                )
            if not np.all(np.isfinite(forces)):
                raise InputError("forces contain non-finite values")
            object.__setattr__(self, "forces", _freeze(forces))
        if self.energy is not None and not np.isfinite(self.energy):
            raise InputError(f"energy must be finite, got {self.energy}")
        object.__setattr__(self, "cell", _freeze(cell))
        object.__setattr__(self, "pbc", _freeze(pbc))
        object.__setattr__(self, "positions", _freeze(positions))
        object.__setattr__(self, "species", species)

    def __len__(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class Dataset:
    """Ordered collection of structures."""

    structures: tuple[Structure, ...]

    def __post_init__(self):
        object.__setattr__(self, "structures", tuple(self.structures))

    def __len__(self) -> int:
        return len(self.structures)

    def __iter__(self):
        return iter(self.structures)

    def __getitem__(self, i: int) -> Structure:
        return self.structures[i]

    @property
    def n_environments(self) -> int:
        """Total atom count over all structures."""
        return sum(len(s) for s in self.structures)


@dataclass(frozen=True)
class NeighborSet:
    """Sorted neighbor shells of every atom of one structure.

    Row ``i`` belongs to atom ``i``.  ``distances`` (n, v) is ascending
    along each row, ``neighbor_positions`` is (n, v, 3) and ``indices``
    (n, v) holds the neighbor's atom index.  Every atom of a structure
    searches the same images, so all rows have the same width
    ``v = min(k, M - 1)`` for the ``M`` points of
    :func:`replicate_for_search`.  Distinct periodic images of the same atom
    count as distinct neighbors; only the zero-distance self-image is
    excluded.
    """

    distances: np.ndarray
    neighbor_positions: np.ndarray
    indices: np.ndarray


def _wrap_positions(structure: Structure) -> np.ndarray:
    """Positions wrapped into the cell along periodic directions only."""
    if not structure.pbc.any():
        return structure.positions
    frac = structure.positions @ np.linalg.inv(structure.cell)
    frac = frac.copy()
    for axis in range(3):
        if structure.pbc[axis]:
            frac[:, axis] -= np.floor(frac[:, axis])
    return frac @ structure.cell


def _cell_heights(cell: np.ndarray) -> np.ndarray:
    """Perpendicular spacing between opposite cell faces, per direction."""
    volume = abs(np.linalg.det(cell))
    crosses = np.cross(cell[[1, 2, 0]], cell[[2, 0, 1]])
    return np.array([volume / np.linalg.norm(cross) for cross in crosses])


def _image_reach(structure: Structure, search_radius: float) -> tuple[int, int, int]:
    """Images per side that :func:`replicate_for_search` lays out:
    ``ceil(search_radius / h) + 1`` on each periodic axis of cell height
    ``h``, 0 on the others.

    Raises CellError, before anything is allocated, when those images would
    hold more than ``_MAX_IMAGE_POINTS`` points.
    """
    if search_radius <= 0:
        raise InputError(f"search_radius must be positive, got {search_radius}")
    if not structure.pbc.any():
        return (0, 0, 0)
    heights = _cell_heights(structure.cell)
    reach = tuple(
        int(np.ceil(search_radius / heights[axis])) + 1 if structure.pbc[axis] else 0
        for axis in range(3)
    )
    n_points = len(structure) * math.prod(2 * r + 1 for r in reach)
    if n_points > _MAX_IMAGE_POINTS:
        raise CellError(
            f"cell heights {np.array2string(heights, precision=4)} angstrom need "
            f"{n_points} periodic image points within {search_radius:g} angstrom, "
            f"more than the limit of {_MAX_IMAGE_POINTS}"
        )
    return reach


def _image_points(structure: Structure, reach) -> np.ndarray:
    """The wrapped atoms in every image out to ``reach`` per side.

    Images come in lexicographic order of their integer lattice offsets,
    each holding the atoms in structure order, so point ``p`` is atom
    ``p % n`` of image ``p // n`` and the zero-offset image is the middle
    one.  An aperiodic structure is one image, its own positions.
    """
    if not structure.pbc.any():
        return structure.positions
    offsets = np.array(list(itertools.product(*(range(-r, r + 1) for r in reach))), dtype=int)
    shifts = offsets.astype(float) @ structure.cell
    return (_wrap_positions(structure)[None, :, :] + shifts[:, None, :]).reshape(-1, 3)


def replicate_for_search(structure: Structure, search_radius: float) -> np.ndarray:
    """Replicate periodic images so that any point within ``search_radius``
    of the (wrapped) cell contents is present exactly once.

    Returns the (M, 3) positions of ``M = n * n_images`` points, where ``n``
    is the atom count.  Images come in lexicographic order of their integer
    lattice offsets, out to ``ceil(search_radius / cell_height) + 1`` per
    periodic side, each holding the wrapped atoms in structure order, so
    point ``p`` is atom ``p % n`` of image ``p // n``.  The zero-offset
    image is the middle one, ``n_images // 2``.  An aperiodic structure has
    one image: its own positions.
    """
    return _image_points(structure, _image_reach(structure, search_radius))


def _nearest_candidates(points: np.ndarray, n: int, k: int):
    """Candidate neighbors of the ``n`` atoms of the zero-offset image.

    ``points`` is laid out as :func:`_image_points` lays it out.  Returns
    the atoms' own point indices (n,) and each atom's m nearest points as
    indices into ``points`` (n, m).  ``m >= min(k + 2, len(points))``
    covers the k nearest neighbors plus the self-image, and grows until the
    last point lies clearly beyond the (k + 1)-th: every point tied with
    the k-th neighbor is then a candidate, so the tree's own order of tied
    points never decides which are kept.
    """
    # The middle, zero-offset image holds the wrapped atoms in order.
    own = len(points) // n // 2 * n + np.arange(n)
    # Query results do not depend on the tree's shape, and skipping the
    # balancing halves the build time on replicated cells.
    tree = cKDTree(points, balanced_tree=False, compact_nodes=False)
    n_points = points.shape[0]
    n_query = min(k + 2, n_points)
    while True:
        dists, cand = tree.query(points[own], k=n_query)
        dists = dists.reshape(n, n_query)
        if n_query == n_points or np.all(dists[:, -1] > dists[:, k] + _TIE_SLACK):
            return own, cand.reshape(n, n_query)
        n_query = min(2 * n_query, n_points)


def nearest_neighbors(structure: Structure, k: int, search_radius: float) -> NeighborSet:
    """Find each atom's ``k`` nearest periodic images, for all atoms at once.

    The zero-distance self-image is excluded; other images of the same
    atom are valid neighbors.  Neighbors are sorted by distance, with
    exact ties broken by (atom index, image offset lexicographic) so the
    ordering is deterministic.  One layout of images is searched, once:
    ``ceil(search_radius / cell_height)`` images per periodic side, or
    :func:`replicate_for_search`'s layout when those hold no more than
    ``k`` points.  Within ``search_radius`` the result is bit for bit that
    of a search over all points of :func:`replicate_for_search`, and so is
    the row width ``v``; neighbors beyond it, where the descriptor's cutoff
    weight is 0, may be other points at least as far.  If fewer than ``k``
    other points exist, each row holds all of them.
    """
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    n = len(structure)
    reach = _image_reach(structure, search_radius)
    # Wrapped atoms lie inside the cell, so an image offset by j cells along
    # a periodic axis lies more than j - 1 cell heights from every atom: the
    # ceil(search_radius / h) images per side, one less than the full reach,
    # hold every point within the search radius.  compute_x2 divides by the
    # row width v = min(k, points - 1); when those images hold no more than
    # k points, the full reach is searched instead, so v is the full reach's.
    inner = tuple(max(r - 1, 0) for r in reach)
    if n * math.prod(2 * r + 1 for r in inner) <= k:
        inner = reach
    points = _image_points(structure, inner)
    own, cand = _nearest_candidates(points, n, k)
    centers = points[own]
    diff = points[cand] - centers[:, None, :]
    dx, dy, dz = diff[..., 0], diff[..., 1], diff[..., 2]
    # Same bits as np.linalg.norm(diff, axis=-1), without its reduction overhead.
    dists = np.sqrt(dx * dx + dy * dy + dz * dz)
    # Sort each row by (distance, atom, image offset): among points of one
    # atom the point index runs in image order.  The self-image gets a key
    # below every distance, so it sorts first and is dropped.
    key = np.where(cand == own[:, None], -1.0, dists)
    order = np.lexsort((cand, cand % n, key), axis=1)
    order = order[:, 1 : k + 1]
    chosen = np.take_along_axis(cand, order, axis=1)
    return NeighborSet(
        distances=_freeze(np.take_along_axis(dists, order, axis=1)),
        neighbor_positions=_freeze(points[chosen]),
        indices=_freeze(chosen % n),
    )
