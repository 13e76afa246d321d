"""Structure model and periodic k-nearest-neighbor search.

Conventions match pymatgen/ASE: rows of the cell matrix are lattice
vectors, Cartesian positions are in angstrom, ``r = s @ cell`` maps
fractional to Cartesian coordinates.

Neighbor queries lay out periodic images explicitly and search them
once.  Each structure gets one layout:
``ceil(search_radius / cell_height)`` images per periodic side, which holds
every point within the search radius, widened by one image per periodic
side while it holds no more than k points.  So every atom of a periodic
structure gets exactly k neighbors, and an atom of an n-atom aperiodic one
``min(k, n - 1)``.  Minimum-image shortcuts are deliberately avoided: they
are wrong for cells smaller than the search radius, which occur routinely
in the datasets this package targets.  All atoms of a structure are
searched in one batch.

Two searches find the candidates of a group of structures of one atom
count and image reach, and one ranking step turns them into the group's
neighbors.  :func:`_tree_neighbors` builds one k-d tree per structure;
scipy is imported there, on the first tree search, not when this module
loads.  :func:`nearest_neighbors` is its one-structure case.
:func:`_batched_neighbors` stacks the layouts and computes every
distance, which costs less than a tree where the layouts are small.
Layouts are computed over stacked cells, with the same bits per cell as
alone.  Both searches widen their candidates in one loop until every point
tied with the k-th neighbor is one; the ranking recomputes each distance
with one formula and sorts by (distance, atom, point), so both give the
same bits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGeometryError, InputError

__all__ = [
    "Structure",
    "NeighborSet",
    "nearest_neighbors",
]

#: Cell determinants below this (in cubic angstrom) are treated as singular.
_SINGULAR_VOLUME = 1e-12

#: Most image points one structure may lay out.  A 1-atom 0.2 angstrom cell
#: at a 5 angstrom cutoff needs 51**3 = 132,651; this limit only stops cells
#: far too small to be physical before they exhaust memory.
_MAX_IMAGE_POINTS = 10**7

#: Points within this many angstrom beyond the k-th nearest are candidates
#: too, so exact ties are ranked by atom and image offset, never by the tree.
_TIE_SLACK = 1e-8

#: Candidates per atom that a batched search takes first beyond the k
#: nearest points and the self-image (the tree takes one).
_BATCH_SPARE = 8


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
            raise DegenerateGeometryError("cell is singular but periodic flags are set")
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
class NeighborSet:
    """Sorted neighbor shells of every atom of one structure.

    Row ``i`` belongs to atom ``i``.  ``distances`` (n, v) is ascending
    along each row, ``neighbor_positions`` is (n, v, 3) and ``indices``
    (n, v) holds the neighbor's atom index.  Every atom of a structure
    searches the same images, so all rows have the same width ``v``: ``k``
    for a periodic structure, ``min(k, n - 1)`` for an aperiodic one.
    Distinct periodic images of the same atom count as distinct neighbors;
    only the zero-distance self-image is excluded.
    """

    distances: np.ndarray
    neighbor_positions: np.ndarray
    indices: np.ndarray


def _cell_heights(cells: np.ndarray) -> np.ndarray:
    """Perpendicular spacing between opposite cell faces, per direction, of
    one cell (3, 3) or of each cell of a stack (..., 3, 3)."""
    volume = np.abs(np.linalg.det(cells))
    a, b = cells[..., [1, 2, 0], :], cells[..., [2, 0, 1], :]
    # np.cross's arithmetic, without its per-call overhead.
    crosses = np.stack(
        [
            a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1],
            a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2],
            a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0],
        ],
        axis=-1,
    )
    # One dot product per cross product, as np.linalg.norm takes it on one
    # vector, so a stack gives each cell's heights to the bit.
    squares = (crosses[..., None, :] @ crosses[..., :, None])[..., 0, 0]
    return volume[..., None] / np.sqrt(squares)


def _image_reaches(structures, search_radius: float, k: int) -> np.ndarray:
    """Images per side to lay out for a ``k``-nearest-neighbor search of
    each structure, (S, 3): ``ceil(search_radius / h)`` on each periodic
    axis of cell height ``h``, 0 on the others, widened by one image per
    periodic side while the layout holds no more than ``k`` points.

    Wrapped atoms lie inside the cell, so an image offset by j cells along a
    periodic axis lies more than j - 1 cell heights from every atom: the
    layout holds every point within the search radius, and more than ``k``
    points.  Raises DegenerateGeometryError, before anything is allocated,
    when a layout would hold more than ``_MAX_IMAGE_POINTS`` points.
    """
    if search_radius <= 0:
        raise InputError(f"search_radius must be positive, got {search_radius}")
    reach = np.zeros((len(structures), 3), dtype=int)
    periodic = np.array([s.pbc for s in structures], dtype=float).reshape(-1, 3)
    rows = np.flatnonzero(periodic.any(axis=1))
    if not rows.size:
        return reach
    heights = _cell_heights(np.stack([structures[i].cell for i in rows]))
    atoms = np.array([len(structures[i]) for i in rows])
    periodic = periodic[rows]
    # Counted in floats, which cannot overflow and are exact up to the limit.
    wide = np.ceil(search_radius / heights) * periodic
    n_points = atoms * np.prod(2 * wide + 1, axis=1)
    while (sparse := n_points <= min(k, _MAX_IMAGE_POINTS)).any():
        wide[sparse] += periodic[sparse]
        n_points = atoms * np.prod(2 * wide + 1, axis=1)
    over = np.flatnonzero(n_points > _MAX_IMAGE_POINTS)
    if over.size:
        i = over[0]
        exact = atoms[i] * math.prod(2 * int(r) + 1 for r in wide[i])
        raise DegenerateGeometryError(
            f"cell heights {np.array2string(heights[i], precision=4)} angstrom need "
            f"{exact} periodic image points within {search_radius:g} angstrom, "
            f"more than the limit of {_MAX_IMAGE_POINTS}"
        )
    reach[rows] = wide
    return reach


def _image_points(structures, reach) -> np.ndarray:
    """The wrapped atoms of each structure in every image out to ``reach``
    per side, (B, P, 3), for structures of one atom count n.

    Images come in lexicographic order of their integer lattice offsets,
    each holding the atoms in structure order, so point ``p`` is atom
    ``p % n`` of image ``p // n`` and the zero-offset image is the middle
    one.  An axis is periodic where its reach is not 0; a structure with no
    periodic axis is one image, its own positions.
    """
    positions = np.stack([s.positions for s in structures])
    if not any(reach):
        return positions
    cells = np.stack([s.cell for s in structures])
    # Wrapped into the cell along periodic directions only.
    frac = positions @ np.linalg.inv(cells)
    frac = np.where(np.asarray(reach) > 0, frac - np.floor(frac), frac)
    offsets = np.array(list(itertools.product(*(range(-r, r + 1) for r in reach))), dtype=float)
    shifts = offsets @ cells  # (B, images, 3)
    return ((frac @ cells)[:, None, :, :] + shifts[:, :, None, :]).reshape(len(cells), -1, 3)


def _tie_closed(nearest, n_points: int, k: int, m: int, rows: tuple) -> np.ndarray:
    """Candidate points of each of ``rows`` atoms, as indices into a layout.

    ``nearest(m)`` gives each atom's distances (*rows, 2) to its k-th
    neighbor, past the self-image, and to its m-th nearest point, and its m
    nearest points (*rows, m).  m starts at the given count and doubles
    until the m-th point lies clearly beyond the k-th neighbor, so every
    point tied with the k-th neighbor is a candidate, whatever the search's
    order of ties; from ``n_points`` on, every point is one.
    """
    while m < n_points:
        edge, cand = nearest(m)
        if np.all(edge[..., 1] > edge[..., 0] + _TIE_SLACK):
            return cand
        m *= 2
    return np.broadcast_to(np.arange(n_points), (*rows, n_points))


def _own_points(n_points: int, n: int) -> np.ndarray:
    """Indices of the ``n`` atoms in a layout of ``n_points`` points.

    The middle, zero-offset image holds the wrapped atoms in order.
    """
    return n_points // n // 2 * n + np.arange(n)


def _ranked(points: np.ndarray, cand: np.ndarray, k: int) -> NeighborSet:
    """The neighbors of the atoms of each layout in ``points`` (B, P, 3), from
    ``cand`` (B, n, m), the candidates of each atom as indices into its layout.

    Each layout is one of :func:`_image_points`, of a multiple of the n atoms.
    Each atom's candidates must include every point tied with its k-th
    neighbor.  Each distance is recomputed with one formula, whatever search
    found the candidate.  The rows of the result are those of each layout in
    turn.
    """
    b, p, _ = points.shape
    n = cand.shape[1]
    # One flat layout: structure i's points start at i * p, a multiple of n.
    base = np.arange(b)[:, None] * p
    own = (base + _own_points(p, n)).ravel()
    cand = (cand + base[:, :, None]).reshape(b * n, -1)
    points = points.reshape(-1, 3)
    diff = points[cand] - points[own][:, None, :]
    dx, dy, dz = diff[..., 0], diff[..., 1], diff[..., 2]
    # Same bits as np.linalg.norm(diff, axis=-1), without its reduction overhead.
    dists = np.sqrt(dx * dx + dy * dy + dz * dz)
    # Sort each row by (distance, atom, image offset): among points of one
    # atom the point index runs in image order.  The self-image gets a key
    # below every distance, so it sorts first and is dropped.
    key = np.where(cand == own[:, None], -1.0, dists)
    # Where a row's k + 2 smallest keys are distinct, any sort by key alone
    # puts them in that order, and only they are kept; rows with an exact
    # repeat among them are sorted again by all three keys.
    order = np.argsort(key, axis=1)
    top = np.take_along_axis(key, order[:, : k + 2], axis=1)
    tied = np.flatnonzero((top[:, 1:] == top[:, :-1]).any(axis=1))
    if tied.size:
        c = cand[tied]
        order[tied] = np.lexsort((c, c % n, key[tied]), axis=1)
    order = order[:, 1 : k + 1]
    chosen = np.take_along_axis(cand, order, axis=1)
    return NeighborSet(
        distances=_freeze(np.take_along_axis(dists, order, axis=1)),
        neighbor_positions=_freeze(points[chosen]),
        indices=_freeze(chosen % n),
    )


def nearest_neighbors(structure: Structure, k: int, search_radius: float) -> NeighborSet:
    """Find each atom's ``k`` nearest periodic images, for all atoms at once.

    The zero-distance self-image is excluded; other images of the same
    atom are valid neighbors.  Neighbors are sorted by distance, with
    exact ties broken by (atom index, image offset lexicographic) so the
    ordering is deterministic.  The images of :func:`_image_reaches` are
    searched, once, with a k-d tree (:func:`_tree_neighbors`).  Within
    ``search_radius`` the neighbors are the nearest points of the infinite
    crystal; past it, where the descriptor's cutoff weight is 0, they are
    the nearest remaining points of the layout.  A periodic structure's rows
    hold exactly ``k`` neighbors; an aperiodic structure with fewer than
    ``k`` other atoms holds all of them.
    """
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    reach = tuple(_image_reaches([structure], search_radius, k)[0])
    return _tree_neighbors([structure], reach, k)


def _tree_neighbors(structures, reach, k: int) -> NeighborSet:
    """:func:`nearest_neighbors` of several structures, each searched with
    its own k-d tree and all ranked together.

    The structures must share one atom count n and one ``reach`` of
    :func:`_image_reaches`, so their layouts share one size P.  The rows of
    the result are those of each structure in turn.  Where the structures'
    candidate counts differ, each with fewer is queried again at the
    largest: more candidates rank to the same neighbors.
    """
    points = _image_points(structures, reach)
    p, n = points.shape[1], len(structures[0])
    own = _own_points(p, n)
    # scipy takes longer to import than most commands take to run, and only
    # this search needs it.  The tie loop decides the candidates, so no
    # result depends on the tree's shape: skipping the balancing halves the
    # build time on replicated cells, and 32-point leaves query faster.
    from scipy.spatial import cKDTree

    searches = []
    for layout in points:
        tree = cKDTree(layout, leafsize=32, balanced_tree=False, compact_nodes=False)
        centers = layout[own]

        def nearest(m, tree=tree, centers=centers):
            dists, cand = tree.query(centers, k=m)
            return dists[:, [k, m - 1]], cand

        searches.append((tree, centers, _tie_closed(nearest, p, k, k + 2, (n,))))
    m = max(cand.shape[1] for _, _, cand in searches)
    cands = [
        cand if cand.shape[1] == m else tree.query(centers, k=m)[1]
        for tree, centers, cand in searches
    ]
    return _ranked(points, np.stack(cands), k)


def _batched_neighbors(structures, reach, k: int) -> NeighborSet:
    """:func:`nearest_neighbors` of several structures, without a tree.

    The structures must share one atom count n and one ``reach`` of
    :func:`_image_reaches`, so their layouts share one size P.  The rows of
    the result are those of each structure in turn, with the same bits as
    :func:`nearest_neighbors` gives.  Unless the first k + 1 +
    ``_BATCH_SPARE`` candidates already cover the layout, every distance
    from an atom to the points of its layout is computed, (B, n, P) of them
    for B structures, and :func:`_tie_closed` partitions them.
    """
    points = _image_points(structures, reach)
    b, p, _ = points.shape
    n = len(structures[0])
    own = _own_points(p, n)
    first = k + 1 + _BATCH_SPARE
    if first < p:  # else _tie_closed takes every point without a search
        # _ranked's arithmetic, one coordinate at a time into two buffers:
        # faster than one (b, n, p, 3) difference array.
        coords = points.transpose(2, 0, 1)[:, :, None, :]  # (3, b, 1, p)
        centers = coords[..., own].transpose(0, 1, 3, 2)  # (3, b, n, 1)
        dists = coords[0] - centers[0]
        dists *= dists
        term = np.empty_like(dists)
        for axis in (1, 2):
            np.subtract(coords[axis], centers[axis], out=term)
            term *= term
            dists += term
        np.sqrt(dists, out=dists)

    def nearest(m):
        near = np.argpartition(dists, (k, m - 1), axis=2)[:, :, :m]
        return np.take_along_axis(dists, near[:, :, [k, m - 1]], axis=2), near

    return _ranked(points, _tie_closed(nearest, p, k, first, (b, n)), k)
