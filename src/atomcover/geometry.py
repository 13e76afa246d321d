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

One driver, :func:`_neighbor_groups`, groups structures by atom count and
image reach, so that a group's layouts share one size, and picks each
group's candidate finder from its size: :func:`_batch_finder` stacks small
layouts and computes every distance; :func:`_tree_finder` builds one k-d
tree per layout, and is :func:`nearest_neighbors`' finder too.  Layouts are
computed over stacked cells, with the same bits per cell as alone.  A
group's candidates are widened in one lockstep loop until every point tied
with a k-th neighbor is one, and one ranking step recomputes each distance
with :func:`_distances`, the one routine that computes a distance between
points here (the descriptor's three-body terms use it too), and sorts by
(distance, atom, point), so both finders give the same bits.
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
#: Most atom-point pairs in one batch, so its (rows, points) arrays stay
#: within 256 kB.  A structure of n atoms and P layout points batches when
#: two of it fit, 2 n P <= _BATCH_PAIRS; past that the tree is as fast.
_BATCH_PAIRS = 2**15
#: Most rows, and layout points, in one group of the k-d tree route: the
#: group's rows are ranked, and described, at once, and it holds every
#: layout and tree at once.  A structure of more atoms or points goes alone.
_TREE_ROWS = 256
_TREE_POINTS = 2**16


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


def _volume(cell: np.ndarray) -> float:
    """The signed volume of a cell, the triple product a . (b x c) of its rows."""
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = cell.tolist()
    return a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0) + a2 * (b0 * c1 - b1 * c0)


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
        if not np.isfinite(positions).all():
            raise InputError("positions contain non-finite values")
        cell = np.array(self.cell, dtype=float)
        if cell.shape != (3, 3):
            raise InputError(f"cell must be 3x3, got {cell.shape}")
        if not np.isfinite(cell).all():
            raise InputError("cell contains non-finite values")
        pbc = np.array(self.pbc, dtype=bool)
        if pbc.shape != (3,):
            raise InputError(f"pbc must have 3 flags, got {pbc.shape}")
        if pbc.any() and abs(_volume(cell)) < _SINGULAR_VOLUME:
            raise DegenerateGeometryError("cell is singular but periodic flags are set")
        species = tuple(map(str, self.species))
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
            if not np.isfinite(forces).all():
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
    crosses = np.cross(cells[..., [1, 2, 0], :], cells[..., [2, 0, 1], :])
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
    nearest points (*rows, m).  m starts at the given count and doubles, for
    all rows at once, until every atom's m-th point lies clearly beyond its
    k-th neighbor, so every point tied with a k-th neighbor is a candidate,
    whatever the search's order of ties; from ``n_points`` on, every point
    is one.
    """
    while m < n_points:
        edge, cand = nearest(m)
        if np.all(edge[..., 1] > edge[..., 0] + _TIE_SLACK):
            return cand
        m *= 2
    return np.broadcast_to(np.arange(n_points), (*rows, n_points))


def _distances(a, b, out=None, scratch=None) -> np.ndarray:
    """|a - b| of points given as (3, ...) coordinate arrays, broadcast.

    The squares are added in x, y, z order, then square-rooted: the bits of
    ``np.linalg.norm`` over (..., 3) differences.  ``out`` and ``scratch``
    (one coordinate's squares) are optional buffers of the result's shape.
    """
    out = np.subtract(a[0], b[0], out=out)
    out *= out
    for axis in (1, 2):
        scratch = np.subtract(a[axis], b[axis], out=scratch)
        scratch *= scratch
        out += scratch
    return np.sqrt(out, out=out)


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
    neighbor.  Each distance is recomputed by :func:`_distances`, whatever
    search found the candidate, from the candidates' coordinates gathered
    out of one (3, B * P) copy of the layouts; the neighbors' positions are
    one ``take`` of whole points.  The rows of the result are those of each
    layout in turn.
    """
    b, p, _ = points.shape
    n = cand.shape[1]
    # One flat layout: structure i's points start at i * p, a multiple of n.
    base = np.arange(b)[:, None] * p
    own = (base + _own_points(p, n)).ravel()
    cand = (cand + base[:, :, None]).reshape(b * n, -1)
    points = points.reshape(-1, 3)
    coords = points.T.copy()
    dists = _distances(coords.take(cand, axis=1), coords.take(own, axis=1)[:, :, None])
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
        neighbor_positions=_freeze(points.take(chosen, axis=0)),
        indices=_freeze(chosen % n),
    )


def nearest_neighbors(structure: Structure, k: int, search_radius: float) -> NeighborSet:
    """Find each atom's ``k`` nearest periodic images, for all atoms at once.

    The zero-distance self-image is excluded; other images of the same
    atom are valid neighbors.  Neighbors are sorted by distance, with
    exact ties broken by (atom index, image offset lexicographic) so the
    ordering is deterministic.  The images of :func:`_image_reaches` are
    searched, once, with a k-d tree (:func:`_tree_finder`).  Within
    ``search_radius`` the neighbors are the nearest points of the infinite
    crystal; past it, where the descriptor's cutoff weight is 0, they are
    the nearest remaining points of the layout.  A periodic structure's rows
    hold exactly ``k`` neighbors; an aperiodic structure with fewer than
    ``k`` other atoms holds all of them.
    """
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    reach = tuple(_image_reaches([structure], search_radius, k)[0])
    return _searched([structure], reach, k, _tree_finder)


def _neighbor_groups(structures, search_radius: float, k: int):
    """Yield (indices, NeighborSet) for groups of the structures, each
    group's rows being :func:`nearest_neighbors` of each structure in turn.

    Structures are grouped by atom count n and :func:`_image_reaches`, so a
    group's layouts share one size P.  Where n and P make at most
    ``_BATCH_PAIRS // 2`` pairs, ``_BATCH_PAIRS // (n * P)`` structures are
    searched at once by :func:`_batch_finder`; otherwise each structure gets
    its own k-d tree (:func:`_tree_finder`), in groups of at most
    ``_TREE_ROWS`` rows and ``_TREE_POINTS`` layout points, or of one
    structure.  Every image reach is computed, and checked against
    ``_MAX_IMAGE_POINTS``, before the first group is searched.
    """
    lengths = [len(s) for s in structures]
    reaches = _image_reaches(structures, search_radius, k).tolist()
    groups = {}
    for si, (n, reach) in enumerate(zip(lengths, reaches)):
        groups.setdefault((n, tuple(reach)), []).append(si)
    for (n, reach), indices in groups.items():
        p = n * math.prod(2 * r + 1 for r in reach)
        if 2 * n * p <= _BATCH_PAIRS:
            finder, size = _batch_finder, _BATCH_PAIRS // (n * p)
        else:
            finder, size = _tree_finder, max(1, min(_TREE_ROWS // n, _TREE_POINTS // p))
        for c0 in range(0, len(indices), size):
            batch = indices[c0 : c0 + size]
            yield batch, _searched([structures[i] for i in batch], reach, k, finder)


def _searched(structures, reach, k: int, finder) -> NeighborSet:
    """The neighbors of structures of one atom count n and image ``reach``,
    the rows of each structure in turn: ``finder`` finds candidates,
    :func:`_tie_closed` widens them in lockstep over the whole group until
    every point tied with a k-th neighbor is one, and :func:`_ranked` ranks
    them, so every finder gives the same bits."""
    points = _image_points(structures, reach)
    b, p, _ = points.shape
    n = len(structures[0])
    nearest, m = finder(points, _own_points(p, n), k)
    return _ranked(points, _tie_closed(nearest, p, k, m, (b, n)), k)


def _tree_finder(points, own, k: int):
    """``nearest`` over layouts (B, P, 3), whose atoms are the points
    ``own``, from one k-d tree per layout, each queried at the same count
    and stacked; and its first count, k + 2."""
    # scipy takes longer to import than most commands take to run, and only
    # this search needs it.  The tie loop decides the candidates, so no
    # result depends on the tree's shape: skipping the balancing halves the
    # build time on replicated cells, and 32-point leaves query faster.
    from scipy.spatial import cKDTree

    trees = [cKDTree(layout, leafsize=32, balanced_tree=False, compact_nodes=False)
             for layout in points]
    centers = points[:, own]

    def nearest(m):
        found = [tree.query(c, k=m) for tree, c in zip(trees, centers)]
        return np.stack([d[:, [k, m - 1]] for d, _ in found]), np.stack([c for _, c in found])

    return nearest, k + 2


def _batch_finder(points, own, k: int):
    """``nearest`` over layouts (B, P, 3) without a tree, and its first
    count, k + 1 + ``_BATCH_SPARE``.

    Unless that count already covers the layout, every distance from an atom
    to the points of its layout is computed by :func:`_distances`, (B, n, P)
    of them, and ``nearest`` partitions them.
    """
    first = k + 1 + _BATCH_SPARE
    if first < points.shape[1]:  # else _tie_closed takes every point without a search
        coords = points.transpose(2, 0, 1)[:, :, None, :]  # (3, B, 1, P)
        dists = _distances(coords, coords[..., own].transpose(0, 1, 3, 2))  # (B, n, P)

    def nearest(m):
        near = np.argpartition(dists, (k, m - 1), axis=2)[:, :, :m]
        return np.take_along_axis(dists, near[:, :, [k, m - 1]], axis=2), near

    return nearest, first
