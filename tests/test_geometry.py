import itertools

import numpy as np
import pytest

from atomcover import geometry
from atomcover import (
    DegenerateGeometryError,
    DescriptorParams,
    InputError,
    NeighborSet,
    Structure,
    build_descriptor_set,
    compute_x1,
    compute_x2,
    nearest_neighbors,
)
from helpers import brute_force_neighbors, crystal, full_reach_search, molecule, perturbed_cubic


# Exact-tie lattices, as (cell, atoms, pbc, search radius).
LATTICE_TIES = [
    # perfect simple-cubic cell on an integer grid: every shell is
    # an exact tie, and k cuts through the second and third shells
    (
        np.eye(3) * 4.0,
        [[x, y, z] for x in (0, 2) for y in (0, 2) for z in (0, 2)],
        (1, 1, 1),
        4.0,
    ),
    # pbc = T T F: nothing confines atoms to [0, c) along z, so
    # atoms below, above and on both sides of the cell count too
    (
        np.diag([4.0, 4.0, 8.0]),
        [[0, 0, -2], [2, 2, -2], [-2, 0, 0], [5, 2, 1], [0, 2, 8], [2, 0, 9]],
        (1, 1, 0),
        6.0,
    ),
    (
        np.diag([4.0, 4.0, 8.0]),
        [[0, 0, -3], [2, 2, -3], [0, 2, -1], [2, 0, -1]],
        (1, 1, 0),
        6.0,
    ),
    (
        np.diag([4.0, 4.0, 8.0]),
        [[0, 0, 9], [2, 2, 9], [0, 2, 11], [2, 0, 11]],
        (1, 1, 0),
        6.0,
    ),
]
LATTICE_TIE_IDS = ["sc", "slab-both-sides", "slab-below", "slab-above"]


class TestStructureValidation:
    def test_rejects_bad_position_shape(self):
        with pytest.raises(InputError):
            molecule([[0.0, 0.0], [1.0, 0.0]])

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            molecule(np.zeros((0, 3)))

    def test_rejects_nan_positions(self):
        with pytest.raises(InputError):
            molecule([[0.0, 0.0, np.nan], [1.0, 0.0, 0.0]])

    def test_rejects_singular_periodic_cell(self):
        with pytest.raises(DegenerateGeometryError):
            crystal(np.zeros((3, 3)), [[0.0, 0.0, 0.0]])

    # Coplanar rows, and a cell of volume 1e-13 cubic angstrom, below the
    # 1e-12 threshold, are singular.
    @pytest.mark.parametrize(
        "cell", [[[4.0, 0.0, 0.0], [0.0, 4.0, 0.0], [2.0, 3.0, 0.0]], np.diag([1e-4, 1e-4, 1e-5])]
    )
    def test_rejects_flat_periodic_cell(self, cell):
        with pytest.raises(DegenerateGeometryError, match="cell is singular"):
            crystal(cell, [[0.0, 0.0, 0.0]])

    # A volume of 1e-11, and a left-handed cell, whose volume is negative.
    @pytest.mark.parametrize(
        "cell", [np.diag([1e-4, 1e-4, 1e-3]), [[0.0, 4.0, 0.0], [4.0, 0.0, 0.0], [0.0, 0.0, 4.0]]]
    )
    def test_accepts_small_or_left_handed_cell(self, cell):
        assert len(crystal(cell, [[0.0, 0.0, 0.0]])) == 1

    def test_rejects_cell_of_two_rows(self):
        with pytest.raises(InputError, match="cell must be 3x3"):
            crystal(np.eye(3)[:2] * 4.0, [[0.0, 0.0, 0.0]])

    def test_rejects_nan_in_cell(self):
        cell = np.eye(3) * 4.0
        cell[1, 2] = np.nan
        with pytest.raises(InputError, match="cell contains non-finite"):
            crystal(cell, [[0.0, 0.0, 0.0]])

    def test_rejects_two_pbc_flags(self):
        with pytest.raises(InputError, match="pbc must have 3 flags"):
            crystal(np.eye(3) * 4.0, [[0.0, 0.0, 0.0]], pbc=(True, True))

    def test_singular_cell_fine_when_aperiodic(self):
        s = molecule([[0.0, 0.0, 0.0]])
        assert len(s) == 1

    def test_rejects_species_count_mismatch(self):
        with pytest.raises(InputError):
            molecule([[0.0, 0.0, 0.0]], species=("H", "O"))

    def test_rejects_forces_shape_mismatch(self):
        with pytest.raises(InputError):
            molecule([[0.0, 0.0, 0.0]], forces=np.zeros((2, 3)))

    def test_arrays_frozen(self):
        s = molecule([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(ValueError):
            s.positions[0, 0] = 5.0


def laid_out(structure, radius, k=32):
    """The image points that ``nearest_neighbors`` searches for k neighbors."""
    reach = tuple(geometry._image_reaches([structure], radius, k)[0])
    return geometry._image_points([structure], reach)[0]


def assert_brute_force_order(s, nbrs, radius):
    """Each row of ``nbrs``, the neighbors of ``s`` in a diagonal cell, lists
    (distance, atom, image offset) as brute force sorts them, where brute
    force finds as many within ``radius``."""
    frac = s.positions @ np.linalg.inv(s.cell)
    frac -= np.floor(frac) * s.pbc
    wrapped = frac @ s.cell
    k = nbrs.distances.shape[1]
    for i in range(len(s)):
        want = brute_force_neighbors(s, i, radius)[:k]
        if len(want) < k:
            continue  # brute force lists only points within the radius
        got = []
        for slot in range(k):
            atom = int(nbrs.indices[i, slot])
            shift = nbrs.neighbor_positions[i, slot] - wrapped[atom]
            offset = tuple(int(o) for o in np.rint(shift / np.diag(s.cell)))
            got.append((nbrs.distances[i, slot], atom, offset))
        assert got == want


class TestReplication:
    def test_aperiodic_is_identity(self):
        s = molecule([[0.0, 0.0, 0.0], [1.5, 0.0, 0.0]])
        points = laid_out(s, 5.0)
        assert np.array_equal(points, s.positions)

    def test_requires_positive_radius(self):
        s = molecule([[0.0, 0.0, 0.0]])
        with pytest.raises(InputError):
            laid_out(s, 0.0)

    def test_covers_radius_in_small_cell(self):
        # 2 A cell, 5 A radius: ceil(5/2) = 3 images per side hold 343 > k points
        s = crystal(np.eye(3) * 2.0, [[0.0, 0.0, 0.0]])
        points = laid_out(s, 5.0)
        assert points.shape == (7**3, 3)
        assert np.allclose(points.max(axis=0), 6.0) and np.allclose(points.min(axis=0), -6.0)

    def test_partial_pbc_replicates_only_periodic_axes(self):
        s = crystal(np.eye(3) * 3.0, [[1.0, 1.0, 1.0]], pbc=(True, True, False))
        points = laid_out(s, 4.0)
        assert np.all(points[:, 2] == 1.0)
        assert points[:, 0].max() > 3.0

    def test_small_cell_stays_under_image_limit(self):
        # ceil(5 / 0.2) = 25 images each way: 51**3 points
        points = laid_out(crystal(np.eye(3) * 0.2, [[0.0, 0.0, 0.0]]), 5.0)
        assert len(points) == 51**3

    def test_wraps_positions_outside_cell(self):
        inside = crystal(np.eye(3) * 4.0, [[1.0, 1.0, 1.0]])
        outside = crystal(np.eye(3) * 4.0, [[9.0, -3.0, 5.0]])  # same site mod 4
        points_in = laid_out(inside, 3.0)
        points_out = laid_out(outside, 3.0)
        assert np.allclose(points_in, points_out, atol=1e-10)

    def test_point_index_names_atom_and_image(self):
        cell = np.array([[3.1, 0.0, 0.0], [0.9, 2.7, 0.0], [0.4, -0.6, 3.3]])
        frac = np.array([[0.1, 0.2, 0.3], [1.7, -0.4, 0.5], [0.5, 0.5, -0.2]])
        s = crystal(cell, frac @ cell, pbc=(True, True, False))
        points = laid_out(s, 4.0)
        n = len(s)
        frac[:, :2] -= np.floor(frac[:, :2])  # wrap the periodic axes only
        wrapped = frac @ cell
        volume = abs(np.linalg.det(cell))
        reach = [
            int(np.ceil(4.0 * np.linalg.norm(np.cross(cell[b], cell[c])) / volume))
            for b, c in ((1, 2), (2, 0))
        ]
        offsets = list(itertools.product(
            range(-reach[0], reach[0] + 1), range(-reach[1], reach[1] + 1), [0]
        ))
        assert len(offsets) * n > 32  # no widening for k = 32
        assert points.shape == (n * len(offsets), 3)
        expected = [wrapped[p % n] + np.array(offsets[p // n]) @ cell for p in range(len(points))]
        assert np.allclose(points, expected, rtol=0, atol=1e-12)
        middle = len(offsets) // 2
        assert offsets[middle] == (0, 0, 0)
        assert np.allclose(points[middle * n : (middle + 1) * n], wrapped, rtol=0, atol=1e-12)

    def test_sparse_cell_widens_past_k_points(self):
        # a 1-atom chain of 2 A cells at a 5 A radius: ceil(5/2) = 3 images
        # per side hold 7 points; 32 neighbors need 16 per side (33 points)
        s = crystal(np.eye(3) * 2.0, [[0.0, 0.0, 0.0]], pbc=(True, False, False))
        assert geometry._image_reaches([s] * 3, 5.0, 6).tolist() == [[3, 0, 0]] * 3
        assert geometry._image_reaches([s], 5.0, 7).tolist() == [[4, 0, 0]]
        assert geometry._image_reaches([s], 5.0, 32).tolist() == [[16, 0, 0]]
        assert nearest_neighbors(s, 32, 5.0).distances.shape == (1, 32)


class TestNearestNeighbors:
    def test_dimer(self):
        s = molecule([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        nbrs = nearest_neighbors(s, 4, search_radius=5.0)
        assert nbrs.distances.shape == (2, 1)
        assert nbrs.neighbor_positions.shape == (2, 1, 3)
        assert nbrs.indices.shape == (2, 1)
        assert nbrs.distances[0, 0] == pytest.approx(2.0, abs=1e-12)
        assert nbrs.indices[0, 0] == 1

    def test_simple_cubic_shell(self):
        s = crystal(np.eye(3) * 3.0, [[0.0, 0.0, 0.0]])
        nbrs = nearest_neighbors(s, 6, search_radius=4.0)
        assert nbrs.distances.shape[1] == 6
        assert np.allclose(nbrs.distances[0], 3.0, atol=1e-10)
        # all six neighbors are periodic images of atom 0 itself
        assert np.all(nbrs.indices[0] == 0)

    def test_fcc_coordination(self):
        a = 4.05
        cell = np.array([[0, a / 2, a / 2], [a / 2, 0, a / 2], [a / 2, a / 2, 0]])
        s = crystal(cell, [[0.0, 0.0, 0.0]])
        nbrs = nearest_neighbors(s, 12, search_radius=a)
        assert nbrs.distances.shape[1] == 12
        assert np.allclose(nbrs.distances[0], a / np.sqrt(2), atol=1e-10)

    def test_matches_brute_force_on_random_cells(self):
        rng = np.random.default_rng(11)
        for pbc in [(1, 1, 1)] * 5 + [(1, 1, 0)] * 5:
            cell = np.eye(3) * 4.0 + rng.normal(scale=0.4, size=(3, 3))
            if abs(np.linalg.det(cell)) < 5.0:
                cell += np.eye(3) * 2.0
            positions = rng.random((3, 3)) @ cell
            if not pbc[2]:
                # slab atoms may sit anywhere along the aperiodic axis
                positions += np.outer(rng.uniform(-1.5, 2.5, size=3), cell[2])
            s = crystal(cell, positions, pbc=pbc)
            radius = 4.5
            nbrs = nearest_neighbors(s, 40, search_radius=radius)
            for i in range(len(s)):
                want = [d for d, _, _ in brute_force_neighbors(s, i, radius)]
                got = nbrs.distances[i]
                got = got[got <= radius]  # brute force lists only points within the radius
                assert len(got) == min(len(want), 40)
                assert np.allclose(got, want[: len(got)], atol=1e-10)

    def test_neighbor_positions_match_distances(self):
        rng = np.random.default_rng(3)
        s = perturbed_cubic(rng, n_side=2, a=3.0)
        # centers are the wrapped positions; rewrap independently here
        frac = s.positions @ np.linalg.inv(s.cell)
        center = (frac - np.floor(frac)) @ s.cell
        nbrs = nearest_neighbors(s, 10, search_radius=4.0)
        for i in range(len(s)):
            recomputed = np.linalg.norm(nbrs.neighbor_positions[i] - center[i], axis=1)
            assert np.allclose(recomputed, nbrs.distances[i], atol=1e-10)

    def test_distances_sorted_ascending(self):
        rng = np.random.default_rng(4)
        s = perturbed_cubic(rng, n_side=2, a=3.2)
        nbrs = nearest_neighbors(s, 20, search_radius=5.0)
        for i in range(len(s)):
            assert np.all(np.diff(nbrs.distances[i]) >= 0)

    def test_deterministic_under_repeat(self):
        rng = np.random.default_rng(5)
        s = perturbed_cubic(rng, n_side=2, a=3.0)
        first = nearest_neighbors(s, 16, search_radius=5.0)
        second = nearest_neighbors(s, 16, search_radius=5.0)
        assert np.array_equal(first.distances, second.distances)
        assert np.array_equal(first.indices, second.indices)
        assert np.array_equal(first.neighbor_positions, second.neighbor_positions)

    def test_tie_break_is_stable_by_atom_then_offset(self):
        # two atoms equidistant from the center: lower atom index first
        s = molecule([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        nbrs = nearest_neighbors(s, 2, search_radius=3.0)
        assert np.allclose(nbrs.distances[0], [1.0, 1.0])
        assert list(nbrs.indices[0]) == [1, 2]

    @pytest.mark.parametrize("s", [
        # fcc on a dyadic grid: every shell is an exact tie
        crystal(np.eye(3) * 4.0, [[0, 0, 0], [0, 2, 2], [2, 0, 2], [2, 2, 0]]),
        # an octahedron: every atom has four ties at one distance
        molecule([[1.5, 0, 0], [-1.5, 0, 0], [0, 1.5, 0], [0, -1.5, 0], [0, 0, 1.5],
                  [0, 0, -1.5]]),
    ], ids=["cell-4", "cluster-6"])
    def test_small_structures_take_the_tree(self, monkeypatch, s):
        # small enough to batch, yet searched with a k-d tree, with the
        # bits of the batched search
        found = []
        for name in ("_batch_finder", "_tree_finder"):

            def spy(points, own, k, find=getattr(geometry, name), name=name):
                found.append((name, len(points)))
                return find(points, own, k)

            monkeypatch.setattr(geometry, name, spy)
        for k in (2, 4, 8, 32):
            alone = nearest_neighbors(s, k, 5.0)
            ((indices, batched),) = geometry._neighbor_groups([s], 5.0, k)
            assert indices == [0]
            assert found == [("_tree_finder", 1), ("_batch_finder", 1)]
            found.clear()
            for got, want in zip(vars(alone).values(), vars(batched).values()):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("cell, grid, pbc, radius", LATTICE_TIES, ids=LATTICE_TIE_IDS)
    def test_lattice_ties_follow_brute_force_order(self, cell, grid, pbc, radius):
        # dyadic coordinates keep the ties exact
        s = crystal(cell, np.array(grid, dtype=float), pbc=pbc)
        for k in (6, 10, 20):
            assert_brute_force_order(s, nearest_neighbors(s, k, search_radius=radius), radius)

    def test_image_limit_counts_the_laid_out_images(self):
        import tracemalloc

        # At a 5 angstrom radius, ceil(r / h) = 109 images per side of this
        # cell hold 219**3 > 1e7 points.
        assert int(np.ceil(5.0 / 0.046)) == 109
        assert 219**3 > geometry._MAX_IMAGE_POINTS
        tiny = crystal(np.eye(3) * 0.046, [[0.0, 0.0, 0.0]])
        tracemalloc.start()
        try:
            with pytest.raises(DegenerateGeometryError, match="10503459 periodic image points"):
                nearest_neighbors(tiny, 32, search_radius=5.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # raised before any image was built

    def test_k_must_be_positive(self):
        s = molecule([[0.0, 0.0, 0.0]])
        with pytest.raises(InputError):
            nearest_neighbors(s, 0, search_radius=2.0)

    def test_lone_aperiodic_atom_has_no_neighbors(self):
        s = molecule([[0.0, 0.0, 0.0]])
        nbrs = nearest_neighbors(s, 3, search_radius=2.0)
        assert nbrs.distances.shape == (1, 0)
        assert nbrs.neighbor_positions.shape == (1, 0, 3)
        assert nbrs.indices.shape == (1, 0)


class TestFullReachEquivalence:
    """``nearest_neighbors`` builds one tree over ``ceil(r / h)`` images per
    periodic side, widened while they hold no more than k points.  Within the
    search radius its neighbors and the descriptor rows must be those of a
    search over a wider layout, bit for bit, and every row of a periodic
    structure must hold exactly k neighbors."""

    @pytest.fixture
    def tree_sizes(self, monkeypatch):
        # nearest_neighbors imports the tree class from scipy.spatial on each
        # search, so the spy goes there.
        import scipy.spatial

        sizes = []
        tree = scipy.spatial.cKDTree
        monkeypatch.setattr(
            scipy.spatial,
            "cKDTree",
            lambda points, **kw: sizes.append(len(points)) or tree(points, **kw),
        )
        return sizes

    @staticmethod
    def assert_same_within_radius(tree_sizes, structure, k, radius):
        """Checks one call against a wider layout; returns the points it searched."""
        before = len(tree_sizes)
        got = nearest_neighbors(structure, k, radius)
        assert len(tree_sizes) == before + 1
        distances, positions, indices = full_reach_search(structure, k, radius)
        assert got.distances.shape == distances.shape == (len(structure), k)
        inside = distances < radius
        assert np.array_equal(got.distances < radius, inside)
        assert got.distances[inside].tobytes() == distances[inside].tobytes()
        assert got.neighbor_positions[inside].tobytes() == positions[inside].tobytes()
        assert np.array_equal(got.indices[inside], indices[inside])
        # Beyond the radius the cutoff weight is 0, so other neighbors there
        # leave the descriptor rows unchanged.
        params = DescriptorParams(k, radius)
        wide = NeighborSet(distances, positions, indices)
        want = np.hstack([compute_x1(wide, params), compute_x2(wide, params)])
        rows = build_descriptor_set((structure,), params).values
        assert rows.tobytes() == want.tobytes()
        return tree_sizes[before]

    def test_random_triclinic_cells(self, tree_sizes):
        layouts = set()
        rng = np.random.default_rng(23)
        radius = 5.0
        for ratio, pbc, _ in itertools.product(
            (0.3, 0.8, 1.0, 1.5, 3.0), ((1, 1, 1), (1, 1, 0), (1, 0, 0)), range(3)
        ):
            cell = np.eye(3) + rng.uniform(-0.2, 0.2, size=(3, 3))
            cell *= ratio * radius / geometry._cell_heights(cell).min()
            n = int(rng.integers(2, 7))
            positions = rng.uniform(-0.5, 1.5, size=(n, 3)) @ cell
            s = crystal(cell, positions, pbc=pbc)
            reach = np.ceil(radius / geometry._cell_heights(cell)).astype(int) * pbc
            for k in (2, 8, 32, 60):
                searched = self.assert_same_within_radius(tree_sizes, s, k, radius)
                wide = reach.copy()
                while n * np.prod(2 * wide + 1) <= k:
                    wide += pbc
                assert searched == n * np.prod(2 * wide + 1)
                layouts.add(bool((wide > reach).any()))
        # both the ceil(r / h) layout and widened sparse cells ran
        assert layouts == {False, True}

    @pytest.mark.parametrize("cell, grid, pbc, radius", LATTICE_TIES, ids=LATTICE_TIE_IDS)
    def test_lattice_ties(self, tree_sizes, cell, grid, pbc, radius):
        s = crystal(cell, np.array(grid, dtype=float), pbc=pbc)
        for k in (2, 6, 8, 10, 20, 32, 60):
            self.assert_same_within_radius(tree_sizes, s, k, radius)


def lexsorted_neighbors(points, cand, k):
    """``geometry._ranked`` by one three-key sort of every row: (distance,
    atom, point), the self-image first and dropped."""
    b, p, _ = points.shape
    n = cand.shape[1]
    base = np.arange(b)[:, None] * p
    own = (base + geometry._own_points(p, n)).ravel()
    cand = (cand + base[:, :, None]).reshape(b * n, -1)
    points = points.reshape(-1, 3)
    dists = np.linalg.norm(points[cand] - points[own][:, None, :], axis=-1)
    key = np.where(cand == own[:, None], -1.0, dists)
    order = np.lexsort((cand, cand % n, key), axis=1)[:, 1 : k + 1]
    chosen = np.take_along_axis(cand, order, axis=1)
    return np.take_along_axis(dists, order, axis=1), points[chosen], chosen % n


class TestOneForms:
    """The one distance routine and the stacked cell heights give the bits
    of the numpy forms they stand for."""

    def test_distances_have_the_bits_of_norm(self):
        rng = np.random.default_rng(60)
        a = rng.normal(scale=5.0, size=(3, 7, 1, 40))
        b = rng.normal(scale=5.0, size=(3, 1, 9, 1))
        want = np.linalg.norm(np.moveaxis(a, 0, -1) - np.moveaxis(b, 0, -1), axis=-1)
        assert want.shape == (7, 9, 40)
        assert geometry._distances(a, b).tobytes() == want.tobytes()
        out, scratch = np.full((2, 7, 9, 40), np.nan)
        assert geometry._distances(a, b, out, scratch) is out
        assert out.tobytes() == want.tobytes()
        # plain point pairs, as (3, n) arrays
        p, q = rng.normal(size=(2, 3, 100))
        assert geometry._distances(p, q).tobytes() == np.linalg.norm(p.T - q.T, axis=-1).tobytes()

    def test_stacked_cell_heights_are_each_cells_own(self):
        rng = np.random.default_rng(61)
        sides = rng.uniform(2.0, 20.0, size=(600, 1, 1))
        cells = np.eye(3) * sides + rng.uniform(-0.4, 0.4, size=(600, 3, 3)) * sides
        stacked = geometry._cell_heights(cells.reshape(30, 20, 3, 3)).reshape(600, 3)
        for cell, heights in zip(cells, stacked):
            assert geometry._cell_heights(cell).tobytes() == heights.tobytes()
            volume = abs(np.linalg.det(cell))
            for axis in range(3):
                b, c = np.delete(cell, axis, axis=0)
                want = volume / np.linalg.norm(np.cross(b, c))
                assert heights[axis] == pytest.approx(want, rel=1e-12)


class TestRanking:
    """``_ranked`` sorts each row by distance alone, and again by (distance,
    atom, point) only where a distance it keeps or the one after repeats
    exactly.  Every row must come out in the three-key order."""

    K = 6
    # 4 atoms on integer sites in 27 images 2 apart: exact, repeated distances
    SITES = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 1]])

    @classmethod
    def layout(cls, shift):
        offsets = np.array(list(itertools.product((-2, 0, 2), repeat=3)))
        return ((cls.SITES + shift)[None, :, :] + offsets[:, None, :]).reshape(-1, 3).astype(float)

    @classmethod
    def row(cls, rng, points, own, tied_ranks):
        """Candidates of the atom at ``own``: one point at each of 11
        distinct distances, but two at the distance of each rank (counted
        from 1 past the self-image) in ``tied_ranks``, and ``own`` itself,
        shuffled."""
        d2 = ((points - points[own]) ** 2).sum(axis=1)
        values = np.unique(d2[d2 > 0])
        picks, rank = [], 1
        for value in values:
            same = rng.permutation(np.flatnonzero(d2 == value))
            take = 2 if rank in tied_ranks and len(same) >= 2 else 1
            picks += same[:take].tolist()
            rank += take
            if len(picks) >= 11:
                break
        assert len(picks) == 11 and rank == 12  # every requested tie was made
        return rng.permutation(picks + [own])

    def test_order_matches_three_key_sort(self):
        rng = np.random.default_rng(90)
        k = self.K
        points = np.stack([self.layout(0), self.layout([0, 0, 1])])  # two layouts
        p, n = points.shape[1], len(self.SITES)
        own = geometry._own_points(p, n)
        ties = [
            (),  # no ties
            (2,),  # two points at ranks 2 and 3, inside the first k
            (k,),  # ranks k and k + 1: the tie crosses the cut
            (k + 1,),  # ranks k + 1 and k + 2: past the cut, no re-sort needed
        ]
        cand = np.array([[self.row(rng, points[b], own[i], ties[i]) for i in range(n)]
                         for b in range(2)])
        # the self-image in the last column of one row, the first of another
        last = cand[0, 0].tolist().index(own[0])
        cand[0, 0, [last, -1]] = cand[0, 0, [-1, last]]
        first = cand[1, 3].tolist().index(own[3])
        cand[1, 3, [first, 0]] = cand[1, 3, [0, first]]
        got = geometry._ranked(points, cand, k)
        distances, positions, indices = lexsorted_neighbors(points, cand, k)
        assert got.distances.tobytes() == distances.tobytes()
        assert got.neighbor_positions.tobytes() == positions.tobytes()
        assert np.array_equal(got.indices, indices)
        # the rows hold the ties asked for, exactly: rank r sorts to column r
        ranks = np.sort(np.linalg.norm(points[0, cand[0]] - points[0, own, None], axis=-1))
        assert np.all(np.diff(ranks[0, : k + 2]) > 0)
        assert ranks[1, 2] == ranks[1, 3] and ranks[2, k] == ranks[2, k + 1]
        assert ranks[3, k + 1] == ranks[3, k + 2]

    def test_random_rows_with_many_ties(self):
        # random candidate subsets of an integer grid: most rows hold ties
        rng = np.random.default_rng(91)
        points = self.layout(0)[None]
        p, n = points.shape[1], len(self.SITES)
        own = geometry._own_points(p, n)
        for k, m in ((1, 3), (6, 8), (6, 30), (20, p)):
            others = [rng.permutation(np.setdiff1d(np.arange(p), [o]))[: m - 1] for o in own]
            cand = np.array([rng.permutation(np.append(c, o)) for c, o in zip(others, own)])[None]
            got = geometry._ranked(points, cand, k)
            distances, positions, indices = lexsorted_neighbors(points, cand, k)
            assert got.distances.tobytes() == distances.tobytes()
            assert got.neighbor_positions.tobytes() == positions.tobytes()
            assert np.array_equal(got.indices, indices)


class TestGroupedTreeRoute:
    """Structures of one atom count and image reach share one k-d tree
    group: one tree each, queried in lockstep, and one ranking for the
    group.  On exact-tie lattices its rows must follow brute force and equal
    one tree search per structure, also where one structure widens the
    candidates of the whole group."""

    @pytest.fixture
    def widths(self, monkeypatch):
        # (structures, candidates per atom) that each search settles on
        found, tie_closed = [], geometry._tie_closed

        def spy(nearest, n_points, k, m, rows):
            cand = tie_closed(nearest, n_points, k, m, rows)
            found.append((cand.shape[0], cand.shape[-1]))
            return cand

        monkeypatch.setattr(geometry, "_tie_closed", spy)
        return found

    @staticmethod
    def group(cell, grid, pbc):
        """The lattice, a jittered copy of it without ties, and the lattice again."""
        grid = np.array(grid, dtype=float)
        jitter = np.random.default_rng(92).uniform(-0.05, 0.05, size=grid.shape)
        s = crystal(cell, grid, pbc=pbc)
        return [s, crystal(cell, grid + jitter, pbc=pbc), s]

    @pytest.mark.parametrize("cell, grid, pbc, radius", LATTICE_TIES, ids=LATTICE_TIE_IDS)
    def test_lattice_ties_follow_brute_force_order(self, monkeypatch, widths, cell, grid, pbc,
                                                   radius):
        # one lattice widens the candidates of the whole group
        monkeypatch.setattr(geometry, "_BATCH_PAIRS", 0)
        structures = self.group(cell, grid, pbc)
        n = len(grid)
        widened = []
        for k in (2, 6, 8, 10, 20, 32):
            widths.clear()
            ((indices, nbrs),) = geometry._neighbor_groups(structures, radius, k)
            assert indices == [0, 1, 2]
            ((b, width),) = widths
            assert b == 3
            for j, s in enumerate(structures):
                rows = slice(j * n, (j + 1) * n)
                part = NeighborSet(nbrs.distances[rows], nbrs.neighbor_positions[rows],
                                   nbrs.indices[rows])
                alone = nearest_neighbors(s, k, radius)
                for got, want in zip(vars(part).values(), vars(alone).values()):
                    assert got.tobytes() == want.tobytes()
                if j != 1:  # the jittered copy's distances are not brute force's bits
                    assert_brute_force_order(s, part, radius)
            # every tree of the group widens as far as the widest search alone
            lone = [w for _, w in widths[1:]]
            assert width == max(lone)
            # alone, the jittered copy settles on the first count
            widened.append(lone[1] == k + 2 < width)
        assert any(widened)

    @pytest.mark.parametrize("cell, grid, pbc, radius", LATTICE_TIES, ids=LATTICE_TIE_IDS)
    def test_every_structure_takes_the_tree(self, monkeypatch, widths, cell, grid, pbc, radius):
        from test_descriptor import spy_routes, tree_rows

        monkeypatch.setattr(geometry, "_BATCH_PAIRS", 0)
        routes = spy_routes(monkeypatch)
        structures = self.group(cell, grid, pbc)
        widened = []
        for k in (2, 6, 8, 10, 20, 32):
            params = DescriptorParams(k, radius)
            widths.clear()
            got = build_descriptor_set(tuple(structures), params)
            widened.append(widths[0][1] > k + 2)
            assert got.values.tobytes() == tree_rows(structures, params).tobytes()
        assert routes == {"batches": [], "trees": [3] * 6}
        assert any(widened)
