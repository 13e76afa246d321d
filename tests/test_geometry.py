import itertools

import numpy as np
import pytest

from atomcover import geometry
from atomcover import (
    CellError,
    Dataset,
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
        with pytest.raises(CellError):
            crystal(np.zeros((3, 3)), [[0.0, 0.0, 0.0]])

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
    return geometry._image_points(structure, geometry._image_reach(structure, radius, k))


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
        assert geometry._image_reach(s, 5.0, 6) == (3, 0, 0)
        assert geometry._image_reach(s, 5.0, 7) == (4, 0, 0)
        assert geometry._image_reach(s, 5.0, 32) == (16, 0, 0)
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

    @pytest.mark.parametrize("cell, grid, pbc, radius", LATTICE_TIES, ids=LATTICE_TIE_IDS)
    def test_lattice_ties_follow_brute_force_order(self, cell, grid, pbc, radius):
        # dyadic coordinates keep the ties exact
        s = crystal(cell, np.array(grid, dtype=float), pbc=pbc)
        frac = s.positions @ np.linalg.inv(s.cell)
        frac -= np.floor(frac) * s.pbc
        wrapped = frac @ s.cell
        for k in (6, 10, 20):
            nbrs = nearest_neighbors(s, k, search_radius=radius)
            for i in range(len(s)):
                want = brute_force_neighbors(s, i, radius)[:k]
                if len(want) < k:
                    continue  # brute force lists only points within the radius
                got = []
                for slot in range(nbrs.distances.shape[1]):
                    atom = int(nbrs.indices[i, slot])
                    shift = nbrs.neighbor_positions[i, slot] - wrapped[atom]
                    offset = tuple(int(o) for o in np.rint(shift / np.diag(s.cell)))
                    got.append((nbrs.distances[i, slot], atom, offset))
                assert got == want

    def test_image_limit_counts_the_laid_out_images(self):
        import tracemalloc

        # At a 5 angstrom radius, ceil(r / h) = 109 images per side of this
        # cell hold 219**3 > 1e7 points.
        assert int(np.ceil(5.0 / 0.046)) == 109
        assert 219**3 > geometry._MAX_IMAGE_POINTS
        tiny = crystal(np.eye(3) * 0.046, [[0.0, 0.0, 0.0]])
        tracemalloc.start()
        try:
            with pytest.raises(CellError, match="10503459 periodic image points"):
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
        sizes = []
        tree = geometry.cKDTree
        monkeypatch.setattr(
            geometry, "cKDTree", lambda points, **kw: sizes.append(len(points)) or tree(points, **kw)
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
        rows = build_descriptor_set(Dataset([structure]), params).values
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
