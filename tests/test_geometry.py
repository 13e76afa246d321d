import numpy as np
import pytest

from atomcover import geometry
from atomcover import (
    CellError,
    InputError,
    Structure,
    nearest_neighbors,
    replicate_for_search,
)
from helpers import brute_force_neighbors, crystal, molecule, perturbed_cubic


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


class TestReplication:
    def test_aperiodic_is_identity(self):
        s = molecule([[0.0, 0.0, 0.0], [1.5, 0.0, 0.0]])
        rep = replicate_for_search(s, 5.0)
        assert np.array_equal(rep.positions, s.positions)
        assert np.array_equal(rep.atom_indices, [0, 1])
        assert np.all(rep.image_offsets == 0)

    def test_requires_positive_radius(self):
        s = molecule([[0.0, 0.0, 0.0]])
        with pytest.raises(InputError):
            replicate_for_search(s, 0.0)

    def test_covers_radius_in_small_cell(self):
        # 2 A cell, 5 A radius: need at least ceil(5/2)+1 = 4 images per side
        s = crystal(np.eye(3) * 2.0, [[0.0, 0.0, 0.0]])
        rep = replicate_for_search(s, 5.0)
        assert rep.image_offsets.max() >= 3
        assert len(rep.positions) == len(rep.atom_indices) == len(rep.image_offsets)

    def test_partial_pbc_replicates_only_periodic_axes(self):
        s = crystal(np.eye(3) * 3.0, [[1.0, 1.0, 1.0]], pbc=(True, True, False))
        rep = replicate_for_search(s, 4.0)
        assert np.all(rep.image_offsets[:, 2] == 0)
        assert rep.image_offsets[:, 0].max() > 0

    def test_small_cell_stays_under_image_limit(self):
        # ceil(5 / 0.2) + 1 = 26 images each way: 53**3 points
        rep = replicate_for_search(crystal(np.eye(3) * 0.2, [[0.0, 0.0, 0.0]]), 5.0)
        assert len(rep.positions) == 53**3

    def test_wraps_positions_outside_cell(self):
        inside = crystal(np.eye(3) * 4.0, [[1.0, 1.0, 1.0]])
        outside = crystal(np.eye(3) * 4.0, [[9.0, -3.0, 5.0]])  # same site mod 4
        rep_in = replicate_for_search(inside, 3.0)
        rep_out = replicate_for_search(outside, 3.0)
        assert np.allclose(rep_in.positions, rep_out.positions, atol=1e-10)


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
                got = got[got <= radius]  # beyond-radius finds are best-effort
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

    @pytest.mark.parametrize(
        "cell, grid, pbc, radius",
        [
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
        ],
        ids=["sc", "slab-both-sides", "slab-below", "slab-above"],
    )
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
                    continue  # beyond-radius finds are best-effort
                got = []
                for slot in range(nbrs.distances.shape[1]):
                    atom = int(nbrs.indices[i, slot])
                    shift = nbrs.neighbor_positions[i, slot] - wrapped[atom]
                    offset = tuple(int(o) for o in np.rint(shift / np.diag(s.cell)))
                    got.append((nbrs.distances[i, slot], atom, offset))
                assert got == want

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
