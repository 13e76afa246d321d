import os
import struct
import tracemalloc
import types
import zlib

import numpy as np
import pytest

from atomcover import descriptor, geometry
from atomcover import (
    DegenerateGeometryError,
    DescriptorParams,
    DescriptorSet,
    InputError,
    NeighborSet,
    build_descriptor_set,
    compute_x1,
    compute_x2,
    load_descriptor_set,
    nearest_neighbors,
    save_descriptor_set,
)
from atomcover.descriptor import _cutoff_weight
from atomcover.information import _STORE_CHUNK, _store_of
from helpers import (
    assert_row_multisets_close,
    cache_with_value,
    crystal,
    dataset,
    molecule,
    naive_x1,
    naive_x2,
    perturbed_cubic,
    previous_format_cache,
    random_rotation,
)


class TestCutoffWeight:
    def test_reference_values(self):
        assert _cutoff_weight(0.0, 5.0) == 1.0
        assert _cutoff_weight(5.0, 5.0) == 0.0
        assert _cutoff_weight(6.0, 5.0) == 0.0
        assert _cutoff_weight(2.5, 5.0) == pytest.approx(0.5625, abs=0)

    def test_smooth_at_cutoff(self):
        # value and slope both vanish at the cutoff
        eps = 1e-6
        assert _cutoff_weight(5.0 - eps, 5.0) < 1e-11
        slope = (_cutoff_weight(5.0, 5.0) - _cutoff_weight(5.0 - eps, 5.0)) / eps
        assert abs(slope) < 1e-5

    def test_monotone_decreasing(self):
        r = np.linspace(0, 5, 200)
        w = _cutoff_weight(r, 5.0)
        assert np.all(np.diff(w) <= 0)
        assert np.all((w >= 0) & (w <= 1))

    def test_array_input(self):
        w = _cutoff_weight(np.array([0.0, 2.5, 5.0, np.inf]), 5.0)
        assert np.allclose(w, [1.0, 0.5625, 0.0, 0.0])

    def test_rejects_negative_distance(self):
        with pytest.raises(InputError):
            _cutoff_weight(-1.0, 5.0)

    def test_rejects_bad_cutoff(self):
        with pytest.raises(InputError):
            _cutoff_weight(1.0, 0.0)


class TestParams:
    def test_width(self):
        assert DescriptorParams(n_neighbors=32, cutoff=5.0).width == 63
        assert DescriptorParams(n_neighbors=2, cutoff=1.0).width == 3

    def test_validation(self):
        with pytest.raises(InputError):
            DescriptorParams(n_neighbors=1)
        assert DescriptorParams(n_neighbors=1024).width == 2047
        with pytest.raises(InputError, match="1024"):
            DescriptorParams(n_neighbors=1025)
        with pytest.raises(InputError):
            DescriptorParams(cutoff=-2.0)
        for cutoff in (np.nan, np.inf):
            with pytest.raises(InputError):
                DescriptorParams(cutoff=cutoff)


class TestTwoBody:
    def test_dimer(self):
        params = DescriptorParams(n_neighbors=32, cutoff=5.0)
        s = molecule([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        nbrs = nearest_neighbors(s, 32, search_radius=5.0)
        x1 = compute_x1(nbrs, params)[0]
        w = (1 - (2.0 / 5.0) ** 2) ** 2
        assert x1[0] == pytest.approx(w / 2.0, abs=1e-15)  # 0.3528
        assert np.all(x1[1:] == 0)

    def test_radial_order_not_value_order(self):
        # near neighbor beyond-cutoff value is 0 but stays in its slot
        params = DescriptorParams(n_neighbors=4, cutoff=2.5)
        s = molecule([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
        nbrs = nearest_neighbors(s, 4, search_radius=6.0)
        x1 = compute_x1(nbrs, params)[0]
        assert x1[0] > 0       # r=2.0 inside cutoff
        assert x1[1] == 0.0    # r=3.0 beyond cutoff
        assert np.all(x1[2:] == 0)

    def test_matches_naive_loops(self):
        rng = np.random.default_rng(21)
        params = DescriptorParams(n_neighbors=12, cutoff=4.0)
        s = perturbed_cubic(rng, n_side=2, a=2.8)
        nbrs = nearest_neighbors(s, 12, search_radius=4.0)
        x1 = compute_x1(nbrs, params)
        assert x1.shape == (len(s), 12)
        for i in range(len(s)):
            assert np.allclose(x1[i], naive_x1(nbrs, i, 12, 4.0), atol=1e-12)


class TestThreeBody:
    def test_two_neighbors_single_term(self):
        # center with two neighbors at r, separated by d:
        # each j has one term sqrt(w(r)w(r))/d = w(r)/d
        params = DescriptorParams(n_neighbors=8, cutoff=5.0)
        r, half_angle = 2.0, np.pi / 6
        s = molecule(
            [
                [0.0, 0.0, 0.0],
                [r * np.cos(half_angle), r * np.sin(half_angle), 0.0],
                [r * np.cos(half_angle), -r * np.sin(half_angle), 0.0],
            ]
        )
        nbrs = nearest_neighbors(s, 8, search_radius=5.0)
        x2 = compute_x2(nbrs, params)[0]
        d = 2 * r * np.sin(half_angle)
        w = (1 - (r / 5.0) ** 2) ** 2
        assert x2[0] == pytest.approx(w / d, rel=1e-12)
        assert np.all(x2[1:] == 0)

    def test_isolated_pair_is_zero(self):
        params = DescriptorParams(n_neighbors=8, cutoff=5.0)
        s = molecule([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        nbrs = nearest_neighbors(s, 8, search_radius=5.0)
        assert np.all(compute_x2(nbrs, params) == 0)

    def test_entries_descending(self):
        rng = np.random.default_rng(8)
        params = DescriptorParams(n_neighbors=10, cutoff=4.5)
        s = perturbed_cubic(rng, n_side=2, a=2.9)
        x2 = compute_x2(nearest_neighbors(s, 10, search_radius=4.5), params)
        assert np.all(np.diff(x2, axis=1) <= 1e-15)

    def test_matches_naive_loops(self):
        rng = np.random.default_rng(22)
        params = DescriptorParams(n_neighbors=12, cutoff=4.0)
        s = perturbed_cubic(rng, n_side=2, a=2.8)
        nbrs = nearest_neighbors(s, 12, search_radius=4.0)
        x2 = compute_x2(nbrs, params)
        assert x2.shape == (len(s), 11)
        for i in range(len(s)):
            assert np.allclose(x2[i], naive_x2(nbrs, i, 12, 4.0), atol=1e-12)


class TestBatchedBlocks:
    """Both blocks against the naive oracles on padded and chunked inputs."""

    def _assert_rows_match_naive(self, s, k, cutoff):
        params = DescriptorParams(n_neighbors=k, cutoff=cutoff)
        nbrs = nearest_neighbors(s, k, search_radius=cutoff)
        x1, x2 = compute_x1(nbrs, params), compute_x2(nbrs, params)
        assert x1.shape == (len(s), k) and x2.shape == (len(s), k - 1)
        for i in range(len(s)):
            assert np.allclose(x1[i], naive_x1(nbrs, i, k, cutoff), atol=1e-12)
            assert np.allclose(x2[i], naive_x2(nbrs, i, k, cutoff), atol=1e-12)
        return nbrs, x1, x2

    def test_clusters_smaller_than_k(self):
        # v = n_atoms - 1 < k, down to v = 0: the tail past v neighbors is 0
        rng = np.random.default_rng(40)
        k = 8
        for n_atoms in (1, 2, 3, 5, 9):
            s = molecule(rng.random((n_atoms, 3)) * 3.0 + np.arange(n_atoms)[:, None])
            nbrs, x1, x2 = self._assert_rows_match_naive(s, k=k, cutoff=5.0)
            v = min(n_atoms - 1, k)
            assert nbrs.distances.shape == (n_atoms, v)
            assert np.all(x1[:, v:] == 0.0)
            assert np.all(x2[:, max(v - 1, 0):] == 0.0)

    def test_structure_larger_than_one_chunk(self):
        rng = np.random.default_rng(41)
        s = perturbed_cubic(rng, n_side=9, a=2.6, jitter=0.1)
        assert len(s) > descriptor._CHUNK_ROWS
        self._assert_rows_match_naive(s, k=6, cutoff=3.5)

    def test_full_block_temporaries_stay_under_3_mb(self):
        # Two (_CHUNK_ROWS, 32, 32) buffers, 0.5 MB each at 64 rows; a
        # (3, rows, v, v) difference array would add 1.5 buffers more.
        rng = np.random.default_rng(43)
        n, v = descriptor._CHUNK_ROWS, 32
        positions = rng.normal(scale=2.0, size=(n, v, 3))
        nbrs = NeighborSet(
            distances=np.linalg.norm(positions, axis=2),
            neighbor_positions=positions,
            indices=np.zeros((n, v), dtype=int),
        )
        params = DescriptorParams(n_neighbors=v, cutoff=5.0)
        tracemalloc.start()
        x2 = compute_x2(nbrs, params)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 1.5 * 2 * n * v * v * 8
        for i in (0, n - 1):
            assert np.allclose(x2[i], naive_x2(nbrs, i, v, 5.0), atol=1e-12)

    def test_many_neighbors_take_smaller_blocks(self, monkeypatch):
        # at k = 100 a block holds _CHUNK_ROWS * 32**2 // 100**2 = 6 atoms, so
        # these 125 atoms span 21 blocks, the last of 5
        rng = np.random.default_rng(42)
        s = perturbed_cubic(rng, n_side=5, a=2.6, jitter=0.1)
        k, cutoff = 100, 8.0
        assert len(s) > 2 * (descriptor._CHUNK_ROWS * 32**2 // k**2)
        params = DescriptorParams(n_neighbors=k, cutoff=cutoff)
        nbrs = nearest_neighbors(s, k, search_radius=cutoff)
        assert nbrs.distances.shape == (len(s), k)
        tracemalloc.start()
        x2 = compute_x2(nbrs, params)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        # two (rows, v, v) buffers of 6 rows: about 1 MB, as at k = 32;
        # all 125 atoms in one block would take about 20 MB
        assert peak < 3e6
        for i in (0, 12, 13, 25, 26, 116, 117, 124):  # inside blocks and at their edges
            assert np.allclose(x2[i], naive_x2(nbrs, i, k, cutoff), atol=1e-12)
        monkeypatch.setattr(descriptor, "_CHUNK_ROWS", 1)
        assert np.array_equal(compute_x2(nbrs, params), x2)  # rows never see their block


class TestInvariances:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.params = DescriptorParams(n_neighbors=8, cutoff=4.0)
        self.mol_positions = rng.random((6, 3)) * 3.0

    def _rows(self, positions):
        ds = dataset(molecule(positions))
        return build_descriptor_set(ds, self.params).values

    def test_translation(self):
        base = self._rows(self.mol_positions)
        shifted = self._rows(self.mol_positions + np.array([11.0, -3.0, 0.5]))
        assert np.allclose(base, shifted, atol=1e-10)

    def test_rotation(self):
        rng = np.random.default_rng(9)
        base = self._rows(self.mol_positions)
        for _ in range(3):
            rot = random_rotation(rng)
            rotated = self._rows(self.mol_positions @ rot.T)
            assert np.allclose(base, rotated, atol=1e-10)

    def test_permutation(self):
        rng = np.random.default_rng(10)
        base = self._rows(self.mol_positions)
        perm = rng.permutation(len(self.mol_positions))
        permuted = self._rows(self.mol_positions[perm])
        assert np.allclose(base[perm], permuted, atol=1e-10)

    def test_species_never_enter(self):
        ds_a = dataset(molecule(self.mol_positions, species=("H",) * 6))
        ds_b = dataset(molecule(self.mol_positions, species=("Au",) * 6))
        a = build_descriptor_set(ds_a, self.params).values
        b = build_descriptor_set(ds_b, self.params).values
        assert np.array_equal(a, b)

    def test_supercell_multiset(self):
        rng = np.random.default_rng(12)
        primitive = perturbed_cubic(rng, n_side=2, a=2.9)  # 8 atoms
        reps = []
        for na in range(2):
            for nb in range(2):
                for nc in range(2):
                    shift = np.array([na, nb, nc], dtype=float) @ primitive.cell
                    reps.append(primitive.positions + shift)
        supercell = crystal(primitive.cell * 2, np.vstack(reps))
        prim_rows = build_descriptor_set(dataset(primitive), self.params).values
        super_rows = build_descriptor_set(dataset(supercell), self.params).values
        assert super_rows.shape[0] == 8 * prim_rows.shape[0]
        assert_row_multisets_close(super_rows, np.tile(prim_rows, (8, 1)), atol=1e-8)


    @pytest.mark.parametrize(
        "lengths, pbc, k",
        [((2.0, 10.0, 10.0), (1, 0, 0), 32), ((3.0, 10.0, 10.0), (1, 0, 0), 32),
         ((3.0, 6.0, 10.0), (1, 1, 0), 60)],
        ids=["chain-2A", "chain-3A", "sheet-3x6A"],
    )
    def test_sparse_low_dimensional_supercell(self, lengths, pbc, k):
        # One atom per cell holds fewer than k points within the cutoff, so
        # the rows' width must not depend on how many cells the layout spans.
        params = DescriptorParams(n_neighbors=k, cutoff=5.0)
        cell = np.diag(lengths)
        site = np.array([0.3, 0.4, 0.5])
        primitive = crystal(cell, [site], pbc=pbc)
        supercell = crystal(cell * [[2], [1], [1]], [site, site + cell[0]], pbc=pbc)
        for s in (primitive, supercell):
            assert nearest_neighbors(s, k, params.cutoff).distances.shape == (len(s), k)
        prim_rows = build_descriptor_set(dataset(primitive), params).values
        super_rows = build_descriptor_set(dataset(supercell), params).values
        assert_row_multisets_close(super_rows, np.tile(prim_rows, (2, 1)), atol=1e-12)


class TestBuildErrors:
    def test_coincident_neighbors_name_the_atom_past_the_first_block(self):
        # build_descriptor_set never gets here (compute_x1 rejects coincident
        # atoms first), so the neighbor shells are built by hand
        n, bad = descriptor._CHUNK_ROWS + 100, descriptor._CHUNK_ROWS + 88
        shell = np.array([[1.0, 0.0, 0.0], [0.0, 1.2, 0.0], [0.0, 0.0, 1.4]])
        positions = np.repeat(shell[None], n, axis=0)
        positions[bad, 2] = positions[bad, 1]
        nbrs = NeighborSet(
            distances=np.linalg.norm(positions, axis=2),
            neighbor_positions=positions,
            indices=np.tile(np.arange(3), (n, 1)),
        )
        with pytest.raises(DegenerateGeometryError, match=f"^atom {bad}: coincident neighbors"):
            compute_x2(nbrs, DescriptorParams(n_neighbors=4, cutoff=5.0))

    def test_coincident_atoms_name_the_place(self):
        params = DescriptorParams(n_neighbors=4, cutoff=5.0)
        good = molecule([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        bad = molecule([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(DegenerateGeometryError, match="structure 1, atom 0"):
            build_descriptor_set(dataset(good, bad), params)

    def test_neighbors_closer_than_the_floor_are_coincident(self):
        # At 1e-160 angstrom an entry is 1e160 and its square overflows; just
        # above the 1e-150 floor every squared norm is finite.
        params = DescriptorParams(n_neighbors=4, cutoff=5.0)
        for gap in (1e-160, 0.99e-150):
            near = molecule([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [2.0, 0.0, gap]])
            with pytest.raises(DegenerateGeometryError, match="^structure 0, atom 1: coincident"):
                build_descriptor_set(dataset(near), params)
        apart = molecule([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [2.0, 0.0, 1.01e-150]])
        store = build_descriptor_set(dataset(apart), params)._store
        assert np.isfinite(store).all() and store[-1].max() < np.finfo(float).max / 4


def tree_rows(structures, params):
    """Rows of each structure from its own k-d tree search, one at a time."""
    k = params.n_neighbors
    blocks = []
    for s in structures:
        nbrs = nearest_neighbors(s, k, params.cutoff)
        blocks.append(np.hstack([compute_x1(nbrs, params), compute_x2(nbrs, params)]))
    return np.vstack(blocks)


def random_cell(rng, n, side, pbc=(1, 1, 1)):
    cell = np.eye(3) * side + rng.uniform(-0.3, 0.3, size=(3, 3)) * side
    return crystal(cell, rng.uniform(-0.2, 1.2, size=(n, 3)) @ cell, pbc=pbc)


def random_cluster(rng, n, side=5):
    # one atom per 2 angstrom cube of a grid, jittered: never coincident
    sites = rng.permutation(np.argwhere(np.ones((side,) * 3)))[:n]
    return molecule((sites + rng.uniform(-0.3, 0.3, size=(n, 3))) * 2.0)


def spy_routes(monkeypatch):
    """Structures per group of each route that build_descriptor_set
    searches: each group is counted under the finder that found its
    candidates."""
    calls, route = {"batches": [], "trees": []}, []
    for name, finder in (("batches", "_batch_finder"), ("trees", "_tree_finder")):

        def spy(points, own, k, find=getattr(geometry, finder), name=name):
            route.append(name)
            return find(points, own, k)

        monkeypatch.setattr(geometry, finder, spy)
    groups = descriptor._neighbor_groups

    def counted(structures, search_radius, k):
        route.clear()  # nearest_neighbors searches outside a build count for none
        for indices, nbrs in groups(structures, search_radius, k):
            (name,) = route  # one finder call per group
            route.clear()
            calls[name].append(len(indices))
            yield indices, nbrs

    monkeypatch.setattr(descriptor, "_neighbor_groups", counted)
    return calls


class TestBatchedPath:
    """Small structures are searched and described in batches; every other
    structure takes its own k-d tree, in groups.  Rows must be those of one
    tree search per structure, bit for bit."""

    @pytest.fixture
    def routes(self, monkeypatch):
        return spy_routes(monkeypatch)

    @staticmethod
    def assert_tree_rows(structures, params):
        got = build_descriptor_set(tuple(structures), params)
        assert got.values.tobytes() == tree_rows(structures, params).tobytes()
        assert got.offsets[:, 1].tolist() == [len(s) for s in structures]

    @pytest.mark.parametrize("k, cutoff", [(8, 4.0), (32, 5.0)])
    def test_mixed_dataset(self, routes, k, cutoff):
        rng = np.random.default_rng(50 + k)
        structures = [random_cell(rng, n, rng.uniform(2.5, 6.0)) for n in range(1, 13)]
        structures += [
            random_cell(rng, n, rng.uniform(3.0, 6.0), pbc)
            for pbc in ((1, 1, 0), (1, 0, 0), (0, 1, 1))
            for n in (1, 3, 6)
        ]
        structures += [random_cluster(rng, n) for n in (1, 2, k, k + 1)]
        structures += [random_cell(rng, 40, 7.0), random_cluster(rng, 40)]
        rng.shuffle(structures)
        self.assert_tree_rows(structures, DescriptorParams(k, cutoff))
        # both sides of the routing crossover ran
        trees = sum(routes["trees"])
        assert trees >= 2 and sum(routes["batches"]) + trees == len(structures)

    @pytest.mark.parametrize("k, cutoff", [(8, 4.0), (32, 5.0)])
    def test_large_clusters_and_slabs_batch(self, routes, k, cutoff):
        # a structure batches while 2 n P <= _BATCH_PAIRS: clusters of up to
        # 128 atoms (P = n) and slabs of up to 42 atoms with one image per
        # periodic side (P = 9 n)
        rng = np.random.default_rng(54 + k)
        structures = [random_cluster(rng, n, side=6) for n in (33, 40, 64, 100, 128, 128)]
        for pbc in ((1, 1, 0), (0, 1, 1)):
            for n in (33, 40, 42):
                cell = np.diag([9.0, 9.0, 9.0]) + rng.uniform(-0.5, 0.5, size=(3, 3))
                structures.append(crystal(cell, rng.random((n, 3)) @ cell, pbc=pbc))
        assert geometry._image_reaches(structures[6:], cutoff, k).max() == 1
        self.assert_tree_rows(structures, DescriptorParams(k, cutoff))
        assert routes["trees"] == []
        assert sorted(routes["batches"]) == [1] * 10 + [2]
        # one more atom than fits takes the tree
        self.assert_tree_rows([random_cluster(rng, 129, side=6)], DescriptorParams(k, cutoff))
        assert routes["trees"] == [1]

    @pytest.mark.parametrize("spare", [None, 0])
    def test_lattice_ties_widen_the_candidates(self, monkeypatch, routes, spare):
        # With no spare candidate the tie check fails on every batch's first
        # count, so the candidates widen through the doubling loop.
        from test_geometry import LATTICE_TIES

        # the counts each batch is searched at
        counts, batch_finder = [], geometry._batch_finder

        def count_spy(points, own, k):
            nearest, m = batch_finder(points, own, k)
            counts.append([])
            return (lambda m: counts[-1].append(m) or nearest(m)), m

        monkeypatch.setattr(geometry, "_batch_finder", count_spy)
        if spare is not None:
            monkeypatch.setattr(geometry, "_BATCH_SPARE", spare)
        for cell, grid, pbc, radius in LATTICE_TIES:
            s = crystal(cell, np.array(grid, dtype=float), pbc=pbc)
            for k in (2, 6, 8, 10, 20, 32):
                self.assert_tree_rows([s, s, s], DescriptorParams(k, radius))
        assert routes["trees"] == []
        # the first count falls short on some batches, and on every batch
        # without a spare candidate
        assert any(len(c) > 1 for c in counts)
        if spare == 0:
            assert all(len(c) > 1 for c in counts)

    def test_groups_across_batch_boundaries(self, monkeypatch, routes):
        rng = np.random.default_rng(51)
        params = DescriptorParams(8, 4.0)
        # three groups in turn, with structures of the tree route in between
        structures = []
        for i in range(40):
            side = rng.uniform(4.1, 4.9)  # one image per side
            structures.append(crystal(np.eye(3) * side, rng.random((3, 3)) * side))
            structures.append(random_cluster(rng, 9 + i % 2))
            if i % 10 == 0:
                structures.append(random_cluster(rng, 40))
        monkeypatch.setattr(geometry, "_BATCH_PAIRS", 729)
        self.assert_tree_rows(structures, params)
        assert routes["trees"] == [4]  # 2 * 40**2 pairs > 729, one group
        # 40 cells of 3 * 81 pairs, 3 a batch; 20 clusters of 9 atoms (81
        # pairs), 9 a batch; 20 clusters of 10 (100 pairs), 7 a batch
        assert sorted(routes["batches"]) == sorted([3] * 13 + [1] + [9, 9, 2] + [7, 7, 6])

    def test_structure_with_too_many_pairs_takes_the_tree(self, routes):
        # one atom in a 0.3 angstrom cell: 17 images per side lay out
        # 35**3 > _BATCH_PAIRS // 2 points
        tiny = crystal(np.eye(3) * 0.3, [[0.1, 0.2, 0.3]])
        small = crystal(np.eye(3) * 2.0, [[0.1, 0.2, 0.3]])
        assert geometry._image_reaches([tiny], 5.0, 32).tolist() == [[17, 17, 17]]
        assert 35**3 > geometry._BATCH_PAIRS // 2
        self.assert_tree_rows([tiny, small, tiny], DescriptorParams(32, 5.0))
        # 2 * 35**3 points are more than one tree group holds
        assert 2 * 35**3 > geometry._TREE_POINTS
        assert routes == {"batches": [1], "trees": [1, 1]}

    def test_tree_groups_hold_at_most_256_rows(self, routes):
        # 40-atom cells of 27 images: 256 // 40 = 6 cells to a group, with
        # 6 * 1,080 points, far fewer than _TREE_POINTS
        rng = np.random.default_rng(55)
        structures = [random_cell(rng, 40, 7.0) for _ in range(8)]
        structures += [random_cluster(rng, 129, side=6) for _ in range(2)]
        rng.shuffle(structures)
        assert geometry._image_reaches(structures, 4.0, 8).max() == 1
        self.assert_tree_rows(structures, DescriptorParams(8, 4.0))
        assert routes["batches"] == [] and sorted(routes["trees"]) == [1, 1, 2, 6]

    def test_coincident_pair_in_a_batch_names_structure_and_atom(self, routes):
        rng = np.random.default_rng(52)
        structures = [random_cell(rng, 4, 6.0) for _ in range(5)]
        positions = structures[2].positions.copy()
        positions[3] = positions[1]
        structures[2] = crystal(structures[2].cell, positions)
        with pytest.raises(DegenerateGeometryError, match="^structure 2, atom 1: coincident atoms"):
            build_descriptor_set(tuple(structures), DescriptorParams(8, 4.0))
        assert routes["batches"][0] == 5  # all five in one batch first

    def test_first_failure_in_dataset_order(self):
        rng = np.random.default_rng(53)
        params = DescriptorParams(8, 4.0)
        good = random_cell(rng, 4, 6.0)
        bad = crystal(good.cell, np.vstack([good.positions, good.positions[:1]]))
        large = random_cell(rng, 40, 7.0)
        large_bad = crystal(large.cell, np.vstack([large.positions, large.positions[5:6]]))
        # 41 atoms in a layout of 27 images: too many pairs for a batch
        assert geometry._image_reaches([large_bad], 4.0, 8).tolist() == [[1, 1, 1]]
        assert 2 * 41 * 41 * 27 > geometry._BATCH_PAIRS
        # ceil(4 / 0.03) = 134 images per side: more than 10**7 points
        tiny = crystal(np.eye(3) * 0.03, [[0.0, 0.0, 0.0]])
        cases = [
            # the batch comes after the tree, which fails first
            ([good, bad, good, large_bad], DegenerateGeometryError, "structure 1, atom 0"),
            ([good, large_bad, bad], DegenerateGeometryError, "structure 1, atom 5"),
            # the image limit is checked before anything is searched
            ([good, bad, good, tiny], DegenerateGeometryError, "structure 1, atom 0"),
            ([good, tiny, bad], DegenerateGeometryError, "structure 1, cell heights"),
        ]
        for structures, error, message in cases:
            with pytest.raises(error, match=f"^{message}"):
                build_descriptor_set(tuple(structures), params)


class TestDescriptorSet:
    def _make(self, sizes, width=5, seed=0):
        rng = np.random.default_rng(seed)
        values = rng.random((sum(sizes), width))
        offsets, pos = [], 0
        for n in sizes:
            offsets.append((pos, n))
            pos += n
        return DescriptorSet(values=values, offsets=np.array(offsets))

    def test_offsets_partition_dataset(self):
        params = DescriptorParams(n_neighbors=4, cutoff=4.0)
        ds = dataset(
            molecule([[0.0, 0.0, 0.0], [1.5, 0.0, 0.0]]),
            molecule([[0.0, 0.0, 0.0], [0.0, 1.2, 0.0], [0.0, 0.0, 1.8]]),
        )
        descs = build_descriptor_set(ds, params)
        assert descs.n_environments == 5
        assert descs.offsets.tolist() == [[0, 2], [2, 3]]
        assert descs.rows_for(1).shape == (3, params.width)

    def test_rejects_gap_in_offsets(self):
        with pytest.raises(InputError):
            DescriptorSet(values=np.zeros((4, 3)), offsets=np.array([(0, 2), (3, 1)]))

    def test_rejects_short_coverage(self):
        with pytest.raises(InputError):
            DescriptorSet(values=np.zeros((4, 3)), offsets=np.array([(0, 2)]))

    def test_rejects_nonfinite(self):
        values = np.zeros((2, 3))
        values[1, 1] = np.nan
        with pytest.raises(InputError):
            DescriptorSet(values=values, offsets=np.array([(0, 2)]))

    def test_rejects_one_dimensional_values(self):
        with pytest.raises(InputError, match="values must be 2-D"):
            DescriptorSet(values=np.zeros(4), offsets=np.array([(0, 4)]))

    def test_rejects_offsets_of_three_columns(self):
        with pytest.raises(InputError, match=r"offsets must be \(n, 2\)"):
            DescriptorSet(values=np.zeros((4, 3)), offsets=np.array([(0, 2, 0), (2, 2, 0)]))

    def test_rejects_width_param_mismatch(self):
        with pytest.raises(InputError):
            DescriptorSet(
                values=np.zeros((2, 5)),
                offsets=np.array([(0, 2)]),
                params=DescriptorParams(n_neighbors=4),  # width 7
            )

    def test_subset_keeps_order_and_rows(self):
        descs = self._make([2, 3, 1, 4])
        sub = descs.subset([2, 0])
        assert sub.n_structures == 2
        assert np.array_equal(sub.rows_for(0), descs.rows_for(2))
        assert np.array_equal(sub.rows_for(1), descs.rows_for(0))
        assert sub.offsets.tolist() == [[0, 1], [1, 2]]

    def test_subset_rejects_duplicates_and_range(self):
        descs = self._make([2, 2])
        with pytest.raises(InputError):
            descs.subset([0, 0])
        with pytest.raises(InputError):
            descs.subset([5])
        with pytest.raises(InputError):
            descs.subset([])


    def test_errors_name_the_first_bad_entry(self):
        descs = self._make([2, 3, 1, 4])
        with pytest.raises(InputError, match="structure index 7 out of range"):
            descs.subset(np.array([1, 7, -1, 9]))
        with pytest.raises(InputError, match="must be unique"):
            descs.subset([7, 1, 1])
        with pytest.raises(InputError, match="offsets cover 3 rows but values has 4"):
            DescriptorSet(values=np.zeros((4, 3)), offsets=np.array([(0, 2), (2, 1)]))
        with pytest.raises(InputError, match="offsets cover 0 rows"):
            DescriptorSet(values=np.zeros((1, 3)), offsets=np.zeros((0, 2)))
        with pytest.raises(InputError, match="contiguous partition"):
            DescriptorSet(values=np.zeros((4, 3)), offsets=np.array([(0, 2), (2, 0), (2, 2)]))


class TestCache:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(30)
        params = DescriptorParams(n_neighbors=6, cutoff=3.5)
        ds = dataset(
            perturbed_cubic(rng, n_side=2, a=2.8),
            molecule(rng.random((4, 3)) * 3.0),
        )
        descs = build_descriptor_set(ds, params)
        path = tmp_path / "cache.acds"
        save_descriptor_set(descs, path)
        loaded = load_descriptor_set(path)
        assert loaded.params == params
        assert np.array_equal(loaded.values, descs.values)
        assert np.array_equal(loaded.offsets, descs.offsets)

    def test_load_then_save_rewrites_the_file(self, tmp_path):
        descs = self.large_set(rows=2_600, structures=13)  # eleven store chunks
        path = tmp_path / "cache.acds"
        save_descriptor_set(descs, path)
        written = path.read_bytes()
        save_descriptor_set(load_descriptor_set(path), path)
        assert path.read_bytes() == written

    def test_loaded_store_has_the_bits_of_the_built_store(self, tmp_path):
        # row counts on both sides of a store chunk's edge, and several chunks
        params = DescriptorParams(n_neighbors=6, cutoff=3.5)
        for rows in (1, _STORE_CHUNK - 1, _STORE_CHUNK, _STORE_CHUNK + 1, 3 * _STORE_CHUNK + 5):
            # eight-atom cells, then one-atom cells of varied edge for the rest
            rng = np.random.default_rng(36)
            structures = [perturbed_cubic(rng, n_side=2, a=2.8) for _ in range(rows // 8)]
            structures += [
                perturbed_cubic(rng, n_side=1, a=a) for a in 2.5 + rng.random(rows % 8)
            ]
            built = build_descriptor_set(structures, params)
            assert built.n_environments == rows
            path = tmp_path / f"{rows}.acds"
            save_descriptor_set(built, path)
            loaded = load_descriptor_set(path)
            plain = np.ascontiguousarray(built.values)
            assert np.ascontiguousarray(loaded.values).tobytes() == plain.tobytes(), rows
            for store in (
                loaded._store,
                DescriptorSet(values=plain, offsets=built.offsets, params=params)._store,
                _store_of(plain),
            ):
                assert store.tobytes() == built._store.tobytes(), rows

    @staticmethod
    def large_set(rows=20_000, structures=100):
        rng = np.random.default_rng(35)
        length = rows // structures
        return DescriptorSet(
            values=rng.random((rows, 63)),
            offsets=np.array([(i * length, length) for i in range(structures)]),
            params=DescriptorParams(n_neighbors=32, cutoff=5.0),
        )

    def test_file_bytes_match_a_tobytes_write(self, tmp_path):
        descs = self.large_set(rows=210, structures=21)
        path = tmp_path / "cache.acds"
        save_descriptor_set(descs, path)
        offsets = descs.offsets.astype("<i8").tobytes()
        values = descs.values.T.astype("<f8").tobytes()
        expected = (
            b"ACDS0003"
            + struct.pack("<IdQQ", 32, 5.0, 210, 21)
            + offsets
            + values
            + struct.pack("<I", zlib.crc32(values, zlib.crc32(offsets)))
        )
        assert path.read_bytes() == expected

    def test_save_makes_no_copy_of_the_rows(self, tmp_path):
        descs = self.large_set()
        tracemalloc.start()
        save_descriptor_set(descs, tmp_path / "cache.acds")
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < descs.values.nbytes

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.acds"
        path.write_bytes(b"not a cache at all")
        with pytest.raises(InputError):
            load_descriptor_set(path)

    def test_requires_params(self, tmp_path):
        descs = DescriptorSet(values=np.zeros((1, 3)), offsets=np.array([(0, 1)]))
        with pytest.raises(InputError):
            save_descriptor_set(descs, tmp_path / "x.acds")

    def test_rejects_changed_bytes(self, tmp_path):
        rng = np.random.default_rng(32)
        descs = build_descriptor_set(
            dataset(perturbed_cubic(rng, n_side=2, a=2.8)),
            DescriptorParams(n_neighbors=4, cutoff=3.5),
        )
        path = tmp_path / "cache.acds"
        save_descriptor_set(descs, path)
        full = path.read_bytes()
        header = 8 + 28
        # an offset byte, the low byte of two values, the top byte of the last
        # value and a checksum byte
        for pos in (header + 3, header + 16 + 8, len(full) - 20, len(full) - 5, len(full) - 1):
            path.write_bytes(full[:pos] + bytes([full[pos] ^ 0x01]) + full[pos + 1 :])
            with pytest.raises(InputError, match="checksum"):
                load_descriptor_set(path)

    def test_rejects_previous_format(self, tmp_path):
        rng = np.random.default_rng(33)
        descs = build_descriptor_set(
            dataset(perturbed_cubic(rng, n_side=2, a=2.8)),
            DescriptorParams(n_neighbors=4, cutoff=3.5),
        )
        path = tmp_path / "cache.acds"
        save_descriptor_set(descs, path)
        full = path.read_bytes()
        # the checksum-free layout, and the row-major one of format 2
        for old in (b"ACDS0001" + full[8:-4], previous_format_cache(descs)):
            path.write_bytes(old)
            with pytest.raises(InputError, match="not a descriptor cache file of this version"):
                load_descriptor_set(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_rows(self, tmp_path, value):
        rng = np.random.default_rng(37)
        descs = build_descriptor_set(
            dataset(perturbed_cubic(rng, n_side=2, a=2.8)),
            DescriptorParams(n_neighbors=4, cutoff=3.5),
        )
        path = tmp_path / "cache.acds"
        save_descriptor_set(descs, path)
        path.write_bytes(cache_with_value(path.read_bytes(), 13, value))
        with pytest.raises(InputError, match="rows must be finite"):
            load_descriptor_set(path)

    def test_rejects_wrong_length(self, tmp_path):
        rng = np.random.default_rng(31)
        descs = build_descriptor_set(
            dataset(perturbed_cubic(rng, n_side=2, a=2.8)),
            DescriptorParams(n_neighbors=4, cutoff=3.5),
        )
        path = tmp_path / "cache.acds"
        save_descriptor_set(descs, path)
        full = path.read_bytes()
        assert [p.name for p in tmp_path.iterdir()] == ["cache.acds"]  # no temp left
        for cut in (full[:10], full[:40], full[:-8], full + b"\0" * 8):
            path.write_bytes(cut)
            with pytest.raises(InputError):
                load_descriptor_set(path)

    def test_short_read_is_an_input_error(self, tmp_path, monkeypatch):
        # the file shrinks between the size check and the reads
        rng = np.random.default_rng(34)
        descs = build_descriptor_set(
            dataset(perturbed_cubic(rng, n_side=2, a=2.8)),
            DescriptorParams(n_neighbors=4, cutoff=3.5),
        )
        path = tmp_path / "cache.acds"
        save_descriptor_set(descs, path)
        full = path.read_bytes()
        monkeypatch.setattr(os, "fstat", lambda fd: types.SimpleNamespace(st_size=len(full)))
        for cut in (8 + 28 + 8, len(full) - 100, len(full) - 2):
            path.write_bytes(full[:cut])
            with pytest.raises(InputError, match="truncated"):
                load_descriptor_set(path)
