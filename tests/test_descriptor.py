import tracemalloc

import numpy as np
import pytest

from atomcover import descriptor
from atomcover import (
    Dataset,
    DegenerateGeometryError,
    DescriptorParams,
    DescriptorSet,
    InputError,
    build_descriptor_set,
    compute_x1,
    compute_x2,
    load_descriptor_set,
    nearest_neighbors,
    save_descriptor_set,
)
from atomcover.descriptor import _cutoff_weight
from helpers import (
    assert_row_multisets_close,
    crystal,
    dataset,
    molecule,
    naive_x1,
    naive_x2,
    perturbed_cubic,
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

    def test_many_neighbors_take_smaller_blocks(self, monkeypatch):
        # at k = 100 a block holds 52 atoms, so these 125 atoms span three
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
        # five (rows, v, v) temporaries at a time: about 21 MB, as at k = 32;
        # all 125 atoms in one block would take about 52 MB
        assert peak < 30e6
        for i in (0, 51, 52, 103, 104, 124):  # both sides of each block edge
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
    def test_coincident_atoms_name_the_place(self):
        params = DescriptorParams(n_neighbors=4, cutoff=5.0)
        good = molecule([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        bad = molecule([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(DegenerateGeometryError, match="structure 1, atom 0"):
            build_descriptor_set(dataset(good, bad), params)


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
        path.write_bytes(b"ACDS0001" + full[8:-4])  # the checksum-free layout
        with pytest.raises(InputError):
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
