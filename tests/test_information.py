import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from atomcover import (
    Coverage,
    DescriptorSet,
    InputError,
    KernelParams,
    contained_fraction,
    delta_entropy,
    diversity,
    efficiency,
    entropy,
    overlap,
    per_structure_entropy,
)
from atomcover import information
from atomcover.information import _subset_delta_entropies
from helpers import (
    count_cross_passes,
    count_self_passes,
    fsum_delta_entropy,
    mixed_size_set,
    multi_phase_rows,
    naive_delta_entropy,
    naive_diversity,
    naive_entropy,
    synthetic_set,
)

H = 0.015
KP = KernelParams(bandwidth=H)


def far_apart(n, width=63, spacing_over_h=100.0):
    """Rows pairwise at least spacing_over_h bandwidths apart."""
    rows = np.zeros((n, width))
    rows[:, 0] = np.arange(n) * spacing_over_h * H
    return rows


class TestKernelParams:
    def test_default(self):
        assert KernelParams().bandwidth == 0.015

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            KernelParams(bandwidth=0.0)

    # 2h^2 underflows to 0, 1/(2h^2) overflows, or h itself is not finite.
    @pytest.mark.parametrize("bandwidth", [1e-300, 1e-160, math.inf, math.nan])
    def test_rejects_bandwidth_without_finite_scale(self, bandwidth):
        with pytest.raises(InputError, match="bandwidth"):
            KernelParams(bandwidth=bandwidth)

    def test_accepts_smallest_usable_bandwidths(self):
        assert KernelParams(bandwidth=1e-154).bandwidth == 1e-154
        assert KernelParams(bandwidth=1e200).bandwidth == 1e200


class TestOverflowingLogKernel:
    """At the smallest bandwidths d^2 / (2h^2) overflows to an infinite log kernel."""

    def test_whole_block_overflow_raises(self):
        # every reference's log kernel is -inf, so the row would come out NaN
        with pytest.raises(InputError, match="bandwidth 1e-154"):
            delta_entropy(np.zeros((1, 3)), np.full((2, 3), 10.0), KernelParams(1e-154))

    def test_overflow_beside_a_self_match_keeps_exact_figures(self):
        # pytest turns RuntimeWarnings into errors, so this also checks that
        # the overflowing far pair warns no more
        result = entropy(np.array([[0.0, 0.0, 0.0], [10.0, 10.0, 10.0]]), KernelParams(1e-154))
        assert result.per_point.tolist() == [0.0, 0.0]
        assert np.signbit(result.per_point).all()  # -0: a kernel sum of exactly 1
        assert result.entropy_nats == result.diversity_nats == np.log(2)
        assert result.efficiency == 1.0

    def test_overflowing_tile_beside_a_near_reference(self):
        # the first 4096 references overflow for the query, the last one is
        # the query itself: a kernel sum of exactly 1
        refs = np.vstack([np.full((4096, 3), 10.0), np.zeros((1, 3))])
        got = delta_entropy(np.zeros((1, 3)), refs, KernelParams(1e-154))
        assert got.tolist() == [0.0] and np.signbit(got).all()

    def test_self_pass_with_overflowing_tiles_is_finite(self):
        # every row overflows against each row of the other group
        rows = np.vstack([np.zeros((4096, 3)), np.full((1, 3), 10.0)])
        result = entropy(rows, KernelParams(1e-154))
        assert np.array_equal(result.per_point[:4096], np.full(4096, -np.log(4096)))
        assert result.per_point[4096] == 0.0 and np.signbit(result.per_point[4096])


class TestLimitingCases:
    def test_identical_rows_have_zero_entropy(self):
        rows = np.tile(np.random.default_rng(0).random(63), (100, 1))
        assert entropy(rows, KP).entropy_nats == pytest.approx(0.0, abs=1e-9)

    def test_far_apart_rows_reach_log_n(self):
        rows = far_apart(200)
        assert entropy(rows, KP).entropy_nats == pytest.approx(np.log(200), abs=1e-9)

    def test_diversity_limits(self):
        rows = np.tile(np.random.default_rng(1).random(63), (77, 1))
        assert diversity(rows, KP) == pytest.approx(0.0, abs=1e-9)
        assert diversity(far_apart(77), KP) == pytest.approx(np.log(77), abs=1e-9)

    def test_thousand_rows_under_a_second(self):
        rows = far_apart(1000)
        start = time.perf_counter()
        value = entropy(rows, KP).entropy_nats
        elapsed = time.perf_counter() - start
        assert value == pytest.approx(np.log(1000), abs=1e-9)
        assert elapsed < 1.0


class TestClosedForm:
    @pytest.mark.parametrize("ratio", [0.1, 1.0, 10.0, 50.0])
    def test_single_far_reference(self, ratio):
        d = ratio * H
        query = np.zeros((1, 63))
        query[0, 0] = d
        got = delta_entropy(query, np.zeros((1, 63)), KP)[0]
        assert got == pytest.approx(d * d / (2 * H * H), abs=1e-9)


class TestOracleEquivalence:
    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(42)
        start = time.perf_counter()
        for _ in range(50):
            n = int(rng.integers(2, 201))
            # include scales near h so kernel sums carry real cross-terms
            scale = rng.choice([0.001, 0.003, 0.01, 0.05, 0.3])
            rows = rng.normal(scale=scale, size=(n, 63))
            got_dh = delta_entropy(rows, rows, KP)
            want_dh = naive_delta_entropy(rows, rows, H)
            assert np.allclose(got_dh, want_dh, atol=1e-8)
            assert entropy(rows, KP).entropy_nats == pytest.approx(
                naive_entropy(rows, H), abs=1e-8
            )
            assert diversity(rows, KP) == pytest.approx(
                naive_diversity(rows, H), abs=1e-8
            )
        assert time.perf_counter() - start < 10.0

    def test_blocked_path_crosses_boundaries(self):
        # more than one tile of queries and of references
        rng = np.random.default_rng(5)
        refs = rng.normal(scale=0.02, size=(5000, 4))
        queries = rng.normal(scale=0.02, size=(300, 4))
        got = delta_entropy(queries, refs, KP)
        want = naive_delta_entropy(queries, refs, H)
        assert np.allclose(got, want, atol=1e-8)

    # One 256-row tile, a partial second tile, exactly two tiles, and more.
    @pytest.mark.parametrize("n", [255, 256, 257, 513, 700])
    @pytest.mark.parametrize("scale", [0.003, 0.01, 0.05])
    def test_multi_tile_self_pass(self, n, scale):
        rows = np.random.default_rng(n).normal(scale=scale, size=(n, 63))
        result = entropy(rows, KP)
        assert np.all(result.per_point <= 0)  # every row is its own reference
        assert np.allclose(result.per_point, naive_delta_entropy(rows, rows, H), atol=1e-8)
        assert result.entropy_nats == pytest.approx(naive_entropy(rows, H), abs=1e-8)
        assert result.diversity_nats == pytest.approx(naive_diversity(rows, H), abs=1e-8)
        cross = delta_entropy(rows, rows, KP)
        if n <= 256:
            assert np.array_equal(result.per_point, cross)
        else:
            assert np.allclose(result.per_point, cross, rtol=0.0, atol=1e-12)
        assert np.array_equal(entropy(rows, KP).per_point, result.per_point)

    @pytest.mark.parametrize("width", [9, 63])
    def test_one_tile_self_pass_has_the_bits_of_a_coverage(self, width):
        # the self pass and a Coverage lay out their right forms alike, so
        # at every one-tile size their GEMMs, and so their sums, agree
        rng = np.random.default_rng(width)
        for n in range(1, 257):
            rows = rng.normal(scale=0.02, size=(n, width))
            assert np.array_equal(entropy(rows, KP).per_point, delta_entropy(rows, rows, KP)), n


class TestSubsetDeltaEntropies:
    """Every subset's delta_entropy(rows, rows[s]) from one weighted self pass."""

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 600])
    @pytest.mark.parametrize("c", [1, 2, 5])
    def test_columns_match_cross_passes_and_the_oracle(self, n, c):
        rng = np.random.default_rng(100 * n + c)
        rows = rng.normal(scale=0.01, size=(n, 63))
        subsets = [
            np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
            for _ in range(c)
        ]
        got = _subset_delta_entropies(rows, subsets, KP)
        assert len(got) == c
        for dh, subset in zip(got, subsets):
            assert np.all(dh[subset] <= 0)  # every member is its own reference
            want = delta_entropy(rows, rows[subset], KP)
            np.testing.assert_allclose(dh, want, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(
                dh, naive_delta_entropy(rows, rows[subset], H), rtol=0.0, atol=1e-8
            )

    @pytest.mark.parametrize("n", [7, 256, 600])
    def test_entropy_takes_the_weight_vector_route(self, n, monkeypatch):
        rows = np.random.default_rng(n).normal(scale=0.01, size=(n, 63))
        passes = []
        real = information._self_kernel_sums

        def recording(store, kernel, weights):
            sums = real(store, kernel, weights)
            passes.append((store, weights, sums))
            return sums

        monkeypatch.setattr(information, "_self_kernel_sums", recording)
        result = entropy(rows, KP)
        ((store, weights, sums),) = passes
        assert store.shape == (63 + 2, n)
        assert weights.shape == (n, 1) and np.all(weights == 1.0)
        assert np.array_equal(result.per_point, -np.log(sums[:, 0]))
        (all_rows,) = _subset_delta_entropies(rows, [np.arange(n)], KP)
        assert np.array_equal(all_rows, result.per_point)

    def test_far_row_falls_back_to_the_closed_form(self, monkeypatch):
        # row 1 sits 50 h from the lone kept row 0: exp(-1250) underflows in
        # the shared pass, and the exact recomputation gives d^2 / (2 h^2)
        d = 50.0 * H
        rows = np.zeros((3, 63))
        rows[1, 0], rows[2, 1] = d, 0.5 * H
        shapes = count_cross_passes(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (dh,) = _subset_delta_entropies(rows, [np.array([0])], KP)
        assert shapes == [(1, 1)]  # one row recomputed, against the one kept row
        assert dh[1] == pytest.approx(d * d / (2 * H * H), abs=1e-9)
        assert dh[1] == delta_entropy(rows[1:2], rows[:1], KP)[0]
        near = rows[[0, 2]]  # the naive sum of row 1 underflows to log(0)
        np.testing.assert_allclose(dh[[0, 2]], naive_delta_entropy(near, rows[:1], H), atol=1e-8)

    def test_overflow_against_every_kept_row_raises(self):
        rows = np.array([[0.0, 0.0, 0.0], [10.0, 10.0, 10.0]])
        with pytest.raises(InputError, match="bandwidth 1e-154"):
            _subset_delta_entropies(rows, [np.array([0])], KernelParams(1e-154))
        # kept rows themselves are fine: each sum holds its own exp(0) = 1
        (dh,) = _subset_delta_entropies(rows, [np.array([0, 1])], KernelParams(1e-154))
        assert dh.tolist() == [0.0, 0.0]


class TestBlockBuffers:
    @pytest.mark.parametrize("near", [4500, 1000])
    def test_lone_near_reference_among_far_blocks(self, near):
        # 300 queries and 5000 references: the last tile of each is partial.
        # The near reference sits behind 17 all-far tiles (row 4500), or
        # ahead of 16 of them (row 1000).
        rng = np.random.default_rng(21)
        d = 5.0 * H
        directions = rng.normal(size=(300, 63))
        queries = d * directions / np.linalg.norm(directions, axis=1, keepdims=True)
        refs = rng.normal(scale=0.01, size=(5000, 63))
        refs[:, 0] += 2.0
        refs[near] = 0.0  # the one near reference, at distance d from every query
        # |q - r| >= |r| - d for every query q and every other reference r
        far_gap = np.linalg.norm(np.delete(refs, near, axis=0), axis=1).min() - d
        assert far_gap**2 / (2 * H * H) > 1000.0
        got = delta_entropy(queries, refs, KP)
        assert np.allclose(got, d * d / (2 * H * H), rtol=0.0, atol=1e-9)

    def test_working_memory_is_a_few_blocks(self):
        rng = np.random.default_rng(22)
        queries = rng.normal(scale=0.02, size=(1000, 63))
        refs = rng.normal(scale=0.02, size=(5000, 63))
        for run in (lambda: delta_entropy(queries, refs, KP), lambda: entropy(refs, KP)):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # plain rows build their own (width + 2) x n stores, for the
            # queries and for the references (2.6 MB here); on top of them
            # the pass's one float64 256 x 256 tile buffer (0.5 MiB), a left
            # block in (width + 2)-column form, the flat indices of a tile's
            # snap candidates and O(n) vectors
            assert peak < 4 * 2**20

    def test_a_descriptor_set_is_read_in_place(self):
        # a copy of the store would take 10.4 MB for the 20,000 x 63 set,
        # and 3.1 MB for its first 6,000 rows
        rng = np.random.default_rng(23)
        descs = synthetic_set(np.split(rng.normal(scale=0.02, size=(20_000, 63)), 100))
        first, head = descs.subset([0]), descs.subset(range(30))
        for run in (
            lambda: Coverage(descs, KP).extend(first),
            lambda: entropy(head, KP),
        ):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # the tile buffer (0.5 MB), a left block and O(n) vectors
            assert peak < 3 * 2**20


class TestStoreEntryPoints:
    """A DescriptorSet is read from its store in place, with the bits of its
    rows passed as a plain C-contiguous array."""

    @staticmethod
    def mixed(n, width):
        # structures of 1, 7, 64 and 200 rows in turn; one row far from the
        # rest, so the subset pass recomputes it; for n > 300 a coincident
        # pair in an off-diagonal tile
        rng = np.random.default_rng(n * width)
        rows = rng.normal(scale=0.01, size=(n, width)) + 0.05 * rng.random((n, 1))
        rows[n // 2, 0] += 5.0
        if n > 300:
            rows[n - 1] = rows[3]
        edges, size = [], 0
        while size < n:
            size += (1, 7, 64, 200)[len(edges) % 4]
            edges.append(min(size, n))
        return synthetic_set(np.split(rows, edges[:-1]))

    @pytest.mark.parametrize("width", [9, 63])
    @pytest.mark.parametrize("n", [1, 255, 257, 600])
    def test_same_bits_as_contiguous_rows(self, n, width):
        descs = self.mixed(n, width)
        rows = np.ascontiguousarray(descs.values)
        assert np.shares_memory(descs.values, descs._store)

        def same(a, b):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

        # the store's norms are those of C-contiguous rows, not strided ones
        same(descs._store[-1], np.einsum("ij,ij->i", rows, rows))
        same(entropy(descs, KP).per_point, entropy(rows, KP).per_point)
        kept = descs.subset(range(0, descs.n_structures, 2))
        kept_rows = np.ascontiguousarray(kept.values)
        same(delta_entropy(descs, descs, KP), delta_entropy(rows, rows, KP))
        same(delta_entropy(descs, kept, KP), delta_entropy(rows, kept_rows, KP))
        same(delta_entropy(kept, descs, KP), delta_entropy(kept_rows, rows, KP))
        last = descs._subset_rows([descs.n_structures - 1])[0]
        subsets = [np.array([0]), np.arange(0, n, 3), last]
        for got, want in zip(
            _subset_delta_entropies(descs, subsets, KP), _subset_delta_entropies(rows, subsets, KP)
        ):
            same(got, want)
        each = [
            entropy(np.ascontiguousarray(descs.values[start : start + length]), KP).entropy_nats
            for start, length in descs.offsets
        ]
        same(per_structure_entropy(descs, KP), each)


class TestCoincidenceSnap:
    """Coincident rows snap to d^2 = 0 wherever they meet, screened per tile."""

    @staticmethod
    def duplicated(offset):
        # 900 rows (four 256-row blocks); rows 3/700 and 255/512 are exact
        # duplicates whose pairs fall in an off-diagonal tile.  Each row is
        # moved out by its own fraction of the offset, so squared norms
        # spread over each tile, and a large offset leaves the norm
        # expansion a large residue on coincident rows.  With no offset,
        # rows 256-511 are all zero, so block 1's tiles with itself have a
        # screen of 0, and the other rows are moved out as at 1e3.
        rng = np.random.default_rng(40)
        rows = rng.normal(scale=0.01, size=(900, 63)) + (offset or 1e3) * rng.random((900, 1))
        if offset is None:
            rows[256:512] = 0.0
        rows[700], rows[512] = rows[3], rows[255]
        return rows

    OFFSETS = [1e-3, 1.0, 1e3, pytest.param(None, id="zero-block")]

    @pytest.mark.parametrize("offset", OFFSETS)
    def test_duplicates_across_tiles(self, offset):
        rows = self.duplicated(offset)
        for dh in (entropy(rows, KP).per_point, delta_entropy(rows, rows, KP)):
            assert np.all(dh <= 0)
            for i, j in ((3, 700), (255, 512)):
                assert dh[i] == pytest.approx(dh[j], rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("offset", OFFSETS)
    def test_every_member_is_contained(self, offset):
        rows = self.duplicated(offset)
        assert np.all(delta_entropy(rows, rows[::7], KP)[::7] <= 0)

    def test_per_structure_matches_multi_tile_entropy(self):
        rng = np.random.default_rng(41)
        blocks = [rng.normal(scale=0.01, size=(n, 63)) + 1.0 for n in (300, 600)]
        got = per_structure_entropy(synthetic_set(blocks), KP)
        assert got.tolist() == [entropy(block, KP).entropy_nats for block in blocks]


class TestCanonicalOrder:
    """A self pass over more than one 256-row block, with a weight of 1 on
    every row, visits its rows in canonical order and skips every tile whose
    kernels are all below 1e-13 / n."""

    @staticmethod
    def count_tiles(monkeypatch):
        tiles = []
        real = information._log_kernel_tile

        def counting(left, right, inv_two_h2, out):
            tiles.append(right.shape[-1])
            return real(left, right, inv_two_h2, out)

        monkeypatch.setattr(information, "_log_kernel_tile", counting)
        return tiles

    @staticmethod
    def all_tiles(n):
        blocks = -(-n // 256)
        return blocks * (blocks + 1) // 2

    # phases far apart, and phases whose closest tiles lie just past the bound
    @pytest.mark.parametrize("spacing_over_h", [20.0, 6.0])
    def test_skipped_tiles_move_each_delta_h_by_at_most_epsilon(self, spacing_over_h, monkeypatch):
        rows = multi_phase_rows(np.random.default_rng(61), spacing_over_h=spacing_over_h)
        tiles = self.count_tiles(monkeypatch)
        dh = entropy(rows, KP).per_point
        assert len(rows) > 4 * 256 and len(tiles) < self.all_tiles(len(rows))
        np.testing.assert_allclose(dh, fsum_delta_entropy(rows, H), rtol=0.0, atol=1e-12)

    def test_one_cluster_skips_no_tile(self, monkeypatch):
        rows = multi_phase_rows(np.random.default_rng(61), phases=1, per_phase=1200)
        tiles = self.count_tiles(monkeypatch)
        entropy(rows, KP)
        assert len(tiles) == self.all_tiles(len(rows))

    def test_per_point_bits_do_not_depend_on_row_order(self):
        rng = np.random.default_rng(62)
        rows = multi_phase_rows(rng, phases=2, per_phase=600)
        # tied keys: duplicate rows, and rows of dyadic entries, whose sums
        # are exact, that are permutations of one another.  The rows ranked
        # 255, 510, 765 and 1020 by entry sum get a twin each, the first row
        # of the next block, whose sum gains its tiles in another order.
        dyadic = rng.integers(0, 8, size=(20, rows.shape[1])) / 64.0
        permuted = [rng.permutation(row) for row in dyadic for _ in range(3)]
        rows = np.vstack([rows, rows[:40], dyadic, permuted])
        rows = np.vstack([rows, rows[np.argsort(rows.sum(axis=1))[[255, 510, 765, 1020]]]])
        want = entropy(rows, KP).per_point
        for seed in range(3):
            order = np.random.default_rng(seed).permutation(len(rows))
            for shuffled in (rows[order], synthetic_set(np.split(rows[order], [100, 700]))):
                got = np.empty_like(want)
                got[order] = entropy(shuffled, KP).per_point
                assert np.array_equal(got, want)

    def test_far_tiles_skip_at_the_smallest_bandwidth(self, monkeypatch):
        # (gap / h)^2 would overflow at h = 1e-154, and pytest turns a
        # RuntimeWarning into an error.  Tiles of block 0 or 1 (zeros)
        # against block 3 or 4 (tens) are skipped.
        rows = np.vstack([np.zeros((600, 3)), np.full((600, 3), 10.0)])
        tiles = self.count_tiles(monkeypatch)
        result = entropy(rows, KernelParams(1e-154))
        assert len(tiles) == self.all_tiles(1200) - 4
        assert np.array_equal(result.per_point, np.full(1200, -np.log(600)))

    def test_identical_rows_in_two_blocks_are_never_skipped_apart(self, monkeypatch):
        # 600 rows 100 h apart on the all-ones direction, of which the two at
        # step 255 are identical: canonical rows 255 and 256, the last of
        # block 0 and the first of block 1
        steps = np.arange(600.0)
        steps[256:] -= 1.0
        rows = np.outer(steps * 100.0 * H, np.ones(8) / np.sqrt(8))
        order = np.random.default_rng(63).permutation(600)
        tiles = self.count_tiles(monkeypatch)
        dh = entropy(rows[order], KP).per_point
        assert len(tiles) == 4  # (0, 0), (0, 1), (1, 1), (2, 2)
        twins = steps[order] == 255.0
        assert np.array_equal(dh[twins], [-np.log(2.0)] * 2)
        assert np.all(dh[~twins] == 0.0)


class TestCoverage:
    # One chunk; two chunks split on and off a 256-row tile edge; seven
    # chunks of 1, 254, 1, 1, 43, 211 and 89 rows.
    @pytest.mark.parametrize("edges", [[], [256], [100], [1, 255, 256, 257, 300, 511]])
    def test_chunked_extends_match_one_pass(self, edges):
        rng = np.random.default_rng(31)
        queries = rng.normal(scale=0.02, size=(1000, 16))
        refs = rng.normal(scale=0.02, size=(600, 16))
        coverage = Coverage(queries, KP)
        for chunk in np.split(refs, edges):
            coverage.extend(chunk)
        assert coverage.n_references == 600
        want = delta_entropy(queries, refs, KP)
        assert np.allclose(coverage.delta_entropy(), want, rtol=0.0, atol=1e-12)
        assert np.allclose(want, naive_delta_entropy(queries, refs, H), atol=1e-8)

    # The near reference comes first in the first chunk, inside the middle
    # one, or last in the last one.
    @pytest.mark.parametrize(
        "chunk, at", [(0, 0), (1, 150), (2, 100)], ids=["first", "middle", "last"]
    )
    def test_lone_near_reference_in_any_chunk(self, chunk, at):
        rng = np.random.default_rng(32)
        d = 5.0 * H
        directions = rng.normal(size=(300, 63))
        queries = d * directions / np.linalg.norm(directions, axis=1, keepdims=True)
        far = rng.normal(scale=0.01, size=(700, 63))
        far[:, 0] += 2.0
        # |q - r| >= |r| - d for every query q and far reference r
        assert (np.linalg.norm(far, axis=1).min() - d) ** 2 / (2 * H * H) > 1000.0
        near = np.zeros((1, 63))
        chunks = [far[:256], far[256:600], far[600:]]
        chunks[chunk] = np.insert(chunks[chunk], at, near, axis=0)
        coverage = Coverage(queries, KP)
        for rows in chunks:
            coverage.extend(rows)
        got = coverage.delta_entropy()
        # every far kernel is exp(< -1000) = 0 against the near one, shifted
        # or settled
        assert np.array_equal(got, delta_entropy(queries, near, KP))
        assert np.allclose(got, d * d / (2 * H * H), rtol=0.0, atol=1e-9)

    def test_settled_queries_keep_their_bits_beside_a_far_one(self):
        # 288 queries near the references settle in the first block; the
        # last, far from all of them, never does, so from the second block
        # on the slab of queries 256-288 keeps the max shift for its sake.
        # That slab's 32 near queries fill whole 8-column blocks: with 44 of
        # them, the far column after them moves some of their last bits
        # through the GEMM and GEMV shapes alone, settled or not.
        rng = np.random.default_rng(33)
        near = rng.normal(scale=0.01, size=(288, 63))
        far = np.zeros((1, 63))
        far[0, 0] = 2.0
        refs = rng.normal(scale=0.01, size=(900, 63))
        mixed, alone = Coverage(np.vstack([near, far]), KP), Coverage(near, KP)
        for chunk in (refs[:256], refs[256:700], refs[700:]):
            mixed.extend(chunk)
            alone.extend(chunk)
            assert not alone._max.any() and mixed._max[-1] < 0
        got = mixed.delta_entropy()
        assert np.array_equal(got[:-1], alone.delta_entropy())
        assert got[-1] > 644.7
        np.testing.assert_allclose(got[:-1], naive_delta_entropy(near, refs, H), atol=1e-8)

    def test_sum_crosses_the_floor_inside_one_extend(self):
        # Three 256-row blocks in one extend.  The first is far from every
        # query, so no sum reaches 1e-280 there; the second holds the near
        # references, which settle every query; the third holds more near
        # ones, added to settled sums.
        rng = np.random.default_rng(34)
        queries = rng.normal(scale=0.01, size=(300, 63))
        near = rng.normal(scale=0.01, size=(256, 63))
        far = rng.normal(scale=0.01, size=(512, 63))
        far[:, 0] += 2.0
        refs = np.vstack([far[:256], far[256:384], near[:128], near[128:], far[384:]])
        assert delta_entropy(queries, refs[:256], KP).min() > 644.7
        coverage = Coverage(queries, KP)
        coverage.extend(refs)
        assert not coverage._max.any()
        got = coverage.delta_entropy()
        np.testing.assert_allclose(got, naive_delta_entropy(queries, refs, H), rtol=0.0, atol=1e-8)
        # every far kernel underflows against the near ones
        one_block = delta_entropy(queries, near, KP)
        np.testing.assert_allclose(got, one_block, rtol=0.0, atol=1e-12)

    def test_overflow_against_every_chunk_raises(self):
        coverage = Coverage(np.zeros((2, 3)), KernelParams(1e-154))
        coverage.extend(np.full((3, 3), 10.0))
        coverage.extend(np.full((300, 3), -10.0))
        with pytest.raises(InputError, match="bandwidth 1e-154"):
            coverage.delta_entropy()

    def test_no_references_rejected(self):
        coverage = Coverage(np.zeros((2, 3)), KP)
        with pytest.raises(InputError, match="reference set is empty"):
            coverage.delta_entropy()
        coverage.extend(np.zeros((0, 3)))
        with pytest.raises(InputError, match="reference set is empty"):
            coverage.delta_entropy()


class TestEntropyProperties:
    def test_identity_mean_dh_plus_log_n(self):
        rng = np.random.default_rng(3)
        rows = rng.normal(scale=0.05, size=(120, 16))
        result = entropy(rows, KP)
        assert result.per_point.shape == (len(rows),)
        assert result.entropy_nats == pytest.approx(
            float(np.mean(result.per_point) + np.log(len(rows))), abs=1e-12
        )

    def test_one_pass_carries_every_figure(self):
        rng = np.random.default_rng(12)
        rows = rng.normal(scale=0.02, size=(75, 9))
        result = entropy(rows, KP)
        assert result.n_environments == 75
        assert result.efficiency == result.entropy_nats / np.log(75)
        assert efficiency(rows, KP) == result.efficiency
        assert diversity(rows, KP) == result.diversity_nats
        assert np.array_equal(result.per_point, delta_entropy(rows, rows, KP))

    def test_single_row_has_no_efficiency(self):
        result = entropy(np.zeros((1, 4)), KP)
        assert result.efficiency is None
        assert result.entropy_nats == 0.0 and result.diversity_nats == 0.0
        assert result.per_point.tolist() == [0.0] and np.signbit(result.per_point).all()

    def test_empty_set_rejected_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="empty"):
                entropy(np.zeros((0, 3)), KP)

    def test_bounds(self):
        rng = np.random.default_rng(4)
        for scale in (0.001, 0.02, 0.5):
            rows = rng.normal(scale=scale, size=(60, 8))
            value = entropy(rows, KP).entropy_nats
            assert 0.0 <= value <= np.log(60) + 1e-9

    def test_row_order_invariant(self):
        rng = np.random.default_rng(6)
        rows = rng.normal(scale=0.05, size=(90, 12))
        shuffled = rows[rng.permutation(90)]
        assert entropy(rows, KP).entropy_nats == pytest.approx(
            entropy(shuffled, KP).entropy_nats, abs=1e-12
        )

    def test_accepts_descriptor_set(self):
        rng = np.random.default_rng(7)
        descs = synthetic_set([rng.random((3, 5)), rng.random((2, 5))])
        assert entropy(descs, KP).entropy_nats == pytest.approx(
            entropy(descs.values, KP).entropy_nats, abs=0
        )


class TestDeltaEntropy:
    def test_members_are_contained(self):
        rng = np.random.default_rng(8)
        rows = rng.normal(scale=0.05, size=(50, 10))
        dh = delta_entropy(rows, rows, KP)
        assert np.all(dh <= 0)  # self-kernel contributes 1 to every sum

    def test_monotone_in_references(self):
        rng = np.random.default_rng(9)
        refs = rng.normal(scale=0.1, size=(40, 6))
        queries = rng.normal(scale=0.1, size=(15, 6))
        small = delta_entropy(queries, refs[:10], KP)
        large = delta_entropy(queries, refs, KP)
        assert np.all(large <= small + 1e-12)

    def test_empty_references_rejected(self):
        with pytest.raises(InputError):
            delta_entropy(np.zeros((2, 3)), np.zeros((0, 3)), KP)

    def test_width_mismatch_rejected(self):
        with pytest.raises(InputError):
            delta_entropy(np.zeros((2, 3)), np.zeros((2, 4)), KP)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rows_rejected(self, value):
        # a non-finite row would turn every row's entropy to NaN, and a
        # cross pass would blame the bandwidth
        good = np.zeros((2, 4))
        bad = good.copy()
        bad[1, 2] = value
        calls = [
            lambda: entropy(bad, KP),
            lambda: delta_entropy(bad, good, KP),
            lambda: delta_entropy(good, bad, KP),
            lambda: Coverage(bad, KP),
            lambda: Coverage(good, KP).extend(bad),
        ]
        for call in calls:
            with pytest.raises(InputError, match="rows must be finite"):
                call()

    @pytest.mark.parametrize("row, value, norm", [
        (0, 1e160, "inf"),  # every squared norm overflows
        (2, 6.71e153, "4.502e\\+307"),  # finite, but a kernel tile's GEMM could overflow
    ], ids=["infinite", "past-a-quarter"])
    def test_rows_whose_norms_overflow_rejected(self, row, value, norm):
        # the cross pass would blame the bandwidth, and numpy would warn
        good = np.zeros((2, 4))
        bad = np.full((3, 4), value) if row == 0 else np.zeros((3, 4))
        bad[row, 0] = value
        calls = [
            lambda: entropy(bad, KP),
            lambda: delta_entropy(bad, good, KP),
            lambda: delta_entropy(good, bad, KP),
            lambda: Coverage(bad, KP),
            lambda: Coverage(good, KP).extend(bad),
            lambda: DescriptorSet(values=bad, offsets=[[0, 3]]),
        ]
        for call in calls:
            with pytest.raises(InputError, match=f"^row {row}: squared norm {norm} overflows"):
                call()

    def test_rows_with_norms_just_below_the_limit_pass(self):
        edge = np.nextafter(np.sqrt(information._MAX_NORM), 0)
        rows = np.zeros((3, 4))
        rows[:2, 0] = edge
        assert entropy(rows, KP).per_point.tolist() == [-np.log(2), -np.log(2), 0.0]

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 4)], ids=["1-D", "3-D"])
    def test_rows_that_are_not_2d_rejected(self, shape):
        good, bad = np.zeros((2, 4)), np.zeros(shape)
        calls = [
            lambda: entropy(bad, KP),
            lambda: delta_entropy(bad, good, KP),
            lambda: delta_entropy(good, bad, KP),
            lambda: Coverage(bad, KP),
            lambda: Coverage(good, KP).extend(bad),
        ]
        for call in calls:
            with pytest.raises(InputError, match="expected a 2-D array of rows"):
                call()


class TestOverlap:
    def test_self_overlap_is_exactly_one(self):
        rng = np.random.default_rng(10)
        rows = rng.normal(scale=0.3, size=(40, 8))
        assert overlap(rows, rows, KP) == 1.0

    def test_disjoint_sets_overlap_zero(self):
        a = np.zeros((10, 8))
        b = np.full((10, 8), 50 * H)
        assert overlap(a, b, KP) == 0.0

    def test_boundary_counts_as_contained(self):
        # one reference at distance h*sqrt(2 ln 1) = 0 gives dh = 0 exactly
        q = np.zeros((1, 4))
        assert overlap(q, q, KP) == 1.0

    def test_contained_fraction_counts_boundary_inside(self):
        assert contained_fraction(np.array([-1.0, 0.0, 1e-300, 3.0])) == 0.5

    def test_empty_delta_h_has_no_contained_fraction(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="no delta entropies"):
                contained_fraction([])

    def test_no_queries_rejected_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="no delta entropies"):
                overlap(np.empty((0, 6)), np.zeros((3, 6)), KP)

    def test_half_contained(self):
        near = np.zeros((5, 6))
        far = np.full((5, 6), 100 * H)
        queries = np.vstack([near, far])
        assert overlap(queries, near, KP) == 0.5


class TestEfficiency:
    def test_all_distinct_is_one(self):
        assert efficiency(far_apart(64), KP) == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_is_zero(self):
        rows = np.tile(np.full(8, 0.3), (30, 1))
        assert efficiency(rows, KP) == pytest.approx(0.0, abs=1e-9)

    def test_needs_two_rows(self):
        with pytest.raises(InputError):
            efficiency(np.zeros((1, 4)), KP)


class TestPerStructure:
    def test_matches_slice_entropy(self):
        rng = np.random.default_rng(11)
        blocks = [rng.normal(scale=0.05, size=(rng.integers(1, 6), 7)) for _ in range(8)]
        descs = synthetic_set(blocks)
        got = per_structure_entropy(descs, KP)
        assert got.shape == (8,)
        for i, block in enumerate(blocks):
            assert got[i] == pytest.approx(entropy(block, KP).entropy_nats, abs=0)

    def test_singleton_structure_is_zero(self):
        descs = synthetic_set([np.full((1, 4), 0.2)])
        assert per_structure_entropy(descs, KP)[0] == pytest.approx(0.0, abs=1e-9)

    def test_stacked_passes_have_the_bits_of_one_pass_per_structure(self, monkeypatch):
        descs = mixed_size_set(np.random.default_rng(51))
        own = [entropy(descs.rows_for(i), KP) for i in range(descs.n_structures)]
        stacks = count_self_passes(monkeypatch)
        got = per_structure_entropy(descs, KP)
        assert np.array_equal(got, [result.entropy_nats for result in own])
        # every structure went through one stack, some stacks held several
        # structures, the one of 257 rows was a stack of one, and the far
        # rows underflowed
        assert sum(b for b, _, _ in stacks) == descs.n_structures
        assert max(b for b, _, _ in stacks) > 1
        assert (1, 257, 1) in stacks
        assert all(r.per_point[-1] == 0.0 for r in own if r.n_environments >= 7)
        for index, rows in descs._stacks(256):
            stack = information._columns(descs._store, rows).swapaxes(0, 1)
            sums = information._self_kernel_sums(stack, KP, np.ones((rows.shape[1], 1)))
            assert np.array_equal(-np.log(sums[..., 0]), [own[i].per_point for i in index])
