import tracemalloc

import numpy as np
import pytest

from atomcover import (
    CompressionResult,
    DescriptorParams,
    InputError,
    KernelParams,
    SamplerConfig,
    build_descriptor_set,
    per_structure_entropy,
    run_sampler,
    sample_fps,
    sample_kmeans,
    sample_msc,
    sample_random,
)
from atomcover.samplers import METHODS, _structure_means, _sweep
from helpers import (
    crystal,
    eager_msc,
    mixed_size_set,
    naive_delta_entropy,
    naive_entropy,
    naive_kmeans,
    perturbed_cubic,
    synthetic_set,
)

H = 0.015
KP = KernelParams(bandwidth=H)


def redundant_fixture(n_unique=20, n_dup=80, envs=5, width=16, seed=0):
    """n_unique far-apart structures first, then exact copies of them."""
    rng = np.random.default_rng(seed)
    unique_blocks = [
        rng.random((envs, width)) + i * 10.0 for i in range(n_unique)
    ]
    blocks = unique_blocks + [
        unique_blocks[i % n_unique] for i in range(n_dup)
    ]
    return synthetic_set(blocks)


def random_fixture(rng, n_structures=12, width=8, scale=0.05):
    blocks = [
        rng.normal(scale=scale, size=(int(rng.integers(1, 6)), width))
        for _ in range(n_structures)
    ]
    return synthetic_set(blocks)


def naive_shifted_delta_entropy(queries, refs, h):
    """``naive_delta_entropy`` with each query's sum shifted by its largest
    log kernel, so a query far from every reference keeps a finite value."""
    out = np.empty(len(queries))
    for i, q in enumerate(np.atleast_2d(queries)):
        log_k = -((refs - q) ** 2).sum(axis=1) / (2.0 * h * h)
        top = log_k.max()
        out[i] = -(top + np.log(np.exp(log_k - top).sum()))
    return out


def naive_msc(descs, count, h):
    """Greedy cover selection recomputed from scratch at every step."""
    n = descs.n_structures
    own = np.array([naive_entropy(descs.rows_for(i), h) for i in range(n)])
    selected = [int(np.argmax(own))]
    step_max = [None]
    while len(selected) < count:
        refs = np.vstack([descs.rows_for(i) for i in selected])
        best, best_score, best_m = -1, -np.inf, None
        for i in range(n):
            if i in selected:
                continue
            m = float(naive_shifted_delta_entropy(descs.rows_for(i), refs, h).max())
            score = m + own[i]
            if score > best_score:
                best, best_score, best_m = i, score, m
        selected.append(best)
        step_max.append(best_m)
    return selected, step_max


class TestSamplerConfig:
    def test_requires_exactly_one_size(self):
        with pytest.raises(InputError):
            SamplerConfig(method="random")
        with pytest.raises(InputError):
            SamplerConfig(method="random", count=3, fraction=0.5)

    def test_unknown_method(self):
        with pytest.raises(InputError):
            SamplerConfig(method="bogus", count=3)

    def test_count_below_one(self):
        with pytest.raises(InputError, match="count must be >= 1"):
            SamplerConfig(method="random", count=0)

    def test_fraction_range(self):
        with pytest.raises(InputError):
            SamplerConfig(method="random", fraction=0.0)
        with pytest.raises(InputError):
            SamplerConfig(method="random", fraction=1.5)

    @pytest.mark.parametrize("method", ["random", "kmeans", "fps", "msc"])
    def test_negative_seed(self, method):
        with pytest.raises(InputError, match="seed"):
            SamplerConfig(method=method, count=1, seed=-1)
        assert SamplerConfig(method=method, count=1, seed=0).seed == 0

    def test_resolve_count_rounding(self):
        assert SamplerConfig(method="random", fraction=0.25).resolve_count(100) == 25
        # 0.5 * 3 = 1.5 rounds away from zero to 2
        assert SamplerConfig(method="random", fraction=0.5).resolve_count(3) == 2
        # floor at one structure
        assert SamplerConfig(method="random", fraction=0.001).resolve_count(10) == 1
        assert SamplerConfig(method="random", fraction=1.0).resolve_count(7) == 7

    def test_resolve_count_bounds(self):
        with pytest.raises(InputError):
            SamplerConfig(method="random", count=11).resolve_count(10)
        assert SamplerConfig(method="random", count=10).resolve_count(10) == 10


class TestCompressionResult:
    def test_rejects_duplicates(self):
        with pytest.raises(InputError):
            CompressionResult(selected=(1, 1))


class TestRandom:
    def test_size_and_uniqueness(self):
        result = sample_random(50, 20, seed=3)
        assert len(result.selected) == 20
        assert len(set(result.selected)) == 20
        assert all(0 <= i < 50 for i in result.selected)

    def test_full_selection_is_permutation(self):
        result = sample_random(9, 9, seed=1)
        assert sorted(result.selected) == list(range(9))

    def test_deterministic(self):
        runs = {sample_random(30, 10, seed=42).selected for _ in range(10)}
        assert len(runs) == 1

    def test_count_bounds(self):
        with pytest.raises(InputError):
            sample_random(5, 6, seed=0)
        with pytest.raises(InputError):
            sample_random(5, 0, seed=0)

    def test_uniform_frequency_over_seeds(self):
        # K=1 from N=4: counts over 10^4 seeds should be multinomial-flat
        counts = np.zeros(4)
        for seed in range(10_000):
            counts[sample_random(4, 1, seed=seed).selected[0]] += 1
        chi2 = float((((counts - 2500.0) ** 2) / 2500.0).sum())
        assert chi2 < 16.27  # chi-square df=3 at p=0.001


class TestStructureMeans:
    def test_single_row_structures(self):
        descs = synthetic_set([np.full((1, 4), 0.3), np.full((1, 4), 0.7)])
        means = _structure_means(descs)
        assert np.allclose(means, [[0.3] * 4, [0.7] * 4])

    def test_identical_rows_collapse(self):
        descs = synthetic_set([np.tile([1.0, 2.0], (5, 1))])
        assert np.allclose(_structure_means(descs), [[1.0, 2.0]])

    def test_stacked_means_have_the_bits_of_one_mean_per_structure(self):
        descs = mixed_size_set(np.random.default_rng(52))
        want = [descs.rows_for(i).mean(axis=0) for i in range(descs.n_structures)]
        assert np.array_equal(_structure_means(descs), want)

    def test_supercell_aliases_to_primitive(self):
        rng = np.random.default_rng(4)
        rows = rng.random((3, 6))
        descs = synthetic_set([rows, np.tile(rows, (8, 1))])
        means = _structure_means(descs)
        assert np.allclose(means[0], means[1], atol=1e-8)


class TestKmeans:
    def test_full_selection(self):
        rng = np.random.default_rng(5)
        descs = random_fixture(rng, n_structures=7)
        result = sample_kmeans(descs, 7, seed=0)
        assert sorted(result.selected) == list(range(7))

    def test_two_separated_groups(self):
        rng = np.random.default_rng(6)
        lo = [np.zeros((2, 4)) + rng.normal(scale=1e-3, size=(2, 4)) for _ in range(5)]
        hi = [np.ones((2, 4)) * 9 + rng.normal(scale=1e-3, size=(2, 4)) for _ in range(5)]
        descs = synthetic_set(lo + hi)
        for seed in range(5):
            picks = sample_kmeans(descs, 2, seed=seed).selected
            groups = {0 if i < 5 else 1 for i in picks}
            assert groups == {0, 1}

    def test_duplicate_means_still_fill_clusters(self):
        descs = synthetic_set([np.full((2, 3), 0.5) for _ in range(6)])
        result = sample_kmeans(descs, 3, seed=2)
        assert len(set(result.selected)) == 3

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        descs = random_fixture(rng)
        runs = {sample_kmeans(descs, 5, seed=11).selected for _ in range(10)}
        assert len(runs) == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_oracle(self, seed):
        rng = np.random.default_rng(40 + seed)
        descs = random_fixture(rng, n_structures=30)
        for count in (1, 3, 8, 15, 30):
            assert sample_kmeans(descs, count, seed).selected == naive_kmeans(descs, count, seed)

    @pytest.mark.parametrize("seed", range(5))
    def test_repeated_means_match_the_oracle(self, seed):
        # One mean, repeated: every k-means++ draw after the first sees a
        # zero total distance.  Two means, repeated, at more clusters than
        # two: identical centers leave clusters empty, which the refill
        # fills from the largest.  The values are exact, so the oracle's
        # distances tie where the library's do.
        one = synthetic_set([np.full((2, 3), 0.5)] * 6)
        two = synthetic_set([np.full((1 + i % 3, 4), float(i % 2)) for i in range(11)])
        for descs, count in ((one, 1), (one, 3), (one, 6), (two, 2), (two, 4), (two, 11)):
            assert sample_kmeans(descs, count, seed).selected == naive_kmeans(descs, count, seed)

    def test_assignment_memory_is_bounded(self, monkeypatch):
        from atomcover import samplers

        rng = np.random.default_rng(41)
        descs = synthetic_set([rng.normal(size=(1, 4)) for _ in range(400)])
        count = 200
        full_bytes = descs.n_structures * count * 8
        monkeypatch.setattr(samplers, "_ASSIGN_ELEMENTS", 2048)
        tracemalloc.start()
        try:
            picks = sample_kmeans(descs, count, seed=3).selected
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one (structures, count) float array would be 640 kB
        assert peak < full_bytes / 2
        assert picks == naive_kmeans(descs, count, 3)

    @pytest.mark.parametrize("budget", [1, 64, 200 * 7, 200 * 64])
    def test_assignment_blocks_give_one_block_labels(self, budget, monkeypatch):
        from atomcover import samplers

        rng = np.random.default_rng(42)
        points = rng.normal(size=(500, 9)) * rng.uniform(0.01, 10.0, size=9)
        centers = points[rng.choice(500, size=200, replace=False)] + 1e-3
        want = samplers._assign(points, centers)
        monkeypatch.setattr(samplers, "_ASSIGN_ELEMENTS", budget)
        assert np.array_equal(samplers._assign(points, centers), want)

    def test_center_update_matches_per_cluster_mean(self):
        from atomcover.samplers import _cluster_means

        rng = np.random.default_rng(8)
        points = rng.normal(size=(2000, 63)) * rng.uniform(0.01, 10.0, size=63)
        # uneven clusters of up to several hundred members; 3, 7 and 12 empty
        share = [0.3, 0.2, 0.1, 0, 0.15, 0.1, 0.05, 0, 0.04, 0.03, 0.02, 0.005, 0, 0.003, 0.001, 0.001]
        labels = rng.choice(16, size=2000, p=share)
        centers = rng.normal(size=(16, 63))
        want = centers.copy()
        for c in range(16):
            members = np.flatnonzero(labels == c)
            if len(members):
                want[c] = points[members].mean(axis=0)
        got = _cluster_means(points, labels, centers)
        assert np.bincount(labels).max() > 500 and np.bincount(labels, minlength=16)[3] == 0
        assert got.tobytes() == want.tobytes()


class TestFps:
    def test_sum_of_distances_order(self):
        descs = synthetic_set([[[0.0]], [[1.0]], [[10.0]]])
        # find a seed whose random first pick is index 0
        seed = next(
            s for s in range(100) if sample_fps(descs, 1, seed=s).selected[0] == 0
        )
        result = sample_fps(descs, 3, seed=seed)
        # from 0: sum-dist picks 10 (10 > 1), then 1
        assert result.selected == (0, 2, 1)

    def test_identical_means_tie_break(self):
        descs = synthetic_set([np.full((1, 3), 2.0) for _ in range(6)])
        result = sample_fps(descs, 4, seed=0)
        assert len(set(result.selected)) == 4

    def test_full_selection(self):
        rng = np.random.default_rng(8)
        descs = random_fixture(rng, n_structures=6)
        assert sorted(sample_fps(descs, 6, seed=3).selected) == list(range(6))

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        descs = random_fixture(rng)
        runs = {sample_fps(descs, 6, seed=4).selected for _ in range(10)}
        assert len(runs) == 1


class TestMsc:
    def test_first_pick_is_entropy_argmax(self):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            descs = random_fixture(rng, n_structures=10)
            result = sample_msc(descs, 3, KP)
            own = per_structure_entropy(descs, KP)
            assert result.selected[0] == int(np.argmax(own))

    def test_redundant_fixture_selects_uniques(self):
        descs = redundant_fixture(n_unique=5, n_dup=15)
        result = sample_msc(descs, 5, KP)
        assert sorted(result.selected) == list(range(5))

    def test_matches_naive_recompute(self):
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            descs = random_fixture(rng, n_structures=10, width=6, scale=0.04)
            count = 6
            result = sample_msc(descs, count, KP)
            want_selected, want_max = naive_msc(descs, count, H)
            assert list(result.selected) == want_selected
            for step, want in zip(result.per_step, want_max):
                if want is None:
                    assert step.max_delta_h is None
                else:
                    assert step.max_delta_h == pytest.approx(want, abs=1e-8)

    def test_far_environment_wins_next_step(self):
        u = 100 * H
        first = np.zeros((5, 5))
        first[:, 0] = np.arange(5) * u  # 5 spread rows: own entropy log 5
        dup = first[:4].copy()  # duplicates: covered once first is in
        novel = first[:4].copy()
        novel[3] = 0.0
        novel[3, 1] = 1000 * u  # one environment far from everything
        descs = synthetic_set([first, dup, dup, dup, dup, novel])
        result = sample_msc(descs, 2, KP)
        assert result.selected[0] == 0  # strictly highest own entropy
        assert result.selected[1] == 5  # far environment beats duplicates

    def test_nesting(self):
        rng = np.random.default_rng(11)
        descs = random_fixture(rng, n_structures=12)
        for count in range(1, 12):
            a = sample_msc(descs, count, KP).selected
            b = sample_msc(descs, count + 1, KP).selected
            assert b[:count] == a

    def test_duplicate_only_after_positive_novelty_exhausted(self):
        descs = redundant_fixture(n_unique=5, n_dup=15)
        result = sample_msc(descs, 10, KP)
        # once uniques run out, every further pick must face a covered pool
        for step_index in range(5, 10):
            chosen = result.per_step[step_index]
            assert chosen.max_delta_h is not None
            assert chosen.max_delta_h <= 0
            refs = np.vstack(
                [descs.rows_for(i) for i in result.selected[:step_index]]
            )
            for other in range(descs.n_structures):
                if other in result.selected[:step_index]:
                    continue
                m = naive_delta_entropy(descs.rows_for(other), refs, H).max()
                assert m <= 1e-12

    def test_step_diagnostics_shape(self):
        rng = np.random.default_rng(12)
        descs = random_fixture(rng, n_structures=8)
        result = sample_msc(descs, 4, KP)
        assert result.per_step is not None
        assert len(result.per_step) == 4
        assert result.per_step[0].max_delta_h is None
        own = per_structure_entropy(descs, KP)
        for step in result.per_step:
            assert step.structure_entropy == pytest.approx(
                float(own[step.structure_index]), abs=1e-12
            )
            if step.max_delta_h is not None:
                assert step.score == pytest.approx(
                    step.max_delta_h + step.structure_entropy, abs=1e-12
                )

    def test_deterministic_without_seed(self):
        rng = np.random.default_rng(13)
        descs = random_fixture(rng)
        runs = {sample_msc(descs, 5, KP).selected for _ in range(10)}
        assert len(runs) == 1


def far_row_fixture(rng):
    """Random structures, six of them with one row pushed far away.

    The far rows sit 0.6-2 apart, so their delta H against everything else
    runs from about 800 to 8,900 nats: every kernel they meet underflows
    unless it is shifted by the running max.
    """
    blocks = [rng.normal(scale=0.03, size=(int(rng.integers(1, 6)), 8)) for _ in range(50)]
    for i, shift in zip(range(3, 50, 8), (0.6, 2.0, 1.1, 0.9, 1.5, 0.7)):
        blocks[i][-1, i % 8] += shift
    return synthetic_set(blocks)


def three_phase_fixture(rng):
    """Jittered fcc 4.2 A and sc 2.5 A cells, and every fourth place an sc
    1.8 A cell; returns their descriptor set and the sc 1.8 rows' mask.

    The two wide phases sit 100-200 nats apart, and every sc 1.8 row more
    than 2,000 nats from both.
    """
    fcc = np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]])
    structures, dense = [], []
    for i in range(12):
        positions = 4.2 * fcc + rng.normal(scale=0.1, size=(4, 3))
        structures += [crystal(4.2 * np.eye(3), positions), perturbed_cubic(rng, 2, 2.5, 0.1)]
        dense += [False, False]
        if i % 4 == 1:
            structures.append(perturbed_cubic(rng, 2, 1.8, 0.02))
            dense.append(True)
    descs = build_descriptor_set(tuple(structures), DescriptorParams())
    return descs, np.repeat(dense, descs.offsets[:, 1])


def assert_same_greedy(got, want, tolerance=1e-10):
    """Identical picks; steps and every delta H reading within ``tolerance``,
    relative to values above 1.

    The rounds add the kernel sums in another order, and with two BLAS
    threads each GEMM shape may split its sums differently, so values far
    from 0 move in proportion to their size.
    """
    close = dict(rel=tolerance, abs=tolerance)
    assert got.selected == want.selected
    for a, b in zip(got.per_step, want.per_step):
        assert a.structure_index == b.structure_index
        assert a.score == pytest.approx(b.score, **close)
        assert a.structure_entropy == b.structure_entropy
        if b.max_delta_h is None:
            assert a.max_delta_h is None
        else:
            assert a.max_delta_h == pytest.approx(b.max_delta_h, **close)
    assert got.delta_h.keys() == want.delta_h.keys()
    for c, dh in want.delta_h.items():
        assert np.allclose(got.delta_h[c], dh, rtol=tolerance, atol=tolerance)


class TestMscRounds:
    """Lazy rounds give the picks of rescoring every structure after every pick."""

    @pytest.mark.parametrize("scale", [0.01, 0.04, 0.2])
    def test_random_sets_match_the_eager_greedy(self, scale):
        # 80 structures of 1-5 rows: about 240 rows, so a round's candidate
        # block leaves structures outside it
        descs = random_fixture(np.random.default_rng(31), n_structures=80, scale=scale)
        prefixes = [1, 7, 20, 41]
        got = sample_msc(descs, 60, KP, prefix_counts=prefixes)
        assert_same_greedy(got, eager_msc(descs, 60, KP, prefix_counts=prefixes))

    def test_exact_ties_go_to_the_lower_index(self):
        # every unique structure has 19 exact copies, so from the sixth
        # pick on, covered structures tie exactly
        descs = redundant_fixture(n_unique=5, n_dup=95)
        got = sample_msc(descs, 40, KP)
        assert_same_greedy(got, eager_msc(descs, 40, KP))
        assert sorted(got.selected[:5]) == list(range(5))

    # Rows on small whole numbers, so every squared distance, and so every
    # delta H below, is exact.  Each row's delta H is its squared distance
    # to the nearest kept row times 1/(2h^2), since every other kernel
    # underflows against that one.  The first pick is structure 0 (own
    # entropy log 2), the second the lone row at (0, 5) (25/(2h^2)).  That
    # pick brings (0, 3) from 9/(2h^2) down to 4/(2h^2), where (2, 0)
    # already is, so the third pick is an exact tie that goes to the lower
    # index, 1.  Copied 100 times, those two rows are one candidate and
    # the round's bound; as single rows, two candidates.
    @pytest.mark.parametrize("copies", [100, 1])
    def test_a_tie_made_by_a_pick_goes_to_the_lower_index(self, copies):
        descs = synthetic_set([
            [[0.0, 0.0], [0.0, -8.0]],
            [[2.0, 0.0]] * copies,
            [[0.0, 3.0]] * copies,
            [[0.0, 5.0]],
        ])
        got = sample_msc(descs, 4, KP)
        assert got.selected == (0, 3, 1, 2)
        assert_same_greedy(got, eager_msc(descs, 4, KP), tolerance=0.0)

    def test_far_rows_match_the_eager_greedy(self):
        descs = far_row_fixture(np.random.default_rng(32))
        got = sample_msc(descs, 30, KP, prefix_counts=[3, 4])
        want = eager_msc(descs, 30, KP, prefix_counts=[3, 4])
        assert max(step.max_delta_h for step in want.per_step[1:]) > 745
        assert_same_greedy(got, want)

    def test_rows_far_from_the_kept_phases_match_the_naive_greedy(self):
        descs, dense = three_phase_fixture(np.random.default_rng(36))
        count = 10
        got = sample_msc(descs, count, KP, prefix_counts=[1])
        want_selected, want_max = naive_msc(descs, count, H)
        assert list(got.selected) == want_selected
        assert not dense[descs.offsets[got.selected[0], 0]]
        # the first pick leaves every sc 1.8 row unsettled, its sum shifted
        assert got.delta_h[1][dense].min() > 644.7
        for step, want in zip(got.per_step[1:], want_max[1:]):
            assert step.max_delta_h == pytest.approx(want, rel=1e-12, abs=1e-8)
        kept = np.vstack([descs.rows_for(i) for i in got.selected])
        want_dh = naive_shifted_delta_entropy(descs.values, kept, H)
        np.testing.assert_allclose(got.delta_h[count], want_dh, rtol=0.0, atol=1e-8)

    def test_mixed_sizes_match_the_eager_greedy(self):
        # structures of 1 to 257 rows: a candidate block may be one
        # structure larger than 128 rows, or more than 256
        descs = mixed_size_set(np.random.default_rng(33))
        n = descs.n_structures
        got = sample_msc(descs, n, KP, prefix_counts=range(1, n))
        assert_same_greedy(got, eager_msc(descs, n, KP, prefix_counts=range(1, n)))

    def test_every_count_matches_and_is_a_bitwise_prefix(self):
        descs = random_fixture(np.random.default_rng(34), n_structures=60)
        n = descs.n_structures
        longest = sample_msc(descs, n, KP, prefix_counts=range(1, n))
        assert_same_greedy(longest, eager_msc(descs, n, KP, prefix_counts=range(1, n)))
        for count in range(1, n + 1):
            result = sample_msc(descs, count, KP)
            assert result.selected == longest.selected[:count]
            assert result.per_step == longest.per_step[:count]
            assert np.array_equal(result.delta_h[count], longest.delta_h[count])

    def test_overflow_raises_at_the_first_extend(self):
        # the lone row lies so far from the first pick's rows that its log
        # kernel overflows against each of them
        descs = synthetic_set([[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [[10.0, 10.0, 10.0]]])
        with pytest.raises(InputError, match="bandwidth 1e-154"):
            sample_msc(descs, 2, KernelParams(1e-154))

    @pytest.mark.parametrize("prefix", [0, -1, 6])
    def test_prefix_count_outside_the_run_raises(self, prefix):
        descs = random_fixture(np.random.default_rng(35))
        with pytest.raises(InputError, match="prefix count"):
            sample_msc(descs, 5, KP, prefix_counts=[2, prefix])


class TestRunSampler:
    def test_dispatch_and_fraction(self):
        rng = np.random.default_rng(14)
        descs = random_fixture(rng, n_structures=12)
        for method in ("random", "kmeans", "fps", "msc"):
            config = SamplerConfig(method=method, fraction=0.25, seed=5, kernel=KP)
            result = run_sampler(config, descs)
            assert len(result.selected) == 3
            assert len(set(result.selected)) == 3

    def test_all_methods_deterministic(self):
        rng = np.random.default_rng(15)
        descs = random_fixture(rng, n_structures=10)
        for method in ("random", "kmeans", "fps", "msc"):
            config = SamplerConfig(method=method, count=4, seed=9, kernel=KP)
            runs = {run_sampler(config, descs).selected for _ in range(10)}
            assert len(runs) == 1


class TestSweep:
    """Every count of a sweep gets the bits of the public sampler run at
    that count alone."""

    ALONE = {
        "random": lambda descs, count: sample_random(descs.n_structures, count, seed=3),
        "kmeans": lambda descs, count: sample_kmeans(descs, count, seed=3),
        "fps": lambda descs, count: sample_fps(descs, count, seed=3),
        "msc": lambda descs, count: sample_msc(descs, count, KP),
    }

    @pytest.mark.parametrize("method", METHODS)
    def test_each_count_has_the_bits_of_a_run_alone(self, method):
        descs = random_fixture(np.random.default_rng(36), n_structures=12)
        counts = [1, 5, 5, 12]  # a repeated count, and the whole set
        configs = [SamplerConfig(method=method, count=c, seed=3, kernel=KP) for c in counts]
        results = _sweep(descs, configs)
        assert [len(r) for r in results] == counts
        for config, got in zip(configs, results):
            for want in (self.ALONE[method](descs, config.count), run_sampler(config, descs)):
                assert got.selected == want.selected
                assert got.per_step == want.per_step
                if want.delta_h is None:
                    assert got.delta_h is None
                else:
                    assert got.delta_h.keys() == want.delta_h.keys() == {config.count}
                    assert np.array_equal(got.delta_h[config.count], want.delta_h[config.count])
