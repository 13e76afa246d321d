"""Acceptance gate: one test per release criterion, then checks of the
paper's claims on generated data.

Each test prints a single ``PASS: ...`` line when its assertions hold, so
``pytest tests/test_acceptance.py -v -s`` reads as a checklist.
Criterion 12 needs external reference datasets and is skipped unless the
environment points at local copies (see the test's skip message).
"""

import os
import time

import numpy as np
import pytest

from atomcover import (
    DescriptorParams,
    KernelParams,
    SamplerConfig,
    build_descriptor_set,
    delta_entropy,
    diversity,
    efficiency,
    entropy,
    force_cdf,
    overlap,
    per_structure_entropy,
    read_extxyz,
    run_sampler,
    sample_msc,
)
from atomcover.descriptor import DescriptorSet
from helpers import (
    assert_row_multisets_close,
    crystal,
    dataset,
    molecule,
    naive_delta_entropy,
    naive_diversity,
    naive_entropy,
    perturbed_cubic,
    random_rotation,
    synthetic_set,
)
from test_samplers import naive_msc, redundant_fixture

H = 0.015
KP = KernelParams(bandwidth=H)


def _pass(number, text):
    print(f"\nPASS: criterion {number} - {text}")


def line_set(n, width=63, spacing=100 * H):
    """n points on a line, pairwise distances >= spacing."""
    values = np.zeros((n, width))
    values[:, 0] = np.arange(n) * spacing
    return values


def random_structure_blocks(rng, n_structures, width=63):
    return [
        rng.normal(scale=0.05, size=(int(rng.integers(2, 6)), width))
        for _ in range(n_structures)
    ]


def test_criterion_01_entropy_limits():
    identical = np.tile(np.linspace(0.0, 1.0, 63), (50, 1))
    assert abs(entropy(identical, KP).entropy_nats) < 1e-9

    far = line_set(1000)
    start = time.perf_counter()
    value = entropy(far, KP).entropy_nats
    elapsed = time.perf_counter() - start
    assert abs(value - np.log(1000)) < 1e-9
    assert elapsed < 1.0
    _pass(1, f"entropy limits exact; N=1000 in {elapsed * 1e3:.1f} ms")


def test_criterion_02_diversity_limits():
    identical = np.tile(np.linspace(0.0, 1.0, 63), (40, 1))
    assert abs(diversity(identical, KP)) < 1e-9
    assert abs(diversity(line_set(40), KP) - np.log(40)) < 1e-9
    _pass(2, "diversity 0 when degenerate, log N when all distinct")


def test_criterion_03_closed_form_delta_h():
    rng = np.random.default_rng(3)
    direction = rng.normal(size=63)
    direction /= np.linalg.norm(direction)
    ref = rng.random(63)[None, :]
    worst = 0.0
    for ratio in (0.1, 1.0, 10.0, 50.0):
        d = ratio * H
        query = ref + d * direction
        got = delta_entropy(query, ref, KP)[0]
        expected = d * d / (2.0 * H * H)
        worst = max(worst, abs(got - expected))
    assert worst < 1e-9
    _pass(3, f"single-reference delta-H analytic to {worst:.2e} nats")


def test_criterion_04_oracle_equivalence():
    rng = np.random.default_rng(4)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(20, 201))
        # scale keeps typical pairwise distances near the bandwidth so
        # the kernel sums are non-trivial in both implementations
        rows = rng.normal(scale=0.002, size=(n, 63))
        result = entropy(rows, KP)
        worst = max(worst, abs(result.entropy_nats - naive_entropy(rows, H)))
        worst = max(
            worst,
            np.abs(
                delta_entropy(rows, rows, KP) - naive_delta_entropy(rows, rows, H)
            ).max(),
        )
        worst = max(worst, abs(diversity(rows, KP) - naive_diversity(rows, H)))
    elapsed = time.perf_counter() - start
    assert worst < 1e-8
    assert elapsed < 10.0
    _pass(4, f"H/delta-H/D vs naive loops: {worst:.2e} nats, {elapsed:.1f} s")


def test_criterion_05_descriptor_invariances():
    rng = np.random.default_rng(5)
    params = DescriptorParams(n_neighbors=8, cutoff=4.0)
    positions = rng.random((6, 3)) * 3.0
    base = build_descriptor_set(dataset(molecule(positions)), params).values

    shifted = positions + np.array([7.0, -2.0, 0.25])
    rot = random_rotation(rng)
    perm = rng.permutation(len(positions))
    for variant, mapper in (
        (shifted, lambda rows: rows),
        (positions @ rot.T, lambda rows: rows),
        (positions[perm], lambda rows: rows[np.argsort(perm)]),
    ):
        rows = build_descriptor_set(dataset(molecule(variant)), params).values
        assert np.allclose(base, mapper(rows), atol=1e-10)

    primitive = perturbed_cubic(rng, n_side=2, a=2.9)
    reps = [
        primitive.positions + np.array([na, nb, nc], dtype=float) @ primitive.cell
        for na in range(2)
        for nb in range(2)
        for nc in range(2)
    ]
    supercell = crystal(primitive.cell * 2, np.vstack(reps))
    crystal_params = DescriptorParams(n_neighbors=16, cutoff=5.0)
    prim_rows = build_descriptor_set(dataset(primitive), crystal_params).values
    super_rows = build_descriptor_set(dataset(supercell), crystal_params).values
    assert_row_multisets_close(super_rows, np.tile(prim_rows, (8, 1)), atol=1e-8)
    _pass(5, "rotation/translation/permutation <= 1e-10; supercell multiset <= 1e-8")


def test_criterion_06_redundancy_pruning():
    descs = redundant_fixture(n_unique=20, n_dup=80)
    result = sample_msc(descs, 20, KP)
    assert sorted(result.selected) == list(range(20))
    compressed = descs.subset(result.selected)
    assert overlap(descs, compressed, KP) == 1.0

    rng = np.random.default_rng(6)
    incomplete = 0
    for _ in range(100):
        config = SamplerConfig(
            method="random", count=20, seed=int(rng.integers(2**31)), kernel=KP
        )
        picked = run_sampler(config, descs).selected
        if overlap(descs, descs.subset(picked), KP) < 1.0:
            incomplete += 1
    assert incomplete >= 95
    _pass(6, f"greedy K=20 covers exactly; random misses in {incomplete}/100 seeds")


def test_criterion_07_incremental_vs_recompute():
    rng = np.random.default_rng(7)
    blocks = [rng.normal(scale=0.05, size=(10, 16)) for _ in range(50)]  # 500 envs
    descs = synthetic_set(blocks)
    count = 12
    result = sample_msc(descs, count, KP)
    naive_selected, naive_step_max = naive_msc(descs, count, H)
    assert list(result.selected) == naive_selected
    got = [s.max_delta_h for s in result.per_step[1:]]
    worst = np.abs(np.array(got) - np.array(naive_step_max[1:])).max()
    assert worst < 1e-8
    _pass(7, f"per-step delta-H incremental vs recompute: {worst:.2e} nats")


def test_criterion_08_initialization():
    rng = np.random.default_rng(8)
    for _ in range(20):
        descs = synthetic_set(random_structure_blocks(rng, 12, width=16))
        own = per_structure_entropy(descs, KP)
        result = sample_msc(descs, 3, KP)
        assert result.selected[0] == int(np.argmax(own))
    _pass(8, "first greedy pick equals argmax per-structure entropy, 20/20")


def test_criterion_09_sampler_contracts():
    rng = np.random.default_rng(9)
    descs = synthetic_set(random_structure_blocks(rng, 15, width=16))
    for method in ("random", "kmeans", "fps", "msc"):
        runs = []
        for _ in range(10):
            config = SamplerConfig(method=method, count=6, seed=123, kernel=KP)
            result = run_sampler(config, descs)
            assert len(result.selected) == 6
            assert len(set(result.selected)) == 6
            assert all(0 <= i < 15 for i in result.selected)
            runs.append(result.selected)
        assert all(r == runs[0] for r in runs)
    _pass(9, "all four samplers: K unique indices, 10/10 identical runs")


def test_criterion_10_overlap_efficiency_bounds():
    rng = np.random.default_rng(10)
    a = rng.normal(scale=0.05, size=(30, 16))
    b = rng.normal(scale=0.05, size=(25, 16)) + 0.5
    for query, ref in ((a, a), (a, b), (b, a)):
        value = overlap(query, ref, KP)
        assert 0.0 <= value <= 1.0
    assert overlap(a, a, KP) == 1.0
    assert abs(efficiency(line_set(60, width=16), KP) - 1.0) < 1e-9
    assert efficiency(np.tile(np.ones(16), (60, 1)), KP) == 0.0
    _pass(10, "overlap in [0,1], self-overlap exact 1; efficiency limits exact")


def test_criterion_11_force_cdf():
    from atomcover import Dataset, Structure

    structures = tuple(
        Structure(
            cell=np.zeros((3, 3)),
            pbc=np.zeros(3, bool),
            positions=np.zeros((1, 3)),
            species=("X",),
            forces=np.array([[m, 0.0, 0.0]]),
        )
        for m in (1.0, 2.0, 3.0)
    )
    ds = Dataset(structures=structures)
    assert force_cdf(ds, thresholds=[2.5]).cdf[0] == 2.0 / 3.0

    rng = np.random.default_rng(11)
    noisy = tuple(
        molecule(rng.random((3, 3)) * 4.0, forces=rng.normal(size=(3, 3)))
        for _ in range(6)
    )
    result = force_cdf(Dataset(structures=noisy))
    assert np.all(np.diff(result.cdf) >= 0)
    assert result.cdf[-1] <= 1.0
    _pass(11, "CDF monotone, endpoint <= 1, {1,2,3} at 2.5 -> 2/3 exact")


def _reference_dataset_check(number, env_var, label, expected_h, expected_d):
    path = os.environ.get(env_var)
    if not path:
        pytest.skip(
            f"set {env_var} to a local extxyz copy of the {label} dataset "
            "to run this optional full-scale check"
        )
    structures = read_extxyz(path)
    descs = build_descriptor_set(structures, DescriptorParams())
    got_h = entropy(descs, KP).entropy_nats
    got_d = diversity(descs, KP)
    assert got_h == pytest.approx(expected_h, abs=0.02)
    assert got_d == pytest.approx(expected_d, abs=0.02)
    _pass(number, f"{label}: H={got_h:.3f} (target {expected_h}), "
                  f"D={got_d:.3f} (target {expected_d})")


def test_criterion_12a_graphene_reference():
    _reference_dataset_check(
        "12a", "ATOMCOVER_GAP20_GRAPHENE", "GAP-20 graphene", 4.30, 6.45
    )


def test_criterion_12b_silver_warm_reference():
    _reference_dataset_check(
        "12b", "ATOMCOVER_TM23_AG_WARM", "TM23 Ag-warm", 3.84, 4.79
    )


def test_claim_outlier_retention():
    # PAPER.md: MSC "consistently retains outliers".  Of 200 jittered cubic
    # cells, 3 planted at random carry 10x the jitter; msc at 10% keeps all 3.
    for seed in range(3):
        rng = np.random.default_rng(seed)
        planted = {int(i) for i in rng.choice(200, size=3, replace=False)}
        structures = [
            perturbed_cubic(rng, n_side=2, a=3.0, jitter=0.05 * (10 if i in planted else 1))
            for i in range(200)
        ]
        descs = build_descriptor_set(dataset(*structures), DescriptorParams())
        config = SamplerConfig(method="msc", fraction=0.1, kernel=KP)
        assert planted <= set(run_sampler(config, descs).selected)
    print("\nPASS: outlier retention - msc at 10% keeps 3 planted of 200, 3 of 3 seeds")


def _load_generator():
    """The benchmark's seeded input generator, ``benchmarks/gen.py``."""
    import importlib.util

    path = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "gen.py")
    spec = importlib.util.spec_from_file_location("atomcover_bench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def claim_figures(tmp_path_factory):
    """Per seed, (msc, [random over seeds 0-19]) figures of 25% selections.

    Each figure is (largest excess of the subset's force CDF over the full
    set's on the full set's tail grid, count of full-set rows with
    delta H > 10 nats against the subset).  The inputs are warm-sweep-sized:
    400 structures of 2x2x2 blocks from the benchmark generator.
    """
    gen = _load_generator()
    out = {}
    for seed in (1, 13, 7):
        path = tmp_path_factory.mktemp("claims") / "data.xyz"
        gen.write_dataset(str(path), seed, 0, 400, 2, 1.0)
        ds = read_extxyz(path)
        descs = build_descriptor_set(ds, DescriptorParams())
        full = force_cdf(ds)

        def figures(method, sampler_seed):
            config = SamplerConfig(method=method, fraction=0.25, seed=sampler_seed, kernel=KP)
            selected = run_sampler(config, descs).selected
            excess = force_cdf(ds, selected, thresholds=full.thresholds).cdf - full.cdf
            dh = delta_entropy(descs.values, descs.subset(selected).values, KP)
            return float(excess.max()), int(np.count_nonzero(dh > 10))

        out[seed] = figures("msc", 0), [figures("random", s) for s in range(20)]
    return out


def test_claim_force_tail(claim_figures):
    # PAPER.md: MSC reproduces "the long-tail distributions of forces".  A
    # subset CDF above the full set's means tail forces were lost; msc may
    # over-sample the tail, so only that side counts.
    for seed, (msc, random) in claim_figures.items():
        assert msc[0] <= np.median([r[0] for r in random]), seed
    print("\nPASS: force tail - msc's tail CDF excess <= random's median, 3 of 3 seeds")


def test_claim_far_environments(claim_figures):
    # PAPER.md: MSC "preserves dataset diversity".  Full-set environments
    # more than 10 nats from every kept one are ones the subset misses.
    for seed, (msc, random) in claim_figures.items():
        assert msc[1] <= min(r[1] for r in random), seed
    print("\nPASS: far environments - msc leaves no more rows at delta H > 10 than any random")
