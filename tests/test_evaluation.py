import json

import numpy as np
import pytest

from atomcover import (
    ForceCdf,
    InputError,
    KernelParams,
    SamplerConfig,
    compare_methods,
    compression_report,
    delta_entropy,
    delta_h_histogram,
    diversity,
    entropy,
    force_cdf,
    overlap,
    run_sampler,
    sample_msc,
)
from atomcover.evaluation import _default_threshold_grid, _pooled_force_magnitudes
from helpers import count_cross_passes, count_self_passes, molecule, synthetic_set
from test_samplers import random_fixture, redundant_fixture

H = 0.015
KP = KernelParams(bandwidth=H)


def assert_documents_close(a, b, atol):
    """Same keys, lengths and integers; floats within atol."""
    if isinstance(a, dict):
        assert list(a) == list(b)
        for key in a:
            assert_documents_close(a[key], b[key], atol)
    elif isinstance(a, (list, tuple, np.ndarray)):
        assert len(a) == len(b)
        for u, v in zip(a, b):
            assert_documents_close(u, v, atol)
    elif isinstance(a, (float, np.floating)):
        assert abs(a - b) <= atol
    else:
        assert a == b and type(a) is type(b)


def forces_dataset(magnitudes):
    """One two-atom structure per magnitude; |F| = magnitude on atom 0."""
    from atomcover import Dataset

    structures = []
    for m in magnitudes:
        forces = np.zeros((2, 3))
        forces[0, 0] = m
        structures.append(
            molecule([[0.0, 0.0, 0.0], [1.5, 0.0, 0.0]], forces=forces)
        )
    return Dataset(structures=tuple(structures))


class TestForceCdfType:
    def test_rejects_unsorted_thresholds(self):
        with pytest.raises(InputError):
            ForceCdf(thresholds=np.array([2.0, 1.0]), cdf=np.array([0.5, 0.5]), max_force=1.0)

    def test_rejects_decreasing_cdf(self):
        with pytest.raises(InputError):
            ForceCdf(thresholds=np.array([1.0, 2.0]), cdf=np.array([0.8, 0.5]), max_force=1.0)

    def test_rejects_nonfinite_thresholds(self):
        with pytest.raises(InputError):
            ForceCdf(thresholds=np.array([np.nan]), cdf=np.array([0.5]), max_force=1.0)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(InputError, match="matching 1-D"):
            ForceCdf(thresholds=np.array([1.0, 2.0]), cdf=np.array([0.5]), max_force=1.0)
        with pytest.raises(InputError, match="matching 1-D"):
            ForceCdf(thresholds=np.ones((2, 2)), cdf=np.ones((2, 2)), max_force=1.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            ForceCdf(thresholds=np.array([1.0]), cdf=np.array([1.2]), max_force=1.0)


class TestForceMagnitudes:
    def test_pooling(self):
        ds = forces_dataset([1.0, 2.0])
        mags = _pooled_force_magnitudes(ds)
        assert sorted(mags) == [0.0, 0.0, 1.0, 2.0]

    def test_selection_subset(self):
        ds = forces_dataset([1.0, 2.0, 3.0])
        mags = _pooled_force_magnitudes(ds, [2])
        assert sorted(mags) == [0.0, 3.0]

    def test_missing_forces_names_structure(self):
        from atomcover import Dataset

        ds = Dataset(structures=(molecule([[0.0, 0.0, 0.0]]),))
        with pytest.raises(InputError, match="structure 0"):
            _pooled_force_magnitudes(ds)


class TestForceCdf:
    def test_all_zero_forces(self):
        ds = forces_dataset([0.0, 0.0])
        result = force_cdf(ds, thresholds=[0.1])
        assert result.cdf.tolist() == [1.0]

    def test_empty_threshold_list_rejected(self):
        ds = forces_dataset([1.0, 2.0])
        for selection in (None, [0]):
            with pytest.raises(InputError, match="no thresholds given"):
                force_cdf(ds, selection, thresholds=[])

    def test_hand_counted_two_thirds(self):
        # magnitudes {1, 2, 3} (ignore the zero-force partner atoms by
        # using single-atom structures)
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
        result = force_cdf(Dataset(structures=structures), thresholds=[2.5])
        assert result.cdf[0] == pytest.approx(2.0 / 3.0, abs=0)
        assert result.max_force == 3.0

    def test_strictly_below_semantics(self):
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
        # threshold exactly at a magnitude does not count that magnitude
        assert force_cdf(ds, thresholds=[2.0]).cdf[0] == pytest.approx(1.0 / 3.0)
        assert force_cdf(ds, thresholds=[3.0]).cdf[0] == pytest.approx(2.0 / 3.0)
        assert force_cdf(ds, thresholds=[3.0 + 1e-12]).cdf[0] == 1.0

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(1)
        from atomcover import Dataset

        structures = tuple(
            molecule(rng.random((3, 3)) * 4.0, forces=rng.normal(size=(3, 3)))
            for _ in range(5)
        )
        ds = Dataset(structures=structures)
        result = force_cdf(ds, thresholds=np.linspace(0, 5, 40))
        assert np.all(np.diff(result.cdf) >= 0)
        assert result.cdf[-1] <= 1.0

    def test_empty_selection_rejected(self):
        with pytest.raises(InputError, match="selection is empty"):
            force_cdf(forces_dataset([1.0, 2.0]), [])

    def test_subset_max_never_exceeds_full(self):
        ds = forces_dataset([1.0, 5.0, 2.0])
        full = force_cdf(ds)
        sub = force_cdf(ds, selection=[0, 2])
        assert sub.max_force <= full.max_force

    def test_pools_the_full_dataset_once(self, monkeypatch):
        from atomcover import evaluation

        ds = forces_dataset([1.0, 5.0, 2.0])
        grid = _default_threshold_grid(_pooled_force_magnitudes(ds))
        want = force_cdf(ds, thresholds=grid)
        calls = []
        pool = evaluation._pooled_force_magnitudes
        monkeypatch.setattr(
            evaluation,
            "_pooled_force_magnitudes",
            lambda *args: calls.append(args[1:]) or pool(*args),
        )
        got = force_cdf(ds)
        assert calls == [()]
        assert got.thresholds.tobytes() == grid.tobytes()
        assert got.cdf.tobytes() == want.cdf.tobytes() and got.max_force == want.max_force
        # a selection is pooled on its own, after the full dataset's grid
        force_cdf(ds, [0, 2])
        assert calls == [(), (), ([0, 2],)]

    def test_default_grid(self):
        ds = forces_dataset([1.0, 2.0, 3.0, 4.0])
        mags = _pooled_force_magnitudes(ds)
        grid = _default_threshold_grid(mags)
        assert len(grid) == 256
        assert grid[0] == pytest.approx(np.percentile(mags, 80))
        assert grid[-1] == pytest.approx(4.0)

    def test_default_grid_degenerate(self):
        ds = forces_dataset([0.0, 0.0])
        grid = _default_threshold_grid(_pooled_force_magnitudes(ds))
        assert grid.tolist() == [0.0]


class TestCompressionReport:
    def test_full_selection_is_lossless(self):
        rng = np.random.default_rng(2)
        descs = random_fixture(rng, n_structures=8)
        doc = compression_report(descs, range(8), KP)
        m = doc.metrics
        assert m["overlap"]["full_vs_compressed"] == 1.0
        assert m["overlap"]["compressed_vs_full"] == 1.0
        assert m["compressed"]["entropy_nats"] == pytest.approx(
            entropy(descs, KP).entropy_nats, abs=1e-12
        )
        assert m["compressed"]["diversity_nats"] == pytest.approx(
            diversity(descs, KP), abs=1e-12
        )

    def test_removing_duplicates_keeps_coverage(self):
        rng = np.random.default_rng(11)
        unique = [rng.random((5, 16)) + i * 10.0 for i in range(5)]
        # structure 0 is over-represented: 15 extra copies of it
        descs = synthetic_set(unique + [unique[0]] * 15)
        doc = compression_report(descs, range(5), KP)
        m = doc.metrics
        assert m["overlap"]["full_vs_compressed"] == 1.0
        assert m["overlap"]["n_delta_h_positive"] == 0
        # dropping the pile-up raises entropy; diversity counts support
        # only, so it is unchanged
        assert m["compressed"]["entropy_nats"] > entropy(descs, KP).entropy_nats + 0.5
        assert m["compressed"]["diversity_nats"] == pytest.approx(
            diversity(descs, KP), abs=1e-6
        )

    def test_missing_cluster_counted(self):
        near = np.zeros((6, 4))
        far = np.full((3, 4), 100 * H)
        descs = synthetic_set([near[:3], near[3:], far])
        doc = compression_report(descs, [0, 1], KP)
        m = doc.metrics
        assert m["overlap"]["full_vs_compressed"] == pytest.approx(6.0 / 9.0)
        assert m["overlap"]["n_delta_h_positive"] == 3
        assert m["sizes"]["n_environments_compressed"] == 6

    def test_histogram_accounts_for_everything(self):
        rng = np.random.default_rng(3)
        descs = random_fixture(rng, n_structures=10, scale=0.3)
        doc = compression_report(descs, [0, 3, 5], KP)
        hist = doc.metrics["delta_h_histogram"]
        total = sum(hist["counts"]) + hist["n_below_range"] + hist["n_above_range"]
        assert total == descs.n_environments
        assert len(hist["bin_edges"]) == 81
        assert len(hist["counts"]) == 80

    def test_every_block_records_parameters(self):
        rng = np.random.default_rng(4)
        descs = random_fixture(rng, n_structures=6)
        doc = compression_report(descs, [1, 2], KP)
        for block in doc.metrics.values():
            assert "parameters" in block

    def test_no_self_pass_and_one_cross_pass(self, monkeypatch):
        rng = np.random.default_rng(12)
        descs = random_fixture(rng, n_structures=9)
        selection = [1, 3, 8]
        n_sub = descs.subset(selection).n_environments
        sizes = count_self_passes(monkeypatch)
        shapes = count_cross_passes(monkeypatch)
        compression_report(descs, selection, KP)
        assert sizes == []
        assert shapes == [(descs.n_environments, n_sub)]

    def test_kept_figures_match_a_self_pass_on_overlapping_rows(self):
        # At scale 0.01 rows sit within a few bandwidths of each other, so
        # the kept rows' delta H are far from 0 and H is far from log n.
        rng = np.random.default_rng(20)
        descs = random_fixture(rng, n_structures=30, scale=0.01)
        result = sample_msc(descs, 8, KP)
        kept = entropy(descs.subset(result.selected), KP)
        assert kept.entropy_nats < 0.9 * np.log(kept.n_environments)
        for delta_h in (result.delta_h[8], None):
            block = compression_report(descs, result.selected, KP, delta_h=delta_h).metrics
            assert block["compressed"]["entropy_nats"] == pytest.approx(
                kept.entropy_nats, abs=1e-12
            )
            assert block["compressed"]["diversity_nats"] == pytest.approx(
                kept.diversity_nats, abs=1e-12
            )
            assert block["compressed"]["efficiency"] == pytest.approx(kept.efficiency, abs=1e-12)

    def test_mis_shaped_delta_h_rejected(self):
        rng = np.random.default_rng(21)
        descs = random_fixture(rng, n_structures=6)
        n = descs.n_environments
        for bad in (np.zeros(n - 1), np.zeros(n + 1), np.zeros((n, 1)), np.zeros((1, n))):
            with pytest.raises(InputError, match="delta_h has shape"):
                compression_report(descs, [0, 2], KP, delta_h=bad)

    def test_one_cross_pass_full_vs_subset(self, monkeypatch):
        rng = np.random.default_rng(13)
        descs = random_fixture(rng, n_structures=9)
        selection = [0, 2, 7]
        n_sub = descs.subset(selection).n_environments
        shapes = count_cross_passes(monkeypatch)
        doc = compression_report(descs, selection, KP)
        assert shapes == [(descs.n_environments, n_sub)]
        assert doc.metrics["overlap"]["compressed_vs_full"] == 1.0

    def test_msc_delta_h_gives_the_recomputed_report(self, monkeypatch):
        rng = np.random.default_rng(17)
        descs = random_fixture(rng, n_structures=30)
        result = sample_msc(descs, 8, KP)
        sub = descs.subset(result.selected)
        given = result.delta_h[8]
        assert np.allclose(
            given, delta_entropy(descs.values, sub.values, KP), rtol=0.0, atol=1e-12
        )
        shapes = count_cross_passes(monkeypatch)
        from_msc = compression_report(descs, result.selected, KP, delta_h=given)
        assert shapes == []
        recomputed = compression_report(descs, result.selected, KP)
        assert shapes == [(descs.n_environments, sub.n_environments)]
        overlap_block = recomputed.metrics["overlap"]
        assert 0 < overlap_block["n_delta_h_positive"] < descs.n_environments
        assert_documents_close(from_msc.metrics, recomputed.metrics, 1e-12)

    def test_subset_always_inside_full_set(self):
        # the report writes compressed_vs_full = 1.0 without a kernel pass;
        # this is the pass it skips, on rows near, far from and at the origin
        rng = np.random.default_rng(14)
        for scale in (1e-3, 0.05, 1.0, 1e3):
            for _ in range(5):
                rows = random_fixture(rng, n_structures=12, width=63, scale=scale)
                descs = synthetic_set(
                    [np.zeros((2, 63))] + [rows.rows_for(i) for i in range(12)]
                )
                n_keep = int(rng.integers(1, descs.n_structures + 1))
                selection = rng.choice(descs.n_structures, size=n_keep, replace=False)
                sub = descs.subset(selection)
                assert overlap(sub.values, descs.values, KP) == 1.0

    def test_empty_selection_rejected(self):
        rng = np.random.default_rng(5)
        descs = random_fixture(rng, n_structures=4)
        with pytest.raises(InputError):
            compression_report(descs, [], KP)

    def test_byte_identical_reports(self, tmp_path):
        rng = np.random.default_rng(6)
        descs = random_fixture(rng, n_structures=9)
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        compression_report(descs, [0, 4, 7], KP, {"seed": 0}).write(p1)
        compression_report(descs, [0, 4, 7], KP, {"seed": 0}).write(p2)
        assert p1.read_bytes() == p2.read_bytes()
        json.loads(p1.read_text())  # valid JSON


class TestDeltaHHistogram:
    def test_tails_counted(self):
        dh = np.array([-25.0, -1.0, 0.0, 3.0, 25.0])
        block = delta_h_histogram(dh, KP)
        assert block["n_below_range"] == 1
        assert block["n_above_range"] == 1
        assert sum(block["counts"]) == 3


class TestCompareMethods:
    def test_full_fraction_rows_agree(self):
        rng = np.random.default_rng(7)
        descs = random_fixture(rng, n_structures=6)
        sweep = compare_methods(descs, [1.0], seed=0, kernel=KP)
        entropies = {round(r.entropy_nats, 10) for r in sweep.rows}
        overlaps = {r.overlap_full_vs_compressed for r in sweep.rows}
        assert len(entropies) == 1
        assert overlaps == {1.0}

    def test_no_self_pass_per_row(self, monkeypatch):
        rng = np.random.default_rng(13)
        descs = random_fixture(rng, n_structures=8)
        sizes = count_self_passes(monkeypatch)
        shapes = count_cross_passes(monkeypatch)
        compare_methods(descs, [0.25, 0.5], methods=("random",), kernel=KP)
        # one pass over every row, with one weight column per row's selection
        assert sizes == [(descs.n_environments, 2)]
        assert shapes == []

    def test_one_kept_row_has_no_efficiency_as_in_the_report(self, tmp_path):
        # Four one-row structures at fraction 0.25 keep one environment, whose
        # efficiency (H / log 1) is undefined in the sweep as in the report.
        from atomcover.report import ReportDocument, write_csv

        descs = synthetic_set([[0.0, 0.1], [0.3, 0.0], [0.0, 0.7], [0.2, 0.2]])
        sweep = compare_methods(descs, [0.25], methods=("random", "fps", "msc"), kernel=KP)
        report = compression_report(descs, [0], kernel=KP).to_dict()["metrics"]
        assert report["compressed"]["efficiency"] is None
        for row in sweep.rows:
            assert row.count == row.n_environments == 1
            assert row.efficiency is None
        doc = ReportDocument(kind="compare", parameters={}, metrics=sweep.to_metrics())
        assert all(r["efficiency"] is None for r in json.loads(doc.to_json())["metrics"]["rows"])
        write_csv(tmp_path / "sweep.csv", sweep.HEADER, sweep.to_table())
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        column = lines[0].split(",").index("efficiency")
        assert [line.split(",")[column] for line in lines[1:]] == [""] * 3

    def test_rows_match_a_self_pass_on_overlapping_rows(self):
        rng = np.random.default_rng(22)
        descs = random_fixture(rng, n_structures=30, scale=0.01)
        sweep = compare_methods(
            descs, [0.1, 0.25, 0.5], methods=("random", "fps", "msc"), seed=1, kernel=KP
        )
        far_from_log_n = 0
        for row in sweep.rows:
            config = SamplerConfig(method=row.method, fraction=row.fraction, seed=1, kernel=KP)
            kept = entropy(descs.subset(run_sampler(config, descs).selected), KP)
            assert row.n_environments == kept.n_environments
            assert row.entropy_nats == pytest.approx(kept.entropy_nats, abs=1e-12)
            assert row.diversity_nats == pytest.approx(kept.diversity_nats, abs=1e-12)
            assert row.efficiency == pytest.approx(kept.efficiency, abs=1e-12)
            far_from_log_n += kept.entropy_nats < 0.9 * np.log(kept.n_environments)
        assert far_from_log_n >= 6

    def test_nested_rows_match_per_fraction_runs(self):
        rng = np.random.default_rng(14)
        descs = random_fixture(rng, n_structures=20)
        # 0.1 and 0.12 of 20 structures both round to a count of 2
        fractions = [0.1, 0.12, 0.5]
        sweep = compare_methods(descs, fractions, methods=("fps", "msc"), seed=2, kernel=KP)
        want = []
        for method in ("fps", "msc"):
            for fraction in fractions:
                config = SamplerConfig(method=method, fraction=fraction, seed=2, kernel=KP)
                sub = descs.subset(run_sampler(config, descs).selected)
                kept = entropy(sub, KP)
                want.append((
                    method,
                    fraction,
                    sub.n_structures,
                    sub.n_environments,
                    kept.entropy_nats,
                    kept.diversity_nats,
                    kept.efficiency,
                    overlap(descs.values, sub.values, KP),
                ))
        assert [r.count for r in sweep.rows] == [2, 2, 10] * 2
        assert [tuple(row) for row in sweep.to_table()] == want

    def test_nested_sampler_runs_once_per_sweep(self, monkeypatch):
        rng = np.random.default_rng(15)
        descs = synthetic_set([rng.normal(scale=0.05, size=(2, 8)) for _ in range(8)])
        sizes = count_self_passes(monkeypatch)
        sweep = compare_methods(descs, [0.25, 0.5, 1.0], methods=["msc"], kernel=KP)
        # one per-structure self pass per structure, and none per row
        assert sizes == [(2, 1)] * descs.n_structures
        assert [r.n_environments for r in sweep.rows] == [4, 8, 16]

    def test_msc_rows_add_no_cross_pass(self, monkeypatch):
        rng = np.random.default_rng(18)
        descs = random_fixture(rng, n_structures=20)
        shapes = count_cross_passes(monkeypatch)
        selected = sample_msc(descs, 10, KP).selected
        greedy = list(shapes)
        assert greedy == [(descs.n_environments, len(descs.rows_for(i))) for i in selected]
        shapes.clear()
        sweep = compare_methods(descs, [0.1, 0.12, 0.25, 0.5], methods=["msc"], kernel=KP)
        assert [r.count for r in sweep.rows] == [2, 2, 5, 10]
        assert shapes == greedy

    def test_one_pass_serves_every_selection_but_msc(self, monkeypatch):
        rng = np.random.default_rng(23)
        descs = random_fixture(rng, n_structures=20)
        fractions = [0.1, 0.12, 0.25, 0.5]
        keys = {
            tuple(sorted(run_sampler(SamplerConfig(method="random", fraction=f, seed=4,
                                                   kernel=KP), descs).selected))
            for f in fractions
        }
        greedy = sample_msc(descs, 10, KP).selected
        sizes = count_self_passes(monkeypatch)
        shapes = count_cross_passes(monkeypatch)
        sweep = compare_methods(descs, fractions, methods=("random", "msc"), seed=4, kernel=KP)
        assert [r.count for r in sweep.rows] == [2, 2, 5, 10] * 2
        # msc's per-structure passes, then one pass over every row with one
        # column per distinct random selection: msc rows read the greedy's sums
        own = [(len(descs.rows_for(i)), 1) for i in range(descs.n_structures)]
        assert sizes == own + [(descs.n_environments, len(keys))]
        # the greedy's own extends, and no other cross pass
        assert shapes == [(descs.n_environments, len(descs.rows_for(i))) for i in greedy]

    @pytest.mark.parametrize("scale", [0.01, 0.2])
    def test_rows_equal_the_compression_report(self, scale, monkeypatch):
        # At scale 0.2 some rows lie so far from every kept row that their
        # shared sums fall under _SUM_FLOOR and delta_entropy recomputes them.
        rng = np.random.default_rng(24)
        descs = random_fixture(rng, n_structures=20, scale=scale)
        shapes = count_cross_passes(monkeypatch)
        sweep = compare_methods(descs, [0.1, 0.25, 0.5], seed=6, kernel=KP)
        fallbacks = [q for q, _ in shapes if q < descs.n_environments]
        if scale == 0.2:
            assert fallbacks
        else:
            assert fallbacks == []
        rows = [r for r in sweep.rows if r.fraction == 0.25]
        assert [r.method for r in rows] == ["random", "kmeans", "fps", "msc"]
        for row in rows:
            config = SamplerConfig(method=row.method, fraction=0.25, seed=6, kernel=KP)
            result = run_sampler(config, descs)
            assert (result.delta_h is None) == (row.method != "msc")
            delta_h = result.delta_h[len(result)] if result.delta_h else None
            report = compression_report(descs, result.selected, KP, delta_h=delta_h)
            compressed = report.metrics["compressed"]
            assert row.n_environments == report.metrics["sizes"]["n_environments_compressed"]
            assert row.entropy_nats == pytest.approx(compressed["entropy_nats"], abs=1e-12)
            assert row.diversity_nats == pytest.approx(compressed["diversity_nats"], abs=1e-12)
            assert row.efficiency == pytest.approx(compressed["efficiency"], abs=1e-12)
            assert row.overlap_full_vs_compressed == pytest.approx(
                report.metrics["overlap"]["full_vs_compressed"], abs=1e-12
            )

    def test_fps_rows_share_the_sweep_pass_and_extend_no_coverage(self, monkeypatch):
        rng = np.random.default_rng(19)
        descs = random_fixture(rng, n_structures=20)
        sizes = count_self_passes(monkeypatch)
        shapes = count_cross_passes(monkeypatch)
        sweep = compare_methods(
            descs, [0.1, 0.12, 0.25, 0.5], methods=["random", "fps"], seed=3, kernel=KP
        )
        # counts 2, 2, 5 and 10: three fps prefixes and the random selections
        # at the three counts, all columns of one pass over every row
        assert [r.count for r in sweep.rows] == [2, 2, 5, 10] * 2
        assert shapes == []
        assert sizes == [(descs.n_environments, 6)]

    def test_repeated_selections_share_one_column(self, monkeypatch):
        rng = np.random.default_rng(21)
        descs = random_fixture(rng, n_structures=20)
        sizes = count_self_passes(monkeypatch)
        # 0.1 and 0.12 of 20 structures both resolve to a count of 2, so each
        # method's two rows keep the same structures
        sweep = compare_methods(
            descs, [0.1, 0.12], methods=("random", "kmeans", "fps"), seed=5, kernel=KP
        )
        rows = sweep.to_table()
        assert [row[2:] for row in rows[0::2]] == [row[2:] for row in rows[1::2]]
        keys = {
            tuple(sorted(run_sampler(SamplerConfig(method=m, fraction=0.1, seed=5, kernel=KP),
                                     descs).selected))
            for m in ("random", "kmeans", "fps")
        }
        assert sizes == [(descs.n_environments, len(keys))]

    def test_row_structure(self):
        rng = np.random.default_rng(8)
        descs = random_fixture(rng, n_structures=8)
        sweep = compare_methods(descs, [0.5, 0.25], methods=("random", "msc"), seed=1, kernel=KP)
        assert [(r.method, r.fraction) for r in sweep.rows] == [
            ("random", 0.25),
            ("random", 0.5),
            ("msc", 0.25),
            ("msc", 0.5),
        ]
        assert all(r.count == {0.25: 2, 0.5: 4}[r.fraction] for r in sweep.rows)

    def test_redundant_fixture_msc_beats_random(self):
        descs = redundant_fixture(n_unique=4, n_dup=16)
        sweep = compare_methods(descs, [0.2], methods=("random", "msc"), seed=3, kernel=KP)
        by_method = {r.method: r for r in sweep.rows}
        assert by_method["msc"].overlap_full_vs_compressed == 1.0
        assert (
            by_method["msc"].overlap_full_vs_compressed
            >= by_method["random"].overlap_full_vs_compressed
        )

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        descs = random_fixture(rng, n_structures=7)
        a = compare_methods(descs, [0.3, 0.6], seed=4, kernel=KP)
        b = compare_methods(descs, [0.3, 0.6], seed=4, kernel=KP)
        assert a.to_table() == b.to_table()

    def test_rejects_bad_inputs(self):
        rng = np.random.default_rng(10)
        descs = random_fixture(rng, n_structures=4)
        with pytest.raises(InputError):
            compare_methods(descs, [], kernel=KP)
        with pytest.raises(InputError):
            compare_methods(descs, [1.5], kernel=KP)
        with pytest.raises(InputError):
            compare_methods(descs, [0.5], methods=("bogus",), kernel=KP)

    def test_repeated_fraction_raises_before_any_sampler_runs(self, monkeypatch):
        rng = np.random.default_rng(25)
        descs = random_fixture(rng, n_structures=20)

        def no_run(*args, **kwargs):
            raise AssertionError("a sampler ran before the sweep was checked")

        monkeypatch.setattr("atomcover.evaluation.run_sampler", no_run)
        monkeypatch.setattr("atomcover.evaluation.sample_msc", no_run)
        with pytest.raises(InputError, match=r"fractions given more than once: 0\.1$"):
            compare_methods(descs, [0.5, 0.1, 0.1], kernel=KP)

    def test_bad_method_raises_before_any_sampler_runs(self, monkeypatch):
        rng = np.random.default_rng(16)
        descs = random_fixture(rng, n_structures=4)

        def no_run(config, descs):
            raise AssertionError(f"{config.method} ran before the sweep was checked")

        monkeypatch.setattr("atomcover.evaluation.run_sampler", no_run)
        with pytest.raises(InputError, match="bogus"):
            compare_methods(descs, [0.5], methods=("random", "bogus"), kernel=KP)
