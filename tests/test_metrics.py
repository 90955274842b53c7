"""Metric tests: cosine reconstruction loss, exhaustive kNN against a
second implementation, k-selection top-k against a full stable sort,
recall accounting, and normalized entropy."""

import tracemalloc

import numpy as np
import pytest

from sidekit import metrics as m
from oracles import full_sort_topk, naive_knn


def unit(rows, dim, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, dim))
    return (x / np.linalg.norm(x, axis=1, keepdims=True)).astype(np.float32)


class TestCosineReconLoss:
    def test_identity_is_zero(self):
        x = unit(20, 8, 0)
        assert m.cosine_recon_loss(x, x) == pytest.approx(0.0, abs=1e-6)

    def test_antipodal_is_two(self):
        x = unit(20, 8, 1)
        assert m.cosine_recon_loss(x, -x) == pytest.approx(2.0, abs=1e-6)

    def test_zero_norm_row_names_index(self):
        x = unit(5, 4, 2)
        bad = x.copy()
        bad[3] = 0.0
        with pytest.raises(m.MetricError, match="row 3"):
            m.cosine_recon_loss(x, bad)

    def test_non_finite_row_names_index(self):
        x = unit(10, 4, 9)
        bad = x.copy()
        bad[6, 0] = np.inf
        with pytest.raises(m.MetricError, match="non-finite row 6"):
            m.cosine_recon_loss(x, bad)

    def test_scale_invariance(self):
        x = unit(10, 6, 3)
        assert m.cosine_recon_loss(x, 7.0 * x) == pytest.approx(0.0, abs=1e-6)

    def test_blocked_rows_name_the_corpus_row(self, monkeypatch):
        x = unit(100, 8, 11)
        monkeypatch.setattr(m, "BLOCK_CELLS", 30 * 3 * 8)
        assert len(m._row_blocks(100, 3 * 8)) == 4
        bad = x.copy()
        bad[97, 2] = np.nan
        with pytest.raises(m.MetricError,
                           match="non-finite row 97 in reconstruction"):
            m.cosine_recon_loss(x, bad)
        with pytest.raises(m.MetricError,
                           match="zero-norm row 98 in original corpus"):
            m.cosine_recon_loss(np.where(np.arange(100)[:, None] == 98,
                                         0.0, x), x)

    def test_blocked_value_is_bit_identical_to_one_pass(self, monkeypatch):
        x, x_hat = unit(100, 8, 12), unit(100, 8, 13)
        rows = np.einsum("ij,ij->i", m._unit_rows(x, "x"),
                         m._unit_rows(x_hat, "x_hat"))
        monkeypatch.setattr(m, "BLOCK_CELLS", 30 * 3 * 8)
        assert m.cosine_recon_loss(x, x_hat) == float(np.mean(1.0 - rows))


class TestKnnGroundTruth:
    def test_duplicate_ranked_first(self):
        x = unit(30, 8, 4)
        x[17] = x[3]  # duplicate of the query, different row
        gt = m.knn_ground_truth(x, np.array([3]), depth=5)
        assert gt[0, 0] == 17

    def test_near_parallel_wins(self):
        base = np.eye(4, dtype=np.float32)[:3]
        near = np.array([[0.99, 0.01, 0.0, 0.0]], dtype=np.float32)
        corpus = np.concatenate([base, near])
        gt = m.knn_ground_truth(corpus, np.array([0]), depth=1)
        assert gt[0, 0] == 3

    def test_matches_naive_double_loop(self):
        x = unit(120, 16, 5)
        queries = np.arange(0, 120, 7)
        gt = m.knn_ground_truth(x, queries, depth=10)
        expect = naive_knn(x, queries, 10)
        np.testing.assert_array_equal(gt, expect)

    def test_self_excluded(self):
        x = unit(40, 8, 6)
        queries = np.arange(40)
        gt = m.knn_ground_truth(x, queries, depth=5)
        for i in range(40):
            assert i not in gt[i]

    def test_depth_bound(self):
        x = unit(10, 4, 7)
        with pytest.raises(m.MetricError, match="depth"):
            m.knn_ground_truth(x, np.array([0]), depth=10)

    def test_permutation_equivariance(self):
        x = unit(50, 8, 8)
        gt = m.knn_ground_truth(x, np.array([5]), depth=8)
        rng = np.random.default_rng(9)
        perm = rng.permutation(50)
        inv = np.argsort(perm)
        gt_perm = m.knn_ground_truth(x[perm], np.array([inv[5]]), depth=8)
        np.testing.assert_array_equal(perm[gt_perm[0]], gt[0])


def half_rows(rows, dim, seed):
    """Rows with four entries of +-0.5 and the rest 0: exactly unit norm,
    so every cosine is an exact multiple of 1/4 and ties abound."""
    rng = np.random.default_rng(seed)
    x = np.zeros((rows, dim), dtype=np.float32)
    for r in range(rows):
        x[r, rng.choice(dim, size=4, replace=False)] = rng.choice([-0.5, 0.5],
                                                                  size=4)
    return x


class TestCosineTopk:
    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        # 3-row blocks, so most cases span several blocks
        monkeypatch.setattr(m, "BLOCK_CELLS", 3 * 200)

    @pytest.mark.parametrize("k", [1, 7, 40, 199, 200])
    def test_ties_across_the_kth_value_match_a_full_sort(self, k):
        base, queries = half_rows(200, 8, 0), half_rows(31, 8, 1)
        got = m.cosine_topk(base, queries, k)
        np.testing.assert_array_equal(got, full_sort_topk(base, queries, k))

    @pytest.mark.parametrize("k", [5, 199])  # 199 == limit
    def test_exclude_self_matches_a_full_sort(self, k):
        base = half_rows(200, 8, 2)
        idx = np.arange(0, 200, 6)
        got = m.cosine_topk(base, base[idx], k, exclude_self=idx)
        np.testing.assert_array_equal(
            got, full_sort_topk(base, base[idx], k, exclude_self=idx))
        assert all(i not in row for i, row in zip(idx, got))

    def test_random_rows_match_a_full_sort(self):
        base, queries = unit(200, 16, 3), unit(20, 16, 4)
        np.testing.assert_array_equal(m.cosine_topk(base, queries, 25),
                                      full_sort_topk(base, queries, 25))

    def test_one_block_and_no_queries(self, monkeypatch):
        base, queries = half_rows(200, 8, 5), half_rows(9, 8, 6)
        monkeypatch.setattr(m, "BLOCK_CELLS", 1 << 21)
        np.testing.assert_array_equal(m.cosine_topk(base, queries, 12),
                                      full_sort_topk(base, queries, 12))
        assert m.cosine_topk(base, queries[:0], 12).shape == (0, 12)

    @pytest.mark.parametrize("where", ["base", "queries"])
    def test_non_finite_row_names_index(self, where):
        base, queries = unit(30, 8, 7), unit(5, 8, 8)
        bad = (base if where == "base" else queries).copy()
        bad[4, 2] = np.nan
        args = (bad, queries) if where == "base" else (base, bad)
        with pytest.raises(m.MetricError, match=f"non-finite row 4 in {where}"):
            m.cosine_topk(*args, 3)


def test_topk_peak_memory_is_flat_in_queries():
    """Queries run in row blocks of at most BLOCK_CELLS similarities, so
    the peak does not follow the query count. Held whole instead, 2,000
    queries over 20,000 rows hold 320 MB of float64 similarities, ten
    times what 200 queries hold."""
    rng = np.random.default_rng(10)
    base = rng.normal(size=(20_000, 16)).astype(np.float32)
    queries = rng.normal(size=(2_000, 16)).astype(np.float32)

    def peak(nq):
        tracemalloc.start()
        try:
            m.cosine_topk(base, queries[:nq], 10)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(2_000) <= 1.25 * peak(200)


class TestRecallAtK:
    def test_perfect_candidates(self):
        gt = np.arange(40).reshape(2, 20)
        cands = np.concatenate([gt, 1000 + np.arange(160).reshape(2, 80)],
                               axis=1)
        report = m.recall_at_k(gt, cands, (20, 50, 100))
        assert report.recalls[0] == 1.0

    def test_disjoint_candidates(self):
        gt = np.arange(40).reshape(2, 20)
        cands = 1000 + np.arange(200).reshape(2, 100)
        report = m.recall_at_k(gt, cands, (20, 50, 100))
        assert report.recalls == (0.0, 0.0, 0.0)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(11)
        gt = np.stack([rng.choice(500, size=20, replace=False)
                       for _ in range(30)])
        cands = np.stack([rng.permutation(500)[:100] for _ in range(30)])
        report = m.recall_at_k(gt, cands, (20, 50, 100))
        assert report.recalls[0] <= report.recalls[1] <= report.recalls[2]

    def test_short_candidate_lists_rejected(self):
        gt = np.arange(20).reshape(1, 20)
        with pytest.raises(m.MetricError, match="too short"):
            m.recall_at_k(gt, np.arange(50).reshape(1, 50), (20, 50, 100))

    def test_paper_reference_rows_are_monotone(self):
        # reported recall tables are valid instances of the report type
        for r20, r50, r100 in [(0.1467, 0.3326, 0.5088),
                               (0.2370, 0.4187, 0.5998),
                               (0.1703, 0.3418, 0.5213),
                               (0.1323, 0.2943, 0.4848)]:
            report = m.RecallReport((20, 50, 100), (r20, r50, r100),
                                    1000, 200_000, 20)
            assert report.recalls[0] <= report.recalls[1] <= report.recalls[2]


class TestNormalizedEntropy:
    def test_prior_predictor_is_one(self):
        rng = np.random.default_rng(12)
        y = (rng.random(5000) < 0.23).astype(int)
        report = m.normalized_entropy(y, np.full(5000, y.mean()))
        assert report.ne == pytest.approx(1.0, abs=1e-9)

    def test_perfect_predictor_near_zero(self):
        rng = np.random.default_rng(13)
        y = (rng.random(1000) < 0.4).astype(int)
        report = m.normalized_entropy(y, y.astype(float))
        assert report.ne == pytest.approx(0.0, abs=1e-5)

    def test_hand_derived_case(self):
        # y=(1,0), p=(0.8,0.2): mean ll = ln 0.8, prior entropy = ln 0.5
        report = m.normalized_entropy([1, 0], [0.8, 0.2])
        assert report.ne == pytest.approx(np.log(0.8) / np.log(0.5), abs=1e-9)
        assert report.prior == 0.5
        assert report.n == 2

    def test_single_class_rejected(self):
        with pytest.raises(m.MetricError, match="single-class"):
            m.normalized_entropy([1, 1, 1], [0.5, 0.5, 0.5])

    def test_nonbinary_rejected(self):
        with pytest.raises(m.MetricError, match="binary"):
            m.normalized_entropy([0.5, 1.0], [0.5, 0.5])

    def test_extreme_predictions_clipped(self):
        report = m.normalized_entropy([1, 0], [1.0, 0.0])
        assert np.isfinite(report.ne)

    @pytest.mark.parametrize("preds, message", [
        ([0.2, np.nan, 0.6, 0.4], "prediction nan at index 1"),
        ([0.2, 0.5, np.inf, 0.4], "prediction inf at index 2"),
        ([0.2, 1.7, 0.6, -0.4], "prediction 1.7 at index 1"),
        ([0.2, 0.5, 0.6, -0.4], "prediction -0.4 at index 3"),
    ], ids=["nan", "inf", "above-one", "below-zero"])
    def test_predictions_outside_zero_one_rejected(self, preds, message):
        with pytest.raises(m.MetricError) as exc:
            m.normalized_entropy([0, 1, 1, 0], preds)
        assert str(exc.value) == f"{message} is not a probability in [0, 1]"


class TestRendering:
    def test_json_emission(self, capsys):
        report = m.normalized_entropy([1, 0], [0.8, 0.2])
        m.emit_report({"ne": report.as_dict()}, as_json=True)
        out = capsys.readouterr().out
        import json
        payload = json.loads(out)
        assert payload["ne"]["n"] == 2
