"""Quantizer tests: Lloyd's algorithm, residual and product composition,
the scalar grid, discrete-PCA encode/decode, and codebook checkpoints."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidekit import quantizers as q
from sidekit.corpus_io import save_checkpoint
from oracles import (mask_loop_kmeans, naive_dpca_sum,
                     threshold_residual_encode, within_cluster_sum_of_squares)


class TestKMeans:
    def test_fixed_point_on_k_distinct_points(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(4, 6)).astype(np.float32)
        cb = q.kmeans_fit(pts, 4, iters=5, seed=1)
        # centroids are the points themselves, in some order
        order = q.kmeans_assign(cb, pts)
        assert sorted(order.tolist()) == [0, 1, 2, 3]
        np.testing.assert_allclose(cb[order], pts, atol=1e-6)
        assert within_cluster_sum_of_squares(pts, cb) == 0.0

    def test_k1_is_corpus_mean(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(40, 5)).astype(np.float32)
        cb = q.kmeans_fit(pts, 1, iters=3, seed=0)
        np.testing.assert_allclose(cb[0], pts.mean(axis=0), atol=1e-5)

    def test_two_planted_modes(self):
        rng = np.random.default_rng(2)
        d = 16
        mode = np.ones(d) / np.sqrt(d)
        pts = np.concatenate([
            mode + 0.01 * rng.normal(size=(50, d)),
            -mode + 0.01 * rng.normal(size=(50, d)),
        ]).astype(np.float32)
        cb = q.kmeans_fit(pts, 2, iters=20, seed=3)
        dists = np.linalg.norm(
            cb[:, None, :] - np.stack([mode, -mode])[None], axis=2)
        # each mode claimed by one centroid, within 0.01 * sqrt(d)
        assert dists.min(axis=0).max() < 0.01 * np.sqrt(d)

    def test_objective_monotone(self):
        # the within-cluster sum of squares after i = 1..iters iterations,
        # also on the corpus that reseeds in the mask-loop test below
        spread = np.random.default_rng(3).normal(size=(200, 8))
        repeated = np.repeat(np.random.default_rng(5).normal(size=(20, 6)),
                             4, axis=0)
        for pts, k, iters, seed in [(spread, 12, 30, 4), (repeated, 30, 6, 6)]:
            pts = pts.astype(np.float32)
            wcss = [within_cluster_sum_of_squares(pts, q.kmeans_fit(
                pts, k, i, seed)) for i in range(1, iters + 1)]
            assert all(a >= b for a, b in zip(wcss, wcss[1:]))

    def test_degenerate_corpus_gives_k_copies_of_its_row(self):
        row = np.random.default_rng(4).normal(size=(1, 5)).astype(np.float32)
        cb = q.kmeans_fit(np.repeat(row, 10, axis=0), 4, iters=2, seed=0)
        assert cb.dtype == np.float32
        assert cb.tobytes() == np.repeat(row, 4, axis=0).tobytes()

    def test_k_exceeds_rows(self):
        with pytest.raises(q.QuantizerError, match="exceeds"):
            q.kmeans_fit(np.ones((3, 2), dtype=np.float32), 5, iters=25,
                         seed=0)

    @pytest.mark.parametrize("rows, k, iters, seed",
                             [(300, 12, 6, 0), (500, 1, 3, 1), (64, 64, 2, 2)])
    def test_matches_the_mask_loop_bitwise(self, rows, k, iters, seed):
        pts = np.random.default_rng(seed).normal(size=(rows, 8)).astype(
            np.float32)
        cb = q.kmeans_fit(pts, k, iters=iters, seed=seed)
        centroids, _ = mask_loop_kmeans(pts, k, iters, seed)
        np.testing.assert_array_equal(cb, centroids)

    def test_empty_cluster_reseed_matches_the_mask_loop(self):
        # 20 distinct points, each 4 times, and 30 centroids: some start on
        # the same point, so clusters go empty and are reseeded
        rng = np.random.default_rng(5)
        pts = np.repeat(rng.normal(size=(20, 6)), 4, axis=0).astype(np.float32)
        cb = q.kmeans_fit(pts, 30, iters=4, seed=6)
        centroids, reseeds = mask_loop_kmeans(pts, 30, 4, 6)
        assert reseeds > 0
        np.testing.assert_array_equal(cb, centroids)


class TestAssign:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.cb = rng.normal(size=(8, 6)).astype(np.float32)

    def test_exact_centroid(self):
        assert q.kmeans_assign(self.cb, self.cb[3:4]).tolist() == [3]

    def test_tie_breaks_low_index(self):
        cb = np.array(
            [[0.0, 1.0], [1.0, 0.0], [0.0, -1.0], [2.0, 0.0], [-1.0, 0.0]],
            dtype=np.float32)
        # origin is equidistant from centroids 1 and 4 (and 0 and 2)
        origin = np.zeros((1, 2), dtype=np.float32)
        assert q.kmeans_assign(cb, origin).tolist() == [0]

    def test_dimension_mismatch(self):
        with pytest.raises(q.QuantizerError, match="mismatch"):
            q.kmeans_assign(self.cb, np.zeros((1, 4), dtype=np.float32))


class TestResidual:
    def test_depth_one_reduces_to_assign(self):
        rng = np.random.default_rng(7)
        cb = rng.normal(size=(5, 4)).astype(np.float32)
        x = rng.normal(size=(1, 4)).astype(np.float32)
        idx = q.residual_quantize([cb], x)
        recon = q.kmeans_grid_decode([cb], 1, idx)
        assert idx[0, 0] == q.kmeans_assign(cb, x)[0]
        np.testing.assert_array_equal(recon[0], cb[idx[0, 0]])

    def test_exact_cover_zero_residual(self):
        rng = np.random.default_rng(8)
        cb1 = rng.normal(size=(4, 4)).astype(np.float32)
        cb2 = 0.01 * rng.normal(size=(4, 4)).astype(np.float32)
        x = cb1[2:3] + cb2[1:2]
        idx = q.residual_quantize([cb1, cb2], x)
        recon = q.kmeans_grid_decode([cb1, cb2], 1, idx)
        np.testing.assert_allclose(recon, x, atol=1e-6)

    def test_greedy_against_pair_enumeration(self):
        rng = np.random.default_rng(9)
        cb1 = rng.normal(size=(4, 6)).astype(np.float32)
        cb2 = 0.3 * rng.normal(size=(4, 6)).astype(np.float32)
        for _ in range(50):
            x = rng.normal(size=6).astype(np.float32)
            idx = q.residual_quantize([cb1, cb2], x[None, :])
            recon = q.kmeans_grid_decode([cb1, cb2], 1, idx)[0]
            idx = idx[0]
            greedy_res = float(((x - recon) ** 2).sum())
            # exhaustive over the 16 pairs
            best = min(
                float(((x - cb1[i] - cb2[j]) ** 2).sum())
                for i in range(4) for j in range(4))
            # greedy is optimal whenever its layer-1 pick matches the
            # exhaustive optimum's layer-1; always at least as good as the
            # best completion of its own layer-1 choice
            best_given_l1 = min(
                float(((x - cb1[idx[0]] - cb2[j]) ** 2).sum())
                for j in range(4))
            assert greedy_res <= best_given_l1 + 1e-5
            assert greedy_res >= best - 1e-5

    def test_fit_reduces_residual_error(self):
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(300, 8)).astype(np.float32)
        stack = q.residual_fit(pts, 8, depth=3, iters=15, seed=0)
        errs = []
        for depth in (1, 2, 3):
            recon = q.kmeans_grid_decode(
                stack[:depth], 1, q.residual_quantize(stack[:depth], pts))
            errs.append(float(((pts - recon) ** 2).sum()))
        assert errs[0] > errs[1] > errs[2]


class TestGrid:
    """kmeans, rq and pq as (groups, depth) grids of k-means codebooks."""

    pts = np.random.default_rng(11).normal(size=(120, 6)).astype(np.float32)

    def test_fit_layouts_match_direct_fits(self):
        one = q.kmeans_grid_fit(self.pts, 5, 1, 1, 4, 3)
        direct = q.kmeans_fit(self.pts, 5, iters=4, seed=3)
        np.testing.assert_array_equal(one[0], direct)
        rq = q.kmeans_grid_fit(self.pts, 5, 1, 2, 4, 3)
        for got, want in zip(rq, q.residual_fit(self.pts, 5, 2, iters=4,
                                                seed=3)):
            np.testing.assert_array_equal(got, want)
        pq = q.kmeans_grid_fit(self.pts, 5, 3, 1, 4, 3)
        for g, part in enumerate(q.product_split(self.pts, 3)):
            want = q.kmeans_fit(part, 5, iters=4, seed=3 + g)
            np.testing.assert_array_equal(pq[g], want)

    @pytest.mark.parametrize("groups, depth", [(1, 1), (1, 3), (3, 1),
                                               (2, 2)])
    def test_books_group_major(self, groups, depth):
        books = q.kmeans_grid_fit(self.pts, 4, groups, depth, 3, 0)
        assert len(books) == groups * depth
        codes = q.kmeans_grid_encode(books, groups, self.pts)
        assert codes.shape == (120, groups * depth)
        for g, part in enumerate(q.product_split(self.pts, groups)):
            stack = books[g * depth:(g + 1) * depth]
            np.testing.assert_array_equal(codes[:, g * depth:(g + 1) * depth],
                                          q.residual_quantize(stack, part))
        # decode: each group's centroid sum, recomputed by hand
        recon = q.kmeans_grid_decode(books, groups, codes)
        want = np.zeros_like(self.pts)
        w = 6 // groups
        for i, book in enumerate(books):
            g = i // depth
            want[:, g * w:(g + 1) * w] += book[codes[:, i]]
        np.testing.assert_allclose(recon, want, atol=1e-6)

    def test_decode_ignores_padding_and_rejects_short_codes(self):
        books = q.kmeans_grid_fit(self.pts, 4, 1, 2, 3, 0)
        codes = q.kmeans_grid_encode(books, 1, self.pts)
        padded = np.concatenate([codes, np.ones((120, 1), np.int64)], axis=1)
        np.testing.assert_array_equal(q.kmeans_grid_decode(books, 1, padded),
                                      q.kmeans_grid_decode(books, 1, codes))
        with pytest.raises(q.QuantizerError, match="1 code columns, 2 books"):
            q.kmeans_grid_decode(books, 1, codes[:, :1])


class TestProduct:
    def test_identity_when_one_group(self):
        x = np.arange(8, dtype=np.float32)
        parts = q.product_split(x, 1)
        assert len(parts) == 1
        np.testing.assert_array_equal(parts[0], x)

    def test_roundtrip_bitwise(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(5, 12)).astype(np.float32)
        np.testing.assert_array_equal(
            np.concatenate(q.product_split(x, 4), axis=-1), x)

    def test_slices_in_order(self):
        x = np.arange(8, dtype=np.float32)
        parts = q.product_split(x, 4)
        assert [p.tolist() for p in parts] == [[0, 1], [2, 3], [4, 5], [6, 7]]

    def test_indivisible(self):
        with pytest.raises(q.QuantizerError, match="divide"):
            q.product_split(np.zeros(10, dtype=np.float32), 3)


class TestFsq:
    def test_center_level(self):
        lv, v = q.fsq_quantize(3, np.array([[0.0]]))
        assert lv[0, 0] == 1 and v[0, 0] == 0.0

    def test_saturation(self):
        lv, v = q.fsq_quantize(3, np.array([[10.0]]))
        assert lv[0, 0] == 2 and v[0, 0] == 1.0

    def test_hand_case_l5(self):
        # tanh(0.3)=0.29131; (1.29131/2)*4 = 2.5826 -> level 3 -> value 0.5
        lv, v = q.fsq_quantize(5, np.array([[0.3]]))
        assert lv[0, 0] == 3
        assert v[0, 0] == pytest.approx(0.5)

    def test_values_on_grid(self):
        rng = np.random.default_rng(12)
        for levels in (2, 3, 4, 5, 7):
            _, vals = q.fsq_quantize(levels, rng.normal(size=(50, 4)) * 3)
            grid = 2.0 * np.arange(levels) / (levels - 1) - 1.0
            assert np.isin(vals, grid.astype(np.float32)).all()
            assert vals.min() >= -1.0 and vals.max() <= 1.0

    def test_dither_snap_rounds_half_up_and_clamps(self):
        # z=0 sits at grid position 1 of 3 levels; z=20 at position 2.
        # A -0.5 / +0.5 dither puts positions on the .5 ties (rounded up)
        # and at 2.5 (clamped to the top level).
        class Dither:
            def uniform(self, lo, hi, size):
                return np.broadcast_to([-0.5, 0.5], size)

        z = np.array([[0.0, 0.0], [20.0, 20.0]], dtype=np.float32)
        levels, _ = q.fsq_quantize(3, z, Dither())
        assert levels.tolist() == [[1, 2], [2, 2]]

    def test_undithered_snap_is_fsq_quantize(self):
        # the grid position (tanh(z) + 1) / 2 * (L - 1), in float64,
        # rounded half up; no entry of this z lies near a tie
        z = np.random.default_rng(24).normal(size=(30, 6)).astype(np.float32)
        pos = (np.tanh(z.astype(np.float64)) + 1.0) / 2.0 * 4
        np.testing.assert_array_equal(q.fsq_quantize(5, z)[0],
                                      np.floor(pos + 0.5))

    @given(st.integers(min_value=2, max_value=5),
           st.integers(min_value=0, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_idempotent_below_saturation_limit(self, levels, level):
        # tanh(1) is within half a grid step of 1 only for levels <= 5,
        # so grid values re-quantize to their own level exactly there
        if level >= levels:
            level = levels - 1
        value = q.fsq_values(levels, np.array([[level]]))
        lv, again = q.fsq_quantize(levels, value.astype(np.float64))
        assert lv[0, 0] == level
        np.testing.assert_array_equal(again, value)

    def test_nonfinite_rejected(self):
        with pytest.raises(q.QuantizerError, match="non-finite"):
            q.fsq_quantize(3, np.array([[np.nan]]))


def random_stack(dim, depth, groups=1, seed=0):
    """Components of std 0.5 and zero offsets, (groups, depth, dim/groups)."""
    shape = (groups, depth, dim // groups)
    return (np.random.default_rng(seed).normal(0.0, 0.5, shape),
            np.zeros(shape))


class TestDpca:
    def test_exact_component(self):
        u = np.array([[[0.6, 0.8, 0.0, 0.0]]], dtype=np.float32)
        codes = q.dpca_encode(u, np.zeros_like(u), u[0])
        assert codes.tolist() == [[1]]
        np.testing.assert_allclose(q.dpca_decode(u, np.zeros_like(u), codes),
                                   u[0])

    def test_zero_input_zero_codes(self):
        comps, offs = random_stack(8, 4, groups=2, seed=17)
        codes = q.dpca_encode(comps, offs, np.zeros((1, 8), dtype=np.float32))
        assert np.all(codes == 0)

    def test_encode_decode_matches_direct_sum(self):
        rng = np.random.default_rng(18)
        u1 = rng.normal(size=4)
        u2 = rng.normal(size=4)
        b = rng.normal(size=(1, 2, 4)) * 0.1
        stack = (np.stack([u1, u2])[None].astype(np.float32),
                 b.astype(np.float32))
        x = (u1 - u2 + b.sum(axis=1)).astype(np.float32)
        codes = q.dpca_encode(*stack, x)
        recon = q.dpca_decode(*stack, codes)
        expect = naive_dpca_sum(*stack, codes[0])
        np.testing.assert_allclose(recon[0], expect, atol=1e-6)

    def test_decode_matches_naive_sum_random(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            stack = (rng.normal(size=(2, 3, 4)).astype(np.float32),
                     rng.normal(size=(2, 3, 4)).astype(np.float32) * 0.2)
            codes = rng.integers(-1, 2, size=(1, 6)).astype(np.int8)
            recon = q.dpca_decode(*stack, codes)
            expect = naive_dpca_sum(*stack, codes[0])
            np.testing.assert_allclose(recon[0], expect, atol=1e-5,
                                       rtol=1e-5)

    def test_offsets_only_when_codes_zero(self):
        rng = np.random.default_rng(20)
        comps = rng.normal(size=(2, 3, 4)).astype(np.float32)
        offs = rng.normal(size=(2, 3, 4)).astype(np.float32)
        recon = q.dpca_decode(comps, offs, np.zeros((1, 6), dtype=np.int8))
        expect = np.concatenate([offs[g].sum(axis=0) for g in range(2)])
        np.testing.assert_allclose(recon[0], expect, atol=1e-6)

    def test_orthonormal_stack_roundtrips_exactly(self):
        basis = np.eye(6, dtype=np.float32)[None, :4, :]  # orthonormal rows
        stack = (basis, np.zeros_like(basis))
        rng = np.random.default_rng(21)
        codes = rng.integers(-1, 2, size=(10, 4)).astype(np.int8)
        x = q.dpca_decode(*stack, codes)
        np.testing.assert_array_equal(q.dpca_encode(*stack, x), codes)

    def test_zero_norm_component_rejected(self):
        u = np.zeros((1, 1, 4), dtype=np.float32)
        with pytest.raises(q.QuantizerError, match="zero-norm"):
            q.dpca_encode(u, u, np.ones((1, 4), dtype=np.float32))

    def test_code_validation(self):
        stack = random_stack(4, 2, seed=0)
        with pytest.raises(q.QuantizerError, match="ternary"):
            q.dpca_decode(*stack, np.array([[2, 0]]))
        with pytest.raises(q.QuantizerError, match="length"):
            q.dpca_decode(*stack, np.array([[1, 0, 1]]))

    @pytest.mark.parametrize("offsets_shape", [(1, 2, 3), (2, 4)])
    def test_offsets_of_another_shape_rejected(self, offsets_shape):
        comps = np.ones((1, 2, 4), dtype=np.float32)
        offs = np.zeros(offsets_shape, dtype=np.float32)
        msg = r"components and offsets must both be \(groups, depth, width\)"
        with pytest.raises(q.QuantizerError, match=msg):
            q.dpca_encode(comps, offs, np.ones((1, 4), dtype=np.float32))
        with pytest.raises(q.QuantizerError, match=msg):
            q.dpca_decode(comps, offs, np.zeros((1, 2), dtype=np.int8))


class TestDpcaAsResidualQuantization:
    """A DPCA stack is a residual quantizer whose depth-t book is the three
    centroids {b - u, b, b + u}, with digit s picking b + s*u, but whose
    digit switches where tanh of the least-squares coefficient crosses
    +-0.5, at atanh(0.5) ~ 0.549, not at the nearest-centroid midpoint 0.5."""

    rng = np.random.default_rng(25)
    stack = (rng.normal(size=(3, 4, 4)).astype(np.float32),
             0.2 * rng.normal(size=(3, 4, 4)).astype(np.float32))
    x = rng.normal(size=(5000, 12)).astype(np.float32)
    # group-major books of index s + 1 for digit s, as kmeans_grid_* read them
    books = [np.stack([b - u, b, b + u])
             for us, bs in zip(*stack)
             for u, b in zip(us, bs)]

    def residual_codes(self, encode):
        """`encode(books, part)` per product group, joined group-major."""
        return np.concatenate(
            [encode(self.books[g * 4:(g + 1) * 4], part)
             for g, part in enumerate(q.product_split(self.x, 3))], axis=1)

    def test_encode_is_the_residual_encoder_switching_at_tanh_half(self):
        codes = self.residual_codes(
            lambda books, part: threshold_residual_encode(books, part, 0.5)[0])
        np.testing.assert_array_equal(q.dpca_encode(*self.stack, self.x),
                                      codes - 1)

    def test_nearest_centroid_encoding_differs_in_the_dead_zone_only(self):
        dpca = q.dpca_encode(*self.stack, self.x) + 1
        coeffs = self.residual_codes(
            lambda books, part: threshold_residual_encode(books, part, 0.5)[1])
        nearest = self.residual_codes(q.residual_quantize)
        differs = dpca != nearest
        rows = np.flatnonzero(differs.any(axis=1))
        assert 0 < rows.size < self.x.shape[0]
        # each row's first differing digit has the same residual in both
        # encoders; its coefficient lies between the two switch points
        first = differs[rows].argmax(axis=1)
        c = np.abs(coeffs[rows, first])
        assert c.min() >= 0.5 - 1e-6 and c.max() < np.arctanh(0.5) + 1e-6

    def test_decode_is_the_residual_sum_of_the_centroids(self):
        codes = q.dpca_encode(*self.stack, self.x)
        np.testing.assert_allclose(
            q.dpca_decode(*self.stack, codes),
            q.kmeans_grid_decode(self.books, 3, codes.astype(np.int64) + 1),
            rtol=0, atol=1e-6)


class TestCodebookSerialization:
    def test_roundtrip_all_kinds(self, tmp_path):
        # kmeans (1 x 1), rq (1 x 3) and pq (2 x 1) grids, group-major
        x = np.random.default_rng(23).normal(size=(40, 4)).astype(np.float32)
        for groups, depth in ((1, 1), (1, 3), (2, 1)):
            books = q.kmeans_grid_fit(x, 5, groups, depth, iters=3, seed=0)
            path = tmp_path / f"books{groups}x{depth}.ckpt"
            q.save_codebooks(path, books)
            loaded = q.load_codebooks(path)
            assert len(loaded) == groups * depth
            for got, book in zip(loaded, books):
                np.testing.assert_array_equal(got, book)

    def test_no_kmeans_layers_loads_empty(self, tmp_path):
        path = tmp_path / "fusion.ckpt"
        save_checkpoint(path, {"fuse.w": np.ones((2, 3), dtype=np.float32)})
        assert q.load_codebooks(path) == []

    @pytest.mark.parametrize("names", [
        ["kmeans.l1.centroids"],
        ["kmeans.l0.centroids", "kmeans.l2.centroids"],
        ["kmeans.l0.centroids", "kmeans.degenerate"]])
    def test_missing_or_extra_kmeans_layers_rejected(self, tmp_path, names):
        path = tmp_path / "books.ckpt"
        save_checkpoint(path, {n: np.ones((2, 3), dtype=np.float32)
                               for n in names})
        with pytest.raises(q.QuantizerError, match="k-means layers"):
            q.load_codebooks(path)
