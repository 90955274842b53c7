"""Fusion autoencoder tests: forward contracts, straight-through
gradients, loss terms, training behavior, and corpus encoding."""

import tracemalloc

import numpy as np
import pytest

from sidekit import fusion_vae as fv
from sidekit import metrics
from sidekit import nn_core as nn
from sidekit import quantizers as q
from sidekit.corpus_io import load_checkpoint, save_checkpoint
from sidekit.metrics import cosine_recon_loss
from oracles import grad_close, numeric_grad


def unit(rows, dim, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, dim))
    return (x / np.linalg.norm(x, axis=1, keepdims=True)).astype(np.float32)


def structured_corpus(rows, dim, seed, rank=4):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(rows, rank))
    x = z @ rng.normal(size=(rank, dim))
    return (x / np.linalg.norm(x, axis=1, keepdims=True)).astype(np.float32)


def spec_for(dim, kind="fsq", latent=8, depth=4, groups=1, n=1, hidden=32):
    return fv.FusionSpec((dim,) * n, latent, hidden, kind, depth=depth,
                         groups=groups)


def nan_weight_on_forward(monkeypatch, model, call):
    """Set a fusion weight to NaN just before the call-th forward pass."""
    forward = model.forward
    calls = []

    def poisoned(batch, **kwargs):
        calls.append(1)
        if len(calls) == call:
            model.params.get("fuse.w")[0, 0] = np.nan
        return forward(batch, **kwargs)

    monkeypatch.setattr(model, "forward", poisoned)


class TestForward:
    def test_identity_quantizer_is_pure_autoencoder(self):
        model = fv.FusionModel(spec_for(10, kind="none"), seed=0)
        x = unit(6, 10, 0)
        result = model.forward([x])
        assert result.h_hat is result.h
        recon = model.decode(result.h)[0]
        np.testing.assert_array_equal(result.recon[0].value, recon.value)

    def test_surrogate_forward_equals_quantized(self):
        # the decoder consumes s = h - sg(h - h_hat), numerically h_hat
        model = fv.FusionModel(spec_for(10, kind="fsq"), seed=1)
        x = unit(6, 10, 1)
        result = model.forward([x])
        recon = model.decode(nn.constant(result.h_hat.value))[0]
        np.testing.assert_allclose(result.recon[0].value, recon.value,
                                   atol=1e-6)

    def test_single_signal_shapes(self):
        model = fv.FusionModel(spec_for(12, kind="dpca", latent=8), seed=2)
        x = unit(5, 12, 2)
        result = model.forward([x])
        assert result.h.shape == (5, 8)
        assert [r.shape for r in result.recon] == [(5, 12)]
        assert model.digits(result.h.value).shape == (5, 4)

    def test_missing_signal_rejected(self):
        model = fv.FusionModel(spec_for(10, n=2), seed=3)
        for call in model.encode, model.forward:
            with pytest.raises(fv.FusionError, match=(
                    "^the spec has 2 signals, the bundle 1$")):
                call([unit(4, 10, 3)])

    @pytest.mark.parametrize("count", [0, 3])
    def test_empty_or_surplus_bundle_rejected(self, count):
        model = fv.FusionModel(spec_for(10, n=2), seed=3)
        bundle = [unit(4, 10, 3)] * count
        cfg = nn.FitConfig(epochs=1, batch_size=4, lr=1e-3, seed=0)
        for call in (model.encode, lambda b: fv.train(model, b, cfg),
                     lambda b: fv.encode_codes(model, b)):
            with pytest.raises(fv.FusionError, match=(
                    f"^the spec has 2 signals, the bundle {count}$")):
                call(bundle)

    def test_dpca_codes_are_ternary(self):
        model = fv.FusionModel(spec_for(10, kind="dpca", latent=8, depth=5),
                               seed=4)
        h = model.encode([unit(16, 10, 4)])
        assert np.isin(model.digits(h.value), (-1, 0, 1)).all()

    def test_fsq_needs_two_levels(self):
        with pytest.raises(q.QuantizerError,
                           match=r"^levels must be >= 2, got 1$"):
            fv.FusionModel(fv.FusionSpec((4,), 4, 8, "fsq", levels=1))


class TestSpec:
    # TestForward.test_fsq_needs_two_levels covers the fourth rejection
    @pytest.mark.parametrize("args, kwargs, message", [
        (((4,), 4, 8, "vq"), {}, "unknown quantizer kind 'vq'"),
        (((), 4, 8, "fsq"), {}, "need at least one signal"),
        (((4,), 6, 8, "dpca"), dict(groups=4),
         "4 product groups do not divide latent width 6")])
    def test_each_rejection_keeps_its_message(self, args, kwargs, message):
        with pytest.raises(fv.FusionError, match=f"^{message}$"):
            fv.FusionSpec(*args, **kwargs)

    def test_each_check_binds_only_its_quantizer(self):
        # the levels check applies to fsq only, the groups check to dpca
        assert fv.FusionSpec((4,), 6, 8, "none", levels=1, groups=4)
        assert fv.FusionSpec((4,), 6, 8, "dpca", levels=1, groups=3)


class TestLoss:
    def test_perfect_reconstruction_zero_loss(self):
        x = unit(8, 6, 5)
        node = nn.constant(x)
        loss = fv._cosine_loss_node(x, node)
        assert loss.value[0, 0] == pytest.approx(0.0, abs=1e-5)

    def test_orthogonal_unit_vectors_loss_one(self):
        x = np.eye(4, dtype=np.float32)[:2]
        x_hat = np.eye(4, dtype=np.float32)[2:]
        loss = fv._cosine_loss_node(x, nn.constant(x_hat))
        assert loss.value[0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_total_is_the_mean_of_the_signal_losses(self):
        model = fv.FusionModel(fv.FusionSpec((8, 8, 8), 4, 16, "none"),
                               seed=6)
        batch = [unit(6, 8, seed) for seed in range(3)]
        total, breakdown = fv.fusion_loss(model, batch, model.forward(batch))
        w = np.float32(1.0 / 3)
        a, b, c = (np.float32(breakdown[f"recon.sig{i}"]) for i in range(3))
        assert total.value[0, 0] == (a * w + b * w) + c * w
        assert breakdown["total"] == float(total.value[0, 0])

    def test_commitment_and_codebook_nonnegative(self):
        model = fv.FusionModel(spec_for(10, kind="dpca", latent=8), seed=7)
        x = unit(12, 10, 8)
        result = model.forward([x])
        _, breakdown = fv.fusion_loss(model, [x], result)
        assert breakdown["commitment"] >= 0.0
        assert breakdown["codebook"] >= 0.0

    def test_quantizer_terms_zero_on_grid(self):
        # orthonormal components, zero offsets: decode(codes) re-encodes
        # exactly, so h on the grid gives exactly zero commit/codebook
        spec = spec_for(10, kind="dpca", latent=6, depth=3)
        model = fv.FusionModel(spec, seed=8)
        model.params.set("dpca.u", np.eye(3, 6))
        model.params.set("dpca.b", np.zeros((3, 6)))
        codes = np.array([[1, -1, 0], [0, 1, 1]], dtype=np.int8)
        h_val = q.dpca_decode(*model.dpca_stack(), codes)
        h = nn.leaf(h_val, requires_grad=True)
        h_hat = model._quantize_node(h)
        np.testing.assert_array_equal(model.digits(h.value), codes)
        commit = float(np.square(h.value - h_hat.value).mean())
        assert commit == 0.0


class TestStraightThrough:
    def test_gradient_matches_identity_quantizer_operator(self):
        # grad through the surrogate == grad of the decoder evaluated at
        # the quantized point: the quantizer contributes exactly identity
        model = fv.FusionModel(spec_for(10, kind="fsq"), seed=10)
        x = unit(6, 10, 10)
        result = model.forward([x])
        loss, _ = fv.fusion_loss(model, [x], result)
        nn.backward(loss)
        st_grad = result.h.grad.copy()

        direct = nn.leaf(result.h_hat.value, requires_grad=True)
        recon = model.decode(direct)[0]
        loss2 = fv._cosine_loss_node(x, recon)
        nn.backward(loss2)
        np.testing.assert_allclose(st_grad, direct.grad, atol=1e-6)

    def test_fd_on_frozen_surrogate(self):
        # with the quantization residual frozen, s(h) = h - c, and the
        # analytic straight-through gradient matches finite differences;
        # a few epochs first move the model off the all-zero-code start,
        # where the reconstruction norm is degenerate
        model = fv.FusionModel(spec_for(8, kind="fsq", latent=4), seed=11)
        x = unit(4, 8, 11)
        fv.train(model, [x],
                 nn.FitConfig(epochs=30, batch_size=4, lr=1e-3, seed=11))
        result = model.forward([x])
        c = (result.h.value - result.h_hat.value).copy()
        nn.backward(fv.fusion_loss(model, [x], result)[0])
        st_grad = result.h.grad.copy()

        arrays = {"h": result.h.value.copy()}

        def loss_value(arrs):
            h = nn.leaf(arrs["h"], requires_grad=True)
            s = nn.sub(h, nn.constant(c))
            recon = model.decode(s)[0]
            return float(fv._cosine_loss_node(x, recon).value[0, 0])

        numeric = numeric_grad(loss_value, arrays, "h")
        assert grad_close(st_grad, numeric)


class TestTrain:
    def test_lr_zero_is_impossible_but_tiny_lr_freezes(self):
        # AdamState rejects lr=0; spec's null-update case is covered by a
        # vanishingly small step leaving parameters numerically unchanged
        model = fv.FusionModel(spec_for(8, latent=4), seed=12)
        before = model.params.flat.copy()
        x = unit(32, 8, 12)
        fv.train(model, [x],
                 nn.FitConfig(epochs=2, batch_size=16, lr=1e-12, seed=12))
        np.testing.assert_allclose(model.params.flat, before, atol=1e-5)

    def test_line_dataset_reaches_low_loss(self):
        rng = np.random.default_rng(13)
        t = np.linspace(-1, 1, 64)[:, None]
        pts = rng.normal(size=(1, 16)) + t * rng.normal(size=(1, 16))
        pts = (pts / np.linalg.norm(pts, axis=1, keepdims=True)).astype(
            np.float32)
        model = fv.FusionModel(fv.FusionSpec((16,), 1, 32, "fsq"), seed=0)
        fv.train(model, [pts],
                 nn.FitConfig(epochs=500, batch_size=16, lr=1e-3, seed=0))
        data = fv.normalize_bundle(model, [pts])
        result = model.forward(data)
        loss = cosine_recon_loss(data[0], result.recon[0].value)
        assert loss < 0.05

    @pytest.mark.parametrize("seed", range(5))
    def test_loss_decreases_on_structured_data(self, seed):
        x = structured_corpus(256, 24, seed)
        model = fv.FusionModel(spec_for(24, kind="fsq", latent=8), seed=seed)
        rows, _ = fv.train(
            model, [x],
            nn.FitConfig(epochs=11, batch_size=64, lr=1e-3, seed=seed))
        assert rows[10]["total"] < rows[0]["total"]

    def test_symmetric_duplicate_signals_converge_together(self):
        x = structured_corpus(192, 16, 14)
        model = fv.FusionModel(fv.FusionSpec((16, 16), 6, 48, "fsq"),
                               seed=14)
        fv.train(model, [x, x],
                 nn.FitConfig(epochs=150, batch_size=64, lr=1e-3, seed=14))
        data = fv.normalize_bundle(model, [x, x])
        result = model.forward(data)
        la, lb = (cosine_recon_loss(x, r.value)
                  for x, r in zip(data, result.recon))
        assert abs(la - lb) / max(la, lb) < 0.05

    def test_divergence_rolls_back(self, monkeypatch):
        x = structured_corpus(64, 8, 15)
        for kind in ("fsq", "dpca"):
            stopped = fv.FusionModel(spec_for(8, kind=kind, latent=4), seed=15)
            fv.train(stopped, [x],
                     nn.FitConfig(epochs=1, batch_size=32, lr=1e-3,
                                  seed=15))
            model = fv.FusionModel(spec_for(8, kind=kind, latent=4), seed=15)
            # 2 batches per epoch: the first batch of epoch 1 goes NaN
            nan_weight_on_forward(monkeypatch, model, 3)
            rows, diverged_at = fv.train(model, [x], nn.FitConfig(
                epochs=3, batch_size=32, lr=1e-3, seed=15))
            assert diverged_at == 1
            assert [row["epoch"] for row in rows] == [0]
            for name, arr in stopped.params.items():
                np.testing.assert_array_equal(model.params.get(name), arr)

    def test_divergence_in_first_epoch_raises(self):
        model = fv.FusionModel(spec_for(8, latent=4), seed=15)
        model.params.get("fuse.w")[0, 0] = np.nan
        with pytest.raises(nn.TrainingDiverged):
            fv.train(model, [structured_corpus(64, 8, 15)],
                     nn.FitConfig(epochs=3, batch_size=32, lr=1e-3,
                                  seed=15))

    @pytest.mark.parametrize("kind, param, from_call, error, message", [
        ("fsq", "enc.sig0.w1", 2, nn.TrainingDiverged,
         "diverged in epoch 0: node 'matmul#32': non-finite output at "
         "batch row 0"),
        ("fsq", "enc.sig0.w2", 2, nn.TrainingDiverged,
         "diverged in epoch 0: node 'matmul#35': non-finite output at "
         "batch row 0"),
        ("fsq", "trunk.b", 3, nn.TrainingDiverged,
         "diverged in epoch 0: node 'add#79': non-finite output at "
         "batch row 0"),
        ("dpca", "enc.sig0.w1", 2, nn.TrainingDiverged,
         "diverged in epoch 0: node 'matmul#45': non-finite output at "
         "batch row 0"),
        ("dpca", "enc.sig0.w2", 2, nn.TrainingDiverged,
         "diverged in epoch 0: node 'matmul#48': non-finite output at "
         "batch row 0"),
        ("dpca", "dpca.b", 3, q.QuantizerError,
         "non-finite latent input")])
    def test_a_parameter_poisoned_in_training_raises_the_per_op_error(
            self, monkeypatch, kind, param, from_call, error, message):
        """The errors recorded with a check after every op: the first
        node per-op checks find non-finite, numbered as those runs
        numbered it, or the quantizer's own error where it came first.
        With FSQ the checked re-run draws the same dither."""
        rng = np.random.default_rng(5)
        bundle = [rng.normal(size=(96, 8)), rng.normal(size=(96, 5))]
        model = fv.FusionModel(fv.FusionSpec((8, 5), 6, 12, kind, 3, 2, 2),
                               seed=4)
        forward = model.forward
        calls = []

        def poisoned(batch, **kwargs):
            calls.append(1)
            if len(calls) >= from_call:
                model.params.get(param)[0, 0] = np.inf
            return forward(batch, **kwargs)

        monkeypatch.setattr(model, "forward", poisoned)
        with pytest.raises(error) as info:
            fv.train(model, bundle,
                     nn.FitConfig(epochs=2, batch_size=32, lr=1e-2, seed=3))
        assert str(info.value) == message

    def test_mismatched_row_counts_rejected(self):
        model = fv.FusionModel(fv.FusionSpec((8, 8), 4, 16, "fsq"), seed=16)
        with pytest.raises(fv.FusionError, match="sample count"):
            fv.train(model, [unit(10, 8, 16), unit(12, 8, 17)],
                     nn.FitConfig(epochs=1, batch_size=256, lr=1e-3,
                                  seed=0))

    @pytest.mark.parametrize("value, message", [
        (np.nan, "non-finite norm for 'sig1' at row 7"),
        (np.inf, "non-finite norm for 'sig1' at row 7"),
        (0.0, "zero-norm input for 'sig1' at row 7")])
    def test_a_bad_row_is_named_before_training(self, value, message):
        b = unit(10, 8, 17)
        b[[7, 9]] = value  # the first bad row is named
        model = fv.FusionModel(fv.FusionSpec((8, 8), 4, 16, "fsq"), seed=16)
        with pytest.raises(fv.FusionError, match=f"^{message}$"):
            fv.train(model, [unit(10, 8, 16), b],
                     nn.FitConfig(epochs=1, batch_size=256, lr=1e-3,
                                  seed=0))


class TestCheckpointLayout:
    SPEC = fv.FusionSpec((6, 4), 4, 8, "dpca", depth=2, groups=2)

    def test_parameter_names_in_record_order(self, tmp_path):
        model = fv.FusionModel(self.SPEC, seed=0)
        expected = [
            "enc.sig0.w1", "enc.sig0.b1", "enc.sig0.w2", "enc.sig0.b2",
            "head.sig0.w1", "head.sig0.b1", "head.sig0.w2", "head.sig0.b2",
            "enc.sig1.w1", "enc.sig1.b1", "enc.sig1.w2", "enc.sig1.b2",
            "head.sig1.w1", "head.sig1.b1", "head.sig1.w2", "head.sig1.b2",
            "fuse.w", "fuse.b", "trunk.w", "trunk.b",
            "dpca.u", "dpca.b"]
        assert model.params.names() == expected
        path = tmp_path / "m.ckpt"
        model.save(path)
        assert list(load_checkpoint(path)) == expected + ["meta.latent"]

    def test_dpca_rows_hold_the_seeded_stack(self):
        model = fv.FusionModel(self.SPEC, seed=5)
        expect = np.random.default_rng(6).normal(
            0.0, fv.DPCA_INIT_STD, (2, 2, 2)).astype(np.float32)
        comps, offs = model.dpca_stack()
        np.testing.assert_array_equal(comps, expect)
        np.testing.assert_array_equal(offs, np.zeros_like(expect))
        # row g * depth + t of "dpca.u" is group g's component at depth t
        assert model.params.get("dpca.u")[2].tolist() == expect[1, 0].tolist()

    def test_the_stack_views_the_parameters(self):
        """`dpca_stack` copies nothing: a parameter update shows in it."""
        model = fv.FusionModel(self.SPEC, seed=5)
        comps, offs = model.dpca_stack()
        model.params.get("dpca.u")[3, 1] = 7.0
        model.params.get("dpca.b")[1, 0] = -2.0
        assert comps[1, 1, 1] == 7.0 and offs[0, 1, 0] == -2.0


class TestLoad:
    """FusionModel.load takes a checkpoint holding exactly the spec's
    parameters, each in its shape, and sets nothing otherwise."""

    def _saved(self, tmp_path, kind="dpca", depth=3, latent=6):
        model = fv.FusionModel(spec_for(10, kind=kind, latent=latent,
                                        depth=depth), seed=30)
        path = tmp_path / f"{kind}{depth}.ckpt"
        model.save(path)
        return path

    def _rejects(self, spec, path, match):
        model = fv.FusionModel(spec, seed=31)
        before = model.params.flat.copy()
        with pytest.raises(fv.FusionError, match=match):
            model.load(path)
        np.testing.assert_array_equal(model.params.flat, before)

    def test_extra_parameter_rejected(self, tmp_path):
        # a DPCA checkpoint under an FSQ spec names the first parameter
        # the spec lacks; a deeper stack than the spec's, its shape
        path = self._saved(tmp_path, depth=3)
        self._rejects(spec_for(10, kind="fsq", latent=6), path,
                      "'dpca.u' is not in the spec")
        self._rejects(spec_for(10, kind="dpca", latent=6, depth=2), path,
                      "shape mismatch for 'dpca.u'")

    def test_per_row_dpca_checkpoint_rejected(self, tmp_path):
        """A checkpoint holding the stack as one (1, width) member per
        row, "dpca.g{g}.d{t}.u" and ".b", is refused by its first row's
        name."""
        path = self._saved(tmp_path, depth=2)
        arrays = load_checkpoint(path)
        comps, offs = arrays.pop("dpca.u"), arrays.pop("dpca.b")
        latent = arrays.pop("meta.latent")
        for t in range(2):
            arrays[f"dpca.g0.d{t}.u"] = comps[t:t + 1]
            arrays[f"dpca.g0.d{t}.b"] = offs[t:t + 1]
        arrays["meta.latent"] = latent
        save_checkpoint(path, arrays)
        self._rejects(spec_for(10, kind="dpca", latent=6, depth=2), path,
                      "^checkpoint parameter 'dpca.g0.d0.u' is not in the "
                      "spec$")

    def test_missing_parameter_rejected(self, tmp_path):
        path = self._saved(tmp_path, depth=2)
        arrays = load_checkpoint(path)
        del arrays["dpca.b"]
        save_checkpoint(path, arrays)
        self._rejects(spec_for(10, kind="dpca", latent=6, depth=2), path,
                      "missing parameter 'dpca.b'")

    def test_shape_mismatch_rejected(self, tmp_path):
        path = self._saved(tmp_path, kind="fsq")
        self._rejects(spec_for(12, kind="fsq", latent=6), path,
                      "shape mismatch for 'enc.sig0.w1'")

    def test_latent_width_mismatch_rejected(self, tmp_path):
        path = self._saved(tmp_path, kind="fsq", latent=6)
        self._rejects(spec_for(10, kind="fsq", latent=8), path,
                      "latent width 6 != spec 8")


class TestEncodeCorpus:
    def _trained(self, seed=17):
        x = structured_corpus(128, 12, seed)
        model = fv.FusionModel(
            spec_for(12, kind="dpca", latent=8, depth=6), seed=seed)
        fv.train(model, [x],
                 nn.FitConfig(epochs=10, batch_size=64, lr=1e-3, seed=seed))
        return model, x

    def test_determinism(self):
        model, x = self._trained()
        _, sids1 = fv.encode_corpus(model, [x], ngram=3)
        _, sids2 = fv.encode_corpus(model, [x], ngram=3)
        np.testing.assert_array_equal(sids1, sids2)

    def test_one_record_per_sample_in_order(self):
        model, x = self._trained()
        scheme, sids = fv.encode_corpus(model, [x], ngram=3)
        assert sids.shape == (128, scheme.grams)
        # first row encodes the first sample: re-encode it alone
        _, single = fv.encode_corpus(model, [x[:1]], ngram=3)
        np.testing.assert_array_equal(sids[:1], single)

    def test_sids_match_direct_pipeline(self):
        from sidekit.sid_codec import pack_all
        model, x = self._trained()
        scheme, sids = fv.encode_corpus(model, [x], ngram=3)
        codes = fv.encode_codes(model, [x])
        np.testing.assert_array_equal(sids, pack_all(scheme, codes))

    def test_checkpoint_roundtrip_preserves_encoding(self, tmp_path):
        model, x = self._trained()
        path = tmp_path / "fusion.ckpt"
        model.save(path)
        again = fv.FusionModel(
            spec_for(12, kind="dpca", latent=8, depth=6), seed=99).load(path)
        _, sids1 = fv.encode_corpus(model, [x], ngram=3)
        _, sids2 = fv.encode_corpus(again, [x], ngram=3)
        np.testing.assert_array_equal(sids1, sids2)

    def test_decode_from_digits_shapes(self):
        from sidekit.sid_codec import side_embed
        model, x = self._trained()
        scheme, sids = fv.encode_corpus(model, [x], ngram=3)
        digits = side_embed(scheme, sids).astype(np.int64)
        recon = fv.decode_from_digits(model, digits)
        assert [r.shape for r in recon] == [x.shape]


class TestBlockedInference:
    """encode_codes and decode_from_digits run row blocks with no graph
    recorded; the results must equal one whole-batch graph."""

    ROWS = 100

    def _model(self, kind, seed=21):
        spec = spec_for(12, kind=kind, latent=6, depth=3,
                        groups=2 if kind == "dpca" else 1, n=2)
        bundle = [unit(self.ROWS, 12, seed), unit(self.ROWS, 12, seed + 1)]
        return fv.FusionModel(spec, seed=seed), bundle

    @staticmethod
    def _blocks_of(monkeypatch, model, rows):
        # the block width of _each_block: hidden x signals exceeds each dim
        width = model.spec.hidden * len(model.spec.dims)
        monkeypatch.setattr(metrics, "BLOCK_CELLS", rows * width)
        assert len(metrics._row_blocks(TestBlockedInference.ROWS, width)) >= 3

    @pytest.mark.parametrize("kind", ["fsq", "dpca"])
    def test_encode_equals_whole_batch_forward(self, monkeypatch, kind):
        model, bundle = self._model(kind)
        whole = model.digits(model.encode(
            fv.normalize_bundle(model, bundle)).value)
        self._blocks_of(monkeypatch, model, 30)
        np.testing.assert_array_equal(fv.encode_codes(model, bundle), whole)

    @pytest.mark.parametrize("kind", ["fsq", "dpca"])
    def test_decode_equals_whole_batch_graph(self, monkeypatch, kind):
        model, bundle = self._model(kind)
        digits = fv.encode_codes(model, bundle)
        if kind == "fsq":
            spec = model.spec
            latent = q.fsq_values(spec.levels, digits + spec.offset)
        else:
            latent = q.dpca_decode(*model.dpca_stack(), digits.astype(np.int8))
        whole = model.decode(nn.constant(latent))
        self._blocks_of(monkeypatch, model, 30)
        recon = fv.decode_from_digits(model, digits)
        assert len(recon) == len(whole) == 2
        for x, node in zip(recon, whole):
            np.testing.assert_array_equal(x, node.value)

    def test_encode_error_names_the_corpus_row(self, monkeypatch):
        # normalize_bundle rejects a NaN input row, so the NaN is put into
        # its output, as a NaN the encoder made would be
        model, bundle = self._model("fsq")
        normalize = fv.normalize_bundle

        def with_nan(model, bundle):
            data = normalize(model, bundle)
            data[1][97, 3] = np.nan
            return data

        monkeypatch.setattr(fv, "normalize_bundle", with_nan)
        self._blocks_of(monkeypatch, model, 30)
        with pytest.raises(nn.NonFiniteError, match="'sig1'.*row 97") as exc:
            fv.encode_codes(model, bundle)
        assert exc.value.row == 97

    def test_decode_error_names_the_corpus_row(self, monkeypatch):
        # All-zero digits give a zero latent; row 97's one +1 digit meets
        # a huge trunk weight, and the head's sum overflows to inf.
        model, _ = self._model("fsq")
        model.params.get("trunk.w")[0] = 3e38
        model.params.get("head.sig0.w1")[...] = 1.0
        digits = np.zeros((self.ROWS, model.spec.code_digits), dtype=np.int64)
        digits[97, 0] = 1
        self._blocks_of(monkeypatch, model, 30)
        with np.errstate(over="ignore"), \
                pytest.raises(nn.NonFiniteError, match="row 97") as exc:
            fv.decode_from_digits(model, digits)
        assert exc.value.row == 97


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["fsq", "dpca"])
def test_inference_memory_growth_per_row_is_small(kind):
    """Between 8k and 32k rows, encode and decode each grow by what they
    keep per row (normalized inputs, digits, reconstructions), under 1 KB.
    A whole-corpus graph holds every intermediate: several KB per row."""
    spec = fv.FusionSpec((64, 32), 15, 128, kind,
                         depth=5 if kind == "dpca" else 1,
                         groups=3 if kind == "dpca" else 1)
    model = fv.FusionModel(spec, seed=3)
    big = [unit(32_768, 64, 4), unit(32_768, 32, 5)]
    small = [x[:8_192].copy() for x in big]
    digits = fv.encode_codes(model, big)
    few = digits[:8_192].copy()
    span = 32_768 - 8_192
    grow = (_traced_peak(lambda: fv.encode_codes(model, big))
            - _traced_peak(lambda: fv.encode_codes(model, small))) / span
    assert grow < 1_024
    grow = (_traced_peak(lambda: fv.decode_from_digits(model, digits))
            - _traced_peak(lambda: fv.decode_from_digits(model, few))) / span
    assert grow < 1_024
