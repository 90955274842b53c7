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
    sigs = tuple(fv.SignalSpec(f"sig{i}", dim) for i in range(n))
    return fv.FusionSpec(signals=sigs, latent=latent, hidden=hidden,
                         quantizer=fv.QuantizerSpec(
                             kind=kind, levels=3, depth=depth, groups=groups))


def quantizer(kind):
    """A one-layer, one-group 3-level quantizer spec of this kind."""
    return fv.QuantizerSpec(kind=kind, levels=3, depth=1, groups=1)


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
        result = model.forward({"sig0": x})
        assert result.s is result.h
        assert result.codes is None

    def test_surrogate_forward_equals_quantized(self):
        model = fv.FusionModel(spec_for(10, kind="fsq"), seed=1)
        x = unit(6, 10, 1)
        result = model.forward({"sig0": x})
        np.testing.assert_allclose(result.s.value, result.h_hat.value,
                                   atol=1e-7)

    def test_single_signal_shapes(self):
        model = fv.FusionModel(spec_for(12, kind="dpca", latent=8), seed=2)
        x = unit(5, 12, 2)
        result = model.forward({"sig0": x})
        assert result.h.shape == (5, 8)
        assert result.recon["sig0"].shape == (5, 12)
        assert result.codes.shape == (5, 4)

    def test_missing_signal_rejected(self):
        model = fv.FusionModel(spec_for(10, n=2), seed=3)
        with pytest.raises(fv.FusionError, match="missing signal"):
            model.forward({"sig0": unit(4, 10, 3)})

    def test_dpca_codes_are_ternary(self):
        model = fv.FusionModel(spec_for(10, kind="dpca", latent=8, depth=5),
                               seed=4)
        result = model.forward({"sig0": unit(16, 10, 4)})
        assert np.isin(result.codes, (-1, 0, 1)).all()


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

    def test_zero_weight_task_cannot_affect_total(self):
        sigs = (fv.SignalSpec("a", 8, weight=1.0),
                fv.SignalSpec("b", 8, weight=0.0))
        spec = fv.FusionSpec(signals=sigs, latent=4, hidden=16,
                             quantizer=quantizer("none"))
        model = fv.FusionModel(spec, seed=6)
        xa, xb = unit(6, 8, 6), unit(6, 8, 7)
        result = model.forward({"a": xa, "b": xb})
        total1, _ = fv.fusion_loss(model, {"a": xa, "b": xb}, result)
        # replacing the b target entirely must leave the total unchanged
        total2, _ = fv.fusion_loss(model, {"a": xa, "b": unit(6, 8, 99)},
                                   result)
        assert total1.value[0, 0] == pytest.approx(total2.value[0, 0],
                                                   abs=1e-7)

    def test_commitment_and_codebook_nonnegative(self):
        model = fv.FusionModel(spec_for(10, kind="dpca", latent=8), seed=7)
        x = unit(12, 10, 8)
        result = model.forward({"sig0": x})
        _, breakdown = fv.fusion_loss(model, {"sig0": x}, result)
        assert breakdown["commitment"] >= 0.0
        assert breakdown["codebook"] >= 0.0

    def test_quantizer_terms_zero_on_grid(self):
        # orthonormal components, zero offsets: decode(codes) re-encodes
        # exactly, so h on the grid gives exactly zero commit/codebook
        spec = spec_for(10, kind="dpca", latent=6, depth=3)
        model = fv.FusionModel(spec, seed=8)
        basis = np.zeros((1, 3, 6), dtype=np.float32)
        basis[0, 0, 0] = basis[0, 1, 1] = basis[0, 2, 2] = 1.0
        for t in range(3):
            model.params.set(f"dpca.g0.d{t}.u", basis[0, t].reshape(1, -1))
            model.params.set(f"dpca.g0.d{t}.b", np.zeros((1, 6)))
        stack = model.dpca_stack()
        codes = np.array([[1, -1, 0], [0, 1, 1]], dtype=np.int8)
        h_val = q.dpca_decode(stack, codes)
        h = nn.leaf(h_val, requires_grad=True)
        h_hat, out_codes = model._quantize_node(h)
        np.testing.assert_array_equal(out_codes, codes)
        commit = float(np.square(h.value - h_hat.value).mean())
        assert commit == 0.0

    def test_xent_task_mechanism(self):
        sigs = (fv.SignalSpec("cat", 5, loss="xent"),)
        spec = fv.FusionSpec(signals=sigs, latent=4, hidden=16,
                             quantizer=quantizer("none"))
        model = fv.FusionModel(spec, seed=9)
        rng = np.random.default_rng(9)
        onehot = np.eye(5, dtype=np.float32)[rng.integers(0, 5, size=32)]
        rows, _ = fv.train(model, {"cat": onehot},
                           nn.FitConfig(epochs=30, batch_size=16, lr=1e-3,
                                        seed=9))
        assert rows[-1]["total"] < rows[0]["total"]


class TestStraightThrough:
    def test_gradient_matches_identity_quantizer_operator(self):
        # grad through the surrogate == grad of the decoder evaluated at
        # the quantized point: the quantizer contributes exactly identity
        model = fv.FusionModel(spec_for(10, kind="fsq"), seed=10)
        x = unit(6, 10, 10)
        result = model.forward({"sig0": x})
        loss, _ = fv.fusion_loss(model, {"sig0": x}, result)
        nn.backward(loss)
        st_grad = result.h.grad.copy()

        direct = nn.leaf(result.h_hat.value, requires_grad=True)
        recon = model.decode(direct)["sig0"]
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
        fv.train(model, {"sig0": x},
                 nn.FitConfig(epochs=30, batch_size=4, lr=1e-3, seed=11))
        result = model.forward({"sig0": x})
        c = (result.h.value - result.h_hat.value).copy()
        nn.backward(fv.fusion_loss(model, {"sig0": x}, result)[0])
        st_grad = result.h.grad.copy()

        arrays = {"h": result.h.value.copy()}

        def loss_value(arrs):
            h = nn.leaf(arrs["h"], requires_grad=True)
            s = nn.sub(h, nn.constant(c))
            recon = model.decode(s)["sig0"]
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
        fv.train(model, {"sig0": x},
                 nn.FitConfig(epochs=2, batch_size=16, lr=1e-12, seed=12))
        np.testing.assert_allclose(model.params.flat, before, atol=1e-5)

    def test_line_dataset_reaches_low_loss(self):
        rng = np.random.default_rng(13)
        t = np.linspace(-1, 1, 64)[:, None]
        pts = rng.normal(size=(1, 16)) + t * rng.normal(size=(1, 16))
        pts = (pts / np.linalg.norm(pts, axis=1, keepdims=True)).astype(
            np.float32)
        spec = fv.FusionSpec(signals=(fv.SignalSpec("sig0", 16),), latent=1,
                             hidden=32, quantizer=quantizer("fsq"))
        model = fv.FusionModel(spec, seed=0)
        fv.train(model, {"sig0": pts},
                 nn.FitConfig(epochs=500, batch_size=16, lr=1e-3, seed=0))
        data = fv.normalize_bundle(model, {"sig0": pts})
        result = model.forward(data)
        loss = cosine_recon_loss(data["sig0"], result.recon["sig0"].value)
        assert loss < 0.05

    @pytest.mark.parametrize("seed", range(5))
    def test_loss_decreases_on_structured_data(self, seed):
        x = structured_corpus(256, 24, seed)
        model = fv.FusionModel(spec_for(24, kind="fsq", latent=8), seed=seed)
        rows, _ = fv.train(
            model, {"sig0": x},
            nn.FitConfig(epochs=11, batch_size=64, lr=1e-3, seed=seed))
        assert rows[10]["total"] < rows[0]["total"]

    def test_symmetric_duplicate_signals_converge_together(self):
        x = structured_corpus(192, 16, 14)
        sigs = (fv.SignalSpec("a", 16), fv.SignalSpec("b", 16))
        spec = fv.FusionSpec(signals=sigs, latent=6, hidden=48,
                             quantizer=quantizer("fsq"))
        model = fv.FusionModel(spec, seed=14)
        fv.train(model, {"a": x, "b": x},
                 nn.FitConfig(epochs=150, batch_size=64, lr=1e-3, seed=14))
        data = fv.normalize_bundle(model, {"a": x, "b": x})
        result = model.forward(data)
        la = cosine_recon_loss(data["a"], result.recon["a"].value)
        lb = cosine_recon_loss(data["b"], result.recon["b"].value)
        assert abs(la - lb) / max(la, lb) < 0.05

    def test_divergence_rolls_back(self, monkeypatch):
        x = structured_corpus(64, 8, 15)
        for kind in ("fsq", "dpca"):
            stopped = fv.FusionModel(spec_for(8, kind=kind, latent=4), seed=15)
            fv.train(stopped, {"sig0": x},
                     nn.FitConfig(epochs=1, batch_size=32, lr=1e-3,
                                  seed=15))
            model = fv.FusionModel(spec_for(8, kind=kind, latent=4), seed=15)
            # 2 batches per epoch: the first batch of epoch 1 goes NaN
            nan_weight_on_forward(monkeypatch, model, 3)
            rows, diverged_at = fv.train(model, {"sig0": x}, nn.FitConfig(
                epochs=3, batch_size=32, lr=1e-3, seed=15))
            assert diverged_at == 1
            assert [row["epoch"] for row in rows] == [0]
            for name, arr in stopped.params.items():
                np.testing.assert_array_equal(model.params.get(name), arr)

    def test_divergence_in_first_epoch_raises(self):
        model = fv.FusionModel(spec_for(8, latent=4), seed=15)
        model.params.get("fuse.w")[0, 0] = np.nan
        with pytest.raises(nn.TrainingDiverged):
            fv.train(model, {"sig0": structured_corpus(64, 8, 15)},
                     nn.FitConfig(epochs=3, batch_size=32, lr=1e-3,
                                  seed=15))

    def test_mismatched_sample_counts_rejected(self):
        sigs = (fv.SignalSpec("a", 8), fv.SignalSpec("b", 8))
        spec = fv.FusionSpec(signals=sigs, latent=4, hidden=16,
                             quantizer=quantizer("fsq"))
        model = fv.FusionModel(spec, seed=16)
        with pytest.raises(fv.FusionError, match="sample count"):
            fv.train(model, {"a": unit(10, 8, 16), "b": unit(12, 8, 17)},
                     nn.FitConfig(epochs=1, batch_size=256, lr=1e-3,
                                  seed=0))

    @pytest.mark.parametrize("value, message", [
        (np.nan, "non-finite norm for 'b' at row 7"),
        (np.inf, "non-finite norm for 'b' at row 7"),
        (0.0, "zero-norm input for 'b' at row 7")])
    def test_a_bad_row_is_named_before_training(self, value, message):
        sigs = (fv.SignalSpec("a", 8), fv.SignalSpec("b", 8))
        spec = fv.FusionSpec(signals=sigs, latent=4, hidden=16,
                             quantizer=quantizer("fsq"))
        b = unit(10, 8, 17)
        b[[7, 9]] = value  # the first bad row is named
        model = fv.FusionModel(spec, seed=16)
        with pytest.raises(fv.FusionError, match=f"^{message}$"):
            fv.train(model, {"a": unit(10, 8, 16), "b": b},
                     nn.FitConfig(epochs=1, batch_size=256, lr=1e-3,
                                  seed=0))


class TestCheckpointLayout:
    SPEC = fv.FusionSpec(
        signals=(fv.SignalSpec("a", 6), fv.SignalSpec("b", 4)), latent=4,
        hidden=8, quantizer=fv.QuantizerSpec(kind="dpca", levels=3, depth=2,
                                             groups=2))

    def test_parameter_names_in_record_order(self, tmp_path):
        model = fv.FusionModel(self.SPEC, seed=0)
        expected = [
            "enc.a.w1", "enc.a.b1", "enc.a.w2", "enc.a.b2",
            "head.a.w1", "head.a.b1", "head.a.w2", "head.a.b2",
            "enc.b.w1", "enc.b.b1", "enc.b.w2", "enc.b.b2",
            "head.b.w1", "head.b.b1", "head.b.w2", "head.b.b2",
            "fuse.w", "fuse.b", "trunk.w", "trunk.b",
            "dpca.g0.d0.u", "dpca.g0.d0.b", "dpca.g0.d1.u", "dpca.g0.d1.b",
            "dpca.g1.d0.u", "dpca.g1.d0.b", "dpca.g1.d1.u", "dpca.g1.d1.b"]
        assert model.params.names() == expected
        path = tmp_path / "m.ckpt"
        model.save(path)
        assert list(load_checkpoint(path)) == expected + ["meta.latent"]

    def test_dpca_rows_hold_the_seeded_stack(self):
        model = fv.FusionModel(self.SPEC, seed=5)
        expect = q.DpcaStack.random(4, 2, groups=2, seed=6)
        stack = model.dpca_stack()
        np.testing.assert_array_equal(stack.components, expect.components)
        np.testing.assert_array_equal(stack.offsets, expect.offsets)
        assert model.params.get("dpca.g1.d0.u").tolist() == \
            [expect.components[1, 0].tolist()]


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
        # a DPCA checkpoint under an FSQ spec, and a deeper stack than the
        # spec's: both name the first parameter the spec lacks
        path = self._saved(tmp_path, depth=3)
        self._rejects(spec_for(10, kind="fsq", latent=6), path,
                      "'dpca.g0.d0.u' is not in the spec")
        self._rejects(spec_for(10, kind="dpca", latent=6, depth=2), path,
                      "'dpca.g0.d2.u' is not in the spec")

    def test_missing_parameter_rejected(self, tmp_path):
        path = self._saved(tmp_path, depth=2)
        arrays = load_checkpoint(path)
        del arrays["dpca.g0.d1.b"]
        save_checkpoint(path, arrays)
        self._rejects(spec_for(10, kind="dpca", latent=6, depth=2), path,
                      "missing parameter 'dpca.g0.d1.b'")

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
        fv.train(model, {"sig0": x},
                 nn.FitConfig(epochs=10, batch_size=64, lr=1e-3, seed=seed))
        return model, x

    def test_determinism(self):
        model, x = self._trained()
        _, sids1 = fv.encode_corpus(model, {"sig0": x}, ngram=3)
        _, sids2 = fv.encode_corpus(model, {"sig0": x}, ngram=3)
        np.testing.assert_array_equal(sids1, sids2)

    def test_one_record_per_sample_in_order(self):
        model, x = self._trained()
        scheme, sids = fv.encode_corpus(model, {"sig0": x}, ngram=3)
        assert sids.shape == (128, scheme.grams)
        # first row encodes the first sample: re-encode it alone
        _, single = fv.encode_corpus(model, {"sig0": x[:1]}, ngram=3)
        np.testing.assert_array_equal(sids[:1], single)

    def test_sids_match_direct_pipeline(self):
        from sidekit.sid_codec import pack_all
        model, x = self._trained()
        scheme, sids = fv.encode_corpus(model, {"sig0": x}, ngram=3)
        codes = fv.encode_codes(model, {"sig0": x})
        np.testing.assert_array_equal(sids, pack_all(scheme, codes))

    def test_checkpoint_roundtrip_preserves_encoding(self, tmp_path):
        model, x = self._trained()
        path = tmp_path / "fusion.ckpt"
        model.save(path)
        again = fv.FusionModel(
            spec_for(12, kind="dpca", latent=8, depth=6), seed=99).load(path)
        _, sids1 = fv.encode_corpus(model, {"sig0": x}, ngram=3)
        _, sids2 = fv.encode_corpus(again, {"sig0": x}, ngram=3)
        np.testing.assert_array_equal(sids1, sids2)

    def test_decode_from_digits_shapes(self):
        from sidekit.sid_codec import side_embed
        model, x = self._trained()
        scheme, sids = fv.encode_corpus(model, {"sig0": x}, ngram=3)
        digits = side_embed(scheme, sids).astype(np.int64)
        recon = fv.decode_from_digits(model, digits)
        assert recon["sig0"].shape == x.shape


class TestBlockedInference:
    """encode_codes and decode_from_digits run row blocks with no graph
    recorded; the results must equal one whole-batch graph."""

    ROWS = 100

    def _model(self, kind, seed=21):
        spec = spec_for(12, kind=kind, latent=6, depth=3,
                        groups=2 if kind == "dpca" else 1, n=2)
        bundle = {"sig0": unit(self.ROWS, 12, seed),
                  "sig1": unit(self.ROWS, 12, seed + 1)}
        return fv.FusionModel(spec, seed=seed), bundle

    @staticmethod
    def _blocks_of(monkeypatch, model, rows):
        # the block width of _each_block: hidden x signals exceeds each dim
        width = model.spec.hidden * len(model.spec.signals)
        monkeypatch.setattr(metrics, "BLOCK_CELLS", rows * width)
        assert len(metrics._row_blocks(TestBlockedInference.ROWS, width)) >= 3

    @pytest.mark.parametrize("kind", ["fsq", "dpca"])
    def test_encode_equals_whole_batch_forward(self, monkeypatch, kind):
        model, bundle = self._model(kind)
        whole = model.forward(fv.normalize_bundle(model, bundle)).codes
        self._blocks_of(monkeypatch, model, 30)
        np.testing.assert_array_equal(fv.encode_codes(model, bundle), whole)

    @pytest.mark.parametrize("kind", ["fsq", "dpca"])
    def test_decode_equals_whole_batch_graph(self, monkeypatch, kind):
        model, bundle = self._model(kind)
        digits = fv.encode_codes(model, bundle)
        if kind == "fsq":
            latent = q.fsq_values(model.fsq, digits + model.fsq.offset)
        else:
            latent = q.dpca_decode(model.dpca_stack(), digits.astype(np.int8))
        whole = model.decode(nn.constant(latent))
        self._blocks_of(monkeypatch, model, 30)
        recon = fv.decode_from_digits(model, digits)
        for name, node in whole.items():
            np.testing.assert_array_equal(recon[name], node.value)

    def test_encode_error_names_the_corpus_row(self, monkeypatch):
        # normalize_bundle rejects a NaN input row, so the NaN is put into
        # its output, as a NaN the encoder made would be
        model, bundle = self._model("fsq")
        normalize = fv.normalize_bundle

        def with_nan(model, bundle):
            data = normalize(model, bundle)
            data["sig1"][97, 3] = np.nan
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
    spec = fv.FusionSpec(
        signals=(fv.SignalSpec("sig0", 64), fv.SignalSpec("sig1", 32)),
        latent=15, hidden=128,
        quantizer=fv.QuantizerSpec(kind=kind, levels=3,
                                   depth=5 if kind == "dpca" else 1,
                                   groups=3 if kind == "dpca" else 1))
    model = fv.FusionModel(spec, seed=3)
    big = {"sig0": unit(32_768, 64, 4), "sig1": unit(32_768, 32, 5)}
    small = {k: v[:8_192].copy() for k, v in big.items()}
    digits = fv.encode_codes(model, big)
    few = digits[:8_192].copy()
    span = 32_768 - 8_192
    grow = (_traced_peak(lambda: fv.encode_codes(model, big))
            - _traced_peak(lambda: fv.encode_codes(model, small))) / span
    assert grow < 1_024
    grow = (_traced_peak(lambda: fv.decode_from_digits(model, digits))
            - _traced_peak(lambda: fv.decode_from_digits(model, few))) / span
    assert grow < 1_024
