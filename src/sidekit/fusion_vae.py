"""Multi-input multi-output quantized autoencoder ("VQ fusion").

Each input signal runs through its own encoder MLP; the encoder outputs
are concatenated and mixed by a fusion layer into a shared latent h. The
latent is quantized (FSQ grid or a discrete-PCA stack) to h_hat, and the
decoder consumes the straight-through surrogate s = h - stop_grad(h -
h_hat): numerically equal to h_hat, but with an identity Jacobian toward
h, so reconstruction gradients reach the encoders. A shared trunk feeds
one head per signal, and training minimizes the weighted per-task
reconstruction losses plus, for parameterized quantizers, the commitment
and codebook terms that bind the encoder and the component vectors
together. FSQ has no trainable codebook and needs neither term.

The per-batch graph uses the fused ops of `nn_core`: DPCA's h_hat is one
`nn.dpca_recon` node per product group over its component and offset
parameters (the digits held fixed), and each cosine task loss is one
`nn.cosine_loss` node. Both are bit-identical to the primitive-op chains
they replace, so checkpoints and SIDs do not depend on which is used.

Inference records no graph. Encoding a corpus runs only the encoder half
(`FusionModel.encode`, the same wiring `forward` uses) to the latent h and
quantizes it to digits; no h_hat graph, trunk or head is built. Decoding
maps digits to the latent and runs the trunk and heads. Both go over
near-equal row blocks (`metrics._row_blocks`) under `nn_core._no_record`
and write into preallocated outputs, so their memory follows the block,
not the corpus, and the results are bit-identical to one whole-corpus
graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn_core as nn
from .corpus_io import load_checkpoint, save_checkpoint
from .metrics import _row_blocks
from .nn_core import DTYPE, ParamStore
from .quantizers import (DpcaStack, FsqConfig, _fsq_snap, dpca_decode,
                         dpca_encode, fsq_quantize, fsq_values)
from .sid_codec import SidScheme, pack_all


class FusionError(ValueError):
    pass


@dataclass(frozen=True)
class SignalSpec:
    """One input signal: its width, task loss, and task weight."""

    name: str
    dim: int
    loss: str = "cosine"  # cosine | xent
    weight: float = 1.0

    def __post_init__(self):
        if self.loss not in ("cosine", "xent"):
            raise FusionError(f"unknown loss '{self.loss}'")
        if self.weight < 0:
            raise FusionError(f"negative task weight for '{self.name}'")


@dataclass(frozen=True)
class QuantizerSpec:
    kind: str      # fsq | dpca | none
    levels: int
    depth: int     # dpca residual layers
    groups: int    # dpca product groups

    def __post_init__(self):
        if self.kind not in ("fsq", "dpca", "none"):
            raise FusionError(f"unknown quantizer kind '{self.kind}'")


@dataclass(frozen=True)
class FusionSpec:
    signals: tuple
    latent: int
    hidden: int
    quantizer: QuantizerSpec

    def __post_init__(self):
        if not self.signals:
            raise FusionError("need at least one signal")
        if sum(s.weight for s in self.signals) <= 0:
            raise FusionError("task weights must sum to a positive value")
        if self.quantizer.kind == "dpca" and self.latent % self.quantizer.groups:
            raise FusionError(
                f"{self.quantizer.groups} product groups do not divide "
                f"latent width {self.latent}")

    @property
    def fuse_gain(self):
        # A tanh-bounded grid dead-zones a small-variance latent: every
        # digit starts at 0 and no gradient signal ever activates the
        # grid. Widening the fusion layer's init spreads h across levels.
        return 2.0 if self.quantizer.kind == "fsq" else 1.0

    @property
    def code_digits(self):
        q = self.quantizer
        if q.kind == "dpca":
            return q.depth * q.groups
        return self.latent

    def sid_scheme(self, ngram):
        return SidScheme.for_digits(self.code_digits,
                                    base=self.quantizer.levels, ngram=ngram)


# Weights of the DPCA commitment and codebook loss terms.
COMMITMENT_WEIGHT = 0.25
CODEBOOK_WEIGHT = 1.0


@dataclass
class ForwardResult:
    """Graph handles from one forward pass."""

    h: nn.Node
    h_hat: nn.Node
    s: nn.Node
    recon: dict
    codes: np.ndarray | None


class FusionModel:
    """Parameter container plus the per-batch graph builder."""

    def __init__(self, spec, seed=0):
        self.spec = spec
        self.params = ParamStore(seed)
        h = spec.hidden
        for sig in spec.signals:
            self.params.weight(f"enc.{sig.name}.w1", sig.dim, h)
            self.params.zeros(f"enc.{sig.name}.b1", 1, h)
            self.params.weight(f"enc.{sig.name}.w2", h, h)
            self.params.zeros(f"enc.{sig.name}.b2", 1, h)
            self.params.weight(f"head.{sig.name}.w1", h, h)
            self.params.zeros(f"head.{sig.name}.b1", 1, h)
            self.params.weight(f"head.{sig.name}.w2", h, sig.dim)
            self.params.zeros(f"head.{sig.name}.b2", 1, sig.dim)
        self.params.weight("fuse.w", h * len(spec.signals), spec.latent)
        self.params.get("fuse.w")[...] *= spec.fuse_gain
        self.params.zeros("fuse.b", 1, spec.latent)
        self.params.weight("trunk.w", spec.latent, h)
        self.params.zeros("trunk.b", 1, h)
        q = spec.quantizer
        if q.kind == "dpca":
            stack = DpcaStack.random(spec.latent, q.depth, q.groups,
                                     seed=seed + 1)
            for g, row in enumerate(self._dpca_names()):
                for t, (u, b) in enumerate(row):
                    self.params.add(u, stack.components[g, t].reshape(1, -1))
                    self.params.add(b, stack.offsets[g, t].reshape(1, -1))
        self.fsq = FsqConfig(levels=q.levels) if q.kind == "fsq" else None

    def _dpca_names(self):
        """Parameter names of the DPCA rows: per group, per depth t, the
        (component, offset) pair "dpca.g{g}.d{t}.u" and "dpca.g{g}.d{t}.b"."""
        q = self.spec.quantizer
        return [[(f"dpca.g{g}.d{t}.u", f"dpca.g{g}.d{t}.b")
                 for t in range(q.depth)] for g in range(q.groups)]

    def dpca_stack(self):
        """Current component vectors as an immutable encode/decode stack."""
        get = self.params.get
        names = self._dpca_names()
        return DpcaStack([[get(u)[0] for u, _ in row] for row in names],
                         [[get(b)[0] for _, b in row] for row in names])

    # -- graph building on the store's parameter leaves ------------------

    def _mlp(self, prefix, x):
        p = self.params.leaves
        y = nn.relu(nn.add(nn.matmul(x, p[f"{prefix}.w1"]), p[f"{prefix}.b1"]))
        return nn.add(nn.matmul(y, p[f"{prefix}.w2"]), p[f"{prefix}.b2"])

    def _quantize_node(self, h, dither_rng=None):
        """Build (h_hat, codes) for the current quantizer.

        For DPCA, h_hat is an expression of the component parameters with
        the ternary digits held fixed, so codebook-loss gradients reach
        the components. For FSQ, h_hat is a constant grid snap;
        `dither_rng` enables training-time dither (uniform half-step noise
        on the grid position before rounding) so assignments near bin
        boundaries keep exploring instead of freezing into a bad partition.
        """
        q = self.spec.quantizer
        if q.kind == "none":
            return h, None
        if q.kind == "fsq":
            levels = _fsq_snap(self.fsq, h.value, dither_rng)
            return (nn.constant(fsq_values(self.fsq, levels), "h_hat"),
                    levels - self.fsq.offset)
        codes = self.digits(h.value)
        p = self.params.leaves
        group_nodes = [
            nn.dpca_recon(codes[:, g * q.depth:(g + 1) * q.depth],
                          [p[u] for u, _ in row], [p[b] for _, b in row])
            for g, row in enumerate(self._dpca_names())]
        h_hat = group_nodes[0] if len(group_nodes) == 1 \
            else nn.concat_cols(group_nodes)
        return h_hat, codes

    def digits(self, h):
        """Centered digits of latent values `h` (an array, not a node): the
        FSQ grid snap, or the greedy residual codes of the DPCA stack."""
        if self.fsq is not None:
            return fsq_quantize(self.fsq, h)[0] - self.fsq.offset
        return dpca_encode(self.dpca_stack(), h)

    def latent(self, digits):
        """Latent values of centered digits, the inverse map of `digits`:
        FSQ grid values, or the DPCA stack's component sums."""
        if self.fsq is not None:
            return fsq_values(self.fsq, digits + self.fsq.offset)
        return dpca_decode(self.dpca_stack(), digits.astype(np.int8))

    def encode(self, batch):
        """Encoder MLPs and fusion layer: the latent node h from a dict of
        per-signal input matrices."""
        p = self.params.leaves
        for sig in self.spec.signals:
            if sig.name not in batch:
                raise FusionError(f"missing signal '{sig.name}'")
        encoded = [self._mlp(f"enc.{s.name}",
                             nn.constant(batch[s.name], s.name))
                   for s in self.spec.signals]
        stacked = encoded[0] if len(encoded) == 1 else nn.concat_cols(encoded)
        return nn.add(nn.matmul(stacked, p["fuse.w"]), p["fuse.b"], name="h")

    def forward(self, batch, dither_rng=None):
        """Run the mixing model on a dict of per-signal input matrices."""
        h = self.encode(batch)
        h_hat, codes = self._quantize_node(h, dither_rng=dither_rng)
        if h_hat is h:
            s = h
        else:
            s = nn.sub(h, nn.stop_gradient(nn.sub(h, h_hat)), name="s")
        return ForwardResult(h=h, h_hat=h_hat, s=s, recon=self.decode(s),
                             codes=codes)

    def decode(self, s):
        """Trunk and heads: one reconstruction node per signal from s."""
        p = self.params.leaves
        trunk = nn.relu(nn.add(nn.matmul(s, p["trunk.w"]), p["trunk.b"]))
        return {sig.name: self._mlp(f"head.{sig.name}", trunk)
                for sig in self.spec.signals}

    # -- persistence ----------------------------------------------------

    def save(self, path):
        arrays = dict(self.params.items())
        arrays["meta.latent"] = np.array([[self.spec.latent]], dtype=DTYPE)
        save_checkpoint(path, arrays)

    def load(self, path):
        """Read save's output. The checkpoint must hold exactly the spec's
        parameters, each in its shape; nothing is set unless all match."""
        arrays = load_checkpoint(path)
        if "meta.latent" not in arrays:
            raise FusionError("checkpoint missing 'meta.latent'")
        latent = int(arrays.pop("meta.latent")[0][0])
        if latent != self.spec.latent:
            raise FusionError(
                f"checkpoint latent width {latent} != spec {self.spec.latent}")
        names = self.params.names()
        unknown = [name for name in arrays if name not in names]
        if unknown:
            raise FusionError(
                f"checkpoint parameter '{unknown[0]}' is not in the spec")
        for name in names:
            if name not in arrays:
                raise FusionError(f"checkpoint missing parameter '{name}'")
            if arrays[name].shape != self.params.get(name).shape:
                raise FusionError(f"checkpoint shape mismatch for '{name}'")
        for name in names:
            self.params.set(name, arrays[name])
        return self


def _cosine_loss_node(target, recon_node):
    # Zero-norm targets are a data error. The reconstruction norm is
    # epsilon-stabilized instead: a ternary grid quantizes a freshly
    # initialized latent to exactly 0, so the first decoder outputs are
    # all-zero and a hard error here would make every cold start fail.
    t = np.asarray(target, dtype=DTYPE)
    norms = np.linalg.norm(t, axis=1)
    bad = np.where(norms == 0.0)[0]
    if bad.size:
        raise FusionError(f"zero-norm target vector at sample {int(bad[0])}")
    return nn.cosine_loss(t, norms, recon_node)


def _task_loss_node(sig, target, recon_node):
    if sig.loss == "cosine":
        return _cosine_loss_node(target, recon_node)
    # cross-entropy against a one-hot (or distribution) target
    logp = nn.log_softmax_rows(recon_node)
    per_row = nn.sum_axis1(nn.mul(nn.constant(target), logp))
    return nn.scale(nn.mean_all(per_row), -1.0)


def fusion_loss(model, batch, result):
    """Total training loss node plus a per-term float breakdown.

    Total = sum_k w_k * task_k  +  COMMITMENT_WEIGHT * ||h - sg(h_hat)||^2
          + CODEBOOK_WEIGHT * ||sg(h) - h_hat||^2,
    with the two quantizer terms only when the quantizer has parameters.
    """
    weights = np.array([s.weight for s in model.spec.signals], dtype=np.float64)
    weights = weights / weights.sum()
    terms = []
    breakdown = {}
    for sig, w in zip(model.spec.signals, weights):
        node = _task_loss_node(sig, batch[sig.name], result.recon[sig.name])
        breakdown[f"recon.{sig.name}"] = float(node.value[0, 0])
        terms.append(nn.scale(node, w))
    total = terms[0]
    for t in terms[1:]:
        total = nn.add(total, t)
    if model.spec.quantizer.kind == "dpca":
        commit = nn.mean_all(nn.square(
            nn.sub(result.h, nn.stop_gradient(result.h_hat))))
        codebook = nn.mean_all(nn.square(
            nn.sub(nn.stop_gradient(result.h), result.h_hat)))
        breakdown["commitment"] = float(commit.value[0, 0])
        breakdown["codebook"] = float(codebook.value[0, 0])
        total = nn.add(total, nn.scale(commit, COMMITMENT_WEIGHT))
        total = nn.add(total, nn.scale(codebook, CODEBOOK_WEIGHT))
    breakdown["total"] = float(total.value[0, 0])
    return total, breakdown


def normalize_bundle(model, bundle):
    """L2-normalize embedding signals on ingestion; leaves xent targets alone.
    Every signal must have the same sample count. A row whose norm is not
    finite (a NaN or infinite entry) or is zero is rejected, naming it."""
    out = {}
    for sig in model.spec.signals:
        x = np.asarray(bundle[sig.name], dtype=DTYPE)
        if sig.loss == "cosine":
            norms = np.linalg.norm(x, axis=1, keepdims=True)
            for bad, what in ((~np.isfinite(norms[:, 0]), "non-finite norm"),
                              (norms[:, 0] == 0.0, "zero-norm input")):
                if bad.any():
                    raise FusionError(f"{what} for '{sig.name}' at row "
                                      f"{int(np.argmax(bad))}")
            x = x / norms
        out[sig.name] = x
    sizes = {len(v) for v in out.values()}
    if len(sizes) != 1:
        raise FusionError(f"signals disagree on sample count: {sorted(sizes)}")
    return out


def _sample_count(data):
    return len(next(iter(data.values())))


def train(model, bundle, cfg):
    """End-to-end training of `model`, in place, with straight-through
    gradients, on a bundle of at least one row. Returns `nn_core.fit`'s
    (rows, diverged_at): per finished epoch, the epoch and then the batch
    mean of each `fusion_loss` term. A divergence rolls back, stops or
    raises as `fit` describes."""
    data = normalize_bundle(model, bundle)
    if not _sample_count(data):
        raise FusionError("no rows to train on")
    rng = np.random.default_rng(cfg.seed)
    q = model.spec.quantizer

    def step(idx):
        batch = {k: v[idx] for k, v in data.items()}
        dither = rng if q.kind == "fsq" else None
        result = model.forward(batch, dither_rng=dither)
        return fusion_loss(model, batch, result)

    return nn.fit(model.params, _sample_count(data), step, rng, cfg,
                  weight_decay=0.0)


def _each_block(model, rows, run):
    """Call run(lo, hi) over near-equal row blocks with no graph recorded.

    Blocks are sized by the widest per-row array, the concatenated
    encoder outputs or a signal, so memory follows the block and not the
    corpus. A NonFiniteError names the corpus row, not the row within its
    block.
    """
    signals = model.spec.signals
    width = max(model.spec.hidden * len(signals), *(s.dim for s in signals))
    with nn._no_record():
        for lo, hi in _row_blocks(rows, width):
            try:
                run(lo, hi)
            except nn.NonFiniteError as exc:
                row = exc.row + lo
                raise nn.NonFiniteError(f"non-finite output at corpus row {row}",
                                        exc.node, row) from None


def encode_codes(model, bundle):
    """Centered digit matrix for a corpus bundle.

    Each row block runs the encoders to the latent h and quantizes it;
    the decoder half of the model is never built.
    """
    if model.spec.quantizer.kind == "none":
        raise FusionError("identity quantizer produces no codes")
    data = normalize_bundle(model, bundle)
    rows = _sample_count(data)
    codes = np.empty((rows, model.spec.code_digits), dtype=np.int64)

    def run(lo, hi):
        h = model.encode({k: v[lo:hi] for k, v in data.items()})
        codes[lo:hi] = model.digits(h.value)

    _each_block(model, rows, run)
    return codes


def encode_corpus(model, bundle, ngram):
    """SID records (one row of grams per sample) via the packing codec."""
    codes = encode_codes(model, bundle)
    scheme = model.spec.sid_scheme(ngram=ngram)
    return scheme, pack_all(scheme, codes)


def decode_from_digits(model, digits):
    """Reconstruct every signal from an (m, digits) matrix of centered
    digits (the SIDE path).

    For FSQ the digits are mapped onto the quantizer grid; for DPCA the
    digits drive the component-vector sum. The decoder then maps the
    recovered latent through the trunk and heads, one row block at a
    time, into preallocated outputs.
    """
    if model.spec.quantizer.kind == "none":
        raise FusionError("identity quantizer has no digit decoding")
    digits = np.asarray(digits, dtype=np.int64)
    if digits.ndim != 2:
        raise FusionError(
            f"expected a 2-D digit matrix, got ndim={digits.ndim}")
    digits = digits[:, :model.spec.code_digits]
    rows = digits.shape[0]
    out = {s.name: np.empty((rows, s.dim), dtype=DTYPE)
           for s in model.spec.signals}

    def run(lo, hi):
        recon = model.decode(nn.constant(model.latent(digits[lo:hi])))
        for name, node in recon.items():
            out[name][lo:hi] = node.value

    _each_block(model, rows, run)
    return out
