"""Multi-input multi-output quantized autoencoder ("VQ fusion").

Each input signal runs through its own encoder MLP; the encoder outputs
are concatenated and mixed by a fusion layer into a shared latent h. The
latent is quantized (FSQ grid or a discrete-PCA stack) to h_hat, and the
decoder consumes the straight-through surrogate s = h - stop_grad(h -
h_hat): numerically equal to h_hat, but with an identity Jacobian toward
h, so reconstruction gradients reach the encoders. A shared trunk feeds
one head per signal, and training minimizes the mean of the per-signal
cosine reconstruction losses plus, for parameterized quantizers, the
commitment and codebook terms that bind the encoder and the component
vectors together. FSQ has no trainable codebook and needs neither term;
its grid is the spec's level count. The DPCA stack is two parameters,
"dpca.u" and "dpca.b", each (groups * depth, width) with row g * depth + t
for group g at depth t; `dpca_stack` views them as (groups, depth, width).

Signals are positional: a `FusionSpec` holds each signal's width in
order, every bundle, batch and reconstruction is a list in that order,
and signal i is "sig{i}" in parameter names, loss terms and errors. A
`ForwardResult` holds h, h_hat and the list of reconstruction nodes.

The per-batch graph uses the fused ops of `nn_core`: DPCA's h_hat is one
`nn.dpca_recon` node over the two stack parameters (the digits held
fixed), and each cosine task loss is one `nn.cosine_loss` node. Both are
bit-identical to the primitive-op chains they replace, so checkpoints and
SIDs do not depend on which is used.

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
from .quantizers import (QuantizerError, dpca_decode, dpca_encode,
                         fsq_quantize, fsq_values)
from .sid_codec import SidScheme, pack_all


class FusionError(ValueError):
    pass


@dataclass(frozen=True)
class FusionSpec:
    """The numbers of a fusion model. Signal i, named "sig{i}", is
    dims[i] wide; `kind` is fsq, dpca or none, `levels` the FSQ grid's
    level count, and `depth` and `groups` the DPCA stack's residual
    layers and product groups."""

    dims: tuple
    latent: int
    hidden: int
    kind: str
    levels: int = 3
    depth: int = 1
    groups: int = 1

    def __post_init__(self):
        if self.kind not in ("fsq", "dpca", "none"):
            raise FusionError(f"unknown quantizer kind '{self.kind}'")
        if self.kind == "fsq" and self.levels < 2:
            raise QuantizerError(f"levels must be >= 2, got {self.levels}")
        if not self.dims:
            raise FusionError("need at least one signal")
        if self.kind == "dpca" and self.latent % self.groups:
            raise FusionError(
                f"{self.groups} product groups do not divide "
                f"latent width {self.latent}")

    @property
    def offset(self):
        """Centering shift so FSQ digits straddle zero (1 for ternary)."""
        return (self.levels - 1) // 2

    @property
    def fuse_gain(self):
        # A tanh-bounded grid dead-zones a small-variance latent: every
        # digit starts at 0 and no gradient signal ever activates the
        # grid. Widening the fusion layer's init spreads h across levels.
        return 2.0 if self.kind == "fsq" else 1.0

    @property
    def code_digits(self):
        if self.kind == "dpca":
            return self.depth * self.groups
        return self.latent

    def sid_scheme(self, ngram):
        return SidScheme.for_digits(self.code_digits, base=self.levels,
                                    ngram=ngram)


# Weights of the DPCA commitment and codebook loss terms.
COMMITMENT_WEIGHT = 0.25
CODEBOOK_WEIGHT = 1.0
DPCA_INIT_STD = 0.5  # std of the initial DPCA component entries


@dataclass
class ForwardResult:
    """Graph handles from one forward pass: the latent, its quantized
    value and one reconstruction node per signal, in signal order."""

    h: nn.Node
    h_hat: nn.Node
    recon: list


class FusionModel:
    """Parameter container plus the per-batch graph builder."""

    def __init__(self, spec, seed=0):
        self.spec = spec
        self.params = ParamStore(seed)
        h = spec.hidden
        for i, dim in enumerate(spec.dims):
            self.params.weight(f"enc.sig{i}.w1", dim, h)
            self.params.zeros(f"enc.sig{i}.b1", 1, h)
            self.params.weight(f"enc.sig{i}.w2", h, h)
            self.params.zeros(f"enc.sig{i}.b2", 1, h)
            self.params.weight(f"head.sig{i}.w1", h, h)
            self.params.zeros(f"head.sig{i}.b1", 1, h)
            self.params.weight(f"head.sig{i}.w2", h, dim)
            self.params.zeros(f"head.sig{i}.b2", 1, dim)
        self.params.weight("fuse.w", h * len(spec.dims), spec.latent)
        self.params.get("fuse.w")[...] *= spec.fuse_gain
        self.params.zeros("fuse.b", 1, spec.latent)
        self.params.weight("trunk.w", spec.latent, h)
        self.params.zeros("trunk.b", 1, h)
        if spec.kind == "dpca":
            width = spec.latent // spec.groups
            rows = spec.groups * spec.depth
            comps = np.random.default_rng(seed + 1).normal(
                0.0, DPCA_INIT_STD, (rows, width))
            self.params.add("dpca.u", comps)
            self.params.zeros("dpca.b", rows, width)

    def dpca_stack(self):
        """Views of the DPCA parameters as (groups, depth, width)
        (components, offsets) arrays."""
        shape = (self.spec.groups, self.spec.depth, -1)
        return (self.params.get("dpca.u").reshape(shape),
                self.params.get("dpca.b").reshape(shape))

    # -- graph building on the store's parameter leaves ------------------

    def _mlp(self, prefix, x):
        p = self.params.leaves
        y = nn.relu(nn.add(nn.matmul(x, p[f"{prefix}.w1"]), p[f"{prefix}.b1"]))
        return nn.add(nn.matmul(y, p[f"{prefix}.w2"]), p[f"{prefix}.b2"])

    def _quantize_node(self, h, dither_rng=None):
        """The h_hat node of the current quantizer.

        For DPCA, h_hat is an expression of the component parameters with
        the ternary digits held fixed, so codebook-loss gradients reach
        the components. For FSQ, h_hat is a constant grid snap;
        `dither_rng` enables training-time dither (uniform half-step noise
        on the grid position before rounding) so assignments near bin
        boundaries keep exploring instead of freezing into a bad partition.
        """
        spec = self.spec
        if spec.kind == "none":
            return h
        if spec.kind == "fsq":
            return nn.constant(fsq_quantize(spec.levels, h.value,
                                            dither_rng)[1], "h_hat")
        p = self.params.leaves
        return nn.dpca_recon(self.digits(h.value), p["dpca.u"], p["dpca.b"],
                             spec.groups)

    def digits(self, h):
        """Centered digits of latent values `h` (an array, not a node): the
        FSQ grid snap, or the greedy residual codes of the DPCA stack."""
        if self.spec.kind == "fsq":
            return fsq_quantize(self.spec.levels, h)[0] - self.spec.offset
        return dpca_encode(*self.dpca_stack(), h)

    def latent(self, digits):
        """Latent values of centered digits, the inverse map of `digits`:
        FSQ grid values, or the DPCA stack's component sums."""
        if self.spec.kind == "fsq":
            return fsq_values(self.spec.levels, digits + self.spec.offset)
        return dpca_decode(*self.dpca_stack(), digits.astype(np.int8))

    def encode(self, batch):
        """Encoder MLPs and fusion layer: the latent node h from a list of
        per-signal input matrices, one per signal of the spec."""
        _check_count(self.spec, batch)
        p = self.params.leaves
        encoded = [self._mlp(f"enc.sig{i}", nn.constant(x, f"sig{i}"))
                   for i, x in enumerate(batch)]
        stacked = encoded[0] if len(encoded) == 1 else nn.concat_cols(encoded)
        return nn.add(nn.matmul(stacked, p["fuse.w"]), p["fuse.b"], name="h")

    def forward(self, batch, dither_rng=None):
        """Run the mixing model on a list of per-signal input matrices."""
        h = self.encode(batch)
        h_hat = self._quantize_node(h, dither_rng=dither_rng)
        s = h if h_hat is h else \
            nn.sub(h, nn.stop_gradient(nn.sub(h, h_hat)), name="s")
        return ForwardResult(h=h, h_hat=h_hat, recon=self.decode(s))

    def decode(self, s):
        """Trunk and heads: one reconstruction node per signal from s."""
        p = self.params.leaves
        trunk = nn.relu(nn.add(nn.matmul(s, p["trunk.w"]), p["trunk.b"]))
        return [self._mlp(f"head.sig{i}", trunk)
                for i in range(len(self.spec.dims))]

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


def _check_count(spec, bundle):
    if len(bundle) != len(spec.dims):
        raise FusionError(f"the spec has {len(spec.dims)} signals, "
                          f"the bundle {len(bundle)}")


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


def fusion_loss(model, batch, result):
    """Total training loss node plus a per-term float breakdown.

    Total = (1/K) sum_k cos_k  +  COMMITMENT_WEIGHT * ||h - sg(h_hat)||^2
          + CODEBOOK_WEIGHT * ||sg(h) - h_hat||^2,
    over the K signals' cosine losses cos_k, with the two quantizer terms
    only when the quantizer has parameters.
    """
    w = 1.0 / len(model.spec.dims)
    terms = []
    breakdown = {}
    for i, (x, recon) in enumerate(zip(batch, result.recon)):
        node = _cosine_loss_node(x, recon)
        breakdown[f"recon.sig{i}"] = float(node.value[0, 0])
        terms.append(nn.scale(node, w))
    total = terms[0]
    for t in terms[1:]:
        total = nn.add(total, t)
    if model.spec.kind == "dpca":
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
    """L2-normalize every signal of a list of corpora, in signal order, on
    ingestion. Every signal must have the same sample count. A row whose
    norm is not finite (a NaN or infinite entry) or is zero is rejected,
    naming it."""
    _check_count(model.spec, bundle)
    out = []
    for i, corpus in enumerate(bundle):
        x = np.asarray(corpus, dtype=DTYPE)
        norms = np.linalg.norm(x, axis=1, keepdims=True)
        for bad, what in ((~np.isfinite(norms[:, 0]), "non-finite norm"),
                          (norms[:, 0] == 0.0, "zero-norm input")):
            if bad.any():
                raise FusionError(f"{what} for 'sig{i}' at row "
                                  f"{int(np.argmax(bad))}")
        out.append(x / norms)
    sizes = {len(x) for x in out}
    if len(sizes) != 1:
        raise FusionError(f"signals disagree on sample count: {sorted(sizes)}")
    return out


def train(model, bundle, cfg):
    """End-to-end training of `model`, in place, with straight-through
    gradients, on a bundle of at least one row. Returns `nn_core.fit`'s
    (rows, diverged_at): per finished epoch, the epoch and then the batch
    mean of each `fusion_loss` term. A divergence rolls back, stops or
    raises as `fit` describes."""
    data = normalize_bundle(model, bundle)
    rows = len(data[0])
    if not rows:
        raise FusionError("no rows to train on")
    rng = np.random.default_rng(cfg.seed)
    dither = rng if model.spec.kind == "fsq" else None

    def step(idx):
        batch = [x[idx] for x in data]
        result = model.forward(batch, dither_rng=dither)
        return fusion_loss(model, batch, result)

    return nn.fit(model.params, rows, step, rng, cfg, weight_decay=0.0)


def _each_block(model, rows, run):
    """Call run(lo, hi) over near-equal row blocks with no graph recorded.

    Blocks are sized by the widest per-row array, the concatenated
    encoder outputs or a signal, so memory follows the block and not the
    corpus. A NonFiniteError names the corpus row, not the row within its
    block.
    """
    dims = model.spec.dims
    width = max(model.spec.hidden * len(dims), *dims)
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
    if model.spec.kind == "none":
        raise FusionError("identity quantizer produces no codes")
    data = normalize_bundle(model, bundle)
    rows = len(data[0])
    codes = np.empty((rows, model.spec.code_digits), dtype=np.int64)

    def run(lo, hi):
        h = model.encode([x[lo:hi] for x in data])
        codes[lo:hi] = model.digits(h.value)

    _each_block(model, rows, run)
    return codes


def encode_corpus(model, bundle, ngram):
    """SID records (one row of grams per sample) via the packing codec."""
    codes = encode_codes(model, bundle)
    scheme = model.spec.sid_scheme(ngram=ngram)
    return scheme, pack_all(scheme, codes)


def decode_from_digits(model, digits):
    """Reconstruct every signal, as a list in signal order, from an
    (m, digits) matrix of centered digits (the SIDE path).

    For FSQ the digits are mapped onto the quantizer grid; for DPCA the
    digits drive the component-vector sum. The decoder then maps the
    recovered latent through the trunk and heads, one row block at a
    time, into preallocated outputs.
    """
    if model.spec.kind == "none":
        raise FusionError("identity quantizer has no digit decoding")
    digits = np.asarray(digits, dtype=np.int64)
    if digits.ndim != 2:
        raise FusionError(
            f"expected a 2-D digit matrix, got ndim={digits.ndim}")
    digits = digits[:, :model.spec.code_digits]
    rows = digits.shape[0]
    out = [np.empty((rows, dim), dtype=DTYPE) for dim in model.spec.dims]

    def run(lo, hi):
        recon = model.decode(nn.constant(model.latent(digits[lo:hi])))
        for x, node in zip(out, recon):
            x[lo:hi] = node.value

    _each_block(model, rows, run)
    return out
