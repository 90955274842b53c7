"""Desk-scale ranking harness comparing SID and SIDE feature paths.

The model mirrors the usual deep ranking block structure: a sparse block
(categorical features through embedding tables), a dense block, an
embedding block for the candidate item, and a user-history block that
pools the event sequence with one-layer attention (softmax(Q K^T / sqrt(d)) V
with K = V Theta). Event and candidate items enter either as hashed SID
sparse features (embedding table lookups, collision-prone when the table
is small) or as SIDE features (digits unpacked from the SID and projected
by a single t x d matrix, no per-item table at all). The prediction head
is logistic over the concatenated block outputs plus the elementwise
interaction between the pooled history and the candidate feature; without
that interaction a linear head cannot express the user-item affinity the
labels are generated from, and neither feature path would beat the
no-history ablation.

Each arm builds only what its output reads: the SID table keeps only the
rows some item hashes to, and the no-history ablation builds no history
block, whose output would be exactly zero (see `ToyRankingModel`). The
history block's attention is one `nn_core.pooled_attention` node, and a
SID item's feature, the mean of its gram rows, one `nn_core.gather_mean`.

Synthetic engagement data plants a real signal in the history: items
carry ternary-grid latents, each user's history is sampled around a
hidden taste vector, and the click probability of the shown candidate is
sigmoid(a * <mean of history latents, candidate latent> + b).

`SyntheticEngagementSet` owns the engagement file, the only data `rank-ab`
reads: `corpus_io` writes and reads its bytes, `load` checks its arrays.
`run_ab` trains each arm through `train_ranker`, the three at once in up
to `worker_count()` processes, the calling one and forked workers. The
report equals the serial run's: the arms return only predictions and
counts, and NE is computed in the calling process.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import asdict, dataclass, fields
from functools import partial

import numpy as np

from . import nn_core as nn
from .corpus_io import npz_read, npz_write
from .nn_core import DTYPE, ParamStore
from .metrics import NEReport, _row_blocks, normalized_entropy
from .sid_codec import SidError, SidScheme, pack_all, side_embed, sid_hash


class RankingError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Synthetic engagement data


LATENT_DIM = 16          # ternary digits per item
SEGMENTS = 16            # categories of the sparse user feature
DENSE_DIM = 4            # dense user features
AFFINITY_SCALE = 8.0     # a in sigmoid(a * <pref, item> + b)
AFFINITY_BIAS = -1.5     # b
HISTORY_SHARPNESS = 20.0
SID_SCHEME = SidScheme.for_digits(LATENT_DIM, base=3, ngram=8)


@dataclass(frozen=True)
class EngagementConfig:
    users: int
    items: int
    seq_len: int
    seed: int


@dataclass
class SyntheticEngagementSet:
    config: EngagementConfig
    item_latents: np.ndarray   # (items, LATENT_DIM), rows on the ternary grid
    item_digits: np.ndarray    # (items, LATENT_DIM) centered ternary digits
    item_sids: np.ndarray      # (items, grams) u64, packed with SID_SCHEME
    history: np.ndarray        # (users, seq_len) item ids
    candidates: np.ndarray     # (users,) item id shown
    labels: np.ndarray         # (users,) binary click
    segments: np.ndarray       # (users,) categorical id
    dense: np.ndarray          # (users, DENSE_DIM)

    scheme = SID_SCHEME

    def __post_init__(self):
        """Reject arrays that disagree with the config, naming the array:
        a shape, non-integer ids, labels or segments, an item id outside
        [0, items), a label outside {0, 1}, a segment outside [0, SEGMENTS),
        or SIDs that do not unpack to the digits."""
        c = self.config
        shapes = {"item_latents": (c.items, LATENT_DIM),
                  "item_digits": (c.items, LATENT_DIM),
                  "item_sids": (c.items, self.scheme.grams),
                  "history": (c.users, c.seq_len), "candidates": (c.users,),
                  "labels": (c.users,), "segments": (c.users,),
                  "dense": (c.users, DENSE_DIM)}
        for name, shape in shapes.items():
            got = np.shape(getattr(self, name))
            if got != shape:
                raise RankingError(f"{name} has shape {got}, expected {shape}")
        for name in ("history", "candidates", "labels", "segments"):
            dtype = getattr(self, name).dtype
            if dtype.kind not in "iu":
                raise RankingError(f"{name} has dtype {dtype}, expected "
                                   "integers")
        if not np.isin(self.labels, (0, 1)).all():
            raise RankingError("labels: label outside {0, 1}")
        if self.segments.size and not (
                0 <= self.segments.min() <= self.segments.max() < SEGMENTS):
            raise RankingError(f"segments: id outside [0, {SEGMENTS})")
        ids = np.concatenate([self.history.ravel(), self.candidates])
        if ids.size and not 0 <= ids.min() <= ids.max() < c.items:
            raise RankingError(f"history/candidates: id outside [0, {c.items})")
        try:
            digits = side_embed(self.scheme, self.item_sids)
        except SidError as exc:
            raise RankingError(f"item_sids: {exc}") from None
        if not np.array_equal(digits, self.item_digits):
            raise RankingError("item_sids do not unpack to item_digits")

    def collision_free_size(self):
        return self.scheme.max_sid + 1

    def save(self, path):
        """Write the set to exactly `path` as an `.npz`: the arrays in
        field order, then the config's sizes."""
        npz_write(path, {**{f.name: getattr(self, f.name)
                            for f in fields(self)[1:]}, **asdict(self.config)})

    @classmethod
    def load(cls, path):
        """The set `save` wrote to `path`. A file that is no `.npz` or is
        corrupt raises `corpus_io.FormatError`; a missing entry and a size
        that is not one integer are named; an array that disagrees with
        the sizes is rejected as on construction."""
        arrays = [f.name for f in fields(cls)[1:]]
        sizes = [f.name for f in fields(EngagementConfig)]
        loaded = npz_read(path)
        missing = [k for k in arrays + sizes if k not in loaded]
        if missing:
            raise RankingError(f"{path} lacks {', '.join(missing)}")
        given = {k: loaded[k] for k in sizes}
        for k, v in given.items():
            if v.shape or v.dtype.kind not in "iu":
                raise RankingError(f"{path}: {k} has shape {v.shape} and "
                                   f"dtype {v.dtype}, expected one integer")
        cfg = EngagementConfig(**{k: int(v) for k, v in given.items()})
        return cls(config=cfg, **{k: loaded[k] for k in arrays})


def generate_engagement(cfg):
    """Seed-deterministic synthetic engagement sequences with planted signal.

    Item latents are unit-normalized ternary vectors, so the SIDE digits
    recover the latent direction exactly; whatever separates the feature
    paths is collisions, not quantization error. Users sample history
    items with probability softmax(sharpness * <taste, item latent>), and
    the click label on a uniformly drawn candidate follows
    sigmoid(a * <mean history latent, candidate latent> + b).

    History items are drawn by inverse-CDF sampling: the softmax CDF is
    built for one block of users at a time (at most metrics.BLOCK_CELLS
    cells), and each uniform draw maps to the count of CDF entries below
    it, found with np.searchsorted. The mean history latent is likewise
    taken one block of users at a time.
    """
    rng = np.random.default_rng(cfg.seed)
    t = LATENT_DIM

    raw = rng.integers(-1, 2, size=(cfg.items, t))
    dead = ~raw.any(axis=1)
    raw[dead, 0] = 1  # no zero vectors on the grid
    latents = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    digits = raw.astype(np.int8)  # the centered ternary digits of the latent
    sids = pack_all(SID_SCHEME, digits)

    taste = rng.normal(size=(cfg.users, t))
    taste /= np.linalg.norm(taste, axis=1, keepdims=True)
    draws = rng.random(size=(cfg.users, cfg.seq_len))
    history = np.empty((cfg.users, cfg.seq_len), dtype=np.int64)
    for lo, hi in _row_blocks(cfg.users, cfg.items):
        # one (block, items) buffer: affinity, softmax weights, then CDF
        cdf = taste[lo:hi] @ latents.T
        cdf *= HISTORY_SHARPNESS
        np.exp(cdf, out=cdf)
        cdf /= cdf.sum(axis=1, keepdims=True)
        np.cumsum(cdf, axis=1, out=cdf)
        for u in range(lo, hi):
            # the count of CDF entries below each draw
            history[u] = np.searchsorted(cdf[u - lo], draws[u], side="left")

    candidates = rng.integers(0, cfg.items, size=cfg.users)
    pref = np.empty((cfg.users, t))
    for lo, hi in _row_blocks(cfg.users, cfg.seq_len * t):
        pref[lo:hi] = latents[history[lo:hi]].mean(axis=1)
    dot = np.einsum("ud,ud->u", pref, latents[candidates])
    p_click = 1.0 / (1.0 + np.exp(-(AFFINITY_SCALE * dot + AFFINITY_BIAS)))
    labels = (rng.random(cfg.users) < p_click).astype(np.int8)

    segments = rng.integers(0, SEGMENTS, size=cfg.users)
    dense = rng.normal(size=(cfg.users, DENSE_DIM)).astype(DTYPE)
    return SyntheticEngagementSet(
        config=cfg, item_latents=latents.astype(DTYPE), item_digits=digits,
        item_sids=sids, history=history, candidates=candidates,
        labels=labels, segments=segments, dense=dense)


# ---------------------------------------------------------------------------
# Toy ranking model


# Decoupled weight decay keeps rarely touched table rows from freezing
# noise into the eval logits.
WEIGHT_DECAY = 1e-3
EVAL_FRACTION = 0.2      # users held out for the NE report
BATCH_SIZE = 256         # training users per Adam step


class ToyRankingModel:
    """Logistic CTR model over sparse, dense, candidate, and history blocks.

    variant selects the item feature path: "sid" (hashed embedding table),
    "side" (digit projection), or "none" (history and candidate identity
    features ablated to zero).

    The "sid" table a hashed-SID system allocates has grams * hash_size
    rows; only the rows some item hashes to are kept, and `item_rows` maps
    each item's grams to them. The whole table is still drawn, so every
    later draw is unchanged. A row no gather reaches keeps +0.0 gradients
    and moments, under which Adam leaves it bit for bit unchanged, so the
    kept rows train exactly as in the full table.

    "none" builds no history block: with zero item features the keys are
    0, the attention weights 1/L and the pooled value a sum of 0 * 1/L, so
    the candidate, pooled and interaction blocks are +0.0 for any
    `pma.theta`. That parameter stays registered, since its draw fixes
    the head's init, and gets a zero gradient.
    """

    def __init__(self, dataset, variant, hash_size, feature_dim, seed):
        if variant not in ("sid", "side", "none"):
            raise RankingError(f"unknown variant '{variant}'")
        self.variant = variant
        self.hash_size = hash_size
        self.feature_dim = feature_dim
        self.dataset = dataset
        d = feature_dim
        self.params = ParamStore(seed)
        rng = self.params.rng
        self.params.add("sparse.segments",
                        rng.normal(0.0, 0.01, size=(SEGMENTS, d)))
        self.params.weight("dense.w", DENSE_DIM, d)
        self.params.zeros("dense.b", 1, d)
        grams = dataset.scheme.grams
        if variant == "sid":
            # one row block per gram position: gram g of an item indexes
            # rows [g*hash_size, (g+1)*hash_size), so grams never collide
            # with each other, only with same-position SIDs. Rows start at
            # O(1) scale; near-zero rows would leave the multiplicative
            # interaction path with no usable gradient.
            hashed = (sid_hash(dataset.item_sids, hash_size)
                      + np.arange(grams) * hash_size)
            kept, index = np.unique(hashed, return_inverse=True)
            self.item_rows = index.reshape(hashed.shape)
            table = rng.normal(0.0, 0.3, size=(grams * hash_size, d))
            self.params.add("feature.table", table[kept])
        elif variant == "side":
            # the SIDE path's digits come from the SIDs alone, with no table
            self.item_digits = side_embed(dataset.scheme, dataset.item_sids)
            self.params.weight("feature.omega", self.item_digits.shape[1], d)
        self.params.weight("pma.theta", d, d)
        self.params.weight("head.w", 5 * d, 1)
        self.params.zeros("head.b", 1, 1)

    def _item_features(self, item_ids):
        """Feature node for a flat vector of item ids."""
        p = self.params.leaves
        ids = np.asarray(item_ids).ravel()
        if self.variant == "sid":
            return nn.gather_mean(p["feature.table"],
                                  np.take(self.item_rows, ids, axis=0))
        digits = nn.constant(self.item_digits[ids])
        return nn.matmul(digits, p["feature.omega"])

    def logits(self, rows):
        """Logit node for a batch of user row indices, built on the
        model's parameter leaves."""
        p = self.params.leaves
        ds = self.dataset
        seg = nn.gather_rows(p["sparse.segments"], ds.segments[rows])
        dense = nn.add(nn.matmul(nn.constant(ds.dense[rows]), p["dense.w"]),
                       p["dense.b"])
        if self.variant == "none":
            # candidate, pooled history and interaction, all +0.0
            zero = nn.constant(np.zeros((seg.shape[0], 3 * self.feature_dim)))
            feats = nn.concat_cols([seg, dense, zero])
        else:
            cand = self._item_features(ds.candidates[rows])
            hist = self._item_features(ds.history[rows])      # (b*l, d)
            pooled = nn.pooled_attention(cand, hist, p["pma.theta"],
                                         ds.config.seq_len)
            inter = nn.mul(pooled, cand)
            feats = nn.concat_cols([seg, dense, cand, pooled, inter])
        return nn.add(nn.matmul(feats, p["head.w"]), p["head.b"])

    def predict(self, rows):
        with nn._no_record():
            z = self.logits(rows)
        return 1.0 / (1.0 + np.exp(-z.value[:, 0].astype(np.float64)))

    def feature_path_params(self):
        """Parameter count of the item feature path only; for "sid" the
        whole grams * hash_size table a hashed-SID system allocates."""
        if self.variant == "sid":
            return (self.dataset.scheme.grams * self.hash_size
                    * self.feature_dim)
        if self.variant == "side":
            return self.params.get("feature.omega").size
        return 0

    def feature_rows(self, users):
        """Distinct SID table rows that the history and candidate items of
        `users` hash to; None for a variant without the table."""
        if self.variant != "sid":
            return None
        ds = self.dataset
        items = np.union1d(ds.history[users], ds.candidates[users])
        return int(np.unique(self.item_rows[items]).size)


def _bce_loss(logit_node, labels):
    # mean(softplus(z) - y*z), the stable form of binary cross-entropy
    y = nn.constant(labels.reshape(-1, 1).astype(DTYPE))
    return nn.mean_all(nn.sub(nn.softplus(logit_node), nn.mul(y, logit_node)))


def _split(dataset, seed):
    """(rng, eval_rows, train_rows): one permutation of the users drawn
    from a generator seeded with `seed`, the first EVAL_FRACTION of it
    held out for the NE report. The generator goes on to drive `fit`."""
    rng = np.random.default_rng(seed)
    n = dataset.config.users
    order = rng.permutation(n)
    n_eval = int(n * EVAL_FRACTION)
    return rng, order[:n_eval], order[n_eval:]


def _eval_labels(dataset, seed):
    """Labels of the eval split of a run seeded with `seed`; raises
    RankingError if the training split is single-class, or the eval split
    is empty or single-class, since its NE would be undefined."""
    _, eval_rows, train_rows = _split(dataset, seed)
    if dataset.labels[train_rows].min() == dataset.labels[train_rows].max():
        raise RankingError("training split is single-class")
    labels = dataset.labels[eval_rows]
    if not labels.size or labels.min() == labels.max():
        raise RankingError(
            f"eval split ({labels.size} of {dataset.config.users} users) is "
            f"{'single-class' if labels.size else 'empty'}")
    return labels


def _fit_ranker(dataset, variant, hash_size, feature_dim, cfg):
    """Train one variant on the split of `cfg.seed`, unchecked; returns
    (model, click probabilities on the eval split, diverged_at)."""
    rng, eval_rows, train_rows = _split(dataset, cfg.seed)
    model = ToyRankingModel(dataset, variant, hash_size, feature_dim, cfg.seed)

    def step(idx):
        rows = train_rows[idx]
        logits = model.logits(rows)
        return _bce_loss(logits, dataset.labels[rows]), {}

    _, diverged_at = nn.fit(model.params, train_rows.size, step, rng, cfg,
                            weight_decay=WEIGHT_DECAY)
    return model, model.predict(eval_rows), diverged_at


def train_ranker(dataset, variant, hash_size, feature_dim, cfg):
    """Train one A/B arm: `variant` of width `feature_dim`, on the split of
    `cfg.seed`, as the `nn_core.FitConfig` `cfg` sets. Returns what
    `run_ab` needs of it, small enough to return from a worker process:
    (click probabilities on the eval split, diverged_at, feature-path
    params, SID table rows trained). diverged_at is None unless a
    non-finite loss stopped training, in which case it is the epoch whose
    start the parameters were rolled back to (see nn_core.fit). The rows
    trained are those the training users' items hash to: epoch 0 visits
    every training user, and a divergence in epoch 0 raises."""
    model, preds, diverged_at = _fit_ranker(dataset, variant, hash_size,
                                            feature_dim, cfg)
    train_rows = _split(dataset, cfg.seed)[2]
    return (preds, diverged_at, model.feature_path_params(),
            model.feature_rows(train_rows))


@dataclass
class AbResult:
    variant: str
    ne: NEReport
    feature_params: int
    diverged_at: int | None    # epoch training was rolled back at, if any
    ne_gain_pct: float | None  # vs the no-history ablation; None for it
    feature_rows_trained: int | None  # SID table rows trained, else None


@dataclass
class AbReport:
    hash_size: int  # SID table rows per gram
    results: dict   # variant -> AbResult, in AB_VARIANTS order

    def as_dict(self):
        out = {name: {"ne": r.ne.as_dict(), "feature_params": r.feature_params,
                      "feature_rows_trained": r.feature_rows_trained,
                      "ne_gain_pct": r.ne_gain_pct}
               for name, r in self.results.items()}
        out["hash_size"] = self.hash_size
        return out

    def __str__(self):
        lines = [f"hash_size={self.hash_size}",
                 "| Variant | Click NE | NE gain | Feature-path params |",
                 "|---|---|---|---|"]
        for name, r in self.results.items():
            gain = "-" if r.ne_gain_pct is None else f"{r.ne_gain_pct:+.4f}%"
            lines.append(
                f"| {name} | {r.ne.ne:.6f} | {gain} | {r.feature_params} |")
        return "\n".join(lines)


AB_VARIANTS = ("none", "sid", "side")  # the order run_ab reports them in


def worker_count():
    """The processes `run_ab` may train its arms in: SIDEKIT_THREADS if
    set (an integer; below 1 means 1), else min(8, usable cores), the
    cores this process's affinity mask allows where the platform reports
    it. Every other computation runs serially."""
    env = os.environ.get("SIDEKIT_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise RankingError(
                f"SIDEKIT_THREADS must be an integer, got '{env}'") from None
    if hasattr(os, "sched_getaffinity"):
        return min(8, len(os.sched_getaffinity(0)))
    return min(8, os.cpu_count() or 1)


def _resolved(fn, *args):
    """A finished Future holding fn(*args), or the exception it raised, so
    that it is raised where `run_ab` reaches the arm in report order."""
    # imported here: `concurrent.futures` loads `logging`, which no other
    # command needs
    from concurrent.futures import Future
    future = Future()
    try:
        future.set_result(fn(*args))
    except Exception as exc:
        future.set_exception(exc)
    return future


def run_ab(dataset, hash_size, feature_dim, cfg):
    """Train the no-history ablation, SID and SIDE on identical splits and
    report paired NE.

    `cfg.seed` seeds the split of the users and the fit of every arm; the
    data is `dataset` as given. The no-history ablation anchors the
    NE-gain column; a positive gain means the feature path reduced NE
    relative to ranking without item identity features.

    The arms share no state, so they train at once in up to
    `worker_count()` processes: arm i trains through `train_ranker` in
    process i % workers, process 0 being this one and the others forked
    workers. With one worker nothing is forked. Either way the report
    equals the serial run's: NE is computed in this process, in report
    order, and the first arm's error in report order is raised, with its
    type and message. Every worker has exited when this returns or raises.

    A `hash_size` above `dataset.collision_free_size()` raises
    RankingError: no SID hashes to a row past that size.
    """
    # both checks raise before anything trains or forks
    free = dataset.collision_free_size()
    if hash_size > free:
        raise RankingError(
            f"hash_size {hash_size} exceeds the data's collision-free size "
            f"{free}; no SID hashes to a row past it")
    labels = _eval_labels(dataset, cfg.seed)
    train = partial(train_ranker, dataset, hash_size=hash_size,
                    feature_dim=feature_dim, cfg=cfg)
    workers = min(worker_count(), len(AB_VARIANTS))
    # at 2 workers this process trains "none" then "side" while the
    # worker trains "sid", the longest arm
    mine = AB_VARIANTS[::workers]
    pending = {}
    with contextlib.ExitStack() as stack:
        if workers > 1:
            # imported here, off the path of every other command (~20 ms)
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            # forked, not spawned: a worker starts from this process's
            # imports instead of importing sidekit again
            pool = stack.enter_context(ProcessPoolExecutor(
                workers - 1, mp_context=multiprocessing.get_context("fork")))
            pending = {v: pool.submit(train, v) for v in AB_VARIANTS
                       if v not in mine}
        for variant in mine:
            pending[variant] = _resolved(train, variant)
            if pending[variant].exception():
                break  # report order meets this error before a later arm
        results = {}
        for variant in AB_VARIANTS:
            preds, diverged_at, params, rows = pending[variant].result()
            report = normalized_entropy(labels, preds)
            base = results[AB_VARIANTS[0]].ne.ne if results else None
            gain = None if base is None else 100.0 * (base - report.ne) / base
            results[variant] = AbResult(variant, report, params, diverged_at,
                                        gain, rows)
    return AbReport(hash_size, results)
