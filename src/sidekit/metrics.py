"""Evaluation metrics: cosine reconstruction loss, exhaustive kNN ground
truth with Recall@k, and normalized entropy for binary predictions.

All functions are pure. kNN is exhaustive by design (desk-scale corpora
make exactness cheap and remove the index as a confound). Top-k is
k-selection, not a sort of every candidate: a partition finds each query
row's k-th best similarity, and only the candidates at or above it are
stably sorted, for a whole row block at once. Queries run in row blocks
on `workers.run_blocks`' threads; the blocks in flight together hold at
most BLOCK_CELLS similarity cells, so memory does not grow with the query
count or the threads, and the result does not depend on either. Inputs
must be finite with non-zero rows; a bad row is rejected by index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial

import numpy as np

from .workers import run_blocks, thread_count

NE_CLIP = 1e-7
# Cells of one row block of a (rows x width) float64 intermediate: 16 MB.
BLOCK_CELLS = 1 << 21


class MetricError(ValueError):
    pass


def _row_blocks(rows, width, cells=None):
    """(lo, hi) bounds of near-equal row blocks, each of at most
    max(1, cells // width) rows, `cells` defaulting to BLOCK_CELLS; none
    for zero rows. Near-equal blocks leave no one-row tail: BLAS takes a
    matrix-vector path for a single row, whose products can differ in the
    last bit."""
    per = max(1, (cells or BLOCK_CELLS) // max(1, width))
    count = -(-rows // per)
    return [(rows * i // count, rows * (i + 1) // count) for i in range(count)]


def _unit_rows(x, what, first=0):
    """Rows of `x` scaled to unit norm in a new float64 array; errors
    number the rows from `first`."""
    x = np.array(x, dtype=np.float64)
    bad = np.where(~np.isfinite(x).all(axis=1))[0]
    if bad.size:
        raise MetricError(f"non-finite row {first + int(bad[0])} in {what}")
    norms = np.linalg.norm(x, axis=1)
    bad = np.where(norms == 0.0)[0]
    if bad.size:
        raise MetricError(f"zero-norm row {first + int(bad[0])} in {what}")
    x /= norms[:, None]
    return x


def cosine_recon_loss(x, x_hat):
    """Mean over rows of 1 - cos(x_i, x_hat_i), of at least one row.

    The per-row cosines are computed one row block at a time into a single
    float64 vector, and the mean is taken once over all of it.
    """
    x = np.asarray(x)
    x_hat = np.asarray(x_hat)
    if x.shape != x_hat.shape:
        raise MetricError(f"shape mismatch {x.shape} vs {x_hat.shape}")
    if not x.shape[0]:
        raise MetricError("need at least one row")
    cos = np.empty(x.shape[0])
    # a block holds three float64 (rows x dim) arrays at once: both unit
    # copies and the squares np.linalg.norm sums
    for lo, hi in _row_blocks(x.shape[0], 3 * x.shape[1]):
        xn = _unit_rows(x[lo:hi], "original corpus", lo)
        rn = _unit_rows(x_hat[lo:hi], "reconstruction", lo)
        cos[lo:hi] = np.einsum("ij,ij->i", xn, rn)
    return float(np.mean(1.0 - cos))


def _check_k(k):
    if k < 1:
        raise MetricError(f"k must be >= 1, got {k}")


def cosine_topk(base, queries, k, exclude_self=None):
    """Exhaustive top-k indices of `base` rows by cosine similarity.

    `queries` is a (q, d) matrix; `exclude_self` optionally gives, per
    query, a base index to mask out (for queries drawn from the corpus).
    Ties break toward the lower base index: the result is the first k of
    a stable sort of every candidate by descending similarity.

    Query rows run in near-equal blocks on `workers.run_blocks`' threads.
    Each block holds its similarities and np.partition's copy of them, so
    a block gets BLOCK_CELLS // (2 * threads) cells: all the blocks in
    flight hold at most BLOCK_CELLS. Every row of `base` and `queries`
    must be finite and non-zero.
    """
    _check_k(k)
    base_n = _unit_rows(base, "base corpus")
    q = _unit_rows(queries, "queries")
    n = base_n.shape[0]
    limit = n - (1 if exclude_self is not None else 0)
    if k > limit:
        raise MetricError(f"k={k} exceeds candidate pool of {limit}")
    out = np.empty((q.shape[0], k), dtype=np.int64)
    cells = BLOCK_CELLS // (2 * thread_count())
    run_blocks(partial(_topk_block, base_n, q, k, exclude_self, out),
               _row_blocks(q.shape[0], n, cells))
    return out


def _topk_block(base_n, q, k, exclude_self, out, lo, hi):
    """Top-k of query rows lo:hi into out[lo:hi], selected for the whole
    block at once.

    np.partition gives each row's k-th best value; the cells at or above
    it, read row-major, are each row's candidates in index order. A row
    with exactly k of them takes them in a stable argsort of their values;
    a row tied at its k-th value has more, and sorts them on its own.
    """
    n = base_n.shape[0]
    neg = q[lo:hi] @ base_n.T
    np.negative(neg, out=neg)  # ascending order of -sims is best first
    if exclude_self is not None:
        neg[np.arange(hi - lo), exclude_self[lo:hi]] = np.inf
    # a copy, so that the partitioned block is freed at once
    kth = np.partition(neg, k - 1, axis=1)[:, k - 1].copy()
    flat = np.flatnonzero(neg <= kth[:, None])
    rows = flat // n
    plain = np.bincount(rows, minlength=hi - lo) == k
    if not plain.all():
        flat = flat[plain[rows]]
    order = np.argsort(neg.ravel()[flat].reshape(-1, k), axis=1,
                       kind="stable")
    out[lo:hi][plain] = np.take_along_axis((flat % n).reshape(-1, k),
                                           order, axis=1)
    for i in np.flatnonzero(~plain):
        cand = np.flatnonzero(neg[i] <= kth[i])
        out[lo + i] = cand[np.argsort(neg[i, cand], kind="stable")[:k]]


def knn_ground_truth(corpus, query_indices, depth):
    """Exact closest-`depth` neighbors of corpus rows, self excluded.

    Queries are given as row indices into the corpus; the query's own row
    never appears among its neighbors.
    """
    corpus = np.asarray(corpus)
    idx = np.asarray(query_indices, dtype=np.int64)
    if depth < 1:
        raise MetricError(f"depth must be >= 1, got {depth}")
    if depth > corpus.shape[0] - 1:
        raise MetricError(
            f"depth {depth} exceeds corpus size {corpus.shape[0]} minus self")
    return cosine_topk(corpus, corpus[idx], depth, exclude_self=idx)


@dataclass
class RecallReport:
    """Recall@k of candidate lists against fixed-depth ground truth."""

    ks: tuple
    recalls: tuple
    query_count: int
    corpus_size: int
    gt_depth: int

    def __post_init__(self):
        for r in self.recalls:
            if not 0.0 <= r <= 1.0:
                raise MetricError(f"recall {r} outside [0, 1]")

    def as_dict(self):
        d = {f"recall@{k}": r for k, r in zip(self.ks, self.recalls)}
        d.update(queries=self.query_count, corpus=self.corpus_size,
                 gt_depth=self.gt_depth)
        return d

    def __str__(self):
        cells = "  ".join(f"R@{k}={r:.4f}" for k, r in zip(self.ks, self.recalls))
        return f"{cells}  ({self.query_count} queries, corpus {self.corpus_size})"


def recall_at_k(ground_truth, candidates, ks, corpus_size=None):
    """Mean over queries of |gt ∩ candidates[:k]| / |gt|, for integer ids.

    Candidate lists must be at least max(ks) long. The hits of every
    query are counted by one np.isin per k, over keys that shift row i's
    ids into a range of its own. For nested candidate prefixes the recall
    values are non-decreasing in k, which is asserted on every report.
    """
    gt = np.asarray(ground_truth, dtype=np.int64)
    cand = np.asarray(candidates, dtype=np.int64)
    if not ks:
        raise MetricError(f"need at least one k, got {ks!r}")
    ks = tuple(sorted(ks))
    _check_k(ks[0])
    if cand.shape[0] != gt.shape[0]:
        raise MetricError(
            f"query count mismatch: {gt.shape[0]} ground truth vs "
            f"{cand.shape[0]} candidate lists")
    if cand.shape[1] < ks[-1]:
        raise MetricError(
            f"candidate lists of length {cand.shape[1]} too short for k={ks[-1]}")
    if not gt.size:
        raise MetricError(f"need at least one query and one ground-truth "
                          f"id, got shape {gt.shape}")
    cand = cand[:, :ks[-1]]
    low = min(gt.min(), cand.min())
    span = max(gt.max(), cand.max()) - low + 1
    shift = np.arange(gt.shape[0])[:, None] * span - low
    gt_keys, cand_keys = gt + shift, cand + shift
    recalls = []
    for k in ks:
        hits = np.isin(gt_keys, cand_keys[:, :k]).sum(axis=1)
        recalls.append(float(np.mean(hits) / gt.shape[1]))
    for lo, hi in zip(recalls, recalls[1:]):
        if lo > hi + 1e-12:
            raise MetricError("recall not monotone over nested candidate lists")
    return RecallReport(ks, tuple(recalls), gt.shape[0],
                        corpus_size if corpus_size is not None else 0,
                        gt.shape[1])


@dataclass
class NEReport:
    """Normalized entropy: mean binary log-loss over the prior entropy."""

    ne: float
    n: int
    prior: float
    mean_log_loss: float

    def as_dict(self):
        return {"ne": self.ne, "n": self.n, "prior": self.prior,
                "mean_log_loss": self.mean_log_loss}

    def __str__(self):
        return f"NE={self.ne:.6f} (n={self.n}, prior={self.prior:.4f})"


def normalized_entropy(labels, predictions):
    """NE = mean log-loss of the predictions / entropy of the label prior.

    Equals 1 for the constant-prior predictor; lower is better. A
    prediction outside [0, 1], NaN included, is rejected, naming the first
    one's index; the rest are clipped to [1e-7, 1 - 1e-7] to keep the
    log-loss finite. Requires at least one positive and one negative label,
    otherwise the prior entropy is zero.
    """
    y = np.asarray(labels, dtype=np.float64).ravel()
    p = np.asarray(predictions, dtype=np.float64).ravel()
    if y.shape != p.shape:
        raise MetricError(f"shape mismatch: {y.shape} labels vs {p.shape} predictions")
    if y.size < 1:
        raise MetricError("need at least one sample")
    if not np.isin(y, (0.0, 1.0)).all():
        raise MetricError("labels must be binary")
    bad = np.flatnonzero(~((p >= 0.0) & (p <= 1.0)))
    if bad.size:
        raise MetricError(f"prediction {p[bad[0]]} at index {bad[0]} is not "
                          "a probability in [0, 1]")
    prior = float(y.mean())
    if prior in (0.0, 1.0):
        raise MetricError("labels are single-class; prior entropy is zero")
    p = np.clip(p, NE_CLIP, 1.0 - NE_CLIP)
    mean_ll = float(np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))
    prior_ent = prior * np.log(prior) + (1.0 - prior) * np.log(1.0 - prior)
    return NEReport(ne=float(mean_ll / prior_ent), n=y.size, prior=prior,
                    mean_log_loss=-mean_ll)


# ---------------------------------------------------------------------------
# Report output


def emit_report(payload, as_json):
    if as_json:
        print(json.dumps(payload, indent=2))
    elif isinstance(payload, dict):
        for k, v in payload.items():
            print(f"{k}: {v}")
    else:
        print(payload)
