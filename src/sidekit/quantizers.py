"""Codebook-based and scalar quantizers.

Covers plain and residual k-means, product splitting, finite scalar
quantization (FSQ), and discrete-PCA stacks (residual layers of learned
component vectors with a ternary {-1, 0, +1} scalar codebook, optionally
in parallel product groups).

A k-means codebook is its (k, d) float32 centroid array. The k-means
kinds are one (groups, depth) grid: each contiguous product slice holds a
residual stack of `depth` codebooks, so kmeans is 1 x 1, rq 1 x depth and
pq groups x 1. Books, code columns and the "kmeans.l{i}" checkpoint
layers are group-major: i = g*depth + t. An FSQ grid is its level
count, and a DPCA stack is its float32 components and offsets, both of
shape (groups, depth, width).

All assign/encode/decode functions leave their codebooks unchanged and
take a 2-D row-major batch, one vector (or one code) per row; a single
vector is a batch of one row. Any other ndim raises QuantizerError. Ties
are broken toward the lower index everywhere.

Fitting and assignment share one nearest-centroid pass, which runs its
cache-sized row blocks on `workers.thread_count()` threads; its results
do not depend on the thread count. Everything else here is serial.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .corpus_io import load_checkpoint, save_checkpoint
from .metrics import _row_blocks
from .nn_core import DTYPE
from .workers import run_blocks


class QuantizerError(ValueError):
    pass


def _rows(x, dtype=DTYPE):
    """The input as a (n, d) array; anything but 2-D is rejected."""
    arr = np.asarray(x, dtype=dtype)
    if arr.ndim != 2:
        raise QuantizerError(
            f"expected a 2-D batch of rows, got ndim={arr.ndim}")
    return arr


# ---------------------------------------------------------------------------
# k-means


# Distance cells of one row block of the nearest-centroid pass: 2 MB of
# float32, about 2,048 rows at k = 256.
PASS_CELLS = 1 << 19


def _sq_norms(x):
    return np.einsum("ij,ij->i", x, x)


def _nearest(x, x_sq, centroids):
    """(assign, point_d2): each row's nearest centroid, the lowest index
    on ties, and its squared distance, for the rows `x` and their squared
    norms `x_sq`.

    One pass over near-equal row blocks of at most PASS_CELLS distances,
    spread over `workers.run_blocks`' threads. Every block computes
    ||x||^2 - 2 x.C^T + ||c||^2, clipped at 0 against rounding, as the
    same float expression on its own rows, so the result does not depend
    on the blocks or the threads.
    """
    n, k = x.shape[0], centroids.shape[0]
    c_sq = _sq_norms(centroids)
    assign = np.empty(n, dtype=np.intp)
    point_d2 = np.empty(n, dtype=np.result_type(x, centroids))
    run_blocks(partial(_nearest_block, x, x_sq, centroids, c_sq, assign,
                       point_d2), _row_blocks(n, k, PASS_CELLS))
    return assign, point_d2


def _nearest_block(x, x_sq, centroids, c_sq, assign, point_d2, lo, hi):
    # -2xc + ||x||^2 equals ||x||^2 - 2xc bit for bit
    d2 = x[lo:hi] @ centroids.T
    d2 *= -2.0
    d2 += x_sq[lo:hi, None]
    d2 += c_sq[None, :]
    np.maximum(d2, 0.0, out=d2)
    best = d2.argmin(axis=1, out=assign[lo:hi])
    point_d2[lo:hi] = np.take_along_axis(d2, best[:, None], axis=1)[:, 0]


def kmeans_fit(corpus, k, iters, seed):
    """The (k, d) float32 centroids of Lloyd's algorithm, with
    farthest-point reseeding of empty clusters.

    The within-cluster sum of squares never rises from one iteration to
    the next: reseeding relocates an unused centroid onto the point
    currently farthest from its assigned centroid, which can only shrink
    nearest-centroid distances. A corpus of identical rows gives k
    centroids equal to that row.

    Each iteration starts with one nearest-centroid pass (`_nearest`),
    on as many threads as SIDEKIT_THREADS allows; the squared row norms
    it reads are computed once. The update is serial: rows are grouped by
    cluster with one stable argsort, so each centroid is the mean of a
    contiguous slice holding its rows in corpus order.
    """
    x = _rows(corpus)
    n = x.shape[0]
    if k < 1:
        raise QuantizerError(f"k must be >= 1, got {k}")
    if k > n:
        raise QuantizerError(f"k={k} exceeds corpus rows={n}")
    if iters < 1:
        raise QuantizerError(f"iters must be >= 1, got {iters}")

    rng = np.random.default_rng(seed)
    centroids = x[rng.choice(n, size=k, replace=False)].copy()
    x_sq = _sq_norms(x)
    for _ in range(iters):
        assign, point_d2 = _nearest(x, x_sq, centroids)
        grouped = x[np.argsort(assign, kind="stable")]
        counts = np.bincount(assign, minlength=k)
        ends = np.cumsum(counts)
        for c, (lo, hi) in enumerate(zip(ends - counts, ends)):
            if lo < hi:
                centroids[c] = grouped[lo:hi].mean(axis=0, dtype=np.float64)
            else:
                far = int(point_d2.argmax())
                centroids[c] = x[far]
                point_d2[far] = 0.0  # claimed; next empty cluster picks elsewhere
    return centroids.astype(DTYPE)


def kmeans_assign(centroids, x):
    """Index of the nearest centroid by Euclidean distance (lowest wins ties)."""
    rows = _rows(x)
    if rows.shape[1] != centroids.shape[1]:
        raise QuantizerError(f"dimension mismatch: input has {rows.shape[1]}, "
                             f"codebook {centroids.shape[1]}")
    return _nearest(rows, _sq_norms(rows), centroids)[0]


def residual_fit(corpus, k, depth, iters, seed):
    """Stack of k-means codebooks, each fitted on the previous residuals."""
    residual = _rows(corpus)
    stack = []
    for layer in range(depth):
        if stack:
            residual = residual - stack[-1][kmeans_assign(stack[-1], residual)]
        stack.append(kmeans_fit(residual, k, iters=iters, seed=seed + layer))
    return stack


def residual_quantize(stack, x):
    """Greedy layer-by-layer assignment against a residual codebook stack:
    the (n, depth) indices of the codeword chosen at each layer."""
    residual = _rows(x).copy()
    indices = np.empty((residual.shape[0], len(stack)), dtype=np.int64)
    for layer, book in enumerate(stack):
        indices[:, layer] = kmeans_assign(book, residual)
        residual -= book[indices[:, layer]]
    return indices


# ---------------------------------------------------------------------------
# Product grouping


def product_split(x, groups):
    """Split the trailing dimension into `groups` contiguous equal slices."""
    arr = np.asarray(x)
    d = arr.shape[-1]
    if d % groups != 0:
        raise QuantizerError(f"{groups} groups do not divide dimension {d}")
    w = d // groups
    return [arr[..., g * w:(g + 1) * w] for g in range(groups)]


# ---------------------------------------------------------------------------
# The k-means grid: kmeans, rq and pq as (groups, depth) layouts


def kmeans_grid_fit(corpus, k, groups, depth, iters, seed):
    """residual_fit on each product slice g, seeded seed + g; the books
    are listed group-major."""
    parts = product_split(_rows(corpus), groups)
    return [book for g, part in enumerate(parts)
            for book in residual_fit(part, k, depth, iters=iters, seed=seed + g)]


def kmeans_grid_encode(books, groups, x):
    """(n, len(books)) codes: residual_quantize per product slice."""
    depth = len(books) // groups
    parts = product_split(_rows(x), groups)
    return np.concatenate(
        [residual_quantize(books[g * depth:(g + 1) * depth], part)
         for g, part in enumerate(parts)], axis=1)


def kmeans_grid_decode(books, groups, codes):
    """Per group the sum of its layers' selected centroids, the groups
    concatenated in order; extra code columns (SID padding) are ignored."""
    depth = len(books) // groups
    idx = _rows(codes, dtype=np.int64)
    if idx.shape[1] < len(books):
        raise QuantizerError(f"{idx.shape[1]} code columns, {len(books)} books")
    return np.concatenate([sum(books[i][idx[:, i]]
                               for i in range(g * depth, (g + 1) * depth))
                           for g in range(groups)], axis=1)


# ---------------------------------------------------------------------------
# Finite scalar quantization: a grid of `levels` >= 2 values on [-1, 1],
# symmetric about 0 when `levels` is odd. A grid value quantizes to its
# own level for levels <= 5; beyond that the gap between tanh(1) and 1
# exceeds half a grid step, so the edge levels are not fixed points.


def fsq_quantize(levels, z, dither_rng=None):
    """Per-dimension scalar quantization of an unbounded latent.

    Each entry is squashed with tanh to [-1, 1], snapped to the uniform
    `levels`-level grid (ties round half away from zero), and returned
    both as a level index in [0, levels) and as the grid value.
    `dither_rng` adds uniform half-step noise to the grid position before
    rounding (the training-time dither).
    """
    rows = _rows(z)
    if not np.all(np.isfinite(rows)):
        raise QuantizerError("non-finite latent input")
    u = np.tanh(rows)
    # (u+1)/2*(L-1) is nonnegative, so half-away-from-zero == floor(x+0.5).
    pos = (u + 1.0) * 0.5 * (levels - 1)
    if dither_rng is not None:
        pos = pos + dither_rng.uniform(-0.5, 0.5, size=pos.shape)
    idx = np.clip(np.floor(pos + 0.5).astype(np.int64), 0, levels - 1)
    return idx, fsq_values(levels, idx)


def fsq_values(levels, idx):
    """Grid value for each level index: 2*idx/(levels-1) - 1."""
    return (2.0 * np.asarray(idx) / (levels - 1) - 1.0).astype(DTYPE)


# ---------------------------------------------------------------------------
# Discrete-PCA stacks: entry [g, t] of `components` (or `offsets`) is the
# depth-t component (or offset) of product group g. The scalar codebook
# is {-1, 0, +1}; components carry free magnitude, and encoding normalizes
# the projection so the ternary digit approximates the least-squares
# coefficient of the residual on u.


def _dpca_arrays(components, offsets):
    """The stack as float32 arrays, its shapes and components checked."""
    comps = np.asarray(components, dtype=DTYPE)
    offs = np.asarray(offsets, dtype=DTYPE)
    if comps.ndim != 3 or comps.shape != offs.shape:
        raise QuantizerError(
            "components and offsets must both be (groups, depth, width)")
    if not np.all(np.isfinite(comps)):
        raise QuantizerError("non-finite component vector")
    return comps, offs


def dpca_encode(components, offsets, x):
    """Greedy residual encoding to ternary digits, group-major then depth.

    Per product group: r_0 = x_g, and for each depth t the digit is the
    ternary quantization of <r_t - b_t, u_t>/||u_t||^2 (the least-squares
    coefficient), after which r_{t+1} = r_t - (s_t u_t + b_t).
    """
    comps, offs = _dpca_arrays(components, offsets)
    groups, depth, width = comps.shape
    rows = _rows(x)
    if rows.shape[1] != groups * width:
        raise QuantizerError(f"dimension mismatch: input has {rows.shape[1]}, "
                             f"stack {groups * width}")
    codes = np.empty((len(rows), groups * depth), dtype=np.int8)
    coeffs = np.empty(codes.shape[::-1], dtype=DTYPE)  # checked once, at the end
    for g, r in enumerate(product_split(rows, groups)):
        r = r.copy()
        for t in range(depth):
            u = comps[g, t]
            b = offs[g, t]
            norm = float(np.sqrt(u.dot(u)))  # np.linalg.norm's own formula
            if norm == 0.0:
                raise QuantizerError(
                    f"zero-norm component vector at group {g}, depth {t}")
            k = g * depth + t
            coeffs[k] = coeff = (r - b) @ (u / norm) / norm
            s = codes[:, k] = _ternary_digit(coeff)
            if t + 1 < depth:  # the last residual is never read
                r -= s[:, None] * u + b
    if not np.isfinite(coeffs).all():
        raise QuantizerError("non-finite latent input")
    return codes


def _ternary_digit(coeff):
    """The centered ternary FSQ digit of finite float32 coefficients as
    int8: the level fsq_quantize gives each at 3 levels, minus 1, with
    the same float32 rounding. (tanh + 1) * 0.5 * 2 is tanh + 1 exactly,
    and the snap position p = tanh + 1 + 0.5 lies in [0.5, 2.5], where
    floor(p) - 1 is [p >= 2] - [p < 1] and the clip never binds."""
    p = np.tanh(coeff)
    p += 1.0
    p += 0.5
    return (p >= 2).view(np.int8) - (p < 1).view(np.int8)


def dpca_decode(components, offsets, codes):
    """Evaluate the codebook sum sum_t (s_t u_t + b_t) per product group."""
    comps, offs = _dpca_arrays(components, offsets)
    groups, depth, _ = comps.shape
    arr = _rows(codes, dtype=None)
    if arr.shape[1] != groups * depth:
        raise QuantizerError(
            f"code length {arr.shape[1]} != groups*depth = {groups * depth}")
    if not np.isin(arr, (-1, 0, 1)).all():
        raise QuantizerError("codes must be ternary in {-1, 0, +1}")
    return np.concatenate(
        [arr[:, g * depth:(g + 1) * depth].astype(DTYPE) @ comps[g]
         + offs[g].sum(axis=0) for g in range(groups)], axis=1)


# ---------------------------------------------------------------------------
# Codebook checkpoints: k-means layer i is "kmeans.l{i}.centroids".


def save_codebooks(path, books):
    """Write a list of k-means codebooks, group-major, to one checkpoint."""
    save_checkpoint(path, {f"kmeans.l{layer}.centroids": book
                           for layer, book in enumerate(books)})


def load_codebooks(path):
    """Read save_codebooks' output back into its list of k-means codebooks
    (empty if the checkpoint holds none); other names are not read."""
    arrays = load_checkpoint(path)
    found = [k for k in arrays if k.startswith("kmeans.")]
    names = [f"kmeans.l{i}.centroids" for i in range(len(found))]
    if set(found) != set(names):
        raise QuantizerError(
            f"k-means layers must be {names[0]} .. {names[-1]}, "
            f"got {sorted(found)}")
    return [arrays[k] for k in names]
