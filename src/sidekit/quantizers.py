"""Codebook-based and scalar quantizers.

Covers plain and residual k-means, product splitting, finite scalar
quantization (FSQ), and discrete-PCA stacks (residual layers of learned
component vectors with a ternary {-1, 0, +1} scalar codebook, optionally
in parallel product groups).

The k-means kinds are one (groups, depth) grid: each contiguous product
slice holds a residual stack of `depth` k-means codebooks, so kmeans is
1 x 1, rq 1 x depth and pq groups x 1. Books, code columns and the
"kmeans.l{i}" checkpoint layers are group-major: i = g*depth + t.

All assign/encode/decode functions are pure over immutable codebooks and
take a 2-D row-major batch, one vector (or one code) per row; a single
vector is a batch of one row. Any other ndim raises QuantizerError. Ties
are broken toward the lower index everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus_io import load_checkpoint, save_checkpoint
from .nn_core import DTYPE


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


@dataclass
class KMeansCodebook:
    """Centroid table from Lloyd's algorithm.

    `degenerate` flags a corpus whose rows were all identical, in which
    case the centroids are k copies of that row.
    """

    centroids: np.ndarray
    degenerate: bool = False
    objective_history: list = field(default_factory=list)

    @property
    def k(self):
        return self.centroids.shape[0]

    @property
    def d(self):
        return self.centroids.shape[1]


def _sq_dists(x, centroids):
    # ||x||^2 - 2 x.C^T + ||c||^2, clipped at 0 against rounding, built in
    # one (n, k) buffer; -2xc + ||x||^2 equals ||x||^2 - 2xc bit for bit.
    d2 = x @ centroids.T
    d2 *= -2.0
    d2 += np.einsum("ij,ij->i", x, x)[:, None]
    d2 += np.einsum("ij,ij->i", centroids, centroids)[None, :]
    return np.maximum(d2, 0.0, out=d2)


def kmeans_fit(corpus, k, iters, seed):
    """Lloyd's algorithm with farthest-point reseeding of empty clusters.

    The within-cluster sum of squares is recorded once per iteration and
    is non-increasing: reseeding relocates an unused centroid onto the
    point currently farthest from its assigned centroid, which can only
    shrink nearest-centroid distances.

    One distance pass per iteration: the distances that give the recorded
    objective also give the next iteration's assignment. Rows are grouped
    by cluster with one stable argsort, so each centroid is the mean of a
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

    if np.all(x == x[0]):
        return KMeansCodebook(np.repeat(x[:1], k, axis=0).copy(),
                              degenerate=True, objective_history=[0.0])

    rng = np.random.default_rng(seed)
    centroids = x[rng.choice(n, size=k, replace=False)].copy()
    history = []
    d2 = _sq_dists(x, centroids)
    for _ in range(iters):
        assign = d2.argmin(axis=1)
        point_d2 = d2[np.arange(n), assign]
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
        d2 = _sq_dists(x, centroids)
        history.append(float(d2.min(axis=1).sum()))
    return KMeansCodebook(centroids.astype(DTYPE), objective_history=history)


def kmeans_assign(codebook, x):
    """Index of the nearest centroid by Euclidean distance (lowest wins ties)."""
    rows = _rows(x)
    if rows.shape[1] != codebook.d:
        raise QuantizerError(
            f"dimension mismatch: input has {rows.shape[1]}, codebook {codebook.d}")
    return _sq_dists(rows, codebook.centroids).argmin(axis=1)


def residual_fit(corpus, k, depth, iters, seed):
    """Stack of k-means codebooks, each fitted on the previous residuals."""
    residual = _rows(corpus)
    stack = []
    for layer in range(depth):
        if stack:
            prev = stack[-1]
            residual = residual - prev.centroids[kmeans_assign(prev, residual)]
        stack.append(kmeans_fit(residual, k, iters=iters, seed=seed + layer))
    return stack


def residual_quantize(stack, x):
    """Greedy layer-by-layer assignment against a residual codebook stack:
    the (n, depth) indices of the codeword chosen at each layer."""
    residual = _rows(x).copy()
    indices = np.empty((residual.shape[0], len(stack)), dtype=np.int64)
    for layer, cb in enumerate(stack):
        indices[:, layer] = kmeans_assign(cb, residual)
        residual -= cb.centroids[indices[:, layer]]
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


def product_join(parts):
    """Exact inverse of product_split."""
    return np.concatenate(parts, axis=-1)


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
    joined with product_join; extra code columns (SID padding) are ignored."""
    depth = len(books) // groups
    idx = _rows(codes, dtype=np.int64)
    if idx.shape[1] < len(books):
        raise QuantizerError(f"{idx.shape[1]} code columns, {len(books)} books")
    return product_join([sum(books[i].centroids[idx[:, i]]
                             for i in range(g * depth, (g + 1) * depth))
                         for g in range(groups)])


# ---------------------------------------------------------------------------
# Finite scalar quantization


@dataclass(frozen=True)
class FsqConfig:
    """Uniform L-level grid on [-1, 1] reached through a tanh bound.

    The grid is symmetric about 0 whenever `levels` is odd. Quantizing a
    grid value returns its own level for levels <= 5; beyond that the gap
    between tanh(1) and 1 exceeds half a grid step, so the two edge levels
    are not fixed points of the tanh bounding.
    """

    levels: int

    def __post_init__(self):
        if self.levels < 2:
            raise QuantizerError(f"levels must be >= 2, got {self.levels}")

    @property
    def offset(self):
        """Integer centering shift so digits straddle zero (1 for ternary)."""
        return (self.levels - 1) // 2


def fsq_quantize(cfg, z):
    """Per-dimension scalar quantization of an unbounded latent.

    Each entry is squashed with tanh to [-1, 1], snapped to the uniform
    L-level grid (ties round half away from zero), and returned both as a
    level index in [0, L) and as the grid value.
    """
    rows = _rows(z)
    if not np.all(np.isfinite(rows)):
        raise QuantizerError("non-finite latent input")
    levels = _fsq_snap(cfg, rows)
    return levels, fsq_values(cfg, levels)


def _fsq_snap(cfg, z, dither_rng=None):
    """Level indices of the tanh-bounded grid snap of finite `z`.

    `dither_rng` adds uniform half-step noise to the grid position before
    rounding (the training-time dither).
    """
    u = np.tanh(z)
    # (u+1)/2*(L-1) is nonnegative, so half-away-from-zero == floor(x+0.5).
    pos = (u + 1.0) * 0.5 * (cfg.levels - 1)
    if dither_rng is not None:
        pos = pos + dither_rng.uniform(-0.5, 0.5, size=pos.shape)
    levels = np.floor(pos + 0.5).astype(np.int64)
    return np.clip(levels, 0, cfg.levels - 1)


def fsq_values(cfg, levels):
    """Grid value for each level index: 2*level/(L-1) - 1."""
    return (2.0 * np.asarray(levels) / (cfg.levels - 1) - 1.0).astype(DTYPE)


# ---------------------------------------------------------------------------
# Discrete-PCA stacks


DPCA_INIT_STD = 0.5  # std of the entries of DpcaStack.random's components


@dataclass
class DpcaStack:
    """Residual stack of learned component vectors with a ternary codebook.

    `components` and `offsets` have shape (groups, depth, d/groups): entry
    [g, t] is the depth-t component (or offset) for product group g. The
    scalar codebook is fixed to {-1, 0, +1}; component vectors carry free
    magnitude, and encoding normalizes the projection so the ternary digit
    approximates the least-squares coefficient of the residual on u.
    """

    components: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        self.components = np.asarray(self.components, dtype=DTYPE)
        self.offsets = np.asarray(self.offsets, dtype=DTYPE)
        if self.components.ndim != 3 or self.components.shape != self.offsets.shape:
            raise QuantizerError(
                "components and offsets must both be (groups, depth, width)")
        if not np.all(np.isfinite(self.components)):
            raise QuantizerError("non-finite component vector")

    @property
    def groups(self):
        return self.components.shape[0]

    @property
    def depth(self):
        return self.components.shape[1]

    @property
    def width(self):
        return self.components.shape[2]

    @property
    def dim(self):
        return self.groups * self.width

    @property
    def digits(self):
        return self.groups * self.depth

    @classmethod
    def random(cls, dim, depth, groups=1, seed=0):
        if dim % groups != 0:
            raise QuantizerError(f"{groups} groups do not divide dimension {dim}")
        rng = np.random.default_rng(seed)
        w = dim // groups
        comps = rng.normal(0.0, DPCA_INIT_STD, size=(groups, depth, w))
        offs = np.zeros((groups, depth, w))
        return cls(comps, offs)


def dpca_encode(stack, x):
    """Greedy residual encoding to ternary digits, group-major then depth.

    Per product group: r_0 = x_g, and for each depth t the digit is the
    ternary quantization of <r_t - b_t, u_t>/||u_t||^2 (the least-squares
    coefficient), after which r_{t+1} = r_t - (s_t u_t + b_t).
    """
    rows = _rows(x)
    if rows.shape[1] != stack.dim:
        raise QuantizerError(
            f"dimension mismatch: input has {rows.shape[1]}, stack {stack.dim}")
    n, depth = rows.shape[0], stack.depth
    codes = np.empty((n, stack.digits), dtype=np.int8)
    coeffs = np.empty((stack.digits, n), dtype=DTYPE)  # checked once, at the end
    for g, r in enumerate(product_split(rows, stack.groups)):
        r = r.copy()
        for t in range(depth):
            u = stack.components[g, t]
            b = stack.offsets[g, t]
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
    int8: _fsq_snap(FsqConfig(3), coeff) - 1, with the same float32 rounding.
    (tanh + 1) * 0.5 * 2 is tanh + 1 exactly, and the snap position
    p = tanh + 1 + 0.5 lies in [0.5, 2.5], where floor(p) - 1 is
    [p >= 2] - [p < 1] and the clip never binds."""
    p = np.tanh(coeff)
    p += 1.0
    p += 0.5
    return (p >= 2).view(np.int8) - (p < 1).view(np.int8)


def dpca_decode(stack, codes):
    """Evaluate the codebook sum sum_t (s_t u_t + b_t) per product group."""
    arr = _rows(codes, dtype=None)
    if arr.shape[1] != stack.digits:
        raise QuantizerError(
            f"code length {arr.shape[1]} != groups*depth = {stack.digits}")
    if not np.isin(arr, (-1, 0, 1)).all():
        raise QuantizerError("codes must be ternary in {-1, 0, +1}")
    parts = []
    for g in range(stack.groups):
        s = arr[:, g * stack.depth:(g + 1) * stack.depth].astype(DTYPE)
        parts.append(s @ stack.components[g] + stack.offsets[g].sum(axis=0))
    return product_join(parts).astype(DTYPE)


# ---------------------------------------------------------------------------
# Codebook checkpoints: k-means layer i is "kmeans.l{i}.centroids".


def save_codebooks(path, books):
    """Write a list of k-means codebooks, group-major, to one checkpoint."""
    save_checkpoint(path, {f"kmeans.l{layer}.centroids": book.centroids
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
    return [KMeansCodebook(arrays[k]) for k in names]
