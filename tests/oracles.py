"""Independent reference implementations used as test oracles.

Everything here is deliberately written as plain loops or textbook
formulas, separate from the library code paths it checks.
"""

import numpy as np

from sidekit import nn_core as nn
from sidekit import ranking as rk
from sidekit.quantizers import fsq_quantize, product_split
from sidekit.sid_codec import SidError, SidScheme


# Ops that no command runs: the tests' loss reducers and the steps of
# `chain_cosine_loss`, built on nn_core's node constructors.


def div(a, b):
    return nn._binary("div", a, b, np.divide,
                      lambda g, av, bv: g / bv,
                      lambda g, av, bv: -g * av / (bv * bv))


def sqrt(a):
    return nn._unary("sqrt", a, np.sqrt, lambda g, x, y: g / (2.0 * y))


def sum_all(a):
    value = np.array([[a.value.sum(dtype=nn.DTYPE)]], dtype=nn.DTYPE)

    def backward(out):
        a.grad += np.full(a.shape, out.grad[0, 0], dtype=nn.DTYPE)
    return nn._make("sum", value, (a,), backward)


def sum_axis1(a):
    value = a.value.sum(axis=1, keepdims=True, dtype=nn.DTYPE)

    def backward(out):
        a.grad += np.broadcast_to(out.grad, a.shape)
    return nn._make("sum_axis1", value, (a,), backward)


def numeric_grad(fn, arrays, key, h=1e-3):
    """Central finite differences of scalar fn w.r.t. arrays[key].

    fn takes the dict of float32 arrays and returns a python float.
    """
    base = {k: v.copy() for k, v in arrays.items()}
    target = base[key]
    grad = np.zeros_like(target, dtype=np.float64)
    it = np.nditer(target, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = target[idx]
        target[idx] = orig + h
        up = fn(base)
        target[idx] = orig - h
        down = fn(base)
        target[idx] = orig
        grad[idx] = (up - down) / (2.0 * h)
        it.iternext()
    return grad


def grad_close(analytic, numeric, rel=1e-2):
    """Mixed relative/absolute comparison suited to fd noise near zero."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
    return bool(np.all(np.abs(a - n) <= rel * denom))


def naive_pma(queries, values, theta):
    """Pooled attention, one scalar at a time."""
    q = np.asarray(queries, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    th = np.asarray(theta, dtype=np.float64)
    k, d = q.shape
    l = v.shape[0]
    keys = np.zeros((l, d))
    for i in range(l):
        for j in range(d):
            keys[i, j] = sum(v[i, m] * th[m, j] for m in range(d))
    out = np.zeros((k, d))
    for a in range(k):
        logits = [sum(q[a, m] * keys[i, m] for m in range(d)) / np.sqrt(d)
                  for i in range(l)]
        mx = max(logits)
        ex = [np.exp(s - mx) for s in logits]
        z = sum(ex)
        for j in range(d):
            out[a, j] = sum(ex[i] / z * v[i, j] for i in range(l))
    return out


def float64_pooled_attention(queries, values, theta, seq_len, upstream):
    """Pooled attention softmax(q K^T / sqrt(d)) V with K = V Theta per
    user, in float64, with the gradients of sum(output * upstream) by the
    chain rule written out: the softmax's Jacobian is diag(a) - a a^T.
    Returns (output, [gradient of queries, values, theta], attention)."""
    q = np.asarray(queries, dtype=np.float64)
    b, d = q.shape
    v3 = np.asarray(values, dtype=np.float64).reshape(b, seq_len, d)
    th = np.asarray(theta, dtype=np.float64)
    g = np.asarray(upstream, dtype=np.float64)
    c = 1.0 / np.sqrt(d)
    k3 = v3 @ th
    logits = c * np.einsum("bld,bd->bl", k3, q)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    a = e / e.sum(axis=1, keepdims=True)
    out = np.einsum("bl,bld->bd", a, v3)
    jacobian = (a[:, :, None] * np.eye(seq_len)
                - a[:, :, None] * a[:, None, :])
    g_logits = c * np.einsum("blm,bm->bl", jacobian,
                             np.einsum("bmd,bd->bm", v3, g))
    g_keys = g_logits[:, :, None] * q[:, None, :]
    g_values = a[:, :, None] * g[:, None, :] + g_keys @ th.T
    return out, [np.einsum("bl,bld->bd", g_logits, k3),
                 g_values.reshape(b * seq_len, d),
                 np.einsum("bld,ble->de", v3, g_keys)], a


def naive_knn(corpus, query_indices, depth):
    """Double-loop exhaustive cosine kNN with self exclusion."""
    x = np.asarray(corpus, dtype=np.float64)
    x = x / np.linalg.norm(x, axis=1, keepdims=True)
    out = []
    for qi in query_indices:
        sims = []
        for j in range(x.shape[0]):
            if j == qi:
                continue
            sims.append((-float(np.dot(x[qi], x[j])), j))
        sims.sort()  # most similar first; ties by lower index
        out.append([j for _, j in sims[:depth]])
    return np.asarray(out)


def naive_dpca_sum(components, offsets, codes):
    """Direct evaluation of the per-group codebook sum, elementwise."""
    groups, depth, width = components.shape
    out = np.zeros(groups * width, dtype=np.float64)
    for g in range(groups):
        for t in range(depth):
            s = codes[g * depth + t]
            for w in range(width):
                out[g * width + w] += s * components[g, t, w] + offsets[g, t, w]
    return out


def chain_dpca_recon(signs, comps, offs):
    """One DPCA product group's reconstruction as the chain of primitive
    nodes: per depth t a constant digit column, mul by u_t, add b_t, then
    a running add over t."""
    acc = None
    for t, (u, b) in enumerate(zip(comps, offs)):
        s_col = nn.constant(np.asarray(signs)[:, t:t + 1].astype(np.float32))
        term = nn.add(nn.mul(s_col, u), b)
        acc = term if acc is None else nn.add(acc, term)
    return acc


def chain_cosine_loss(target, norms, recon):
    """Mean cosine loss 1 - <t, r> / (|t| sqrt(|r|^2 + 1e-12)) as the chain
    of primitive nodes, one node per arithmetic step."""
    t = np.asarray(target, dtype=np.float32)
    n = t.shape[0]
    dot = sum_axis1(nn.mul(nn.constant(t), recon))
    sq = nn.add(sum_axis1(nn.square(recon)),
                nn.constant(np.full((n, 1), 1e-12)))
    nrm = nn.mul(nn.constant(np.reshape(norms, (-1, 1))), sqrt(sq))
    return nn.mean_all(nn.sub(nn.constant(np.ones((n, 1))), div(dot, nrm)))


def chain_gather_mean(table, rows):
    """The mean of the table rows in each row of `rows` as the chain of
    primitive nodes: one gather per column, a running add, then a scale."""
    rows = np.asarray(rows)
    acc = None
    for g in range(rows.shape[1]):
        looked = nn.gather_rows(table, rows[:, g])
        acc = looked if acc is None else nn.add(acc, looked)
    return nn.scale(acc, 1.0 / rows.shape[1])


def fsq_dpca_encode(components, offsets, x):
    """Greedy residual DPCA digits, each one the level fsq_quantize gives
    the least-squares coefficient on the 3-level grid, minus 1; the stack
    is float32 (groups, depth, width) components and offsets."""
    groups, depth, _ = components.shape
    rows = np.asarray(x, dtype=np.float32)
    codes = np.empty((rows.shape[0], groups * depth), dtype=np.int8)
    for g, r in enumerate(product_split(rows, groups)):
        r = r.copy()
        for t in range(depth):
            u = components[g, t]
            b = offsets[g, t]
            norm = float(np.linalg.norm(u))
            coeff = (r - b) @ (u / norm) / norm
            level, _ = fsq_quantize(3, coeff.reshape(-1, 1))
            s = (level[:, 0] - 1).astype(np.int8)
            r -= s[:, None] * u + b
            codes[:, g * depth + t] = s
    return codes


def dense_adam_step(state, params):
    """Adam as one whole-buffer update of `params.flat`: every element of
    every parameter, the table rows no gather reached included."""
    g, p = params.grad, params.flat
    if not np.isfinite(g).all():
        raise nn.NonFiniteError("non-finite gradient",
                                params._nonfinite("grad"))
    if state.m is None:
        state.m, state.v = np.zeros_like(p), np.zeros_like(p)
    state.step += 1
    t = state.step
    b1, b2 = nn.ADAM_BETA1, nn.ADAM_BETA2
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    m, v = state.m, state.v
    with np.errstate(over="ignore", invalid="ignore"):
        m += (1.0 - b1) * (g - m)
        v += (1.0 - b2) * (g * g - v)
        p -= nn.DTYPE(state.lr) * (m / c1) / (np.sqrt(v / c2)
                                              + nn.DTYPE(nn.ADAM_EPS))
    return state


class FullTableSidRanker(rk.ToyRankingModel):
    """The SID arm with the whole grams * hash_size table as one dense
    parameter, gathered by the raw hash s mod hash_size + g * hash_size of
    gram g: no row is dropped. Its parameters are drawn in the ranker's
    order, with the ranker's initialization rules."""

    def __init__(self, dataset, variant, hash_size, feature_dim, seed):
        assert variant == "sid"
        self.variant, self.hash_size = variant, hash_size
        self.feature_dim, self.dataset = feature_dim, dataset
        d, grams = feature_dim, dataset.scheme.grams
        p = self.params = nn.ParamStore(seed)
        p.add("sparse.segments", p.rng.normal(0.0, 0.01, size=(rk.SEGMENTS, d)))
        p.weight("dense.w", rk.DENSE_DIM, d)
        p.zeros("dense.b", 1, d)
        p.add("feature.table",
              p.rng.normal(0.0, 0.3, size=(grams * hash_size, d)))
        p.weight("pma.theta", d, d)
        p.weight("head.w", 5 * d, 1)
        p.zeros("head.b", 1, 1)
        self.item_rows = np.array([[int(s) % hash_size + g * hash_size
                                    for g, s in enumerate(sids)]
                                   for sids in dataset.item_sids])


def zero_history_logits(model, rows):
    """The ranker's logits with the whole history block run over zero item
    features: the no-history arm as the attention graph computes it."""
    p, ds, d = model.params.leaves, model.dataset, model.feature_dim
    seq_len = ds.config.seq_len
    seg = nn.gather_rows(p["sparse.segments"], ds.segments[rows])
    dense = nn.add(nn.matmul(nn.constant(ds.dense[rows]), p["dense.w"]),
                   p["dense.b"])
    cand = nn.constant(np.zeros((len(rows), d)))
    hist = nn.constant(np.zeros((len(rows) * seq_len, d)))
    pooled = nn.pooled_attention(cand, hist, p["pma.theta"], seq_len)
    feats = nn.concat_cols([seg, dense, cand, pooled, nn.mul(pooled, cand)])
    return nn.add(nn.matmul(feats, p["head.w"]), p["head.b"])


def row_scatter_add(table_grad, idx, grad):
    """Gather backward as one row-wise unbuffered scatter-add."""
    out = table_grad.copy()
    np.add.at(out, idx, grad)
    return out


def full_sort_topk(base, queries, k, exclude_self=None):
    """Top-k by cosine from one full sort of every candidate per query.

    Each query ranks all (-similarity, index) pairs, so equal similarities
    keep ascending index order; the excluded index ranks last.
    """
    b = np.asarray(base, dtype=np.float64)
    q = np.asarray(queries, dtype=np.float64)
    b = b / np.linalg.norm(b, axis=1, keepdims=True)
    q = q / np.linalg.norm(q, axis=1, keepdims=True)
    out = []
    for i in range(q.shape[0]):
        keyed = []
        for j in range(b.shape[0]):
            if exclude_self is not None and j == exclude_self[i]:
                keyed.append((np.inf, j))
            else:
                keyed.append((-float(q[i] @ b[j]), j))
        keyed.sort()
        out.append([j for _, j in keyed[:k]])
    return np.asarray(out, dtype=np.int64).reshape(q.shape[0], k)


def mask_loop_kmeans(corpus, k, iters, seed):
    """Lloyd's algorithm with one boolean mask per cluster; an empty
    cluster takes the unclaimed point farthest from its centroid. Returns
    (centroids, number of reseeds). Distances use the same float
    expression as quantizers._sq_dists, so results can be compared bit for
    bit."""
    x = np.asarray(corpus, dtype=np.float32)
    n = x.shape[0]
    rng = np.random.default_rng(seed)
    centroids = x[rng.choice(n, size=k, replace=False)].copy()
    reseeds = 0
    for _ in range(iters):
        d2 = np.maximum(np.einsum("ij,ij->i", x, x)[:, None]
                        - 2.0 * (x @ centroids.T)
                        + np.einsum("ij,ij->i", centroids, centroids)[None, :],
                        0.0)
        assign = d2.argmin(axis=1)
        point_d2 = d2[np.arange(n), assign]
        for c in range(k):
            mask = assign == c
            if mask.any():
                centroids[c] = x[mask].mean(axis=0, dtype=np.float64)
            else:
                far = int(point_d2.argmax())
                centroids[c] = x[far]
                point_d2[far] = 0.0
                reseeds += 1
    return centroids, reseeds


def within_cluster_sum_of_squares(corpus, centroids):
    """Sum over rows of the squared float64 distance to the nearest
    centroid, by broadcasting every row against every centroid."""
    x = np.asarray(corpus, dtype=np.float64)
    c = np.asarray(centroids, dtype=np.float64)
    return float(((x[:, None, :] - c[None]) ** 2).sum(axis=2).min(axis=1).sum())


def threshold_residual_encode(books, x, threshold):
    """Residual encoding of `x` over a stack of 3-centroid books
    [b - u, b, b + u]: at each layer the float64 least-squares coefficient
    c of the residual minus b on u = (book[2] - book[0]) / 2 picks index 2
    if tanh(c) >= threshold, index 0 if tanh(c) < -threshold, else 1, and
    the chosen centroid is subtracted. Returns (indices, coefficients),
    both (n, len(books))."""
    r = np.asarray(x, dtype=np.float32).copy()
    n = r.shape[0]
    idx = np.empty((n, len(books)), dtype=np.int64)
    coeffs = np.empty((n, len(books)))
    for t, book in enumerate(books):
        b = book[1].astype(np.float64)
        u = (book[2].astype(np.float64) - book[0]) / 2.0
        c = coeffs[:, t] = (r - b) @ u / (u @ u)
        idx[:, t] = 1 + (np.tanh(c) >= threshold) - (np.tanh(c) < -threshold)
        r -= book[idx[:, t]]
    return idx, coeffs


def broadcast_history(users, items, seq_len, seed, latent_dim, sharpness):
    """History item ids drawn as generate_engagement's random stream does,
    each id the count of CDF entries below the draw, compared one by one
    against the whole users x items CDF."""
    rng = np.random.default_rng(seed)
    raw = rng.integers(-1, 2, size=(items, latent_dim))
    raw[~raw.any(axis=1), 0] = 1
    latents = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    taste = rng.normal(size=(users, latent_dim))
    taste /= np.linalg.norm(taste, axis=1, keepdims=True)
    w = np.exp(sharpness * (taste @ latents.T))
    w /= w.sum(axis=1, keepdims=True)
    cum = np.cumsum(w, axis=1)
    draws = rng.random(size=(users, seq_len))
    history = np.zeros((users, seq_len), dtype=np.int64)
    for u in range(users):
        for s in range(seq_len):
            for i in range(items):
                if draws[u, s] > cum[u, i]:
                    history[u, s] += 1
    return history


def line_read_sid(data):
    """(scheme, (m, grams) u64 SIDs) of SID file bytes `data`, read one
    line at a time and each line field by field, raising the SidError
    that read_sid_file raises for the first bad byte: one that is not a
    digit, space or line end; the 20th of a field wider than 20 bytes or
    above 2**64 - 1; or a space or line end after an empty field, or
    where a record of g SIDs needs the other one. Then a last line with
    no line end, then the first record holding an unpackable SID."""
    head, line_end, body = data.partition(b"\n")
    scheme = SidScheme.from_header(head.decode("latin-1"))
    if not line_end:
        raise SidError("SID header: no line end")
    lines = body.split(b"\n")  # the last one follows the last line end
    records = []
    for lineno, line in enumerate(lines, start=2):
        ended = lineno <= len(lines)

        def fail(what):
            raise SidError(f"line {lineno}: {what}")

        fields = line.split(b" ")
        column = 1
        for k, field in enumerate(fields):
            for i, byte in enumerate(field[:20]):
                if byte not in b"0123456789":
                    fail(f"unexpected byte 0x{byte:02x} at column {column + i}")
            if len(field) > 20 or len(field) == 20 and int(field) >= 2**64:
                fail(f"expected a decimal u64 at column {column}")
            column += len(field)
            last = k == len(fields) - 1
            if last and not ended:
                break
            if not field:
                sep = "line end" if last else "space"
                fail(f"no SID before the {sep} at column {column}")
            if last != (k == scheme.grams - 1):
                fail(f"expected {scheme.grams} SIDs, got {len(fields)}")
            column += 1
        if ended:
            records.append((lineno, [int(field) for field in fields]))
    if lines[-1]:
        raise SidError(f"line {len(lines) + 1}: no line end")
    for lineno, row in records:
        if max(row) > scheme.max_sid:
            raise SidError(f"line {lineno}: SID {max(row)} exceeds scheme "
                           f"maximum {scheme.max_sid}")
        if any(value % scheme.base for value in row):
            raise SidError(f"line {lineno}: SID not divisible by the base; "
                           "not a packed value")
    rows = [row for _, row in records]
    return scheme, np.array(rows, dtype=np.uint64).reshape(-1, scheme.grams)
