"""Minimal dense computation engine with reverse-mode differentiation.

Everything is a 2-D float32 array. Graphs are define-by-run: calling an op
computes the forward value eagerly and records a closure for the backward
pass, so "running forward" and "building the graph" are the same step and
the graph is rebuilt from scratch for every batch. `backward` walks the
recorded graph from a scalar (1x1) loss node and accumulates gradients
into every reachable node that requires them. It never clears a `grad`:
a fresh node starts from zeros, and a parameter leaf sums every pass
until `fit` zeroes all parameter gradients, once per step.

The engine holds only the ops a command runs. Four fused ops cover the
subgraphs that training rebuilds every batch: `dpca_recon`, one DPCA
product group's sum_t (s_t u_t + b_t); `cosine_loss`, one signal's mean
cosine loss; `gather_mean`, the mean of an item's SID gram rows; and
`pooled_attention`, softmax(q K^T / sqrt(d)) V with K = V Theta. The
first three match the tests' chains of primitive ops bit for bit, and
`pooled_attention` a float64 oracle within a float32 rounding bound.

Finiteness is checked once per `fit` step and per op everywhere else.
While `fit` builds a step's graph, ops do not check their values; `fit`
checks the loss, and `adam_step` the gradient. A step that fails either
check, or raises, is built again with per-op checks on, so it raises the
NonFiniteError per-op checks raise, naming the first bad node and row.
Outside `fit` every op checks its value as it computes it.

Inference needs no graph. Inside `with _no_record():` every op still
computes its value and checks it for NaN/Inf, but the node it returns
keeps no inputs and no backward closure, so each intermediate array is
freed as soon as the next op has consumed it. Callers that run a whole
corpus through a model also split it into row blocks, which bounds their
memory by the block size instead of the corpus size. The switch is
module state, not a graph op; training never sets it.

Also provides the Adam optimizer, the one minibatch training loop
(`fit`) and a named parameter store with the initialization rules used
across the package. A model's state is whole float32 buffers
(parameters, gradients, Adam moments), each parameter one persistent graph
leaf that views them; a `fit` step returns (loss node, per-term floats).
The engine holds no file code: checkpoints are `corpus_io`'s.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass, field

import numpy as np

DTYPE = np.float32


class GraphError(ValueError):
    """Structural problem in a computation graph; names the offending node."""

    def __init__(self, message: str, node: str | None = None):
        super().__init__(message if node is None else f"node '{node}': {message}")
        self.node = node


class NonFiniteError(GraphError):
    """An op produced NaN or Inf; names the node and the first bad batch row."""

    def __init__(self, message, node=None, row=None):
        super().__init__(message, node)
        self.row = row


class TrainingDiverged(RuntimeError):
    """Loss became non-finite and no usable checkpoint exists."""


_node_ids = itertools.count()
_recording = True
_checking = True  # off only while `fit` runs a step (see `_fit_step`)


@contextlib.contextmanager
def _no_record():
    """Ops inside the block build nodes with no inputs and no backward,
    and check their values as they run."""
    global _recording, _checking
    previous = _recording, _checking
    _recording, _checking = False, True
    try:
        yield
    finally:
        _recording, _checking = previous


class Node:
    """A 2-D float32 value in the graph plus its backward closure.

    `grad` is populated by `backward` and always matches `value` in shape.
    """

    __slots__ = ("value", "name", "inputs", "grad", "requires_grad",
                 "_backward")

    def __init__(self, value, name, inputs=(), backward=None, requires_grad=False):
        self.value = value
        self.name = name
        self.inputs = tuple(inputs)
        self.grad = None
        self.requires_grad = requires_grad
        self._backward = backward

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node({self.name}, shape={self.value.shape})"


def _as_matrix(x, name):
    arr = np.asarray(x, dtype=DTYPE)
    if arr.ndim != 2:
        raise GraphError(f"expected a 2-D array, got ndim={arr.ndim}", name)
    return arr


def _check_finite(value, name):
    if _checking and not np.isfinite(value).all():
        row = int(np.where(~np.isfinite(value).all(axis=1))[0][0])
        raise NonFiniteError(f"non-finite output at batch row {row}", name, row)


def _make(opname, value, inputs, backward, name=None):
    name = name or f"{opname}#{next(_node_ids)}"
    _check_finite(value, name)
    if not _recording:
        return Node(value, name)
    req = any(i.requires_grad for i in inputs)
    return Node(value, name, inputs, backward if req else None, req)


def leaf(x, name=None, requires_grad=False):
    """Wrap an array as a graph input. Gradients flow only if requested."""
    name = name or f"leaf#{next(_node_ids)}"
    value = _as_matrix(x, name)
    _check_finite(value, name)
    return Node(value, name, (), None, requires_grad)


def constant(x, name=None):
    return leaf(x, name, requires_grad=False)


def _unbroadcast(g, shape):
    # Sum gradient back down to the operand's original (possibly size-1) axes.
    if g.shape == shape:
        return g
    out = g
    if shape[0] == 1 and out.shape[0] != 1:
        out = out.sum(axis=0, keepdims=True, dtype=DTYPE)
    if shape[1] == 1 and out.shape[1] != 1:
        out = out.sum(axis=1, keepdims=True, dtype=DTYPE)
    if out.shape != shape:
        raise GraphError(f"cannot reduce gradient {g.shape} to {shape}")
    return out


def _binary(opname, a, b, fn, da, db, name=None):
    try:
        with np.errstate(all="ignore"):
            value = fn(a.value, b.value).astype(DTYPE, copy=False)
    except ValueError as exc:
        raise GraphError(
            f"shape mismatch {a.shape} vs {b.shape} in {opname}: {exc}",
            name or opname) from None

    def backward(out):
        g = out.grad
        if a.requires_grad:
            a.grad += _unbroadcast(da(g, a.value, b.value), a.shape)
        if b.requires_grad:
            b.grad += _unbroadcast(db(g, a.value, b.value), b.shape)

    return _make(opname, value, (a, b), backward, name)


def add(a, b, name=None):
    return _binary("add", a, b, np.add,
                   lambda g, av, bv: g,
                   lambda g, av, bv: g, name)


def sub(a, b, name=None):
    return _binary("sub", a, b, np.subtract,
                   lambda g, av, bv: g,
                   lambda g, av, bv: -g, name)


def mul(a, b):
    return _binary("mul", a, b, np.multiply,
                   lambda g, av, bv: g * bv,
                   lambda g, av, bv: g * av)


def matmul(a, b):
    if a.shape[1] != b.shape[0]:
        raise GraphError(
            f"matmul shape mismatch {a.shape} @ {b.shape}", "matmul")
    value = a.value @ b.value

    def backward(out):
        g = out.grad
        if a.requires_grad:
            a.grad += g @ b.value.T
        if b.requires_grad:
            b.grad += a.value.T @ g

    return _make("matmul", value, (a, b), backward)


def scale(a, c):
    c = float(c)

    def backward(out):
        a.grad += out.grad * DTYPE(c)
    return _make("scale", a.value * DTYPE(c), (a,), backward)


def _unary(opname, a, fn, dfn):
    with np.errstate(all="ignore"):
        value = fn(a.value).astype(DTYPE, copy=False)

    def backward(out):
        a.grad += dfn(out.grad, a.value, value)
    return _make(opname, value, (a,), backward)


def relu(a):
    # Subgradient at 0 is taken as 0.
    return _unary("relu", a, lambda x: np.maximum(x, 0.0),
                  lambda g, x, y: g * (x > 0))


def softplus(a):
    return _unary("softplus", a, lambda x: np.logaddexp(0.0, x),
                  lambda g, x, y: g / (1.0 + np.exp(-x)))


def square(a):
    return _unary("square", a, np.square, lambda g, x, y: g * 2.0 * x)


def concat_cols(nodes):
    value = np.concatenate([n.value for n in nodes], axis=1)
    offsets = np.cumsum([0] + [n.shape[1] for n in nodes])

    def backward(out):
        for n, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            if n.requires_grad:
                n.grad += out.grad[:, lo:hi]
    return _make("concat", value, tuple(nodes), backward)


def mean_all(a):
    n = a.value.size
    value = np.array([[a.value.sum(dtype=DTYPE) / n]], dtype=DTYPE)

    def backward(out):
        a.grad += np.full(a.shape, out.grad[0, 0] / n, dtype=DTYPE)
    return _make("mean", value, (a,), backward)


def gather_rows(table, indices):
    """Row lookup into a parameter table; backward scatter-adds."""
    idx = np.asarray(indices, dtype=np.int64).ravel()
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise GraphError(
            f"index out of range for table with {table.shape[0]} rows",
            "gather")
    value = np.take(table.value, idx, axis=0)  # ~3x faster than value[idx]

    def backward(out):
        _scatter_add_rows(table.grad, idx, out.grad)
    return _make("gather", value, (table,), backward)


def _scatter_add_rows(grad, idx, rows):
    """grad[idx[i]] += rows[i] for each i in turn, as an unbuffered row
    scatter does, but as one 1-D scatter over element indices: the same
    adds in the same order, without its per-row overhead. An even number
    of float32 columns goes as half as many complex64 columns, whose add
    is the two float32 adds."""
    rows = np.ascontiguousarray(rows)
    if grad.shape[1] % 2 == 0:
        grad, rows = grad.view(np.complex64), rows.view(np.complex64)
    cols = grad.shape[1]
    flat = (idx[:, None] * cols + np.arange(cols)).ravel()
    np.add.at(grad.reshape(-1), flat, rows.reshape(-1))


def stop_gradient(a):
    """Forward-identity node that blocks all gradient flow through it."""
    return Node(a.value, f"stop_gradient#{next(_node_ids)}",
                (a,) if _recording else (), None, requires_grad=False)


# ---------------------------------------------------------------------------
# Fused ops: one node for a subgraph that training builds every batch.


def dpca_recon(signs, comps, offs):
    """sum_t (s_t * u_t + b_t) for one DPCA product group, added in t order.

    `signs` is the (batch, depth) digit matrix, held fixed; `comps` and
    `offs` are the depth (1, width) component and offset nodes. The chain
    it replaces is mul, add, then a running add per depth.
    """
    s = np.asarray(signs, dtype=DTYPE)
    if s.ndim != 2 or s.shape[1] != len(comps) or len(offs) != len(comps):
        raise GraphError(f"{np.shape(signs)} digits for {len(comps)} "
                         f"components and {len(offs)} offsets", "dpca_recon")
    value = None
    with np.errstate(all="ignore"):
        for t, (u, b) in enumerate(zip(comps, offs)):
            term = s[:, t:t + 1] * u.value
            term += b.value
            if value is None:
                value = term
            else:
                value += term

    def backward(out):
        g = out.grad
        g_off = None
        for t, (u, b) in enumerate(zip(comps, offs)):
            if u.requires_grad:
                u.grad += (g * s[:, t:t + 1]).sum(axis=0, keepdims=True,
                                                  dtype=DTYPE)
            if b.requires_grad:
                if g_off is None:
                    g_off = g.sum(axis=0, keepdims=True, dtype=DTYPE)
                b.grad += g_off
    return _make("dpca_recon", value, (*comps, *offs), backward)


def cosine_loss(target, norms, recon):
    """mean over rows of 1 - <t, r> / (|t| * sqrt(|r|^2 + 1e-12)).

    `target` is the (batch, dim) array t, `norms` its row norms |t|, and
    `recon` the node r. Replaces a chain of ten primitive ops (the tests'
    `chain_cosine_loss`). Every row-level intermediate that can
    overflow is checked, so a finite r whose squared norm overflows still
    raises NonFiniteError, naming this node and the first bad row.
    """
    name = f"cosine_loss#{next(_node_ids)}"
    t = _as_matrix(target, name)
    n = t.shape[0]
    nc = np.asarray(norms, dtype=DTYPE).reshape(-1, 1)
    r = recon.value
    if r.shape != t.shape or nc.shape[0] != n:
        raise GraphError(f"target {t.shape}, norms {nc.shape[0]} and "
                         f"reconstruction {r.shape} disagree", name)
    with np.errstate(all="ignore"):
        dot = (t * r).sum(axis=1, keepdims=True, dtype=DTYPE)
        sq_norm = np.square(r).sum(axis=1, keepdims=True, dtype=DTYPE)
        root = np.sqrt(sq_norm + DTYPE(1e-12))
        nrm = nc * root
        cos = dot / nrm
    for part in (t, nc, dot, sq_norm, nrm, cos):
        _check_finite(part, name)
    value = np.array([[(1 - cos).sum(dtype=DTYPE) / n]], dtype=DTYPE)

    def backward(out):
        g_cos = -np.full((n, 1), out.grad[0, 0] / n, dtype=DTYPE)
        g_nrm = -g_cos * dot / (nrm * nrm)
        g_sq = g_nrm * nc / (2.0 * root)
        recon.grad += g_cos / nrm * t
        recon.grad += g_sq * 2.0 * r
    return _make("cosine_loss", value, (recon,), backward, name)


def pooled_attention(queries, values, theta, seq_len):
    """One-layer pooled attention per user: softmax(q K^T / sqrt(d)) V with
    K = V Theta.

    `queries` is the (b, d) node of one query per user, `values` the
    (b * seq_len, d) node of each user's seq_len events in consecutive
    rows, `theta` the (d, d) node. Returns the (b, d) pooled values. It
    works on the (b, seq_len, d) view: the logits, the pooled values and
    the gradients of the attention weights and the queries are each one
    batched matmul, so no repeated query matrix is built. Its float32
    sums are taken in whatever order numpy and the BLAS take them. A
    non-finite key, product or logit shows in the (b, seq_len) logits,
    which are checked: a NonFiniteError names this node and the user's
    batch row.
    """
    name = f"pooled_attention#{next(_node_ids)}"
    b, d = queries.shape
    if values.shape != (b * seq_len, d) or theta.shape != (d, d):
        raise GraphError(f"queries {queries.shape}, values {values.shape} "
                         f"and theta {theta.shape} disagree at seq_len "
                         f"{seq_len}", name)
    c = DTYPE(1.0 / np.sqrt(d))
    q3 = queries.value[:, None, :]
    v3 = values.value.reshape(b, seq_len, d)
    with np.errstate(all="ignore"):
        keys = values.value @ theta.value
        k3 = keys.reshape(b, seq_len, d)
        logits = np.matmul(k3, queries.value[:, :, None])[:, :, 0]
        logits *= c
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        attn = e / e.sum(axis=1, keepdims=True)
        value = np.matmul(attn[:, None, :], v3)[:, 0, :]
    _check_finite(logits, name)

    def backward(out):
        g3 = out.grad[:, None, :]  # the output gradient, once per event
        if values.requires_grad:
            values.grad += (g3 * attn[:, :, None]).reshape(-1, d)
        g_attn = np.matmul(v3, out.grad[:, :, None])[:, :, 0]
        g_logits = attn * (g_attn - (g_attn * attn).sum(axis=1,
                                                        keepdims=True))
        g_logits *= c
        if queries.requires_grad:
            queries.grad += np.matmul(g_logits[:, None, :], k3)[:, 0, :]
        g_keys = (g_logits[:, :, None] * q3).reshape(-1, d)
        if values.requires_grad:
            values.grad += g_keys @ theta.value.T
        if theta.requires_grad:
            theta.grad += values.value.T @ g_keys
    return _make("pooled_attention", value, (queries, values, theta),
                 backward, name)


def gather_mean(table, rows):
    """Mean of G table rows per output row: `rows` is (n, G), and output
    row i is (table[rows[i, 0]] + ... + table[rows[i, G-1]]) * (1/G), the
    sum taken left to right. It replaces G gather_rows, G - 1 adds and a
    scale; backward makes one scatter-add per column of `rows`, in column
    order, as the chain's gathers do.
    """
    idx = np.asarray(rows, dtype=np.int64)
    if idx.ndim != 2 or not idx.shape[1]:
        raise GraphError(f"expected (n, G >= 1) row indices, got shape "
                         f"{idx.shape}", "gather_mean")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise GraphError(
            f"index out of range for table with {table.shape[0]} rows",
            "gather_mean")
    grams = idx.shape[1]
    c = DTYPE(1.0 / grams)
    value = np.take(table.value, idx[:, 0], axis=0)
    with np.errstate(all="ignore"):
        for g in range(1, grams):
            value += np.take(table.value, idx[:, g], axis=0)
    value *= c

    def backward(out):
        g_rows = out.grad * c
        for g in range(grams):
            _scatter_add_rows(table.grad, idx[:, g], g_rows)
    return _make("gather_mean", value, (table,), backward)


def backward(loss):
    """Add d(loss)/d(node) into `grad` of every node that the scalar loss
    depends on; a node with no gradient array first gets a zeroed one."""
    if loss.shape != (1, 1):
        raise GraphError(f"loss must be 1x1, got {loss.shape}", loss.name)

    order = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.grad is None:  # a fresh node; an existing array adds
            node.grad = np.zeros(node.shape, dtype=DTYPE)
        stack.append((node, True))
        for inp in node.inputs:
            if inp.requires_grad:
                stack.append((inp, False))

    loss.grad += 1.0
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node)


# ---------------------------------------------------------------------------
# Parameters and optimization


class ParamStore:
    """Named float32 parameters in one buffer, `flat`, and their gradients
    in `grad`, both in registration order. Each name's one graph leaf in
    `leaves` views both; only this class knows the offsets."""

    def __init__(self, seed=0):
        self.rng = np.random.default_rng(seed)
        self.flat = np.zeros(0, dtype=DTYPE)
        self.grad = np.zeros(0, dtype=DTYPE)
        self.leaves: dict[str, Node] = {}

    def weight(self, name, fan_in, fan_out):
        """Glorot-uniform weight matrix: U(+-sqrt(6/(fan_in+fan_out)))."""
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        arr = self.rng.uniform(-bound, bound, size=(fan_in, fan_out))
        return self.add(name, arr)

    def zeros(self, name, rows, cols):
        return self.add(name, np.zeros((rows, cols)))

    def add(self, name, array):
        """Append a parameter; every leaf is re-pointed at the grown
        buffers."""
        if name in self.leaves:
            raise KeyError(f"parameter '{name}' already registered")
        arr = _as_matrix(array, name)
        self.leaves[name] = Node(arr, name, (), None, requires_grad=True)
        self.flat = np.concatenate([n.value.ravel()
                                    for n in self.leaves.values()])
        self.grad = np.zeros_like(self.flat)
        lo = 0
        for node in self.leaves.values():
            hi = lo + node.value.size
            node.grad = self.grad[lo:hi].reshape(node.shape)
            node.value = self.flat[lo:hi].reshape(node.shape)
            lo = hi
        return self.leaves[name].value

    def get(self, name):
        return self.leaves[name].value

    def set(self, name, array):
        """Overwrite a parameter in place; the shape must be its own."""
        value = self.get(name)
        if np.shape(array) != value.shape:
            raise GraphError(f"shape {np.shape(array)} != {value.shape}", name)
        value[...] = array

    def names(self):
        return list(self.leaves)

    def items(self):
        return [(n, node.value) for n, node in self.leaves.items()]

    def _nonfinite(self, what):
        """Name of the first parameter whose `what`, "value" or "grad",
        holds a NaN or Inf."""
        return next(n for n, leaf in self.leaves.items()
                    if not np.isfinite(getattr(leaf, what)).all())


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam optimizer state; `m` and `v` mirror `ParamStore.flat` once the
    first step has run. The decay rates and epsilon are the ADAM_* constants."""

    lr: float
    step: int = field(default=0, init=False)
    m: np.ndarray | None = field(default=None, init=False)
    v: np.ndarray | None = field(default=None, init=False)

    def __post_init__(self):
        if not 0 < self.lr < np.inf:
            raise ValueError(
                f"learning rate must be positive and finite, got {self.lr}")


def adam_step(state, params):
    """Apply one bias-corrected Adam update to the ParamStore `params` in
    place, from its `grad`. Returns the state for chaining. The gradient
    is checked before any parameter or moment changes: a NaN or Inf raises
    NonFiniteError naming its parameter. An element whose gradient and
    moments are +0.0 keeps its value bit for bit."""
    g, p = params.grad, params.flat
    if not np.isfinite(g).all():
        raise NonFiniteError("non-finite gradient", params._nonfinite("grad"))
    if state.m is None:
        state.m, state.v = np.zeros_like(p), np.zeros_like(p)
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    m, v = state.m, state.v
    with np.errstate(over="ignore", invalid="ignore"):
        m += (1.0 - ADAM_BETA1) * (g - m)
        v += (1.0 - ADAM_BETA2) * (g * g - v)
        p -= DTYPE(state.lr) * (m / c1) / (np.sqrt(v / c2) + DTYPE(ADAM_EPS))
    return state


@dataclass(frozen=True)
class FitConfig:
    """The settings of one `fit` run; `seed` seeds the `rng` it is handed."""

    epochs: int
    batch_size: int
    lr: float
    seed: int


def _fit_step(params, opt, step, idx, rng):
    """One `fit` step on the sample indices `idx`; returns its term floats.

    The graph is built with per-op finiteness checks off, and the loss is
    checked once. If building it raised, the loss is not finite, or
    `adam_step` finds a non-finite gradient, the step is built again with
    checks on, from the same first node number and `rng` state, so it
    raises the error per-op checks would have raised first; if it raises
    none, the first failure is raised. Only a non-finite value that
    vanishes before the loss and leaves every gradient finite goes unseen.
    """
    global _checking, _node_ids
    first = next(_node_ids)
    _node_ids = itertools.count(first)
    drawn = rng.bit_generator.state
    try:
        _checking = False
        try:
            loss, terms = step(idx)
        finally:
            _checking = True
        _check_finite(loss.value, loss.name)
        params.grad[...] = 0.0
        backward(loss)
        adam_step(opt, params)
        return terms
    except Exception as exc:  # raised below, after the checked re-run
        failure = exc
    _node_ids = itertools.count(first)
    rng.bit_generator.state = drawn
    step(idx)
    raise failure


def fit(params, n, step, rng, cfg, weight_decay):
    """Minibatch Adam training of the ParamStore `params` over `n` samples
    with rollback on divergence.

    Each epoch visits the samples in the order of one `rng.permutation(n)`,
    `cfg.batch_size` at a time. `step(idx)` builds the graph for the sample
    indices `idx` on `params.leaves` and returns (scalar loss node, per-term
    floats); a parameter the loss does not reach gets a zero gradient. Each
    step zeroes `params.grad`, runs `adam_step`, then shrinks all of
    `params.flat` by (1 - lr * weight_decay): decoupled weight decay.

    Returns (rows, diverged_at): one row per finished epoch holding the
    epoch and the batch mean of each term. A non-finite loss or gradient
    counts as divergence (see `_fit_step`: the error names the first
    non-finite node of the batch), and so does a non-finite parameter at
    an epoch's end, which the epoch's last step can leave with no forward
    pass to see it: the parameters are restored to the end of the last
    finished epoch, training stops and diverged_at records the epoch; if
    epoch 0 diverges a TrainingDiverged error is raised instead. So the
    parameters `fit` keeps are always finite.
    Node numbers restart with each run, so errors name nodes alike anywhere.
    """
    global _node_ids
    _node_ids = itertools.count()
    opt = AdamState(lr=cfg.lr)
    shrink = DTYPE(1.0 - cfg.lr * weight_decay)
    rows = []
    last_good = params.flat.copy()
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        sums = {}
        batches = 0
        try:
            # overflow shows up as the NonFiniteError naming node and row
            with np.errstate(all="ignore"):
                for lo in range(0, n, cfg.batch_size):
                    terms = _fit_step(params, opt, step,
                                      order[lo:lo + cfg.batch_size], rng)
                    params.flat *= shrink  # exact no-op without decay
                    for k, v in terms.items():
                        sums[k] = sums.get(k, 0.0) + v
                    batches += 1
                # min and max are NaN or infinite exactly when some entry
                # is, with no buffer-sized temporary
                flat = params.flat
                if flat.size and not (np.isfinite(flat.min())
                                      and np.isfinite(flat.max())):
                    raise NonFiniteError("non-finite parameter at epoch end",
                                         params._nonfinite("value"))
        except NonFiniteError as exc:
            if epoch == 0:
                raise TrainingDiverged(f"diverged in epoch 0: {exc}") from None
            params.flat[...] = last_good
            return rows, epoch
        rows.append({"epoch": epoch,
                     **{k: v / batches for k, v in sums.items()}})
        last_good = params.flat.copy()
    return rows, None
