"""Minimal dense computation engine with reverse-mode differentiation.

Everything is a 2-D float32 array. Graphs are define-by-run: calling an op
computes the forward value eagerly and records a closure for the backward
pass, so "running forward" and "building the graph" are the same step and
the graph is rebuilt from scratch for every batch. `backward` walks the
recorded graph from a scalar (1x1) loss node and accumulates gradients
into every reachable node that requires them. It never clears a `grad`:
a fresh node starts from zeros, and a parameter leaf sums every pass
until `fit` zeroes all parameter gradients, once per step.

Two fused ops cover the subgraphs that VQ-fusion training rebuilds every
batch: `dpca_recon`, one DPCA product group's sum_t (s_t u_t + b_t), and
`cosine_loss`, one signal's mean cosine loss. Each is one node where the
primitive ops made 3 per DPCA layer or 14 per signal. They evaluate the
same float32 expressions in the same order as those chains, forward and
backward, so values and gradients are bit for bit the chains' own, and a
NaN/Inf in any intermediate still raises NonFiniteError with the node and
the first bad row.

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

Embedding tables are row-sparse. A parameter registered with
`ParamStore.table` may feed only `gather_rows`; any other op, or using it
as the loss, raises GraphError naming the table. `gather_rows`' backward
marks every row it scatters into, and a mark is never cleared. The
buffers hold the dense parameters first and the tables after them, so
`fit` zeroes, checks and updates the dense region whole and each table
only in its marked rows. That is exact, not an approximation: a row no
gather has reached has a +0.0 gradient and zero Adam moments, and the
Adam update leaves such an element unchanged bit for bit. Weight decay
still shrinks every row on every step.
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


@contextlib.contextmanager
def _no_record():
    """Ops inside the block build nodes with no inputs and no backward."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


class Node:
    """A 2-D float32 value in the graph plus its backward closure.

    `grad` is populated by `backward` and always matches `value` in shape.
    """

    __slots__ = ("value", "name", "inputs", "grad", "requires_grad",
                 "_backward", "rows")

    def __init__(self, value, name, inputs=(), backward=None, requires_grad=False):
        self.value = value
        self.name = name
        self.inputs = tuple(inputs)
        self.grad = None
        self.requires_grad = requires_grad
        self._backward = backward
        self.rows = None  # a table's per-row gather marks (ParamStore.table)

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
    if not np.isfinite(value).all():
        row = int(np.where(~np.isfinite(value).all(axis=1))[0][0])
        raise NonFiniteError(f"non-finite output at batch row {row}", name, row)


def _make(opname, value, inputs, backward, name=None):
    name = name or f"{opname}#{next(_node_ids)}"
    req = False
    for i in inputs:
        if i.rows is not None and opname != "gather":
            _table_misuse(i, name)
        req = req or i.requires_grad
    _check_finite(value, name)
    if not _recording:
        return Node(value, name)
    return Node(value, name, inputs, backward if req else None, req)


def _table_misuse(table, name):
    raise GraphError(f"table '{table.name}' can feed only gather_rows", name)


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


def div(a, b):
    return _binary("div", a, b, np.divide,
                   lambda g, av, bv: g / bv,
                   lambda g, av, bv: -g * av / (bv * bv))


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


def sqrt(a):
    return _unary("sqrt", a, np.sqrt, lambda g, x, y: g / (2.0 * y))


def square(a):
    return _unary("square", a, np.square, lambda g, x, y: g * 2.0 * x)


def softmax_rows(a):
    x = a.value
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    value = e / e.sum(axis=1, keepdims=True)

    def backward(out):
        g = out.grad
        s = out.value
        a.grad += s * (g - (g * s).sum(axis=1, keepdims=True))
    return _make("softmax_rows", value.astype(DTYPE), (a,), backward)


def log_softmax_rows(a):
    x = a.value
    shifted = x - x.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    value = shifted - lse

    def backward(out):
        g = out.grad
        s = np.exp(out.value)
        a.grad += g - s * g.sum(axis=1, keepdims=True)
    return _make("log_softmax_rows", value.astype(DTYPE), (a,), backward)


def concat_cols(nodes):
    value = np.concatenate([n.value for n in nodes], axis=1)
    offsets = np.cumsum([0] + [n.shape[1] for n in nodes])

    def backward(out):
        for n, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            if n.requires_grad:
                n.grad += out.grad[:, lo:hi]
    return _make("concat", value, tuple(nodes), backward)


def sum_all(a):
    value = np.array([[a.value.sum(dtype=DTYPE)]], dtype=DTYPE)

    def backward(out):
        a.grad += np.full(a.shape, out.grad[0, 0], dtype=DTYPE)
    return _make("sum", value, (a,), backward)


def mean_all(a):
    n = a.value.size
    value = np.array([[a.value.sum(dtype=DTYPE) / n]], dtype=DTYPE)

    def backward(out):
        a.grad += np.full(a.shape, out.grad[0, 0] / n, dtype=DTYPE)
    return _make("mean", value, (a,), backward)


def sum_axis1(a):
    value = a.value.sum(axis=1, keepdims=True, dtype=DTYPE)

    def backward(out):
        a.grad += np.broadcast_to(out.grad, a.shape)
    return _make("sum_axis1", value, (a,), backward)


def reshape(a, rows, cols):
    if rows * cols != a.value.size:
        raise GraphError(
            f"cannot reshape {a.shape} to ({rows}, {cols})", "reshape")
    value = a.value.reshape(rows, cols)

    def backward(out):
        a.grad += out.grad.reshape(a.shape)
    return _make("reshape", value, (a,), backward)


def repeat_rows(a, k):
    value = np.repeat(a.value, k, axis=0)

    def backward(out):
        n, m = a.shape
        a.grad += out.grad.reshape(n, k, m).sum(axis=1, dtype=DTYPE)
    return _make("repeat_rows", value, (a,), backward)


def segment_sum_rows(a, k):
    """Sum consecutive blocks of k rows; adjoint of repeat_rows."""
    n, m = a.shape
    if n % k != 0:
        raise GraphError(f"row count {n} not divisible by {k}", "segment_sum")
    value = a.value.reshape(n // k, k, m).sum(axis=1, dtype=DTYPE)

    def backward(out):
        a.grad += np.repeat(out.grad, k, axis=0)
    return _make("segment_sum", value, (a,), backward)


def gather_rows(table, indices):
    """Row lookup into a parameter table; backward scatter-adds and marks
    the rows it reached in a `ParamStore.table` leaf."""
    idx = np.asarray(indices, dtype=np.int64).ravel()
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise GraphError(
            f"index out of range for table with {table.shape[0]} rows",
            "gather")
    value = np.take(table.value, idx, axis=0)  # ~3x faster than value[idx]

    def backward(out):
        # one 1-D scatter over element indices: the same adds in the same
        # order as a row scatter, without its per-row overhead
        cols = table.shape[1]
        flat = (idx[:, None] * cols + np.arange(cols)).ravel()
        np.add.at(table.grad.reshape(-1), flat, out.grad.reshape(-1))
        if table.rows is not None:
            table.rows[idx] = True
    return _make("gather", value, (table,), backward)


def stop_gradient(a):
    """Forward-identity node that blocks all gradient flow through it."""
    if a.rows is not None:
        _table_misuse(a, "stop_gradient")
    return Node(a.value, f"stop_gradient#{next(_node_ids)}", (a,), None,
                requires_grad=False)


# ---------------------------------------------------------------------------
# Fused ops: one node for a subgraph that training builds every batch. Each
# evaluates the float32 expressions of the op chain it replaces, in the
# same order, so its value and gradients are bit-identical to the chain's.


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
    `recon` the node r. Replaces mul, sum_axis1, square, sum_axis1, add,
    sqrt, mul, div, sub and mean. Every row-level intermediate that can
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


def backward(loss):
    """Add d(loss)/d(node) into `grad` of every node that the scalar loss
    depends on; a node with no gradient array first gets a zeroed one."""
    if loss.shape != (1, 1):
        raise GraphError(f"loss must be 1x1, got {loss.shape}", loss.name)
    if loss.rows is not None:
        _table_misuse(loss, "backward")

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
    in `grad`. Each name's one graph leaf in `leaves` views both; only this
    class knows the offsets.

    The buffers hold the dense parameters first, then the tables
    registered through `table`, each group in registration order. Names,
    `items()` and checkpoints keep registration order. A table may feed
    only `gather_rows`, which marks the rows it reaches; `fit` and
    `adam_step` read, zero and update a table only in its marked rows.
    """

    def __init__(self, seed=0):
        self.rng = np.random.default_rng(seed)
        self.flat = np.zeros(0, dtype=DTYPE)
        self.grad = np.zeros(0, dtype=DTYPE)
        self.leaves: dict[str, Node] = {}
        self._dense = 0      # flat[:_dense] holds every non-table parameter
        # (leaf, offset in flat, cached marked row indices) per table, in order
        self._tables = []

    def weight(self, name, fan_in, fan_out):
        """Glorot-uniform weight matrix: U(+-sqrt(6/(fan_in+fan_out)))."""
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        arr = self.rng.uniform(-bound, bound, size=(fan_in, fan_out))
        return self.add(name, arr)

    def zeros(self, name, rows, cols):
        return self.add(name, np.zeros((rows, cols)))

    def table(self, name, rows, cols, scale=0.01):
        """N(0, scale) embedding table; row-sparse, it feeds only gather_rows."""
        arr = self.rng.normal(0.0, scale, size=(rows, cols))
        return self._register(name, arr, table=True)

    def add(self, name, array):
        """Append a dense parameter."""
        return self._register(name, array, table=False)

    def _register(self, name, array, table):
        """Add a leaf; every leaf is re-pointed at the grown buffers."""
        if name in self.leaves:
            raise KeyError(f"parameter '{name}' already registered")
        arr = _as_matrix(array, name)
        new = Node(arr, name, (), None, requires_grad=True)
        if table:
            if arr.shape[1] == 0:
                raise GraphError("a table needs at least one column", name)
            new.rows = np.zeros(arr.shape[0], dtype=bool)
        self.leaves[name] = new
        # a stable sort: dense leaves, then tables, in registration order
        order = sorted(self.leaves.values(), key=lambda n: n.rows is not None)
        self.flat = np.concatenate([n.value.ravel() for n in order])
        self.grad = np.zeros_like(self.flat)
        self._dense, self._tables = 0, []
        lo = 0
        for node in order:
            hi = lo + node.value.size
            node.value = self.flat[lo:hi].reshape(node.shape)
            node.grad = self.grad[lo:hi].reshape(node.shape)
            if node.rows is None:
                self._dense = hi
            else:
                self._tables.append((node, lo, np.flatnonzero(node.rows)))
            lo = hi
        return new.value

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

    def touched_rows(self, name):
        """Sorted indices of the rows of table `name` that a gather's
        backward has reached since the table was registered."""
        rows = self.leaves[name].rows
        if rows is None:
            raise KeyError(f"parameter '{name}' is not a table")
        return np.flatnonzero(rows)

    def _marked(self):
        """(leaf, offset in flat, sorted indices of its marked rows) per
        table. Marks are never cleared, so an unchanged mark count is an
        unchanged set: the indices are found again only after a gather's
        backward has marked a new row (counting takes ~3 us on a 39k-row
        mask, finding the indices ~40 us)."""
        for i, (leaf, lo, rows) in enumerate(self._tables):
            if np.count_nonzero(leaf.rows) != rows.size:
                self._tables[i] = (leaf, lo, np.flatnonzero(leaf.rows))
        return self._tables

    def _zero_grad(self):
        """Zero every gradient entry a backward pass can write: the dense
        region and each table's marked rows. The rest is already +0.0."""
        self.grad[:self._dense] = 0.0
        for leaf, _, rows in self._marked():
            grad = _row_items(leaf.grad)
            grad[rows] = np.zeros((), grad.dtype)

    def _nonfinite_grad(self):
        """Name of the first parameter whose gradient holds a NaN or Inf."""
        return next(n for n, leaf in self.leaves.items()
                    if not np.isfinite(leaf.grad).all())


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
        if self.lr <= 0:
            raise ValueError(f"learning rate must be positive, got {self.lr}")


def _adam_update(p, g, m, v, lr, c1, c2):
    # the three Adam expressions, in place on p, m and v
    m += (1.0 - ADAM_BETA1) * (g - m)
    v += (1.0 - ADAM_BETA2) * (g * g - v)
    p -= DTYPE(lr) * (m / c1) / (np.sqrt(v / c2) + DTYPE(ADAM_EPS))


def _row_items(a):
    # the C-contiguous 2-D `a` as one opaque item per row, so that fancy
    # indexing moves whole rows (about 3x faster than on `a` itself)
    return a.view(np.dtype((np.void, a.shape[1] * a.itemsize)))[:, 0]


def adam_step(state, params):
    """Apply one bias-corrected Adam update to the ParamStore `params` in
    place, from its `grad`. Returns the state for chaining.

    The dense region is updated whole. Each table is updated in its marked
    rows only: the same expressions run on copies of those rows, which are
    then written back. The rows skipped have +0.0 gradients and zero
    moments, where the update would give m = v = +0.0 and p - (+0.0) = p,
    so the result equals the whole-buffer update bit for bit. Everything
    the update reads is checked before any parameter or moment changes: a
    NaN or Inf raises NonFiniteError naming its parameter."""
    nd = params._dense
    g = params.grad[:nd]
    marked = params._marked()
    grads = [np.take(_row_items(leaf.grad), rows).view(DTYPE)
             for leaf, _, rows in marked]
    if not (np.isfinite(g).all() and all(np.isfinite(gt).all() for gt in grads)):
        raise NonFiniteError("non-finite gradient", params._nonfinite_grad())
    if state.m is None:
        state.m, state.v = np.zeros_like(params.flat), np.zeros_like(params.flat)
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    with np.errstate(over="ignore", invalid="ignore"):
        _adam_update(params.flat[:nd], g, state.m[:nd], state.v[:nd],
                     state.lr, c1, c2)
        for (leaf, lo, rows), gt in zip(marked, grads):
            m, v = (a[lo:lo + leaf.value.size].reshape(leaf.shape)
                    for a in (state.m, state.v))
            whole = [_row_items(a) for a in (leaf.value, m, v)]
            part = [np.take(a, rows).view(DTYPE) for a in whole]
            _adam_update(part[0], gt, part[1], part[2], state.lr, c1, c2)
            for a, b in zip(whole, part):
                a[rows] = b.view(a.dtype)
    return state


@dataclass(frozen=True)
class FitConfig:
    """The settings of one `fit` run; `seed` seeds the `rng` it is handed."""

    epochs: int
    batch_size: int
    lr: float
    seed: int


def fit(params, n, step, rng, cfg, weight_decay):
    """Minibatch Adam training of the ParamStore `params` over `n` samples
    with rollback on divergence.

    Each epoch visits the samples in the order of one `rng.permutation(n)`,
    `cfg.batch_size` at a time. `step(idx)` builds the graph for the sample
    indices `idx` on `params.leaves` and returns (scalar loss node, per-term
    floats); a parameter the loss does not reach gets a zero gradient. Each
    step zeroes the gradient entries a backward pass can write (the dense
    region and the tables' marked rows), runs `adam_step`, then shrinks all
    of `params.flat`, every table row included, by (1 - lr * weight_decay):
    decoupled weight decay.

    Returns (rows, diverged_at): one row per finished epoch holding the
    epoch and the batch mean of each term. A non-finite value anywhere in
    a batch counts as divergence: the parameters are restored to the end
    of the last finished epoch, training stops and diverged_at records the
    epoch; if epoch 0 diverges a TrainingDiverged error is raised instead.
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
                    loss, terms = step(order[lo:lo + cfg.batch_size])
                    params._zero_grad()
                    backward(loss)
                    adam_step(opt, params)
                    params.flat *= shrink  # exact no-op without decay
                    for k, v in terms.items():
                        sums[k] = sums.get(k, 0.0) + v
                    batches += 1
        except NonFiniteError as exc:
            if epoch == 0:
                raise TrainingDiverged(f"diverged in epoch 0: {exc}") from None
            params.flat[...] = last_good
            return rows, epoch
        rows.append({"epoch": epoch,
                     **{k: v / batches for k, v in sums.items()}})
        last_good = params.flat.copy()
    return rows, None
