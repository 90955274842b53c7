"""Row-sparse gradients against the whole-buffer Adam oracle.

A parameter that feeds `gather_rows` gets gradients only in the rows a
gather reached. `fit` with `adam_step` must end on the same parameter and
Adam moment bytes as `fit` with `oracles.dense_adam_step`; a row no gather
has reached keeps its value bit for bit without decay, which is what lets
the SID ranker keep only the rows some item hashes to; the finiteness
check sees every row a gather reached; and the compact SID ranker equals
the full-table oracle bit for bit.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidekit import nn_core as nn
from sidekit import ranking as rk
from oracles import FullTableSidRanker, dense_adam_step


def bits(a):
    """The float32 bit patterns of `a`, so -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a, dtype=np.float32).view(np.uint32)


def per_name(params, buf):
    """`buf`, laid out like `params.flat`, as one 2-D view per name."""
    base = params.flat.__array_interface__["data"][0]
    out = {}
    for name, value in params.items():
        lo = (value.__array_interface__["data"][0] - base) // value.itemsize
        out[name] = buf[lo:lo + value.size].reshape(value.shape)
    return out


def upstream(rng, shape):
    """A weight matrix with exact zeros and negative zeros in it."""
    w = rng.normal(size=shape).astype(np.float32)
    w[rng.random(shape) < 0.25] = 0.0
    w[rng.random(shape) < 0.15] = -0.0
    return w


def run_fit(params, losses, adam, weight_decay=0.1, epochs=2):
    """`fit` over one sample per loss builder, with `adam` as the Adam
    step; returns the last AdamState."""
    states = []

    def spy(state, store):
        states.append(state)
        return adam(state, store)

    def step(idx):
        return losses[int(idx[0])](params.leaves), {}

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nn, "adam_step", spy)
        nn.fit(params, len(losses), step, np.random.default_rng(0),
               nn.FitConfig(epochs=epochs, batch_size=1, lr=0.05, seed=0),
               weight_decay=weight_decay)
    return states[-1]


# (is gathered, rows, cols) per parameter, in registration order
SPECS = st.lists(st.tuples(st.booleans(), st.integers(1, 50),
                           st.integers(1, 4)), min_size=1, max_size=5)


@settings(max_examples=80, deadline=None)
@given(specs=SPECS, steps=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_fit_equals_the_dense_oracle_bit_for_bit(specs, steps, seed):
    rng = np.random.default_rng(seed)
    names = [f"{'t' if table else 'p'}{i}" for i, (table, _, _) in
             enumerate(specs)]
    arrays = [rng.normal(size=(rows if table else min(rows, 4), cols))
              .astype(np.float32) for table, rows, cols in specs]
    arrays[0][0, 0] = -0.0
    store, dense = nn.ParamStore(), nn.ParamStore()
    for name, arr in zip(names, arrays):
        store.add(name, arr)
        dense.add(name, arr)

    def loss_builder():
        # per table: gather a batch with repeats from the first half of the
        # rows (the rest are never gathered), or skip the table this step
        terms = []
        for name, (table, rows, cols) in zip(names, specs):
            if table and rng.random() < 0.3:
                continue
            idx = (rng.integers(0, rows // 2 + 1, size=rng.integers(0, 7))
                   if table else None)
            shape = (len(idx), cols) if table else dense.get(name).shape
            terms.append((name, idx, upstream(rng, shape)))

        def build(p):
            total = nn.constant(np.zeros((1, 1)))
            for name, idx, w in terms:
                x = p[name] if idx is None else nn.gather_rows(p[name], idx)
                total = nn.add(total, nn.sum_all(
                    nn.mul(nn.square(x), nn.constant(w))))
            return total
        return build

    losses = [loss_builder() for _ in range(steps)]
    got = run_fit(store, losses, nn.adam_step)
    want = run_fit(dense, losses, dense_adam_step)
    assert got.step == want.step
    for buf_got, buf_want in ((store.flat, dense.flat), (got.m, want.m),
                              (got.v, want.v)):
        views_got, views_want = per_name(store, buf_got), per_name(dense,
                                                                   buf_want)
        for name in names:
            np.testing.assert_array_equal(bits(views_got[name]),
                                          bits(views_want[name]), err_msg=name)


def gathered_store():
    params = nn.ParamStore(seed=1)
    params.weight("w", 2, 3)
    params.add("emb", params.rng.normal(0.0, 0.01, size=(6, 3)))
    params.zeros("b", 1, 3)
    return params


def gather_loss(params, idx):
    p = params.leaves
    rows = nn.matmul(nn.gather_rows(p["emb"], idx), nn.constant(np.eye(3)))
    return nn.add(nn.sum_all(nn.square(nn.add(rows, p["b"]))),
                  nn.sum_all(nn.square(p["w"])))


def test_nan_in_a_gathered_row_names_the_table_and_changes_nothing():
    params = gathered_store()
    state = nn.AdamState(lr=0.1)
    nn.backward(gather_loss(params, [1, 4, 4]))
    nn.adam_step(state, params)
    before = (params.flat.copy(), state.m.copy(), state.v.copy())
    params.grad.fill(0.0)
    nn.backward(gather_loss(params, [1, 4]))
    params.leaves["emb"].grad[4, 1] = np.nan
    with pytest.raises(nn.NonFiniteError, match="'emb'"):
        nn.adam_step(state, params)
    for got, want in zip((params.flat, state.m, state.v), before):
        np.testing.assert_array_equal(bits(got), bits(want))
    assert state.step == 1


def test_only_the_rows_gathered_move_without_decay():
    params = gathered_store()
    table = params.get("emb").copy()
    nn.fit(params, 2, lambda idx: (gather_loss(params, [[0, 3], [3]][idx[0]]),
                                   {}),
           np.random.default_rng(0),
           nn.FitConfig(epochs=3, batch_size=1, lr=0.1, seed=0),
           weight_decay=0.0)
    moved = (params.get("emb") != table).any(axis=1)
    assert moved.tolist() == [True, False, False, True, False, False]


def stepwise(params, adam, schedule):
    """`fit` with one step per entry of `schedule`, each gathering those
    rows of "emb"; returns per step each name's gradient as `adam` read it
    and its value after `adam` ran."""
    seen = []

    def spy(state, store):
        grads = {n: bits(leaf.grad) for n, leaf in store.leaves.items()}
        adam(state, store)
        seen.append((grads, {n: bits(v) for n, v in store.items()}))
        return state

    gathers = iter(schedule)

    def step(idx):
        p = params.leaves
        rows = nn.gather_rows(p["emb"], next(gathers))
        return nn.sum_all(nn.square(nn.add(rows, p["b"]))), {}

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nn, "adam_step", spy)
        nn.fit(params, 1, step, np.random.default_rng(0),
               nn.FitConfig(epochs=len(schedule), batch_size=1, lr=0.1,
                            seed=0), weight_decay=0.1)
    return seen


def test_a_row_first_gathered_at_step_k_is_zeroed_and_updated_from_k_on():
    # row 2 is first gathered at step 1, row 1 at step 3, row 3 never;
    # step 3 leaves rows 0 and 2 out, so their gradients must be zeroed
    schedule = [[0], [2, 0], [2, 2], [1], [0, 1, 2]]
    emb = np.random.default_rng(3).normal(size=(4, 2)).astype(np.float32)
    store, dense = nn.ParamStore(), nn.ParamStore()
    for params in (store, dense):
        params.add("emb", emb)
        params.add("b", [[0.5, -1.0]])
    got = stepwise(store, nn.adam_step, schedule)
    want = stepwise(dense, dense_adam_step, schedule)
    assert len(got) == len(want) == len(schedule)
    for k, ((grads, values), (oracle_grads, oracle_values)) in enumerate(
            zip(got, want)):
        for name in ("emb", "b"):
            np.testing.assert_array_equal(grads[name], oracle_grads[name],
                                          err_msg=f"{name} grad, step {k}")
            np.testing.assert_array_equal(values[name], oracle_values[name],
                                          err_msg=f"{name} value, step {k}")


def table_uses():
    """Every op that can read the (2, 1) rows gathered from a table."""
    other = nn.constant(np.ones((2, 1)))
    ones = np.ones((2, 1), dtype=np.float32)
    return {
        "add": lambda t: nn.add(t, other),
        "sub": lambda t: nn.sub(other, t),
        "mul": lambda t: nn.mul(t, other),
        "div": lambda t: nn.div(t, other),
        "matmul": lambda t: nn.matmul(nn.constant(np.ones((1, 2))), t),
        "scale": lambda t: nn.scale(t, 2.0),
        "relu": lambda t: nn.relu(t),
        "softplus": lambda t: nn.softplus(t),
        "sqrt": lambda t: nn.sqrt(t),
        "square": lambda t: nn.square(t),
        "softmax_rows": lambda t: nn.softmax_rows(t),
        "concat": lambda t: nn.concat_cols([other, t]),
        "sum_all": lambda t: nn.sum_all(t),
        "mean_all": lambda t: nn.mean_all(t),
        "sum_axis1": lambda t: nn.sum_axis1(t),
        "reshape": lambda t: nn.reshape(t, 1, 2),
        "repeat_rows": lambda t: nn.repeat_rows(t, 2),
        "segment_sum": lambda t: nn.segment_sum_rows(t, 2),
        "stop_gradient": lambda t: nn.stop_gradient(t),
        "dpca_recon": lambda t: nn.dpca_recon(ones, [t], [other]),
        "cosine_loss": lambda t: nn.cosine_loss(ones, [1.0, 1.0], t),
    }


@pytest.mark.parametrize("use", sorted(table_uses()))
@pytest.mark.parametrize("recording", [True, False])
def test_a_table_feeds_only_gather_rows(use, recording):
    """A table read through `gather_rows` by any op gets, in the rows
    gathered, the gradient the op gives a plain copy of them, and exact
    +0.0 in every other row, so Adam leaves those rows as they are. With
    recording off, the op's value is the copy's and no node keeps the
    table."""
    idx = [2, 0]
    params = nn.ParamStore()
    params.add("t", [[1.0], [5.0], [2.0], [7.0]])  # inside every op's domain
    t = params.leaves["t"]
    copy = nn.leaf(t.value[idx], requires_grad=True)
    with contextlib.nullcontext() if recording else nn._no_record():
        out = table_uses()[use](nn.gather_rows(t, idx))
        want = table_uses()[use](copy)
    np.testing.assert_array_equal(bits(out.value), bits(want.value))
    if not recording:
        assert out.inputs == () and not out.requires_grad
        assert not params.grad.any()
        return
    nn.backward(nn.sum_all(out))
    nn.backward(nn.sum_all(want))
    scattered = np.zeros_like(t.value)
    if copy.grad is not None:  # stop_gradient leaves the copy unvisited
        scattered[idx] = copy.grad
    np.testing.assert_array_equal(bits(t.grad), bits(scattered))
    assert bits(t.grad[[1, 3]]).tolist() == [[0], [0]]


def test_sid_ranker_equals_a_run_with_the_dense_oracle(monkeypatch):
    """The compact SID table against the whole grams * hash_size table as
    a dense parameter, gathered by raw hash: same predictions, same bytes
    in every shared parameter and in the table's reachable rows, at one
    row per gram, at 61 and at the collision-free size."""
    ds = rk.generate_engagement(rk.EngagementConfig(
        users=400, items=80, seq_len=6, seed=3))
    cfg = nn.FitConfig(epochs=3, batch_size=64, lr=3e-2, seed=4)
    grams = ds.scheme.grams
    for hash_size in (1, 61, ds.collision_free_size()):
        model, preds, diverged_at = rk._fit_ranker(ds, "sid", hash_size, 16,
                                                   cfg)
        assert diverged_at is None
        with monkeypatch.context() as full:
            full.setattr(rk, "ToyRankingModel", FullTableSidRanker)
            oracle, oracle_preds, _ = rk._fit_ranker(ds, "sid", hash_size, 16,
                                                     cfg)
        table = oracle.params.get("feature.table")
        assert table.shape == (grams * hash_size, 16)
        np.testing.assert_array_equal(preds, oracle_preds)
        assert model.params.names() == oracle.params.names()
        for name, value in oracle.params.items():
            if name != "feature.table":
                np.testing.assert_array_equal(bits(model.params.get(name)),
                                              bits(value), err_msg=name)
        # the compact rows are the raw rows some item hashes to, in order
        reachable = np.unique(oracle.item_rows)
        if hash_size > 1:
            assert reachable.size < grams * hash_size
        np.testing.assert_array_equal(model.item_rows,
                                      np.searchsorted(reachable,
                                                      oracle.item_rows))
        np.testing.assert_array_equal(bits(model.params.get("feature.table")),
                                      bits(table[reachable]))
