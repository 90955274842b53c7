"""Row-sparse embedding tables against the whole-buffer Adam oracle.

`fit` with the row-sparse `adam_step` must end on the same parameter and
Adam moment bytes as `fit` with `oracles.dense_adam_step` on a store that
registers every array as a dense parameter; the finiteness check still
sees every row a gather reached; and a table feeds only `gather_rows`.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidekit import nn_core as nn
from sidekit import ranking as rk
from oracles import dense_adam_step


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


# (is a table, rows, cols) per parameter, in registration order
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
    sparse, dense = nn.ParamStore(), nn.ParamStore()
    for name, (table, _, _), arr in zip(names, specs, arrays):
        if table:
            sparse.table(name, *arr.shape)
            sparse.set(name, arr)
        else:
            sparse.add(name, arr)
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
    got = run_fit(sparse, losses, nn.adam_step)
    want = run_fit(dense, losses, dense_adam_step)
    assert got.step == want.step
    for buf_got, buf_want in ((sparse.flat, dense.flat), (got.m, want.m),
                              (got.v, want.v)):
        views_got, views_want = per_name(sparse, buf_got), per_name(dense,
                                                                    buf_want)
        for name in names:
            np.testing.assert_array_equal(bits(views_got[name]),
                                          bits(views_want[name]), err_msg=name)


def gathered_store():
    params = nn.ParamStore(seed=1)
    params.weight("w", 2, 3)
    params.table("emb", 6, 3)
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


def test_marks_are_the_rows_gathered_and_only_they_move_without_decay():
    params = gathered_store()
    table = params.get("emb").copy()
    nn.fit(params, 2, lambda idx: (gather_loss(params, [[0, 3], [3]][idx[0]]),
                                   {}),
           np.random.default_rng(0),
           nn.FitConfig(epochs=3, batch_size=1, lr=0.1, seed=0),
           weight_decay=0.0)
    assert params.touched_rows("emb").tolist() == [0, 3]
    moved = (params.get("emb") != table).any(axis=1)
    assert moved.tolist() == [True, False, False, True, False, False]
    with pytest.raises(KeyError, match="'w' is not a table"):
        params.touched_rows("w")


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
    sparse, dense = nn.ParamStore(), nn.ParamStore()
    sparse.table("emb", 4, 2)
    sparse.set("emb", emb)
    dense.add("emb", emb)
    for params in (sparse, dense):
        params.add("b", [[0.5, -1.0]])
    got = stepwise(sparse, nn.adam_step, schedule)
    want = stepwise(dense, dense_adam_step, schedule)
    assert len(got) == len(want) == len(schedule)
    for k, ((grads, values), (oracle_grads, oracle_values)) in enumerate(
            zip(got, want)):
        for name in ("emb", "b"):
            np.testing.assert_array_equal(grads[name], oracle_grads[name],
                                          err_msg=f"{name} grad, step {k}")
            np.testing.assert_array_equal(values[name], oracle_values[name],
                                          err_msg=f"{name} value, step {k}")
    assert sparse.touched_rows("emb").tolist() == [0, 1, 2]
    # a backward with no Adam step after it marks row 3; zeroing sees it
    nn.backward(nn.sum_all(nn.gather_rows(sparse.leaves["emb"], [3])))
    sparse._zero_grad()
    assert not sparse.grad.any()


def test_a_table_needs_a_column():
    with pytest.raises(nn.GraphError, match="'t'.*at least one column"):
        nn.ParamStore().table("t", 3, 0)


def table_uses():
    """Every way to pass the table leaf `t` to something but gather_rows."""
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
    params = nn.ParamStore()
    params.table("t", 2, 1)
    params.set("t", [[1.0], [2.0]])  # inside every op's domain
    t = params.leaves["t"]
    with contextlib.nullcontext() if recording else nn._no_record():
        with pytest.raises(nn.GraphError, match="table 't'.*gather_rows"):
            table_uses()[use](t)
        # a gathered copy is an ordinary node
        table_uses()[use](nn.gather_rows(t, [0, 1]))
    assert not t.rows.any()


def test_a_table_is_no_loss():
    params = nn.ParamStore()
    params.table("t", 1, 1)
    with pytest.raises(nn.GraphError, match="table 't'.*gather_rows"):
        nn.backward(params.leaves["t"])


def test_sid_ranker_equals_a_run_with_the_dense_oracle(monkeypatch):
    ds = rk.generate_engagement(rk.EngagementConfig(
        users=400, items=80, seq_len=6, seed=3))
    cfg = nn.FitConfig(epochs=3, batch_size=64, lr=3e-2, seed=4)
    model, preds, diverged_at = rk._fit_ranker(ds, "sid", 61, 16, cfg)
    assert diverged_at is None
    # the run leaves some rows of the 2 x 61-row table ungathered
    assert 0 < model.feature_rows_trained() < 122
    monkeypatch.setattr(nn, "adam_step", dense_adam_step)
    oracle, oracle_preds, _ = rk._fit_ranker(ds, "sid", 61, 16, cfg)
    np.testing.assert_array_equal(preds, oracle_preds)
    for name, value in oracle.params.items():
        np.testing.assert_array_equal(bits(model.params.get(name)),
                                      bits(value), err_msg=name)
