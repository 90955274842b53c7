"""Engine tests: forward semantics, gradients against finite differences,
Adam and stop-gradient."""

import numpy as np
import pytest

from sidekit import nn_core as nn
from oracles import grad_close, numeric_grad

RNG_SEEDS = range(10)  # the acceptance suite re-runs the fd sweep at 100 seeds


def _leafdict(arrays):
    return {k: nn.leaf(v, k, requires_grad=True) for k, v in arrays.items()}


# Scenario builders: name -> (input arrays factory, scalar loss builder).
# Losses multiply by a fixed random matrix so every entry of the output
# contributes a distinct gradient.


def _rand(rng, *shape):
    return rng.normal(size=shape).astype(np.float32)


def op_scenarios(seed):
    rng = np.random.default_rng(seed)
    r44 = _rand(rng, 4, 4)
    r41 = _rand(rng, 4, 1)
    r48 = _rand(rng, 4, 8)
    r24 = _rand(rng, 2, 4)

    def weighted(node, w):
        return nn.sum_all(nn.mul(node, nn.constant(w)))

    # relu inputs stay clear of the kink: fd across a non-differentiable
    # point is meaningless at any tolerance
    relu_in = _rand(rng, 4, 4)
    relu_in[np.abs(relu_in) < 0.05] = 0.1
    # sqrt and the div denominator need positive inputs with headroom for
    # the +-h probe
    pos = np.abs(_rand(rng, 4, 4)) + 0.5

    idx = rng.integers(0, 4, size=6)
    return {
        "matmul": ({"a": _rand(rng, 4, 3), "b": _rand(rng, 3, 4)},
                   lambda d: weighted(nn.matmul(d["a"], d["b"]), r44)),
        "add": ({"a": r44.copy(), "b": _rand(rng, 4, 4)},
                lambda d: weighted(nn.add(d["a"], d["b"]), r44)),
        "add_rowbcast": ({"a": _rand(rng, 4, 4), "b": _rand(rng, 1, 4)},
                         lambda d: weighted(nn.add(d["a"], d["b"]), r44)),
        "sub": ({"a": _rand(rng, 4, 4), "b": _rand(rng, 4, 4)},
                lambda d: weighted(nn.sub(d["a"], d["b"]), r44)),
        "mul": ({"a": _rand(rng, 4, 4), "b": _rand(rng, 4, 4)},
                lambda d: weighted(nn.mul(d["a"], d["b"]), r44)),
        "mul_colbcast": ({"a": _rand(rng, 4, 4), "b": _rand(rng, 4, 1)},
                         lambda d: weighted(nn.mul(d["a"], d["b"]), r44)),
        "mul_outer": ({"a": _rand(rng, 1, 4), "b": _rand(rng, 4, 1)},
                      lambda d: weighted(nn.mul(d["a"], d["b"]), r44)),
        "div": ({"a": _rand(rng, 4, 4), "b": pos.copy()},
                lambda d: weighted(nn.div(d["a"], d["b"]), r44)),
        "scale": ({"a": _rand(rng, 4, 4)},
                  lambda d: weighted(nn.scale(d["a"], 1.7), r44)),
        "relu": ({"a": relu_in},
                 lambda d: weighted(nn.relu(d["a"]), r44)),
        "softplus": ({"a": _rand(rng, 4, 4)},
                     lambda d: weighted(nn.softplus(d["a"]), r44)),
        "sqrt": ({"a": pos.copy()},
                 lambda d: weighted(nn.sqrt(d["a"]), r44)),
        "square": ({"a": _rand(rng, 4, 4)},
                   lambda d: weighted(nn.square(d["a"]), r44)),
        "softmax_rows": ({"a": _rand(rng, 4, 4)},
                         lambda d: weighted(nn.softmax_rows(d["a"]), r44)),
        "log_softmax_rows": ({"a": _rand(rng, 4, 4)},
                             lambda d: weighted(nn.log_softmax_rows(d["a"]), r44)),
        "concat": ({"a": _rand(rng, 4, 4), "b": _rand(rng, 4, 4)},
                   lambda d: weighted(nn.concat_cols([d["a"], d["b"]]), r48)),
        "sum_all": ({"a": _rand(rng, 4, 4)},
                    lambda d: nn.sum_all(d["a"])),
        "mean_all": ({"a": _rand(rng, 4, 4)},
                     lambda d: nn.scale(nn.mean_all(d["a"]), 3.0)),
        "sum_axis1": ({"a": _rand(rng, 4, 4)},
                      lambda d: weighted(nn.sum_axis1(d["a"]), r41)),
        "reshape": ({"a": _rand(rng, 2, 8)},
                    lambda d: weighted(nn.reshape(d["a"], 4, 4), r44)),
        "repeat_rows": ({"a": _rand(rng, 2, 4)},
                        lambda d: weighted(nn.repeat_rows(d["a"], 2), r44)),
        "segment_sum": ({"a": _rand(rng, 4, 4)},
                        lambda d: weighted(nn.segment_sum_rows(d["a"], 2), r24)),
        "gather": ({"t": _rand(rng, 4, 4)},
                   lambda d: weighted(nn.gather_rows(d["t"], idx),
                                      _rand(np.random.default_rng(0), 6, 4))),
    }


def run_fd_sweep(seeds):
    """Check every differentiable op against central differences."""
    failures = []
    for seed in seeds:
        for opname, (arrays, build) in op_scenarios(seed).items():
            def loss_value(arrs):
                leaves = _leafdict(arrs)
                return float(build(leaves).value[0, 0])

            leaves = _leafdict(arrays)
            loss = build(leaves)
            nn.backward(loss)
            for key in arrays:
                numeric = numeric_grad(loss_value, arrays, key)
                if not grad_close(leaves[key].grad, numeric):
                    failures.append((opname, seed, key))
    return failures


class TestForward:
    def test_matmul_identity(self):
        b = nn.leaf([[1.0, 2.0], [3.0, 4.0]])
        out = nn.matmul(nn.leaf(np.eye(2)), b)
        np.testing.assert_array_equal(out.value, [[1.0, 2.0], [3.0, 4.0]])

    def test_softmax_symmetry(self):
        out = nn.softmax_rows(nn.leaf([[0.0, 0.0]]))
        np.testing.assert_allclose(out.value, [[0.5, 0.5]])

    def test_relu_definition(self):
        out = nn.relu(nn.leaf([[-1.0, 2.0]]))
        np.testing.assert_array_equal(out.value, [[0.0, 2.0]])

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        out = nn.softmax_rows(nn.leaf(rng.normal(size=(8, 5)) * 10))
        assert np.all(out.value >= 0)
        np.testing.assert_allclose(out.value.sum(axis=1), 1.0, atol=1e-6)

    def test_forward_deterministic(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(6, 6)).astype(np.float32)
        w = rng.normal(size=(6, 6)).astype(np.float32)

        def run():
            return nn.softplus(nn.matmul(nn.leaf(x), nn.leaf(w))).value

        first = run()
        for _ in range(3):
            np.testing.assert_array_equal(run(), first)

    def test_shape_mismatch_names_node(self):
        with pytest.raises(nn.GraphError, match="matmul"):
            nn.matmul(nn.leaf(np.ones((2, 3))), nn.leaf(np.ones((2, 3))))

    def test_nonfinite_leaf_raises(self):
        bad = np.ones((3, 2), dtype=np.float32)
        bad[1, 0] = np.nan
        with pytest.raises(nn.NonFiniteError, match="row 1"):
            nn.leaf(bad, "x")

    def test_nonfinite_op_output(self):
        a = nn.leaf([[-1.0, 1.0]])
        with pytest.raises(nn.NonFiniteError, match="sqrt"):
            nn.sqrt(a)


class TestNoRecord:
    def test_node_keeps_no_inputs_or_backward(self):
        x = nn.leaf(np.ones((4, 3)), "x")
        w = nn.leaf(np.full((3, 2), 0.5), "w", requires_grad=True)
        with nn._no_record():
            y = nn.relu(nn.matmul(x, w))
        assert y.inputs == () and y._backward is None
        assert not y.requires_grad
        recorded = nn.relu(nn.matmul(x, w))
        np.testing.assert_array_equal(y.value, recorded.value)
        assert recorded.inputs and recorded._backward is not None

    def test_still_checks_finiteness_and_restores_recording(self):
        with pytest.raises(nn.NonFiniteError, match="sqrt"):
            with nn._no_record():
                nn.sqrt(nn.leaf([[-1.0, 1.0]]))
        w = nn.leaf(np.ones((2, 2)), "w", requires_grad=True)
        assert nn.scale(w, 2.0)._backward is not None


class TestBackward:
    def test_linear_map_gradient(self):
        w = nn.leaf(np.ones((2, 2)), "W", requires_grad=True)
        x = nn.leaf([[1.0], [1.0]], "x")
        loss = nn.sum_all(nn.matmul(w, x))
        nn.backward(loss)
        np.testing.assert_array_equal(w.grad, [[1.0, 1.0], [1.0, 1.0]])

    def test_zero_loss_zero_grads(self):
        w = nn.leaf(np.random.default_rng(0).normal(size=(3, 3)),
                    requires_grad=True)
        loss = nn.scale(nn.sum_all(nn.square(w)), 0.0)
        nn.backward(loss)
        np.testing.assert_array_equal(w.grad, np.zeros((3, 3)))

    def test_loss_must_be_scalar(self):
        w = nn.leaf(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(nn.GraphError, match="1x1"):
            nn.backward(nn.square(w))

    def test_fd_sweep_small(self):
        failures = run_fd_sweep(RNG_SEEDS)
        assert not failures, f"fd mismatches: {failures}"

    def test_adds_into_existing_gradients_and_fresh_nodes_start_at_zero(self):
        params = _store(w=np.ones((2, 2)))
        w = params.leaves["w"]
        params.grad.fill(5.0)
        hidden = nn.scale(w, 3.0)
        nn.backward(nn.sum_all(hidden))
        np.testing.assert_array_equal(params.grad, np.full(4, 8.0))
        assert np.shares_memory(w.grad, params.grad)
        np.testing.assert_array_equal(hidden.grad, np.ones((2, 2)))

    def test_reused_node_accumulates(self):
        x = nn.leaf([[2.0]], requires_grad=True)
        loss = nn.sum_all(nn.add(nn.square(x), nn.scale(x, 3.0)))
        nn.backward(loss)
        np.testing.assert_allclose(x.grad, [[2 * 2.0 + 3.0]])


class TestStopGradient:
    def test_forward_identity_bitwise(self):
        v = nn.leaf(np.random.default_rng(1).normal(size=(3, 4)))
        out = nn.stop_gradient(v)
        assert out.value is v.value

    def test_zero_upstream_gradient(self):
        x = nn.leaf(np.ones((2, 2)), requires_grad=True)
        loss = nn.sum_all(nn.mul(nn.stop_gradient(x), x))
        nn.backward(loss)
        # only the direct factor contributes: d(sg(x) * x)/dx = sg(x) = 1
        np.testing.assert_array_equal(x.grad, np.ones((2, 2)))

    def test_straight_through_identity(self):
        rng = np.random.default_rng(2)
        h = nn.leaf(rng.normal(size=(3, 4)), requires_grad=True)
        h_hat = nn.leaf(rng.normal(size=(3, 4)))
        s = nn.sub(h, nn.stop_gradient(nn.sub(h, h_hat)))
        np.testing.assert_allclose(s.value, h_hat.value, atol=1e-7)
        w = rng.normal(size=(3, 4)).astype(np.float32)
        nn.backward(nn.sum_all(nn.mul(s, nn.constant(w))))
        np.testing.assert_allclose(h.grad, w, atol=1e-7)

    def test_backward_through_stop_gradient_alone(self):
        x = nn.leaf(np.ones((2, 2)), requires_grad=True)
        loss = nn.sum_all(nn.stop_gradient(nn.square(x)))
        nn.backward(loss)
        assert x.grad is None or np.all(x.grad == 0)


def _store(**arrays):
    params = nn.ParamStore()
    for name, arr in arrays.items():
        params.add(name, arr)
    return params


class TestParamStore:
    SHAPES = {"a": (2, 3), "b": (1, 4), "c": (3, 1), "d": (2, 2)}

    def test_views_alias_flat_and_grad_after_every_add(self):
        rng = np.random.default_rng(0)
        params = nn.ParamStore()
        arrays = {}
        for name, shape in self.SHAPES.items():
            arrays[name] = _rand(rng, *shape)
            params.add(name, arrays[name])
            assert params.flat.size == params.grad.size == \
                sum(a.size for a in arrays.values())
            for n, want in arrays.items():
                leaf = params.leaves[n]
                assert params.get(n) is leaf.value
                assert np.shares_memory(leaf.value, params.flat)
                assert np.shares_memory(leaf.grad, params.grad)
                np.testing.assert_array_equal(leaf.value, want)
            # registration order, each parameter row-major
            params.flat[:] = np.arange(params.flat.size)
            params.grad[:] = -np.arange(params.grad.size)
            np.testing.assert_array_equal(
                np.concatenate([params.get(n).ravel() for n in arrays]),
                params.flat)
            np.testing.assert_array_equal(
                np.concatenate([params.leaves[n].grad.ravel()
                                for n in arrays]), params.grad)
            for n in arrays:
                params.set(n, arrays[n])

    def test_dense_parameters_come_first_then_tables(self):
        # registration order: t1 (table), a, t2 (table), b, c
        tables = {"t1": (3, 2), "t2": (4, 1)}
        order = ["t1", "a", "t2", "b", "c"]
        params = nn.ParamStore(seed=2)
        for i, name in enumerate(order):
            if name in tables:
                params.table(name, *tables[name])
            else:
                params.add(name, np.full(self.SHAPES[name], float(i)))
            done = order[:i + 1]
            layout = ([n for n in done if n not in tables]
                      + [n for n in done if n in tables])
            assert params.names() == done
            assert [n for n, _ in params.items()] == done
            params.flat[:] = np.arange(params.flat.size)
            params.grad[:] = -np.arange(params.grad.size)
            np.testing.assert_array_equal(
                np.concatenate([params.get(n).ravel() for n in layout]),
                params.flat)
            np.testing.assert_array_equal(
                np.concatenate([params.leaves[n].grad.ravel()
                                for n in layout]), params.grad)
        assert params.leaves["a"].rows is None
        assert params.leaves["t2"].rows.shape == (4,)

    def test_set_rejects_another_shape_and_changes_nothing(self):
        params = _store(a=np.ones((2, 3)), b=np.ones((1, 4)))
        before = params.flat.copy()
        # a (1, 3) row would broadcast into the (2, 3) parameter
        for bad in (np.zeros((1, 3)), np.zeros((3, 2)), np.zeros(6)):
            with pytest.raises(nn.GraphError, match="'a'.*shape"):
                params.set("a", bad)
        np.testing.assert_array_equal(params.flat, before)
        params.set("b", np.full((1, 4), 2.0))
        np.testing.assert_array_equal(params.flat, [1.0] * 6 + [2.0] * 4)


class TestFit:
    def test_unreached_parameter_gets_a_zero_gradient(self, monkeypatch):
        # batch 0 reaches a and b, batch 1 reaches only a: Adam must see a
        # zero gradient for b in step 1, not the one left from step 0
        params = _store(a=np.ones((1, 2)), b=np.ones((1, 2)))
        seen = []
        adam_step = nn.adam_step

        def spy(state, store):
            seen.append(store.leaves["b"].grad.copy())
            return adam_step(state, store)

        monkeypatch.setattr(nn, "adam_step", spy)

        def step(idx):
            p = params.leaves
            used = [p["a"], p["b"]] if len(seen) == 0 else [p["a"]]
            total = nn.sum_all(nn.square(used[0]))
            for node in used[1:]:
                total = nn.add(total, nn.sum_all(nn.square(node)))
            return total, {}

        nn.fit(params, 2, step, np.random.default_rng(0),
               nn.FitConfig(epochs=1, batch_size=1, lr=0.1, seed=0),
               weight_decay=0.0)
        assert len(seen) == 2
        np.testing.assert_array_equal(seen[0], [[2.0, 2.0]])
        np.testing.assert_array_equal(seen[1], [[0.0, 0.0]])


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        p = _store(w=np.full((2, 2), 5.0, dtype=np.float32))
        state = nn.AdamState(lr=0.1)
        nn.adam_step(state, p)
        np.testing.assert_array_equal(p.get("w"), np.full((2, 2), 5.0))
        assert state.step == 1

    def test_first_step_bias_corrected(self):
        # g=1, lr=0.1: mhat=1, vhat=1, step = lr/(1+eps) ~ 0.1
        p = _store(w=np.zeros((1, 1), dtype=np.float32))
        p.grad[...] = 1.0
        state = nn.AdamState(lr=0.1)
        nn.adam_step(state, p)
        np.testing.assert_allclose(p.get("w"), [[-0.1]], atol=1e-7)

    def test_identical_params_stay_identical(self):
        rng = np.random.default_rng(0)
        g = rng.normal(size=(3, 3)).astype(np.float32)
        p = _store(a=np.ones((3, 3), dtype=np.float32),
                   b=np.ones((3, 3), dtype=np.float32))
        state = nn.AdamState(lr=1e-3)
        for _ in range(5):
            p.leaves["a"].grad[...] = g
            p.leaves["b"].grad[...] = g
            nn.adam_step(state, p)
        np.testing.assert_array_equal(p.get("a"), p.get("b"))

    def test_nonfinite_gradient_names_param(self):
        p = _store(w=np.zeros((1, 1), dtype=np.float32))
        p.grad[...] = np.nan
        with pytest.raises(nn.NonFiniteError, match="'w'"):
            nn.adam_step(nn.AdamState(lr=1e-3), p)

    def test_nonfinite_gradient_updates_nothing(self):
        p = _store(a=np.ones((1, 1), dtype=np.float32),
                   b=np.ones((1, 1), dtype=np.float32))
        state = nn.AdamState(lr=0.1)
        p.leaves["a"].grad[...] = 1.0
        p.leaves["b"].grad[...] = np.nan
        with pytest.raises(nn.NonFiniteError, match="'b'"):
            nn.adam_step(state, p)
        np.testing.assert_array_equal(p.get("a"), [[1.0]])
        assert state.step == 0 and state.m is None

    def test_nonfinite_entry_in_a_middle_parameter(self):
        # after a good step the moments are non-zero; a bad entry inside
        # the middle parameter names it and changes no parameter or moment
        rng = np.random.default_rng(3)
        p = _store(a=_rand(rng, 2, 3), mid=_rand(rng, 3, 4), c=_rand(rng, 1, 2))
        state = nn.AdamState(lr=0.1)
        p.grad[...] = _rand(rng, p.grad.size)
        nn.adam_step(state, p)
        before = (p.flat.copy(), state.m.copy(), state.v.copy())
        p.grad[...] = _rand(rng, p.grad.size)
        p.leaves["mid"].grad[1, 2] = np.inf
        with pytest.raises(nn.NonFiniteError, match="'mid'"):
            nn.adam_step(state, p)
        for got, want in zip((p.flat, state.m, state.v), before):
            np.testing.assert_array_equal(got, want)
        assert state.step == 1

    def test_lr_must_be_positive(self):
        with pytest.raises(ValueError):
            nn.AdamState(lr=0.0)
