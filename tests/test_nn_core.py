"""Engine tests: forward semantics, gradients against finite differences,
Adam and stop-gradient, and row-sparse gradients.

A parameter that feeds `gather_rows` gets gradients only in the rows a
gather reached. `fit` with `adam_step` must end on the same parameter and
Adam moment bytes as `fit` with `oracles.dense_adam_step`; a row no gather
has reached keeps its value bit for bit without decay, which is what lets
the SID ranker keep only the rows some item hashes to; and the finiteness
check sees every row a gather reached.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidekit import nn_core as nn
from oracles import dense_adam_step, grad_close, numeric_grad

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
        "concat": ({"a": _rand(rng, 4, 4), "b": _rand(rng, 4, 4)},
                   lambda d: weighted(nn.concat_cols([d["a"], d["b"]]), r48)),
        "sum_all": ({"a": _rand(rng, 4, 4)},
                    lambda d: nn.sum_all(d["a"])),
        "mean_all": ({"a": _rand(rng, 4, 4)},
                     lambda d: nn.scale(nn.mean_all(d["a"]), 3.0)),
        "sum_axis1": ({"a": _rand(rng, 4, 4)},
                      lambda d: weighted(nn.sum_axis1(d["a"]), r41)),
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

    def test_relu_definition(self):
        out = nn.relu(nn.leaf([[-1.0, 2.0]]))
        np.testing.assert_array_equal(out.value, [[0.0, 2.0]])

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

    @pytest.mark.parametrize("epoch", [0, 1])
    def test_an_epoch_ending_in_a_non_finite_parameter_diverges(self, epoch):
        # the loss never reaches "unused": its gradient stays zero, so only
        # the epoch-end check can see the NaN the epoch's last step leaves
        params = _store(w=np.ones((1, 2)), unused=np.ones((1, 2)))
        calls = []
        kept = {}

        def step(idx):
            calls.append(1)
            if len(calls) == 2 * epoch + 1:  # the epoch's first step
                kept["flat"] = params.flat.copy()
            if len(calls) == 2 * epoch + 2:  # and its last
                params.get("unused")[0, 1] = np.nan
            return nn.sum_all(nn.square(params.leaves["w"])), {"t": 1.0}

        args = (params, 4, step, np.random.default_rng(0),
                nn.FitConfig(epochs=3, batch_size=2, lr=0.1, seed=0))
        if epoch == 0:
            with pytest.raises(nn.TrainingDiverged,
                               match="epoch 0: node 'unused': non-finite"):
                nn.fit(*args, weight_decay=0.0)
        else:
            rows, diverged_at = nn.fit(*args, weight_decay=0.0)
            assert diverged_at == 1 and rows == [{"epoch": 0, "t": 1.0}]
            np.testing.assert_array_equal(params.flat, kept["flat"])
            assert np.isfinite(params.flat).all()


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("epoch", [0, 1])
    def test_each_non_finite_kind_at_an_epoch_end_is_caught(self, bad, epoch):
        # the epoch-end check reads min and max; NaN, +inf and -inf in a
        # middle parameter that no loss reaches must each roll back
        params = _store(w=np.ones((1, 2)), unused=np.ones((2, 3)),
                        last=np.ones((1, 1)))
        calls = []

        def step(idx):
            calls.append(1)
            if len(calls) == epoch + 1:
                params.get("unused")[1, 2] = bad
            return nn.sum_all(nn.square(params.leaves["w"])), {}

        args = (params, 2, step, np.random.default_rng(0),
                nn.FitConfig(epochs=3, batch_size=2, lr=0.1, seed=0))
        if epoch == 0:
            with pytest.raises(nn.TrainingDiverged,
                               match="node 'unused': non-finite parameter"):
                nn.fit(*args, weight_decay=0.0)
        else:
            rows, diverged_at = nn.fit(*args, weight_decay=0.0)
            assert diverged_at == 1 and len(rows) == 1
            assert np.isfinite(params.flat).all()


class TestDeferredCheck:
    """`fit` builds each step's graph with per-op checks off, checks the
    loss, and builds a failing step again with checks on."""

    @staticmethod
    def poisoned_step(params, poison_at, draws=None, rng=None):
        calls = []

        def step(idx):
            calls.append(1)
            if rng is not None:
                draws.append(rng.random())
            if len(calls) == poison_at:
                params.get("w")[0, 1] = np.nan
            p = params.leaves
            h = nn.relu(nn.matmul(nn.constant(np.ones((2, 2))), p["w"]))
            return nn.mean_all(nn.square(nn.add(h, p["b"]))), {}
        return step, calls

    def test_checks_are_off_only_while_a_step_builds_its_graph(self):
        params = _store(w=np.ones((1, 2)))
        seen = []

        def step(idx):
            seen.append(nn._checking)
            with nn._no_record():
                seen.append(nn._checking)
            seen.append(nn._checking)
            return nn.sum_all(nn.square(params.leaves["w"])), {}

        nn.fit(params, 2, step, np.random.default_rng(0),
               nn.FitConfig(epochs=1, batch_size=1, lr=0.1, seed=0),
               weight_decay=0.0)
        assert seen == [False, True, False] * 2 and nn._checking
        with pytest.raises(nn.NonFiniteError):
            nn.sqrt(nn.leaf([[-1.0]]))

    def test_a_failing_step_raises_the_per_op_error_once_rebuilt(self):
        # the NaN in w shows first in the matmul: the error names that
        # node, numbered as in the unchecked build, after one re-run that
        # drew the same random numbers
        params = _store(w=np.ones((2, 2)), b=np.zeros((1, 2)))
        rng = np.random.default_rng(0)
        draws = []
        step, calls = self.poisoned_step(params, 2, draws, rng)
        with pytest.raises(nn.TrainingDiverged) as exc:
            nn.fit(params, 4, step, rng,
                   nn.FitConfig(epochs=1, batch_size=2, lr=0.1, seed=0),
                   weight_decay=0.0)
        assert len(calls) == 3 and draws[1] == draws[2] != draws[0]
        # one step builds leaf, matmul, relu, add, square and mean
        assert str(exc.value) == ("diverged in epoch 0: node 'matmul#7': "
                                  "non-finite output at batch row 0")

    def test_a_non_finite_gradient_names_the_node_per_op_checks_name(self):
        # relu(-inf) is 0, so the loss is finite, but the mul's backward
        # gives w the gradient 0 * -inf = NaN: Adam finds it, and the
        # checked re-run names the -inf constant, as per-op checks did
        params = _store(w=np.ones((1, 1)))
        calls = []

        def step(idx):
            calls.append(1)
            x = nn.constant([[-np.inf]])
            return nn.sum_all(nn.relu(nn.mul(x, params.leaves["w"]))), {}

        with pytest.raises(nn.TrainingDiverged,
                           match="node 'leaf#0': non-finite output"):
            nn.fit(params, 1, step, np.random.default_rng(0),
                   nn.FitConfig(epochs=1, batch_size=1, lr=0.1, seed=0),
                   weight_decay=0.0)
        assert len(calls) == 2
        np.testing.assert_array_equal(params.get("w"), [[1.0]])

    def test_an_error_of_the_step_itself_is_raised_after_the_rerun(self):
        params = _store(w=np.ones((1, 1)))
        calls = []

        def step(idx):
            calls.append(1)
            raise KeyError("no such feature")

        with pytest.raises(KeyError, match="no such feature"):
            nn.fit(params, 1, step, np.random.default_rng(0),
                   nn.FitConfig(epochs=1, batch_size=1, lr=0.1, seed=0),
                   weight_decay=0.0)
        assert len(calls) == 2 and nn._checking

    def test_a_value_that_vanishes_before_the_loss_no_longer_stops_training(
            self):
        # the one behaviour per-op checks had and the deferred check has
        # not: relu(-inf) is 0, the loss and every gradient stay finite
        params = _store(w=np.ones((1, 2)))

        def step(idx):
            gone = nn.sum_all(nn.relu(nn.constant([[-np.inf]])))
            return nn.add(nn.sum_all(nn.square(params.leaves["w"])), gone), {}

        with pytest.raises(nn.NonFiniteError, match="leaf"):
            step(None)  # outside fit, the -inf leaf raises as it is made
        rows, diverged_at = nn.fit(
            params, 2, step, np.random.default_rng(0),
            nn.FitConfig(epochs=2, batch_size=1, lr=0.1, seed=0),
            weight_decay=0.0)
        assert diverged_at is None and len(rows) == 2
        assert np.isfinite(params.flat).all()


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

    @pytest.mark.parametrize("lr", [np.nan, np.inf])
    def test_lr_must_be_finite(self, lr):
        with pytest.raises(ValueError, match="positive and finite"):
            nn.AdamState(lr=lr)


# ---------------------------------------------------------------------------
# Row-sparse gradients against the whole-buffer Adam oracle


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
        "concat": lambda t: nn.concat_cols([other, t]),
        "sum_all": lambda t: nn.sum_all(t),
        "mean_all": lambda t: nn.mean_all(t),
        "sum_axis1": lambda t: nn.sum_axis1(t),
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
