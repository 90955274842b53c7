"""Fused graph ops against independent references. `dpca_recon`,
`cosine_loss` and `gather_rows` match the primitive-op chains they
replace, values and gradients bit for bit, and whole fusion and ranker
training runs with those chains swapped back in end on the same
parameter bytes. `pooled_attention` matches a float64 oracle within a
bound derived from float32 rounding, and the oracle matches the scalar
`naive_pma` and central differences. Also: the NonFiniteError each op
raises, the DPCA digit step against fsq_quantize, and a one-row lookup
against np.take and a row-wise scatter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidekit import fusion_vae as fv
from sidekit import nn_core as nn
from sidekit import quantizers as q
from sidekit import ranking as rk
from oracles import (chain_cosine_loss, chain_dpca_recon, chain_dpca_stack,
                     chain_gather_rows, float64_pooled_attention,
                     fsq_dpca_encode, naive_pma, numeric_grad,
                     row_scatter_add, sum_all)


def bits(a):
    """The float32 bit patterns of `a`, so -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a, dtype=np.float32).view(np.uint32)


def assert_same_bits(a, b):
    np.testing.assert_array_equal(bits(a), bits(b))


def upstream(rng, shape):
    """A weight matrix with exact zeros and negative zeros in it."""
    w = rng.normal(size=shape).astype(np.float32)
    w[rng.random(shape) < 0.2] = 0.0
    w[rng.random(shape) < 0.1] = -0.0
    return w


class TestDpcaRecon:
    @settings(max_examples=80, deadline=None)
    @given(batch=st.integers(1, 40), groups=st.integers(1, 4),
           depth=st.integers(1, 4), width=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1))
    def test_value_and_gradients_match_the_chain(self, batch, groups, depth,
                                                 width, seed):
        """The one stacked node against `chain_dpca_recon` run per group
        over per-row leaves that hold the same values, the groups'
        outputs side by side: every value bit and every gradient row."""
        rng = np.random.default_rng(seed)
        rows = groups * depth
        signs = rng.integers(-1, 2, size=(batch, rows)).astype(np.int8)
        signs[:, rng.integers(rows)] = 0  # one all-zero digit column
        comps = rng.normal(size=(rows, width)).astype(np.float32)
        offs = rng.normal(size=(rows, width)).astype(np.float32)
        offs[0, 0] = 0.0
        w = nn.constant(upstream(rng, (batch, groups * width)))

        u = nn.leaf(comps, requires_grad=True)
        b = nn.leaf(offs, requires_grad=True)
        out = nn.dpca_recon(signs, u, b, groups)
        nn.backward(sum_all(nn.mul(out, w)))

        us = [nn.leaf(row[None], requires_grad=True) for row in comps]
        bs = [nn.leaf(row[None], requires_grad=True) for row in offs]
        parts = [chain_dpca_recon(signs[:, g * depth:(g + 1) * depth],
                                  us[g * depth:(g + 1) * depth],
                                  bs[g * depth:(g + 1) * depth])
                 for g in range(groups)]
        chain = parts[0] if groups == 1 else nn.concat_cols(parts)
        nn.backward(sum_all(nn.mul(chain, w)))

        assert_same_bits(out.value, chain.value)
        for r in range(rows):
            assert_same_bits(u.grad[r:r + 1], us[r].grad)
            assert_same_bits(b.grad[r:r + 1], bs[r].grad)

    def test_is_one_node_over_its_parameters(self):
        u = nn.leaf(np.ones((6, 3)), "u", requires_grad=True)
        b = nn.leaf(np.zeros((6, 3)), "b", requires_grad=True)
        out = nn.dpca_recon(np.zeros((4, 6)), u, b, 2)
        assert out.name.startswith("dpca_recon#")
        assert out.inputs == (u, b) and out.shape == (4, 6)

    @pytest.mark.parametrize("digits, offs, groups", [
        ((4, 5), (6, 3), 2),  # a digit count that is not groups * depth
        ((4, 6), (6, 2), 2),  # offsets not shaped as the components
        ((4, 6), (5, 3), 2),
        ((4, 6), (6, 3), 4),  # 4 groups do not divide 6 rows
        ((4, 6), (6, 3), 0)])
    def test_rejects_a_stack_its_digits_do_not_fit(self, digits, offs,
                                                   groups):
        u = nn.leaf(np.ones((6, 3)))
        with pytest.raises(nn.GraphError, match="dpca_recon"):
            nn.dpca_recon(np.zeros(digits), u, nn.leaf(np.ones(offs)), groups)

    def test_overflow_names_the_node_and_first_bad_row(self):
        big = np.full((1, 2), 3e38, dtype=np.float32)
        u, b = nn.leaf(big, requires_grad=True), nn.leaf(big, requires_grad=True)
        signs = np.array([[0], [-1], [1], [1]])  # s*u + b overflows at s = 1
        with pytest.raises(nn.NonFiniteError) as exc:
            nn.dpca_recon(signs, u, b, 1)
        assert exc.value.node.startswith("dpca_recon#") and exc.value.row == 2


class TestCosineLoss:
    @settings(max_examples=60, deadline=None)
    @given(batch=st.integers(1, 9), dim=st.integers(1, 8),
           weight=st.sampled_from([1.0, 0.37, 0.0, -2.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_value_and_gradient_match_the_chain(self, batch, dim, weight,
                                                seed):
        rng = np.random.default_rng(seed)
        target = rng.normal(size=(batch, dim)).astype(np.float32)
        target[:, 0] = np.where(target[:, 0] == 0, 1.0, target[:, 0])
        norms = np.linalg.norm(target, axis=1)
        recon = rng.normal(size=(batch, dim)).astype(np.float32)
        recon[rng.random(batch) < 0.3] = 0.0  # cold-start all-zero rows

        def run(op):
            r = nn.leaf(recon, requires_grad=True)
            loss = op(target, norms, r)
            nn.backward(nn.scale(loss, weight))
            return loss.value, r.grad

        value, grad = run(nn.cosine_loss)
        chain_value, chain_grad = run(chain_cosine_loss)
        assert_same_bits(value, chain_value)
        assert_same_bits(grad, chain_grad)

    def test_is_one_node(self):
        r = nn.leaf(np.ones((3, 4)), requires_grad=True)
        loss = nn.cosine_loss(np.ones((3, 4)), np.full(3, 2.0), r)
        assert loss.name.startswith("cosine_loss#") and loss.inputs == (r,)

    def test_squared_norm_overflow_names_the_node_and_row(self):
        # every entry is finite, but |r|^2 overflows float32 on row 2
        recon = np.ones((4, 3), dtype=np.float32)
        recon[2] = 2e19
        target = np.ones((4, 3), dtype=np.float32)
        norms = np.linalg.norm(target, axis=1)
        with pytest.raises(nn.NonFiniteError) as chain:
            chain_cosine_loss(target, norms, nn.leaf(recon))
        assert chain.value.node.startswith("square#") and chain.value.row == 2
        with pytest.raises(nn.NonFiniteError) as fused:
            nn.cosine_loss(target, norms, nn.leaf(recon))
        assert fused.value.node.startswith("cosine_loss#")
        assert fused.value.row == 2
        assert "row 2" in str(fused.value)

    def test_nonfinite_target_names_its_row(self):
        target = np.ones((3, 2), dtype=np.float32)
        target[1, 1] = np.inf
        with pytest.raises(nn.NonFiniteError) as exc:
            nn.cosine_loss(target, np.ones(3), nn.leaf(np.ones((3, 2))))
        assert exc.value.row == 1

    def test_shapes_must_agree(self):
        with pytest.raises(nn.GraphError, match="disagree"):
            nn.cosine_loss(np.ones((3, 2)), np.ones(3),
                           nn.leaf(np.ones((3, 4))))


@pytest.mark.parametrize("kind", ["fsq", "dpca"])
def test_training_with_the_chains_ends_on_the_same_bytes(monkeypatch, kind):
    rng = np.random.default_rng(5)
    bundle = [rng.normal(size=(96, 8)), rng.normal(size=(96, 5))]
    spec = fv.FusionSpec((8, 5), 6, 12, kind, 3, 2, 2)
    cfg = nn.FitConfig(epochs=2, batch_size=32, lr=1e-2, seed=3)

    def trained():
        model = fv.FusionModel(spec, seed=4)
        rows, _ = fv.train(model, bundle, cfg)
        return model.params.flat.tobytes(), rows

    fused = trained()
    monkeypatch.setattr(nn, "dpca_recon", chain_dpca_stack)
    monkeypatch.setattr(nn, "cosine_loss", chain_cosine_loss)
    assert trained() == fused


def signed_rows(rng, shape):
    """float32 values over many magnitudes, with +0.0 and -0.0 in them."""
    a = rng.normal(size=shape) * 10.0 ** rng.integers(-4, 5, size=shape)
    a = a.astype(np.float32)
    a[rng.random(shape) < 0.1] = 0.0
    a[rng.random(shape) < 0.1] = -0.0
    return a


U = 2.0 ** -24  # the unit roundoff of float32


def gamma(n):
    """Higham's gamma_n = n u / (1 - n u)."""
    return n * U / (1 - n * U)


def attention_error_bounds(arrays, seq_len, w, attn, prior):
    """Bounds on |float32 - exact| of pooled_attention's value and of the
    gradients of sum(value * w) that it adds into `prior`, the queries',
    the values' and theta's, elementwise.

    Rules (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., section 3.1): u = 2**-24, gamma_n = n u / (1 - n u), and
    (1 + gamma_j)(1 + gamma_k) <= 1 + gamma_(j+k). A float32 sum or dot
    product of n terms is within gamma_n times the sum of the terms'
    absolute values, in any order of adds and with or without fused
    multiply-adds, so for any BLAS. numpy's float32 exp is held to 3 ulp
    by its own accuracy test: a relative error of at most 6u <= gamma_6.
    The inputs are float32 values, exact in float64. A quantity computed
    from operands each within (1 + e_i) of its magnitude, the same formula
    over absolute values, is within prod(1 + e_i)(1 + gamma_n) - 1 of its
    own magnitude, n counting its own roundings.

    Per user, with c = 1/sqrt(d), q its query, V its (L, d) events,
    Kbar = |V| |Theta|, a the exact attention and w the upstream gradient:

    - Keys: gamma_d Kbar. Logit l: gamma_(2d+2) S_l, S_l = c (Kbar |q|)_l:
      the keys, the dot product over d, c rounded to float32, the product.
    - Softmax: the shift by the float32 max rounds once, within 2u S,
      S = max_l S_l, so each logit moves by at most delta = gamma_(2d+4) S
      and each weight by a factor of at most exp(2 delta). exp's error
      (twice, in the weight and in the sum), the sum over L and the
      division add gamma_(2L+18):
      |a_hat - a| <= rho a, rho = exp(2 delta)(1 + gamma_(2L+18)) - 1,
      while no weight underflows: the user's exact logits span < 80.
    - Value, the pooled sum over L: ((1 + rho)(1 + gamma_L) - 1) a |V|.
    - Backward, with G_l = (|V| |w|)_l, M = sum_l a_l G_l and
      H_l = c a_l (G_l + M): g_attn_l = (V w)_l is within gamma_d G_l, the
      mean sum_l a_l g_attn_l within ((1 + rho)(1 + gamma_(d+L)) - 1) M,
      and the logit gradient c a_l (g_attn_l - mean), one subtraction,
      one product and the scale by c later, within eps H_l,
      eps = (1 + rho)^2 (1 + gamma_(d+L+4)) - 1.
    - Queries: ((1 + eps)(1 + gamma_(d+L)) - 1) sum_l H_l Kbar_l.
      Values: ((1 + rho)(1 + gamma_1) - 1) a_l |w| from the pooled sum,
      and ((1 + eps)(1 + gamma_(d+1)) - 1) H_l |Theta| |q| through the
      keys. Theta, a sum over the b L events of all users:
      ((1 + eps)(1 + gamma_(bL+1)) - 1) sum_events |v| H_l |q|.
    - Each of the k adds into a gradient rounds once more: gamma_k times
      |prior| plus the bounds on the terms' magnitudes (k = 2 for the
      values, 1 for the queries and theta).

    The float64 oracle's own error is about 2**-29 of these bounds.
    """
    q, v, th = (np.abs(np.asarray(x, dtype=np.float64)) for x in arrays)
    b, d = q.shape
    v3 = v.reshape(b, seq_len, d)
    w = np.abs(np.asarray(w, dtype=np.float64))
    c = 1.0 / np.sqrt(d)
    kbar = v3 @ th
    delta = gamma(2 * d + 4) * c * np.einsum("bld,bd->bl", kbar, q).max(
        axis=1, keepdims=True)
    rho = np.exp(2 * delta) * (1 + gamma(2 * seq_len + 18)) - 1
    value = (((1 + rho) * (1 + gamma(seq_len)) - 1)
             * np.einsum("bl,bld->bd", attn, v3))
    big_g = np.einsum("bld,bd->bl", v3, w)
    h = c * attn * (big_g + (attn * big_g).sum(axis=1, keepdims=True))
    eps = (1 + rho) ** 2 * (1 + gamma(d + seq_len + 4)) - 1

    def part(rel, magnitude):
        return rel * magnitude, magnitude

    def accumulated(prior, parts):
        return (sum(err for err, _ in parts) + gamma(len(parts))
                * (np.abs(prior) + sum(err + mag for err, mag in parts)))

    queries = part((1 + eps) * (1 + gamma(d + seq_len)) - 1,
                   np.einsum("bl,bld->bd", h, kbar))
    pooled = part((1 + rho[:, :, None]) * (1 + gamma(1)) - 1,
                  attn[:, :, None] * w[:, None, :])
    keyed = part((1 + eps[:, :, None]) * (1 + gamma(d + 1)) - 1,
                 h[:, :, None] * (q @ th.T)[:, None, :])
    theta_rel = (1 + eps) * (1 + gamma(b * seq_len + 1)) - 1
    theta = (np.einsum("blm,bl,bj->mj", v3, theta_rel * h, q),
             np.einsum("blm,bl,bj->mj", v3, h, q))
    return [value, accumulated(prior[0], [queries]),
            accumulated(prior[1], [(e.reshape(-1, d), m.reshape(-1, d))
                                   for e, m in (pooled, keyed)]),
            accumulated(prior[2], [theta])]


def attention_run(arrays, prior, seq_len, w):
    """(value, [grad of queries, values, theta]) of pooled_attention's
    output, backward from sum(output * w) into gradients that already
    hold `prior`."""
    leaves = [nn.leaf(a, requires_grad=True) for a in arrays]
    for x, p in zip(leaves, prior):
        x.grad = p.copy()
    out = nn.pooled_attention(*leaves, seq_len)
    nn.backward(sum_all(nn.mul(out, nn.constant(w))))
    return out.value, [x.grad for x in leaves]


class TestPooledAttention:
    @settings(max_examples=80, deadline=None)
    @given(b=st.integers(1, 5), seq_len=st.integers(1, 9),
           d=st.sampled_from([1, 2, 5, 8, 13, 16, 130]),
           seed=st.integers(0, 2**32 - 1))
    def test_value_and_gradients_match_the_float64_oracle(self, b, seq_len,
                                                          d, seed):
        rng = np.random.default_rng(seed)
        arrays = [rng.normal(size=(b, d)).astype(np.float32),
                  rng.normal(size=(b * seq_len, d)).astype(np.float32),
                  rng.normal(0, 0.5, size=(d, d)).astype(np.float32)]
        arrays[1][rng.random(b * seq_len) < 0.2] = 0.0  # zero event rows
        w = upstream(rng, (b, d))
        prior = [rng.normal(size=a.shape).astype(np.float32) for a in arrays]
        value, grads = attention_run(arrays, prior, seq_len, w)
        exact, exact_grads, attn = float64_pooled_attention(*arrays, seq_len,
                                                            w)
        logits = np.log(attn)  # up to a shift per user
        assert (logits.max(axis=1) - logits.min(axis=1) < 80).all()
        bounds = attention_error_bounds(arrays, seq_len, w, attn, prior)
        wants = [exact, *(p + g for p, g in zip(prior, exact_grads))]
        for name, got, want, bound in zip(
                ["value", "queries", "values", "theta"], [value, *grads],
                wants, bounds):
            err = np.abs(got - want)
            assert (err <= bound).all(), (name, float((err / bound).max()))
        with nn._no_record():
            out = nn.pooled_attention(*map(nn.leaf, arrays), seq_len)
        assert out.inputs == () and out._backward is None
        assert_same_bits(out.value, value)

    def test_is_one_node_over_its_inputs(self):
        q_, v, th = (nn.leaf(np.ones(s), requires_grad=True)
                     for s in [(2, 3), (8, 3), (3, 3)])
        out = nn.pooled_attention(q_, v, th, 4)
        assert out.name.startswith("pooled_attention#")
        assert out.inputs == (q_, v, th) and out.shape == (2, 3)

    @pytest.mark.parametrize("shapes", [[(2, 3), (6, 3), (3, 3)],
                                        [(2, 3), (8, 2), (3, 3)],
                                        [(2, 3), (8, 3), (2, 3)]])
    def test_shapes_must_agree(self, shapes):
        with pytest.raises(nn.GraphError, match="disagree at seq_len 4"):
            nn.pooled_attention(*(nn.leaf(np.ones(s)) for s in shapes), 4)

    def test_overflow_names_the_node_and_the_users_row(self):
        # every input is finite, but user 2's key for its event 1 overflows
        values = np.ones((12, 2), dtype=np.float32)
        values[2 * 4 + 1] = 3e38
        theta = np.full((2, 2), 4.0, dtype=np.float32)
        with pytest.raises(nn.NonFiniteError) as exc:
            nn.pooled_attention(nn.leaf(np.ones((3, 2))), nn.leaf(values),
                                nn.leaf(theta), 4)
        assert exc.value.node.startswith("pooled_attention#")
        assert exc.value.row == 2 and "row 2" in str(exc.value)


class TestFloat64AttentionOracle:
    @staticmethod
    def inputs(seed, b=3, seq_len=4, d=5):
        rng = np.random.default_rng(seed)
        return ({"q": rng.normal(size=(b, d)),
                 "v": rng.normal(size=(b * seq_len, d)),
                 "theta": rng.normal(0, 0.5, size=(d, d))},
                rng.normal(size=(b, d)))

    @pytest.mark.parametrize("seed", range(4))
    def test_value_matches_the_scalar_oracle(self, seed):
        arrays, w = self.inputs(seed)
        out, _, _ = float64_pooled_attention(*arrays.values(), 4, w)
        for u in range(3):
            np.testing.assert_allclose(
                out[u:u + 1],
                naive_pma(arrays["q"][u:u + 1],
                          arrays["v"][4 * u:4 * u + 4], arrays["theta"]),
                rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("seed", range(3))
    def test_gradients_match_central_differences(self, seed):
        arrays, w = self.inputs(seed)

        def loss(arrs):
            out, _, _ = float64_pooled_attention(*arrs.values(), 4, w)
            return float((out * w).sum())

        _, grads, _ = float64_pooled_attention(*arrays.values(), 4, w)
        for key, grad in zip(arrays, grads):
            np.testing.assert_allclose(
                grad, numeric_grad(loss, arrays, key, h=1e-5),
                rtol=1e-6, atol=1e-9, err_msg=key)


class TestGatherRows:
    @settings(max_examples=80, deadline=None)
    @given(table_rows=st.integers(1, 6), cols=st.integers(1, 6),
           n=st.integers(0, 40), grams=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_value_and_gradient_match_the_chain(self, table_rows, cols, n,
                                                grams, seed):
        rng = np.random.default_rng(seed)
        # rows repeat within and across columns
        rows = rng.integers(0, table_rows, size=(n, grams))
        table = signed_rows(rng, (table_rows, cols))
        w = upstream(rng, (n, cols))

        def run(op):
            t = nn.leaf(table, requires_grad=True)
            out = op(t, rows)
            nn.backward(sum_all(nn.mul(out, nn.constant(w))))
            return out.value, t.grad

        value, grad = run(nn.gather_rows)
        chain_value, chain_grad = run(chain_gather_rows)
        assert_same_bits(value, chain_value)
        assert_same_bits(grad, chain_grad)
        with nn._no_record():
            out = nn.gather_rows(nn.leaf(table), rows)
        assert out.inputs == () and out._backward is None
        assert_same_bits(out.value, chain_value)

    def test_is_one_node_over_its_table(self):
        t = nn.leaf(np.ones((4, 3)), "t", requires_grad=True)
        out = nn.gather_rows(t, [[0, 1], [3, 3]])
        assert out.name.startswith("gather#") and out.inputs == (t,)
        np.testing.assert_array_equal(out.value, np.ones((2, 3)))

    @pytest.mark.parametrize("rows, message", [
        ([[0, 4]], "index out of range for table with 4 rows"),
        ([-1, 0], "index out of range for table with 4 rows"),
        ([[[0]]], r"expected \(n,\) or \(n, G >= 1\) row indices, got "
                  r"shape \(1, 1, 1\)"),
        (np.zeros((3, 0), dtype=int), r"got shape \(3, 0\)")])
    def test_rejects_bad_rows(self, rows, message):
        with pytest.raises(nn.GraphError, match=message):
            nn.gather_rows(nn.leaf(np.ones((4, 3))), rows)


@pytest.mark.parametrize("variant, feature_dim", [("sid", 16), ("sid", 1)])
def test_ranker_training_with_the_chains_ends_on_the_same_bytes(
        monkeypatch, variant, feature_dim):
    """Both lookups, the segments' and the SID grams', as chains."""
    ds = rk.generate_engagement(rk.EngagementConfig(
        users=300, items=60, seq_len=5, seed=2))
    cfg = nn.FitConfig(epochs=2, batch_size=64, lr=1e-2, seed=3)

    def trained():
        model, preds, _ = rk._fit_ranker(ds, variant, 40, feature_dim, cfg)
        return model.params.flat.tobytes(), preds.tobytes()

    fused = trained()
    monkeypatch.setattr(nn, "gather_rows", chain_gather_rows)
    assert trained() == fused


class TestDpcaDigits:
    @staticmethod
    def unit_stack():
        # one group, depth 1, width 1, u = [1], b = [0]: the coefficient
        # of each row is its input value exactly
        return np.ones((1, 1, 1)), np.zeros((1, 1, 1))

    @pytest.mark.parametrize("edge", [-0.5, 0.5])
    def test_digits_at_the_snap_boundary(self, edge):
        # the 801 float32 coefficients nearest to where tanh reaches
        # +-0.5, the half-level boundaries of the 3-level grid
        center = np.array(np.arctanh(edge), dtype=np.float32).view(np.int32)
        x = (center + np.arange(-400, 401, dtype=np.int32)).view(np.float32)
        codes = q.dpca_encode(*self.unit_stack(), x.reshape(-1, 1))
        levels, _ = q.fsq_quantize(3, x.reshape(-1, 1))
        np.testing.assert_array_equal(codes, levels - 1)
        assert len(np.unique(codes)) == 2  # the range straddles the edge

    @settings(max_examples=40, deadline=None)
    @given(groups=st.integers(1, 3), depth=st.integers(1, 4),
           width=st.integers(1, 5), rows=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1))
    def test_random_stacks_match_fsq_digits(self, groups, depth, width, rows,
                                            seed):
        rng = np.random.default_rng(seed)
        comps = rng.normal(size=(groups, depth, width)).astype(np.float32)
        offs = rng.normal(0, 0.3, size=(groups, depth, width)).astype(np.float32)
        x = rng.normal(size=(rows, groups * width)).astype(np.float32)
        np.testing.assert_array_equal(q.dpca_encode(comps, offs, x),
                                      fsq_dpca_encode(comps, offs, x))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_input_is_rejected(self, bad):
        x = np.zeros((3, 2), dtype=np.float32)
        x[1, 0] = bad
        comps = np.random.default_rng(0).normal(0.0, 0.5, size=(1, 2, 2))
        with pytest.raises(q.QuantizerError, match="non-finite latent input"):
            with np.errstate(invalid="ignore"):
                q.dpca_encode(comps, np.zeros_like(comps), x)


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(1, 6), cols=st.integers(1, 5),
       picks=st.integers(0, 300), seed=st.integers(0, 2**32 - 1))
def test_gather_backward_matches_a_row_scatter(rows, cols, picks, seed):
    """A 1-D index and the same index as one column give the same bits:
    np.take's rows forward and one unbuffered row-wise np.add.at back."""
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, rows, size=picks)  # many repeats of each row
    table = signed_rows(rng, (rows, cols))
    w = upstream(rng, (picks, cols))
    expected = row_scatter_add(np.zeros((rows, cols), np.float32), idx, w)
    for index in (idx, idx[:, None]):
        t = nn.leaf(table, requires_grad=True)
        out = nn.gather_rows(t, index)
        nn.backward(sum_all(nn.mul(out, nn.constant(w))))
        assert_same_bits(out.value, np.take(table, idx, axis=0))
        assert_same_bits(t.grad, expected)
