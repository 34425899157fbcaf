import contextlib
import gc
import hashlib
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (add, build_tiny_model, gradcheck, head_blocks, lstm_weights, matmul, per_head_attention,
                      reshape, sigmoid, stored_state_lstm, tanh)
from rulnet import (
    ConfigurationError,
    ContractError,
    DimensionError,
    RulModel,
    Tape,
    Tensor,
)
from rulnet import autodiff as ad
from rulnet.autodiff import exact_arithmetic
from rulnet.config import ExperimentConfig
from rulnet.model import MAX_PARAMETERS, MODES, parameter_shapes, resolve_blocks
from rulnet.training import mse_loss


def attention_oracle(q, k, v):
    """Direct exp/sum evaluation of scaled dot-product attention."""
    scores = q @ k.T / math.sqrt(q.shape[1])
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    w = e / e.sum(axis=1, keepdims=True)
    return w @ v, w


def multi_head_oracle(model, x):
    """Per-head decomposition of the feature block: independent
    single-head runs, concatenated."""
    outs = []
    for w_q, w_k, w_v in zip(*head_blocks(model.params["fa.wqkv"], model.feature_heads)):
        out, _ = attention_oracle(x @ w_q.data, x @ w_k.data, x @ w_v.data)
        outs.append(out)
    return np.concatenate(outs, axis=1) @ model.params["fa.wo"].data


def feature_block(tokens, width, heads, rng, dtype=np.float64):
    """A mode-F model whose feature block attends over ``tokens`` tokens of
    ``width``; its first draws are that block's ``wqkv`` and ``wo``."""
    return RulModel(n_features=tokens, window=width, mode="F", feature_heads=heads, lstm_hidden=2,
                    lstm_layers=1, mlp_hidden=2, dropout=0.0, init_rng=rng, dtype=dtype)


def single_head(q_in, w_q, w_k, w_v):
    """``ad.attention`` with one head and an identity output projection,
    on float64 arrays: scaled dot-product attention of the projections."""
    t = lambda a: Tensor(np.asarray(a, dtype=np.float64), dtype=np.float64)
    out, weights = ad.attention(t(q_in), t(np.hstack([w_q, w_k, w_v])), t(np.eye(np.shape(w_v)[1])), 1)
    return out.data, weights[0]


class TestScaledDotProductAttention:
    """``ad.attention`` with a single head."""

    def test_single_logit(self):
        out, weights = single_head([[2.0]], [[1.0]], [[1.0]], [[1.0]])
        assert out.tolist() == [[2.0]]
        assert weights.tolist() == [[1.0]]

    def test_identical_keys_average_values(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3))
        w_v = rng.standard_normal((3, 4))
        # A zero key projection gives every token the same key.
        out, weights = single_head(x, rng.standard_normal((3, 4)), np.zeros((3, 4)), w_v)
        np.testing.assert_allclose(weights, 0.5)
        np.testing.assert_allclose(out, np.tile((x @ w_v).mean(axis=0), (2, 1)), rtol=1e-15)

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 4))
        w_q, w_k, w_v = (rng.standard_normal((4, 4)) for _ in range(3))
        out, weights = single_head(x, w_q, w_k, w_v)
        oracle_out, oracle_w = attention_oracle(x @ w_q, x @ w_k, x @ w_v)
        np.testing.assert_allclose(out, oracle_out, atol=1e-12)
        np.testing.assert_allclose(weights, oracle_w, atol=1e-12)

    def test_zero_width_rejected(self):
        empty = Tensor(np.zeros((2, 0)))
        no_width = Tensor(np.zeros((0, 0)))
        with pytest.raises(ContractError):
            ad.attention(empty, no_width, no_width, 1)
        with pytest.raises(ContractError):
            ad.attention(Tensor(np.zeros((2, 0, 3))), Tensor(np.zeros((3, 9))), Tensor(np.zeros((3, 3))), 1)


class TestMultiHeadAttention:
    def test_single_head_identity_projections_equal_raw_attention(self):
        rng = np.random.default_rng(2)
        model = feature_block(4, 3, 1, rng)
        eye = np.eye(3)
        model.params["fa.wqkv"].data = np.tile(eye, 3)
        model.params["fa.wo"].data = eye.copy()
        x = Tensor(rng.standard_normal((4, 3)), dtype=np.float64)
        raw, _ = per_head_attention(x, *head_blocks(model.params["fa.wqkv"], 1), model.params["fa.wo"])
        assert np.array_equal(model.apply_feature_attention(x).data, raw.data)

    def test_matches_per_head_decomposition_oracle(self):
        rng = np.random.default_rng(3)
        model = feature_block(5, 4, 2, rng)
        x = rng.standard_normal((5, 4))
        np.testing.assert_allclose(
            model.apply_feature_attention(Tensor(x, dtype=np.float64)).data,
            multi_head_oracle(model, x), atol=1e-12
        )

    @pytest.mark.parametrize("n,d_model,heads", [(1, 4, 1), (7, 6, 2), (24, 30, 5), (30, 24, 4), (3, 8, 8)])
    def test_shape_preserved(self, n, d_model, heads):
        rng = np.random.default_rng(4)
        model = feature_block(n, d_model, heads, rng)
        x = Tensor(rng.standard_normal((n, d_model)), dtype=np.float64)
        assert model.apply_feature_attention(x).shape == (n, d_model)
        batched = Tensor(rng.standard_normal((2, n, d_model)), dtype=np.float64)
        assert model.apply_feature_attention(batched).shape == (2, n, d_model)

    def test_projection_is_the_head_blocks_drawn_in_column_order(self):
        # w_qkv joins 3·h (d, d_h) draws: the queries of heads 1..h, then
        # the keys, then the values; the output weight is drawn after them.
        # They are a model's first draws.
        model = feature_block(4, 6, 2, np.random.default_rng(9), dtype=np.float32)
        w_qkv, w_o = model.params["fa.wqkv"], model.params["fa.wo"]
        rng, bound = np.random.default_rng(9), 1 / math.sqrt(6)
        blocks = [rng.uniform(-bound, bound, (6, 3)).astype(np.float32) for _ in range(6)]
        assert w_qkv.shape == (6, 18) and w_qkv.requires_grad
        assert np.array_equal(w_qkv.data, np.hstack(blocks))
        assert np.array_equal(w_o.data, rng.uniform(-bound, bound, (6, 6)).astype(np.float32))
        assert [n for n, _ in model.parameters()][:2] == ["fa.wqkv", "fa.wo"]

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ConfigurationError):
            feature_block(4, 30, 4, np.random.default_rng(0))

    def test_width_mismatch_rejected(self):
        model = feature_block(3, 6, 2, np.random.default_rng(0), dtype=np.float32)
        with pytest.raises(DimensionError):
            model.apply_feature_attention(Tensor(np.zeros((3, 5), dtype=np.float32)))

    def test_explain_returns_row_stochastic_weights(self):
        rng = np.random.default_rng(5)
        model = feature_block(4, 6, 3, rng)
        x = rng.standard_normal((1, 4, 6))
        pred, weights = model.explain(x)
        assert list(weights) == ["feature"]
        assert weights["feature"].shape == (1, 3, 4, 4)
        for w in weights["feature"][0]:
            assert w.shape == (4, 4)
            np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-6)
        assert np.array_equal(pred, model.predict(x))


def lstm_scalar_oracle(w_x, w_h, bias, x):
    """Step-by-step scalar-loop evaluation of the gate equations."""

    def sig(z):
        return 1.0 / (1.0 + math.exp(-z))

    hidden = w_h[0].shape[0]
    inputs = [x[:, t].astype(np.float64) for t in range(x.shape[1])]
    for layer in range(len(w_x)):
        wx = w_x[layer].data
        wh = w_h[layer].data
        b = bias[layer].data
        h = np.zeros(hidden)
        c = np.zeros(hidden)
        outs = []
        for step, x_t in enumerate(inputs):
            z = np.zeros(4 * hidden)
            for j in range(4 * hidden):
                acc = float(b[j])
                for i in range(len(x_t)):
                    acc += float(x_t[i]) * float(wx[i, j])
                if step > 0:
                    for i in range(hidden):
                        acc += float(h[i]) * float(wh[i, j])
                z[j] = acc
            new_c = np.zeros(hidden)
            new_h = np.zeros(hidden)
            for u in range(hidden):
                i_g = sig(z[u])
                f_g = sig(z[hidden + u])
                g_c = math.tanh(z[2 * hidden + u])
                o_g = sig(z[3 * hidden + u])
                new_c[u] = (f_g * c[u] if step > 0 else 0.0) + i_g * g_c
                new_h[u] = o_g * math.tanh(new_c[u])
            c, h = new_c, new_h
            outs.append(h.copy())
        inputs = outs
    return h


def per_step_lstm(x, w_x, w_h, bias):
    """Per-step tape reference: one node per gate operation and time step.

    Time slices and gate blocks are taken by multiplying with one-hot
    selector matrices, so only matmul and elementwise ops are recorded.
    """
    batch, width, steps = x.shape
    hidden = w_h[0].shape[0]
    eye_t = np.eye(steps, dtype=x.dtype)
    eye_g = np.eye(4 * hidden, dtype=x.dtype)
    gate_pick = [Tensor(eye_g[:, k * hidden : (k + 1) * hidden]) for k in range(4)]
    inputs = [reshape(matmul(x, Tensor(eye_t[:, t : t + 1])), (batch, width)) for t in range(steps)]
    for layer in range(len(w_x)):
        h = c = None
        outputs = []
        for x_t in inputs:
            z = add(matmul(x_t, w_x[layer]), bias[layer])
            if h is not None:
                z = add(z, matmul(h, w_h[layer]))
            i_g, f_g, g_c, o_g = (matmul(z, pick) for pick in gate_pick)
            i_g, g_c = sigmoid(i_g), tanh(g_c)
            c = ad.mul(i_g, g_c) if c is None else add(ad.mul(sigmoid(f_g), c), ad.mul(i_g, g_c))
            h = ad.mul(sigmoid(o_g), tanh(c))
            outputs.append(h)
        inputs = outputs
    return h


def lstm_loss_and_grads(run, params, readout):
    """Output and parameter gradients of mean(run() * readout)."""
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        out = run()
        loss = ad.mean(ad.mul(out, readout))
    tape.backward(loss)
    return out.data, [None if p.grad is None else p.grad.copy() for p in params]


class TestFusedLstm:
    @staticmethod
    def _setup(batch, steps, layers, seed, width=5, hidden=3):
        # Input width differs from hidden width, so layer 0's w_x is not square.
        rng = np.random.default_rng(seed)
        weights = lstm_weights(width, hidden, layers, rng)
        x = Tensor(rng.standard_normal((batch, width, steps)), requires_grad=True, dtype=np.float64)
        readout = Tensor(rng.standard_normal((batch, hidden)), dtype=np.float64)
        return weights, x, readout, [x] + [p for layer in zip(*weights) for p in layer]

    @staticmethod
    def _check_against_references(weights, x, readout, params):
        fused, fused_grads = lstm_loss_and_grads(lambda: ad.lstm(x, *weights), params, readout)
        ref, ref_grads = lstm_loss_and_grads(lambda: per_step_lstm(x, *weights), params, readout)
        np.testing.assert_allclose(fused, ref, rtol=1e-13, atol=1e-15)
        for b in range(x.shape[0]):
            np.testing.assert_allclose(fused[b], lstm_scalar_oracle(*weights, x.data[b]), atol=1e-12)
        for got, want in zip(fused_grads, ref_grads):
            if want is None:  # the reference never reads w_h when T == 1
                assert got is not None and not got.any()
            else:
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("steps", [1, 2, 7])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_matches_per_step_reference(self, batch, steps, layers):
        seed = 100 * batch + 10 * steps + layers
        self._check_against_references(*self._setup(batch, steps, layers, seed=seed))

    def test_distinct_axes_match_references(self):
        # Batch, input width, T and hidden all differ, so an op that mixes
        # up any two of those axes cannot pass.
        self._check_against_references(*self._setup(5, 30, 3, seed=25, width=24, hidden=7))

    def test_float32_tracks_float64_at_paper_shape(self):
        # Width 24, T 30 and a 3×100 stack: the float32 op sums each weight
        # and bias gradient over the 30 steps; each result stays within
        # 1e-5 of the float64 one, relative to the largest float64 entry.
        weights, x, readout, params = self._setup(4, 30, 3, seed=26, width=24, hidden=100)
        out64, grads64 = lstm_loss_and_grads(lambda: ad.lstm(x, *weights), params, readout)
        params32 = [Tensor(p.data, requires_grad=True, dtype=np.float32) for p in params]
        x32, w32 = params32[0], params32[1:]
        out32, grads32 = lstm_loss_and_grads(
            lambda: ad.lstm(x32, w32[0::3], w32[1::3], w32[2::3]),
            params32,
            Tensor(readout.data, dtype=np.float32),
        )
        for got, want in zip([out32, *grads32], [out64, *grads64]):
            assert got.dtype == np.float32
            assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()

    def test_gradcheck(self):
        weights, x, readout, params = self._setup(batch=2, steps=4, layers=3, seed=21)
        gradcheck(lambda: ad.mean(ad.mul(ad.lstm(x, *weights), readout)), params)

    def test_exact_arithmetic_agrees_with_oracle(self):
        weights, x, readout, params = self._setup(batch=3, steps=4, layers=2, seed=22)
        fast, fast_grads = lstm_loss_and_grads(lambda: ad.lstm(x, *weights), params, readout)
        with exact_arithmetic():
            exact, exact_grads = lstm_loss_and_grads(lambda: ad.lstm(x, *weights), params, readout)
        for b in range(3):
            np.testing.assert_allclose(exact[b], lstm_scalar_oracle(*weights, x.data[b]), atol=1e-13)
        np.testing.assert_allclose(exact, fast, rtol=1e-13, atol=1e-15)
        for got, want in zip(exact_grads, fast_grads):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_records_one_node_and_nothing_without_a_tape(self):
        weights, x, _, _ = self._setup(batch=2, steps=3, layers=3, seed=23)
        out = ad.lstm(x, *weights)
        assert not out.requires_grad
        with Tape() as tape:
            out = ad.lstm(x, *weights)
        assert len(tape) == 1 and out.requires_grad
        frozen = [Tensor(p.data) for group in weights for p in group]
        with Tape() as tape:
            ad.lstm(Tensor(x.data), frozen[:3], frozen[3:6], frozen[6:])
        assert len(tape) == 0

    @given(batch=st.integers(1, 5), steps=st.integers(1, 8), layers=st.integers(1, 3),
           dtype=st.sampled_from([np.float32, np.float64]), exact=st.booleans(),
           seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_untaped_forward_matches_taped_bit_for_bit(self, batch, steps, layers, dtype, exact, seed):
        # Without a tape the op keeps one step's gates and reads x in place;
        # the arithmetic is the same, so every output bit is too.
        weights = lstm_weights(5, 3, layers, np.random.default_rng(seed), dtype=dtype)
        x = Tensor(np.random.default_rng(seed + 1).standard_normal((batch, 5, steps)).astype(dtype))
        with exact_arithmetic() if exact else contextlib.nullcontext():
            untaped = ad.lstm(x, *weights)
            with Tape():
                taped = ad.lstm(x, *weights)
        assert taped.requires_grad and not untaped.requires_grad
        assert untaped.dtype == dtype
        assert untaped.data.tobytes() == taped.data.tobytes()

    @given(batch=st.integers(1, 5), steps=st.integers(1, 8), layers=st.integers(1, 3),
           dtype=st.sampled_from([np.float32, np.float64]), exact=st.booleans(),
           x_grad=st.booleans(), seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_stored_state_reference_byte_for_byte(self, batch, steps, layers, dtype, exact, x_grad,
                                                          seed):
        # The backward recomputes the cell and rebuilds each step's operand
        # where the reference kept them, with the same numpy calls on the
        # same values, so every output and gradient byte agrees.
        rng = np.random.default_rng(seed)
        weights = lstm_weights(5, 3, layers, rng, dtype=dtype)
        x = Tensor(rng.standard_normal((batch, 5, steps)).astype(dtype), requires_grad=x_grad)
        readout = Tensor(rng.standard_normal((batch, 3)).astype(dtype))
        params = [x] + [p for group in weights for p in group]
        with exact_arithmetic() if exact else contextlib.nullcontext():
            fused, fused_grads = lstm_loss_and_grads(lambda: ad.lstm(x, *weights), params, readout)
            ref, ref_grads = lstm_loss_and_grads(lambda: stored_state_lstm(x, *weights), params, readout)
        assert fused.dtype == dtype and fused.tobytes() == ref.tobytes()
        assert (fused_grads[0] is None) == (not x_grad)
        for got, want in zip(fused_grads, ref_grads):
            if want is None:
                assert got is None
            else:
                assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_untaped_forward_keeps_no_whole_sequence_gates(self):
        # Keeping each layer's (T, 4H, B) gates and (T, H, B) hidden
        # sequence and a copy of the input, as a taped forward must, holds
        # near 16 T·H·B values here; an untaped forward holds two layers'
        # hidden sequences and the input, under 4.
        batch, width, steps, hidden = 64, 24, 30, 32
        rng = np.random.default_rng(27)
        weights = lstm_weights(width, hidden, 3, rng, dtype=np.float32)
        x = Tensor(rng.standard_normal((batch, width, steps)).astype(np.float32))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            ad.lstm(x, *weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sequence = steps * hidden * batch * np.dtype(np.float32).itemsize
        assert peak - start < 4 * sequence, (peak - start) / sequence

    def test_taped_step_keeps_its_state_bounded(self):
        # A taped layer keeps its (T, 4H, B) gates and (T, H, B) hidden
        # sequence, and the op one (T, F, B) copy of the input; the backward
        # recomputes each layer's cell into one (T, H, B) scratch, rebuilds
        # each step's operand and adds about two sequences of input
        # gradients.  Here that peaks near 20.0 T·H·B values; keeping every
        # step's stacked (in+H+1, B) operand and each layer's cell as well
        # reads 24.2, and any other whole-sequence buffer of H rows per
        # layer would pass 21.
        batch, width, steps, hidden = 64, 24, 30, 32
        rng = np.random.default_rng(28)
        weights = lstm_weights(width, hidden, 3, rng, dtype=np.float32)
        x = Tensor(rng.standard_normal((batch, width, steps)).astype(np.float32))
        readout = Tensor(rng.standard_normal((batch, hidden)).astype(np.float32))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                loss = ad.mean(ad.mul(ad.lstm(x, *weights), readout))
            tape.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sequence = steps * hidden * batch * np.dtype(np.float32).itemsize
        assert peak - start < 21 * sequence, (peak - start) / sequence
        assert all(p.grad is not None for group in weights for p in group)

    def test_weight_shape_mismatch_rejected(self):
        (w_x, w_h, bias), x, _, _ = self._setup(batch=2, steps=3, layers=2, seed=24)
        with pytest.raises(DimensionError):
            ad.lstm(x, w_x[::-1], w_h, bias)
        with pytest.raises(ContractError):
            ad.lstm(x, w_x, w_h[:1], bias)


class TestLstm:
    def test_all_zero_weights_fixed_point(self):
        rng = np.random.default_rng(6)
        weights = lstm_weights(4, 5, 3, rng)
        for group in weights:
            for p in group:
                p.data[...] = 0.0
        out = ad.lstm(Tensor(rng.standard_normal((1, 4, 7)), dtype=np.float64), *weights)
        np.testing.assert_array_equal(out.data, np.zeros((1, 5)))

    def test_single_step_equals_cell_equations(self):
        rng = np.random.default_rng(7)
        w_x, w_h, bias = lstm_weights(3, 4, 1, rng)
        x = rng.standard_normal((3, 1))
        out = ad.lstm(Tensor(x[None], dtype=np.float64), w_x, w_h, bias)
        z = x[:, 0] @ w_x[0].data + bias[0].data
        i_g = 1 / (1 + np.exp(-z[:4]))
        g_c = np.tanh(z[8:12])
        o_g = 1 / (1 + np.exp(-z[12:]))
        expected = o_g * np.tanh(i_g * g_c)
        np.testing.assert_allclose(out.data[0], expected, atol=1e-12)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(8)
        weights = lstm_weights(3, 4, 3, rng)
        x = rng.standard_normal((3, 3))
        out = ad.lstm(Tensor(x[None], dtype=np.float64), *weights)
        np.testing.assert_allclose(out.data[0], lstm_scalar_oracle(*weights, x), atol=1e-10)

    def test_batched_equals_per_sample(self):
        rng = np.random.default_rng(9)
        weights = lstm_weights(3, 4, 2, rng)
        xs = rng.standard_normal((5, 3, 6))
        batched = ad.lstm(Tensor(xs, dtype=np.float64), *weights).data
        for b in range(5):
            single = ad.lstm(Tensor(xs[b : b + 1], dtype=np.float64), *weights).data[0]
            np.testing.assert_allclose(batched[b], single, atol=1e-12)


class TestRulModel:
    def test_forward_shapes(self):
        model, rng = build_tiny_model()
        single = model.forward(Tensor(rng.standard_normal((1, 4, 6)), dtype=np.float64))
        assert single.shape == (1, 1)
        batched = model.forward(Tensor(rng.standard_normal((3, 4, 6)), dtype=np.float64))
        assert batched.shape == (3, 1)

    def test_paper_scale_shapes(self):
        rng = np.random.default_rng(10)
        model = RulModel(
            n_features=24, window=30, mode="F+T", feature_heads=5, sequence_heads=4,
            lstm_hidden=20, lstm_layers=2, mlp_hidden=10, dropout=0.5,
            init_rng=rng, dtype=np.float32,
        )
        out = model.forward(Tensor(rng.standard_normal((1, 24, 30)), dtype=np.float32))
        assert out.shape == (1, 1)
        attended = model.apply_feature_attention(
            Tensor(rng.standard_normal((24, 30)), dtype=np.float32)
        )
        assert attended.shape == (24, 30)
        attended = model.apply_sequence_attention(
            Tensor(rng.standard_normal((24, 30)), dtype=np.float32)
        )
        assert attended.shape == (24, 30)

    def test_inference_is_deterministic(self):
        model, rng = build_tiny_model()
        x = rng.standard_normal((4, 6))
        assert model.predict(x) == model.predict(x)

    def test_mode_l_is_identity_plus_lstm_head(self):
        model, rng = build_tiny_model(mode="L")
        x = Tensor(rng.standard_normal((4, 6)), dtype=np.float64)
        assert model.apply_feature_attention(x) is x
        assert model.apply_sequence_attention(x) is x
        batch = reshape(x, (1, 4, 6))
        direct = model.head(model.lstm(batch), training=False, rng=None)
        np.testing.assert_array_equal(model.forward(batch).data, direct.data)

    def test_mode_a_forces_single_head(self):
        model, _ = build_tiny_model(mode="A")
        assert (model.feature_heads, model.sequence_heads) == (1, 0)
        assert "fa.wqkv" in model.params and not any(n.startswith("sa.") for n in model.params)

    def test_default_model_has_17_parameter_tensors(self):
        # Two per attention block, three per LSTM layer, four in the head.
        names = [n for n, _ in RulModel(n_features=24, window=30).parameters()]
        assert len(names) == 17
        assert names[:4] == ["fa.wqkv", "fa.wo", "sa.wqkv", "sa.wo"]

    def test_disabled_blocks_have_no_parameters(self):
        model, _ = build_tiny_model(mode="L")
        names = [n for n, _ in model.parameters()]
        assert not any(n.startswith(("fa.", "sa.")) for n in names)
        model_f, _ = build_tiny_model(mode="F")
        names_f = [n for n, _ in model_f.parameters()]
        assert any(n.startswith("fa.") for n in names_f)
        assert not any(n.startswith("sa.") for n in names_f)

    def test_sequence_head_divisibility(self):
        rng = np.random.default_rng(11)
        RulModel(n_features=24, window=30, feature_heads=5, sequence_heads=4,
                 lstm_hidden=4, lstm_layers=1, mlp_hidden=4, dropout=0.0, init_rng=rng)
        with pytest.raises(ConfigurationError):
            RulModel(n_features=24, window=30, feature_heads=5, sequence_heads=5,
                     lstm_hidden=4, lstm_layers=1, mlp_hidden=4, dropout=0.0,
                     init_rng=np.random.default_rng(11))

    def test_sequence_attention_preserves_identical_columns(self):
        rng = np.random.default_rng(12)
        model = RulModel(n_features=4, window=2, mode="F+T", feature_heads=1,
                         sequence_heads=2, lstm_hidden=4, lstm_layers=1, mlp_hidden=4,
                         dropout=0.0, init_rng=rng, dtype=np.float64)
        col = rng.standard_normal((4, 1))
        x = Tensor(np.hstack([col, col]), dtype=np.float64)
        out = model.apply_sequence_attention(x)
        np.testing.assert_allclose(out.data[:, 0], out.data[:, 1], atol=1e-12)

    def test_feature_attention_matches_per_head_oracle(self):
        model, rng = build_tiny_model()
        x = rng.standard_normal((4, 6))
        out = model.apply_feature_attention(Tensor(x, dtype=np.float64))
        np.testing.assert_allclose(
            out.data, multi_head_oracle(model, x), atol=1e-12
        )

    def test_explained_attention_rows_sum_to_one(self):
        model, rng = build_tiny_model()
        x = rng.standard_normal((3, 4, 6))
        pred, weights = model.explain(x)
        assert list(weights) == ["feature", "sequence"]
        for block, size in (("feature", 4), ("sequence", 6)):
            w = weights[block]
            assert w.shape == (3, 2, size, size)
            np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-6)
        assert pred.shape == (3,)
        assert np.array_equal(pred, model.predict(x))

    def test_explain_without_attention_blocks(self):
        model, rng = build_tiny_model(mode="L")
        x = rng.standard_normal((2, 4, 6))
        pred, weights = model.explain(x)
        assert weights == {}
        assert np.array_equal(pred, model.predict(x))

    def test_forward_keeps_no_attention_weights(self, monkeypatch):
        # Every weights array a pass makes dies with the pass: a taped
        # training step, a predict and an explain each leave none behind.
        refs = []

        def recording_attention(*args):
            out, weights = attention(*args)
            refs.append(weakref.ref(weights))
            return out, weights

        attention = ad.attention
        monkeypatch.setattr(ad, "attention", recording_attention)
        model, rng = build_tiny_model(dtype=np.float32, dropout=0.5)
        x = rng.standard_normal((3, 4, 6)).astype(np.float32)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            with Tape() as tape:
                pred = model.forward(Tensor(x), training=True, dropout_rng=np.random.default_rng(1))
                loss = mse_loss(pred, Tensor(np.ones((3, 1), dtype=np.float32)))
            tape.backward(loss)
            del tape, loss, pred
            model.predict(x)
            model.explain(x)
            assert len(refs) == 6
            assert [ref() for ref in refs] == [None] * 6
        finally:
            if was_enabled:
                gc.enable()

    def test_dropout_training_vs_inference(self):
        model, rng = build_tiny_model(dropout=0.5)
        x = Tensor(rng.standard_normal((1, 4, 6)), dtype=np.float64)
        assert model.forward(x).item() == model.forward(x).item()
        d1 = model.forward(x, training=True, dropout_rng=np.random.default_rng(1)).item()
        d2 = model.forward(x, training=True, dropout_rng=np.random.default_rng(2)).item()
        assert d1 != d2  # different masks change the output
        with pytest.raises(ContractError):
            model.forward(x, training=True)

    def test_input_shape_mismatch(self):
        # forward takes (B, F, T) batches only, so a single (F, T) window fails too.
        model, _ = build_tiny_model()
        for shape in [(5, 6), (1, 5, 6), (4, 6)]:
            with pytest.raises(DimensionError):
                model.forward(Tensor(np.zeros(shape), dtype=np.float64))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_predict_on_a_window_is_its_batch_of_one(self, dtype):
        model, rng = build_tiny_model(dtype=dtype)
        x = rng.standard_normal((4, 6))
        single, batch = model.predict(x), model.predict(x[None])
        assert isinstance(single, float) and batch.shape == (1,)
        assert np.asarray(single, dtype=dtype).tobytes() == batch.tobytes()

    def test_checkpoint_state_round_trip(self):
        model, rng = build_tiny_model()
        x = rng.standard_normal((4, 6))
        before = model.predict(x)
        state = {name: arr.copy() for name, arr in model.state_arrays()}
        clone, _ = build_tiny_model(seed=99)
        clone.load_state_arrays(state)
        assert np.array_equal(clone.predict(x), before)

    def test_built_from_arrays_owns_copies_in_its_dtype(self):
        model, _ = build_tiny_model(dtype=np.float32)
        state = {name: arr.astype(np.float64) for name, arr in model.state_arrays()}
        clone = RulModel(**model.hyperparams(), arrays=state)
        for (name, arr), (_, copy) in zip(model.state_arrays(), clone.state_arrays()):
            assert copy.dtype == np.float32 and copy.tobytes() == arr.tobytes(), name
        state["head.b2"][0] += 1.0
        assert clone.params["head.b2"].data[0] == model.params["head.b2"].data[0]

    def test_arrays_without_the_plan_are_configuration_error(self):
        model, _ = build_tiny_model()
        state = dict(model.state_arrays(), bogus=np.zeros(2))
        state["head.w2"] = state["head.w2"].T
        del state["head.b2"]
        message = "unknown parameters ['bogus']; missing or misshapen {'head.w2': (8, 1), 'head.b2': (1,)}"
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            RulModel(**model.hyperparams(), arrays=state)

    def test_arrays_and_init_rng_are_contract_error(self):
        model, _ = build_tiny_model()
        with pytest.raises(ContractError, match="init_rng or from arrays"):
            RulModel(**model.hyperparams(), arrays=dict(model.state_arrays()),
                     init_rng=np.random.default_rng(0))



# The sha256 of a tiny float32 model's initial parameters, per mode: name,
# dtype and shape, then the bytes, of every parameter in plan order.  No
# BLAS call draws them, so they are the same on every host, and a change
# to them changes every trained byte.
INIT_DIGESTS = {
    "L": "18b84c73b5edeed7cea9a094024ed84d08c04b9f33c4780b57410b4a9c98834c",
    "A": "e0e257b776c7b32f1d7a8c12d09365cdb0684f1dbf84699589978a78beb5842e",
    "F": "48ccf7675568ac340cd9e7929d39e5127d7ef3505b36a6da95684ddbfe902182",
    "F+T": "08fef605bb53f2a4afe835e35bbe14d2f6272150d23ab0be30f5c0020b420207",
}


@pytest.mark.parametrize("mode", MODES)
def test_init_draws_keep_their_bytes(mode):
    model = RulModel(n_features=4, window=6, mode=mode, feature_heads=2, sequence_heads=2,
                     lstm_hidden=8, lstm_layers=3, mlp_hidden=8, dropout=0.5,
                     init_rng=np.random.default_rng(7), dtype=np.float32)
    digest = hashlib.sha256()
    for name, arr in model.state_arrays():
        digest.update(f"{name} {arr.dtype.str} {arr.shape}\n".encode())
        digest.update(arr.tobytes())
    assert digest.hexdigest() == INIT_DIGESTS[mode]

# Window 10 and 24 channels: 2 heads divide both token widths, 7 neither.
# Each entry is the resolved (mode, feature heads, sequence heads), or the
# message of the ConfigurationError that validate() raises.
HEAD_TABLE = {
    "L": {-1: ">= 0", 0: ("L", 0, 0), 1: ("L", 0, 0), 2: ("L", 0, 0), 7: ("L", 0, 0)},
    "A": {-1: ">= 0", 0: ("A", 1, 0), 1: ("A", 1, 0), 2: ("A", 1, 0), 7: ("A", 1, 0)},
    "F": {-1: ">= 0", 0: ("L", 0, 0), 1: ("F", 1, 0), 2: ("F", 2, 0), 7: "does not divide"},
    "F+T": {-1: ">= 0", 0: ("L", 0, 0), 1: ("F+T", 1, 1), 2: ("F+T", 2, 2),
            7: "does not divide"},
}


class TestResolveBlocks:
    @pytest.mark.parametrize("heads", [-1, 0, 1, 2, 7])
    @pytest.mark.parametrize("mode", MODES)
    def test_mode_and_head_count_table(self, mode, heads):
        cfg = ExperimentConfig(mode=mode, feature_heads=heads, sequence_heads=heads, window=10,
                               lstm_hidden=4, lstm_layers=1, mlp_hidden=4)
        expected = HEAD_TABLE[mode][heads]
        if isinstance(expected, str):
            with pytest.raises(ConfigurationError, match=expected):
                cfg.validate(require_paths=False)
            return
        cfg.validate(require_paths=False)
        assert resolve_blocks(mode, heads, heads) == expected
        assert cfg.effective_heads() == expected[1:]
        model = RulModel(**cfg.model_kwargs())
        assert (model.mode, model.feature_heads, model.sequence_heads) == expected
        built = tuple(f"{prefix}.wqkv" in model.params for prefix in ("fa", "sa"))
        assert built == (expected[1] > 0, expected[2] > 0)
        rebuilt = RulModel(**model.hyperparams())
        assert rebuilt.hyperparams() == model.hyperparams()
        assert [n for n, _ in rebuilt.parameters()] == [n for n, _ in model.parameters()]

    @pytest.mark.parametrize("mode, fh, sh, expected", [
        ("F+T", 2, 0, ("F", 2, 0)),
        ("F+T", 0, 4, ("L", 0, 0)),
        ("F", 3, -1, None),
        ("X", 1, 1, None),
    ])
    def test_each_block_resolves_on_its_own(self, mode, fh, sh, expected):
        if expected is None:
            with pytest.raises(ConfigurationError):
                resolve_blocks(mode, fh, sh)
        else:
            assert resolve_blocks(mode, fh, sh) == expected
            assert resolve_blocks(*expected) == expected


# The paper's sizes, and small ones whose heads divide window 12 and 24
# channels.
PLAN_SIZES = [
    dict(n_features=24, window=30, feature_heads=5, sequence_heads=4, lstm_hidden=100,
         lstm_layers=3, mlp_hidden=100, dropout=0.5),
    dict(n_features=24, window=12, feature_heads=3, sequence_heads=2, lstm_hidden=7,
         lstm_layers=4, mlp_hidden=5, dropout=0.0),
]


class TestParameterShapes:
    @pytest.mark.parametrize("sizes", PLAN_SIZES, ids=["paper", "small"])
    @pytest.mark.parametrize("mode", MODES)
    def test_plan_is_the_model(self, mode, sizes):
        kwargs = dict(sizes, mode=mode)
        assert parameter_shapes(**kwargs) == [(n, p.shape) for n, p in RulModel(**kwargs).parameters()]

    @pytest.mark.parametrize("name, value, message", [
        ("window", True, "window must be a positive integer, got True"),
        ("lstm_layers", 2.0, "lstm_layers must be a positive integer, got 2.0"),
        ("feature_heads", 2.0, "feature_heads must be an integer, got 2.0"),
        ("sequence_heads", False, "sequence_heads must be an integer, got False"),
        ("dropout", True, "dropout must be a number in [0, 1), got True"),
        ("dtype", np.int32, "model dtype must be a float type, got int32"),
        # Sizes of 10**12 or more, so that nothing is allocated.
        ("lstm_layers", 10**12, "lstm_layers 1000000000000"),
        ("lstm_hidden", 10**12, "parameters, the cap is 134217728"),
    ])
    def test_bad_size_is_a_configuration_error(self, name, value, message):
        kwargs = dict(PLAN_SIZES[1], mode="F+T", **{name: value})
        for build in (parameter_shapes, RulModel):
            with pytest.raises(ConfigurationError, match=re.escape(message)):
                build(**kwargs)

    @pytest.mark.parametrize("name", ["window", "batch_size"])
    def test_mode_l_window_and_batch_meet_the_activation_cap(self, name):
        # No parameter of mode L depends on the window or the batch size.
        kwargs = dict(PLAN_SIZES[1], mode="L", **{name: 10**12})
        with pytest.raises(ConfigurationError, match=r"activations per batch, the cap is 268435456"):
            parameter_shapes(**kwargs)

    def test_parameter_cap_is_the_planned_count(self):
        # The deepest paper-width LSTM under the cap plans, one layer more
        # does not; the count is worked out without listing the layers.
        kwargs = dict(PLAN_SIZES[0], mode="F+T", lstm_layers=1)
        one = sum(math.prod(shape) for _, shape in parameter_shapes(**kwargs))
        per_layer = 8 * 100 * 100 + 4 * 100  # w_x and w_h (100, 400), bias (400,)
        layers = 1 + (MAX_PARAMETERS - one) // per_layer
        plan = parameter_shapes(**dict(kwargs, lstm_layers=layers))
        assert one + (layers - 1) * per_layer == sum(math.prod(s) for _, s in plan) <= MAX_PARAMETERS
        with pytest.raises(ConfigurationError, match="parameters, the cap is"):
            parameter_shapes(**dict(kwargs, lstm_layers=layers + 1))

    def test_validate_builds_no_model(self):
        cfg = ExperimentConfig()
        tracemalloc.start()
        try:
            cfg.validate(require_paths=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
