import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (add, gradcheck, head_blocks, head_chain, lstm_weights, matmul, mse_chain,
                      per_head_attention, rand_tensor, relu, reshape, scalar_loss, scale, sub, transpose)
from rulnet import ContractError, DimensionError, NumericInputError, Tape, TapeError, Tensor
from rulnet import autodiff as ad
from rulnet.autodiff import exact_arithmetic


def triple_loop_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Brute-force oracle: scalar loops, sequential accumulation in k."""
    m, k = a.shape
    _, n = b.shape
    out = np.zeros((m, n), dtype=a.dtype)
    for i in range(m):
        for j in range(n):
            acc = a.dtype.type(0)
            for kk in range(k):
                acc = a.dtype.type(acc + a[i, kk] * b[kk, j])
            out[i, j] = acc
    return out


class TestMatmul:
    def test_identity(self):
        eye = Tensor(np.eye(2))
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(eye, x).data, x.data)

    def test_dot_product(self):
        a = Tensor([[1.0, 2.0]])
        b = Tensor([[3.0], [4.0]])
        assert matmul(a, b).data.tolist() == [[11.0]]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_exact_match_with_triple_loop_oracle(self, dtype):
        rng = np.random.default_rng(42)
        a = Tensor(rng.standard_normal((3, 4)), dtype=dtype)
        b = Tensor(rng.standard_normal((4, 2)), dtype=dtype)
        with exact_arithmetic():
            got = matmul(a, b).data
        assert np.array_equal(got, triple_loop_matmul(a.data, b.data))

    @given(
        m=st.integers(1, 5), k=st.integers(1, 6), n=st.integers(1, 5),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_exact_oracle_property(self, m, k, n, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.standard_normal((m, k)), dtype=np.float64)
        b = Tensor(rng.standard_normal((k, n)), dtype=np.float64)
        with exact_arithmetic():
            got = matmul(a, b).data
        assert np.array_equal(got, triple_loop_matmul(a.data, b.data))

    def test_fast_kernel_agrees_with_exact_to_tolerance(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.standard_normal((16, 32)), dtype=np.float64)
        b = Tensor(rng.standard_normal((32, 8)), dtype=np.float64)
        fast = matmul(a, b).data
        with exact_arithmetic():
            exact = matmul(a, b).data
        np.testing.assert_allclose(fast, exact, rtol=1e-12, atol=1e-12)

    def test_batched_matches_einsum(self):
        rng = np.random.default_rng(4)
        a = Tensor(rng.standard_normal((5, 3, 4)), dtype=np.float64)
        b2 = Tensor(rng.standard_normal((4, 2)), dtype=np.float64)
        b3 = Tensor(rng.standard_normal((5, 4, 2)), dtype=np.float64)
        np.testing.assert_allclose(
            matmul(a, b2).data, np.einsum("bmk,kn->bmn", a.data, b2.data), rtol=1e-12
        )
        np.testing.assert_allclose(
            matmul(a, b3).data, np.einsum("bmk,bkn->bmn", a.data, b3.data), rtol=1e-12
        )

    def test_shape_mismatch_names_both_shapes(self):
        a = Tensor(np.zeros((2, 3)))
        b = Tensor(np.zeros((2, 3)))
        with pytest.raises(DimensionError) as err:
            matmul(a, b)
        assert "(2, 3)" in str(err.value)

    def test_gradients(self):
        rng = np.random.default_rng(5)
        a = rand_tensor(rng, 3, 4)
        b = rand_tensor(rng, 4, 2)
        gradcheck(lambda: scalar_loss(matmul(a, b)), [a, b])


def attend(x, w_q, w_k, w_v, w_o=None):
    """One-head ``ad.attention`` on float64 arrays; ``w_o`` defaults to
    the identity, so the output is weights · values."""
    t = lambda a: Tensor(np.asarray(a, dtype=np.float64), dtype=np.float64)
    if w_o is None:
        w_o = np.eye(np.shape(w_v)[1])
    out, weights = ad.attention(t(x), t(np.hstack([w_q, w_k, w_v])), t(w_o), 1)
    return out.data, weights[0]


class TestSoftmax:
    """The row softmax inside ``ad.attention``."""

    def test_symmetry(self):
        x = np.ones((2, 1))
        _, weights = attend(x, [[1.0]], [[1.0]], [[1.0]])
        np.testing.assert_allclose(weights, 0.5)

    def test_shift_invariance_no_overflow(self):
        # Identical tokens: every score is 3 · 1000² / sqrt(3), far past exp's range.
        x = np.full((3, 3), 1000.0)
        eye = np.eye(3)
        for dtype in (np.float32, np.float64):
            t = lambda a: Tensor(a, dtype=dtype)
            out, weights = ad.attention(t(x), t(np.tile(eye, 3)), t(eye), 1)
            assert np.all(np.isfinite(weights)) and np.all(np.isfinite(out.data))
            np.testing.assert_allclose(weights, 1 / 3, atol=1e-7)

    def test_log_inputs(self):
        # q = 1 and k_j = log(j + 1) for every token, so each score row is log([1, 2, 3]).
        x = np.stack([np.ones(3), np.log([1.0, 2.0, 3.0])], axis=1)
        _, weights = attend(x, [[1.0], [0.0]], [[0.0], [1.0]], [[1.0], [0.0]])
        oracle = np.exp(np.log([1.0, 2.0, 3.0])) / 6.0
        for row in weights:
            np.testing.assert_allclose(row, oracle, atol=1e-12)
            np.testing.assert_allclose(row, [1 / 6, 2 / 6, 3 / 6], atol=1e-12)

    @given(
        tokens=st.integers(1, 5), width=st.integers(1, 6),
        heads=st.integers(1, 3), seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_slices_sum_to_one(self, tokens, width, heads, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((2, tokens, width)) * 10, dtype=np.float64)
        w_qkv = Tensor(np.hstack([rng.standard_normal((width, 2)) for _ in range(3 * heads)]))
        w_o = Tensor(rng.standard_normal((2 * heads, width)), dtype=np.float64)
        _, weights = ad.attention(x, w_qkv, w_o, heads)
        assert weights.shape == (2, heads, tokens, tokens)
        assert np.all(weights >= 0)
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-6)

    def test_non_finite_rejected(self):
        eye = Tensor(np.eye(2, dtype=np.float32))
        w_qkv = Tensor(np.tile(eye.data, 3))
        for bad in (np.nan, np.inf, -np.inf):
            x = Tensor(np.array([[1.0, 0.0], [bad, 1.0]], dtype=np.float32))
            with pytest.raises(NumericInputError), np.errstate(invalid="ignore"):
                ad.attention(x, w_qkv, eye, 1)
        # Finite tokens whose scores overflow float32 are rejected too.
        huge = Tensor(np.full((2, 2), 3e19, dtype=np.float32))
        with pytest.raises(NumericInputError), np.errstate(over="ignore"):
            ad.attention(huge, w_qkv, eye, 1)

    def test_gradients(self):
        rng = np.random.default_rng(6)
        x = rand_tensor(rng, 3, 5)
        w_qkv = Tensor(np.hstack([rng.standard_normal((5, 5)) for _ in range(3)]), requires_grad=True)
        readout = Tensor(rng.standard_normal((3, 5)), dtype=np.float64)
        eye = Tensor(np.eye(5))
        loss = lambda: ad.mean(ad.mul(ad.attention(x, w_qkv, eye, 1)[0], readout))
        gradcheck(loss, [x, w_qkv])


def attention_setup(shape, heads, seed, dtype=np.float64, x_grad=True):
    """Input of ``shape`` (..., N, d), the fused projection of ``heads``
    heads of width d / heads, drawn one head block at a time, and the
    output weight."""
    rng = np.random.default_rng(seed)
    width = shape[-1]
    d_head = width // heads
    x = Tensor(rng.standard_normal(shape), requires_grad=x_grad, dtype=dtype)
    bound = 1.0 / np.sqrt(width)
    blocks = [rng.uniform(-bound, bound, (width, d_head)) for _ in range(3 * heads)]
    w_qkv = Tensor(np.hstack(blocks), requires_grad=True, dtype=dtype)
    w_o = Tensor(rng.uniform(-bound, bound, (width, width)), requires_grad=True, dtype=dtype)
    return x, w_qkv, w_o


def attention_grads(run, params, readout):
    """Output, weights and gradients of mean(run() * readout)."""
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        out, weights = run()
        loss = ad.mean(ad.mul(out, readout))
    tape.backward(loss)
    return out.data, weights, [None if p.grad is None else p.grad.copy() for p in params]


class TestAttention:
    @pytest.mark.parametrize("shape, heads, x_grad", [
        ((3, 24, 30), 5, True),   # feature block: 24 channel tokens of width T = 30
        ((3, 30, 24), 4, True),   # sequence block: 30 time-step tokens of width 24
        ((2, 6, 8), 1, True),
        ((5, 6), 2, True),        # a single sample
        ((3, 24, 30), 5, False),  # data input, as the feature block trains
    ])
    def test_matches_per_head_reference(self, shape, heads, x_grad):
        # The reference runs on each head's column blocks of w_qkv; the
        # fused w_qkv gradient is their per-head gradients joined.
        x, w_qkv, w_o = attention_setup(shape, heads, seed=sum(shape) + heads, x_grad=x_grad)
        w_q, w_k, w_v = head_blocks(w_qkv, heads)
        readout = Tensor(np.random.default_rng(0).standard_normal(shape) * np.prod(shape))
        fused = attention_grads(lambda: ad.attention(x, w_qkv, w_o, heads), [x, w_qkv, w_o], readout)
        ref = attention_grads(lambda: per_head_attention(x, w_q, w_k, w_v, w_o),
                              [x, *w_q, *w_k, *w_v, w_o], readout)
        assert fused[1].shape == shape[:-2] + (heads, shape[-2], shape[-2])
        np.testing.assert_allclose(fused[0], ref[0], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(fused[1], ref[1], rtol=1e-12, atol=1e-12)
        d_x, d_qkv, d_o = fused[2]
        if x_grad:
            np.testing.assert_allclose(d_x, ref[2][0], rtol=1e-12, atol=1e-12)
        else:
            assert d_x is None and ref[2][0] is None
        assert d_qkv.shape == w_qkv.shape
        np.testing.assert_allclose(d_qkv, np.hstack(ref[2][1:-1]), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(d_o, ref[2][-1], rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("batch", [1, 7, 128])
    @pytest.mark.parametrize("tokens, width, heads", [(24, 30, 5), (30, 24, 4)])
    def test_float32_forward_bit_identical_to_reference(self, batch, tokens, width, heads):
        x, w_qkv, w_o = attention_setup((batch, tokens, width), heads, seed=batch, dtype=np.float32)
        out, w = ad.attention(x, w_qkv, w_o, heads)
        ref_out, ref_w = per_head_attention(x, *head_blocks(w_qkv, heads), w_o)
        assert out.dtype == np.float32 and w.dtype == np.float32
        assert np.array_equal(out.data, ref_out.data)
        assert np.array_equal(w, ref_w)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape, heads", [((128, 30, 24), 4), ((30, 24), 4), ((3, 5, 6), 2)])
    def test_time_axis_equals_transposed_tokens_bit_for_bit(self, shape, heads, dtype):
        # The sequence block's (B, F, T) input attended along T, against the
        # op on the transposed view with a transpose node on either side.
        tokens_first, w_qkv, w_o = attention_setup(shape, heads, seed=sum(shape), dtype=dtype)
        x = Tensor(np.ascontiguousarray(np.swapaxes(tokens_first.data, -1, -2)), requires_grad=True)
        readout = Tensor(np.random.default_rng(2).standard_normal(x.shape).astype(dtype))

        def wrapped():
            out, weights = ad.attention(transpose(x), w_qkv, w_o, heads)
            return transpose(out), weights

        params = [x, w_qkv, w_o]
        fused = attention_grads(lambda: ad.attention(x, w_qkv, w_o, heads, token_axis=-1), params, readout)
        ref = attention_grads(wrapped, params, readout)
        assert fused[0].shape == x.shape and fused[1].shape == shape[:-2] + (heads,) + shape[-2:-1] * 2
        for got, want in zip([fused[0], fused[1], *fused[2]], [ref[0], ref[1], *ref[2]]):
            assert got.dtype == dtype and np.array_equal(got, want)
        with pytest.raises(DimensionError):
            ad.attention(x, w_qkv, w_o, heads, token_axis=0)

    def test_gradcheck(self):
        x, w_qkv, w_o = attention_setup((2, 4, 6), 2, seed=31)
        readout = Tensor(np.random.default_rng(1).standard_normal((2, 4, 6)))
        loss = lambda: ad.mean(ad.mul(ad.attention(x, w_qkv, w_o, 2)[0], readout))
        gradcheck(loss, [x, w_qkv, w_o])
        with exact_arithmetic():
            gradcheck(loss, [x, w_qkv, w_o])

    def test_records_one_node_and_nothing_without_a_tape(self):
        x, w_qkv, w_o = attention_setup((2, 4, 6), 2, seed=32)
        out, _ = ad.attention(x, w_qkv, w_o, 2)
        assert not out.requires_grad
        with Tape() as tape:
            out, _ = ad.attention(x, w_qkv, w_o, 2)
        assert len(tape) == 1 and out.requires_grad
        with Tape() as tape:
            ad.attention(Tensor(x.data), Tensor(w_qkv.data), Tensor(w_o.data), 2)
        assert len(tape) == 0

    def test_weight_shapes_checked(self):
        x, w_qkv, w_o = attention_setup((2, 4, 6), 2, seed=33)
        with pytest.raises(ContractError):
            ad.attention(x, w_qkv, w_o, 0)
        with pytest.raises(DimensionError):
            ad.attention(x, w_qkv, w_o, 4)  # 18 columns are not 3 · 4 equal heads
        with pytest.raises(DimensionError):
            ad.attention(x, Tensor(w_qkv.data[:, :-1]), w_o, 2)
        with pytest.raises(DimensionError):
            ad.attention(x, Tensor(w_qkv.data[:-1]), w_o, 2)
        with pytest.raises(DimensionError):
            ad.attention(x, w_qkv, Tensor(np.zeros((4, 6))), 2)
        with pytest.raises(DimensionError):
            ad.attention(Tensor(np.zeros(6)), w_qkv, w_o, 2)


def head_setup(batch, width, hidden, outputs, seed, dtype=np.float64, x_grad=True, masked=True):
    """Input, parameters (w1, b1, w2, b2) and a dropout mask of rate 0.5,
    or None, for ``ad.mlp_head``; the biases are drawn, not zero."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((batch, width)), requires_grad=x_grad, dtype=dtype)
    params = [Tensor(rng.uniform(-1, 1, shape) / np.sqrt(shape[0]), requires_grad=True, dtype=dtype)
              for shape in ((width, hidden), (hidden,), (hidden, outputs), (outputs,))]
    mask = ((rng.random((batch, hidden)) >= 0.5) / 0.5).astype(dtype) if masked else None
    return x, params, mask


def taped_grads(loss_fn, tensors):
    """Loss and every tensor's gradient (None where it got none) of one
    taped ``loss_fn()``."""
    for t in tensors:
        t.zero_grad()
    with Tape() as tape:
        loss = loss_fn()
    tape.backward(loss)
    return loss.data, [None if t.grad is None else t.grad.copy() for t in tensors]


class TestMlpHead:
    @pytest.mark.parametrize("x_grad", [True, False])
    @pytest.mark.parametrize("masked", [True, False])
    def test_gradcheck(self, masked, x_grad):
        x, params, mask = head_setup(4, 5, 6, 2, seed=40, x_grad=x_grad, masked=masked)
        readout = Tensor(np.random.default_rng(41).standard_normal((4, 2)))
        gradcheck(lambda: ad.mean(ad.mul(ad.mlp_head(x, *params, mask), readout)), [x] * x_grad + params)
        assert (x.grad is not None) == x_grad

    @pytest.mark.parametrize("masked", [True, False])
    def test_float32_bit_identical_to_reference_chain(self, masked):
        # Paper sizes: a batch of 128 LSTM outputs of 100, an MLP of 100.
        x, params, mask = head_setup(128, 100, 100, 1, seed=42, dtype=np.float32, masked=masked)
        readout = Tensor(np.random.default_rng(43).standard_normal((128, 1)).astype(np.float32))

        def run(head):
            """The head's output, then the gradients of x, w1, b1, w2 and b2."""
            out = head(x, *params, mask)
            return [out.data, *taped_grads(lambda: ad.mean(ad.mul(head(x, *params, mask), readout)),
                                           [x, *params])[1]]

        for got, want in zip(run(ad.mlp_head), run(head_chain)):
            assert got.dtype == np.float32 and got.tobytes() == want.tobytes()

    def test_rectifier_gradient_at_zero_is_zero(self):
        # A zero input leaves each pre-activation at its bias: 0, -1 and 2.
        x = Tensor(np.zeros((2, 1)), dtype=np.float64)
        b1 = Tensor(np.array([0.0, -1.0, 2.0]), requires_grad=True)
        w1, w2, b2 = Tensor(np.ones((1, 3))), Tensor(np.ones((3, 1))), Tensor(np.zeros(1))
        with Tape() as tape:
            loss = ad.mean(ad.mlp_head(x, w1, b1, w2, b2))
        tape.backward(loss)
        np.testing.assert_allclose(b1.grad, [0.0, 0.0, 1.0])

    def test_records_one_node_and_nothing_without_a_tape(self):
        x, params, mask = head_setup(3, 4, 5, 1, seed=44)
        assert not ad.mlp_head(x, *params, mask).requires_grad
        with Tape() as tape:
            out = ad.mlp_head(x, *params, mask)
        assert len(tape) == 1 and out.requires_grad
        with Tape() as tape:
            ad.mlp_head(*(Tensor(t.data) for t in [x, *params]), mask)
        assert len(tape) == 0

    def test_shapes_and_dtypes_checked(self):
        x, (w1, b1, w2, b2), mask = head_setup(3, 4, 5, 1, seed=45)
        for args in [(Tensor(x.data[0]), w1, b1, w2, b2, mask), (x, Tensor(w1.data[1:]), b1, w2, b2, mask),
                     (x, w1, Tensor(b1.data[1:]), w2, b2, mask), (x, w1, b1, Tensor(w2.data[1:]), b2, mask),
                     (x, w1, b1, w2, Tensor(np.zeros(2)), mask), (x, w1, b1, w2, b2, mask[1:])]:
            with pytest.raises(DimensionError):
                ad.mlp_head(*args)
        with pytest.raises(ContractError):
            ad.mlp_head(x, w1, b1, w2, Tensor(b2.data, dtype=np.float32), mask)


class TestMse:
    def test_gradcheck(self):
        rng = np.random.default_rng(46)
        pred, truth = rand_tensor(rng, 5, 1), rand_tensor(rng, 5)
        gradcheck(lambda: ad.mse(pred, truth), [pred, truth])

    @pytest.mark.parametrize("truth_grad", [False, True])
    def test_float32_bit_identical_to_reference_chain(self, truth_grad):
        rng = np.random.default_rng(47)
        pred = Tensor(rng.uniform(0, 125, (128, 1)).astype(np.float32), requires_grad=True)
        truth = Tensor(rng.uniform(0, 125, 128).astype(np.float32), requires_grad=truth_grad)
        fused = taped_grads(lambda: ad.mse(pred, truth), [pred, truth])
        chain = taped_grads(lambda: mse_chain(pred, truth), [pred, truth])
        for got, want in zip([fused[0], *fused[1]], [chain[0], *chain[1]]):
            if want is None:
                assert got is None and not truth_grad
            else:
                assert got.dtype == np.float32 and got.tobytes() == want.tobytes()

    def test_records_one_node_and_checks_its_inputs(self):
        pred = Tensor(np.ones((3, 1)), requires_grad=True, dtype=np.float32)
        with Tape() as tape:
            ad.mse(pred, Tensor(np.zeros(3), dtype=np.float32))
        assert len(tape) == 1
        with pytest.raises(DimensionError):
            ad.mse(pred, Tensor(np.zeros(4)))
        with pytest.raises(ContractError):
            ad.mse(pred, Tensor(np.zeros(3), dtype=np.float64))


class TestElementwise:
    # The LSTM's gate sigmoid, computed in place.
    def test_sigmoid_zero(self):
        z = np.zeros(1)
        ad._sigmoid_inplace(z)
        assert z[0] == 0.5

    def test_sigmoid_saturates_cleanly(self):
        z = np.array([-200.0, 200.0], dtype=np.float32)
        with np.errstate(over="ignore"):
            ad._sigmoid_inplace(z)
        assert z.tolist() == [0.0, 1.0]

    def test_relu_gradient_at_zero_is_zero(self):
        x = Tensor([0.0, -1.0, 2.0], requires_grad=True, dtype=np.float64)
        with Tape() as tape:
            loss = ad.mean(relu(x))
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, [0.0, 0.0, 1 / 3])

    def test_add_shape_mismatch(self):
        with pytest.raises(DimensionError):
            add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))

    def test_mixed_dtypes_rejected(self):
        with pytest.raises(ContractError):
            add(Tensor(np.zeros(2), dtype=np.float32), Tensor(np.zeros(2), dtype=np.float64))

    def test_mul_shape_mismatch(self):
        with pytest.raises(DimensionError, match=r"mul: incompatible shapes \(2, 3\) and \(3, 2\)"):
            ad.mul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))

    def test_elementwise_gradients(self):
        rng = np.random.default_rng(8)
        x = rand_tensor(rng, 2, 5, shift=0.6)  # inputs shifted off the rectifier's kink
        gradcheck(lambda: scalar_loss(relu(x)), [x])
        x = rand_tensor(rng, 4, 3)
        y = rand_tensor(rng, 4, 3)
        gradcheck(lambda: ad.mean(ad.mul(sub(x, y), add(x, y))), [x, y])
        b = rand_tensor(rng, 3)
        gradcheck(lambda: scalar_loss(add(x, b)), [x, b])
        gradcheck(lambda: scalar_loss(scale(x, -1.7)), [x])
        gradcheck(lambda: scalar_loss(reshape(x, (2, 6))), [x])
        assert np.array_equal(transpose(transpose(x)).data, x.data)
        gradcheck(lambda: scalar_loss(transpose(x)), [x])


class TestInputChecks:
    def test_wraps_raw_data_not_a_tensor(self):
        with pytest.raises(ContractError, match="not another Tensor"):
            Tensor(Tensor(np.zeros(2)))

    def test_integer_data_becomes_the_default_float(self):
        t = Tensor([1, 2])
        assert t.dtype == ad.DEFAULT_DTYPE and t.data.tolist() == [1.0, 2.0]

    def test_item_needs_one_element(self):
        with pytest.raises(ContractError, match=r"single-element tensor, got shape \(2,\)"):
            Tensor(np.zeros(2)).item()

    def test_lstm_needs_a_3d_input(self):
        w_x, w_h, bias = lstm_weights(3, 4, 1, np.random.default_rng(0))
        with pytest.raises(DimensionError, match="lstm expects"):
            ad.lstm(Tensor(np.zeros((2, 3))), w_x, w_h, bias)


def fused_op_setup(op):
    """An input that requires a gradient, the weights ``op`` reads, and a
    call of the op on them."""
    if op == "attention":
        x, w_qkv, w_o = attention_setup((2, 4, 6), 2, seed=48)
        return x, [w_qkv, w_o], lambda x, w: ad.attention(x, *w, 2)[0]
    if op == "mlp_head":
        x, params, mask = head_setup(3, 4, 5, 1, seed=49)
        return x, params, lambda x, w: ad.mlp_head(x, *w, mask)
    rng = np.random.default_rng(50)
    w_x, w_h, bias = lstm_weights(3, 4, 2, rng)
    return rand_tensor(rng, 2, 3, 5), [*w_x, *w_h, *bias], lambda x, w: ad.lstm(x, w[0:2], w[2:4], w[4:6])


@pytest.mark.parametrize("op", ["attention", "mlp_head", "lstm"])
def test_frozen_weights_get_no_gradient(op):
    # A fused op returns a gradient for every weight it reads; the tape
    # drops those of weights that require none, and the input's gradient
    # does not change.
    x, weights, run = fused_op_setup(op)

    def grads(trainable):
        for w in weights:
            w.requires_grad = trainable
        return taped_grads(lambda: scalar_loss(run(x, weights)), [x, *weights])[1]

    trained = grads(True)
    assert all(g is not None for g in trained)
    frozen = grads(False)
    assert all(g is None for g in frozen[1:])
    assert frozen[0].tobytes() == trained[0].tobytes()


class TestBackward:
    def test_square_gradient(self):
        x = Tensor(np.array([3.0]), requires_grad=True, dtype=np.float64)
        with Tape() as tape:
            loss = ad.mean(ad.mul(x, x))
        tape.backward(loss)
        assert x.grad.tolist() == [6.0]

    def test_mean_gradient(self):
        x = Tensor(np.ones(4), requires_grad=True, dtype=np.float64)
        with Tape() as tape:
            loss = ad.mean(x)
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, [0.25] * 4)

    def test_repeated_backward_accumulates(self):
        x = Tensor(np.array([3.0]), requires_grad=True, dtype=np.float64)
        with Tape() as tape:
            loss = ad.mean(ad.mul(x, x))
        tape.backward(loss)
        tape.backward(loss)
        assert x.grad.tolist() == [12.0]

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            y = ad.mul(x, x)
        with pytest.raises(ContractError):
            tape.backward(y)

    def test_detached_loss_rejected(self):
        leaf = Tensor(np.array([1.0]), requires_grad=True)
        with Tape() as tape:
            pass
        with pytest.raises(TapeError):
            tape.backward(leaf)
        loose = ad.mean(Tensor(np.ones(2), requires_grad=True))
        with pytest.raises(TapeError):
            tape.backward(loose)
        with Tape():
            other = ad.mean(Tensor(np.ones(2), requires_grad=True))
        with pytest.raises(TapeError):
            tape.backward(other)

    def test_tapes_do_not_nest(self):
        with Tape():
            with pytest.raises(TapeError):
                with Tape():
                    pass

    def test_intermediates_get_grad_buffers(self):
        x = Tensor(np.array([2.0]), requires_grad=True, dtype=np.float64)
        with Tape() as tape:
            y = ad.mul(x, x)
            loss = ad.mean(y)
        tape.backward(loss)
        assert y.grad is not None and x.grad is not None

    def test_no_recording_outside_tape(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = ad.mul(x, x)
        assert not y.requires_grad

    def test_gradients_are_bit_deterministic(self):
        def run():
            rng = np.random.default_rng(11)
            a = Tensor(rng.standard_normal((6, 6)), requires_grad=True, dtype=np.float64)
            b = Tensor(rng.standard_normal((6, 6)), requires_grad=True, dtype=np.float64)
            # q, k, v projections a, b, a, placed by exact one-hot products.
            eye, zero = np.eye(6), np.zeros((6, 6))
            place_a, place_b = Tensor(np.hstack([eye, zero, eye])), Tensor(np.hstack([zero, eye, zero]))
            with Tape() as tape:
                out, _ = ad.attention(matmul(a, b), add(matmul(a, place_a), matmul(b, place_b)), b, 1)
                loss = ad.mean(ad.mul(out, matmul(a, b)))
            tape.backward(loss)
            return a.grad.copy(), b.grad.copy()

        ga1, gb1 = run()
        ga2, gb2 = run()
        assert np.array_equal(ga1, ga2) and np.array_equal(gb1, gb2)
