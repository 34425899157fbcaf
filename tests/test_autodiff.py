import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_tensor, scalar_loss
from rulnet import ContractError, DimensionError, NumericInputError, Tape, TapeError, Tensor
from rulnet import autodiff as ad
from rulnet.autodiff import exact_arithmetic, gradcheck


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
        assert np.array_equal(ad.matmul(eye, x).data, x.data)

    def test_dot_product(self):
        a = Tensor([[1.0, 2.0]])
        b = Tensor([[3.0], [4.0]])
        assert ad.matmul(a, b).data.tolist() == [[11.0]]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_exact_match_with_triple_loop_oracle(self, dtype):
        rng = np.random.default_rng(42)
        a = Tensor(rng.standard_normal((3, 4)), dtype=dtype)
        b = Tensor(rng.standard_normal((4, 2)), dtype=dtype)
        with exact_arithmetic():
            got = ad.matmul(a, b).data
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
            got = ad.matmul(a, b).data
        assert np.array_equal(got, triple_loop_matmul(a.data, b.data))

    def test_fast_kernel_agrees_with_exact_to_tolerance(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.standard_normal((16, 32)), dtype=np.float64)
        b = Tensor(rng.standard_normal((32, 8)), dtype=np.float64)
        fast = ad.matmul(a, b).data
        with exact_arithmetic():
            exact = ad.matmul(a, b).data
        np.testing.assert_allclose(fast, exact, rtol=1e-12, atol=1e-12)

    def test_batched_matches_einsum(self):
        rng = np.random.default_rng(4)
        a = Tensor(rng.standard_normal((5, 3, 4)), dtype=np.float64)
        b2 = Tensor(rng.standard_normal((4, 2)), dtype=np.float64)
        b3 = Tensor(rng.standard_normal((5, 4, 2)), dtype=np.float64)
        np.testing.assert_allclose(
            ad.matmul(a, b2).data, np.einsum("bmk,kn->bmn", a.data, b2.data), rtol=1e-12
        )
        np.testing.assert_allclose(
            ad.matmul(a, b3).data, np.einsum("bmk,bkn->bmn", a.data, b3.data), rtol=1e-12
        )

    def test_shape_mismatch_names_both_shapes(self):
        a = Tensor(np.zeros((2, 3)))
        b = Tensor(np.zeros((2, 3)))
        with pytest.raises(DimensionError) as err:
            ad.matmul(a, b)
        assert "(2, 3)" in str(err.value)

    def test_gradients(self):
        rng = np.random.default_rng(5)
        a = rand_tensor(rng, 3, 4)
        b = rand_tensor(rng, 4, 2)
        gradcheck(lambda: scalar_loss(a @ b), [a, b])


class TestSoftmax:
    def test_symmetry(self):
        out = ad.softmax(Tensor([0.0, 0.0]), axis=0)
        assert np.allclose(out.data, [0.5, 0.5])

    def test_shift_invariance_no_overflow(self):
        out = ad.softmax(Tensor([1000.0, 1000.0, 1000.0]), axis=0)
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-7)

    def test_log_inputs(self):
        x = np.log([1.0, 2.0, 3.0])
        out = ad.softmax(Tensor(x, dtype=np.float64), axis=0)
        oracle = np.exp(x) / np.exp(x).sum()
        np.testing.assert_allclose(out.data, oracle, atol=1e-12)
        np.testing.assert_allclose(out.data, [1 / 6, 2 / 6, 3 / 6], atol=1e-12)

    @given(
        rows=st.integers(1, 5), cols=st.integers(1, 6),
        axis=st.integers(0, 1), seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_slices_sum_to_one(self, rows, cols, axis, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((rows, cols)) * 10, dtype=np.float64)
        out = ad.softmax(x, axis=axis)
        assert np.all(out.data >= 0)
        np.testing.assert_allclose(out.data.sum(axis=axis), 1.0, atol=1e-6)

    def test_non_finite_rejected(self):
        with pytest.raises(NumericInputError):
            ad.softmax(Tensor([1.0, np.nan]), axis=0)
        with pytest.raises(NumericInputError):
            ad.softmax(Tensor([1.0, np.inf]), axis=0)

    def test_axis_out_of_range(self):
        with pytest.raises(DimensionError):
            ad.softmax(Tensor([[1.0]]), axis=2)

    def test_gradients(self):
        rng = np.random.default_rng(6)
        x = rand_tensor(rng, 3, 5)
        w = Tensor(rng.standard_normal((3, 5)), dtype=np.float64)
        gradcheck(lambda: ad.mean(ad.mul(ad.softmax(x, axis=1), w)), [x])


class TestElementwise:
    def test_sigmoid_zero(self):
        assert ad.sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_sigmoid_saturates_cleanly(self):
        out = ad.sigmoid(Tensor([-200.0, 200.0], dtype=np.float32))
        assert out.data.tolist() == [0.0, 1.0]

    def test_tanh_zero(self):
        assert ad.tanh(Tensor([0.0])).data[0] == 0.0

    def test_relu_gradient_at_zero_is_zero(self):
        x = Tensor([0.0, -1.0, 2.0], requires_grad=True, dtype=np.float64)
        with Tape() as tape:
            loss = ad.mean(ad.relu(x))
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, [0.0, 0.0, 1 / 3])

    def test_concat_rows_in_order(self):
        a = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
        b = Tensor(np.arange(6, 9, dtype=np.float64).reshape(1, 3))
        out = ad.concat([a, b], axis=0)
        assert out.shape == (3, 3)
        np.testing.assert_array_equal(out.data, np.arange(9).reshape(3, 3))

    def test_concat_rejects_off_axis_mismatch(self):
        with pytest.raises(DimensionError):
            ad.concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4)))], axis=0)

    def test_add_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))

    def test_mixed_dtypes_rejected(self):
        with pytest.raises(ContractError):
            ad.add(Tensor(np.zeros(2), dtype=np.float32), Tensor(np.zeros(2), dtype=np.float64))

    def test_elementwise_gradients(self):
        rng = np.random.default_rng(8)
        funcs = {
            "sigmoid": ad.sigmoid,
            "tanh": ad.tanh,
            "relu": lambda t: ad.relu(t),  # inputs shifted off the kink below
        }
        for name, fn in funcs.items():
            x = rand_tensor(rng, 2, 5, shift=0.6)
            gradcheck(lambda: scalar_loss(fn(x)), [x]), name
        x = rand_tensor(rng, 4, 3)
        y = rand_tensor(rng, 4, 3)
        gradcheck(lambda: ad.mean(ad.mul(ad.sub(x, y), ad.add(x, y))), [x, y])
        b = rand_tensor(rng, 3)
        gradcheck(lambda: scalar_loss(ad.add(x, b)), [x, b])
        gradcheck(lambda: scalar_loss(ad.scale(x, -1.7)), [x])
        gradcheck(lambda: scalar_loss(ad.concat([x, y], axis=1)), [x, y])
        gradcheck(lambda: scalar_loss(ad.reshape(x, (2, 6))), [x])
        assert np.array_equal(ad.transpose(ad.transpose(x)).data, x.data)
        gradcheck(lambda: scalar_loss(ad.transpose(x)), [x])


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
        x = Tensor(np.array([1.0]), requires_grad=True)
        with pytest.raises(TapeError):
            x.backward()
        with Tape() as tape:
            pass
        loose = ad.mean(Tensor(np.ones(2), requires_grad=True))
        with pytest.raises(TapeError):
            tape.backward(loose)

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
        assert y._tape is None and not y.requires_grad

    def test_gradients_are_bit_deterministic(self):
        def run():
            rng = np.random.default_rng(11)
            a = Tensor(rng.standard_normal((6, 6)), requires_grad=True, dtype=np.float64)
            b = Tensor(rng.standard_normal((6, 6)), requires_grad=True, dtype=np.float64)
            with Tape() as tape:
                loss = ad.mean(ad.mul(ad.softmax(a @ b, axis=1), a @ b))
            tape.backward(loss)
            return a.grad.copy(), b.grad.copy()

        ga1, gb1 = run()
        ga2, gb2 = run()
        assert np.array_equal(ga1, ga2) and np.array_equal(gb1, gb2)
