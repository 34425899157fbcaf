# rulnet before numpy: its BLAS thread cap applies only while numpy is not
# yet loaded, and pytest imports this file before any test module.
import rulnet

import json
import math
import struct
from typing import Callable, Iterable

import numpy as np
import pytest

from rulnet import DimensionError, RulModel, Tape, Tensor
from rulnet import autodiff as ad
from rulnet.data import parse_cmapss, parse_rul_truth
from rulnet.synthetic import generate_dataset


def build_tiny_model(seed=0, mode="F+T", dtype=np.float64, dropout=0.0):
    """4-channel, 6-step model, 2 heads per axis, hidden 8."""
    rng = np.random.default_rng(seed)
    model = RulModel(
        n_features=4,
        window=6,
        mode=mode,
        feature_heads=2,
        sequence_heads=2,
        lstm_hidden=8,
        lstm_layers=3,
        mlp_hidden=8,
        dropout=dropout,
        init_rng=rng,
        dtype=dtype,
    )
    # Keep every rectifier preactivation away from its kink so central
    # finite differences stay valid around the test point.
    model.params["head.b1"].data += 0.05
    return model, rng


def lstm_weights(width, hidden, layers, rng, dtype=np.float64):
    """Leaf ``w_x``, ``w_h`` and ``bias`` lists for ``ad.lstm``, drawn in the
    order and way ``RulModel`` draws its LSTM: per layer, each matrix
    uniform in ±1/sqrt(rows), then a zero bias whose forget-gate rows are 1."""
    params = []
    for layer in range(layers):
        for shape in ad.lstm_weight_shapes(width, hidden, layer):
            if len(shape) == 1:
                data = np.zeros(shape)
                data[hidden : 2 * hidden] = 1.0
            else:
                bound = 1.0 / math.sqrt(shape[0])
                data = rng.uniform(-bound, bound, size=shape)
            params.append(Tensor(data.astype(dtype), requires_grad=True))
    return params[0::3], params[1::3], params[2::3]


@pytest.fixture
def tiny_model():
    return build_tiny_model()[0]


@pytest.fixture(scope="session")
def synth1(tmp_path_factory):
    """Small single-condition dataset plus parsed contents."""
    root = tmp_path_factory.mktemp("synth1")
    ds = generate_dataset(root, name="S1", n_train=16, n_test=8, n_conditions=1, seed=5)
    return {
        "ds": ds,
        "train": parse_cmapss(ds.train_path),
        "test": parse_cmapss(ds.test_path),
        "truth": parse_rul_truth(ds.truth_path),
    }


@pytest.fixture(scope="session")
def synth6(tmp_path_factory):
    """Small six-condition dataset plus parsed contents."""
    root = tmp_path_factory.mktemp("synth6")
    ds = generate_dataset(root, name="M6", n_train=16, n_test=8, n_conditions=6, seed=9)
    return {
        "ds": ds,
        "train": parse_cmapss(ds.train_path),
        "test": parse_cmapss(ds.test_path),
        "truth": parse_rul_truth(ds.truth_path),
    }


def rand_tensor(rng, *shape, requires_grad=True, shift=0.0):
    return Tensor(rng.standard_normal(shape) + shift, requires_grad=requires_grad, dtype=np.float64)


def scalar_loss(t):
    """Quadratic scalar readout used by gradient checks."""
    return ad.mean(ad.mul(t, t))


# ---------------------------------------------------------------------
# finite-difference oracle for the tape's gradients
# ---------------------------------------------------------------------

def numeric_gradient(
    f: Callable[[], float], param: Tensor, eps: float = 1e-5
) -> np.ndarray:
    """Central finite differences of a scalar function w.r.t. one tensor.

    ``f`` must re-evaluate the quantity of interest from current tensor
    contents.  Purely forward evaluations; independent of the tape.
    """
    flat = param.data.reshape(-1)
    grad = np.zeros(param.size, dtype=np.float64)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = f()
        flat[i] = orig - eps
        down = f()
        flat[i] = orig
        grad[i] = (up - down) / (2.0 * eps)
    return grad.reshape(param.shape)


def gradcheck(
    loss_fn: Callable[[], Tensor],
    params: Iterable[Tensor],
    eps: float = 1e-5,
    rtol: float = 1e-4,
) -> float:
    """Compare tape gradients of ``loss_fn`` against central differences.

    Returns the worst relative error (denominator max(|a|, |b|, 1e-8));
    raises AssertionError when it exceeds ``rtol``.
    """
    params = list(params)
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        loss = loss_fn()
    tape.backward(loss)
    worst = 0.0
    for n, p in enumerate(params):
        analytic = np.zeros(p.shape, dtype=np.float64) if p.grad is None else p.grad.astype(np.float64)
        numeric = numeric_gradient(lambda: loss_fn().item(), p, eps=eps)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
        rel = np.abs(analytic - numeric) / denom
        worst = max(worst, float(rel.max()))
        if rel.max() > rtol:
            idx = np.unravel_index(int(rel.argmax()), rel.shape)
            raise AssertionError(
                f"gradient mismatch for parameter {n}{list(idx)}: "
                f"analytic={analytic[idx]:.8g} numeric={numeric[idx]:.8g} rel={rel.max():.3g}"
            )
    return worst


# ---------------------------------------------------------------------
# reference paths: tape ops the fused kernels replaced, kept for checks
# ---------------------------------------------------------------------

def _reference_op(a, y, grad):
    """Record ``y = f(a)`` on the active tape with input gradient
    ``grad(g, y)``: how the tape recorded its elementwise ops."""
    out = Tensor(y)
    tape = ad._tape_for(a)
    if tape is not None:
        tape._record(out, lambda g: [(a, grad(g, y))])
    return out


def _sum_to_shape(g, shape):
    """Reduce a broadcast gradient back to the operand's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ts) in enumerate(zip(g.shape, shape)) if ts == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _binary_op(a, b, sign, name):
    """Record a + b (``sign`` 1) or a - b (``sign`` -1), where the shapes
    are equal or one broadcasts to the other (a bias add)."""
    if a.shape != b.shape:
        try:
            shape = np.broadcast_shapes(a.shape, b.shape)
        except ValueError:
            shape = None
        if shape not in (a.shape, b.shape):
            raise DimensionError(f"{name}: incompatible shapes {a.shape} and {b.shape}")
    ad._check_dtypes(a, b)
    out = Tensor(a.data + b.data if sign > 0 else a.data - b.data)
    tape = ad._tape_for(a, b)
    if tape is not None:

        def backward(g):
            contribs = []
            if a.requires_grad:
                contribs.append((a, _sum_to_shape(g, a.shape)))
            if b.requires_grad:
                contribs.append((b, _sum_to_shape(g if sign > 0 else -g, b.shape)))
            return contribs

        tape._record(out, backward)
    return out


def add(a, b):
    return _binary_op(a, b, 1, "add")


def sub(a, b):
    return _binary_op(a, b, -1, "sub")


def scale(a, c):
    """Multiply by a python constant."""
    c = a.dtype.type(c)
    return _reference_op(a, a.data * c, lambda g, y: g * c)


def relu(a):
    """Rectifier; its gradient at exactly 0 is taken as 0."""
    return _reference_op(a, np.maximum(a.data, 0), lambda g, y: g * (a.data > 0))


def transpose(a):
    """Swap the last two axes."""
    return _reference_op(a, ad._swap_last(a.data), lambda g, y: ad._swap_last(g))


def reshape(a, shape):
    """The same elements in a new shape."""
    return _reference_op(a, a.data.reshape(shape), lambda g, y: g.reshape(a.shape))


def matmul(a, b):
    """Matrix product, (m,k)@(k,n), (B,m,k)@(k,n) or (B,m,k)@(B,k,n), through
    ``ad._matmul_data``, so ``exact_arithmetic`` applies."""
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs matrices, got shapes {a.shape} and {b.shape}")
    if a.ndim > 3 or b.ndim > 3 or (a.ndim == 2 and b.ndim == 3):
        raise DimensionError(f"unsupported matmul ranks: {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"inner dimensions differ: {a.shape} @ {b.shape}")
    if a.ndim == 3 and b.ndim == 3 and a.shape[0] != b.shape[0]:
        raise DimensionError(f"batch dimensions differ: {a.shape} @ {b.shape}")
    ad._check_dtypes(a, b)
    out = Tensor(ad._matmul_data(a.data, b.data))
    tape = ad._tape_for(a, b)
    if tape is not None:

        def backward(g):
            contribs = []
            if a.requires_grad:
                contribs.append((a, ad._matmul_data(g, ad._swap_last(b.data))))
            if b.requires_grad:
                if a.ndim == 3 and b.ndim == 2:
                    # Collapse the batch: dB = sum_i A_i^T g_i.
                    k, n = a.shape[-1], g.shape[-1]
                    flat_g = np.ascontiguousarray(g).reshape(-1, n)
                    contribs.append((b, ad._matmul_data(a.data.reshape(-1, k).T, flat_g)))
                else:
                    contribs.append((b, ad._matmul_data(ad._swap_last(a.data), g)))
            return contribs

        tape._record(out, backward)
    return out


def head_chain(x, w1, b1, w2, b2, mask=None):
    """Reference for ``ad.mlp_head``: matmul, add, relu, dropout mul,
    matmul, add, one tape node each."""
    hidden = relu(add(matmul(x, w1), b1))
    if mask is not None:
        hidden = ad.mul(hidden, Tensor(mask))
    return add(matmul(hidden, w2), b2)


def mse_chain(pred, truth):
    """Reference for ``ad.mse``: reshape, sub, mul, mean, one tape node each."""
    diff = sub(reshape(pred, (pred.size,)), reshape(truth, (truth.size,)))
    return ad.mean(ad.mul(diff, diff))


def sigmoid(a):
    with np.errstate(over="ignore"):
        y = (1.0 / (1.0 + np.exp(-a.data))).astype(a.dtype, copy=False)
    return _reference_op(a, y, lambda g, y: g * (y * (1.0 - y)))


def tanh(a):
    return _reference_op(a, np.tanh(a.data), lambda g, y: g * (1.0 - y * y))


def softmax_rows(a):
    """Softmax over the last axis in ``ad.attention``'s order: subtract
    the row max, exp, sum the row one key at a time in key order, then
    multiply by the sum's reciprocal."""
    e = np.exp(a.data - a.data.max(axis=-1, keepdims=True))
    total = e[..., 0].copy()
    for j in range(1, e.shape[-1]):
        total += e[..., j]
    y = e * (1 / total)[..., None]
    return _reference_op(a, y, lambda g, y: (g - (g * y).sum(axis=-1, keepdims=True)) * y)


def per_head_attention(x, w_q, w_k, w_v, w_o):
    """Per-head reference for ``ad.attention``: one tape op per product,
    scale, softmax and head.

    Head ``i`` computes softmax((x w_q[i])(x w_k[i])ᵀ · 1/sqrt(d_h)) x w_v[i].
    The heads are joined by products with one-hot placement matrices,
    which is exact, so the result equals concatenating them; then comes
    the output projection.  Returns the output tensor and the stacked
    weights, (B, h, N, N) or (h, N, N).
    """
    heads, d_head = len(w_q), w_q[0].shape[1]
    place = np.eye(heads * d_head, dtype=x.dtype)
    merged, weights = None, []
    for i in range(heads):
        scores = scale(matmul(matmul(x, w_q[i]), transpose(matmul(x, w_k[i]))), 1.0 / math.sqrt(d_head))
        w = softmax_rows(scores)
        weights.append(w.data)
        head = matmul(matmul(w, matmul(x, w_v[i])), Tensor(place[i * d_head : (i + 1) * d_head]))
        merged = head if merged is None else add(merged, head)
    return matmul(merged, w_o), np.stack(weights, axis=-3)


def head_blocks(w_qkv, heads):
    """Each head's column blocks of a fused (d, 3·h·d_h) projection, as
    per-head lists ``w_q``, ``w_k``, ``w_v`` of new (d, d_h) leaf tensors:
    the input of :func:`per_head_attention`."""
    blocks = [Tensor(b.copy(), requires_grad=True) for b in np.split(w_qkv.data, 3 * heads, axis=1)]
    return blocks[:heads], blocks[heads : 2 * heads], blocks[2 * heads :]


def stored_state_lstm(x, w_x, w_h, bias):
    """Reference for ``ad.lstm``: the fused op as it stood while a taped
    call kept every step's stacked operand [input[t]; h[t-1]; 1] and the
    whole (T, H, B) cell, where ``ad.lstm`` rebuilds the one and recomputes
    the other.  Both make the same numpy calls on the same values, so
    outputs and gradients agree byte for byte."""
    layers = len(w_x)
    batch, _, steps = x.shape
    hidden = w_h[0].shape[0]
    ad._check_dtypes(x, *w_x, *w_h, *bias)
    dtype = x.data.dtype
    tape = ad._tape_for(x, *w_x, *w_h, *bias)
    inputs = x.data.transpose(2, 1, 0)  # (T, F, B)
    # Step t writes h[t] into the hidden rows of operand t + 1: a taped
    # layer keeps T + 1 operands, the last holding only h[T-1], and an
    # untaped one reuses its one operand.
    kept = steps if tape is not None else 1
    saved = []
    with np.errstate(over="ignore"):
        for layer in range(layers):
            fan_in = inputs.shape[1]
            w_t = ad._joined_gates(hidden, w_x[layer].data, w_h[layer].data, bias[layer].data[None]).T
            ops = np.empty((steps + 1 if tape is not None else 1, fan_in + hidden + 1, batch), dtype)
            if tape is not None:
                ops[:steps, :fan_in] = inputs
            ops[0, fan_in:-1] = 0
            ops[:, -1] = 1
            h_rows = ops[:, fan_in:-1]
            hid = np.empty((steps, hidden, batch), dtype) if tape is None and layer < layers - 1 else None
            gates = np.empty((kept, 4 * hidden, batch), dtype)
            cell = np.empty((min(steps, kept + 1), hidden, batch), dtype)
            for t in range(steps):
                op = ops[t % len(ops)]
                if tape is None:
                    op[:fan_in] = inputs[t]
                z = ad._matmul_data(w_t, op, out=gates[t % kept])
                c, h = cell[t % len(cell)], h_rows[(t + 1) % len(ops)]
                o, i, f, g = z.reshape(4, hidden, batch)
                ad._sigmoid_inplace(z[: 3 * hidden])
                np.tanh(g, out=g)
                np.multiply(i, g, out=c)
                if t:
                    np.multiply(f, cell[(t - 1) % len(cell)], out=h)
                    c += h
                np.tanh(c, out=h)
                h *= o
                if hid is not None:
                    hid[t] = h
            if tape is not None:
                saved.append((ops, gates, cell))
                inputs = h_rows[1:]
            else:
                inputs = hid
    out = Tensor(np.ascontiguousarray(h.T))
    if tape is not None:

        def backward(g_out):
            contribs = []
            dz = np.empty((4, hidden, batch), dtype)
            dz_flat = dz.reshape(4 * hidden, batch)
            dc = np.empty((hidden, batch), dtype)
            carry = np.empty_like(dc)
            d_hid = None
            for layer in reversed(range(layers)):
                ops, gates, cell = saved[layer]
                fan_in = ops.shape[1] - hidden - 1
                hid = ops[1:, fan_in:-1]
                stride = fan_in if layer > 0 or x.requires_grad else 0
                w_back = ad._joined_gates(hidden, w_h[layer].data, w_x[layer].data[:stride])
                d_buf = np.empty((hidden + steps * stride, batch), dtype)
                g_w = np.zeros((4 * hidden, fan_in + hidden + 1), dtype)
                part = np.empty_like(g_w)
                for t in range(steps - 1, -1, -1):
                    dh = d_buf[(t + 1) * stride : (t + 1) * stride + hidden]
                    if t == steps - 1:
                        np.copyto(dh, g_out.T if d_hid is None else d_hid[t])
                    elif d_hid is not None:
                        dh += d_hid[t]
                    act = gates[t].reshape(4, hidden, batch)
                    o, i, f, g = act
                    np.tanh(cell[t], out=dc)
                    dc *= hid[t]
                    np.subtract(o, dc, out=dc)
                    dc *= dh
                    if t < steps - 1:
                        dc += carry
                    np.subtract(1, act[1:3], out=dz[1:3])
                    dz[1:3] *= act[1:3]
                    dz[1] *= g
                    if t:
                        dz[2] *= cell[t - 1]
                    else:
                        dz[2] = 0
                    np.multiply(g, g, out=dz[3])
                    np.subtract(1, dz[3], out=dz[3])
                    dz[3] *= i
                    dz[1:] *= dc
                    np.subtract(1, o, out=dz[0])
                    dz[0] *= hid[t]
                    dz[0] *= dh
                    g_w += ad._matmul_data(dz_flat, ops[t].T, out=part)
                    if t:
                        np.multiply(dc, f, out=carry)
                    skip = 0 if t else hidden
                    if skip < len(w_back):
                        ad._matmul_data(w_back[skip:], dz_flat,
                                        out=d_buf[t * stride + skip : t * stride + hidden + stride])
                g_w = np.roll(g_w, -hidden, axis=0)
                contribs += [(w_x[layer], np.ascontiguousarray(g_w[:, :fan_in].T)),
                             (w_h[layer], np.ascontiguousarray(g_w[:, fan_in:-1].T)),
                             (bias[layer], g_w[:, -1].copy())]
                d_hid = d_buf[hidden:].reshape(steps, fan_in, batch) if stride else None
                if layer == 0 and stride:
                    contribs.append((x, d_hid.transpose(2, 1, 0)))
            return contribs

        tape._record(out, backward)
    return out


def window_ending_at(channels, end, window):
    """Reference for ``windows_ending_at``: the (F, T) window of the
    cycles ending at ``end`` (1-based), sliced from row-per-cycle storage
    and transposed; cycles before the first repeat cycle 1."""
    start = end - window
    if start >= 0:
        block = channels[start:end]
    else:
        pad = np.repeat(channels[0:1], -start, axis=0)
        block = np.vstack([pad, channels[:end]])
    return np.ascontiguousarray(block.T, dtype=np.float32)


def with_extra_tensor(blob, name):
    """A bundle's bytes with one more tensor named ``name`` at the end of
    its table: a copy of the first tensor's entry and bytes."""
    (header_len,) = struct.unpack_from("<Q", blob, 12)
    header = json.loads(blob[20 : 20 + header_len])
    first = header["tensors"][0]
    end = sum(t["nbytes"] for t in header["tensors"])
    header["tensors"].append(dict(first, name=name, offset=end))
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    body = blob[20 + header_len :]
    return blob[:12] + struct.pack("<Q", len(text)) + text + body + body[: first["nbytes"]]
