import json
import math
import struct

import numpy as np
import pytest

from rulnet import RulModel, Tensor
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


def sigmoid(a):
    with np.errstate(over="ignore"):
        y = (1.0 / (1.0 + np.exp(-a.data))).astype(a.dtype, copy=False)
    return _reference_op(a, y, lambda g, y: g * (y * (1.0 - y)))


def tanh(a):
    return _reference_op(a, np.tanh(a.data), lambda g, y: g * (1.0 - y * y))


def softmax_rows(a):
    """Softmax over the last axis: subtract the row max, exp, divide by
    the row sum."""
    e = np.exp(a.data - a.data.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
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
        scores = ad.scale(ad.matmul(x @ w_q[i], ad.transpose(x @ w_k[i])), 1.0 / math.sqrt(d_head))
        w = softmax_rows(scores)
        weights.append(w.data)
        head = (w @ (x @ w_v[i])) @ Tensor(place[i * d_head : (i + 1) * d_head])
        merged = head if merged is None else merged + head
    return merged @ w_o, np.stack(weights, axis=-3)


def head_blocks(w_qkv, heads):
    """Each head's column blocks of a fused (d, 3·h·d_h) projection, as
    per-head lists ``w_q``, ``w_k``, ``w_v`` of new (d, d_h) leaf tensors:
    the input of :func:`per_head_attention`."""
    blocks = [Tensor(b.copy(), requires_grad=True) for b in np.split(w_qkv.data, 3 * heads, axis=1)]
    return blocks[:heads], blocks[heads : 2 * heads], blocks[2 * heads :]


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
