"""Minimal dense-tensor autodiff: the operations the RUL model needs,
recorded on a define-by-run tape and differentiated in reverse.

Tensors wrap a numpy array (float32 by default, float64 for verification
work).  While a :class:`Tape` is active, every operation whose inputs
require gradients appends a node; ``Tape.backward`` replays the node list
in reverse, which is a valid topological order by construction.  Tensors
hold no reference to the tape that recorded them, so a pass's whole graph
is freed as soon as its last reference goes, without the cycle collector.

Matrix products have two kernels.  The default delegates to BLAS.  The
"exact" kernel accumulates over the contraction index sequentially, in
index order, so its output is bit-identical to a scalar triple loop at the
same precision; enable it with :func:`exact_arithmetic` when comparing
against brute-force oracles.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NumericInputError, TapeError

DEFAULT_DTYPE = np.float32

_ACTIVE_TAPE: "Tape | None" = None
_EXACT_MATMUL = False


@contextlib.contextmanager
def exact_arithmetic():
    """Route matmul through the sequential, index-ordered kernel."""
    global _EXACT_MATMUL
    prev = _EXACT_MATMUL
    _EXACT_MATMUL = True
    try:
        yield
    finally:
        _EXACT_MATMUL = prev


class Tensor:
    """Dense numeric array plus an optional gradient buffer.

    ``data`` is always a C-contiguous-compatible ndarray; ``grad`` is either
    None or an ndarray of the same shape.  ``requires_grad`` is set on
    parameters and on every tensor a tape records.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, np.ndarray) and dtype is None and data.dtype.kind == "f":
            arr = data  # hot path: ops hand in ready float arrays
        else:
            if isinstance(data, Tensor):
                raise ContractError("wrap raw array data, not another Tensor")
            arr = np.asarray(data)
            if dtype is not None:
                arr = arr.astype(dtype, copy=False)
            elif arr.dtype.kind != "f":
                arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)

    # -- introspection -------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        req = " grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{req})"

    def item(self) -> float:
        if self.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)


Backward = Callable[[np.ndarray], list[tuple[Tensor, np.ndarray]]]


class Tape:
    """Ordered record of differentiable operations for one forward pass.

    Each node is an output tensor plus its gradient rule, which maps the
    upstream gradient to (input, contribution) pairs.  Execution order is
    a topological order, so reverse iteration visits every consumer of a
    tensor before its producer.  :meth:`backward` sums each tensor's
    contributions for the call, then adds the sum into the persistent
    ``grad`` of every tensor that requires one, so calling it twice
    accumulates additively.
    """

    def __init__(self):
        self._nodes: list[tuple[Tensor, Backward]] = []

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise TapeError("a tape is already active; tapes do not nest")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None

    def __len__(self) -> int:
        return len(self._nodes)

    def _record(self, out: Tensor, backward: Backward) -> None:
        out.requires_grad = True
        self._nodes.append((out, backward))

    def backward(self, loss: Tensor) -> None:
        """Propagate d(loss)=1 back through every recorded node; ``loss``
        must be a scalar this tape recorded."""
        if loss.size != 1:
            raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
        if not any(out is loss for out, _ in reversed(self._nodes)):
            raise TapeError("loss was not recorded on this tape")

        # Summed gradients keyed by tensor identity.  Contributions may be
        # views of other buffers, so every sum is taken out of place.
        grads: dict[int, tuple[Tensor, np.ndarray]] = {id(loss): (loss, np.ones_like(loss.data))}
        for out, backward in reversed(self._nodes):
            entry = grads.pop(id(out), None)
            if entry is None:
                continue
            g = entry[1]
            _flush(out, g)
            for tensor, contrib in backward(g):
                held = grads.get(id(tensor))
                grads[id(tensor)] = (tensor, contrib if held is None else held[1] + contrib)

        # Whatever remains was produced outside this tape: the leaves.
        for tensor, g in grads.values():
            _flush(tensor, g)


def _flush(tensor: Tensor, g: np.ndarray) -> None:
    if tensor.requires_grad:
        tensor.grad = g if tensor.grad is None else tensor.grad + g


def _tape_for(*tensors: Tensor) -> "Tape | None":
    if _ACTIVE_TAPE is None:
        return None
    if any(t.requires_grad for t in tensors):
        return _ACTIVE_TAPE
    return None


# ---------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------

def _matmul_exact(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Accumulate over the contraction index in order; bit-identical to the
    # scalar triple loop at the same dtype.
    out_shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-1])
    out = np.zeros(out_shape, dtype=a.dtype)
    for k in range(a.shape[-1]):
        out += a[..., :, k : k + 1] * b[..., k : k + 1, :]
    return out


def _matmul_data(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    if not _EXACT_MATMUL:
        return np.matmul(a, b, out=out)
    if out is None:
        return _matmul_exact(a, b)
    out[...] = _matmul_exact(a, b)
    return out


def _swap_last(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product.

    Supports (m,k)@(k,n), stacked (B,m,k)@(k,n) and (B,m,k)@(B,k,n).
    """
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs matrices, got shapes {a.shape} and {b.shape}")
    if a.ndim > 3 or b.ndim > 3 or (a.ndim == 2 and b.ndim == 3):
        raise DimensionError(f"unsupported matmul ranks: {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"inner dimensions differ: {a.shape} @ {b.shape}")
    if a.ndim == 3 and b.ndim == 3 and a.shape[0] != b.shape[0]:
        raise DimensionError(f"batch dimensions differ: {a.shape} @ {b.shape}")
    _check_dtypes(a, b)

    out = Tensor(_matmul_data(a.data, b.data))
    tape = _tape_for(a, b)
    if tape is not None:

        def backward(g: np.ndarray):
            contribs = []
            if a.requires_grad:
                contribs.append((a, _matmul_data(g, _swap_last(b.data))))
            if b.requires_grad:
                if a.ndim == 3 and b.ndim == 2:
                    # Collapse the batch: dB = sum_i A_i^T g_i.
                    k = a.shape[-1]
                    n = g.shape[-1]
                    contribs.append(
                        (b, _matmul_data(a.data.reshape(-1, k).T, np.ascontiguousarray(g).reshape(-1, n)))
                    )
                else:
                    contribs.append((b, _matmul_data(_swap_last(a.data), g)))
            return contribs

        tape._record(out, backward)
    return out


# ---------------------------------------------------------------------
# elementwise suite
# ---------------------------------------------------------------------

def _check_dtypes(*tensors: Tensor) -> None:
    first = tensors[0].data.dtype
    for t in tensors[1:]:
        if t.data.dtype != first:
            raise ContractError(
                f"mixed tensor dtypes: {sorted({str(x.data.dtype) for x in tensors})}"
            )


def _sum_to_shape(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
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


def _binary_shape_check(a: Tensor, b: Tensor, op: str) -> None:
    # Same shape, or a trailing-dims broadcast (bias add style).
    if a.shape == b.shape:
        return
    try:
        bshape = np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        bshape = None
    if bshape is None or (bshape != a.shape and bshape != b.shape):
        raise DimensionError(f"{op}: incompatible shapes {a.shape} and {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_shape_check(a, b, "add")
    _check_dtypes(a, b)
    out = Tensor(a.data + b.data)
    tape = _tape_for(a, b)
    if tape is not None:

        def backward(g: np.ndarray):
            contribs = []
            if a.requires_grad:
                contribs.append((a, _sum_to_shape(g, a.shape)))
            if b.requires_grad:
                contribs.append((b, _sum_to_shape(g, b.shape)))
            return contribs

        tape._record(out, backward)
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    _binary_shape_check(a, b, "sub")
    _check_dtypes(a, b)
    out = Tensor(a.data - b.data)
    tape = _tape_for(a, b)
    if tape is not None:

        def backward(g: np.ndarray):
            contribs = []
            if a.requires_grad:
                contribs.append((a, _sum_to_shape(g, a.shape)))
            if b.requires_grad:
                contribs.append((b, _sum_to_shape(-g, b.shape)))
            return contribs

        tape._record(out, backward)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Hadamard product."""
    _binary_shape_check(a, b, "mul")
    _check_dtypes(a, b)
    out = Tensor(a.data * b.data)
    tape = _tape_for(a, b)
    if tape is not None:

        def backward(g: np.ndarray):
            contribs = []
            if a.requires_grad:
                contribs.append((a, _sum_to_shape(g * b.data, a.shape)))
            if b.requires_grad:
                contribs.append((b, _sum_to_shape(g * a.data, b.shape)))
            return contribs

        tape._record(out, backward)
    return out


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python constant."""
    c = a.data.dtype.type(c)
    out = Tensor(a.data * c)
    tape = _tape_for(a)
    if tape is not None:
        tape._record(out, lambda g: [(a, g * c)])
    return out


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0))
    tape = _tape_for(a)
    if tape is not None:
        # Subgradient at exactly 0 is taken as 0.
        mask = a.data > 0
        tape._record(out, lambda g: [(a, g * mask)])
    return out


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    if a.ndim < 2:
        raise DimensionError(f"transpose needs rank >= 2, got shape {a.shape}")
    out = Tensor(_swap_last(a.data))
    tape = _tape_for(a)
    if tape is not None:
        tape._record(out, lambda g: [(a, _swap_last(g))])
    return out


def reshape(a: Tensor, shape) -> Tensor:
    shape = (shape,) if isinstance(shape, int) else tuple(shape)
    out = Tensor(a.data.reshape(shape))
    tape = _tape_for(a)
    if tape is not None:
        tape._record(out, lambda g: [(a, g.reshape(a.shape))])
    return out


def mean(a: Tensor) -> Tensor:
    """Mean over all elements; returns a scalar tensor."""
    out = Tensor(np.asarray(a.data.mean(), dtype=a.data.dtype))
    tape = _tape_for(a)
    if tape is not None:
        inv = 1.0 / a.size

        def backward(g: np.ndarray):
            return [(a, np.full(a.shape, g * inv, dtype=a.data.dtype))]

        tape._record(out, backward)
    return out


# ---------------------------------------------------------------------
# fused stacked LSTM
# ---------------------------------------------------------------------

def _sigmoid_inplace(z: np.ndarray) -> None:
    # 1 / (1 + exp(-z)), saturating to 0 or 1 where exp overflows.
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1
    np.reciprocal(z, out=z)


def lstm_weight_shapes(width: int, hidden: int, layer: int) -> tuple[tuple[int, ...], ...]:
    """Layer ``layer``'s w_x, w_h and bias shapes; layer 0 reads ``width`` features."""
    fan_in = width if layer == 0 else hidden
    return (fan_in, 4 * hidden), (hidden, 4 * hidden), (4 * hidden,)


def lstm(x: Tensor, w_x: Sequence[Tensor], w_h: Sequence[Tensor], bias: Sequence[Tensor]) -> Tensor:
    """Stacked LSTM over a (B, F, T) batch; returns the top layer's last
    hidden state, shape (B, H).

    Layer ``l`` has input weights ``w_x[l]`` (in, 4H), recurrent weights
    ``w_h[l]`` (H, 4H) and ``bias[l]`` (4H,), with the gates laid out as
    [input, forget, cell, output].  Every layer starts from zero hidden and
    cell states; upper layers consume the hidden sequence of the layer
    below.

    The whole stack is one tape node.  State is kept feature × batch, so
    each gate's slice of a time step is one contiguous (H, B) block: gate
    pre-activations are (T, 4H, B), and cell, tanh(cell) and hidden are
    (T, H, B).  Per layer, the forward pass does the input product
    w_xᵀ @ input[t] for all T steps in one batched call, then runs the
    recurrence in place.  The backward pass is hand-written BPTT over one
    reused (4H, B) step gradient dz.  At each step, while dz is in cache,
    it adds dz @ input[t]ᵀ, dz @ h[t-1]ᵀ and dz into the w_x, w_h and bias
    gradient sums (kept as (4H, ·) and transposed once per layer) and
    computes the step's input gradient w_x @ dz, so no whole-sequence gate
    gradient is stored.
    """
    layers = len(w_x)
    if layers < 1 or len(w_h) != layers or len(bias) != layers:
        raise ContractError(
            f"lstm needs equal, non-empty weight lists, got {len(w_x)}/{len(w_h)}/{len(bias)}"
        )
    if x.ndim != 3 or x.shape[2] < 1:
        raise DimensionError(f"lstm expects a (batch, features, T >= 1) input, got {x.shape}")
    batch, width, steps = x.shape
    hidden = w_h[0].shape[0]
    for layer in range(layers):
        shapes = (w_x[layer].shape, w_h[layer].shape, bias[layer].shape)
        if shapes != lstm_weight_shapes(width, hidden, layer):
            raise DimensionError(f"lstm layer {layer}: weight shapes {shapes} for input width {width}")
    _check_dtypes(x, *w_x, *w_h, *bias)
    dtype = x.data.dtype
    tape = _tape_for(x, *w_x, *w_h, *bias)

    seq = np.ascontiguousarray(x.data.transpose(2, 1, 0))  # (T, F, B)
    rec = np.empty((4 * hidden, batch), dtype)  # one step's recurrent product
    saved = []
    with np.errstate(over="ignore"):
        for layer in range(layers):
            gates = _matmul_data(w_x[layer].data.T, seq)
            # A contiguous (4H, B) bias block adds faster than a broadcast column.
            gates += np.repeat(bias[layer].data[:, None], batch, axis=1)
            w_h_t = w_h[layer].data.T
            cell = np.empty((steps, hidden, batch), dtype)
            tanh_cell = np.empty_like(cell)
            hid = np.empty_like(cell)
            for t in range(steps):
                z = gates[t]
                if t:
                    z += _matmul_data(w_h_t, hid[t - 1], out=rec)
                i, f, g, o = z.reshape(4, hidden, batch)
                np.tanh(g, out=tanh_cell[t])  # scratch until tanh(cell) lands
                _sigmoid_inplace(z)
                g[...] = tanh_cell[t]
                np.multiply(i, g, out=cell[t])
                if t:
                    np.multiply(f, cell[t - 1], out=hid[t])  # scratch until hidden lands
                    cell[t] += hid[t]
                np.tanh(cell[t], out=tanh_cell[t])
                np.multiply(o, tanh_cell[t], out=hid[t])
            if tape is not None:
                saved.append((seq, gates, cell, tanh_cell, hid))
            seq = hid
    out = Tensor(np.ascontiguousarray(hid[-1].T))
    if tape is not None:

        def backward(g_out: np.ndarray):
            contribs = []
            dz = np.empty((4, hidden, batch), dtype)  # one step's gate pre-activation gradients
            dz_flat = dz.reshape(4 * hidden, batch)
            dh = np.empty((hidden, batch), dtype)
            dc = np.empty_like(dh)
            carry = np.empty_like(dh)
            d_hid = None  # (T, H, B) gradient arriving from the layer above
            for layer in reversed(range(layers)):
                seq, gates, cell, tanh_cell, hid = saved[layer]
                fan_in = seq.shape[1]
                want_x = w_x[layer].requires_grad
                want_h = w_h[layer].requires_grad and steps > 1  # unused when T == 1
                want_b = bias[layer].requires_grad
                want_in = layer > 0 or x.requires_grad
                # Weight gradients accumulate transposed, (4H, in): dz @ inputᵀ
                # is the faster product orientation for these shapes.
                g_wx = np.zeros((4 * hidden, fan_in), dtype) if want_x else None
                g_wh = np.zeros((4 * hidden, hidden), dtype) if want_h else None
                g_b = np.zeros((4 * hidden, batch), dtype) if want_b else None
                d_in = np.empty((steps, fan_in, batch), dtype) if want_in else None
                part_x = np.empty((4 * hidden, fan_in), dtype)
                part_h = np.empty((4 * hidden, hidden), dtype)
                for t in range(steps - 1, -1, -1):
                    if t == steps - 1:
                        np.copyto(dh, g_out.T if d_hid is None else d_hid[t])
                    elif d_hid is not None:
                        dh += d_hid[t]
                    act = gates[t].reshape(4, hidden, batch)
                    i, f, g, o = act
                    # dc[t] = dh * o * (1 - tanh(c)^2) + dc[t+1] * f[t+1], with
                    # o * tanh(c)^2 taken as h * tanh(c).
                    np.multiply(hid[t], tanh_cell[t], out=dc)
                    np.subtract(o, dc, out=dc)
                    dc *= dh
                    if t < steps - 1:
                        dc += carry
                    # d(pre-activation) is s(1 - s) for the sigmoids and 1 - g^2
                    # for the cell candidate, times the factor the gate
                    # multiplies: g, c[t-1] and i by dc, tanh(c) by dh; the
                    # output gate's o * tanh(c) is h.
                    np.subtract(1, act[:2], out=dz[:2])
                    dz[:2] *= act[:2]
                    dz[0] *= g
                    if t:
                        dz[1] *= cell[t - 1]
                    else:
                        dz[1] = 0
                    np.multiply(g, g, out=dz[2])
                    np.subtract(1, dz[2], out=dz[2])
                    dz[2] *= i
                    dz[:3] *= dc
                    np.subtract(1, o, out=dz[3])
                    dz[3] *= hid[t]
                    dz[3] *= dh
                    if want_x:
                        g_wx += _matmul_data(dz_flat, seq[t].T, out=part_x)
                    if want_h and t:
                        g_wh += _matmul_data(dz_flat, hid[t - 1].T, out=part_h)
                    if want_b:
                        g_b += dz_flat
                    if want_in:
                        _matmul_data(w_x[layer].data, dz_flat, out=d_in[t])
                    if t:
                        np.multiply(dc, f, out=carry)
                        _matmul_data(w_h[layer].data, dz_flat, out=dh)
                if want_x:
                    contribs.append((w_x[layer], np.ascontiguousarray(g_wx.T)))
                if want_h:
                    contribs.append((w_h[layer], np.ascontiguousarray(g_wh.T)))
                if want_b:
                    contribs.append((bias[layer], g_b.sum(axis=1)))
                if layer:
                    d_hid = d_in
                elif want_in:
                    contribs.append((x, d_in.transpose(2, 1, 0)))
            return contribs

        tape._record(out, backward)
    return out


# ---------------------------------------------------------------------
# fused multi-head self-attention
# ---------------------------------------------------------------------

def _row_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=-1, keepdims=True)`` by halving with np.maximum, which
    is exact and avoids a slow reduction over a short axis."""
    while a.shape[-1] > 1:
        n = a.shape[-1]
        half = n // 2
        top = np.maximum(a[..., :half], a[..., half : 2 * half])
        if n % 2:
            np.maximum(top[..., :1], a[..., -1:], out=top[..., :1])
        a = top
    return a


def attention(x: Tensor, w_qkv: Tensor, w_o: Tensor, heads: int) -> tuple[Tensor, np.ndarray]:
    """Multi-head self-attention over the tokens of ``x``, shape (B, N, d)
    or a single (N, d) sample.

    ``w_qkv`` (d, 3·h·d_h) holds the query columns of heads 1..h, then
    their key columns, then their value columns; head ``i`` attends with
    softmax(q_i k_iᵀ / sqrt(d_h)) v_i, the softmax taken over each row.  The
    heads' outputs, concatenated in head order, go through ``w_o``
    (h·d_h, d_out).  Returns the output, (B, N, d_out) or (N, d_out), and
    the softmax weights as a plain array, (B, h, N, N) or (h, N, N).

    The block is one tape node.  One GEMM gives every head's q, k and v,
    the scores and weights·v run batched over (B, h), and the softmax
    backward is written by hand.  The forward arithmetic is that of a
    per-head evaluation, so its results do not depend on the batching.
    """
    if x.ndim not in (2, 3):
        raise DimensionError(f"attention expects (batch, tokens, width) or (tokens, width), got {x.shape}")
    tokens, width = x.shape[-2:]
    if heads < 1 or not (tokens and width and w_qkv.size):
        raise ContractError(f"attention needs heads, tokens and widths, got {heads}, {x.shape}, {w_qkv.shape}")
    if w_qkv.ndim != 2 or w_qkv.shape[0] != width or w_qkv.shape[1] % (3 * heads):
        raise DimensionError(f"attention projection {w_qkv.shape} for input {x.shape} and {heads} heads")
    d_head = w_qkv.shape[1] // (3 * heads)
    if w_o.ndim != 2 or w_o.shape[0] != heads * d_head:
        raise DimensionError(f"attention output weight {w_o.shape} for {heads} heads of {d_head}")
    _check_dtypes(x, w_qkv, w_o)
    dtype = x.data.dtype
    tape = _tape_for(x, w_qkv, w_o)

    rows = x.data.reshape(-1, width)  # (B·N, d)
    batch = rows.shape[0] // tokens
    qkv = _matmul_data(rows, w_qkv.data).reshape(batch, tokens, 3, heads, d_head)
    q, k, v = qkv.transpose(2, 0, 3, 1, 4)  # each (B, h, N, d_h)
    scale = dtype.type(1.0 / math.sqrt(d_head))
    weights = _matmul_data(q, _swap_last(k))
    weights *= scale
    peak = _row_max(weights)
    # The row maxima show NaN and +inf; the minimum shows -inf.
    if not (np.isfinite(peak).all() and np.isfinite(weights.min())):
        raise NumericInputError("attention scores contain non-finite values")
    weights -= peak
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    merged = np.empty((batch, tokens, heads, d_head), dtype)
    _matmul_data(weights, v, out=merged.transpose(0, 2, 1, 3))
    merged = merged.reshape(batch * tokens, heads * d_head)
    out_shape = x.shape[:-1] + (w_o.shape[1],)
    out = Tensor(_matmul_data(merged, w_o.data).reshape(out_shape))
    if tape is not None:

        def backward(g: np.ndarray):
            contribs = []
            g = g.reshape(batch * tokens, -1)
            if w_o.requires_grad:
                contribs.append((w_o, _matmul_data(merged.T, g)))
            d_merged = _matmul_data(g, w_o.data.T)
            d_out = d_merged.reshape(batch, tokens, heads, d_head).transpose(0, 2, 1, 3)
            d_qkv = np.empty((batch, tokens, 3, heads, d_head), dtype)
            d_q, d_k, d_v = d_qkv.transpose(2, 0, 3, 1, 4)
            _matmul_data(_swap_last(weights), d_out, out=d_v)
            # Softmax backward: ds = (dw - Σ_j dw_j w_j) w for dw = d_out vᵀ.
            # The row sum equals Σ_k d_out_k o_k for the head output o = w v,
            # one matrix-vector product over the narrow head width.
            ones = np.ones((d_head, 1), dtype)
            row_dot = _matmul_data((d_merged * merged).reshape(-1, d_head), ones)
            ds = _matmul_data(d_out, _swap_last(v))
            ds -= row_dot.reshape(batch, tokens, heads, 1).transpose(0, 2, 1, 3)
            ds *= weights
            ds *= scale
            _matmul_data(ds, k, out=d_q)
            _matmul_data(_swap_last(ds), q, out=d_k)
            d_qkv = d_qkv.reshape(batch * tokens, 3 * heads * d_head)
            if w_qkv.requires_grad:
                contribs.append((w_qkv, _matmul_data(rows.T, d_qkv)))
            if x.requires_grad:
                contribs.append((x, _matmul_data(d_qkv, w_qkv.data.T).reshape(x.shape)))
            return contribs

        tape._record(out, backward)
    return out, weights.reshape(x.shape[:-2] + weights.shape[1:])


# ---------------------------------------------------------------------
# verification helpers
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
