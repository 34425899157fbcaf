"""Minimal dense-tensor autodiff: the operations the RUL model needs,
recorded on a define-by-run tape and differentiated in reverse.

Tensors wrap a numpy array (float32 by default, float64 for verification
work).  While a :class:`Tape` is active, every operation whose inputs
require gradients appends a node; ``Tape.backward`` replays the node list
in reverse, which is a valid topological order by construction.  A fused
op's rule gives a gradient for every weight it takes, zeros for one it
does not read; the tape keeps those of tensors that require one.
Tensors hold no reference to the tape that recorded them, so a pass's
whole graph is freed as soon as its last reference goes, without the
cycle collector.

Matrix products have two kernels.  The default delegates to BLAS.  The
"exact" kernel accumulates over the contraction index sequentially, in
index order, so its output is bit-identical to a scalar triple loop at the
same precision; enable it with :func:`exact_arithmetic` when comparing
against brute-force oracles.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Sequence

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
# matrix products
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


# ---------------------------------------------------------------------
# elementwise and shape ops
# ---------------------------------------------------------------------

def _check_dtypes(*tensors: Tensor) -> None:
    first = tensors[0].data.dtype
    for t in tensors[1:]:
        if t.data.dtype != first:
            raise ContractError(
                f"mixed tensor dtypes: {sorted({str(x.data.dtype) for x in tensors})}"
            )


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Hadamard product of two tensors of one shape."""
    if a.shape != b.shape:
        raise DimensionError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    _check_dtypes(a, b)
    out = Tensor(a.data * b.data)
    tape = _tape_for(a, b)
    if tape is not None:

        def backward(g: np.ndarray):
            contribs = []
            if a.requires_grad:
                contribs.append((a, g * b.data))
            if b.requires_grad:
                contribs.append((b, g * a.data))
            return contribs

        tape._record(out, backward)
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
# fused MLP head and squared-error loss
# ---------------------------------------------------------------------

def mlp_head(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
             mask: np.ndarray | None = None) -> Tensor:
    """Two dense layers over a (B, H) batch: relu(x @ w1 + b1), times the
    (B, M) dropout ``mask`` when one is given, then @ w2 + b2; (B, O) out.

    One tape node with a hand-written backward.  Both passes make the
    numpy calls of the matmul, add, relu, mul, matmul, add chain, in its
    order, so every bit equals that chain's.  The rectifier's gradient at
    exactly 0 is 0.  A forward that overflows returns inf or NaN without a
    warning: the caller checks the output.
    """
    shapes = [t.shape for t in (x, w1, b1, w2, b2)]
    if (x.ndim != 2 or w2.ndim != 2
            or shapes[1:] != [(x.shape[1], w2.shape[0]), (w2.shape[0],), w2.shape, (w2.shape[1],)]
            or (mask is not None and mask.shape != (x.shape[0], w2.shape[0]))):
        raise DimensionError(f"mlp_head shapes {shapes}, mask {None if mask is None else mask.shape}")
    _check_dtypes(x, w1, b1, w2, b2)
    with np.errstate(over="ignore", invalid="ignore"):
        hidden = _matmul_data(x.data, w1.data)
        hidden += b1.data
        active = hidden > 0
        np.maximum(hidden, 0, out=hidden)
        if mask is not None:
            hidden *= mask
        out = Tensor(_matmul_data(hidden, w2.data))
        out.data += b2.data
    tape = _tape_for(x, w1, b1, w2, b2)
    if tape is not None:

        def backward(g: np.ndarray):
            contribs = [(b2, g.sum(axis=0)), (w2, _matmul_data(hidden.T, g))]
            g = _matmul_data(g, w2.data.T)
            if mask is not None:
                g = g * mask
            g = g * active
            return contribs + [(b1, g.sum(axis=0)), (w1, _matmul_data(x.data.T, g)),
                               (x, _matmul_data(g, w1.data.T))]

        tape._record(out, backward)
    return out


def mse(pred: Tensor, truth: Tensor) -> Tensor:
    """Mean squared difference of two tensors of one size, as a scalar.

    One tape node; both passes make the numpy calls of the reshape, sub,
    mul, mean chain, so every bit equals that chain's.
    """
    if pred.size != truth.size:
        raise DimensionError(f"mse of {pred.shape} and {truth.shape}")
    _check_dtypes(pred, truth)
    # An overflow gives an infinite loss, which the caller checks for.
    with np.errstate(over="ignore", invalid="ignore"):
        diff = pred.data.reshape(pred.size) - truth.data.reshape(truth.size)
        out = Tensor(np.asarray((diff * diff).mean(), dtype=diff.dtype))
    tape = _tape_for(pred, truth)
    if tape is not None:
        inv = 1.0 / diff.size

        def backward(g: np.ndarray):
            # d(diff·diff) is diff's gradient twice, summed as the tape sums two uses.
            half = np.full(diff.shape, g * inv, dtype=diff.dtype) * diff
            d_diff = half + half
            contribs = [(pred, d_diff.reshape(pred.shape))]
            if truth.requires_grad:
                contribs.append((truth, (-d_diff).reshape(truth.shape)))
            return contribs

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


def _joined_gates(hidden: int, *parts: np.ndarray) -> np.ndarray:
    """The (·, 4H) ``parts`` stacked by rows, with their gate columns
    rolled from [input, forget, cell, output] to [output, input, forget,
    cell], so the three sigmoid gates are one contiguous block."""
    return np.roll(np.concatenate(parts), hidden, axis=1)


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
    each gate's slice of a time step is one contiguous (H, B) block.  Each
    call joins a layer's weights once into W = [w_x; w_h; bias], shape
    (in+H+1, 4H), its gate columns rolled to [output, input, forget, cell]
    so that one sigmoid covers the three sigmoid gates, and each step's
    (4H, B) gate pre-activations are one product Wᵀ @ [input[t]; h[t-1]; 1]
    with one stacked (in+H+1, B) operand per layer, followed by the cell
    update in place.  Each step writes tanh(c) into the operand's hidden
    rows and scales it there by the output gate, so no tanh(cell) is
    stored, and only the last two cells are.  While a tape records, the
    op keeps x as one contiguous (T, F, B) copy and, per layer, the
    (T, 4H, B) gate activations and the (T, H, B) hidden sequence, for as
    long as the tape holds its node.  Without a tape it keeps one step's
    gates and the hidden sequence the layer above reads; the arithmetic,
    and so every output bit, is the same either way.

    The backward pass is hand-written BPTT over one reused (4H, B) step
    gradient dz.  Per layer it first recomputes the cell into one (T, H, B)
    scratch with the forward's own operations, i·g for all steps in one
    call, then f[t]·c[t-1] added in step order, and each step's tanh(c)
    from it into its dc scratch, so every value is the forward's.  At
    each step it rebuilds the operand [input[t]; h[t-1]; 1] in one
    (in+H+1, B) scratch and, while dz is in cache, adds dz @ operandᵀ into
    one (4H, in+H+1) sum that holds the w_x, w_h and bias gradients (split
    and transposed once per layer); one product [w_h; w_x] @ dz gives the
    previous step's recurrent gradient and this step's input gradient
    together, so no whole-sequence gate gradient is stored.
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

    inputs = x.data.transpose(2, 1, 0)  # (T, F, B)
    if tape is not None:  # the backward reads layer 0's rows again, step by step
        inputs = np.ascontiguousarray(inputs)
    # The backward reads every step's gates; without a tape they hold one
    # step, and step t uses row t modulo their length.
    kept = steps if tape is not None else 1
    saved = []
    with np.errstate(over="ignore"):
        for layer in range(layers):
            fan_in = inputs.shape[1]
            w_t = _joined_gates(hidden, w_x[layer].data, w_h[layer].data, bias[layer].data[None]).T
            op = np.empty((fan_in + hidden + 1, batch), dtype)
            op[fan_in:-1] = 0
            op[-1] = 1
            h = op[fan_in:-1]  # step t writes h[t] here, for step t + 1 to read
            # The backward and the layer above read the hidden sequence from here.
            hid = np.empty((steps, hidden, batch), dtype) if tape is not None or layer < layers - 1 else None
            gates = np.empty((kept, 4 * hidden, batch), dtype)
            cell = np.empty((min(steps, 2), hidden, batch), dtype)
            for t in range(steps):
                op[:fan_in] = inputs[t]
                z = _matmul_data(w_t, op, out=gates[t % kept])
                c = cell[t % 2]
                o, i, f, g = z.reshape(4, hidden, batch)
                _sigmoid_inplace(z[: 3 * hidden])
                np.tanh(g, out=g)
                np.multiply(i, g, out=c)
                if t:
                    np.multiply(f, cell[(t - 1) % 2], out=h)  # scratch until h[t] lands
                    c += h
                np.tanh(c, out=h)
                h *= o
                if hid is not None:
                    hid[t] = h
            if tape is not None:
                saved.append((inputs, gates, hid))
            inputs = hid
    out = Tensor(np.ascontiguousarray(h.T))
    if tape is not None:

        def backward(g_out: np.ndarray):
            contribs = []
            dz = np.empty((4, hidden, batch), dtype)  # one step's gate pre-activation gradients
            dz_flat = dz.reshape(4 * hidden, batch)
            dc = np.empty((hidden, batch), dtype)
            carry = np.empty_like(dc)
            cell = np.empty((steps, hidden, batch), dtype)  # each layer's cell, recomputed in turn
            d_hid = None  # (T, H, B) gradient arriving from the layer above
            for layer in reversed(range(layers)):
                inputs, gates, hid = saved[layer]
                fan_in = inputs.shape[1]
                _, i_all, f_all, g_all = gates.reshape(steps, 4, hidden, batch).transpose(1, 0, 2, 3)
                np.multiply(i_all, g_all, out=cell)
                for t in range(1, steps):
                    np.multiply(f_all[t], cell[t - 1], out=dc)
                    cell[t] += dc
                op = np.empty((fan_in + hidden + 1, batch), dtype)  # step t's [input[t]; h[t-1]; 1]
                op[-1] = 1
                # [w_h; w_x] @ dz is [dh for step t-1; d_in[t]].  Step t writes
                # it at row t·stride of one (H + T·stride, B) buffer whose rows
                # from H on are the input gradients d_in, in step order: each
                # step's dh lands on d_in rows that only earlier steps write,
                # after they have read it.
                stride = fan_in if layer > 0 or x.requires_grad else 0
                w_back = _joined_gates(hidden, w_h[layer].data, w_x[layer].data[:stride])
                d_buf = np.empty((hidden + steps * stride, batch), dtype)
                g_w = np.zeros((4 * hidden, fan_in + hidden + 1), dtype)  # [w_x; w_h; bias] gradient, transposed
                part = np.empty_like(g_w)
                for t in range(steps - 1, -1, -1):
                    dh = d_buf[(t + 1) * stride : (t + 1) * stride + hidden]
                    if t == steps - 1:
                        np.copyto(dh, g_out.T if d_hid is None else d_hid[t])
                    elif d_hid is not None:
                        dh += d_hid[t]
                    act = gates[t].reshape(4, hidden, batch)
                    o, i, f, g = act
                    # dc[t] = dh * o * (1 - tanh(c)^2) + dc[t+1] * f[t+1], with
                    # o * tanh(c)^2 taken as h * tanh(c), tanh(c) recomputed.
                    np.tanh(cell[t], out=dc)
                    dc *= hid[t]
                    np.subtract(o, dc, out=dc)
                    dc *= dh
                    if t < steps - 1:
                        dc += carry
                    # d(pre-activation) is s(1 - s) for the sigmoids and 1 - g^2
                    # for the cell candidate, times the factor the gate
                    # multiplies: g, c[t-1] and i by dc, tanh(c) by dh; the
                    # output gate's o * tanh(c) is h.
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
                    op[:fan_in] = inputs[t]
                    op[fan_in:-1] = hid[t - 1] if t else 0
                    g_w += _matmul_data(dz_flat, op.T, out=part)
                    if t:
                        np.multiply(dc, f, out=carry)
                    # Step 0 has no earlier hidden state to send a gradient to.
                    skip = 0 if t else hidden
                    if skip < len(w_back):
                        _matmul_data(w_back[skip:], dz_flat,
                                     out=d_buf[t * stride + skip : t * stride + hidden + stride])
                g_w = np.roll(g_w, -hidden, axis=0)  # gate rows back in [i, f, c, o] order
                contribs += [(w_x[layer], np.ascontiguousarray(g_w[:, :fan_in].T)),
                             (w_h[layer], np.ascontiguousarray(g_w[:, fan_in:-1].T)),
                             (bias[layer], g_w[:, -1].copy())]
                d_hid = d_buf[hidden:].reshape(steps, fan_in, batch) if stride else None
                if layer == 0 and stride:
                    contribs.append((x, d_hid.transpose(2, 1, 0)))
            return contribs

        tape._record(out, backward)
    return out


# ---------------------------------------------------------------------
# fused multi-head self-attention
# ---------------------------------------------------------------------

def _key_outer(a: np.ndarray) -> np.ndarray:
    """The (B, h, N_q, N_k) view of key-outer (N_k, B, h, N_q) scores."""
    return a.transpose(1, 2, 3, 0)


def attention(x: Tensor, w_qkv: Tensor, w_o: Tensor, heads: int,
              token_axis: int = -2) -> tuple[Tensor, np.ndarray]:
    """Multi-head self-attention over the tokens of ``x``, shape (B, N, d)
    or a single (N, d) sample.  With ``token_axis`` -1 the tokens run
    along the last axis instead, (B, d, N) or (d, N), and the output is laid
    out the same way, as a view.

    ``w_qkv`` (d, 3·h·d_h) holds the query columns of heads 1..h, then
    their key columns, then their value columns; head ``i`` attends with
    softmax(q_i k_iᵀ / sqrt(d_h)) v_i, the softmax taken over each row.  The
    heads' outputs, concatenated in head order, go through ``w_o``
    (h·d_h, d_out).  Returns the output, (B, N, d_out) or (N, d_out), and
    the softmax weights as a plain array, (B, h, N, N) or (h, N, N).

    The block is one tape node.  One GEMM gives every head's q, k and v,
    the scores and weights·v run batched over (B, h), and the softmax
    backward is written by hand.  The scores are stored key axis
    outermost, (N_k, B, h, N_q), written through ``out=`` views of the
    batched products, so each softmax reduction runs over a contiguous
    outer axis: the row max, then exp, a sum taken sequentially in key
    order, and a multiply by its reciprocal.  The weights returned are a
    (B, h, N_q, N_k) view of that buffer.  The forward arithmetic is that
    of a per-head evaluation in that order, so its results do not depend
    on the batching, nor on the token axis: with -1, the op attends over
    the swapped view of ``x`` and hands back the output and the input
    gradient as swapped views.
    """
    if x.ndim not in (2, 3) or token_axis not in (-2, -1):
        raise DimensionError(f"attention expects (batch, tokens, width) or (tokens, width) with tokens "
                             f"on axis -2 or -1, got {x.shape} and token axis {token_axis}")
    swap = _swap_last if token_axis == -1 else lambda a: a
    data = swap(x.data)  # tokens on axis -2
    tokens, width = data.shape[-2:]
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

    rows = data.reshape(-1, width)  # (B·N, d)
    batch = rows.shape[0] // tokens
    scale = dtype.type(1.0 / math.sqrt(d_head))
    scores = np.empty((tokens, batch, heads, tokens), dtype)
    # An overflow here shows as a non-finite score, which the check below reports.
    with np.errstate(over="ignore", invalid="ignore"):
        qkv = _matmul_data(rows, w_qkv.data).reshape(batch, tokens, 3, heads, d_head)
        q, k, v = qkv.transpose(2, 0, 3, 1, 4)  # each (B, h, N, d_h)
        _matmul_data(q, _swap_last(k), out=_key_outer(scores))
    scores *= scale
    flat = scores.reshape(tokens, -1)  # one column per (b, head, query) row of scores
    peak = flat.max(axis=0)
    # The row maxima show NaN and +inf; the minimum shows -inf.
    if not (np.isfinite(peak).all() and np.isfinite(flat.min())):
        raise NumericInputError("attention scores contain non-finite values")
    flat -= peak
    np.exp(flat, out=flat)
    total = flat.sum(axis=0)
    flat *= np.reciprocal(total, out=total)
    weights = _key_outer(scores)
    merged = np.empty((batch, tokens, heads, d_head), dtype)
    _matmul_data(weights, v, out=merged.transpose(0, 2, 1, 3))
    merged = merged.reshape(batch * tokens, heads * d_head)
    out = Tensor(swap(_matmul_data(merged, w_o.data).reshape(data.shape[:-1] + (w_o.shape[1],))))
    if tape is not None:

        def backward(g: np.ndarray):
            g = swap(g).reshape(batch * tokens, -1)
            contribs = [(w_o, _matmul_data(merged.T, g))]
            d_merged = _matmul_data(g, w_o.data.T)
            d_out = d_merged.reshape(batch, tokens, heads, d_head).transpose(0, 2, 1, 3)
            d_qkv = np.empty((batch, tokens, 3, heads, d_head), dtype)
            d_q, d_k, d_v = d_qkv.transpose(2, 0, 3, 1, 4)
            _matmul_data(_swap_last(weights), d_out, out=d_v)
            # Softmax backward: ds = (dw - Σ_j dw_j w_j) w · scale for
            # dw = d_out vᵀ, with the scale applied to the narrower d_out.
            # The row sum equals Σ_k d_out_k o_k for the head output o = w v,
            # one matrix-vector product over the narrow head width.  ds is
            # laid out key-outer, as the scores are.
            d_merged *= scale
            ones = np.ones((d_head, 1), dtype)
            row_dot = _matmul_data((d_merged * merged).reshape(-1, d_head), ones)
            ds = np.empty_like(scores)
            _matmul_data(d_out, _swap_last(v), out=_key_outer(ds))
            ds -= np.ascontiguousarray(row_dot.reshape(batch, tokens, heads).transpose(0, 2, 1))
            ds *= scores
            ds = _key_outer(ds)
            _matmul_data(ds, k, out=d_q)
            _matmul_data(_swap_last(ds), q, out=d_k)
            d_qkv = d_qkv.reshape(batch * tokens, 3 * heads * d_head)
            contribs.append((w_qkv, _matmul_data(rows.T, d_qkv)))
            if x.requires_grad:
                contribs.append((x, swap(_matmul_data(d_qkv, w_qkv.data.T).reshape(data.shape))))
            return contribs

        tape._record(out, backward)
    return out, weights.reshape(data.shape[:-2] + weights.shape[1:])
