"""The RUL network: self-attention over sensors, self-attention over time
steps, a stacked LSTM, and a small MLP regression head.

A sample is an F x T matrix: F channels (operational settings + sensors),
T consecutive cycles.  The feature block treats each channel's T-step
series as one token (width T); the sequence block transposes and treats
each time step's F readings as one token (width F).  Neither block changes
the input shape.  All forward paths accept a single (F, T) sample or a
stacked (B, F, T) batch.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import CapabilityError, ConfigurationError, ContractError, DimensionError

MODES = ("L", "A", "F", "F+T")
# Fixed caps, the same on every host, on a model's size (see parameter_shapes).
MAX_PARAMETERS = 2**27
MAX_ACTIVATIONS = 2**28


class Blocks(NamedTuple):
    """The mode and per-block head counts in effect; 0 heads means the
    block is not built."""

    mode: str
    feature_heads: int
    sequence_heads: int


def resolve_blocks(mode: str, feature_heads: int, sequence_heads: int) -> Blocks:
    """The one rule for which attention blocks a mode builds.

    "L" builds neither block, "A" a single-head feature block, "F" the
    feature block and "F+T" both.  A head count of 0 disables its block:
    no feature block leaves plain "L", and "F+T" without a sequence block
    is "F".  Resolving a resolved triple returns it unchanged.
    """
    if mode not in MODES:
        raise ConfigurationError(f"mode must be one of {MODES}, got {mode!r}")
    for name, heads in (("feature_heads", feature_heads), ("sequence_heads", sequence_heads)):
        if not _is_int(heads):
            raise ConfigurationError(f"{name} must be an integer, got {heads!r}")
        if heads < 0:
            raise ConfigurationError(f"{name} must be >= 0, got {heads}")
    fh = {"L": 0, "A": 1}.get(mode, feature_heads)
    sh = sequence_heads if mode == "F+T" and fh else 0
    if fh == 0:
        mode = "L"
    elif mode == "F+T" and sh == 0:
        mode = "F"
    return Blocks(mode, fh, sh)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def attention_shapes(d_model: int, heads: int) -> list:
    """One attention block's parameters; the head count must divide the width."""
    if heads < 1:
        raise ConfigurationError(f"head count must be >= 1, got {heads}")
    if d_model % heads != 0:
        raise ConfigurationError(f"head count {heads} does not divide embedding width {d_model}")
    return [("wqkv", (d_model, 3 * d_model)), ("wo", (d_model, d_model))]


def _lstm_shapes(n_features: int, lstm_hidden: int, layer: int) -> list:
    names = (f"lstm.l{layer}.wx", f"lstm.l{layer}.wh", f"lstm.l{layer}.b")
    return list(zip(names, ad.lstm_weight_shapes(n_features, lstm_hidden, layer)))


def head_shapes(input_size: int, hidden_size: int) -> list:
    return [("w1", (input_size, hidden_size)), ("b1", (hidden_size,)), ("w2", (hidden_size, 1)), ("b2", (1,))]


def _count(shapes: list) -> int:
    return sum(math.prod(shape) for _, shape in shapes)


def parameter_shapes(n_features: int, window: int, mode: str, feature_heads: int, sequence_heads: int,
                     lstm_hidden: int, lstm_layers: int, mlp_hidden: int, dropout: float,
                     dtype=ad.DEFAULT_DTYPE, batch_size: int = 1) -> list[tuple[str, tuple[int, ...]]]:
    """Every parameter's name and shape in :meth:`RulModel.parameters` order,
    from the hyperparameters alone, allocating nothing.  The one size rule:
    sizes are positive ints (not bools), head counts resolve by
    :func:`resolve_blocks` and divide their token width, dropout is in [0, 1),
    the dtype is a float, and the model stays within :data:`MAX_PARAMETERS`
    and, at ``batch_size``, :data:`MAX_ACTIVATIONS`; else ConfigurationError."""
    sizes = {"n_features": n_features, "window": window, "lstm_hidden": lstm_hidden,
             "lstm_layers": lstm_layers, "mlp_hidden": mlp_hidden, "batch_size": batch_size}
    for name, size in sizes.items():
        if not _is_int(size) or size < 1:
            raise ConfigurationError(f"{name} must be a positive integer, got {size!r}")
    if isinstance(dropout, bool) or not isinstance(dropout, (int, float)) or not 0 <= dropout < 1:
        raise ConfigurationError(f"dropout must be a number in [0, 1), got {dropout!r}")
    if np.dtype(dtype).kind != "f":
        raise ConfigurationError(f"model dtype must be a float type, got {np.dtype(dtype)}")
    blocks = resolve_blocks(mode, feature_heads, sequence_heads)
    attention = [(f"{prefix}.{name}", shape) for prefix, width, heads in
                 (("fa", window, blocks.feature_heads), ("sa", n_features, blocks.sequence_heads))
                 if heads for name, shape in attention_shapes(width, heads)]
    head = [(f"head.{name}", shape) for name, shape in head_shapes(lstm_hidden, mlp_hidden)]
    # Every LSTM layer above the first has the second's shapes.
    parameters = (_count(attention + _lstm_shapes(n_features, lstm_hidden, 0) + head)
                  + (lstm_layers - 1) * _count(_lstm_shapes(n_features, lstm_hidden, 1)))
    # Per LSTM layer and step: 4H gate pre-activations and the H-wide cell,
    # tanh(cell) and hidden state.
    activations = batch_size * (n_features * window + blocks.feature_heads * n_features**2
                                + blocks.sequence_heads * window**2 + lstm_layers * window * 7 * lstm_hidden)
    for what, count, cap in (("parameters", parameters, MAX_PARAMETERS),
                             ("activations per batch", activations, MAX_ACTIVATIONS)):
        if count > cap:
            listed = ", ".join(f"{name} {size}" for name, size in sizes.items())
            raise ConfigurationError(f"model too large ({listed}): {count} {what}, the cap is {cap}")
    lstm = [entry for layer in range(lstm_layers) for entry in _lstm_shapes(n_features, lstm_hidden, layer)]
    return attention + lstm + head


def _init(rng: np.random.Generator, shape: tuple[int, ...], dtype, pieces: int = 1) -> Tensor:
    """A vector starts at zero; a matrix is drawn uniform in ±1/sqrt(rows),
    as ``pieces`` equal column blocks, one draw each, in column order."""
    if len(shape) == 1:
        return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)
    bound = 1.0 / math.sqrt(shape[0])
    draws = [rng.uniform(-bound, bound, size=(shape[0], shape[1] // pieces)) for _ in range(pieces)]
    return Tensor(np.concatenate(draws, axis=1).astype(dtype), requires_grad=True)


class MultiHeadAttention:
    """Multi-head self-attention; ``w_qkv`` (d_model, 3·d_model) holds the
    query columns of heads 1..h, then their key and their value columns.

    Head count must divide the embedding width; the output projection maps
    the concatenated heads back to ``d_model`` so the shape is preserved.
    The last forward pass's softmax weights are kept as one (B, h, N, N)
    array, (h, N, N) for a single sample, for interpretability export.
    """

    def __init__(self, d_model: int, heads: int, rng: np.random.Generator, dtype=ad.DEFAULT_DTYPE):
        (_, qkv), (_, out) = attention_shapes(d_model, heads)
        self.heads = heads
        # One draw per head and projection, in column order.
        self.w_qkv = _init(rng, qkv, dtype, pieces=3 * heads)
        self.w_o = _init(rng, out, dtype)
        self.last_weights: np.ndarray | None = None

    def __call__(self, x: Tensor) -> Tensor:
        out, self.last_weights = ad.attention(x, self.w_qkv, self.w_o, self.heads)
        return out

    def parameters(self) -> Iterator[tuple[str, Tensor]]:
        yield "wqkv", self.w_qkv
        yield "wo", self.w_o


class LstmStack:
    """Stacked LSTM; upper layers consume the lower layer's hidden sequence.

    Gate layout in the fused weight matrices is [input, forget, cell, output].
    Hidden and cell states start at zero for every sample; the final
    top-layer hidden state is the feature vector.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        layers: int,
        rng: np.random.Generator,
        dtype=ad.DEFAULT_DTYPE,
    ):
        self.hidden_size = hidden_size
        self.num_layers = layers
        shapes = [ad.lstm_weight_shapes(input_size, hidden_size, layer) for layer in range(layers)]
        params = [[_init(rng, shape, dtype) for shape in layer] for layer in shapes]
        self.w_x, self.w_h, self.bias = ([layer[i] for layer in params] for i in range(3))
        for bias in self.bias:
            bias.data[hidden_size : 2 * hidden_size] = 1.0  # forget gate starts open

    def __call__(self, x: Tensor) -> Tensor:
        """(B, F, T) -> (B, hidden_size); a single (F, T) sample -> (hidden_size,)."""
        if x.ndim == 2:
            return ad.reshape(self(ad.reshape(x, (1,) + x.shape)), (self.hidden_size,))
        return ad.lstm(x, self.w_x, self.w_h, self.bias)

    def parameters(self) -> Iterator[tuple[str, Tensor]]:
        for layer in range(self.num_layers):
            yield f"l{layer}.wx", self.w_x[layer]
            yield f"l{layer}.wh", self.w_h[layer]
            yield f"l{layer}.b", self.bias[layer]


class MlpHead:
    """Hidden rectified layer with inverted dropout, then one output node."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        dropout: float,
        rng: np.random.Generator,
        dtype=ad.DEFAULT_DTYPE,
    ):
        self.dropout = dropout
        shapes = head_shapes(input_size, hidden_size)
        self.w1, self.b1, self.w2, self.b2 = (_init(rng, shape, dtype) for _, shape in shapes)

    def __call__(self, x: Tensor, training: bool, rng: np.random.Generator | None) -> Tensor:
        hidden = ad.relu(x @ self.w1 + self.b1)
        if training and self.dropout > 0.0:
            if rng is None:
                raise ContractError("training-mode forward needs a dropout generator")
            keep = rng.random(hidden.shape) >= self.dropout
            mask = (keep / (1.0 - self.dropout)).astype(hidden.data.dtype)
            hidden = hidden * Tensor(mask)
        return hidden @ self.w2 + self.b2

    def parameters(self) -> Iterator[tuple[str, Tensor]]:
        yield "w1", self.w1
        yield "b1", self.b1
        yield "w2", self.w2
        yield "b2", self.b2


class RulModel:
    """Full network: optional attention blocks, LSTM stack, MLP head.

    ``mode`` selects the active blocks: "L" plain LSTM, "A" single-head
    attention on channels, "F" multi-head attention on channels, "F+T"
    attention on channels then on time steps (see :func:`resolve_blocks`).
    Disabled blocks are not constructed, so they contribute no parameters.
    """

    def __init__(
        self,
        n_features: int,
        window: int,
        mode: str = "F+T",
        feature_heads: int = 5,
        sequence_heads: int = 4,
        lstm_hidden: int = 100,
        lstm_layers: int = 3,
        mlp_hidden: int = 100,
        dropout: float = 0.5,
        init_rng: np.random.Generator | None = None,
        dtype=ad.DEFAULT_DTYPE,
    ):
        parameter_shapes(n_features, window, mode, feature_heads, sequence_heads, lstm_hidden,
                         lstm_layers, mlp_hidden, dropout, dtype)
        if init_rng is None:
            init_rng = np.random.default_rng(0)
        self.n_features = n_features
        self.window = window
        self.mode, self.feature_heads, self.sequence_heads = resolve_blocks(mode, feature_heads, sequence_heads)
        self.dtype = np.dtype(dtype)

        # Channel tokens have width T, time-step tokens have width F.
        fh, sh = self.feature_heads, self.sequence_heads
        self.feature_attention = MultiHeadAttention(window, fh, init_rng, dtype) if fh else None
        self.sequence_attention = MultiHeadAttention(n_features, sh, init_rng, dtype) if sh else None
        self.lstm = LstmStack(n_features, lstm_hidden, lstm_layers, init_rng, dtype)
        self.head = MlpHead(lstm_hidden, mlp_hidden, dropout, init_rng, dtype)

    # -- forward ---------------------------------------------------------
    def _check_input(self, x: Tensor) -> Tensor:
        if x.ndim == 2:
            x = ad.reshape(x, (1,) + x.shape)
        if x.ndim != 3 or x.shape[1] != self.n_features or x.shape[2] != self.window:
            raise DimensionError(
                f"model built for {self.n_features}x{self.window} inputs, got {x.shape}"
            )
        return x

    def apply_feature_attention(self, x: Tensor) -> Tensor:
        """Attention across channels; identity when the block is disabled."""
        if self.feature_attention is None:
            return x
        return self.feature_attention(x)

    def apply_sequence_attention(self, x: Tensor) -> Tensor:
        """Attention across time steps; identity when the block is disabled."""
        if self.sequence_attention is None:
            return x
        return ad.transpose(self.sequence_attention(ad.transpose(x)))

    def forward(
        self,
        x: Tensor,
        training: bool = False,
        dropout_rng: np.random.Generator | None = None,
    ) -> Tensor:
        """Predict RUL; (F, T) -> scalar, (B, F, T) -> (B, 1).

        In inference mode the output is deterministic.  The attention
        blocks' softmax weights from this pass stay retrievable via
        :meth:`attention_weights`.
        """
        squeeze = x.ndim == 2
        x = self._check_input(x)
        x = self.apply_feature_attention(x)
        x = self.apply_sequence_attention(x)
        features = self.lstm(x)
        out = self.head(features, training, dropout_rng)
        if squeeze:
            out = ad.reshape(out, ())
        return out

    def predict(self, matrix: np.ndarray) -> np.ndarray:
        """Inference on raw arrays: (F, T) -> float, (B, F, T) -> (B,)."""
        x = Tensor(np.asarray(matrix, dtype=self.dtype))
        out = self.forward(x, training=False)
        return out.data if out.ndim == 0 else out.data.reshape(-1)

    # -- attention retention ----------------------------------------------
    def attention_weights(self, block: str) -> np.ndarray:
        """Softmax weights of the last forward pass, (B, h, N, N).

        ``block`` is "feature" or "sequence".  Raises CapabilityError when
        that block is disabled, ContractError before any forward pass.
        """
        attn = self.feature_attention if block == "feature" else self.sequence_attention
        if attn is None:
            raise CapabilityError(f"model mode {self.mode!r} has no {block} attention block")
        if attn.last_weights is None:
            raise ContractError("no forward pass has been run yet")
        return attn.last_weights

    # -- parameters --------------------------------------------------------
    def parameters(self) -> list[tuple[str, Tensor]]:
        """Stable (name, tensor) list over every trainable parameter."""
        named: list[tuple[str, Tensor]] = []
        if self.feature_attention is not None:
            named += [(f"fa.{n}", p) for n, p in self.feature_attention.parameters()]
        if self.sequence_attention is not None:
            named += [(f"sa.{n}", p) for n, p in self.sequence_attention.parameters()]
        named += [(f"lstm.{n}", p) for n, p in self.lstm.parameters()]
        named += [(f"head.{n}", p) for n, p in self.head.parameters()]
        return named

    def zero_grad(self) -> None:
        for _, p in self.parameters():
            p.zero_grad()

    def state_arrays(self) -> list[tuple[str, np.ndarray]]:
        return [(name, p.data) for name, p in self.parameters()]

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Copy every parameter from ``arrays``, which matches :func:`parameter_shapes`."""
        for name, p in self.parameters():
            p.data = arrays[name].astype(self.dtype, copy=True)

    def hyperparams(self) -> dict:
        """Construction arguments that rebuild this skeleton; an unbuilt block records one head."""
        return {
            "n_features": self.n_features,
            "window": self.window,
            "mode": self.mode,
            "feature_heads": max(self.feature_heads, 1),
            "sequence_heads": max(self.sequence_heads, 1),
            "lstm_hidden": self.lstm.hidden_size,
            "lstm_layers": self.lstm.num_layers,
            "mlp_hidden": self.head.w1.shape[1],
            "dropout": self.head.dropout,
            "dtype": self.dtype.str,
        }
