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


class Blocks(NamedTuple):
    """The mode and per-block head counts in effect; 0 heads means the
    block is not built."""

    mode: str
    feature_heads: int
    sequence_heads: int

    def construction_args(self) -> dict:
        """Mode and head arguments as bundles record them: a block that is
        not built is recorded with one head."""
        return {
            "mode": self.mode,
            "feature_heads": max(self.feature_heads, 1),
            "sequence_heads": max(self.sequence_heads, 1),
        }


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
        if heads < 0:
            raise ConfigurationError(f"{name} must be >= 0, got {heads}")
    fh = {"L": 0, "A": 1}.get(mode, feature_heads)
    sh = sequence_heads if mode == "F+T" and fh else 0
    if fh == 0:
        mode = "L"
    elif mode == "F+T" and sh == 0:
        mode = "F"
    return Blocks(mode, fh, sh)


def _uniform_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, dtype) -> Tensor:
    bound = 1.0 / math.sqrt(fan_in)
    data = rng.uniform(-bound, bound, size=shape).astype(dtype)
    return Tensor(data, requires_grad=True)


class MultiHeadAttention:
    """Multi-head self-attention; ``w_qkv`` (d_model, 3·d_model) holds the
    query columns of heads 1..h, then their key and their value columns.

    Head count must divide the embedding width; the output projection maps
    the concatenated heads back to ``d_model`` so the shape is preserved.
    The last forward pass's softmax weights are kept as one (B, h, N, N)
    array, (h, N, N) for a single sample, for interpretability export.
    """

    def __init__(self, d_model: int, heads: int, rng: np.random.Generator, dtype=ad.DEFAULT_DTYPE):
        if heads < 1:
            raise ConfigurationError(f"head count must be >= 1, got {heads}")
        if d_model % heads != 0:
            raise ConfigurationError(
                f"head count {heads} does not divide embedding width {d_model}"
            )
        self.d_model = d_model
        self.heads = heads
        self.d_head = d_model // heads
        # One draw per head and projection, in column order.
        blocks = [_uniform_init(rng, (d_model, self.d_head), d_model, dtype) for _ in range(3 * heads)]
        self.w_qkv = Tensor(np.concatenate([b.data for b in blocks], axis=1), requires_grad=True)
        self.w_o = _uniform_init(rng, (d_model, d_model), d_model, dtype)
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
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.num_layers = layers
        self.w_x: list[Tensor] = []
        self.w_h: list[Tensor] = []
        self.bias: list[Tensor] = []
        for layer in range(layers):
            fan_in = input_size if layer == 0 else hidden_size
            self.w_x.append(_uniform_init(rng, (fan_in, 4 * hidden_size), fan_in, dtype))
            self.w_h.append(_uniform_init(rng, (hidden_size, 4 * hidden_size), hidden_size, dtype))
            b = np.zeros(4 * hidden_size, dtype=dtype)
            b[hidden_size : 2 * hidden_size] = 1.0  # forget gate starts open
            self.bias.append(Tensor(b, requires_grad=True))

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
        if not 0.0 <= dropout < 1.0:
            raise ConfigurationError(f"dropout must be in [0, 1), got {dropout}")
        self.dropout = dropout
        self.w1 = _uniform_init(rng, (input_size, hidden_size), input_size, dtype)
        self.b1 = Tensor(np.zeros(hidden_size, dtype=dtype), requires_grad=True)
        self.w2 = _uniform_init(rng, (hidden_size, 1), hidden_size, dtype)
        self.b2 = Tensor(np.zeros(1, dtype=dtype), requires_grad=True)

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
        blocks = resolve_blocks(mode, feature_heads, sequence_heads)
        sizes = {"n_features": n_features, "window": window, "lstm_hidden": lstm_hidden,
                 "lstm_layers": lstm_layers, "mlp_hidden": mlp_hidden}
        for name, size in sizes.items():
            if not isinstance(size, (int, np.integer)) or size < 1:
                raise ConfigurationError(f"{name} must be a positive integer, got {size!r}")
        if init_rng is None:
            init_rng = np.random.default_rng(0)
        self.n_features = n_features
        self.window = window
        self.mode, self.feature_heads, self.sequence_heads = blocks
        self.dtype = np.dtype(dtype)
        if self.dtype.kind != "f":
            raise ConfigurationError(f"model dtype must be a float type, got {self.dtype}")

        # Channel tokens have width T, time-step tokens have width F.
        self.feature_attention = (
            MultiHeadAttention(window, blocks.feature_heads, init_rng, dtype)
            if blocks.feature_heads
            else None
        )
        self.sequence_attention = (
            MultiHeadAttention(n_features, blocks.sequence_heads, init_rng, dtype)
            if blocks.sequence_heads
            else None
        )
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
        """Copy every parameter from ``arrays``, which must hold exactly
        the model's parameter names."""
        params = self.parameters()
        unknown = sorted(set(arrays) - {name for name, _ in params})
        if unknown:
            raise ContractError(f"unknown parameters {unknown} in state")
        for name, p in params:
            if name not in arrays:
                raise ContractError(f"missing parameter {name!r} in state")
            src = arrays[name]
            if src.shape != p.shape:
                raise DimensionError(
                    f"parameter {name!r}: stored shape {src.shape} != model shape {p.shape}"
                )
            p.data = src.astype(self.dtype, copy=True)

    def hyperparams(self) -> dict:
        """Construction arguments needed to rebuild an identical skeleton."""
        return {
            "n_features": self.n_features,
            "window": self.window,
            **Blocks(self.mode, self.feature_heads, self.sequence_heads).construction_args(),
            "lstm_hidden": self.lstm.hidden_size,
            "lstm_layers": self.lstm.num_layers,
            "mlp_hidden": self.head.w1.shape[1],
            "dropout": self.head.dropout,
            "dtype": self.dtype.str,
        }

    @classmethod
    def from_hyperparams(cls, hp: dict) -> "RulModel":
        hp = dict(hp)
        dtype = np.dtype(hp.pop("dtype", "<f4"))
        return cls(dtype=dtype, **hp)
