"""The RUL network: self-attention over sensors, self-attention over time
steps, a stacked LSTM, and a small MLP regression head.

A sample is an F x T matrix: F channels (operational settings + sensors),
T consecutive cycles.  The feature block treats each channel's T-step
series as one token (width T); the sequence block transposes and treats
each time step's F readings as one token (width F).  Neither block changes
the input shape.  The model and its attention blocks accept a single
(F, T) sample or a stacked (B, F, T) batch.
"""

from __future__ import annotations

import math
from typing import NamedTuple

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


def _lstm_shapes(n_features: int, lstm_hidden: int, layer: int) -> list:
    names = (f"lstm.l{layer}.wx", f"lstm.l{layer}.wh", f"lstm.l{layer}.b")
    return list(zip(names, ad.lstm_weight_shapes(n_features, lstm_hidden, layer)))


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
    attention = []
    for prefix, width, heads in (("fa", window, blocks.feature_heads), ("sa", n_features, blocks.sequence_heads)):
        if heads and width % heads:
            raise ConfigurationError(f"head count {heads} does not divide embedding width {width}")
        attention += [(f"{prefix}.wqkv", (width, 3 * width)), (f"{prefix}.wo", (width, width))] if heads else []
    head = [("head.w1", (lstm_hidden, mlp_hidden)), ("head.b1", (mlp_hidden,)),
            ("head.w2", (mlp_hidden, 1)), ("head.b2", (1,))]
    # Every LSTM layer above the first has the second's shapes.
    parameters = (_count(attention + _lstm_shapes(n_features, lstm_hidden, 0) + head)
                  + (lstm_layers - 1) * _count(_lstm_shapes(n_features, lstm_hidden, 1)))
    # A taped batch, per LSTM layer and step: 4H gate activations and the
    # H-wide cell, tanh(cell) and hidden state.  An untaped forward holds
    # about 2·T·H·B of LSTM state: two layers' hidden sequences.  The cap
    # counts these activations, not the scratch buffers the ops allocate:
    # traced peaks of one taped forward + backward read 1.28-1.32x this
    # count times the item size, so it bounds about three quarters of a
    # step's peak memory.
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


class RulModel:
    """Full network: optional attention blocks, LSTM stack, MLP head.

    ``mode`` selects the active blocks: "L" plain LSTM, "A" single-head
    attention on channels, "F" multi-head attention on channels, "F+T"
    attention on channels then on time steps (see :func:`resolve_blocks`).
    ``params`` maps every name of :func:`parameter_shapes` to its tensor,
    in plan order, so a disabled block has no parameters.  An attention
    block's ``wqkv`` (d, 3·d) holds the query columns of heads 1..h, then
    their key and their value columns; an LSTM layer's gates are laid out
    [input, forget, cell, output].
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
        plan = parameter_shapes(n_features, window, mode, feature_heads, sequence_heads, lstm_hidden,
                                lstm_layers, mlp_hidden, dropout, dtype)
        if init_rng is None:
            init_rng = np.random.default_rng(0)
        self.n_features = n_features
        self.window = window
        self.mode, self.feature_heads, self.sequence_heads = resolve_blocks(mode, feature_heads, sequence_heads)
        self.lstm_hidden, self.lstm_layers, self.mlp_hidden = lstm_hidden, lstm_layers, mlp_hidden
        self.dropout = dropout
        self.dtype = np.dtype(dtype)
        # One draw per head and projection in a wqkv, in column order.
        pieces = {"fa.wqkv": 3 * self.feature_heads, "sa.wqkv": 3 * self.sequence_heads}
        self.params = {name: _init(init_rng, shape, dtype, pieces.get(name, 1)) for name, shape in plan}
        for layer in range(lstm_layers):
            self.params[f"lstm.l{layer}.b"].data[lstm_hidden : 2 * lstm_hidden] = 1.0  # forget gate starts open
        # The last forward pass's softmax weights, (B, h, N, N), by block prefix "fa" or "sa".
        self.last_weights: dict[str, np.ndarray] = {}

    # -- forward ---------------------------------------------------------
    def _check_input(self, x: Tensor) -> Tensor:
        if x.ndim == 2:
            x = ad.reshape(x, (1,) + x.shape)
        if x.ndim != 3 or x.shape[1] != self.n_features or x.shape[2] != self.window:
            raise DimensionError(
                f"model built for {self.n_features}x{self.window} inputs, got {x.shape}"
            )
        return x

    def _attend(self, prefix: str, heads: int, x: Tensor) -> Tensor:
        """Block ``prefix``'s self-attention over the tokens of ``x``; identity without heads."""
        if not heads:
            return x
        params = self.params[f"{prefix}.wqkv"], self.params[f"{prefix}.wo"]
        out, self.last_weights[prefix] = ad.attention(x, *params, heads)
        return out

    def apply_feature_attention(self, x: Tensor) -> Tensor:
        """Attention across channels; identity when the block is disabled."""
        return self._attend("fa", self.feature_heads, x)

    def apply_sequence_attention(self, x: Tensor) -> Tensor:
        """Attention across time steps; identity when the block is disabled."""
        if not self.sequence_heads:
            return x
        return ad.transpose(self._attend("sa", self.sequence_heads, ad.transpose(x)))

    def lstm(self, x: Tensor) -> Tensor:
        """The stacked LSTM's last top-layer hidden state, (B, F, T) -> (B, H);
        see :func:`rulnet.autodiff.lstm`."""
        layers = range(self.lstm_layers)
        w_x, w_h, bias = ([self.params[f"lstm.l{i}.{kind}"] for i in layers] for kind in ("wx", "wh", "b"))
        return ad.lstm(x, w_x, w_h, bias)

    def head(self, x: Tensor, training: bool, rng: np.random.Generator | None) -> Tensor:
        """Hidden rectified layer with inverted dropout, then one output node."""
        hidden = ad.relu(x @ self.params["head.w1"] + self.params["head.b1"])
        if training and self.dropout > 0.0:
            if rng is None:
                raise ContractError("training-mode forward needs a dropout generator")
            keep = rng.random(hidden.shape) >= self.dropout
            mask = (keep / (1.0 - self.dropout)).astype(hidden.data.dtype)
            hidden = hidden * Tensor(mask)
        return hidden @ self.params["head.w2"] + self.params["head.b2"]

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
        prefix, heads = ("fa", self.feature_heads) if block == "feature" else ("sa", self.sequence_heads)
        if not heads:
            raise CapabilityError(f"model mode {self.mode!r} has no {block} attention block")
        if prefix not in self.last_weights:
            raise ContractError("no forward pass has been run yet")
        return self.last_weights[prefix]

    # -- parameters --------------------------------------------------------
    def parameters(self) -> list[tuple[str, Tensor]]:
        """Stable (name, tensor) list over every trainable parameter, in plan order."""
        return list(self.params.items())

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def state_arrays(self) -> list[tuple[str, np.ndarray]]:
        return [(name, p.data) for name, p in self.params.items()]

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Copy every parameter from ``arrays``, which matches :func:`parameter_shapes`."""
        for name, p in self.params.items():
            p.data = arrays[name].astype(self.dtype, copy=True)

    def hyperparams(self) -> dict:
        """Construction arguments that rebuild this skeleton; an unbuilt block records one head."""
        return {
            "n_features": self.n_features,
            "window": self.window,
            "mode": self.mode,
            "feature_heads": max(self.feature_heads, 1),
            "sequence_heads": max(self.sequence_heads, 1),
            "lstm_hidden": self.lstm_hidden,
            "lstm_layers": self.lstm_layers,
            "mlp_hidden": self.mlp_hidden,
            "dropout": self.dropout,
            "dtype": self.dtype.str,
        }
