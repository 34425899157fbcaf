"""The RUL network: self-attention over sensors, self-attention over time
steps, a stacked LSTM, and a small MLP regression head.

A sample is an F x T matrix: F channels (operational settings + sensors),
T consecutive cycles.  The feature block treats each channel's T-step
series as one token (width T); the sequence block attends along the time
axis of the same matrix, each time step's F readings one token (width F).
Neither block changes the input shape.  The model takes stacked
(B, F, T) batches; :meth:`RulModel.predict` also takes a single window.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigurationError, ContractError, DimensionError

MODES = ("L", "A", "F", "F+T")
# The config fields that shape a model, in config order: the construction
# arguments of RulModel other than n_features, init_rng, dtype and arrays.
MODEL_FIELDS = ("window", "mode", "feature_heads", "sequence_heads", "lstm_hidden", "lstm_layers",
                "mlp_hidden", "dropout")
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
    # A taped batch, per LSTM step: each layer's 4H gate activations and H
    # hidden values, and one copy of the F-wide model input (the cell,
    # tanh(cell) and each step's stacked operand are rebuilt in the
    # backward, not kept).  An untaped forward holds about 2·T·H·B of LSTM
    # state: two layers' hidden sequences.  The cap counts these
    # activations, not the scratch buffers the ops allocate: at paper sizes
    # and batch 128, traced peaks of one taped forward + backward read
    # 1.28-1.40x this count times the item size across the modes, so it
    # bounds about seven tenths of a step's peak memory.
    lstm_state = lstm_layers * 5 * lstm_hidden + n_features
    activations = batch_size * (n_features * window + blocks.feature_heads * n_features**2
                                + blocks.sequence_heads * window**2 + window * lstm_state)
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
    [input, forget, cell, output].  Parameters are drawn from ``init_rng``
    (default seed 0), or copied from ``arrays`` (name -> array) with no draw.
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
        arrays: dict[str, np.ndarray] | None = None,
    ):
        plan = parameter_shapes(n_features, window, mode, feature_heads, sequence_heads, lstm_hidden,
                                lstm_layers, mlp_hidden, dropout, dtype)
        if init_rng is not None and arrays is not None:
            raise ContractError("a model is built from init_rng or from arrays, not both")
        self.n_features, self.window = n_features, window
        self.mode, self.feature_heads, self.sequence_heads = resolve_blocks(mode, feature_heads, sequence_heads)
        self.lstm_hidden, self.lstm_layers, self.mlp_hidden = lstm_hidden, lstm_layers, mlp_hidden
        self.dropout = dropout
        self.dtype = np.dtype(dtype)
        if arrays is None:
            rng = np.random.default_rng(0) if init_rng is None else init_rng
            # One draw per head and projection in a wqkv, in column order.
            pieces = {"fa.wqkv": 3 * self.feature_heads, "sa.wqkv": 3 * self.sequence_heads}
            self.params = {name: _init(rng, shape, dtype, pieces.get(name, 1)) for name, shape in plan}
            for layer in range(lstm_layers):
                self.params[f"lstm.l{layer}.b"].data[lstm_hidden : 2 * lstm_hidden] = 1.0  # forget gate starts open
        else:
            table, shapes = {name: arr.shape for name, arr in arrays.items()}, dict(plan)
            if table != shapes:
                wrong = {name: shape for name, shape in plan if table.get(name) != shape}
                raise ConfigurationError(f"unknown parameters {sorted(table.keys() - shapes)}; "
                                         f"missing or misshapen {wrong}")
            self.params = {name: Tensor(np.empty(0, self.dtype), requires_grad=True) for name in shapes}
            self.load_state_arrays(arrays)  # gives each parameter its own copy

    # -- forward ---------------------------------------------------------
    def _attend(self, prefix: str, heads: int, x: Tensor, token_axis: int) -> tuple[Tensor, np.ndarray | None]:
        """Block ``prefix``'s self-attention along ``token_axis`` of ``x`` and
        its softmax weights; ``(x, None)`` without heads."""
        if not heads:
            return x, None
        params = self.params[f"{prefix}.wqkv"], self.params[f"{prefix}.wo"]
        return ad.attention(x, *params, heads, token_axis)

    def apply_feature_attention(self, x: Tensor) -> Tensor:
        """Attention across channels; identity when the block is disabled."""
        return self._attend("fa", self.feature_heads, x, -2)[0]

    def apply_sequence_attention(self, x: Tensor) -> Tensor:
        """Attention across time steps; identity when the block is disabled."""
        return self._attend("sa", self.sequence_heads, x, -1)[0]

    def lstm(self, x: Tensor) -> Tensor:
        """The stacked LSTM's last top-layer hidden state, (B, F, T) -> (B, H);
        see :func:`rulnet.autodiff.lstm`."""
        layers = range(self.lstm_layers)
        w_x, w_h, bias = ([self.params[f"lstm.l{i}.{kind}"] for i in layers] for kind in ("wx", "wh", "b"))
        return ad.lstm(x, w_x, w_h, bias)

    def head(self, x: Tensor, training: bool, rng: np.random.Generator | None) -> Tensor:
        """Hidden rectified layer with inverted dropout, then one output node;
        see :func:`rulnet.autodiff.mlp_head`."""
        mask = None
        if training and self.dropout > 0.0:
            if rng is None:
                raise ContractError("training-mode forward needs a dropout generator")
            keep = rng.random((x.shape[0], self.mlp_hidden)) >= self.dropout
            mask = (keep / (1.0 - self.dropout)).astype(x.dtype)
        return ad.mlp_head(x, *(self.params[f"head.{name}"] for name in ("w1", "b1", "w2", "b2")), mask)

    def _forward(self, x: Tensor, training: bool,
                 dropout_rng: np.random.Generator | None) -> tuple[Tensor, dict[str, np.ndarray]]:
        """The prediction, (B, 1), and each built attention block's softmax
        weights, (B, h, N, N), under "feature" and "sequence"."""
        if x.ndim != 3 or x.shape[1:] != (self.n_features, self.window):
            raise DimensionError(f"model takes (batch, {self.n_features}, {self.window}) inputs, got {x.shape}")
        x, feature = self._attend("fa", self.feature_heads, x, -2)
        x, sequence = self._attend("sa", self.sequence_heads, x, -1)
        weights = {block: w for block, w in (("feature", feature), ("sequence", sequence)) if w is not None}
        return self.head(self.lstm(x), training, dropout_rng), weights

    def forward(
        self,
        x: Tensor,
        training: bool = False,
        dropout_rng: np.random.Generator | None = None,
    ) -> Tensor:
        """Predict RUL; (B, F, T) -> (B, 1).

        In inference mode the output is deterministic.  The model keeps
        nothing of the pass; :meth:`explain` also returns the attention
        weights.
        """
        return self._forward(x, training, dropout_rng)[0]

    def predict(self, matrix: np.ndarray) -> np.ndarray | float:
        """Inference on raw arrays: (B, F, T) -> (B,); one (F, T) window -> float."""
        x = np.asarray(matrix, dtype=self.dtype)
        out = self.forward(Tensor(x[None] if x.ndim == 2 else x)).data.reshape(-1)
        return float(out[0]) if x.ndim == 2 else out

    def explain(self, batch: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Inference on a raw (B, F, T) batch: the (B,) predictions and each
        built attention block's softmax weights, (B, h, N, N), under
        "feature" and "sequence"; a mode-"L" model returns ``{}``."""
        pred, weights = self._forward(Tensor(np.asarray(batch, dtype=self.dtype)), False, None)
        return pred.data.reshape(-1), weights

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
        hp = {name: getattr(self, name) for name in ("n_features", *MODEL_FIELDS)}
        hp.update({name: max(hp[name], 1) for name in Blocks._fields[1:]})
        return {**hp, "dtype": self.dtype.str}
