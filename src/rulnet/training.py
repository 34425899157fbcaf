"""Training loop: MSE objective, Adam updates, unit-level validation
split, early stopping with best-weight restore, per-epoch logging."""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .config import ExperimentConfig
from .data import Windows
from .errors import ContractError, NumericInputError
from .model import RulModel
from .seeding import generator

# Windows per inference forward: bounds an untaped forward's activations.
PREDICT_BATCH = 256


def mse_loss(pred: Tensor, truth: Tensor) -> Tensor:
    """Mean squared error over matching-length vectors: one :func:`rulnet.autodiff.mse` node."""
    if pred.size != truth.size:
        raise ContractError(f"length mismatch: {pred.size} predictions vs {truth.size} targets")
    if pred.size < 1:
        raise ContractError("mse_loss needs at least one element")
    return ad.mse(pred, truth)


# Elements per pass of the Adam update, so that its float64 scratch stays
# in cache.
ADAM_CHUNK = 16384
# Adam's moment decay rates beta1 and beta2 and denominator offset eps: the
# usual defaults.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamState:
    """Adam's first and second moments over every parameter, each one flat
    float64 buffer in parameter order, plus the shared step counter and a
    flat gradient buffer in the parameters' dtype."""

    def __init__(self, params: Sequence[Tensor]):
        self.step_count = 0
        ends = np.cumsum([p.size for p in params], dtype=np.int64).tolist()
        self.slices = [slice(end - p.size, end) for p, end in zip(params, ends)]
        size = ends[-1] if ends else 0
        self.m = np.zeros(size, dtype=np.float64)
        self.v = np.zeros(size, dtype=np.float64)
        dtype = np.result_type(*(p.dtype for p in params)) if params else np.float64
        self.grad = np.zeros(size, dtype=dtype)
        self._step = np.empty_like(self.grad)
        self._num = np.empty(min(size, ADAM_CHUNK), dtype=np.float64)
        self._den = np.empty_like(self._num)

    def gather(self, params: Sequence[Tensor]) -> np.ndarray:
        """Copy every parameter's grad into the flat buffer and return it; a
        missing or misshapen grad is a ContractError naming its parameter."""
        for n, (p, part) in enumerate(zip(params, self.slices)):
            shape = None if p.grad is None else p.grad.shape
            if shape != p.shape:
                raise ContractError(f"parameter {n} has gradient shape {shape}, not {p.shape}")
            self.grad[part].reshape(p.shape)[...] = p.grad
        return self.grad


def adam_step(
    params: Sequence[Tensor], state: AdamState, lr: float, grad: np.ndarray | None = None
) -> None:
    """One bias-corrected Adam update of every parameter, in place.

    ``grad`` is the flat gradient that ``state.gather(params)`` returned
    from every parameter's grad; it is gathered here when not given.
    """
    if grad is None:
        grad = state.gather(params)
    state.step_count += 1
    bc1 = 1.0 - ADAM_BETA1**state.step_count
    bc2 = 1.0 - ADAM_BETA2**state.step_count
    for lo in range(0, grad.size, ADAM_CHUNK):
        m, v, g, step = (a[lo : lo + ADAM_CHUNK] for a in (state.m, state.v, grad, state._step))
        num, den = state._num[: g.size], state._den[: g.size]
        # m = beta1 m + (1 - beta1) g, the product in the gradient's dtype
        np.multiply(g, 1.0 - ADAM_BETA1, out=step)
        m *= ADAM_BETA1
        num[...] = step
        m += num
        # v = beta2 v + (1 - beta2) g², in float64
        num[...] = g
        np.square(num, out=num)
        num *= 1.0 - ADAM_BETA2
        v *= ADAM_BETA2
        v += num
        # step = lr m̂ / (sqrt(v̂) + eps), rounded to the parameters' dtype
        np.divide(v, bc2, out=den)
        np.sqrt(den, out=den)
        den += ADAM_EPS
        np.divide(m, bc1, out=num)
        num *= lr
        num /= den
        step[...] = num
    for p, part in zip(params, state.slices):
        p.data -= state._step[part].reshape(p.shape)


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_rmse: float


@dataclass
class FitResult:
    log: list[EpochRecord]
    best_epoch: int
    best_val_rmse: float
    epochs_run: int
    train_units: list[int]
    val_units: list[int]
    stopped_early: bool = False

    def summary(self) -> dict:
        return {
            "epochs_run": self.epochs_run,
            "best_epoch": self.best_epoch,
            "best_val_rmse": self.best_val_rmse,
            "stopped_early": self.stopped_early,
            "train_units": len(self.train_units),
            "val_units": len(self.val_units),
        }


def split_units(unit_ids: np.ndarray, fraction: float, seed: int) -> tuple[list[int], list[int]]:
    """Shuffle distinct units and hold out ceil(fraction * n) for validation.

    Units never straddle the split, so no engine leaks windows into both
    sides.  Both sides are guaranteed non-empty.
    """
    units = np.unique(unit_ids)
    if len(units) < 2:
        raise ContractError("need at least 2 units to build a validation split")
    order = generator(seed, "split").permutation(len(units))
    shuffled = units[order]
    n_val = min(max(1, math.ceil(len(units) * fraction)), len(units) - 1)
    val = sorted(int(u) for u in shuffled[:n_val])
    train = sorted(int(u) for u in shuffled[n_val:])
    return train, val


def predict_batched(model: RulModel, x: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """Inference over windows ``x[rows]`` of (N, F, T) arrays, every window
    when ``rows`` is None, without recording a tape.  Each PREDICT_BATCH
    chunk is gathered from ``x`` on its own."""
    if rows is None:
        rows = np.arange(len(x))
    outs = [model.predict(x[rows[start : start + PREDICT_BATCH]])
            for start in range(0, len(rows), PREDICT_BATCH)]
    return np.concatenate(outs) if outs else np.zeros(0, dtype=np.float32)


# glibc mallopt parameters, from <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Have glibc's malloc keep freed memory in the process for reuse.

    A training step allocates and frees tens of MB of activations.  By
    default glibc hands the top of the heap back to the kernel once they
    are freed, and the next step faults the same pages in again: about
    7,000 minor faults per step at paper defaults.  Fixing both
    thresholds turns that off for the rest of the process, which then
    keeps its high-water mark of heap memory.  A no-op where the C
    library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library to load
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def fit(model: RulModel, windows: Windows, config: ExperimentConfig,
        on_epoch: Callable[[EpochRecord], None] | None = None) -> FitResult:
    """Train the model on ``windows``; returns the log and restores
    best-validation weights.  ``on_epoch``, when given, is called with each
    epoch's record as that epoch ends, so a caller can keep the epochs of a
    run that stops.

    ``config`` is validated first (which reads no path), so a bad
    range is a ConfigurationError before any compute.  The unit split,
    batch shuffling, and dropout masks each draw from a named stream of
    ``config.seeds[0]``, so identical configs replay exactly.
    The head's output bias starts at the mean training label.
    A non-finite batch loss, or a gradient norm that is not finite in the
    model's dtype, raises NumericInputError naming the epoch and 1-based
    batch, before it can reach the weights; a validation RMSE that is not
    finite raises it naming the epoch.  Training keeps freed memory
    in the process (see :func:`_keep_freed_memory`).

    Each batch and each validation chunk is gathered from ``windows.x``
    by row, so training copies no more windows than one of them holds.
    A batch's tape, which holds its activations, is freed as soon as its
    backward returns, before the Adam update and the epoch's validation
    forward; only the parameters' gradients outlive it, until the update.
    """
    config.validate()
    x, y, units, rows = windows
    if not len(rows):
        raise ContractError("empty training set")
    seed = config.seeds[0]
    _keep_freed_memory()
    if x.shape[1:] != (model.n_features, model.window):
        raise ContractError(
            f"windows are {x.shape[1:]}, model expects {(model.n_features, model.window)}"
        )
    train_units, val_units = split_units(units, config.validation_fraction, seed)
    in_val = np.isin(units, val_units)
    train_idx = np.flatnonzero(~in_val)
    val_rows, y_val = rows[in_val], y[in_val].astype(np.float64)
    # Start the output at the mean training label, so that the first steps
    # fit the labels' spread instead of chasing their offset, which
    # saturates the attention modes into a constant prediction.
    model.params["head.b2"].data[...] = np.mean(y[train_idx], dtype=np.float64)

    params = [p for _, p in model.parameters()]
    state = AdamState(params)
    shuffle_rng = generator(seed, "shuffle")
    dropout_rng = generator(seed, "dropout")

    best_val = math.inf
    best_epoch = 0
    best_state = {name: p.data.copy() for name, p in model.parameters()}
    log: list[EpochRecord] = []
    stopped_early = False

    for epoch in range(1, config.max_epochs + 1):
        order = shuffle_rng.permutation(len(train_idx))
        total_loss = 0.0
        for batch, start in enumerate(range(0, len(order), config.batch_size), start=1):
            idx = train_idx[order[start : start + config.batch_size]]
            xb = Tensor(x[rows[idx]].astype(model.dtype, copy=False))
            yb = Tensor(y[idx].astype(model.dtype, copy=False))
            with Tape() as tape:
                pred = model.forward(xb, training=True, dropout_rng=dropout_rng)
                loss = mse_loss(pred, yb)
            loss_value = loss.item()
            if not math.isfinite(loss_value):
                raise NumericInputError(
                    f"training loss is {loss_value} at epoch {epoch}, batch {batch}"
                )
            tape.backward(loss)
            del tape  # frees the batch's activations before the Adam update and validation
            grad = state.gather(params)
            grad_norm = math.sqrt(float(grad @ grad))
            if not math.isfinite(grad_norm):
                raise NumericInputError(
                    f"gradient norm is {grad_norm} at epoch {epoch}, batch {batch}"
                )
            adam_step(params, state, config.learning_rate, grad)
            model.zero_grad()
            total_loss += loss_value * len(idx)

        val_rmse = float(np.sqrt(np.mean((predict_batched(model, x, val_rows) - y_val) ** 2)))
        if not math.isfinite(val_rmse):
            raise NumericInputError(f"validation RMSE is {val_rmse} at epoch {epoch}")
        log.append(EpochRecord(epoch, total_loss / len(train_idx), val_rmse))
        if on_epoch is not None:
            on_epoch(log[-1])

        if val_rmse < best_val:
            best_val = val_rmse
            best_epoch = epoch
            best_state = {name: p.data.copy() for name, p in model.parameters()}
        elif epoch - best_epoch >= config.early_stop_patience:
            stopped_early = True
            break

    model.load_state_arrays(best_state)
    return FitResult(
        log=log,
        best_epoch=best_epoch,
        best_val_rmse=best_val,
        epochs_run=len(log),
        train_units=train_units,
        val_units=val_units,
        stopped_early=stopped_early,
    )
