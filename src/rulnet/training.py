"""Training loop: MSE objective, Adam updates, unit-level validation
split, early stopping with best-weight restore, per-epoch logging."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .data import WindowedSample, windows_to_arrays
from .errors import ContractError, NumericInputError
from .model import RulModel
from .seeding import generator

# Windows per inference forward: bounds an untaped forward's activations.
PREDICT_BATCH = 256


@dataclass
class TrainConfig:
    learning_rate: float = 0.0002
    batch_size: int = 128
    early_stop_patience: int = 50
    max_epochs: int = 500
    validation_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ContractError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ContractError(
                f"validation_fraction must be in (0, 1), got {self.validation_fraction}"
            )
        if self.early_stop_patience < 1:
            raise ContractError(f"patience must be >= 1, got {self.early_stop_patience}")


def mse_loss(pred: Tensor, truth: Tensor) -> Tensor:
    """Mean squared error over matching-length vectors."""
    if pred.size != truth.size:
        raise ContractError(f"length mismatch: {pred.size} predictions vs {truth.size} targets")
    if pred.size < 1:
        raise ContractError("mse_loss needs at least one element")
    diff = ad.sub(ad.reshape(pred, (pred.size,)), ad.reshape(truth, (truth.size,)))
    return ad.mean(ad.mul(diff, diff))


class AdamState:
    """First/second moment buffers plus the shared step counter."""

    def __init__(self, params: Sequence[Tensor], beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros(p.shape, dtype=np.float64) for p in params]
        self.v = [np.zeros(p.shape, dtype=np.float64) for p in params]


def adam_step(params: Sequence[Tensor], state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update, in place.  Missing grads count as 0."""
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for i, p in enumerate(params):
        if p.grad is None:
            continue
        g = p.grad
        if g.shape != p.shape:
            raise ContractError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        state.m[i] = state.beta1 * state.m[i] + (1.0 - state.beta1) * g
        state.v[i] = state.beta2 * state.v[i] + (1.0 - state.beta2) * (g.astype(np.float64) ** 2)
        m_hat = state.m[i] / bc1
        v_hat = state.v[i] / bc2
        p.data -= (lr * m_hat / (np.sqrt(v_hat) + state.eps)).astype(p.data.dtype)


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


def predict_batched(model: RulModel, x: np.ndarray) -> np.ndarray:
    """Inference over (N, F, T) arrays without recording a tape."""
    outs = []
    for start in range(0, len(x), PREDICT_BATCH):
        outs.append(model.predict(x[start : start + PREDICT_BATCH]))
    return np.concatenate(outs) if outs else np.zeros(0, dtype=np.float32)


def _validation_rmse(model: RulModel, x: np.ndarray, y: np.ndarray) -> float:
    pred = predict_batched(model, x)
    return float(np.sqrt(np.mean((pred.astype(np.float64) - y.astype(np.float64)) ** 2)))


def fit(model: RulModel, samples: Sequence[WindowedSample], config: TrainConfig) -> FitResult:
    """Train the model; returns the log and restores best-validation weights.

    The unit split, batch shuffling, and dropout masks each draw from a
    named stream of ``config.seed``, so identical configs replay exactly.
    A non-finite batch loss raises NumericInputError naming the epoch and
    1-based batch, before it can reach the weights.
    """
    if not samples:
        raise ContractError("empty training set")
    x_all, y_all, units_all, _ = windows_to_arrays(samples)
    if x_all.shape[1:] != (model.n_features, model.window):
        raise ContractError(
            f"samples are {x_all.shape[1:]}, model expects {(model.n_features, model.window)}"
        )
    train_units, val_units = split_units(units_all, config.validation_fraction, config.seed)
    in_val = np.isin(units_all, val_units)
    x_train, y_train = x_all[~in_val], y_all[~in_val]
    x_val, y_val = x_all[in_val], y_all[in_val]

    params = [p for _, p in model.parameters()]
    state = AdamState(params)
    shuffle_rng = generator(config.seed, "shuffle")
    dropout_rng = generator(config.seed, "dropout")

    best_val = math.inf
    best_epoch = 0
    best_state = {name: p.data.copy() for name, p in model.parameters()}
    epochs_without_improvement = 0
    log: list[EpochRecord] = []
    stopped_early = False

    for epoch in range(1, config.max_epochs + 1):
        order = shuffle_rng.permutation(len(x_train))
        total_loss = 0.0
        for batch, start in enumerate(range(0, len(order), config.batch_size), start=1):
            idx = order[start : start + config.batch_size]
            xb = Tensor(x_train[idx].astype(model.dtype, copy=False))
            yb = Tensor(y_train[idx].astype(model.dtype, copy=False))
            with Tape() as tape:
                pred = model.forward(xb, training=True, dropout_rng=dropout_rng)
                loss = mse_loss(pred, yb)
            loss_value = loss.item()
            if not math.isfinite(loss_value):
                raise NumericInputError(
                    f"training loss is {loss_value} at epoch {epoch}, batch {batch}"
                )
            tape.backward(loss)
            adam_step(params, state, config.learning_rate)
            model.zero_grad()
            total_loss += loss_value * len(idx)

        val_rmse = _validation_rmse(model, x_val, y_val)
        log.append(EpochRecord(epoch, total_loss / len(x_train), val_rmse))

        if val_rmse < best_val:
            best_val = val_rmse
            best_epoch = epoch
            best_state = {name: p.data.copy() for name, p in model.parameters()}
            epochs_without_improvement = 0
        else:
            epochs_without_improvement += 1
            if epochs_without_improvement >= config.early_stop_patience:
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
