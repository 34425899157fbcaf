"""Metrics, per-engine test evaluation, and attention-weight export.

The score metric is asymmetric in the signed error d = predicted - true:
overestimating remaining life (d >= 0) is penalized with divisor 10,
underestimating with divisor 13, so late predictions cost more.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .checkpoint import Bundle
from .data import RawTrajectory, normalize, pair_test_truth, windows_ending_at
from .errors import CapabilityError, ContractError, NumericInputError
from .training import PREDICT_BATCH, predict_batched

SCORE_EARLY_DIVISOR = 13.0  # d < 0: prediction under the true RUL
SCORE_LATE_DIVISOR = 10.0  # d >= 0: prediction over the true RUL


def _finite_metric(metric: str, d: np.ndarray, terms: np.ndarray, value) -> float:
    """``value``, the metric reduced from one term per error; a term or a
    value that overflowed is a NumericInputError naming the first error
    whose term is not finite."""
    bad = np.flatnonzero(~np.isfinite(terms))
    if bad.size:
        i = bad[0]
        raise NumericInputError(f"the {metric} term of error {i} ({d[i]}) is {terms[i]}, not finite")
    if not math.isfinite(value):
        raise NumericInputError(f"the {metric} of {d.size} errors is {value}, not finite")
    return float(value)


def phm_score(errors: Sequence[float]) -> float:
    """Sum of exp(-d/13)-1 for d<0 and exp(d/10)-1 for d>=0; one that
    overflows is a NumericInputError."""
    d = np.asarray(errors, dtype=np.float64)
    if d.size and not np.isfinite(d).all():
        raise ContractError("score requires finite errors")
    with np.errstate(over="ignore"):
        per_unit = np.where(
            d < 0,
            np.exp(-d / SCORE_EARLY_DIVISOR) - 1.0,
            np.exp(d / SCORE_LATE_DIVISOR) - 1.0,
        )
        return _finite_metric("score", d, per_unit, per_unit.sum())


def _require_finite(predictions: np.ndarray, name: Callable[[int], str]) -> None:
    """Raise NumericInputError naming the first prediction that is not finite."""
    bad = np.flatnonzero(~np.isfinite(predictions))
    if bad.size:
        raise NumericInputError(f"the prediction for {name(bad[0])} is {predictions[bad[0]]}, not finite")


def rmse(errors: Sequence[float]) -> float:
    """Root mean squared error of the signed errors; one that overflows is
    a NumericInputError."""
    d = np.asarray(errors, dtype=np.float64)
    if d.size == 0:
        raise ContractError("rmse of an empty error list")
    with np.errstate(over="ignore"):
        squares = d * d
        return math.sqrt(_finite_metric("rmse", d, squares, np.mean(squares)))


@dataclass
class UnitRecord:
    unit_id: int
    true_rul: float
    pred_rul: float
    clamped: bool = False

    @property
    def error(self) -> float:
        return self.pred_rul - self.true_rul


@dataclass
class EvaluationReport:
    records: list[UnitRecord]

    @property
    def errors(self) -> list[float]:
        return [r.error for r in self.records]

    @property
    def rmse(self) -> float:
        return rmse(self.errors)

    @property
    def score(self) -> float:
        return phm_score(self.errors)

    @property
    def clamp_count(self) -> int:
        return sum(r.clamped for r in self.records)

    def metrics(self) -> dict:
        return {
            "n_units": len(self.records),
            "rmse": self.rmse,
            "score": self.score,
            "clamp_count": self.clamp_count,
        }


def predict_test_set(
    bundle: Bundle,
    test_trajectories: Sequence[RawTrajectory],
    truth: Sequence[int],
    clip_truth: bool | None = None,
) -> EvaluationReport:
    """Evaluate each test unit's final window through the bundle.

    Negative predictions are clamped to zero (and counted); the truth
    labels are clipped at the bundle's r_max when ``clip_truth``, which
    defaults to the bundle's ``clip_test_rul``.  A prediction that is not
    finite raises NumericInputError; an empty test set, ContractError.
    """
    if clip_truth is None:
        clip_truth = bundle.config.clip_test_rul
    pairs = pair_test_truth(test_trajectories, truth)
    if not pairs:
        raise ContractError("the test set is empty: predict_test_set needs at least one test unit")
    r_max = bundle.config.r_max

    x = np.concatenate([
        windows_ending_at(normalize(traj, bundle.condition_model).channels, [len(traj)], bundle.window)
        for traj, _ in pairs
    ])
    preds = predict_batched(bundle.model, x).astype(np.float64)
    _require_finite(preds, lambda i: f"unit {pairs[i][0].unit_id}")
    records = []
    for (traj, true_rul), pred in zip(pairs, preds):
        clamped = pred < 0.0
        records.append(
            UnitRecord(
                unit_id=int(traj.unit_id),
                true_rul=float(min(true_rul, r_max) if clip_truth else true_rul),
                pred_rul=float(max(pred, 0.0)),
                clamped=bool(clamped),
            )
        )
    return EvaluationReport(records=records)


def write_predictions_csv(report: EvaluationReport, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as out:
        writer = csv.writer(out)
        writer.writerow(["unit_id", "true_rul", "pred_rul", "error"])
        for r in report.records:
            writer.writerow([r.unit_id, repr(r.true_rul), repr(r.pred_rul), repr(r.error)])


# ---------------------------------------------------------------------
# attention export
# ---------------------------------------------------------------------

@dataclass
class AttentionExport:
    """Interpretability surfaces for one trajectory, as arrays.

    ``cycles`` (C,) are the requested 1-based cycles in request order and
    ``predictions`` (C,) the model's prediction for the window ending at
    each.  ``cycle_sums`` (C, F): per cycle and channel, the column sum of
    the head-averaged weight matrix, i.e. how much total attention the
    channel receives.  ``weights`` (M, h+1, F, F) holds the full
    feature-attention matrices of the ``matrix_cycles`` (M,), the
    requested cycles that were also asked for as matrices: heads 1..h,
    then their mean.  Every float array is float64.
    """

    unit_id: int
    cycles: np.ndarray
    predictions: np.ndarray
    cycle_sums: np.ndarray
    matrix_cycles: np.ndarray
    weights: np.ndarray


def export_attention(
    bundle: Bundle,
    trajectory: RawTrajectory,
    cycles: Sequence[int] | None = None,
    matrix_cycles: Sequence[int] | None = None,
) -> AttentionExport:
    """Run inference on each requested cycle's window, asking
    :meth:`RulModel.explain` for the feature-attention weights.

    ``cycles`` defaults to every cycle of the trajectory (windows ending
    before cycle T are padded backward).  Full F x F matrices are kept
    for ``matrix_cycles`` (default: all requested cycles), each of which
    must be a requested cycle; the per-cycle column-sum view always
    covers every requested cycle.  Windows go through the model in
    batches of at most ``PREDICT_BATCH``.  A prediction that is not finite
    raises NumericInputError.
    """
    model = bundle.model
    if not model.feature_heads:
        raise CapabilityError(f"mode {model.mode!r} retains no attention weights")
    total = len(trajectory)
    cycles = np.array(
        range(1, total + 1) if cycles is None else [int(c) for c in cycles], dtype=np.int64
    )
    outside = cycles[(cycles < 1) | (cycles > total)]
    if outside.size:
        raise ContractError(f"cycle {outside[0]} outside 1..{total}")
    in_matrix = np.ones(len(cycles), dtype=bool)
    if matrix_cycles is not None:
        matrix_cycles = np.array([int(c) for c in matrix_cycles], dtype=np.int64)
        missing = matrix_cycles[~np.isin(matrix_cycles, cycles)]
        if missing.size:
            raise ContractError(f"matrix cycle {missing[0]} is not among the requested cycles")
        in_matrix = np.isin(cycles, matrix_cycles)

    chans = normalize(trajectory, bundle.condition_model).channels
    n_heads, n_features = model.feature_heads, model.n_features
    predictions = np.empty(len(cycles))
    cycle_sums = np.empty((len(cycles), n_features))
    weights = np.empty((int(in_matrix.sum()), n_heads + 1, n_features, n_features))
    filled = 0
    for start in range(0, len(cycles), PREDICT_BATCH):
        chunk = slice(start, start + PREDICT_BATCH)
        predictions[chunk], blocks = model.explain(windows_ending_at(chans, cycles[chunk], model.window))
        heads = blocks["feature"].astype(np.float64)
        averaged = heads.mean(axis=1)
        cycle_sums[chunk] = averaged.sum(axis=1)
        keep = in_matrix[chunk]
        kept = int(keep.sum())
        weights[filled : filled + kept, :n_heads] = heads[keep]
        weights[filled : filled + kept, n_heads] = averaged[keep]
        filled += kept
    _require_finite(predictions, lambda i: f"unit {trajectory.unit_id}, cycle {cycles[i]}")

    return AttentionExport(
        unit_id=trajectory.unit_id,
        cycles=cycles,
        predictions=predictions,
        cycle_sums=cycle_sums,
        matrix_cycles=cycles[in_matrix],
        weights=weights,
    )


def write_attention_csvs(export: AttentionExport, out_dir: str | Path) -> dict[str, Path]:
    """Write attention_feature.csv and attention_cycle_sums.csv.

    The rows are what ``csv.writer`` makes of (cycle, head, row sensor,
    column sensor, "%.9g" % weight) and (cycle, sensor, "%.9g" % weight
    sum): comma-separated, CRLF-terminated, no field needing quotes.
    Nine significant digits round-trip every float32, so each head
    weight parses back to the exact value the model produced; the
    float64 mean rows and column sums are printed rounded to nine digits.
    Each cycle's rows are formatted as one string and written as it is
    made.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    feature_path = out_dir / "attention_feature.csv"
    sums_path = out_dir / "attention_cycle_sums.csv"
    n_blocks, n_features = export.weights.shape[1], export.cycle_sums.shape[1]
    head_names = [str(h) for h in range(1, n_blocks)] + ["mean"]
    feature_suffixes = [
        f",{head},{i},{j},"
        for head in head_names
        for i in range(n_features)
        for j in range(n_features)
    ]
    sums_suffixes = [f",{j}," for j in range(n_features)]
    _write_rows(
        feature_path, "cycle,head,row_sensor,col_sensor,weight",
        export.matrix_cycles, export.weights, feature_suffixes,
    )
    _write_rows(sums_path, "cycle,sensor,weight_sum", export.cycles, export.cycle_sums, sums_suffixes)
    return {"feature": feature_path, "cycle_sums": sums_path}


def _write_rows(path: Path, header: str, cycles: np.ndarray, values: np.ndarray,
                suffixes: list[str]) -> None:
    """Row k of cycle c's block is ``c + suffixes[k] + "%.9g" % value k``, CRLF-terminated."""
    # One cycle's rows as a %-template: "\0" stands for the cycle.  %.9g
    # is the float32 round-trip width, and about 3x faster than %r.
    template = "".join("\0" + suffix + "%.9g\r\n" for suffix in suffixes)
    with open(path, "w", newline="", encoding="utf-8") as out:
        out.write(header + "\r\n")
        for cycle, block in zip(cycles.tolist(), values):
            out.write(template.replace("\0", str(cycle)) % tuple(block.ravel().tolist()))
