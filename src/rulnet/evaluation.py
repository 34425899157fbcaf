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
from .data import RawTrajectory, integer_cycles, normalize, pair_test_truth, windows_ending_at
from .errors import CapabilityError, ContractError, NumericInputError
from .training import PREDICT_BATCH, predict_batched

SCORE_EARLY_DIVISOR = 13.0  # d < 0: prediction under the true RUL
SCORE_LATE_DIVISOR = 10.0  # d >= 0: prediction over the true RUL


def _require_finite(values, name: Callable[[int], str]) -> None:
    """Raise NumericInputError for the first of ``values`` (an array or one
    number) that is not finite, calling it ``name(i)`` by its index."""
    values = np.atleast_1d(values)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise NumericInputError(f"{name(bad[0])} is {values[bad[0]]}, not finite")


def _finite_metric(metric: str, d: np.ndarray, terms: np.ndarray, value) -> float:
    """``value``, the metric reduced from one term per error; a term or a
    value that is not finite is a NumericInputError, a term naming its error."""
    _require_finite(terms, lambda i: f"the {metric} term of error {i} ({d[i]})")
    _require_finite(value, lambda _: f"the {metric} of {d.size} errors")
    return float(value)


def phm_score(errors: Sequence[float]) -> float:
    """Sum of exp(-d/13)-1 for d<0 and exp(d/10)-1 for d>=0; one that
    is not finite is a NumericInputError."""
    d = np.asarray(errors, dtype=np.float64)
    with np.errstate(over="ignore"):
        per_unit = np.where(
            d < 0,
            np.exp(-d / SCORE_EARLY_DIVISOR) - 1.0,
            np.exp(d / SCORE_LATE_DIVISOR) - 1.0,
        )
        return _finite_metric("score", d, per_unit, per_unit.sum())


def rmse(errors: Sequence[float]) -> float:
    """Root mean squared error of the signed errors; one that is not finite
    is a NumericInputError."""
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
        windows_ending_at(normalize(traj, bundle.condition_model).channels, [len(traj)], bundle.model.window)
        for traj, _ in pairs
    ])
    preds = predict_batched(bundle.model, x).astype(np.float64)
    _require_finite(preds, lambda i: f"the prediction for unit {pairs[i][0].unit_id}")
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
    """Interpretability surfaces for one trajectory, one row per cycle.

    ``cycles`` (C,) are the requested 1-based cycles in request order and
    ``predictions`` (C,) the model's prediction for the window ending at
    each.  ``cycle_sums`` (C, F): per cycle and channel, the column sum of
    the head-averaged weight matrix, i.e. how much total attention the
    channel receives.  ``weights`` (C, h+1, F, F) holds each cycle's full
    feature-attention matrices: heads 1..h, then their mean.  Every float
    array is float64.
    """

    unit_id: int
    cycles: np.ndarray
    predictions: np.ndarray
    cycle_sums: np.ndarray
    weights: np.ndarray


def export_attention(
    bundle: Bundle,
    trajectory: RawTrajectory,
    cycles: Sequence[int] | None = None,
) -> AttentionExport:
    """Run inference on each requested cycle's window, asking
    :meth:`RulModel.explain` for the feature-attention weights.

    ``cycles`` defaults to every cycle of the trajectory (windows ending
    before cycle T are padded backward).  Windows go through the model in
    batches of at most ``PREDICT_BATCH``.  A cycle that is not an integer
    or is outside 1..L is a ContractError, by :func:`windows_ending_at`,
    and a prediction that is not finite a NumericInputError.
    """
    model = bundle.model
    if not model.feature_heads:
        raise CapabilityError(f"mode {model.mode!r} retains no attention weights")
    if cycles is None:
        cycles = range(1, len(trajectory) + 1)

    chans = normalize(trajectory, bundle.condition_model).channels
    n_heads, n_features = model.feature_heads, model.n_features
    predictions = np.empty(len(cycles))
    weights = np.empty((len(cycles), n_heads + 1, n_features, n_features))
    for start in range(0, len(cycles), PREDICT_BATCH):
        chunk = slice(start, start + PREDICT_BATCH)
        predictions[chunk], blocks = model.explain(windows_ending_at(chans, cycles[chunk], model.window))
        weights[chunk, :n_heads] = blocks["feature"]
    weights[:, n_heads] = weights[:, :n_heads].mean(axis=1)
    cycles = np.array(cycles, dtype=np.int64)  # windows_ending_at checked they are integers
    _require_finite(predictions, lambda i: f"the prediction for unit {trajectory.unit_id}, cycle {cycles[i]}")

    return AttentionExport(
        unit_id=trajectory.unit_id,
        cycles=cycles,
        predictions=predictions,
        cycle_sums=weights[:, n_heads].sum(axis=1),
        weights=weights,
    )


def write_attention_csvs(export: AttentionExport, out_dir: str | Path,
                         matrix_cycles: Sequence[int] | None = None) -> dict[str, Path]:
    """Write attention_feature.csv and attention_cycle_sums.csv.

    The feature file holds the matrices of the exported cycles that are
    among ``matrix_cycles`` (default: all), in export order; a matrix
    cycle that is not an integer (by :func:`integer_cycles`) or was not
    exported is a ContractError, before any write.
    The rows are what ``csv.writer`` makes of (cycle, head, row sensor,
    column sensor, "%.9g" % weight) and (cycle, sensor, "%.9g" % weight
    sum): comma-separated, CRLF-terminated, no field needing quotes.
    Nine significant digits round-trip every float32, so each head
    weight parses back to the exact value the model produced; the
    float64 mean rows and column sums are printed rounded to nine digits.
    The rows are built as bytes a few cycles at a time (:func:`_write_rows`)
    and written as they are made.
    """
    keep = slice(None)  # every cycle, as a view of the matrices
    if matrix_cycles is not None:
        matrix_cycles = integer_cycles(matrix_cycles)
        missing = matrix_cycles[~np.isin(matrix_cycles, export.cycles)]
        if missing.size:
            raise ContractError(f"matrix cycle {missing[0]} is not among the requested cycles")
        keep = np.isin(export.cycles, matrix_cycles)
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
        export.cycles[keep], export.weights[keep], feature_suffixes,
    )
    _write_rows(sums_path, "cycle,sensor,weight_sum", export.cycles, export.cycle_sums, sums_suffixes)
    return {"feature": feature_path, "cycle_sums": sums_path}


# Cycles per pass of _write_rows: bounds its byte matrix.
_DIGIT_CYCLES = 8
_POW10 = np.array([float(10**k) for k in range(14)])  # each exact in float64
# The text before the digits of a value in [1e-4, 1) whose leading digit
# is at 10**e, as NUL-padded words indexed by kind -e - 1.  Kind
# _FALLBACK, printed with "%.9g", has none.
_PREFIXES = np.array([b"0.", b"0.0", b"0.00", b"0.000", b""], "S8").view(np.uint64)
_FALLBACK = len(_PREFIXES) - 1
# "%03d" % g for g < 1000 as NUL-padded words, then at 1000 + g without trailing zeros.
_GROUPS = np.array([b"%03d" % g for g in range(1000)] + [(b"%03d" % g).rstrip(b"0") for g in range(1000)],
                   "S4").view(np.uint32)


def _nine_digits(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``"%.9g"`` text of each float64 value as (digits, kind) arrays
    of its shape: for kind k < _FALLBACK the text is ``_PREFIXES[k]``,
    then the nine digits of ``digits`` without their trailing zeros;
    otherwise it is ``"%.9g" % value`` and ``digits`` is 0."""
    inside = (values >= 1e-4) & (values < 1.0)  # NaN is neither
    v = np.where(inside, values, 0.5)
    e = np.floor(np.log10(v)).astype(np.intp)
    m = v * _POW10[8 - e]
    low = m < 1e8  # log10 rounded up at a power of ten
    e -= low
    m[low] *= 10.0
    # m is within 2.5e-7 of the exact v * 10**(8 - e) (one or two roundings
    # of half an ulp, at most 6e-8 each below 2**30), so rint(m) rounds as
    # "%.9g" does unless m's fraction is within 1e-6 of 0.5.  rint(m) >= 1e9
    # rounds up to the next power of ten; m >= 1e9 had log10 rounded down.
    rounded = np.rint(m)
    exact = inside & (np.abs(m - rounded) < 0.5 - 1e-6) & (m >= 1e8) & (rounded < 1e9)
    return np.where(exact, rounded, 0.0).astype(np.int32), np.where(exact, -1 - e, _FALLBACK)


def _write_rows(path: Path, header: str, cycles: np.ndarray, values: np.ndarray,
                suffixes: list[str]) -> None:
    """Row k of cycle c's block is ``c + suffixes[k] + "%.9g" % value k``, CRLF-terminated.

    ``"%.9g"`` of a value v in [1e-4, 1) is ``"0."``, -e-1 zeros, then
    round(v * 10**(8-e)) without its trailing zeros, where 10**e is v's
    leading digit.  :func:`_nine_digits` computes those nine digits as
    integers with numpy.  A value whose float64 product lies too near a
    rounding tie to be sure of the last digit, and every value outside
    [1e-4, 1) (zero, negatives, subnormals, NaN, infinities, values >= 1),
    is printed with ``"%.9g"`` itself, so every byte is ``"%.9g"``'s.

    Each pass of _DIGIT_CYCLES cycles fills one NUL-padded (cycles, rows,
    width) byte matrix column by column: the cycle, the suffix, the prefix
    word of the value's kind, its digits as three 3-digit words (the last
    nonzero one without trailing zeros, the ones after it empty), the
    ``"%.9g"`` text of each other value over the prefix and digits, and
    CRLF.  Its bytes other than NUL are the pass's text, written at once.
    """
    values = values.reshape(len(values), len(suffixes))
    suffix_bytes = _byte_columns([s.encode() for s in suffixes])
    with open(path, "wb") as out:
        out.write(header.encode() + b"\r\n")
        for start in range(0, len(values), _DIGIT_CYCLES):
            passed = slice(start, start + _DIGIT_CYCLES)
            digits, kind = _nine_digits(values[passed])
            fallback = np.nonzero(kind == _FALLBACK)
            texts = _byte_columns([b"%.9g" % v for v in values[passed][fallback].tolist()])
            cycle_bytes = _byte_columns([b"%d" % c for c in cycles[passed].tolist()])
            value_at = cycle_bytes.shape[1] + suffix_bytes.shape[1]
            end = value_at + max(14, texts.shape[1])  # "0.000" and nine digits, or a "%.9g" text
            rows = np.zeros(kind.shape + (end + 2,), np.uint8)
            rows[:, :, :cycle_bytes.shape[1]] = cycle_bytes[:, None]
            rows[:, :, cycle_bytes.shape[1]:value_at] = suffix_bytes
            rows[:, :, value_at:value_at + 8].view(np.uint64)[..., 0] = _PREFIXES[kind]
            high, mid, low = digits // 10**6, digits // 1000 % 1000, digits % 1000
            groups = (high + 1000 * (mid + low == 0), mid + 1000 * (low == 0), low + 1000)
            # The digits follow the longest prefix; each word's NUL byte is overwritten by the next.
            for at, group in zip(range(value_at + 5, end, 3), groups):
                rows[:, :, at:at + 4].view(np.uint32)[..., 0] = _GROUPS[group]
            rows[fallback + (slice(value_at, value_at + texts.shape[1]),)] = texts
            rows[:, :, end:] = np.frombuffer(b"\r\n", np.uint8)
            out.write(rows[rows != 0].tobytes())


def _byte_columns(texts: list[bytes]) -> np.ndarray:
    """The byte strings as the rows of a NUL-padded uint8 matrix."""
    table = np.array(texts, "S")
    return table.view(np.uint8).reshape(len(texts), table.itemsize)
