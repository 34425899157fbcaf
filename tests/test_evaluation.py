import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_tiny_model, window_ending_at
from rulnet import CapabilityError, ContractError, NumericInputError
from rulnet import data as D
from rulnet.checkpoint import Bundle
from rulnet.cli import _write_json as write_json
from rulnet.config import ExperimentConfig
from rulnet.evaluation import (
    AttentionExport,
    EvaluationReport,
    UnitRecord,
    export_attention,
    phm_score,
    predict_test_set,
    rmse,
    write_attention_csvs,
    write_predictions_csv,
)
from rulnet.training import PREDICT_BATCH


class TestPhmScore:
    def test_zero_error(self):
        assert phm_score([0.0]) == 0.0

    def test_late_by_ten(self):
        assert abs(phm_score([10.0]) - (math.e - 1.0)) < 1e-9

    def test_early_by_thirteen(self):
        assert abs(phm_score([-13.0]) - (math.e - 1.0)) < 1e-9

    @pytest.mark.parametrize("x", [1.0, 5.0, 20.0])
    def test_asymmetry_penalizes_late(self, x):
        assert phm_score([x]) > phm_score([-x])

    def test_sums_over_units(self):
        assert abs(phm_score([10.0, -13.0]) - 2 * (math.e - 1.0)) < 1e-9


class TestRmse:
    def test_zeros(self):
        assert rmse([0.0, 0.0]) == 0.0

    def test_direct_arithmetic(self):
        assert abs(rmse([3.0, -4.0]) - math.sqrt(12.5)) < 1e-9

    def test_single_element_is_abs(self):
        assert rmse([-7.5]) == 7.5
        assert rmse([7.5]) == 7.5

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            rmse([])

    @given(
        ds=st.lists(st.floats(-100, 100), min_size=1, max_size=20),
        c=st.floats(-10, 10),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariant_and_scales(self, ds, c, seed):
        rng = np.random.default_rng(seed)
        shuffled = list(rng.permutation(ds))
        assert abs(rmse(ds) - rmse(shuffled)) < 1e-9
        scaled = [c * d for d in ds]
        assert abs(rmse(scaled) - abs(c) * rmse(ds)) < 1e-6


# exp(709) and 1e154² are finite, but three of them do not sum in float64.
# A NaN error makes a NaN term, which both metrics name the same way.
@pytest.mark.parametrize("metric, errors, message", [
    (phm_score, [1.0, -1e5], "the score term of error 1 (-100000.0) is inf, not finite"),
    (phm_score, [7090.0] * 3, "the score of 3 errors is inf, not finite"),
    (phm_score, [1.0, np.nan], "the score term of error 1 (nan) is nan, not finite"),
    (rmse, [1.0, 1e200], "the rmse term of error 1 (1e+200) is inf, not finite"),
    (rmse, [1e154] * 3, "the rmse of 3 errors is inf, not finite"),
    (rmse, [1.0, np.nan], "the rmse term of error 1 (nan) is nan, not finite"),
], ids=["score-term", "score-sum", "score-nan", "rmse-term", "rmse-sum", "rmse-nan"])
def test_overflowing_metric_is_numeric_input_error(metric, errors, message):
    # Warnings are errors in this suite, so an overflow warning fails it too.
    with pytest.raises(NumericInputError) as err:
        metric(errors)
    assert str(err.value) == message


def make_bundle(mode="F+T", seed=0, window=6):
    model, rng = build_tiny_model(seed=seed, mode=mode, dtype=np.float64)
    cm = D.ConditionModel(
        centroids=np.zeros((1, 3)),
        means=np.zeros((1, 24)),
        stds=np.ones((1, 24)),
    )
    return Bundle(model=model, condition_model=cm, config=ExperimentConfig(window=window))


def four_channel_bundle(mode="F+T"):
    """Bundle whose model takes the full 24-channel window."""
    rng = np.random.default_rng(3)
    from rulnet import RulModel

    model = RulModel(
        n_features=24, window=6, mode=mode, feature_heads=2, sequence_heads=2,
        lstm_hidden=8, lstm_layers=1, mlp_hidden=8, dropout=0.0,
        init_rng=rng, dtype=np.float32,
    )
    cm = D.ConditionModel(
        centroids=np.zeros((1, 3)), means=np.zeros((1, 24)), stds=np.ones((1, 24))
    )
    return Bundle(model=model, condition_model=cm, config=ExperimentConfig(window=6))


def make_test_trajs(n=5, seed=1, length=40):
    rng = np.random.default_rng(seed)
    return [
        D.RawTrajectory(
            unit_id=i + 1,
            channels=np.hstack([rng.standard_normal((length, 3)), rng.standard_normal((length, 21))]),
        )
        for i in range(n)
    ]


class TestPredictTestSet:
    def test_stub_model_scores_zero(self, monkeypatch):
        bundle = four_channel_bundle()
        trajs = make_test_trajs(4)
        truth = [50, 80, 10, 120]

        calls = iter([float(min(v, 125.0)) for v in truth])
        monkeypatch.setattr(
            bundle.model, "predict",
            lambda x: np.array([next(calls) for _ in range(len(x))], dtype=np.float64),
        )
        report = predict_test_set(bundle, trajs, truth)
        assert report.rmse == 0.0
        assert report.score == 0.0
        assert len(report.records) == 4

    def test_count_mismatch(self):
        bundle = four_channel_bundle()
        with pytest.raises(Exception) as err:
            predict_test_set(bundle, make_test_trajs(3), [1, 2])
        assert "3 test units but 2 truth values" in str(err.value)

    def test_empty_test_set_is_contract_error(self):
        with pytest.raises(ContractError, match="the test set is empty"):
            predict_test_set(four_channel_bundle(), [], [])

    def test_negative_predictions_clamped_and_flagged(self, monkeypatch):
        bundle = four_channel_bundle()
        trajs = make_test_trajs(2)
        monkeypatch.setattr(
            bundle.model, "predict", lambda x: np.full(len(x), -5.0)
        )
        report = predict_test_set(bundle, trajs, [3, 4])
        assert report.clamp_count == 2
        assert all(r.pred_rul == 0.0 for r in report.records)

    def test_each_unit_uses_its_final_window(self, monkeypatch):
        # Unit 1 (50 cycles) fills the 6-cycle window; unit 2 (4 cycles)
        # is padded by repeating its first cycle.
        bundle = four_channel_bundle()
        full = make_test_trajs(1, length=50)[0]
        short = make_test_trajs(2, seed=2, length=4)[1]
        seen = []
        monkeypatch.setattr(bundle.model, "predict",
                            lambda x: seen.append(x) or np.zeros(len(x)))
        report = predict_test_set(bundle, [full, short], [140, 3])
        (x,) = seen
        full_chans = D.normalize(full, bundle.condition_model).channels
        short_chans = D.normalize(short, bundle.condition_model).channels
        np.testing.assert_array_equal(x[0], full_chans[-6:].T.astype(np.float32))
        padded = np.vstack([short_chans[:1], short_chans[:1], short_chans])
        np.testing.assert_array_equal(x[1], padded.T.astype(np.float32))
        assert [(r.unit_id, r.true_rul) for r in report.records] == [(1, 125.0), (2, 3.0)]
        unclipped = predict_test_set(bundle, [full, short], [140, 3], clip_truth=False)
        assert [r.true_rul for r in unclipped.records] == [140.0, 3.0]

    def test_truth_clipping_follows_config(self):
        bundle = four_channel_bundle()
        trajs = make_test_trajs(1)
        clipped = predict_test_set(bundle, trajs, [150])
        assert clipped.records[0].true_rul == 125.0
        unclipped = predict_test_set(bundle, trajs, [150], clip_truth=False)
        assert unclipped.records[0].true_rul == 150.0

    def test_metrics_recomputable_from_csv_export(self, tmp_path):
        bundle = four_channel_bundle()
        trajs = make_test_trajs(6)
        truth = [10, 40, 70, 100, 125, 60]
        report = predict_test_set(bundle, trajs, truth)
        path = tmp_path / "predictions.csv"
        write_predictions_csv(report, path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        errors = [float(r["pred_rul"]) - float(r["true_rul"]) for r in rows]
        assert rmse(errors) == report.rmse
        assert phm_score(errors) == report.score
        write_json(report.metrics(), tmp_path / "metrics.json")
        import json

        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["rmse"] == report.rmse
        assert metrics["score"] == report.score
        assert metrics["n_units"] == 6


class TestReportInvariants:
    def test_aggregates_match_records_exactly(self):
        records = [
            UnitRecord(unit_id=1, true_rul=50.0, pred_rul=47.0),
            UnitRecord(unit_id=2, true_rul=20.0, pred_rul=30.0),
        ]
        report = EvaluationReport(records=records)
        assert report.rmse == rmse([-3.0, 10.0])
        assert report.score == phm_score([-3.0, 10.0])


# ---------------------------------------------------------------------
# reference export: one forward and one Python row tuple per cycle
# ---------------------------------------------------------------------

@dataclass
class ReferenceExport:
    unit_id: int
    feature_rows: list[tuple[int, str, int, int, float]]
    cycle_sums: list[tuple[int, int, float]]
    predictions: list[tuple[int, float]]


def reference_export_attention(bundle, trajectory, cycles=None, matrix_cycles=None):
    """The per-cycle export: a batch-1 forward and row tuples per cycle."""
    model = bundle.model
    if not model.feature_heads:
        raise CapabilityError(f"mode {model.mode!r} retains no attention weights")
    total = len(trajectory)
    if cycles is None:
        cycles = range(1, total + 1)
    cycles = [int(c) for c in cycles]
    for c in cycles:
        if not 1 <= c <= total:
            raise ContractError(f"cycle {c} outside 1..{total}")
    matrix_set = set(cycles if matrix_cycles is None else (int(c) for c in matrix_cycles))

    normed = D.normalize(trajectory, bundle.condition_model)
    chans = normed.channels

    feature_rows = []
    cycle_sums = []
    predictions = []
    for cycle in cycles:
        window = window_ending_at(chans, cycle, model.window)
        pred, blocks = model.explain(window[None])
        predictions.append((cycle, float(pred[0])))
        heads = list(blocks["feature"][0].astype(np.float64))
        stacked = np.stack(heads)  # (h, F, F)
        averaged = stacked.mean(axis=0)
        if cycle in matrix_set:
            for h, mat in enumerate(heads, start=1):
                for i in range(mat.shape[0]):
                    for j in range(mat.shape[1]):
                        feature_rows.append((cycle, str(h), i, j, float(mat[i, j])))
            for i in range(averaged.shape[0]):
                for j in range(averaged.shape[1]):
                    feature_rows.append((cycle, "mean", i, j, float(averaged[i, j])))
        column_sums = averaged.sum(axis=0)
        for j, weight in enumerate(column_sums):
            cycle_sums.append((cycle, j, float(weight)))

    return ReferenceExport(
        unit_id=trajectory.unit_id,
        feature_rows=feature_rows,
        cycle_sums=cycle_sums,
        predictions=predictions,
    )


def reference_write_attention_csvs(export, out_dir):
    """The csv.writer version of the attention CSVs, each value in
    nine significant digits."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    feature_path = out_dir / "attention_feature.csv"
    sums_path = out_dir / "attention_cycle_sums.csv"
    with open(feature_path, "w", newline="", encoding="utf-8") as out:
        writer = csv.writer(out)
        writer.writerow(["cycle", "head", "row_sensor", "col_sensor", "weight"])
        for row in export.feature_rows:
            writer.writerow([row[0], row[1], row[2], row[3], "%.9g" % row[4]])
    with open(sums_path, "w", newline="", encoding="utf-8") as out:
        writer = csv.writer(out)
        writer.writerow(["cycle", "sensor", "weight_sum"])
        for cycle, sensor, weight in export.cycle_sums:
            writer.writerow([cycle, sensor, "%.9g" % weight])
    return {"feature": feature_path, "cycle_sums": sums_path}


def as_reference(export):
    """The reference's row tuples for the arrays of an AttentionExport."""
    n_blocks, n_features = export.weights.shape[1], export.cycle_sums.shape[1]
    names = [str(h) for h in range(1, n_blocks)] + ["mean"]
    feature_rows = [
        (int(cycle), names[h], i, j, float(block[h, i, j]))
        for cycle, block in zip(export.matrix_cycles, export.weights)
        for h in range(n_blocks)
        for i in range(n_features)
        for j in range(n_features)
    ]
    cycle_sums = [
        (int(cycle), j, float(sums[j]))
        for cycle, sums in zip(export.cycles, export.cycle_sums)
        for j in range(n_features)
    ]
    predictions = [(int(c), float(p)) for c, p in zip(export.cycles, export.predictions)]
    return ReferenceExport(export.unit_id, feature_rows, cycle_sums, predictions)


def assert_matches_reference(export, ref):
    """Same rows in the same order; values equal to float32 precision."""
    got = as_reference(export)
    assert [r[:4] for r in got.feature_rows] == [r[:4] for r in ref.feature_rows]
    assert [r[:2] for r in got.cycle_sums] == [r[:2] for r in ref.cycle_sums]
    assert [c for c, _ in got.predictions] == [c for c, _ in ref.predictions]
    for mine, theirs in (
        (got.feature_rows, ref.feature_rows),
        (got.cycle_sums, ref.cycle_sums),
        (got.predictions, ref.predictions),
    ):
        np.testing.assert_allclose(
            [r[-1] for r in mine], [r[-1] for r in theirs], rtol=1e-5, atol=1e-7
        )


class TestExportAttention:
    def test_rows_sum_to_one_and_shapes(self, tmp_path):
        bundle = four_channel_bundle()
        traj = make_test_trajs(1, length=12)[0]
        export = export_attention(bundle, traj, cycles=[3, 12])
        heads = bundle.model.feature_heads
        # one (cycle, head) block per head plus the averaged block
        assert export.weights.shape == (2, heads + 1, 24, 24)
        assert export.weights.dtype == np.float64
        np.testing.assert_allclose(export.weights.sum(axis=-1), 1.0, atol=1e-6)
        np.testing.assert_array_equal(export.matrix_cycles, [3, 12])

    def test_cycle_sums_cover_requested_cycles(self):
        bundle = four_channel_bundle()
        traj = make_test_trajs(1, length=9)[0]
        export = export_attention(bundle, traj)
        np.testing.assert_array_equal(export.cycles, np.arange(1, 10))
        assert export.cycle_sums.shape == (9, 24)
        assert export.predictions.shape == (9,)
        # column sums of a row-stochastic matrix total the row count
        np.testing.assert_allclose(export.cycle_sums.sum(axis=1), 24.0, atol=1e-4)

    def test_capability_error_without_attention(self):
        bundle = four_channel_bundle(mode="L")
        with pytest.raises(CapabilityError):
            export_attention(bundle, make_test_trajs(1)[0])

    def test_cycle_out_of_range(self):
        bundle = four_channel_bundle()
        with pytest.raises(ContractError):
            export_attention(bundle, make_test_trajs(1, length=5)[0], cycles=[9])

    def test_matrix_cycle_outside_cycles(self):
        bundle = four_channel_bundle()
        traj = make_test_trajs(1, length=12)[0]
        with pytest.raises(ContractError, match="matrix cycle 2 "):
            export_attention(bundle, traj, cycles=range(4, 9), matrix_cycles=[2, 5, 8, 11])

    def test_csv_files_written(self, tmp_path):
        bundle = four_channel_bundle()
        traj = make_test_trajs(1, length=8)[0]
        export = export_attention(bundle, traj, cycles=[8], matrix_cycles=[8])
        paths = write_attention_csvs(export, tmp_path)
        feature_lines = paths["feature"].read_text().splitlines()
        assert feature_lines[0] == "cycle,head,row_sensor,col_sensor,weight"
        heads = bundle.model.feature_heads
        assert len(feature_lines) == 1 + (heads + 1) * 24 * 24
        sums_lines = paths["cycle_sums"].read_text().splitlines()
        assert sums_lines[0] == "cycle,sensor,weight_sum"
        assert len(sums_lines) == 1 + 24

    # (trajectory length, cycles, matrix_cycles); the bundle's window is 6.
    CASES = {
        "all": (12, None, None),
        "cycle-subset": (12, [2, 7, 12], None),
        "unsorted-repeated": (12, [9, 3, 9, 1], None),
        "matrix-subset": (12, None, [1, 6, 12]),
        "matrix-within-cycles": (12, range(4, 9), [5, 8]),
        "shorter-than-window": (4, None, None),
    }

    @pytest.mark.parametrize("mode", ["A", "F", "F+T"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_per_cycle_reference(self, mode, case):
        length, cycles, matrix_cycles = self.CASES[case]
        bundle = four_channel_bundle(mode=mode)
        traj = make_test_trajs(1, length=length)[0]
        export = export_attention(bundle, traj, cycles=cycles, matrix_cycles=matrix_cycles)
        ref = reference_export_attention(bundle, traj, cycles=cycles, matrix_cycles=matrix_cycles)
        assert_matches_reference(export, ref)

    def test_longer_than_one_batch_matches_reference(self):
        bundle = four_channel_bundle(mode="F")
        traj = make_test_trajs(1, length=PREDICT_BATCH + 45)[0]
        matrix_cycles = [1, PREDICT_BATCH - 1, PREDICT_BATCH, PREDICT_BATCH + 1, PREDICT_BATCH + 45]
        export = export_attention(bundle, traj, matrix_cycles=matrix_cycles)
        ref = reference_export_attention(bundle, traj, matrix_cycles=matrix_cycles)
        assert len(export.predictions) == PREDICT_BATCH + 45
        assert_matches_reference(export, ref)

    def test_mean_and_sums_use_the_reference_arithmetic(self):
        """The mean block and the column sums are the reference's float64
        reductions of the same head weights, bit for bit, so their CSV
        text cannot move."""
        bundle = four_channel_bundle()  # float32 weights, float64 export
        export = export_attention(bundle, make_test_trajs(1, length=12)[0])
        for block, sums in zip(export.weights, export.cycle_sums):
            averaged = np.stack(list(block[:-1])).mean(axis=0)
            np.testing.assert_array_equal(block[-1], averaged)
            np.testing.assert_array_equal(sums, averaged.sum(axis=0))

    @pytest.mark.parametrize("mode", ["A", "F+T"])
    def test_csv_bytes_match_reference_writer(self, tmp_path, mode):
        bundle = four_channel_bundle(mode=mode)
        traj = make_test_trajs(1, length=10)[0]
        export = export_attention(bundle, traj, cycles=[10, 2, 5], matrix_cycles=[5, 10])
        new = write_attention_csvs(export, tmp_path / "new")
        ref = reference_write_attention_csvs(as_reference(export), tmp_path / "ref")
        for name in ("feature", "cycle_sums"):
            assert new[name].read_bytes() == ref[name].read_bytes()

    def test_csv_gives_back_every_float32_weight(self, tmp_path):
        bundle = four_channel_bundle()  # float32 weights
        export = export_attention(bundle, make_test_trajs(1, length=12)[0])
        paths = write_attention_csvs(export, tmp_path)
        with open(paths["feature"], newline="") as fh:
            feature = list(csv.DictReader(fh))
        with open(paths["cycle_sums"], newline="") as fh:
            sums = list(csv.DictReader(fh))
        heads = bundle.model.feature_heads
        head_rows = [r for r in feature if r["head"] != "mean"]
        assert len(head_rows) == 12 * heads * 24 * 24
        parsed = np.array([np.float32(float(r["weight"])) for r in head_rows])
        expected = export.weights[:, :heads].astype(np.float32).ravel()
        np.testing.assert_array_equal(parsed, expected)
        for text in [r["weight"] for r in feature] + [r["weight_sum"] for r in sums]:
            mantissa = text.lstrip("-").partition("e")[0].replace(".", "").lstrip("0")
            assert len(mantissa) <= 9, text
        totals = np.zeros(12)
        for r in sums:
            totals[int(r["cycle"]) - 1] += float(r["weight_sum"])
        np.testing.assert_allclose(totals, 24.0, rtol=1e-6)

    @given(
        blocks=st.integers(1, 3),
        features=st.integers(1, 3),
        cycles=st.lists(st.integers(1, 10**6), max_size=3),
        in_matrix=st.lists(st.booleans(), min_size=3, max_size=3),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_writer_matches_reference_on_any_values(
        self, tmp_path_factory, blocks, features, cycles, in_matrix, data
    ):
        """Every float spelling (negative zero, subnormals, exponents, inf,
        nan) comes out as the csv.writer reference writes it."""
        values = st.floats(allow_nan=True, allow_infinity=True, width=64)
        cycles = np.array(cycles, dtype=np.int64)
        keep = np.array(in_matrix[: len(cycles)], dtype=bool)
        weights = np.array(
            data.draw(st.lists(values, min_size=int(keep.sum()) * blocks * features**2,
                               max_size=int(keep.sum()) * blocks * features**2))
        ).reshape(int(keep.sum()), blocks, features, features)
        sums = np.array(
            data.draw(st.lists(values, min_size=len(cycles) * features,
                               max_size=len(cycles) * features))
        ).reshape(len(cycles), features)
        export = AttentionExport(
            unit_id=1, cycles=cycles, predictions=np.zeros(len(cycles)), cycle_sums=sums,
            matrix_cycles=cycles[keep], weights=weights,
        )
        out = tmp_path_factory.mktemp("csv")
        new = write_attention_csvs(export, out / "new")
        ref = reference_write_attention_csvs(as_reference(export), out / "ref")
        for name in ("feature", "cycle_sums"):
            assert new[name].read_bytes() == ref[name].read_bytes()
