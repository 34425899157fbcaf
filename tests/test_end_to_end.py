"""Full-pipeline runs on generated data: the model must learn real skill,
and every stage must compose (parse -> cluster -> normalize -> window ->
fit -> checkpoint -> evaluate -> explain)."""

import numpy as np
import pytest

from rulnet import RulModel
from rulnet import data as D
from rulnet.checkpoint import Bundle, load_bundle, save_bundle
from rulnet.evaluation import export_attention, predict_test_set, write_attention_csvs
from rulnet.seeding import generator
from rulnet.synthetic import _CONSTANT_SENSORS, _UNINFORMATIVE_SENSORS, generate_dataset
from rulnet.config import ExperimentConfig
from rulnet.training import fit, predict_batched

WINDOW, R_MAX = 20, 125.0


@pytest.fixture(scope="module")
def e2e(tmp_path_factory):
    root = tmp_path_factory.mktemp("e2e")
    ds = generate_dataset(root, name="E2E", n_train=24, n_test=12, n_conditions=1, seed=5)
    train = D.parse_cmapss(ds.train_path)
    test = D.parse_cmapss(ds.test_path)
    truth = D.parse_rul_truth(ds.truth_path)

    window, r_max = WINDOW, R_MAX
    cm = D.cluster_conditions(train, k=1, seed=0)
    windows = D.window_arrays([D.normalize(traj, cm) for traj in train], window, r_max)
    model, config = e2e_model("F+T")
    result = fit(model, windows, config)
    bundle = Bundle(model=model, condition_model=cm, config=config)
    report = predict_test_set(bundle, test, truth)
    return {
        "root": root, "train": train, "test": test, "truth": truth,
        "windows": windows, "model": model, "cm": cm, "result": result,
        "report": report, "window": window, "r_max": r_max,
    }


def e2e_model(mode):
    """The fixture's model of ``mode`` and its training config."""
    seed = 3
    model = RulModel(
        n_features=24, window=WINDOW, mode=mode, feature_heads=4, sequence_heads=4,
        lstm_hidden=48, lstm_layers=2, mlp_hidden=48, dropout=0.5,
        init_rng=generator(seed, "init"),
    )
    config = ExperimentConfig(
        window=WINDOW, r_max=R_MAX, learning_rate=0.002, batch_size=128,
        early_stop_patience=40, max_epochs=35, validation_fraction=0.15, seeds=[seed],
    )
    return model, config


def training_spread(model, windows, train_units):
    """Standard deviations of the predictions and of the labels over the
    training units' windows."""
    mask = np.isin(windows.units, train_units)
    return (float(predict_batched(model, windows.x[windows.rows[mask]]).std()),
            float(windows.y[mask].std()))


def test_training_reduces_loss(e2e):
    losses = [r.train_loss for r in e2e["result"].log]
    assert losses[-1] < 0.4 * losses[0]


def test_model_beats_trivial_baselines(e2e):
    truths = np.array([r.true_rul for r in e2e["report"].records])
    labels = e2e["windows"].y.astype(np.float64)
    const_baseline = float(np.sqrt(np.mean((e2e["r_max"] - truths) ** 2)))
    mean_baseline = float(np.sqrt(np.mean((labels.mean() - truths) ** 2)))
    model_rmse = e2e["report"].rmse
    assert model_rmse < 0.55 * const_baseline
    assert model_rmse < 0.90 * mean_baseline


def test_report_covers_every_test_unit(e2e):
    assert sorted(r.unit_id for r in e2e["report"].records) == [t.unit_id for t in e2e["test"]]
    assert np.isfinite(e2e["report"].score)


def test_checkpoint_round_trip_preserves_report(e2e, tmp_path):
    path = tmp_path / "bundle.bin"
    save_bundle(path, e2e["model"], e2e["cm"],
                {"window": e2e["window"], "r_max": e2e["r_max"], "clip_test_rul": True})
    bundle = load_bundle(path)
    again = predict_test_set(bundle, e2e["test"], e2e["truth"])
    assert again.rmse == e2e["report"].rmse
    assert [r.pred_rul for r in again.records] == [r.pred_rul for r in e2e["report"].records]


def test_explain_runs_on_trained_bundle(e2e, tmp_path):
    bundle = Bundle(model=e2e["model"], condition_model=e2e["cm"],
                    config=ExperimentConfig(window=e2e["window"], r_max=e2e["r_max"]))
    traj = e2e["test"][0]
    export = export_attention(bundle, traj, cycles=[1, len(traj)])
    assert export.cycle_sums.shape == (2, 24)
    assert export.weights.shape[0] == 2  # one row per requested cycle
    assert np.all(np.abs(export.weights.sum(axis=-1) - 1.0) < 1e-6)
    paths = write_attention_csvs(export, tmp_path, matrix_cycles=[len(traj)])
    rows = paths["feature"].read_text().splitlines()[1:]
    assert len(rows) == (bundle.model.feature_heads + 1) * 24 * 24
    assert {row.partition(",")[0] for row in rows} == {str(len(traj))}


def test_feature_attention_ranks_the_no_signal_channels_lowest(e2e):
    # The paper's reading of attention as an explanation, on data whose
    # signal-free channels are known: a one-regime set's three settings,
    # the constant sensors and the noise-only sensors.  Over every cycle of
    # the 12 test units, those channels receive the least attention.
    sensors = _CONSTANT_SENSORS + _UNINFORMATIVE_SENSORS
    no_signal = set(range(D.N_SETTINGS)) | {D.N_SETTINGS + s for s in sensors}
    bundle = Bundle(model=e2e["model"], condition_model=e2e["cm"],
                    config=ExperimentConfig(window=e2e["window"], r_max=e2e["r_max"]))
    sums = np.concatenate([export_attention(bundle, traj).cycle_sums
                           for traj in e2e["test"]]).mean(axis=0)
    lowest = np.argsort(sums)[: len(no_signal)]
    assert set(lowest.tolist()) == no_signal, sums.round(3)


def test_validation_rmse_tracks_training(e2e):
    # Later-epoch validation should improve on the untrained start.
    val = [r.val_rmse for r in e2e["result"].log]
    assert min(val) < 0.75 * val[0]


def test_predictions_spread_like_the_labels(e2e):
    # A model that collapses to one constant prediction has a spread near 0.
    pred_std, label_std = training_spread(e2e["model"], e2e["windows"], e2e["result"].train_units)
    assert pred_std >= 0.5 * label_std, (pred_std, label_std)


def test_attention_model_within_reach_of_lstm_only(e2e):
    # Mode L (no attention), trained on the same windows with the same settings.
    model, config = e2e_model("L")
    lstm_only = fit(model, e2e["windows"], config)
    assert e2e["result"].best_val_rmse <= 1.5 * lstm_only.best_val_rmse, (
        e2e["result"].best_val_rmse, lstm_only.best_val_rmse)


@pytest.mark.parametrize("mode", ["F", "F+T"])
def test_attention_modes_train_without_collapse(synth1, mode):
    train = synth1["train"]
    cm = D.cluster_conditions(train, k=1, seed=0)
    windows = D.window_arrays([D.normalize(t, cm) for t in train], 10, 125.0)
    model = RulModel(
        n_features=24, window=10, mode=mode, feature_heads=2, sequence_heads=2,
        lstm_hidden=32, lstm_layers=3, mlp_hidden=32, dropout=0.5,
        init_rng=generator(0, "init"),
    )
    config = ExperimentConfig(window=10, learning_rate=0.002, batch_size=64, max_epochs=6, seeds=[0])
    result = fit(model, windows, config)
    pred_std, label_std = training_spread(model, windows, result.train_units)
    assert pred_std >= 0.5 * label_std, (pred_std, label_std)
