"""Full-pipeline runs on generated data: the model must learn real skill,
and every stage must compose (parse -> cluster -> normalize -> window ->
fit -> checkpoint -> evaluate -> explain)."""

import numpy as np
import pytest

from rulnet import RulModel
from rulnet import data as D
from rulnet.checkpoint import Bundle, load_bundle, save_bundle
from rulnet.evaluation import export_attention, predict_test_set
from rulnet.seeding import generator
from rulnet.synthetic import generate_dataset
from rulnet.config import ExperimentConfig
from rulnet.training import fit


@pytest.fixture(scope="module")
def e2e(tmp_path_factory):
    root = tmp_path_factory.mktemp("e2e")
    ds = generate_dataset(root, name="E2E", n_train=24, n_test=12, n_conditions=1, seed=5)
    train = D.parse_cmapss(ds.train_path)
    test = D.parse_cmapss(ds.test_path)
    truth = D.parse_rul_truth(ds.truth_path)

    window, r_max = 20, 125.0
    cm = D.cluster_conditions(train, k=1, seed=0)
    samples = []
    for traj in train:
        samples.extend(D.window_split(D.normalize(traj, cm), window, r_max))

    seed = 3
    model = RulModel(
        n_features=24, window=window, mode="F+T", feature_heads=4, sequence_heads=4,
        lstm_hidden=48, lstm_layers=2, mlp_hidden=48, dropout=0.5,
        init_rng=generator(seed, "init"),
    )
    config = ExperimentConfig(
        window=window, r_max=r_max, learning_rate=0.002, batch_size=128,
        early_stop_patience=40, max_epochs=35, validation_fraction=0.15, seeds=[seed],
    )
    result = fit(model, samples, config)
    bundle = Bundle(model=model, condition_model=cm, config=config)
    report = predict_test_set(bundle, test, truth)
    return {
        "root": root, "train": train, "test": test, "truth": truth,
        "samples": samples, "model": model, "cm": cm, "result": result,
        "report": report, "window": window, "r_max": r_max,
    }


def test_training_reduces_loss(e2e):
    losses = [r.train_loss for r in e2e["result"].log]
    assert losses[-1] < 0.4 * losses[0]


def test_model_beats_trivial_baselines(e2e):
    truths = np.array([r.true_rul for r in e2e["report"].records])
    labels = np.array([s.label for s in e2e["samples"]])
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


def test_explain_runs_on_trained_bundle(e2e):
    bundle = Bundle(model=e2e["model"], condition_model=e2e["cm"],
                    config=ExperimentConfig(window=e2e["window"], r_max=e2e["r_max"]))
    traj = e2e["test"][0]
    export = export_attention(bundle, traj, cycles=[1, len(traj)], matrix_cycles=[len(traj)])
    assert export.cycle_sums.shape == (2, 24)
    assert export.weights.shape[0] == 1
    assert np.all(np.abs(export.weights.sum(axis=-1) - 1.0) < 1e-6)


def test_validation_rmse_tracks_training(e2e):
    # Later-epoch validation should improve on the untrained start.
    val = [r.val_rmse for r in e2e["result"].log]
    assert min(val) < 0.75 * val[0]
