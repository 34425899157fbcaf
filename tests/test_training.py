import gc
import hashlib
import json
import platform
import re
import struct
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_tiny_model, with_extra_tensor
from rulnet import (
    CheckpointError,
    ConfigurationError,
    ContractError,
    NumericInputError,
    RulModel,
    RulnetError,
    Tape,
    Tensor,
)
from rulnet import autodiff as ad
from rulnet import training
from rulnet.checkpoint import load_bundle, save_bundle
from rulnet.cli import main
from rulnet.config import ExperimentConfig
from rulnet.data import ConditionModel, RawTrajectory, Windows, window_arrays
from rulnet.seeding import generator
from rulnet.synthetic import generate_dataset
from rulnet.training import (
    AdamState,
    _keep_freed_memory,
    adam_step,
    fit,
    mse_loss,
    split_units,
)


class TestMseLoss:
    def test_zero_when_equal(self):
        p = Tensor(np.array([1.0, 2.0, 3.0]), dtype=np.float64)
        assert mse_loss(p, p).item() == 0.0

    def test_single_element(self):
        p = Tensor(np.array([0.0]), dtype=np.float64)
        t = Tensor(np.array([2.0]), dtype=np.float64)
        assert mse_loss(p, t).item() == 4.0

    def test_direct_arithmetic(self):
        p = Tensor(np.array([1.0, 2.0]), dtype=np.float64)
        t = Tensor(np.array([3.0, 6.0]), dtype=np.float64)
        assert mse_loss(p, t).item() == 10.0

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            mse_loss(Tensor(np.zeros(2)), Tensor(np.zeros(3)))

    def test_empty_rejected(self):
        with pytest.raises(ContractError, match="at least one element"):
            mse_loss(Tensor(np.zeros(0)), Tensor(np.zeros(0)))

    def test_batch_loss_equals_mean_of_per_sample_losses(self):
        rng = np.random.default_rng(0)
        p = rng.standard_normal(9)
        t = rng.standard_normal(9)
        batch = mse_loss(Tensor(p, dtype=np.float64), Tensor(t, dtype=np.float64)).item()
        per_sample = [
            mse_loss(Tensor(p[i : i + 1], dtype=np.float64), Tensor(t[i : i + 1], dtype=np.float64)).item()
            for i in range(9)
        ]
        assert abs(batch - np.mean(per_sample)) < 1e-12

    def test_differentiable(self):
        p = Tensor(np.array([1.0, 5.0]), requires_grad=True, dtype=np.float64)
        t = Tensor(np.array([0.0, 0.0]), dtype=np.float64)
        with Tape() as tape:
            loss = mse_loss(p, t)
        tape.backward(loss)
        np.testing.assert_allclose(p.grad, [1.0, 5.0])  # d/dp mean((p-t)^2) = 2(p-t)/N


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        p = Tensor(np.array([1.5, -2.0]), requires_grad=True, dtype=np.float64)
        p.grad = np.zeros(2)
        state = AdamState([p])
        adam_step([p], state, lr=0.1)
        np.testing.assert_array_equal(p.data, [1.5, -2.0])

    def test_missing_gradient_rejected(self):
        # Every parameter must carry a gradient; the error names the one
        # without, and nothing moves.
        used = Tensor(np.array([0.0, 0.0]), requires_grad=True, dtype=np.float64)
        p = Tensor(np.array([1.0]), requires_grad=True, dtype=np.float64)
        used.grad = np.array([1.0, -1.0])
        state = AdamState([used, p])
        with pytest.raises(ContractError, match="parameter 1 has gradient shape None"):
            adam_step([used, p], state, lr=0.1)
        assert p.data[0] == 1.0 and used.data[0] == 0.0 and state.step_count == 0

    def test_flat_update_matches_per_array_formula(self):
        # The textbook per-array update, with (1 - beta1) g in float32.
        rng = np.random.default_rng(3)
        shapes = [(3, 4), (5,), (40000,), (1,)]  # spans more than one update chunk
        params = [Tensor(rng.standard_normal(s).astype(np.float32), requires_grad=True) for s in shapes]
        expected = [p.data.copy() for p in params]
        m = [np.zeros(s) for s in shapes]
        v = [np.zeros(s) for s in shapes]
        state = AdamState(params)
        for t in range(1, 4):
            for i, p in enumerate(params):
                g = rng.standard_normal(p.shape).astype(np.float32)
                p.grad = g
                m[i] = 0.9 * m[i] + (1.0 - 0.9) * g
                v[i] = 0.999 * v[i] + (1.0 - 0.999) * (g.astype(np.float64) ** 2)
                step = 0.01 * (m[i] / (1.0 - 0.9**t)) / (np.sqrt(v[i] / (1.0 - 0.999**t)) + 1e-8)
                expected[i] -= step.astype(np.float32)
            adam_step(params, state, lr=0.01)
            for p, want in zip(params, expected):
                assert np.array_equal(p.data, want)

    def test_hand_evaluated_first_step(self):
        # m=0.1, v=0.001 -> m_hat=1, v_hat=1 -> p -= lr/(1+eps)
        p = Tensor(np.array([0.0]), requires_grad=True, dtype=np.float64)
        p.grad = np.array([1.0])
        state = AdamState([p])
        adam_step([p], state, lr=0.0002)
        expected = -0.0002 * 1.0 / (1.0 + 1e-8)
        assert abs(p.data[0] - expected) < 1e-12

    def test_two_identical_steps_move_monotonically(self):
        p = Tensor(np.array([0.0]), requires_grad=True, dtype=np.float64)
        positions = [0.0]
        state = AdamState([p])
        for _ in range(2):
            p.grad = np.array([1.0])
            adam_step([p], state, lr=0.01)
            positions.append(float(p.data[0]))
        assert positions[2] < positions[1] < positions[0]

    def test_shape_mismatch_rejected(self):
        p = Tensor(np.zeros(3), requires_grad=True, dtype=np.float64)
        p.grad = np.zeros(2)
        with pytest.raises(ContractError):
            adam_step([p], AdamState([p]), lr=0.1)


class TestTrainConfig:
    def test_defaults_match_published_setup(self):
        cfg = ExperimentConfig()
        assert cfg.learning_rate == 0.0002
        assert cfg.batch_size == 128
        assert cfg.early_stop_patience == 50
        assert cfg.window == 30
        assert cfg.r_max == 125.0
        assert (cfg.feature_heads, cfg.sequence_heads) == (5, 4)

    def test_invalid_values_rejected(self):
        for bad in (dict(batch_size=0), dict(validation_fraction=1.0),
                    dict(early_stop_patience=0)):
            with pytest.raises(ConfigurationError):
                ExperimentConfig(**bad).validate()

    def test_validate_reads_no_file(self):
        # A data path is checked where a command reads it.
        ExperimentConfig(train_path="nowhere.txt").validate()

    @pytest.mark.parametrize("bad", [
        dict(batch_size=0), dict(max_epochs=0), dict(learning_rate=float("nan")),
    ], ids=["batch-size", "max-epochs", "learning-rate"])
    def test_fit_validates_before_any_compute(self, tiny_model, bad):
        before = [a.copy() for _, a in tiny_model.state_arrays()]
        with pytest.raises(ConfigurationError):
            fit(tiny_model, tiny_windows(), tiny_fit_config(**bad))
        for (_, a), b in zip(tiny_model.state_arrays(), before):
            assert np.array_equal(a, b)


def tiny_windows():
    """The 114 windows of 6 cycles, labels capped at 20, of six 4-channel
    24-cycle trajectories of a simple signal that a tiny model can fit
    quickly, built as ``train`` builds its windows."""
    rng = np.random.default_rng(0)
    t = np.arange(24, dtype=np.float64)
    trajs = [RawTrajectory(unit_id=unit, channels=(rng.standard_normal((4, 1)) + np.sin(t / 6.0) + t / 24).T)
             for unit in range(1, 7)]
    return window_arrays(trajs, 6, 20.0)


def stacked(windows):
    """``windows`` as one C-ordered (N, F, T) array of its own, ``rows`` =
    ``arange(N)``: the layout in which a test can edit one window."""
    return windows._replace(x=windows.x[windows.rows].copy(), rows=np.arange(len(windows.rows)))


def tiny_fit_config(**overrides):
    defaults = dict(
        learning_rate=0.01,
        batch_size=32,
        early_stop_patience=10,
        max_epochs=6,
        validation_fraction=0.2,
        seeds=[0],
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestSplitUnits:
    def test_no_unit_in_both_sides(self):
        units = np.repeat(np.arange(1, 21), 5)
        train, val = split_units(units, 0.1, seed=4)
        assert not set(train) & set(val)
        assert set(train) | set(val) == set(range(1, 21))
        assert len(val) == 2

    def test_at_least_one_each_side(self):
        train, val = split_units(np.array([1, 1, 2]), 0.01, seed=0)
        assert len(train) >= 1 and len(val) >= 1

    def test_one_unit_rejected(self):
        with pytest.raises(ContractError, match="at least 2 units"):
            split_units(np.array([3, 3, 3]), 0.5, seed=0)

    def test_deterministic(self):
        units = np.arange(30)
        assert split_units(units, 0.25, seed=7) == split_units(units, 0.25, seed=7)
        assert split_units(units, 0.25, seed=7) != split_units(units, 0.25, seed=8)


class TestFit:
    def test_empty_set_rejected(self, tiny_model):
        with pytest.raises(ContractError):
            fit(tiny_model, Windows(*(a[:0] for a in stacked(tiny_windows()))), tiny_fit_config())

    def test_windows_of_another_shape_rejected(self, tiny_model):
        windows = tiny_windows()
        wide = windows._replace(x=np.zeros((len(windows.x), 4, 7), dtype=np.float32))
        with pytest.raises(ContractError, match=r"windows are \(4, 7\), model expects \(4, 6\)"):
            fit(tiny_model, wide, tiny_fit_config())

    def test_deterministic_replay(self):
        windows = tiny_windows()

        def run():
            model, _ = build_tiny_model(seed=1, dtype=np.float32, dropout=0.5)
            fit(model, windows, tiny_fit_config(max_epochs=3))
            return model.state_arrays()

        first = run()
        second = run()
        for (n1, a1), (n2, a2) in zip(first, second):
            assert n1 == n2
            assert np.array_equal(a1, a2), n1

    def test_loss_decreases_on_learnable_signal(self):
        # The head starts at the mean label, so the first epoch's loss is
        # about the labels' variance; only learning the signal goes below it.
        model, _ = build_tiny_model(seed=2, dtype=np.float32)
        result = fit(model, tiny_windows(), tiny_fit_config(max_epochs=15))
        losses = [r.train_loss for r in result.log]
        assert len(losses) == 15
        assert losses[-1] < 0.5 * losses[0]

    def test_patience_one_with_frozen_metric_stops_after_two_epochs(self):
        model, _ = build_tiny_model(seed=3, dtype=np.float32)
        config = tiny_fit_config(learning_rate=0.0, early_stop_patience=1, max_epochs=50)
        result = fit(model, tiny_windows(), config)
        assert result.epochs_run == 2
        assert result.stopped_early

    def test_restores_best_validation_weights(self):
        windows = tiny_windows()
        model, _ = build_tiny_model(seed=4, dtype=np.float32)
        config = tiny_fit_config(max_epochs=8, early_stop_patience=50)
        result = fit(model, windows, config)
        from rulnet.training import predict_batched

        x, y, units, rows = windows
        in_val = np.isin(units, result.val_units)
        pred = predict_batched(model, x[rows[in_val]])
        restored_rmse = float(np.sqrt(np.mean((pred - y[in_val]) ** 2)))
        best_logged = min(r.val_rmse for r in result.log)
        assert abs(restored_rmse - best_logged) < 1e-4
        assert result.best_val_rmse == best_logged

    def test_non_finite_loss_stops_before_the_update(self):
        # Mode L has no softmax, so only fit's own check can catch the NaN.
        windows = stacked(tiny_windows())
        config = tiny_fit_config()
        train_units, _ = split_units(windows.units, config.validation_fraction, config.seeds[0])
        train_rows = np.flatnonzero(np.isin(windows.units, train_units))
        order = generator(config.seeds[0], "shuffle").permutation(len(train_rows))
        last_batch = (len(order) - 1) // config.batch_size
        windows.x[train_rows[order[last_batch * config.batch_size]], 1, 2] = np.nan
        model, _ = build_tiny_model(seed=7, mode="L", dtype=np.float32)
        with pytest.raises(NumericInputError, match=f"epoch 1, batch {last_batch + 1}$"):
            fit(model, windows, config)
        assert last_batch > 0
        assert all(np.isfinite(a).all() for _, a in model.state_arrays())

    def test_non_finite_validation_rmse_stops_training(self):
        # A NaN in one held-out window leaves every batch loss finite; mode L
        # has no softmax, so only fit's own check can catch the NaN.
        windows = stacked(tiny_windows())
        config = tiny_fit_config()
        _, val_units = split_units(windows.units, config.validation_fraction, config.seeds[0])
        windows.x[np.flatnonzero(np.isin(windows.units, val_units))[0], 1, 2] = np.nan
        model, _ = build_tiny_model(seed=7, mode="L", dtype=np.float32)
        with pytest.raises(NumericInputError, match="validation RMSE is nan at epoch 1$"):
            fit(model, windows, config)

    def test_non_finite_gradient_stops_before_the_update(self, monkeypatch):
        model, _ = build_tiny_model(seed=7, dtype=np.float32)
        planted = {}
        backward = Tape.backward

        def plant_inf_in_second_batch(tape, loss):
            backward(tape, loss)
            planted["calls"] = planted.get("calls", 0) + 1
            if planted["calls"] == 2:
                model.params["lstm.l0.wx"].grad[0, 0] = np.inf
                planted["weights"] = [a.copy() for _, a in model.state_arrays()]

        monkeypatch.setattr(Tape, "backward", plant_inf_in_second_batch)
        with pytest.raises(NumericInputError, match="gradient norm is inf at epoch 1, batch 2$"):
            fit(model, tiny_windows(), tiny_fit_config())
        for (name, now), before in zip(model.state_arrays(), planted["weights"]):
            assert np.array_equal(now, before), name

    def test_default_step_records_few_tape_nodes(self):
        model = RulModel(n_features=24, window=30, init_rng=np.random.default_rng(0))
        assert (model.mode, model.feature_heads, model.sequence_heads) == ("F+T", 5, 4)
        rng = np.random.default_rng(1)
        xb = Tensor(rng.standard_normal((4, 24, 30)).astype(np.float32))
        yb = Tensor(rng.uniform(0.0, 125.0, 4).astype(np.float32))
        with Tape() as tape:
            loss = mse_loss(model.forward(xb, training=True, dropout_rng=rng), yb)
        assert len(tape) <= 20
        tape.backward(loss)
        assert all(p.grad is not None for _, p in model.parameters())

    @pytest.mark.parametrize("mode, nodes", [("L", 3), ("A", 4), ("F", 4), ("F+T", 5)])
    def test_step_records_one_node_per_block(self, mode, nodes):
        # Each attention block, the LSTM, the head with its dropout mask,
        # and the loss.
        model, rng = build_tiny_model(mode=mode, dtype=np.float32, dropout=0.5)
        xb = Tensor(rng.standard_normal((3, 4, 6)).astype(np.float32))
        yb = Tensor(rng.standard_normal(3).astype(np.float32))
        with Tape() as tape:
            mse_loss(model.forward(xb, training=True, dropout_rng=rng), yb)
        assert len(tape) == nodes

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc's malloc")
    def test_steps_reuse_freed_memory(self):
        # Each paper-size step frees tens of MB; handing that back to the
        # kernel costs thousands of page faults in the next step.
        resource = pytest.importorskip("resource")
        model = RulModel(n_features=24, window=30, init_rng=np.random.default_rng(0))
        params = [p for _, p in model.parameters()]
        state = AdamState(params)
        rng = np.random.default_rng(1)
        xb = Tensor(rng.standard_normal((128, 24, 30)).astype(np.float32))
        yb = Tensor(rng.uniform(0.0, 125.0, 128).astype(np.float32))
        _keep_freed_memory()
        faults = []
        for _ in range(5):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            with Tape() as tape:
                loss = mse_loss(model.forward(xb, training=True, dropout_rng=rng), yb)
            tape.backward(loss)
            adam_step(params, state, 1e-4)
            model.zero_grad()
            del tape, loss
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        assert max(faults[2:]) < 500, faults

    def test_step_graph_freed_without_collector(self):
        model, rng = build_tiny_model(dtype=np.float32, dropout=0.5)
        params = [p for _, p in model.parameters()]
        state = AdamState(params)

        def step():
            xb = Tensor(rng.standard_normal((3, 4, 6)).astype(np.float32))
            yb = Tensor(rng.standard_normal(3).astype(np.float32))
            with Tape() as tape:
                loss = mse_loss(model.forward(xb, training=True, dropout_rng=rng), yb)
            tape.backward(loss)
            adam_step(params, state, 0.01)
            model.zero_grad()
            return weakref.ref(tape)

        was_enabled = gc.isenabled()
        gc.disable()
        try:
            tape_ref = step()
            assert tape_ref() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_validation_runs_with_every_training_tape_freed(self, monkeypatch):
        # A batch's tape holds its activations.  fit lets it go when its
        # backward returns, so none is alive under the epoch's validation
        # forward.  The garbage collector is off: each must go when its last
        # reference does.
        tapes, alive_at_validation = [], []

        def recording_tape():
            tape = ad.Tape()
            tapes.append(weakref.ref(tape))
            return tape

        def checking_validation(*args):
            alive_at_validation.append(sum(ref() is not None for ref in tapes))
            return predict_batched(*args)

        predict_batched = training.predict_batched
        monkeypatch.setattr(training, "Tape", recording_tape)
        monkeypatch.setattr(training, "predict_batched", checking_validation)
        model, _ = build_tiny_model(seed=1, dtype=np.float32, dropout=0.5)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            fit(model, tiny_windows(), tiny_fit_config(max_epochs=2))
        finally:
            if was_enabled:
                gc.enable()
        assert len(tapes) == 6  # 3 batches in each of 2 epochs
        assert alive_at_validation == [0, 0]

    def test_fit_copies_no_windows(self):
        # 20 units of 180 windows each, half of them held out.  Batches and
        # validation chunks are gathered from the view by row, so fit's heap
        # peak is one batch's and one validation chunk's activations; a copy
        # of the held-out windows alone would be half the windows' size.
        rng = np.random.default_rng(0)
        trajs = [RawTrajectory(unit_id=u, channels=rng.standard_normal((209, 24))) for u in range(1, 21)]
        windows = window_arrays(trajs, 30, 125.0)
        assert len(windows.y) == 3600
        # The windows' own size: a sliding view's nbytes counts every entry.
        windows_nbytes = len(windows.y) * 24 * 30 * windows.x.itemsize
        model = RulModel(n_features=24, window=30, mode="L", feature_heads=1, sequence_heads=1,
                         lstm_hidden=4, lstm_layers=1, mlp_hidden=4, dropout=0.0,
                         init_rng=np.random.default_rng(1))
        config = ExperimentConfig(window=30, max_epochs=1, batch_size=32, validation_fraction=0.5, seeds=[0])
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            fit(model, windows, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < 0.4 * windows_nbytes, (peak - start) / windows_nbytes

    def test_leaves_its_windows_as_they_were(self):
        # The runs of one sweep value all train on one Windows, which
        # window_arrays builds as a view over the trajectories.
        rng = np.random.default_rng(0)
        trajs = [RawTrajectory(unit_id=u, channels=rng.standard_normal((24, 4))) for u in range(1, 7)]
        for windows in (stacked(tiny_windows()), window_arrays(trajs, 6, 20.0)):
            before = [a.copy() for a in windows]
            model, _ = build_tiny_model(seed=3, dtype=np.float32, dropout=0.5)
            fit(model, windows, tiny_fit_config(max_epochs=2))
            for name, after, kept in zip(windows._fields, windows, before):
                assert (after.dtype, after.shape, after.tobytes()) == (kept.dtype, kept.shape, kept.tobytes()), name

    def test_unit_level_leakage_guard(self):
        model, _ = build_tiny_model(seed=5, dtype=np.float32)
        result = fit(model, tiny_windows(), tiny_fit_config(max_epochs=1))
        assert not set(result.train_units) & set(result.val_units)

    def test_epoch_touches_every_window_once(self):
        # The batch partition property, checked on the shuffled index math
        # the loop uses: consecutive batch_size slices of one permutation.
        rng = np.random.default_rng(0)
        order = rng.permutation(100)
        batches = [order[s : s + 32] for s in range(0, 100, 32)]
        seen = np.concatenate(batches)
        assert len(seen) == 100
        assert sorted(seen.tolist()) == list(range(100))


# A frozen trained model.  It was made by `rulnet train` on the v1_dataset
# files below with `--seed 2 --window 6 --feature-heads 2 --sequence-heads 2
# --lstm-hidden 4 --lstm-layers 1 --mlp-hidden 4 --max-epochs 8 --dropout 0
# --learning-rate 0.01 --batch-size 32` under bundle version 1, its config's
# data paths then blanked, and re-saved as version 2 by loading it and
# calling `save_bundle(path, b.model, b.condition_model, <its header's
# config>)`: every tensor kept its bytes.
BUNDLE_V2 = Path(__file__).parent / "fixtures" / "bundle_v2.bin"

# sha256 of what `evaluate`, and `explain --unit 2 --matrix-cycles 1,7`, write
# on that bundle and the v1_dataset test files, with numpy 2.4 on OpenBLAS
# (x86-64, one thread); another BLAS build may round the float32 products
# differently.  They are those of the one-GEMM LSTM step and the key-outer
# softmax (max, exp, a sum in key order, a multiply by its reciprocal), which
# move the predictions and weights in their float32 low bits against the code
# that wrote the bundle.  The two attention CSVs use the nine-significant-digit
# format; the code that wrote the bundle printed the weights with repr.
V1_DIGESTS = {
    "eval/metrics.json": "5c68a889cf73c156d4201fca6b763c0b435a48bb6f3bcaab01c46c3ffdb24f03",
    "eval/predictions.csv": "1b251a0639eb7b4a92a7d2a90582ef8aa469bf37e7f99bee2cd2796f264bec5c",
    "explain/attention_cycle_sums.csv":
        "99dbc534456e0631949e583ccfb71770f9b5ab3c5cbe53f652cd69315dad910a",
    "explain/attention_feature.csv":
        "c4bd044bd502ac5e5b0c1e15d7976271626f2b34422fd5af6071a8fee12d3024",
    "explain/predictions.csv": "d97f3ae84177a0d56948f2348960178ac0e365d320c303686fb3ec23aad360f1",
}


def v1_dataset(root):
    return generate_dataset(root, name="V1", n_train=6, n_test=3, n_conditions=1, seed=11)


# sha256 of the three files v1_dataset writes.
V1_DATASET_DIGESTS = {
    "train_V1.txt": "07df515d0aac41b8ab82e81776594f0850e8e196372c7a10c9ec9776f7be6fb3",
    "test_V1.txt": "d28487af123f47c838dee3df17d6621c4fcaf22370a507cc2f62dd60375572e4",
    "RUL_V1.txt": "440c63591ce52899bdfeea58cfb62f42f887d8d0974d917fa5971720fbe5a087",
}


def test_dataset_keeps_its_bytes(tmp_path):
    v1_dataset(tmp_path)
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.iterdir()}
    assert digests == V1_DATASET_DIGESTS


# sha256 of what `rulnet train` writes with TRAIN_FLAGS on the v1_dataset
# files, run from their parent directory so the bundle's config records the
# same relative paths on every host.  Each epoch's validation RMSE comes
# from an untaped forward, so the log pins inference as well as the taped
# training step.  Recorded with numpy 2.4 on OpenBLAS (x86-64, one thread);
# as with V1_DIGESTS, another BLAS build may round the float32 products
# differently.
TRAIN_FLAGS = ["--seed", "2", "--mode", "F+T", "--window", "6", "--feature-heads", "2",
               "--sequence-heads", "2", "--lstm-hidden", "4", "--lstm-layers", "2",
               "--mlp-hidden", "4", "--max-epochs", "3", "--learning-rate", "0.01",
               "--batch-size", "32"]
TRAIN_DIGESTS = {
    "checkpoint.bin": "c7e20d016e1c903ae3ccd9d89bc78e899e4e7c4d08fdbcd66eeda8e4dfdd2b3c",
    "training_log.csv": "24d72640a21279126e065b2c431dd9a011ece65749d5cd54e9342f3704b78d4a",
    "resolved_config.json": "3de206013689b14fec7c6611fa0de582e059715c586285d15df8b118a8de10ec",
}
# What `rulnet preprocess` writes with the same flags and files.  The
# summary's digest was recorded from the summary without `test_units`.
PREPROCESS_DIGESTS = {
    "condition_model.json": "e070619371a67939ae40dc70e200ddfc6d3f08f1a9ed1d540f54d46bd9f13d1f",
    "preprocess_summary.json": "7d8dc978ccd0b0a5a5ba153361fd5d9e6341927f1fe06d2de670bbd4629412a7",
}


def run_digests(tmp_path, monkeypatch, command, names, flags=TRAIN_FLAGS):
    """sha256 of the named files that ``rulnet <command>`` writes with
    ``flags`` on the v1_dataset files, run from their parent directory
    ``tmp_path``."""
    monkeypatch.chdir(tmp_path)
    ds = v1_dataset(Path("data"))
    paths = ["--train-path", str(ds.train_path), "--test-path", str(ds.test_path),
             "--truth-path", str(ds.truth_path), "--k-conditions", "1"]
    assert main([command, "--out", "run", *paths, *flags]) == 0
    return {name: hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest()
            for name in names}


def test_training_keeps_its_bytes(tmp_path, monkeypatch):
    assert run_digests(tmp_path, monkeypatch, "train", TRAIN_DIGESTS) == TRAIN_DIGESTS


def test_preprocess_keeps_its_bytes(tmp_path, monkeypatch):
    assert run_digests(tmp_path, monkeypatch, "preprocess", PREPROCESS_DIGESTS) == PREPROCESS_DIGESTS


# Window 1: the LSTM's recurrent weights act on no step, so their gradient
# is zero and Adam leaves them at their initial draw.  What `rulnet train`
# writes with these flags, recorded as TRAIN_DIGESTS is.
WINDOW1_FLAGS = ["--seed", "2", "--window", "1", "--feature-heads", "1", "--lstm-hidden", "4",
                 "--lstm-layers", "2", "--mlp-hidden", "4", "--max-epochs", "3",
                 "--learning-rate", "0.01", "--batch-size", "32"]
WINDOW1_DIGESTS = {
    "checkpoint.bin": "a42e95e48adf1cda534da296cb4c12e2b0be16a783539f8c6989c0fb3885c7bb",
    "training_log.csv": "50e0a856dbbc3a0e0fbee80881db2554d3e851aa45ba2860b32c1766960502ea",
}


def test_window_1_training_keeps_the_recurrent_weights_and_its_bytes(tmp_path, monkeypatch):
    digests = run_digests(tmp_path, monkeypatch, "train", WINDOW1_DIGESTS, WINDOW1_FLAGS)
    assert digests == WINDOW1_DIGESTS
    bundle = load_bundle(tmp_path / "run" / "checkpoint.bin")
    drawn = RulModel(**bundle.config.model_kwargs(), init_rng=generator(2, "init"))
    for name, p in bundle.model.parameters():
        assert np.array_equal(p.data, drawn.params[name].data) == name.endswith(".wh"), name


class TestBundleV1:
    """The frozen bundle, run on the V1 data set: inference output pinned
    apart from training."""

    def test_evaluate_and_explain_keep_their_bytes(self, tmp_path):
        ds = v1_dataset(tmp_path / "data")
        paths = ["--test-path", str(ds.test_path), "--truth-path", str(ds.truth_path)]
        assert main(["evaluate", "--checkpoint", str(BUNDLE_V2),
                     "--out", str(tmp_path / "eval"), *paths]) == 0
        assert main(["explain", "--checkpoint", str(BUNDLE_V2), "--unit", "2",
                     "--matrix-cycles", "1,7", "--out", str(tmp_path / "explain"), *paths]) == 0
        digests = {
            f"{d}/{f.name}": hashlib.sha256(f.read_bytes()).hexdigest()
            for d in ("eval", "explain") for f in (tmp_path / d).iterdir()
        }
        assert digests == V1_DIGESTS


class TestCheckpoint:
    @staticmethod
    def _bundle_parts():
        model, rng = build_tiny_model(seed=6, dtype=np.float32)
        cm = ConditionModel(
            centroids=rng.standard_normal((2, 3)),
            means=rng.standard_normal((2, 24)),
            stds=np.abs(rng.standard_normal((2, 24))) + 0.5,
        )
        # The model's own sizes: a loaded config must agree with the model
        # on every model field it lists.
        config = {"window": 6, "r_max": 20.0, "mode": "F+T", "clip_test_rul": True,
                  "feature_heads": 2, "sequence_heads": 2, "lstm_hidden": 8, "lstm_layers": 3,
                  "mlp_hidden": 8, "dropout": 0.0}
        return model, cm, config, rng

    def test_round_trip_bit_identical_predictions(self, tmp_path):
        model, cm, config, rng = self._bundle_parts()
        x = rng.standard_normal((4, 6)).astype(np.float32)
        before = model.predict(x)
        path = tmp_path / "bundle.bin"
        save_bundle(path, model, cm, config)
        loaded = load_bundle(path)
        assert np.array_equal(loaded.model.predict(x), before)
        np.testing.assert_array_equal(loaded.condition_model.centroids, cm.centroids)
        np.testing.assert_array_equal(loaded.condition_model.stds, cm.stds)
        assert loaded.config == ExperimentConfig(**config)

    def test_loading_draws_nothing(self, tmp_path, monkeypatch):
        model, cm, config, _ = self._bundle_parts()
        path = tmp_path / "bundle.bin"
        save_bundle(path, model, cm, config)

        def no_draws(*args):
            raise AssertionError("a loaded model drew a parameter")
        monkeypatch.setattr("rulnet.model._init", no_draws)
        loaded = load_bundle(path).model
        for (name, arr), (_, copy) in zip(model.state_arrays(), loaded.state_arrays()):
            assert copy.dtype == arr.dtype and copy.tobytes() == arr.tobytes(), name

    def test_truncated_file_rejected(self, tmp_path):
        model, cm, config, _ = self._bundle_parts()
        path = tmp_path / "bundle.bin"
        save_bundle(path, model, cm, config)
        blob = path.read_bytes()
        for cut in (4, 15, len(blob) // 2, len(blob) - 3):
            trimmed = tmp_path / f"cut{cut}.bin"
            trimmed.write_bytes(blob[:cut])
            with pytest.raises(CheckpointError):
                load_bundle(trimmed)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTRIGHT" + b"\x00" * 64)
        with pytest.raises(CheckpointError):
            load_bundle(path)

    def test_wrong_version_rejected(self, tmp_path):
        model, cm, config, _ = self._bundle_parts()
        path = tmp_path / "bundle.bin"
        save_bundle(path, model, cm, config)
        blob = path.read_bytes()
        for version in (0, 1, 3, 99):  # 1 included: a version-2 table labelled 1 is not read
            path.write_bytes(blob[:8] + struct.pack("<I", version) + blob[12:])
            with pytest.raises(CheckpointError, match=f"unsupported bundle version {version}$"):
                load_bundle(path)

    @staticmethod
    def _with_header(blob, edit):
        """The bundle with its JSON header passed through ``edit``."""
        (header_len,) = struct.unpack_from("<Q", blob, 12)
        header = json.loads(blob[20 : 20 + header_len])
        edit(header)
        text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        return blob[:12] + struct.pack("<Q", len(text)) + text + blob[20 + header_len :]

    @staticmethod
    def _set_first_tensor(key, value):
        def edit(header):
            header["tensors"][0][key] = value
        return edit

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda h: h.pop("tensors"), id="no-tensors"),
            pytest.param(lambda h: h.pop("condition_model"), id="no-condition-model"),
            pytest.param(lambda h: h.update(hyperparams=[]), id="hyperparams-list"),
            pytest.param(lambda h: h["hyperparams"].update(heads=2), id="unknown-hyperparam"),
            pytest.param(lambda h: h["hyperparams"].update(lstm_hidden="8"), id="text-hyperparam"),
            pytest.param(lambda h: h["hyperparams"].update(lstm_hidden=9), id="shape-mismatch"),
            pytest.param(lambda h: h["hyperparams"].update(mlp_hidden=0), id="zero-width"),
            # Sizes far over the model's caps, which are checked before
            # anything is allocated.
            pytest.param(lambda h: h["hyperparams"].update(lstm_hidden=10**13), id="unbuildable-width"),
            pytest.param(lambda h: h["hyperparams"].update(lstm_layers=10**12), id="unbuildable-depth"),
            pytest.param(lambda h: h["hyperparams"].update(window=10**12), id="unbuildable-window"),
            pytest.param(lambda h: h["hyperparams"].update(window=True), id="bool-window"),
            pytest.param(lambda h: h["hyperparams"].update(feature_heads=2.0), id="float-heads"),
            pytest.param(lambda h: h["hyperparams"].update(batch_size=1), id="batch-size-hyperparam"),
            # Left out, it would take the model's default, which no tensor shape shows.
            pytest.param(lambda h: h["hyperparams"].pop("sequence_heads"), id="missing-heads"),
            pytest.param(lambda h: h["hyperparams"].update(init_rng=None), id="init-rng-hyperparam"),
            pytest.param(lambda h: h["hyperparams"].update(arrays={}), id="arrays-hyperparam"),
            pytest.param(lambda h: h["hyperparams"].pop("dtype"), id="missing-model-dtype"),
            pytest.param(lambda h: h["hyperparams"].update(dtype="<f$"), id="unparsable-model-dtype"),
            pytest.param(lambda h: h["hyperparams"].update(dtype="<i4"), id="integer-model"),
            pytest.param(lambda h: h["condition_model"].update(means=[[0.0] * 24]),
                         id="condition-rows"),
            pytest.param(lambda h: h["condition_model"].update(stds="wide"), id="condition-text"),
            pytest.param(lambda h: h["condition_model"]["stds"][0].__setitem__(0, -1.0),
                         id="condition-negative-std"),
            # Read, r_max -3 would clip every true RUL to -3.
            pytest.param(lambda h: h["config"].update(r_max=-3.0), id="negative-r-max"),
            pytest.param(lambda h: h["config"].update(batch_size=0), id="zero-batch-size"),
            pytest.param(lambda h: h["tensors"][0].pop("dtype"), id="no-dtype"),
            pytest.param(lambda h: h.update(tensors=[None] + h["tensors"]), id="null-entry"),
            pytest.param(_set_first_tensor("dtype", "<f5"), id="unknown-dtype"),
            pytest.param(_set_first_tensor("dtype", "<f$"), id="unparsable-dtype"),
            pytest.param(_set_first_tensor("dtype", "<i4"), id="integer-dtype"),
            pytest.param(_set_first_tensor("dtype", {"names": ["a"], "formats": ["<f4"]}),
                         id="record-dtype"),
            pytest.param(_set_first_tensor("shape", [-1, 4]), id="negative-shape"),
            pytest.param(_set_first_tensor("shape", "4"), id="text-shape"),
            pytest.param(_set_first_tensor("shape", [2.5, 4]), id="float-shape"),
            pytest.param(lambda h: h["tensors"].insert(0, {"name": "empty", "shape": [2**70, 0],
                         "dtype": "<f4", "offset": 0, "nbytes": 0}), id="unrepresentable-shape"),
            pytest.param(_set_first_tensor("nbytes", 0), id="nbytes-mismatch"),
            pytest.param(_set_first_tensor("offset", 4), id="offset-gap"),
            pytest.param(_set_first_tensor("name", 7), id="numeric-name"),
        ],
    )
    def test_bad_header_schema_names_the_path(self, tmp_path, edit):
        model, cm, config, _ = self._bundle_parts()
        path = tmp_path / "bundle.bin"
        save_bundle(path, model, cm, config)
        path.write_bytes(self._with_header(path.read_bytes(), edit))
        with pytest.raises(CheckpointError, match=re.escape(str(path))):
            load_bundle(path)

    @pytest.mark.parametrize("name, message", [
        ("bogus.extra", "unknown parameters ['bogus.extra']"),
        ("fa.wqkv", "repeated tensor name 'fa.wqkv'"),
    ], ids=["unknown", "repeated"])
    def test_extra_tensor_names_the_path(self, tmp_path, name, message):
        model, cm, config, _ = self._bundle_parts()
        path = tmp_path / "bundle.bin"
        save_bundle(path, model, cm, config)
        path.write_bytes(with_extra_tensor(path.read_bytes(), name))
        with pytest.raises(CheckpointError, match=re.escape(str(path))) as err:
            load_bundle(path)
        assert message in str(err.value)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_tensor_is_named(self, tmp_path, value):
        model, cm, config, _ = self._bundle_parts()
        model.params["head.w2"].data[-1, 0] = value
        model.params["head.b2"].data[0] = np.nan  # later in the table, so not the one named
        path = tmp_path / "bundle.bin"
        save_bundle(path, model, cm, config)
        with pytest.raises(CheckpointError) as err:
            load_bundle(path)
        assert str(err.value) == f"{path}: tensor 'head.w2' holds a NaN or an infinity"

    def test_trailing_bytes_rejected(self, tmp_path):
        model, cm, config, _ = self._bundle_parts()
        path = tmp_path / "bundle.bin"
        save_bundle(path, model, cm, config)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointError, match="1 bytes after the last tensor"):
            load_bundle(path)

    @given(damage=st.one_of(
        st.tuples(st.just("cut"), st.floats(0.0, 1.0, exclude_max=True)),
        st.tuples(st.just("flip"), st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 7)),
        st.tuples(st.just("flip-header"), st.floats(0.0, 1.0, exclude_max=True),
                  st.integers(0, 7)),
        st.tuples(st.just("append"), st.binary(min_size=1, max_size=8)),
    ))
    @settings(max_examples=300, deadline=None)
    def test_damaged_bundle_loads_or_raises_rulnet_error(self, tmp_path_factory, damage):
        path = tmp_path_factory.mktemp("bundle") / "bundle.bin"
        model, cm, config, _ = self._bundle_parts()
        save_bundle(path, model, cm, config)
        blob = bytearray(path.read_bytes())
        (header_len,) = struct.unpack_from("<Q", blob, 12)
        kind = damage[0]
        if kind == "cut":
            blob = blob[: int(damage[1] * len(blob))]
        elif kind == "append":
            blob += damage[1]
        else:
            span = len(blob) if kind == "flip" else 20 + header_len
            blob[int(damage[1] * span)] ^= 1 << damage[2]
        path.write_bytes(bytes(blob))
        try:
            load_bundle(path)
        except RulnetError:
            return
        # Only a flip can leave a loadable bundle: a shorter or longer
        # file never is one.
        assert kind.startswith("flip")

    @pytest.mark.parametrize("edit, name", [
        ({"window": 12}, "window"),
        ({"mode": "F"}, "mode"),
        ({"feature_heads": 3}, "feature_heads"),
        ({"sequence_heads": 3}, "sequence_heads"),
        ({"lstm_hidden": 9}, "lstm_hidden"),
        ({"lstm_layers": 2}, "lstm_layers"),
        ({"mlp_hidden": 9}, "mlp_hidden"),
        ({"dropout": 0.5}, "dropout"),
        ({"feature_heads": 0}, "mode"),  # no feature block leaves mode L
        ({"lstm_hidden": 9, "window": 12}, "window"),  # the first field in model_kwargs order
    ], ids=["window", "mode", "feature-heads", "sequence-heads", "lstm-hidden", "lstm-layers",
            "mlp-hidden", "dropout", "no-feature-block", "first-of-two"])
    def test_config_that_is_not_the_model_is_named(self, tmp_path, edit, name):
        model, cm, config, _ = self._bundle_parts()
        path = tmp_path / "bundle.bin"
        save_bundle(path, model, cm, dict(config, **edit))
        with pytest.raises(CheckpointError, match=re.escape(f"{path}: config {name} is ")):
            load_bundle(path)

    @pytest.mark.parametrize("mode, config", [
        # The default 5 and 4 heads build no block in mode L, nor do the model's 1 and 1.
        ("L", {"window": 6, "mode": "L", "feature_heads": 5, "sequence_heads": 4}),
        ("A", {"window": 6, "mode": "A", "feature_heads": 2, "sequence_heads": 2}),
        # Model fields the config leaves out are not compared.
        ("F+T", {"r_max": 20.0}),
        ("F+T", {"window": 6, "mode": "F+T", "feature_heads": 2}),
    ], ids=["L-default-heads", "A-two-heads", "no-model-fields", "sequence-heads-left-out"])
    def test_config_agreeing_after_resolution_loads(self, tmp_path, mode, config):
        model = build_tiny_model(seed=6, mode=mode, dtype=np.float32)[0]
        path = tmp_path / "bundle.bin"
        save_bundle(path, model, self._bundle_parts()[1], config)
        assert load_bundle(path).model.mode == mode

    def test_records_window_and_r_max(self, tmp_path):
        model, cm, config, _ = self._bundle_parts()
        path = tmp_path / "bundle.bin"
        save_bundle(path, model, cm, config)
        bundle = load_bundle(path)
        assert bundle.model.window == 6
        assert bundle.config.r_max == 20.0
