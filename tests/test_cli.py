import collections
import csv
import dataclasses
import gc
import hashlib
import json
import os
import struct
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from conftest import with_extra_tensor
from rulnet import BLAS_THREAD_VARS, __version__, cli, training
from rulnet.checkpoint import load_bundle, save_bundle
from rulnet.cli import build_parser, main
from rulnet.config import KINDS, ExperimentConfig
from rulnet.data import cluster_conditions, parse_cmapss, parse_rul_truth
from rulnet.synthetic import generate_dataset

FAST_FLAGS = [
    "--window", "10",
    "--feature-heads", "2",
    "--sequence-heads", "4",
    "--lstm-hidden", "12",
    "--lstm-layers", "2",
    "--mlp-hidden", "12",
    "--max-epochs", "2",
    "--batch-size", "64",
    "--learning-rate", "0.005",
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    generate_dataset(root, name="CLI", n_train=8, n_test=4, n_conditions=1, seed=2)
    config = {
        "train_path": str(root / "train_CLI.txt"),
        "test_path": str(root / "test_CLI.txt"),
        "truth_path": str(root / "RUL_CLI.txt"),
        "k_conditions": 1,
        "out_dir": str(root / "runs"),
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config))
    rows = Path(config["train_path"]).read_text().splitlines(keepends=True)
    one_unit = root / "one_unit.txt"
    one_unit.write_text("".join(row for row in rows if row.split()[0] == "1"))
    return {"root": root, "config": config_path, "raw": config, "one_unit": one_unit}


@pytest.fixture(scope="module")
def trained(workspace):
    out = workspace["root"] / "trained"
    code = main(
        ["train", "--config", str(workspace["config"]), "--out", str(out), "--seed", "3"]
        + FAST_FLAGS
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def mode_l(workspace):
    out = workspace["root"] / "mode_l"
    code = main(
        ["train", "--config", str(workspace["config"]), "--out", str(out), "--seed", "3",
         "--mode", "L"] + FAST_FLAGS
    )
    assert code == 0
    return out


def overflowing_train(workspace, tmp_path):
    """The workspace's train file with two finite readings whose sum
    overflows a condition's mean."""
    rows = Path(workspace["raw"]["train_path"]).read_text().splitlines()
    for row in (5, 6):
        fields = rows[row].split()
        fields[9] = "1e308"  # sensor 4, channel 7
        rows[row] = " ".join(fields)
    path = tmp_path / "train_overflow.txt"
    path.write_text("\n".join(rows) + "\n")
    return path


def bundle_header(path):
    blob = Path(path).read_bytes()
    (header_len,) = struct.unpack_from("<Q", blob, 12)
    return json.loads(blob[20 : 20 + header_len])


class TestPreprocess:
    def test_writes_artifacts_and_summary(self, workspace, capsys):
        out = workspace["root"] / "prep"
        code = main(
            ["preprocess", "--config", str(workspace["config"]), "--out", str(out), "--window", "10"]
        )
        assert code == 0
        summary = json.loads((out / "preprocess_summary.json").read_text())
        assert summary["train_units"] == 8
        assert summary["conditions"] == 1
        assert (out / "condition_model.json").exists()
        assert (out / "windows_train.txt").exists()

    def test_skip_windows_flag(self, workspace, monkeypatch):
        argv = ["preprocess", "--config", str(workspace["config"]), "--window", "10"]
        full = workspace["root"] / "prep_full"
        assert main([*argv, "--out", str(full)]) == 0

        def no_windows(*args):
            raise AssertionError("--skip-windows built windows")

        monkeypatch.setattr(cli, "write_windows", no_windows)
        out = workspace["root"] / "prep_skip"
        assert main([*argv, "--out", str(out), "--skip-windows"]) == 0
        assert not (out / "windows_train.txt").exists()
        for name in ("preprocess_summary.json", "condition_model.json"):
            assert (out / name).read_bytes() == (full / name).read_bytes()

    def test_overflowing_readings_are_data_error(self, workspace, tmp_path, capsys):
        out = tmp_path / "prep"
        code = main(
            ["preprocess", "--config", str(workspace["config"]), "--out", str(out),
             "--window", "10", "--train-path", str(overflowing_train(workspace, tmp_path))]
        )
        assert code == 2
        assert "condition 0, channel 7: " in capsys.readouterr().err
        assert not out.exists()

    def test_one_unit_train_file_is_accepted(self, workspace, tmp_path):
        # Preprocess fits nothing, so it needs no validation unit.
        out = tmp_path / "prep"
        assert main(["preprocess", "--config", str(workspace["config"]), "--out", str(out),
                     "--window", "10", "--train-path", str(workspace["one_unit"])]) == 0
        assert json.loads((out / "preprocess_summary.json").read_text())["train_units"] == 1

    def test_windows_file_bytes_are_stable(self, tmp_path):
        # Two conditions; unit 3 (13 cycles) is shorter than the window and
        # unit 1 (15 cycles) exactly fills it.  The digest was recorded from
        # the writer that formats every cell of every window.
        ds = generate_dataset(tmp_path, name="G", n_train=4, n_test=2, n_conditions=2,
                              seed=1, life_range=(12, 24))
        out = tmp_path / "out"
        code = main(
            ["preprocess", "--train-path", str(ds.train_path), "--test-path", str(ds.test_path),
             "--truth-path", str(ds.truth_path), "--k-conditions", "2", "--window", "15",
             "--seed", "0", "--out", str(out)]
        )
        assert code == 0
        summary = json.loads((out / "preprocess_summary.json").read_text())
        assert summary["train_samples"] == 1 + 4 + 1 + 4
        digest = hashlib.sha256((out / "windows_train.txt").read_bytes()).hexdigest()
        assert digest == "bb9004e6ecb13e918a557f610d1972eb62d8500c5bf95344935fb36b42a9faa6"

    def test_six_regime_windows_file_bytes_are_stable(self, tmp_path):
        # The benchmark's shape at small size: six regimes, window 30, and
        # train units of 26-29 (below the window), 30 (at it) and 34 cycles
        # (above it).  The digest was recorded from the writer that reused
        # each window's text for the next one.
        ds = generate_dataset(tmp_path, name="S", n_train=8, n_test=3, n_conditions=6,
                              seed=1, life_range=(26, 36))
        out = tmp_path / "out"
        code = main(
            ["preprocess", "--train-path", str(ds.train_path), "--test-path", str(ds.test_path),
             "--truth-path", str(ds.truth_path), "--k-conditions", "6", "--window", "30",
             "--seed", "0", "--out", str(out)]
        )
        assert code == 0
        summary = json.loads((out / "preprocess_summary.json").read_text())
        assert summary["train_samples"] == 5 * 1 + 1 + 2 * 5
        digest = hashlib.sha256((out / "windows_train.txt").read_bytes()).hexdigest()
        assert digest == "a6166b4991c84d40964d761a0d3fbced6b106228742c1c6d24edb367ff2cfd5c"

    def test_benchmark_windows_file_bytes_are_stable(self, tmp_path):
        # The preprocess-6cond benchmark's seed-1 set at full size, with
        # paper defaults: 13,211 windows, a 105 MB file.
        ds = generate_dataset(tmp_path, name="W6", n_train=100, n_test=100, n_conditions=6, seed=1)
        out = tmp_path / "out"
        assert main(["preprocess", "--train-path", str(ds.train_path), "--k-conditions", "6",
                     "--seed", "1", "--out", str(out)]) == 0
        path = out / "windows_train.txt"
        with open(path, "rb") as fh:
            digest = hashlib.file_digest(fh, "sha256").hexdigest()
        path.unlink()
        assert digest == "92c3b1983f001ff9f2416f136ba3451c2d35f6065546af5e8b81426f62a2a950"

    def test_condition_model_export_is_the_bundle_header_object(self, workspace, trained,
                                                                 tmp_path):
        out = tmp_path / "prep"
        assert main(["preprocess", "--config", str(workspace["config"]), "--out", str(out),
                     "--seed", "3", "--skip-windows"] + FAST_FLAGS) == 0
        exported = json.loads((out / "condition_model.json").read_text(encoding="utf-8"))
        assert exported == bundle_header(trained / "checkpoint.bin")["condition_model"]

    def test_condition_model_does_not_depend_on_the_seed(self, tmp_path):
        ds = generate_dataset(tmp_path, name="S", n_train=8, n_test=3, n_conditions=6,
                              seed=1, life_range=(26, 36))
        # k-means started from seeds 0 and 3 orders this set's conditions differently.
        train = parse_cmapss(ds.train_path)
        assert not np.array_equal(cluster_conditions(train, 6, seed=0).centroids,
                                  cluster_conditions(train, 6, seed=3).centroids)
        argv = ["--train-path", str(ds.train_path), "--test-path", str(ds.test_path),
                "--truth-path", str(ds.truth_path), "--k-conditions", "6"]
        prep, run = tmp_path / "prep", tmp_path / "run"
        assert main(["preprocess", *argv, "--seed", "0", "--skip-windows", "--out", str(prep)]) == 0
        assert main(["train", *argv, "--seed", "3", "--out", str(run)] + FAST_FLAGS) == 0
        exported = json.loads((prep / "condition_model.json").read_text(encoding="utf-8"))
        assert exported == bundle_header(run / "checkpoint.bin")["condition_model"]

    @pytest.mark.parametrize("corrupt", [(), ("windows_train.txt",), ("condition_model.json",),
                                         ("windows_train.txt", "condition_model.json")],
                             ids=["exports", "windows", "condition-model", "both"])
    def test_train_ignores_preprocess_exports(self, workspace, tmp_path, corrupt):
        # The exports of a preprocess with another r_max, whole or corrupt,
        # must leave train's exit code and log as in an empty directory.
        def train(out):
            code = main(
                ["train", "--config", str(workspace["config"]), "--out", str(out), "--seed", "3",
                 "--r-max", "20"] + FAST_FLAGS
            )
            return code, (out / "training_log.csv").read_bytes()

        prep = tmp_path / "prep"
        assert main(
            ["preprocess", "--config", str(workspace["config"]), "--out", str(prep),
             "--window", "10", "--r-max", "125"]
        ) == 0
        for name in corrupt:
            (prep / name).write_text("not an export\n")
        assert train(prep) == train(tmp_path / "empty")


class TestTrain:
    def test_writes_checkpoint_log_manifest(self, trained):
        assert (trained / "checkpoint.bin").exists()
        log = (trained / "training_log.csv").read_text().splitlines()
        assert log[0] == "epoch,train_loss,val_rmse"
        assert len(log) == 3  # header + 2 epochs
        manifest = json.loads((trained / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert set(manifest["inputs"]) == {"train"}
        resolved = json.loads((trained / "resolved_config.json").read_text())
        assert resolved["seeds"] == [3]

    def test_manifest_records_numeric_environment(self, trained):
        manifest = json.loads((trained / "manifest.json").read_text())
        for key in ("numpy_version", "python_version", "blas_name", "blas_version"):
            assert isinstance(manifest[key], str) and manifest[key], key
        assert manifest["numpy_version"] == np.__version__
        threads = manifest["blas_threads_in_effect"]
        assert threads is None or (isinstance(threads, int) and threads >= 1)

    @pytest.mark.parametrize(
        "entry",
        [
            ["-m", "rulnet"],
            # What the installed `rulnet` console script runs.
            ["-c", "import sys; from rulnet.cli import main; sys.exit(main())"],
        ],
        ids=["python-m-rulnet", "rulnet-command"],
    )
    def test_entry_points_cap_blas_threads(self, workspace, tmp_path, entry):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        out = tmp_path / "run"
        argv = ["train", "--config", str(workspace["config"]), "--out", str(out), "--seed", "3"]
        proc = subprocess.run(
            [sys.executable, *entry, *argv, *FAST_FLAGS],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["blas_threads"] == {var: "1" for var in BLAS_THREAD_VARS}
        assert manifest["blas_threads_in_effect"] in (1, None)

    def test_python_m_rulnet_prints_its_version(self):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        proc = subprocess.run([sys.executable, "-m", "rulnet", "--version"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"rulnet {__version__}\n"

    def test_invalid_head_combination_fails_fast(self, workspace):
        code = main(
            ["train", "--config", str(workspace["config"]), "--out",
             str(workspace["root"] / "badheads"), "--window", "10", "--feature-heads", "3"]
        )
        assert code == 1
        assert not (workspace["root"] / "badheads" / "checkpoint.bin").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--batch-size", "0"), ("--validation-fraction", "1.5"), ("--early-stop-patience", "0"),
        ("--max-epochs", "0"), ("--learning-rate", "-1"), ("--learning-rate", "nan"),
        ("--r-max", "nan"), ("--lstm-hidden", "0"), ("--dropout", "1.0"),
    ])
    def test_bad_training_value_is_config_error_before_any_output(self, workspace, tmp_path,
                                                                    capsys, flag, value):
        out = tmp_path / "run"
        code = main(["train", "--config", str(workspace["config"]), "--out", str(out)]
                    + FAST_FLAGS + [flag, value])
        assert code == 1
        assert "configuration error: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, config", [(["--seeds", "1,2,3"], {}), ([], {"seeds": [1, 2]})],
                             ids=["flag", "config"])
    def test_several_seeds_are_config_error_before_any_read(self, workspace, tmp_path, capsys,
                                                            monkeypatch, flags, config):
        # train runs one seed; it used to train the first and drop the rest.
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({**workspace["raw"], **config}))
        read = []
        monkeypatch.setattr(cli, "parse_cmapss", lambda path: read.append(path))
        monkeypatch.setattr(cli, "parse_rul_truth", lambda path: read.append(path))
        out = tmp_path / "run"
        code = main(["train", "--config", str(config_path), "--out", str(out)] + FAST_FLAGS + flags)
        assert code == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("configuration error: ")
        assert "--seed" in line and "sweep" in line
        assert not read and not out.exists()

    def test_negative_head_count_is_config_error(self, workspace, capsys):
        code = main(
            ["train", "--config", str(workspace["config"]), "--out",
             str(workspace["root"] / "negheads"), "--window", "10", "--feature-heads", "-5"]
        )
        assert code == 1
        assert "feature_heads must be >= 0, got -5" in capsys.readouterr().err

    def test_mode_l_checkpoint_has_no_attention_parameters(self, mode_l):
        bundle = load_bundle(mode_l / "checkpoint.bin")
        names = [n for n, _ in bundle.model.parameters()]
        assert not any(n.startswith(("fa.", "sa.")) for n in names)
        assert bundle.model.mode == "L"

    def test_non_finite_training_loss_is_runtime_error(self, workspace, tmp_path, capsys,
                                                       monkeypatch):
        # A NaN weight below the data layer: mode L never reaches softmax's
        # finiteness check, so only fit's loss guard can stop it.
        real_model = cli.RulModel

        def poisoned_model(*args, **kwargs):
            model = real_model(*args, **kwargs)
            model.params["head.w2"].data[:] = np.nan
            return model

        monkeypatch.setattr(cli, "RulModel", poisoned_model)
        out = tmp_path / "run"
        code = main(
            ["train", "--config", str(workspace["config"]), "--out", str(out), "--seed", "3",
             "--mode", "L"] + FAST_FLAGS
        )
        assert code == 3
        assert "epoch 1, batch 1" in capsys.readouterr().err
        assert not (out / "checkpoint.bin").exists()

    def test_stopped_run_keeps_its_finished_epochs(self, workspace, tmp_path, capsys, monkeypatch):
        # Validation reads inf at epoch 2, after epoch 1 has finished.
        real_predict, calls = training.predict_batched, []

        def inf_at_epoch_2(*args):
            calls.append(None)
            pred = real_predict(*args)
            return pred + np.inf if len(calls) == 2 else pred

        monkeypatch.setattr(training, "predict_batched", inf_at_epoch_2)
        out = tmp_path / "run"
        code = main(["train", "--config", str(workspace["config"]), "--out", str(out)] + FAST_FLAGS)
        assert code == 3
        assert "validation RMSE is inf at epoch 2" in capsys.readouterr().err
        log = (out / "training_log.csv").read_text(encoding="utf-8").splitlines()
        assert log[0] == "epoch,train_loss,val_rmse" and len(log) == 2
        assert log[1].startswith("1,")
        assert not (out / "checkpoint.bin").exists()

    def test_non_finite_reading_is_data_error(self, workspace, tmp_path, capsys):
        rows = Path(workspace["raw"]["train_path"]).read_text().splitlines()
        fields = rows[5].split()
        fields[9] = "nan"
        rows[5] = " ".join(fields)
        train_path = tmp_path / "train_nan.txt"
        train_path.write_text("\n".join(rows) + "\n")
        code = main(
            ["train", "--config", str(workspace["config"]), "--out", str(tmp_path / "run"),
             "--train-path", str(train_path)] + FAST_FLAGS
        )
        assert code == 2
        assert "line 6: non-finite reading 'nan'" in capsys.readouterr().err

    def test_seed_replay_identical_log(self, workspace, trained):
        rerun = workspace["root"] / "trained_replay"
        import shutil

        code = main(
            ["train", "--config", str(workspace["config"]), "--out", str(rerun), "--seed", "3"]
            + FAST_FLAGS
        )
        assert code == 0
        assert (rerun / "training_log.csv").read_text() == (trained / "training_log.csv").read_text()
        shutil.rmtree(rerun)

    def test_resolved_config_reproduces_run(self, workspace, trained):
        # The written config snapshot is enough to replay the run exactly.
        rerun = workspace["root"] / "from_resolved"
        code = main(
            ["train", "--config", str(trained / "resolved_config.json"), "--out", str(rerun)]
        )
        assert code == 0
        assert (rerun / "training_log.csv").read_text() == (trained / "training_log.csv").read_text()
        code = main(["evaluate", "--checkpoint", str(rerun / "checkpoint.bin"),
                     "--out", str(rerun / "eval")])
        assert code == 0
        main(["evaluate", "--checkpoint", str(trained / "checkpoint.bin"),
              "--out", str(trained / "eval_ref")])
        assert (rerun / "eval" / "metrics.json").read_text() == (
            trained / "eval_ref" / "metrics.json"
        ).read_text()


class TestEvaluate:
    def test_writes_metrics_and_predictions(self, workspace, trained):
        out = trained / "eval"
        code = main(["evaluate", "--checkpoint", str(trained / "checkpoint.bin"), "--out", str(out)])
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["n_units"] == 4
        lines = (out / "predictions.csv").read_text().splitlines()
        assert lines[0] == "unit_id,true_rul,pred_rul,error"
        assert len(lines) == 5

    def test_missing_checkpoint_is_data_error(self, workspace):
        code = main(["evaluate", "--checkpoint", str(workspace["root"] / "none.bin")])
        assert code == 2

    def test_unknown_config_key_is_checkpoint_error(self, trained, tmp_path, capsys):
        bundle = load_bundle(trained / "checkpoint.bin")
        checkpoint = tmp_path / "extra_key.bin"
        save_bundle(checkpoint, bundle.model, bundle.condition_model,
                    dict(bundle.config.to_dict(), seed=3))
        out = tmp_path / "out"
        code = main(["evaluate", "--checkpoint", str(checkpoint), "--out", str(out)])
        assert code == 2
        assert f"CheckpointError: {checkpoint}: unknown config keys ['seed']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flags, missing", [
        (["evaluate"], [], "test_path"),
        (["evaluate"], ["--test-path"], "truth_path"),
        (["explain", "--unit", "1"], [], "test_path"),
        (["explain", "--unit", "1"], ["--test-path"], "truth_path"),
    ], ids=["evaluate-test", "evaluate-truth", "explain-test", "explain-truth"])
    def test_bundle_without_data_paths_is_config_error(self, workspace, trained, tmp_path,
                                                       capsys, command, flags, missing):
        bundle = load_bundle(trained / "checkpoint.bin")
        checkpoint = tmp_path / "bare.bin"
        save_bundle(checkpoint, bundle.model, bundle.condition_model, {"window": 10})
        flags = [v for f in flags for v in (f, workspace["raw"]["test_path"])]
        out = tmp_path / "out"
        code = main(command + ["--checkpoint", str(checkpoint), "--out", str(out)] + flags)
        assert code == 1
        assert f"configuration error: no {missing}" in capsys.readouterr().err
        assert not out.exists()


class TestExplain:
    def test_writes_three_surfaces(self, workspace, trained):
        out = trained / "explain"
        code = main(
            ["explain", "--checkpoint", str(trained / "checkpoint.bin"), "--unit", "2",
             "--cycles", "3:6", "--out", str(out)]
        )
        assert code == 0
        feature = (out / "attention_feature.csv").read_text().splitlines()
        assert feature[0] == "cycle,head,row_sensor,col_sensor,weight"
        sums = (out / "attention_cycle_sums.csv").read_text().splitlines()
        assert sums[0] == "cycle,sensor,weight_sum"
        assert len(sums) == 1 + 4 * 24  # 4 cycles x 24 channels
        preds = (out / "predictions.csv").read_text().splitlines()
        assert preds[0] == "unit_id,cycle,true_rul,pred_rul,error"
        assert len(preds) == 5

    def test_default_out_keeps_evaluate_outputs(self, trained, tmp_path):
        # Both commands default to the bundle config's out_dir, the run's.
        bundle = load_bundle(trained / "checkpoint.bin")
        run = tmp_path / "run"
        checkpoint = tmp_path / "checkpoint.bin"
        save_bundle(checkpoint, bundle.model, bundle.condition_model,
                    bundle.config.override(out_dir=str(run)).to_dict())
        assert main(["evaluate", "--checkpoint", str(checkpoint)]) == 0
        names = ("predictions.csv", "metrics.json")
        evaluated = {name: (run / name).read_bytes() for name in names}
        assert main(["explain", "--checkpoint", str(checkpoint), "--unit", "1", "--cycles", "1:2"]) == 0
        assert {name: (run / name).read_bytes() for name in names} == evaluated
        explained = (run / "explain" / "unit=1" / "predictions.csv").read_text().splitlines()
        assert explained[0] == "unit_id,cycle,true_rul,pred_rul,error" and len(explained) == 3

    def test_matrix_rows_sum_to_one(self, workspace, trained):
        out = trained / "explain_sum"
        main(
            ["explain", "--checkpoint", str(trained / "checkpoint.bin"), "--unit", "1",
             "--cycles", "5:5", "--out", str(out)]
        )
        import csv

        sums = {}
        with open(out / "attention_feature.csv") as fh:
            for row in csv.DictReader(fh):
                key = (row["cycle"], row["head"], row["row_sensor"])
                sums[key] = sums.get(key, 0.0) + float(row["weight"])
        assert sums and all(abs(total - 1.0) < 1e-6 for total in sums.values())

    @pytest.mark.parametrize("flag, value", [
        ("--cycles", "5"), ("--cycles", "a:b"), ("--cycles", "0:3"), ("--cycles", "1:L+1"),
        ("--cycles", "6:3"), ("--matrix-cycles", "3,x"), ("--matrix-cycles", "0"),
        ("--matrix-cycles", "1,L+1"), ("--cycles", ""), ("--matrix-cycles", ""),
    ])
    def test_bad_cycles_argument_is_usage_error(self, workspace, trained, flag, value, capsys):
        test = parse_cmapss(workspace["raw"]["test_path"])
        length = next(len(t) for t in test if t.unit_id == 2)
        code = main(
            ["explain", "--checkpoint", str(trained / "checkpoint.bin"), "--unit", "2",
             flag, value.replace("L+1", str(length + 1)), "--out", str(trained / "explain_bad")]
        )
        assert code == 1
        assert f"configuration error: {flag}" in capsys.readouterr().err
        assert not (trained / "explain_bad").exists()

    def test_matrix_cycle_outside_cycles_is_usage_error(self, trained, capsys):
        out = trained / "explain_bad"
        code = main(["explain", "--checkpoint", str(trained / "checkpoint.bin"), "--unit", "2",
                     "--cycles", "1:2", "--matrix-cycles", "3", "--out", str(out)])
        assert code == 1
        assert "configuration error: --matrix-cycles 3 " in capsys.readouterr().err
        assert not out.exists()

    def test_last_cycle_is_in_range(self, workspace, trained):
        test = parse_cmapss(workspace["raw"]["test_path"])
        length = next(len(t) for t in test if t.unit_id == 2)
        out = trained / "explain_last"
        code = main(
            ["explain", "--checkpoint", str(trained / "checkpoint.bin"), "--unit", "2",
             "--cycles", f"{length}:{length}", "--out", str(out)]
        )
        assert code == 0
        assert len((out / "predictions.csv").read_text().splitlines()) == 2

    def test_bundle_with_unknown_tensor_is_checkpoint_error(self, trained, tmp_path, capsys):
        checkpoint = tmp_path / "extra.bin"
        blob = (trained / "checkpoint.bin").read_bytes()
        checkpoint.write_bytes(with_extra_tensor(blob, "bogus.extra"))
        out = tmp_path / "out"
        code = main(["explain", "--checkpoint", str(checkpoint), "--unit", "2", "--out", str(out)])
        assert code == 2
        assert f"CheckpointError: {checkpoint}: " in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_unit_is_data_error(self, trained):
        code = main(
            ["explain", "--checkpoint", str(trained / "checkpoint.bin"), "--unit", "99"]
        )
        assert code == 2

    @pytest.mark.parametrize("unit", [2, 4])
    def test_truth_count_mismatch_is_data_error(self, workspace, trained, tmp_path, unit, capsys):
        # Four test units and two truth values: unit 2 has a truth line
        # only by position, unit 4 none at all.
        bundle = load_bundle(trained / "checkpoint.bin")
        short_truth = tmp_path / "short.txt"
        short_truth.write_text("5\n7\n")
        checkpoint = tmp_path / "short_truth.bin"
        save_bundle(checkpoint, bundle.model, bundle.condition_model,
                    bundle.config.override(truth_path=str(short_truth)).to_dict())
        out = tmp_path / "out"
        code = main(["explain", "--checkpoint", str(checkpoint), "--unit", str(unit),
                     "--out", str(out)])
        assert code == 2
        assert "IntegrityError: 4 test units but 2 truth values" in capsys.readouterr().err
        assert not out.exists()

    def test_truth_path_flag_pairs_another_test_set(self, workspace, trained, tmp_path):
        # Another set with the same unit count: its units must be paired
        # with its own truth file, not with the one the bundle names.
        other = generate_dataset(tmp_path, name="OT", n_train=2, n_test=4, seed=9)
        own_truth = parse_rul_truth(workspace["raw"]["truth_path"])
        other_truth = parse_rul_truth(other.truth_path)
        assert own_truth[1] != other_truth[1]
        length = next(len(t) for t in parse_cmapss(other.test_path) if t.unit_id == 2)
        out = tmp_path / "out"
        code = main(["explain", "--checkpoint", str(trained / "checkpoint.bin"), "--unit", "2",
                     "--test-path", str(other.test_path), "--truth-path", str(other.truth_path),
                     "--out", str(out)])
        assert code == 0
        rows = (out / "predictions.csv").read_text().splitlines()[1:]
        true_rul = [int(row.split(",")[2]) for row in rows]
        assert true_rul == [other_truth[1] + length - cycle for cycle in range(1, length + 1)]

    def test_mode_l_checkpoint_is_capability_error(self, mode_l, tmp_path, capsys):
        # No feature attention: one error line, and no --out.
        out = tmp_path / "out"
        code = main(["explain", "--checkpoint", str(mode_l / "checkpoint.bin"), "--unit", "1",
                     "--out", str(out)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err == "error: CapabilityError: mode 'L' retains no attention weights\n"
        assert captured.out == ""
        assert not out.exists()


class TestSweep:
    def test_grid_cardinality_and_table(self, workspace):
        out = workspace["root"] / "sweep"
        code = main(
            ["sweep", "--config", str(workspace["config"]), "--out", str(out),
             "--param", "feature_heads", "--values", "0,2", "--seeds", "5,6"]
            + FAST_FLAGS
        )
        assert code == 0
        lines = (out / "sweep_results.csv").read_text().splitlines()
        assert len(lines) == 5  # header + 2 values x 2 seeds
        header = lines[0].split(",")
        for column in ("parameter", "value", "seed", "rmse", "score", "epochs", "wall_time_s"):
            assert column in header
        assert (out / "feature_heads=0" / "seed=5" / "checkpoint.bin").exists()
        assert (out / "feature_heads=2" / "seed=6" / "metrics.json").exists()

    def test_runs_every_listed_seed_in_order(self, workspace, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            ["sweep", "--config", str(workspace["config"]), "--out", str(out),
             "--param", "r_max", "--values", "50", "--seeds", "4,1,3,2,5"]
            + FAST_FLAGS + ["--max-epochs", "1"]
        )
        assert code == 0
        with open(out / "sweep_results.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["seed"], row["error"]) for row in rows] == [(seed, "") for seed in "41325"]
        assert sorted(p.name for p in (out / "r_max=50").iterdir()) == [f"seed={seed}" for seed in "12345"]

    def test_mode_sweep_covers_ablation_axes(self, workspace):
        out = workspace["root"] / "sweep_mode"
        code = main(
            ["sweep", "--config", str(workspace["config"]), "--out", str(out),
             "--param", "mode", "--values", "L,A", "--seed", "4"]
            + FAST_FLAGS
        )
        assert code == 0
        lines = (out / "sweep_results.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_invalid_value_rejected_upfront(self, workspace):
        code = main(
            ["sweep", "--config", str(workspace["config"]), "--out",
             str(workspace["root"] / "sweep_bad"), "--param", "feature_heads",
             "--values", "3", "--window", "10"]
        )
        assert code == 1

    def test_r_max_sweep_reports_unclipped_metrics(self, workspace):
        out = workspace["root"] / "sweep_rmax"
        code = main(
            ["sweep", "--config", str(workspace["config"]), "--out", str(out),
             "--param", "r_max", "--values", "50", "--seed", "4"]
            + FAST_FLAGS
        )
        assert code == 0
        lines = (out / "sweep_results.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert "rmse_unclipped" in header and "score_unclipped" in header
        row = dict(zip(header, lines[1].split(",")))
        assert row["rmse"] and row["rmse_unclipped"]

    @pytest.mark.parametrize("param, values", [("feature_heads", "0,2"), ("r_max", "40,50")])
    def test_reads_each_input_file_once(self, workspace, tmp_path, monkeypatch, param, values):
        # It also fits the condition model once, and windows once per value.
        calls = count_pipeline_calls(monkeypatch)
        out = tmp_path / "sweep"
        code = main(
            ["sweep", "--config", str(workspace["config"]), "--out", str(out),
             "--param", param, "--values", values, "--seeds", "5,6"]
            + FAST_FLAGS
        )
        assert code == 0
        assert len((out / "sweep_results.csv").read_text().splitlines()) == 5
        raw = workspace["raw"]
        assert calls == {**{raw[key]: 1 for key in ("train_path", "test_path", "truth_path")},
                         "cluster_conditions": 1, "window_arrays": 2}

    def test_values_are_stripped(self, workspace, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            ["sweep", "--config", str(workspace["config"]), "--out", str(out),
             "--param", "window", "--values", " 8, 10 ", "--seed", "4"]
            + FAST_FLAGS
        )
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == ["sweep_results.csv", "window=10", "window=8"]
        with open(out / "sweep_results.csv", newline="", encoding="utf-8") as fh:
            assert [row["value"] for row in csv.DictReader(fh)] == ["8", "10"]

    def test_each_run_is_the_train_run_of_its_resolved_config(self, workspace, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            ["sweep", "--config", str(workspace["config"]), "--out", str(out),
             "--param", "r_max", "--values", "40", "--seeds", "4,5"]
            + FAST_FLAGS
        )
        assert code == 0
        run = out / "r_max=40" / "seed=5"
        for name in ("predictions.csv", "metrics.json"):
            (run / name).unlink()
        assert main(["evaluate", "--checkpoint", str(run / "checkpoint.bin")]) == 0
        assert main(["explain", "--checkpoint", str(run / "checkpoint.bin"), "--unit", "1"]) == 0
        assert (run / "predictions.csv").exists() and (run / "metrics.json").exists()
        assert (run / "explain" / "unit=1" / "attention_feature.csv").exists()
        kept = {name: (run / name).read_bytes() for name in ("checkpoint.bin", "training_log.csv")}
        for name in kept:
            (run / name).unlink()
        assert main(["train", "--config", str(run / "resolved_config.json")]) == 0
        assert {name: (run / name).read_bytes() for name in kept} == kept
        assert sorted(p.name for p in out.iterdir()) == ["r_max=40", "sweep_results.csv"]

    def test_each_row_is_written_when_its_run_ends(self, workspace, tmp_path, monkeypatch):
        # A sweep stopped in its second run keeps the first run's row.
        out = tmp_path / "sweep"
        table = out / "sweep_results.csv"
        real = cli._train_once
        seen = []

        def stop_second(*args):
            seen.append(table.read_text(encoding="utf-8"))
            if len(seen) == 2:
                raise KeyboardInterrupt
            return real(*args)

        monkeypatch.setattr(cli, "_train_once", stop_second)
        with pytest.raises(KeyboardInterrupt):
            main(["sweep", "--config", str(workspace["config"]), "--out", str(out),
                  "--param", "r_max", "--values", "40,50", "--seed", "5"]
                 + FAST_FLAGS)
        header = "parameter,value,seed,rmse,score,epochs,wall_time_s,error,rmse_unclipped,score_unclipped\n"
        assert seen[0] == header
        with open(table, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert seen[1] == table.read_text(encoding="utf-8")
        assert [(row["value"], row["seed"], row["error"]) for row in rows] == [("40", "5", "")]
        assert rows[0]["rmse"] and rows[0]["rmse_unclipped"]

    def test_failed_runs_are_recorded_and_the_sweep_continues(self, workspace, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(
            ["sweep", "--config", str(workspace["config"]), "--out", str(out),
             "--param", "r_max", "--values", "40,50", "--seeds", "5,6"]
            + FAST_FLAGS + ["--learning-rate", "1e30"]
        )
        assert code == 3
        assert capsys.readouterr().out.splitlines()[-1] == "sweep complete: 0/4 runs succeeded"
        with open(out / "sweep_results.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["value"], row["seed"]) for row in rows] == [
            (value, seed) for value in ("40", "50") for seed in ("5", "6")
        ]
        for row in rows:
            assert row.pop("error").startswith("NumericInputError: ")
            assert [key for key, cell in row.items() if cell] == ["parameter", "value", "seed"]


def count_pipeline_calls(monkeypatch) -> collections.Counter:
    """The calls of the commands' readers, counted by the path they read,
    and of ``cluster_conditions`` and ``window_arrays``, counted by name,
    from here on."""
    calls = collections.Counter()

    def counted(name, key):
        real = getattr(cli, name)

        def call(*args):
            calls[key(*args)] += 1
            return real(*args)
        monkeypatch.setattr(cli, name, call)

    for name in ("parse_cmapss", "parse_rul_truth"):
        counted(name, str)
    for name in ("cluster_conditions", "window_arrays"):
        counted(name, lambda *args, name=name: name)
    return calls


@pytest.mark.parametrize("command, windowed", [("train", {"window_arrays": 1}), ("preprocess", {})])
def test_reads_only_the_train_file(workspace, tmp_path, monkeypatch, command, windowed):
    # Neither command evaluates, so neither reads the test or truth file;
    # preprocess writes its windows with write_windows, not window_arrays.
    calls = count_pipeline_calls(monkeypatch)
    code = main([command, "--config", str(workspace["config"]), "--out", str(tmp_path / "out"),
                 "--seed", "3"] + FAST_FLAGS)
    assert code == 0
    assert calls == {workspace["raw"]["train_path"]: 1, "cluster_conditions": 1, **windowed}


class TestTrainFileAlone:
    # A PHM08-style training set has no truth file (the challenge withheld
    # its test RULs): train and preprocess need the train file alone, and
    # evaluate is then given the test and truth files it reads.
    @pytest.fixture(params=["unset", "missing"])
    def absent(self, request, tmp_path):
        return "" if request.param == "unset" else str(tmp_path / "missing.txt")

    def test_train_needs_no_test_files(self, workspace, tmp_path, capsys, absent):
        run = tmp_path / "run"
        code = main(["train", "--config", str(workspace["config"]), "--out", str(run), "--seed", "3",
                     "--test-path", absent, "--truth-path", absent] + FAST_FLAGS)
        assert code == 0
        assert set(json.loads((run / "manifest.json").read_text())["inputs"]) == {"train"}
        raw = workspace["raw"]
        checkpoint = str(run / "checkpoint.bin")
        assert main(["evaluate", "--checkpoint", checkpoint, "--test-path", raw["test_path"],
                     "--truth-path", raw["truth_path"]]) == 0
        assert (run / "metrics.json").exists()
        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", checkpoint, "--out", str(tmp_path / "eval")]) == 1
        expected = (f"[Errno 2] No such file or directory: '{absent}'" if absent
                    else "no test_path: name the file in the config or with --test-path")
        assert capsys.readouterr().err == f"configuration error: {expected}\n"
        assert not (tmp_path / "eval").exists()

    def test_preprocess_needs_no_test_files(self, workspace, tmp_path, absent):
        argv = ["preprocess", "--config", str(workspace["config"]), "--window", "10"]
        with_files, alone = tmp_path / "with_files", tmp_path / "alone"
        assert main([*argv, "--out", str(with_files)]) == 0
        assert main([*argv, "--out", str(alone), "--test-path", absent, "--truth-path", absent]) == 0
        for name in ("preprocess_summary.json", "condition_model.json", "windows_train.txt"):
            assert (alone / name).read_bytes() == (with_files / name).read_bytes()


def units_alive_at_fit(workspace, tmp_path, monkeypatch, command):
    """Run ``command`` with the garbage collector off, and return how many
    units parsed from the workspace's train file there are and, at each
    ``fit`` call, how many of them are still alive."""
    source = Path(workspace["raw"]["train_path"])
    parsed, alive_at_fit = [], []

    def recording_parse(path):
        units = parse_cmapss(path)
        if Path(path) == source:
            parsed.extend(weakref.ref(unit) for unit in units)
        return units

    def checking_fit(*args):
        alive_at_fit.append(sum(ref() is not None for ref in parsed))
        return fit(*args)

    fit = cli.fit
    monkeypatch.setattr(cli, "parse_cmapss", recording_parse)
    monkeypatch.setattr(cli, "fit", checking_fit)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        code = main([*command, "--config", str(workspace["config"]), "--out", str(tmp_path / "out"),
                     "--seed", "3"] + FAST_FLAGS)
    finally:
        if was_enabled:
            gc.enable()
    assert code == 0
    return len(parsed), alive_at_fit


@pytest.mark.parametrize("command", [["train"], ["sweep", "--param", "r_max", "--values", "40,50"]],
                         ids=["train", "sweep"])
def test_training_holds_no_parsed_train_unit(workspace, tmp_path, monkeypatch, command):
    # Once the normalized trajectories exist the raw ones parsed from the
    # train file are dropped, so no fit runs beside them.  The garbage
    # collector is off: they must go when their last reference does.
    parsed, alive_at_fit = units_alive_at_fit(workspace, tmp_path, monkeypatch, command)
    assert parsed == 8
    assert alive_at_fit and not any(alive_at_fit), alive_at_fit


class TestSynthData:
    def test_generates_loadable_bundle(self, tmp_path, capsys):
        code = main(
            ["synth-data", "--out", str(tmp_path / "d"), "--name", "Z", "--units", "3",
             "--test-units", "2", "--conditions", "2", "--seed", "1"]
        )
        assert code == 0
        config = json.loads((tmp_path / "d" / "config.json").read_text())
        assert Path(config["train_path"]).exists()
        assert config["k_conditions"] == 2

    @pytest.mark.parametrize("flag, value", [
        ("--conditions", "0"), ("--conditions", "7"), ("--units", "0"), ("--units", "-1"),
        ("--test-units", "0"),
    ])
    def test_out_of_range_counts_are_usage_errors(self, tmp_path, capsys, flag, value):
        out = tmp_path / "d"
        code = main(["synth-data", "--out", str(out), flag, value])
        assert code == 1
        assert "configuration error: " in capsys.readouterr().err
        assert not out.exists()


class TestConfigPrecedence:
    def test_flag_overrides_file(self, workspace, tmp_path):
        out = tmp_path / "override"
        code = main(
            ["preprocess", "--config", str(workspace["config"]), "--out", str(out),
             "--window", "8", "--feature-heads", "2", "--skip-windows"]
        )
        assert code == 0
        summary = json.loads((out / "preprocess_summary.json").read_text())
        assert summary["window"] == 8

    def test_unknown_config_key_rejected(self, tmp_path, workspace):
        bad = tmp_path / "bad.json"
        payload = dict(workspace["raw"])
        payload["nonsense"] = 1
        bad.write_text(json.dumps(payload))
        assert main(["preprocess", "--config", str(bad)]) == 1


BAD_CONFIG_VALUES = [("batch_size", "64"), ("window", 30.0), ("clip_test_rul", "no"),
                     ("seeds", [1.5]), ("k_conditions", True)]
# Small sizes, so that a bad value that is let through trains briefly.
CONFIG_ARGS = ["--config", "{config}", "--out", "{out}", "--max-epochs", "1",
               "--lstm-hidden", "4", "--lstm-layers", "1", "--mlp-hidden", "4"]

# (argv, config file values, bundle header values, exit code, the flag,
# field or text the error line must name).  A placeholder stands for the same
# path in the argv and in that text: "{config}" is the workspace config with
# the given values, "{bundle}" the trained checkpoint with the given header
# config values, "{missing}" a file that does not exist, "{short}" a one-line
# train file of 3 columns, "{latin1}" a truth file holding the byte 0xB0,
# "{nonfinite}" the trained checkpoint with a NaN in head.w2, "{overflow}" the
# trained checkpoint with every head.w2 weight at 3e38, finite but so large
# that the predictions overflow to inf, "{attention}" the trained checkpoint
# with every fa.wqkv weight at 3e38, so that the attention scores overflow,
# "{empty}" an empty file, "{one_unit}" the workspace's one-unit train file,
# "{overflowing_train}" the workspace's train file with two readings of 1e308,
# "{truth3}" a truth file of three values for the four test units,
# "{huge_truth}" a truth file of 100000 for each of them, whose score overflows,
# "{dir}" a directory, "{array}" a file holding the JSON array [1],
# "{array_bundle}" the trained checkpoint with the header [1], "{unit0}" the
# workspace's train file with the unit id of its first row set to 0,
# "{out}" a directory that must not be created and "{run}" one that may be.
ENTRY_POINT_CASES = [
    *[pytest.param([command, *CONFIG_ARGS], {name: value}, {}, 1, name,
                   id=f"{command}-config-{name}")
      for name, value in BAD_CONFIG_VALUES for command in ("train", "preprocess")],
    *[pytest.param(["train", *CONFIG_ARGS, flag, text], {}, {}, 1, name, id=f"flag-{name}")
      for flag, text, name in [("--window", "abc", "window"),
                               ("--clip-test-rul", "maybe", "clip_test_rul"),
                               ("--seeds", "1,x", "seeds")]],
    *[pytest.param([command, *CONFIG_ARGS], {"seeds": [-1]}, {}, 1, "seeds",
                   id=f"{command}-config-negative-seed") for command in ("train", "preprocess")],
    pytest.param(["train", *CONFIG_ARGS, "--seeds", "-1"], {}, {}, 1, "seeds",
                 id="flag-negative-seed"),
    pytest.param(["train", *CONFIG_ARGS], {"seeds": []}, {}, 1, "seed list is empty",
                 id="train-config-no-seeds"),
    pytest.param(["train", *CONFIG_ARGS, "--config", "{dir}"], {}, {}, 1, "cannot read config",
                 id="config-is-a-directory"),
    pytest.param(["train", *CONFIG_ARGS, "--config", "{array}"], {}, {}, 1,
                 "config file must hold a JSON object", id="config-not-an-object"),
    pytest.param(["synth-data", "--out", "{out}", "--seed", "-1"], {}, {}, 1, "seed -1",
                 id="synth-negative-seed"),
    # Sizes of 10**12, far over the model's caps, which are checked by
    # arithmetic, so that nothing is allocated.  In mode L no block reads
    # the window, which only the activation cap then bounds.
    *[pytest.param(["train", *CONFIG_ARGS, *flags, "1000000000000"], {}, {}, 1,
                   f"{name} 1000000000000", id=f"flag-unbuildable-{case}")
      for flags, name, case in [(["--window"], "window", "window"),
                                (["--lstm-hidden"], "lstm_hidden", "lstm_hidden"),
                                (["--lstm-layers"], "lstm_layers", "lstm_layers"),
                                (["--mode", "L", "--window"], "window", "L-window")]],
    pytest.param(["sweep", *CONFIG_ARGS, "--param", "window", "--values", "abc"], {}, {}, 1,
                 "window", id="sweep-value"),
    pytest.param(["sweep", *CONFIG_ARGS, "--param", "window", "--values", "10",
                  "--lstm-hidden", "0"], {}, {}, 1, "lstm_hidden", id="sweep-layer-size"),
    *[pytest.param(["sweep", *CONFIG_ARGS, "--param", "r_max", "--values", values], {}, {}, 1,
                   "--values", id=f"sweep-repeated-{values}")
      for values in ("50,50", "50,50.0", "40,50,40")],
    # Head counts that the mode does not build train the same model.
    *[pytest.param(["sweep", *CONFIG_ARGS, "--param", param, "--values", values, "--mode", mode],
                   {}, {}, 1, "--values", id=f"sweep-repeated-{param}-{values}-{mode}")
      for param, values, mode in [("sequence_heads", "2,4", "F"), ("feature_heads", "2,3", "A")]],
    *[pytest.param([command, *CONFIG_ARGS, *extra, "--seeds", "3,3"], {}, {}, 1, "seeds must be distinct",
                   id=f"{command}-repeated-seed-3,3")
      for command, extra in [("train", []), ("sweep", ["--param", "r_max", "--values", "50"])]],
    # --seed replaces a config file's seeds; with --seeds as well, one of them would be dropped.
    pytest.param(["train", *CONFIG_ARGS, "--seeds", "2,3", "--seed", "1"], {}, {}, 1, "--seed and --seeds",
                 id="flag-seed-and-seeds"),
    *[pytest.param(["evaluate", "--checkpoint", "{bundle}", "--out", "{out}"], {}, {name: value},
                   2, name, id=f"bundle-{name}")
      for name, value in [("r_max", "abc"), ("clip_test_rul", "no")]],
    # A value of the right type but out of range; read, every true RUL would be -3.
    pytest.param(["evaluate", "--checkpoint", "{bundle}", "--out", "{out}"], {}, {"r_max": -3.0},
                 2, "r_max must be positive", id="bundle-negative-r_max"),
    pytest.param(["evaluate", "--checkpoint", "{bundle}", "--out", "{out}"], {}, {"seeds": [3, 3]},
                 2, "seeds must be distinct", id="bundle-repeated-seeds"),
    pytest.param(["evaluate", "--checkpoint", "{array_bundle}", "--out", "{out}"], {}, {}, 2,
                 "{array_bundle}: header is not a JSON object", id="bundle-header-not-an-object"),
    pytest.param(["train", *CONFIG_ARGS, "--bogus"], {}, {}, 1, "--bogus", id="unknown-flag"),
    pytest.param(["evaluate", "--out", "{out}"], {}, {}, 1, "--checkpoint",
                 id="missing-checkpoint"),
    pytest.param(["explain", "--checkpoint", "{bundle}", "--out", "{out}"], {}, {}, 1, "--unit",
                 id="missing-unit"),
    pytest.param(["sweep", *CONFIG_ARGS, "--values", "10"], {}, {}, 1, "--param",
                 id="missing-param"),
    pytest.param(["sweep", *CONFIG_ARGS, "--param", "window", "--values", ","], {}, {}, 1,
                 "--values needs at least one value", id="sweep-no-values"),
    pytest.param(["explain", "--checkpoint", "{bundle}", "--unit", "abc", "--out", "{out}"],
                 {}, {}, 1, "--unit", id="explain-unit"),
    # A sweep runs the seeds its config lists; there is no --repeats.
    pytest.param(["sweep", *CONFIG_ARGS, "--param", "window", "--values", "10", "--repeats", "2"],
                 {}, {}, 1, "--repeats", id="sweep-repeats"),
    # The window is the bundle's; evaluate takes no --window.
    pytest.param(["evaluate", "--checkpoint", "{bundle}", "--window", "10", "--out", "{out}"],
                 {}, {}, 1, "--window", id="evaluate-window-flag"),
    pytest.param(["synth-data", "--out", "{out}", "--units", "x"], {}, {}, 1, "--units",
                 id="synth-units"),
    *[pytest.param([command, "--checkpoint", "{bundle}", *unit, flag, "{missing}",
                    "--out", "{out}"], {}, {}, 1, "missing.txt", id=f"{command}-missing-{flag[2:]}")
      for command, unit in [("evaluate", []), ("explain", ["--unit", "1"])]
      for flag in ("--test-path", "--truth-path")],
    pytest.param(["sweep", *CONFIG_ARGS, "--param", "r_max", "--values", "50", "--truth-path", "{missing}"],
                 {}, {}, 1, "missing.txt", id="sweep-missing-truth-path"),
    pytest.param(["train", *CONFIG_ARGS, "--train-path", "{missing}"], {}, {}, 1,
                 "configuration error: [Errno 2] No such file or directory: '{missing}'",
                 id="train-missing-train-path"),
    pytest.param(["train", *CONFIG_ARGS], {"train_path": ""}, {}, 1, "no train_path",
                 id="train-no-train-path"),
    pytest.param(["evaluate", "--checkpoint", "{bundle}", "--out", "{out}"], {}, {"test_path": ""}, 1,
                 "no test_path", id="evaluate-no-test-path"),
    *[pytest.param([command, *CONFIG_ARGS, "--train-path", "{short}"], {}, {}, 2,
                   "{short}: line 1: expected 26 columns, found 3", id=f"{command}-short-rows")
      for command in ("preprocess", "train")],
    pytest.param(["train", *CONFIG_ARGS, "--train-path", "{unit0}"], {}, {}, 2,
                 "{unit0}: line 1: unit id must be a positive integer, got 0", id="train-unit-id-0"),
    *[pytest.param([command, *args, "--truth-path", "{latin1}"], {}, {}, 2,
                   "ParseError: {latin1}: not UTF-8 text", id=f"{command}-truth-not-utf8")
      for command, args in [("evaluate", ["--checkpoint", "{bundle}", "--out", "{out}"]),
                            ("explain", ["--checkpoint", "{bundle}", "--unit", "1", "--out", "{out}"])]],
    *[pytest.param([command, "--checkpoint", "{nonfinite}", *unit, "--out", "{out}"], {}, {}, 2,
                   "CheckpointError: {nonfinite}: tensor 'head.w2' holds a NaN",
                   id=f"{command}-nonfinite-bundle")
      for command, unit in [("evaluate", []), ("explain", ["--unit", "1"])]],
    *[pytest.param([command, "--checkpoint", "{overflow}", *unit, "--out", "{out}"], {}, {}, 3,
                   f"NumericInputError: the prediction for unit {where} is inf, not finite",
                   id=f"{command}-overflowing-bundle")
      for command, unit, where in [("evaluate", [], "1"), ("explain", ["--unit", "1"], "1, cycle 1")]],
    *[pytest.param([command, "--checkpoint", "{attention}", *unit, "--out", "{out}"], {}, {}, 3,
                   "NumericInputError: attention scores contain non-finite values",
                   id=f"{command}-overflowing-attention")
      for command, unit in [("evaluate", []), ("explain", ["--unit", "1"])]],
    *[pytest.param([command, *CONFIG_ARGS, "--train-path", "{empty}"], {}, {}, 2,
                   "IntegrityError: {empty}: no units", id=f"{command}-empty-train")
      for command in ("preprocess", "train")],
    pytest.param(["evaluate", "--checkpoint", "{bundle}", "--truth-path", "{huge_truth}", "--clip-test-rul",
                  "false", "--out", "{out}"], {}, {}, 3, "NumericInputError: the score term of error 0 (-99",
                 id="evaluate-overflowing-score"),
    pytest.param(["evaluate", "--checkpoint", "{bundle}", "--test-path", "{empty}", "--truth-path", "{empty}",
                  "--out", "{out}"], {}, {}, 2, "IntegrityError: {empty}: no units", id="evaluate-empty-test"),
    pytest.param(["sweep", *CONFIG_ARGS, "--param", "window", "--values", "10", "--train-path", "{empty}"],
                 {}, {}, 2, "IntegrityError: {empty}: no units", id="sweep-empty-train"),
    *[pytest.param([command, *CONFIG_ARGS, *extra, "--train-path", "{overflowing_train}"], {}, {}, 2,
                   "ClusteringError: condition 0, channel 7", id=f"{command}-overflowing-train")
      for command, extra in [("train", []), ("sweep", ["--param", "r_max", "--values", "40,50"])]],
    *[pytest.param([command, *CONFIG_ARGS, *extra, "--train-path", "{one_unit}"], {}, {}, 2,
                   "IntegrityError: {one_unit}: 1 unit", id=f"{command}-one-unit-train")
      for command, extra in [("train", []), ("sweep", ["--param", "window", "--values", "10"])]],
    pytest.param(["sweep", *CONFIG_ARGS, "--param", "r_max", "--values", "50", "--truth-path", "{truth3}"],
                 {}, {}, 2, "IntegrityError: 4 test units but 3 truth values", id="sweep-short-truth"),
    # Training makes its --out before it fits, so this case names "{run}".
    pytest.param(["train", *CONFIG_ARGS, "--out", "{run}", "--mode", "L", "--learning-rate", "1e10"],
                 {}, {}, 3, "NumericInputError: training loss is inf at epoch 1, batch 2",
                 id="train-loss-overflows"),
    # One batch per epoch: the loss is finite, and the update it makes
    # overflows the validation predictions.
    pytest.param(["train", *CONFIG_ARGS, "--out", "{run}", "--mode", "L", "--learning-rate", "1e20",
                  "--batch-size", "2048"], {}, {}, 3, "NumericInputError: validation RMSE is inf at epoch 1",
                 id="train-validation-diverges"),
]


def test_suite_runs_openblas_on_one_thread():
    # The conftest imports rulnet before numpy, so unless the caller set a
    # thread variable to something else, the package's cap is in effect.
    if any(os.environ.get(var, "1") != "1" for var in BLAS_THREAD_VARS):
        pytest.skip("the caller set a BLAS thread count")
    assert all(os.environ.get(var) == "1" for var in BLAS_THREAD_VARS)
    assert cli._openblas_threads() in (1, None)


class TestEntryPoints:
    @pytest.mark.parametrize("argv, config, header, code, name", ENTRY_POINT_CASES)
    def test_bad_input_is_one_error_line(self, workspace, trained, tmp_path, capsys,
                                         argv, config, header, code, name):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({**workspace["raw"], **config}))
        bundle = load_bundle(trained / "checkpoint.bin")
        bundle_path = tmp_path / "bundle.bin"
        save_bundle(bundle_path, bundle.model, bundle.condition_model,
                    {**bundle.config.to_dict(), **header})
        attention_path = tmp_path / "attention.bin"
        wqkv = bundle.model.params["fa.wqkv"].data
        bundle.model.params["fa.wqkv"].data = np.full_like(wqkv, 3e38)
        save_bundle(attention_path, bundle.model, bundle.condition_model, bundle.config.to_dict())
        bundle.model.params["fa.wqkv"].data = wqkv
        nonfinite_path = tmp_path / "nonfinite.bin"
        bundle.model.params["head.w2"].data[0, 0] = np.nan
        save_bundle(nonfinite_path, bundle.model, bundle.condition_model, bundle.config.to_dict())
        overflow_path = tmp_path / "overflow.bin"
        bundle.model.params["head.w2"].data[...] = 3e38
        save_bundle(overflow_path, bundle.model, bundle.condition_model, bundle.config.to_dict())
        out = tmp_path / "out"
        short_path = tmp_path / "short.txt"
        short_path.write_text("1 1 0.5\n")
        latin1_path = tmp_path / "latin1.txt"
        latin1_path.write_bytes(b"12\n\xb07\n")
        empty_path = tmp_path / "empty.txt"
        empty_path.write_text("")
        truth3_path = tmp_path / "truth3.txt"
        truth3_path.write_text("5\n7\n9\n")
        huge_truth_path = tmp_path / "huge_truth.txt"
        huge_truth_path.write_text("100000\n" * 4)
        array_path = tmp_path / "array.json"
        array_path.write_text("[1]")
        blob = bundle_path.read_bytes()
        (header_len,) = struct.unpack_from("<Q", blob, 12)
        array_bundle_path = tmp_path / "array.bin"
        array_bundle_path.write_bytes(blob[:12] + struct.pack("<Q", 3) + b"[1]" + blob[20 + header_len :])
        _, rest = Path(workspace["raw"]["train_path"]).read_text().split(" ", 1)
        unit0_path = tmp_path / "unit0.txt"
        unit0_path.write_text("0 " + rest)
        paths = {"{config}": str(config_path), "{bundle}": str(bundle_path), "{out}": str(out),
                 "{missing}": str(tmp_path / "missing.txt"), "{short}": str(short_path),
                 "{latin1}": str(latin1_path), "{nonfinite}": str(nonfinite_path),
                 "{overflow}": str(overflow_path), "{attention}": str(attention_path),
                 "{empty}": str(empty_path), "{one_unit}": str(workspace["one_unit"]),
                 "{truth3}": str(truth3_path), "{huge_truth}": str(huge_truth_path),
                 "{run}": str(tmp_path / "run"), "{dir}": str(tmp_path), "{array}": str(array_path),
                 "{array_bundle}": str(array_bundle_path), "{unit0}": str(unit0_path),
                 "{overflowing_train}": str(overflowing_train(workspace, tmp_path))}
        assert main([paths.get(arg, arg) for arg in argv]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        [line] = err.splitlines()
        assert line.startswith({1: "configuration error: ", 2: "data error: ", 3: "error: "}[code])
        for key, value in paths.items():
            name = name.replace(key, value)
        assert name in line
        assert not out.exists()

    @pytest.mark.parametrize("name, value", [("window", True), ("lstm_layers", 10**12)],
                             ids=["bool-window", "huge-depth"])
    def test_bad_model_size_in_bundle_is_exit_2(self, trained, tmp_path, capsys, name, value):
        blob = (trained / "checkpoint.bin").read_bytes()
        (header_len,) = struct.unpack_from("<Q", blob, 12)
        header = json.loads(blob[20 : 20 + header_len])
        header["hyperparams"][name] = value
        text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        path = tmp_path / "bundle.bin"
        path.write_bytes(blob[:12] + struct.pack("<Q", len(text)) + text + blob[20 + header_len :])
        out = tmp_path / "out"
        assert main(["evaluate", "--checkpoint", str(path), "--out", str(out)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"data error: CheckpointError: {path}: ") and name in line
        assert not out.exists()

    @pytest.mark.parametrize("source", ["config", "bundle"])
    def test_integer_past_the_digit_limit_is_one_error_line(self, workspace, trained, tmp_path,
                                                            capsys, source):
        # Python parses no JSON integer of more than 4,300 digits.
        digits = "1" * 5000
        out = tmp_path / "out"
        if source == "config":
            path = tmp_path / "big.json"
            path.write_text(json.dumps({**workspace["raw"], "window": 0}).replace('"window": 0',
                                                                                   f'"window": {digits}'))
            argv, code, start = ["train", "--config", str(path)], 1, "configuration error: "
        else:
            blob = (trained / "checkpoint.bin").read_bytes()
            (header_len,) = struct.unpack_from("<Q", blob, 12)
            header = json.loads(blob[20 : 20 + header_len])
            header["hyperparams"]["lstm_hidden"] = 0
            text = json.dumps(header, sort_keys=True, separators=(",", ":"))
            text = text.replace('"lstm_hidden":0', f'"lstm_hidden":{digits}').encode()
            path = tmp_path / "bundle.bin"
            path.write_bytes(blob[:12] + struct.pack("<Q", len(text)) + text + blob[20 + header_len :])
            argv, code, start = ["evaluate", "--checkpoint", str(path)], 2, f"data error: CheckpointError: {path}: "
        assert main([*argv, "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        [line] = err.splitlines()
        assert line.startswith(start) and "4300" in line
        assert not out.exists()

    @pytest.mark.parametrize("command", ["preprocess", "train", "evaluate", "explain"])
    def test_out_naming_a_file_is_one_error_line(self, workspace, trained, tmp_path, capsys,
                                                 command):
        out = tmp_path / "afile"
        out.write_text("kept\n")
        argv = {
            "preprocess": ["--config", str(workspace["config"]), "--window", "10"],
            "train": ["--config", str(workspace["config"]), "--max-epochs", "1"],
            "evaluate": ["--checkpoint", str(trained / "checkpoint.bin")],
            "explain": ["--checkpoint", str(trained / "checkpoint.bin"), "--unit", "1"],
        }[command]
        assert main([command, *argv, "--out", str(out)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("configuration error: ") and str(out) in line
        assert out.read_text() == "kept\n"

    def test_int_for_float_field_is_kept(self, workspace, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({**workspace["raw"], "r_max": 125}))
        out = tmp_path / "run"
        assert main(["train", "--config", str(config_path), "--out", str(out)] + FAST_FLAGS) == 0
        assert '"r_max": 125,\n' in (out / "resolved_config.json").read_text()

    def test_every_field_has_a_kind_and_a_flag(self):
        samples = {"int": "7", "float": "0.5", "bool": "no", "str": "x", "list[int]": "1,2"}
        assert set(samples) == set(KINDS)
        extra = {"train": [], "preprocess": [], "sweep": ["--param", "window", "--values", "10"]}
        for f in dataclasses.fields(ExperimentConfig):
            assert f.type in KINDS, f"{f.name}: no type or text rule for {f.type!r}"
            value = ExperimentConfig.parse_field(f.name, samples[f.type])
            assert getattr(ExperimentConfig(**{f.name: value}), f.name) == value
            if f.name == "out_dir":
                continue
            flag = "--" + f.name.replace("_", "-")
            for command, args in extra.items():
                parsed = build_parser().parse_args([command, flag, samples[f.type], *args])
                assert getattr(parsed, f.name) == value, (command, flag)
