"""Command-line front end.

Commands: preprocess, train, evaluate, explain, sweep, plus synth-data
for generating demo datasets.  Global flags --config/--seed/--out; every
ExperimentConfig field is also a flag of the same name, whose text
``ExperimentConfig.parse_field`` parses.  Exit codes: 0 success, 1 usage
or configuration error (a bad flag or flag value, or a named path that
cannot be read or created, included), 2 data error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import dataclasses
import functools
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Iterator

import numpy as np

from . import BLAS_THREAD_VARS, __version__
from .checkpoint import Bundle, load_bundle, save_bundle
from .config import SWEEPABLE, ExperimentConfig
from .data import (
    ConditionModel,
    RawTrajectory,
    Windows,
    cluster_conditions,
    expected_sample_count,
    normalize,
    pair_test_truth,
    parse_cmapss,
    parse_rul_truth,
    window_arrays,
    write_windows,
)
from .errors import (
    CheckpointError,
    ClusteringError,
    ConfigurationError,
    IntegrityError,
    ParseError,
    RulnetError,
    UnitLookupError,
)
from .evaluation import (
    export_attention,
    predict_test_set,
    write_attention_csvs,
    write_predictions_csv,
)
from .model import RulModel, resolve_blocks
from .seeding import generator
from .synthetic import generate_dataset
from .training import fit

USAGE_EXIT = 1
DATA_EXIT = 2
RUNTIME_EXIT = 3

CONDITION_MODEL_FILE = "condition_model.json"
WINDOWS_FILE = "windows_train.txt"


# ---------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors are configuration errors (exit 1); subparsers share the class."""

    def error(self, message: str):
        raise ConfigurationError(message)


def _field_type(name: str):
    return functools.partial(ExperimentConfig.parse_field, name)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="JSON config file")
    parser.add_argument("--seed", type=int, help="replace the config's seed list with one seed")
    parser.add_argument("--out", metavar="DIR", help="output directory (out_dir)")
    for f in dataclasses.fields(ExperimentConfig):
        if f.name != "out_dir":
            parser.add_argument("--" + f.name.replace("_", "-"), type=_field_type(f.name))


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    overrides = {f.name: getattr(args, f.name) for f in dataclasses.fields(cfg) if f.name != "out_dir"}
    if args.seed is not None:
        if args.seeds is not None:
            raise ConfigurationError("--seed and --seeds both set the seed list: give one of them")
        overrides["seeds"] = [args.seed]
    return cfg.override(**overrides, out_dir=args.out)


def _write_json(obj, path: str | Path | None = None) -> None:
    """Write ``obj`` as JSON with sorted keys, a two-space indent and a
    final newline, to ``path`` or, when it is None, to stdout."""
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------
# pipeline helpers shared by commands
# ---------------------------------------------------------------------

def _data_path(cfg: ExperimentConfig, key: str) -> str:
    """``cfg``'s data path ``key``, which must be set; reading the file is
    what checks that it exists."""
    if not getattr(cfg, key):
        raise ConfigurationError(f"no {key}: name the file in the config or with --{key.replace('_', '-')}")
    return getattr(cfg, key)


def _prepare(cfg: ExperimentConfig, train_trajs) -> tuple[ConditionModel, Iterator[RawTrajectory]]:
    """The condition model, fitted on the raw rows from the library's fixed
    k-means seed so that it depends on the training data alone, and the
    training trajectories it normalizes, made one at a time as they are read."""
    cm = cluster_conditions(train_trajs, cfg.k_conditions)
    return cm, (normalize(traj, cm) for traj in train_trajs)


def _test_pairs(cfg: ExperimentConfig) -> list[tuple[RawTrajectory, int]]:
    """The test units of ``cfg.test_path`` paired with the final RULs of
    ``cfg.truth_path``."""
    return pair_test_truth(parse_cmapss(_data_path(cfg, "test_path")),
                           parse_rul_truth(_data_path(cfg, "truth_path")))


def _training_units(cfg: ExperimentConfig) -> list[RawTrajectory]:
    """The units of ``cfg.train_path``, for a command that trains.  One
    training unit is a data error: validation holds out whole units."""
    units = parse_cmapss(_data_path(cfg, "train_path"))
    if len(units) < 2:
        raise IntegrityError(f"{cfg.train_path}: 1 unit, but training needs 2 to hold one out for validation")
    return units


# Thread-count getters of the OpenBLAS builds numpy wheels bundle.
_OPENBLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _openblas_threads() -> int | None:
    """Threads the OpenBLAS bundled with numpy will use, or None when
    there is no such library or it cannot be asked."""
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, symbol):
                get = getattr(lib, symbol)
                get.argtypes = []
                get.restype = ctypes.c_int
                return int(get())
    return None


def _blas_build() -> dict:
    """Name and version of the BLAS that numpy was built against, and the
    threads it uses in this process (None when it cannot be asked)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 has no "dicts" mode
        blas = {}
    return {
        "blas_name": str(blas.get("name", "unknown")),
        "blas_version": str(blas.get("version", "unknown")),
        "blas_threads_in_effect": _openblas_threads(),
    }


def _train_once(cfg: ExperimentConfig, cm: ConditionModel, windows: Windows,
                sha256: dict) -> tuple[dict, Bundle]:
    """Train on ``windows``, normalized by ``cm``, with the run config ``cfg``
    (one seed; ``out_dir`` the run's directory, made before training so that
    an uncreatable one fails without a wasted fit), and write there the
    log, one row per epoch as it ends, then the checkpoint, resolved config
    and a manifest recording ``sha256``, the digests of the files the
    command read.  Returns the summary and the bundle it saved."""
    [seed] = cfg.seeds
    out_dir = Path(cfg.out_dir)
    model = RulModel(**cfg.model_kwargs(), init_rng=generator(seed, "init"))
    out_dir.mkdir(parents=True, exist_ok=True)

    # Line-buffered, each epoch's row written as it ends: a run that stops
    # keeps the epochs it finished.
    with open(out_dir / "training_log.csv", "w", buffering=1, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_rmse"])
        started = time.perf_counter()
        result = fit(model, windows, cfg, lambda record: writer.writerow(
            [record.epoch, repr(record.train_loss), repr(record.val_rmse)]))
        wall = time.perf_counter() - started

    bundle_config = cfg.to_dict()
    checkpoint_path = out_dir / "checkpoint.bin"
    save_bundle(checkpoint_path, model, cm, bundle_config)

    _write_json(bundle_config, out_dir / "resolved_config.json")
    manifest = {
        "version": __version__,
        "seed": seed,
        "config": bundle_config,
        "inputs": sha256,
        "fit": result.summary(),
        "wall_time_s": wall,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        # BLAS threading affects floating-point results; exact reproduction
        # needs the same setting.
        "blas_threads": {var: os.environ.get(var, "unset") for var in BLAS_THREAD_VARS},
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        **_blas_build(),
    }
    _write_json(manifest, out_dir / "manifest.json")
    return {
        "checkpoint": str(checkpoint_path),
        "epochs": result.epochs_run,
        "best_val_rmse": result.best_val_rmse,
        "wall_time_s": wall,
    }, Bundle(model, cm, cfg)


def _evaluate_bundle(bundle: Bundle, pairs: list[tuple[RawTrajectory, int]], out_dir: Path,
                     clip: bool | None = None) -> dict:
    test, truth = [t for t, _ in pairs], [r for _, r in pairs]
    report = predict_test_set(bundle, test, truth, clip_truth=clip)
    metrics = report.metrics()  # before --out exists, so that an overflow leaves none
    out_dir.mkdir(parents=True, exist_ok=True)
    write_predictions_csv(report, out_dir / "predictions.csv")
    _write_json(metrics, out_dir / "metrics.json")
    return metrics


# ---------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------

def cmd_preprocess(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    cfg.validate()
    train_trajs = parse_cmapss(_data_path(cfg, "train_path"))
    cm, normed = _prepare(cfg, train_trajs)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(cm.to_dict(), out_dir / CONDITION_MODEL_FILE)
    if not args.skip_windows:
        write_windows(normed, cfg.window, cfg.r_max, out_dir / WINDOWS_FILE)

    assignment_counts = np.bincount(
        cm.assign(np.vstack([t.settings for t in train_trajs])), minlength=cm.k
    )
    summary = {
        "train_units": len(train_trajs),
        "train_rows": int(sum(len(t) for t in train_trajs)),
        "train_samples": sum(expected_sample_count(len(t), cfg.window) for t in train_trajs),
        "window": cfg.window,
        "r_max": cfg.r_max,
        "conditions": cm.k,
        "rows_per_condition": assignment_counts.tolist(),
        "constant_channels_per_condition": cm.constant_mask.sum(axis=1).tolist(),
    }
    _write_json(summary, out_dir / "preprocess_summary.json")
    _write_json(summary)
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    cfg.validate()
    if len(cfg.seeds) > 1:
        raise ConfigurationError(f"train runs one seed, got seeds {cfg.seeds}: "
                                 f"choose one with --seed, or train each with sweep")
    train_units = _training_units(cfg)
    cm, normed = _prepare(cfg, train_units)
    windows = window_arrays(normed, cfg.window, cfg.r_max)
    del train_units  # the windows hold every row training reads
    summary, _ = _train_once(cfg, cm, windows, {"train": _sha256(cfg.train_path)})
    _write_json(summary)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    bundle = load_bundle(args.checkpoint)
    cfg = bundle.config.override(test_path=args.test_path, truth_path=args.truth_path)
    out_dir = Path(args.out or cfg.out_dir)
    _write_json(_evaluate_bundle(bundle, _test_pairs(cfg), out_dir, clip=args.clip_test_rul))
    return 0


def _cycle_range(text: str, length: int) -> range:
    """The cycles of an explain ``--cycles first:last`` argument, which
    must satisfy 1 <= first <= last <= length."""
    first, _, last = text.partition(":")
    try:
        lo, hi = int(first), int(last)
    except ValueError:
        raise ConfigurationError(f'--cycles must be "all" or "first:last", got {text!r}') from None
    if not 1 <= lo <= hi <= length:
        raise ConfigurationError(
            f"--cycles {text} must satisfy 1 <= first <= last <= {length}, the unit's cycle count"
        )
    return range(lo, hi + 1)


def cmd_explain(args: argparse.Namespace) -> int:
    bundle = load_bundle(args.checkpoint)
    cfg = bundle.config.override(test_path=args.test_path, truth_path=args.truth_path)
    by_unit = {traj.unit_id: (traj, final_rul) for traj, final_rul in _test_pairs(cfg)}
    if args.unit not in by_unit:
        raise UnitLookupError(f"unit {args.unit} not found in {cfg.test_path}")
    traj, final_rul = by_unit[args.unit]

    cycles = None
    if args.cycles != "all":
        cycles = _cycle_range(args.cycles, len(traj))
    selected = cycles or range(1, len(traj) + 1)
    matrix_cycles = None
    if args.matrix_cycles is not None:
        try:
            matrix_cycles = [int(c) for c in args.matrix_cycles.split(",")]
        except ValueError:
            raise ConfigurationError(
                f"--matrix-cycles must be comma-separated cycles, got {args.matrix_cycles!r}"
            ) from None
        if not all(c in selected for c in matrix_cycles):
            raise ConfigurationError(
                f"--matrix-cycles {args.matrix_cycles} must be among the explained cycles "
                f"{selected.start}:{selected.stop - 1}"
            )

    export = export_attention(bundle, traj, cycles=cycles)
    # Its own default directory, so that evaluate's predictions.csv is kept.
    out_dir = Path(args.out or Path(cfg.out_dir) / "explain" / f"unit={args.unit}")
    paths = write_attention_csvs(export, out_dir, matrix_cycles=matrix_cycles)

    # Per-cycle predictions with back-computed truth, the third surface.
    with open(out_dir / "predictions.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["unit_id", "cycle", "true_rul", "pred_rul", "error"])
        for cycle, pred in zip(export.cycles.tolist(), export.predictions.tolist()):
            true_rul = final_rul + (len(traj) - cycle)
            writer.writerow([args.unit, cycle, true_rul, repr(pred), repr(pred - true_rul)])
    _write_json({
        "unit": args.unit,
        "cycles": len(export.predictions),
        "attention_feature": str(paths["feature"]),
        "attention_cycle_sums": str(paths["cycle_sums"]),
    })
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Train and evaluate one run per value and per seed of the config's
    ``seeds``, in the order listed, each the ``train`` run of its own config,
    which names its directory.  Before ``--out`` is created, every value's
    config is validated, configs equal once their mode and head counts are
    resolved (:func:`resolve_blocks`) are rejected, the train, test and
    truth files are each read once, and the training units are clustered and
    normalized once; each value's windows serve all of its runs."""
    cfg = _build_config(args)
    cfg.validate()
    values = []
    for text in filter(None, (v.strip() for v in args.values.split(","))):
        value_cfg = cfg.override(**{args.param: ExperimentConfig.parse_field(args.param, text)})
        value_cfg.validate()
        # Head counts a mode does not build train the same model.
        resolved = dataclasses.replace(value_cfg, **resolve_blocks(
            value_cfg.mode, value_cfg.feature_heads, value_cfg.sequence_heads)._asdict())
        repeated = next((t for t, _, r in values if r == resolved), None)
        if repeated is not None:
            raise ConfigurationError(f"--values {text!r} gives the same config as {repeated!r}")
        values.append((text, value_cfg, resolved))
    if not values:
        raise ConfigurationError("--values needs at least one value")

    train_units, test_pairs = _training_units(cfg), _test_pairs(cfg)
    sha256 = {key: _sha256(getattr(cfg, f"{key}_path")) for key in ("train", "test", "truth")}
    cm, normed = _prepare(cfg, train_units)
    normed = list(normed)
    del train_units  # only the normalized trajectories are read from here on
    out_root = Path(cfg.out_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    fieldnames = ["parameter", "value", "seed", "rmse", "score", "epochs", "wall_time_s", "error"]
    if args.param == "r_max":
        fieldnames += ["rmse_unclipped", "score_unclipped"]
    runs = len(values) * len(cfg.seeds)
    failures = 0
    # Line-buffered: the header, and each run's row when the run ends, are on
    # disk at once, so a stopped sweep keeps its rows.
    with open(out_root / "sweep_results.csv", "w", buffering=1, newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for value, value_cfg, _ in values:
            windows = window_arrays(normed, value_cfg.window, value_cfg.r_max)
            for seed in cfg.seeds:
                run_dir = out_root / f"{args.param}={value}" / f"seed={seed}"
                row = {"parameter": args.param, "value": value, "seed": seed}
                try:
                    run_cfg = value_cfg.override(seeds=[seed], out_dir=str(run_dir))
                    summary, bundle = _train_once(run_cfg, cm, windows, sha256)
                    metrics = _evaluate_bundle(bundle, test_pairs, run_dir)
                    row.update(
                        rmse=repr(metrics["rmse"]),
                        score=repr(metrics["score"]),
                        epochs=summary["epochs"],
                        wall_time_s=f"{summary['wall_time_s']:.2f}",
                    )
                    if args.param == "r_max":
                        unclipped = _evaluate_bundle(bundle, test_pairs, run_dir / "unclipped", clip=False)
                        row["rmse_unclipped"] = repr(unclipped["rmse"])
                        row["score_unclipped"] = repr(unclipped["score"])
                except Exception as exc:  # record and continue with the next run
                    failures += 1
                    row["error"] = f"{type(exc).__name__}: {exc}"
                writer.writerow(row)
                print(f"[sweep] {args.param}={value} seed={seed} "
                      + (f"FAILED: {row['error']}" if "error" in row else f"rmse={row['rmse']} score={row['score']}"))
            del windows  # freed before the next value's windows are built
    print(f"sweep complete: {runs - failures}/{runs} runs succeeded")
    return RUNTIME_EXIT if failures == runs else 0


def cmd_synth_data(args: argparse.Namespace) -> int:
    out = Path(args.out or "data-synth")
    ds = generate_dataset(
        out,
        name=args.name,
        n_train=args.units,
        n_test=args.test_units,
        n_conditions=args.conditions,
        seed=args.seed,
    )
    config = ExperimentConfig(
        train_path=str(ds.train_path),
        test_path=str(ds.test_path),
        truth_path=str(ds.truth_path),
        k_conditions=ds.n_conditions,
        out_dir=str(out / "runs"),
    )
    config_path = out / "config.json"
    _write_json(config.to_dict(), config_path)
    _write_json({
        "train": str(ds.train_path),
        "test": str(ds.test_path),
        "truth": str(ds.truth_path),
        "config": str(config_path),
    })
    return 0


# ---------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rulnet", description=__doc__)
    parser.add_argument("--version", action="version", version=f"rulnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_pre = sub.add_parser("preprocess", help="parse, cluster, normalize, window; write artifacts")
    _add_config_flags(p_pre)
    p_pre.add_argument("--skip-windows", action="store_true", help="do not write the windowed dataset file")
    p_pre.set_defaults(func=cmd_preprocess)

    p_train = sub.add_parser("train", help="train a model and write a checkpoint bundle")
    _add_config_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="evaluate a checkpoint on the test set")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--test-path", default=None)
    p_eval.add_argument("--truth-path", default=None)
    p_eval.add_argument("--clip-test-rul", type=_field_type("clip_test_rul"), metavar="BOOL")
    p_eval.add_argument("--out", default=None)
    p_eval.set_defaults(func=cmd_evaluate)

    p_explain = sub.add_parser("explain", help="export attention weights for one engine")
    p_explain.add_argument("--checkpoint", required=True)
    p_explain.add_argument("--unit", type=int, required=True)
    p_explain.add_argument("--cycles", default="all", help='"all" or "first:last" (1-based, inclusive)')
    p_explain.add_argument("--matrix-cycles", default=None,
                           help="comma-separated cycles, among --cycles, to emit full matrices for "
                                "(default: all)")
    p_explain.add_argument("--test-path", default=None)
    p_explain.add_argument("--truth-path", default=None)
    p_explain.add_argument("--out", default=None)
    p_explain.set_defaults(func=cmd_explain)

    p_sweep = sub.add_parser("sweep", help="train/evaluate over a parameter grid")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--param", required=True, choices=SWEEPABLE)
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.set_defaults(func=cmd_sweep)

    p_synth = sub.add_parser("synth-data", help="generate a C-MAPSS-format demo dataset")
    p_synth.add_argument("--out", default="data-synth")
    p_synth.add_argument("--name", default="SYN1")
    p_synth.add_argument("--units", type=int, default=20)
    p_synth.add_argument("--test-units", type=int, default=10)
    p_synth.add_argument("--conditions", type=int, default=1)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.set_defaults(func=cmd_synth_data)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (ParseError, IntegrityError, ClusteringError, CheckpointError, UnitLookupError) as exc:
        print(f"data error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return DATA_EXIT
    except RulnetError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return RUNTIME_EXIT
    except OSError as exc:  # a path the user named cannot be read or created
        print(f"configuration error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
