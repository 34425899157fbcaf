"""One benchmark run of one workload, in its own process.

Started by ``run.py`` with BLAS thread variables already set.  Builds the
workload's inputs from the seed (set-up), then either runs the
closed-loop workload through ``rulnet.cli.main`` for the requested
seconds (``--trace 0``) or the traced layer pipeline (``--trace 1``), and
writes the result JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from rulnet import cli
from rulnet.checkpoint import load_bundle, save_bundle
from rulnet.config import ExperimentConfig
from rulnet.data import (
    N_CHANNELS,
    ConditionModel,
    cluster_conditions,
    expected_sample_count,
    parse_cmapss,
)
from rulnet.errors import RulnetError
from rulnet.model import RulModel
from rulnet.seeding import generator
from rulnet.synthetic import generate_dataset

import environment
import layers
from environment import HostSpeed

SETUP_REPEATS = 3
# Two epochs, so the check "last epoch's loss below the first" applies;
# early stopping is off, so every call does the same work.
TRAIN_EPOCHS = 2
CHECKPOINT_FILE = "checkpoint.bin"


@dataclass(frozen=True)
class Size:
    """Data and model size of a run; FULL is the benchmark, TINY the smoke test."""

    n_train: int
    n_test: int
    explain_units: int
    model: dict = field(default_factory=dict)  # ExperimentConfig overrides
    probe: layers.ProbeSize = layers.ProbeSize()


FULL = Size(n_train=100, n_test=100, explain_units=4)
TINY = Size(
    n_train=6,
    n_test=5,
    explain_units=2,
    model=dict(window=10, feature_heads=2, sequence_heads=2, lstm_hidden=8,
               lstm_layers=2, mlp_hidden=8, batch_size=16),
    probe=layers.ProbeSize(train_steps=4, block_repeats=2, b1_calls=4, sgemm_repeats=2),
)
CONDITIONS = {"train-fd001": 1, "preprocess-6cond": 6, "explain-eval": 1}


# ---------------------------------------------------------------------
# set-up: inputs from the seed
# ---------------------------------------------------------------------

@dataclass
class Inputs:
    config_path: Path
    config: ExperimentConfig
    train_rows: int
    train_windows: int
    test_lengths: dict[int, int]  # unit id -> observed cycles
    checkpoint: Path | None = None


def set_up(workload: str, seed: int, size: Size, root: Path) -> Inputs:
    """Generate the data set, write its config, and (explain-eval) a checkpoint."""
    shutil.rmtree(root, ignore_errors=True)
    k = CONDITIONS[workload]
    ds = generate_dataset(root / "data", name=f"W{k}", n_train=size.n_train,
                          n_test=size.n_test, n_conditions=k, seed=seed)
    cfg = ExperimentConfig(
        train_path=str(ds.train_path),
        test_path=str(ds.test_path),
        truth_path=str(ds.truth_path),
        k_conditions=k,
        seeds=[seed],
        out_dir=str(root / "runs"),
        **size.model,
    )
    config_path = root / "config.json"
    config_path.write_text(json.dumps(cfg.to_dict(), sort_keys=True, indent=2) + "\n",
                           encoding="utf-8")
    train = parse_cmapss(ds.train_path)
    test = parse_cmapss(ds.test_path)
    inputs = Inputs(
        config_path=config_path,
        config=cfg,
        train_rows=sum(len(t) for t in train),
        train_windows=sum(expected_sample_count(len(t), cfg.window) for t in train),
        test_lengths={t.unit_id: len(t) for t in test},
    )
    if workload == "explain-eval":
        # An untrained model costs the same to run as a trained one.
        model = RulModel(**cfg.model_kwargs(), init_rng=generator(seed, "init"))
        cm = cluster_conditions(train, cfg.k_conditions, seed=seed)
        inputs.checkpoint = root / CHECKPOINT_FILE
        save_bundle(inputs.checkpoint, model, cm, cfg.to_dict())
    return inputs


# ---------------------------------------------------------------------
# operations: one in-process `rulnet` call each, with output checks
# ---------------------------------------------------------------------

@dataclass
class Op:
    kind: str
    wall_s: float
    nominal_s: float  # wall time at nominal host speed
    items: int
    ok: bool
    detail: dict = field(default_factory=dict)


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def call_rulnet(argv: list[str], speed: HostSpeed) -> tuple[int, float, float]:
    """Run ``rulnet <argv>`` in-process.

    Returns the exit code, the wall seconds and the seconds at nominal
    host speed.
    """
    sink = io.StringIO()
    mark = speed.mark()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback is a failed operation, not a harness crash
        traceback.print_exc()
        code = -1
    wall = time.perf_counter() - started
    return code, wall, speed.adjust(wall, mark)


def checked(kind: str, argv: list[str], items: int, check, speed: HostSpeed) -> Op:
    code, wall, nominal = call_rulnet(argv, speed)
    op = Op(kind, wall, nominal, items, ok=False)
    try:
        require(code == 0, f"exit code {code}")
        op.detail = check() or {}
        op.ok = True
    except (CheckFailed, RulnetError, OSError, ValueError, KeyError, IndexError) as exc:
        print(f"check failed: {kind}: {type(exc).__name__}: {exc}", file=sys.stderr)
    # Leave no garbage of this call for the next one's collector to pay for.
    gc.collect()
    return op


def finite_csv(path: Path, columns: int) -> np.ndarray:
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, dtype=np.float64)
    require(table.shape[1] == columns, f"{path.name}: {table.shape[1]} columns")
    require(bool(np.isfinite(table).all()), f"{path.name}: non-finite values")
    return table


def count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


def train_op(inp: Inputs, size: Size, out: Path, speed: HostSpeed) -> Op:
    shutil.rmtree(out, ignore_errors=True)  # no stale artifacts for train to reuse
    argv = ["train", "--config", str(inp.config_path), "--out", str(out),
            "--max-epochs", str(TRAIN_EPOCHS),
            "--early-stop-patience", str(TRAIN_EPOCHS + 1)]

    def check():
        log = finite_csv(out / "training_log.csv", 3)
        require(len(log) == TRAIN_EPOCHS, f"{len(log)} epochs logged")
        require(log[-1, 1] < log[0, 1], f"loss did not fall: {log[0, 1]} -> {log[-1, 1]}")
        model = load_bundle(out / CHECKPOINT_FILE).model
        probe = generator(0, "probe").standard_normal((4, model.n_features, model.window))
        require(bool(np.isfinite(model.predict(probe)).all()), "checkpoint predicts non-finite")
        return {"val_rmse": float(log[-1, 2])}

    return checked("train", argv, inp.train_windows * TRAIN_EPOCHS, check, speed)


def preprocess_op(inp: Inputs, out: Path, speed: HostSpeed) -> Op:
    shutil.rmtree(out, ignore_errors=True)
    argv = ["preprocess", "--config", str(inp.config_path), "--out", str(out)]

    def check():
        summary = json.loads((out / "preprocess_summary.json").read_text(encoding="utf-8"))
        require(summary["train_rows"] == inp.train_rows, f"train_rows {summary['train_rows']}")
        require(summary["train_samples"] == inp.train_windows,
                f"train_samples {summary['train_samples']}")
        require(summary["conditions"] == inp.config.k_conditions, "condition count")
        cm = ConditionModel.load_text(out / cli.CONDITION_MODEL_FILE)
        require(cm.k == inp.config.k_conditions and bool(np.isfinite(cm.means).all()),
                "condition model")
        windows = out / cli.WINDOWS_FILE
        with open(windows, encoding="utf-8") as fh:
            require(fh.readline() == "windows v1\n", "windows header")
            meta = fh.readline().split()
        require(int(meta[5]) == inp.train_windows, f"windows count {meta[5]}")
        require(count_lines(windows) == inp.train_windows + 2, "windows line count")

    return checked("preprocess", argv, inp.train_rows, check, speed)


def evaluate_op(inp: Inputs, out: Path, speed: HostSpeed) -> Op:
    shutil.rmtree(out, ignore_errors=True)
    argv = ["evaluate", "--checkpoint", str(inp.checkpoint), "--out", str(out)]
    n_units = len(inp.test_lengths)

    def check():
        metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
        require(metrics["n_units"] == n_units, f"n_units {metrics['n_units']}")
        require(math.isfinite(metrics["rmse"]), "rmse not finite")
        require(len(finite_csv(out / "predictions.csv", 4)) == n_units, "prediction rows")

    return checked("evaluate", argv, n_units, check, speed)


def explain_op(inp: Inputs, unit: int, heads: int, out: Path, speed: HostSpeed) -> Op:
    argv = ["explain", "--checkpoint", str(inp.checkpoint), "--unit", str(unit),
            "--out", str(out)]
    cycles = inp.test_lengths[unit]
    shutil.rmtree(out, ignore_errors=True)

    def check():
        rows = count_lines(out / "attention_feature.csv") - 1
        require(rows == cycles * (heads + 1) * N_CHANNELS**2, f"{rows} attention rows")
        sums = finite_csv(out / "attention_cycle_sums.csv", 3)
        require(len(sums) == cycles * N_CHANNELS, "cycle-sum rows")
        per_cycle = np.bincount(sums[:, 0].astype(np.int64), weights=sums[:, 2])[1:]
        # Each head-averaged matrix is row-stochastic in float32: its
        # column sums total the channel count.
        require(bool(np.allclose(per_cycle, N_CHANNELS, rtol=1e-5, atol=0.0)),
                f"weight sums off by {np.abs(per_cycle - N_CHANNELS).max():.3g}")
        require(len(finite_csv(out / "predictions.csv", 5)) == cycles, "prediction rows")

    return checked("explain", argv, cycles, check, speed)


def explain_units(inp: Inputs, count: int) -> list[int]:
    """The ``count`` test units whose length is nearest the median length.

    Per-call time grows with a unit's cycle count, so picking typical
    units keeps the per-call figure comparable across seeds.
    """
    median = statistics.median(inp.test_lengths.values())
    ranked = sorted(inp.test_lengths, key=lambda u: (abs(inp.test_lengths[u] - median), u))
    return sorted(ranked[:count])


# ---------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------

MAIN_KIND = {"train-fd001": "train", "preprocess-6cond": "preprocess", "explain-eval": "explain"}
ITEM_NAME = {
    "train-fd001": "train.samples_per_s",
    "preprocess-6cond": "prepare.rows_per_s",
    "explain-eval": "explain.cycles_per_s",
}


def run_loop(workload: str, inp: Inputs, size: Size, seconds: float, work: Path,
             speed: HostSpeed) -> list[Op]:
    """One caller, next operation only after the previous one: a closed loop."""
    ops: list[Op] = []
    heads = inp.config.effective_heads()[0]
    units = explain_units(inp, size.explain_units)
    started = time.perf_counter()
    while True:
        if workload == "train-fd001":
            ops.append(train_op(inp, size, work / "train", speed))
        elif workload == "preprocess-6cond":
            ops.append(preprocess_op(inp, work / "preprocess", speed))
        else:
            ops.append(evaluate_op(inp, work / "evaluate", speed))
            for unit in units:
                ops.append(explain_op(inp, unit, heads, work / "explain", speed))
        if time.perf_counter() - started >= seconds:
            return ops


def percentile_name(n: int) -> tuple[str, float] | None:
    """Highest of p90/p99 with at least ten samples beyond it."""
    for label, q in (("p99", 0.99), ("p90", 0.90)):
        if n * (1.0 - q) >= 10:
            return label, q
    return None


def loop_report(workload: str, ops: list[Op], speed: HostSpeed) -> dict:
    """Readable lines in wall-clock time; metrics at nominal host speed."""
    main = [op for op in ops if op.kind == MAIN_KIND[workload]]
    walls = [op.wall_s for op in main]
    lines = {
        ITEM_NAME[workload]: (sum(op.items for op in main) / sum(walls), "1/s"),
        f"{MAIN_KIND[workload]}.call_s.p50": (statistics.median(walls), "s"),
    }
    tail = percentile_name(len(walls))
    if tail:
        lines[f"{MAIN_KIND[workload]}.call_s.{tail[0]}"] = (float(np.quantile(walls, tail[1])), "s")
    if workload == "train-fd001":
        lines["train.val_rmse"] = (main[-1].detail.get("val_rmse", math.nan), "RUL")
    if workload == "explain-eval":
        evals = [op for op in ops if op.kind == "evaluate"]
        lines["evaluate.units_per_s"] = (
            sum(op.items for op in evals) / sum(op.wall_s for op in evals), "1/s")
    attempted = len(ops)
    failed = sum(not op.ok for op in ops)
    lines["error_rate"] = (failed / attempted, "1")
    for name, (value, unit) in lines.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"samples: {len(main)} {MAIN_KIND[workload]} calls"
          + ("" if tail else " (too few for a tail percentile)")
          + f", {attempted} operations")
    print(f"host speed factor {speed.factor():.4f} over {len(speed.samples)} kernel samples")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "items_per_s": {
                "value": sum(op.items for op in main) / sum(op.nominal_s for op in main),
                "unit": "1/s",
            },
            "call_s.p50": {"value": statistics.median(op.nominal_s for op in main), "unit": "s"},
        },
    }


def print_inputs(args: argparse.Namespace, size: Size, inp: Inputs) -> None:
    shape = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "conditions": inp.config.k_conditions,
        "train_units": size.n_train,
        "train_rows": inp.train_rows,
        "train_windows": inp.train_windows,
        "test_units": len(inp.test_lengths),
        "test_cycles": sum(inp.test_lengths.values()),
        "explain_units": explain_units(inp, size.explain_units),
    }
    print("env " + json.dumps(environment.describe(), sort_keys=True))
    print("workload " + json.dumps(shape, sort_keys=True))


# ---------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=tuple(CONDITIONS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()
    size = FULL if args.size == "full" else TINY

    if args.trace:
        inp = set_up(args.workload, args.seed, size, args.work / "setup")
        print_inputs(args, size, inp)
        result = layers.traced_run(inp.config, explain_units(inp, 1)[0], size.probe,
                                   args.work / "probe", args.work / "spans.json")
    else:
        with HostSpeed() as speed:
            setup_walls, setups = [], []
            for i in range(SETUP_REPEATS):
                mark = speed.mark()
                started = time.perf_counter()
                inp = set_up(args.workload, args.seed, size, args.work / f"setup{i}")
                setup_walls.append(time.perf_counter() - started)
                setups.append(speed.adjust(setup_walls[-1], mark))
            print_inputs(args, size, inp)
            ops = run_loop(args.workload, inp, size, args.seconds, args.work, speed)
        result = loop_report(args.workload, ops, speed)
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        print(f"setup_s {statistics.median(setup_walls):.6g} s (median of {SETUP_REPEATS})")
    args.result.write_text(json.dumps(result, sort_keys=True), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
