"""Traced layer pipeline: per-layer metrics and tracing overhead.

The pipeline calls each rulnet layer's public functions directly, the
way ``preprocess``, ``train``, ``evaluate`` and ``explain`` do, on the
workload's data set: data (parse, cluster, normalize, window, windows
artifact), model blocks (forward and backward each), autodiff and
training (the ``fit`` step loop), checkpoint and evaluation.  Every call
sits in a span.  It runs twice in one process, once with spans off and
once with spans on; the difference in wall time is the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import shutil
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from rulnet import autodiff as ad
from rulnet.autodiff import Tape, Tensor
from rulnet.checkpoint import load_bundle, save_bundle
from rulnet.config import ExperimentConfig
from rulnet.data import (
    N_CHANNELS,
    cluster_conditions,
    load_windows,
    normalize,
    parse_cmapss,
    parse_rul_truth,
    save_windows,
    window_split,
    windows_to_arrays,
)
from rulnet.evaluation import export_attention, predict_test_set, write_attention_csvs
from rulnet.model import RulModel
from rulnet.seeding import generator
from rulnet.training import AdamState, adam_step, mse_loss, predict_batched, split_units

MB = float(1 << 20)
BLOCKS = ("feature_attention", "sequence_attention", "lstm", "head")
B256_CALLS = 5
BUNDLE_REPEATS = 5


@dataclass(frozen=True)
class ProbeSize:
    train_steps: int = 30
    block_repeats: int = 5
    b1_calls: int = 40
    sgemm_repeats: int = 20


class Tracer:
    """In-memory spans of one run: (name, start, end, parent span index).

    With ``enabled=False`` every span is a no-op, so the same pipeline
    code gives the untraced timing.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._open: list[int] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def median_s(self, name: str) -> float:
        return statistics.median(self.durations(name))

    def dump(self, path: Path) -> None:
        records = [
            {"id": i, "name": n, "start": s, "end": e, "parent": p}
            for i, (n, s, e, p) in enumerate(self.spans)
        ]
        path.write_text(json.dumps(records), encoding="utf-8")


# ---------------------------------------------------------------------
# floors: matmul FLOPs of each block at the measured sgemm rate
# ---------------------------------------------------------------------

def _attention_flops(batch: int, tokens: int, width: int) -> float:
    # q, k, v and output projections, plus q·kᵀ and weights·v; the head
    # count cancels because heads split the width.
    return batch * (8.0 * tokens * width * width + 4.0 * tokens * tokens * width)


def forward_flops(cfg: ExperimentConfig, batch: int) -> dict[str, float]:
    f, t, h, m = N_CHANNELS, cfg.window, cfg.lstm_hidden, cfg.mlp_hidden
    lstm = 2.0 * batch * t * 4 * h * (f + (cfg.lstm_layers - 1) * h)  # input GEMMs
    lstm += cfg.lstm_layers * (t - 1) * 2.0 * batch * h * 4 * h  # recurrent GEMMs
    return {
        "feature_attention": _attention_flops(batch, f, t),
        "sequence_attention": _attention_flops(batch, t, f),
        "lstm": lstm,
        "head": 2.0 * batch * (h * m + m),
    }


def sgemm_gflops(tr: Tracer, cfg: ExperimentConfig, repeats: int) -> float:
    """float32 GEMM rate at one LSTM layer's shapes: one (B·T)×H×4H input
    GEMM plus T-1 B×H×4H recurrent GEMMs, median over repeats."""
    b, t, h = cfg.batch_size, cfg.window, cfg.lstm_hidden
    rng = generator(0, "sgemm")
    w = rng.standard_normal((h, 4 * h)).astype(np.float32)
    big = rng.standard_normal((b * t, h)).astype(np.float32)
    small = rng.standard_normal((b, h)).astype(np.float32)
    out_big = np.empty((b * t, 4 * h), np.float32)
    out_small = np.empty((b, 4 * h), np.float32)
    flops = 2.0 * b * t * h * 4 * h + (t - 1) * 2.0 * b * h * 4 * h
    times = []
    for _ in range(repeats + 1):  # the first round warms up
        with tr.span("env.sgemm"):
            started = time.perf_counter()
            np.matmul(big, w, out=out_big)
            for _ in range(t - 1):
                np.matmul(small, w, out=out_small)
            times.append(time.perf_counter() - started)
    return flops / statistics.median(times[1:]) / 1e9


# ---------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------

def _time_blocks(tr: Tracer, model: RulModel, xb: np.ndarray, repeats: int) -> None:
    """Forward and backward of each block on its own tape, on the
    activations the previous block produced."""
    rng = generator(0, "block-dropout")
    calls = {
        "feature_attention": model.apply_feature_attention,
        "sequence_attention": model.apply_sequence_attention,
        "lstm": model.lstm,
        "head": lambda x: model.head(x, True, rng),
    }
    for _ in range(repeats):
        data = xb
        for name in BLOCKS:
            # The model input is data; later inputs carry gradient, as in training.
            x = Tensor(data, requires_grad=name != "feature_attention")
            with Tape() as tape:
                with tr.span(f"model.{name}.fwd"):
                    out = calls[name](x)
                weight = Tensor(np.full(out.shape, 1.0 / out.size, dtype=out.dtype))
                loss = ad.mean(ad.mul(out, weight))
            with tr.span(f"model.{name}.bwd"):
                tape.backward(loss)
            model.zero_grad()
            data = out.data


def pipeline(tr: Tracer, cfg: ExperimentConfig, unit: int, size: ProbeSize, work: Path) -> dict:
    """Run every layer once over the workload's data; returns counts and sizes."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    seed = cfg.seeds[0]
    facts: dict = {"failed_checks": 0}

    def check(ok: bool) -> None:
        facts["failed_checks"] += not ok

    facts["sgemm_gflops"] = sgemm_gflops(tr, cfg, size.sgemm_repeats)

    # data: what `preprocess` does, then the windows artifact round trip
    with tr.span("data.parse_cmapss"):
        train = parse_cmapss(cfg.train_path)
    with tr.span("data.cluster_conditions"):
        cm = cluster_conditions(train, cfg.k_conditions, seed=seed)
    with tr.span("data.normalize"):
        normed = [normalize(t, cm) for t in train]
    with tr.span("data.window_split"):
        samples = [s for t in normed for s in window_split(t, cfg.window, cfg.r_max)]
    with tr.span("data.windows_to_arrays"):
        x_all, y_all, units_all, _ = windows_to_arrays(samples)
    windows_path = work / "windows_train.txt"
    with tr.span("data.save_windows"):
        save_windows(samples, windows_path)
    with tr.span("data.load_windows"):
        check(len(load_windows(windows_path)) == len(samples))
    facts["windows_file_mb"] = windows_path.stat().st_size / MB
    windows_path.unlink()

    # model blocks, then the `fit` step loop
    tc = cfg.train_config(seed)
    model = RulModel(**cfg.model_kwargs(), init_rng=generator(seed, "init"))
    _, val_units = split_units(units_all, tc.validation_fraction, seed)
    in_val = np.isin(units_all, val_units)
    x_train, y_train = x_all[~in_val], y_all[~in_val]
    x_val = x_all[in_val]
    _time_blocks(tr, model, x_train[: tc.batch_size], size.block_repeats)

    params = [p for _, p in model.parameters()]
    state = AdamState(params)
    order = generator(seed, "shuffle").permutation(len(x_train))
    dropout_rng = generator(seed, "dropout")
    n_batches = -(-len(order) // tc.batch_size)
    full_collections = 0

    def count_full(phase: str, info: dict) -> None:
        nonlocal full_collections
        full_collections += phase == "start" and info["generation"] == 2

    nodes, losses = [], []
    gc.callbacks.append(count_full)
    try:
        for step in range(size.train_steps):
            start = (step % n_batches) * tc.batch_size
            idx = order[start : start + tc.batch_size]
            with tr.span("training.step"):
                xb = Tensor(x_train[idx].astype(model.dtype, copy=False))
                yb = Tensor(y_train[idx].astype(model.dtype, copy=False))
                with Tape() as tape:
                    with tr.span("model.forward"):
                        pred = model.forward(xb, training=True, dropout_rng=dropout_rng)
                        loss = mse_loss(pred, yb)
                with tr.span("autodiff.backward"):
                    tape.backward(loss)
                with tr.span("training.adam_step"):
                    adam_step(params, state, tc.learning_rate)
                model.zero_grad()
            nodes.append(len(tape))
            losses.append(loss.item())
    finally:
        gc.callbacks.remove(count_full)
    check(bool(np.isfinite(losses).all()))
    facts["tape_nodes_per_step"] = statistics.median(nodes)
    facts["gc_full_per_100_steps"] = 100.0 * full_collections / size.train_steps
    with tr.span("training.validation"):
        check(bool(np.isfinite(predict_batched(model, x_val)).all()))

    # inference at batch 1 (attention export) and batch 256 (evaluate)
    for i in range(size.b1_calls):
        with tr.span("model.predict_b1"):
            model.predict(x_val[i % len(x_val)])
    for _ in range(B256_CALLS):
        with tr.span("model.predict_b256"):
            model.predict(x_val[:256])

    # checkpoint round trip
    bundle_path = work / "checkpoint.bin"
    for _ in range(BUNDLE_REPEATS):
        with tr.span("checkpoint.save_bundle"):
            save_bundle(bundle_path, model, cm, cfg.to_dict())
        with tr.span("checkpoint.load_bundle"):
            bundle = load_bundle(bundle_path)
    facts["bundle_mb"] = bundle_path.stat().st_size / MB

    # evaluation: test-set report, then one unit's attention export
    test = parse_cmapss(cfg.test_path)
    truth = parse_rul_truth(cfg.truth_path)
    with tr.span("evaluation.predict_test_set"):
        report = predict_test_set(bundle, test, truth)
    check(len(report.records) == len(test) and np.isfinite(report.rmse))
    trajectory = next(t for t in test if t.unit_id == unit)
    with tr.span("evaluation.export_attention"):
        export = export_attention(bundle, trajectory)
    facts["export_cycles"] = len(export.predictions)
    check(facts["export_cycles"] == len(trajectory))
    with tr.span("evaluation.write_attention_csvs"):
        paths = write_attention_csvs(export, work / "explain")
    facts["attention_csv_mb"] = sum(p.stat().st_size for p in paths.values()) / MB
    shutil.rmtree(work, ignore_errors=True)
    return facts


# ---------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------

def _ms(seconds: float) -> float:
    return 1e3 * seconds


def per_layer_metrics(tr: Tracer, facts: dict, cfg: ExperimentConfig) -> dict[str, tuple[float, str]]:
    m: dict[str, tuple[float, str]] = {}
    backward = tr.durations("autodiff.backward")
    steps = tr.durations("training.step")
    m["autodiff.tape_nodes_per_step"] = (facts["tape_nodes_per_step"], "count")
    m["autodiff.backward_ms.p50"] = (_ms(np.quantile(backward, 0.5)), "ms")
    m["autodiff.backward_ms.p90"] = (_ms(np.quantile(backward, 0.9)), "ms")
    m["autodiff.gc_full_collections_per_100_steps"] = (facts["gc_full_per_100_steps"], "count")

    gflops = facts["sgemm_gflops"]
    m["env.sgemm_gflops"] = (gflops, "GFLOP/s")
    flops = forward_flops(cfg, cfg.batch_size)
    for name in BLOCKS:
        m[f"model.{name}.fwd_ms"] = (_ms(tr.median_s(f"model.{name}.fwd")), "ms")
        m[f"model.{name}.bwd_ms"] = (_ms(tr.median_s(f"model.{name}.bwd")), "ms")
        # Backward does two GEMMs per forward GEMM: 3x the forward FLOPs.
        m[f"model.{name}.floor_ms"] = (_ms(3.0 * flops[name] / (gflops * 1e9)), "ms")
    m["model.predict_b1_ms.p50"] = (_ms(tr.median_s("model.predict_b1")), "ms")
    m["model.predict_b256_ms"] = (_ms(tr.median_s("model.predict_b256")), "ms")

    m["training.step_ms.p50"] = (_ms(np.quantile(steps, 0.5)), "ms")
    m["training.step_ms.p90"] = (_ms(np.quantile(steps, 0.9)), "ms")
    m["training.adam_step_ms"] = (_ms(tr.median_s("training.adam_step")), "ms")
    m["training.validation_s"] = (tr.median_s("training.validation"), "s")

    for name in ("parse_cmapss", "cluster_conditions", "normalize", "window_split",
                 "windows_to_arrays", "save_windows", "load_windows"):
        m[f"data.{name}_s"] = (tr.median_s(f"data.{name}"), "s")
    m["data.windows_file_mb"] = (facts["windows_file_mb"], "MB")

    m["checkpoint.save_bundle_ms"] = (_ms(tr.median_s("checkpoint.save_bundle")), "ms")
    m["checkpoint.load_bundle_ms"] = (_ms(tr.median_s("checkpoint.load_bundle")), "ms")
    m["checkpoint.bundle_mb"] = (facts["bundle_mb"], "MB")

    m["evaluation.predict_test_set_ms"] = (_ms(tr.median_s("evaluation.predict_test_set")), "ms")
    m["evaluation.export_attention_ms_per_cycle"] = (
        _ms(tr.median_s("evaluation.export_attention")) / facts["export_cycles"], "ms")
    m["evaluation.write_attention_csvs_s"] = (tr.median_s("evaluation.write_attention_csvs"), "s")
    m["evaluation.attention_csv_mb"] = (facts["attention_csv_mb"], "MB")
    return m


def traced_run(cfg: ExperimentConfig, unit: int, size: ProbeSize, work: Path,
               spans_path: Path) -> dict:
    """Untraced then traced pipeline; per-layer metrics from the traced one."""
    gc.collect()
    started = time.perf_counter()
    untraced_facts = pipeline(Tracer(enabled=False), cfg, unit, size, work)
    untraced_s = time.perf_counter() - started

    gc.collect()
    tracer = Tracer(enabled=True)
    started = time.perf_counter()
    facts = pipeline(tracer, cfg, unit, size, work)
    traced_s = time.perf_counter() - started
    tracer.dump(spans_path)

    metrics = per_layer_metrics(tracer, facts, cfg)
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    for name, (value, unit_name) in metrics.items():
        print(f"{name} {value:.6g} {unit_name}")
    steps = tracer.durations("training.step")
    self_ms = [_ms(s - f - b - a) for s, f, b, a in zip(
        steps,
        tracer.durations("model.forward"),
        tracer.durations("autodiff.backward"),
        tracer.durations("training.adam_step"),
    )]
    print(f"training.step self time p50 {statistics.median(self_ms):.3f} ms; "
          f"pipeline traced {traced_s:.3f} s, untraced {untraced_s:.3f} s")
    failed = untraced_facts["failed_checks"] + facts["failed_checks"]
    return {
        "correct": failed == 0,
        "attempted": len(tracer.spans),
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }
