"""Benchmark entry point for rulnet.

    python3 perfbench/run.py --workload train-fd001 --seed 1 --seconds 10 --trace 0

Runs one workload in a child process (``worker.py``) so that peak memory
is the workload's own, with BLAS pinned to one thread before numpy is
imported.  Prints human-readable lines, then as its last line one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones from a traced run of the layer pipeline.

Run it from a checkout of the repository: it imports ``rulnet`` from
``src/`` and writes scratch files only under ``.perfbench_work/``.  It
exits non-zero without printing a result when the harness itself cannot
run (for example, when ``src/rulnet`` is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("train-fd001", "preprocess-6cond", "explain-eval")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 175


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long smoke run for the harness's own tests")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "rulnet" / "__init__.py").is_file():
        print(f"perfbench: no rulnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.size}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result_path = work / "result.json"

    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", args.size, "--work", str(work), "--result", str(result_path),
    ]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print(f"perfbench: worker exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    if proc.returncode != 0 or not result_path.is_file():
        print(f"perfbench: worker exited with code {proc.returncode}", file=sys.stderr)
        return 3

    result = json.loads(result_path.read_text(encoding="utf-8"))
    # Work files can be hundreds of MB (the windows artifact); keep only
    # the result and the span dump.
    for child in work.iterdir():
        if child.is_dir():
            shutil.rmtree(child, ignore_errors=True)
    if args.trace == 0:
        # ru_maxrss is in KiB on Linux; the worker is the only child.
        peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["metrics"]["peak_rss_mb"] = {"value": peak_kib / 1024.0, "unit": "MB"}
        print(f"peak_rss_mb {peak_kib / 1024.0:.1f} MB (worker process)")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
