"""Measure the baseline: every workload over ten seeds, plus one traced run each.

    python3 perfbench/baseline.py [--seeds 101-110]

For each end-to-end metric it records the ten values, their median and
the interquartile range as a share of the median (the spread), next to
the environment and the workload shapes the runs printed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-1])
    record["run_s"] = time.perf_counter() - started
    for line in lines:
        key, _, rest = line.partition(" ")
        if key in ("env", "workload"):
            record[key] = json.loads(rest)
    return record


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="101-110", help="first-last, inclusive")
    args = parser.parse_args()
    first, _, last = args.seeds.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    report: dict = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, spec["run_seconds"], 0))
            print(workload, seed, json.dumps(runs[-1]["metrics"]), flush=True)
        traced = run_once(workload, seeds[0], spec["run_seconds"], 1)
        report["env"] = runs[0]["env"]
        report["workloads"][workload] = {
            "all_correct": all(r["correct"] for r in runs + [traced]),
            "error_rate": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
            "shapes": [r["workload"] for r in runs],
            "run_s": [round(r["run_s"], 1) for r in runs],
            "end_to_end": {
                m["name"]: dict(spread([r["metrics"][m["name"]]["value"] for r in runs]),
                                unit=m["unit"],
                                values=[r["metrics"][m["name"]]["value"] for r in runs])
                for m in spec["end_to_end"]
            },
            "per_layer_seed": seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "traced_run_s": round(traced["run_s"], 1),
        }
        text = json.dumps(report, indent=1, sort_keys=True) + "\n"
        (HERE / "baseline.json").write_text(text, encoding="utf-8")
    for workload, entry in report["workloads"].items():
        for name, stats in entry["end_to_end"].items():
            print(f"{workload} {name}: median {stats['median']:.6g} {stats['unit']}, "
                  f"spread {stats['iqr_share']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
