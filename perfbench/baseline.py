"""Run the benchmark on several seeds and summarise each end-to-end metric.

    python3 perfbench/baseline.py --seeds 1-10 [--workloads tr_short,...] [--out FILE]

Runs ``perfbench/run.py --trace 0`` once per (workload, seed), one after the
other, for the ``run_seconds`` of ``BENCHMARK.json``, and prints per workload
and metric the median, the quartiles from ``statistics.quantiles(values, n=4)``
and the spread: the distance between the quartiles as a share of the median.
With ``--out`` it also writes the summary and every run's metrics as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--out")
    args = parser.parse_args()

    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs, summary, environment, ok = [], {}, None, True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in _seeds(args.seeds):
            t0 = time.time()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if environment is None:
                report = next(json.loads(x[7:]) for x in lines if x.startswith("report "))
                environment = {k: v for k, v in report["environment"].items() if k != "seed"}
            ok &= proc.returncode == 0 and result["correct"]
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            runs.append({"workload": workload, "seed": seed, "exit": proc.returncode,
                         "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"], "wall_s": time.time() - t0,
                         "metrics": metrics})
            for name, value in metrics.items():
                values.setdefault(name, []).append(value)
        summary[workload] = {name: summarize(v) for name, v in values.items()}
        for name, s in summary[workload].items():
            flag = "" if s["spread"] <= bounds[name] / 3 else "  > bound/3"
            print(f"{workload:14s} {name:16s} median {s['median']:12.5g} "
                  f"spread {s['spread']:.4f} (bound {bounds[name]}){flag}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seconds": seconds, "environment": environment,
                       "summary": summary, "runs": runs}, fh, indent=2)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
