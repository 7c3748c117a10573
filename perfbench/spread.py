"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads W ...] [--seeds 10] [--first-seed 1]
                                [--trace 0|1] [--out FILE]

Run from the root of a degdet checkout.  For every workload (default: all
of BENCHMARK.json's) it runs perfbench/run.py once per seed, one run at a
time, then prints every metric by name and unit with its median, quartiles
(statistics.quantiles, n=4) and the quartile distance as a share of the
median, next to the bound BENCHMARK.json fixes.  A metric whose spread
is above a third of its bound is flagged and makes the exit status 1.
With --trace 0 it also summarizes the measured, unscaled times each run
prints as a comment, under the metric's name with a "measured." prefix,
unflagged.  --out writes the runs, the summary and the run context as JSON,
e.g. a new baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MEASURED = "# measured, unscaled: "


def summarize(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else float("nan")}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout.strip()
    document = {
        "context": {"python": platform.python_version(), "nproc": os.cpu_count(), "commit": commit or "unknown",
                    "run_seconds": spec["run_seconds"], "trace": args.trace,
                    "seeds": list(range(args.first_seed, args.first_seed + args.seeds))},
        "workloads": {},
    }
    status = 0
    for workload in args.workloads:
        runs = []
        for seed in document["context"]["seeds"]:
            done = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                return 1
            lines = done.stdout.splitlines()
            result = json.loads(lines[-1])
            result["seed"] = seed
            for line in lines:
                if line.startswith(MEASURED):
                    result["measured"] = {name: float(value) for name, value in
                                          (pair.split("=") for pair in line[len(MEASURED):].split())}
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']}"
                  f" failed={result['failed']}", file=sys.stderr, flush=True)
        summary = {}
        for name, first in runs[0]["metrics"].items():
            summary[name] = summarize([run["metrics"][name]["value"] for run in runs]) | {"unit": first["unit"]}
        for name in runs[0].get("measured", {}):
            if name.endswith("_s"):
                summary[f"measured.{name}"] = summarize([run["measured"][name] for run in runs]) | {"unit": "s"}
        for name, row in summary.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and row["spread"] > bound / 3:
                flag = "  SPREAD ABOVE BOUND/3"
                status = 1
            print(f"{workload:14} {name:48} {row['median']:12.6g} {row['unit']:6} q1={row['q1']:.6g}"
                  f" q3={row['q3']:.6g} spread={row['spread']:.4f} bound={bound}{flag}")
        if not all(run["correct"] for run in runs):
            status = 1
        document["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        args.out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
