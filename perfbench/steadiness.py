"""Spread of every end-to-end metric over interleaved runs.

    python3 perfbench/steadiness.py --runs 10 --out perfbench/evidence/set1.json

Runs ``run.py`` once per (seed, workload), seeds from
:data:`FIRST_SEED` on, cycling through every workload of
``BENCHMARK.json`` for each seed so that slow drift of the host's speed
lands on every workload alike; each run measures ``run_seconds``.  For each workload and metric it reports the
median and the spread: the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median, the figure the metric's ``bound`` in ``BENCHMARK.json`` is
checked against.
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
FIRST_SEED = 100


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {w: {} for w in workloads}
    wall = {w: [] for w in workloads}
    hosts = {w: [] for w in workloads}
    for run in range(args.runs):
        for workload in workloads:
            started = time.monotonic()
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(FIRST_SEED + run), "--seconds",
                 str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            ).stdout
            wall[workload].append(time.monotonic() - started)
            lines = out.strip().splitlines()
            result = json.loads(lines[-1])
            env = json.loads(next(l for l in lines if l.startswith("# env "))[6:])
            info = json.loads(next(l for l in lines if l.startswith("# info "))[7:])
            hosts[workload].append({
                "calibration_ms": env["calibration_ms"],
                "stolen_s": env["stolen_s"],
                "measured": info["measured"],
                "speed_factor": info["per_round"]["speed_factor"],
                "unstolen_share": info["per_round"]["unstolen_share"],
                "rounds_run": info["rounds_run"],
            })
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {FIRST_SEED + run}: FAILED", file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"run {run} {workload}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
            ), flush=True)
    report = {"runs": args.runs, "seconds": seconds, "workloads": {}}
    for workload in workloads:
        rows = {}
        for name, series in values[workload].items():
            rows[name] = {
                "median": statistics.median(series),
                "spread": spread(series),
                "bound": bounds.get(name),
                "values": series,
            }
            print(f"{workload:12s} {name:16s} median {statistics.median(series):12.4f}"
                  f"  spread {rows[name]['spread']:.3f}  bound {bounds.get(name)}")
        report["workloads"][workload] = {
            "metrics": rows,
            "max_wall_s": max(wall[workload]),
            "host": hosts[workload],
        }
        print(f"{workload:12s} longest run {max(wall[workload]):.1f} s")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
