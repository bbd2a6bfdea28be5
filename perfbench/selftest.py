"""Self-test of the benchmark: tiny runs of every workload, both modes.

    python3 perfbench/selftest.py

For each workload, runs ``run.py --smoke`` (a few hundred heartbeats)
untraced and traced, and asserts that the correctness gate passed, no
operation failed, and every metric named in ``BENCHMARK.json`` was
printed with its unit.  Then checks that the benchmark refuses to run,
printing no result, in a directory holding only ``BENCHMARK.json`` and
the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            done = run(ROOT, "--workload", workload, "--seed", "7",
                       "--seconds", "1", "--trace", str(trace), "--smoke")
            assert done.returncode == 0, done.stderr
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True, done.stderr
            assert result["failed"] == 0 and result["attempted"] >= 1
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            assert printed == expected[trace], (workload, trace, printed)
            assert all(
                isinstance(v["value"], (int, float))
                for v in result["metrics"].values()
            )
            print(f"ok  {workload} trace={trace}")

    bare = ROOT / ".perfbench-run" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench")
        done = run(bare, "--workload", "solo", "--seed", "1",
                   "--seconds", "1", "--trace", "0")
        assert done.returncode != 0, "ran without the program's source"
        assert '"metrics"' not in done.stdout, "printed a result anyway"
        print("ok  refuses to run without the program's source")
    finally:
        shutil.rmtree(bare)
        try:
            bare.parent.rmdir()
        except OSError:
            pass  # a run in progress shares the directory
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
