"""The daemon's benchmark: one command, closed-loop workloads, checked outputs.

    python3 perfbench/run.py --workload solo --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each run deploys the daemon the way
users do (``python -m repro serve``, default flags, contracts on) in
several fresh rounds, drives one seeded closed-loop workload against
it, checks the outputs, and prints one JSON object as its last line.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run instead.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

import spans
from deploy import Deployment
from host import HostMeter, stolen_s, unstolen_share
from loads import WORKLOADS, GateError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Heartbeats per second of ``--seconds``.  A run's heartbeat count is
#: fixed by its arguments, never by the clock, so counts and memory
#: repeat exactly; these rates make a run last about ``--seconds`` on a
#: 2-vCPU host.
NOMINAL_RATE = {"solo": 4800, "batch": 12000, "shard-churn": 2000}

#: Fresh deployments per run.  Every end-to-end metric is the median
#: of the rounds' figures, so one round caught in a burst of host
#: contention does not move it.
ROUNDS = 5

#: A round in whose window the hypervisor stole more than this share of
#: the processes' runnable time is run again.  Stealing stalls whole
#: pipelines of dependent processes, which the unstolen share (host.py)
#: only partly corrects: in bursts that stole a quarter of the time,
#: ``shard-churn`` lost a third of its throughput.  On a quiet host the
#: share stays above 0.98.
MIN_UNSTOLEN_SHARE = 0.97

#: Extra rounds are started only while the run is younger than this,
#: so a long burst costs time, not the run; the metrics then take the
#: ROUNDS least-stolen rounds.
RERUN_UNTIL_S = 90.0

#: Work of the calibration slice run just before each launch and of
#: the one just after the deployment is ready, in ordinary slices.
SETUP_SLICE_REPEAT = 4

#: Heartbeats per round in ``--smoke`` mode (the self-test).
SMOKE_HEARTBEATS = {"solo": 300, "batch": 2048, "shard-churn": 2400}

#: p99 is not among them: on a shared 2-vCPU VM scheduling hiccups set
#: the tail, and the p99 of one-heartbeat frames spread by 0.28-0.59 of
#: its median between runs.  It is printed on the ``# info`` line.
END_TO_END = {
    "steps_per_s": "1/s",
    "p50_ms": "ms",
    "cpu_us_per_step": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "protocol.us_per_step": "us",
    "server.handle_self_us": "us",
    "server.uncovered_us_per_req": "us",
    "core.step_us": "us",
    "enforce.observe_us": "us",
    "enforce.transitions": "1/kstep",
    "sessions.step_self_us": "us",
    "sessions.rebalance_us": "us",
    "sessions.rebalances_per_kstep": "1/kstep",
    "sessions.open_us": "us",
    "sessions.close_us": "us",
    "state.capture_us": "us",
    "state.apply_us": "us",
    "state.warm_hit_ratio": "ratio",
    "lease.moves_per_open": "count",
    "shard.router_self_us_per_req": "us",
    "shard.admin_reqs_per_kstep": "1/kstep",
    "shard.plan_rebalance_us": "us",
    "telemetry.us_per_step": "us",
    "mem.retained_b_per_step": "B",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def calibration_ms() -> float:
    """A short pure-Python loop before and after a run, recorded only."""
    started = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return (time.perf_counter() - started) * 1e3


def percentile(values: List[int], fraction: float) -> float:
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(fraction * len(ordered)))])


class Round:
    """One fresh deployment: set up, measure one window, check, tear down.

    ``host`` holds the calibration slices interleaved with the window's
    load and ``setup_host`` those around the set-up (see ``host.py``).
    """

    def __init__(self, load, run_dir: Path):
        self.load = load
        self.run_dir = run_dir

    def run(self, launcher: Path = None, extra_env: Dict[str, str] = None):
        deployment = Deployment(
            SRC, self.run_dir, self.load.shards, launcher, extra_env
        )
        readings: Dict[str, Any] = {}
        self.host = HostMeter()
        self.setup_host = HostMeter(SETUP_SLICE_REPEAT)

        def mark(window) -> None:
            if not window.start_ns:
                readings["cpu0"] = deployment.cpu_by_pid()
                readings["rss0"] = deployment.rss_bytes()
                readings["client0"] = time.process_time()
                readings["stolen0"] = stolen_s()
                self.host.slice()
                window.start_ns = time.monotonic_ns()
            else:
                window.end_ns = time.monotonic_ns()
                self.host.slice()
                readings["stolen1"] = stolen_s()
                readings["client1"] = time.process_time()
                readings["cpu1"] = deployment.cpu_by_pid()
                readings["rss1"] = deployment.rss_bytes()
                readings["hwm_mb"] = deployment.peak_rss_mb()

        try:
            self.setup_host.slice()
            client, stolen = time.process_time(), stolen_s()
            started = time.perf_counter()
            deployment.start()
            deployment.wait_ready()
            self.load.open()
            self.setup_s = time.perf_counter() - started
            stolen = stolen_s() - stolen
            client = time.process_time() - client
            self.setup_share = unstolen_share(
                client + sum(deployment.cpu_by_pid().values()), stolen
            )
            self.setup_host.slice()
            self.contracts = deployment.contracts_env()
            self.window = self.load.run(mark, self.host.slice)
            self.load.finish()
        finally:
            deployment.stop()
        self.cpu_by_pid = {
            pid: readings["cpu1"][pid] - readings["cpu0"][pid]
            for pid in readings["cpu0"]
        }
        self.cpu_s = sum(self.cpu_by_pid.values())
        self.share = unstolen_share(
            self.cpu_s + readings["client1"] - readings["client0"],
            readings["stolen1"] - readings["stolen0"],
        )
        self.rss_growth = readings["rss1"] - readings["rss0"]
        self.peak_rss_mb = readings["hwm_mb"]
        return self

    @property
    def load_s(self) -> float:
        """Wall time of the window minus the calibration slices inside it."""
        return self.window.seconds - sum(self.host.wall_ns[1:-1]) / 1e9

    @property
    def steps_per_s(self) -> float:
        return self.window.heartbeats / self.load_s

    # -- scaled to the reference host (host.py) --------------------------
    @property
    def wall_scale(self) -> float:
        return self.share / self.host.speed_factor

    @property
    def ref_steps_per_s(self) -> float:
        return self.steps_per_s / self.wall_scale

    @property
    def ref_p50_ms(self) -> float:
        return percentile(self.window.latencies_ns(), 0.5) * self.wall_scale / 1e6

    @property
    def ref_cpu_us_per_step(self) -> float:
        return self.cpu_s / self.host.speed_factor / self.window.heartbeats * 1e6

    @property
    def ref_setup_s(self) -> float:
        return self.setup_s * self.setup_share / self.setup_host.speed_factor


def end_to_end(workload: str, seed: int, heartbeats: int, run_dir: Path):
    load = WORKLOADS[workload](seed, heartbeats)
    started = time.monotonic()
    ran: List[Round] = []
    while sum(r.share >= MIN_UNSTOLEN_SHARE for r in ran) < ROUNDS and (
        len(ran) < ROUNDS or time.monotonic() - started < RERUN_UNTIL_S
    ):
        ran.append(Round(load, run_dir).run())
    if workload == "solo":
        expected = load.replay_digest()
        for r in ran:
            if r.window.digest != expected:
                raise GateError(
                    "solo decisions differ from the in-process replay"
                )
    rounds = sorted(ran, key=lambda r: r.share, reverse=True)[:ROUNDS]
    # Each metric is the median of the rounds' figures, every timing
    # scaled to the reference host by its own round's calibration slices
    # and stolen time (host.py); the figures as measured go to # info.
    med = statistics.median
    beats = sum(r.window.heartbeats for r in rounds)
    attempted = sum(r.window.heartbeats for r in ran)
    metrics = {
        "steps_per_s": med(r.ref_steps_per_s for r in rounds),
        "p50_ms": med(r.ref_p50_ms for r in rounds),
        "cpu_us_per_step": med(r.ref_cpu_us_per_step for r in rounds),
        "setup_s": med(r.ref_setup_s for r in rounds),
        "peak_rss_mb": med(r.peak_rss_mb for r in rounds),
    }
    latencies = [ns for r in rounds for ns in r.window.latencies_ns()]
    info = {
        "measured": {
            "steps_per_s": beats / sum(r.load_s for r in rounds),
            "p50_ms": percentile(latencies, 0.50) / 1e6,
            "cpu_us_per_step": sum(r.cpu_s for r in rounds) / beats * 1e6,
            "setup_s": med(r.setup_s for r in rounds),
        },
        "p99_ms": percentile(latencies, 0.99) / 1e6,
        "latency_samples": len(latencies),
        "beyond_p99": len(latencies) - int(0.99 * len(latencies)) - 1,
        "heartbeats_per_round": rounds[0].window.heartbeats,
        "rounds_run": len(ran),
        "contracts": rounds[0].contracts,
        "per_round": {
            "speed_factor": [round(r.host.speed_factor, 4) for r in rounds],
            "unstolen_share": [round(r.share, 4) for r in rounds],
            "setup_speed_factor": [
                round(r.setup_host.speed_factor, 4) for r in rounds
            ],
            "setup_unstolen_share": [round(r.setup_share, 4) for r in rounds],
            "slices": [len(r.host.wall_ns) for r in rounds],
            "steps_per_s": [round(r.steps_per_s, 1) for r in rounds],
            "ref_steps_per_s": [round(r.ref_steps_per_s, 1) for r in rounds],
            "setup_s": [round(r.setup_s, 4) for r in rounds],
        },
    }
    return metrics, info, attempted


def traced(workload: str, seed: int, heartbeats: int, run_dir: Path):
    """An untraced and a traced round of one workload, then the layer map."""
    load = WORKLOADS[workload](seed, heartbeats)
    plain = Round(load, run_dir).run()
    trace_dir = run_dir / "trace"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir()
    python = run_dir / "traced-python"
    python.write_text(
        f'#!/bin/sh\nexec "{sys.executable}" "{HERE / "launch.py"}" "$@"\n'
    )
    python.chmod(0o755)
    env = {"PERFBENCH_TRACE_DIR": str(trace_dir), "PERFBENCH_PYTHON": str(python)}
    rec = Round(load, run_dir).run(HERE / "launch.py", env)
    if workload == "solo" and rec.window.digest != plain.window.digest:
        raise GateError("traced decisions differ from untraced decisions")
    traces = spans.load_traces(trace_dir)
    metrics = layer_metrics(rec, traces)
    metrics["mem.retained_b_per_step"] = plain.rss_growth / plain.window.heartbeats
    # Both scaled to the reference host, so host drift between the two
    # rounds does not pass for tracing overhead.
    metrics["trace.overhead"] = rec.ref_steps_per_s / plain.ref_steps_per_s
    attempted = plain.window.heartbeats + rec.window.heartbeats
    info = {
        "contracts": plain.contracts,
        "untraced_ref_steps_per_s": plain.ref_steps_per_s,
        "traced_ref_steps_per_s": rec.ref_steps_per_s,
    }
    return metrics, info, attempted


def layer_metrics(rnd: Round, traces) -> Dict[str, float]:
    """Per-layer numbers of one traced round's window."""
    import numpy as np

    window = rnd.window
    beats = window.heartbeats
    for trace in traces:
        trace.set_window(window.start_ns, window.end_ns)
    serving = [t for t in traces if t.role in ("daemon", "worker")]
    router = [t for t in traces if t.role == "router"]

    def total(group, prefix, column="dur") -> float:
        return float(sum(getattr(t, column)[t.mask(prefix)].sum() for t in group)) / 1e3

    def count(group, prefix) -> int:
        return int(sum(t.mask(prefix).sum() for t in group))

    def mean(group, prefix, column="dur") -> float:
        n = count(group, prefix)
        return total(group, prefix, column) / n if n else 0.0

    requests = count(serving, "server:ServiceServer.handle_line")
    covered_us = float(
        sum(t.dur[t.in_window & (t.parent < 0)].sum() for t in serving)
    ) / 1e3
    serving_cpu_us = 1e6 * sum(rnd.cpu_by_pid.get(t.pid, 0.0) for t in serving)
    rebalance_names = (
        "sessions:SessionManager.rebalance",
        "sessions:SessionManager.rebalance_inputs",
        "sessions:SessionManager.apply_rebalance",
    )
    rebalance_us = 0.0
    for t in serving:
        ids = [i for i, n in enumerate(t.names) if n in rebalance_names]
        member = np.isin(t.name_id, ids)
        parent_member = np.zeros_like(member)
        has_parent = t.parent >= 0
        parent_member[has_parent] = member[t.parent[has_parent]]
        rebalance_us += float(t.dur[t.in_window & member & ~parent_member].sum()) / 1e3
    rounds = count(serving, "sessions:SessionManager.rebalance") + count(
        router, "shard:ShardRouter._rebalance"
    )
    admin = sum(
        int(
            (
                t.mask("shard:ShardRouter._call_worker")
                & np.isin(t.tag % spans.WORKER_STRIDE, list(spans.ADMIN_TAGS))
            ).sum()
        )
        for t in router
    )
    router_self = spans.router_self_ns(traces)
    opens = window.opens
    return {
        "protocol.us_per_step": total(traces, "protocol:", "self_ns") / beats,
        "server.handle_self_us": mean(
            serving, "server:ServiceServer.handle_line", "self_ns"
        ),
        "server.uncovered_us_per_req": (
            (serving_cpu_us - covered_us) / requests if requests else 0.0
        ),
        "core.step_us": mean(serving, "core:JouleGuardRuntime.step"),
        "enforce.observe_us": mean(serving, "enforce:EnforcementLadder.observe"),
        "enforce.transitions": 1e3 * count(
            serving, "telemetry:ServiceTelemetry.record_transition"
        ) / beats,
        "sessions.step_self_us": mean(
            serving, "sessions:SessionManager.step", "self_ns"
        ),
        "sessions.rebalance_us": rebalance_us / rounds if rounds else 0.0,
        "sessions.rebalances_per_kstep": 1e3 * rounds / beats,
        "sessions.open_us": mean(serving, "sessions:SessionManager.open_session"),
        "sessions.close_us": mean(serving, "sessions:SessionManager.close"),
        "state.capture_us": mean(serving, "state:capture_state"),
        "state.apply_us": mean(serving, "state:apply_state"),
        "state.warm_hit_ratio": window.warm_opens / opens if opens else 0.0,
        "lease.moves_per_open": count(router, "lease:") / opens if opens else 0.0,
        "shard.router_self_us_per_req": (
            statistics.fmean(router_self) / 1e3 if router_self else 0.0
        ),
        "shard.admin_reqs_per_kstep": 1e3 * admin / beats,
        "shard.plan_rebalance_us": mean(router, "sessions:plan_rebalance"),
        "telemetry.us_per_step": total(serving, "telemetry:", "self_ns") / beats,
        "trace.coverage": covered_us / serving_cpu_us if serving_cpu_us else 0.0,
    }


def environment(contracts: str) -> Dict[str, Any]:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # not a git checkout, or no git
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "REPRO_CONTRACTS": contracts,
    }


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(NOMINAL_RATE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny fixed heartbeat counts (the self-test)",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        heartbeats = SMOKE_HEARTBEATS[args.workload]
    else:
        heartbeats = int(args.seconds * NOMINAL_RATE[args.workload] / ROUNDS)
    run_dir = ROOT / ".perfbench-run" / str(os.getpid())
    run_dir.mkdir(parents=True)
    here = os.getcwd()
    os.chdir(run_dir)  # socket paths are relative to the run directory
    calibration = [calibration_ms()]
    stolen = stolen_s()
    correct, failed, info = True, 0, {}
    try:
        if args.trace:
            metrics, info, attempted = traced(
                args.workload, args.seed, heartbeats, run_dir
            )
            units = PER_LAYER
        else:
            metrics, info, attempted = end_to_end(
                args.workload, args.seed, heartbeats, run_dir
            )
            units = END_TO_END
    except (GateError, OSError) as exc:
        # OSError: the deployment dropped or stopped answering a connection.
        print(f"perfbench: correctness gate failed: {exc}", file=sys.stderr)
        correct, failed, attempted, metrics, units = False, 1, 1, {}, {}
    finally:
        calibration.append(calibration_ms())
        os.chdir(here)
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass  # another run shares the parent directory
    record = environment(info.pop("contracts", "unset"))
    record["calibration_ms"] = [round(c, 3) for c in calibration]
    record["stolen_s"] = round(stolen_s() - stolen, 2)
    print("# env " + json.dumps(record, sort_keys=True))
    print("# info " + json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                    if name in metrics
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
