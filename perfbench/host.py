"""Host speed, measured by calibration slices interleaved with the load.

A shared VM's speed drifts by tens of percent within seconds and
between minutes, and every timing of the deployment drifts with it.
So a round stops its load at quiescent points (no request in flight)
every tenth of a second or so and runs one *slice* of fixed work in
the load process, on each vCPU in turn: JSON round trips of a
request-sized document through the standard library.  Of the kernels
tried on a 2-vCPU Xeon VM (arithmetic loops, random lookups in a dict
larger than the private caches, object churn, pipe ping-pong with a
child process), this one's time tracked the daemon's most closely as
the host's speed drifted, and in proportion (log-log slope 0.93-0.96
against the ``solo`` and ``batch`` loads).  The slices sample the
host's speed evenly over the same window as the load, and each timing
metric is reported as it would read on a *reference host*, one that
runs a slice in :data:`REFERENCE_SLICE_NS` of CPU time and steals none:

    CPU time on the reference host  = measured CPU time / speed factor
    wall time on the reference host = measured wall time × unstolen share
                                      / speed factor

where the speed factor is the slice CPU time (``thread_time``, which
excludes stolen time) over :data:`REFERENCE_SLICE_NS`, and the
unstolen share is the part of the processes' runnable time that they
ran: CPU used / (CPU used + time stolen from the VM, ``/proc/stat``).
The hypervisor steals only from a vCPU that has work, so a stall hits
one process at a time on the ping-pong of ``solo`` and both vCPUs at
once on the saturated ``shard-churn``; the share covers both.

The two vCPUs' speeds drift apart (their ratio over one-second blocks
ranged 0.71-1.30 on that VM), so each slice times one half
on each vCPU, and a round's speed factor weights each vCPU's time by
the busy time the load gave that vCPU (``/proc/stat``) between the
slices around it.

A change to the program moves the load's timings and not the slices',
so the scaled figures move with the program and not with the host.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from typing import Dict, List, Optional

_CLK_TCK = os.sysconf("SC_CLK_TCK")

#: JSON round trips in one slice, split evenly over the vCPUs.
SLICE_ROUND_TRIPS = 340

#: Slice time of the reference host, in nanoseconds (about what a
#: 2-vCPU Xeon VM took in a quiet hour).
REFERENCE_SLICE_NS = 8_000_000

_DOCUMENT = {
    "type": "step",
    "session": "w0e1-00000000",
    "measurement": {"work": 1.0, "energy_j": 0.123456789, "rate": 20.0,
                    "power_w": 2.46913578},
    "decision": {"config": [1, 2, 3], "speedup": 1.2345, "costs": [0.1] * 16},
}


def _work(round_trips: int) -> int:
    """The calibration work; fixed, and independent of the program."""
    total = 0
    for _ in range(round_trips):
        total += len(json.loads(json.dumps(_DOCUMENT)))
    return total


def busy_ticks() -> Dict[int, int]:
    """Busy clock ticks of each vCPU so far (user, nice, system, irq, softirq)."""
    busy = {}
    with open("/proc/stat") as handle:
        for line in handle:
            if not line.startswith("cpu"):
                break
            name, *fields = line.split()
            if name != "cpu":
                ticks = [int(f) for f in fields]
                busy[int(name[3:])] = sum(ticks[0:3]) + ticks[5] + ticks[6]
    return busy


def stolen_s() -> float:
    """CPU time the hypervisor has stolen from all of this VM's vCPUs."""
    with open("/proc/stat") as handle:
        return int(handle.readline().split()[8]) / _CLK_TCK


def unstolen_share(cpu_s: float, stolen: float) -> float:
    """The share of runnable time that ran, given CPU used and time stolen."""
    return cpu_s / (cpu_s + stolen) if cpu_s > 0.0 else 1.0


class HostMeter:
    """Calibration slices taken so far, and the speed factor they give.

    ``repeat`` multiplies the work of every slice (for set-up, which is
    bracketed by one long slice on each side rather than many short).
    """

    def __init__(self, repeat: int = 1) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.round_trips = repeat * SLICE_ROUND_TRIPS // len(self.cpus)
        self.reference_ns = repeat * REFERENCE_SLICE_NS
        self.wall_ns: List[int] = []
        self.cpu_ns: List[float] = []
        self._last: Optional[Dict[int, int]] = None
        self._busy: Dict[int, int] = {}
        self._weighted = 0.0
        self._weight = 0

    def slice(self) -> None:
        """Run one slice, half on each vCPU, and weight it by the load."""
        busy = busy_ticks()
        wall = time.perf_counter_ns()
        mask = os.sched_getaffinity(0)
        times = {}
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                started = time.thread_time_ns()
                _work(self.round_trips)
                times[cpu] = (time.thread_time_ns() - started) * len(self.cpus)
        finally:
            os.sched_setaffinity(0, mask)
        self.wall_ns.append(time.perf_counter_ns() - wall)
        self.cpu_ns.append(statistics.fmean(times.values()))
        if self._last is not None:
            for cpu in self.cpus:
                used = busy.get(cpu, 0) - self._busy.get(cpu, 0)
                self._weighted += used * (self._last[cpu] + times[cpu]) / 2
                self._weight += used
        self._last = times
        self._busy = busy_ticks()

    @property
    def speed_factor(self) -> float:
        """Slice CPU time over the reference's: >1 on a slower host."""
        if self._weight:
            return self._weighted / self._weight / self.reference_ns
        return statistics.fmean(self.cpu_ns) / self.reference_ns
