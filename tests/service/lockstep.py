"""Cross-shard lockstep rig.

The shard router's core claim is *equivalence*: a client cannot tell a
``ShardRouter`` over N worker processes from one single-process daemon
— same admissions, same decisions, same enforcement tiers, same kill
events, same rebalance arithmetic.  This rig makes the claim testable:
it drives the SAME seeded session script through any daemon speaking
the service protocol and returns a flat *trace* of everything the
client observed, normalized so only genuine behavioral differences
survive comparison (session ids carry a per-worker prefix, so they are
mapped back to the script's slot numbers).

A script is a list of *waves*; each wave's slots are opened together
and then driven round-robin — slot order, frame by frame — until every
slot in the wave has finished (completed its steps, been killed, or
been rejected at admission).

:func:`run_pipeline` drives a fixed request stream instead, over one
raw connection with up to ``depth`` requests in flight.  The router
guarantees decision-for-decision equality for one connection, pipelined
or not: its lines reach the workers in the order written, a barrier
verb (``open_session``, ``batch_step``, ...) waits for everything ahead
of it, and no line passes a rebalance boundary early.  Several
connections interleave by timing, which the rebalance cadence counts,
so equality is not claimed there.

In :func:`run_script` measurement sources are *closed-loop*: each
heartbeat is computed from the previous decision the daemon returned,
exactly like a real client.  Equality is therefore inductive —
identical decisions yield identical measurements yield identical next
decisions — and a single divergent float anywhere breaks every event
after it, which is what makes the comparison sharp.  A pipelined
client cannot wait for a decision before its next heartbeat, so
:func:`run_pipeline` sends seeded open-loop heartbeats; a divergent
rebalance still shows in every later budget and decision.
"""

from __future__ import annotations

import json
import random
import socket
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.types import Measurement
from repro.service import ServiceClient, ServiceError
from repro.service.client import _SimMeasurements

__all__ = [
    "PipeSlot",
    "SlotSpec",
    "assert_traces_equal",
    "run_pipeline",
    "run_script",
]


@dataclass(frozen=True)
class SlotSpec:
    """One scripted session slot.

    ``burn_per_step`` > 0 switches the slot from the full platform
    simulator to synthetic runaway heartbeats that each burn that
    fraction of the granted budget (work 1.0 per step) — the
    deterministic way to march a session up the enforcement ladder to
    KILL.  ``work_scale`` inflates ``total_work`` past what the pool
    can fund, turning the slot into an admission-rejection probe.
    ``snapshot_after`` asks for a learned-state snapshot once that many
    heartbeats have been applied, so a later wave can probe warm-start
    equality.
    """

    machine: str = "tablet"
    app: str = "x264"
    factor: float = 1.5
    steps: int = 40
    seed: int = 0
    batch: int = 1
    burn_per_step: float = 0.0
    work_scale: float = 1.0
    warm_start: bool = True
    snapshot_after: Optional[int] = None


class _RunawaySource:
    """Synthetic heartbeats burning a fixed fraction of the grant.

    The decision stream is ignored on purpose: a runaway client is one
    whose energy draw does not respond to the controller.
    """

    def __init__(self, granted_budget_j: float, burn_per_step: float) -> None:
        self._energy_j = burn_per_step * granted_budget_j

    def next(self, decision: Dict[str, Any]) -> Measurement:
        return Measurement(
            work=1.0,
            energy_j=self._energy_j,
            rate=10.0,
            power_w=self._energy_j,
        )


@dataclass
class _Slot:
    spec: SlotSpec
    session_id: str
    source: Any
    decision: Dict[str, Any]
    remaining: int
    applied: int = 0
    done: bool = False
    snapshotted: bool = False


def _total_work(spec: SlotSpec) -> float:
    if spec.burn_per_step > 0.0:
        # Work 1.0 per synthetic heartbeat; the scale knob still
        # applies so a runaway slot can also probe admission.
        return float(spec.steps) * spec.work_scale
    probe = _SimMeasurements(spec.machine, spec.app, spec.seed, None)
    return float(spec.steps) * probe.work_per_iteration * spec.work_scale


def _decision_sig(decision: Dict[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    """A decision as a hashable, order-independent signature."""
    return tuple(sorted(decision.items(), key=lambda item: item[0]))


def _report_sig(report: Dict[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    """A report signature with the daemon-specific id stripped.

    Session ids differ between daemons by construction (shard workers
    prefix theirs with ``w{i}e{e}-``); everything else in a report —
    budgets, spend, tier, overdraft, close reason — must match.
    """
    sig = []
    for key in sorted(report):
        if key == "session":
            continue
        value = report[key]
        if key == "enforcement" and isinstance(value, dict):
            value = tuple(sorted(
                (k, _freeze(v)) for k, v in value.items()
            ))
        sig.append((key, _freeze(value)))
    return tuple(sig)


def _freeze(value: Any) -> Any:
    if isinstance(value, dict):
        return tuple(sorted(
            (key, _freeze(item)) for key, item in value.items()
        ))
    if isinstance(value, list):
        return tuple(_freeze(item) for item in value)
    return value


def _open_slot(
    client: ServiceClient, index: int, spec: SlotSpec, trace: List[Tuple]
) -> Optional[_Slot]:
    try:
        opened = client.open_session(
            machine=spec.machine,
            app=spec.app,
            factor=spec.factor,
            total_work=_total_work(spec),
            seed=spec.seed,
            warm_start=spec.warm_start,
            client_name=f"slot{index}",
        )
    except ServiceError as exc:
        trace.append(("reject", index, exc.code))
        return None
    trace.append((
        "open",
        index,
        opened.warm,
        opened.granted_budget_j,
        _decision_sig(opened.decision),
    ))
    if spec.burn_per_step > 0.0:
        source: Any = _RunawaySource(
            opened.granted_budget_j, spec.burn_per_step
        )
    else:
        source = _SimMeasurements(spec.machine, spec.app, spec.seed, None)
    return _Slot(
        spec=spec,
        session_id=opened.session,
        source=source,
        decision=opened.decision,
        remaining=spec.steps,
    )


def _drive_frame(
    client: ServiceClient, index: int, slot: _Slot, trace: List[Tuple]
) -> None:
    """One batched frame for one slot; records every applied heartbeat."""
    n = min(slot.spec.batch, slot.remaining)
    measurements = [
        slot.source.next(slot.decision) for _ in range(n)
    ]
    result = client.step_batch(slot.session_id, measurements)
    for decision in result.decisions:
        enforcement = decision.get("enforcement", {})
        trace.append((
            "step",
            index,
            slot.applied,
            _decision_sig(
                {k: v for k, v in decision.items() if k != "enforcement"}
            ),
            enforcement.get("tier"),
            enforcement.get("throttle_s"),
        ))
        slot.decision = decision
        slot.applied += 1
    slot.remaining -= result.completed
    if result.killed:
        trace.append(("killed", index, _report_sig(result.report or {})))
        slot.done = True
        return
    after = slot.spec.snapshot_after
    if (
        after is not None
        and not slot.snapshotted
        and slot.applied >= after
    ):
        state = client.snapshot(slot.session_id)
        trace.append(("snapshot", index, _freeze(state)))
        slot.snapshotted = True
    if slot.remaining <= 0:
        report = client.close(slot.session_id)
        trace.append(("close", index, _report_sig(report)))
        slot.done = True


def run_script(
    client: ServiceClient, waves: Sequence[Sequence[SlotSpec]]
) -> List[Tuple]:
    """Drive a script through one daemon; return its observable trace."""
    trace: List[Tuple] = []
    base = 0
    for wave in waves:
        slots: List[Optional[_Slot]] = [
            _open_slot(client, base + offset, spec, trace)
            for offset, spec in enumerate(wave)
        ]
        while any(s is not None and not s.done for s in slots):
            for offset, slot in enumerate(slots):
                if slot is None or slot.done:
                    continue
                _drive_frame(client, base + offset, slot, trace)
        base += len(wave)
    return trace


@dataclass(frozen=True)
class PipeSlot:
    """One session of a pipelined stream, fed open-loop heartbeats.

    Each heartbeat does work 1.0 and burns ``burn`` of the granted
    budget, jittered ±20 % by a ``seed``-ed RNG: ``burn`` near
    ``1 / steps`` spends the grant over the session's life, while a
    large ``burn`` marches the session up the enforcement ladder.
    """

    machine: str = "tablet"
    app: str = "x264"
    factor: float = 1.5
    steps: int = 40
    seed: int = 0
    burn: float = 0.0225
    warm_start: bool = True


def _open_request(slot: int, spec: PipeSlot) -> Dict[str, Any]:
    return {
        "type": "open_session",
        "machine": spec.machine,
        "app": spec.app,
        "factor": spec.factor,
        "total_work": float(spec.steps),
        "seed": spec.seed,
        "warm_start": spec.warm_start,
        "client": f"pipe{slot}",
    }


def _heartbeat(
    rng: random.Random, spec: PipeSlot, granted_j: float
) -> Dict[str, float]:
    energy_j = spec.burn * granted_j * rng.uniform(0.8, 1.2)
    rate = 20.0 * rng.uniform(0.8, 1.2)
    return {
        "work": 1.0,
        "energy_j": energy_j,
        "rate": rate,
        "power_w": energy_j * rate,
    }


def _normalized(response: Dict[str, Any]) -> Any:
    """A reply with daemon-specific ids and error wording stripped."""
    if not response.get("ok", False):
        return ("error", response.get("error", {}).get("code"))
    return _freeze_without_ids(response)


def _freeze_without_ids(value: Any) -> Any:
    if isinstance(value, dict):
        return tuple(sorted(
            (key, _freeze_without_ids(item))
            for key, item in value.items()
            if key not in ("session", "rid")
        ))
    if isinstance(value, list):
        return tuple(_freeze_without_ids(item) for item in value)
    return value


def run_pipeline(
    path: str,
    slots: Sequence[PipeSlot],
    ops: Sequence[Tuple[str, int, int]],
    depth: int,
) -> List[Tuple]:
    """Stream ``ops`` over one connection, ``depth`` requests in flight.

    An op is ``(verb, slot, n)``: ``open`` opens slot ``slot``;
    ``step`` sends one heartbeat and ``batch`` a ``batch_step`` of
    ``n``; ``report``, ``snapshot`` and ``close`` ask just that.  An op
    on a slot whose open has not been answered yet waits for it, so a
    mid-stream open drains the pipeline — as its barrier would anyway.
    Returns each op's normalized reply, in op order.
    """
    rngs = [random.Random(spec.seed) for spec in slots]
    sessions: Dict[int, Tuple[str, float]] = {}
    pending: Deque[Tuple[int, str, int]] = deque()
    trace: List[Tuple] = [()] * len(ops)
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(60.0)
    sock.connect(path)
    wire = sock.makefile("rwb")

    def receive() -> None:
        index, verb, slot = pending.popleft()
        response = json.loads(wire.readline())
        if verb == "open" and response.get("ok"):
            sessions[slot] = (
                response["session"], response["granted_budget_j"]
            )
        trace[index] = (verb, slot, _normalized(response))

    try:
        for index, (verb, slot, n) in enumerate(ops):
            spec = slots[slot]
            if verb == "open":
                request = _open_request(slot, spec)
            else:
                while slot not in sessions and pending:
                    receive()
                session, granted_j = sessions[slot]
                request = {"type": verb, "session": session}
                if verb == "step":
                    request["measurement"] = _heartbeat(
                        rngs[slot], spec, granted_j
                    )
                elif verb == "batch":
                    request["type"] = "batch_step"
                    request["measurements"] = [
                        _heartbeat(rngs[slot], spec, granted_j)
                        for _ in range(n)
                    ]
            wire.write(json.dumps(request).encode() + b"\n")
            wire.flush()
            pending.append((index, verb, slot))
            if len(pending) >= depth:
                receive()
        while pending:
            receive()
    finally:
        wire.close()
        sock.close()
    return trace


def assert_traces_equal(
    reference: List[Tuple], candidate: List[Tuple]
) -> None:
    """Element-wise trace equality with a readable first-divergence."""
    for position, (expected, actual) in enumerate(
        zip(reference, candidate)
    ):
        assert expected == actual, (
            f"traces diverge at event {position}:\n"
            f"  single-process: {expected!r}\n"
            f"  sharded:        {actual!r}"
        )
    assert len(reference) == len(candidate), (
        f"trace lengths differ: single-process produced "
        f"{len(reference)} events, sharded {len(candidate)} "
        f"(first unmatched: "
        f"{(reference + candidate)[min(len(reference), len(candidate))]!r})"
    )
