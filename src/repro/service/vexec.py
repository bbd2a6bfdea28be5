"""Vectorized execution backend: micro-batched SessionPool stepping.

The scalar daemon steps one :class:`~repro.core.jouleguard.JouleGuardRuntime`
per heartbeat.  The controllers are pure elementwise math, and the fleet
layer already proved (PR 6) that a :class:`~repro.fleet.pool.SessionPool`
steps whole cohorts as numpy struct-of-arrays bit-exactly in
``mode="exact"``.  This module puts that pool on the serving hot path:

* **group commit** — ``step``/``batch_step`` heartbeats arriving within
  a short gather window are accumulated and flushed together: the flush
  fires when :attr:`VexecEngine.max_batch` requests are pending or the
  ``max_delay_us`` window elapses, whichever comes first, with a
  zero-delay fast path when only one request is pending (so a lone
  client pays no added latency);
* **adopt/evict** — co-resident sessions are lowered into per-cohort
  pools on first step (:meth:`SessionPool.adopt`) and written back to
  their scalar objects on demand (:meth:`SessionPool.evict`): any code
  path that reads scalar session state — report, snapshot, close,
  idle reaping, a scalar-fallback step — triggers
  :attr:`SessionManager.scalar_sync` first, so scalar reads are always
  current and snapshot/warm-start interop is preserved (rebalance,
  which reads accounting only, is served in place by the cheaper
  ``accounting_sync``/``accounting_merge`` hook pair);
* **exactness** — pools run ``mode="exact"``: per-row RNG streams in
  scalar call order, so vectorized serving is decision-for-decision and
  tier-for-tier identical to the scalar path (the lockstep rig asserts
  this end to end, including kills and mid-run rebalances);
* **scalar fallback** — heartbeats the pool cannot represent
  (``sensor_ok=False`` hold-over accounting, or a session whose
  runtime/ladder shape fails adoption validation) are served by the
  unmodified scalar :meth:`SessionManager.step`, counted in
  ``jg_vexec_fallbacks_total`` by reason.

The engine is single-threaded on the server's event loop; the only
concurrency is the gather queue.  Cross-session ordering inside one
flush cannot change per-session outcomes: sessions interact only
through admission, close/kill retirement (which evict first), and
rebalance — which reads nothing but accounting state, served in place
by the cheap ``accounting_sync``/``accounting_merge`` hooks without
disturbing resident rows — and the ladder's DEGRADE tier reclaims no
budget.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from ..enforce.ladder import Tier, TierTransition
from .protocol import decision_payload
from .sessions import Session, SessionError, SessionKilled, SessionManager

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    # repro.fleet.pool imports repro.service.state, so importing it at
    # module scope would make ``import repro.fleet`` (which the service
    # package does not need) a prerequisite of the service package.
    # The engine resolves the fleet types lazily in _pool_for/_adopt.
    from ..fleet.cohort import CohortSpec
    from ..fleet.pool import SessionPool

__all__ = ["VexecEngine"]

#: Dead (evicted/killed) rows a pool may accumulate before compaction.
_COMPACT_SLACK = 32

#: Consecutive empty cooperative yields before a gather gives up on
#: stragglers (see :meth:`VexecEngine._gather`).
_GATHER_IDLE_YIELDS = 2

#: Pool arrays gathered once per flush for the result scatter (see
#: :meth:`VexecEngine._step_pool`).
_SCATTER_COLS = (
    "steps",
    "tier",
    "killed",
    "throttle_s",
    "last_overrun",
    "last_burn",
    "last_headroom",
    "budget_j",
    "adjustment_j",
    "energy_used_j",
    "epsilon",
    "d_pole",
    "d_fpos",
    "d_sys",
    "d_setpoint",
    "d_epsilon",
    "d_explored",
    "d_feasible",
)

#: Default for :attr:`VexecEngine.solo_after`: consecutive
#: single-session flushes before lone heartbeats take the scalar solo
#: path (a masked numpy step for one row costs several scalar steps in
#: fixed overhead, so an uncontended client must not pay it).
_SOLO_AFTER = 4


class _Pending:
    """One enqueued frame — 1..n heartbeats for one session.

    A ``step`` request is a one-entry frame; a ``batch_step`` frame
    keeps all its heartbeats in a single pending, so a 128-step frame
    costs one future and one pair of task wakeups instead of 128 (the
    per-heartbeat asyncio churn was the dominant engine overhead).
    Each flush consumes exactly one entry (``current``); the remainder
    carries over, preserving per-session order while interleaving with
    other sessions' frames — which is what keeps pool batches full
    under concurrent batched load.
    """

    __slots__ = ("session_id", "entries", "pos", "results", "future")

    def __init__(
        self,
        session_id: str,
        entries: List[Tuple[Any, bool]],
        future: "asyncio.Future[List[Dict[str, Any]]]",
    ) -> None:
        self.session_id = session_id
        self.entries = entries
        self.pos = 0
        self.results: List[Dict[str, Any]] = []
        self.future = future

    @property
    def current(self) -> Tuple[Any, bool]:
        """The next unexecuted ``(measurement, sensor_ok)`` entry."""
        return self.entries[self.pos]

    def push(self, entry: Dict[str, Any]) -> bool:
        """Record one executed entry; ``True`` when the frame is done."""
        self.results.append(entry)
        self.pos += 1
        return self.pos >= len(self.entries)


class VexecEngine:
    """Micro-batched vectorized step execution for one daemon.

    Parameters
    ----------
    manager:
        The session manager whose sessions this engine steps.  The
        engine installs itself as :attr:`SessionManager.scalar_sync`.
    max_batch:
        Flush as soon as this many heartbeats are pending.
    max_delay_us:
        Gather window: with two or more heartbeats pending, wait at
        most this long for stragglers before flushing.  A single
        pending heartbeat always flushes immediately.
    solo_after:
        After this many consecutive single-session flushes, lone
        heartbeats are served by direct scalar stepping instead of a
        one-row pool step (whose fixed numpy overhead costs several
        scalar steps), evicting the resident row once at the regime
        change; pooled stepping resumes as soon as a flush gathers two
        sessions again.  Negative disables the solo path — every
        heartbeat steps through the pool (the equivalence and chaos
        rigs use this to keep serial drives pool-resident).
    """

    def __init__(
        self,
        manager: SessionManager,
        max_batch: int = 64,
        max_delay_us: float = 150.0,
        solo_after: int = _SOLO_AFTER,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_delay_us < 0:
            raise ValueError("max_delay_us must be >= 0")
        self.manager = manager
        self.max_batch = int(max_batch)
        self.max_delay_s = float(max_delay_us) / 1e6
        self.solo_after = int(solo_after)
        self._solo_streak = 0
        self._direct_probes = 0
        self._frontiers: Dict[int, Tuple[Any, ...]] = {}
        self._pools: Dict[Tuple[str, str], SessionPool] = {}
        self._rows: Dict[str, Tuple[SessionPool, int]] = {}
        self._queue: Optional["asyncio.Queue[_Pending]"] = None
        self._carry: List[_Pending] = []
        self._task: Optional[asyncio.Task] = None
        self.flushes = 0
        self.fallbacks = 0
        self.solos = 0
        self.last_adopt_error: Optional[str] = None
        manager.scalar_sync = self._scalar_sync
        manager.accounting_sync = self._accounting_sync
        manager.accounting_merge = self._accounting_merge

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Start the drainer task (the event loop must be running)."""
        self._queue = asyncio.Queue()
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def aclose(self) -> None:
        """Stop the drainer, cancel parked requests, evict everything."""
        task, self._task = self._task, None
        if task is not None:
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
        leftovers = list(self._carry)
        self._carry = []
        if self._queue is not None:
            # Single-threaded event loop: nothing can enqueue between
            # the empty() check and the get, so no exception to race.
            while not self._queue.empty():
                leftovers.append(self._queue.get_nowait())
        for pending in leftovers:
            if not pending.future.done():
                pending.future.cancel()
        self._scalar_sync(None)
        if self.manager.scalar_sync == self._scalar_sync:
            self.manager.scalar_sync = None
        if self.manager.accounting_sync == self._accounting_sync:
            self.manager.accounting_sync = None
        if self.manager.accounting_merge == self._accounting_merge:
            self.manager.accounting_merge = None

    @property
    def pooled_count(self) -> int:
        """Sessions currently resident in a pool row."""
        return len(self._rows)

    # -- request entry points ------------------------------------------
    async def step_one(
        self, session_id: str, measurement: Any, sensor_ok: bool = True
    ) -> Dict[str, Any]:
        """One heartbeat through the gather window.

        Returns a step *entry*: ``{"decision": ..., "enforcement":
        ...}`` or ``{"killed": True, "report": ..., "enforcement":
        ...}`` — the shape the server's scalar handlers produce, so the
        wire responses are byte-identical either way.  Raises
        :class:`SessionError` exactly where the scalar path would.
        """
        entries = await self.step_many(
            session_id, [(measurement, sensor_ok)]
        )
        return entries[0]

    async def step_many(
        self,
        session_id: str,
        entries: List[Tuple[Any, bool]],
    ) -> List[Dict[str, Any]]:
        """One frame of sequential heartbeats through the engine.

        The frame's entries execute strictly in order, one per flush,
        interleaved with other sessions' frames.  Returns the executed
        entries; a kill truncates the frame (the killed entry is last),
        matching the scalar batch handler's early exit.  A
        :class:`SessionError` mid-frame propagates after the already-
        executed heartbeats have been applied — exactly the scalar
        loop's behavior.
        """
        if self._task is None or self._queue is None:
            raise RuntimeError(
                "vexec engine is not running (call start() first)"
            )
        if not entries:
            return []
        if (
            0 <= self.solo_after <= self._solo_streak
            and not self._carry
            and self._queue.empty()
        ):
            direct = await self._step_direct(session_id, entries)
            if direct is not None:
                return direct
        future: "asyncio.Future[List[Dict[str, Any]]]" = (
            asyncio.get_running_loop().create_future()
        )
        self._queue.put_nowait(_Pending(session_id, entries, future))
        return await future

    async def _step_direct(
        self,
        session_id: str,
        entries: List[Tuple[Any, bool]],
    ) -> Optional[List[Dict[str, Any]]]:
        """Serve a frame scalar-side without touching the queue.

        Once the solo regime is active there is no pooled state left
        for this session and no batching to win, so the queue/future/
        drainer round trip per frame is pure tax.  One cooperative
        yield lets any concurrent arrival declare itself (its handler
        task enters this probe too, or enqueues); if one does, return
        ``None`` and take the gather window — whose multi-session wave
        resets the streak and re-pools.  Otherwise run the frame with
        the same synchronous loop as the scalar backend's handlers.
        """
        self._direct_probes += 1
        try:
            await asyncio.sleep(0)
            if (
                self._direct_probes > 1
                or self._carry
                or not self._queue.empty()  # type: ignore[union-attr]
            ):
                return None
        finally:
            self._direct_probes -= 1
        self._evict(session_id)
        results: List[Dict[str, Any]] = []
        for measurement, sensor_ok in entries:
            if sensor_ok:
                self.solos += 1
                self.manager.telemetry.record_vexec_solo()
            else:
                self.fallbacks += 1
                self.manager.telemetry.record_vexec_fallback(
                    "sensor_loss"
                )
            entry = self._scalar_entry(session_id, measurement, sensor_ok)
            results.append(entry)
            if entry.get("killed"):
                break
        return results

    # -- drainer -------------------------------------------------------
    async def _run(self) -> None:
        assert self._queue is not None
        while True:
            batch, first_s = await self._gather()
            try:
                self._flush(batch, first_s)
            except Exception as exc:  # keep the drainer alive
                for pending in batch:
                    if not pending.future.done():
                        pending.future.set_exception(exc)

    def _drain_into(self, batch: List[_Pending]) -> bool:
        """Move everything queued into ``batch``; ``True`` if it grew."""
        assert self._queue is not None
        grew = False
        # Single-threaded event loop: nothing can enqueue between the
        # empty() check and the get, so no exception to race.
        while len(batch) < self.max_batch and not self._queue.empty():
            batch.append(self._queue.get_nowait())
            grew = True
        return grew

    async def _gather(self) -> Tuple[List[_Pending], float]:
        """Group commit: collect one flush's worth of frames.

        The straggler wait is cooperative, not timed: ``sleep(0)``
        yields let every runnable producer (connection tasks woken by
        the previous flush, protocol callbacks with bytes already in
        the kernel buffer) enqueue, and gathering stops after
        ``_GATHER_IDLE_YIELDS`` consecutive empty yields or at the
        ``max_delay_us`` deadline, whichever is first.  A timed
        ``asyncio.sleep`` here would round up to the event-loop timer
        granularity (~1 ms via epoll) and cap the flush rate; the
        yield loop costs microseconds and fills just as well, because
        any heartbeat that could arrive within the window is either
        already runnable or already readable.  A lone pending frame
        still flushes immediately (the zero-delay fast path), so an
        unloaded daemon adds no latency over scalar.
        """
        assert self._queue is not None
        batch = self._carry
        self._carry = []
        if not batch:
            batch.append(await self._queue.get())
        else:
            # Starting from carried-over work: yield once so reader
            # tasks can enqueue and the loop stays cooperative even
            # when every flush leaves a carry.
            await asyncio.sleep(0)
        first_s = time.perf_counter()
        self._drain_into(batch)
        if 1 < len(batch) < self.max_batch and self.max_delay_s > 0.0:
            deadline = first_s + self.max_delay_s
            idle = 0
            while (
                len(batch) < self.max_batch
                and idle < _GATHER_IDLE_YIELDS
                and time.perf_counter() < deadline
            ):
                await asyncio.sleep(0)
                idle = 0 if self._drain_into(batch) else idle + 1
        return batch, first_s

    # -- flush ---------------------------------------------------------
    def _flush(self, batch: List[_Pending], first_s: float) -> None:
        """Execute one gathered batch: one pool step per cohort.

        At most one heartbeat per session per flush (a pool row steps
        once): each frame contributes its current entry, and frames
        with entries left — or extra frames for a session already in
        the wave — carry over to the next flush, preserving
        per-session order.
        """
        wave: Dict[str, _Pending] = {}
        for pending in batch:
            if pending.future.cancelled():
                continue
            if pending.session_id in wave:
                self._carry.append(pending)
            else:
                wave[pending.session_id] = pending
        # The solo regime engages only after ``solo_after`` pooled
        # single-session flushes in a row (check before counting this
        # one), and disengages the moment a flush is contended again.
        solo = (
            len(wave) == 1
            and 0 <= self.solo_after <= self._solo_streak
        )
        if len(wave) == 1:
            self._solo_streak += 1
        elif wave:
            self._solo_streak = 0
        plan: List[Tuple[SessionPool, int, _Pending]] = []
        for session_id, pending in wave.items():
            session = self.manager._sessions.get(session_id)
            if session is None:
                # Mid-frame this truncates like the scalar loop: the
                # already-executed heartbeats stand, the error is the
                # whole response.
                pending.future.set_exception(
                    SessionError(
                        "unknown_session",
                        f"no live session {session_id!r} "
                        "(closed, reaped, or never opened)",
                    )
                )
                continue
            if not pending.current[1]:
                # sensor_ok=False: hold-over accounting (conservative
                # epw clamp) is a scalar-only code path.
                self._fallback(pending, "sensor_loss")
                continue
            if solo:
                # A sustained single-session regime: step scalar-side
                # (bit-identical by the pool's exactness contract)
                # rather than pay a one-row numpy step per heartbeat.
                self._solo_step(pending)
                continue
            placed = self._rows.get(session_id)
            if placed is None:
                placed = self._adopt(session)
                if placed is None:
                    self._fallback(pending, "adopt")
                    continue
            plan.append((placed[0], placed[1], pending))
        by_pool: Dict[int, List[Tuple[int, _Pending]]] = {}
        pool_of: Dict[int, SessionPool] = {}
        for pool, row, pending in plan:
            by_pool.setdefault(id(pool), []).append((row, pending))
            pool_of[id(pool)] = pool
        total = 0
        survivors = 0
        for key, rows in by_pool.items():
            stepped, alive = self._step_pool(pool_of[key], rows)
            total += stepped
            survivors += alive
        if total:
            self.flushes += 1
            self.manager.telemetry.record_vexec_flush(
                total, time.perf_counter() - first_s, total
            )
        # Rebalance cadence at flush granularity, mirroring the scalar
        # manager's per-step counter (killed steps never count there —
        # SessionKilled is raised before the counter advances).  Shard
        # workers run --external-rebalance and skip this entirely: the
        # router owns the global cadence, so sharded vector execution
        # hits the exact same rebalance boundaries as sharded scalar.
        if survivors and not self.manager.external_rebalance:
            self.manager._steps_since_rebalance += survivors
            if (
                self.manager._steps_since_rebalance
                >= self.manager.rebalance_period
            ):
                # rebalance() reads only accounting state, which the
                # accounting_sync hook makes current without evicting
                # the pool; granted adjustments merge back via
                # accounting_merge.
                self.manager.rebalance()
                self.manager._steps_since_rebalance = 0

    def _step_pool(
        self,
        pool: SessionPool,
        rows: List[Tuple[int, _Pending]],
    ) -> Tuple[int, int]:
        """One masked numpy step; scatter per-session entries.

        Returns ``(stepped, survivors)`` — survivors excludes rows the
        ladder killed during this step.
        """
        n = pool.n
        mask = np.zeros(n, dtype=bool)
        work = np.ones(n, dtype=np.float64)
        energy = np.ones(n, dtype=np.float64)
        rate = np.ones(n, dtype=np.float64)
        power = np.ones(n, dtype=np.float64)
        for row, pending in rows:
            m = pending.current[0]
            mask[row] = True
            work[row] = m.work
            energy[row] = m.energy_j
            rate[row] = m.rate
            power[row] = m.power_w
        pre_tier = pool.tier.copy()
        pre_degraded = pool.degraded.copy()
        try:
            pool.step(work, energy, rate, power, mask=mask)
        except Exception as exc:
            for _, pending in rows:
                if not pending.future.done():
                    pending.future.set_exception(exc)
            return 0, 0
        # Gather every per-row field the scatter needs in one fancy
        # index + tolist per array: ~20 numpy scalar extractions per
        # row cost as much as the pool step itself, while one gather
        # per array is near-free and yields native Python scalars.
        # Snapshotting before the scatter also makes the values immune
        # to row compaction triggered by a kill-evict mid-wave.
        idx = np.fromiter(
            (row for row, _ in rows), dtype=np.intp, count=len(rows)
        )
        cols = {
            name: getattr(pool, name)[idx].tolist()
            for name in _SCATTER_COLS
        }
        cols["pre_tier"] = pre_tier[idx].tolist()
        cols["pre_degraded"] = pre_degraded[idx].tolist()
        survivors = 0
        for i, (row, pending) in enumerate(rows):
            try:
                entry, killed = self._write_through(
                    pool, row, pending, cols, i
                )
            except Exception as exc:
                if not pending.future.done():
                    pending.future.set_exception(exc)
                continue
            if not killed:
                survivors += 1
            self._settle(pending, entry, killed)
        return len(rows), survivors

    def _settle(
        self, pending: _Pending, entry: Dict[str, Any], killed: bool
    ) -> None:
        """Record one executed entry; resolve or carry the frame.

        A kill truncates the frame (scalar batch semantics); a frame
        whose waiter vanished mid-flight is dropped rather than
        carried — its executed heartbeats stand, like a scalar batch
        whose connection died after dispatch.
        """
        done = pending.push(entry) or killed
        if done or pending.future.cancelled():
            if not pending.future.done():
                pending.future.set_result(pending.results)
        else:
            self._carry.append(pending)

    def _frontier_lists(
        self, pool: SessionPool
    ) -> Tuple[List[int], List[float], List[float], List[float]]:
        """Native-scalar views of the cohort frontier, cached per spec.

        The cache holds a reference to the spec itself so the ``id``
        key can never be recycled by a different object.
        """
        spec = pool.spec
        cached = self._frontiers.get(id(spec))
        if cached is None:
            cached = (
                spec,
                spec.frontier_indices.tolist(),
                spec.frontier_speedups.tolist(),
                spec.frontier_accuracies.tolist(),
                spec.frontier_power_factors.tolist(),
            )
            self._frontiers[id(spec)] = cached
        return cached[1], cached[2], cached[3], cached[4]

    def _write_through(
        self,
        pool: SessionPool,
        row: int,
        pending: _Pending,
        cols: Dict[str, List[Any]],
        i: int,
    ) -> Tuple[Dict[str, Any], bool]:
        """Mirror one pooled step's side effects onto scalar state.

        Everything the scalar step path records per heartbeat that the
        pool does not keep (ladder transition records, telemetry,
        manager counters, the kill close) happens here, in the scalar
        path's order.  ``cols`` is the flush's column gather (see
        :meth:`_step_pool`); ``i`` is this row's position in it.
        """
        session_id = pending.session_id
        session = self.manager._sessions[session_id]
        energy_j = float(pending.current[0].energy_j)
        steps = cols["steps"][i]
        session.steps = steps
        session.last_active_s = self.manager.clock()
        pre_tier = cols["pre_tier"][i]
        post = cols["tier"][i]
        ladder = session.ladder
        if ladder is not None and post != pre_tier:
            transition = TierTransition(
                step=steps,
                from_tier=Tier(pre_tier),
                to_tier=Tier(post),
                projected_overrun=cols["last_overrun"][i],
                burn_fraction=cols["last_burn"][i],
                headroom_steps=cols["last_headroom"][i],
            )
            ladder.transitions.append(transition)
            self.manager.telemetry.record_transition(
                session_id, transition
            )
        if int(Tier.DEGRADE) <= post < int(Tier.KILL):
            # Scalar equivalent: "newly degraded" is judged after the
            # top-of-step clear (a pre-observe tier below DEGRADE
            # resets sensor-loss degradation).
            was_degraded = cols["pre_degraded"][i] and pre_tier >= int(
                Tier.DEGRADE
            )
            if not was_degraded:
                self.manager.sessions_degraded += 1
                self.manager.telemetry.record_event(
                    "session_degraded",
                    session=session_id,
                    step=steps,
                    reclaimed_j=0.0,
                )
        recorder = session.step_metrics
        if recorder is not None:
            effective = cols["budget_j"][i] + cols["adjustment_j"][i]
            used = cols["energy_used_j"][i]
            recorder.record(
                energy_j,
                cols["d_pole"][i],
                cols["epsilon"][i],
                used / max(effective, 1e-12),
                Tier(post),
                max(0.0, used - effective),
            )
        if cols["killed"][i]:
            burn = cols["last_burn"][i]
            self.manager.sessions_killed += 1
            self.manager.telemetry.record_event(
                "session_killed",
                session=session_id,
                step=steps,
                burn_fraction=round(burn, 6),
            )
            # Write the final controller/ladder state back, then close
            # through the manager so budget retirement is the scalar
            # path, byte for byte.
            self._evict(session_id)
            report = self.manager.close(session_id, reason="killed")
            return (
                {
                    "killed": True,
                    "report": report,
                    "enforcement": {"tier": "kill", "throttle_s": 0.0},
                },
                True,
            )
        f_idx, f_speed, f_acc, f_power = self._frontier_lists(pool)
        fpos = cols["d_fpos"][i]
        decision = {
            "system_index": cols["d_sys"][i],
            "app_index": f_idx[fpos],
            "app_speedup": f_speed[fpos],
            "app_accuracy": f_acc[fpos],
            "app_power_factor": f_power[fpos],
            "speedup_setpoint": cols["d_setpoint"][i],
            "pole": cols["d_pole"][i],
            "epsilon": cols["d_epsilon"][i],
            "explored": cols["d_explored"][i],
            "feasible": cols["d_feasible"][i],
        }
        enforcement = {
            "tier": Tier(post).label,
            "throttle_s": cols["throttle_s"][i],
        }
        return {"decision": decision, "enforcement": enforcement}, False

    # -- scalar solo path ----------------------------------------------
    def _solo_step(self, pending: _Pending) -> None:
        """Serve a lone heartbeat scalar-side (uncontended regime).

        Unlike a fallback this is a deliberate performance choice, not
        an inability to vectorize, so it has its own counter.  The
        resident row (if any) is evicted once at the regime change;
        the unmodified scalar step path then owns the session — which
        also keeps the rebalance cadence exact, since ``manager.step``
        advances the per-step counter itself.
        """
        self._evict(pending.session_id)
        # With no second session to interleave, run the whole frame to
        # completion — the same synchronous loop (and the same event-
        # loop occupancy) as the scalar backend's batch handler.
        while True:
            self.solos += 1
            self.manager.telemetry.record_vexec_solo()
            measurement, sensor_ok = pending.current
            try:
                entry = self._scalar_entry(
                    pending.session_id, measurement, sensor_ok
                )
            except Exception as exc:
                if not pending.future.done():
                    pending.future.set_exception(exc)
                return
            done = pending.push(entry) or bool(entry.get("killed"))
            if done or pending.future.cancelled():
                if not pending.future.done():
                    pending.future.set_result(pending.results)
                return

    # -- scalar fallback -----------------------------------------------
    def _fallback(self, pending: _Pending, reason: str) -> None:
        """Serve the frame's current entry via the scalar path."""
        self.fallbacks += 1
        self.manager.telemetry.record_vexec_fallback(reason)
        self._evict(pending.session_id)
        measurement, sensor_ok = pending.current
        try:
            entry = self._scalar_entry(
                pending.session_id, measurement, sensor_ok
            )
        except Exception as exc:
            if not pending.future.done():
                pending.future.set_exception(exc)
            return
        self._settle(pending, entry, bool(entry.get("killed")))

    def _scalar_entry(
        self, session_id: str, measurement: Any, sensor_ok: bool
    ) -> Dict[str, Any]:
        try:
            decision = self.manager.step(
                session_id, measurement, sensor_ok=sensor_ok
            )
        except SessionKilled as exc:
            return {
                "killed": True,
                "report": exc.report,
                "enforcement": {"tier": "kill", "throttle_s": 0.0},
            }
        return {
            "decision": decision_payload(decision),
            "enforcement": self.manager.enforcement_of(session_id),
        }

    # -- adopt / evict -------------------------------------------------
    def _pool_for(self, session: Session) -> "SessionPool":
        from ..fleet.cohort import CohortSpec
        from ..fleet.pool import SessionPool

        key = (session.machine_name, session.app_name)
        pool = self._pools.get(key)
        if pool is None:
            spec = CohortSpec.from_pair(
                self.manager._machine(session.machine_name),
                self.manager._app(session.app_name),
            )
            pool = SessionPool(
                spec,
                policy=self.manager.enforcement,
                smoothing=self.manager.smoothing,
                mode="exact",
            )
            self._pools[key] = pool
        return pool

    def _adopt(
        self, session: Session
    ) -> Optional[Tuple[SessionPool, int]]:
        """Lower one session into its cohort pool (None = can't)."""
        from ..fleet.pool import FleetError

        pool = self._pool_for(session)
        try:
            row = pool.adopt(
                session.runtime,
                seed=session.seed,
                steps=session.steps,
                ladder=session.ladder,
                recent_epw=session.recent_epw,
                recent_step_energy_j=session.recent_step_energy_j,
                degraded=session.degraded,
                throttle_s=session.throttle_s,
                warm=session.warm_started,
            )
        except FleetError as exc:
            # The caller serves the frame via the scalar fallback
            # path, which counts it (reason="adopt"); keep the cause
            # for diagnosis since the counter only keeps the reason.
            self.last_adopt_error = f"{type(exc).__name__}: {exc}"
            return None
        self._rows[session.session_id] = (pool, row)
        self.manager.telemetry.record_vexec_adopt(len(self._rows))
        return pool, row

    def _evict(self, session_id: Optional[str]) -> None:
        """Write one pooled session back to its scalar objects."""
        if session_id is None:
            return
        placed = self._rows.pop(session_id, None)
        if placed is None:
            return
        pool, row = placed
        session = self.manager._sessions.get(session_id)
        if session is None:  # defensive: orphaned row, just retire it
            pool.close_rows(np.array([row]))
        else:
            state = pool.evict(
                row, session.runtime, ladder=session.ladder
            )
            session.steps = state["steps"]
            session.recent_epw = state["recent_epw"]
            session.recent_step_energy_j = state[
                "recent_step_energy_j"
            ]
            session.degraded = state["degraded"]
            session.throttle_s = state["throttle_s"]
        self.manager.telemetry.record_vexec_evict(len(self._rows))
        self._maybe_compact(pool)

    def _scalar_sync(self, session_id: Optional[str]) -> None:
        """The :attr:`SessionManager.scalar_sync` hook.

        ``None`` means "everything": whole-manager sweeps need every
        session scalar-current.  Re-entry is safe: rows are popped
        before evicting, so the manager calls the hook makes on the
        way (close -> report -> _get) find nothing to do.
        """
        if session_id is not None:
            self._evict(session_id)
            return
        for sid in list(self._rows):
            self._evict(sid)

    def _accounting_sync(self) -> None:
        """The cheap :attr:`SessionManager.accounting_sync` hook.

        Rebalance fires roughly once per flush under load (every
        ``rebalance_period`` survivor steps), and a full evict/re-adopt
        of the pool there costs more than the vectorized step saves.
        It only reads accountant tallies and the smoothed epw, so copy
        exactly those onto the scalar objects — the same float values
        :meth:`SessionPool.evict` would have written — and leave the
        rows resident.
        """
        for sid, (pool, row) in self._rows.items():
            session = self.manager._sessions.get(sid)
            if session is None:
                continue
            accountant = session.runtime.accountant
            accountant.work_done = float(pool.work_done[row])
            accountant.energy_used_j = float(pool.energy_used_j[row])
            session.recent_epw = (
                float(pool.recent_epw[row])
                if bool(pool.has_epw[row])
                else None
            )

    def _accounting_merge(self) -> None:
        """The :attr:`SessionManager.accounting_merge` hook.

        A rebalance plan just landed on the scalar accountants
        (``adjust_budget``); pooled rows must price their next step
        against the same effective budgets.  Adjustments are the only
        accountant field a rebalance writes, so this is the whole
        write-back.
        """
        for sid, (pool, row) in self._rows.items():
            session = self.manager._sessions.get(sid)
            if session is None:
                continue
            pool.adjustment_j[row] = (
                session.runtime.accountant.adjustment_j
            )

    def _maybe_compact(self, pool: SessionPool) -> None:
        if pool.n - pool.alive_count < _COMPACT_SLACK and not (
            pool.alive_count == 0 and pool.n > 0
        ):
            return
        kept = pool.compact()
        remap = {int(old): new for new, old in enumerate(kept)}
        for sid, (p, row) in list(self._rows.items()):
            if p is pool:
                self._rows[sid] = (p, remap[row])
