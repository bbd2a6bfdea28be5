"""Chaos: worker-process crashes under the shard router.

A :class:`FaultPlan` crash schedule decides when a pinned worker
process is killed outright (SIGKILL — no goodbye, no flush).  The
claims under test are the shard layer's crash contract:

* the dead worker's sessions answer ``unavailable`` once (the request
  that discovers the corpse) and ``unknown_session`` after the restart
  bumps the epoch — never a hang, never a stale answer;
* the crashed worker's entire lease is forfeited to the ledger's crash
  sink, and the ledger stays exactly balanced through the whole storm
  (joules can be lost to a crash, never double-spent);
* a successor spawns with the next epoch and serves fresh sessions,
  which warm-start from the snapshot the victim persisted to the
  shared ``--state-dir`` before dying;
* the enforcement ladder's hard guarantee survives the restart: a
  runaway session on the recovered fleet is still killed with exactly
  zero hard-tier overdraft.
"""

import pytest

from repro.core.types import Measurement
from repro.faults.models import CrashFaults, FaultPlan
from repro.service import (
    ServiceClient,
    ServiceError,
    ShardRouter,
    ShardThread,
)

BUDGET_J = 1e4
PLAN = FaultPlan(
    name="shard-worker-crash",
    seed=42,
    crash=CrashFaults(at_step=6),
)


def _heartbeat(fraction_of, granted_budget_j):
    energy_j = fraction_of * granted_budget_j
    return Measurement(
        work=1.0, energy_j=energy_j, rate=10.0, power_w=energy_j
    )


def _open_on_both_workers(client):
    """Open sessions until both workers own at least one.

    Placement hashes (client, seed, ordinal), so the spread is
    deterministic; a handful of opens always covers two workers.
    """
    by_worker = {}
    for ordinal in range(8):
        opened = client.open_session(
            machine="tablet",
            app="x264",
            factor=1.5,
            total_work=200.0,
            seed=ordinal,
            client_name=f"chaos{ordinal}",
        )
        worker = opened.session.split("e", 1)[0]
        by_worker.setdefault(worker, opened)
        if len(by_worker) == 2:
            return by_worker
    raise AssertionError("eight opens never reached the second worker")


@pytest.fixture
def fleet(tmp_path):
    router = ShardRouter(
        n_shards=2,
        budget_j=BUDGET_J,
        unix_path=str(tmp_path / "router.sock"),
        state_dir=str(tmp_path / "store"),
        run_dir=str(tmp_path / "run"),
    )
    with ShardThread(router):
        with ServiceClient(unix_path=router.unix_path) as client:
            yield router, client


def test_worker_crash_forfeits_recovers_and_keeps_the_guarantee(fleet):
    router, client = fleet
    by_worker = _open_on_both_workers(client)
    (victim_worker, victim), (_, survivor) = sorted(by_worker.items())
    victim_index = int(victim_worker[1:])

    # Warm both sessions up to the scheduled crash step, snapshotting
    # the victim's learned state to the shared store along the way.
    for step in range(PLAN.crash.at_step):
        for opened in (victim, survivor):
            client.step(
                opened.session,
                _heartbeat(0.02, opened.granted_budget_j),
            )
        if step == PLAN.crash.at_step // 2:
            client.snapshot(victim.session)
    old_epoch = router._workers[victim_index].epoch

    # The crash: SIGKILL the worker process mid-conversation.
    router._workers[victim_index].process.kill()
    router._workers[victim_index].process.wait()

    # First contact discovers the corpse and answers `unavailable`
    # while the router spawns the successor ...
    with pytest.raises(ServiceError) as excinfo:
        client.step(
            victim.session,
            _heartbeat(0.02, victim.granted_budget_j),
        )
    assert excinfo.value.code == "unavailable"
    # ... and afterwards the stale epoch makes the session unknown.
    with pytest.raises(ServiceError) as excinfo:
        client.step(
            victim.session,
            _heartbeat(0.02, victim.granted_budget_j),
        )
    assert excinfo.value.code == "unknown_session"
    assert router._workers[victim_index].epoch == old_epoch + 1
    assert router._workers[victim_index].alive()

    # The ledger wrote the dead worker's lease off to the crash sink
    # and still balances to the global budget exactly.
    router.ledger.assert_balanced()
    assert router.ledger.forfeited_uj > 0
    assert router.ledger.forfeits == 1

    # The survivor never noticed.
    survivor_decision = client.step(
        survivor.session,
        _heartbeat(0.02, survivor.granted_budget_j),
    )
    assert "system_index" in survivor_decision

    # Fresh sessions land on the successor and warm-start from the
    # snapshot the victim persisted before dying.
    reopened = None
    for ordinal in range(8):
        candidate = client.open_session(
            machine="tablet",
            app="x264",
            factor=1.5,
            total_work=200.0,
            seed=3,
            client_name=f"reopen{ordinal}",
        )
        if candidate.session.startswith(f"w{victim_index}e"):
            reopened = candidate
            break
        client.close(candidate.session)
    assert reopened is not None, "successor never took a session"
    assert reopened.session.startswith(
        f"w{victim_index}e{old_epoch + 1}-"
    )
    assert reopened.warm is True

    # Hard guarantee after recovery: a runaway on the healed fleet is
    # still killed with zero hard-tier overdraft.
    runaway = client.open_session(
        machine="tablet",
        app="x264",
        factor=1.5,
        total_work=100.0,
        seed=99,
        warm_start=False,
        client_name="runaway",
    )
    report = None
    for _ in range(40):
        try:
            client.step(
                runaway.session,
                _heartbeat(0.15, runaway.granted_budget_j),
            )
        except ServiceError as exc:
            report = getattr(exc, "report", None)
            break
    assert report is not None, "runaway was never killed"
    assert report["tier"] == "kill"
    assert report["hard_overdraft_j"] == 0.0
    router.ledger.assert_balanced()


def test_crash_plan_is_a_first_class_fault_plan():
    # The schedule driving the test above composes like any other
    # fault plan: reseeding keeps the crash step, scaling is identity.
    assert PLAN.reseeded(7).crash.at_step == PLAN.crash.at_step
    assert PLAN.crash.scaled(2.0) is PLAN.crash
