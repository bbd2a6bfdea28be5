"""Cross-shard lockstep: the sharded daemon is behaviorally identical.

One seeded script — mixed batch sizes, a mid-run snapshot, a runaway
slot that climbs the enforcement ladder to KILL, a warm-started second
wave, and an admission rejection — runs through a single-process
daemon and through a two-worker :class:`ShardRouter`.  The traces must
match event for event: every decision float, every enforcement tier,
every kill report, every grant.  The script is long enough (> 100
heartbeats at the default rebalance period of 25) that several
cross-session rebalances happen mid-run, so the router's
scatter/merge/plan/apply pipeline is exercised against the manager's
in-line cadence, not just the easy steady state.
"""

import pytest

from repro.service import (
    ServerThread,
    ServiceClient,
    ShardRouter,
    ShardThread,
    SessionManager,
    SnapshotStore,
)

from .lockstep import SlotSpec, assert_traces_equal, run_script

BUDGET_J = 1e4

#: Two waves: the second opens only after the first fully retires, so
#: its x264 slot warm-starts from the snapshot slot 0 took at step 30.
SCRIPT = [
    [
        SlotSpec(
            machine="tablet", app="x264", steps=48, seed=3,
            batch=8, snapshot_after=30,
        ),
        SlotSpec(
            machine="tablet", app="bodytrack", steps=40, seed=5,
            batch=1,
        ),
        SlotSpec(
            machine="tablet", app="x264", steps=30, seed=9,
            batch=4, burn_per_step=0.15, warm_start=False,
        ),
    ],
    [
        SlotSpec(
            machine="tablet", app="x264", steps=20, seed=11,
            batch=8, factor=1.2,
        ),
        SlotSpec(
            machine="tablet", app="radar", steps=10, seed=13,
            work_scale=1e9,
        ),
    ],
]


@pytest.fixture(scope="module")
def single_trace(tmp_path_factory):
    store = SnapshotStore(
        directory=tmp_path_factory.mktemp("single-store")
    )
    sock = str(tmp_path_factory.mktemp("single") / "jg.sock")
    manager = SessionManager(global_budget_j=BUDGET_J, store=store)
    with ServerThread(manager, unix_path=sock):
        with ServiceClient(unix_path=sock) as client:
            yield run_script(client, SCRIPT)


@pytest.fixture(scope="module")
def sharded(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("shard-run")
    router = ShardRouter(
        n_shards=2,
        budget_j=BUDGET_J,
        unix_path=str(run_dir / "router.sock"),
        state_dir=str(tmp_path_factory.mktemp("shard-store")),
        run_dir=str(run_dir),
    )
    with ShardThread(router):
        with ServiceClient(unix_path=router.unix_path) as client:
            trace = run_script(client, SCRIPT)
        yield router, trace


def test_traces_identical_decision_for_decision(single_trace, sharded):
    _, shard_trace = sharded
    assert_traces_equal(single_trace, shard_trace)


def test_script_reached_every_interesting_event(single_trace):
    kinds = [event[0] for event in single_trace]
    assert kinds.count("open") == 4
    assert "snapshot" in kinds
    assert kinds.count("killed") == 1
    assert kinds.count("reject") == 1

    killed = next(e for e in single_trace if e[0] == "killed")
    report = dict(killed[2])
    assert report["close_reason"] == "killed"
    assert report["tier"] == "kill"
    # The hard guarantee survives the wire: a killed session never
    # overdraws, in either deployment (trace equality extends this to
    # the sharded run).
    assert report["hard_overdraft_j"] == 0.0

    # Wave two's x264 slot warm-started from slot 0's snapshot.
    warm_open = next(
        e for e in single_trace if e[0] == "open" and e[1] == 3
    )
    assert warm_open[2] is True
    # And the oversized slot was refused at admission.
    reject = next(e for e in single_trace if e[0] == "reject")
    assert reject[1] == 4 and reject[2] == "budget_exhausted"


def test_sharded_run_spread_sessions_and_rebalanced(sharded):
    router, _ = sharded
    placed = {
        dict(sample.labels)["worker"]: sample.value
        for sample in router.registry.samples()
        if sample.name == "jg_shard_sessions_placed_total"
    }
    assert sum(placed.values()) == 4
    assert len([v for v in placed.values() if v > 0]) == 2, (
        f"script placed every session on one worker: {placed}"
    )
    rebalances = next(
        sample.value
        for sample in router.registry.samples()
        if sample.name == "jg_shard_rebalances_total"
    )
    assert rebalances >= 3


def test_sharded_ledger_stayed_balanced(sharded):
    router, _ = sharded
    router.ledger.assert_balanced()
    assert router.ledger.forfeited_uj == 0
    # Every session retired; each worker should be back near its
    # microjoule floor lease, the spent joules accounted in the
    # ledger's leased buckets rather than leaked.
    for name, leased_uj in router.ledger.leased_uj.items():
        assert leased_uj >= 0
