"""Smoke tests for the load generator's measurement discipline.

``benchmarks/bench_service_throughput.py`` compares 1-client and
32-client rows, which is only meaningful because ``run_load`` starts
its clock *after* every client has connected and handshaken (setup
scales with client count; the measurement window must not).  These
tests pin that invariant — and the batched/fast load paths the bench
leans on — in the tier-1 suite, where a regression fails fast instead
of silently poisoning the next trajectory file.
"""

import time

import pytest

from repro.service import (
    ServerThread,
    ServiceClient,
    SessionManager,
    SnapshotStore,
    run_load,
)

# A leaked socket only warns when it is collected (a ResourceWarning,
# reported unraisable from ``__del__``); fail the test that leaked it.
pytestmark = [
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings(
        "error::pytest.PytestUnraisableExceptionWarning"
    ),
]

SETUP_DELAY_S = 0.15


@pytest.fixture()
def daemon(tmp_path):
    manager = SessionManager(global_budget_j=1e9, store=SnapshotStore())
    sock = str(tmp_path / "load.sock")
    with ServerThread(manager, unix_path=sock):
        yield sock


def test_connection_setup_is_excluded_from_the_window(
    daemon, monkeypatch
):
    """A slow connect inflates ``setup_s``, never ``elapsed_s``.

    Each of the three clients sleeps ``SETUP_DELAY_S`` inside its
    connect; the threads set up concurrently, so the measured window
    would absorb at least one full delay if the clock started before
    the barrier.  It must not: the steps themselves take well under a
    delay's worth of wall clock.
    """
    real_connect = ServiceClient._connect

    def slow_connect(self):
        time.sleep(SETUP_DELAY_S)
        real_connect(self)

    monkeypatch.setattr(ServiceClient, "_connect", slow_connect)
    report = run_load(3, steps=2, unix_path=daemon)
    assert report.errors == 0
    assert report.total_steps == 6
    assert report.setup_s >= SETUP_DELAY_S
    assert report.elapsed_s < SETUP_DELAY_S
    # The derived rates therefore describe the steady state, not the
    # connect storm.
    assert report.steps_per_s == pytest.approx(
        report.total_steps / report.elapsed_s
    )


def test_report_carries_the_window_split(daemon):
    report = run_load(2, steps=3, unix_path=daemon, batch=2, fast=True)
    row = report.as_dict()
    assert row["setup_s"] >= 0.0
    assert row["batch"] == 2
    assert row["n_clients"] == 2
    assert row["total_steps"] == 6
    assert report.steps_per_client == 3


def test_batched_and_fast_load_completes_exactly(daemon):
    report = run_load(
        4, steps=10, unix_path=daemon, batch=4, fast=True
    )
    assert report.errors == 0
    assert report.total_steps == 40
    assert len(report.client_steps_per_s) == 4
    assert all(rate > 0 for rate in report.client_steps_per_s)
    # Per-frame latencies: 10 steps in frames of 4 is 3 round trips.
    assert report.p99_step_latency_s >= report.p50_step_latency_s


def test_failed_connections_are_counted_not_hung(tmp_path):
    report = run_load(
        2, steps=2, unix_path=str(tmp_path / "nobody-home.sock")
    )
    assert report.errors == 2
    assert report.total_steps == 0
