"""A non-finite heartbeat is refused and leaves its session able to step.

``json.loads`` reads ``1e999`` and ``Infinity`` as inf and ``NaN`` as
nan, so a client line can carry values no sensor reports.  One such
value folded into the learned tables would leave the session's rate
scale and adaptive pole NaN for good.  :class:`Measurement` refuses
them, so both the single daemon and the shard router answer
``bad_request`` without touching the session, and a ``batch_step``
with one non-finite entry is refused whole.
"""

import json
import math

import pytest

from repro.core.types import Measurement
from repro.service import (
    ServerThread,
    SessionManager,
    ShardRouter,
    ShardThread,
)

from .test_relay import _Wire

BUDGET_J = 1e4

OK = '{"work": 1.0, "energy_j": 0.5, "rate": 10.0, "power_w": 5.0}'
#: Measurements as raw JSON text: the literals are what a client sends.
NON_FINITE = [
    '{"work": 1.0, "energy_j": 0.5, "rate": 1e999, "power_w": 5.0}',
    '{"work": 1.0, "energy_j": 0.5, "rate": 10.0, "power_w": NaN}',
    '{"work": Infinity, "energy_j": 0.5, "rate": 10.0, "power_w": 5.0}',
    '{"work": 1.0, "energy_j": -1e999, "rate": 10.0, "power_w": 5.0}',
    '{"work": 1.0, "energy_j": 1e999, "rate": 10.0, "power_w": 5.0}',
]


@pytest.mark.parametrize(
    "field", ["work", "energy_j", "rate", "power_w"]
)
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_measurement_refuses_every_non_finite_field(field, value):
    fields = {"work": 1.0, "energy_j": 0.5, "rate": 10.0, "power_w": 5.0}
    fields[field] = value
    with pytest.raises(ValueError, match="finite"):
        Measurement(**fields)


def test_finite_extremes_are_still_measurements():
    Measurement(work=1e-310, energy_j=0.0, rate=1e308, power_w=1e-310)


@pytest.fixture(scope="module", params=["daemon", "router"])
def wire(request, tmp_path_factory):
    run_dir = tmp_path_factory.mktemp(request.param)
    if request.param == "daemon":
        manager = SessionManager(global_budget_j=BUDGET_J)
        thread = ServerThread(manager, unix_path=str(run_dir / "jg.sock"))
        path = thread.server.unix_path
    else:
        router = ShardRouter(
            n_shards=1,
            budget_j=BUDGET_J,
            unix_path=str(run_dir / "router.sock"),
            run_dir=str(run_dir),
        )
        thread = ShardThread(router)
        path = router.unix_path
    with thread:
        connection = _Wire(path)
        try:
            yield connection
        finally:
            connection.close()


def _send(wire, text):
    return json.loads(wire.send(text.encode() + b"\n"))


def _open(wire, seed):
    opened = _send(wire, json.dumps({
        "type": "open_session",
        "machine": "tablet",
        "app": "x264",
        "factor": 1.5,
        "total_work": 200.0,
        "seed": seed,
        "warm_start": False,
    }))
    assert opened["ok"], opened
    return opened["session"]


def _step(session, measurement, rid=None):
    rid_field = "" if rid is None else f', "rid": "{rid}"'
    return (
        f'{{"type": "step", "session": "{session}"{rid_field}, '
        f'"measurement": {measurement}}}'
    )


def _batch(session, measurements):
    return (
        f'{{"type": "batch_step", "session": "{session}", '
        f'"measurements": [{", ".join(measurements)}]}}'
    )


def _steps(wire, session):
    report = _send(wire, json.dumps({"type": "report", "session": session}))
    return report["report"]["steps"]


def test_a_non_finite_step_is_refused_and_the_session_steps_on(wire):
    session = _open(wire, seed=1)
    for index, measurement in enumerate(NON_FINITE):
        refused = _send(wire, _step(session, measurement, f"nf-{index}"))
        assert not refused["ok"]
        assert refused["error"]["code"] == "bad_request"
        assert "finite" in refused["error"]["message"]
    assert _steps(wire, session) == 0
    for _ in range(3):
        stepped = _send(wire, _step(session, OK))
        assert stepped["ok"], stepped
        assert all(
            math.isfinite(stepped["decision"][key])
            for key in ("pole", "epsilon", "speedup_setpoint")
        )
    assert _steps(wire, session) == 3
    # An error is never rid-cached: the same rid with a finite
    # measurement executes.
    retried = _send(wire, _step(session, OK, "nf-0"))
    assert retried["ok"] and retried["rid"] == "nf-0"
    assert _steps(wire, session) == 4


def test_a_batch_with_one_non_finite_entry_is_refused_whole(wire):
    session = _open(wire, seed=2)
    for measurement in NON_FINITE:
        refused = _send(wire, _batch(session, [OK, measurement, OK]))
        assert not refused["ok"]
        assert refused["error"]["code"] == "bad_request"
    assert _steps(wire, session) == 0
    applied = _send(wire, _batch(session, [OK, OK, OK]))
    assert applied["ok"] and applied["completed"] == 3
    assert _steps(wire, session) == 3


#: ``open_session`` fields as raw JSON text, one non-finite each.
NON_FINITE_OPEN = [
    ("factor", "NaN"),
    ("total_work", "NaN"),
    ("factor", "1e999"),
    ("total_work", "1e999"),
]


@pytest.mark.parametrize("field, literal", NON_FINITE_OPEN)
def test_a_non_finite_open_session_field_is_a_bad_request(
    wire, field, literal
):
    fields = {"factor": "1.5", "total_work": "200.0"}
    fields[field] = literal
    before = _send(wire, '{"type": "hello"}')["sessions"]
    refused = _send(wire, (
        '{"type": "open_session", "machine": "tablet", "app": "x264", '
        f'"factor": {fields["factor"]}, '
        f'"total_work": {fields["total_work"]}, '
        '"seed": 3, "warm_start": false}'
    ))
    assert not refused["ok"]
    assert refused["error"]["code"] == "bad_request", refused
    assert "finite" in refused["error"]["message"]
    assert _send(wire, '{"type": "hello"}')["sessions"] == before
