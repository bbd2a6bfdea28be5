"""Property-based tests (hypothesis) on the shard router's byte relay.

The router passes an ok ``step``/``report``/``snapshot``/``close``
reply from a worker back to its client without decoding it; a request's
``rid`` reaches the worker, which writes it into the reply.  This rests
on the workers encoding canonically (:func:`encode_message` sorts
keys): a relayed line, with or without a rid, must be the canonical
encoding of what it says, and only ok not-killed replies may match the
relay's first-key test.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.protocol import (
    ERROR_CODES,
    decode_message,
    encode_message,
    error_response,
    ok_response,
)
from repro.service.shard import _OK_PREFIXES

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)

# Nested keys include "type", "ok" and "rid" on purpose: the relay
# must only ever look at the top level.
keys = st.one_of(
    st.sampled_from(["type", "ok", "rid", "state", "session", "tier"]),
    st.text(max_size=10),
)

json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(keys, children, max_size=4),
    ),
    max_leaves=16,
)

objects = st.dictionaries(keys, json_values, max_size=6)

# Up to the protocol's 128 characters; quotes, backslashes, control
# characters and non-ASCII all need escaping on the wire.  A rid sorts
# between a reply's first key and its last, so it must not move either.
rids = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\n\t\x00é€😀'),
        st.characters(),
    ),
    min_size=1,
    max_size=128,
)

enforcements = st.fixed_dictionaries(
    {
        "tier": st.sampled_from(["nominal", "advise", "throttle"]),
        "throttle_s": st.floats(min_value=0.0, max_value=10.0),
    }
)


def _ok_replies():
    """What a worker answers an ok, not-killed relayed verb with."""
    return st.one_of(
        st.builds(
            lambda decision, enforcement: ok_response(
                "step", decision=decision, enforcement=enforcement
            ),
            objects,
            enforcements,
        ),
        st.builds(
            lambda verb, report: ok_response(verb, report=report),
            st.sampled_from(["report", "close"]),
            objects,
        ),
        st.builds(
            lambda state: ok_response("snapshot", state=state), objects
        ),
    )


killed_replies = st.builds(
    lambda report: ok_response(
        "step",
        killed=True,
        report=report,
        enforcement={"tier": "kill", "throttle_s": 0.0},
    ),
    objects,
)

error_replies = st.builds(
    error_response,
    st.sampled_from(ERROR_CODES),
    st.text(max_size=40),
    st.one_of(st.none(), objects),
)


def _with_rid(replies):
    """``replies`` as a worker answers them, a request's rid or none.

    A worker writes the rid into ok replies only (``_answered``).
    """
    return st.builds(
        lambda reply, rid: (
            {**reply, "rid": rid} if reply["ok"] and rid else reply
        ),
        replies,
        st.one_of(st.none(), rids),
    )


@settings(max_examples=150)
@given(
    reply=_with_rid(st.one_of(_ok_replies(), killed_replies, error_replies))
)
def test_a_worker_line_is_its_own_canonical_encoding(reply):
    line = encode_message(reply)
    assert line == encode_message(decode_message(line))


@settings(max_examples=150)
@given(reply=_with_rid(_ok_replies()))
def test_ok_replies_are_relayed(reply):
    assert encode_message(reply).startswith(_OK_PREFIXES)


@settings(max_examples=100)
@given(reply=_with_rid(st.one_of(killed_replies, error_replies)))
def test_killed_and_error_replies_are_decoded(reply):
    assert not encode_message(reply).startswith(_OK_PREFIXES)
