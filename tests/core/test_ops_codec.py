"""Property pins for the service-op payload layer (``service.ops``).

Every operation a transport carries crosses ``encode_args`` →
JSON → ``decode_args`` on the way in and ``encode_result`` → JSON →
``decode_result`` on the way out, whether over ``LocalTransport`` or a
TCP worker.  Over generated knowledge objects, id lists and scan
queries both directions must give back what went in, and an unknown op
must be refused with :class:`ServiceError` by all four functions.  The
knowledge-object strategies are the ones that pin the object codec.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.persistence.scan import GROUP_COLUMNS, METRIC_COLUMNS, ScanQuery
from repro.core.service.ops import (
    SERVICE_OPS,
    decode_args,
    decode_result,
    encode_args,
    encode_result,
)
from repro.core.knowledge import Knowledge, KnowledgeSummary
from repro.core.service.client import ServiceClient
from repro.util.errors import ServiceError, WireProtocolError
from tests.core.test_transfer_codec import ints, knowledge_objects, scalars, text


def _with_id(knowledge, knowledge_id):
    knowledge.knowledge_id = knowledge_id
    return knowledge


ids = st.integers(min_value=1, max_value=2**62)
stored = st.builds(_with_id, knowledge_objects, st.none() | ids)
id_lists = st.lists(ids, max_size=8)
benchmarks = st.none() | text
optional_ints = st.none() | ints
scan_queries = st.builds(
    ScanQuery,
    metric=st.sampled_from(sorted(METRIC_COLUMNS)),
    benchmark=benchmarks, api=benchmarks, operation=benchmarks,
    num_nodes_min=optional_ints, num_nodes_max=optional_ints,
    num_tasks_min=optional_ints, num_tasks_max=optional_ints,
    parameter=st.none() | st.tuples(text, text),
    group_by=st.lists(st.sampled_from(sorted(GROUP_COLUMNS)), unique=True).map(tuple),
    percentiles=st.lists(
        st.floats(min_value=0, max_value=100, exclude_min=True, exclude_max=True),
        max_size=3,
    ).map(tuple),
)
json_dicts = st.dictionaries(text, scalars, max_size=4)

#: Positional arguments of every op, as ``submit``/``execute`` take them.
ARGS = {
    "save": st.tuples(stored),
    "save_many": st.tuples(st.lists(stored, max_size=3)),
    "delete": st.tuples(ids),
    "load": st.tuples(ids),
    "exists": st.tuples(ids),
    "fetch_many": st.tuples(id_lists),
    "load_all": st.tuples(benchmarks),
    "list_ids": st.tuples(benchmarks),
    "count": st.tuples(benchmarks),
    "find_by_parameter": st.tuples(text, text),
    "scan": st.tuples(scan_queries),
    "stats": st.just(()),
    "ping": st.just(()),
    "health": st.just(()),
}

#: Return values of every op, as the service produces them.
RESULTS = {
    "save": ids,
    "save_many": id_lists,
    "list_ids": id_lists,
    "find_by_parameter": id_lists,
    "load": stored,
    "load_all": st.lists(stored, max_size=3),
    "fetch_many": st.lists(stored, max_size=3),
    "count": st.integers(min_value=0, max_value=2**40),
    "exists": st.booleans(),
    "stats": json_dicts,
    "health": json_dicts,
    "scan": json_dicts,
    "delete": st.none(),
    "ping": st.none(),
}


def over_json(payload: dict) -> dict:
    return json.loads(json.dumps(payload))


def test_every_op_has_argument_and_result_strategies():
    assert set(ARGS) == set(RESULTS) == SERVICE_OPS


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(ARGS)).flatmap(lambda op: st.tuples(st.just(op), ARGS[op])))
def test_args_round_trip_through_json(case):
    op, args = case
    assert decode_args(op, over_json(encode_args(op, args))) == args


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(RESULTS)).flatmap(
    lambda op: st.tuples(st.just(op), RESULTS[op])
))
def test_results_round_trip_through_json(case):
    op, result = case
    assert decode_result(op, over_json(encode_result(op, result))) == result


@settings(max_examples=50, deadline=None)
@given(st.text(max_size=12).filter(lambda op: op not in SERVICE_OPS))
def test_unknown_ops_are_refused(op):
    for codec in (encode_args, decode_args, encode_result, decode_result):
        with pytest.raises(ServiceError, match="unknown service operation"):
            codec(op, {})


class _ReplyTransport:
    """Answers every call with one canned result payload."""

    def __init__(self, reply):
        self.reply = reply

    def call(self, op, payload, *, timeout_s=None):
        return json.loads(json.dumps(self.reply))

    def close(self):
        pass


def test_client_reports_a_mangled_knowledge_reply_as_bad_frame():
    # Still valid JSON, but the knowledge codec cannot rebuild the
    # object: a protocol fault, not a persistence error of the store.
    knowledge = Knowledge(
        "ior", command="ior -w", api="POSIX", num_nodes=1, num_tasks=2,
        summaries=[KnowledgeSummary(
            operation="write", api="POSIX", bw_max=2.0, bw_min=1.0,
            bw_mean=1.5, bw_stddev=0.5, ops_max=2.0, ops_min=1.0,
            ops_mean=1.5, ops_stddev=0.5, iterations=2,
        )],
    )
    knowledge.knowledge_id = 5
    reply = encode_result("load", knowledge)
    summary = reply["knowledge"]["data"]["summaries"][0]
    summary["bw_avg"] = summary.pop("bw_mean")
    client = ServiceClient(_ReplyTransport(reply), sleep=lambda s: None)
    with pytest.raises(WireProtocolError) as excinfo:
        client.load(5)
    assert excinfo.value.wire_code == "bad-frame"
