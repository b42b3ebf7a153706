"""Property pins for the knowledge wire/JSON codec.

``knowledge_to_dict``/``io500_to_dict`` build their dicts field by
field.  Over generated objects they must equal — value, key order and
``json.dumps`` text — a reference built from ``dataclasses.asdict``
(the recursive deep-copying conversion they replaced), round-trip
through ``*_from_dict`` to an equal object, and share no mutable
container with the object they came from.
"""

import copy
import json
from dataclasses import asdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.knowledge import (
    FilesystemInfo,
    IO500Knowledge,
    IO500Testcase,
    Knowledge,
    KnowledgeResult,
    KnowledgeSummary,
)
from repro.core.persistence.transfer import (
    io500_from_dict,
    io500_to_dict,
    knowledge_from_dict,
    knowledge_to_dict,
)

text = st.text(max_size=8)
floats = st.floats(allow_nan=False, allow_infinity=False)
ints = st.integers(min_value=-(2**31), max_value=2**31)
scalars = st.one_of(text, floats, ints, st.booleans())
# An empty system dict serializes as None (no captured host), so the
# generated ones are either absent or non-empty.
systems = st.none() | st.dictionaries(text, scalars, min_size=1, max_size=4)

results = st.builds(
    KnowledgeResult,
    iteration=ints, bandwidth_mib=floats, iops=floats, latency_s=floats,
    open_time_s=floats, wrrd_time_s=floats, close_time_s=floats, total_time_s=floats,
)
summaries = st.builds(
    KnowledgeSummary,
    operation=text, api=text,
    bw_max=floats, bw_min=floats, bw_mean=floats, bw_stddev=floats,
    ops_max=floats, ops_min=floats, ops_mean=floats, ops_stddev=floats,
    iterations=ints, results=st.lists(results, max_size=5),
)
filesystems = st.none() | st.builds(
    FilesystemInfo,
    fs_type=text, entry_type=text, entry_id=text, metadata_node=text,
    stripe_pattern=text, chunk_size=text, num_targets=ints, raid_scheme=text,
    storage_pool=text,
)
knowledge_objects = st.builds(
    Knowledge,
    benchmark=st.text(min_size=1, max_size=8), command=text, api=text, test_file=text,
    file_per_proc=st.booleans(), num_nodes=ints, num_tasks=ints, tasks_per_node=ints,
    start_time=floats, end_time=floats,
    parameters=st.dictionaries(text, scalars, max_size=6),
    summaries=st.lists(summaries, max_size=6),
    filesystem=filesystems,
    system=systems,
)
testcases = st.builds(
    IO500Testcase,
    name=text, value=floats, unit=text, time_s=floats,
    options=st.dictionaries(text, text, max_size=4),
)
io500_objects = st.builds(
    IO500Knowledge,
    score_total=floats, score_bw=floats, score_md=floats,
    num_nodes=ints, num_tasks=ints, timestamp=floats, version=text,
    testcases=st.lists(testcases, max_size=12),
    system=systems,
)


def reference_knowledge_dict(k: Knowledge) -> dict:
    data = {key: value for key, value in asdict(k).items() if key != "knowledge_id"}
    return {"type": "knowledge", **data, "system": data["system"] or None}


def reference_io500_dict(k: IO500Knowledge) -> dict:
    data = {key: value for key, value in asdict(k).items() if key != "iofh_id"}
    return {"type": "io500", **data, "system": data["system"] or None}


def assert_same_dict(actual: dict, expected: dict) -> None:
    assert actual == expected
    assert json.dumps(actual) == json.dumps(expected)  # nested key order too


def scribble(value: object) -> None:
    """Mutate every container reachable from ``value`` in place."""
    if isinstance(value, dict):
        for item in list(value.values()):
            scribble(item)
        value["scribbled"] = True
    elif isinstance(value, list):
        for item in value:
            scribble(item)
        value.append("scribbled")


@settings(max_examples=80, deadline=None)
@given(knowledge_objects)
def test_knowledge_dict_matches_asdict_reference(k):
    assert_same_dict(knowledge_to_dict(k), reference_knowledge_dict(k))


@settings(max_examples=80, deadline=None)
@given(io500_objects)
def test_io500_dict_matches_asdict_reference(k):
    assert_same_dict(io500_to_dict(k), reference_io500_dict(k))


@settings(max_examples=80, deadline=None)
@given(knowledge_objects)
def test_knowledge_round_trip(k):
    assert knowledge_from_dict(knowledge_to_dict(k)) == k
    assert knowledge_from_dict(json.loads(json.dumps(knowledge_to_dict(k)))) == k


@settings(max_examples=80, deadline=None)
@given(io500_objects)
def test_io500_round_trip(k):
    assert io500_from_dict(io500_to_dict(k)) == k


@settings(max_examples=60, deadline=None)
@given(knowledge_objects)
def test_mutating_a_knowledge_dict_leaves_the_source_unchanged(k):
    before = copy.deepcopy(k)
    scribble(knowledge_to_dict(k))
    assert k == before


@settings(max_examples=60, deadline=None)
@given(io500_objects)
def test_mutating_an_io500_dict_leaves_the_source_unchanged(k):
    before = copy.deepcopy(k)
    scribble(io500_to_dict(k))  # reaches every testcases[i]["options"]
    assert k == before
