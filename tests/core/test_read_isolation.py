"""Read results never alias the stored knowledge.

Every read builds its own :class:`Knowledge` objects from the shards:
an embedded client gets those objects, a ``knowledge+tcp://`` client
its own copy from the wire codec.  So a caller
that mutates what ``load`` or ``fetch_many`` returned — appends a
summary, edits a parameter, swaps the system dict, rewrites a result —
must still read the stored values back, embedded and over
``knowledge+tcp://``.
"""

import copy

import pytest

from repro.core.knowledge import Knowledge, KnowledgeResult, KnowledgeSummary
from repro.core.metrics import MetricsRegistry
from repro.core.persistence.transfer import knowledge_to_dict
from repro.core.service.client import ServiceClient
from repro.core.service.server import KnowledgeServer
from repro.core.service.service import KnowledgeService
from repro.core.service.shard import KnowledgeShardMap


def make_knowledge(marker: int, host: str = "nodeA") -> Knowledge:
    return Knowledge(
        benchmark="ior", command=f"ior -m {marker}", api="MPIIO",
        num_nodes=2, num_tasks=8,
        parameters={"marker": marker, "xfersize_bytes": 1 << 20},
        summaries=[
            KnowledgeSummary(
                operation="write", api="MPIIO",
                bw_max=100.0 + marker, bw_min=90.0 + marker, bw_mean=95.0 + marker,
                bw_stddev=1.0, ops_max=30.0, ops_min=10.0, ops_mean=20.0,
                ops_stddev=5.0, iterations=2,
                results=[
                    KnowledgeResult(iteration=i, bandwidth_mib=95.0 + marker, iops=7.0)
                    for i in range(2)
                ],
            )
        ],
        system={"hostname": host},
    )


def mutate(knowledge: Knowledge) -> None:
    """Change every layer of a loaded object in place."""
    knowledge.summaries.append(
        KnowledgeSummary(
            operation="read", api="POSIX", bw_max=1.0, bw_min=1.0, bw_mean=1.0,
            bw_stddev=0.0, ops_max=1.0, ops_min=1.0, ops_mean=1.0,
            ops_stddev=0.0, iterations=0,
        )
    )
    knowledge.summaries[0].bw_mean = -1.0
    knowledge.summaries[0].results[0] = KnowledgeResult(
        iteration=0, bandwidth_mib=-1.0, iops=-1.0
    )
    knowledge.summaries[0].results.pop()
    knowledge.parameters["marker"] = "mutated"
    knowledge.parameters["extra"] = True
    knowledge.system = {"hostname": "elsewhere"}
    knowledge.command = "mutated"


@pytest.fixture(params=["embedded", "tcp"])
def client(request, tmp_path):
    """A client of an embedded service or of a TCP server."""
    if request.param == "embedded":
        shard_map = KnowledgeShardMap(tmp_path / "store", num_shards=2)
        client = ServiceClient(KnowledgeService(shard_map), sleep=lambda s: None)
        yield client
        client.close()
        return
    server = KnowledgeServer(
        tmp_path / "store", shards=2, worker_processes=2,
        metrics=MetricsRegistry(), request_timeout_s=15.0,
    )
    server.start()
    client = ServiceClient.open(f"knowledge+tcp://{server.host}:{server.port}/")
    try:
        yield client
    finally:
        client.close()
        server.close()


def test_mutating_a_loaded_object_leaves_the_store_intact(client):
    gid = client.save(make_knowledge(1))
    first = client.load(gid)
    stored = copy.deepcopy(knowledge_to_dict(first))
    mutate(first)
    for _ in range(2):
        again = client.load(gid)
        assert again.knowledge_id == gid
        assert knowledge_to_dict(again) == stored
        mutate(again)


def test_mutating_fetched_objects_leaves_the_store_intact(client):
    ids = client.save_many([make_knowledge(m, host=f"n{m}") for m in range(4)])
    first = client.fetch_many(ids)
    stored = copy.deepcopy([knowledge_to_dict(k) for k in first])
    for knowledge in first:
        mutate(knowledge)
    for _ in range(2):
        again = client.fetch_many(ids)
        assert [k.knowledge_id for k in again] == ids
        assert [knowledge_to_dict(k) for k in again] == stored
        for knowledge in again:
            mutate(knowledge)
    # A load of a fetched id reads the same stored values, also unmutated.
    assert knowledge_to_dict(client.load(ids[0])) == stored[0]
