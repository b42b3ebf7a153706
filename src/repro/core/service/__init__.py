"""Knowledge service: concurrent, sharded, cache-fronted serving layer.

The serving story for the Phase-III knowledge base (§V-C "locally or
remotely"): a :class:`KnowledgeShardMap` partitions knowledge across
independent SQLite shards behind a discovery manifest, a
:class:`KnowledgeService` fronts them with a bounded queue, worker pool
and epoch-invalidated LRU cache, and a :class:`ServiceClient` gives the
explorer and usage modules the blocking repository-shaped API they
already speak — embedded through ``knowledge+service://`` URLs, or
across processes and hosts through ``knowledge+tcp://`` against a
:class:`KnowledgeServer` (``repro-serve --listen``) whose shard groups
run in separate worker processes speaking the versioned
``repro.wire/v1`` protocol.
"""

from repro.core.service.cache import EpochLRUCache
from repro.core.service.chaos import (
    ChaosPolicy,
    ChaosProxy,
    WorkerKiller,
    parse_chaos_spec,
)
from repro.core.service.client import (
    SERVICE_URL_SCHEME,
    TCP_URL_SCHEME,
    ServiceClient,
    is_service_url,
    is_tcp_url,
    open_service,
    parse_service_url,
    parse_tcp_url,
)
from repro.core.service.ops import LocalTransport, ServiceDispatcher
from repro.core.service.server import (
    CrashLoopedHandle,
    KnowledgeServer,
    WorkerSupervisor,
)
from repro.core.service.service import KnowledgeService
from repro.core.service.shard import (
    MAX_SHARDS,
    KnowledgeShard,
    KnowledgeShardMap,
    decode_knowledge_id,
    encode_knowledge_id,
    group_by_owner,
    shard_index_for_key,
    shard_key,
)
from repro.core.service.transport import TcpTransport
from repro.core.service.wire import MAX_FRAME_BYTES, PROTOCOL, WIRE_VERSION

__all__ = [
    "MAX_FRAME_BYTES",
    "MAX_SHARDS",
    "PROTOCOL",
    "SERVICE_URL_SCHEME",
    "TCP_URL_SCHEME",
    "WIRE_VERSION",
    "ChaosPolicy",
    "ChaosProxy",
    "CrashLoopedHandle",
    "EpochLRUCache",
    "KnowledgeServer",
    "KnowledgeShard",
    "KnowledgeShardMap",
    "KnowledgeService",
    "LocalTransport",
    "ServiceClient",
    "ServiceDispatcher",
    "TcpTransport",
    "WorkerKiller",
    "WorkerSupervisor",
    "decode_knowledge_id",
    "encode_knowledge_id",
    "group_by_owner",
    "is_service_url",
    "is_tcp_url",
    "open_service",
    "parse_chaos_spec",
    "parse_service_url",
    "parse_tcp_url",
    "shard_index_for_key",
    "shard_key",
]
