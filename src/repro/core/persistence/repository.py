"""Knowledge repository: save/load benchmark knowledge objects.

Maps :class:`~repro.core.knowledge.Knowledge` onto the
performances/summaries/results/filesystems/systems tables and back,
losslessly — the paper's requirement that stored knowledge supports
"a rich set of visualization options" (§V-C) means the individual
iteration results must round-trip, not just the summaries.
"""

from __future__ import annotations

import json
from sqlite3 import Row
from typing import Sequence

from repro.core.knowledge import (
    FilesystemInfo,
    Knowledge,
    KnowledgeResult,
    KnowledgeSummary,
)
from repro.core.persistence import schema
from repro.core.persistence.backend import PersistenceBackend
from repro.core.persistence.scan import (
    _LOG_GAMMA,
    GROUP_COLUMNS,
    METRIC_COLUMNS,
    AggregateState,
    PercentileSketch,
    ScanQuery,
    ScanResult,
    chunked,
    escape_like,
    finalize_partials,
    group_key,
    summary_eligible,
)
from repro.util.errors import PersistenceError

__all__ = ["KnowledgeRepository"]

_AGG_UPSERT = """
    INSERT INTO agg_summaries
        (benchmark, api, operation, metric, n, total, total_sq, vmin, vmax)
    VALUES (?, ?, ?, ?, 1, ?, ?, ?, ?)
    ON CONFLICT (benchmark, api, operation, metric) DO UPDATE SET
        n = n + 1,
        total = total + excluded.total,
        total_sq = total_sq + excluded.total_sq,
        vmin = MIN(vmin, excluded.vmin),
        vmax = MAX(vmax, excluded.vmax)
"""

# The read path's three SELECTs.  Each names its columns in the field
# order of the dataclasses built from it, so _build_knowledge takes rows
# positionally instead of by column name.  A knowledge object's
# filesystem and system rows ride on its performances row (one each at
# most, both absent when their NOT NULL first column reads NULL).
_PERFORMANCES_SELECT = (
    "SELECT p.id, p.benchmark, p.command, p.api, p.testFileName, p.filePerProc, "
    "p.num_nodes, p.num_tasks, p.tasks_per_node, p.start_time, p.end_time, "
    "p.parameters_json, "
    "f.fs_type, f.entry_type, f.entry_id, f.metadata_node, f.stripe_pattern, "
    "f.chunk_size, f.num_targets, f.raid_scheme, f.storage_pool, "
    "y.hostname, y.system_name, y.processor_model, y.architecture, "
    "y.processor_cores, y.processor_mhz, y.cache_bytes, y.memory_bytes "
    "FROM performances p "
    "LEFT JOIN filesystems f ON f.performance_id = p.id "
    "LEFT JOIN systems y ON y.performance_id = p.id "
    "WHERE p.id IN ({marks})"
)
_SUMMARIES_SELECT = (
    "SELECT id, performance_id, operation, api, bw_max, bw_min, bw_mean, "
    "bw_stddev, ops_max, ops_min, ops_mean, ops_stddev, iterations "
    "FROM summaries WHERE performance_id IN ({marks}) ORDER BY id"
)
_RESULTS_SELECT = (
    "SELECT r.summaries_id, r.iteration, r.bandwidth, r.ops, r.latency, "
    "r.openTime, r.wrRdTime, r.closeTime, r.totalTime "
    "FROM results r JOIN summaries s ON s.id = r.summaries_id "
    "WHERE s.performance_id IN ({marks}) ORDER BY r.summaries_id, r.id"
)
#: Keys of a loaded ``Knowledge.system`` dict, in ``_PERFORMANCES_SELECT`` order.
_SYSTEM_KEYS = (
    "hostname", "system_name", "processor_model", "architecture",
    "processor_cores", "processor_mhz", "cache_size_bytes", "memory_bytes",
)


def _build_knowledge(
    performance: Row, summaries: Sequence[Row], results: dict[int, list[Row]]
) -> Knowledge:
    """One fresh :class:`Knowledge` from its rows (the read path's builder)."""
    return Knowledge(
        *performance[1:5],  # benchmark, command, api, test_file
        bool(performance[5]),
        *performance[6:11],  # num_nodes … end_time
        json.loads(performance[11]),
        [
            KnowledgeSummary(
                *s[2:], [KnowledgeResult(*r[1:]) for r in results.get(s[0], ())]
            )
            for s in summaries
        ],
        None if performance[12] is None else FilesystemInfo(*performance[12:21]),
        None if performance[21] is None else dict(zip(_SYSTEM_KEYS, performance[21:])),
        performance[0],
    )


class KnowledgeRepository:
    """CRUD for benchmark knowledge objects.

    Depends only on the :class:`PersistenceBackend` protocol, so any
    conforming engine (plain SQLite, the resilient wrapper, future
    async/sharded backends) can hold the knowledge base.
    """

    def __init__(self, db: PersistenceBackend) -> None:
        self.db = db

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def save(self, knowledge: Knowledge) -> int:
        """Persist one knowledge object; returns its new id."""
        cur = self.db.execute(
            """
            INSERT INTO performances
                (benchmark, command, api, testFileName, filePerProc,
                 num_nodes, num_tasks, tasks_per_node, start_time, end_time,
                 parameters_json)
            VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
            """,
            (
                knowledge.benchmark,
                knowledge.command,
                knowledge.api,
                knowledge.test_file,
                int(knowledge.file_per_proc),
                knowledge.num_nodes,
                knowledge.num_tasks,
                knowledge.tasks_per_node,
                knowledge.start_time,
                knowledge.end_time,
                json.dumps(knowledge.parameters, sort_keys=True, default=str),
            ),
        )
        perf_id = int(cur.lastrowid)
        for summary in knowledge.summaries:
            self._save_summary(perf_id, summary)
        if knowledge.filesystem is not None:
            self._save_filesystem(perf_id, knowledge.filesystem)
        if knowledge.system is not None:
            self._save_system(perf_id, knowledge.system)
        self._record_agg(knowledge)
        self.db.commit()
        knowledge.knowledge_id = perf_id
        return perf_id

    def save_many(self, knowledge: Sequence[Knowledge]) -> list[int]:
        """Persist several knowledge objects in one transaction.

        Either every object lands or none does — a failure mid-batch
        rolls the whole batch back.

        The write path is batched: ids are computed up front (continuing
        the ``AUTOINCREMENT`` sequence, so deleted ids are never reused)
        and each table receives one ``executemany`` for the whole batch
        instead of one ``INSERT`` round-trip per row.  The agg upsert
        stays inside the same transaction, so ``agg_summaries`` cannot
        drift from the base tables.
        """
        knowledge = list(knowledge)
        if not knowledge:
            return []
        with self.db.transaction():
            ids = self._save_batch(knowledge)
        for k, perf_id in zip(knowledge, ids):
            k.knowledge_id = perf_id
        return ids

    def _next_explicit_id(self, table: str) -> int:
        """First id an explicit-id batch insert into ``table`` may use.

        ``MAX(id)`` alone regresses after a delete; ``AUTOINCREMENT``
        tables promise never to reuse ids, so the ``sqlite_sequence``
        high-water mark (when present) is folded in too — explicit-id
        inserts above it keep the sequence advancing exactly as the
        implicit path would.
        """
        row = self.db.execute(f"SELECT COALESCE(MAX(id), 0) AS m FROM {table}").fetchone()
        base = int(row["m"])
        has_seq = self.db.execute(
            "SELECT 1 FROM sqlite_master WHERE type = 'table' AND name = 'sqlite_sequence'"
        ).fetchone()
        if has_seq is not None:
            seq = self.db.execute(
                "SELECT seq FROM sqlite_sequence WHERE name = ?", (table,)
            ).fetchone()
            if seq is not None:
                base = max(base, int(seq["seq"]))
        return base + 1

    def _save_batch(self, knowledge: list[Knowledge]) -> list[int]:
        """One ``executemany`` per table for the whole batch."""
        perf_base = self._next_explicit_id("performances")
        summary_base = self._next_explicit_id("summaries")
        perf_rows: list[tuple] = []
        summary_rows: list[tuple] = []
        result_rows: list[tuple] = []
        fs_rows: list[tuple] = []
        sys_rows: list[tuple] = []
        agg_rows: list[tuple] = []
        next_summary = summary_base
        for offset, k in enumerate(knowledge):
            perf_id = perf_base + offset
            perf_rows.append(
                (
                    perf_id,
                    k.benchmark,
                    k.command,
                    k.api,
                    k.test_file,
                    int(k.file_per_proc),
                    k.num_nodes,
                    k.num_tasks,
                    k.tasks_per_node,
                    k.start_time,
                    k.end_time,
                    json.dumps(k.parameters, sort_keys=True, default=str),
                )
            )
            for s in k.summaries:
                summary_id = next_summary
                next_summary += 1
                summary_rows.append(
                    (
                        summary_id,
                        perf_id,
                        s.operation,
                        s.api,
                        s.bw_max,
                        s.bw_min,
                        s.bw_mean,
                        s.bw_stddev,
                        s.ops_max,
                        s.ops_min,
                        s.ops_mean,
                        s.ops_stddev,
                        s.iterations,
                    )
                )
                result_rows.extend(
                    (
                        summary_id,
                        r.iteration,
                        r.bandwidth_mib,
                        r.iops,
                        r.latency_s,
                        r.open_time_s,
                        r.wrrd_time_s,
                        r.close_time_s,
                        r.total_time_s,
                    )
                    for r in s.results
                )
                for metric in schema.AGG_METRICS:
                    value = float(getattr(s, metric))
                    agg_rows.append(
                        (k.benchmark, k.api, s.operation, metric,
                         value, value * value, value, value)
                    )
            if k.filesystem is not None:
                fs = k.filesystem
                fs_rows.append(
                    (
                        perf_id,
                        fs.fs_type,
                        fs.entry_type,
                        fs.entry_id,
                        fs.metadata_node,
                        fs.stripe_pattern,
                        fs.chunk_size,
                        fs.num_targets,
                        fs.raid_scheme,
                        fs.storage_pool,
                    )
                )
            if k.system is not None:
                system = k.system
                sys_rows.append(
                    (
                        perf_id,
                        str(system.get("hostname", "")),
                        str(system.get("system_name", "")),
                        str(system.get("processor_model", "")),
                        str(system.get("architecture", "")),
                        int(system.get("processor_cores", 0) or 0),
                        float(system.get("processor_mhz", 0) or 0),
                        int(system.get("cache_size_bytes", 0) or 0),
                        int(system.get("memory_bytes", 0) or 0),
                    )
                )
        self.db.executemany(
            """
            INSERT INTO performances
                (id, benchmark, command, api, testFileName, filePerProc,
                 num_nodes, num_tasks, tasks_per_node, start_time, end_time,
                 parameters_json)
            VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
            """,
            perf_rows,
        )
        if summary_rows:
            self.db.executemany(
                """
                INSERT INTO summaries
                    (id, performance_id, operation, api, bw_max, bw_min, bw_mean,
                     bw_stddev, ops_max, ops_min, ops_mean, ops_stddev, iterations)
                VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                """,
                summary_rows,
            )
        if result_rows:
            self.db.executemany(
                """
                INSERT INTO results
                    (summaries_id, iteration, bandwidth, ops, latency,
                     openTime, wrRdTime, closeTime, totalTime)
                VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)
                """,
                result_rows,
            )
        if fs_rows:
            self.db.executemany(
                """
                INSERT INTO filesystems
                    (performance_id, fs_type, entry_type, entry_id, metadata_node,
                     stripe_pattern, chunk_size, num_targets, raid_scheme, storage_pool)
                VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                """,
                fs_rows,
            )
        if sys_rows:
            self.db.executemany(
                """
                INSERT INTO systems
                    (performance_id, IOFH_id, hostname, system_name, processor_model,
                     architecture, processor_cores, processor_mhz, cache_bytes, memory_bytes)
                VALUES (?, NULL, ?, ?, ?, ?, ?, ?, ?, ?)
                """,
                sys_rows,
            )
        if agg_rows:
            self.db.executemany(_AGG_UPSERT, agg_rows)
        return [perf_base + offset for offset in range(len(knowledge))]

    def _save_summary(self, perf_id: int, s: KnowledgeSummary) -> int:
        cur = self.db.execute(
            """
            INSERT INTO summaries
                (performance_id, operation, api, bw_max, bw_min, bw_mean,
                 bw_stddev, ops_max, ops_min, ops_mean, ops_stddev, iterations)
            VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
            """,
            (
                perf_id,
                s.operation,
                s.api,
                s.bw_max,
                s.bw_min,
                s.bw_mean,
                s.bw_stddev,
                s.ops_max,
                s.ops_min,
                s.ops_mean,
                s.ops_stddev,
                s.iterations,
            ),
        )
        summary_id = int(cur.lastrowid)
        if s.results:
            self.db.executemany(
                """
                INSERT INTO results
                    (summaries_id, iteration, bandwidth, ops, latency,
                     openTime, wrRdTime, closeTime, totalTime)
                VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)
                """,
                [
                    (
                        summary_id,
                        r.iteration,
                        r.bandwidth_mib,
                        r.iops,
                        r.latency_s,
                        r.open_time_s,
                        r.wrrd_time_s,
                        r.close_time_s,
                        r.total_time_s,
                    )
                    for r in s.results
                ],
            )
        return summary_id

    def _save_filesystem(self, perf_id: int, fs: FilesystemInfo) -> None:
        self.db.execute(
            """
            INSERT INTO filesystems
                (performance_id, fs_type, entry_type, entry_id, metadata_node,
                 stripe_pattern, chunk_size, num_targets, raid_scheme, storage_pool)
            VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
            """,
            (
                perf_id,
                fs.fs_type,
                fs.entry_type,
                fs.entry_id,
                fs.metadata_node,
                fs.stripe_pattern,
                fs.chunk_size,
                fs.num_targets,
                fs.raid_scheme,
                fs.storage_pool,
            ),
        )

    def _record_agg(self, knowledge: Knowledge) -> None:
        """Fold one knowledge object into the pre-aggregated summaries.

        Runs inside the same transaction as :meth:`save`, so the agg
        table can never drift from the base tables.
        """
        rows = []
        for s in knowledge.summaries:
            for metric in schema.AGG_METRICS:
                value = float(getattr(s, metric))
                rows.append(
                    (
                        knowledge.benchmark,
                        knowledge.api,
                        s.operation,
                        metric,
                        value,
                        value * value,
                        value,
                        value,
                    )
                )
        if rows:
            self.db.executemany(_AGG_UPSERT, rows)

    def _save_system(self, perf_id: int, system: dict[str, object]) -> None:
        self.db.execute(
            """
            INSERT INTO systems
                (performance_id, IOFH_id, hostname, system_name, processor_model,
                 architecture, processor_cores, processor_mhz, cache_bytes, memory_bytes)
            VALUES (?, NULL, ?, ?, ?, ?, ?, ?, ?, ?)
            """,
            (
                perf_id,
                str(system.get("hostname", "")),
                str(system.get("system_name", "")),
                str(system.get("processor_model", "")),
                str(system.get("architecture", "")),
                int(system.get("processor_cores", 0) or 0),
                float(system.get("processor_mhz", 0) or 0),
                int(system.get("cache_size_bytes", 0) or 0),
                int(system.get("memory_bytes", 0) or 0),
            ),
        )

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def load(self, knowledge_id: int) -> Knowledge:
        """Load one knowledge object by id."""
        return self.fetch_many([knowledge_id])[0]

    def count(self, benchmark: str | None = None) -> int:
        """Number of stored knowledge objects (``SELECT COUNT``, no rows).

        The fast path for summary headers: counting a large knowledge
        base must not deserialise it.
        """
        if benchmark is None:
            row = self.db.execute("SELECT COUNT(*) AS n FROM performances").fetchone()
        else:
            row = self.db.execute(
                "SELECT COUNT(*) AS n FROM performances WHERE benchmark = ?", (benchmark,)
            ).fetchone()
        return int(row["n"])

    def exists(self, knowledge_id: int) -> bool:
        """Whether a knowledge object exists (``SELECT 1``, no row fetch)."""
        row = self.db.execute(
            "SELECT 1 FROM performances WHERE id = ? LIMIT 1", (knowledge_id,)
        ).fetchone()
        return row is not None

    def list_ids(self, benchmark: str | None = None) -> list[int]:
        """All knowledge ids, optionally filtered by benchmark name."""
        if benchmark is None:
            rows = self.db.execute("SELECT id FROM performances ORDER BY id").fetchall()
        else:
            rows = self.db.execute(
                "SELECT id FROM performances WHERE benchmark = ? ORDER BY id", (benchmark,)
            ).fetchall()
        return [int(r["id"]) for r in rows]

    def fetch_many(self, ids: Sequence[int]) -> list[Knowledge]:
        """Load several knowledge objects in three queries per id chunk.

        One ``WHERE … IN`` query reads the performances rows of *all*
        requested ids with their filesystems and systems rows joined on,
        one their summaries and one their results; each searches its
        foreign-key index.  :func:`_build_knowledge` assembles the
        objects in Python.  Id lists are chunked
        (:data:`~repro.core.persistence.scan.SQL_VARIABLE_CHUNK` ids per
        query) so fleet-scale fetches stay under SQLite's host-variable
        limit instead of dying with ``too many SQL variables``.  Input
        order is preserved and every position gets its own object, a
        repeated id included; a missing id raises
        :class:`PersistenceError`.
        """
        wanted = [int(i) for i in ids]
        if not wanted:
            return []
        unique = list(dict.fromkeys(wanted))
        performances: dict[int, Row] = {}
        summaries: dict[int, list[Row]] = {}
        results: dict[int, list[Row]] = {}
        execute = self.db.execute
        for batch in chunked(unique):
            marks = ", ".join("?" * len(batch))
            params = tuple(batch)
            for row in execute(_PERFORMANCES_SELECT.format(marks=marks), params):
                performances[row[0]] = row
            for row in execute(_SUMMARIES_SELECT.format(marks=marks), params):
                summaries.setdefault(row[1], []).append(row)
            for row in execute(_RESULTS_SELECT.format(marks=marks), params):
                results.setdefault(row[0], []).append(row)
        missing = [i for i in unique if i not in performances]
        if missing:
            raise PersistenceError(f"no knowledge object(s) with id(s) {missing}")
        return [
            _build_knowledge(performances[i], summaries.get(i, ()), results)
            for i in wanted
        ]

    def find_ids_by_parameter(self, key: str, value: str) -> list[int]:
        """Ids of knowledge objects whose ``parameters[key] == value``.

        The campaign orchestrator's exactly-once lookup: parameters are
        stored as sorted JSON, so a SQL ``LIKE`` on the serialised
        ``"key": "value"`` pair prefilters candidates cheaply; each hit
        is then verified against the decoded dict, which removes any
        substring false positive.

        The serialised pair is LIKE-escaped before the wildcards are
        wrapped around it, so values containing ``%``/``_`` (e.g. a
        utilisation of ``"100%"``) keep the prefilter selective instead
        of degrading it to a near-full scan.
        """
        fragment = f"{json.dumps(key)}: {json.dumps(value)}"
        needle = f"%{escape_like(fragment)}%"
        rows = self.db.execute(
            "SELECT id, parameters_json FROM performances "
            "WHERE parameters_json LIKE ? ESCAPE '\\' ORDER BY id",
            (needle,),
        ).fetchall()
        return [
            int(r["id"])
            for r in rows
            if json.loads(r["parameters_json"]).get(key) == value
        ]

    def load_all(self, benchmark: str | None = None) -> list[Knowledge]:
        """Load every stored knowledge object (batched, not per-row)."""
        return self.fetch_many(self.list_ids(benchmark))

    # ------------------------------------------------------------------
    # columnar scan
    # ------------------------------------------------------------------
    def scan(self, query: ScanQuery) -> ScanResult:
        """Evaluate a columnar aggregate query entirely down in SQL.

        No :class:`Knowledge` objects are materialised: filters,
        group-bys and the five mergeable aggregates are pushed into one
        ``GROUP BY`` over ``summaries ⋈ performances``, which also
        groups by sketch bucket when percentiles are requested.
        Queries the pre-aggregated ``agg_summaries`` table can answer —
        no range/parameter filters, no percentiles, grouping only by
        benchmark/api/operation — never touch the base tables at all.
        """
        source = "summary-table" if summary_eligible(query) else "base-tables"
        return finalize_partials(query, self.scan_partial(query), source=source)

    def scan_partial(self, query: ScanQuery) -> dict[str, object]:
        """Evaluate ``query`` into mergeable partial aggregate states.

        This is the per-shard half of a distributed scan: the returned
        mapping (canonical group key → JSON-safe
        :class:`AggregateState` payload) can be merged with any other
        shard's partials via
        :func:`~repro.core.persistence.scan.merge_partial_payloads`.
        """
        if summary_eligible(query):
            return self._scan_partial_from_agg(query)
        return self._scan_partial_from_base(query)

    def _scan_partial_from_agg(self, query: ScanQuery) -> dict[str, object]:
        """Answer from the pre-aggregated rows (no base-table touch)."""
        clauses = ["metric = ?"]
        params: list[object] = [query.metric]
        for column in ("benchmark", "api", "operation"):
            value = getattr(query, column)
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        rows = self.db.execute(
            "SELECT benchmark, api, operation, n, total, total_sq, vmin, vmax "
            f"FROM agg_summaries WHERE {' AND '.join(clauses)}",
            tuple(params),
        ).fetchall()
        groups: dict[str, AggregateState] = {}
        for row in rows:
            key = group_key([row[dim] for dim in query.group_by])
            state = AggregateState(
                n=int(row["n"]),
                total=float(row["total"]),
                total_sq=float(row["total_sq"]),
                vmin=float(row["vmin"]),
                vmax=float(row["vmax"]),
            )
            if key in groups:
                groups[key].merge(state)
            else:
                groups[key] = state
        return {key: state.to_payload() for key, state in groups.items()}

    def _scan_where(self, query: ScanQuery) -> tuple[list[str], list[object]]:
        """The pushed-down WHERE clauses (minus any parameter filter)."""
        clauses: list[str] = []
        params: list[object] = []
        for column, value in (
            ("p.benchmark", query.benchmark),
            ("p.api", query.api),
            ("s.operation", query.operation),
        ):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        for column, value, op in (
            ("p.num_nodes", query.num_nodes_min, ">="),
            ("p.num_nodes", query.num_nodes_max, "<="),
            ("p.num_tasks", query.num_tasks_min, ">="),
            ("p.num_tasks", query.num_tasks_max, "<="),
        ):
            if value is not None:
                clauses.append(f"{column} {op} ?")
                params.append(value)
        return clauses, params

    def _scan_partial_from_base(self, query: ScanQuery) -> dict[str, object]:
        """Push the scan into one SQL pass over ``summaries ⋈ performances``.

        With percentiles the pass also groups by each value's sign and
        sketch bucket, so a row holds one bucket's five aggregates; the
        rows of a group fold here into one :class:`AggregateState`.

        A parameter filter is resolved to an id set first (via the
        LIKE-prefiltered, JSON-verified lookup) and applied as chunked
        ``p.id IN (…)`` clauses; the per-chunk aggregate states merge,
        so the chunking is invisible in the result.
        """
        column = f"s.{METRIC_COLUMNS[query.metric]}"
        base_clauses, base_params = self._scan_where(query)
        id_batches: list[tuple[int, ...] | None] = [None]
        if query.parameter is not None:
            ids = self.find_ids_by_parameter(*query.parameter)
            if not ids:
                return {}
            id_batches = [tuple(batch) for batch in chunked(ids)]
        width = len(query.group_by)
        group_terms = [GROUP_COLUMNS[dim] for dim in query.group_by]
        select_groups = "".join(f"{term}, " for term in group_terms)
        bucket_columns = ""
        lead_params: list[object] = []
        if query.wants_sketch:
            bucket_columns = (
                f", ({column} > 0) - ({column} < 0) AS sk_sign, "
                f"CASE WHEN {column} != 0 THEN "
                f"CAST(floor(ln(abs({column})) / ?) AS INTEGER) END AS sk_bucket"
            )
            group_terms += ["sk_sign", "sk_bucket"]
            lead_params.append(_LOG_GAMMA)
        group_clause = f" GROUP BY {', '.join(group_terms)}" if group_terms else ""
        # Per group: (n, total, total_sq, vmin, vmax[, sign, bucket]) rows.
        buckets: dict[tuple, list[tuple]] = {}
        for batch in id_batches:
            clauses = list(base_clauses)
            params = lead_params + base_params
            if batch is not None:
                clauses.append(f"p.id IN ({', '.join('?' for _ in batch)})")
                params.extend(batch)
            where_clause = f" WHERE {' AND '.join(clauses)}" if clauses else ""
            for row in self.db.execute(
                f"SELECT {select_groups}COUNT(*), SUM({column}), "
                f"SUM({column} * {column}), MIN({column}), MAX({column})"
                f"{bucket_columns} "
                "FROM summaries s JOIN performances p ON p.id = s.performance_id"
                f"{where_clause}{group_clause}",
                tuple(params),
            ).fetchall():
                if row[width]:  # else an ungrouped aggregate over zero rows
                    buckets.setdefault(row[:width], []).append(row[width:])
        partials: dict[str, object] = {}
        for dims, rows in buckets.items():
            counts, totals, squares, minima, maxima, *sketch_columns = zip(*rows)
            state = AggregateState(
                n=sum(counts),
                total=float(sum(totals)),
                total_sq=float(sum(squares)),
                vmin=float(min(minima)),
                vmax=float(max(maxima)),
            )
            if sketch_columns:
                state.sketch = PercentileSketch()
                for count, sign, bucket in zip(counts, *sketch_columns):
                    state.sketch.add_bucket(sign, bucket, count)
            partials[group_key(dims)] = state.to_payload()
        return partials

    def delete(self, knowledge_id: int) -> None:
        """Delete one knowledge object and its dependent rows.

        The deleted object's benchmark has its ``agg_summaries`` rows
        rebuilt from the base tables in the same transaction — an
        ``INSERT … SELECT`` recompute rather than a decrement, because
        min/max are not subtractable.
        """
        row = self.db.execute(
            "SELECT benchmark FROM performances WHERE id = ?", (knowledge_id,)
        ).fetchone()
        if row is None:
            raise PersistenceError(f"no knowledge object with id {knowledge_id}")
        benchmark = row["benchmark"]
        cur = self.db.execute("DELETE FROM performances WHERE id = ?", (knowledge_id,))
        if cur.rowcount == 0:
            raise PersistenceError(f"no knowledge object with id {knowledge_id}")
        self.db.execute(
            "DELETE FROM agg_summaries WHERE benchmark = ?", (benchmark,)
        )
        for metric in schema.AGG_METRICS:
            self.db.execute(
                schema.agg_insert_select(metric, where="p.benchmark = ?"),
                (benchmark,),
            )
        self.db.commit()
