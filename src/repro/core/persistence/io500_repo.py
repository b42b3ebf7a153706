"""IO500 knowledge repository (the IOFHs* tables of §V-C).

"While for each IO500 run an entry [in the] IOFHsRuns table and
IOFHsScores table is created, the number of performed test case[s] may
vary ... IOFH_id is applied as foreign key for mapping to individual
IO500 runs.  In addition to the score, for each test case applied,
options and the corresponding result are stored in [the] IOFHsOptions
table and IOFHsResults table."
"""

from __future__ import annotations

from sqlite3 import Row
from typing import Sequence

from repro.core.knowledge import IO500Knowledge, IO500Testcase
from repro.core.persistence.backend import PersistenceBackend
from repro.core.persistence.scan import chunked
from repro.util.errors import PersistenceError

__all__ = ["IO500Repository"]


def _build_io500(
    run: Row,
    score: Row,
    testcases: Sequence[Row],
    options: dict[int, list[Row]],
    results: dict[int, Row],
    system: Row | None,
) -> IO500Knowledge:
    """One fresh :class:`IO500Knowledge` from its rows (the read path's builder)."""
    knowledge = IO500Knowledge(
        score_total=score["score_total"],
        score_bw=score["score_bw"],
        score_md=score["score_md"],
        num_nodes=run["num_nodes"],
        num_tasks=run["num_tasks"],
        timestamp=run["timestamp"],
        version=run["version"],
        iofh_id=int(run["id"]),
    )
    for tc in testcases:
        result = results.get(int(tc["id"]))
        knowledge.testcases.append(
            IO500Testcase(
                name=tc["name"],
                value=result["value"] if result else 0.0,
                unit=result["unit"] if result else "",
                time_s=result["time_s"] if result else 0.0,
                options={r["key"]: r["value"] for r in options.get(int(tc["id"]), ())},
            )
        )
    if system is not None:
        knowledge.system = {
            "hostname": system["hostname"],
            "system_name": system["system_name"],
            "processor_model": system["processor_model"],
            "architecture": system["architecture"],
            "processor_cores": system["processor_cores"],
            "processor_mhz": system["processor_mhz"],
            "cache_size_bytes": system["cache_bytes"],
            "memory_bytes": system["memory_bytes"],
        }
    return knowledge


class IO500Repository:
    """CRUD for IO500 knowledge objects.

    Like :class:`~repro.core.persistence.repository.KnowledgeRepository`,
    this depends only on the :class:`PersistenceBackend` protocol.
    """

    def __init__(self, db: PersistenceBackend) -> None:
        self.db = db

    def save(self, knowledge: IO500Knowledge) -> int:
        """Persist one IO500 run; returns its IOFH id."""
        cur = self.db.execute(
            "INSERT INTO IOFHsRuns (timestamp, num_nodes, num_tasks, version) VALUES (?, ?, ?, ?)",
            (knowledge.timestamp, knowledge.num_nodes, knowledge.num_tasks, knowledge.version),
        )
        iofh_id = int(cur.lastrowid)
        self.db.execute(
            "INSERT INTO IOFHsScores (IOFH_id, score_total, score_bw, score_md) VALUES (?, ?, ?, ?)",
            (iofh_id, knowledge.score_total, knowledge.score_bw, knowledge.score_md),
        )
        for testcase in knowledge.testcases:
            tc_cur = self.db.execute(
                "INSERT INTO IOFHsTestcases (IOFH_id, name) VALUES (?, ?)",
                (iofh_id, testcase.name),
            )
            tc_id = int(tc_cur.lastrowid)
            if testcase.options:
                self.db.executemany(
                    "INSERT INTO IOFHsOptions (testcase_id, key, value) VALUES (?, ?, ?)",
                    [(tc_id, key, str(value)) for key, value in sorted(testcase.options.items())],
                )
            self.db.execute(
                "INSERT INTO IOFHsResults (testcase_id, metric, value, unit, time_s) "
                "VALUES (?, ?, ?, ?, ?)",
                (tc_id, "score", testcase.value, testcase.unit, testcase.time_s),
            )
        if knowledge.system is not None:
            self.db.execute(
                """
                INSERT INTO systems
                    (performance_id, IOFH_id, hostname, system_name, processor_model,
                     architecture, processor_cores, processor_mhz, cache_bytes, memory_bytes)
                VALUES (NULL, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                """,
                (
                    iofh_id,
                    str(knowledge.system.get("hostname", "")),
                    str(knowledge.system.get("system_name", "")),
                    str(knowledge.system.get("processor_model", "")),
                    str(knowledge.system.get("architecture", "")),
                    int(knowledge.system.get("processor_cores", 0) or 0),
                    float(knowledge.system.get("processor_mhz", 0) or 0),
                    int(knowledge.system.get("cache_size_bytes", 0) or 0),
                    int(knowledge.system.get("memory_bytes", 0) or 0),
                ),
            )
        self.db.commit()
        knowledge.iofh_id = iofh_id
        return iofh_id

    def save_many(self, knowledge: Sequence[IO500Knowledge]) -> list[int]:
        """Persist several IO500 runs in one transaction (all or nothing)."""
        with self.db.transaction():
            return [self.save(k) for k in knowledge]

    def load(self, iofh_id: int) -> IO500Knowledge:
        """Load one IO500 run by IOFH id."""
        return self.fetch_many([iofh_id])[0]

    def list_ids(self) -> list[int]:
        """All IOFH run ids."""
        rows = self.db.execute("SELECT id FROM IOFHsRuns ORDER BY id").fetchall()
        return [int(r["id"]) for r in rows]

    def fetch_many(self, ids: Sequence[int]) -> list[IO500Knowledge]:
        """Load several IO500 runs with chunked multi-row queries.

        Runs, scores, testcases, options, results and system rows for
        all requested ids come back in six ``WHERE … IN`` queries per id
        chunk; :func:`_build_io500` assembles the objects in Python.
        Input order is preserved and every position gets its own object,
        a repeated id included; a missing id raises
        :class:`PersistenceError`.
        """
        wanted = [int(i) for i in ids]
        if not wanted:
            return []
        unique = list(dict.fromkeys(wanted))
        runs: dict[int, Row] = {}
        scores: dict[int, Row] = {}
        testcases: dict[int, list[Row]] = {}
        options: dict[int, list[Row]] = {}
        results: dict[int, Row] = {}
        systems: dict[int, Row] = {}
        execute = self.db.execute
        for batch in chunked(unique):
            marks = ", ".join("?" * len(batch))
            params = tuple(batch)
            for row in execute(f"SELECT * FROM IOFHsRuns WHERE id IN ({marks})", params):
                runs[int(row["id"])] = row
            for row in execute(
                f"SELECT * FROM IOFHsScores WHERE IOFH_id IN ({marks})", params
            ):
                scores[int(row["IOFH_id"])] = row
            for row in execute(
                f"SELECT * FROM IOFHsTestcases WHERE IOFH_id IN ({marks}) ORDER BY id",
                params,
            ):
                testcases.setdefault(int(row["IOFH_id"]), []).append(row)
            for row in execute(
                "SELECT o.* FROM IOFHsOptions o "
                "JOIN IOFHsTestcases t ON t.id = o.testcase_id "
                f"WHERE t.IOFH_id IN ({marks}) ORDER BY o.key",
                params,
            ):
                options.setdefault(int(row["testcase_id"]), []).append(row)
            for row in execute(
                "SELECT r.* FROM IOFHsResults r "
                "JOIN IOFHsTestcases t ON t.id = r.testcase_id "
                f"WHERE t.IOFH_id IN ({marks})",
                params,
            ):
                results[int(row["testcase_id"])] = row
            for row in execute(f"SELECT * FROM systems WHERE IOFH_id IN ({marks})", params):
                systems[int(row["IOFH_id"])] = row
        missing = [i for i in unique if i not in runs]
        if missing:
            raise PersistenceError(f"no IO500 run(s) with IOFH id(s) {missing}")
        unscored = [i for i in unique if i not in scores]
        if unscored:
            raise PersistenceError(f"IO500 run {unscored[0]} has no score row")
        return [
            _build_io500(
                runs[i], scores[i], testcases.get(i, ()), options, results, systems.get(i)
            )
            for i in wanted
        ]

    def load_all(self) -> list[IO500Knowledge]:
        """Load every stored IO500 run (batched, not per-row)."""
        return self.fetch_many(self.list_ids())

    def fetch_score_columns(self) -> dict[str, list]:
        """Every run's scores as aligned columns (one JOIN, no objects).

        The columnar feed for fleet analytics: correlation matrices and
        scoring-balance analysis need whole-column vectors, not 100k
        :class:`IO500Knowledge` objects.
        """
        columns: dict[str, list] = {
            "iofh_id": [], "timestamp": [], "num_nodes": [], "num_tasks": [],
            "score_total": [], "score_bw": [], "score_md": [],
        }
        for row in self.db.execute(
            "SELECT r.id, r.timestamp, r.num_nodes, r.num_tasks, "
            "s.score_total, s.score_bw, s.score_md "
            "FROM IOFHsRuns r JOIN IOFHsScores s ON s.IOFH_id = r.id "
            "ORDER BY r.id"
        ).fetchall():
            columns["iofh_id"].append(int(row["id"]))
            columns["timestamp"].append(float(row["timestamp"]))
            columns["num_nodes"].append(int(row["num_nodes"]))
            columns["num_tasks"].append(int(row["num_tasks"]))
            columns["score_total"].append(float(row["score_total"]))
            columns["score_bw"].append(float(row["score_bw"]))
            columns["score_md"].append(float(row["score_md"]))
        return columns

    def fetch_testcase_columns(self) -> dict[str, dict[int, float]]:
        """Per-testcase result values, keyed ``name -> {iofh_id: value}``.

        One JOIN over testcases⋈results feeds every per-sub-benchmark
        distribution (ior-easy-write, mdtest-hard-stat, …) without
        materialising run objects.
        """
        out: dict[str, dict[int, float]] = {}
        for row in self.db.execute(
            "SELECT t.IOFH_id, t.name, r.value "
            "FROM IOFHsTestcases t JOIN IOFHsResults r ON r.testcase_id = t.id "
            "ORDER BY t.IOFH_id, t.id"
        ).fetchall():
            out.setdefault(row["name"], {})[int(row["IOFH_id"])] = float(row["value"])
        return out

    def delete(self, iofh_id: int) -> None:
        """Delete one IO500 run and its dependent rows."""
        cur = self.db.execute("DELETE FROM IOFHsRuns WHERE id = ?", (iofh_id,))
        if cur.rowcount == 0:
            raise PersistenceError(f"no IO500 run with IOFH id {iofh_id}")
        self.db.commit()
