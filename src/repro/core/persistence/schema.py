"""SQLite schema (Phase III).

The paper's schema (§V-C): IOR-style knowledge lives in
``performances`` (I/O pattern + benchmark configuration, one row per
knowledge object), ``summaries`` (one per operation, FK
``performance_id``), ``results`` (per-iteration details, FK
``summaries_id``) and ``filesystems`` (user-level file-system
information).  IO500 knowledge is deliberately separate: ``IOFHsRuns``,
``IOFHsScores``, ``IOFHsTestcases``, ``IOFHsOptions`` and
``IOFHsResults``, keyed by ``IOFH_id``.  System information joins both
worlds through the ``systems`` table.
"""

from __future__ import annotations

import sqlite3

__all__ = [
    "SCHEMA_VERSION",
    "DDL_STATEMENTS",
    "create_schema",
    "TABLES",
    "AGG_METRICS",
    "agg_insert_select",
]

SCHEMA_VERSION = 2

DDL_STATEMENTS: tuple[str, ...] = (
    """
    CREATE TABLE IF NOT EXISTS performances (
        id              INTEGER PRIMARY KEY AUTOINCREMENT,
        benchmark       TEXT NOT NULL,
        command         TEXT NOT NULL DEFAULT '',
        api             TEXT NOT NULL DEFAULT '',
        testFileName    TEXT NOT NULL DEFAULT '',
        filePerProc     INTEGER NOT NULL DEFAULT 0,
        num_nodes       INTEGER NOT NULL DEFAULT 0,
        num_tasks       INTEGER NOT NULL DEFAULT 0,
        tasks_per_node  INTEGER NOT NULL DEFAULT 0,
        start_time      REAL NOT NULL DEFAULT 0,
        end_time        REAL NOT NULL DEFAULT 0,
        parameters_json TEXT NOT NULL DEFAULT '{}'
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS summaries (
        id             INTEGER PRIMARY KEY AUTOINCREMENT,
        performance_id INTEGER NOT NULL REFERENCES performances(id) ON DELETE CASCADE,
        operation      TEXT NOT NULL,
        api            TEXT NOT NULL DEFAULT '',
        bw_max         REAL NOT NULL,
        bw_min         REAL NOT NULL,
        bw_mean        REAL NOT NULL,
        bw_stddev      REAL NOT NULL,
        ops_max        REAL NOT NULL,
        ops_min        REAL NOT NULL,
        ops_mean       REAL NOT NULL,
        ops_stddev     REAL NOT NULL,
        iterations     INTEGER NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS results (
        id           INTEGER PRIMARY KEY AUTOINCREMENT,
        summaries_id INTEGER NOT NULL REFERENCES summaries(id) ON DELETE CASCADE,
        iteration    INTEGER NOT NULL,
        bandwidth    REAL NOT NULL,
        ops          REAL NOT NULL,
        latency      REAL NOT NULL DEFAULT 0,
        openTime     REAL NOT NULL DEFAULT 0,
        wrRdTime     REAL NOT NULL DEFAULT 0,
        closeTime    REAL NOT NULL DEFAULT 0,
        totalTime    REAL NOT NULL DEFAULT 0
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS filesystems (
        id             INTEGER PRIMARY KEY AUTOINCREMENT,
        performance_id INTEGER NOT NULL REFERENCES performances(id) ON DELETE CASCADE,
        fs_type        TEXT NOT NULL DEFAULT '',
        entry_type     TEXT NOT NULL DEFAULT '',
        entry_id       TEXT NOT NULL DEFAULT '',
        metadata_node  TEXT NOT NULL DEFAULT '',
        stripe_pattern TEXT NOT NULL DEFAULT '',
        chunk_size     TEXT NOT NULL DEFAULT '',
        num_targets    INTEGER NOT NULL DEFAULT 0,
        raid_scheme    TEXT NOT NULL DEFAULT '',
        storage_pool   TEXT NOT NULL DEFAULT ''
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS systems (
        id              INTEGER PRIMARY KEY AUTOINCREMENT,
        performance_id  INTEGER REFERENCES performances(id) ON DELETE CASCADE,
        IOFH_id         INTEGER REFERENCES IOFHsRuns(id) ON DELETE CASCADE,
        hostname        TEXT NOT NULL DEFAULT '',
        system_name     TEXT NOT NULL DEFAULT '',
        processor_model TEXT NOT NULL DEFAULT '',
        architecture    TEXT NOT NULL DEFAULT '',
        processor_cores INTEGER NOT NULL DEFAULT 0,
        processor_mhz   REAL NOT NULL DEFAULT 0,
        cache_bytes     INTEGER NOT NULL DEFAULT 0,
        memory_bytes    INTEGER NOT NULL DEFAULT 0,
        CHECK (performance_id IS NOT NULL OR IOFH_id IS NOT NULL)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS IOFHsRuns (
        id        INTEGER PRIMARY KEY AUTOINCREMENT,
        timestamp REAL NOT NULL DEFAULT 0,
        num_nodes INTEGER NOT NULL DEFAULT 0,
        num_tasks INTEGER NOT NULL DEFAULT 0,
        version   TEXT NOT NULL DEFAULT ''
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS IOFHsScores (
        id          INTEGER PRIMARY KEY AUTOINCREMENT,
        IOFH_id     INTEGER NOT NULL REFERENCES IOFHsRuns(id) ON DELETE CASCADE,
        score_total REAL NOT NULL,
        score_bw    REAL NOT NULL,
        score_md    REAL NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS IOFHsTestcases (
        id      INTEGER PRIMARY KEY AUTOINCREMENT,
        IOFH_id INTEGER NOT NULL REFERENCES IOFHsRuns(id) ON DELETE CASCADE,
        name    TEXT NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS IOFHsOptions (
        id          INTEGER PRIMARY KEY AUTOINCREMENT,
        testcase_id INTEGER NOT NULL REFERENCES IOFHsTestcases(id) ON DELETE CASCADE,
        key         TEXT NOT NULL,
        value       TEXT NOT NULL DEFAULT ''
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS IOFHsResults (
        id          INTEGER PRIMARY KEY AUTOINCREMENT,
        testcase_id INTEGER NOT NULL REFERENCES IOFHsTestcases(id) ON DELETE CASCADE,
        metric      TEXT NOT NULL,
        value       REAL NOT NULL,
        unit        TEXT NOT NULL DEFAULT '',
        time_s      REAL NOT NULL DEFAULT 0
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS agg_summaries (
        benchmark TEXT NOT NULL,
        api       TEXT NOT NULL,
        operation TEXT NOT NULL,
        metric    TEXT NOT NULL,
        n         INTEGER NOT NULL,
        total     REAL NOT NULL,
        total_sq  REAL NOT NULL,
        vmin      REAL NOT NULL,
        vmax      REAL NOT NULL,
        PRIMARY KEY (benchmark, api, operation, metric)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS meta (
        key   TEXT PRIMARY KEY,
        value TEXT NOT NULL
    )
    """,
    "CREATE INDEX IF NOT EXISTS idx_summaries_perf ON summaries(performance_id)",
    "CREATE INDEX IF NOT EXISTS idx_results_summary ON results(summaries_id)",
    "CREATE INDEX IF NOT EXISTS idx_filesystems_perf ON filesystems(performance_id)",
    "CREATE INDEX IF NOT EXISTS idx_testcases_run ON IOFHsTestcases(IOFH_id)",
    # Every child-table foreign key is indexed, so load/fetch_many and
    # ON DELETE CASCADE search rather than scan.  Existing stores gain
    # these on their next open (no schema version bump).
    "CREATE INDEX IF NOT EXISTS idx_systems_perf ON systems(performance_id)",
    "CREATE INDEX IF NOT EXISTS idx_systems_run ON systems(IOFH_id)",
    "CREATE INDEX IF NOT EXISTS idx_scores_run ON IOFHsScores(IOFH_id)",
    "CREATE INDEX IF NOT EXISTS idx_options_testcase ON IOFHsOptions(testcase_id)",
    "CREATE INDEX IF NOT EXISTS idx_iofh_results_testcase ON IOFHsResults(testcase_id)",
)

#: All knowledge tables, in creation order.
TABLES = (
    "performances",
    "summaries",
    "results",
    "filesystems",
    "systems",
    "IOFHsRuns",
    "IOFHsScores",
    "IOFHsTestcases",
    "IOFHsOptions",
    "IOFHsResults",
    "agg_summaries",
)

#: Summary metrics mirrored into ``agg_summaries`` — one pre-aggregated
#: row per (benchmark, api, operation, metric), maintained in the same
#: transaction as every ``save`` so cheap fleet-wide aggregate scans
#: never have to touch the base tables.
AGG_METRICS = (
    "bw_max",
    "bw_min",
    "bw_mean",
    "bw_stddev",
    "ops_max",
    "ops_min",
    "ops_mean",
    "ops_stddev",
    "iterations",
)


def agg_insert_select(metric: str, where: str = "") -> str:
    """The ``INSERT … SELECT`` that (re)builds one metric's agg rows.

    ``metric`` must come from :data:`AGG_METRICS` (it is interpolated,
    not bound); ``where`` optionally narrows the rebuild, e.g.
    ``"p.benchmark = ?"`` after a delete.
    """
    if metric not in AGG_METRICS:
        raise ValueError(f"unknown agg metric {metric!r}")
    col = f"s.{metric}"
    clause = f"WHERE {where} " if where else ""
    return (
        "INSERT INTO agg_summaries "
        "(benchmark, api, operation, metric, n, total, total_sq, vmin, vmax) "
        f"SELECT p.benchmark, p.api, s.operation, '{metric}', COUNT(*), "
        f"SUM({col}), SUM({col} * {col}), MIN({col}), MAX({col}) "
        "FROM summaries s JOIN performances p ON p.id = s.performance_id "
        f"{clause}GROUP BY p.benchmark, p.api, s.operation"
    )


def create_schema(conn: sqlite3.Connection) -> None:
    """Create all tables, indexes and schema metadata (idempotent).

    Opening a version-1 store (no ``agg_summaries`` rows yet) backfills
    the pre-aggregated table from the base tables, so the upgrade is a
    plain re-open.
    """
    cur = conn.cursor()
    cur.execute("PRAGMA foreign_keys = ON")
    for ddl in DDL_STATEMENTS:
        cur.execute(ddl)
    # Hold the write lock from the counts through the backfill: a writer
    # committing between the two counts would make the store look like a
    # version-1 one and the backfill would collide with its fresh rows.
    if not conn.in_transaction:
        cur.execute("BEGIN IMMEDIATE")
    agg_rows = cur.execute("SELECT COUNT(*) FROM agg_summaries").fetchone()[0]
    summary_rows = cur.execute("SELECT COUNT(*) FROM summaries").fetchone()[0]
    if agg_rows == 0 and summary_rows > 0:
        for metric in AGG_METRICS:
            cur.execute(agg_insert_select(metric))
    cur.execute(
        "INSERT OR REPLACE INTO meta (key, value) VALUES ('schema_version', ?)",
        (str(SCHEMA_VERSION),),
    )
    conn.commit()
