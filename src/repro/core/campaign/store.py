"""The persistent campaign job store: a SQLite-backed job DAG.

Balsam-style orchestration (persistent job database + launcher +
state machine) adapted to the knowledge cycle.  Each job row carries:

* a benchmark spec (work name + fully-expanded parameter dict),
* a state machine ``CREATED → READY → RUNNING → DONE | FAILED |
  RESTARTING`` (``RESTARTING`` is the transit state between a failed /
  reclaimed attempt and its requeue),
* dependency edges forming a DAG (the report job waits on every sweep
  run; a permanently failed dependency cascades),
* a retry budget (``attempts`` / ``max_attempts``; the launcher wires
  its :class:`~repro.core.resilience.RetryPolicy` backoff to requeues),
* a lease (``lease_owner`` / ``lease_expires_at``) heartbeaten by the
  launcher so a crashed launcher's RUNNING jobs are reclaimed
  *deterministically* — reclamation is a pure function of the clock
  value passed in, never of wall time observed inside the store,
* an optional ``placement`` key routing the job to the launcher that
  declared the matching cluster partition (honored at :meth:`acquire`),
* an idempotency ``token`` stamped into every knowledge row the job
  persists, which is what makes crash-resume exactly-once: a reclaimed
  job whose token is already present in the knowledge backend is
  *adopted* (marked DONE with the existing ids) instead of re-run.

Every state transition commits immediately — the store *is* the
checkpoint, so a launcher killed between any two transitions resumes
from exactly the committed state.  All transitions are validated
against the state machine and counted in the ``campaign.*`` metrics
family when a :class:`~repro.core.metrics.MetricsRegistry` is attached.

Fleet-safe by construction
--------------------------
Since PR 10 *many launcher processes* drain one store concurrently:
file-backed stores open in WAL mode with a generous busy timeout, and
every state transition is a compare-and-set ``UPDATE … WHERE state =
<observed>`` (plus any extra lease guards) so two launchers can never
commit conflicting transitions — the loser of a race sees zero updated
rows and either retries the next candidate (:meth:`acquire`,
:meth:`steal`) or learns its lease is gone
(:class:`~repro.util.errors.LeaseLostError`).  Lease reclaim and
stealing scan only ``(campaign_id, state, lease_expires_at)`` through a
covering index, so finding expired work is O(expired), not a
full-table sweep at 10k+ jobs.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from repro.core.campaign.spec import CampaignSpec
from repro.util.errors import CampaignError, LeaseLostError, PersistenceError

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.core.metrics import MetricsRegistry

__all__ = [
    "JOB_STATES",
    "ALLOWED_TRANSITIONS",
    "SCHEMA_VERSION",
    "JobRow",
    "CampaignStore",
]

#: Bump on incompatible campaign-table layout changes.  v2 added the
#: ``placement`` column (v1 stores are migrated in place on open).
SCHEMA_VERSION = 2

CREATED = "CREATED"
READY = "READY"
RUNNING = "RUNNING"
DONE = "DONE"
FAILED = "FAILED"
RESTARTING = "RESTARTING"

JOB_STATES = (CREATED, READY, RUNNING, DONE, FAILED, RESTARTING)

#: The job state machine.  DONE and FAILED are terminal.
ALLOWED_TRANSITIONS: dict[str, tuple[str, ...]] = {
    CREATED: (READY, FAILED),
    READY: (RUNNING, FAILED),
    RUNNING: (DONE, FAILED, RESTARTING),
    RESTARTING: (READY, DONE, FAILED),
    DONE: (),
    FAILED: (),
}

_DDL = """
CREATE TABLE IF NOT EXISTS campaign_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS campaigns (
    id          INTEGER PRIMARY KEY,
    name        TEXT NOT NULL,
    benchmark   TEXT NOT NULL,
    backend_url TEXT NOT NULL,
    spec_json   TEXT NOT NULL,
    cancelled   INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS campaign_jobs (
    id                 INTEGER PRIMARY KEY,
    campaign_id        INTEGER NOT NULL REFERENCES campaigns(id) ON DELETE CASCADE,
    name               TEXT NOT NULL,
    kind               TEXT NOT NULL DEFAULT 'benchmark',
    state              TEXT NOT NULL DEFAULT 'CREATED',
    params_json        TEXT NOT NULL,
    token              TEXT NOT NULL UNIQUE,
    attempts           INTEGER NOT NULL DEFAULT 0,
    max_attempts       INTEGER NOT NULL DEFAULT 3,
    lease_owner        TEXT,
    lease_expires_at   REAL,
    placement          TEXT,
    knowledge_ids_json TEXT,
    result_text        TEXT,
    error              TEXT
,
    UNIQUE (campaign_id, name)
);
CREATE TABLE IF NOT EXISTS campaign_job_deps (
    job_id     INTEGER NOT NULL REFERENCES campaign_jobs(id) ON DELETE CASCADE,
    depends_on INTEGER NOT NULL REFERENCES campaign_jobs(id) ON DELETE CASCADE,
    PRIMARY KEY (job_id, depends_on)
);
CREATE TABLE IF NOT EXISTS campaign_launchers (
    campaign_id INTEGER NOT NULL REFERENCES campaigns(id) ON DELETE CASCADE,
    launcher    TEXT NOT NULL,
    pid         INTEGER,
    placement   TEXT,
    state       TEXT NOT NULL DEFAULT 'running',
    jobs_done   INTEGER NOT NULL DEFAULT 0,
    jobs_failed INTEGER NOT NULL DEFAULT 0,
    steals      INTEGER NOT NULL DEFAULT 0,
    leases_lost INTEGER NOT NULL DEFAULT 0,
    pool_active INTEGER NOT NULL DEFAULT 0,
    pool_max    INTEGER NOT NULL DEFAULT 0,
    started_at  REAL,
    updated_at  REAL,
    PRIMARY KEY (campaign_id, launcher)
);
CREATE INDEX IF NOT EXISTS idx_campaign_jobs_state
    ON campaign_jobs (campaign_id, state);
CREATE INDEX IF NOT EXISTS idx_campaign_jobs_lease
    ON campaign_jobs (campaign_id, state, lease_expires_at);
"""

#: Fields :meth:`CampaignStore.report_launcher` may upsert.
_LAUNCHER_FIELDS = frozenset(
    {
        "pid", "placement", "state", "jobs_done", "jobs_failed",
        "steals", "leases_lost", "pool_active", "pool_max",
        "started_at", "updated_at",
    }
)


class _Expr:
    """A raw SQL right-hand side for one transition assignment.

    Used where the new value must be computed *inside* the UPDATE
    (``attempts = attempts + 1``) so a compare-and-set claim can never
    write a stale counter read from before the race was won.
    """

    __slots__ = ("sql",)

    def __init__(self, sql: str) -> None:
        self.sql = sql


@dataclass(frozen=True, slots=True)
class JobRow:
    """A point-in-time snapshot of one job row."""

    job_id: int
    campaign_id: int
    name: str
    kind: str
    state: str
    params: dict[str, str]
    token: str
    attempts: int
    max_attempts: int
    lease_owner: str | None
    lease_expires_at: float | None
    placement: str | None
    knowledge_ids: tuple[int, ...]
    result_text: str | None
    error: str | None


#: Transition hook: ``(job, old_state, new_state, when)`` with ``when``
#: in ``("pre", "post")`` — fired before and after the commit.  Tests
#: raise from it to crash the launcher on either side of a checkpoint.
TransitionHook = Callable[[JobRow, str, str, str], None]


class CampaignStore:
    """Durable campaign/job DAG in one SQLite file.

    One connection per process, shared across launcher workers; an
    internal re-entrant lock serialises same-process access, WAL mode
    plus compare-and-set transitions serialise *cross-process* access,
    and each state transition commits before it returns, which is the
    crash-safety contract ``--resume`` and the launcher fleet rely on.
    """

    def __init__(
        self,
        target: str | Path,
        *,
        metrics: "MetricsRegistry | None" = None,
        on_transition: TransitionHook | None = None,
    ) -> None:
        self.target = str(target)
        self.metrics = metrics
        self.on_transition = on_transition
        self._lock = threading.RLock()
        if self.target != ":memory:":
            try:
                Path(self.target).parent.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise PersistenceError(
                    f"cannot create campaign store directory for {target!r}: {exc}"
                ) from exc
        try:
            self._conn = sqlite3.connect(self.target, check_same_thread=False)
            self._conn.row_factory = sqlite3.Row
            self._conn.execute("PRAGMA foreign_keys = ON")
            # Competing launcher processes share one store: wait out a
            # busy writer instead of failing, and use WAL so readers
            # never block the single writer.  synchronous=NORMAL in WAL
            # keeps every commit consistent across process crashes
            # (SIGKILL included) — exactly the durability the state
            # machine needs — without an fsync per transition.
            self._conn.execute("PRAGMA busy_timeout = 30000")
            if self.target != ":memory:":
                self._conn.execute("PRAGMA journal_mode = WAL")
                self._conn.execute("PRAGMA synchronous = NORMAL")
            self._conn.executescript(_DDL)
            self._check_schema_version()
            self._conn.commit()
        except sqlite3.Error as exc:
            raise PersistenceError(
                f"cannot open campaign store {target!r}: {exc}"
            ) from exc
        self._closed = False

    def _check_schema_version(self) -> None:
        row = self._conn.execute(
            "SELECT value FROM campaign_meta WHERE key = 'schema_version'"
        ).fetchone()
        if row is None:
            self._conn.execute(
                "INSERT INTO campaign_meta (key, value) VALUES ('schema_version', ?)",
                (str(SCHEMA_VERSION),),
            )
        elif int(row["value"]) == 1:
            # v1 -> v2: the placement column is new; existing jobs are
            # unplaced, which every launcher may acquire — the exact
            # semantics those campaigns had before the upgrade.
            self._conn.execute(
                "ALTER TABLE campaign_jobs ADD COLUMN placement TEXT"
            )
            self._conn.execute(
                "UPDATE campaign_meta SET value = ? WHERE key = 'schema_version'",
                (str(SCHEMA_VERSION),),
            )
        elif int(row["value"]) != SCHEMA_VERSION:
            raise PersistenceError(
                f"campaign store {self.target!r} has schema version {row['value']}; "
                f"this build understands {SCHEMA_VERSION}"
            )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the store connection; safe to call more than once."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._conn.close()

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise PersistenceError(f"campaign store {self.target!r} is closed")

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, spec: CampaignSpec, backend_url: str) -> int:
        """Persist a campaign and its expanded job DAG; returns its id.

        Jobs land in CREATED, then the ready sweep promotes every job
        with no unfinished dependencies to READY — all in one
        transaction, so a campaign is never visible half-submitted.
        """
        jobs = spec.expand()
        with self._lock:
            self._check_open()
            try:
                cur = self._conn.execute(
                    "INSERT INTO campaigns (name, benchmark, backend_url, spec_json) "
                    "VALUES (?, ?, ?, ?)",
                    (spec.name, spec.benchmark, backend_url, spec.to_json()),
                )
                campaign_id = int(cur.lastrowid)
                next_id = int(
                    self._conn.execute(
                        "SELECT COALESCE(MAX(id), 0) + 1 FROM campaign_jobs"
                    ).fetchone()[0]
                )
                name_to_id = {job.name: next_id + i for i, job in enumerate(jobs)}
                self._conn.executemany(
                    "INSERT INTO campaign_jobs "
                    "(id, campaign_id, name, kind, state, params_json, token, "
                    " max_attempts, placement) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    [
                        (
                            name_to_id[job.name],
                            campaign_id,
                            job.name,
                            job.kind,
                            CREATED,
                            json.dumps(job.params, sort_keys=True),
                            f"campaign-{campaign_id}/{job.name}",
                            spec.max_attempts,
                            job.placement,
                        )
                        for job in jobs
                    ],
                )
                self._conn.executemany(
                    "INSERT INTO campaign_job_deps (job_id, depends_on) VALUES (?, ?)",
                    [
                        (name_to_id[job.name], name_to_id[dep])
                        for job in jobs
                        for dep in job.depends
                    ],
                )
                self._conn.commit()
            except sqlite3.Error as exc:
                self._conn.rollback()
                raise PersistenceError(f"cannot submit campaign: {exc}") from exc
            self.mark_ready(campaign_id)
            return campaign_id

    # ------------------------------------------------------------------
    # row access
    # ------------------------------------------------------------------
    def _row(self, job_id: int) -> sqlite3.Row:
        row = self._conn.execute(
            "SELECT * FROM campaign_jobs WHERE id = ?", (job_id,)
        ).fetchone()
        if row is None:
            raise CampaignError(f"no campaign job with id {job_id}")
        return row

    @staticmethod
    def _to_jobrow(row: sqlite3.Row) -> JobRow:
        ids = row["knowledge_ids_json"]
        return JobRow(
            job_id=int(row["id"]),
            campaign_id=int(row["campaign_id"]),
            name=row["name"],
            kind=row["kind"],
            state=row["state"],
            params=json.loads(row["params_json"]),
            token=row["token"],
            attempts=int(row["attempts"]),
            max_attempts=int(row["max_attempts"]),
            lease_owner=row["lease_owner"],
            lease_expires_at=row["lease_expires_at"],
            placement=row["placement"],
            knowledge_ids=tuple(json.loads(ids)) if ids else (),
            result_text=row["result_text"],
            error=row["error"],
        )

    def job(self, job_id: int) -> JobRow:
        """Snapshot one job row."""
        with self._lock:
            self._check_open()
            return self._to_jobrow(self._row(job_id))

    def jobs(self, campaign_id: int) -> list[JobRow]:
        """Snapshot every job of one campaign, in id order."""
        with self._lock:
            self._check_open()
            rows = self._conn.execute(
                "SELECT * FROM campaign_jobs WHERE campaign_id = ? ORDER BY id",
                (campaign_id,),
            ).fetchall()
            return [self._to_jobrow(r) for r in rows]

    def campaign(self, campaign_id: int) -> dict[str, object]:
        """The campaign row (name, benchmark, backend URL, spec JSON)."""
        with self._lock:
            self._check_open()
            row = self._conn.execute(
                "SELECT * FROM campaigns WHERE id = ?", (campaign_id,)
            ).fetchone()
            if row is None:
                raise CampaignError(f"no campaign with id {campaign_id}")
            return dict(row)

    def campaigns(self) -> list[dict[str, object]]:
        """Every campaign row, in id order."""
        with self._lock:
            self._check_open()
            rows = self._conn.execute("SELECT * FROM campaigns ORDER BY id").fetchall()
            return [dict(r) for r in rows]

    def counts(self, campaign_id: int) -> dict[str, int]:
        """Exact per-state job counts (every state, zero-filled)."""
        with self._lock:
            self._check_open()
            out = {state: 0 for state in JOB_STATES}
            for row in self._conn.execute(
                "SELECT state, COUNT(*) AS n FROM campaign_jobs "
                "WHERE campaign_id = ? GROUP BY state",
                (campaign_id,),
            ).fetchall():
                out[row["state"]] = int(row["n"])
            return out

    def active_count(self, campaign_id: int) -> int:
        """Jobs not yet in a terminal state."""
        counts = self.counts(campaign_id)
        return sum(n for state, n in counts.items() if state not in (DONE, FAILED))

    def placements(self, campaign_id: int) -> list[str]:
        """Distinct placement values among the campaign's active jobs.

        The fleet coordinator checks these against its partition list:
        a placement no launcher serves would stall those jobs forever.
        """
        with self._lock:
            self._check_open()
            rows = self._conn.execute(
                "SELECT DISTINCT placement FROM campaign_jobs "
                "WHERE campaign_id = ? AND placement IS NOT NULL "
                "AND state NOT IN (?, ?) ORDER BY placement",
                (campaign_id, DONE, FAILED),
            ).fetchall()
            return [str(r["placement"]) for r in rows]

    def ready_count(self, campaign_id: int) -> int:
        """Queue depth: READY jobs waiting for a worker."""
        with self._lock:
            self._check_open()
            return int(
                self._conn.execute(
                    "SELECT COUNT(*) FROM campaign_jobs "
                    "WHERE campaign_id = ? AND state = ?",
                    (campaign_id, READY),
                ).fetchone()[0]
            )

    def job_ids_in_state(
        self, campaign_id: int, state: str, *, limit: int = 16
    ) -> list[int]:
        """Lowest job ids currently in one state (via the state index)."""
        if state not in JOB_STATES:
            raise CampaignError(f"unknown job state {state!r}")
        with self._lock:
            self._check_open()
            rows = self._conn.execute(
                "SELECT id FROM campaign_jobs WHERE campaign_id = ? AND state = ? "
                "ORDER BY id LIMIT ?",
                (campaign_id, state, limit),
            ).fetchall()
            return [int(r["id"]) for r in rows]

    def dependency_knowledge_ids(self, job_id: int) -> list[int]:
        """Knowledge ids persisted by a job's (DONE) dependencies."""
        with self._lock:
            self._check_open()
            rows = self._conn.execute(
                "SELECT j.knowledge_ids_json AS ids FROM campaign_job_deps d "
                "JOIN campaign_jobs j ON j.id = d.depends_on "
                "WHERE d.job_id = ? ORDER BY j.id",
                (job_id,),
            ).fetchall()
            out: list[int] = []
            for row in rows:
                if row["ids"]:
                    out.extend(json.loads(row["ids"]))
            return out

    # ------------------------------------------------------------------
    # the state machine
    # ------------------------------------------------------------------
    def _transition(
        self,
        job_id: int,
        new_state: str,
        *,
        sets: dict[str, object] | None = None,
        guard: dict[str, object] | None = None,
        stale_ok: bool = False,
    ) -> JobRow | None:
        """Apply one validated, compare-and-set state transition.

        The UPDATE is guarded by the *observed* old state (plus any
        extra ``guard`` columns, compared null-safely with ``IS``), so
        a competing launcher process that committed first makes this
        attempt a no-op: with ``stale_ok`` the caller gets ``None`` and
        moves on to its next candidate, otherwise the race is surfaced
        as :class:`CampaignError` — or :class:`LeaseLostError` when the
        guard involved the lease owner, because losing that guard means
        the job was stolen.

        The ``pre`` hook fires before anything is written (a crash
        there leaves the old state committed); the ``post`` hook fires
        after the commit (a crash there leaves the new state durable) —
        together they let tests kill the launcher on either side of
        every checkpoint.
        """
        with self._lock:
            self._check_open()
            row = self._row(job_id)
            old = row["state"]
            if new_state not in ALLOWED_TRANSITIONS[old]:
                if stale_ok:
                    return None
                if guard and "lease_owner" in guard:
                    # The caller held a lease on this job but the state
                    # machine has moved past it — the job was stolen and
                    # already resolved, so this is a lost lease, not an
                    # orchestration bug.
                    raise LeaseLostError(
                        f"job {row['name']!r}: lease lost before "
                        f"{old} -> {new_state} (job moved on)"
                    )
                raise CampaignError(
                    f"job {row['name']!r}: illegal transition {old} -> {new_state}"
                )
            snapshot = self._to_jobrow(row)
            if self.on_transition is not None:
                self.on_transition(snapshot, old, new_state, "pre")
            assignments: dict[str, object] = {"state": new_state}
            assignments.update(sets or {})
            columns, params = [], []
            for key, value in assignments.items():
                if isinstance(value, _Expr):
                    columns.append(f"{key} = {value.sql}")
                else:
                    columns.append(f"{key} = ?")
                    params.append(value)
            conditions, cond_params = ["id = ?", "state = ?"], [job_id, old]
            for key, value in (guard or {}).items():
                conditions.append(f"{key} IS ?")  # null-safe equality
                cond_params.append(value)
            try:
                cur = self._conn.execute(
                    f"UPDATE campaign_jobs SET {', '.join(columns)} "
                    f"WHERE {' AND '.join(conditions)}",
                    (*params, *cond_params),
                )
                if cur.rowcount == 0:
                    self._conn.rollback()
                    if stale_ok:
                        return None
                    current = self._row(job_id)["state"]
                    exc_type = (
                        LeaseLostError
                        if guard and "lease_owner" in guard
                        else CampaignError
                    )
                    raise exc_type(
                        f"job {row['name']!r}: lost the {old} -> {new_state} "
                        f"transition race (job is now {current})"
                    )
                self._conn.commit()
            except sqlite3.Error as exc:
                self._conn.rollback()
                raise PersistenceError(
                    f"cannot persist transition {old} -> {new_state}: {exc}"
                ) from exc
            updated = self._to_jobrow(self._row(job_id))
            self._count_transition(old, new_state)
            self._update_state_gauges(snapshot.campaign_id)
            if self.on_transition is not None:
                self.on_transition(updated, old, new_state, "post")
            return updated

    def _transition_or_raise(
        self,
        job_id: int,
        new_state: str,
        *,
        sets: dict[str, object] | None = None,
        guard: dict[str, object] | None = None,
    ) -> JobRow:
        """:meth:`_transition` for callers that must not observe None."""
        job = self._transition(job_id, new_state, sets=sets, guard=guard)
        assert job is not None  # stale_ok=False always returns or raises
        return job

    def _deps_blocked_sql(self, blocked_state: str, comparator: str) -> str:
        """EXISTS clause over a job's dependencies (batch mark_ready)."""
        return (
            "EXISTS (SELECT 1 FROM campaign_job_deps d "
            "JOIN campaign_jobs p ON p.id = d.depends_on "
            f"WHERE d.job_id = campaign_jobs.id AND p.state {comparator} "
            f"'{blocked_state}')"
        )

    def mark_ready(self, campaign_id: int) -> int:
        """Promote CREATED jobs whose dependencies are all DONE to READY.

        A permanently FAILED dependency cascades: the dependent job is
        failed too (``error='dependency failed'``) so the DAG always
        drains.  Sweeps until a fixpoint; returns how many jobs moved.

        With no transition hook attached the sweep is *set-based*: one
        UPDATE fails every CREATED job with a FAILED dependency, one
        promotes every CREATED job with no non-DONE dependency — O(2)
        statements per sweep instead of O(jobs), which is what keeps a
        10k-job submit and the launcher's per-iteration ready sweep
        cheap.  With a hook attached the per-row path preserves the
        exact pre/post checkpoint semantics tests crash into.
        """
        moved = 0
        with self._lock:
            self._check_open()
            while True:
                if self.on_transition is None:
                    progressed = self._mark_ready_batch(campaign_id)
                else:
                    progressed = self._mark_ready_rows(campaign_id)
                moved += progressed
                if not progressed:
                    return moved

    def _mark_ready_batch(self, campaign_id: int) -> int:
        """One set-based ready sweep; returns how many jobs moved."""
        try:
            cascaded = self._conn.execute(
                "UPDATE campaign_jobs SET state = ?, error = 'dependency failed' "
                "WHERE campaign_id = ? AND state = ? AND "
                + self._deps_blocked_sql(FAILED, "="),
                (FAILED, campaign_id, CREATED),
            ).rowcount
            promoted = self._conn.execute(
                "UPDATE campaign_jobs SET state = ? "
                "WHERE campaign_id = ? AND state = ? AND NOT "
                + self._deps_blocked_sql(DONE, "!="),
                (READY, campaign_id, CREATED),
            ).rowcount
            self._conn.commit()
        except sqlite3.Error as exc:
            self._conn.rollback()
            raise PersistenceError(f"cannot sweep ready jobs: {exc}") from exc
        if self.metrics is not None:
            if cascaded:
                self.metrics.counter(
                    "campaign.transitions_total", "job state transitions",
                    **{"from": CREATED, "to": FAILED},
                ).inc(cascaded)
            if promoted:
                self.metrics.counter(
                    "campaign.transitions_total", "job state transitions",
                    **{"from": CREATED, "to": READY},
                ).inc(promoted)
            if cascaded or promoted:
                self._update_state_gauges(campaign_id)
        return cascaded + promoted

    def _mark_ready_rows(self, campaign_id: int) -> int:
        """One per-row ready sweep (hook-visible transitions)."""
        progressed = 0
        rows = self._conn.execute(
            "SELECT id FROM campaign_jobs WHERE campaign_id = ? AND state = ?",
            (campaign_id, CREATED),
        ).fetchall()
        for row in rows:
            job_id = int(row["id"])
            dep_states = [
                r["state"]
                for r in self._conn.execute(
                    "SELECT p.state AS state FROM campaign_job_deps d "
                    "JOIN campaign_jobs p ON p.id = d.depends_on "
                    "WHERE d.job_id = ?",
                    (job_id,),
                ).fetchall()
            ]
            if any(s == FAILED for s in dep_states):
                if self._transition(
                    job_id, FAILED, sets={"error": "dependency failed"},
                    stale_ok=True,
                ):
                    progressed += 1
            elif all(s == DONE for s in dep_states):
                if self._transition(job_id, READY, stale_ok=True):
                    progressed += 1
        return progressed

    def acquire(
        self,
        campaign_id: int,
        owner: str,
        now: float,
        lease_s: float,
        *,
        partition: str | None = None,
    ) -> JobRow | None:
        """Lease the lowest-id READY job: READY → RUNNING.

        Returns ``None`` when no job is ready.  A launcher that
        declares a ``partition`` acquires unplaced jobs plus the jobs
        placed on that partition; a launcher with no partition (the
        single-launcher default) acquires anything, so placement only
        constrains fleets that opted into it.  The claim itself is a
        compare-and-set UPDATE — when several launcher processes race
        for the same job exactly one wins and the others move to the
        next candidate.

        The attempt counter increments *inside* the claim — every
        RUNNING stint spends one unit of the retry budget, including
        stints that end in a crash, so a crash-looping job is bounded
        by ``max_attempts`` like any other failure mode.
        """
        with self._lock:
            self._check_open()
            where = "campaign_id = ? AND state = ?"
            params: list[object] = [campaign_id, READY]
            if partition is not None:
                where += " AND (placement IS NULL OR placement = ?)"
                params.append(partition)
            rows = self._conn.execute(
                f"SELECT id FROM campaign_jobs WHERE {where} ORDER BY id LIMIT 16",
                params,
            ).fetchall()
            for row in rows:
                claimed = self._transition(
                    int(row["id"]),
                    RUNNING,
                    sets={
                        "lease_owner": owner,
                        "lease_expires_at": now + lease_s,
                        "attempts": _Expr("attempts + 1"),
                    },
                    stale_ok=True,
                )
                if claimed is not None:
                    return claimed
            return None

    def steal(self, campaign_id: int, owner: str, now: float) -> JobRow | None:
        """Claim one expired-lease RUNNING job: RUNNING → RESTARTING.

        Work stealing for launcher fleets: the longest-expired job (ties
        broken by lowest id — deterministic, so competing stealers scan
        candidates in the same order and the compare-and-set claim picks
        exactly one winner) moves to RESTARTING with the thief recorded,
        ready for the thief to :meth:`~repro.core.campaign.launcher.
        Launcher.resolve` against the knowledge backend.  The claim is
        guarded on the *observed* lease columns, so a heartbeat racing
        the steal (the owner was slow, not dead) invalidates the claim
        and the victim keeps its job.  Returns ``None`` when nothing is
        stealable.  Scans through the ``(campaign_id, state,
        lease_expires_at)`` covering index: O(expired), not O(jobs).
        """
        with self._lock:
            self._check_open()
            rows = self._conn.execute(
                "SELECT id, lease_owner, lease_expires_at FROM campaign_jobs "
                "WHERE campaign_id = ? AND state = ? "
                "AND lease_expires_at IS NOT NULL AND lease_expires_at < ? "
                "ORDER BY lease_expires_at, id LIMIT 16",
                (campaign_id, RUNNING, now),
            ).fetchall()
            for row in rows:
                victim = row["lease_owner"]
                claimed = self._transition(
                    int(row["id"]),
                    RESTARTING,
                    sets={
                        "error": f"lease stolen by {owner} from {victim}",
                        # Record the thief: the victim's owner-guarded
                        # heartbeat/complete now fails with
                        # LeaseLostError instead of silently resurrecting
                        # a lease it lost.
                        "lease_owner": owner,
                    },
                    guard={
                        "lease_owner": victim,
                        "lease_expires_at": row["lease_expires_at"],
                    },
                    stale_ok=True,
                )
                if claimed is not None:
                    if self.metrics is not None:
                        self.metrics.counter(
                            "campaign.steals_total",
                            "expired leases stolen by competing launchers",
                        ).inc()
                    return claimed
            return None

    def heartbeat(
        self, job_id: int, now: float, lease_s: float, *, owner: str | None = None
    ) -> None:
        """Extend a RUNNING job's lease (no state transition, committed).

        With ``owner`` the extension is guarded on the lease owner: a
        launcher whose job was stolen gets :class:`LeaseLostError`
        instead of silently re-animating a lease it no longer holds —
        the abandon signal the fleet's exactly-once story rests on.
        """
        with self._lock:
            self._check_open()
            conditions, params = (
                ["id = ?", "state = ?"],
                [now + lease_s, job_id, RUNNING],
            )
            if owner is not None:
                conditions.append("lease_owner IS ?")
                params.append(owner)
            cur = self._conn.execute(
                "UPDATE campaign_jobs SET lease_expires_at = ? "
                f"WHERE {' AND '.join(conditions)}",
                params,
            )
            self._conn.commit()
            if cur.rowcount == 0:
                row = self._row(job_id)
                if row["state"] != RUNNING:
                    raise (LeaseLostError if owner is not None else CampaignError)(
                        f"job {row['name']!r}: cannot heartbeat in state {row['state']}"
                    )
                raise LeaseLostError(
                    f"job {row['name']!r}: lease now held by "
                    f"{row['lease_owner']!r}, not {owner!r}"
                )

    def complete(
        self,
        job_id: int,
        knowledge_ids: Sequence[int],
        *,
        result_text: str | None = None,
        owner: str | None = None,
    ) -> JobRow:
        """RUNNING/RESTARTING → DONE, recording the persisted knowledge ids.

        The RESTARTING path is *adoption*: a reclaimed job whose
        idempotency token was found in the knowledge backend is marked
        DONE with the rows the crashed attempt already persisted.  With
        ``owner`` the completion is lease-guarded: if the job was stolen
        mid-run the loser gets :class:`LeaseLostError` and must abandon.
        """
        job = self._transition_or_raise(
            job_id,
            DONE,
            sets={
                "knowledge_ids_json": json.dumps(sorted(int(i) for i in knowledge_ids)),
                "result_text": result_text,
                "lease_owner": None,
                "lease_expires_at": None,
                "error": None,
            },
            guard={"lease_owner": owner} if owner is not None else None,
        )
        self.mark_ready(job.campaign_id)
        return job

    def fail(
        self, job_id: int, error: str, *, retryable: bool, owner: str | None = None
    ) -> JobRow:
        """Record a failed execution: requeue within budget, else FAILED.

        A retryable failure with budget left goes RUNNING → RESTARTING
        → READY (two committed checkpoints, so a crash between them
        resumes correctly); a job already RESTARTING (stolen or
        reclaimed, and held by ``owner``) goes straight to READY.  A
        permanent failure or an exhausted budget goes to FAILED and
        cascades through :meth:`mark_ready`.  The optional ``owner``
        guard mirrors :meth:`complete`.
        """
        guard = {"lease_owner": owner} if owner is not None else None
        with self._lock:
            job = self._to_jobrow(self._row(job_id))
            if retryable and job.attempts < job.max_attempts:
                if job.state == RESTARTING:
                    return self._transition_or_raise(
                        job_id,
                        READY,
                        sets={"error": error, "lease_owner": None, "lease_expires_at": None},
                        guard=guard,
                    )
                self._transition_or_raise(
                    job_id, RESTARTING, sets={"error": error}, guard=guard
                )
                return self.requeue(job_id)
            failed = self._transition_or_raise(
                job_id,
                FAILED,
                sets={"error": error, "lease_owner": None, "lease_expires_at": None},
                guard=guard,
            )
            self.mark_ready(job.campaign_id)
            return failed

    def requeue(self, job_id: int) -> JobRow:
        """RESTARTING → READY (lease cleared), ready for another attempt."""
        return self._transition_or_raise(
            job_id, READY, sets={"lease_owner": None, "lease_expires_at": None}
        )

    def release(self, job_id: int, owner: str) -> JobRow:
        """Give an acquired job back untouched (RUNNING → READY).

        The launcher releases a job it acquired but never started —
        e.g. when the circuit breaker rejects the slot — so the attempt
        counter is handed back too: a release spends no retry budget.
        Only the lease holder ``owner`` may release: a launcher whose
        lease was stolen gets :class:`LeaseLostError` instead of
        dropping the new holder's lease and refunding its attempt.
        """
        with self._lock:
            self._transition_or_raise(
                job_id, RESTARTING, sets={"error": "released"},
                guard={"lease_owner": owner},
            )
            return self._transition_or_raise(
                job_id,
                READY,
                sets={
                    "lease_owner": None,
                    "lease_expires_at": None,
                    "attempts": _Expr("MAX(0, attempts - 1)"),
                    "error": None,
                },
            )

    def reclaim(self, campaign_id: int, now: float, *, force: bool = False) -> list[JobRow]:
        """Move crashed-launcher RUNNING jobs to RESTARTING.

        A job is reclaimed when its lease expired at ``now`` (or
        unconditionally with ``force=True`` — the ``--resume`` path,
        where the operator asserts the previous launcher is dead).
        Deterministic: depends only on the committed lease columns and
        the ``now`` value passed in.  The launcher then resolves each
        reclaimed job to adoption (token found in the knowledge
        backend) or a requeue.

        The expired scan is pushed into SQL against the covering
        ``(campaign_id, state, lease_expires_at)`` index — O(expired),
        not a full RUNNING sweep — and each reclamation is a
        compare-and-set, so two launchers reclaiming concurrently
        partition the expired set instead of colliding.
        """
        with self._lock:
            self._check_open()
            if force:
                rows = self._conn.execute(
                    "SELECT id FROM campaign_jobs "
                    "WHERE campaign_id = ? AND state = ? ORDER BY id",
                    (campaign_id, RUNNING),
                ).fetchall()
            else:
                rows = self._conn.execute(
                    "SELECT id FROM campaign_jobs "
                    "WHERE campaign_id = ? AND state = ? "
                    "AND (lease_expires_at IS NULL OR lease_expires_at < ?) "
                    "ORDER BY id",
                    (campaign_id, RUNNING, now),
                ).fetchall()
            reclaimed = []
            for row in rows:
                job = self._transition(
                    int(row["id"]), RESTARTING, sets={"error": "lease expired"},
                    stale_ok=True,
                )
                if job is None:
                    continue  # a competing launcher reclaimed it first
                reclaimed.append(job)
                if self.metrics is not None:
                    self.metrics.counter(
                        "campaign.reclaims_total",
                        "RUNNING jobs reclaimed from dead launchers",
                    ).inc()
            return reclaimed

    def cancel(self, campaign_id: int) -> int:
        """Fail every non-terminal, non-RUNNING job (``error='cancelled'``).

        RUNNING jobs are left to finish (or be reclaimed); the campaign
        row is flagged so launchers stop acquiring from it.  Returns
        how many jobs were cancelled.
        """
        with self._lock:
            self._check_open()
            self.campaign(campaign_id)  # existence check
            self._conn.execute(
                "UPDATE campaigns SET cancelled = 1 WHERE id = ?", (campaign_id,)
            )
            self._conn.commit()
            cancelled = 0
            for row in self._conn.execute(
                "SELECT id, state FROM campaign_jobs WHERE campaign_id = ? "
                "AND state IN (?, ?, ?) ORDER BY id",
                (campaign_id, CREATED, READY, RESTARTING),
            ).fetchall():
                if self._transition(
                    int(row["id"]),
                    FAILED,
                    sets={"error": "cancelled", "lease_owner": None,
                          "lease_expires_at": None},
                    stale_ok=True,
                ):
                    cancelled += 1
            return cancelled

    def is_cancelled(self, campaign_id: int) -> bool:
        """Whether the campaign was cancelled."""
        return bool(self.campaign(campaign_id)["cancelled"])

    # ------------------------------------------------------------------
    # launcher status (the fleet's shared scoreboard)
    # ------------------------------------------------------------------
    def report_launcher(
        self, campaign_id: int, launcher: str, **fields: object
    ) -> None:
        """Upsert one launcher's status row (the ``--watch`` feed).

        Launcher processes periodically write their own throughput /
        steal / pool-size numbers here, so the fleet coordinator (and
        ``repro-campaign --status``) can render a live per-launcher
        view from the store alone — no extra channel between processes.
        """
        unknown = sorted(set(fields) - _LAUNCHER_FIELDS)
        if unknown:
            raise CampaignError(
                f"unknown launcher status field(s) {unknown}; "
                f"known: {sorted(_LAUNCHER_FIELDS)}"
            )
        with self._lock:
            self._check_open()
            names = list(fields)
            try:
                self._conn.execute(
                    "INSERT INTO campaign_launchers (campaign_id, launcher"
                    + "".join(f", {n}" for n in names)
                    + ") VALUES (?, ?"
                    + ", ?" * len(names)
                    + ") ON CONFLICT (campaign_id, launcher) DO UPDATE SET "
                    + ", ".join(f"{n} = excluded.{n}" for n in names),
                    (campaign_id, launcher, *[fields[n] for n in names]),
                )
                self._conn.commit()
            except sqlite3.Error as exc:
                self._conn.rollback()
                raise PersistenceError(
                    f"cannot record launcher status: {exc}"
                ) from exc

    def launcher_rows(self, campaign_id: int) -> list[dict[str, object]]:
        """Every launcher status row of one campaign, by launcher name."""
        with self._lock:
            self._check_open()
            rows = self._conn.execute(
                "SELECT * FROM campaign_launchers WHERE campaign_id = ? "
                "ORDER BY launcher",
                (campaign_id,),
            ).fetchall()
            return [dict(r) for r in rows]

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def _count_transition(self, old: str, new: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                "campaign.transitions_total", "job state transitions",
                **{"from": old, "to": new},
            ).inc()

    def _update_state_gauges(self, campaign_id: int) -> None:
        if self.metrics is not None:
            for state, n in self.counts(campaign_id).items():
                self.metrics.gauge(
                    "campaign.jobs", "jobs by state (READY is the queue depth)",
                    state=state,
                ).set(n)
