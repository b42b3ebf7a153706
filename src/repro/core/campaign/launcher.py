"""The campaign launcher: a bounded worker pool draining the job DAG.

Workers repeatedly lease the lowest-id READY job from the
:class:`~repro.core.campaign.store.CampaignStore` and execute it
through the existing :class:`~repro.core.pipeline.PhasePipeline`
(generation → extraction → a campaign-specific persist phase), with
the same admission-control discipline as the knowledge service: the
pool is bounded, a tripped :class:`~repro.core.resilience.
CircuitBreaker` pauses acquisition instead of hammering a failing
backend, and every transient failure retries under a deterministic
:class:`~repro.core.resilience.RetryPolicy`.

Exactly-once across two databases
---------------------------------
The campaign store and the knowledge backend cannot share one
transaction, so a crash between "knowledge committed" and "job marked
DONE" would naively re-run the job and duplicate its rows.  Instead
every knowledge object a job persists is tagged with the job's unique
idempotency token (``parameters["campaign_job"]``) and the expected
row count (``parameters["campaign_total"]``), all in one backend
transaction.  When a crashed launcher's expired leases are claimed
(stolen or reclaimed), :meth:`Launcher.resolve` consults the knowledge
backend:

* token absent → the persist never committed → requeue (zero lost);
* token present and complete → *adopt*: mark the job DONE with the
  ids the dead launcher already persisted (zero duplicated);
* token present but short of ``campaign_total`` (a partial multi-shard
  service commit) → delete the partial rows and requeue.

A job whose extraction legitimately yields no taggable knowledge
persists a single *marker* row instead, so adoption can always tell
"committed with nothing to report" from "never committed".
"""

from __future__ import annotations

import math
import os
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.core.campaign.store import RESTARTING, CampaignStore, JobRow
from repro.core.campaign.spec import job_jube_xml
from repro.core.cycle import ExtractionPhase, GenerationPhase
from repro.core.explorer.comparison import ComparisonView
from repro.core.knowledge import IO500Knowledge, Knowledge
from repro.core.persistence.backend import ResilientBackend
from repro.core.persistence.database import KnowledgeDatabase
from repro.core.persistence.io500_repo import IO500Repository
from repro.core.persistence.repository import KnowledgeRepository
from repro.core.pipeline import (
    CycleContext,
    FailurePolicy,
    PhaseObserver,
    PhasePipeline,
    PhaseRegistry,
)
from repro.core.resilience import CircuitBreaker, RetryPolicy
from repro.core.service.client import ServiceClient, is_service_url, is_tcp_url
from repro.iostack.stack import Testbed
from repro.util.errors import (
    CampaignError,
    LeaseLostError,
    PersistenceError,
    ReproError,
)
from repro.util.rng import derive_seed

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.core.metrics import MetricsRegistry

__all__ = ["TOKEN_PARAMETER", "Launcher", "open_sink"]

#: Knowledge-parameter key carrying the job's idempotency token.
TOKEN_PARAMETER = "campaign_job"
#: Knowledge-parameter key carrying the job's expected row count.
TOTAL_PARAMETER = "campaign_total"
#: Knowledge-parameter key marking a synthetic zero-result row.
MARKER_PARAMETER = "campaign_marker"


# ----------------------------------------------------------------------
# knowledge sinks: one write/lookup discipline per backend flavour
# ----------------------------------------------------------------------
class _DatabaseSink:
    """Direct SQLite knowledge backend shared by all launcher workers.

    One connection (``check_same_thread=False``) serialised by a lock —
    the same single-writer discipline the service applies per shard.
    A job's rows (benchmark knowledge and any IO500 rows) land in one
    transaction, which is what makes token lookup a reliable witness.
    """

    def __init__(self, target: str, *, metrics: "MetricsRegistry | None" = None) -> None:
        self._db = KnowledgeDatabase(target, metrics=metrics, check_same_thread=False)
        self._backend = ResilientBackend(self._db, metrics=metrics)
        self.repository = KnowledgeRepository(self._backend)
        self._io500 = IO500Repository(self._backend)
        self._lock = threading.Lock()

    def save_tagged(
        self, objects: list[Knowledge], io500: list[IO500Knowledge]
    ) -> list[int]:
        with self._lock, self._backend.transaction():
            ids = [self.repository.save(k) for k in objects]
            for k in io500:
                self._io500.save(k)
            return ids

    def find_ids_by_token(self, token: str) -> list[int]:
        with self._lock:
            return self.repository.find_ids_by_parameter(TOKEN_PARAMETER, token)

    def fetch_many(self, ids: list[int]) -> list[Knowledge]:
        with self._lock:
            return self.repository.fetch_many(ids)

    def delete(self, knowledge_id: int) -> None:
        with self._lock:
            self.repository.delete(knowledge_id)

    def close(self) -> None:
        self._db.close()


class _ServiceSink:
    """``knowledge+service://`` or ``knowledge+tcp://`` backend.

    Both are thread-safe: the embedded service runs each request on the
    caller's thread under the owning shard's lock, and the TCP client
    pools connections per request.  A remote URL lets a campaign drain
    against a ``repro-serve --listen`` server in another process —
    launcher and store no longer share a fate.
    """

    def __init__(self, url: str, *, metrics: "MetricsRegistry | None" = None) -> None:
        self._client = ServiceClient.open(url, metrics=metrics)

    def save_tagged(
        self, objects: list[Knowledge], io500: list[IO500Knowledge]
    ) -> list[int]:
        if io500:
            raise CampaignError(
                "the knowledge service cannot persist IO500 knowledge; "
                "use a direct database backend URL for io500 campaigns"
            )
        return self._client.save_many(objects)

    def find_ids_by_token(self, token: str) -> list[int]:
        return self._client.find_ids_by_parameter(TOKEN_PARAMETER, token)

    def fetch_many(self, ids: list[int]) -> list[Knowledge]:
        return self._client.fetch_many(ids)

    def delete(self, knowledge_id: int) -> None:
        self._client.delete(knowledge_id)

    def close(self) -> None:
        self._client.close()


def open_sink(backend_url: str, *, metrics: "MetricsRegistry | None" = None):
    """Open the campaign knowledge sink matching a backend URL."""
    if is_service_url(backend_url) or is_tcp_url(backend_url):
        return _ServiceSink(backend_url, metrics=metrics)
    return _DatabaseSink(backend_url, metrics=metrics)


# ----------------------------------------------------------------------
# the campaign-specific persist phase
# ----------------------------------------------------------------------
class _TagAndPersistPhase:
    """Phase III variant: tag every row with the job token, save atomically."""

    name = "campaign-persist"

    def __init__(self, sink, token: str, benchmark: str) -> None:
        self.sink = sink
        self.token = token
        self.benchmark = benchmark

    def run(self, context: CycleContext) -> int:
        objects = [k for k in context.extracted if isinstance(k, Knowledge)]
        io500 = [k for k in context.extracted if isinstance(k, IO500Knowledge)]
        marker = not objects
        if marker:
            # A zero-result (or IO500-only) job still needs a durable
            # witness row, or resume could not tell it from a job whose
            # persist never committed.
            objects = [
                Knowledge(
                    benchmark=self.benchmark,
                    command="campaign-marker",
                    parameters={MARKER_PARAMETER: True},
                )
            ]
        for k in objects:
            k.parameters[TOKEN_PARAMETER] = self.token
            k.parameters[TOTAL_PARAMETER] = len(objects)
        ids = self.sink.save_tagged(objects, io500)
        context.result.knowledge_ids = [] if marker else list(ids)
        return len(ids)


class _HeartbeatObserver(PhaseObserver):
    """Extends the job lease on every phase boundary, retry, and sleep.

    Beats are owner-guarded: if the job was stolen by another launcher
    (the lease expired while this one was alive-but-slow past the
    grace the slicing below provides), the beat raises
    :class:`LeaseLostError` and the worker abandons the job.

    :meth:`guarded_sleep` is handed to the pipeline as its backoff
    sleep: a retry delay longer than a fraction of the lease is sliced
    into lease-refreshing chunks, so a healthy job mid-backoff keeps
    beating and cannot be stolen just for retrying slowly.
    """

    def __init__(self, launcher: "Launcher", job_id: int, owner: str) -> None:
        self.launcher = launcher
        self.job_id = job_id
        self.owner = owner

    def _beat(self) -> None:
        self.launcher.store.heartbeat(
            self.job_id, self.launcher.clock(), self.launcher.lease_s,
            owner=self.owner,
        )

    def guarded_sleep(self, delay_s: float) -> None:
        step = max(self.launcher.lease_s / 4.0, 1e-9)
        remaining = float(delay_s)
        while remaining > 0:
            chunk = min(step, remaining)
            self.launcher.sleep(chunk)
            remaining -= chunk
            self._beat()

    def on_phase_start(self, phase, context) -> None:
        self._beat()

    def on_phase_retry(self, phase, context, attempt, error, delay_s) -> None:
        self._beat()

    def on_phase_finish(self, phase, context, duration_s, artifacts) -> None:
        self._beat()


# ----------------------------------------------------------------------
# the launcher
# ----------------------------------------------------------------------
class Launcher:
    """Drains one campaign's READY jobs through a bounded worker pool.

    ``run(resume=True)`` is the crash-recovery entry point: every
    RUNNING lease left behind by a dead launcher is reclaimed (claimed
    at ``now = inf``: the operator asserts no other launcher is alive),
    then resolved to adoption or a requeue before any new work starts.
    Without ``resume``, only leases that already expired are reclaimed —
    safe when another launcher might still be heartbeating.

    ``clock`` and ``sleep`` are injectable so tests drive lease expiry
    and backoff in zero wall time.

    Fleet mode (PR 10): several ``Launcher`` *processes* may drain the
    same campaign concurrently.  Each gets a distinct ``name`` (the
    lease-owner prefix), optionally a cluster ``partition`` (only
    matching-placement jobs are acquired), steals expired leases from
    dead peers when no READY work is left, and — when an elastic
    controller is attached — parks surplus worker threads while the
    queue is shallow.  Progress is reported to the store's launcher
    scoreboard so ``--watch`` can render the fleet live.
    """

    def __init__(
        self,
        store: CampaignStore,
        campaign_id: int,
        *,
        workspace: str | Path,
        workers: int = 2,
        seed: int = 42,
        metrics: "MetricsRegistry | None" = None,
        retry_policy: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        lease_s: float = 60.0,
        poll_s: float = 0.01,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        testbed_factory: Callable[[int], Testbed] | None = None,
        name: str | None = None,
        partition: str | None = None,
        elastic: "object | None" = None,
        report_status: bool = False,
    ) -> None:
        if workers < 1:
            raise CampaignError(f"workers must be >= 1, got {workers}")
        self.store = store
        self.campaign_id = campaign_id
        self.workspace = Path(workspace)
        self.workers = workers
        self.seed = seed
        self.metrics = metrics
        self.retry_policy = retry_policy
        self.breaker = breaker
        self.lease_s = lease_s
        self.poll_s = poll_s
        self.clock = clock
        self.sleep = sleep
        self.testbed_factory = testbed_factory or (
            lambda job_seed: Testbed.fuchs_csc(seed=job_seed)
        )
        self.name = name or f"launcher-{id(self):x}"
        self.partition = partition
        #: Duck-typed elastic controller: ``allowed(queue_depth) -> int``
        #: (see :class:`repro.core.campaign.fleet.ElasticController`).
        self.elastic = elastic
        self.report_status = report_status
        self._allowed = workers  # elastic pool limit (worker 0 updates)
        self._stop = threading.Event()
        self._crash_lock = threading.Lock()
        self._crashes: list[BaseException] = []
        self._stats_lock = threading.Lock()
        self._stats = {"jobs_done": 0, "jobs_failed": 0, "steals": 0, "leases_lost": 0}
        self._sink = None

    # ------------------------------------------------------------------
    # exactly-once resolution of reclaimed jobs
    # ------------------------------------------------------------------
    def resolve(self, job: JobRow) -> str:
        """Resolve one RESTARTING job against the knowledge backend.

        Returns ``"adopted"``, ``"requeued"``, ``"cleaned"`` (partial
        rows deleted, then requeued), or ``"lost"`` when a competing
        launcher resolved the same job first — two launchers recovering
        concurrently partition the RESTARTING set through the store's
        compare-and-set transitions, and the loser simply moves on.
        """
        ids = self._sink.find_ids_by_token(job.token)
        try:
            if not ids:
                self.store.requeue(job.job_id)
                return "requeued"
            objects = self._sink.fetch_many(ids)
            total = max(
                int(o.parameters.get(TOTAL_PARAMETER, len(ids))) for o in objects
            )
            if len(ids) < total:
                # Partial multi-shard commit from the crashed attempt —
                # remove it entirely, then run the job again from scratch.
                for knowledge_id in ids:
                    try:
                        self._sink.delete(knowledge_id)
                    except PersistenceError:
                        pass  # a competing resolver already removed it
                self.store.requeue(job.job_id)
                return "cleaned"
            real = [
                o.knowledge_id
                for o in objects
                if not o.parameters.get(MARKER_PARAMETER)
            ]
            self.store.complete(job.job_id, [i for i in real if i is not None])
            return "adopted"
        except CampaignError:
            # The job left RESTARTING under our feet — another launcher
            # won the resolution race and owns the outcome now.
            return "lost"

    def _resolve_restarting(self, limit: int) -> int:
        """Resolve up to ``limit`` RESTARTING jobs; returns how many.

        Start-up and idle recovery share it: a job sits in RESTARTING
        after a claim, or after its claimer died mid-resolution.
        """
        ids = self.store.job_ids_in_state(self.campaign_id, RESTARTING, limit=limit)
        for job_id in ids:
            self.resolve(self.store.job(job_id))
        return len(ids)

    # ------------------------------------------------------------------
    # job execution
    # ------------------------------------------------------------------
    def _execute_benchmark(self, job: JobRow, owner: str) -> None:
        campaign = self.store.campaign(job.campaign_id)
        if str(campaign["benchmark"]) == "noop":
            self._execute_noop(job, owner)
            return
        job_seed = derive_seed(self.seed, "campaign-job", job.token, job.attempts)
        testbed = self.testbed_factory(job_seed)
        workspace = self.workspace / f"job-{job.job_id}-attempt-{job.attempts}"
        registry = PhaseRegistry(
            [
                GenerationPhase(),
                ExtractionPhase(),
                _TagAndPersistPhase(self._sink, job.token, str(campaign["benchmark"])),
            ]
        )
        context = CycleContext(
            testbed=testbed,
            workspace=workspace,
            backend=None,  # type: ignore[arg-type] - persist goes through the sink
            repository=None,  # type: ignore[arg-type]
            io500_repository=None,  # type: ignore[arg-type]
            modules=None,  # type: ignore[arg-type]
            viewer=None,  # type: ignore[arg-type]
            io500_viewer=None,  # type: ignore[arg-type]
            jube_xml=job_jube_xml(str(campaign["name"]), str(campaign["benchmark"]), job.params),
        )
        heart = _HeartbeatObserver(self, job.job_id, owner)
        pipeline = PhasePipeline(
            registry,
            observers=[heart],
            default_policy=FailurePolicy(retry=self.retry_policy, on_exhausted="abort"),
            sleep=heart.guarded_sleep,
        )
        result = pipeline.run(context)
        self.store.complete(job.job_id, result.knowledge_ids, owner=owner)

    def _execute_noop(self, job: JobRow, owner: str) -> None:
        """Hold real wall-clock time, then persist one tagged witness row.

        The fleet's unit of benchmark/soak work: ``duration_ms`` models
        a cluster-side run the launcher merely *waits on* (the Balsam
        situation), so N launchers overlap their waits and drain N
        times faster even on a single-core host.  The lease is
        refreshed in sub-lease slices during the hold, and the persist
        carries the same idempotency token discipline as a real job.
        """
        duration_s = float(job.params.get("duration_ms", 0.0)) / 1000.0
        deadline = self.clock() + duration_s
        while not self._stop.is_set():
            remaining = deadline - self.clock()
            if remaining <= 0:
                break
            self.sleep(min(remaining, max(self.lease_s / 4.0, 1e-9)))
            self.store.heartbeat(job.job_id, self.clock(), self.lease_s, owner=owner)
        row = Knowledge(
            benchmark="noop",
            command="noop",
            parameters={
                "duration_ms": job.params.get("duration_ms", 0.0),
                TOKEN_PARAMETER: job.token,
                TOTAL_PARAMETER: 1,
            },
        )
        ids = self._sink.save_tagged([row], [])
        self.store.complete(job.job_id, ids, owner=owner)

    def _execute_report(self, job: JobRow, owner: str) -> None:
        ids = self.store.dependency_knowledge_ids(job.job_id)
        self.store.heartbeat(job.job_id, self.clock(), self.lease_s, owner=owner)
        objects = self._sink.fetch_many(ids) if ids else []
        text = (
            ComparisonView(objects).table()
            if objects
            else "(no knowledge rows to compare)"
        )
        self.store.complete(job.job_id, [], result_text=text, owner=owner)

    def _execute(self, job: JobRow, owner: str) -> None:
        started = time.perf_counter()
        try:
            if job.kind == "report":
                self._execute_report(job, owner)
            else:
                self._execute_benchmark(job, owner)
        except LeaseLostError:
            # The job was stolen mid-run: the thief owns it now, so
            # abandon silently — recording a failure would spend the
            # thief's retry budget, and the store already refuses every
            # further write under our expired lease.
            self._note("leases_lost")
            if self.metrics is not None:
                self.metrics.counter(
                    "fleet.leases_lost_total",
                    "jobs abandoned after losing the lease to a thief",
                ).inc()
            return
        except ReproError as exc:
            if self.breaker is not None:
                self.breaker.record_failure()
            try:
                self.store.fail(
                    job.job_id, repr(exc),
                    retryable=bool(getattr(exc, "transient", False)), owner=owner,
                )
            except LeaseLostError:
                self._note("leases_lost")
                return
            self._note("jobs_failed")
            return
        if self.breaker is not None:
            self.breaker.record_success()
        self._note("jobs_done")
        if self.metrics is not None:
            self.metrics.histogram(
                "campaign.job_seconds", "job execution wall time",
                wallclock=True, kind=job.kind,
            ).observe(time.perf_counter() - started)

    # ------------------------------------------------------------------
    # the worker loop
    # ------------------------------------------------------------------
    def _note(self, key: str) -> None:
        with self._stats_lock:
            self._stats[key] += 1

    def _report_status(self, state: str, *, started_at: float | None = None) -> None:
        """Upsert this launcher's scoreboard row (best-effort)."""
        if not self.report_status:
            return
        with self._stats_lock:
            stats = dict(self._stats)
        fields: dict[str, object] = {
            "pid": os.getpid(),
            "placement": self.partition,
            "state": state,
            "pool_active": self._allowed,
            "pool_max": self.workers,
            "updated_at": time.time(),
            **stats,
        }
        if started_at is not None:
            fields["started_at"] = started_at
        try:
            self.store.report_launcher(self.campaign_id, self.name, **fields)
        except ReproError:
            pass  # the scoreboard must never take a launcher down

    def stop(self) -> None:
        """Ask every worker to finish its current job and exit."""
        self._stop.set()

    def _worker_loop(self, index: int) -> None:
        owner = f"{self.name}-w{index}"
        try:
            while not self._stop.is_set():
                if self.elastic is not None:
                    if index == 0:
                        # Worker 0 re-sizes the pool from the queue
                        # depth: a deterministic function, so every
                        # launcher in the fleet converges on the same
                        # size for the same backlog.
                        self._allowed = int(
                            self.elastic.allowed(
                                self.store.ready_count(self.campaign_id)
                            )
                        )
                    if index >= self._allowed:
                        # Parked: the queue is too shallow to feed this
                        # worker.  Keep polling — depth can grow again.
                        if self.store.active_count(self.campaign_id) == 0:
                            return
                        self.sleep(self.poll_s)
                        continue
                self.store.mark_ready(self.campaign_id)
                job = self.store.acquire(
                    self.campaign_id, owner, self.clock(), self.lease_s,
                    partition=self.partition,
                )
                if job is None:
                    # No READY work: try stealing an expired lease from
                    # a dead (or stalled) peer before going idle.
                    stolen = self.store.steal(
                        self.campaign_id, owner, self.clock()
                    )
                    if stolen is not None:
                        self._note("steals")
                        self.resolve(stolen)
                        self._report_status("running")
                        continue
                    # Resolving parked RESTARTING jobs while idle keeps
                    # the fleet live without waiting for a restart.
                    self._resolve_restarting(limit=4)
                    if self.store.active_count(self.campaign_id) == 0:
                        return
                    self.sleep(self.poll_s)
                    continue
                if self.breaker is not None and not self.breaker.allow():
                    # Hand the job back untouched (no retry budget
                    # spent) and back off while the breaker cools down.
                    self.store.release(job.job_id, owner)
                    self.sleep(self.poll_s)
                    continue
                self._execute(job, owner)
                self._report_status("running")
        except BaseException as exc:  # noqa: BLE001 - surfaced from run()
            # A non-ReproError escaping a worker is a launcher crash
            # (tests inject these at state-transition checkpoints).
            # Stop the pool and let run() re-raise it.
            with self._crash_lock:
                self._crashes.append(exc)
            self._stop.set()

    def run(self, *, resume: bool = False) -> dict[str, int]:
        """Drain the campaign; returns the final per-state counts.

        Propagates the first worker crash (after stopping the pool),
        leaving the store checkpointed exactly at the crash point —
        a subsequent ``run(resume=True)`` completes the campaign with
        zero lost and zero duplicated knowledge rows.
        """
        self._stop.clear()
        self._crashes.clear()
        self._sink = open_sink(
            str(self.store.campaign(self.campaign_id)["backend_url"]),
            metrics=self.metrics,
        )
        try:
            # Recover first: claim dead launchers' leases, then resolve
            # every RESTARTING job (just claimed, or stuck mid-requeue)
            # to adoption or a clean requeue before new work starts.
            self.store.reclaim(
                self.campaign_id, self.name, math.inf if resume else self.clock()
            )
            while self._resolve_restarting(limit=16):
                pass
            self.store.mark_ready(self.campaign_id)
            if self.elastic is not None:
                # Size the pool before any worker runs: otherwise a
                # surplus worker could claim a job in the window before
                # worker 0's first resize.
                self._allowed = int(
                    self.elastic.allowed(self.store.ready_count(self.campaign_id))
                )
            self._report_status("running", started_at=time.time())
            threads = [
                threading.Thread(
                    target=self._worker_loop, args=(i,), name=f"campaign-worker-{i}",
                    daemon=True,
                )
                for i in range(self.workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            if self._crashes:
                self._report_status("crashed")
                raise self._crashes[0]
            self._report_status("done")
            return self.store.counts(self.campaign_id)
        finally:
            self._sink.close()
            self._sink = None
