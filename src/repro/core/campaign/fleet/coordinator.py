"""The launcher-fleet coordinator: N competing launchers, supervised.

:class:`LauncherFleet` is the process-level face of fleet mode.  It
spawns ``size`` launcher worker processes (``python -m
repro.core.campaign.fleet.worker``) against one campaign store and
supervises them with the same mechanism the knowledge server applies
to its shard-group workers (:class:`~repro.core.supervise.
SupervisedSlot`, PR 7): a launcher that dies with a non-zero exit is
respawned under an exponential-backoff budget, and one that keeps
dying inside a sliding window is tombstoned as crash-looping instead
of burning the host.

The coordinator itself never executes jobs and holds no lease — all
work coordination happens *through the store* (acquire/steal
compare-and-set claims, the idempotency-token resolve protocol), so a
SIGKILLed coordinator loses nothing: restarting the fleet resumes the
campaign exactly where the store says it is.

Fault injection plugs in through the same duck-typed surface the
server's chaos harness uses: :attr:`LauncherFleet.workers` exposes
``.process``/``.alive`` slots, so the chaos
:class:`~repro.core.service.chaos.WorkerKiller` can SIGKILL launchers
round-robin on a deterministic cadence — the SIGKILL matrix the
exactly-once acceptance test drives.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from repro.core.campaign.store import CampaignStore
from repro.core.campaign.fleet.watch import render_fleet_view
from repro.core.resilience import RetryPolicy
from repro.core.supervise import SupervisedSlot
from repro.util.errors import CampaignError, ReproError

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.core.metrics import MetricsRegistry

__all__ = ["LauncherSlot", "LauncherFleet"]


class LauncherSlot:
    """One supervised launcher process (chaos-killer compatible).

    ``process is None`` marks a tombstone (crash-looped) or a launcher
    that finished cleanly; ``alive`` is the liveness probe both the
    supervisor and the chaos :class:`WorkerKiller` consult.
    """

    def __init__(self, index: int, name: str, partition: str | None) -> None:
        self.index = index
        self.name = name
        self.partition = partition
        self.process: subprocess.Popen | None = None
        self.supervision = SupervisedSlot()
        self.done = False  # exited 0: the campaign looked drained to it

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None


class LauncherFleet:
    """Spawn, supervise, and drain-wait N launcher processes."""

    def __init__(
        self,
        store: CampaignStore,
        campaign_id: int,
        *,
        size: int,
        workspace: str | Path,
        workers_per_launcher: int = 2,
        min_workers: int | None = None,
        seed: int = 42,
        lease_s: float = 5.0,
        poll_s: float = 0.05,
        retries: int = 2,
        partitions: Sequence[str] | None = None,
        metrics: "MetricsRegistry | None" = None,
        respawn_policy: RetryPolicy | None = None,
        crash_loop_threshold: int = 5,
        crash_loop_window_s: float = 30.0,
        supervise_interval_s: float = 0.1,
        watch: Callable[[str], None] | None = None,
        watch_interval_s: float = 1.0,
        killer: "object | None" = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if size < 1:
            raise CampaignError(f"fleet size must be >= 1, got {size}")
        if partitions is not None and len(partitions) == 0:
            partitions = None
        self.store = store
        self.campaign_id = campaign_id
        self.size = size
        self.workspace = Path(workspace)
        self.workers_per_launcher = workers_per_launcher
        self.min_workers = min_workers
        self.seed = seed
        self.lease_s = lease_s
        self.poll_s = poll_s
        self.retries = retries
        self.partitions = list(partitions) if partitions is not None else None
        self.metrics = metrics
        self.respawn_policy = respawn_policy or RetryPolicy(
            max_attempts=6, base_delay_s=0.05, max_delay_s=2.0, seed=seed
        )
        self.crash_loop_threshold = crash_loop_threshold
        self.crash_loop_window_s = crash_loop_window_s
        self.supervise_interval_s = supervise_interval_s
        self.watch = watch
        self.watch_interval_s = watch_interval_s
        #: Duck-typed chaos hook: ``on_frame(done_jobs)`` may SIGKILL a
        #: live launcher (see :class:`WorkerKiller`).  It is fed the
        #: campaign's DONE count, so a kill comes only after progress
        #: and the schedule does not depend on how fast launchers start.
        self.killer = killer
        self._clock = clock
        #: Chaos-killer/WorkerKiller-compatible slot list.
        self.workers: list[LauncherSlot] = [
            LauncherSlot(
                i,
                f"fleet-l{i}",
                self.partitions[i % len(self.partitions)]
                if self.partitions is not None
                else None,
            )
            for i in range(size)
        ]
        self.respawns = 0
        self.crash_loops = 0
        #: Placement values no launcher serves (filled in by run()).
        self.uncovered_placements: list[str] = []

    def _check_placement_coverage(self) -> None:
        """Refuse to start when placed jobs have no serving launcher.

        A partitioned fleet only acquires matching (or unplaced) jobs,
        so a placement value outside the partition list would stall
        those jobs — and the drain loop with them — forever.  Failing
        before the first spawn costs nothing: the store is untouched
        and the operator reruns with a corrected ``--partitions``.
        """
        if self.partitions is None:
            return  # unpartitioned launchers acquire any placement
        # Partitions are dealt to launchers round-robin, so a fleet
        # smaller than the partition list leaves the tail unserved —
        # coverage is what the *slots* got, not what was asked for.
        covered = {slot.partition for slot in self.workers}
        self.uncovered_placements = [
            p for p in self.store.placements(self.campaign_id)
            if p not in covered
        ]
        if self.uncovered_placements:
            raise CampaignError(
                f"campaign {self.campaign_id} has active jobs placed on "
                f"{', '.join(self.uncovered_placements)} but no launcher "
                f"serves those partitions (fleet covers "
                f"{', '.join(sorted(p for p in covered if p))}); grow the "
                "fleet or fix --partitions and rerun"
            )

    # ------------------------------------------------------------------
    # process management
    # ------------------------------------------------------------------
    def _spawn(self, slot: LauncherSlot) -> None:
        argv = [
            sys.executable, "-m", "repro.core.campaign.fleet.worker",
            "--store", self.store.target,
            "--campaign", str(self.campaign_id),
            "--name", slot.name,
            "--workspace", str(self.workspace / slot.name),
            "--workers", str(self.workers_per_launcher),
            "--seed", str(self.seed + slot.index),
            "--lease", str(self.lease_s),
            "--poll", str(self.poll_s),
            "--retries", str(self.retries),
        ]
        if self.min_workers is not None:
            argv += ["--min-workers", str(self.min_workers)]
        if slot.partition is not None:
            argv += ["--partition", slot.partition]
        slot.process = subprocess.Popen(argv)
        # Name the launcher on the scoreboard now: one that is stopped
        # before its own first report (a fast peer drained the queue)
        # still shows up as a launcher this fleet started.
        try:
            self.store.report_launcher(
                self.campaign_id, slot.name,
                state="starting", pid=slot.process.pid, placement=slot.partition,
            )
        except ReproError:
            pass  # the scoreboard must never take the fleet down

    def _gauge_alive(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge(
                "fleet.launchers", "live launcher processes"
            ).set(sum(1 for s in self.workers if s.alive))

    def _handle_exit(self, slot: LauncherSlot) -> None:
        returncode = slot.process.returncode
        if returncode == 0:
            # Clean exit: the launcher saw the campaign drained.  Not a
            # crash — retire the slot.
            slot.process = None
            slot.done = True
            return
        now = self._clock()
        if slot.supervision.unhealthy_since is None:
            slot.supervision.unhealthy_since = now
        if now < slot.supervision.next_attempt_at:
            return  # respawn budget: back off between attempts
        if slot.supervision.note_respawn_attempt(
            now,
            window_s=self.crash_loop_window_s,
            threshold=self.crash_loop_threshold,
        ):
            # Crash loop: tombstone the slot; the remaining launchers
            # (and the steal protocol) absorb its share of the work.
            slot.process = None
            slot.supervision.crash_looped = True
            self.crash_loops += 1
            if self.metrics is not None:
                self.metrics.counter(
                    "fleet.crash_loops_total",
                    "launcher slots tombstoned as crash-looping",
                ).inc()
            return
        slot.supervision.attempt += 1
        try:
            self._spawn(slot)
        except OSError:
            delay = self.respawn_policy.delay_s(
                min(slot.supervision.attempt, self.respawn_policy.max_attempts - 1)
                or 1
            )
            slot.supervision.next_attempt_at = self._clock() + delay
            return
        slot.supervision.respawned(self._clock())
        slot.supervision.healed(self._clock())
        self.respawns += 1
        if self.metrics is not None:
            self.metrics.counter(
                "fleet.respawns_total", "launcher processes respawned",
                launcher=slot.name,
            ).inc()

    def tick(self) -> None:
        """One supervision pass over every launcher slot."""
        for slot in self.workers:
            if slot.supervision.crash_looped or slot.done:
                continue
            if slot.process is None:
                continue
            if slot.process.poll() is not None:
                self._handle_exit(slot)
        self._gauge_alive()

    # ------------------------------------------------------------------
    # the drain loop
    # ------------------------------------------------------------------
    def _terminate_all(self, *, timeout_s: float = 5.0) -> None:
        for slot in self.workers:
            if slot.process is not None and slot.process.poll() is None:
                slot.process.terminate()
        deadline = time.monotonic() + timeout_s
        for slot in self.workers:
            if slot.process is None:
                continue
            remaining = max(0.0, deadline - time.monotonic())
            try:
                slot.process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                slot.process.kill()
                slot.process.wait()

    def run(self) -> dict[str, int]:
        """Drain the campaign with the fleet; returns final counts.

        Returns once every job is terminal (DONE/FAILED).  Launchers
        normally exit 0 on their own when they see the queue empty; any
        straggler is SIGTERMed (finish the in-flight job, then exit).
        Raises :class:`CampaignError` if every launcher slot is
        tombstoned or retired while jobs remain — the fleet cannot make
        progress and the operator must intervene (``--resume``).
        """
        self.workspace.mkdir(parents=True, exist_ok=True)
        self._check_placement_coverage()
        for slot in self.workers:
            self._spawn(slot)
        self._gauge_alive()
        last_watch = 0.0
        try:
            while True:
                self.tick()
                if self.killer is not None:
                    self.killer.on_frame(self.store.counts(self.campaign_id)["DONE"])
                if self.watch is not None:
                    now = time.monotonic()
                    if now - last_watch >= self.watch_interval_s:
                        last_watch = now
                        self.watch(
                            render_fleet_view(self.store, self.campaign_id)
                        )
                if self.store.active_count(self.campaign_id) == 0:
                    break
                if not any(
                    slot.alive
                    or (
                        not slot.done
                        and not slot.supervision.crash_looped
                        and slot.process is not None
                    )
                    for slot in self.workers
                ):
                    raise CampaignError(
                        f"campaign {self.campaign_id}: every launcher is "
                        "retired or crash-looping with "
                        f"{self.store.active_count(self.campaign_id)} job(s) "
                        "unfinished; resume manually"
                    )
                time.sleep(self.supervise_interval_s)
        finally:
            self._terminate_all()
            self._gauge_alive()
        return self.store.counts(self.campaign_id)
