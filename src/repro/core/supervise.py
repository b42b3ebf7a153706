"""Process supervision shared by every supervisor.

The knowledge server's :class:`~repro.core.service.server.
WorkerSupervisor` and the campaign fleet's
:class:`~repro.core.campaign.fleet.coordinator.LauncherFleet` both
supervise a row of child processes, and both call the one dead-child
step, :meth:`SupervisedSlot.respawn_dead`: a dead child is respawned
under an exponential-backoff budget, and one that keeps dying inside a
sliding window is left to its supervisor's tombstone instead of
burning CPU on a group that cannot stay up.  Each supervisor keeps
only what differs: how it spawns, its metric names, its tombstone (a
``CrashLoopedHandle`` in the server's router, an empty fleet slot),
and the fleet's retiring of a launcher that exited cleanly.  The
policy knobs (threshold, window, backoff) stay with each supervisor.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.util.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.core.resilience import RetryPolicy

__all__ = ["SupervisedSlot"]


class SupervisedSlot:
    """Per-child supervision state (touched only by its supervisor)."""

    __slots__ = (
        "attempt", "next_attempt_at", "respawn_times", "unhealthy_since",
        "respawns", "last_heal_at", "crash_looped", "probe_failures",
    )

    def __init__(self) -> None:
        self.attempt = 0  # consecutive failed respawn attempts
        self.next_attempt_at = 0.0  # monotonic time the next respawn is due
        self.respawn_times: deque[float] = deque()  # crash-loop window
        self.unhealthy_since: float | None = None  # first unhealthy sighting
        self.respawns = 0  # successful respawns over the slot's lifetime
        self.last_heal_at: float | None = None
        self.crash_looped = False
        self.probe_failures = 0  # consecutive failed heal probes

    def respawn_dead(
        self,
        clock: Callable[[], float],
        spawn: Callable[[], object],
        *,
        policy: "RetryPolicy",
        window_s: float,
        threshold: int,
    ) -> float | None:
        """One supervision step for a dead child.

        Returns the seconds the slot was unhealthy when ``spawn``
        succeeded, else ``None``: still inside the backoff gate, a
        failed spawn (``OSError`` from the fork, or a ``ReproError`` such
        as a failed startup handshake; the next attempt is due after the
        ``policy``'s delay for this attempt), or a crash loop — more
        than ``threshold`` attempts inside ``window_s`` — which sets
        :attr:`crash_looped` and leaves the tombstone to the caller.
        """
        now = clock()
        if self.unhealthy_since is None:
            self.unhealthy_since = now
        if now < self.next_attempt_at:
            return None  # respawn budget: back off between attempts
        self.respawn_times.append(now)
        while now - self.respawn_times[0] > window_s:
            self.respawn_times.popleft()
        if len(self.respawn_times) > threshold:
            self.crash_looped = True
            return None
        self.attempt += 1
        try:
            spawn()
        except (OSError, ReproError):
            delay = policy.delay_s(min(self.attempt, policy.max_attempts - 1) or 1)
            self.next_attempt_at = clock() + delay
            return None
        self.attempt = 0
        self.next_attempt_at = 0.0
        self.probe_failures = 0
        self.respawns += 1
        return self.healed(clock())

    def healed(self, now: float) -> float | None:
        """Mark the slot healthy; returns the unhealthy duration if any."""
        duration = (
            now - self.unhealthy_since if self.unhealthy_since is not None else None
        )
        self.unhealthy_since = None
        self.last_heal_at = now
        return duration
