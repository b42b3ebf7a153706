"""Metadata server model.

Creates, stats, opens and removals are served by metadata servers with
a finite operation rate.  The rate saturates with client concurrency
and collapses when many clients hammer a single shared directory —
the effect that separates mdtest-easy from mdtest-hard in IO500.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.util.errors import ConfigurationError

__all__ = ["MetadataSpec", "MetadataServer"]


@dataclass(frozen=True, slots=True)
class MetadataSpec:
    """Static capability of one metadata server."""

    base_rate_ops: float = 35_000.0  # creates/s with moderate concurrency
    stat_speedup: float = 2.5  # stats are cheaper than creates
    remove_factor: float = 0.8  # removals slightly cheaper than creates
    shared_dir_factor: float = 0.35  # many clients in one directory
    concurrency_half: float = 4.0  # procs at which rate reaches 50% of max

    def __post_init__(self) -> None:
        if self.base_rate_ops <= 0:
            raise ConfigurationError("metadata base rate must be positive")
        if not 0 < self.shared_dir_factor <= 1:
            raise ConfigurationError("shared_dir_factor must be in (0, 1]")
        if self.concurrency_half <= 0:
            raise ConfigurationError("concurrency_half must be positive")

    def aggregate_rate(self, op: str, active_procs: int, shared_dir: bool = False) -> float:
        """Ops/s the server sustains for ``op`` under the given load.

        The rate ramps up with client concurrency (a single client
        cannot keep the server busy) and saturates at ``base_rate_ops``
        scaled per operation type.
        """
        if active_procs <= 0:
            raise ConfigurationError(f"active_procs must be >= 1, got {active_procs}")
        ramp = active_procs / (active_procs + self.concurrency_half)
        rate = self.base_rate_ops * ramp
        if op == "stat":
            rate *= self.stat_speedup
        elif op == "remove":
            rate *= self.remove_factor
        elif op not in ("create", "open", "mkdir"):
            raise ConfigurationError(f"unknown metadata op {op!r}")
        if shared_dir and op != "stat":
            rate *= self.shared_dir_factor
        return rate


class MetadataServer:
    """A metadata server instance; also allocates BeeGFS-style entry IDs."""

    def __init__(self, name: str, spec: MetadataSpec | None = None, node_id: int = 1) -> None:
        self.name = name
        self.node_id = node_id
        self.spec = spec or MetadataSpec()
        self._entry_counter = itertools.count(1)
        self.health = 1.0

    def next_entry_ids(self, count: int) -> list[str]:
        """Allocate ``count`` consecutive EntryIDs shaped like BeeGFS ones (``N-HEX-M``)."""
        node = self.node_id
        return [f"{n % 16:X}-{0x63A2B400 + n:08X}-{node}"
                for n in itertools.islice(self._entry_counter, count)]

    def op_cost_s(self, op: str, active_procs: int, shared_dir: bool = False) -> float:
        """Wall time one client spends on ``op`` under the given load.

        With ``p`` clients issuing ops concurrently against an
        aggregate rate ``R``, each client completes ops at ``R / p``
        per second, so one op costs ``p / R`` seconds.
        """
        rate = self.spec.aggregate_rate(op, active_procs, shared_dir) * self.health
        return active_procs / rate
