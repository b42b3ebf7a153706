"""Columnar scan/aggregate queries over the knowledge store.

The analytics the ROADMAP demands ("percentile/CDF distributions per
sub-benchmark, cross-metric correlation matrices … at fleet scale")
cannot be computed by materialising one :class:`Knowledge` object per
row — a 100k-run store folded through ``load_all()`` is hundreds of
thousands of SQL round-trips and gigabytes of Python objects.  This
module is the columnar alternative: a :class:`ScanQuery` describes a
projection (one summary metric), filters (benchmark/api/operation
equality, node/task ranges, parameter equality), a group-by and the
aggregates wanted; the repository pushes all of that down into SQL and
only *aggregate states* come back up.

Aggregate states are **mergeable**: ``(n, total, total_sq, min, max)``
plus an optional log-bucketed :class:`PercentileSketch`.  Merging is
associative and order-insensitive for every field except the floating
``total``/``total_sq`` sums (associative up to float rounding), which
is what lets

* the repository evaluate one chunked ``IN (…)`` id filter as several
  SQL passes and merge,
* the sharded service evaluate per shard and merge,
* the networked server's shard-group workers each answer with partial
  states that the router merges — no knowledge objects ever cross the
  wire for an aggregate query.

A base-table scan with percentiles buckets down in SQL too: it groups by
sign and ``CAST(floor(ln(abs(v)) / ln(gamma)) AS INTEGER)``, the same
arithmetic as :meth:`PercentileSketch._bucket`, in one ``GROUP BY`` pass.

:func:`fold_scan` is the executable specification: the same query
evaluated as a plain Python fold over already-loaded knowledge
objects.  Tests (and ``repro-bench scan``) hold ``scan()`` to it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping, Sequence, TypeVar

from repro.util.errors import PersistenceError

__all__ = [
    "METRIC_COLUMNS",
    "GROUP_COLUMNS",
    "SQL_VARIABLE_CHUNK",
    "chunked",
    "escape_like",
    "PercentileSketch",
    "AggregateState",
    "ScanQuery",
    "summary_eligible",
    "ScanRow",
    "ScanResult",
    "merge_partial_payloads",
    "finalize_partials",
    "fold_scan",
]

T = TypeVar("T")

#: Summary metrics a scan may project (name -> summaries column).
METRIC_COLUMNS: Mapping[str, str] = {
    "bw_max": "bw_max",
    "bw_min": "bw_min",
    "bw_mean": "bw_mean",
    "bw_stddev": "bw_stddev",
    "ops_max": "ops_max",
    "ops_min": "ops_min",
    "ops_mean": "ops_mean",
    "ops_stddev": "ops_stddev",
    "iterations": "iterations",
}

#: Group-by dimensions (name -> SQL expression over the joined tables).
GROUP_COLUMNS: Mapping[str, str] = {
    "benchmark": "p.benchmark",
    "api": "p.api",
    "operation": "s.operation",
    "num_nodes": "p.num_nodes",
    "num_tasks": "p.num_tasks",
}

#: SQLite's default host-variable limit is 999 (SQLITE_MAX_VARIABLE_NUMBER);
#: ``IN (…)`` id lists are chunked well below it so fleet-sized fetches
#: never trip ``sqlite3.OperationalError: too many SQL variables``.
SQL_VARIABLE_CHUNK = 500

#: Log-bucket growth factor of the percentile sketch: every bucket spans
#: values within 2% of each other, bounding quantile error to ~1%.
SKETCH_GAMMA = 1.02
_LOG_GAMMA = math.log(SKETCH_GAMMA)


def chunked(items: Sequence[T], size: int = SQL_VARIABLE_CHUNK) -> Iterator[Sequence[T]]:
    """Yield ``items`` in slices of at most ``size`` elements."""
    if size < 1:
        raise ValueError(f"chunk size must be >= 1, got {size}")
    for start in range(0, len(items), size):
        yield items[start : start + size]


def escape_like(text: str, escape: str = "\\") -> str:
    """Escape ``%``/``_`` (and the escape char) for a ``LIKE … ESCAPE``.

    Without this a parameter value such as ``"100%"`` turns the LIKE
    prefilter into a near-full scan (``%`` matches anything) — every
    LIKE the persistence layer builds from user data goes through here.
    """
    return (
        text.replace(escape, escape + escape)
        .replace("%", escape + "%")
        .replace("_", escape + "_")
    )


# ----------------------------------------------------------------------
# percentile sketch
# ----------------------------------------------------------------------
class PercentileSketch:
    """Mergeable log-bucketed quantile sketch (DDSketch-style).

    Positive values land in bucket ``floor(ln(v)/ln(gamma))``, negative
    values in the mirrored bucket of their magnitude, zeros in their
    own counter.  A quantile is answered with the *geometric midpoint*
    of its bucket, so the relative error is bounded by ``gamma - 1``
    (2% here) and — crucially — the answer depends only on the bucket
    counts, never on insertion order.  Same data, any partitioning,
    any merge order: identical quantiles.
    """

    __slots__ = ("zeros", "pos", "neg")

    def __init__(self) -> None:
        self.zeros = 0
        self.pos: dict[int, int] = {}
        self.neg: dict[int, int] = {}

    @staticmethod
    def _bucket(magnitude: float) -> int:
        return math.floor(math.log(magnitude) / _LOG_GAMMA)

    @staticmethod
    def _midpoint(bucket: int) -> float:
        low = SKETCH_GAMMA**bucket
        return low * (1.0 + SKETCH_GAMMA) / 2.0

    def add(self, value: float, count: int = 1) -> None:
        """Record ``count`` observations of ``value``."""
        if value == 0:
            self.zeros += count
        elif value > 0:
            bucket = self._bucket(value)
            self.pos[bucket] = self.pos.get(bucket, 0) + count
        else:
            bucket = self._bucket(-value)
            self.neg[bucket] = self.neg.get(bucket, 0) + count

    def add_bucket(self, sign: int, bucket: int | None, count: int) -> None:
        """Record ``count`` observations bucketed by SQL: ``sign`` is
        -1, 0 or 1 and ``bucket`` the :meth:`_bucket` of the magnitude."""
        if sign == 0:
            self.zeros += count
        else:
            counts = self.pos if sign > 0 else self.neg
            counts[bucket] = counts.get(bucket, 0) + count  # type: ignore[index]

    def merge(self, other: "PercentileSketch") -> None:
        """Fold another sketch's buckets into this one."""
        self.zeros += other.zeros
        for bucket, count in other.pos.items():
            self.pos[bucket] = self.pos.get(bucket, 0) + count
        for bucket, count in other.neg.items():
            self.neg[bucket] = self.neg.get(bucket, 0) + count

    @property
    def count(self) -> int:
        """Total observations recorded."""
        return self.zeros + sum(self.pos.values()) + sum(self.neg.values())

    def quantile(self, q: float) -> float:
        """The value at quantile ``q`` in [0, 1] (nearest-rank)."""
        if not 0.0 <= q <= 1.0:
            raise PersistenceError(f"quantile must be in [0, 1], got {q}")
        total = self.count
        if total == 0:
            raise PersistenceError("cannot take a quantile of an empty sketch")
        rank = min(total - 1, int(q * (total - 1) + 0.5))
        # Ascending value order: most-negative first, then zeros, then
        # positives — negative buckets descend as magnitude grows.
        seen = 0
        for bucket in sorted(self.neg, reverse=True):
            seen += self.neg[bucket]
            if rank < seen:
                return -self._midpoint(bucket)
        seen += self.zeros
        if rank < seen:
            return 0.0
        for bucket in sorted(self.pos):
            seen += self.pos[bucket]
            if rank < seen:
                return self._midpoint(bucket)
        raise AssertionError("rank outside sketch")  # pragma: no cover

    # -- JSON-safe round-trip (wire + partial-aggregate payloads) ------
    def to_payload(self) -> dict[str, object]:
        """JSON-safe form (bucket keys become strings)."""
        return {
            "zeros": self.zeros,
            "pos": {str(k): v for k, v in self.pos.items()},
            "neg": {str(k): v for k, v in self.neg.items()},
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "PercentileSketch":
        """Rebuild a sketch from :meth:`to_payload` output."""
        sketch = cls()
        sketch.zeros = int(payload.get("zeros", 0))
        sketch.pos = {int(k): int(v) for k, v in dict(payload.get("pos") or {}).items()}
        sketch.neg = {int(k): int(v) for k, v in dict(payload.get("neg") or {}).items()}
        return sketch


# ----------------------------------------------------------------------
# aggregate state
# ----------------------------------------------------------------------
@dataclass(slots=True)
class AggregateState:
    """The mergeable partial state of one group's aggregates."""

    n: int = 0
    total: float = 0.0
    total_sq: float = 0.0
    vmin: float = math.inf
    vmax: float = -math.inf
    sketch: PercentileSketch | None = None

    def add(self, value: float) -> None:
        """Fold one observation in (the pure-Python evaluation path)."""
        value = float(value)
        self.n += 1
        self.total += value
        self.total_sq += value * value
        self.vmin = min(self.vmin, value)
        self.vmax = max(self.vmax, value)
        if self.sketch is not None:
            self.sketch.add(value)

    def merge(self, other: "AggregateState") -> None:
        """Fold another partial state in (chunk/shard/worker merge)."""
        self.n += other.n
        self.total += other.total
        self.total_sq += other.total_sq
        self.vmin = min(self.vmin, other.vmin)
        self.vmax = max(self.vmax, other.vmax)
        if other.sketch is not None:
            if self.sketch is None:
                self.sketch = PercentileSketch()
            self.sketch.merge(other.sketch)

    def finalize(self, percentiles: Sequence[float] = ()) -> dict[str, float]:
        """Resolve the state into the aggregate values of one scan row.

        ``stddev`` is the population deviation (divide by N), matching
        :func:`repro.util.stats.summarize`; percentiles come from the
        sketch and carry its ~1% relative-error contract.
        """
        if self.n == 0:
            raise PersistenceError("cannot finalize an empty aggregate state")
        mean = self.total / self.n
        variance = max(0.0, self.total_sq / self.n - mean * mean)
        out: dict[str, float] = {
            "count": self.n,
            "min": self.vmin,
            "max": self.vmax,
            "mean": mean,
            "stddev": math.sqrt(variance),
        }
        if percentiles:
            if self.sketch is None:
                raise PersistenceError(
                    "scan asked for percentiles but no sketch was built"
                )
            for q in percentiles:
                out[_percentile_name(q)] = self.sketch.quantile(q / 100.0)
        return out

    def to_payload(self) -> dict[str, object]:
        """JSON-safe partial-aggregate form (wire and worker merges)."""
        payload: dict[str, object] = {
            "n": self.n,
            "total": self.total,
            "total_sq": self.total_sq,
            "min": self.vmin if math.isfinite(self.vmin) else None,
            "max": self.vmax if math.isfinite(self.vmax) else None,
        }
        if self.sketch is not None:
            payload["sketch"] = self.sketch.to_payload()
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "AggregateState":
        """Rebuild a partial state from :meth:`to_payload` output."""
        raw_min = payload.get("min")
        raw_max = payload.get("max")
        sketch_payload = payload.get("sketch")
        return cls(
            n=int(payload["n"]),  # type: ignore[arg-type]
            total=float(payload["total"]),  # type: ignore[arg-type]
            total_sq=float(payload["total_sq"]),  # type: ignore[arg-type]
            vmin=math.inf if raw_min is None else float(raw_min),  # type: ignore[arg-type]
            vmax=-math.inf if raw_max is None else float(raw_max),  # type: ignore[arg-type]
            sketch=(
                PercentileSketch.from_payload(sketch_payload)  # type: ignore[arg-type]
                if isinstance(sketch_payload, Mapping)
                else None
            ),
        )


def _percentile_name(q: float) -> str:
    """``50 -> "p50"``, ``99.9 -> "p99.9"`` — stable row-key names."""
    return f"p{q:g}"


# ----------------------------------------------------------------------
# the query
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class ScanQuery:
    """One columnar aggregate query over the knowledge store.

    ``metric`` names the projected summaries column; equality filters
    (``benchmark``/``api``/``operation``), inclusive ranges
    (``num_nodes_min``…``num_tasks_max``) and one parameter-equality
    filter narrow the rows; ``group_by`` splits the aggregates by any
    subset of :data:`GROUP_COLUMNS`; ``percentiles`` asks for sketch
    quantiles (values in (0, 100)) on top of the five standard
    aggregates.
    """

    metric: str = "bw_mean"
    benchmark: str | None = None
    api: str | None = None
    operation: str | None = None
    num_nodes_min: int | None = None
    num_nodes_max: int | None = None
    num_tasks_min: int | None = None
    num_tasks_max: int | None = None
    parameter: tuple[str, str] | None = None
    group_by: tuple[str, ...] = ()
    percentiles: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.metric not in METRIC_COLUMNS:
            raise PersistenceError(
                f"unknown scan metric {self.metric!r}; "
                f"known: {sorted(METRIC_COLUMNS)}"
            )
        for dim in self.group_by:
            if dim not in GROUP_COLUMNS:
                raise PersistenceError(
                    f"unknown scan group-by dimension {dim!r}; "
                    f"known: {sorted(GROUP_COLUMNS)}"
                )
        if len(set(self.group_by)) != len(self.group_by):
            raise PersistenceError(f"duplicate group-by dimensions: {self.group_by}")
        for q in self.percentiles:
            if not 0.0 < q < 100.0:
                raise PersistenceError(
                    f"percentiles must be in (0, 100), got {q}"
                )
        if self.parameter is not None and len(self.parameter) != 2:
            raise PersistenceError("parameter filter must be a (key, value) pair")

    # -- wire round-trip ----------------------------------------------
    def to_payload(self) -> dict[str, object]:
        """JSON-safe form for the ``scan`` wire op."""
        return {
            "metric": self.metric,
            "benchmark": self.benchmark,
            "api": self.api,
            "operation": self.operation,
            "num_nodes_min": self.num_nodes_min,
            "num_nodes_max": self.num_nodes_max,
            "num_tasks_min": self.num_tasks_min,
            "num_tasks_max": self.num_tasks_max,
            "parameter": list(self.parameter) if self.parameter else None,
            "group_by": list(self.group_by),
            "percentiles": list(self.percentiles),
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "ScanQuery":
        """Rebuild (and re-validate) a query from :meth:`to_payload`."""
        parameter = payload.get("parameter")

        def _opt_int(name: str) -> int | None:
            value = payload.get(name)
            return None if value is None else int(value)  # type: ignore[arg-type]

        def _opt_str(name: str) -> str | None:
            value = payload.get(name)
            return None if value is None else str(value)

        return cls(
            metric=str(payload.get("metric", "bw_mean")),
            benchmark=_opt_str("benchmark"),
            api=_opt_str("api"),
            operation=_opt_str("operation"),
            num_nodes_min=_opt_int("num_nodes_min"),
            num_nodes_max=_opt_int("num_nodes_max"),
            num_tasks_min=_opt_int("num_tasks_min"),
            num_tasks_max=_opt_int("num_tasks_max"),
            parameter=(
                (str(parameter[0]), str(parameter[1]))  # type: ignore[index]
                if parameter
                else None
            ),
            group_by=tuple(str(d) for d in payload.get("group_by") or ()),  # type: ignore[union-attr]
            percentiles=tuple(float(q) for q in payload.get("percentiles") or ()),  # type: ignore[union-attr]
        )

    def without_parameter(self) -> "ScanQuery":
        """This query minus its parameter filter (applied as an id set)."""
        return replace(self, parameter=None)

    @property
    def wants_sketch(self) -> bool:
        """Whether evaluating this query must build percentile sketches."""
        return bool(self.percentiles)


def summary_eligible(query: ScanQuery) -> bool:
    """Whether the pre-aggregated ``agg_summaries`` table alone answers ``query``.

    A pure function of the query: no percentiles, no parameter or
    node/task range filter, and groups drawn only from
    benchmark/api/operation.  Every shard decides the same way, so a
    client can name the evaluation path of a merged service scan.
    """
    return (
        not query.percentiles
        and query.parameter is None
        and query.num_nodes_min is None
        and query.num_nodes_max is None
        and query.num_tasks_min is None
        and query.num_tasks_max is None
        and set(query.group_by) <= {"benchmark", "api", "operation"}
    )


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class ScanRow:
    """One group's finalized aggregates."""

    group: dict[str, object]
    values: dict[str, float]


@dataclass(frozen=True, slots=True)
class ScanResult:
    """All groups of one scan, in stable group-key order.

    ``source`` records which evaluation path answered: ``summary-table``
    (the pre-aggregated ingest tables) or ``base-tables`` (SQL pushdown
    over summaries/performances) — for a service scan too, whose merged
    shard/worker partials all took the path :func:`summary_eligible`
    picks — or ``fold`` (the pure-Python reference).
    """

    query: ScanQuery
    rows: tuple[ScanRow, ...]
    source: str = "base-tables"

    def single(self) -> dict[str, float]:
        """The aggregates of an ungrouped scan (exactly one row)."""
        if len(self.rows) != 1:
            raise PersistenceError(
                f"expected exactly one scan row, got {len(self.rows)} "
                "(did the query set group_by?)"
            )
        return dict(self.rows[0].values)


def group_key(values: Sequence[object]) -> str:
    """Canonical JSON key of one group (payload dict keys are strings)."""
    return json.dumps(list(values), sort_keys=False, default=str)


def merge_partial_payloads(parts: Iterable[Mapping[str, object]]) -> dict[str, object]:
    """Merge per-chunk / per-shard / per-worker partial payloads.

    Each part maps the canonical group key to an
    :meth:`AggregateState.to_payload` dict; the merge is group-wise
    state merging, so any nesting of merges yields the same result.
    """
    merged: dict[str, AggregateState] = {}
    for part in parts:
        for key, payload in part.items():
            state = AggregateState.from_payload(payload)  # type: ignore[arg-type]
            if key in merged:
                merged[key].merge(state)
            else:
                merged[key] = state
    return {key: state.to_payload() for key, state in merged.items()}


def finalize_partials(
    query: ScanQuery, partials: Mapping[str, object], *, source: str
) -> ScanResult:
    """Resolve merged partial states into a :class:`ScanResult`."""
    rows = []
    for key in sorted(partials, key=_key_sort):
        state = AggregateState.from_payload(partials[key])  # type: ignore[arg-type]
        group_values = json.loads(key)
        rows.append(
            ScanRow(
                group=dict(zip(query.group_by, group_values)),
                values=state.finalize(query.percentiles),
            )
        )
    return ScanResult(query=query, rows=tuple(rows), source=source)


def _key_sort(key: str) -> tuple:
    """Sort group keys by their decoded values (mixed-type safe)."""
    return tuple((str(type(v)), v if isinstance(v, (int, float)) else str(v))
                 for v in json.loads(key))


# ----------------------------------------------------------------------
# the executable specification
# ----------------------------------------------------------------------
def fold_scan(query: ScanQuery, objects: Iterable) -> ScanResult:
    """Evaluate ``query`` as a plain fold over knowledge objects.

    This is the row-loop the scan API replaces — kept as the reference
    implementation so tests and ``repro-bench scan`` can hold the SQL
    pushdown to it value-for-value.  Accepts any iterable of
    :class:`~repro.core.knowledge.Knowledge`.
    """
    groups: dict[str, AggregateState] = {}
    for knowledge in objects:
        if query.benchmark is not None and knowledge.benchmark != query.benchmark:
            continue
        if query.api is not None and knowledge.api != query.api:
            continue
        if query.num_nodes_min is not None and knowledge.num_nodes < query.num_nodes_min:
            continue
        if query.num_nodes_max is not None and knowledge.num_nodes > query.num_nodes_max:
            continue
        if query.num_tasks_min is not None and knowledge.num_tasks < query.num_tasks_min:
            continue
        if query.num_tasks_max is not None and knowledge.num_tasks > query.num_tasks_max:
            continue
        if query.parameter is not None:
            key, value = query.parameter
            if knowledge.parameters.get(key) != value:
                continue
        for summary in knowledge.summaries:
            if query.operation is not None and summary.operation != query.operation:
                continue
            dims = []
            for dim in query.group_by:
                if dim == "operation":
                    dims.append(summary.operation)
                else:
                    dims.append(getattr(knowledge, dim))
            key_text = group_key(dims)
            state = groups.get(key_text)
            if state is None:
                state = AggregateState(
                    sketch=PercentileSketch() if query.wants_sketch else None
                )
                groups[key_text] = state
            state.add(getattr(summary, query.metric))
    partials = {key: state.to_payload() for key, state in groups.items()}
    return finalize_partials(query, partials, source="fold")
