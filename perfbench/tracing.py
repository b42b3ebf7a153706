"""Layer tracing installed from outside the program.

:class:`Tracer` wraps the public entry points of each layer (listed in
:data:`LAYER_TARGETS`) with span recorders and puts the originals back
on :meth:`Tracer.remove`, so ``src/`` carries no tracing code.  A span
is ``(id, parent, thread, name, layer, start, end)`` and stays in
memory until the pass ends.

Only threads that opted in with :meth:`Tracer.attach` record spans;
calls from any other thread (the in-process server's connection
threads, the embedded service's worker threads) pass straight through
and their cost shows up inside the caller's waiting span.  A call into
the layer that is already innermost on the same thread is counted but
opens no span, which keeps the hot namespace recursion cheap.

:func:`self_times` splits the traced window among layers: every instant
goes to the innermost open span of the working thread, so the layer
self times sum to the window's wall time exactly.  The wrapper's own
work lands in those self times too; :func:`calibrate` measures its cost
per call and :func:`wrapper_seconds` says how much of it each layer
holds, so that it can be taken out.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import sys
import threading
import time
from typing import Callable, Iterable

__all__ = [
    "LAYER_TARGETS", "UNATTRIBUTED", "Tracer", "calibrate", "self_times", "wrapper_seconds",
]

UNATTRIBUTED = "unattributed"

#: (module, attribute path, span name, layer).  The layer is a string or
#: a callable over the call's positional arguments.
LAYER_TARGETS: tuple[tuple[str, str, str, object], ...] = (
    *(
        ("repro.pfs.file", f"Namespace.{m}", "pfs.namespace", "pfs.namespace")
        for m in (
            "resolve", "exists", "lookup_dir", "lookup_file", "add",
            "remove_file", "remove_dir", "listdir", "walk_files", "count_entries",
        )
    ),
    ("repro.pfs.file", "split_path", "pfs.namespace", "pfs.namespace"),
    ("repro.pfs.file", "normalize_path", "pfs.normalize_path", "pfs.namespace"),
    *(
        ("repro.pfs.beegfs", f"BeeGFS.{m}", "pfs.namespace", "pfs.namespace")
        for m in ("mkdir", "makedirs", "create", "open", "stat", "unlink", "rmdir")
    ),
    *(
        ("repro.pfs.perfmodel", f"PerfModel.{m}", "pfs.perfmodel", "pfs.perfmodel")
        for m in (
            "transfer_time_s", "transfer_times_s", "metadata_time_s",
            "metadata_times_s", "per_rank_bandwidth_bps",
        )
    ),
    *(
        ("repro.iostack.posix", f"PosixLayer.{m}", "iostack", "iostack")
        for m in ("create", "open", "open_shared", "stat", "unlink", "mkdir")
    ),
    *(
        ("repro.iostack.posix", f"PosixFile.{m}", "iostack", "iostack")
        for m in ("write", "read", "io_many", "fsync", "close")
    ),
    *(
        ("repro.iostack.mpiio", f"MPIIOLayer.{m}", "iostack", "iostack")
        for m in ("open", "delete")
    ),
    *(
        ("repro.iostack.mpiio", f"MPIIOFile.{m}", "iostack", "iostack")
        for m in ("write_at", "read_at", "io_many", "sync", "close")
    ),
    ("repro.benchmarks_io.ior.runner", "run_ior", "benchmarks_io.run_ior", "benchmarks_io"),
    ("repro.benchmarks_io.mdtest", "run_mdtest", "benchmarks_io.run_mdtest", "benchmarks_io"),
    ("repro.benchmarks_io.io500.runner", "run_io500", "benchmarks_io.run_io500", "benchmarks_io"),
    ("repro.benchmarks_io.hacc_io", "run_hacc_io", "benchmarks_io.run_hacc_io", "benchmarks_io"),
    *(
        (module, fn, "benchmarks_io.render", "benchmarks_io.render")
        for module, fn in (
            ("repro.benchmarks_io.ior.output", "render_ior_output"),
            ("repro.benchmarks_io.mdtest", "render_mdtest_output"),
            ("repro.benchmarks_io.io500.output", "render_io500_output"),
        )
    ),
    ("repro.jube.xmlconfig", "load_benchmark", "jube.load_benchmark", "jube"),
    ("repro.jube.benchmark", "JubeBenchmark.run", "jube.run", "jube"),
    (
        "repro.core.extraction.workspace", "KnowledgeExtractor.extract",
        "extraction.extract", "extraction",
    ),
    ("repro.core.persistence.repository", "KnowledgeRepository.save", "persistence.save", "persistence"),
    ("repro.core.persistence.io500_repo", "IO500Repository.save", "persistence.save", "persistence"),
    ("repro.core.explorer.viewer", "KnowledgeViewer.render", "analysis.render", "analysis"),
    ("repro.core.explorer.comparison", "ComparisonView.table", "analysis.table", "analysis"),
    ("repro.core.explorer.io500_viewer", "IO500Viewer.render", "analysis.render", "analysis"),
    ("repro.core.registry", "ModuleRegistry.run", "usage.run", lambda args: f"usage.{args[1]}"),
    *(
        ("repro.core.campaign.store", f"CampaignStore.{m}", "campaign.store", "campaign.store")
        for m in ("acquire", "heartbeat", "complete", "mark_ready")
    ),
    ("repro.core.campaign.launcher", "Launcher._execute", "campaign.job", UNATTRIBUTED),
    # A layer of its own, so that the span opens under the traced window
    # and :func:`self_times` can tell the joining thread from its workers.
    ("repro.core.campaign.launcher", "Launcher.run", "campaign.drain", "campaign.drain"),
    *(
        ("repro.core.service.client", f"ServiceClient.{op}", f"service.client.{op}",
         f"service.client.{op}")
        for op in ("save_many", "load", "fetch_many", "scan")
    ),
    # Patched in the client's namespace only: the in-process router
    # shares the codec module and must stay untraced.
    ("repro.core.service.client", "encode_args", "service.codec", "service.codec"),
    ("repro.core.service.client", "decode_result", "service.codec", "service.codec"),
    ("repro.core.service.transport", "TcpTransport.call", "service.transport", "service.transport"),
    ("repro.core.service.ops", "LocalTransport.call", "service.transport", "service.transport"),
    ("repro.core.cycle", "KnowledgeCycle.run_cycle", "cycle.revolution", UNATTRIBUTED),
)

#: Functions whose every module-level alias is patched (they are
#: imported by name into other modules, e.g. ``jube.steps.run_ior``).
_ALIASED = frozenset(
    {
        "normalize_path", "split_path", "run_ior", "run_mdtest", "run_io500",
        "run_hacc_io", "render_ior_output", "render_mdtest_output",
        "render_io500_output", "load_benchmark",
    }
)


class _ThreadState:
    __slots__ = ("stack", "calls")

    def __init__(self) -> None:
        self.stack: list[tuple[int, str]] = []
        self.calls: dict[str, int] = {}


class Tracer:
    """Span recorder for one traced pass; install, run, then remove."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, str, float, float]] = []
        self.objects: dict[str, int] = {}
        self._threads: dict[int, _ThreadState] = {}
        self._detached_calls: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()

    # -- threads -------------------------------------------------------
    def attach(self) -> None:
        """Record spans for calls made on the current thread."""
        self._threads.setdefault(threading.get_ident(), _ThreadState())

    def attach_threads_of(self, cls: type, method: str) -> None:
        """Attach every thread whose body is ``cls.method`` (e.g. a worker loop)."""
        original = getattr(cls, method)
        tracer = self

        @functools.wraps(original)
        def attached(*args, **kwargs):
            tracer.attach()
            try:
                return original(*args, **kwargs)
            finally:
                tracer.detach()

        self._patch(cls, method, attached)

    def detach(self) -> None:
        """Stop recording on the current thread; its call counts are kept."""
        state = self._threads.pop(threading.get_ident(), None)
        if state is not None:
            with self._lock:
                _add_counts(self._detached_calls, state.calls)

    # -- spans -----------------------------------------------------------
    def wrap(self, fn: Callable, name: str, layer: object, *, count_result: str | None = None):
        """Return ``fn`` wrapped in a span recorder."""
        threads = self._threads
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter
        get_ident = threading.get_ident
        layer_of = layer if callable(layer) else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = get_ident()
            state = threads.get(tid)
            if state is None:
                return fn(*args, **kwargs)
            span_layer = layer_of(args) if layer_of is not None else layer
            calls = state.calls
            calls[name] = calls.get(name, 0) + 1
            key = span_layer + ".calls"
            calls[key] = calls.get(key, 0) + 1
            stack = state.stack
            if stack and stack[-1][1] == span_layer:
                return fn(*args, **kwargs)
            span_id = next(ids)
            stack.append((span_id, span_layer))
            parent = stack[-2][0] if len(stack) > 1 else 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, tid, name, span_layer, start, end))
            if count_result is not None:
                with tracer._lock:
                    tracer.objects[count_result] = (
                        tracer.objects.get(count_result, 0) + len(result)
                    )
            return result

        return traced

    # -- installation ----------------------------------------------------
    def install(self, targets: Iterable[tuple[str, str, str, object]] = LAYER_TARGETS) -> None:
        """Wrap every target; aliases of module functions are patched too."""
        for module_name, path, name, layer in targets:
            module = importlib.import_module(module_name)
            owner: object = module
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self.wrap(
                original, name, layer,
                count_result="extraction.objects" if name == "extraction.extract" else None,
            )
            if owners or attr not in _ALIASED:
                self._patch(owner, attr, wrapped)
                continue
            for other in list(sys.modules.values()):
                module_name_other = getattr(other, "__name__", "") or ""
                if module_name_other.startswith("repro") and getattr(
                    other, attr, None
                ) is original:
                    self._patch(other, attr, wrapped)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------
    def calls(self) -> dict[str, int]:
        """Call counts by span name and by ``<layer>.calls``, all threads."""
        total = dict(self._detached_calls)
        for state in list(self._threads.values()):
            _add_counts(total, state.calls)
        return total


def _add_counts(into: dict[str, int], counts: dict[str, int]) -> None:
    for key, value in counts.items():
        into[key] = into.get(key, 0) + value


def _noop(first: object, second: object) -> None:
    return None


def calibrate(rounds: int = 7, calls: int = 2000) -> tuple[float, float]:
    """Seconds the span wrapper adds to one call: ``(opening a span, nested)``.

    Measured on a throwaway tracer over a two-argument function that
    does nothing: the median over ``rounds`` batches of ``calls``
    wrapped calls, less the same batch unwrapped.  A nested call is one
    into the layer that is already innermost on its thread, which opens
    no span.
    """
    probe = Tracer()
    probe.attach()
    clock = time.perf_counter

    def batch(fn: Callable[[object, object], None]) -> float:
        start = clock()
        for _ in range(calls):
            fn(None, None)
        return clock() - start

    inner = probe.wrap(_noop, "calibrate", "calibrate")
    outer = probe.wrap(batch, "calibrate", "calibrate")
    span: list[float] = []
    nested: list[float] = []
    for _ in range(rounds):
        bare = batch(_noop)
        span.append((batch(inner) - bare) / calls)
        nested.append((outer(inner) - bare) / calls)
        probe.spans.clear()
    probe.detach()
    return max(0.0, statistics.median(span)), max(0.0, statistics.median(nested))


def wrapper_seconds(
    spans: list[tuple[int, int, int, str, str, float, float]],
    calls: dict[str, int],
    costs: tuple[float, float],
) -> dict[str, float]:
    """Seconds of wrapper work that :func:`self_times` gives each layer.

    A nested call runs the whole wrapper inside its own layer's span.
    A call that opens a span runs the wrapper just before the span
    starts and just after it ends, so inside its parent's layer.  A
    thread's outermost spans have no parent on that thread; their
    wrapper time goes to :data:`UNATTRIBUTED`, where the caller also
    counts the root that holds those instants (``campaign.drain``).
    """
    span_cost, nested_cost = costs
    layer_of = {span[0]: span[4] for span in spans}
    opened: dict[str, int] = {}
    cost: dict[str, float] = {}
    for span in spans:
        opened[span[4]] = opened.get(span[4], 0) + 1
        parent = layer_of.get(span[1], UNATTRIBUTED)
        cost[parent] = cost.get(parent, 0.0) + span_cost
    for layer, count in opened.items():
        nested = calls.get(layer + ".calls", 0) - count
        cost[layer] = cost.get(layer, 0.0) + nested * nested_cost
    return cost


def self_times(
    spans: list[tuple[int, int, int, str, str, float, float]],
    *,
    waiting: frozenset[str] = frozenset(),
) -> dict[str, float]:
    """Self seconds per layer over the instants that some span covers.

    Each instant goes to the innermost open span of the thread working
    at that instant.  A span of a layer named in ``waiting`` (a thread
    that only joins others) holds the instant only while no other
    thread works.  At most one traced thread works at once (one launcher
    worker, whose caller joins it), so the values sum to the wall time
    the spans cover.
    """
    # Ties: closes before opens, children close before their parents
    # and open after them (span ids grow in opening order).
    events: list[tuple[float, int, int, int]] = []
    for index, span in enumerate(spans):
        if span[6] > span[5]:
            events.append((span[5], 1, span[0], index))
            events.append((span[6], 0, -span[0], index))
    events.sort()
    stacks: dict[int, list[int]] = {}
    totals: dict[str, float] = {}
    previous: float | None = None
    for when, opening, _, index in events:
        if previous is not None and when > previous:
            tops = [stack[-1] for stack in stacks.values() if stack]
            if tops:
                top = next((i for i in tops if spans[i][4] not in waiting), tops[0])
                layer = spans[top][4]
                totals[layer] = totals.get(layer, 0.0) + (when - previous)
        previous = when
        stack = stacks.setdefault(spans[index][2], [])
        if opening:
            stack.append(index)
        elif stack and stack[-1] == index:
            stack.pop()
        elif index in stack:
            stack.remove(index)
    return totals
