"""The benchmark's three workloads: seeded inputs, set-up, passes, checks.

Every input comes from the ``--seed`` argument: the JUBE XML of the
cycles, the campaign specs, the preloaded knowledge rows, and the ids
and scan queries of the read mix.  The seed moves values and names but
never the amount of work, so two seeds cost the same.

A workload object owns one set-up (temp directory, testbed, stores,
server) and runs closed-loop passes on it: one caller waits for each
reply.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import random
import shutil
import sqlite3
import statistics
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.bench.scan_bench import scan_results_match
from repro.core.campaign.launcher import TOKEN_PARAMETER, TOTAL_PARAMETER, Launcher
from repro.core.campaign.spec import CampaignSpec
from repro.core.campaign.store import CampaignStore
from repro.core.cycle import KnowledgeCycle
from repro.core.knowledge import Knowledge, KnowledgeResult, KnowledgeSummary
from repro.core.persistence.database import KnowledgeDatabase
from repro.core.persistence.scan import METRIC_COLUMNS, ScanQuery, fold_scan
from repro.core.pipeline import FailurePolicy
from repro.core.service.client import ServiceClient
from repro.core.service.server import KnowledgeServer
from repro.iostack.stack import Testbed
from repro.util.rng import derive_seed

__all__ = [
    "PROBE_REFERENCE_S", "SHARDS", "SIZES", "TINY_SIZES", "WORKLOADS", "WRITE_SHARE",
    "Sizes", "Tally", "check_scans", "make_workload", "median", "probe_s", "run_reads",
]

#: Shards of every knowledge store (embedded and server).
SHARDS = 4
#: Share of ``--seconds`` for the write units; the read rounds get the rest.
WRITE_SHARE = 0.6


@dataclass(frozen=True)
class Sizes:
    """Workload sizes; :data:`SIZES` is the benchmark, :data:`TINY_SIZES` the smoke test."""

    rows: int = 2000  # knowledge rows preloaded into the read store
    save_batch: int = 250  # rows per preload save_many call
    setups: int = 5  # set-ups per run; setup_s is their median
    loads_per_round: int = 25
    fetches_per_round: int = 2
    fetch_batch: int = 32
    # (nodes, tasks per node) of a revolution.  IOR+HACC runs at 4x20 so
    # that simulation, not the host's file-system calls, is most of its
    # time; IO500 runs at 2x10.
    geometry: dict[str, tuple[int, int]] = field(
        default_factory=lambda: {"cycle-ior-hacc": (4, 20), "cycle-io500": (2, 10)}
    )
    hacc_particles: int = 100_000
    trace_revolutions: dict[str, int] = field(
        default_factory=lambda: {"cycle-ior-hacc": 8, "cycle-io500": 4}
    )
    trace_campaigns: int = 4
    trace_read_rounds: int = 16
    ior_sizes: tuple[str, ...] = ("64k", "256k", "1m", "2m", "4m")
    mdtest_items: tuple[str, ...] = ("200", "400")
    campaign_tasks: str = "4,8"  # tasks per node of the campaign jobs


SIZES = Sizes()
TINY_SIZES = Sizes(
    rows=60, save_batch=25, setups=2, loads_per_round=3, fetches_per_round=1, fetch_batch=4,
    geometry={"cycle-ior-hacc": (2, 2), "cycle-io500": (2, 2)}, hacc_particles=1000,
    trace_revolutions={"cycle-ior-hacc": 1, "cycle-io500": 1}, trace_campaigns=2,
    trace_read_rounds=1,
    ior_sizes=("1m",), mdtest_items=("5",), campaign_tasks="2",
)

WORKLOADS = ("cycle-ior-hacc", "cycle-io500", "campaign-tcp")


#: The probe's median time on an idle core of the 2-core development host.
PROBE_REFERENCE_S = 1.0e-3


def probe_s() -> float:
    """Median seconds of three runs of a fixed probe that calls no repro code.

    The probe does Python string, list and dict work and fills an
    in-memory SQLite table: the kinds of work the program does, so a
    busy host slows it about as much as it slows the workloads.  The
    program's own changes never move it.
    """
    times = []
    for _ in range(3):
        start = time.perf_counter()
        conn = sqlite3.connect(":memory:")
        conn.execute("CREATE TABLE t (k TEXT PRIMARY KEY, v INTEGER)")
        names: dict[str, int] = {}
        rows = []
        for i in range(300):
            parts = [p for p in f"/scratch/a{i % 7}/b{i % 13}/c{i}".split("/") if p]
            names[parts[-1]] = len(parts)
            rows.append(("/".join(parts), i))
        conn.executemany("INSERT INTO t VALUES (?, ?)", rows)
        conn.execute("SELECT SUM(v) FROM t WHERE k LIKE 'scratch/a1%'").fetchone()
        conn.close()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


@dataclass
class Tally:
    """Attempts, failures and the latency samples of one pass.

    Samples wait in ``pending`` until :meth:`settle` scales them by the
    host speed measured around the work that produced them.
    """

    attempted: int = 0
    failed: int = 0
    checks: int = 0
    misses: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    raw: dict[str, list[float]] = field(default_factory=dict)
    pending: list[tuple[str, float]] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)

    def sample(self, kind: str, seconds: float) -> None:
        self.pending.append((kind, seconds))

    def settle(self, scale: float) -> None:
        """Keep the pending samples, raw and multiplied by ``scale``."""
        for kind, seconds in self.pending:
            self.samples.setdefault(kind, []).append(seconds * scale)
            self.raw.setdefault(kind, []).append(seconds)
        self.pending.clear()

    def check(self, ok: bool, what: str) -> None:
        """Count one correctness check; ``what`` says what failed."""
        self.attempted += 1
        self.checks += 1
        if not ok:
            self.failed += 1
            self.misses.append(what)


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------
def _tag(seed: int, *key: object) -> str:
    return f"pb{derive_seed(seed, 'perfbench', 'tag', *key) % 10**8:08d}"


def cycle_xml(kind: str, seed: int, sizes: Sizes) -> str:
    """JUBE XML of one revolution: an IOR+HACC sweep or one IO500 suite."""
    tag = _tag(seed, kind)
    nodes, tasks_per_node = sizes.geometry[kind]
    geometry = (
        f'<parameter name="nodes">{nodes}</parameter>'
        f'<parameter name="taskspernode">{tasks_per_node}</parameter>'
    )
    if kind == "cycle-io500":
        body = (
            f'<parameterset name="io500">{geometry}'
            f'<parameter name="workdir">/scratch/{tag}/io500</parameter></parameterset>'
            '<step name="io500" work="io500"><use>io500</use></step>'
        )
    else:
        order = list(sizes.ior_sizes)
        random.Random(derive_seed(seed, "perfbench", "ior-order")).shuffle(order)
        body = (
            f'<parameterset name="ior">{geometry}'
            f'<parameter name="transfersize">{",".join(order)}</parameter>'
            '<parameter name="command">ior -a mpiio -b 4m -t $transfersize -s 4 -F -e '
            f"-i 2 -o /scratch/{tag}/ior/test -k</parameter></parameterset>"
            f'<parameterset name="hacc">{geometry}'
            '<parameter name="mode">single-shared-file,file-per-process</parameter>'
            f'<parameter name="particles">{sizes.hacc_particles}</parameter>'
            f'<parameter name="out_file">/scratch/{tag}/hacc/checkpoint</parameter>'
            "</parameterset>"
            '<step name="ior" work="ior"><use>ior</use></step>'
            '<step name="hacc" work="hacc"><use>hacc</use></step>'
        )
    return f'<jube><benchmark name="{tag}" outpath="bench_run">{body}</benchmark></jube>'


def expected_objects(kind: str, sizes: Sizes) -> tuple[int, int]:
    """(benchmark knowledge, IO500 knowledge) one revolution must extract."""
    return (0, 1) if kind == "cycle-io500" else (len(sizes.ior_sizes) + 2, 0)


def preload_rows(seed: int, sizes: Sizes) -> list[Knowledge]:
    """The read store's rows: spread evenly over benchmark, api and 5 node counts."""
    rng = random.Random(derive_seed(seed, "perfbench", "rows"))
    rows = []
    for i in range(sizes.rows):
        benchmark = ("ior", "mdtest", "hacc")[i % 3]
        api = ("POSIX", "MPIIO")[i % 2]
        bw = 300.0 + 600.0 * rng.random()
        ops = 2000.0 + 3000.0 * rng.random()
        rows.append(
            Knowledge(
                benchmark,
                command=f"{benchmark} -b 16m -t 1m",
                api=api,
                num_nodes=1 << (i % 5),
                num_tasks=8 * (1 + i % 4),
                parameters={"row": i, "xfersize_bytes": 1 << (16 + i % 7)},
                summaries=[
                    KnowledgeSummary(
                        operation=operation, api=api,
                        bw_max=bw * 1.05, bw_min=bw * 0.95, bw_mean=bw,
                        bw_stddev=bw * 0.02 * rng.random(),
                        ops_max=ops * 1.05, ops_min=ops * 0.95, ops_mean=ops,
                        ops_stddev=ops * 0.02 * rng.random(), iterations=3,
                        results=[
                            KnowledgeResult(
                                iteration=it, bandwidth_mib=bw * (0.97 + 0.06 * rng.random()),
                                iops=ops,
                            )
                            for it in range(3)
                        ],
                    )
                    for operation in ("write", "read")
                ],
                system={"hostname": f"node{i % 16:02d}"},
            )
        )
    return rows


def _summary_queries() -> list[ScanQuery]:
    return [
        ScanQuery(metric=metric, benchmark=benchmark, api=api, group_by=group_by)
        for metric, benchmark, api, group_by in itertools.product(
            METRIC_COLUMNS, (None, "ior", "mdtest", "hacc"), (None, "POSIX", "MPIIO"),
            (("benchmark", "operation"), ("benchmark", "api", "operation"),
             ("operation",), ("api",)),
        )
    ]


_SUMMARY_QUERIES = _summary_queries()
_NODE_WINDOWS = ((1, 4), (2, 8), (4, 16))


def read_round(seed: int, index: int, ids: list[int], sizes: Sizes) -> list[tuple[str, object]]:
    """Read-mix round ``index``: loads, fetch_many batches and one scan of each shape.

    The summary-shape scan (grouped by benchmark/api/operation, no
    percentiles) can be answered from ``agg_summaries``; the base-shape
    scan (a num_nodes range with percentiles) must read the base
    tables.  Scans never repeat within a run, so none is a cache hit,
    and every node range covers three of the five node counts, so each
    base scan reads the same share of rows whatever the seed.
    """
    rng = random.Random(derive_seed(seed, "perfbench", "reads", index))
    order = derive_seed(seed, "perfbench", "summary-order")
    summary = _SUMMARY_QUERIES[(order + index * 7919) % len(_SUMMARY_QUERIES)]
    lo, hi = rng.choice(_NODE_WINDOWS)
    base = ScanQuery(
        metric=rng.choice(list(METRIC_COLUMNS)), num_nodes_min=lo, num_nodes_max=hi,
        group_by=rng.choice((("benchmark",), ("benchmark", "operation"))),
        percentiles=(50.0, round(90.0 + 9.9 * rng.random(), 6)),
    )
    ops: list[tuple[str, object]] = [
        ("load", rng.choice(ids)) for _ in range(sizes.loads_per_round)
    ]
    ops += [
        ("fetch_many", rng.sample(ids, sizes.fetch_batch))
        for _ in range(sizes.fetches_per_round)
    ]
    ops += [("scan_summary", summary), ("scan_base", base)]
    rng.shuffle(ops)
    return ops


def campaign_specs(seed: int, round_index: int, sizes: Sizes) -> list[CampaignSpec]:
    """Round ``round_index`` of campaigns: an IOR transfer-size sweep (with report), an mdtest sweep."""
    tag = _tag(seed, "campaign", round_index)
    geometry = {"nodes": "1,2", "taskspernode": sizes.campaign_tasks}
    return [
        CampaignSpec(
            name=f"{tag}-ior",
            benchmark="ior",
            parameters={"transfersize": ",".join(sizes.ior_sizes[:4]), **geometry},
            fixed={
                "command": "ior -a mpiio -b 4m -t $transfersize -s 4 -F -e -i 3 "
                f"-o /scratch/{tag}/ior/test -k",
            },
            report={"x_axis": "transfersize", "metric": "bw_mean"},
        ),
        CampaignSpec(
            name=f"{tag}-mdtest",
            benchmark="mdtest",
            parameters={
                "items": ",".join(sizes.mdtest_items), "variant": "easy,hard", **geometry,
            },
            fixed={"base_dir": f"/scratch/{tag}/mdtest"},
        ),
    ]


# ----------------------------------------------------------------------
# shared pieces
# ----------------------------------------------------------------------
def _digest(result) -> str:
    blob = json.dumps(
        [dataclasses.asdict(k) for k in result.all_knowledge], sort_keys=True, default=str
    )
    return hashlib.sha256((blob + "\n" + result.analysis_report).encode()).hexdigest()


def _preload(client: ServiceClient, rows: list[Knowledge], batch: int) -> list[int]:
    ids: list[int] = []
    for start in range(0, len(rows), batch):
        ids += client.save_many(rows[start:start + batch])
    return ids


def run_reads(client: ServiceClient, ops: list[tuple[str, object]], tally: Tally,
              scans: list, epoch: int) -> None:
    """Run read requests closed loop; scans are kept, with ``epoch``, for checking later."""
    clock = time.perf_counter
    for kind, arg in ops:
        tally.attempted += 1
        start = clock()
        try:
            if kind == "load":
                result = client.load(arg)
            elif kind == "fetch_many":
                result = client.fetch_many(arg)
            else:
                result = client.scan(arg)
        except Exception as exc:  # noqa: BLE001 - a raising request is a counted failure
            tally.failed += 1
            tally.misses.append(f"{kind} raised {exc!r}")
            continue
        tally.sample(kind, clock() - start)
        if kind == "load":
            tally.check(result.knowledge_id == arg, f"load({arg}) returned another id")
        elif kind == "fetch_many":
            tally.check(
                [k.knowledge_id for k in result] == list(arg),
                "fetch_many returned other ids",
            )
        else:
            scans.append((arg, result, epoch))


def check_scans(workload: "_Workload", objects: list[Knowledge], tally: Tally) -> None:
    """Every scan must equal ``fold_scan`` over the rows stored when it ran."""
    for query, result, epoch in workload.scans:
        tally.check(
            scan_results_match(result, fold_scan(query, workload.visible(objects, epoch))),
            f"scan {query.to_payload()} differs from fold_scan",
        )


class _Workload:
    """One set-up of a workload; ``close()`` releases it, also after a failed set-up."""

    name = ""
    client: ServiceClient | None = None

    def __init__(self, seed: int, sizes: Sizes, scratch: Path) -> None:
        self.seed = seed
        self.sizes = sizes
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=scratch))
        self.ids: list[int] = []
        self.scans: list[tuple[ScanQuery, object, int]] = []
        try:
            self._setup()
        except BaseException:
            self.close()
            raise

    def _setup(self) -> None:
        raise NotImplementedError

    def write_unit(self, tally: Tally, sleep) -> None:
        raise NotImplementedError

    def read_round(self, index: int, tally: Tally) -> None:
        run_reads(self.client, read_round(self.seed, index, self.ids, self.sizes), tally,
                  self.scans, self.epoch())

    def epoch(self) -> int:
        """How far the store's writes had got; the read store of a cycle never changes."""
        return 0

    def visible(self, objects: list[Knowledge], epoch: int) -> list[Knowledge]:
        """The rows of a final ``load_all()`` that were stored at ``epoch``."""
        return objects

    def window(self, tally: Tally, seconds: float) -> None:
        """Alternate write units and read rounds for ``seconds``.

        Writes take :data:`WRITE_SHARE` of the time and reads the rest,
        both spread over the whole window.  The host probe runs between
        units, and each unit's samples are scaled by the probe times
        around it (see :func:`probe_s`); each write unit's wall time is
        kept as a ``write`` sample.
        """
        clock = time.perf_counter
        start = clock()
        write_s = read_s = 0.0
        rounds = 0
        before = probe_s()
        while write_s == 0.0 or rounds == 0 or clock() - start < seconds:
            begin = clock()
            if write_s * (1.0 - WRITE_SHARE) <= read_s * WRITE_SHARE:
                self.write_unit(tally, time.sleep)
                write_s += clock() - begin
                tally.sample("write", clock() - begin)
            else:
                self.read_round(rounds, tally)
                rounds += 1
                read_s += clock() - begin
            after = probe_s()
            tally.settle(2.0 * PROBE_REFERENCE_S / (before + after))
            before = after

    @property
    def fixed_steps(self) -> int:
        """Steps of the traced run's fixed work: write units, then read rounds."""
        return self.trace_units + self.sizes.trace_read_rounds

    def fixed_step(self, index: int, tally: Tally, sleep=time.sleep) -> None:
        """Step ``index`` of :attr:`fixed_steps`, unscaled."""
        if index < self.trace_units:
            self.write_unit(tally, sleep)
        else:
            self.read_round(index - self.trace_units, tally)
        tally.settle(1.0)

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        shutil.rmtree(self.tmp, ignore_errors=True)


# ----------------------------------------------------------------------
# cycle-ior-hacc and cycle-io500
# ----------------------------------------------------------------------
class CycleWorkload(_Workload):
    """Back-to-back knowledge-cycle revolutions on one testbed and SQLite database.

    The read mix runs in process, through an embedded knowledge service
    holding the preloaded rows: the same client API as ``campaign-tcp``
    without the wire, so service-stack changes are bypassed here.
    """

    db: KnowledgeDatabase | None = None

    def __init__(self, name: str, seed: int, sizes: Sizes, scratch: Path) -> None:
        self.name = name
        super().__init__(seed, sizes, scratch)

    def _setup(self) -> None:
        sizes = self.sizes
        self.xml = cycle_xml(self.name, self.seed, sizes)
        self.expected = expected_objects(self.name, sizes)
        self.db = KnowledgeDatabase(":memory:")
        self.cycle = KnowledgeCycle(
            Testbed.fuchs_csc(seed=derive_seed(self.seed, "perfbench", "testbed")),
            self.db, self.tmp / "jube",
            default_policy=FailurePolicy(on_exhausted="skip"),
        )
        self.client = ServiceClient.open(str(self.tmp / "store"), shards=SHARDS)
        self.ids = _preload(self.client, preload_rows(self.seed, sizes), sizes.save_batch)
        self.warmup = Tally()
        self.revolution(self.warmup)

    def revolution(self, tally: Tally) -> None:
        tally.attempted += 1
        start = time.perf_counter()
        result = self.cycle.run_cycle(self.xml)
        tally.sample("revolution", time.perf_counter() - start)
        if result.failures:
            tally.failed += 1
            tally.misses.append(f"revolution quarantined: {result.failures}")
            return
        counts = (len(result.knowledge), len(result.io500_knowledge))
        tally.check(counts == self.expected, f"extracted {counts}, expected {self.expected}")
        tally.digests.append(_digest(result))

    def write_unit(self, tally: Tally, sleep) -> None:
        self.revolution(tally)

    @property
    def trace_units(self) -> int:
        return self.sizes.trace_revolutions[self.name]

    def close(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None
        super().close()


# ----------------------------------------------------------------------
# campaign-tcp
# ----------------------------------------------------------------------
class CampaignWorkload(_Workload):
    """Campaigns drained into ``knowledge+tcp://``, and a read mix over TCP.

    Set-up starts a :class:`KnowledgeServer` (2 worker processes, 4
    shards) and preloads the rows with ``save_many``.  Campaigns are
    drained by one launcher worker thread: a second one shares the GIL
    with the first and with the in-process server's threads, which on 2
    cores doubled the run-to-run spread of drain throughput.
    """

    name = "campaign-tcp"
    server: KnowledgeServer | None = None
    store: CampaignStore | None = None

    def __init__(self, seed: int, sizes: Sizes, scratch: Path, *, metrics=None) -> None:
        self.metrics = metrics
        self.campaigns: list[int] = []
        self.tokens: dict[int, set[str]] = {}
        super().__init__(seed, sizes, scratch)

    def _setup(self) -> None:
        self.server = KnowledgeServer(self.tmp / "server", shards=SHARDS, worker_processes=2)
        self.server.start()
        self.url = f"knowledge+tcp://{self.server.host}:{self.server.port}/"
        self.client = ServiceClient.open(self.url, metrics=self.metrics)
        self.ids = _preload(self.client, preload_rows(self.seed, self.sizes), self.sizes.save_batch)
        self.store = CampaignStore(self.tmp / "campaign.db")

    def drain_campaign(self, tally: Tally, sleep) -> None:
        """Submit and drain the next campaign, IOR and mdtest sweeps in turn."""
        index = len(self.campaigns)
        spec = campaign_specs(self.seed, index // 2, self.sizes)[index % 2]
        campaign_id = self.store.submit(spec, self.url)
        launcher = Launcher(
            self.store, campaign_id,
            workspace=self.tmp / "jobs" / str(index),
            workers=1,
            seed=derive_seed(self.seed, "perfbench", "launcher", index),
            metrics=self.metrics,
            poll_s=0.005,
            sleep=sleep,
        )
        counts = launcher.run()
        self.campaigns.append(campaign_id)
        jobs = sum(counts.values())
        tally.attempted += jobs
        tally.failed += jobs - counts["DONE"]
        if counts["DONE"] != jobs:
            tally.misses.append(f"campaign {spec.name}: {counts}")

    write_unit = drain_campaign

    @property
    def trace_units(self) -> int:
        return self.sizes.trace_campaigns

    def epoch(self) -> int:
        return len(self.campaigns)

    def _tokens(self, campaign_id: int) -> set[str]:
        if campaign_id not in self.tokens:
            self.tokens[campaign_id] = {
                job.token for job in self.store.jobs(campaign_id) if job.kind == "benchmark"
            }
        return self.tokens[campaign_id]

    def visible(self, objects: list[Knowledge], epoch: int) -> list[Knowledge]:
        later = set().union(*(self._tokens(c) for c in self.campaigns[epoch:]))
        return [k for k in objects if k.parameters.get(TOKEN_PARAMETER) not in later]

    def jobs_drained(self) -> int:
        return sum(len(self.store.jobs(c)) for c in self.campaigns)

    def check_tokens(self, objects: list[Knowledge], tally: Tally) -> None:
        """Exactly-once witness: each benchmark job's token on exactly its rows."""
        expected = set().union(*(self._tokens(c) for c in self.campaigns))
        tagged = [k for k in objects if TOKEN_PARAMETER in k.parameters]
        seen = Counter(k.parameters[TOKEN_PARAMETER] for k in tagged)
        totals = {
            k.parameters[TOKEN_PARAMETER]: int(k.parameters.get(TOTAL_PARAMETER, 1))
            for k in tagged
        }
        tally.check(set(seen) == expected, f"{len(seen)} tokens for {len(expected)} jobs")
        tally.check(
            all(seen[token] == totals[token] for token in seen),
            "a job token is on more or fewer rows than its campaign_total",
        )

    def close(self) -> None:
        try:
            if self.store is not None:
                self.store.close()
                self.store = None
            if self.client is not None:
                self.client.close()
                self.client = None
        finally:
            if self.server is not None:
                self.server.close()
                self.server = None
            super().close()


def make_workload(name: str, seed: int, sizes: Sizes, scratch: Path, *, metrics=None) -> _Workload:
    """Set one workload up (the work that ``setup_s`` times)."""
    if name == "campaign-tcp":
        return CampaignWorkload(seed, sizes, scratch, metrics=metrics)
    if name in WORKLOADS:
        return CycleWorkload(name, seed, sizes, scratch)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
