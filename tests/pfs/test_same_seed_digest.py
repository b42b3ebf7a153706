"""Same-seed pin: a small seeded IO500 run must stay byte-identical.

The digest covers three things a same-seed run must reproduce exactly:

- the rendered IO500 result summary of a full run;
- the sorted ``(path, entry_id, size)`` of every file in the namespace
  after the four write phases (entry-id order and file sizes);
- the ``getentryinfo`` text of the IOR data files (stripe layouts).

Any change to simulated time, RNG draws or entry-id assignment in the
pfs, iostack or benchmark layers moves the digest.  Refactors of those
layers must reproduce ``PINNED_DIGEST`` unchanged.
"""

import hashlib

from repro.benchmarks_io.io500 import IO500Config, render_io500_output, run_io500
from repro.benchmarks_io.ior.runner import run_ior_in_job
from repro.benchmarks_io.mdtest import run_mdtest_phase
from repro.iostack.stack import Testbed

PINNED_DIGEST = "132edfb806fc69f6922f12f8ff5f41954466f9b2be2cbdadab026376b4e37dd2"

SEED = 7
NODES, TASKS_PER_NODE = 1, 4
CONFIG = IO500Config(
    ior_easy_block=4 * 1024**2,
    ior_easy_transfer=1024**2,
    ior_hard_ops=8,
    mdtest_easy_items=12,
    mdtest_hard_items=6,
)


def _rendered_run() -> str:
    tb = Testbed.fuchs_csc(seed=SEED)
    result = run_io500(CONFIG, tb, num_nodes=NODES, tasks_per_node=TASKS_PER_NODE)
    return render_io500_output(result)


def _after_write_phases() -> tuple[list[str], list[str]]:
    """Namespace rows and IOR entry info after the four write phases,
    issued in IO500 order with the runner's phase tags."""
    tb = Testbed.fuchs_csc(seed=SEED)
    ctx = tb.start_job("io500", NODES, TASKS_PER_NODE)
    fs = ctx.fs
    fs.makedirs(CONFIG.workdir)
    md_easy, md_hard = CONFIG.mdtest_easy(), CONFIG.mdtest_hard()
    for rank in ctx.comm.ranks():
        fs.makedirs(md_easy.task_dir(rank))
        fs.makedirs(md_hard.task_dir(rank))
    ior_easy = CONFIG.ior_easy().with_(read_file=False)
    ior_hard = CONFIG.ior_hard().with_(read_file=False)
    run_ior_in_job(ior_easy, ctx, extra_tags={"suite": "io500", "phase": "ior-easy-write"})
    run_mdtest_phase(ctx, md_easy, "create", 0, {"suite": "io500", "phase": "mdtest-easy-write"})
    run_ior_in_job(ior_hard, ctx, extra_tags={"suite": "io500", "phase": "ior-hard-write"})
    run_mdtest_phase(ctx, md_hard, "create", 0, {"suite": "io500", "phase": "mdtest-hard-write"})
    tb.finish_job(ctx)

    rows = sorted(
        f"{path}\t{entry.entry_id}\t{entry.size}"
        for path, entry in fs.namespace.walk_files("/")
    )
    ior_paths = [ior_easy.file_for_rank(r) for r in ctx.comm.ranks()] + [ior_hard.test_file]
    return rows, [fs.getentryinfo(p) for p in ior_paths]


def same_seed_digest() -> str:
    rows, entry_info = _after_write_phases()
    h = hashlib.sha256()
    for chunk in [_rendered_run(), *rows, *entry_info]:
        h.update(chunk.encode())
        h.update(b"\0")
    return h.hexdigest()


def test_same_seed_runs_agree():
    assert same_seed_digest() == same_seed_digest()


def test_same_seed_digest_is_pinned():
    assert same_seed_digest() == PINNED_DIGEST
