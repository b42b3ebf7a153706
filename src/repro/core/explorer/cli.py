"""Command-line knowledge explorer (the §V-D tool as a CLI).

Usage::

    repro-explore knowledge.db --list
    repro-explore knowledge.db --view 3
    repro-explore knowledge.db --compare 1 2 3 --x-axis xfersize --metric bw_mean
    repro-explore knowledge.db --diff 1 2
    repro-explore knowledge.db --view 3 --chart /tmp/run3.svg
    repro-explore --metrics metrics.json
    repro-explore knowledge.db --analytics
    repro-explore 'knowledge+service:///var/lib/repro/store' --list
    repro-explore /var/lib/repro/store --service --view 2048
    repro-explore 'knowledge+tcp://db-node:9477/' --list

A ``knowledge+service://`` URL (or the ``--service`` flag on a store
directory) routes every read through the sharded knowledge service —
same commands, sharded concurrent store.  A ``knowledge+tcp://``
URL reaches a ``repro-serve --listen`` server in another process or on
another host; the explorer commands are identical.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.core.explorer.comparison import ComparisonView
from repro.core.explorer.charts import render_ascii
from repro.core.explorer.export import export_image
from repro.core.explorer.io500_viewer import IO500Viewer
from repro.core.explorer.viewer import KnowledgeViewer
from repro.core.persistence.database import KnowledgeDatabase
from repro.core.persistence.io500_repo import IO500Repository
from repro.core.persistence.repository import KnowledgeRepository
from repro.core.service.client import ServiceClient, is_service_url, is_tcp_url
from repro.util.errors import ReproError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The repro-explore argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-explore", description="Explore a knowledge database."
    )
    parser.add_argument(
        "database", nargs="?", default=None,
        help="SQLite knowledge database path or URL",
    )
    parser.add_argument("--list", action="store_true", help="list stored knowledge")
    parser.add_argument("--view", type=int, default=None, help="show one knowledge object")
    parser.add_argument("--io500", type=int, default=None, help="show one IO500 run")
    parser.add_argument(
        "--compare", type=int, nargs="+", default=None, help="compare knowledge ids"
    )
    parser.add_argument(
        "--diff", type=int, nargs=2, default=None, metavar=("LEFT", "RIGHT"),
        help="field-by-field diff of two knowledge ids",
    )
    parser.add_argument("--x-axis", default="knowledge_id", help="comparison x axis")
    parser.add_argument("--metric", default="bw_mean", help="comparison y metric")
    parser.add_argument("--chart", default=None, help="export the view's chart as SVG")
    parser.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="render a text report of a repro-cycle --metrics-json snapshot",
    )
    parser.add_argument(
        "--service", action="store_true",
        help="treat DATABASE as a sharded knowledge-service store "
             "(implied by knowledge+service:// URLs)",
    )
    parser.add_argument(
        "--analytics", action="store_true",
        help="fleet analytics report: percentile distributions, "
             "correlations, scoring balance and outliers (runs over the "
             "columnar scan API, local or via knowledge+tcp://)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Console entry point."""
    args = build_parser().parse_args(list(sys.argv[1:] if argv is None else argv))
    if args.metrics is not None:
        import json

        from repro.core.metrics import render_metrics_report

        try:
            with open(args.metrics, encoding="utf-8") as fh:
                snapshot = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read metrics snapshot {args.metrics}: {exc}",
                  file=sys.stderr)
            return 1
        try:
            print(render_metrics_report(snapshot))
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if args.database is None:
            return 0
    if args.database is None:
        print("error: a knowledge database is required (or use --metrics)",
              file=sys.stderr)
        return 2
    try:
        if is_tcp_url(args.database):
            # Remote server: no local store to sanity-check — the URL is
            # the store, and connect errors surface as typed transport
            # faults below.
            with ServiceClient.open(args.database) as client:
                return _explore(args, client, None)
        if args.service or is_service_url(args.database):
            from pathlib import Path

            from repro.core.service.client import parse_service_url

            root = args.database
            if is_service_url(root):
                root = parse_service_url(root)[0]
            if not (Path(root) / "manifest.db").exists():
                print(f"error: {root} is not a knowledge-service store "
                      "(no manifest.db); create one with repro-serve",
                      file=sys.stderr)
                return 1
            with ServiceClient.open(args.database) as client:
                return _explore(args, client, None)
        with KnowledgeDatabase(args.database) as db:
            return _explore(args, KnowledgeRepository(db), IO500Repository(db))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _explore(args, repo, io5) -> int:
    """Run one explorer command against a repository-shaped source.

    ``repo`` is either a :class:`KnowledgeRepository` (single database)
    or a :class:`ServiceClient` (sharded service) — both speak the same
    ``load``/``list_ids``/``count`` API.  ``io5`` is ``None`` in
    service mode (IO500 knowledge is not served by the service yet).
    """
    spec = None
    if args.analytics:
        from repro.core.analytics import analytics_report

        # The distribution tables run over the scan pushdown either
        # way; IO500 sections need the embedded repositories (io5 is
        # None through the service).
        print(analytics_report(repo, io5))
        return 0
    if args.view is not None:
        knowledge = repo.load(args.view)
        print(KnowledgeViewer().render(knowledge))
        spec = KnowledgeViewer().iteration_chart(knowledge)
        print(render_ascii(spec))
    elif args.io500 is not None:
        if io5 is None:
            print("error: --io500 is not available through the knowledge service",
                  file=sys.stderr)
            return 2
        print(IO500Viewer().render(io5.load(args.io500)))
    elif args.diff:
        from repro.core.explorer.diff import diff_knowledge

        left, right = (repo.load(i) for i in args.diff)
        print(diff_knowledge(left, right).render())
    elif args.compare:
        # Batched read: one round-trip per table (or per shard through
        # the service) instead of a full load() per compared id.
        view = ComparisonView(repo.fetch_many(args.compare))
        print(view.table())
        spec = view.chart(x_axis=args.x_axis, y_metric=args.metric)
        print(render_ascii(spec))
    else:  # default / --list
        # COUNT fast path for the header: no row deserialisation just
        # to size the knowledge base.
        print(f"{repo.count()} knowledge object(s): {repo.list_ids()}")
        if io5 is not None:
            io5_ids = io5.list_ids()
            print(f"{len(io5_ids)} IO500 run(s): {io5_ids}")
        else:
            # stats() is transport-neutral: the same summary whether the
            # service is embedded or a TCP round-trip away.
            stats = repo.stats()
            rows = stats.get("rows_per_shard", {})
            per_shard = ", ".join(
                f"shard {int(i)}: {rows[i]}" for i in sorted(rows, key=int)
            )
            print(f"served from {stats['shards']} shard(s) ({per_shard})")

    if args.chart:
        if spec is None:
            print("error: --chart needs --view or --compare", file=sys.stderr)
            return 2
        export_image(spec, args.chart)
        print(f"chart exported to {args.chart}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
