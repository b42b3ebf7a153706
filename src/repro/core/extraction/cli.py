"""Command-line knowledge extractor (§V-B).

"It can be run manually or automatically ... By default, the tool
expects the path of the output as a parameter.  If the path is not
specified, our tool automatically searches in the JUBE workspace for
available benchmark results."

Usage::

    repro-extract <path> [--db knowledge.db] [--json out.json] [--csv out.csv]
    repro-extract --workspace bench_run --db knowledge.db
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.core.extraction.workspace import KnowledgeExtractor
from repro.core.knowledge import IO500Knowledge, Knowledge
from repro.util.errors import ReproError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The repro-extract argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-extract",
        description="Extract I/O knowledge from benchmark output directories.",
    )
    parser.add_argument(
        "path",
        nargs="?",
        default=None,
        help="output directory to extract (omit to scan --workspace)",
    )
    parser.add_argument(
        "--workspace",
        default=None,
        help="JUBE workspace to search automatically when no path is given",
    )
    parser.add_argument("--db", default=None, help="persist into this SQLite target")
    parser.add_argument("--json", default=None, help="export knowledge to a JSON file")
    parser.add_argument("--csv", default=None, help="export summary rows to a CSV file")
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the per-object listing"
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Console entry point."""
    args = build_parser().parse_args(list(sys.argv[1:] if argv is None else argv))
    try:
        extractor = KnowledgeExtractor(jube_workspace=args.workspace)
        knowledge = extractor.extract(args.path)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not knowledge:
        print("no knowledge found", file=sys.stderr)
        return 1

    if not args.quiet:
        for k in knowledge:
            if isinstance(k, IO500Knowledge):
                print(
                    f"io500 run: score {k.score_total:.3f} "
                    f"(bw {k.score_bw:.3f} GiB/s, md {k.score_md:.3f} kIOPS), "
                    f"{len(k.testcases)} test cases"
                )
            else:
                ops = ", ".join(
                    f"{s.operation} {s.bw_mean:.1f} MiB/s" for s in k.summaries
                )
                print(f"{k.benchmark} knowledge: {k.num_tasks} tasks, {ops}")
    print(f"extracted {len(knowledge)} knowledge object(s)")

    if args.db:
        from repro.core.persistence import (
            IO500Repository,
            KnowledgeDatabase,
            KnowledgeRepository,
        )
        from repro.core.persistence.backend import ResilientBackend

        # One write path, as in repro-cycle: transient "database is
        # locked" errors are retried, behind the circuit breaker.
        try:
            with KnowledgeDatabase(args.db) as db:
                backend = ResilientBackend(db)
                repo, io5 = KnowledgeRepository(backend), IO500Repository(backend)
                for k in knowledge:
                    if isinstance(k, IO500Knowledge):
                        io5.save(k)
                    else:
                        repo.save(k)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"persisted to {args.db}")
    if args.json:
        from repro.core.persistence import export_json

        export_json(knowledge, args.json)
        print(f"exported JSON to {args.json}")
    if args.csv:
        from repro.core.persistence import export_csv

        export_csv([k for k in knowledge if isinstance(k, Knowledge)], args.csv)
        print(f"exported CSV to {args.csv}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
