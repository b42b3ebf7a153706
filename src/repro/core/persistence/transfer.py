"""Knowledge import/export: JSON interchange and CSV reporting.

Two paper requirements live here.  §III's persistence phase allows
knowledge to be "saved, e.g., as a CSV file or as a database entry";
§VI plans "the ability to add knowledge manually through the web-based
user interface".  The JSON format is the manual-entry / sharing
interchange (lossless round trip of whole knowledge objects); the CSV
export is the flat report of summary rows.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import fields
from pathlib import Path

from repro.core.knowledge import (
    FilesystemInfo,
    IO500Knowledge,
    IO500Testcase,
    Knowledge,
    KnowledgeResult,
    KnowledgeSummary,
)
from repro.util.errors import PersistenceError

__all__ = [
    "knowledge_to_dict",
    "knowledge_from_dict",
    "io500_to_dict",
    "io500_from_dict",
    "export_json",
    "import_json",
    "export_csv",
]

_FORMAT = "repro-knowledge/1"

# Field names in declaration order, which fixes the key order of the
# exported JSON.  Building the dicts field by field costs about a sixth
# of the stdlib's recursive dataclass conversion, which deep-copies
# every value; the mutable members are copied explicitly instead, so
# no returned dict shares a container with its source object.
_RESULT_FIELDS = tuple(f.name for f in fields(KnowledgeResult))
_SUMMARY_FIELDS = tuple(f.name for f in fields(KnowledgeSummary) if f.name != "results")
_FILESYSTEM_FIELDS = tuple(f.name for f in fields(FilesystemInfo))
_TESTCASE_FIELDS = tuple(f.name for f in fields(IO500Testcase) if f.name != "options")


def knowledge_to_dict(k: Knowledge) -> dict[str, object]:
    """Serialize one knowledge object to a JSON-safe dict."""
    return {
        "type": "knowledge",
        "benchmark": k.benchmark,
        "command": k.command,
        "api": k.api,
        "test_file": k.test_file,
        "file_per_proc": k.file_per_proc,
        "num_nodes": k.num_nodes,
        "num_tasks": k.num_tasks,
        "tasks_per_node": k.tasks_per_node,
        "start_time": k.start_time,
        "end_time": k.end_time,
        "parameters": dict(k.parameters),
        "summaries": [
            {
                **{f: getattr(s, f) for f in _SUMMARY_FIELDS},
                "results": [{f: getattr(r, f) for f in _RESULT_FIELDS} for r in s.results],
            }
            for s in k.summaries
        ],
        "filesystem": (
            {f: getattr(k.filesystem, f) for f in _FILESYSTEM_FIELDS}
            if k.filesystem else None
        ),
        "system": dict(k.system) if k.system else None,
    }


def knowledge_from_dict(data: dict[str, object]) -> Knowledge:
    """Deserialize a knowledge object (the manual-entry path).

    Validates the essentials so hand-written entries fail early with a
    useful message instead of poisoning the knowledge base.
    """
    if data.get("type") != "knowledge":
        raise PersistenceError(f"not a knowledge dict (type={data.get('type')!r})")
    if not data.get("benchmark"):
        raise PersistenceError("knowledge entry needs a 'benchmark' field")
    summaries = []
    for s in data.get("summaries", []):  # type: ignore[union-attr]
        try:
            results = [KnowledgeResult(**r) for r in s.get("results", [])]
            summaries.append(
                KnowledgeSummary(
                    operation=s["operation"],
                    api=s.get("api", ""),
                    bw_max=float(s["bw_max"]),
                    bw_min=float(s["bw_min"]),
                    bw_mean=float(s["bw_mean"]),
                    bw_stddev=float(s.get("bw_stddev", 0.0)),
                    ops_max=float(s.get("ops_max", 0.0)),
                    ops_min=float(s.get("ops_min", 0.0)),
                    ops_mean=float(s.get("ops_mean", 0.0)),
                    ops_stddev=float(s.get("ops_stddev", 0.0)),
                    iterations=int(s.get("iterations", len(results))),
                    results=results,
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise PersistenceError(f"malformed summary in knowledge entry: {exc}") from exc
    fs = data.get("filesystem")
    return Knowledge(
        benchmark=str(data["benchmark"]),
        command=str(data.get("command", "")),
        api=str(data.get("api", "")),
        test_file=str(data.get("test_file", "")),
        file_per_proc=bool(data.get("file_per_proc", False)),
        num_nodes=int(data.get("num_nodes", 0)),  # type: ignore[arg-type]
        num_tasks=int(data.get("num_tasks", 0)),  # type: ignore[arg-type]
        tasks_per_node=int(data.get("tasks_per_node", 0)),  # type: ignore[arg-type]
        start_time=float(data.get("start_time", 0.0)),  # type: ignore[arg-type]
        end_time=float(data.get("end_time", 0.0)),  # type: ignore[arg-type]
        parameters=dict(data.get("parameters", {})),  # type: ignore[arg-type]
        summaries=summaries,
        filesystem=FilesystemInfo(**fs) if isinstance(fs, dict) else None,
        system=dict(data["system"]) if isinstance(data.get("system"), dict) else None,
    )


def io500_to_dict(k: IO500Knowledge) -> dict[str, object]:
    """Serialize one IO500 knowledge object."""
    return {
        "type": "io500",
        "score_total": k.score_total,
        "score_bw": k.score_bw,
        "score_md": k.score_md,
        "num_nodes": k.num_nodes,
        "num_tasks": k.num_tasks,
        "timestamp": k.timestamp,
        "version": k.version,
        "testcases": [
            {**{f: getattr(t, f) for f in _TESTCASE_FIELDS}, "options": dict(t.options)}
            for t in k.testcases
        ],
        "system": dict(k.system) if k.system else None,
    }


def io500_from_dict(data: dict[str, object]) -> IO500Knowledge:
    """Deserialize an IO500 knowledge object."""
    if data.get("type") != "io500":
        raise PersistenceError(f"not an io500 dict (type={data.get('type')!r})")
    try:
        return IO500Knowledge(
            score_total=float(data["score_total"]),  # type: ignore[arg-type]
            score_bw=float(data["score_bw"]),  # type: ignore[arg-type]
            score_md=float(data["score_md"]),  # type: ignore[arg-type]
            num_nodes=int(data.get("num_nodes", 0)),  # type: ignore[arg-type]
            num_tasks=int(data.get("num_tasks", 0)),  # type: ignore[arg-type]
            timestamp=float(data.get("timestamp", 0.0)),  # type: ignore[arg-type]
            version=str(data.get("version", "")),
            testcases=[IO500Testcase(**t) for t in data.get("testcases", [])],  # type: ignore[union-attr]
            system=dict(data["system"]) if isinstance(data.get("system"), dict) else None,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise PersistenceError(f"malformed io500 entry: {exc}") from exc


def export_json(
    objects: list[Knowledge | IO500Knowledge], path: str | Path
) -> Path:
    """Export knowledge objects to a shareable JSON file."""
    payload = {
        "format": _FORMAT,
        "entries": [
            io500_to_dict(k) if isinstance(k, IO500Knowledge) else knowledge_to_dict(k)
            for k in objects
        ],
    }
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")
    return out


def import_json(path: str | Path) -> list[Knowledge | IO500Knowledge]:
    """Import knowledge objects from a JSON file (manual entry path)."""
    p = Path(path)
    if not p.exists():
        raise PersistenceError(f"knowledge file not found: {p}")
    try:
        payload = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise PersistenceError(f"invalid JSON in {p}: {exc}") from exc
    if payload.get("format") != _FORMAT:
        raise PersistenceError(
            f"{p} is not a {_FORMAT} file (format={payload.get('format')!r})"
        )
    out: list[Knowledge | IO500Knowledge] = []
    for entry in payload.get("entries", []):
        if entry.get("type") == "io500":
            out.append(io500_from_dict(entry))
        else:
            out.append(knowledge_from_dict(entry))
    return out


_CSV_COLUMNS = (
    "knowledge_id", "benchmark", "api", "command", "num_nodes", "num_tasks",
    "operation", "bw_max", "bw_min", "bw_mean", "bw_stddev",
    "ops_mean", "iterations",
)


def export_csv(objects: list[Knowledge], path: str | Path | None = None) -> str:
    """Export summary rows as CSV; optionally write to ``path``.

    One row per (knowledge object, operation) — the flat form §III
    mentions for simple persistence/sharing.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(_CSV_COLUMNS)
    for k in objects:
        for s in k.summaries:
            writer.writerow(
                [
                    k.knowledge_id if k.knowledge_id is not None else "",
                    k.benchmark, k.api, k.command, k.num_nodes, k.num_tasks,
                    s.operation, s.bw_max, s.bw_min, s.bw_mean, s.bw_stddev,
                    s.ops_mean, s.iterations,
                ]
            )
    text = buffer.getvalue()
    if path is not None:
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text, encoding="utf-8")
    return text
