"""Smoke test of the benchmark harness at tiny sizes (about a minute).

Run from the root of the checkout::

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from workloads import TINY_SIZES, Tally, check_scans, make_workload, run_reads  # noqa: E402


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads(
        (ROOT / ".perfbench" / f"result-{workload}-seed7-trace{trace}.json").read_text()
    )
    return result, record


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported_with_its_unit(workload, trace):
    result, record = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    named = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for metric in named:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["correct"] and result["failed"] == 0, record["misses"]
    assert record["checks"] > 0
    if trace:
        assert record["detail"]["self_sum_matches_traced_s"]
        # Every workload runs IOR or mdtest, also inside campaign jobs on
        # the launcher's worker thread, so namespace work must show.
        assert record["detail"]["layer_self_s_with_wrapper"]["pfs.namespace"] > 0
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in named)


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout == ""


class _WrongIds:
    """A client whose loads answer with another object's id."""

    def load(self, knowledge_id):
        class Answer:
            pass

        answer = Answer()
        answer.knowledge_id = knowledge_id + 1
        return answer


def test_checks_catch_a_wrong_load_and_a_wrong_scan(tmp_path):
    tally = Tally()
    run_reads(_WrongIds(), [("load", 3)], tally, [], 0)
    assert tally.failed == 1

    workload = make_workload("cycle-ior-hacc", 7, TINY_SIZES, tmp_path)
    try:
        workload.read_round(0, Tally())
        objects = workload.client.load_all()
        good = Tally()
        check_scans(workload, objects, good)
        assert good.checks == 2 and good.failed == 0
        bad = Tally()
        check_scans(workload, objects[1:], bad)
        assert bad.failed >= 1
    finally:
        workload.close()
