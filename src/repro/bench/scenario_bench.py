"""Scenario-engine benchmark: grammar expansion + period detection.

Two hot paths matter to the scenario engine.  Expansion must be cheap
enough that compiling a thousand-derivation sweep is interactive, and
streaming period detection must be cheap enough that
``OnlineMonitor(detect_periods=True)`` can afford a detection pass
every ``detection_stride`` windows of a live run.  The benchmark times
both and — like ``repro-bench scan`` — pairs the timings with the
correctness claim that makes them meaningful: the detector must
recover the planted period on periodic traces and stay quiet on the
aperiodic ones.

The report schema is ``repro.bench/v1``::

    {
      "schema": "repro.bench/v1",
      "bench": "scenario",
      "host": {"cores": ..., "python": ..., "sqlite": ..., "platform": ...},
      "config": {...},
      "timings": {"expand": {...}, "detect": {...}},
      "rates": {"derivations_per_s": ..., "windows_per_s": ...,
                "detect_ms_per_trace": ...},
      "correctness": {"planted_recovered": ..., "planted_total": ...,
                      "aperiodic_quiet": true, "deterministic": true}
    }
"""

from __future__ import annotations

import time

from repro.bench.service_bench import BENCH_SCHEMA
from repro.core.scenario.expand import expand, synthesize_throughput
from repro.core.scenario.grammar import parse_grammar_toml
from repro.core.scenario.periodic import detect_periods

__all__ = ["run_scenario_bench", "BENCH_GRAMMAR"]

# Self-contained copy of the examples/scenarios.toml family mix, so the
# bench does not depend on the repository checkout layout.
BENCH_GRAMMAR = """
[grammar]
name = "bench-families"
start = "workload"

[rules]
workload = "bursty @3 | interleaved @2 | fpp_stream"
bursty = "pattern=bursty period_s={3.0..10.0} duty={0.15..0.45} geometry api=<MPIIO|HDF5> sharing=shared collective=<true:2|false>"
interleaved = "pattern=interleaved period_s={2.0..6.0} geometry api=MPIIO sharing=<shared|fpp>"
fpp_stream = "pattern=steady geometry api=<POSIX:2|MPIIO> sharing=fpp fsync=<true|false:3>"
geometry = "blocksize={4m..64m:pow2} transfersize={1m..4m:pow2} segments={2..8}"

[defaults]
nodes = "2"
taskspernode = "4"
iterations = "3"
testfile = "/scratch/scenario/test"
"""


def run_scenario_bench(
    scratch: str,
    *,
    derivations: int = 2000,
    traces: int = 48,
    windows: int = 256,
    seed: int = 42,
) -> dict:
    """Run the scenario benchmark; ``scratch`` is unused (no disk I/O)."""
    del scratch
    grammar = parse_grammar_toml(BENCH_GRAMMAR)

    started = time.perf_counter()
    derived = expand(grammar, seed, derivations)
    expand_s = time.perf_counter() - started
    deterministic = [d.to_json() for d in expand(grammar, seed, derivations)] == [
        d.to_json() for d in derived
    ]

    # Synthesis is setup, not the timed subject: render one trace per
    # derivation up front, remembering which carry a planted period.
    subjects = []
    for derivation in derived[:traces]:
        values, planted = synthesize_throughput(
            derivation, windows=windows, interval_s=0.25
        )
        subjects.append((values, planted))

    interval_s = 0.25
    recovered = 0
    planted_total = 0
    aperiodic_quiet = True
    started = time.perf_counter()
    for values, planted in subjects:
        detections = detect_periods(values, interval_s, min_confidence=0.5)
        if planted is None:
            aperiodic_quiet &= not detections
            continue
        planted_total += 1
        if detections and abs(detections[0].period_s - planted) <= 0.2 * planted:
            recovered += 1
    detect_s = time.perf_counter() - started

    total_windows = len(subjects) * windows
    return {
        "schema": BENCH_SCHEMA,
        "bench": "scenario",
        "config": {
            "grammar": grammar.name,
            "derivations": derivations,
            "traces": len(subjects),
            "windows": windows,
            "interval_s": interval_s,
            "seed": seed,
        },
        "timings": {
            "expand": {"seconds": round(expand_s, 6), "derivations": derivations},
            "detect": {"seconds": round(detect_s, 6), "traces": len(subjects),
                       "windows": total_windows},
        },
        "rates": {
            "derivations_per_s": round(derivations / expand_s, 1) if expand_s else 0.0,
            "windows_per_s": round(total_windows / detect_s, 1) if detect_s else 0.0,
            "detect_ms_per_trace": round(
                detect_s * 1000.0 / len(subjects), 3
            ) if subjects else 0.0,
        },
        "correctness": {
            "planted_recovered": recovered,
            "planted_total": planted_total,
            "aperiodic_quiet": aperiodic_quiet,
            "deterministic": deterministic,
        },
    }
