"""Scenario engine: grammar parsing, deterministic expansion, campaign
compilation, and frequency-domain period detection."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.campaign.launcher import Launcher
from repro.core.campaign.store import CampaignStore
from repro.core.scenario import (
    Choice,
    NonTerminal,
    Range,
    Terminal,
    compile_campaign_spec,
    compile_campaign_toml,
    compile_ior_config,
    detect_from_series,
    detect_periods,
    expand,
    parse_grammar_toml,
    synthesize_throughput,
)
from repro.core.scenario.cli import main as scenario_main
from repro.core.usage.recommend import recommend_for_periods
from repro.util.errors import ScenarioError

GRAMMAR = """
[grammar]
name = "families"
start = "workload"

[rules]
workload = "bursty @3 | interleaved | steady"
bursty = "pattern=bursty period_s={3.0..9.0} duty={0.15..0.45} io"
interleaved = "pattern=interleaved period_s={2.0..6.0} io"
steady = "pattern=steady io"
io = "api=<MPIIO|POSIX:2> blocksize={4m..64m:pow2} transfersize={1m..4m:pow2} sharing=<shared|fpp> segments={1..8}"

[defaults]
nodes = "2"
taskspernode = "4"
iterations = "2"
"""

# The examples/scenarios.toml family mix without its metadata family:
# 2000 derivations of seed 42 expand byte-identically, and the first 48
# carry the period-detection recovery check below.
FAMILIES_GRAMMAR = """
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


@pytest.fixture()
def grammar():
    return parse_grammar_toml(GRAMMAR)


class TestGrammarParsing:
    def test_symbol_kinds(self, grammar):
        io = grammar.rule("io")
        kinds = [type(s) for s in io.alternatives[0].symbols]
        assert kinds == [Choice, Range, Range, Choice, Range]

    def test_alternative_weights(self, grammar):
        weights = [a.weight for a in grammar.rule("workload").alternatives]
        assert weights == [3.0, 1.0, 1.0]

    def test_choice_weights_survive_pipes(self, grammar):
        api = grammar.rule("io").alternatives[0].symbols[0]
        assert api.values == ("MPIIO", "POSIX")
        assert api.weights == (1.0, 2.0)

    def test_pow2_range(self, grammar):
        blocksize = grammar.rule("io").alternatives[0].symbols[1]
        assert blocksize.pow2
        assert blocksize.pow2_values() == [
            4 * 1024**2, 8 * 1024**2, 16 * 1024**2, 32 * 1024**2, 64 * 1024**2
        ]

    def test_float_range_bounds(self, grammar):
        period = grammar.rule("bursty").alternatives[0].symbols[1]
        assert isinstance(period, Range)
        assert (period.lo, period.hi, period.integer) == (3.0, 9.0, False)

    def test_defaults_parsed(self, grammar):
        assert grammar.defaults["nodes"] == "2"

    def test_terminal_and_nonterminal(self, grammar):
        bursty = grammar.rule("bursty").alternatives[0].symbols
        assert bursty[0] == Terminal(key="pattern", value="bursty")
        assert bursty[-1] == NonTerminal("io")

    @pytest.mark.parametrize("bad, message", [
        ("[grammar]\nname='g'\nstart='missing'\n[rules]\nr='x=1'", "start symbol"),
        ("[grammar]\nname='g'\nstart='r'\n[rules]\nr='nope'", "undefined"),
        ("[grammar]\nname='g'\nstart='r'\n[rules]\nr='x={5..1}'", "empty range"),
        ("[grammar]\nname='g'\nstart='r'\n[rules]\nr='x={1.5..9.5:pow2}'", "pow2"),
        ("[grammar]\nname='g'\nstart='r'\n[rules]\nr='x=<a|b> | '", "empty alternative"),
        ("[grammar]\nname='g'\nstart='r'\n[rules]\nr='x=<a:b>'", "invalid weight"),
        ("[grammar]\nname='g'\nstart='r'\n[rules]\nr='x=<a|b @2'", "unbalanced"),
        ("[grammar]\nname='g'\nstart='r'\n[rules]\nr='@2'", "weight-only"),
        ("[grammar]\nname='g'\nstart='r'", "at least one"),
        ("[grammar]\nname='g'\nstart='r'\n[rules]\nr='x=1'\n[bogus]\ny=1", "unknown"),
    ])
    def test_rejects_malformed(self, bad, message):
        with pytest.raises(ScenarioError, match=message):
            parse_grammar_toml(bad)

    def test_recursion_hits_depth_guard(self):
        text = (
            "[grammar]\nname='g'\nstart='a'\nmax_depth=8\n"
            "[rules]\na='b'\nb='a'"
        )
        grammar = parse_grammar_toml(text)
        with pytest.raises(ScenarioError, match="max_depth"):
            expand(grammar, seed=1, count=1)


class TestDeterministicExpansion:
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    @example(seed=42, count=2000)
    def test_same_seed_byte_identical(self, seed, count):
        for text in (GRAMMAR, FAMILIES_GRAMMAR):
            grammar = parse_grammar_toml(text)
            first = [d.to_json() for d in expand(grammar, seed, count)]
            second = [d.to_json() for d in expand(grammar, seed, count)]
            assert first == second

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_prefix_stability(self, seed):
        grammar = parse_grammar_toml(GRAMMAR)
        short = [d.to_json() for d in expand(grammar, seed, 3)]
        long = [d.to_json() for d in expand(grammar, seed, 9)]
        assert long[:3] == short

    def test_different_seeds_differ(self, grammar):
        a = [d.to_json() for d in expand(grammar, 1, 8)]
        b = [d.to_json() for d in expand(grammar, 2, 8)]
        assert a != b

    def test_weighted_family_distribution(self, grammar):
        patterns = [d.params["pattern"] for d in expand(grammar, 11, 200)]
        bursty = patterns.count("bursty")
        # weight 3 of 5 total -> expect ~120 of 200; generous band
        assert 80 < bursty < 160

    def test_range_draws_stay_in_bounds(self, grammar):
        for d in expand(grammar, 5, 50):
            assert 1 <= int(d.params["segments"]) <= 8
            assert int(d.params["blocksize"]) in {
                4 * 1024**2, 8 * 1024**2, 16 * 1024**2, 32 * 1024**2, 64 * 1024**2
            }
            if d.params["pattern"] == "bursty":
                assert 3.0 <= float(d.params["period_s"]) <= 9.0

    def test_defaults_ride_along_and_trace_recorded(self, grammar):
        derivation = expand(grammar, 3, 1)[0]
        assert derivation.params["nodes"] == "2"
        assert derivation.trace[0].startswith("workload[")

    def test_count_validated(self, grammar):
        with pytest.raises(ScenarioError, match="count"):
            expand(grammar, 1, 0)


class TestCampaignCompilation:
    def test_compiles_to_ior(self, grammar):
        config = compile_ior_config(expand(grammar, 7, 1)[0])
        command = config.to_command()
        assert command.startswith("ior ") and "," not in command

    def test_block_rounded_to_transfer_multiple(self, grammar):
        for d in expand(grammar, 13, 20):
            config = compile_ior_config(d)
            assert config.block_size % config.transfer_size == 0

    def test_round_trips_through_campaign_parser(self, grammar):
        derivations = expand(grammar, 7, 4)
        spec = compile_campaign_spec(grammar, derivations)
        assert spec.name == "scenario-families-s7"
        assert spec.benchmark == "ior"
        assert spec.fixed["scenario_grammar"] == "families"
        assert len(spec.parameters["command"].split(",")) == len(
            {compile_ior_config(d).to_command() for d in derivations}
        )

    def test_rejects_non_uniform_geometry(self, grammar):
        derivations = expand(grammar, 7, 2)
        bumped = derivations[1].params | {"nodes": "8"}
        derivations[1] = type(derivations[1])(
            grammar=derivations[1].grammar, seed=7, index=1,
            params=bumped, trace=derivations[1].trace,
        )
        with pytest.raises(ScenarioError, match="geometry"):
            compile_campaign_toml(grammar, derivations)

    def test_rejects_empty_batch(self, grammar):
        with pytest.raises(ScenarioError, match="empty"):
            compile_campaign_toml(grammar, [])

    def test_end_to_end_campaign_run(self, grammar, tmp_path):
        derivations = expand(grammar, 7, 3)
        spec = compile_campaign_spec(grammar, derivations)
        with CampaignStore(str(tmp_path / "campaigns.db")) as store:
            campaign_id = store.submit(spec, str(tmp_path / "knowledge.db"))
            counts = Launcher(
                store, campaign_id, workspace=str(tmp_path / "ws"), workers=2, seed=7
            ).run()
        assert counts["FAILED"] == 0
        assert counts["DONE"] >= len(derivations)


class TestPeriodDetection:
    def test_recovers_planted_square_wave(self):
        interval, period = 0.25, 5.0
        t = np.arange(300) * interval
        values = np.where(np.mod(t, period) / period < 0.3, 400.0, 20.0)
        detections = detect_periods(values, interval)
        assert detections
        best = detections[0]
        assert best.period_s == pytest.approx(period, rel=0.1)
        assert best.confidence > 0.6

    def test_recovery_across_grammar_families(self, grammar):
        inputs = [(grammar, 21, 8), (parse_grammar_toml(FAMILIES_GRAMMAR), 42, 48)]
        for family_grammar, seed, count in inputs:
            planted_total = 0
            for d in expand(family_grammar, seed, count):
                values, planted = synthesize_throughput(d, windows=256, interval_s=0.25)
                detections = detect_periods(values, 0.25)
                if planted is not None:
                    planted_total += 1
                    assert detections, f"missed planted period in {d.params}"
                    assert detections[0].period_s == pytest.approx(planted, rel=0.12)
                    assert detections[0].confidence > 0.5
                else:
                    top = max((x.confidence for x in detections), default=0.0)
                    assert top < 0.5, f"steady trace scored {top}"
            assert planted_total > 0, family_grammar.name

    def test_aperiodic_noise_scores_low(self):
        rng = np.random.default_rng(3)
        detections = detect_periods(rng.normal(100, 15, 400), 0.25)
        assert max((d.confidence for d in detections), default=0.0) < 0.3

    def test_constant_and_short_series_detect_nothing(self):
        assert detect_periods(np.full(64, 42.0), 0.25) == []
        assert detect_periods([1.0, 2.0, 3.0], 0.25) == []

    def test_nan_tolerated(self):
        t = np.arange(128) * 0.5
        values = np.where(np.mod(t, 8.0) < 2.0, 300.0, 10.0)
        values[10] = np.nan
        detections = detect_periods(values, 0.5)
        assert detections and detections[0].period_s == pytest.approx(8.0, rel=0.15)

    def test_detect_from_series_fills_gaps(self):
        interval, period = 0.25, 4.0
        series = []
        for i in range(240):
            t = i * interval
            if np.mod(t, period) < 1.2:  # only busy windows reported
                series.append((t, 350.0))
        detections = detect_from_series(series, interval)
        assert detections and detections[0].period_s == pytest.approx(period, rel=0.1)

    def test_validation(self):
        with pytest.raises(ScenarioError):
            detect_periods([1.0] * 64, 0.0)
        with pytest.raises(ScenarioError):
            detect_periods([1.0] * 64, 1.0, min_cycles=1)

    def test_periods_map_to_recommendations(self):
        t = np.arange(400) * 0.1
        values = np.where(np.mod(t, 4.0) / 4.0 < 0.25, 500.0, 10.0)
        detections = detect_periods(values, 0.1)
        recommendations = recommend_for_periods(detections)
        assert recommendations
        assert recommendations[0].action == "burst-absorb"
        sub_second = detect_periods(
            np.where(np.mod(np.arange(200) * 0.05, 0.5) < 0.15, 300.0, 5.0), 0.05
        )
        actions = {r.action for r in recommend_for_periods(sub_second)}
        assert "collective-buffering" in actions

    def test_low_confidence_filtered_from_recommendations(self):
        rng = np.random.default_rng(5)
        detections = detect_periods(rng.normal(100, 10, 256), 0.25)
        assert recommend_for_periods(detections, min_confidence=0.5) == []


class TestScenarioCLI:
    @pytest.fixture()
    def grammar_file(self, tmp_path):
        path = tmp_path / "grammar.toml"
        path.write_text(GRAMMAR)
        return str(path)

    def test_expand_prints_stable_json(self, grammar_file, capsys):
        assert scenario_main(["--grammar", grammar_file, "--expand", "3", "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert scenario_main(["--grammar", grammar_file, "--expand", "3", "--seed", "5"]) == 0
        assert capsys.readouterr().out == first
        assert len(first.strip().splitlines()) == 3

    def test_compile_writes_campaign_toml(self, grammar_file, tmp_path, capsys):
        out = tmp_path / "sweep.toml"
        assert scenario_main(
            ["--grammar", grammar_file, "--compile", "3", "--out", str(out)]
        ) == 0
        text = out.read_text()
        assert "[campaign]" in text and "scenario-families" in text

    def test_synthesize_then_diagnose(self, grammar_file, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        # seed chosen so derivation 0 is periodic (weight-3 bursty family)
        assert scenario_main(
            ["--grammar", grammar_file, "--synthesize", "0", "--seed", "0",
             "--out", str(trace)]
        ) == 0
        payload = json.loads(trace.read_text())
        assert payload["planted_period_s"] is not None
        capsys.readouterr()
        assert scenario_main(["--diagnose", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "periodic phase(s) detected" in out
        assert "recommendation(s):" in out

    def test_diagnose_aperiodic_reports_nothing(self, tmp_path, capsys):
        trace = tmp_path / "flat.json"
        rng = np.random.default_rng(1)
        trace.write_text(json.dumps(
            {"interval_s": 0.25, "values": list(rng.normal(100, 5, 128))}
        ))
        assert scenario_main(["--diagnose", str(trace)]) == 0
        assert "no periodic I/O detected" in capsys.readouterr().out

    def test_run_drains_campaign(self, grammar_file, tmp_path, capsys):
        assert scenario_main(
            ["--grammar", grammar_file, "--run", "2", "--seed", "7",
             "--store", str(tmp_path / "c.db"), "--db", str(tmp_path / "k.db"),
             "--workspace", str(tmp_path / "ws"),
             "--metrics-json", str(tmp_path / "m.json")]
        ) == 0
        out = capsys.readouterr().out
        assert "drained" in out and "FAILED" not in out
        metrics = json.loads((tmp_path / "m.json").read_text())
        assert "scenario.expansions_total" in metrics["counters"]

    def test_grammar_required_for_expand(self, capsys):
        assert scenario_main(["--expand", "3"]) == 2
        assert "--grammar" in capsys.readouterr().err

    def test_bad_grammar_file_is_an_error(self, tmp_path, capsys):
        assert scenario_main(
            ["--grammar", str(tmp_path / "missing.toml"), "--expand", "1"]
        ) == 1
        assert "error" in capsys.readouterr().err
