"""Tests for the repro-extract / repro-explore / repro-ior CLIs."""

import sqlite3

import pytest

from repro.benchmarks_io.ior import parse_command, render_ior_output, run_ior
from repro.core.explorer.cli import main as explore_main
from repro.core.extraction.cli import main as extract_main
from repro.core.persistence import KnowledgeDatabase, KnowledgeRepository
from repro.iostack.stack import Testbed


@pytest.fixture()
def run_dir(tmp_path):
    tb = Testbed.fuchs_csc(seed=71)
    cfg = parse_command("ior -a mpiio -b 4m -t 2m -s 4 -F -i 3 -o /scratch/cli/t -k")
    res = run_ior(cfg, tb, num_nodes=2, tasks_per_node=10)
    d = tmp_path / "000000_run" / "work"
    d.mkdir(parents=True)
    (d / "ior_output.txt").write_text(render_ior_output(res))
    return tmp_path


class TestExtractCLI:
    def test_extract_path(self, run_dir, capsys):
        assert extract_main([str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "extracted 1 knowledge object(s)" in out
        assert "ior knowledge: 20 tasks" in out

    def test_extract_to_db_json_csv(self, run_dir, tmp_path, capsys):
        db = tmp_path / "k.db"
        js = tmp_path / "k.json"
        cs = tmp_path / "k.csv"
        rc = extract_main(
            [str(run_dir), "--db", str(db), "--json", str(js), "--csv", str(cs), "--quiet"]
        )
        assert rc == 0
        assert db.exists() and js.exists() and cs.exists()
        with KnowledgeDatabase(db) as kdb:
            assert KnowledgeRepository(kdb).list_ids() == [1]

    def test_db_writes_go_through_the_resilient_backend(self, run_dir, tmp_path, monkeypatch):
        # One transient "database is locked" on the first knowledge row
        # is retried by the backend instead of failing the extraction.
        db = tmp_path / "k.db"
        faults = ["database is locked"]
        real = KnowledgeDatabase.execute

        def flaky(self, sql, params=()):
            if "INSERT INTO performances" in sql and faults:
                raise sqlite3.OperationalError(faults.pop())
            return real(self, sql, params)

        monkeypatch.setattr(KnowledgeDatabase, "execute", flaky)
        assert extract_main([str(run_dir), "--db", str(db), "--quiet"]) == 0
        assert faults == []
        monkeypatch.undo()
        with KnowledgeDatabase(db) as kdb:
            assert KnowledgeRepository(kdb).list_ids() == [1]

    def test_workspace_mode(self, run_dir, capsys):
        assert extract_main(["--workspace", str(run_dir)]) == 0

    def test_no_path_no_workspace(self, capsys):
        assert extract_main([]) == 1
        assert "error:" in capsys.readouterr().err

    def test_empty_directory(self, tmp_path, capsys):
        assert extract_main([str(tmp_path)]) == 1


class TestExploreCLI:
    @pytest.fixture()
    def db_path(self, run_dir, tmp_path):
        db = tmp_path / "k.db"
        extract_main([str(run_dir), "--db", str(db), "--quiet"])
        return db

    def test_list(self, db_path, capsys):
        assert explore_main([str(db_path), "--list"]) == 0
        assert "1 knowledge object(s): [1]" in capsys.readouterr().out

    def test_view_with_chart(self, db_path, tmp_path, capsys):
        svg = tmp_path / "c.svg"
        assert explore_main([str(db_path), "--view", "1", "--chart", str(svg)]) == 0
        out = capsys.readouterr().out
        assert "Summary:" in out
        assert svg.exists()

    def test_view_missing(self, db_path, capsys):
        assert explore_main([str(db_path), "--view", "42"]) == 1

    def test_compare_single_db(self, db_path, capsys):
        assert explore_main([str(db_path), "--compare", "1"]) == 0
        assert "bw_mean" in capsys.readouterr().out

    def test_chart_without_view(self, db_path, tmp_path, capsys):
        assert explore_main([str(db_path), "--chart", str(tmp_path / "x.svg")]) == 2


class TestIORCLI:
    def test_runs_and_prints(self, capsys):
        from repro.benchmarks_io.ior.cli import main as ior_main

        rc = ior_main(["-a", "posix", "-b", "2m", "-t", "1m", "-i", "1",
                       "-o", "/scratch/cli2/t", "-w", "-N", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Max Write:" in out


class TestIO500CLI:
    def test_runs_and_prints(self, capsys):
        from repro.benchmarks_io.io500.runner import main as io500_main

        rc = io500_main(["-N", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[SCORE ]" in out


class TestCycleCLI:
    def test_default_demo(self, tmp_path, capsys):
        from repro.core.cycle import main as cycle_main

        rc = cycle_main(["--workspace", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "revolution 1/1" in out
        assert "[recommendation]" in out

    def test_custom_config_and_db(self, tmp_path, capsys):
        from repro.core.cycle import main as cycle_main
        from repro.core.persistence import KnowledgeDatabase, KnowledgeRepository

        xml = tmp_path / "cfg.xml"
        xml.write_text("""
        <jube><benchmark name="c" outpath="x">
          <parameterset name="p">
            <parameter name="command">ior -a posix -b 2m -t 1m -i 1 -o /scratch/cc/t -w -k</parameter>
            <parameter name="nodes">1</parameter>
            <parameter name="taskspernode">4</parameter>
          </parameterset>
          <step name="run" work="ior"><use>p</use></step>
        </benchmark></jube>
        """)
        db = tmp_path / "c.db"
        rc = cycle_main(["--config", str(xml), "--workspace", str(tmp_path / "ws"),
                         "--db", str(db), "--repeat", "2"])
        assert rc == 0
        assert "revolution 2/2" in capsys.readouterr().out
        with KnowledgeDatabase(db) as kdb:
            assert len(KnowledgeRepository(kdb).list_ids()) == 2

    def test_missing_config(self, tmp_path, capsys):
        from repro.core.cycle import main as cycle_main

        assert cycle_main(["--config", str(tmp_path / "nope.xml")]) == 1

    def test_bad_repeat(self, capsys):
        from repro.core.cycle import main as cycle_main

        assert cycle_main(["--repeat", "0"]) == 2

    def test_modules_selection(self, tmp_path, capsys):
        from repro.core.cycle import main as cycle_main

        rc = cycle_main(
            ["--workspace", str(tmp_path), "--modules", "anomaly-detection"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "[anomaly-detection]" in out
        assert "[recommendation]" not in out

    def test_modules_unknown_lists_available(self, tmp_path, capsys):
        from repro.core.cycle import main as cycle_main

        rc = cycle_main(["--workspace", str(tmp_path), "--modules", "nope,also-nope"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown use-case module(s)" in err
        assert "anomaly-detection" in err and "recommendation" in err

    def test_modules_empty_rejected(self, tmp_path, capsys):
        from repro.core.cycle import main as cycle_main

        assert cycle_main(["--workspace", str(tmp_path), "--modules", " , "]) == 2
        assert "at least one module name" in capsys.readouterr().err

    def test_timings_flag(self, tmp_path, capsys):
        from repro.core.cycle import main as cycle_main

        assert cycle_main(["--workspace", str(tmp_path), "--timings"]) == 0
        out = capsys.readouterr().out
        for phase in ("generation", "extraction", "persistence", "analysis", "usage"):
            assert f"[timing] {phase}:" in out


class TestExploreDiff:
    def test_diff_two_runs(self, tmp_path, capsys):
        from repro.benchmarks_io.ior import parse_command, render_ior_output, run_ior
        from repro.core.extraction.cli import main as extract_main
        from repro.core.explorer.cli import main as explore_main
        from repro.iostack.stack import Testbed

        tb = Testbed.fuchs_csc(seed=72)
        for i, xfer in enumerate(("1m", "2m")):
            d = tmp_path / f"00000{i}_run" / "work"
            d.mkdir(parents=True)
            res = run_ior(
                parse_command(f"ior -a mpiio -b 4m -t {xfer} -s 4 -F -i 2 -o /scratch/df/t{i} -k"),
                tb, 1, 8, run_id=i,
            )
            (d / "ior_output.txt").write_text(render_ior_output(res))
        db = tmp_path / "k.db"
        extract_main([str(tmp_path), "--db", str(db), "--quiet"])
        capsys.readouterr()
        assert explore_main([str(db), "--diff", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "Configuration changes:" in out
        assert "xfersize" in out
        assert "write.bw_mean" in out


class TestServeSizingFlags:
    @pytest.mark.parametrize("flag", ["--queue"])
    @pytest.mark.parametrize("target", ["listen", "tcp-url"])
    def test_queue_flags_refused_where_no_queue_exists(self, tmp_path, capsys,
                                                       flag, target):
        from repro.core.service.serve import main as serve_main

        if target == "listen":
            argv = [str(tmp_path / "store"), "--listen", "127.0.0.1:0"]
        else:
            argv = ["knowledge+tcp://127.0.0.1:9/"]
        assert serve_main(argv + [flag, "3"]) == 2
        err = capsys.readouterr().err
        assert f"error: {flag} sizes the embedded service's in-flight cap" in err
        assert not (tmp_path / "store").exists()  # refused before any work

    @pytest.mark.parametrize("flags,sizing", [
        ([], (64,)),
        (["--queue", "5"], (5,)),
    ])
    def test_queue_flags_size_an_embedded_store(self, tmp_path, monkeypatch,
                                                flags, sizing):
        from repro.core.service import serve

        opened = []

        def spy(*args, **kwargs):
            service = real_open(*args, **kwargs)
            opened.append((service.queue_size,))
            return service

        real_open = serve.open_service
        monkeypatch.setattr(serve, "open_service", spy)
        assert serve.main([str(tmp_path / "store"), "--shards", "1"] + flags) == 0
        assert opened == [sizing]
