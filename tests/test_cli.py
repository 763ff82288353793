"""CLI tests (python -m repro ...), run in-process via main()."""

import numpy as np
import pytest

from repro.cli import main
from repro.io.mmio import read_mm, write_mm

from .conftest import make_biedgelist, PAPER_MEMBERS


@pytest.fixture
def mtx(tmp_path):
    path = tmp_path / "example.mtx"
    write_mm(path, make_biedgelist(PAPER_MEMBERS, num_nodes=9))
    return str(path)


def run(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


class TestStats:
    def test_basic(self, capsys, mtx):
        out = run(capsys, "stats", mtx)
        assert "hypernodes      9" in out
        assert "hyperedges      4" in out
        assert "max edge size   6" in out

    def test_unsupported_format(self, tmp_path):
        bad = tmp_path / "x.parquet"
        bad.write_text("")
        with pytest.raises(SystemExit, match="unsupported input"):
            main(["stats", str(bad)])


class TestConvert:
    def test_mtx_to_hygra_roundtrip(self, capsys, mtx, tmp_path):
        hygra = tmp_path / "out.hygra"
        back = tmp_path / "back.mtx"
        run(capsys, "convert", mtx, str(hygra))
        run(capsys, "convert", str(hygra), str(back))
        assert set(read_mm(back)) == set(read_mm(mtx))

    def test_unsupported_output(self, mtx, tmp_path):
        with pytest.raises(SystemExit, match="unsupported output"):
            main(["convert", mtx, str(tmp_path / "x.bin")])


class TestAlgorithms:
    def test_cc(self, capsys, mtx):
        out = run(capsys, "cc", mtx)
        assert "components      1" in out

    def test_cc_bipartite(self, capsys, mtx):
        out = run(capsys, "cc", mtx, "--representation", "bipartite")
        assert "components      1" in out

    def test_bfs(self, capsys, mtx):
        out = run(capsys, "bfs", mtx, "--source", "2")
        assert "reached         4 hyperedges, 9 hypernodes" in out
        assert "max distance    2" in out

    def test_bfs_edge_source(self, capsys, mtx):
        out = run(capsys, "bfs", mtx, "--source", "0", "--edge")
        assert "reached         4 hyperedges" in out

    def test_slinegraph(self, capsys, mtx, tmp_path):
        out_path = tmp_path / "lg.mtx"
        out = run(capsys, "slinegraph", mtx, "-s", "2", "-o", str(out_path))
        assert "s=2 line graph: 4 vertices, 4 edges" in out
        lg = read_mm(out_path)
        assert len(lg) == 4

    def test_slinegraph_algorithm_choice(self, capsys, mtx):
        out = run(capsys, "slinegraph", mtx, "-s", "3",
                  "--algorithm", "queue_intersection")
        assert "4 vertices, 1 edges" in out

    def test_metrics(self, capsys, mtx):
        out = run(capsys, "metrics", mtx, "-s", "1", "2")
        assert "s=1:" in out and "s=2:" in out
        assert "components" in out

    def test_dot_export(self, capsys, mtx, tmp_path):
        out = run(capsys, "dot", mtx)
        assert out.startswith("graph hypergraph {")
        dot_path = tmp_path / "lg.dot"
        out = run(capsys, "dot", mtx, "--linegraph", "-s", "2",
                  "-o", str(dot_path))
        assert "wrote" in out
        assert dot_path.read_text().startswith("graph slinegraph_s2")

    def test_csv_roundtrip(self, capsys, mtx, tmp_path):
        csv_path = tmp_path / "h.csv"
        back = tmp_path / "h2.mtx"
        run(capsys, "convert", mtx, str(csv_path))
        run(capsys, "convert", str(csv_path), str(back))
        assert read_mm(back).num_edges() == read_mm(mtx).num_edges()

    def test_metrics_table(self, capsys, mtx):
        out = run(capsys, "metrics", mtx, "-s", "1", "2", "--table")
        assert "avg dist" in out and "s=2" in out

    def test_toplex(self, capsys, mtx):
        out = run(capsys, "toplex", mtx, "-v")
        assert "toplexes        3 / 4" in out
        assert "edge 1:" in out


class TestUpdate:
    def _ops_file(self, tmp_path, payload):
        import json

        path = tmp_path / "ops.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_single_batch_with_output(self, capsys, mtx, tmp_path):
        import json

        ops = self._ops_file(
            tmp_path,
            [
                {"op": "add_edge", "members": [0, 8]},
                {"op": "remove_edge", "edge": 1},
            ],
        )
        out_path = tmp_path / "updated.mtx"
        out = run(capsys, "update", mtx, "--ops", ops, "-o", str(out_path))
        summary = json.loads(out)
        assert summary["version"] == 1
        assert summary["num_edges"] == 5  # tombstone keeps the ID space
        assert summary["batches"][0]["new_edges"] == [4]
        el = read_mm(out_path)
        assert el.num_vertices(0) == 5

    def test_multiple_batches_with_maintained_linegraphs(
        self, capsys, mtx, tmp_path
    ):
        import json

        ops = self._ops_file(
            tmp_path,
            [
                [{"op": "add_edge", "members": [0, 8]}],
                [{"op": "add_incidence", "edge": 0, "node": 7}],
            ],
        )
        out = run(capsys, "update", mtx, "--ops", ops, "-s", "1", "2")
        summary = json.loads(out)
        assert [b["version"] for b in summary["batches"]] == [1, 2]
        for batch in summary["batches"]:
            assert set(batch["linegraphs"]) == {"1", "2"}
            assert set(batch["linegraphs"].values()) <= {"patch", "rebuild"}

    def test_inapplicable_batch_exits(self, mtx, tmp_path):
        ops = self._ops_file(tmp_path, [{"op": "remove_edge", "edge": 99}])
        with pytest.raises(SystemExit, match="batch 0"):
            main(["update", mtx, "--ops", ops])

    def test_bad_ops_file(self, mtx, tmp_path):
        bad = tmp_path / "ops.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit, match="cannot read ops file"):
            main(["update", mtx, "--ops", str(bad)])

    def test_empty_ops_rejected(self, mtx, tmp_path):
        ops = self._ops_file(tmp_path, [])
        with pytest.raises(SystemExit, match="non-empty"):
            main(["update", mtx, "--ops", ops])


class TestGenerateAndTable:
    def test_generate_uniform(self, capsys, tmp_path):
        out_path = tmp_path / "gen.mtx"
        out = run(capsys, "generate", "uniform", "-o", str(out_path),
                  "--edges", "20", "--nodes", "30", "--mean-size", "4",
                  "--seed", "1")
        assert "wrote" in out
        el = read_mm(out_path)
        assert el.num_vertices(0) == 20

    def test_generate_standin(self, capsys, tmp_path):
        out_path = tmp_path / "r.hygra"
        run(capsys, "generate", "rand1", "-o", str(out_path))
        assert out_path.exists()

    def test_table1(self, capsys):
        out = run(capsys, "table1")
        assert "rand1" in out and "com-orkut" in out

    def test_trace_export(self, capsys, mtx, tmp_path):
        out_path = tmp_path / "t.json"
        out = run(capsys, "trace", mtx, "-o", str(out_path),
                  "--algorithm", "cc", "--threads", "4")
        assert "wrote" in out
        import json

        doc = json.loads(out_path.read_text())
        assert doc["traceEvents"]

    def test_bench_figures(self, capsys):
        out = run(capsys, "bench", "--figure", "7",
                  "--dataset", "orkut-group", "--threads", "1", "4")
        assert "AdjoinCC" in out and "t=4" in out
        out = run(capsys, "bench", "--figure", "9",
                  "--dataset", "rand1", "--threads", "8", "-s", "2")
        assert "Hashmap" in out

    def test_bench_json_surfaces_backend(self, capsys):
        import json

        out = run(capsys, "bench", "--figure", "7",
                  "--dataset", "orkut-group", "--threads", "1", "2",
                  "--backend", "threaded", "--workers", "2", "--json")
        doc = json.loads(out)
        assert doc["backend"] == "threaded" and doc["workers"] == 2
        assert doc["results"][0]["points"][0]["threads"] == 1


class TestJsonOutput:
    """--json must emit valid JSON: no numpy scalars may leak through."""

    def test_stats_json(self, capsys, mtx):
        import json

        doc = json.loads(run(capsys, "stats", mtx, "--json"))
        assert doc["num_edges"] == 4 and doc["num_nodes"] == 9
        assert doc["edge_size_dist"] == {"3": 2, "4": 1, "6": 1}
        assert isinstance(doc["avg_node_degree"], float)

    def test_metrics_json(self, capsys, mtx):
        import json

        doc = json.loads(run(capsys, "metrics", mtx, "-s", "1", "2", "--json"))
        assert set(doc) == {"1", "2"}
        assert doc["1"]["num_edges"] == 6
        assert isinstance(doc["2"]["num_components"], int)


class TestServeAndQuery:
    """`repro serve` + `repro query` round-trip, server run in a thread."""

    @pytest.fixture
    def live_server(self, mtx):
        from repro.service import AsyncAnalyticsServer, QueryEngine

        engine = QueryEngine()
        engine.store.register("paper", mtx)
        with AsyncAnalyticsServer(engine) as server:
            yield server.address

    def test_query_round_trip(self, capsys, live_server):
        import json

        host, port = live_server
        out = run(capsys, "query", "--connect", f"{host}:{port}",
                  '{"op": "s_distance", "dataset": "paper", '
                  '"s": 2, "src": 0, "dst": 2}')
        assert json.loads(out)["result"] == 2

    def test_query_batch_from_stdin(self, capsys, live_server, monkeypatch):
        import io
        import json

        host, port = live_server
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO('{"op": "datasets"}\n'
                        '{"op": "stats", "dataset": "paper"}\n'),
        )
        out = run(capsys, "query", "--connect", f"{host}:{port}", "--batch")
        lines = [json.loads(ln) for ln in out.splitlines()]
        assert lines[0]["result"] == ["paper"]
        assert lines[1]["result"]["num_edges"] == 4

    def test_failed_query_sets_exit_code(self, capsys, live_server):
        host, port = live_server
        rc = main(["query", "--connect", f"{host}:{port}",
                   '{"op": "frobnicate"}'])
        assert rc == 1
        assert "unknown op" in capsys.readouterr().out

    def test_query_batch_backend(self, capsys, live_server):
        import json

        host, port = live_server
        out = run(capsys, "query", "--connect", f"{host}:{port}", "--batch",
                  "--backend", "threaded", "--workers", "2",
                  '{"op": "stats", "dataset": "paper"}')
        assert json.loads(out)["result"]["num_edges"] == 4

    def test_query_backend_requires_batch(self, live_server):
        host, port = live_server
        with pytest.raises(SystemExit, match="--batch"):
            main(["query", "--connect", f"{host}:{port}",
                  "--backend", "threaded", '{"op": "datasets"}'])

    def test_bad_connect_spec(self):
        with pytest.raises(SystemExit, match="HOST:PORT"):
            main(["query", "--connect", "nope", '{"op": "datasets"}'])

    def test_bad_query_json(self, live_server):
        host, port = live_server
        with pytest.raises(SystemExit, match="bad query"):
            main(["query", "--connect", f"{host}:{port}", "{not json"])

    def test_serve_frontend_is_async_only(self, capsys):
        from repro.cli import build_parser

        parser = build_parser()
        assert parser.parse_args(["serve"]).frontend == "async"
        args = parser.parse_args(["serve", "--frontend", "async"])
        assert args.frontend == "async"
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["serve", "--frontend", "threaded"])
        assert exc.value.code == 2
        assert "invalid choice: 'threaded'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "--figure", "9"],
            ["serve"],
            ["query", "--connect", "127.0.0.1:1", "--batch"],
        ],
        ids=["bench", "serve", "query"],
    )
    def test_backend_process_is_an_argparse_error(self, capsys, argv):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*argv, "--backend", "process"])
        assert exc.value.code == 2
        assert "invalid choice: 'process'" in capsys.readouterr().err

    def test_serve_runs_the_async_door(self, mtx):
        """`repro serve` with no --frontend: banner, a query, clean ^C."""
        import os
        import re
        import signal
        import subprocess
        import sys

        from repro.service import SocketSession

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--dataset", f"paper={mtx}"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
            cwd=root,
        )
        try:
            banner = proc.stdout.readline()
            m = re.search(r"serving .* on ([\d.]+):(\d+)", banner)
            assert m, banner
            assert "(frontend=async," in banner
            with SocketSession(m.group(1), int(m.group(2))) as session:
                assert session.query("datasets")["result"] == ["paper"]
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            proc.stdout.close()
