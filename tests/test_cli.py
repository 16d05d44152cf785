"""Command-line surface tests: parsing, report shape, exit codes, determinism."""

import io
import json
import os
import random
import subprocess
import sys
import time

import networkx as nx
import pytest

import coverideal
from coverideal import cli, lp
from coverideal.cli import CLIError, main, parse_edge_list, parse_graph6
from coverideal.graphs import build_graph, family, kneser_graph


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    return code, json.loads(out), err


class TestEdgeListParsing:
    def test_round_trip(self):
        G = parse_edge_list("3 2\n0 1\n1 2\n")
        assert (G.n, G.m) == (3, 2)
        assert G.edges() == [(0, 1), (1, 2)]

    def test_comments_and_blanks_ignored(self):
        G = parse_edge_list("# a triangle\n\n3 3\n0 1\n\n1 2\n# middle\n0 2\n")
        assert (G.n, G.m) == (3, 3)

    @pytest.mark.parametrize(
        "text",
        ["", "3\n", "2 1\n", "2 1\n0 1 2\n", "2 1\n0 x\n", "2 2\n0 1\n0 1\n", "2 1\n0 5\n"],
        ids=["empty", "short_header", "missing_edge", "triple", "non_int", "dup_edge", "out_of_range"],
    )
    def test_bad_inputs(self, text):
        with pytest.raises(CLIError):
            parse_edge_list(text)


class TestGraph6Parsing:
    def test_header_form_matches_bare(self):
        bare = parse_graph6("DQc")
        with_header = parse_graph6(">>graph6<<DQc")
        assert bare == with_header

    def test_matches_reference_encoder_on_random_graphs(self):
        rng = random.Random(20260815)
        for _ in range(20):
            n = rng.randint(1, 12)
            H = nx.Graph()
            H.add_nodes_from(range(n))
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.4:
                        H.add_edge(i, j)
            text = nx.to_graph6_bytes(H, header=False).decode().strip()
            G = parse_graph6(text)
            assert G.n == n
            assert set(map(frozenset, G.edges())) == set(map(frozenset, H.edges()))

    def test_long_form_sizes(self):
        for n in (63, 80):
            H = nx.path_graph(n)
            text = nx.to_graph6_bytes(H, header=False).decode().strip()
            G = parse_graph6(text)
            assert (G.n, G.m) == (n, n - 1)

    @pytest.mark.parametrize(
        "text",
        ["", ">>graph6<<", "D\x1f", "DQ", "DQcc"],
        ids=["empty", "header_only", "bad_char", "truncated", "overlong"],
    )
    def test_bad_inputs(self, text):
        with pytest.raises(CLIError):
            parse_graph6(text)


class TestInvariantsCommand:
    def test_cycle9(self, capsys):
        code, report, _ = run_json(capsys, "invariants", "--builtin", "cycle:9")
        assert code == 0
        assert report["command"] == "invariants"
        assert report["inputs"]["graph"] == "builtin:cycle:9"
        res = report["results"]
        assert res["n"] == 9 and res["m"] == 9
        assert res["chi"] == 3
        assert res["critical"] is True
        assert res["failing_vertices"] == []
        assert res["chi_f"] == "9/4"
        assert res["chi_f_window"] is True

    def test_complete4_bfold(self, capsys):
        code, report, _ = run_json(
            capsys, "invariants", "--builtin", "complete:4", "--bfold", "2"
        )
        assert code == 0
        assert report["results"]["chi_b"] == [[2, 8]]

    def test_antihole7(self, capsys):
        code, report, _ = run_json(capsys, "invariants", "--builtin", "antihole:7")
        assert code == 0
        assert report["results"]["chi"] == 4
        assert report["results"]["chi_f"] == "7/2"

    def test_bfold_list_sorted_and_deduped(self, capsys):
        code, report, _ = run_json(
            capsys, "invariants", "--builtin", "cycle:5", "--bfold", "3,1,3"
        )
        assert code == 0
        assert report["results"]["chi_b"] == [[1, 3], [3, 8]]

    def test_bad_bfold(self, capsys):
        code, out, err = run_cli(
            capsys, "invariants", "--builtin", "cycle:5", "--bfold", "0"
        )
        assert code == 2
        assert out == "" and "error:" in err

    def test_human_output_lines(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "--builtin", "cycle:9")
        assert code == 0
        lines = out.splitlines()
        assert "command = invariants" in lines
        assert "results.chi = 3" in lines
        assert "results.critical = true" in lines


class TestDecomposeCommand:
    def test_cycle5_power1(self, capsys):
        code, report, _ = run_json(capsys, "decompose", "--builtin", "cycle:5")
        assert code == 0
        res = report["results"]
        assert res["component_count"] == 5
        assert res["components"] == [
            ["x0^1", "x1^1"],
            ["x0^1", "x4^1"],
            ["x1^1", "x2^1"],
            ["x2^1", "x3^1"],
            ["x3^1", "x4^1"],
        ]
        assert res["associated_primes"] == [[0, 1], [0, 4], [1, 2], [2, 3], [3, 4]]

    def test_cycle5_power2_has_full_square(self, capsys):
        code, report, _ = run_json(
            capsys, "decompose", "--builtin", "cycle:5", "--power", "2"
        )
        assert code == 0
        res = report["results"]
        assert res["component_count"] == 11
        assert ["x0^2", "x1^2", "x2^2", "x3^2", "x4^2"] in res["components"]
        assert [0, 1, 2, 3, 4] in res["associated_primes"]

    def test_generator_strings(self, capsys):
        # generators follow the ideal's canonical (exponent-vector) order
        code, report, _ = run_json(capsys, "decompose", "--builtin", "complete:3")
        assert code == 0
        assert report["results"]["generators"] == [
            "x1^1*x2^1",
            "x0^1*x2^1",
            "x0^1*x1^1",
        ]

    def test_single_vertex_path_fails(self, capsys):
        code, out, err = run_cli(capsys, "decompose", "--builtin", "path:1")
        assert code == 2
        assert out == "" and "error:" in err

    def test_bad_power(self, capsys):
        code, _, err = run_cli(
            capsys, "decompose", "--builtin", "cycle:5", "--power", "0"
        )
        assert code == 2 and "error:" in err


class TestVerifyCommand:
    def test_correspondence_cycle5_power2(self, capsys):
        code, report, _ = run_json(
            capsys, "verify", "--builtin", "cycle:5", "--power", "2", "correspondence"
        )
        assert code == 0
        res = report["results"]
        assert res["s"] == 2
        assert res["all_verified"] is True
        assert len(res["components"]) == 11
        assert all(c["verified"] for c in res["components"])

    def test_persistence_cycle7(self, capsys):
        code, report, _ = run_json(
            capsys, "verify", "--builtin", "cycle:7", "persistence"
        )
        assert code == 0
        assert report["results"] == {"s": 1, "holds": True, "missing_primes": []}

    def test_technical_lemma_complete3(self, capsys):
        code, report, _ = run_json(
            capsys,
            "verify",
            "--builtin",
            "complete:3",
            "technical-lemma",
            "--W",
            "0",
            "--b",
            "1",
        )
        assert code == 0
        res = report["results"]
        assert res == {
            "W": [0],
            "b": 1,
            "expansion_bfold_chromatic": 4,
            "member": True,
        }

    def test_technical_lemma_requires_W_and_b(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--builtin", "complete:3", "technical-lemma"
        )
        assert code == 2 and "error:" in err

    def test_technical_lemma_range_checked(self, capsys):
        code, _, err = run_cli(
            capsys,
            "verify",
            "--builtin",
            "complete:3",
            "technical-lemma",
            "--W",
            "7",
            "--b",
            "1",
        )
        assert code == 2 and "error:" in err


class TestConjectureCommand:
    def test_cycle5(self, capsys):
        code, report, _ = run_json(capsys, "conjecture", "--builtin", "cycle:5")
        assert code == 0
        res = report["results"]
        assert res["found"] is True
        assert res["exhausted"] is False
        assert res["witness"]["W"] == [0, 2]
        assert res["witness"]["maximal_independent"] is True
        assert res["witness"]["expanded_chi"] == 4
        assert res["witness"]["expanded_critical"] is True

    def test_mycielski_cycle9(self, capsys):
        code, report, _ = run_json(
            capsys, "conjecture", "--builtin", "mycielski-cycle:9"
        )
        assert code == 0
        res = report["results"]
        assert res["found"] is True
        assert res["witness"]["W"] == [0, 2, 4, 6, 9, 11, 13, 15]
        assert res["witness"]["expanded_chi"] == 5

    def test_even_cycle_rejected(self, capsys):
        code, out, err = run_cli(capsys, "conjecture", "--builtin", "cycle:6")
        assert code == 2
        assert out == "" and "error:" in err

    def test_mode_flag(self, capsys):
        code, report, _ = run_json(
            capsys, "conjecture", "--builtin", "complete:3", "--mode", "all-subsets"
        )
        assert code == 0
        assert report["results"]["found"] is True


class TestInputChannels:
    def test_edge_list_file(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
        code, report, _ = run_json(capsys, "invariants", "--edge-list", str(path))
        assert code == 0
        assert report["inputs"]["graph"] == f"edge-list:{path}"
        assert report["results"]["chi"] == 3

    def test_edge_list_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("3 3\n0 1\n1 2\n0 2\n"))
        code, report, _ = run_json(capsys, "invariants", "--edge-list", "-")
        assert code == 0
        assert report["results"]["chi"] == 3

    def test_lp_set_limit_exits_2(self, capsys, tmp_path):
        # Kneser K(7,3): 35 vertices, 70 edges and 6,127 maximal independent sets.
        G = kneser_graph(7, 3)
        path = tmp_path / "k73.txt"
        path.write_text(f"{G.n} {G.m}\n" + "".join(f"{u} {v}\n" for u, v in G.edges()))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "invariants", "--edge-list", str(path))
        assert time.perf_counter() - start < 30
        assert code == 2 and out == ""
        assert err == f"error: 6127 sets exceed the exact LP's limit of {lp._SET_LIMIT} sets\n"

    def test_missing_edge_list_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "invariants", "--edge-list", str(tmp_path / "nope.txt")
        )
        assert code == 2 and "error:" in err

    def test_graph6_flag(self, capsys):
        text = nx.to_graph6_bytes(nx.cycle_graph(5), header=False).decode().strip()
        code, report, _ = run_json(capsys, "invariants", "--graph6", text)
        assert code == 0
        assert report["results"]["chi"] == 3
        assert report["results"]["critical"] is True

    def test_bad_graph6(self, capsys):
        code, _, err = run_cli(capsys, "invariants", "--graph6", "D")
        assert code == 2 and "error:" in err

    def test_graph_without_vertices(self, capsys):
        code, out, err = run_cli(capsys, "invariants", "--graph6", "?")
        assert code == 2
        assert out == "" and err.startswith("error:")

    def test_exactly_one_input_required(self, capsys):
        code, _, _ = run_cli(capsys, "invariants")
        assert code == 2

    def test_bad_builtin(self, capsys):
        for spec in ("wheel:5", "cycle", "cycle:x", "cycle:2"):
            code, _, err = run_cli(capsys, "invariants", "--builtin", spec)
            assert code == 2, spec


class TestReportDiscipline:
    def test_byte_identical_reruns(self, capsys):
        first = run_cli(capsys, "decompose", "--builtin", "cycle:5", "--power", "2", "--json")
        second = run_cli(capsys, "decompose", "--builtin", "cycle:5", "--power", "2", "--json")
        assert first == second

    def test_no_timing_by_default(self, capsys):
        _, report, _ = run_json(capsys, "invariants", "--builtin", "cycle:5")
        assert "timing_ms" not in report

    def test_timing_flag_adds_field(self, capsys):
        code, out, _ = run_cli(
            capsys, "invariants", "--builtin", "cycle:5", "--timing", "--json"
        )
        report = json.loads(out)
        assert code == 0
        assert isinstance(report["timing_ms"], float)

    def test_json_keys_sorted(self, capsys):
        _, out, _ = run_cli(capsys, "invariants", "--builtin", "cycle:5", "--json")
        parsed = json.loads(out)
        assert out == json.dumps(parsed, sort_keys=True, indent=2) + "\n"

    def test_help_exits_zero(self, capsys):
        code, _, _ = run_cli(capsys, "--help")
        assert code == 0


class TestInternalErrors:
    def test_unexpected_exception_exits_3(self, capsys, monkeypatch):
        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._HANDLERS, "invariants", boom)
        code, out, err = run_cli(capsys, "invariants", "--builtin", "cycle:5")
        assert code == 3
        assert out == ""
        assert err == "internal error: RuntimeError: boom\n"


class TestConsoleEntryPoint:
    def test_module_invocation(self):
        # The child must import the package this suite imported, installed or not.
        package_root = os.path.dirname(os.path.dirname(coverideal.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_root, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "coverideal", "invariants", "--builtin", "cycle:9", "--json"],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["results"]["chi"] == 3
        assert report["results"]["critical"] is True
