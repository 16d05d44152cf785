"""Command-line surface tests: parsing, report shape, exit codes, determinism."""

import hashlib
import inspect
import io
import json
import os
import random
import subprocess
import sys
import time

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

import coverideal
from conftest import graphs
from coverideal import cli, lp
from coverideal.cli import CLIError, main, parse_builtin, parse_edge_list, parse_graph6
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


# Arbitrary text with the pieces both formats look for mixed in.
_PARSER_TEXT = st.lists(
    st.one_of(
        st.text(max_size=12),
        st.sampled_from(["~", ">>graph6<<", "#", "\n", " ", "0", "1", "2", "-", "?", "DQc"]),
    ),
    max_size=12,
).map("".join)


class TestParserFuzz:
    @given(_PARSER_TEXT)
    def test_edge_list_parses_or_raises_cli_error(self, text):
        try:
            parse_edge_list(text)
        except CLIError:
            pass

    @given(_PARSER_TEXT)
    def test_graph6_parses_or_raises_cli_error(self, text):
        try:
            parse_graph6(text)
        except CLIError:
            pass

    @given(graphs(min_n=0), st.randoms(use_true_random=False))
    def test_edge_list_round_trip(self, G, rng):
        edges = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in G.edges()]
        rng.shuffle(edges)
        lines = [f"{G.n} {G.m}"] + [f"{u} {v}" for u, v in edges]
        assert parse_edge_list("\n".join(lines) + "\n") == G


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

    def test_technical_lemma_ignores_power(self, capsys):
        lemma = ("verify", "--builtin", "cycle:5", "technical-lemma", "--W", "0", "--b", "1")
        code, out, err = run_cli(capsys, *lemma, "--power", "0")
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, *lemma)[1]

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

    def test_kneser_7_3_answers(self, capsys, tmp_path):
        # 35 vertices, 70 edges and 6,127 maximal independent sets.
        G = kneser_graph(7, 3)
        path = tmp_path / "k73.txt"
        path.write_text(f"{G.n} {G.m}\n" + "".join(f"{u} {v}\n" for u, v in G.edges()))
        code, report, _ = run_json(capsys, "invariants", "--edge-list", str(path))
        assert code == 0
        results = report["results"]
        assert (results["chi"], results["chi_f"], results["chi_f_window"]) == (3, "7/3", True)

    def test_lp_set_limit_exits_2(self, capsys, tmp_path):
        # Ten disjoint triangles: 30 vertices, 30 edges and 3^10 = 59,049
        # maximal independent sets.
        edges = [(3 * i + a, 3 * i + b) for i in range(10) for a, b in ((0, 1), (0, 2), (1, 2))]
        path = tmp_path / "triangles.txt"
        path.write_text("30 30\n" + "".join(f"{u} {v}\n" for u, v in edges))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "invariants", "--edge-list", str(path))
        assert time.perf_counter() - start < 30
        assert code == 2 and out == ""
        assert err == f"error: 59049 sets exceed the exact LP's limit of {lp._SET_LIMIT} sets\n"

    def test_missing_edge_list_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "invariants", "--edge-list", str(tmp_path / "nope.txt")
        )
        assert code == 2 and "error:" in err

    def test_undecodable_edge_list_file(self, capsys, tmp_path):
        path = tmp_path / "bytes.txt"
        path.write_bytes(b"\xff\xfe")
        code, out, err = run_cli(capsys, "invariants", "--edge-list", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: cannot read edge list: ") and err.count("\n") == 1

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
        for spec in ("wheel:5", "cycle", "cycle:x", "cycle:2", "path:0"):
            code, _, err = run_cli(capsys, "invariants", "--builtin", spec)
            assert code == 2, spec

    @pytest.mark.parametrize(
        "argv,stdin,n",
        [
            (["--edge-list", "-"], "2000000 0\n", 2000000),
            (["--edge-list", "-"], "99999999 0\n", 99999999),
            (["--builtin", "cycle:1001"], "", 1001),
            (["--builtin", "mycielski-cycle:500"], "", 1001),
            # Long-form graph6 header for n = 1001, with no body.
            (["--graph6", "~?Nh"], "", 1001),
        ],
        ids=["edge_list_2e6", "edge_list_1e8", "cycle", "mycielski_cycle", "graph6"],
    )
    def test_vertex_limit_exits_2(self, capsys, monkeypatch, argv, stdin, n):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "invariants", *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err == f"error: {n} vertices exceed the limit of {cli._VERTEX_LIMIT} vertices\n"

    def test_vertex_limit_is_inclusive(self):
        assert parse_builtin(f"cycle:{cli._VERTEX_LIMIT}").n == cli._VERTEX_LIMIT
        assert parse_edge_list(f"{cli._VERTEX_LIMIT} 0\n").n == cli._VERTEX_LIMIT


_DEGENERATE_GRAPHS = {
    "n0": "0 0\n",
    "n1": "1 0\n",
    "two_isolated": "2 0\n",
    "one_edge": "2 1\n0 1\n",
    "edge_and_isolated": "3 1\n0 1\n",
}

_EVERY_COMMAND = {
    "invariants": ["invariants"],
    "invariants_bfold": ["invariants", "--bfold", "1,2"],
    "decompose_1": ["decompose", "--power", "1"],
    "decompose_2": ["decompose", "--power", "2"],
    "correspondence_1": ["verify", "correspondence", "--power", "1"],
    "correspondence_2": ["verify", "correspondence", "--power", "2"],
    "persistence_1": ["verify", "persistence", "--power", "1"],
    "persistence_2": ["verify", "persistence", "--power", "2"],
    "lemma_b1": ["verify", "technical-lemma", "--W", "0", "--b", "1"],
    "lemma_b2": ["verify", "technical-lemma", "--W", "0", "--b", "2"],
    "lemma_edge": ["verify", "technical-lemma", "--W", "0,1", "--b", "1"],
    "conjecture_mis": ["conjecture", "--mode", "maximal-independent-only"],
    "conjecture_all": ["conjecture", "--mode", "all-subsets"],
}


class TestDegenerateGraphs:
    @pytest.mark.parametrize("graph", _DEGENERATE_GRAPHS)
    @pytest.mark.parametrize("command", _EVERY_COMMAND)
    def test_answer_or_usage_error(self, capsys, tmp_path, graph, command):
        path = tmp_path / "g.txt"
        path.write_text(_DEGENERATE_GRAPHS[graph])
        argv = _EVERY_COMMAND[command]
        code, _, err = run_cli(capsys, *argv[:1], "--edge-list", str(path), *argv[1:])
        assert code in (0, 1, 2), err
        assert "internal error:" not in err and "Traceback" not in err


# SHA-256 of each command's --json stdout, then of its human-format stdout.
# Reports are byte-stable, so only an intended change of answer or format
# may change a digest.
_FROZEN_REPORTS = {
    "decompose_mc7_s3": (
        ["decompose", "--builtin", "mycielski-cycle:7", "--power", "3"],
        "d379bdd77a2426ba93965d49bdc3942ed375c79957de29c874e823ccbae9eeef",
        "015f8d51a0a97d4009e054305251842ebf319e59f16b47cb34af05e7cef3ff2d",
    ),
    "decompose_c18_s2": (
        ["decompose", "--builtin", "cycle:18", "--power", "2"],
        "ce72f7bf2cf6a9075dda12ac80b9e17cc7d922fd449b90da54d9ab4cc81bc70e",
        "380df829752921d6c7c7bea1658e1724a44bde66174bdf1fd67a04301c9a8c31",
    ),
    "correspondence_mc5_s3": (
        ["verify", "correspondence", "--builtin", "mycielski-cycle:5", "--power", "3"],
        "c08b678fabfa7a8c0d37a912c21ad64a12a87167a800b3dbb8fb550bb99013be",
        "fd6cc1d5f12092509707a99b9fdee538a2bd4412d3203957f8119517b5616b54",
    ),
    "persistence_mc5_s2": (
        ["verify", "persistence", "--builtin", "mycielski-cycle:5", "--power", "2"],
        "cbf908f3749f5a490d5e52b2b53c6d905303fbb8ec625a9cc3f3c5da9297783f",
        "e8045cee7bc10f2e303f1dfe150c1b6dbb01d93315f0a951c406392f5d40f3eb",
    ),
    "technical_lemma_mc5": (
        ["verify", "technical-lemma", "--builtin", "mycielski-cycle:5",
         "--W", "0,2,5", "--b", "3"],
        "ccb8df77b778edda305b0b50a1fbb153771c77eb0498d74d52414c4e13ef4fe9",
        "6a0c6aaf0adc4edc081d2ef4fe98282e2238a764e62ad5002ee6f8cf40a755fb",
    ),
    "invariants_mc5_bfold": (
        ["invariants", "--builtin", "mycielski-cycle:5", "--bfold", "1,2"],
        "9bd6fb07f4c607867b22394d0ae4c751fca317f2c9fecb9f1d283cba3f5325d7",
        "42d896ce75deddcf35173e419dfc4d29d36c2143ae64d66767c6e30e4b32fe1a",
    ),
    "conjecture_c7": (
        ["conjecture", "--builtin", "cycle:7"],
        "f0b571099a7f8214229f633f98d7782fc1de859df2dc1b6243053d73ffc654b4",
        "87d0549b98113f79cd791cbbf1148d897b21dda9865fd6c9b18431e6ffb755ee",
    ),
    "conjecture_mc9_all": (
        ["conjecture", "--builtin", "mycielski-cycle:9", "--mode", "all-subsets"],
        "c343a0b4862ffa0b34464e9ad5c6ea270fb358c2458276bb41221530f39acb40",
        "ea6b80ff79109a7de02fa6d074b5c726ae6d08871a1d665eb164a8b426593d07",
    ),
}


class TestFrozenReports:
    @pytest.mark.parametrize("name", _FROZEN_REPORTS)
    def test_json_report_digest(self, capsys, name):
        argv, digest, _ = _FROZEN_REPORTS[name]
        code, out, err = run_cli(capsys, *argv, "--json")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("name", _FROZEN_REPORTS)
    def test_human_report_digest(self, capsys, name):
        argv, _, digest = _FROZEN_REPORTS[name]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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

    def test_recursion_limit_exits_2(self, capsys):
        # Colouring complete:300 recurses once per vertex, past a limit set
        # 150 frames above this test's depth.
        old_limit = sys.getrecursionlimit()
        limit = len(inspect.stack(0)) + 150
        sys.setrecursionlimit(limit)
        try:
            code, out, err = run_cli(capsys, "invariants", "--builtin", "complete:300")
        finally:
            sys.setrecursionlimit(old_limit)
        assert code == 2 and out == ""
        assert err == f"error: the input needs more than Python's recursion limit of {limit} frames\n"

    def test_conjecture_fault_exits_3(self, capsys, expansion_fault):
        # An expansion fault must not read as exhausted, which exits 1.
        code, out, err = run_cli(capsys, "conjecture", "--builtin", "cycle:5")
        assert code == 3 and out == ""
        assert err.startswith("internal error:") and err.count("\n") == 1

    LEMMA = ("verify", "--builtin", "cycle:5", "technical-lemma", "--W", "0", "--b", "1")

    def test_lemma_fault_exits_3(self, capsys, monkeypatch):
        def fault(G, W, b):
            raise RuntimeError("simplex certificate fails to cover a point")

        monkeypatch.setattr(cli, "technical_lemma_check", fault)
        code, out, err = run_cli(capsys, *self.LEMMA)
        assert code == 3 and out == ""
        assert err == "internal error: RuntimeError: simplex certificate fails to cover a point\n"

    def test_lemma_recursion_exits_2(self, capsys, monkeypatch):
        def too_deep(G, W, b):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "technical_lemma_check", too_deep)
        code, out, err = run_cli(capsys, *self.LEMMA)
        assert code == 2 and out == ""
        limit = sys.getrecursionlimit()
        assert err == f"error: the input needs more than Python's recursion limit of {limit} frames\n"


def run_module(*args, block=()) -> subprocess.CompletedProcess:
    """``python -m coverideal *args`` in a child process that imports the
    package this suite imported, installed or not.  Every import of a module
    named in ``block`` fails in the child.  With no arguments the child only
    imports the package."""
    package_root = os.path.dirname(os.path.dirname(coverideal.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    code = "import sys\n"
    for name in block:
        code += f"sys.modules[{name!r}] = None\n"
    if not args:
        code += "import coverideal\n"
    else:
        code += "import runpy\nsys.argv[0] = 'coverideal'\nrunpy.run_module('coverideal', run_name='__main__')\n"
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )


class TestConsoleEntryPoint:
    def test_module_invocation(self):
        proc = run_module("invariants", "--builtin", "cycle:9", "--json")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["results"]["chi"] == 3
        assert report["results"]["critical"] is True

    @pytest.mark.parametrize(
        "args",
        [
            (),
            ("--help",),
            ("decompose", "--builtin", "mycielski-cycle:5", "--power", "2", "--json"),
            ("verify", "correspondence", "--builtin", "mycielski-cycle:5", "--power", "3", "--json"),
        ],
        ids=["import", "help", "decompose", "verify"],
    )
    def test_runs_without_numpy_dataclasses_or_inspect(self, args):
        # Only the exact LP prices with numpy; powers, decompositions and
        # the correspondence must start and answer without it.  Records are
        # NamedTuples, so no process needs dataclasses or the inspect module
        # it imports.
        proc = run_module(*args, block=("numpy", "dataclasses", "inspect"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == run_module(*args).stdout

    @pytest.mark.parametrize(
        "args",
        [
            (),
            ("decompose", "--builtin", "mycielski-cycle:5", "--power", "2", "--json"),
            ("verify", "persistence", "--builtin", "cycle:5", "--power", "2", "--json"),
        ],
        ids=["import", "decompose", "verify"],
    )
    def test_runs_without_the_census(self, args):
        # The package loads corpus on first use of a census name only.
        proc = run_module(*args, block=("coverideal.corpus",))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == run_module(*args).stdout

    def test_chi_f_loads_numpy(self):
        proc = run_module("invariants", "--builtin", "cycle:5", "--json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["results"]["chi_f"] == "5/2"
