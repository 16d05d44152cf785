"""Chromatic-invariant tests: chi, criticality, b-fold, fractional.

Closed-form expectations for odd holes, antiholes, cliques, and Kneser
graphs were derived with the brute-force oracles and the vertex-transitive
n/alpha bound before implementation.
"""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import graphs, graphs_with_components
from coverideal import coloring, lp
from coverideal.coloring import (
    b_fold_chromatic,
    chromatic_number,
    classify_chi_f_window,
    fractional_value,
    is_critical,
)
from coverideal.corpus import all_graphs
from coverideal.graphs import (
    build_graph,
    family,
    kneser_graph,
    mycielski,
    replicate,
)
from oracles import (
    brute_b_fold,
    brute_chromatic,
    brute_is_critical,
    certificate_is_valid,
    coloring_is_proper,
    delete_vertex,
    induced_subgraph,
)


class TestChromaticNumber:
    @pytest.mark.parametrize(
        "G,want",
        [
            (family("complete", 4), 4),
            (family("cycle", 9), 3),
            (family("cycle", 6), 2),
            (family("path", 1), 1),
            (kneser_graph(5, 2), 3),
        ],
        ids=["K4", "C9", "C6", "K1", "petersen"],
    )
    def test_known_values(self, G, want):
        chi, colors = chromatic_number(G)
        assert chi == want
        assert coloring_is_proper(G, chi, [[c] for c in colors])
        assert sorted(set(colors)) == list(range(chi))

    def test_mycielski_C9(self):
        chi, _ = chromatic_number(mycielski(family("cycle", 9)))
        assert chi == 4

    def test_empty_graph(self):
        G = build_graph(0, [])
        assert chromatic_number(G) == (0, None)

    @given(graphs(max_n=7))
    def test_matches_brute_force(self, G):
        chi, colors = chromatic_number(G)
        assert chi == brute_chromatic(G)
        assert coloring_is_proper(G, chi, [[c] for c in colors])

    @given(graphs_with_components())
    def test_several_components_match_brute_force(self, G):
        chi, colors = chromatic_number(G)
        assert chi == brute_chromatic(G)
        assert coloring_is_proper(G, chi, [[c] for c in colors])

    @given(graphs(min_n=2, max_n=7), st.data())
    def test_monotone_under_induced_subgraphs(self, G, data):
        k = data.draw(st.integers(min_value=1, max_value=G.n))
        sub = data.draw(
            st.sets(st.integers(min_value=0, max_value=G.n - 1), min_size=k, max_size=k)
        )
        assert chromatic_number(induced_subgraph(G, sub))[0] <= chromatic_number(G)[0]


class TestCriticality:
    def test_C9(self):
        assert is_critical(family("cycle", 9)) == (True, 3, [])

    def test_C6_fails_everywhere(self):
        critical, chi, failing = is_critical(family("cycle", 6))
        assert (critical, chi) == (False, 2)
        assert failing == [0, 1, 2, 3, 4, 5]

    def test_K5(self):
        assert is_critical(family("complete", 5)) == (True, 5, [])

    def test_mycielski_C9_critical(self):
        critical, chi, failing = is_critical(mycielski(family("cycle", 9)))
        assert (critical, chi, failing) == (True, 4, [])

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            is_critical(build_graph(0, []))

    @given(graphs(min_n=2, max_n=6))
    def test_failing_vertices_definition(self, G):
        _, chi, failing = is_critical(G)
        for v in range(G.n):
            dropped = chromatic_number(delete_vertex(G, v))[0]
            assert dropped in (chi, chi - 1)
            assert (v in failing) == (dropped == chi)


class TestCriticalityAgainstOracle:
    """Deletions are decided on bitmasks; the oracle rebuilds each deletion."""

    @given(graphs_with_components())
    def test_several_components(self, G):
        assert is_critical(G) == brute_is_critical(G)

    @given(graphs(min_n=1, max_n=4), st.data())
    def test_replicated_graphs(self, G, data):
        # Shadows of one vertex are closed twins, decided by one coloring.
        copies = data.draw(
            st.lists(st.integers(0, 3), min_size=G.n, max_size=G.n).filter(
                lambda c: 0 < sum(c) <= 9
            )
        )
        H = replicate(G, copies)
        assert is_critical(H) == brute_is_critical(H)

    def test_one_deletion_coloring_per_twin_class(self, monkeypatch):
        G = family("complete", 300)
        chromatic_number(G)
        calls = []
        colorable = coloring._colorable
        monkeypatch.setattr(
            coloring, "_colorable", lambda *args: calls.append(args[1]) or colorable(*args)
        )
        assert is_critical(G) == (True, 300, [])
        assert calls == [299]

    @pytest.mark.parametrize(
        "G,want",
        [
            # Two triangles joined at vertex 2: deleting it splits the component.
            (
                build_graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]),
                (False, 3, [0, 1, 3, 4]),
            ),
            # C5 on 4 0 2 6 3 with a pendant vertex 5 at 3: vertex 3 is a cut vertex.
            (build_graph(7, [(4, 0), (0, 2), (2, 6), (6, 3), (3, 4), (3, 5)]), (False, 3, [1, 5])),
            # C5 on 1 3 5 6 2 with isolated vertices 0 and 4 between its vertices.
            (build_graph(7, [(1, 3), (3, 5), (5, 6), (6, 2), (2, 1)]), (False, 3, [0, 4])),
            (build_graph(1, []), (True, 1, [])),
            # Edgeless: chi - 1 = 0 colors, and every deletion leaves a vertex.
            (build_graph(4, []), (False, 1, [0, 1, 2, 3])),
        ],
        ids=["bowtie_cut_vertex", "pendant_cut_vertex", "isolated_vertices", "n1", "edgeless"],
    )
    def test_cases(self, G, want):
        assert is_critical(G) == want
        assert brute_is_critical(G) == want


class TestFrozenWitnesses:
    def test_all_graphs_to_seven_vertices(self):
        # Witnesses depend on the order components are colored in and on the
        # vertex numbering inside each; this digest pins both, and every triple.
        rows = []
        for n in range(1, 8):
            for G in all_graphs(n):
                chi, colors = chromatic_number(G)
                rows.append((n, G.edges(), chi, [[c] for c in colors], is_critical(G)))
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            "562d9b6c2a66490074af908d0e0eec0ee7d1f53f8637e151b472c8f2a45928c8"
        )


class TestBFold:
    @pytest.mark.parametrize(
        "G,b,want",
        [
            (family("complete", 3), 2, 6),
            (family("cycle", 5), 2, 5),
            (family("cycle", 5), 1, 3),
            (family("cycle", 5), 3, 8),
            (family("cycle", 7), 3, 7),
            (kneser_graph(5, 2), 2, 5),
            (kneser_graph(5, 2), 3, 8),
        ],
        ids=["K3b2", "C5b2", "C5b1", "C5b3", "C7b3", "petersen_b2", "petersen_b3"],
    )
    def test_known_values(self, G, b, want):
        value, assignment = b_fold_chromatic(G, b)
        assert value == want
        assert coloring_is_proper(G, value, assignment, b)

    def test_invalid_fold(self):
        with pytest.raises(ValueError):
            b_fold_chromatic(family("cycle", 5), 0)

    def test_lp_bound_keeps_witnesses(self, monkeypatch):
        # M(C11) has 144 maximal independent sets.  At b = 2 the LP bound
        # ceil(2 * 146/55) = 6 skips the failing decision at 5 colours that
        # the bound ceil(2 * 23/11) = 5 alone would make.
        G = mycielski(family("cycle", 11))
        with_lp = [b_fold_chromatic(G, b) for b in (1, 2)]
        monkeypatch.setattr(lp, "_SET_LIMIT", 0)
        assert [b_fold_chromatic(G, b) for b in (1, 2)] == with_lp
        assert [value for value, _ in with_lp] == [4, 6]

    @given(graphs(min_n=1, max_n=5), st.integers(min_value=1, max_value=2))
    def test_matches_brute_force(self, G, b):
        assert b_fold_chromatic(G, b)[0] == brute_b_fold(G, b)

    @given(graphs(min_n=1, max_n=6))
    def test_b1_equals_chromatic_number(self, G):
        assert b_fold_chromatic(G, 1)[0] == chromatic_number(G)[0]

    @pytest.mark.parametrize("a", [1, 2, 3])
    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_subadditivity_on_corpus(self, a, b):
        corpus = [
            family("cycle", 5),
            family("cycle", 7),
            family("complete", 4),
            family("antihole", 7),
            family("path", 4),
            kneser_graph(5, 2),
        ]
        for G in corpus:
            assert (
                b_fold_chromatic(G, a + b)[0]
                <= b_fold_chromatic(G, a)[0] + b_fold_chromatic(G, b)[0]
            )


class TestFractional:
    @pytest.mark.parametrize(
        "G,num,den",
        [
            (family("complete", 4), 4, 1),
            (family("cycle", 5), 5, 2),
            (family("antihole", 7), 7, 2),
            (kneser_graph(5, 2), 5, 2),
        ],
        ids=["K4", "C5", "antihole7", "petersen"],
    )
    def test_known_values(self, G, num, den):
        value, weights = fractional_value(G)
        assert value == Fraction(num, den)
        assert certificate_is_valid(G, value, weights)
        # Each of these graphs attains its chi_f with 2 colors per vertex.
        assert b_fold_chromatic(G, 2)[0] == 2 * value

    def test_achieving_b_can_exceed_denominator(self):
        # chi_f here is the integer 3 while chi = 4, so b = 1 cannot achieve
        # the ratio; b = 2 does.
        G = kneser_graph(6, 2)
        assert fractional_value(G)[0] == Fraction(3)
        assert chromatic_number(G)[0] == 4
        assert b_fold_chromatic(G, 2)[0] == 6

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            fractional_value(build_graph(0, []))

    @given(graphs(min_n=1, max_n=6), st.integers(min_value=1, max_value=4))
    def test_below_all_fold_ratios(self, G, b):
        value, weights = fractional_value(G)
        assert certificate_is_valid(G, value, weights)
        assert value <= Fraction(b_fold_chromatic(G, b)[0], b)

    @given(graphs(min_n=1, max_n=6))
    def test_window_definition(self, G):
        chi = chromatic_number(G)[0]
        value, _ = fractional_value(G)
        assert classify_chi_f_window(G) == (chi - 1 < value <= chi)

    def test_one_lp_per_graph(self, monkeypatch):
        # The chi_f window and the chi_b lower bound read fractional_value's
        # memo; b_fold_chromatic enumerates its own sets for the search.
        calls = {"sets": 0, "lp": 0}

        def counted(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)

            return wrapper

        for key, name in (("sets", "maximal_independent_sets"), ("lp", "solve_cover_lp")):
            monkeypatch.setattr(coloring, name, counted(key, getattr(coloring, name)))
        fractional_value.cache_clear()
        G = mycielski(family("cycle", 5))
        fractional_value(G)
        classify_chi_f_window(G)
        b_fold_chromatic(G, 2)
        assert calls == {"sets": 2, "lp": 1}
        assert fractional_value.cache_info().hits == 2


class TestWindow:
    def test_C7_inside(self):
        assert classify_chi_f_window(family("cycle", 7)) is True

    def test_K6_inside(self):
        assert classify_chi_f_window(family("complete", 6)) is True

    def test_kneser_negative_control(self):
        assert classify_chi_f_window(kneser_graph(6, 2)) is False
