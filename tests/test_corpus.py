"""Census tests for the isomorphism-class corpora.

Class counts for small n are long-established enumeration results and were
reproduced with the brute-force isomorphism oracle before freezing here.
Criticality censuses were cross-checked with oracle chromatic numbers.
"""

import hashlib
import os

import pytest
from conftest import graphs
from hypothesis import given

from coverideal import corpus
from coverideal import graphs as graphs_module
from coverideal.coloring import is_critical
from coverideal.corpus import (
    _can_carry,
    _child_screen,
    _extensions,
    all_graphs,
    connected_graphs,
    critical_graphs,
    graphs_with_min_degree,
)
from coverideal.graphs import (
    build_graph,
    family,
    is_connected,
    is_isomorphic,
)
from oracles import (
    _dominated,
    brute_chromatic,
    delete_vertex,
    filtered_census,
    neighbors,
    pairwise_dedupe,
    unpruned_extensions,
)

EXTENDED = os.environ.get("COVERIDEAL_EXTENDED") == "1"


class TestAllGraphs:
    @pytest.mark.parametrize(
        "n,count", [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156), (7, 1044)]
    )
    def test_class_counts(self, n, count):
        assert len(all_graphs(n)) == count

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            all_graphs(0)

    def test_representatives_pairwise_distinct_small(self):
        for n in range(1, 6):
            reps = all_graphs(n)
            assert len(pairwise_dedupe(reps)) == len(reps)


class TestConnectedGraphs:
    @pytest.mark.parametrize(
        "n,count", [(1, 1), (2, 1), (3, 2), (4, 6), (5, 21), (6, 112)]
    )
    def test_class_counts(self, n, count):
        assert len(connected_graphs(n)) == count

    def test_all_connected(self):
        assert all(is_connected(G) for G in connected_graphs(5))


class TestMinDegreeCorpus:
    @pytest.mark.parametrize(
        "n,dmin,count",
        [(5, 2, 11), (6, 2, 62), (6, 3, 19), (7, 2, 510)],
    )
    def test_matches_direct_filter(self, n, dmin, count):
        reps = graphs_with_min_degree(n, dmin)
        assert len(reps) == count
        assert all(min(len(neighbors(G, v)) for v in range(G.n)) >= dmin for G in reps)
        direct = [
            G
            for G in all_graphs(n)
            if min(len(neighbors(G, v)) for v in range(G.n)) >= dmin
        ]
        assert len(direct) == count
        assert len(pairwise_dedupe(reps)) == count

    def test_zero_min_degree_is_everything(self):
        assert graphs_with_min_degree(4, 0) == all_graphs(4)

    def test_unsatisfiable_degree(self):
        assert graphs_with_min_degree(3, 3) == ()

    def test_complete_graph_is_the_top(self):
        reps = graphs_with_min_degree(5, 4)
        assert len(reps) == 1
        assert is_isomorphic(reps[0], family("complete", 5))


def _pairwise_census(n, dmin):
    """The census level as the pairwise route builds it from the same parents."""
    parents = graphs_with_min_degree(n - 1, max(dmin - 1, 0))
    return pairwise_dedupe(unpruned_extensions(parents, n, dmin))


def _edge_lists(reps):
    return [(G.n, G.edges()) for G in reps]


class TestCensusAgainstPairwiseRoute:
    """Orbit pruning and certificates keep the pairwise route's first-kept
    representatives, in the same order and with the same labelling."""

    @pytest.mark.parametrize(
        "n,dmin", [(n, 0) for n in range(2, 8)] + [(6, 1), (7, 2)]
    )
    def test_same_representatives_in_order(self, n, dmin):
        assert _edge_lists(graphs_with_min_degree(n, dmin)) == _edge_lists(
            _pairwise_census(n, dmin)
        )

    @pytest.mark.skipif(
        not EXTENDED, reason="set COVERIDEAL_EXTENDED=1 to run the 8-vertex level"
    )
    def test_eight_vertices_min_degree_three(self):
        assert _edge_lists(graphs_with_min_degree(8, 3)) == _edge_lists(
            _pairwise_census(8, 3)
        )


class TestFrozenCensus:
    """SHA-256 digests of the edge lists as the pairwise census produced them."""

    def test_eight_vertices_min_degree_three(self):
        text = repr(_edge_lists(graphs_with_min_degree(8, 3)))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "afddf75b50d480514d67f2a9abc922f5a9d79108a9020fd703d5baf28e98322e"
        )

    def test_critical_census(self):
        census = [
            (G.n, G.edges(), chi) for n in range(1, 9) for G, chi in critical_graphs(n)
        ]
        assert hashlib.sha256(repr(census).encode()).hexdigest() == (
            "e787a5e386e2f324bd5100580a5cd123b5229cab72792e7f88612b70d49d649c"
        )


def _census_rows(census):
    return [(G.n, G.edges(), chi) for G, chi in census]


class TestCensusAgainstFilteredRoute:
    """Screening before deduplication keeps the census that filtering each
    deduplicated level with ``is_critical`` gives, in the same order and
    with the same labelling."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_same_census_in_order(self, n):
        assert _census_rows(critical_graphs(n)) == _census_rows(filtered_census(n))

    @pytest.mark.skipif(
        not EXTENDED, reason="set COVERIDEAL_EXTENDED=1 to run the 8-vertex level"
    )
    def test_eight_vertices(self):
        assert _census_rows(critical_graphs(8)) == _census_rows(filtered_census(8))


def _census_degree(n):
    return 3 if n == 8 else 0


class TestCensusScreens:
    """The parent screen and the neighborhood screen of ``critical_graphs``."""

    @pytest.mark.parametrize("n,dmin", [(n, 0) for n in range(2, 8)] + [(8, 3)])
    def test_neighborhood_screen_is_the_graph_level_screen(self, n, dmin):
        for parent in graphs_with_min_degree(n - 1, max(dmin - 1, 0)):
            if not is_connected(parent):
                continue
            keep = _child_screen(parent)
            for G in _extensions([parent], dmin):
                assert keep(G.masks[-1]) == (is_connected(G) and not _dominated(G))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_every_critical_graph_passes_both_screens(self, n):
        # Necessity: G - v is a parent the census keeps, and N(v) a
        # neighborhood it keeps on that parent.
        for G, _ in critical_graphs(n):
            for v in range(G.n):
                P = delete_vertex(G, v)
                assert _can_carry(P, _census_degree(n))
                S = sum(1 << u - (u > v) for u in neighbors(G, v))
                assert _child_screen(P)(S)

    def test_eight_vertices_build_only_screened_candidates(self, monkeypatch):
        levels = []
        real_level = corpus.graphs_with_min_degree
        monkeypatch.setattr(
            corpus,
            "graphs_with_min_degree",
            lambda n, dmin: levels.append(n) or real_level(n, dmin),
        )
        handed = []

        def counted(real):
            def dedupe(candidates):
                candidates = list(candidates)
                handed.append(len(candidates))
                return real(candidates)

            return dedupe

        # The parents are deduplicated with their certificates kept.
        monkeypatch.setattr(corpus, "_classes", counted(corpus._classes))
        monkeypatch.setattr(corpus, "first_of_each_class", counted(corpus.first_of_each_class))
        assert corpus.critical_graphs.__wrapped__(8) == critical_graphs(8)
        assert max(levels) < 7
        # 1,398 candidate parents and 1,799 children; the unscreened census
        # deduplicated 2,449 parents and built 15,807 children.
        assert handed[-2:] == [1398, 1799]

    def test_eight_vertices_refine_each_graph_once(self, monkeypatch):
        # The 280 screened parents that reach the orbit bookkeeping list
        # their automorphisms from the certificate kept when they were
        # deduplicated, not from a second refinement.
        critical_graphs(8)
        refined = []

        def certificate(G):
            refined.append(G)
            return real(G)

        real = graphs_module._certificate
        monkeypatch.setattr(graphs_module, "_certificate", certificate)
        assert corpus.critical_graphs.__wrapped__(8) == critical_graphs(8)
        assert len(refined) == len(set(refined)) == 3319


def _dominated_vertices(G):
    """Vertices u with N(u) inside N(v) for some non-neighbor v != u."""
    return [
        u
        for u in range(G.n)
        if any(
            v != u and v not in neighbors(G, u) and neighbors(G, u) <= neighbors(G, v)
            for v in range(G.n)
        )
    ]


def _assert_dominated_vertices_fail(G):
    dominated = _dominated_vertices(G)
    assert _dominated(G) == bool(dominated)
    assert set(dominated) <= set(is_critical(G)[2])


class TestDominationScreen:
    """A dominated vertex never lowers the chromatic number when deleted:
    a coloring of G - u extends to u by the color of its dominating v."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_small_graph(self, n):
        for G in all_graphs(n):
            _assert_dominated_vertices_fail(G)

    @given(graphs(min_n=8, max_n=14))
    def test_random_larger_graphs(self, G):
        _assert_dominated_vertices_fail(G)


def _chi_histogram(census):
    hist: dict[int, int] = {}
    for _, chi in census:
        hist[chi] = hist.get(chi, 0) + 1
    return hist


class TestCriticalCensus:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_only_complete_graphs_up_to_four_vertices(self, n):
        census = critical_graphs(n)
        assert len(census) == 1
        G, chi = census[0]
        assert chi == n
        assert is_isomorphic(G, family("complete", n))

    def test_five_vertices(self):
        census = critical_graphs(5)
        assert _chi_histogram(census) == {3: 1, 5: 1}
        by_chi = {chi: G for G, chi in census}
        assert is_isomorphic(by_chi[3], family("cycle", 5))
        assert is_isomorphic(by_chi[5], family("complete", 5))

    def test_six_vertices(self):
        census = critical_graphs(6)
        assert _chi_histogram(census) == {4: 1, 6: 1}
        wheel = build_graph(6, [(i, (i + 1) % 5) for i in range(5)] + [(i, 5) for i in range(5)])
        by_chi = {chi: G for G, chi in census}
        assert is_isomorphic(by_chi[4], wheel)
        assert is_isomorphic(by_chi[6], family("complete", 6))

    def test_seven_vertices(self):
        census = critical_graphs(7)
        assert len(census) == 10
        assert _chi_histogram(census) == {3: 1, 4: 7, 5: 1, 7: 1}

    def test_eight_vertices(self):
        census = critical_graphs(8)
        assert len(census) == 17
        assert _chi_histogram(census) == {4: 8, 5: 7, 6: 1, 8: 1}

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            critical_graphs(0)
        with pytest.raises(ValueError):
            critical_graphs(9)

    def test_structure_of_every_representative(self):
        for n in range(2, 9):
            for G, chi in critical_graphs(n):
                assert is_connected(G)
                assert min(len(neighbors(G, v)) for v in range(G.n)) >= chi - 1
                assert not _dominated_vertices(G)

    def test_oracle_criticality_small(self):
        for n in range(2, 6):
            want = set()
            for idx, G in enumerate(connected_graphs(n)):
                chi = brute_chromatic(G)
                if all(
                    brute_chromatic(delete_vertex(G, v)) == chi - 1
                    for v in range(G.n)
                ):
                    want.add(idx)
            got = set()
            for G, chi in critical_graphs(n):
                assert brute_chromatic(G) == chi
                matches = [
                    idx
                    for idx, H in enumerate(connected_graphs(n))
                    if is_isomorphic(G, H)
                ]
                assert len(matches) == 1
                got.add(matches[0])
            assert got == want
