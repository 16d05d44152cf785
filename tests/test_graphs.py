"""Graph construction, expansion, and enumeration tests.

Expected values were frozen from the brute-force oracles in oracles.py
before the implementation was written.
"""

import itertools
import time
from math import factorial

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import graphs, graphs_with_components, graphs_with_edges
from coverideal.graphs import (
    automorphisms,
    build_graph,
    complement,
    expand,
    family,
    first_of_each_class,
    is_connected,
    is_isomorphic,
    kneser_graph,
    maximal_independent_sets,
    minimal_vertex_covers,
    mycielski,
    path_graph,
    replicate,
)
from oracles import (
    brute_automorphism_count,
    brute_is_isomorphic,
    brute_maximal_independent_sets,
    brute_minimal_vertex_covers,
    brute_replicate,
    delete_vertex,
    induced_subgraph,
    neighbors,
    sequential_expand,
)

REPLICATION_CASES = [
    family("cycle", 5),
    family("complete", 4),
    mycielski(family("cycle", 5)),
]


# Outputs of every constructor, each checked for the mask form's invariants.
STRUCTURE_CASES = [
    build_graph(4, [(0, 1), (2, 3), (1, 2)]),
    build_graph(0, []),
    build_graph(3, []),
    family("antihole", 7),
    kneser_graph(5, 2),
    replicate(mycielski(family("cycle", 5)), [1, 0, 0, 1, 0, 1, 0, 0, 1, 0, 1]),
    replicate(path_graph(3), [2, 0, 3]),
    expand(family("cycle", 5), {1, 3}),
    replicate(family("complete", 3), [3] * 3),
    mycielski(mycielski(build_graph(2, [(0, 1)]))),
]


class TestBuildGraph:
    def test_triangle(self):
        G = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert G.n == 3 and G.m == 3
        assert is_isomorphic(G, family("complete", 3))

    def test_symmetric_dedup(self):
        G = build_graph(2, [(0, 1), (1, 0)])
        assert G.m == 1

    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            build_graph(4, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            build_graph(2, [(0, 2)])

    def test_adjacency_symmetric_irreflexive(self):
        # No self-bit, symmetric masks, and a round trip through edges and complement.
        for G in STRUCTURE_CASES:
            assert len(G.masks) == G.n
            for v, m in enumerate(G.masks):
                assert 0 <= m < 1 << G.n
                assert not m >> v & 1
                for u in range(G.n):
                    assert (m >> u & 1) == (G.masks[u] >> v & 1)
            assert build_graph(G.n, G.edges()) == G
            assert complement(complement(G)) == G


class TestFamilies:
    def test_cycle5(self):
        G = family("cycle", 5)
        assert G.n == 5 and G.m == 5
        assert all(len(neighbors(G, v)) == 2 for v in range(5))

    def test_complete4(self):
        G = family("complete", 4)
        assert G.n == 4 and G.m == 6

    def test_antihole5_selfcomplementary(self):
        assert is_isomorphic(family("antihole", 5), family("cycle", 5))

    def test_antihole_is_cycle_complement(self):
        assert family("antihole", 7) == complement(family("cycle", 7))

    def test_minimum_sizes(self):
        with pytest.raises(ValueError):
            family("cycle", 2)
        with pytest.raises(ValueError):
            family("antihole", 2)
        with pytest.raises(ValueError):
            family("complete", 0)
        with pytest.raises(ValueError):
            family("banana", 3)

    def test_path(self):
        assert path_graph(1).m == 0
        P = path_graph(4)
        assert P.n == 4 and P.m == 3

    def test_kneser_petersen(self):
        P = kneser_graph(5, 2)
        assert P.n == 10 and P.m == 15
        assert all(len(neighbors(P, v)) == 3 for v in range(10))


class TestInducedAndDelete:
    def test_induced_path(self):
        H = induced_subgraph(family("cycle", 5), {0, 1, 2})
        assert H.n == 3 and H.m == 2

    def test_induced_clique(self):
        assert is_isomorphic(
            induced_subgraph(family("complete", 4), {0, 1, 2}),
            family("complete", 3),
        )

    def test_induced_empty(self):
        H = induced_subgraph(family("cycle", 9), {0, 2, 4})
        assert H.n == 3 and H.m == 0

    def test_induced_out_of_range(self):
        with pytest.raises(ValueError):
            induced_subgraph(family("cycle", 5), {0, 7})

    def test_delete_vertex_cycle(self):
        H = delete_vertex(family("cycle", 5), 0)
        assert is_isomorphic(H, path_graph(4))

    def test_delete_vertex_clique(self):
        assert is_isomorphic(
            delete_vertex(family("complete", 4), 3), family("complete", 3)
        )

    def test_delete_vertex_edge(self):
        H = delete_vertex(build_graph(2, [(0, 1)]), 1)
        assert H.n == 1 and H.m == 0


class TestExpand:
    def test_expand_K3_vertex_gives_K4(self):
        assert is_isomorphic(
            expand(family("complete", 3), {0}), family("complete", 4)
        )

    def test_expand_empty_is_identity(self):
        G = family("cycle", 5)
        H = expand(G, set())
        assert H.n == G.n and set(map(frozenset, H.edges())) == set(
            map(frozenset, G.edges())
        )

    def test_expand_C5_pair(self):
        H = expand(family("cycle", 5), {1, 3})
        assert H.n == 7 and H.m == 5 + 2 * 2 + 2  # original + inherited + pair edges

    def test_expand_out_of_range(self):
        with pytest.raises(ValueError):
            expand(family("cycle", 5), {5})

    def test_shadows_record_origin_by_position(self):
        # Shadows of vertex 1 sit at 1 and 2; vertices 2, 3, 4 move up one.
        H = expand(family("cycle", 5), {1})
        assert H.edges() == [
            (0, 1), (0, 2), (0, 5), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)
        ]

    def test_order_independence_exhaustive_small(self):
        G = family("cycle", 5)
        W = [0, 1, 3]
        results = [sequential_expand(G, perm) for perm in itertools.permutations(W)]
        base = expand(G, set(W))
        for H in results:
            assert is_isomorphic(base, H)

    def test_expand_all_vertices_is_second_power_expansion(self):
        for G in (family("cycle", 4), family("complete", 3), path_graph(3)):
            assert is_isomorphic(expand(G, set(range(G.n))), replicate(G, [2] * G.n))


class TestPowerExpansion:
    def test_identity_case(self):
        G = family("cycle", 5)
        assert replicate(G, [1] * G.n) == G

    def test_edge_becomes_K4(self):
        assert is_isomorphic(
            replicate(build_graph(2, [(0, 1)]), [2, 2]), family("complete", 4)
        )

    def test_C5_second_expansion_degrees(self):
        H = replicate(family("cycle", 5), [2] * 5)
        assert H.n == 10
        assert all(len(neighbors(H, v)) == 5 for v in range(10))

    def test_vertex_and_edge_counts(self):
        for G in (family("cycle", 5), family("complete", 4), path_graph(4)):
            for s in (1, 2, 3):
                H = replicate(G, [s] * G.n)
                assert H.n == G.n * s
                assert H.m == s * s * G.m + G.n * (s * (s - 1) // 2)

    def test_one_shadow_per_vertex_recovers_graph(self):
        G = family("cycle", 7)
        H = replicate(G, [3] * G.n)
        keep = {i * 3 + ((i * 2) % 3) for i in range(7)}  # one shadow each, mixed copies
        assert is_isomorphic(induced_subgraph(H, keep), G)

class TestReplicate:
    def test_counts_clique_and_drop(self):
        # Shadows of 0 sit at 0, 1 and shadows of 2 at 2, 3, 4; vertex 1 is dropped.
        H = replicate(path_graph(3), [2, 0, 3])
        assert H.n == 5
        assert H.edges() == [(0, 1), (2, 3), (2, 4), (3, 4)]

    def test_zero_copies_everywhere_is_empty(self):
        assert replicate(family("cycle", 5), [0] * 5) == build_graph(0, [])

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            replicate(family("cycle", 5), [1] * 4)
        with pytest.raises(ValueError):
            replicate(family("cycle", 5), [1, 1, -1, 1, 1])

    @pytest.mark.parametrize("G", REPLICATION_CASES, ids=["C5", "K4", "M(C5)"])
    def test_expand_matches_oracle(self, G):
        for r in range(G.n + 1):
            for W in itertools.combinations(range(G.n), r):
                copies = [2 if v in W else 1 for v in range(G.n)]
                assert expand(G, W) == brute_replicate(G, copies)

    @pytest.mark.parametrize("G", REPLICATION_CASES, ids=["C5", "K4", "M(C5)"])
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_power_expansion_matches_oracle(self, G, s):
        assert replicate(G, [s] * G.n) == brute_replicate(G, [s] * G.n)

    @given(graphs_with_edges(), st.data())
    def test_matches_oracle_on_random_graphs(self, G, data):
        copies = data.draw(st.lists(st.integers(0, 3), min_size=G.n, max_size=G.n))
        assert replicate(G, copies) == brute_replicate(G, copies)
        W = [v for v in range(G.n) if copies[v] >= 2]
        assert expand(G, W) == brute_replicate(G, [2 if c >= 2 else 1 for c in copies])
        s = data.draw(st.integers(1, 3))
        assert replicate(G, [s] * G.n) == brute_replicate(G, [s] * G.n)


class TestMycielski:
    def test_of_K2_is_C5(self):
        assert is_isomorphic(mycielski(build_graph(2, [(0, 1)])), family("cycle", 5))

    def test_of_C9_size(self):
        M = mycielski(family("cycle", 9))
        assert M.n == 19 and M.m == 9 + 18 + 9

    def test_of_single_vertex(self):
        # Faithful construction: shadow y0 has no neighbors to inherit, the
        # apex joins y0 only; the original vertex stays isolated.
        M = mycielski(build_graph(1, []))
        assert M.n == 3 and M.m == 1
        assert M.edges() == [(1, 2)]

    def test_apex_adjacency(self):
        G = family("cycle", 5)
        M = mycielski(G)
        apex = M.n - 1
        assert sorted(neighbors(M, apex)) == [5, 6, 7, 8, 9]
        for i in range(5):
            assert neighbors(M, 5 + i) == neighbors(G, i) | {apex}


class TestIndependentSets:
    def test_K3(self):
        assert maximal_independent_sets(family("complete", 3)) == [
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
        ]

    def test_C5_canonical(self):
        assert maximal_independent_sets(family("cycle", 5)) == [
            frozenset({0, 2}),
            frozenset({0, 3}),
            frozenset({1, 3}),
            frozenset({1, 4}),
            frozenset({2, 4}),
        ]

    def test_mycielski_C9_contains_shadow_row(self):
        M = mycielski(family("cycle", 9))
        assert frozenset(range(9, 18)) in set(maximal_independent_sets(M))

    def test_covers_single_edge(self):
        # order mirrors the independent-set list: complement of {0} first
        assert minimal_vertex_covers(build_graph(2, [(0, 1)])) == [
            frozenset({1}),
            frozenset({0}),
        ]

    def test_covers_K3(self):
        assert set(minimal_vertex_covers(family("complete", 3))) == {
            frozenset({0, 1}),
            frozenset({0, 2}),
            frozenset({1, 2}),
        }

    def test_covers_C5_sizes(self):
        covers = minimal_vertex_covers(family("cycle", 5))
        assert len(covers) == 5 and all(len(c) == 3 for c in covers)

    @given(graphs(max_n=7))
    def test_mis_matches_brute_force(self, G):
        assert maximal_independent_sets(G) == brute_maximal_independent_sets(G)

    @given(graphs(max_n=6))
    def test_cover_complementarity(self, G):
        mis = maximal_independent_sets(G)
        covers = minimal_vertex_covers(G)
        assert len(mis) == len(covers)
        verts = frozenset(range(G.n))
        assert [verts - s for s in mis] == covers
        assert set(covers) == set(brute_minimal_vertex_covers(G))

    def test_edgeless_graph_has_single_mis(self):
        G = build_graph(3, [])
        assert maximal_independent_sets(G) == [frozenset({0, 1, 2})]

    # The enumeration goes one level deeper per vertex added to a set, so
    # these inputs need a stack far deeper than Python's recursion limit.
    def test_1200_isolated_vertices(self):
        start = time.perf_counter()
        assert maximal_independent_sets(build_graph(1200, [])) == [frozenset(range(1200))]
        assert time.perf_counter() - start < 2.0

    def test_star_on_1200_vertices(self):
        G = build_graph(1200, [(0, v) for v in range(1, 1200)])
        start = time.perf_counter()
        assert maximal_independent_sets(G) == [frozenset({0}), frozenset(range(1, 1200))]
        assert time.perf_counter() - start < 2.0


class TestIsomorphism:
    def test_C5_vs_antihole5(self):
        assert is_isomorphic(family("cycle", 5), family("antihole", 5))

    def test_C5_vs_path5(self):
        assert not is_isomorphic(family("cycle", 5), path_graph(5))

    def test_mycielski_K2_vs_C5(self):
        assert is_isomorphic(mycielski(build_graph(2, [(0, 1)])), family("cycle", 5))

    def test_same_degree_sequence_non_isomorphic(self):
        # C6 and two triangles: both 2-regular on 6 vertices, so refinement
        # leaves one cell.
        C6 = family("cycle", 6)
        KK = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert not is_isomorphic(C6, KK)

    def test_cube_vs_K44_minus_perfect_matching(self):
        # Both 3-regular on 8 vertices, so refinement leaves one cell.
        K44_minus = build_graph(8, [(i, 4 + j) for i in range(4) for j in range(4) if i != j])
        assert is_isomorphic(_cube(), K44_minus)

    def test_cube_vs_wagner_graph(self):
        # Both 3-regular on 8 vertices; the cube is bipartite, the Wagner
        # graph has 5-cycles.
        assert not is_isomorphic(_cube(), _wagner())

    def test_first_of_each_class_keeps_first_in_order(self):
        C5, P5 = family("cycle", 5), path_graph(5)
        P5_relabeled = build_graph(5, [(4, 3), (3, 0), (0, 2), (2, 1)])
        kept = first_of_each_class([C5, P5, family("antihole", 5), P5_relabeled])
        assert len(kept) == 2
        assert kept[0] is C5 and kept[1] is P5

    @given(graphs(max_n=5), graphs(max_n=5))
    def test_matches_brute_force(self, G, H):
        assert is_isomorphic(G, H) == brute_is_isomorphic(G, H)

    @given(graphs(max_n=7), st.randoms(use_true_random=False))
    def test_relabeled_graph_is_isomorphic(self, G, rng):
        perm = list(range(G.n))
        rng.shuffle(perm)
        H = build_graph(G.n, [(perm[u], perm[v]) for u, v in G.edges()])
        assert is_isomorphic(G, H)


def _cube():
    """The 3-cube Q3: 3-bit words adjacent when they differ in one bit."""
    return build_graph(8, [(u, u ^ (1 << b)) for u in range(8) for b in range(3) if u < u ^ (1 << b)])


def _wagner():
    """The Wagner graph: an 8-cycle plus its four long diagonals."""
    return build_graph(8, [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)])


def _is_automorphism(G, p):
    return sorted(p) == list(range(G.n)) and all(
        G.has_edge(p[u], p[v]) for u, v in G.edges()
    )


class TestAutomorphisms:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_cycle_is_dihedral(self, n):
        assert len(automorphisms(family("cycle", n))) == 2 * n

    @pytest.mark.parametrize("n", range(1, 8))
    def test_complete_graph_is_symmetric(self, n):
        assert len(automorphisms(family("complete", n))) == factorial(n)

    @pytest.mark.parametrize("n", range(0, 8))
    def test_edgeless_graph_is_symmetric(self, n):
        assert len(automorphisms(build_graph(n, []))) == factorial(n)

    def test_complete_bipartite_K34(self):
        K34 = build_graph(7, [(i, j) for i in range(3) for j in range(3, 7)])
        assert len(automorphisms(K34)) == factorial(3) * factorial(4)

    def test_petersen_graph(self):
        assert len(automorphisms(kneser_graph(5, 2))) == 120

    def test_cube_and_wagner_graph(self):
        assert len(automorphisms(_cube())) == 48
        assert len(automorphisms(_wagner())) == 16

    @given(graphs(max_n=6))
    def test_count_matches_brute_force(self, G):
        auts = automorphisms(G)
        assert len(auts) == brute_automorphism_count(G)
        assert len(set(auts)) == len(auts)
        assert tuple(range(G.n)) in auts
        assert all(_is_automorphism(G, p) for p in auts)


class TestConnectivity:
    def test_connected_cycle(self):
        assert is_connected(family("cycle", 5))

    def test_disconnected(self):
        assert not is_connected(build_graph(4, [(0, 1), (2, 3)]))

    def test_single_vertex(self):
        assert is_connected(build_graph(1, []))

    def test_no_vertices(self):
        assert is_connected(build_graph(0, []))

    @given(st.one_of(graphs(max_n=8), graphs_with_components()))
    def test_matches_networkx(self, G):
        H = nx.Graph()
        H.add_nodes_from(range(G.n))
        H.add_edges_from(G.edges())
        assert is_connected(G) == nx.is_connected(H)
