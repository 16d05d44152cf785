"""Tests for the component/critical-subgraph dictionary, persistence of
associated primes, the expansion-witness search, and the membership lemma.

Expected values were frozen from brute-force coloring and divisibility
oracles run before the implementation, plus hand-checked small cases.
"""

import os
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import graphs, graphs_with_edges
from coverideal import correspondence
from coverideal.coloring import b_fold_chromatic, chromatic_number, is_critical
from coverideal.correspondence import (
    PersistenceFinding,
    _shadow_graph,
    component_to_Y,
    conjecture_search,
    converse_correspondence,
    persistence_check,
    persistence_sweep,
    probe_expansion,
    technical_lemma_check,
    verify_correspondence,
)
from coverideal.corpus import connected_graphs
from coverideal.graphs import (
    expand,
    family,
    induced_subgraph,
    maximal_independent_sets,
    mycielski,
    power_expansion,
)
from coverideal.ideals import (
    IrreducibleIdeal,
    associated_primes,
    cover_ideal,
    irreducible_decomposition,
    power,
)
from oracles import brute_replicate, neighbors

EXTENDED = os.environ.get("COVERIDEAL_EXTENDED") == "1"


class TestComponentToY:
    def test_single_shadow_per_vertex_at_s1(self):
        comp = IrreducibleIdeal(5, ((1, 1), (2, 1)))
        assert component_to_Y(comp, 1) == frozenset({1, 2})

    def test_full_square_keeps_one_shadow_each(self):
        comp = IrreducibleIdeal(5, tuple((v, 2) for v in range(5)))
        assert component_to_Y(comp, 2) == frozenset(v * 2 for v in range(5))

    def test_27_vertex_set_of_the_19_variable_component(self):
        low = frozenset({0, 2, 4, 6, 9, 11, 13, 15})
        comp = IrreducibleIdeal(
            19, tuple((v, 3 if v in low else 4) for v in range(19))
        )
        Y = component_to_Y(comp, 4)
        want = {v * 4 for v in range(19)} | {v * 4 + 1 for v in low}
        assert Y == frozenset(want)
        assert len(Y) == 27

    def test_exponent_range_enforced(self):
        with pytest.raises(ValueError):
            component_to_Y(IrreducibleIdeal(3, ((0, 3),)), 2)
        with pytest.raises(ValueError):
            component_to_Y(IrreducibleIdeal(3, ((0, 1),)), 0)


def _assert_shadow_graphs_match_oracle(G, s):
    """Each component's shadow graph is the replication keeping s - a_v + 1
    shadows of v, and the subgraph of G^s induced on component_to_Y."""
    Gs = brute_replicate(G, [s] * G.n)
    for comp in irreducible_decomposition(power(cover_ideal(G), s)):
        a = dict(comp.exps)
        copies = [s - a[v] + 1 if v in a else 0 for v in range(G.n)]
        H = _shadow_graph(G, comp, s)
        assert H == brute_replicate(G, copies)
        assert H == induced_subgraph(Gs, component_to_Y(comp, s))


class TestShadowGraphs:
    @pytest.mark.parametrize(
        "G",
        [family("cycle", 5), family("complete", 4), mycielski(family("cycle", 5))],
        ids=["C5", "K4", "M(C5)"],
    )
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_match_oracle(self, G, s):
        _assert_shadow_graphs_match_oracle(G, s)

    @given(graphs_with_edges(max_n=5), st.integers(1, 2))
    def test_match_oracle_on_random_graphs(self, G, s):
        _assert_shadow_graphs_match_oracle(G, s)


class TestVerifyCorrespondence:
    def test_C5_s1_gives_five_verified_edges(self):
        results = verify_correspondence(family("cycle", 5), 1)
        assert len(results) == 5
        for r in results:
            assert len(r.Y) == 2
            assert r.chi == 2
            assert r.verified_critical

    def test_C5_s2_includes_full_component_inducing_C5(self):
        G = family("cycle", 5)
        results = verify_correspondence(G, 2)
        assert len(results) == 11
        assert all(r.verified_critical for r in results)
        full = [r for r in results if len(r.component.exps) == 5]
        assert len(full) == 1
        H = induced_subgraph(power_expansion(G, 2), full[0].Y)
        assert (H.n, H.m) == (5, 5)
        assert full[0].chi == 3

    def test_held_power_is_not_rebuilt(self, monkeypatch):
        G = family("cycle", 5)
        J2 = power(cover_ideal(G), 2)
        expected = verify_correspondence(G, 2)
        monkeypatch.setattr(correspondence, "power", lambda *a: pytest.fail("power rebuilt"))
        assert verify_correspondence(G, 2, J2) == expected
        with pytest.raises(ValueError, match="another graph"):
            verify_correspondence(G, 2, power(cover_ideal(family("cycle", 7)), 2))

    def test_K3_s2_both_directions(self):
        G = family("complete", 3)
        J2 = power(cover_ideal(G), 2)
        assert all(r.verified_critical for r in verify_correspondence(G, 2, J2))
        assert converse_correspondence(G, 2, J2) == []

    @pytest.mark.parametrize(
        "G,s",
        [
            (family("cycle", 5), 1),
            (family("cycle", 5), 2),
            (family("cycle", 7), 1),
            (family("complete", 4), 2),
        ],
        ids=["C5s1", "C5s2", "C7s1", "K4s2"],
    )
    def test_converse_finds_nothing_missing(self, G, s):
        assert converse_correspondence(G, s) == []


class TestConverseCorrespondence:
    def test_held_power_is_not_rebuilt(self, monkeypatch):
        G = family("cycle", 7)
        calls = []
        build = correspondence.power

        def counting_power(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(correspondence, "power", counting_power)
        J2 = correspondence.power(cover_ideal(G), 2)
        assert all(r.verified_critical for r in verify_correspondence(G, 2, J2))
        assert converse_correspondence(G, 2, J2) == []
        assert len(calls) == 1
        assert converse_correspondence(G, 2) == []
        assert len(calls) == 2

    def test_power_of_another_graph_is_rejected(self):
        J2 = power(cover_ideal(family("cycle", 5)), 2)
        with pytest.raises(ValueError, match="another graph"):
            converse_correspondence(family("cycle", 7), 2, J2)


class TestPersistence:
    @pytest.mark.parametrize(
        "G,s",
        [
            (family("cycle", 5), 1),
            (family("cycle", 5), 2),
            (family("complete", 4), 1),
            (family("complete", 4), 2),
            (family("complete", 4), 3),
        ],
        ids=["C5s1", "C5s2", "K4s1", "K4s2", "K4s3"],
    )
    def test_holds(self, G, s):
        assert persistence_check(G, s) == (True, [])

    def test_invalid_power(self):
        with pytest.raises(ValueError):
            persistence_check(family("cycle", 5), 0)

    def test_sweep_connected_graphs_up_to_five_vertices(self):
        corpus = [G for n in range(2, 6) for G in connected_graphs(n)]
        report = persistence_sweep(corpus, 2)
        assert report.graphs_checked == 30
        assert report.checks_run == 60
        assert report.findings == ()

    def test_sweep_odd_cycles(self):
        report = persistence_sweep(
            [family("cycle", k) for k in (5, 7, 9)], 3
        )
        assert report.checks_run == 9
        assert report.findings == ()

    def test_sweep_reports_a_dropped_prime(self, monkeypatch):
        K2, C5 = family("complete", 2), family("cycle", 5)
        J = cover_ideal(C5)
        J2 = power(J, 2)
        dropped = frozenset({0, 1})
        assert dropped in associated_primes(J2)

        def drop_from_square(I):
            primes = associated_primes(I)
            return [p for p in primes if p != dropped] if I == J2 else primes

        monkeypatch.setattr(correspondence, "associated_primes", drop_from_square)
        report = persistence_sweep([K2, C5], 2)
        assert report.checks_run == 4
        assert report.findings == (
            PersistenceFinding(
                graph_index=1,
                s=1,
                missing=(dropped,),
                ass_s=tuple(associated_primes(J)),
                ass_next=tuple(p for p in associated_primes(J2) if p != dropped),
            ),
        )
        assert persistence_check(C5, 1) == (False, [dropped])

    def test_sweep_memo_holds_the_last_power(self):
        # Each power past J is decomposed as J^(s+1) and read again right
        # after as the next J^s, so a memo of one ideal serves every reuse.
        irreducible_decomposition.cache_clear()
        persistence_sweep([family("cycle", 5), family("cycle", 7)], 3)
        info = irreducible_decomposition.cache_info()
        assert (info.hits, info.misses, info.currsize) == (4, 8, 1)

    def test_sweep_rejects_bad_smax(self):
        with pytest.raises(ValueError):
            persistence_sweep([family("cycle", 5)], 0)

    @pytest.mark.skipif(
        not EXTENDED, reason="set COVERIDEAL_EXTENDED=1 to run the heavy check"
    )
    def test_sweep_mycielski_C9(self):
        report = persistence_sweep([mycielski(family("cycle", 9))], 1)
        assert report.findings == ()


class TestConjectureSearch:
    def test_C5_finds_maximal_independent_pair(self):
        witness = conjecture_search(family("cycle", 5))
        assert witness is not None
        assert witness.W == frozenset({0, 2})
        assert witness.is_maximal_independent
        assert witness.expanded_chi == 4
        assert witness.expanded_critical

    def test_C5_displayed_witness_also_works(self):
        w = probe_expansion(family("cycle", 5), {1, 3})
        assert w.is_maximal_independent
        assert w.expanded_chi == 4
        assert w.expanded_critical

    def test_mycielski_C9_finds_the_x_y_witness(self):
        witness = conjecture_search(mycielski(family("cycle", 9)))
        assert witness is not None
        assert witness.W == frozenset({0, 2, 4, 6, 9, 11, 13, 15})
        assert witness.expanded_chi == 5
        assert witness.expanded_critical

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_cliques_expand_at_one_vertex(self, n):
        witness = conjecture_search(family("complete", n))
        assert witness is not None
        assert len(witness.W) == 1
        assert witness.expanded_chi == n + 1

    def test_non_critical_graph_rejected(self):
        with pytest.raises(ValueError):
            conjecture_search(family("cycle", 6))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            conjecture_search(family("cycle", 5), mode="everything")

    def test_all_subsets_mode_agrees_when_maximal_suffices(self):
        for G in (family("cycle", 7), family("complete", 3)):
            a = conjecture_search(G)
            b = conjecture_search(G, mode="all_subsets")
            assert a == b

    def test_all_subsets_draws_no_subset_when_a_maximal_set_wins(self, monkeypatch):
        drawn = []

        def counting_combinations(pool, r):
            for c in combinations(pool, r):
                drawn.append(c)
                yield c

        monkeypatch.setattr(correspondence, "combinations", counting_combinations)
        witness = conjecture_search(family("cycle", 5), mode="all_subsets")
        assert drawn == []
        assert witness.W == frozenset({0, 2}) and witness.is_maximal_independent


class TestProbeExpansion:
    def test_C9_spaced_triple_is_maximal_but_not_a_witness(self):
        w = probe_expansion(family("cycle", 9), {1, 4, 7})
        assert w.is_maximal_independent
        assert w.expanded_chi == 3
        assert not w.expanded_critical

    def test_C9_single_vertex_keeps_chi(self):
        w = probe_expansion(family("cycle", 9), {1})
        assert not w.is_maximal_independent
        assert w.expanded_chi == 3

    def test_mycielski_C9_shadow_layer_keeps_chi(self):
        w = probe_expansion(mycielski(family("cycle", 9)), set(range(9, 18)))
        assert w.is_maximal_independent
        assert w.expanded_chi == 4
        assert not w.expanded_critical

    @pytest.mark.parametrize(
        "G",
        [family("cycle", 5), family("cycle", 7), family("complete", 4)],
        ids=["C5", "C7", "K4"],
    )
    def test_non_maximal_independent_sets_keep_chi(self, G):
        chi, _ = chromatic_number(G)
        maximal = set(maximal_independent_sets(G))
        for r in range(G.n + 1):
            for c in combinations(range(G.n), r):
                W = frozenset(c)
                if any(u in neighbors(G, v) for u in W for v in W) or W in maximal:
                    continue
                assert probe_expansion(G, W).expanded_chi == chi

    @given(graphs(min_n=0, max_n=6))
    def test_maximal_independent_decision_matches_enumeration(self, G):
        maximal = set(maximal_independent_sets(G))
        for r in range(G.n + 1):
            for c in combinations(range(G.n), r):
                W = frozenset(c)
                assert correspondence._is_maximal_independent(G, W) == (W in maximal)


class TestTechnicalLemma:
    @pytest.mark.parametrize(
        "G,W,b",
        [
            (family("cycle", 5), {1, 3}, 1),
            (family("cycle", 5), frozenset(), 1),
            (family("complete", 3), {0}, 1),
            (family("cycle", 5), {0, 2}, 2),
            (family("complete", 4), {2}, 2),
            (family("cycle", 7), {0, 2, 4}, 1),
        ],
    )
    def test_membership_holds(self, G, W, b):
        member, d = technical_lemma_check(G, W, b)
        assert member is True
        assert d == b_fold_chromatic(expand(G, W), b)[0]

    def test_invalid_fold(self):
        with pytest.raises(ValueError):
            technical_lemma_check(family("cycle", 5), {1, 3}, 0)


def _witness_shift_component(H, Y, comp, s):
    """Shifted exponent vector from a found witness on the component's graph.

    H is induced on the shadow set Y of the s-th expansion, so vertex w of H
    is shadow sorted(Y)[w], whose base is that position divided by s.
    """
    witness = conjecture_search(H, mode="all_subsets")
    assert witness is not None, "every component's graph should admit a witness at this scale"
    shadows = sorted(Y)
    bases = [shadows[w] // s for w in witness.W]
    exps = []
    for v, a in comp.exps:
        b_v = bases.count(v)
        assert 0 <= b_v <= a
        exps.append((v, a - b_v + 1))
    return IrreducibleIdeal(comp.nvars, tuple(exps))


class TestWitnessShiftsComponentsForward:
    @pytest.mark.parametrize(
        "G,s",
        [
            (family("cycle", 5), 1),
            (family("cycle", 5), 2),
            (family("complete", 3), 1),
            (family("complete", 3), 2),
            (family("cycle", 7), 1),
        ],
        ids=["C5s1", "C5s2", "K3s1", "K3s2", "C7s1"],
    )
    def test_shifted_component_lands_in_next_power(self, G, s):
        J = cover_ideal(G)
        Gs = power_expansion(G, s)
        next_decomp = set(irreducible_decomposition(power(J, s + 1)))
        for comp in irreducible_decomposition(power(J, s)):
            Y = component_to_Y(comp, s)
            H = induced_subgraph(Gs, Y)
            critical, chi, _ = is_critical(H)
            assert critical and chi == s + 1
            shifted = _witness_shift_component(H, Y, comp, s)
            assert all(1 <= e <= s + 1 for _, e in shifted.exps)
            assert shifted in next_decomp
