"""Tests for the component/critical-subgraph dictionary, persistence of
associated primes, the expansion-witness search, and the membership lemma.

Expected values were frozen from brute-force coloring and divisibility
oracles run before the implementation, plus hand-checked small cases.
"""

from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import graphs, graphs_with_edges
from coverideal import correspondence, ideals
from coverideal.coloring import (
    b_fold_chromatic,
    chromatic_number,
    classify_chi_f_window,
    is_critical,
)
from coverideal.correspondence import (
    _copies,
    component_to_Y,
    expansion_witnesses,
    persistence_check,
    probe_expansion,
    technical_lemma_check,
    verify_correspondence,
)
from coverideal.corpus import connected_graphs, critical_graphs
from coverideal.graphs import (
    build_graph,
    expand,
    family,
    maximal_independent_sets,
    mycielski,
    replicate,
)
from coverideal.ideals import (
    _held_power,
    associated_primes,
    contains_in_power,
    cover_ideal,
    irreducible_decomposition,
    power,
)
from oracles import (
    brute_replicate,
    converse_correspondence,
    induced_subgraph,
    neighbors,
    perfect_graph_components,
)


class TestComponentToY:
    def test_single_shadow_per_vertex_at_s1(self):
        comp = (0, 1, 1, 0, 0)
        assert component_to_Y(comp, 1) == frozenset({1, 2})

    def test_full_square_keeps_one_shadow_each(self):
        comp = (2,) * 5
        assert component_to_Y(comp, 2) == frozenset(v * 2 for v in range(5))

    def test_27_vertex_set_of_the_19_variable_component(self):
        low = frozenset({0, 2, 4, 6, 9, 11, 13, 15})
        comp = tuple(3 if v in low else 4 for v in range(19))
        Y = component_to_Y(comp, 4)
        want = {v * 4 for v in range(19)} | {v * 4 + 1 for v in low}
        assert Y == frozenset(want)
        assert len(Y) == 27

    def test_exponent_range_enforced(self):
        with pytest.raises(ValueError):
            component_to_Y((3, 0, 0), 2)
        with pytest.raises(ValueError):
            component_to_Y((1, 0, 0), 0)


def _assert_shadow_graphs_match_oracle(G, s):
    """Each component's shadow graph is the replication keeping s - a_v + 1
    shadows of v, and the subgraph of G^s induced on component_to_Y."""
    Gs = brute_replicate(G, [s] * G.n)
    for comp in irreducible_decomposition(power(cover_ideal(G), s)):
        copies = [s - comp[v] + 1 if comp[v] else 0 for v in range(G.n)]
        H = replicate(G, _copies(comp, s))
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
            assert len(component_to_Y(r.component, 1)) == 2
            assert r.chi == 2
            assert r.verified_critical

    def test_C5_s2_includes_full_component_inducing_C5(self):
        G = family("cycle", 5)
        results = verify_correspondence(G, 2)
        assert len(results) == 11
        assert all(r.verified_critical for r in results)
        full = [r for r in results if all(r.component)]
        assert len(full) == 1
        H = induced_subgraph(replicate(G, [2] * G.n), component_to_Y(full[0].component, 2))
        assert (H.n, H.m) == (5, 5)
        assert full[0].chi == 3

    def test_held_power_is_not_rebuilt(self, multiply_calls):
        G = family("cycle", 5)
        _held_power.cache_clear()
        cold = verify_correspondence(G, 2)
        _held_power.cache_clear()
        power(cover_ideal(G), 2)
        multiply_calls.clear()
        assert verify_correspondence(G, 2) == cold
        assert multiply_calls == []

    def test_K3_s2_both_directions(self):
        G = family("complete", 3)
        assert all(r.verified_critical for r in verify_correspondence(G, 2))
        assert converse_correspondence(G, 2) == []

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
    def test_held_power_is_not_rebuilt(self, multiply_calls):
        G = family("cycle", 7)
        assert all(r.verified_critical for r in verify_correspondence(G, 2))
        multiply_calls.clear()
        assert converse_correspondence(G, 2) == []
        assert multiply_calls == []
        _held_power.cache_clear()
        assert converse_correspondence(G, 2) == []
        assert len(multiply_calls) == 1

    def test_missing_components_in_decomposition_order(self, monkeypatch):
        # Against J(P5)^2 the critical shadow sets of C5 that need the
        # edge 04 are missing; they come sorted as components are.
        J2 = power(cover_ideal(family("path", 5)), 2)
        monkeypatch.setattr("oracles.power", lambda J, s: J2)
        missing = converse_correspondence(family("cycle", 5), 2)
        assert missing == [(2, 2, 2, 2, 2), (1, 0, 0, 0, 2), (2, 0, 0, 0, 1)]


def _squared_path(n):
    return build_graph(n, [(i, i + d) for d in (1, 2) for i in range(n - d)])


class TestDictionaryOnSquaredPaths:
    """The dictionary on chordal graphs past brute-force size: squared paths
    are perfect, so their components have the Francisco-Ha-Van Tuyl closed
    form, and every component's shadow graph must be critical."""

    @pytest.mark.parametrize("n, s, count", [(20, 2, 92), (16, 3, 129)], ids=["P20sq_s2", "P16sq_s3"])
    def test_components_match_closed_form_and_verify(self, n, s, count):
        G = _squared_path(n)
        results = verify_correspondence(G, s)
        assert len(results) == count
        assert {r.component for r in results} == perfect_graph_components(G, s)
        assert all(r.verified_critical and r.chi == s + 1 for r in results)


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
        assert len(corpus) == 30
        assert all(persistence_check(G, s) == (True, []) for G in corpus for s in (1, 2))

    def test_sweep_odd_cycles(self):
        for k in (5, 7, 9):
            for s in (1, 2, 3):
                assert persistence_check(family("cycle", k), s) == (True, [])

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
        assert persistence_check(C5, 1) == (False, [dropped])
        # The sweep script's loop: every graph, then s = 1..s_max.
        findings = []
        for gi, G in enumerate([K2, C5]):
            for s in (1, 2):
                holds, missing = persistence_check(G, s)
                if not holds:
                    findings.append((gi, s, missing))
        assert findings == [(1, 1, [dropped])]

    def test_sweep_memo_holds_the_last_power(self):
        # Checks with ascending s find each J^s decomposed by the call
        # before, so each of J..J^4 is decomposed once per graph.
        ideals._components.cache_clear()
        for G in (family("cycle", 5), family("cycle", 7)):
            for s in (1, 2, 3):
                persistence_check(G, s)
        info = ideals._components.cache_info()
        assert (info.hits, info.misses, info.currsize) == (4, 8, 1)

    def test_ascending_checks_reuse_the_last_power(self, multiply_calls):
        # persistence_check(G, s) builds and decomposes J^s before J^(s+1),
        # so called with s = 1, 2, 3 it finds the previous call's J^(s+1)
        # held by power and by the decomposition memo: one product a call.
        C5 = family("cycle", 5)
        _held_power.cache_clear()
        ideals._components.cache_clear()
        for s in (1, 2, 3):
            assert persistence_check(C5, s) == (True, [])
        info = ideals._components.cache_info()
        assert (info.hits, info.misses, info.currsize) == (2, 4, 1)
        assert len(multiply_calls) == 3

    def test_checks_of_one_graph_enumerate_its_covers_once(self, monkeypatch):
        covers = []
        real = ideals.minimal_vertex_covers
        monkeypatch.setattr(ideals, "minimal_vertex_covers", lambda G: covers.append(G) or real(G))
        ideals.cover_ideal.cache_clear()
        C5 = family("cycle", 5)
        for s in range(1, 5):
            assert persistence_check(C5, s) == (True, [])
        assert covers == [C5]

    def test_sweep_mycielski_C9(self):
        assert persistence_check(mycielski(family("cycle", 9)), 1) == (True, [])


def first_witness(G, mode="maximal_independent_only"):
    """The first critical expansion, or None: what the CLI's conjecture reports."""
    return next(expansion_witnesses(G, mode), None)


class TestConjectureSearch:
    def test_C5_finds_maximal_independent_pair(self):
        witness = first_witness(family("cycle", 5))
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
        witness = first_witness(mycielski(family("cycle", 9)))
        assert witness is not None
        assert witness.W == frozenset({0, 2, 4, 6, 9, 11, 13, 15})
        assert witness.expanded_chi == 5
        assert witness.expanded_critical

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_cliques_expand_at_one_vertex(self, n):
        witness = first_witness(family("complete", n))
        assert witness is not None
        assert len(witness.W) == 1
        assert witness.expanded_chi == n + 1

    def test_non_critical_graph_rejected(self):
        with pytest.raises(ValueError):
            first_witness(family("cycle", 6))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            first_witness(family("cycle", 5), mode="everything")

    def test_all_subsets_mode_agrees_when_maximal_suffices(self):
        for G in (family("cycle", 7), family("complete", 3)):
            a = first_witness(G)
            b = first_witness(G, mode="all_subsets")
            assert a == b

    def test_all_subsets_draws_no_subset_when_a_maximal_set_wins(self, monkeypatch):
        drawn = []

        def counting_combinations(pool, r):
            for c in combinations(pool, r):
                drawn.append(c)
                yield c

        monkeypatch.setattr(correspondence, "combinations", counting_combinations)
        witness = first_witness(family("cycle", 5), mode="all_subsets")
        assert drawn == []
        assert witness.W == frozenset({0, 2}) and witness.is_maximal_independent

    def test_every_maximal_pair_of_C5_is_a_witness(self):
        C5 = family("cycle", 5)
        witnesses = list(expansion_witnesses(C5))
        assert [w.W for w in witnesses] == maximal_independent_sets(C5)
        assert all(w.is_maximal_independent and w.expanded_chi == 4 for w in witnesses)
        assert witnesses[0] == first_witness(C5)

    def test_proved_window_case_on_critical_graphs_to_eight_vertices(self):
        # The paper proves the conjecture for critical graphs with
        # chi - 1 < chi_f <= chi; every critical graph on 2-8 vertices is
        # one, and each has a maximal-independent witness.
        census = [G for n in range(2, 9) for G, _ in critical_graphs(n)]
        assert len(census) == 34
        for G in census:
            assert classify_chi_f_window(G), G.edges()
            witness = first_witness(G)
            assert witness is not None, G.edges()
            assert witness.is_maximal_independent, G.edges()

    def test_expansion_fault_raises(self, expansion_fault):
        # A maximal-independent expansion of C5 that reaches chi + 1 but
        # reads non-critical is an internal error, not "no witness".
        with pytest.raises(RuntimeError):
            first_witness(family("cycle", 5))


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


class TestReplicationLemma:
    @given(graphs_with_edges(max_n=5), st.integers(1, 3), st.data())
    def test_colorable_iff_member_of_power(self, G, s, data):
        # replicate(G, c) is s-colourable iff x^(s - c) lies in J(G)^s: its
        # colour classes are s independent sets of G covering v c_v times,
        # and their complements are s covers dividing x^(s - c).
        c = data.draw(st.lists(st.integers(0, s), min_size=G.n, max_size=G.n))
        colorable = chromatic_number(replicate(G, c))[0] <= s
        member = contains_in_power(cover_ideal(G), s, [s - cv for cv in c])
        assert colorable == member


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
    witness = first_witness(H, mode="all_subsets")
    assert witness is not None, "every component's graph should admit a witness at this scale"
    shadows = sorted(Y)
    bases = [shadows[w] // s for w in witness.W]
    shifted = []
    for v, a in enumerate(comp):
        b_v = bases.count(v)
        assert 0 <= b_v <= a
        shifted.append(a - b_v + 1 if a else 0)
    return tuple(shifted)


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
        Gs = replicate(G, [s] * G.n)
        next_decomp = set(irreducible_decomposition(power(J, s + 1)))
        for comp in irreducible_decomposition(power(J, s)):
            Y = component_to_Y(comp, s)
            H = induced_subgraph(Gs, Y)
            critical, chi, _ = is_critical(H)
            assert critical and chi == s + 1
            shifted = _witness_shift_component(H, Y, comp, s)
            assert all(1 <= e <= s + 1 for e in shifted if e)
            assert shifted in next_decomp
