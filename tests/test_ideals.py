"""Monomial ideal tests: cover ideals, powers, membership, decomposition.

Expected generator sets and component lists were computed with the
brute-force oracles (divisibility sweeps over exponent boxes) before the
package implementation existed, then frozen here.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import graphs_with_edges, monomial_ideals, squarefree_ideals
from coverideal import ideals
from coverideal.graphs import build_graph, family, kneser_graph
from coverideal.ideals import (
    IrreducibleIdeal,
    associated_primes,
    contains_in_power,
    cover_ideal,
    irreducible_decomposition,
    monomial_ideal,
    multiply,
    power,
)
from oracles import (
    b_fold_via_membership,
    brute_contains,
    brute_contains_in_power,
    brute_minimal_vertex_covers,
    brute_minimalize,
    brute_power_gens,
    brute_product_gens,
    component_contains,
    component_key,
    monomial_box,
    perfect_graph_components,
    splitting_decomposition,
)


class TestCoverIdeal:
    def test_single_edge(self):
        J = cover_ideal(build_graph(2, [(0, 1)]))
        assert J.gens == ((0, 1), (1, 0))

    def test_triangle(self):
        J = cover_ideal(family("complete", 3))
        assert J.gens == ((0, 1, 1), (1, 0, 1), (1, 1, 0))

    def test_five_cycle(self):
        J = cover_ideal(family("cycle", 5))
        assert len(J.gens) == 5
        assert all(sum(g) == 3 and set(g) <= {0, 1} for g in J.gens)

    @pytest.mark.parametrize(
        "G",
        [build_graph(0, []), build_graph(3, []), build_graph(3, [(0, 1)])],
        ids=["empty", "edgeless", "isolated_vertex"],
    )
    def test_rejects_graphs_without_full_cover_structure(self, G):
        with pytest.raises(ValueError):
            cover_ideal(G)

    @given(graphs_with_edges(max_n=6))
    def test_generators_are_exactly_minimal_covers(self, G):
        J = cover_ideal(G)
        want = {
            tuple(1 if v in c else 0 for v in range(G.n))
            for c in brute_minimal_vertex_covers(G)
        }
        assert set(J.gens) == want


class TestMultiplyAndPower:
    def test_square_of_two_variables(self):
        I = monomial_ideal(2, [(1, 0), (0, 1)])
        assert multiply(I, I).gens == ((0, 2), (1, 1), (2, 0))

    def test_principal_scaling(self):
        A = monomial_ideal(1, [(2,)])
        B = monomial_ideal(1, [(3,)])
        assert multiply(A, B).gens == ((5,),)

    def test_mismatched_rings(self):
        with pytest.raises(ValueError):
            multiply(monomial_ideal(1, [(1,)]), monomial_ideal(2, [(1, 0)]))

    def test_power_one_is_identity(self):
        J = cover_ideal(family("cycle", 5))
        assert power(J, 1) == J

    def test_cube_of_two_variables(self):
        I = monomial_ideal(2, [(1, 0), (0, 1)])
        assert power(I, 3).gens == ((0, 3), (1, 2), (2, 1), (3, 0))

    def test_invalid_power(self):
        with pytest.raises(ValueError):
            power(monomial_ideal(1, [(1,)]), 0)

    @given(monomial_ideals(), monomial_ideals())
    def test_product_matches_brute_force(self, a, b):
        nv_a, gens_a = a
        nv_b, gens_b = b
        if nv_a != nv_b:
            gens_a = tuple(g + (0,) * (max(nv_a, nv_b) - nv_a) for g in gens_a)
            gens_b = tuple(g + (0,) * (max(nv_a, nv_b) - nv_b) for g in gens_b)
        nv = max(nv_a, nv_b)
        got = multiply(monomial_ideal(nv, gens_a), monomial_ideal(nv, gens_b))
        assert got.gens == brute_product_gens(
            monomial_ideal(nv, gens_a).gens, monomial_ideal(nv, gens_b).gens
        )

    @given(monomial_ideals(max_vars=4, max_gens=4, max_exp=2), st.integers(1, 3))
    def test_power_matches_brute_force(self, ideal, s):
        nv, gens = ideal
        I = monomial_ideal(nv, gens)
        assert power(I, s).gens == brute_power_gens(I.gens, s)

    def test_ascending_powers_start_from_the_held_one(self, multiply_calls):
        J = cover_ideal(family("cycle", 5))
        ideals._held_power.cache_clear()
        for s in range(1, 5):
            assert power(J, s).gens == brute_power_gens(J.gens, s)
        assert len(multiply_calls) == 3

    @given(
        monomial_ideals(max_vars=3, max_gens=3, max_exp=2),
        monomial_ideals(max_vars=3, max_gens=3, max_exp=2),
        st.lists(st.tuples(st.booleans(), st.integers(1, 4)), min_size=1, max_size=8),
    )
    def test_held_power_under_any_call_order(self, a, b, calls):
        # Ascending, descending and repeated s, alternating between two ideals.
        pair = (monomial_ideal(*a), monomial_ideal(*b))
        for second, s in calls:
            I = pair[second]
            assert power(I, s).gens == brute_power_gens(I.gens, s)

    def test_high_power_is_built_without_recursion(self):
        I = monomial_ideal(1, [(1,)])
        ideals._held_power.cache_clear()
        assert power(I, 2000) == monomial_ideal(1, [(2000,)])


class TestMembership:
    def test_generators_are_members(self):
        J = cover_ideal(family("cycle", 5))
        assert all(contains_in_power(J, 1, g) for g in J.gens)

    def test_low_degree_nonmember(self):
        J = cover_ideal(family("cycle", 5))
        assert not contains_in_power(J, 1, (1, 1, 0, 0, 0))

    def test_full_square_in_second_power(self):
        J = cover_ideal(family("cycle", 5))
        assert brute_contains(power(J, 2).gens, (2, 2, 2, 2, 2))
        assert contains_in_power(J, 2, (2, 2, 2, 2, 2))

    def test_membership_in_powers(self):
        J = cover_ideal(family("cycle", 5))
        assert contains_in_power(J, 3, (2, 2, 2, 2, 2))
        assert not contains_in_power(J, 2, (1, 1, 1, 1, 1))
        assert not contains_in_power(monomial_ideal(5, []), 2, (2, 2, 2, 2, 2))

    def test_length_checked(self):
        J = cover_ideal(family("cycle", 5))
        with pytest.raises(ValueError):
            contains_in_power(J, 2, (1, 1))

    def test_power_must_be_positive(self):
        J = cover_ideal(family("cycle", 5))
        with pytest.raises(ValueError):
            contains_in_power(J, 0, (1, 1, 1, 1, 1))

    def test_squarefree_required(self):
        with pytest.raises(ValueError):
            contains_in_power(monomial_ideal(1, [(2,)]), 1, (4,))

    @given(graphs_with_edges(max_n=5), st.integers(1, 3), st.data())
    def test_power_membership_routes_agree(self, G, d, data):
        J = cover_ideal(G)
        m = tuple(data.draw(st.integers(0, d + 1)) for _ in range(G.n))
        direct = contains_in_power(J, d, m)
        assert direct == brute_contains(power(J, d).gens, m)
        assert direct == brute_contains_in_power(J.gens, d, m)

    @given(squarefree_ideals(), st.integers(1, 4), st.data())
    def test_power_membership_on_squarefree_ideals(self, ideal, d, data):
        # Generators need not be vertex covers: a variable in every generator
        # has a complement in no covering set, the full support an empty one.
        nv, gens = ideal
        J = monomial_ideal(nv, gens)
        m = tuple(data.draw(st.integers(0, d + 1)) for _ in range(nv))
        direct = contains_in_power(J, d, m)
        assert direct == brute_contains_in_power(J.gens, d, m)
        assert direct == brute_contains(power(J, d).gens, m)


class TestBFoldViaMembership:
    @pytest.mark.parametrize(
        "G,b,want",
        [
            (family("cycle", 5), 1, 3),
            (family("cycle", 5), 2, 5),
            (family("complete", 3), 2, 6),
            (kneser_graph(5, 2), 2, 5),
        ],
        ids=["C5b1", "C5b2", "K3b2", "petersen_b2"],
    )
    def test_known_values(self, G, b, want):
        assert b_fold_via_membership(G, b) == want

    def test_invalid_fold(self):
        with pytest.raises(ValueError):
            b_fold_via_membership(family("cycle", 5), 0)


def _component_set(I):
    return {c.exps for c in irreducible_decomposition(I)}


class TestDecomposition:
    def test_mixed_two_variable_example(self):
        I = monomial_ideal(2, [(2, 0), (1, 1), (0, 3)])
        assert _component_set(I) == {((0, 1), (1, 3)), ((0, 2), (1, 1))}

    def test_irreducible_is_its_own_decomposition(self):
        I = monomial_ideal(2, [(1, 0), (0, 1)])
        got = irreducible_decomposition(I)
        assert len(got) == 1
        assert got[0] == IrreducibleIdeal(2, ((0, 1), (1, 1)))

    def test_principal_pure_power(self):
        got = irreducible_decomposition(monomial_ideal(1, [(2,)]))
        assert got == (IrreducibleIdeal(1, ((0, 2),)),)

    @pytest.mark.parametrize(
        "G",
        [family("cycle", 5), family("complete", 3), family("complete", 4)],
        ids=["C5", "K3", "K4"],
    )
    def test_cover_ideal_components_are_edge_primes(self, G):
        want = {((u, 1), (v, 1)) for u, v in G.edges()}
        assert _component_set(cover_ideal(G)) == want

    def test_second_power_of_five_cycle(self):
        J2 = power(cover_ideal(family("cycle", 5)), 2)
        comps = _component_set(J2)
        assert len(comps) == 11
        edge_types = {c for c in comps if len(c) == 2}
        assert len(edge_types) == 10
        for c in edge_types:
            assert sorted(e for _, e in c) == [1, 2]
        assert tuple((v, 2) for v in range(5)) in comps

    def test_zero_and_unit_ideals_rejected(self):
        with pytest.raises(ValueError):
            irreducible_decomposition(monomial_ideal(2, []))
        with pytest.raises(ValueError):
            irreducible_decomposition(monomial_ideal(2, [(0, 0)]))

    def test_deterministic_across_cache_state(self):
        I = monomial_ideal(3, [(2, 1, 0), (0, 2, 1), (1, 0, 2), (1, 1, 1)])
        first = irreducible_decomposition(I)
        irreducible_decomposition.cache_clear()
        assert irreducible_decomposition(I) == first

    def test_equal_ideal_is_a_cache_hit(self):
        I = power(cover_ideal(family("cycle", 7)), 2)
        first = irreducible_decomposition(I)
        hits = irreducible_decomposition.cache_info().hits
        again = irreducible_decomposition(monomial_ideal(I.nvars, I.gens))
        assert again is first
        assert irreducible_decomposition.cache_info().hits == hits + 1

    def test_components_canonically_sorted(self):
        comps = irreducible_decomposition(power(cover_ideal(family("cycle", 5)), 2))
        keys = [component_key(c) for c in comps]
        assert keys == sorted(keys)

    @given(monomial_ideals(max_vars=4, max_gens=5, max_exp=3))
    def test_intersection_equals_ideal(self, ideal):
        nv, gens = ideal
        I = monomial_ideal(nv, gens)
        comps = irreducible_decomposition(I)
        bound = max((e for g in I.gens for e in g), default=0) + 1
        for m in monomial_box((bound,) * nv):
            assert brute_contains(I.gens, m) == all(component_contains(c, m) for c in comps)

    @given(monomial_ideals(max_vars=3, max_gens=4, max_exp=3))
    def test_no_component_is_redundant(self, ideal):
        nv, gens = ideal
        I = monomial_ideal(nv, gens)
        comps = irreducible_decomposition(I)
        bound = max(e for g in I.gens for e in g)
        for i, dropped in enumerate(comps):
            others = comps[:i] + comps[i + 1 :]
            witness_found = any(
                all(component_contains(c, m) for c in others)
                and not component_contains(dropped, m)
                for m in monomial_box((bound,) * nv)
            )
            assert witness_found, "dropping a component should change the intersection"

    @given(graphs_with_edges(max_n=5), st.integers(1, 2))
    def test_power_component_exponents_bounded_by_power(self, G, s):
        comps = irreducible_decomposition(power(cover_ideal(G), s))
        for c in comps:
            assert all(1 <= e <= s for _, e in c.exps)


class TestAssociatedPrimes:
    def test_cover_ideal_primes_are_edges(self):
        G = family("cycle", 5)
        assert associated_primes(cover_ideal(G)) == [
            frozenset(e) for e in sorted(G.edges())
        ]

    def test_second_power_adds_full_support(self):
        G = family("cycle", 5)
        primes = associated_primes(power(cover_ideal(G), 2))
        assert len(primes) == 6
        assert frozenset(range(5)) in primes
        assert {p for p in primes if len(p) == 2} == {frozenset(e) for e in G.edges()}

    def test_principal(self):
        assert associated_primes(monomial_ideal(1, [(2,)])) == [frozenset({0})]

    def test_sorted_output(self):
        primes = associated_primes(power(cover_ideal(family("complete", 4)), 2))
        assert primes == sorted(primes, key=lambda s: sorted(s))


class TestDecompositionEngines:
    """The duality engine must match the splitting oracle exactly."""

    @given(monomial_ideals())
    def test_engines_agree_on_random_ideals(self, data):
        nvars, gens = data
        I = monomial_ideal(nvars, gens)
        assert irreducible_decomposition(I) == splitting_decomposition(I)

    @given(monomial_ideals(max_vars=7, max_gens=20, max_exp=3, min_vars=5, min_gens=8))
    def test_engines_agree_on_wider_random_ideals(self, data):
        nvars, gens = data
        I = monomial_ideal(nvars, gens)
        assert irreducible_decomposition(I) == splitting_decomposition(I)

    def test_engines_agree_on_cover_ideal_powers(self):
        expected = {
            ("cycle", 5, 3): 20,
            ("cycle", 7, 2): 15,
            ("complete", 4, 3): 31,
        }
        for (kind, n, s), count in expected.items():
            I = power(cover_ideal(family(kind, n)), s)
            dual = irreducible_decomposition(I)
            assert dual == splitting_decomposition(I)
            assert len(dual) == count

    def test_engines_agree_on_large_exponents(self):
        # Exponents past 255 take two bytes per field along the whole chain.
        I = monomial_ideal(2, [(300, 0), (1, 2), (0, 400)])
        assert irreducible_decomposition(I) == splitting_decomposition(I)

    @pytest.mark.parametrize("top", [255, 256, 65_535, 65_536, 2**64, 2**64 + 1])
    def test_wide_exponents_match_oracles(self, top):
        # The largest product exponent is top: 255 and 65,535 fill one and
        # two bytes exactly, 256 and 65,536 need the next byte of field
        # width, and 2**64 and 2**64 + 1 need nine bytes.
        a, b = top // 2, top - top // 2
        A = monomial_ideal(3, [(a, 1, 0), (0, a, 2), (2, 0, a), (1, 1, 1)])
        B = monomial_ideal(3, [(b, 0, 0), (0, 3, b), (1, 2, 1)])
        prod = multiply(A, B)
        assert prod.gens == brute_product_gens(A.gens, B.gens)
        assert max(max(g) for g in prod.gens) == top
        assert irreducible_decomposition(prod) == splitting_decomposition(prod)

    def test_exponents_past_64_bits_match_oracles(self):
        gens = [(2**64, 0), (0, 1)]
        assert monomial_ideal(2, gens).gens == brute_minimalize(gens)
        I = monomial_ideal(1, [(2**63,)])
        assert multiply(I, I).gens == brute_product_gens(I.gens, I.gens) == ((2**64,),)
        # The duality chain flips exponents through the largest one plus one.
        I = monomial_ideal(1, [(2**64 - 1,)])
        assert irreducible_decomposition(I) == splitting_decomposition(I)

    @pytest.mark.parametrize(
        "nvars, gens",
        [(2, [(2**62, 2**62), (1, 1)]), (1, [(2**63 + 5,), (3,)])],
        ids=["sum_2_63", "single_past_2_63"],
    )
    def test_degree_sums_past_63_bits_minimalize(self, nvars, gens):
        # A degree sum of 2**63 or more wraps in int64 and misorders the
        # screening levels; degrees are rank sums, which cannot wrap.
        assert monomial_ideal(nvars, gens).gens == brute_minimalize(gens)

    def test_degree_sums_past_63_bits_decompose(self):
        B = 2**61
        gens = [
            (1, 2 * B, 0, 0, 0, 7 * B, 5 * B),
            (3 * B, 6 * B, 0, 4 * B, B + 1, B, 6 * B),
            (6 * B, 1, B + 1, 1, 4 * B, 4 * B, 4 * B),
            (7 * B, 3 * B, B, 1, 4 * B, 0, 3 * B),
        ]
        I = monomial_ideal(7, gens)
        assert I.gens == brute_minimalize(gens)
        comps = irreducible_decomposition(I)
        assert comps == splitting_decomposition(I)
        assert len(comps) == 38

    def test_batched_minimalize_matches_scalar(self):
        import random

        rng = random.Random(20260815)
        rows = {tuple(rng.randint(0, 6) for _ in range(6)) for _ in range(2048)}
        rows = [r for r in rows if sum(r)]
        assert monomial_ideal(6, rows).gens == brute_minimalize(rows)

    def test_large_product_matches_pairwise_sums(self):
        import itertools

        # All compositions of 6 into 6 parts: one antichain of 462 generators,
        # so the product has enough generator pairs to take the bulk route.
        comps = [
            g
            for g in itertools.product(range(7), repeat=6)
            if sum(g) == 6
        ]
        assert len(comps) == 462
        I = monomial_ideal(6, comps)
        assert len(I.gens) == 462
        prod = multiply(I, I)
        expected = {tuple(a + b for a, b in zip(g, h)) for g in comps for h in comps}
        # Same total degree everywhere: every distinct sum is a minimal generator.
        assert prod.gens == tuple(sorted(expected))


class TestPackedKernel:
    """Packed rows: the row-lex order of wide rows, rank widths and small rings."""

    def test_multi_word_rows_sort_row_lex(self):
        import random

        # 30 variables: the row-lex order runs past the first few columns.
        rng = random.Random(20261018)
        rows = [tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(30)) for _ in range(300)]
        rows = [r for r in rows if sum(r)]
        assert monomial_ideal(30, rows).gens == brute_minimalize(rows)

    @pytest.mark.parametrize("seed", [101, 502])
    def test_small_random_ideals_match_oracles(self, seed):
        import random

        irreducible_decomposition.cache_clear()
        rng = random.Random(seed)
        for _ in range(20):
            rows = [tuple(rng.randint(0, 3) for _ in range(4)) for _ in range(12)]
            rows = [r for r in rows if sum(r)]
            I = monomial_ideal(4, rows)
            assert I.gens == brute_minimalize(rows)
            J = monomial_ideal(4, rows[:4])
            assert multiply(I, J).gens == brute_product_gens(I.gens, J.gens)
            assert irreducible_decomposition(I) == splitting_decomposition(I)
        irreducible_decomposition.cache_clear()

    def test_ring_without_variables(self):
        # The unit ideal is the one nonzero ideal of the ring with no variables.
        unit = monomial_ideal(0, [(), ()])
        assert unit.gens == brute_minimalize([(), ()]) == ((),)
        assert multiply(unit, unit).gens == brute_product_gens(unit.gens, unit.gens)

    def test_column_past_255_distinct_exponents(self):
        # 300 distinct values in each column need ranks wider than a byte.
        rows = [(i, 299 - i) for i in range(300)] + [(i + 1, 300 - i) for i in range(0, 300, 7)]
        I = monomial_ideal(2, rows)
        assert I.gens == brute_minimalize(rows)
        J = monomial_ideal(2, [(1, 0), (0, 2)])
        assert multiply(I, J).gens == brute_product_gens(I.gens, J.gens)

    def test_only_divisor_two_degree_levels_down(self):
        # Degrees 1, 2 and 3 in ranks: (2, 0, 1) is divided by (1, 0, 0)
        # only, past the level of (0, 1, 1), which does not divide it.
        rows = [(2, 0, 1), (0, 1, 1), (1, 0, 0)]
        assert monomial_ideal(3, rows).gens == brute_minimalize(rows) == ((0, 1, 1), (1, 0, 0))


def _complete_multipartite(*parts):
    """Complete multipartite graph; vertices numbered part by part."""
    starts = [sum(parts[:i]) for i in range(len(parts))]
    blocks = [range(a, a + p) for a, p in zip(starts, parts)]
    edges = [(u, v) for i, A in enumerate(blocks) for B in blocks[i + 1 :] for u in A for v in B]
    return build_graph(sum(parts), edges)


def _irreducible(nvars, **exps):
    """Irreducible ideal in x, y, z, ... given as x=1, z=2 and so on."""
    return IrreducibleIdeal(nvars, tuple(sorted(("xyz".index(v), e) for v, e in exps.items())))


class TestBitSlicedChain:
    """Each branch of one step of the duality chain, against the oracles.

    In the hand-worked cases the variables are x, y, z; the chain meets the
    duals of the generators in lex order, starting from the unit ideal, and
    K is its running generator set in dual exponents.
    """

    def test_kept_image_evicts_a_row_of_the_same_step(self):
        # The duals are (y, z) and then (x, z^2), which raises both rows
        # of K = {y, z}: y's images x*y and y*z^2 are added, then z's image
        # z^2 divides y*z^2 and evicts it.  K ends as {x*y, x*z, z^2}.
        I = monomial_ideal(3, [(0, 1, 2), (1, 0, 1)])
        expected = (_irreducible(3, x=1, y=1), _irreducible(3, x=1, z=2), _irreducible(3, z=1))
        assert irreducible_decomposition(I) == splitting_decomposition(I) == expected

    def test_image_divided_by_a_passed_row(self):
        # The duals are (y, z) and then (x, y): y passes, and z's image y*z
        # is divided by it.  K ends as {y, x*z}.
        I = monomial_ideal(3, [(0, 1, 1), (1, 1, 0)])
        expected = (_irreducible(3, x=1, z=1), _irreducible(3, y=1))
        assert irreducible_decomposition(I) == splitting_decomposition(I) == expected

    def test_image_divided_by_a_row_of_the_same_step(self):
        # The duals are (y, z) and then (x, y^2), which raises both rows:
        # y's image y^2 is added, then z's image y^2*z is divided by it.
        # K ends as {x*y, y^2, x*z}.
        I = monomial_ideal(3, [(0, 2, 1), (1, 1, 0)])
        expected = (
            _irreducible(3, x=1, y=2),
            _irreducible(3, x=1, z=1),
            _irreducible(3, y=1),
        )
        assert irreducible_decomposition(I) == splitting_decomposition(I) == expected

    def test_step_raising_thousands_of_rows(self, monkeypatch):
        # A new variable x_0 in front of J(K_{15,15,15})^2: the pure power
        # x_0 is the last generator in lex order, and it raises every one
        # of the 4725 rows of K, none of which holds x_0.  Each row keeps
        # its one image, so the components are those of J^2 plus x_0.
        G = _complete_multipartite(15, 15, 15)
        J = power(cover_ideal(G), 2)
        I = monomial_ideal(46, [(0, *g) for g in J.gens] + [(1,) + (0,) * 45])
        sizes = []
        members = ideals._members
        monkeypatch.setattr(ideals, "_members", lambda m: sizes.append(m.bit_count()) or members(m))
        comps = irreducible_decomposition(I)
        assert max(sizes) == 4725
        expected = {
            IrreducibleIdeal(46, ((0, 1), *((v + 1, e) for v, e in c.exps)))
            for c in perfect_graph_components(G, 2)
        }
        assert len(comps) == 4725
        assert set(comps) == expected

    def test_renumbering_dead_slots(self, monkeypatch):
        # J(C5)^3 renumbers K's slots twice along its 35 steps; in the
        # chain, only a renumbering rebuilds the bitsets with _above.
        calls = []
        above = ideals._above
        I = power(cover_ideal(family("cycle", 5)), 3)
        monkeypatch.setattr(ideals, "_above", lambda *a: calls.append(a) or above(*a))
        irreducible_decomposition.cache_clear()
        assert irreducible_decomposition(I) == splitting_decomposition(I)
        irreducible_decomposition.cache_clear()
        assert len(calls) == 2


class TestClosedFormPerfectGraphs:
    """The engine against the perfect-graph closed form on 17 to 45 vertices,
    past brute-force size."""

    @pytest.mark.parametrize(
        "G, s, count",
        [
            (family("complete", 20), 2, 1520),
            (family("complete", 21), 2, 1750),
            (_complete_multipartite(11, 11), 2, 242),
            (family("complete", 17), 3, 4828),
            (_complete_multipartite(20, 20), 3, 1200),
            (_complete_multipartite(15, 15, 15), 2, 4725),
        ],
        ids=["K20_s2", "K21_s2", "K11_11_s2", "K17_s3", "K20_20_s3", "K15_15_15_s2"],
    )
    def test_components_match_closed_form(self, G, s, count):
        I = power(cover_ideal(G), s)
        comps = irreducible_decomposition(I)
        expected = perfect_graph_components(G, s)
        assert len(comps) == count
        assert set(comps) == expected
        assert associated_primes(I) == sorted(
            {frozenset(c.support) for c in expected}, key=sorted
        )
