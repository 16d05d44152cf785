"""Exact rational covering-LP tests.

Heavier closed-form checks run only with ``COVERIDEAL_EXTENDED=1``.
"""

import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import graphs
from coverideal.coloring import fractional_value
from coverideal.corpus import all_graphs
from coverideal.graphs import family, kneser_graph, maximal_independent_sets, mycielski
from coverideal import lp
from coverideal.lp import _SET_LIMIT, solve_cover_lp
from oracles import certificate_is_valid, dense_cover_lp

EXTENDED = os.environ.get("COVERIDEAL_EXTENDED") == "1"


def test_single_set_cover():
    value, weights = solve_cover_lp(2, [frozenset({0, 1})])
    assert value == Fraction(1) and weights == [Fraction(1)]

def test_duplicate_sets_weight_the_first_copy():
    # Pricing breaks ties to the lowest index, so the first copy enters.
    value, weights = solve_cover_lp(2, [frozenset({1}), frozenset({0, 1}), frozenset({0, 1})])
    assert value == 1 and weights == [0, 1, 0]

def test_two_disjoint_points():
    value, weights = solve_cover_lp(2, [frozenset({0}), frozenset({1})])
    assert value == Fraction(2)
    assert weights == [Fraction(1), Fraction(1)]

def test_C5_pairs_give_five_halves():
    sets = maximal_independent_sets(family("cycle", 5))
    value, weights = solve_cover_lp(5, sets)
    assert value == Fraction(5, 2)
    assert sum(weights) == value
    for v in range(5):
        assert sum(w for s, w in zip(sets, weights) if v in s) >= 1

def test_triangle_needs_three():
    sets = maximal_independent_sets(family("complete", 3))
    value, _ = solve_cover_lp(3, sets)
    assert value == Fraction(3)

def test_fractional_optimum_below_integer():
    # Petersen: LP optimum 5/2, strictly below the integral cover number 3.
    P = kneser_graph(5, 2)
    value, _ = solve_cover_lp(10, maximal_independent_sets(P))
    assert value == Fraction(5, 2)

def test_uncovered_point_rejected():
    with pytest.raises(ValueError):
        solve_cover_lp(2, [frozenset({0})])

def test_empty_inputs_rejected():
    with pytest.raises(ValueError):
        solve_cover_lp(0, [frozenset()])
    with pytest.raises(ValueError):
        solve_cover_lp(1, [])

def test_set_limit(monkeypatch):
    sets = [frozenset({0}), frozenset({1}), frozenset({0, 1})]
    with pytest.raises(ValueError, match=f"{_SET_LIMIT + 1} sets exceed .* limit of {_SET_LIMIT}"):
        solve_cover_lp(2, (sets * _SET_LIMIT)[: _SET_LIMIT + 1])
    monkeypatch.setattr(lp, "_SET_LIMIT", 3)
    assert solve_cover_lp(2, sets)[0] == 1
    with pytest.raises(ValueError, match="4 sets exceed .* limit of 3 sets"):
        solve_cover_lp(2, sets + sets[:1])

def test_set_limit_on_kneser_8_3(monkeypatch):
    # 23,936 maximal independent sets: inside the limit, refused one below it.
    G = kneser_graph(8, 3)
    assert len(maximal_independent_sets(G)) == 23936 <= _SET_LIMIT
    monkeypatch.setattr(lp, "_SET_LIMIT", 23935)
    fractional_value.cache_clear()  # an earlier answer for K(8,3) would skip the limit
    with pytest.raises(ValueError, match="23936 sets exceed .* limit of 23935 sets"):
        fractional_value(G)

@pytest.mark.skipif(not EXTENDED, reason="set COVERIDEAL_EXTENDED=1 to run the 23,936-set LP")
def test_kneser_8_3_is_eight_thirds():
    # 23,936 maximal independent sets: the dense tableau once ran out of memory.
    G = kneser_graph(8, 3)
    value, cert = fractional_value(G)
    assert value == Fraction(8, 3)
    assert certificate_is_valid(G, value, cert)

@given(graphs(min_n=1, max_n=6))
def test_feasibility_and_value_consistency(G):
    sets = maximal_independent_sets(G)
    value, weights = solve_cover_lp(G.n, sets)
    assert all(w >= 0 for w in weights)
    assert sum(weights) == value
    for v in range(G.n):
        assert sum(w for s, w in zip(sets, weights) if v in s) >= 1
    # n/alpha is a universal lower bound; alpha * uniform weight is feasible.
    alpha = max(len(s) for s in sets)
    assert value >= Fraction(G.n, alpha)


def _assert_cover_certificate(n, sets, value, weights):
    assert len(weights) == len(sets)
    assert all(w >= 0 for w in weights)
    assert sum(weights) == value
    for v in range(n):
        assert sum(w for s, w in zip(sets, weights) if v in s) >= 1


def test_equals_dense_oracle_on_all_graphs_to_7():
    for k in range(1, 8):
        for G in all_graphs(k):
            value, cert = fractional_value(G)
            assert value == dense_cover_lp(G.n, maximal_independent_sets(G))[0], G.edges()
            assert certificate_is_valid(G, value, cert), G.edges()


@st.composite
def set_systems(draw, max_n: int = 6):
    """Points 0..n-1 and a list of sets with duplicates, nested sets and
    singletons, in a drawn order."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    point_sets = st.frozensets(st.integers(min_value=0, max_value=n - 1))
    sets = draw(st.lists(point_sets, min_size=1, max_size=8))
    sets += [draw(st.sampled_from(sets)) for _ in range(draw(st.integers(0, 3)))]
    for _ in range(draw(st.integers(0, 3))):
        outer = sorted(draw(st.sampled_from(sets)))
        sets.append(frozenset(v for v in outer if draw(st.booleans())))
    sets += [frozenset({v}) for v in draw(st.lists(st.integers(0, n - 1), max_size=3))]
    sets += [frozenset({v}) for v in range(n) if not any(v in s for s in sets)]
    return n, draw(st.permutations(sets))


@given(set_systems())
def test_set_systems_match_oracle_with_aligned_weights(system):
    n, sets = system
    value, weights = solve_cover_lp(n, sets)
    assert value == dense_cover_lp(n, sets)[0]
    _assert_cover_certificate(n, sets, value, weights)


def test_lexicographic_rule_breaks_tied_ratios():
    # Start basis of the LP on {0, 1}, {1, 2}, {0, 2}: B = I and x = 1.  The
    # entering set {0, 1} ties rows 0 and 1 at ratio 1; as rows of (X, M)
    # they read (1, 1, 0, 0) and (1, 0, 1, 0), so row 1 leaves.
    X, M, E = [1, 1, 1], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [1, 1, 0]
    assert lp._lex_smaller(X, M, E, 1, 0) and not lp._lex_smaller(X, M, E, 0, 1)
    # A tie that survives scaling: (2, 2, 0) / 2 and (1, 1, 1) / 1 agree in
    # their first two entries, and the third puts row 0 first.
    X, M, E = [2, 1], [[2, 0], [1, 1]], [2, 1]
    assert lp._lex_smaller(X, M, E, 0, 1) and not lp._lex_smaller(X, M, E, 1, 0)
    sets = [frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})]
    value, weights = solve_cover_lp(3, sets)
    assert value == Fraction(3, 2) and weights == [Fraction(1, 2)] * 3


def test_unproved_optimum_raises(monkeypatch):
    # Pricing that stops after one pivot leaves a feasible cover of C5 whose
    # dual overloads a set: the solver must refuse it, not return 3.
    price, calls = lp._price, []

    def one_pivot(*args):
        calls.append(None)
        return price(*args) if len(calls) == 1 else None

    monkeypatch.setattr(lp, "_price", one_pivot)
    with pytest.raises(RuntimeError, match="dual"):
        solve_cover_lp(5, maximal_independent_sets(family("cycle", 5)))


def test_wide_duals_price_in_python_integers():
    # Duals past int64 take the object path, which must agree with int64.
    incidence = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.int64)
    big = 2**70
    assert lp._price(incidence, [big, big + 1, 0], big) == 0
    assert lp._price(incidence, [big, big, -1], 3 * big) == ~2
    assert lp._price(incidence, [5, 6, 0], 5) == 0


class TestClosedForms:
    """chi_f from theorems, on graphs past the reach of brute force."""

    @pytest.mark.parametrize(
        "G,expected",
        [
            (mycielski(family("cycle", 13)), Fraction(205, 78)),
            (mycielski(family("cycle", 14)), Fraction(5, 2)),
            (mycielski(mycielski(mycielski(family("cycle", 5)))), Fraction(969581, 272890)),
        ],
        ids=["M(C13)", "M(C14)", "M3(C5)"],
    )
    def test_mycielski_towers(self, G, expected):
        # Larsen-Propp-Ullman: chi_f(M(G)) = chi_f(G) + 1 / chi_f(G).
        value, cert = fractional_value(G)
        assert value == expected
        assert certificate_is_valid(G, value, cert)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_odd_cycles(self, k):
        G = family("cycle", 2 * k + 1)
        value, cert = fractional_value(G)
        assert value == 2 + Fraction(1, k)
        assert certificate_is_valid(G, value, cert)

    def test_kneser_7_3(self):
        G = kneser_graph(7, 3)
        value, cert = fractional_value(G)
        assert value == Fraction(7, 3)
        assert certificate_is_valid(G, value, cert)
