"""Exact rational covering-LP tests."""

from fractions import Fraction

import pytest
from hypothesis import given

from conftest import graphs
from coverideal.coloring import fractional_value
from coverideal.graphs import family, kneser_graph, maximal_independent_sets
from coverideal import lp
from coverideal.lp import _SET_LIMIT, solve_cover_lp


def test_single_set_cover():
    value, weights = solve_cover_lp(2, [frozenset({0, 1})])
    assert value == Fraction(1) and weights == [Fraction(1)]

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

def test_set_limit_on_kneser_8_3():
    # 23,936 maximal independent sets: the dense tableau once ran out of memory.
    with pytest.raises(ValueError, match=f"23936 sets exceed .* limit of {_SET_LIMIT} sets"):
        fractional_value(kneser_graph(8, 3))

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
