"""Exhaustive small-graph corpora, one representative per isomorphism class.

Graphs on n vertices are generated by extending every (n-1)-vertex
representative with a new vertex attached to each possible neighborhood,
in ``combinations`` order, and the first candidate of each class is kept.

Two things keep that cheap without changing what is kept:

- Orbit pruning.  Aut(parent) is enumerated once per parent.  For each
  neighborhood size, only the first member of each orbit of the optional
  neighbors under Aut(parent) is extended; automorphisms preserve degree,
  so they fix the set of low-degree vertices every neighborhood must
  cover.  A skipped neighborhood is the image of an earlier one from the
  same parent, so its graph is isomorphic to an earlier candidate: it
  could never have been the first of its class, and the first-kept
  representatives and their order are exactly those of the unpruned
  extension.
- One certificate per graph (``graphs.first_of_each_class``): degree
  refinement is run once per candidate, and its hashed round-by-round
  trace is the bucket key.  A candidate is matched only against the
  representatives in its bucket, by bitmask backtracking within color
  cells; the same matcher enumerates Aut(parent).

Expected class counts (1, 2, 4, 11, 34, 156, 1044 for n = 1..7) are frozen
into the test suite, and ``tests/oracles.py`` keeps the pairwise route
(every extension, an invariant bucket and a joint isomorphism test per
pair) as the cross-check of the representatives.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .coloring import chromatic_number, is_critical
from .graphs import Graph, automorphisms, build_graph, first_of_each_class, is_connected

__all__ = [
    "all_graphs",
    "connected_graphs",
    "graphs_with_min_degree",
    "critical_graphs",
]


def all_graphs(n: int) -> tuple[Graph, ...]:
    """All simple graphs on n vertices, one per isomorphism class."""
    return graphs_with_min_degree(n, 0)


@lru_cache(maxsize=None)
def connected_graphs(n: int) -> tuple[Graph, ...]:
    """Connected representatives among all_graphs(n)."""
    return tuple(G for G in all_graphs(n) if is_connected(G))


@lru_cache(maxsize=None)
def graphs_with_min_degree(n: int, dmin: int) -> tuple[Graph, ...]:
    """All graphs on n vertices with minimum degree >= dmin, up to isomorphism.

    Deleting a vertex lowers each remaining degree by at most one, so every
    such graph extends an (n-1)-vertex graph of minimum degree >= dmin - 1,
    with the new neighborhood covering every parent vertex of degree
    dmin - 1 and having size >= dmin.  A dmin of 0 or less gives all graphs.
    """
    if n < 1:
        raise ValueError("vertex count must be >= 1")
    dmin = max(dmin, 0)
    if dmin > n - 1:
        return ()
    if n == 1:
        return (build_graph(1, []),)

    def candidates():
        for parent in graphs_with_min_degree(n - 1, max(dmin - 1, 0)):
            deficient = frozenset(v for v in range(parent.n) if parent.degree(v) < dmin)
            optional = [v for v in range(parent.n) if v not in deficient]
            need = max(dmin - len(deficient), 0)
            base_edges = parent.edges()
            auts = automorphisms(parent)
            for size in range(need, len(optional) + 1):
                seen: set[tuple[int, ...]] = set()
                for extra in combinations(optional, size):
                    if extra in seen:
                        continue
                    seen.update(tuple(sorted(p[v] for v in extra)) for p in auts)
                    S = sorted(deficient | set(extra))
                    yield build_graph(n, base_edges + [(u, n - 1) for u in S])

    return tuple(first_of_each_class(candidates()))


@lru_cache(maxsize=None)
def critical_graphs(n: int) -> tuple[tuple[Graph, int], ...]:
    """All vertex-critical graphs on exactly n vertices, with chromatic number.

    For n <= 7 this filters the connected representatives directly.  For
    n == 8 the candidate pool shrinks first: a critical graph with
    chromatic number k has minimum degree >= k - 1 (otherwise a proper
    (k-1)-coloring of G - v would extend across a low-degree v), the only
    2-critical graph is a single edge, and every 3-critical graph is an odd
    cycle -- so on 8 vertices only k >= 4 survives, forcing degree >= 3.
    """
    if not 1 <= n <= 8:
        raise ValueError("supported vertex counts are 1..8")
    if n <= 7:
        pool = connected_graphs(n)
    else:
        pool = tuple(
            G for G in graphs_with_min_degree(8, 3) if is_connected(G)
        )
    out = []
    for G in pool:
        critical, chi, _ = is_critical(G)
        if critical:
            out.append((G, chi))
    return tuple(out)
