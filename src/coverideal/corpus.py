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

The critical census (``critical_graphs``) takes one route for every n: it
screens the same extension stream before deduplicating, keeping only
connected candidates in which no vertex's neighborhood lies inside a
non-neighbor's, as in every critical graph on two or more vertices.  A
screen that is an isomorphism invariant drops whole classes, so the
survivors keep their first-kept representatives, labels and order, and
the level the screens discard is never built.

Expected class counts (1, 2, 4, 11, 34, 156, 1044 for n = 1..7) are frozen
into the test suite, and ``tests/oracles.py`` keeps the pairwise route
(every extension, an invariant bucket and a joint isomorphism test per
pair) as the cross-check of the representatives, and the filter-afterwards
census as the cross-check of the screened one.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .coloring import is_critical
from .graphs import (
    Graph,
    _members,
    automorphisms,
    build_graph,
    first_of_each_class,
    is_connected,
)

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


def _extensions(n: int, dmin: int):
    """Orbit-pruned extensions of the level below, in census order.

    Every graph on n vertices with minimum degree >= dmin extends a
    representative of ``graphs_with_min_degree(n - 1, max(dmin - 1, 0))``
    by a vertex n - 1 whose neighborhood S covers every parent vertex of
    degree < dmin and has size >= dmin.  The neighborhoods of one parent
    come in ``combinations`` order of their optional part, and only the
    first member of each orbit under Aut(parent) is extended.  A child's
    masks are the parent's, with bit n - 1 set on the members of S.
    """
    new = 1 << n - 1
    for parent in graphs_with_min_degree(n - 1, max(dmin - 1, 0)):
        deficient = [v for v in range(parent.n) if parent.degree(v) < dmin]
        optional = [v for v in range(parent.n) if parent.degree(v) >= dmin]
        need = max(dmin - len(deficient), 0)
        base = sum(1 << v for v in deficient)
        auts = automorphisms(parent)
        for size in range(need, len(optional) + 1):
            seen: set[int] = set()
            for extra in combinations(optional, size):
                bits = sum(1 << v for v in extra)
                if bits in seen:
                    continue
                seen.update(sum(1 << p[v] for v in extra) for p in auts)
                S = base | bits
                masks = [m | new if S >> v & 1 else m for v, m in enumerate(parent.masks)]
                yield Graph(n, (*masks, S))


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
    return tuple(first_of_each_class(_extensions(n, dmin)))


def _dominated(G: Graph) -> bool:
    """Whether some vertex u has N(u) inside N(v) for a non-neighbor v != u.

    Such a u fails criticality: any coloring of G - u extends to G by
    giving u the color of v.
    """
    full = (1 << G.n) - 1
    for u, mu in enumerate(G.masks):
        for v in _members(full ^ mu ^ 1 << u):
            if not mu & ~G.masks[v]:
                return True
    return False


@lru_cache(maxsize=None)
def critical_graphs(n: int) -> tuple[tuple[Graph, int], ...]:
    """All vertex-critical graphs on exactly n vertices, with chromatic number.

    One route for every n >= 2: the extensions that
    ``graphs_with_min_degree(n, d)`` deduplicates are screened first, and
    ``is_critical`` runs on the first candidate of each class that passes:

    - connected: a critical graph on two or more vertices is connected;
    - not ``_dominated``: a vertex whose neighborhood lies inside a
      non-neighbor's never lowers the chromatic number when deleted.

    Both screens are isomorphism invariants, so the first candidate of each
    surviving class is the one the unscreened deduplication keeps, and the
    representatives come in its order with its labels.

    The degree bound d is 0 for n <= 7 and 3 for n == 8.  A critical graph
    with chromatic number k has minimum degree >= k - 1 (otherwise a proper
    (k-1)-coloring of G - v would extend across a low-degree v), the only
    2-critical graph is a single edge, and every 3-critical graph is an odd
    cycle -- so on 8 vertices only k >= 4 survives, forcing degree >= 3.
    """
    if not 1 <= n <= 8:
        raise ValueError("supported vertex counts are 1..8")
    if n == 1:
        return ((build_graph(1, []), 1),)
    candidates = _extensions(n, 3 if n == 8 else 0)
    screened = (G for G in candidates if is_connected(G) and not _dominated(G))
    out = []
    for G in first_of_each_class(screened):
        critical, chi, _ = is_critical(G)
        if critical:
            out.append((G, chi))
    return tuple(out)
