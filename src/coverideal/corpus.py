"""Exhaustive small-graph corpora, one representative per isomorphism class.

Graphs on n vertices are generated by extending every (n-1)-vertex
representative with a new vertex attached to each possible neighborhood,
in ``combinations`` order, and the first candidate of each class is kept.

Two things keep that cheap without changing what is kept:

- Orbit pruning.  Aut(parent) is enumerated at most once per parent.
  For each neighborhood size, only the first member of each orbit of the
  optional neighbors under Aut(parent) is extended; automorphisms
  preserve degree, so they fix the set of low-degree vertices every
  neighborhood must cover.  A skipped neighborhood is the image of an earlier one from the
  same parent, so its graph is isomorphic to an earlier candidate: it
  could never have been the first of its class, and the first-kept
  representatives and their order are exactly those of the unpruned
  extension.
- One certificate per graph (``graphs._classes``): degree refinement is
  run once per candidate, and its hashed round-by-round trace is the
  bucket key.  A candidate is matched only against the representatives
  in its bucket, by bitmask backtracking within color cells; the same
  matcher enumerates Aut(parent) from the certificate kept with the
  parent's level (``_level``), so no parent is refined twice.

The critical census (``critical_graphs``) takes one route for every n
and screens before it builds.  A parent screen drops candidate parents
before they are deduplicated, and a neighborhood screen tests each new
neighborhood as a bitmask before the orbit bookkeeping and before any
graph is built.  Both rest on two textbook facts about a k-critical graph
G with k >= 3: G has no cut vertex (Dirac, 1952), and chi(G - v) = k - 1
for every v.  Every screen is an isomorphism invariant that holds for
G - v and N(v) whenever G is critical, so each critical class keeps its
first-kept representative, label and order.  The screened parent level is
local to the call, not cached.

Expected class counts (1, 2, 4, 11, 34, 156, 1044 for n = 1..7) are frozen
into the test suite, and ``tests/oracles.py`` keeps the pairwise route
(every extension, an invariant bucket and a joint isomorphism test per
pair) as the cross-check of the representatives, the filter-afterwards
census as the cross-check of the screened one, and ``_dominated`` as the
graph-level reference of the neighborhood screen.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .coloring import is_critical
from .graphs import (
    Graph,
    _Certificate,
    _certificate,
    _classes,
    _isomorphisms,
    _members,
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


def _extensions(parents, certs, dmin: int, screen=None):
    """Orbit-pruned extensions of the given parents, in census order.

    Every graph on n vertices with minimum degree >= dmin extends a
    representative of level (n - 1, dmin - 1) by a vertex n - 1 whose
    neighborhood S covers every parent vertex of degree < dmin and has size
    >= dmin.  The neighborhoods of one parent come in ``combinations`` order
    of their optional part, and only the first member of each orbit under
    Aut(parent) is extended; Aut(parent) is listed from the parent's
    certificate in ``certs``.  A child's masks are the parent's, with bit
    n - 1 set on the members of S.

    ``screen(parent)``, when given, returns a test of S as a bitmask.  It
    must be an Aut(parent)-invariant, so an S it rejects never enters the
    orbit bookkeeping, and the automorphisms are listed only once a first S
    of the parent passes.
    """
    for parent, cert in zip(parents, certs):
        new = 1 << parent.n
        deficient = [v for v in range(parent.n) if parent.degree(v) < dmin]
        optional = [v for v in range(parent.n) if parent.degree(v) >= dmin]
        need = max(dmin - len(deficient), 0)
        base = sum(1 << v for v in deficient)
        keep = screen(parent) if screen else None
        auts = None
        for size in range(need, len(optional) + 1):
            seen: set[int] = set()
            for extra in combinations(optional, size):
                bits = sum(1 << v for v in extra)
                S = base | bits
                if bits in seen or keep and not keep(S):
                    continue
                if auts is None:
                    auts = list(_isomorphisms(cert, cert))
                seen.update(sum(1 << p[v] for v in extra) for p in auts)
                masks = [m | new if S >> v & 1 else m for v, m in enumerate(parent.masks)]
                yield Graph(parent.n + 1, (*masks, S))


@lru_cache(maxsize=None)
def _level(n: int, dmin: int) -> tuple[tuple[Graph, ...], tuple[_Certificate, ...]]:
    """The representatives of level (n, dmin), with their certificates.

    Deleting a vertex lowers each remaining degree by at most one, so every
    graph on n vertices with minimum degree >= dmin extends a graph of
    level (n - 1, dmin - 1).  Level 0 is the one graph on no vertices.
    """
    if n == 0:
        empty = Graph(0, ())
        return (empty,), (_certificate(empty),)
    if dmin > n - 1:
        return (), ()
    reps, certs = _classes(_extensions(*_level(n - 1, max(dmin - 1, 0)), dmin))
    return tuple(reps), tuple(certs)


def graphs_with_min_degree(n: int, dmin: int) -> tuple[Graph, ...]:
    """All graphs on n vertices with minimum degree >= dmin, up to isomorphism,
    as ``_level`` builds them.  A dmin of 0 or less gives all graphs."""
    if n < 1:
        raise ValueError("vertex count must be >= 1")
    return _level(n, max(dmin, 0))[0]


def _dominated_pairs(P: Graph) -> tuple[int, int]:
    """The heads and the tails of P's dominated pairs, as two vertex masks."""
    full = (1 << P.n) - 1
    heads = tails = 0
    for u, mu in enumerate(P.masks):
        for w in _members(full ^ mu ^ 1 << u):
            if not mu & ~P.masks[w]:
                heads |= 1 << u
                tails |= 1 << w
    return heads, tails


def _can_carry(P: Graph, dmin: int) -> bool:
    """The parent screen: whether P may be G - v for a critical G on level
    (P.n + 1, dmin), as ``critical_graphs`` argues."""
    if not is_connected(P):
        return False
    heads, tails = _dominated_pairs(P)
    return not heads & tails and all(P.degree(w) >= dmin for w in _members(tails))


def _child_screen(P: Graph):
    """The neighborhood screen of a connected parent P: a test on S that
    is ``is_connected(G) and not dominated(G)`` for the child G = P + v
    with N(v) = S, as ``critical_graphs`` argues."""
    heads, tails = _dominated_pairs(P)
    masks = P.masks
    full = (1 << P.n) - 1

    def keep(S: int) -> bool:
        if S & heads != heads or S & tails:
            return False
        return all(S & ~masks[w] and masks[w] & ~S for w in _members(full ^ S))

    return keep


@lru_cache(maxsize=None)
def critical_graphs(n: int) -> tuple[tuple[Graph, int], ...]:
    """All vertex-critical graphs on exactly n vertices, with chromatic number.

    One route for every n >= 2.  The census level is (n, d), where d is 0
    for n <= 7 and 3 for n == 8: a critical graph with chromatic number k
    has minimum degree >= k - 1 (otherwise a proper (k-1)-coloring of G - v
    would extend across a low-degree v), the only 2-critical graph is a
    single edge, and every 3-critical graph is an odd cycle -- so on 8
    vertices only k >= 4 survives, forcing degree >= 3.

    A dominated pair (u, w) of a graph is two distinct non-neighbors with
    N(u) inside N(w); u is its head and w its tail.  A critical graph has
    none, since a coloring of G - u extends to u by the color of w.  For
    G = P + v with N(v) = S, the pair (u, w) of P stays undominated in G
    only when u is in S and w is not.

    The parents are the extensions that would make up level (n - 1, d - 1),
    kept by ``_can_carry`` before they are deduplicated.  Each condition
    holds for P = G - v whenever G is critical:

    - P is connected: G has no cut vertex when k >= 3, and K1, the parent
      of K2, is connected;
    - no vertex of P is both a head and a tail, and every tail has degree
      >= d: the tails stay outside S, so they keep their degree in G.

    Each parent's neighborhoods S are kept by ``_child_screen``, which on
    a connected parent is exactly ``is_connected(G) and not dominated(G)``:
    the heads lie in S and the tails outside it; no w outside S has S
    inside N(w), which would dominate v (S empty, so G disconnected, is
    such a case); and no u outside S has N(u) inside S, which v would
    dominate.  ``is_critical`` runs on the first candidate of each class
    that passes, so the census is the one the unscreened deduplication
    filtered by ``is_critical`` gives, in its order and with its labels.
    """
    if not 1 <= n <= 8:
        raise ValueError("supported vertex counts are 1..8")
    if n == 1:
        return ((build_graph(1, []), 1),)
    d = 3 if n == 8 else 0
    d_parent = max(d - 1, 0)
    grandparents = _level(n - 2, max(d_parent - 1, 0))
    parents, certs = _classes(
        P for P in _extensions(*grandparents, d_parent) if _can_carry(P, d)
    )
    out = []
    for G in first_of_each_class(_extensions(parents, certs, d, _child_screen)):
        critical, chi, _ = is_critical(G)
        if critical:
            out.append((G, chi))
    return tuple(out)
