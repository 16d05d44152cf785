"""Simple graphs, shadow expansions, cover/independent-set enumeration, and
isomorphism (tests, automorphism groups, first-kept class representatives).

Vertices are 0-based contiguous integers 0..n-1.  Classical 1-based
variable notation x_i corresponds to vertex index i - 1 throughout.

A graph is its neighborhood bitmasks: bit u of ``G.masks[v]`` is the
edge uv.  ``_members`` (a mask's vertices in ascending order) and
``_component`` (one component walk inside a vertex mask) serve
connectivity, maximal independent sets, the isomorphism certificates and
``coloring``.
"""

from __future__ import annotations

from itertools import accumulate, combinations
from typing import NamedTuple

__all__ = [
    "Graph",
    "build_graph",
    "complement",
    "family",
    "kneser_graph",
    "replicate",
    "expand",
    "mycielski",
    "maximal_independent_sets",
    "minimal_vertex_covers",
    "is_connected",
    "is_isomorphic",
    "automorphisms",
    "first_of_each_class",
]

class Graph(NamedTuple):
    """Immutable simple graph on vertices 0..n-1; a shadow's origin is its position.

    Bit u of ``masks[v]`` is the edge uv.
    """

    n: int
    masks: tuple[int, ...]

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(m.bit_count() for m in self.masks) // 2

    def degree(self, v: int) -> int:
        return self.masks[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted (u, v) pairs with u < v, in sorted order."""
        return [(u, v) for u, m in enumerate(self.masks) for v in _members(m >> u + 1 << u + 1)]


def build_graph(n: int, edges) -> Graph:
    """Construct a validated simple graph; duplicate edges collapse."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    masks = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"loop edge at vertex {u}")
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return Graph(n, tuple(masks))


def complement(G: Graph) -> Graph:
    """Complement graph on the same vertices, in the same order."""
    full = (1 << G.n) - 1
    return Graph(G.n, tuple(full ^ m ^ (1 << v) for v, m in enumerate(G.masks)))


def family(kind: str, n: int) -> Graph:
    """Standard families: ``path``, ``cycle``, ``complete``, or ``antihole`` on n vertices."""
    if kind == "path":
        if n < 1:
            raise ValueError("path needs n >= 1")
        return build_graph(n, [(i, i + 1) for i in range(n - 1)])
    if kind == "cycle":
        if n < 3:
            raise ValueError("cycle needs n >= 3")
        return build_graph(n, [(i, (i + 1) % n) for i in range(n)])
    if kind == "complete":
        if n < 1:
            raise ValueError("complete graph needs n >= 1")
        return build_graph(n, list(combinations(range(n), 2)))
    if kind == "antihole":
        if n < 3:
            raise ValueError("antihole needs n >= 3")
        return complement(family("cycle", n))
    raise ValueError(f"unknown family kind {kind!r}")


def kneser_graph(n: int, k: int) -> Graph:
    """Kneser graph: k-subsets of range(n), adjacent when disjoint.

    Vertices are indexed by the sorted list of k-subsets in lexicographic
    order; the Petersen graph is ``kneser_graph(5, 2)``.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    subsets = list(combinations(range(n), k))
    index = {s: i for i, s in enumerate(subsets)}
    edges = [
        (index[a], index[b])
        for a, b in combinations(subsets, 2)
        if not set(a) & set(b)
    ]
    return build_graph(len(subsets), edges)


def replicate(G: Graph, copies) -> Graph:
    """Replace each vertex v by a clique of ``copies[v]`` shadows.

    Shadow j of v (j = 1..copies[v]) sits at ``start[v] + j - 1``, where
    start[v] sums copies[u] over u < v; a count of 0 drops v.  Shadows of
    adjacent vertices are completely joined.
    """
    copies = list(copies)
    if len(copies) != G.n:
        raise ValueError("need one copy count per vertex")
    if any(c < 0 for c in copies):
        raise ValueError("copy counts must be nonnegative")
    start = list(accumulate(copies, initial=0))
    block = [((1 << c) - 1) << a for c, a in zip(copies, start)]
    masks = []
    for v, m in enumerate(G.masks):
        reach = block[v]
        for u in _members(m):
            reach |= block[u]
        masks.extend(reach ^ (1 << i) for i in range(start[v], start[v + 1]))
    return Graph(start[-1], tuple(masks))


def expand(G: Graph, W) -> Graph:
    """Replace each vertex of W by an adjacent pair of shadows.

    Both shadows inherit all neighbors of the original vertex (and are
    adjacent to both shadows of any expanded neighbor); unexpanded vertices
    keep one shadow.  The shadows of v start at v plus the number of
    vertices of W below v, as ``replicate`` places them.
    """
    W = frozenset(W)
    if W and not all(0 <= w < G.n for w in W):
        raise ValueError("expansion vertex out of range")
    return replicate(G, [2 if v in W else 1 for v in range(G.n)])


def mycielski(G: Graph) -> Graph:
    """Mycielski construction on 2n+1 vertices.

    Vertices 0..n-1 induce G, vertex n+i is adjacent to the G-neighbors of
    vertex i, and vertex 2n is adjacent to every vertex n..2n-1.
    """
    n = G.n
    apex = 1 << 2 * n
    masks = [m | m << n for m in G.masks] + [m | apex for m in G.masks]
    return Graph(2 * n + 1, tuple(masks + [apex - (1 << n)]))


def maximal_independent_sets(G: Graph) -> list[frozenset[int]]:
    """All maximal independent sets, sorted lexicographically by sorted members.

    Enumerated as maximal cliques of the complement via pivoting
    Bron-Kerbosch on vertex masks, with an explicit stack, not recursion.
    """
    full = (1 << G.n) - 1
    nonadj = complement(G).masks
    out: list[list[int]] = []
    stack = [(0, full, 0)]
    while stack:
        r, p, x = stack.pop()
        if not p | x:
            out.append(_members(r))
            continue
        pivot = max(_members(p | x), key=lambda u: (p & nonadj[u]).bit_count())
        branches = []
        for v in _members(p & ~nonadj[pivot]):
            branches.append((r | 1 << v, p & nonadj[v], x & nonadj[v]))
            p ^= 1 << v
            x |= 1 << v
        stack.extend(reversed(branches))
    out.sort()
    return [frozenset(s) for s in out]


def minimal_vertex_covers(G: Graph) -> list[frozenset[int]]:
    """Minimal vertex covers: complements of maximal independent sets, same order."""
    full = frozenset(range(G.n))
    return [full - s for s in maximal_independent_sets(G)]


def _members(mask: int) -> list[int]:
    """The vertices of a mask in ascending order."""
    out = []
    while mask:
        bit = mask & -mask
        mask ^= bit
        out.append(bit.bit_length() - 1)
    return out


def _component(masks: tuple[int, ...], alive: int) -> int:
    """Component of the lowest vertex of ``alive`` in the subgraph induced on ``alive``."""
    comp = frontier = alive & -alive
    while frontier:
        reach = 0
        for v in _members(frontier):
            reach |= masks[v]
        frontier = reach & alive & ~comp
        comp |= frontier
    return comp


def is_connected(G: Graph) -> bool:
    """True when G has one connected component (empty graph counts as connected)."""
    full = (1 << G.n) - 1
    return _component(G.masks, full) == full


class _Certificate(NamedTuple):
    """What an isomorphism test needs to know of one graph.

    ``key`` is equal for isomorphic graphs; ``colors`` are the stable
    refinement colors and ``masks[v]`` is the neighborhood of v as a bitmask.
    """

    key: int
    colors: tuple[int, ...]
    masks: tuple[int, ...]


def _certificate(G: Graph) -> _Certificate:
    """Degree refinement of G alone, with its trace hashed into a key.

    Colors start as degrees.  Each round gives every vertex the signature
    (color, sorted neighbor colors) and renumbers the signatures in sorted
    order, until a round splits no cell.  Isomorphic graphs produce the
    same sorted signatures round by round, so the whole trace goes into the
    key, and for graphs with equal traces the independent renumberings agree
    with a joint one.  The key is a hash: a collision only costs a failed
    match, because the matcher decides.
    """
    nbrs = [_members(m) for m in G.masks]
    cols = [len(a) for a in nbrs]
    cells = len(set(cols))
    trace = []
    while True:
        sigs = [(c, tuple(sorted([cols[u] for u in a]))) for c, a in zip(cols, nbrs)]
        ordered = sorted(sigs)
        trace.append(tuple(ordered))
        renumber = {s: i for i, s in enumerate(dict.fromkeys(ordered))}
        cols = [renumber[s] for s in sigs]
        if len(renumber) == cells:
            break
        cells = len(renumber)
    return _Certificate(hash((G.n, tuple(trace))), tuple(cols), G.masks)


def _isomorphisms(a: _Certificate, b: _Certificate):
    """Yield every color-preserving isomorphism from a's graph onto b's.

    Each is a tuple p mapping vertex v of a to p[v] of b.  Vertices of a
    are placed smallest color cell first, then by most neighbors already
    placed; a vertex may go to any unused vertex of b in its color cell
    whose adjacency to the placed images matches, checked as one bitmask
    comparison.
    """
    n = len(a.colors)
    if len(b.colors) != n or sorted(a.colors) != sorted(b.colors):
        return
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(b.colors):
        cells.setdefault(c, []).append(v)
    cand = [cells[c] for c in a.colors]
    order: list[int] = []
    placed = 0
    rest = list(range(n))
    while rest:
        g = min(rest, key=lambda u: (len(cand[u]), -(a.masks[u] & placed).bit_count()))
        rest.remove(g)
        order.append(g)
        placed |= 1 << g
    earlier_nbrs = [
        [j for j in range(i) if a.masks[order[i]] >> order[j] & 1] for i in range(n)
    ]
    img = [0] * n

    def extend(i: int, used: int):
        if i == n:
            perm = [0] * n
            for g, h in zip(order, img):
                perm[g] = h
            yield tuple(perm)
            return
        need = 0
        for j in earlier_nbrs[i]:
            need |= 1 << img[j]
        for h in cand[order[i]]:
            if not used >> h & 1 and b.masks[h] & used == need:
                img[i] = h
                yield from extend(i + 1, used | 1 << h)

    yield from extend(0, 0)


def is_isomorphic(G: Graph, H: Graph) -> bool:
    """Exact isomorphism test on structure alone: equal keys and a matching."""
    a, b = _certificate(G), _certificate(H)
    return a.key == b.key and next(_isomorphisms(a, b), None) is not None


def automorphisms(G: Graph) -> list[tuple[int, ...]]:
    """Every automorphism of G once, each as a tuple p mapping v to p[v].

    The whole group is listed (n! elements for K_n), so this is meant for
    small graphs such as the census parents, which have at most 7 vertices.
    """
    c = _certificate(G)
    return list(_isomorphisms(c, c))


def first_of_each_class(graphs) -> list[Graph]:
    """Keep the first graph of each isomorphism class, in order.

    A graph's certificate key picks its bucket, and the graph is matched
    only against the kept graphs there; only their certificates are held.
    """
    return _classes(graphs)[0]


def _classes(graphs) -> tuple[list[Graph], list[_Certificate]]:
    """``first_of_each_class``, and the certificates of the kept graphs."""
    buckets: dict[int, list[_Certificate]] = {}
    reps, certs = [], []
    for G in graphs:
        cert = _certificate(G)
        bucket = buckets.setdefault(cert.key, [])
        if not any(next(_isomorphisms(cert, c), None) is not None for c in bucket):
            bucket.append(cert)
            reps.append(G)
            certs.append(cert)
    return reps, certs
