"""Simple graphs, shadow expansions, and cover/independent-set enumeration.

Vertices are 0-based contiguous integers 0..n-1.  Classical 1-based
variable notation x_i corresponds to vertex index i - 1 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations, product

__all__ = [
    "Graph",
    "build_graph",
    "complement",
    "family",
    "path_graph",
    "kneser_graph",
    "induced_subgraph",
    "delete_vertex",
    "replicate",
    "expand",
    "power_expansion",
    "mycielski",
    "maximal_independent_sets",
    "minimal_vertex_covers",
    "is_connected",
    "is_isomorphic",
]

Label = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """Immutable finite simple graph on vertices 0..n-1.

    ``labels``, when present, assigns each vertex a ``(base, copy)``
    origin pair with copies counted from 1; expansion constructors
    produce them so shadow vertices stay addressable.
    """

    n: int
    adj: tuple[frozenset[int], ...]
    labels: tuple[Label, ...] | None = None

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(len(nbrs) for nbrs in self.adj) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted (u, v) pairs with u < v, in sorted order."""
        return [(u, v) for u in range(self.n) for v in sorted(self.adj[u]) if u < v]


def build_graph(n: int, edges, labels=None) -> Graph:
    """Construct a validated simple graph; duplicate edges collapse."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    adj = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"loop edge at vertex {u}")
        adj[u].add(v)
        adj[v].add(u)
    if labels is not None:
        labels = tuple((int(b), int(c)) for b, c in labels)
        if len(labels) != n:
            raise ValueError("labels must cover every vertex exactly once")
        if len(set(labels)) != n:
            raise ValueError("labels must be distinct (base, copy) pairs")
        if any(c < 1 for _, c in labels):
            raise ValueError("label copies count from 1")
    return Graph(n, tuple(frozenset(a) for a in adj), labels)


def complement(G: Graph) -> Graph:
    """Complement graph on the same vertex set (labels dropped)."""
    edges = [(u, v) for u, v in combinations(range(G.n), 2) if not G.has_edge(u, v)]
    return build_graph(G.n, edges)


def family(kind: str, n: int) -> Graph:
    """Standard families: ``cycle``, ``complete``, or ``antihole`` on n vertices."""
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


def path_graph(n: int) -> Graph:
    """Path on n >= 1 vertices."""
    if n < 1:
        raise ValueError("path needs n >= 1")
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


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


def induced_subgraph(G: Graph, vertices) -> Graph:
    """Induced subgraph on the given vertices, relabeled 0..|Y|-1 in sorted order.

    Shadow labels, when present, are carried over to the surviving vertices.
    """
    vs = sorted(set(vertices))
    if vs and not (0 <= vs[0] and vs[-1] < G.n):
        raise ValueError("vertex out of range")
    index = {v: i for i, v in enumerate(vs)}
    edges = [
        (index[u], index[v]) for u in vs for v in G.adj[u] if u < v and v in index
    ]
    labels = tuple(G.labels[v] for v in vs) if G.labels is not None else None
    return build_graph(len(vs), edges, labels)


def delete_vertex(G: Graph, v: int) -> Graph:
    """Graph with vertex v removed; the rest renumber in sorted order."""
    if not 0 <= v < G.n:
        raise ValueError("vertex out of range")
    return induced_subgraph(G, [u for u in range(G.n) if u != v])


def replicate(G: Graph, copies) -> Graph:
    """Replace each vertex v by a clique of ``copies[v]`` shadows.

    Shadows of v are labeled (v, 1)..(v, copies[v]); a count of 0 drops v.
    Shadows of adjacent vertices are completely joined.  Vertices keep the
    canonical order (base ascending, copy ascending).
    """
    copies = list(copies)
    if len(copies) != G.n:
        raise ValueError("need one copy count per vertex")
    if any(c < 0 for c in copies):
        raise ValueError("copy counts must be nonnegative")
    start = list(accumulate(copies, initial=0))
    shadows = [range(start[v], start[v + 1]) for v in range(G.n)]
    labels = [(v, c) for v in range(G.n) for c in range(1, copies[v] + 1)]
    edges = [e for r in shadows for e in combinations(r, 2)]
    for u, v in G.edges():
        edges.extend(product(shadows[u], shadows[v]))
    return build_graph(start[-1], edges, labels)


def expand(G: Graph, W) -> Graph:
    """Replace each vertex of W by an adjacent pair of shadows.

    Both shadows inherit all neighbors of the original vertex (and are
    adjacent to both shadows of any expanded neighbor); unexpanded vertices
    keep one shadow, labeled (v, 1).  See ``replicate``.
    """
    W = frozenset(W)
    if W and not all(0 <= w < G.n for w in W):
        raise ValueError("expansion vertex out of range")
    return replicate(G, [2 if v in W else 1 for v in range(G.n)])


def power_expansion(G: Graph, s: int) -> Graph:
    """s-th expansion: each vertex becomes a clique of s shadows.

    Shadow (i, j) sits at index i*s + (j - 1).  See ``replicate``.
    """
    if s < 1:
        raise ValueError("expansion order must be >= 1")
    return replicate(G, [s] * G.n)


def mycielski(G: Graph) -> Graph:
    """Mycielski construction on 2n+1 vertices.

    Vertices 0..n-1 induce G, vertex n+i is adjacent to the G-neighbors of
    vertex i, and vertex 2n is adjacent to every vertex n..2n-1.
    """
    n = G.n
    z = 2 * n
    edges = list(G.edges())
    for i in range(n):
        for u in G.adj[i]:
            edges.append((n + i, u))
        edges.append((n + i, z))
    return build_graph(2 * n + 1, edges)


def maximal_independent_sets(G: Graph) -> list[frozenset[int]]:
    """All maximal independent sets, sorted lexicographically by sorted members.

    Enumerated as maximal cliques of the complement via pivoting
    Bron-Kerbosch.
    """
    nonadj = [frozenset(range(G.n)) - G.adj[v] - {v} for v in range(G.n)]
    out: list[frozenset[int]] = []

    def bk(r: frozenset[int], p: frozenset[int], x: frozenset[int]) -> None:
        if not p and not x:
            out.append(r)
            return
        pivot = max(sorted(p | x), key=lambda u: len(p & nonadj[u]))
        for v in sorted(p - nonadj[pivot]):
            bk(r | {v}, p & nonadj[v], x & nonadj[v])
            p = p - {v}
            x = x | {v}

    bk(frozenset(), frozenset(range(G.n)), frozenset())
    return sorted(out, key=lambda s: sorted(s))


def minimal_vertex_covers(G: Graph) -> list[frozenset[int]]:
    """Minimal vertex covers: complements of maximal independent sets, same order."""
    full = frozenset(range(G.n))
    return [full - s for s in maximal_independent_sets(G)]


def is_connected(G: Graph) -> bool:
    """True when G has one connected component (empty graph counts as connected)."""
    if G.n == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u in G.adj[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == G.n


def _refine_colors(G: Graph, H: Graph):
    """Joint degree-refinement colors for both graphs, or None on mismatch."""
    cols = [[G.degree(v) for v in range(G.n)], [H.degree(v) for v in range(H.n)]]
    graphs = (G, H)
    for _ in range(max(G.n, 1)):
        sigs = [
            [
                (cols[gi][v], tuple(sorted(cols[gi][u] for u in graphs[gi].adj[v])))
                for v in range(graphs[gi].n)
            ]
            for gi in range(2)
        ]
        if sorted(sigs[0]) != sorted(sigs[1]):
            return None
        renumber = {s: i for i, s in enumerate(sorted(set(sigs[0])))}
        new = [[renumber[s] for s in sigs[gi]] for gi in range(2)]
        if new == cols:
            break
        cols = new
    return cols


def is_isomorphic(G: Graph, H: Graph) -> bool:
    """Exact isomorphism test (labels ignored) by refinement-pruned backtracking."""
    if G.n != H.n or G.m != H.m:
        return False
    if G.n == 0:
        return True
    cols = _refine_colors(G, H)
    if cols is None:
        return False
    col_g, col_h = cols
    if sorted(col_g) != sorted(col_h):
        return False
    by_color: dict[int, list[int]] = {}
    for v in range(H.n):
        by_color.setdefault(col_h[v], []).append(v)

    # Order G's vertices so each one touches as many placed vertices as possible.
    order: list[int] = []
    placed = set()
    for _ in range(G.n):
        v = max(
            (u for u in range(G.n) if u not in placed),
            key=lambda u: (len(G.adj[u] & placed), G.degree(u), -u),
        )
        order.append(v)
        placed.add(v)

    mapping: dict[int, int] = {}
    used: set[int] = set()

    def backtrack(pos: int) -> bool:
        if pos == G.n:
            return True
        g = order[pos]
        for h in by_color.get(col_g[g], ()):
            if h in used:
                continue
            ok = True
            for g2, h2 in mapping.items():
                if (g2 in G.adj[g]) != (h2 in H.adj[h]):
                    ok = False
                    break
            if not ok:
                continue
            mapping[g] = h
            used.add(h)
            if backtrack(pos + 1):
                return True
            del mapping[g]
            used.remove(h)
        return False

    return backtrack(0)
