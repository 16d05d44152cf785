"""Independent brute-force reference implementations used to freeze expected
values.  Everything here is deliberately naive and shares no algorithmic
machinery with the package: plain backtracking, full subset enumeration,
permutation search, and decomposition by recursive generator splitting.
The pairwise census route (an invariant bucket and a jointly refined
isomorphism test per pair) is the package's former deduplication, kept as
the cross-check of the certificate route; ``filtered_census`` is the
package's former critical census, which filters whole deduplicated levels
with ``is_critical``, kept as the cross-check of the screened one, and
``_dominated`` is the package's former graph-level domination screen, kept
as the reference of the census's bitmask screens; it reads the masks it
was written on.  ``brute_is_critical`` rebuilds and colors every
deletion.  The dense Bland-rule Fraction tableau is the package's former covering-LP
solver, kept as the cross-check of the revised simplex.
``induced_subgraph`` is the paper's literal reading of a component's graph,
the induced subgraph of the s-th expansion on its shadow set, kept as the
cross-check of ``replicate``.
``b_fold_via_membership`` reaches chi_b through the package's cover-ideal
membership, as a cross-check of the coloring route.
The checkers ``coloring_is_proper`` and ``certificate_is_valid`` validate
the package's coloring and fractional-cover witnesses, and
``converse_correspondence`` is the completeness direction of the
component dictionary: it walks every critical shadow set and asks whether
its component is in the decomposition.  Components are exponent vectors,
as the package returns them: ``component_contains`` and ``component_key``
read one, and ``is_component`` tests one against its ideal by its corner,
one vector at a time with no decomposition.  Oracles read a neighborhood
only through ``neighbors``."""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations, combinations_with_replacement, permutations, product
from operator import and_

from coverideal.coloring import chromatic_number, is_critical
from coverideal.corpus import connected_graphs, graphs_with_min_degree
from coverideal.graphs import Graph, build_graph, is_connected, replicate
from coverideal.ideals import (
    MonomialIdeal,
    contains_in_power,
    cover_ideal,
    irreducible_decomposition,
    power,
)


def neighbors(G: Graph, v: int) -> frozenset[int]:
    """The neighbors of v, read off its bitmask one vertex at a time."""
    return frozenset(u for u in range(G.n) if G.masks[v] >> u & 1)


def delete_vertex(G: Graph, v: int) -> Graph:
    """Graph with vertex v removed; the rest renumber in sorted order."""
    if not 0 <= v < G.n:
        raise ValueError("vertex out of range")
    rename = [u - (u > v) for u in range(G.n)]
    edges = [(rename[a], rename[b]) for a, b in G.edges() if v not in (a, b)]
    return build_graph(G.n - 1, edges)


def induced_subgraph(G: Graph, vertices) -> Graph:
    """Induced subgraph on the given vertices, renumbered 0..|Y|-1 in sorted order."""
    vs = sorted(set(vertices))
    if vs and not (0 <= vs[0] and vs[-1] < G.n):
        raise ValueError("vertex out of range")
    index = {v: i for i, v in enumerate(vs)}
    edges = [(index[u], index[v]) for u, v in G.edges() if u in index and v in index]
    return build_graph(len(vs), edges)


# ---------------------------------------------------------------------------
# coloring


def brute_colorable(G: Graph, k: int) -> bool:
    """Plain vertex-order backtracking, no ordering heuristics or pruning."""
    colors = [-1] * G.n

    def place(v: int) -> bool:
        if v == G.n:
            return True
        for c in range(k):
            if all(colors[u] != c for u in neighbors(G, v)):
                colors[v] = c
                if place(v + 1):
                    return True
                colors[v] = -1
        return False

    return place(0)


def brute_chromatic(G: Graph) -> int:
    if G.n == 0:
        return 0
    k = 1
    while not brute_colorable(G, k):
        k += 1
    return k


def brute_is_critical(G: Graph) -> tuple[bool, int, list[int]]:
    """(critical, chi, failing vertices), one rebuilt deletion per vertex."""
    chi = brute_chromatic(G)
    failing = [v for v in range(G.n) if brute_chromatic(delete_vertex(G, v)) == chi]
    return not failing, chi, failing


def brute_independent_sets(G: Graph) -> list[frozenset[int]]:
    out = []
    for r in range(G.n + 1):
        for c in combinations(range(G.n), r):
            s = frozenset(c)
            if all(u not in neighbors(G, v) for u in s for v in s):
                out.append(s)
    return out


def brute_maximal_independent_sets(G: Graph) -> list[frozenset[int]]:
    indep = set(brute_independent_sets(G))
    out = [
        s
        for s in indep
        if all(s | {v} not in indep for v in range(G.n) if v not in s)
    ]
    return sorted(out, key=sorted)


def brute_minimal_vertex_covers(G: Graph) -> list[frozenset[int]]:
    edges = G.edges()

    def is_cover(s):
        return all(u in s or v in s for u, v in edges)

    covers = [
        frozenset(c)
        for r in range(G.n + 1)
        for c in combinations(range(G.n), r)
        if is_cover(frozenset(c))
    ]
    minimal = [
        s for s in covers if not any(o < s for o in covers)
    ]
    return sorted(set(minimal), key=sorted)


def b_fold_via_membership(G: Graph, b: int) -> int:
    """b-fold chromatic number computed through cover-ideal membership.

    Returns the least d with (x_0 ... x_{n-1})^(d-b) in J(G)^d, scanning d
    upward; this equals the b-fold chromatic number and serves as an
    algebraic cross-check of the coloring route.
    """
    if b < 1:
        raise ValueError("fold count must be >= 1")
    J = cover_ideal(G)
    for d in range(b, b * G.n + 2):
        if contains_in_power(J, d, tuple([d - b] * G.n)):
            return d
    raise RuntimeError("membership scan exceeded the b*n bound; this is a bug")


def brute_b_fold(G: Graph, b: int) -> int:
    """Minimum number of independent sets (repeats allowed) covering each
    vertex at least b times, by iterative deepening over plain DFS."""
    sets = [s for s in brute_independent_sets(G) if s]

    def feasible(d: int) -> bool:
        def go(deficit: tuple[int, ...], k: int) -> bool:
            worst = max(deficit)
            if worst == 0:
                return True
            if k == 0:
                return False
            v = deficit.index(worst)
            for s in sets:
                if v in s:
                    nxt = tuple(
                        max(0, deficit[u] - (1 if u in s else 0)) for u in range(G.n)
                    )
                    if go(nxt, k - 1):
                        return True
            return False

        return go(tuple([b] * G.n), d)

    d = b
    while not feasible(d):
        d += 1
    return d


# ---------------------------------------------------------------------------
# isomorphism and expansion


def brute_is_isomorphic(G: Graph, H: Graph) -> bool:
    """Full permutation search; only for small n."""
    if G.n != H.n or G.m != H.m:
        return False
    g_edges = set(map(frozenset, G.edges()))
    for perm in permutations(range(G.n)):
        if all(frozenset((perm[u], perm[v])) in set(map(frozenset, H.edges())) for u, v in g_edges):
            return True
    return False


def twin_expand_once(G: Graph, w: int) -> Graph:
    """Append one new vertex adjacent to w and to all of w's neighbors."""
    edges = G.edges() + [(w, G.n)] + [(u, G.n) for u in sorted(neighbors(G, w))]
    return build_graph(G.n + 1, edges)


def sequential_expand(G: Graph, order) -> Graph:
    """Expand vertices one at a time in the given order (original indices)."""
    H = G
    for w in order:
        H = twin_expand_once(H, w)
    return H


def brute_replicate(G: Graph, copies) -> Graph:
    """Replication from its definition: shadows (v, c) for c = 1..copies[v],
    listed base by base, two shadows adjacent when they share a base or
    their bases are adjacent."""
    shadows = [(v, c) for v in range(G.n) for c in range(1, copies[v] + 1)]
    edges = [
        (i, j)
        for i, j in combinations(range(len(shadows)), 2)
        if shadows[i][0] == shadows[j][0] or shadows[j][0] in neighbors(G, shadows[i][0])
    ]
    return build_graph(len(shadows), edges)


def brute_automorphism_count(G: Graph) -> int:
    """Number of vertex permutations preserving the edge set; only for small n."""
    edges = set(map(frozenset, G.edges()))
    return sum(
        all(frozenset((perm[u], perm[v])) in edges for u, v in G.edges())
        for perm in permutations(range(G.n))
    )


# ---------------------------------------------------------------------------
# the census as the pairwise route builds it: every extension, an invariant
# bucket, and a joint-refinement isomorphism test against each bucket member


def unpruned_extensions(parents, n: int, dmin: int):
    """Every extension of each parent by a vertex n - 1, in census order."""
    for parent in parents:
        deficient = frozenset(
            v for v in range(parent.n) if len(neighbors(parent, v)) < dmin
        )
        optional = [v for v in range(parent.n) if v not in deficient]
        need = max(dmin - len(deficient), 0)
        base_edges = parent.edges()
        for size in range(need, len(optional) + 1):
            for extra in combinations(optional, size):
                S = sorted(deficient | set(extra))
                yield build_graph(n, base_edges + [(u, n - 1) for u in S])


def bucket_invariant(G: Graph):
    """Cheap isomorphism-invariant bucket key."""
    degrees = tuple(len(neighbors(G, v)) for v in range(G.n))
    neighbor_degrees = tuple(
        sorted(tuple(sorted(degrees[u] for u in neighbors(G, v))) for v in range(G.n))
    )
    triangles = sum(len(neighbors(G, u) & neighbors(G, v)) for u, v in G.edges()) // 3
    return (G.n, G.m, tuple(sorted(degrees)), neighbor_degrees, triangles)


def joint_refine_colors(G: Graph, H: Graph):
    """Joint degree-refinement colors for both graphs, or None on mismatch."""
    cols = [[G.degree(v) for v in range(G.n)], [H.degree(v) for v in range(H.n)]]
    graphs = (G, H)
    for _ in range(max(G.n, 1)):
        sigs = [
            [
                (cols[gi][v], tuple(sorted(cols[gi][u] for u in neighbors(graphs[gi], v))))
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


def pairwise_is_isomorphic(G: Graph, H: Graph) -> bool:
    """Exact isomorphism test by jointly refined, pruned backtracking."""
    if G.n != H.n or G.m != H.m:
        return False
    if G.n == 0:
        return True
    cols = joint_refine_colors(G, H)
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
            key=lambda u: (len(neighbors(G, u) & placed), G.degree(u), -u),
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
                if (g2 in neighbors(G, g)) != (h2 in neighbors(H, h)):
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


def pairwise_dedupe(candidates) -> list[Graph]:
    """Keep the first representative of each isomorphism class, in order."""
    buckets: dict[object, list[Graph]] = {}
    reps: list[Graph] = []
    for G in candidates:
        key = bucket_invariant(G)
        bucket = buckets.setdefault(key, [])
        if not any(pairwise_is_isomorphic(G, H) for H in bucket):
            bucket.append(G)
            reps.append(G)
    return reps


def _dominated(G: Graph) -> bool:
    """Whether some vertex u has N(u) inside N(w) for a non-neighbor w != u.

    Such a u fails criticality: any coloring of G - u extends to G by
    giving u the color of w.
    """
    full = (1 << G.n) - 1
    for u, mu in enumerate(G.masks):
        for w in range(G.n):
            if (full ^ mu ^ 1 << u) >> w & 1 and not mu & ~G.masks[w]:
                return True
    return False


def filtered_census(n: int) -> list[tuple[Graph, int]]:
    """The critical census as the package filtered it after deduplication:
    every connected representative on n <= 7 vertices, or every connected
    one of minimum degree >= 3 on 8, kept when ``is_critical`` holds."""
    if n <= 7:
        pool = connected_graphs(n)
    else:
        pool = [G for G in graphs_with_min_degree(8, 3) if is_connected(G)]
    out = []
    for G in pool:
        critical, chi, _ = is_critical(G)
        if critical:
            out.append((G, chi))
    return out


# ---------------------------------------------------------------------------
# covering LP


def dense_cover_lp(n: int, sets) -> tuple[Fraction, list[Fraction]]:
    """The package's former covering-LP solver, kept as the cross-check.

    Solves the packing dual ``max sum(y)`` subject to
    ``sum(y_v for v in S) <= 1`` with a Bland-rule simplex on a dense
    Fraction tableau of one row per set, then reads the covering weights
    off the optimal tableau.  Returns (optimum, weights aligned with
    ``sets``).
    """
    sets = [frozenset(s) for s in sets]
    m = len(sets)
    if n < 1 or m < 1:
        raise ValueError("need at least one point and one set")
    covered = set().union(*sets)
    if covered != set(range(n)):
        raise ValueError("every point must belong to some set")

    zero, one = Fraction(0), Fraction(1)
    rows: list[list[Fraction]] = []
    for i, s in enumerate(sets):
        row = [one if v in s else zero for v in range(n)]
        row += [one if j == i else zero for j in range(m)]
        row.append(one)
        rows.append(row)
    # Objective row holds reduced costs c - z and, in the last slot, -objective.
    obj = [one] * n + [zero] * m + [zero]
    basis = list(range(n, n + m))

    while True:
        enter = next((j for j in range(n + m) if obj[j] > 0), None)
        if enter is None:
            break
        leave, best = None, None
        for i in range(m):
            a = rows[i][enter]
            if a > 0:
                ratio = rows[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    leave, best = i, ratio
        if leave is None:
            raise RuntimeError("packing LP unbounded; covering sets malformed")
        piv = rows[leave][enter]
        rows[leave] = [x / piv for x in rows[leave]]
        for i in range(m):
            if i != leave and rows[i][enter] != 0:
                f = rows[i][enter]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[leave])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [x - f * y for x, y in zip(obj, rows[leave])]
        basis[leave] = enter

    value = -obj[-1]
    weights = [-obj[n + i] for i in range(m)]
    if sum(weights) != value or any(w < 0 for w in weights):
        raise RuntimeError("simplex produced an inconsistent covering certificate")
    for v in range(n):
        if sum(w for w, s in zip(weights, sets) if v in s) < 1:
            raise RuntimeError("simplex certificate fails to cover a point")
    return value, weights


# ---------------------------------------------------------------------------
# monomial ideals (generators given as exponent tuples)


def brute_divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def brute_contains(gens, m) -> bool:
    return any(brute_divides(g, m) for g in gens)


def brute_minimalize(gens):
    uniq = sorted(set(gens))
    return tuple(
        g
        for g in uniq
        if not any(o != g and brute_divides(o, g) for o in uniq)
    )


def brute_product_gens(gens_a, gens_b):
    prods = {
        tuple(x + y for x, y in zip(a, b)) for a in gens_a for b in gens_b
    }
    return brute_minimalize(prods)


def brute_power_gens(gens, s: int):
    out = gens
    for _ in range(s - 1):
        out = brute_product_gens(out, gens)
    return brute_minimalize(out)


def brute_contains_in_power(gens, d: int, m) -> bool:
    """Does some product of d generators (with repetition) divide m?"""
    for combo in combinations_with_replacement(gens, d):
        total = tuple(sum(col) for col in zip(*combo))
        if brute_divides(total, m):
            return True
    return False


def monomial_box(bounds):
    """All exponent vectors with 0 <= m_i <= bounds_i."""
    return product(*(range(b + 1) for b in bounds))


# ---------------------------------------------------------------------------
# irreducible decomposition by recursive generator splitting


def _split(gens):
    """First generator with two or more variables, split at its lowest one."""
    for g in gens:
        support = [i for i, e in enumerate(g) if e > 0]
        if len(support) >= 2:
            i = support[0]
            u = tuple(g[i] if j == i else 0 for j in range(len(g)))
            v = tuple(0 if j == i else e for j, e in enumerate(g))
            return u, v
    return None


def _add_generator(gens, w):
    # w never lies in the ideal already, so it survives minimalization.
    return tuple(sorted([g for g in gens if not brute_divides(w, g)] + [w]))


def _pure_component(nvars: int, gens) -> tuple[int, ...]:
    a = [0] * nvars
    for g in gens:
        (v,) = [i for i, e in enumerate(g) if e > 0]
        a[v] = g[v]
    return tuple(a)


def _contains_ideal(a, b) -> bool:
    """Whether the irreducible ideal a contains the irreducible ideal b.

    Every generator x_v^(b_v) of b must lie in a, which for pure powers
    means v is in a's support with a_v <= b_v.
    """
    return all(0 < x <= y for x, y in zip(a, b) if y)


def _prune(components) -> tuple[tuple[int, ...], ...]:
    uniq = sorted(set(components), key=component_key)
    kept = [
        c
        for c in uniq
        if not any(o is not c and _contains_ideal(c, o) for o in uniq)
    ]
    return tuple(kept)


def splitting_decomposition(I: MonomialIdeal) -> tuple[tuple[int, ...], ...]:
    """Irredundant irreducible components, canonically sorted, by splitting.

    Splits the lexicographically first generator with mixed support as
    g = u * v (u the pure power at g's lowest variable), using
    I = (I + u) meet (I + v); sub-ideal results are memoized for this call
    and merged component lists are pruned by pairwise containment, which
    suffices because an irreducible ideal containing an intersection of
    monomial ideals contains one of them.
    """
    memo: dict[tuple, tuple[tuple[int, ...], ...]] = {}
    stack = [I.gens]
    while stack:
        gens = stack[-1]
        if gens in memo:
            stack.pop()
            continue
        split = _split(gens)
        if split is None:
            memo[gens] = (_pure_component(I.nvars, gens),)
            stack.pop()
            continue
        branches = [_add_generator(gens, w) for w in split]
        pending = [b for b in branches if b not in memo]
        if pending:
            stack.extend(pending)
            continue
        memo[gens] = _prune(memo[branches[0]] + memo[branches[1]])
        stack.pop()
    return memo[I.gens]


# ---------------------------------------------------------------------------
# closed forms past brute-force size


def perfect_graph_components(G: Graph, s: int) -> set[tuple[int, ...]]:
    """Irreducible components of J(G)^s for a perfect graph G.

    By Francisco–Hà–Van Tuyl the associated primes of J(G)^s of a perfect
    graph are its cliques on 2..s+1 vertices, and the components on a
    clique W are the exponent vectors a in [1, s]^W with
    sum(s + 1 - a_v) = s + 1, read off the critically (s+1)-chromatic
    replications of a clique.
    """
    comps = set()
    for r in range(2, s + 2):
        for clique in combinations(range(G.n), r):
            if not all(v in neighbors(G, u) for u, v in combinations(clique, 2)):
                continue
            for exps in product(range(1, s + 1), repeat=r):
                if sum(s + 1 - a for a in exps) == s + 1:
                    a = [0] * G.n
                    for v, e in zip(clique, exps):
                        a[v] = e
                    comps.add(tuple(a))
    return comps


# ---------------------------------------------------------------------------
# checkers of the package's witnesses and of the dictionary's converse


def coloring_is_proper(G: Graph, used: int, assignment, b: int = 1) -> bool:
    """Validate a b-fold coloring against its graph: assignment[v] holds
    exactly b colors of v, each in 0..used-1, and adjacent vertices share none."""
    if len(assignment) != G.n or b < 1 or used < 0:
        return False
    assignment = [frozenset(cs) for cs in assignment]
    for cs in assignment:
        if len(cs) != b:
            return False
        if any(c < 0 or c >= used for c in cs):
            return False
    return all(not assignment[u] & assignment[v] for u, v in G.edges())


def certificate_is_valid(G: Graph, value: Fraction, weights) -> bool:
    """Validate a fractional cover certificate, (independent set, weight)
    pairs: independence, positive weights, coverage and total."""
    if sum((w for _, w in weights), Fraction(0)) != value:
        return False
    if any(w <= 0 for _, w in weights):
        return False
    if any(neighbors(G, v) & s for s, _ in weights for v in s):
        return False
    for v in range(G.n):
        if sum((w for s, w in weights if v in s), Fraction(0)) < 1:
            return False
    return True


def component_contains(c, m) -> bool:
    """Whether the monomial m lies in the irreducible ideal c."""
    return any(e and x >= e for x, e in zip(m, c))


def component_key(c):
    """Canonical sort key of a component: its support, then its exponents."""
    return tuple(v for v, e in enumerate(c) if e), tuple(e for e in c if e)


# The last ideal is_component was asked about, and its bitsets.
_BELOW: list = [None, None]


def _below(I: MonomialIdeal) -> list[list[int]]:
    """``below[v][x]``, for x from 0 to the largest exponent of I at v: the
    bitset of the generators of I whose exponent at v is at most x, bit i
    for the i-th generator.  Built once per ideal, one string of binary
    digits per bitset, so meant for small exponents."""
    if _BELOW[0] is not I:
        below = []
        for col in zip(*I.gens):
            col = col[::-1]
            below.append(
                [int("".join("1" if e <= x else "0" for e in col), 2) for x in range(max(col) + 1)]
            )
        _BELOW[:] = I, below
    return _BELOW[1]


def _in_ideal(below: list[list[int]], m) -> bool:
    """Whether the monomial m lies in the ideal: some generator is at most
    m at every v.  Past the largest exponent at v every generator is."""
    return reduce(and_, (b[min(x, len(b) - 1)] for b, x in zip(below, m))) != 0


def is_component(I: MonomialIdeal, a) -> bool:
    """Whether the exponent vector a is an irreducible component of I.

    Q = (x_v^{a_v} : v in S), S the support of a, leaves out exactly the
    monomials below a - 1 on S.  Its corner c is a_v - 1 on S and the
    largest exponent of I at v off S, which past I's generators stands for
    any higher one.  So I lies in Q iff c is not in I.  Every irreducible
    ideal strictly inside Q lies in the one of exponents a + e_v for some v
    in S, whose corner is c + e_v; so no irreducible ideal strictly inside
    Q contains I iff c + e_v is in I for every v in S.  The components are
    the minimal irreducible ideals containing I, so a is one iff both hold.
    """
    below = _below(I)
    c = [e - 1 if e else len(b) - 1 for e, b in zip(a, below)]
    return not _in_ideal(below, c) and all(
        _in_ideal(below, c[:v] + [c[v] + 1] + c[v + 1 :]) for v, e in enumerate(a) if e
    )


def one_step_neighbours(a) -> list[tuple[int, ...]]:
    """The nonnegative vectors one step from a: one entry up or down by one."""
    return [
        a[:v] + (e + d,) + a[v + 1 :] for v, e in enumerate(a) for d in (1, -1) if e + d >= 0
    ]


def converse_correspondence(G: Graph, s: int) -> list[tuple[int, ...]]:
    """Critical canonical shadow sets whose component is absent from J(G)^s.

    Walks every copy vector in 0..s per vertex (the image of the shadow
    rule), keeps those whose replication is critically (s+1)-chromatic,
    and returns the components they read as that are missing from the
    decomposition, in its order.  A vector with at most s shadows cannot
    reach s+1 colours.  An empty list is the expected outcome.
    """
    decomp = set(irreducible_decomposition(power(cover_ideal(G), s)))
    missing = []
    for copies in product(range(s + 1), repeat=G.n):
        if sum(copies) <= s:
            continue
        H = replicate(G, copies)
        if chromatic_number(H)[0] != s + 1 or not is_critical(H)[0]:
            continue
        # c shadows of v read as the exponent s - c + 1 at v.
        comp = tuple(s - c + 1 if c else 0 for c in copies)
        if comp not in decomp:
            missing.append(comp)
    return sorted(missing, key=component_key)
