"""Exact chromatic invariants: chi, criticality, b-fold and fractional chromatic numbers.

Colorability has one search, ``_colorable``, on a graph's neighborhood
bitmasks ``G.masks`` restricted to a vertex mask, so a vertex deletion in
the criticality test is one cleared bit, not a rebuilt graph.
``chromatic_number`` and ``fractional_value`` are memoized by graph.
Each invariant returns (value, witness), and the witness is plain data
that repeats neither the value nor the arguments: the color of each
vertex, the b colors of each vertex, or the weighted independent sets.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .graphs import Graph, _component, _members, maximal_independent_sets
from . import lp
from .lp import solve_cover_lp

__all__ = [
    "chromatic_number",
    "is_critical",
    "b_fold_chromatic",
    "fractional_value",
    "classify_chi_f_window",
]

def _twin_prev(masks: list[int]) -> list[int]:
    """Chain vertices with equal closed neighborhoods (mutually adjacent twins)."""
    prev = [-1] * len(masks)
    last: dict[int, int] = {}
    for v in range(len(masks)):
        key = masks[v] | (1 << v)
        if key in last:
            prev[v] = last[key]
        last[key] = v
    return prev


def _greedy_clique(masks: tuple[int, ...]) -> list[int]:
    """Deterministic greedy clique; only used as a chromatic lower bound."""
    clique: list[int] = []
    cand = (1 << len(masks)) - 1
    while cand:
        best = max(_members(cand), key=lambda v: (masks[v] & cand).bit_count())
        clique.append(best)
        cand &= masks[best]
    return clique


def _colorable(masks: tuple[int, ...], k: int, alive: int) -> list[int] | None:
    """A k-coloring of the subgraph induced on the bitmask ``alive``, or None.

    Each component, lowest vertex first, is colored in place by backtracking
    in saturation order (fewest available colors first, then most uncolored
    neighbors, then lowest vertex), trying the lowest available color first.
    Two symmetry breaks keep the search exact but small: a brand-new color
    may only be the component's next unused one, and vertices with equal
    closed neighborhoods take strictly increasing colors.  Vertices outside
    ``alive`` keep -1.
    """
    n = len(masks)
    nbrs = [m & alive for m in masks]
    twin = _twin_prev(nbrs)
    avail = [(1 << k) - 1] * n
    n_avail = [k] * n
    unc_deg = [m.bit_count() for m in nbrs]
    color = [-1] * n

    def search(vs: list[int], remaining: int, max_used: int) -> bool:
        if remaining == 0:
            return True
        v, v_key = -1, None
        for u in vs:
            if color[u] >= 0:
                continue
            t = twin[u]
            if t >= 0 and color[t] < 0:
                continue
            key = (n_avail[u], -unc_deg[u], u)
            if v_key is None or key < v_key:
                v, v_key = u, key
        cand = avail[v] & ((1 << min(k, max_used + 2)) - 1)
        if twin[v] >= 0:
            cand &= ~((1 << (color[twin[v]] + 1)) - 1)
        while cand:
            bit = cand & -cand
            cand ^= bit
            c = bit.bit_length() - 1
            color[v] = c
            touched: list[int] = []
            removed: list[int] = []
            wiped = False
            mm = nbrs[v]
            while mm:
                nb = mm & -mm
                mm ^= nb
                u = nb.bit_length() - 1
                if color[u] < 0:
                    touched.append(u)
                    unc_deg[u] -= 1
                    if avail[u] & bit:
                        avail[u] ^= bit
                        n_avail[u] -= 1
                        removed.append(u)
                        if n_avail[u] == 0:
                            wiped = True
            if not wiped and search(vs, remaining - 1, c if c > max_used else max_used):
                return True
            for u in removed:
                avail[u] |= bit
                n_avail[u] += 1
            for u in touched:
                unc_deg[u] += 1
            color[v] = -1
        return False

    while alive:
        comp = _component(masks, alive)
        alive ^= comp
        vs = _members(comp)
        if not search(vs, len(vs), -1):
            return None
    return color


@lru_cache(maxsize=None)
def chromatic_number(G: Graph) -> tuple[int, tuple[int, ...] | None]:
    """Exact chromatic number, and a deterministic witness: the color of
    vertex v at index v, colors 0..chi-1.

    Iterative deepening on k starting from a greedy clique lower bound;
    each k is decided by the exact backtracking in :func:`_colorable`.
    """
    if G.n == 0:
        return 0, None
    lower = max(1, len(_greedy_clique(G.masks)))
    for k in range(lower, G.n + 1):
        colors = _colorable(G.masks, k, (1 << G.n) - 1)
        if colors is not None:
            return k, tuple(colors)
    raise RuntimeError("unreachable: n colors always suffice")


def is_critical(G: Graph) -> tuple[bool, int, list[int]]:
    """Whether every single-vertex deletion drops the chromatic number.

    Returns (critical, chi, failing vertices); a vertex fails when deleting
    it leaves the chromatic number unchanged.  Vertices with equal closed
    neighborhoods are swapped by an automorphism, so their deletions leave
    isomorphic graphs: one coloring decides the whole twin class.
    """
    if G.n == 0:
        raise ValueError("criticality needs at least one vertex")
    chi, _ = chromatic_number(G)
    full = (1 << G.n) - 1
    fails: dict[int, bool] = {}
    failing = []
    for v, m in enumerate(G.masks):
        closed = m | 1 << v
        if closed not in fails:
            fails[closed] = _colorable(G.masks, chi - 1, full ^ 1 << v) is None
        if fails[closed]:
            failing.append(v)
    return not failing, chi, failing


def _ceil_frac(num: int, den: int) -> int:
    return -(-num // den)


def _multicover(sets, need, budget: int) -> list[int] | None:
    """At most budget sets (indices, with repetition) covering each point v
    at least need[v] times, or None.

    Depth-first on the uncovered point in the fewest sets (then the lowest
    index), pruned when one deficit or the deficit total exceeds what the
    remaining choices can cover, with memoized failure states.
    """
    n = len(need)
    member = [[i for i, s in enumerate(sets) if v in s] for v in range(n)]
    alpha = max(len(s) for s in sets)
    fail: set[tuple] = set()

    def dfs(deficits: tuple[int, ...], k: int):
        total = sum(deficits)
        if total == 0:
            return []
        if k == 0 or max(deficits) > k or total > k * alpha:
            return None
        key = (deficits, k)
        if key in fail:
            return None
        v = min(
            (u for u in range(n) if deficits[u] > 0),
            key=lambda u: (len(member[u]), u),
        )
        for i in member[v]:
            nd = list(deficits)
            for u in sets[i]:
                if nd[u]:
                    nd[u] -= 1
            found = dfs(tuple(nd), k - 1)
            if found is not None:
                return [i] + found
        fail.add(key)
        return None

    return dfs(tuple(need), budget)


def _coloring_from_sets(G: Graph, b: int, chosen, sets):
    chosen = sorted(chosen)
    assignment = []
    for v in range(G.n):
        cols = [ci for ci, si in enumerate(chosen) if v in sets[si]][:b]
        if len(cols) < b:
            raise RuntimeError("multicover witness fails to cover a vertex")
        assignment.append(frozenset(cols))
    return len(chosen), tuple(assignment)


def b_fold_chromatic(G: Graph, b: int) -> tuple[int, tuple[frozenset[int], ...]]:
    """Exact b-fold chromatic number d, and a witness: the frozenset of
    vertex v's b colors at index v, each below d.

    Minimizes the size of a multiset of maximal independent sets covering
    every vertex at least b times (any optimal b-fold coloring can be put
    in that form).  Budgets are tried upward from combinatorial and LP
    lower bounds, each decided by the exact search of :func:`_multicover`;
    the first that succeeds is chi_b.
    """
    if G.n < 1:
        raise ValueError("b-fold chromatic number needs at least one vertex")
    if b < 1:
        raise ValueError("fold count must be >= 1")
    sets = maximal_independent_sets(G)
    d = max(b, _ceil_frac(b * G.n, max(len(s) for s in sets)))
    d = max(d, b * len(_greedy_clique(G.masks)))
    if len(sets) <= lp._SET_LIMIT:
        value, _ = fractional_value(G)
        d = max(d, _ceil_frac(b * value.numerator, value.denominator))
    while (chosen := _multicover(sets, [b] * G.n, d)) is None:
        d += 1
    return _coloring_from_sets(G, b, chosen, sets)


@lru_cache(maxsize=None)
def fractional_value(G: Graph) -> tuple[Fraction, tuple[tuple[frozenset[int], Fraction], ...]]:
    """Exact fractional chromatic number, and an optimal certificate: the
    (maximal independent set, positive weight) pairs of the cover.

    The value comes from the exact rational covering LP over all maximal
    independent sets.  Memoized by graph: the chi_f window and the chi_b
    lower bound read the same LP.
    """
    if G.n == 0:
        raise ValueError("fractional chromatic number needs at least one vertex")
    sets = maximal_independent_sets(G)
    value, weights = solve_cover_lp(G.n, sets)
    return value, tuple((s, w) for s, w in zip(sets, weights) if w)


def classify_chi_f_window(G: Graph) -> bool:
    """True when chi - 1 < chi_f <= chi (exact rational comparison)."""
    if G.n == 0:
        raise ValueError("window classification needs at least one vertex")
    chi, _ = chromatic_number(G)
    value, _ = fractional_value(G)
    return chi - 1 < value <= chi
