"""Checks of the program's answers, made apart from the program.

Nothing here imports coverideal.  The expected values come from theorems
with closed forms, from counts in the literature, and from small plain
algorithms (a backtracking colorer, brute-force cliques and independent
sets, a backtracking isomorphism test), not from copies of the program's
earlier output.  Every check returns a list of error strings; an empty
list means it passed.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import ceil

import numpy as np

# OEIS A001349: connected graphs on n = 2..6 vertices, up to isomorphism.
CONNECTED_COUNTS = {2: 1, 3: 2, 4: 6, 5: 21, 6: 112}


# ---------------------------------------------------------------------------
# plain graphs: vertex count and adjacency bitmasks


def masks_from_edges(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def mycielski_edges(n: int, edges) -> list[tuple[int, int]]:
    """Mycielskian on 2n + 1 vertices: u_i = n + i copies the neighbours of
    vertex i, and w = 2n is joined to every u_i."""
    out = list(edges)
    for u, v in edges:
        out += [(n + u, v), (n + v, u)]
    out += [(n + i, 2 * n) for i in range(n)]
    return out


def delete(adj: list[int], v: int) -> list[int]:
    """Adjacency masks with vertex v removed and the rest renumbered."""
    low = (1 << v) - 1
    out = []
    for u, m in enumerate(adj):
        if u != v:
            out.append((m & low) | ((m >> (v + 1)) << v))
    return out


def is_connected(adj: list[int]) -> bool:
    if not adj:
        return True
    seen, frontier = 1, 1
    while frontier:
        nxt = 0
        for v in range(len(adj)):
            if frontier >> v & 1:
                nxt |= adj[v]
        frontier = nxt & ~seen
        seen |= nxt
    return seen == (1 << len(adj)) - 1


def complement(adj: list[int]) -> list[int]:
    full = (1 << len(adj)) - 1
    return [full & ~m & ~(1 << v) for v, m in enumerate(adj)]


def components(adj: list[int]) -> list[list[int]]:
    left = set(range(len(adj)))
    out = []
    while left:
        stack = [min(left)]
        comp = set(stack)
        while stack:
            v = stack.pop()
            for u in range(len(adj)):
                if adj[v] >> u & 1 and u not in comp:
                    comp.add(u)
                    stack.append(u)
        left -= comp
        out.append(sorted(comp))
    return out


def induced(adj: list[int], vs) -> list[int]:
    vs = sorted(vs)
    pos = {v: i for i, v in enumerate(vs)}
    return [sum(1 << pos[u] for u in vs if adj[v] >> u & 1) for v in vs]


def join(a: list[int], b: list[int]) -> list[int]:
    na, nb = len(a), len(b)
    full_a, full_b = (1 << na) - 1, ((1 << nb) - 1) << na
    return [m | full_b for m in a] + [(m << na) | full_a for m in b]


def cliques(adj: list[int], lo: int, hi: int) -> set[frozenset[int]]:
    """All cliques W with lo <= |W| <= hi."""
    out = set()
    n = len(adj)
    for r in range(lo, hi + 1):
        for W in combinations(range(n), r):
            if all(adj[u] >> v & 1 for u, v in combinations(W, 2)):
                out.add(frozenset(W))
    return out


def has_induced_c5(adj: list[int]) -> bool:
    for W in combinations(range(len(adj)), 5):
        sub = induced(adj, W)
        if all(m.bit_count() == 2 for m in sub) and is_connected(sub):
            return True
    return False


def independent_set_masks(adj: list[int]) -> list[int]:
    """Maximal independent sets as bitmasks (Bron-Kerbosch on the complement)."""
    n = len(adj)
    out: list[int] = []

    def extend(chosen: int, cand: int, excluded: int) -> None:
        if not cand and not excluded:
            out.append(chosen)
            return
        while cand:
            bit = cand & -cand
            v = bit.bit_length() - 1
            keep = ~adj[v] & ~bit
            extend(chosen | bit, cand & keep, excluded & keep)
            cand ^= bit
            excluded |= bit

    extend(0, (1 << n) - 1, 0)
    return out


def maximal_independent_sets(adj: list[int]) -> set[frozenset[int]]:
    return {
        frozenset(v for v in range(len(adj)) if I >> v & 1) for I in independent_set_masks(adj)
    }


def expand(adj: list[int], W) -> list[int]:
    """Each vertex of W gets an adjacent twin that copies its neighbours."""
    copies = [(v, c) for v in range(len(adj)) for c in ((1, 2) if v in W else (1,))]
    idx = {vc: i for i, vc in enumerate(copies)}
    edges = [(idx[(w, 1)], idx[(w, 2)]) for w in W]
    for (u, cu), (v, cv) in combinations(copies, 2):
        if adj[u] >> v & 1:
            edges.append((idx[(u, cu)], idx[(v, cv)]))
    return masks_from_edges(len(copies), edges)


def colorable(adj: list[int], k: int) -> bool:
    """Plain backtracking k-colorability.

    Vertices are taken in a fixed order that puts each one next to as many
    earlier vertices as possible; a vertex may open at most one new color.
    """
    n = len(adj)
    if n == 0:
        return True
    if k <= 0:
        return False
    order: list[int] = []
    placed = 0
    for _ in range(n):
        v = max(
            (u for u in range(n) if not placed >> u & 1),
            key=lambda u: ((adj[u] & placed).bit_count(), adj[u].bit_count(), -u),
        )
        order.append(v)
        placed |= 1 << v
    color = [-1] * n

    def go(i: int, used: int) -> bool:
        if i == n:
            return True
        v = order[i]
        taken = 0
        m = adj[v]
        while m:
            bit = m & -m
            m ^= bit
            c = color[bit.bit_length() - 1]
            if c >= 0:
                taken |= 1 << c
        for c in range(min(k, used + 1)):
            if not taken >> c & 1:
                color[v] = c
                if go(i + 1, max(used, c + 1)):
                    return True
        color[v] = -1
        return False

    return go(0, 0)


def chromatic(adj: list[int]) -> int:
    k = 0
    while not colorable(adj, k):
        k += 1
    return k


def is_critical(adj: list[int], chi: int) -> bool:
    """chi(G) == chi and every vertex deletion is (chi - 1)-colorable."""
    if not colorable(adj, chi) or colorable(adj, chi - 1):
        return False
    return all(colorable(delete(adj, v), chi - 1) for v in range(len(adj)))


def isomorphic(a: list[int], b: list[int]) -> bool:
    """Plain backtracking isomorphism test, pruned by degree."""
    n = len(a)
    if n != len(b):
        return False
    da = [m.bit_count() for m in a]
    db = [m.bit_count() for m in b]
    if sorted(da) != sorted(db):
        return False
    mapping = [-1] * n
    used = [False] * n

    def go(v: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if used[w] or db[w] != da[v]:
                continue
            if all((a[v] >> u & 1) == (b[w] >> mapping[u] & 1) for u in range(v)):
                mapping[v], used[w] = w, True
                if go(v + 1):
                    return True
                used[w] = False
        mapping[v] = -1
        return False

    return go(0)


def _has_isomorphic(adj: list[int], pool: list[list[int]]) -> bool:
    return any(isomorphic(adj, other) for other in pool)


def _census_chi(adj: list[int], by_key: dict) -> int | None:
    for (n, chi), pool in by_key.items():
        if n == len(adj) and _has_isomorphic(adj, pool):
            return chi
    return None


def distinct_up_to_isomorphism(graphs: list[list[int]]) -> bool:
    buckets: dict = {}
    for adj in graphs:
        key = (len(adj), tuple(sorted(m.bit_count() for m in adj)))
        bucket = buckets.setdefault(key, [])
        if _has_isomorphic(adj, bucket):
            return False
        bucket.append(adj)
    return True


# ---------------------------------------------------------------------------
# monomial ideals as printed by `coverideal decompose --json`

_TERM = re.compile(r"^x(\d+)\^(\d+)$")


def parse_monomial(text: str, nvars: int) -> list[int]:
    row = [0] * nvars
    for term in text.split("*"):
        v, e = _TERM.match(term).groups()
        row[int(v)] = int(e)
    return row


def parse_component(terms: list[str]) -> tuple[tuple[int, int], ...]:
    out = []
    for term in terms:
        v, e = _TERM.match(term).groups()
        out.append((int(v), int(e)))
    return tuple(out)


class Ideal:
    """Membership in the monomial ideal with the given generator rows.

    m lies in the ideal when some generator g has g_v <= m_v at every v.
    For each variable v and level t the generators with g_v <= t are kept
    as one bitset, so a test is one AND per variable.
    """

    def __init__(self, gens: np.ndarray):
        self.top = [int(t) for t in gens.max(axis=0)]
        self.levels = [
            [_bitset(gens[:, v] <= t) for t in range(top + 1)]
            for v, top in enumerate(self.top)
        ]

    def divisors(self, m) -> int:
        """Bitset of the generators that divide m."""
        acc = -1
        for v, level in enumerate(self.levels):
            acc &= level[min(int(m[v]), len(level) - 1)]
            if not acc:
                break
        return acc

    def __contains__(self, m) -> bool:
        return self.divisors(m) != 0


def _bitset(mask: np.ndarray) -> int:
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def in_every_component(bounds: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """For each row, whether it lies in every irreducible component; a
    component is a row of exponent bounds, huge off its support."""
    return (rows[:, None, :] >= bounds[None, :, :]).any(axis=2).all(axis=1)


def check_decomposition(gens: np.ndarray, comps, edges, s: int, rng: random.Random) -> list[str]:
    """Check that `comps` is the irredundant irreducible decomposition of
    the ideal with generator rows `gens`, a power J(G)^s of a cover ideal.

    * the generators are exactly the minimal products of s minimal vertex
      covers of G;
    * every generator lies in every component;
    * each component's corner (exponent e_v - 1 on its support, the top
      generator exponent elsewhere) lies outside the ideal and enters it
      when raised at any support variable, so the component is one of the
      irredundant ones;
    * a seeded walk from each corner (lower one coordinate, then raise
      all coordinates as far as the monomial stays outside the ideal)
      reaches neighbouring corners; each must be printed, and there the
      ideal and the intersection of the components must agree: the
      corner lies outside some component and each raise inside all.
    """
    errors: list[str] = []
    gens = gens.astype(np.int16)
    nvars = gens.shape[1]
    ideal = Ideal(gens)
    # The generators are exactly the minimal products of s minimal vertex
    # covers: each is such a product, none divides another, and every
    # product lies in the ideal they generate.
    adj = masks_from_edges(nvars, edges)
    covers = np.array(
        [[0 if I >> v & 1 else 1 for v in range(nvars)] for I in independent_set_masks(adj)],
        dtype=np.int16,
    )
    products = {
        tuple(covers[list(idx)].sum(axis=0).tolist())
        for idx in combinations_with_replacement(range(len(covers)), s)
    }
    rows = [tuple(g) for g in gens.tolist()]
    if not set(rows) <= products:
        errors.append(f"{len(set(rows) - products)} generators are not products of {s} vertex covers")
    for i, g in enumerate(rows):
        if ideal.divisors(g) & ~(1 << i):
            errors.append(f"generator {g} is divisible by another generator")
            break
    outside = [p for p in products if p not in ideal]
    if outside:
        errors.append(f"{len(outside)} products of {s} vertex covers lie outside the ideal, e.g. {outside[0]}")
    if len(set(comps)) != len(comps):
        errors.append("a component is printed twice")
    top = gens.max(axis=0)
    bounds = np.full((len(comps), nvars), np.iinfo(np.int16).max, dtype=np.int16)
    corners = []
    for i, comp in enumerate(comps):
        sup = [v for v, _ in comp]
        bounds[i, sup] = [e for _, e in comp]
        if not (gens[:, sup] >= bounds[i, sup]).any(axis=1).all():
            errors.append(f"a generator lies outside component {comp}")
        corner = top.copy()
        corner[sup] = bounds[i, sup] - 1
        corners.append(corner)
        if corner in ideal:
            errors.append(f"corner of component {comp} lies in the ideal")
        for v in sup:
            corner[v] += 1
            if corner not in ideal:
                errors.append(f"corner of component {comp} raised at x{v} stays outside")
            corner[v] -= 1

    # Walk between corners: from each printed corner, lower one coordinate
    # by one and climb back to a maximal monomial outside the ideal, raising
    # the coordinates in seeded random order, the lowered one last.
    printed = {tuple(c.tolist()) for c in corners}
    reached = set()
    for c in corners:
        for u in np.flatnonzero(c):
            m = c.copy()
            m[u] -= 1
            for v in [v for v in rng.sample(range(nvars), nvars) if v != u] + [u]:
                while m[v] < top[v]:
                    m[v] += 1
                    if m in ideal:
                        m[v] -= 1
                        break
            reached.add(tuple(m.tolist()))
    for key in sorted(reached - printed)[:10]:
        comp = tuple((v, e + 1) for v, e in enumerate(key) if e < top[v])
        errors.append(f"component {comp} is missing")
    for key in reached:
        m = np.array(key, dtype=np.int16)
        sup = np.flatnonzero(m < top)
        rows = np.repeat(m[None, :], len(sup) + 1, axis=0)
        rows[np.arange(1, len(sup) + 1), sup] += 1
        inside = in_every_component(bounds, rows)
        if inside[0] or not inside[1:].all():
            errors.append(f"the ideal and the intersection differ next to {key}")
    return errors


def closed_form_components(adj: list[int], s: int) -> set[tuple[tuple[int, int], ...]]:
    """Components of J(G)^s for a perfect graph G (Francisco-Ha-Van Tuyl):
    for each clique W with 2 <= |W| <= s + 1, the exponent vectors
    a in [1, s]^W with sum(s + 1 - a_v) = s + 1."""
    out = set()
    for W in cliques(adj, 2, s + 1):
        W = sorted(W)
        for a in product(range(1, s + 1), repeat=len(W)):
            if sum(s + 1 - x for x in a) == s + 1:
                out.add(tuple(zip(W, a)))
    return out


def shadow_set(comp, s: int) -> list[int]:
    """Canonical shadow set of a component in the s-th expansion: variable
    i with exponent a contributes shadows i*s .. i*s + s - a."""
    return sorted(i * s + j for i, a in comp for j in range(s - a + 1))


# ---------------------------------------------------------------------------
# closed forms for chromatic invariants


def lpu(chi_f: Fraction) -> Fraction:
    """chi_f of the Mycielskian (Larsen-Propp-Ullman 1995)."""
    return chi_f + 1 / chi_f


def odd_cycle_chi_f(n: int) -> Fraction:
    return Fraction(n, (n - 1) // 2)


def stahl(n: int, b: int) -> int:
    """b-fold chromatic number of the odd cycle C_n, n = 2k + 1 (Stahl 1976)."""
    k = (n - 1) // 2
    return 2 * b + ceil(b / k)


# ---------------------------------------------------------------------------
# workload checks


def check_sweep(out: dict) -> list[str]:
    errors = []
    graphs = {int(n): gs for n, gs in out["corpus"].items()}
    for n, want in CONNECTED_COUNTS.items():
        got = len(graphs.get(n, []))
        if got != want:
            errors.append(f"{got} connected graphs on {n} vertices, expected {want}")
    for n, gs in graphs.items():
        adjs = [masks_from_edges(n, e) for e in gs]
        if not all(is_connected(a) for a in adjs):
            errors.append(f"a corpus graph on {n} vertices is disconnected")
        if not distinct_up_to_isomorphism(adjs):
            errors.append(f"two corpus graphs on {n} vertices are isomorphic")
    for key, (holds, missing) in out["persistence"].items():
        if not holds or missing:
            errors.append(f"persistence fails at {key}: lost primes {missing}")
    for key, per_s in out["ass"].items():
        n, i = map(int, key.split(":"))
        if i >= len(graphs.get(n, [])):
            errors.append(f"associated primes reported for unknown graph {key}")
            continue
        adj = masks_from_edges(n, graphs[n][i])
        if has_induced_c5(adj):
            continue
        for s, ass in enumerate(per_s, start=1):
            want = cliques(adj, 2, s + 1)
            if {frozenset(p) for p in ass} != want or len(ass) != len(want):
                errors.append(f"Ass(J^{s}) of perfect graph {key} is not its cliques of size 2..{s + 1}")
    return errors


def check_census(census: dict) -> list[str]:
    errors = []
    members = []
    for n, entries in census.items():
        for edges, chi in entries:
            adj = masks_from_edges(int(n), edges)
            members.append((adj, chi))
            if not is_critical(adj, chi):
                errors.append(f"census graph on {n} vertices is not critically {chi}-chromatic")
    # The 1- and 2-critical graphs are K1 and K2; K_n is n-critical.
    for adj, chi in members:
        if chi <= 2 and chi != len(adj):
            errors.append(f"census graph on {len(adj)} vertices has chi {chi}; only K1 and K2 qualify")
    ns = {len(adj) for adj, chi in members if chi == len(adj)}
    if ns != set(range(1, 9)):
        errors.append(f"complete graphs present for n in {sorted(ns)}, expected 1..8")
    # The 3-critical graphs are the odd cycles.
    odd = sorted(len(adj) for adj, chi in members if chi == 3)
    if odd != [3, 5, 7]:
        errors.append(f"3-chromatic census members have {odd} vertices, expected C3, C5, C7")
    for adj, chi in members:
        if chi == 3 and not (all(m.bit_count() == 2 for m in adj) and is_connected(adj)):
            errors.append("a 3-chromatic census member is not a cycle")
    # Gallai: a k-critical graph on n <= 2k - 2 vertices has a disconnected
    # complement; the join of two critical graphs is critical with the
    # chromatic numbers added, so every join on <= 8 vertices is present.
    for adj, chi in members:
        if len(adj) <= 2 * chi - 2 and len(components(complement(adj))) < 2:
            errors.append(f"census graph on {len(adj)} vertices, chi {chi}, has a connected complement")
    by_key: dict = {}
    for adj, chi in members:
        by_key.setdefault((len(adj), chi), []).append(adj)
    for key, pool in by_key.items():
        if not distinct_up_to_isomorphism(pool):
            errors.append(f"census lists a graph twice at (n, chi) = {key}")
    # Conversely, the factors of a join (induced on the components of its
    # complement) are census members whose chromatic numbers add up.
    for adj, chi in members:
        parts = components(complement(adj))
        if len(parts) < 2:
            continue
        chis = [_census_chi(induced(adj, part), by_key) for part in parts]
        if None in chis or sum(chis) != chi:
            errors.append(f"a join on {len(adj)} vertices has factors {chis} outside the census")
    for i, (a, ca) in enumerate(members):
        for b, cb in members[i:]:
            if len(a) + len(b) > 8:
                continue
            j = join(a, b)
            if not _has_isomorphic(j, by_key.get((len(j), ca + cb), [])):
                errors.append(
                    f"join of critical graphs ({len(a)}, {ca}) and ({len(b)}, {cb}) is missing"
                )
    return errors


def check_invariants(out: dict) -> list[str]:
    errors = check_census(out["census"])
    probes = out["probes"]
    for gi, (n, edges) in enumerate(out["probe_graphs"]):
        adj = masks_from_edges(n, edges)
        got = {frozenset(W) for W, *_ in probes.get(str(gi), [])}
        if got != maximal_independent_sets(adj):
            errors.append(f"probe sets of probe graph {gi} are not its maximal independent sets")
        for W, chi, _critical, maximal in probes.get(str(gi), []):
            if not maximal:
                errors.append(f"probe {gi}:{W} not reported maximal")
            plain = chromatic(expand(adj, set(W)))
            if plain != chi:
                errors.append(f"expansion of probe graph {gi} at {W}: chi {chi}, plain colorer {plain}")
    # Answers of failed items are missing; the failures are counted apart.
    for k, row in enumerate(out["towers"], start=1):
        if row not in ([], [3 + k], [3 + k, True]):
            errors.append(f"M^{k}(C5): chi, critical = {row}; expected {3 + k}, True")
    expected_f = {
        "M(C5)": lpu(odd_cycle_chi_f(5)),
        "M(C9)": lpu(odd_cycle_chi_f(9)),
        "M(C11)": lpu(odd_cycle_chi_f(11)),
        "M2(C5)": lpu(lpu(odd_cycle_chi_f(5))),
    }
    for name, got in out["chi_f"].items():
        if Fraction(got) != expected_f[name]:
            errors.append(f"chi_f({name}) = {got}, expected {expected_f[name]}")
    if "kneser" in out:
        chi, chi_f_text = out["kneser"]
        if chi != 7 - 2 * 2 + 2 or Fraction(chi_f_text) != Fraction(7, 2):
            errors.append(f"Kneser K(7,2): chi {chi}, chi_f {chi_f_text}; expected 5, 7/2")
    for n, values in out["chi_b"].items():
        want = [stahl(int(n), b) for b in range(1, len(values) + 1)]
        if values != want:
            errors.append(f"chi_b(C{n}) = {values}, expected {want}")
    return errors


def check_decompose(report: dict, n: int, edges, s: int, perfect: bool,
                    rng: random.Random) -> list[str]:
    """Checks of one `coverideal decompose --json` report on G, power s."""
    res = report["results"]
    if res["nvars"] != n or report["inputs"]["power"] != s:
        return [f"report is for nvars {res['nvars']}, power {report['inputs']['power']}"]
    gens = np.array([parse_monomial(g, n) for g in res["generators"]], dtype=np.uint8)
    comps = [parse_component(c) for c in res["components"]]
    errors = []
    if res["component_count"] != len(comps):
        errors.append("component_count disagrees with the component list")
    supports = sorted({tuple(v for v, _ in c) for c in comps})
    if sorted(tuple(p) for p in res["associated_primes"]) != supports:
        errors.append("associated_primes are not the supports of the components")
    errors += check_decomposition(gens, comps, edges, s, rng)
    if perfect:
        want = closed_form_components(masks_from_edges(n, edges), s)
        got = set(comps)
        if got != want:
            errors.append(
                f"perfect graph: {len(got - want)} components beyond the clique closed form, "
                f"{len(want - got)} missing"
            )
    return errors


def check_verify(report: dict, s: int) -> list[str]:
    """Checks of one `coverideal verify correspondence --json` report."""
    res = report["results"]
    errors = []
    if res["s"] != s or not res["all_verified"]:
        errors.append(f"verify reports s {res['s']}, all_verified {res['all_verified']}")
    seen = set()
    for rec in res["components"]:
        comp = parse_component(rec["component"])
        seen.add(comp)
        if rec["chi"] != s + 1 or not rec["verified"]:
            errors.append(f"component {comp}: chi {rec['chi']}, verified {rec['verified']}")
        if rec["Y"] != shadow_set(comp, s):
            errors.append(f"component {comp}: shadow set {rec['Y']} is not canonical")
    if len(seen) != len(res["components"]) or not seen:
        errors.append("verify lists no components, or one twice")
    return errors
