"""Monomial ideals of graphs: cover ideals, powers, membership, decompositions.

Monomials are exponent tuples indexed by vertex.  All operations are exact
and return canonically sorted data so that equal ideals print identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, minimal_vertex_covers

__all__ = [
    "Monomial",
    "MonomialIdeal",
    "IrreducibleIdeal",
    "Decomposition",
    "monomial_ideal",
    "cover_ideal",
    "multiply",
    "power",
    "contains",
    "contains_in_power",
    "b_fold_via_membership",
    "irreducible_decomposition",
    "associated_primes",
    "clear_decomposition_cache",
]

Monomial = tuple[int, ...]


def _divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _max_exponent(gens) -> int:
    return max((max(g, default=0) for g in gens), default=0)


def _exponent_matrix(rows, nvars: int, top: int) -> np.ndarray:
    """Rows as a matrix in the narrowest unsigned dtype that holds top.

    Callers pass the largest exponent their step can reach, so no value
    computed along the step overflows the dtype.
    """
    if top >= 1 << 64:
        raise ValueError(f"exponents up to {top} exceed the 64-bit limit 2**64 - 1")
    return np.array(rows, dtype=np.min_scalar_type(top)).reshape(len(rows), nvars)


def _rows(arr: np.ndarray) -> tuple[Monomial, ...]:
    return tuple(map(tuple, arr.tolist()))


def _divisible_mask(cand: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Boolean mask: which candidate rows are divisible by some kept row.

    Both axes are chunked so the broadcast comparison stays within a
    bounded temporary allocation.
    """
    found = np.zeros(len(cand), dtype=bool)
    for i in range(0, len(cand), 256):
        blk = cand[i : i + 256]
        hit = np.zeros(len(blk), dtype=bool)
        for j in range(0, len(kept), 16384):
            kb = kept[j : j + 16384]
            hit |= (kb[None, :, :] <= blk[:, None, :]).all(axis=2).any(axis=1)
            if hit.all():
                break
        found[i : i + 256] = hit
    return found


def _minimalize_array(arr: np.ndarray) -> np.ndarray:
    """Divisibility-minimal rows of an exponent matrix, row-lex sorted.

    Rows are processed by ascending total degree; two distinct rows of the
    same degree never divide each other, so each degree level is screened
    in bulk against the minimal rows of lower degree.
    """
    arr = np.unique(arr, axis=0)
    degs = arr.sum(axis=1, dtype=np.int64)
    kept: np.ndarray | None = None
    blocks: list[np.ndarray] = []
    for d in np.unique(degs):
        level = arr[degs == d]
        if kept is not None and len(kept):
            level = level[~_divisible_mask(level, kept)]
        blocks.append(level)
        kept = blocks[0] if len(blocks) == 1 else np.vstack(blocks)
    return np.unique(kept, axis=0)


@dataclass(frozen=True)
class MonomialIdeal:
    """Monomial ideal given by its unique minimal generators, sorted."""

    nvars: int
    gens: tuple[Monomial, ...]


def monomial_ideal(nvars: int, gens) -> MonomialIdeal:
    """Build a monomial ideal, minimalizing and sorting the generators."""
    if nvars < 0:
        raise ValueError("variable count must be nonnegative")
    gens = [tuple(int(e) for e in g) for g in gens]
    for g in gens:
        if len(g) != nvars:
            raise ValueError("generator length must equal the variable count")
        if any(e < 0 for e in g):
            raise ValueError("exponents must be nonnegative")
    if not gens:
        return MonomialIdeal(nvars, ())
    arr = _exponent_matrix(gens, nvars, _max_exponent(gens))
    return MonomialIdeal(nvars, _rows(_minimalize_array(arr)))


def cover_ideal(G: Graph) -> MonomialIdeal:
    """Squarefree ideal generated by the minimal vertex covers of G."""
    if G.n == 0 or G.m == 0:
        raise ValueError("cover ideal needs a graph with at least one edge")
    if any(G.degree(v) == 0 for v in range(G.n)):
        raise ValueError("cover ideal is undefined with isolated vertices")
    gens = [tuple(1 if v in c else 0 for v in range(G.n)) for c in minimal_vertex_covers(G)]
    # Minimal covers form an antichain, so only sorting is needed.
    return MonomialIdeal(G.n, tuple(sorted(gens)))


def multiply(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """Product ideal, generated by all pairwise products."""
    if I.nvars != J.nvars:
        raise ValueError("ideals live in different polynomial rings")
    nvars = I.nvars
    if not I.gens or not J.gens:
        return MonomialIdeal(nvars, ())
    if not nvars:
        return I  # the unit ideal of the ring with no variables
    top = _max_exponent(I.gens) + _max_exponent(J.gens)
    A = _exponent_matrix(I.gens, nvars, top)
    B = _exponent_matrix(J.gens, nvars, top)
    # Rows of A are taken in blocks so each broadcast sum stays bounded;
    # with several blocks, deduplicating each keeps the stacked copy small.
    step = max(1, (1 << 25) // (len(B) * nvars))
    blocks = []
    for i in range(0, len(A), step):
        block = (A[i : i + step, None, :] + B[None, :, :]).reshape(-1, nvars)
        blocks.append(block if step >= len(A) else np.unique(block, axis=0))
    prods = blocks[0] if len(blocks) == 1 else np.vstack(blocks)
    return MonomialIdeal(nvars, _rows(_minimalize_array(prods)))


def power(I: MonomialIdeal, s: int) -> MonomialIdeal:
    """s-th power of the ideal."""
    if s < 1:
        raise ValueError("power must be >= 1")
    out = I
    for _ in range(s - 1):
        out = multiply(out, I)
    return out


def contains(I: MonomialIdeal, m: Monomial) -> bool:
    """Monomial membership: some generator divides m."""
    m = tuple(m)
    if len(m) != I.nvars:
        raise ValueError("monomial length must equal the variable count")
    return any(_divides(g, m) for g in I.gens)


def contains_in_power(J: MonomialIdeal, d: int, m: Monomial) -> bool:
    """Whether m lies in the d-th power of the squarefree ideal J.

    Decided exactly: search for d generators (with repetition) whose
    exponent sum divides m, with memoized failure states.  Coordinates are
    capped at the remaining choice count, which is sound because every
    generator is squarefree.
    """
    m = tuple(m)
    if len(m) != J.nvars:
        raise ValueError("monomial length must equal the variable count")
    if d < 1:
        raise ValueError("power must be >= 1")
    if not J.gens:
        return False
    if any(e > 1 for g in J.gens for e in g):
        raise ValueError("contains_in_power expects a squarefree ideal")
    gens = [tuple(g) for g in J.gens]
    degs = [sum(g) for g in gens]
    min_deg = min(degs)
    if d * min_deg > sum(m):
        return False
    fail: set[tuple] = set()

    def dfs(rem: Monomial, k: int, start: int) -> bool:
        if k == 0:
            return True
        if sum(rem) < k * min_deg:
            return False
        key = (rem, k, start)
        if key in fail:
            return False
        for i in range(start, len(gens)):
            g = gens[i]
            if all(e <= r for e, r in zip(g, rem)):
                nxt = tuple(min(r - e, k - 1) for e, r in zip(g, rem))
                if dfs(nxt, k - 1, i):
                    return True
        fail.add(key)
        return False

    return dfs(tuple(min(e, d) for e in m), d, 0)


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


@dataclass(frozen=True)
class IrreducibleIdeal:
    """Ideal generated by pure powers x_v^e on its support; exps sorted by variable."""

    nvars: int
    exps: tuple[tuple[int, int], ...]

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.exps)

    def exponent(self, v: int) -> int:
        for u, e in self.exps:
            if u == v:
                return e
        return 0

    def contains_monomial(self, m: Monomial) -> bool:
        return any(m[v] >= e for v, e in self.exps)

    def sort_key(self):
        return tuple(v for v, _ in self.exps), tuple(e for _, e in self.exps)


@dataclass(frozen=True)
class Decomposition:
    """Irredundant irreducible decomposition, canonically ordered."""

    components: tuple[IrreducibleIdeal, ...]

    def __iter__(self):
        return iter(self.components)

    def __len__(self):
        return len(self.components)


_DECOMP_CACHE: dict[tuple[int, tuple[Monomial, ...]], tuple[IrreducibleIdeal, ...]] = {}


def clear_decomposition_cache() -> None:
    _DECOMP_CACHE.clear()


def _intersect_irreducible_array(K: np.ndarray, sig_row: np.ndarray) -> np.ndarray:
    """Minimal rows of K meet the irreducible ideal with exponents sig_row.

    For monomial ideals the intersection distributes over generator sums,
    and meeting one pure power x_v^e sends each row g to lcm(g, x_v^e);
    minimalizing the union of those images over the support of sig_row
    gives the answer.  Rows already inside the irreducible ideal are fixed
    by the intersection and pass through untouched: every image is a
    proper multiple of a row of K, so an image dividing a passed row would
    make that row non-minimal in K.  Only the images of the other rows
    need screening, so the per-step cost scales with the number of raised
    rows, not with the size of K.
    """
    support = np.flatnonzero(sig_row)
    inside = (K[:, support] >= sig_row[support]).any(axis=1)
    rest = K[~inside]
    if not len(rest):
        return K
    passed = K[inside]
    images = []
    for v in support:
        img = rest.copy()
        np.maximum(img[:, v], sig_row[v], out=img[:, v])
        images.append(img)
    cand = _minimalize_array(np.vstack(images))
    if len(passed):
        cand = cand[~_divisible_mask(cand, passed)]
        return np.vstack([passed, cand]) if len(cand) else passed
    return cand


def _decompose_by_duality(I: MonomialIdeal) -> tuple[IrreducibleIdeal, ...]:
    """Decompose by generator-wise duality.

    With a the componentwise maximum over the minimal generators, each
    generator m dualizes to the irreducible ideal with exponents
    a_v + 1 - m_v on the support of m; the components of I are read off
    the minimal generators of the intersection of those ideals by the
    same exponent flip.  The intersection is built one generator at a
    time, keeping intermediate generator sets minimal.
    """
    nvars = I.nvars
    # Every dual exponent is at most max(a) + 1, and the chain only takes
    # lcms of those values, so one matrix dtype serves the whole chain and
    # no row is re-encoded between steps.
    M = _exponent_matrix(I.gens, nvars, _max_exponent(I.gens) + 1)
    amax = M.max(axis=0)
    sigmas = amax + 1 - M
    sigmas[M == 0] = 0
    K = np.diag(sigmas[0])[sigmas[0] > 0]
    for sig_row in sigmas[1:]:
        K = _intersect_irreducible_array(K, sig_row)
    top = [a + 1 for a in amax.tolist()]
    comps = [
        IrreducibleIdeal(nvars, tuple((v, top[v] - e) for v, e in enumerate(c) if e))
        for c in K.tolist()
    ]
    return tuple(sorted(comps, key=IrreducibleIdeal.sort_key))


def irreducible_decomposition(I: MonomialIdeal) -> Decomposition:
    """Unique irredundant decomposition into irreducible monomial ideals.

    Computed by generator-wise duality and returned in canonical order;
    results are cached by generator list.
    """
    if not I.gens:
        raise ValueError("the zero ideal has no irreducible decomposition")
    if any(sum(g) == 0 for g in I.gens):
        raise ValueError("the unit ideal has no irreducible decomposition")
    key = (I.nvars, I.gens)
    cached = _DECOMP_CACHE.get(key)
    if cached is None:
        cached = _DECOMP_CACHE[key] = _decompose_by_duality(I)
    return Decomposition(cached)


def associated_primes(I: MonomialIdeal) -> list[frozenset[int]]:
    """Supports of the irreducible components, deduplicated and sorted."""
    supports = {frozenset(c.support) for c in irreducible_decomposition(I)}
    return sorted(supports, key=lambda s: sorted(s))
