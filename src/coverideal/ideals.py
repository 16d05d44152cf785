"""Monomial ideals of graphs: cover ideals, powers, membership, decompositions.

Monomials are exponent tuples indexed by vertex.  All operations are exact
and return canonically sorted data so that equal ideals print identically.

Row encoding.  Every exponent matrix that is minimalized is first
rank-compressed column by column: an exponent is replaced by its index
among the sorted distinct values its column can take in that step (the
given generators in ``monomial_ideal``, every pairwise sum in
``multiply``).  Ranks preserve every ``<=`` and ``max`` within a column,
so divisibility and the row-lex order read the same on ranks as on
exponents, and the rank sum is a degree under which a proper divisor
always has the smaller degree.  The ranks are packed into ``(N, W)``
uint64 words.  Variable v gets a field of ``bitlen(max rank of v) + 1``
bits; fields run from the high bits of word 0 downward in variable order
and never straddle two words, so comparing the words in order compares
the rows row-lex.  The top bit of each field is a guard, and the
invariant is that every stored row has all its guard bits clear.  With
H the words of guard bits, ``((b | H) - a) & H`` then keeps the guard of
exactly the fields where a <= b, and no borrow crosses a field, so a
divides b iff that equals H in every word.  W is set by the data.

Bit-sliced chain.  The duality chain of ``irreducible_decomposition``
ranks its rows the same way (zero and the dual exponents of each
column) but stores them transposed: rows live in numbered slots, and for
each variable v and rank r one Python int holds the bits of the slots
whose rank at v exceeds r.  Whether a row lies inside an irreducible
ideal, or is divided by some row of K, is then a few ORs and ANDs of
those ints, which screen 64 slots per machine word.  Dead slots are
renumbered away once they outnumber the live ones, so each int stays
within about twice the size of K.

Exponent limit.  Exponents are read into uint64 before they are ranked,
so every exponent a step computes must stay below 2**64: the generators
of ``monomial_ideal``, the sums of ``multiply``, and the largest
exponent plus one in ``irreducible_decomposition``.  Beyond that a
``ValueError`` names the limit.  Field widths depend on how many distinct
values a column holds, not on their size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import or_

import numpy as np

from .coloring import _multicover
from .graphs import Graph, _members, minimal_vertex_covers

__all__ = [
    "Monomial",
    "MonomialIdeal",
    "IrreducibleIdeal",
    "monomial_ideal",
    "cover_ideal",
    "multiply",
    "power",
    "contains",
    "contains_in_power",
    "irreducible_decomposition",
    "associated_primes",
]

Monomial = tuple[int, ...]

# Each temporary of the divisibility kernel holds at most _PAIR_BLOCK
# candidate/kept pairs from at most _KEPT_BLOCK kept rows, and the rank
# matrix of each block of products at most _PRODUCT_BLOCK entries.
_PAIR_BLOCK = 1 << 18
_KEPT_BLOCK = 1 << 12
_PRODUCT_BLOCK = 1 << 20


def _divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _max_exponent(gens) -> int:
    return max((max(g, default=0) for g in gens), default=0)


def _exponent_matrix(rows, nvars: int, top: int) -> np.ndarray:
    """Rows as a uint64 matrix; top is the largest value the step computes."""
    if top >= 1 << 64:
        raise ValueError(f"exponents up to {top} exceed the 64-bit limit 2**64 - 1")
    return np.array(rows, dtype=np.uint64).reshape(len(rows), nvars)


def _rows(arr: np.ndarray) -> tuple[Monomial, ...]:
    return tuple(map(tuple, arr.tolist()))


def _rank_columns(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Value table V and rank matrix R of an exponent matrix, column by column.

    R holds each entry's index among the distinct values of its column and
    V[r, v] the r-th smallest value of column v; rows of V past a column's
    largest value repeat it, so V adds no value that M lacks.
    """
    cols = np.arange(M.shape[1])
    order = np.argsort(M, axis=0)
    S = M[order, cols]
    new = np.ones(M.shape, dtype=bool)
    new[1:] = S[1:] != S[:-1]
    sorted_ranks = np.cumsum(new, axis=0) - 1
    R = np.empty(M.shape, dtype=np.intp)
    R[order, cols] = sorted_ranks
    V = np.repeat(S[-1:], sorted_ranks[-1].max(initial=0) + 1, axis=0)
    V[sorted_ranks, cols] = S
    return V, R


class _RowCode:
    """Packed guarded layout of rank rows over a value table from _rank_columns."""

    def __init__(self, values: np.ndarray):
        self.values = values
        word, shift, mask, guard = [], [], [], [0]
        free = 64
        for r in (np.diff(values, axis=0) != 0).sum(axis=0).tolist():
            b = r.bit_length() + 1
            if b > free:
                free = 64
                guard.append(0)
            free -= b
            word.append(len(guard) - 1)
            shift.append(free)
            mask.append((1 << (b - 1)) - 1)
            guard[-1] |= 1 << (free + b - 1)
        self.words = len(guard)
        self.word = np.array(word, dtype=np.intp)
        self.shift = np.array(shift, dtype=np.uint64)
        self.in_word = np.zeros((len(word), self.words), dtype=np.uint64)
        self.in_word[np.arange(len(word)), self.word] = 1
        self.rank_mask = np.array(mask, dtype=np.uint64)
        self.guard = np.array(guard, dtype=np.uint64)

    def pack(self, R: np.ndarray) -> np.ndarray:
        """Pack a matrix of ranks (or of values that fit each field) into words.

        Fields do not overlap, so summing a word's shifted fields packs them.
        """
        return (R.astype(np.uint64) << self.shift) @ self.in_word

    def ranks(self, P: np.ndarray) -> np.ndarray:
        """Ranks of packed rows, as an intp matrix."""
        return ((P[:, self.word] >> self.shift) & self.rank_mask).astype(np.intp)

    def decode(self, P: np.ndarray) -> np.ndarray:
        """Exponent matrix of packed rows."""
        return self.values[self.ranks(P), np.arange(self.values.shape[1])]


def _sorted_unique(P: np.ndarray, degs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct packed rows in row-lex order, with their degrees."""
    order = np.lexsort(P.T[::-1])
    P, degs = P[order], degs[order]
    new = np.ones(len(P), dtype=bool)
    new[1:] = (P[1:] != P[:-1]).any(axis=1)
    return P[new], degs[new]


def _divided(cand: np.ndarray, kept: np.ndarray, guard: np.ndarray) -> np.ndarray:
    """Boolean mask: which candidate rows are divisible by some kept row.

    Each word of a pair passes when ``((c | H) - k) & H == H``.  Both axes
    are taken in blocks, so each temporary holds at most _PAIR_BLOCK
    pairs, and a candidate leaves the scan at its first divisor.
    """
    hit = np.zeros(len(cand), dtype=bool)
    high = cand | guard
    kstep = min(len(kept), _KEPT_BLOCK)
    step = max(1, _PAIR_BLOCK // kstep)
    for i in range(0, len(cand), step):
        todo = np.arange(i, min(i + step, len(cand)))
        for j in range(0, len(kept), kstep):
            block, ok = high[todo], None
            for w, h in enumerate(guard):
                t = block[:, w, None] - kept[j : j + kstep, w]
                t &= h
                if ok is None:
                    ok = t == h
                else:
                    ok &= t == h
            found = ok.any(axis=1)
            hit[todo[found]] = True
            todo = todo[~found]
            if not len(todo):
                break
    return hit


def _minimalize(P: np.ndarray, degs: np.ndarray, guard: np.ndarray):
    """Divisibility-minimal packed rows, row-lex sorted, with their degrees.

    Rows are processed by ascending degree; two distinct rows of the same
    degree never divide each other, so each degree level is screened in
    bulk against the minimal rows of lower degree.
    """
    P, degs = _sorted_unique(P, degs)
    order = np.argsort(degs, kind="stable")
    keep = np.ones(len(P), dtype=bool)
    kept = P[:0]
    cuts = (np.flatnonzero(np.diff(degs[order])) + 1).tolist()
    for lo, hi in zip([0, *cuts], [*cuts, len(P)]):
        level = order[lo:hi]
        if len(kept):
            hit = _divided(P[level], kept, guard)
            keep[level[hit]] = False
            level = level[~hit]
        kept = np.concatenate([kept, P[level]])
    return P[keep], degs[keep]


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
    values, R = _rank_columns(_exponent_matrix(gens, nvars, _max_exponent(gens)))
    code = _RowCode(values)
    P, _ = _minimalize(code.pack(R), R.sum(axis=1), code.guard)
    return MonomialIdeal(nvars, _rows(code.decode(P)))


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
    VA, RA = _rank_columns(_exponent_matrix(I.gens, nvars, top))
    VB, RB = _rank_columns(_exponent_matrix(J.gens, nvars, top))
    # A product exponent is a sum of one value from each side, so ranking
    # the few distinct sums ranks every product without forming the
    # product matrix: VA[a, v] + VB[b, v] has rank sum_rank[a * len(VB) + b, v].
    values, sum_rank = _rank_columns((VA[:, None, :] + VB[None, :, :]).reshape(-1, nvars))
    code = _RowCode(values)
    # Rows of A are taken in blocks so each block's rank matrix stays
    # bounded; with several blocks, deduplicating each keeps the stacked
    # copy small.
    step = max(1, _PRODUCT_BLOCK // (len(RB) * nvars))
    cols = np.arange(nvars)
    blocks, block_degs = [], []
    for i in range(0, len(RA), step):
        R = sum_rank[RA[i : i + step, None] * len(VB) + RB, cols].reshape(-1, nvars)
        P, degs = code.pack(R), R.sum(axis=1)
        if step < len(RA):
            P, degs = _sorted_unique(P, degs)
        blocks.append(P)
        block_degs.append(degs)
    P, _ = _minimalize(np.concatenate(blocks), np.concatenate(block_degs), code.guard)
    return MonomialIdeal(nvars, _rows(code.decode(P)))


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

    Decided exactly as a covering.  d generators (with repetition) have an
    exponent sum dividing m exactly when the complements of their supports
    cover each variable v at least d - m_v times, and extra sets only add
    cover, so m is in J^d iff :func:`coloring._multicover` finds at most d
    complements meeting those demands.
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
    sets = [frozenset(v for v, e in enumerate(g) if not e) for g in J.gens]
    return _multicover(sets, [max(d - e, 0) for e in m], d) is not None


@dataclass(frozen=True)
class IrreducibleIdeal:
    """Ideal generated by pure powers x_v^e on its support; exps sorted by variable."""

    nvars: int
    exps: tuple[tuple[int, int], ...]

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.exps)

    def contains_monomial(self, m: Monomial) -> bool:
        return any(m[v] >= e for v, e in self.exps)

    def sort_key(self):
        return tuple(v for v, _ in self.exps), tuple(e for _, e in self.exps)


def _dual_ranks(I: MonomialIdeal) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Componentwise maximum a of the generators, the ranks of their dual
    exponents (one row per generator) and the value table of those ranks.

    Every row along the chain is an lcm of dual pure powers, so its
    exponents are zero or dual exponents: one value table serves the whole
    chain, rank 0 is exponent 0, and rows are ranked once and decoded once.
    """
    M = _exponent_matrix(I.gens, I.nvars, _max_exponent(I.gens) + 1)
    amax = M.max(axis=0)
    sigmas = np.where(M > 0, amax + 1 - M, np.uint64(0))
    values, R = _rank_columns(np.vstack([sigmas, np.zeros((1, I.nvars), dtype=np.uint64)]))
    return amax, R[:-1], values


class _SlicedRows:
    """The chain's rows K, transposed into per-field bitsets over row slots.

    ``rows[slot]`` is a rank tuple, or None once the row has died; ``alive``
    is the bitset of live slots and ``above[v][r]`` the bitset of slots
    whose rank at v exceeds r (so ``above[v][-1]``, past the largest rank,
    stays 0).  Bits of dead slots may linger in ``above``; every screen
    masks them with ``alive``.  K starts as the unit ideal, one zero row.
    """

    def __init__(self, tops: list[int]):
        self.tops = tops
        self.rows = [(0,) * len(tops)]
        self.live = self.alive = 1
        self.above = [[0] * (t + 1) for t in tops]

    def renumber(self) -> None:
        """Give the live rows slots 0..live-1 in order and rebuild the bitsets."""
        self.rows = [g for g in self.rows if g is not None]
        ranks = np.array(self.rows, dtype=np.intp)
        self.above = [
            [
                int.from_bytes(b.tobytes(), "little")
                for b in np.packbits(ranks[:, v] > np.arange(t)[:, None], axis=1, bitorder="little")
            ]
            + [0]
            for v, t in enumerate(self.tops)
        ]
        self.alive = (1 << len(self.rows)) - 1

    def meet(self, sig: tuple[int, ...]) -> None:
        """K becomes the minimal rows of K meet the irreducible ideal with ranks sig.

        For monomial ideals the intersection distributes over generator
        sums, and meeting one pure power x_v^e sends each row g to
        lcm(g, x_v^e); the minimal rows of the union of those images over
        the support of sig are the answer.  Rows already inside the
        irreducible ideal are fixed and stay minimal: every image is a
        proper multiple of a row of K, so an image dividing a passed row
        would make that row non-minimal in K.  A raised row g is below
        sig on the whole support, so its image c_v just writes sig_v at v,
        and a live row h fails to divide c_v iff h exceeds g away from v
        or exceeds sig_v at v.  Images of one g never divide each other,
        so all of g's images are screened before any is added; a kept
        image then evicts the rows added earlier in this step that it
        divides (a passed row cannot be one, by K's minimality).
        """
        above, rows = self.above, self.rows
        support = [v for v, r in enumerate(sig) if r]
        inside = 0
        for v in support:
            inside |= above[v][sig[v] - 1]
        raised = self.alive & ~inside
        if not raised:
            return
        alive = self.alive & inside
        new = 0
        live = self.live
        for slot in _members(raised):
            g = rows[slot]
            rows[slot] = None
            live -= 1
            terms = [above_u[r] for above_u, r in zip(above, g)]
            before = list(accumulate(terms, or_, initial=0))
            after = list(accumulate(reversed(terms), or_, initial=0))[::-1]
            kept = [
                v
                for v in support
                if not alive & ~(before[v] | after[v + 1] | above[v][sig[v]])
            ]
            for v in kept:
                c = g[:v] + (sig[v],) + g[v + 1 :]
                multiples = new & alive
                for above_u, r in zip(above, c):
                    if not multiples:
                        break
                    if r:
                        multiples &= above_u[r - 1]
                if multiples:
                    alive &= ~multiples
                    for dead in _members(multiples):
                        rows[dead] = None
                        live -= 1
                bit = 1 << len(rows)
                rows.append(c)
                for above_u, r in zip(above, c):
                    for k in range(r):
                        above_u[k] |= bit
                alive |= bit
                new |= bit
                live += 1
        self.alive, self.live = alive, live
        if len(rows) > 2 * live:
            self.renumber()


@lru_cache(maxsize=1)
def irreducible_decomposition(I: MonomialIdeal) -> tuple[IrreducibleIdeal, ...]:
    """Unique irredundant decomposition into irreducible monomial ideals.

    Computed by generator-wise duality and returned in canonical order.
    With a the componentwise maximum over the minimal generators, each
    generator m dualizes to the irreducible ideal with exponents
    a_v + 1 - m_v on the support of m; the components of I are read off
    the minimal generators of the intersection of those ideals by the
    same exponent flip.  The intersection is built one generator at a
    time, in the generators' lex order, from the unit ideal, keeping the
    intermediate generator set K minimal.  K is held bit-sliced
    (``_SlicedRows``), so each step's inside test and divisor screens are
    a few big-int operations over all of K at once.

    Memoized for the last ideal only (``cache_info()``, ``cache_clear()``):
    every reuse is of the ideal just decomposed, as when a persistence
    sweep reads J^(s+1) again as the next J^s.
    """
    if not I.gens:
        raise ValueError("the zero ideal has no irreducible decomposition")
    if any(sum(g) == 0 for g in I.gens):
        raise ValueError("the unit ideal has no irreducible decomposition")
    amax, R, values = _dual_ranks(I)
    K = _SlicedRows(R.max(axis=0).tolist())
    for sig in map(tuple, R.tolist()):
        K.meet(sig)
    ranks = np.array([g for g in K.rows if g is not None], dtype=np.intp)
    top = [a + 1 for a in amax.tolist()]
    comps = [
        IrreducibleIdeal(I.nvars, tuple((v, top[v] - e) for v, e in enumerate(c) if e))
        for c in values[ranks, np.arange(I.nvars)].tolist()
    ]
    return tuple(sorted(comps, key=IrreducibleIdeal.sort_key))


def associated_primes(I: MonomialIdeal) -> list[frozenset[int]]:
    """Supports of the irreducible components, deduplicated and sorted."""
    supports = {frozenset(c.support) for c in irreducible_decomposition(I)}
    return sorted(supports, key=lambda s: sorted(s))
