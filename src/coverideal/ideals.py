"""Monomial ideals of graphs: cover ideals, powers, membership, decompositions.

Monomials are exponent tuples indexed by vertex.  All operations are exact
and return canonically sorted data so that equal ideals print identically.

Rank rows.  Every exponent matrix is rank-compressed column by column
before it is minimalized or dualized: an exponent is replaced by its index
among the sorted distinct values its column can take in that step (the
given generators in ``monomial_ideal``, every pairwise sum in
``multiply``, zero and the dual exponents in ``irreducible_decomposition``).
Ranks preserve every ``<=`` and ``max`` within a column, so divisibility
and the row-lex order read the same on ranks as on exponents, and the
rank sum is a degree under which a proper divisor always has the smaller
degree.  Ranks are stored in the narrowest unsigned type that holds them.

Bit-sliced rows.  Wherever rows are screened for divisors they are held
transposed: rows live in numbered slots, and for each variable v and rank
r one Python int ``above[v][r]`` holds the bits of the slots whose rank at
v exceeds r (``_above`` builds them).  A row k divides a row c iff slot k
lies in no ``above[v][c_v]``, so one OR over the variables screens c
against every row at once.  ``_minimalize`` screens the candidates of
each degree against the minimal rows of lower degree; the duality chain
of ``irreducible_decomposition`` keeps its running generator set K this
way, where whether a row lies inside an irreducible ideal is also a few
ORs and ANDs.  Dead slots of K are renumbered away once they outnumber
the live ones, so each int stays within about twice the size of K.

Exponent limit.  Exponents are read into uint64 before they are ranked,
so every exponent a step computes must stay below 2**64: the generators
of ``monomial_ideal``, the sums of ``multiply``, and the largest
exponent plus one in ``irreducible_decomposition``.  Beyond that a
``ValueError`` names the limit.  Rank widths depend on how many distinct
values a column holds, not on their size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate
from operator import getitem, or_

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

# The index matrix of each block of products holds at most _PRODUCT_BLOCK
# entries.
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

    R holds each entry's index among the distinct values of its column, in
    the narrowest unsigned type that holds the largest, and V[r, v] the
    r-th smallest value of column v; rows of V past a column's largest
    value repeat it, so V adds no value that M lacks.
    """
    cols = np.arange(M.shape[1])
    order = np.argsort(M, axis=0)
    S = M[order, cols]
    new = np.ones(M.shape, dtype=bool)
    new[1:] = S[1:] != S[:-1]
    sorted_ranks = np.cumsum(new, axis=0) - 1
    top = sorted_ranks[-1].max(initial=0)
    R = np.empty(M.shape, dtype=np.min_scalar_type(top))
    R[order, cols] = sorted_ranks
    V = np.repeat(S[-1:], top + 1, axis=0)
    V[sorted_ranks, cols] = S
    return V, R


def _above(ranks: np.ndarray, tops: list[int]) -> list[list[int]]:
    """The bitsets of a rank matrix's rows, one slot per row in row order.

    ``above[v][r]``, for r up to ``tops[v]``, holds bit i iff row i has a
    rank above r at v; the last one, past the largest rank, is 0.
    """
    T = max(tops)
    P = np.packbits(ranks.T[:, None, :] > np.arange(T)[:, None], axis=2, bitorder="little")
    w = P.shape[2]
    buf = P.tobytes()
    return [
        [int.from_bytes(buf[(v * T + r) * w : (v * T + r + 1) * w], "little") for r in range(t)] + [0]
        for v, t in enumerate(tops)
    ]


def _minimalize(R: np.ndarray) -> np.ndarray:
    """The distinct divisibility-minimal rows of a rank matrix, row-lex sorted.

    The distinct rows take slots in (degree, row-lex) order and are held
    bit-sliced once.  Two distinct rows of the same degree never divide
    each other, so the levels of equal degree are screened in ascending
    order, each against the minimal rows of lower degree: with ``kept``
    their slots, a kept row divides a candidate c iff it lies in no
    ``above[v][c_v]``, so c is minimal iff the OR of those bitsets,
    masked to ``kept``, is all of ``kept``.
    """
    R = R[np.lexsort(R.T[::-1])]
    new = np.ones(len(R), dtype=bool)
    new[1:] = (R[1:] != R[:-1]).any(axis=1)
    R = R[new]
    degs = R.sum(axis=1, dtype=np.intp)
    slots = np.argsort(degs, kind="stable")
    cuts = (np.flatnonzero(np.diff(degs[slots])) + 1).tolist()
    S = R[slots]
    above = _above(S, R.max(axis=0).tolist())
    keep = np.zeros(len(R), dtype=bool)
    for lo, hi in zip([0, *cuts], [*cuts, len(R)]):
        kept = int.from_bytes(np.packbits(keep[:lo], bitorder="little").tobytes(), "little")
        masked = [[a & kept for a in above_v] for above_v in above]
        keep[lo:hi] = [reduce(or_, map(getitem, masked, c), 0) == kept for c in S[lo:hi].tolist()]
    return R[np.sort(slots[keep])]


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
    if not nvars:
        return MonomialIdeal(0, ((),))  # the unit ideal of the ring with no variables
    values, R = _rank_columns(_exponent_matrix(gens, nvars, _max_exponent(gens)))
    return MonomialIdeal(nvars, _rows(values[_minimalize(R), np.arange(nvars)]))


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
    # Rows of A are taken in blocks so each block's index matrix stays
    # bounded; the index is taken in intp, as narrow ranks would overflow.
    step = max(1, _PRODUCT_BLOCK // (len(RB) * nvars))
    cols = np.arange(nvars)
    R = np.concatenate(
        [
            sum_rank[RA[i : i + step, None].astype(np.intp) * len(VB) + RB, cols].reshape(-1, nvars)
            for i in range(0, len(RA), step)
        ]
    )
    return MonomialIdeal(nvars, _rows(values[_minimalize(R), cols]))


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


def _intersect(R: np.ndarray) -> list[tuple[int, ...]]:
    """Minimal rank rows of the intersection of the irreducible ideals whose
    exponent ranks are the rows of R, met in row order.

    The running generator set K starts as the unit ideal, one zero row, and
    is held transposed into per-field bitsets over row slots: ``rows[slot]``
    is a rank tuple, or None once the row has died; ``alive`` is the bitset
    of live slots and ``above[v][r]`` the bitset of slots whose rank at v
    exceeds r (so ``above[v][-1]``, past the largest rank, stays 0).  Bits of
    dead slots may linger in ``above``; every screen masks them with
    ``alive``.  Once dead slots outnumber the live ones, the live rows take
    the lowest slots in order and the bitsets are rebuilt.

    Meeting K with one irreducible ideal sig: for monomial ideals the
    intersection distributes over generator sums, and meeting one pure
    power x_v^e sends each row g to lcm(g, x_v^e); the minimal rows of the
    union of those images over the support of sig are the answer.  Rows
    already inside the irreducible ideal are fixed and stay minimal: every
    image is a proper multiple of a row of K, so an image dividing a passed
    row would make that row non-minimal in K.  A raised row g is below sig
    on the whole support, so its image c_v just writes sig_v at v, and a
    live row h fails to divide c_v iff h exceeds g away from v or exceeds
    sig_v at v.  Images of one g never divide each other, so all of g's
    images are screened before any is added; a kept image then evicts the
    rows added earlier in this step that it divides (a passed row cannot be
    one, by K's minimality).
    """
    tops = R.max(axis=0).tolist()
    rows = [(0,) * len(tops)]
    alive = 1
    above = [[0] * (t + 1) for t in tops]
    for sig in map(tuple, R.tolist()):
        support = [v for v, r in enumerate(sig) if r]
        inside = 0
        for v in support:
            inside |= above[v][sig[v] - 1]
        raised = alive & ~inside
        if not raised:
            continue
        alive &= inside
        new = 0
        for slot in _members(raised):
            g = rows[slot]
            rows[slot] = None
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
                bit = 1 << len(rows)
                rows.append(c)
                for above_u, r in zip(above, c):
                    for k in range(r):
                        above_u[k] |= bit
                alive |= bit
                new |= bit
        if len(rows) > 2 * alive.bit_count():
            rows = [g for g in rows if g is not None]
            above = _above(np.array(rows, dtype=np.intp), tops)
            alive = (1 << len(rows)) - 1
    return [g for g in rows if g is not None]


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
    intermediate generator set K minimal.  K is held bit-sliced, so each
    step's inside test and divisor screens are a few big-int operations
    over all of K at once.

    Memoized for the last ideal only (``cache_info()``, ``cache_clear()``):
    every reuse is of the ideal just decomposed, as when
    ``persistence_check`` called with ascending s reads J^(s+1) again as
    the next J^s.
    """
    if not I.gens:
        raise ValueError("the zero ideal has no irreducible decomposition")
    if any(sum(g) == 0 for g in I.gens):
        raise ValueError("the unit ideal has no irreducible decomposition")
    M = _exponent_matrix(I.gens, I.nvars, _max_exponent(I.gens) + 1)
    top = M.max(axis=0) + np.uint64(1)
    # Every row along the chain is an lcm of dual pure powers, so its
    # exponents are zero or dual exponents: one value table, with a zero
    # row so that rank 0 is exponent 0, serves the whole chain, and rows
    # are ranked once and decoded once.  Flipping the table back to
    # generator exponents makes the decode read component exponents.
    zero = np.zeros((1, I.nvars), dtype=np.uint64)
    values, R = _rank_columns(np.vstack([np.where(M > 0, top - M, np.uint64(0)), zero]))
    values = np.where(values > 0, top - values, np.uint64(0))
    ranks = np.array(_intersect(R[:-1]), dtype=np.intp)
    comps = [
        IrreducibleIdeal(I.nvars, tuple((v, e) for v, e in enumerate(c) if e))
        for c in values[ranks, np.arange(I.nvars)].tolist()
    ]
    return tuple(sorted(comps, key=IrreducibleIdeal.sort_key))


def associated_primes(I: MonomialIdeal) -> list[frozenset[int]]:
    """Supports of the irreducible components, deduplicated and sorted.

    The components come sorted by support, so first occurrences are in order.
    """
    return list(dict.fromkeys(frozenset(c.support) for c in irreducible_decomposition(I)))
