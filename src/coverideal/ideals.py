"""Monomial ideals of graphs: cover ideals, powers, membership, decompositions.

Monomials are exponent tuples indexed by vertex.  All operations are exact
and return canonically sorted data so that equal ideals print identically.

Packed rows.  A row of exponents is held as one Python int of
fixed-width fields, variable 0 in the most significant field and each
field as many whole bytes as the step's largest exponent needs.  A
product of two monomials is then one integer addition, equal rows are
equal ints, and the integer order is the row-lex order.  ``to_bytes``
unpacks rows; with one-byte fields a column of the unpacked rows is one
byte string, which ``bytes.translate`` maps in one pass.

Rank rows.  Every exponent matrix is rank-compressed column by column
before it is minimalized or dualized: an exponent is replaced by its index
among the sorted distinct values its column takes in that step (the
distinct generators in ``monomial_ideal`` and products in ``multiply``,
zero and the dual exponents in ``_components``).  Ranks
preserve every ``<=`` and ``max`` within a column, so divisibility and
the row-lex order read the same on ranks as on exponents, and the rank
sum is a degree under which a proper divisor always has the smaller
degree.  A column of one-byte exponents has at most 256 distinct values,
so their rank rows are byte strings too; wider exponents give rank rows
as tuples.

Bit-sliced rows.  Wherever rows are screened for divisors they are held
transposed: rows live in numbered slots, and for each variable v and rank
r one Python int ``above[v][r]`` holds the bits of the slots whose rank at
v exceeds r (``_above`` builds them).  A row k divides a row c iff slot k
lies in no ``above[v][c_v]``, so one OR over the variables screens c
against every row at once.  ``_minimalize`` screens the candidates of
each degree against the minimal rows of lower degree, and the duality
chain (``_intersect``) holds its running generator set K this way.

Memos.  ``_components`` holds the chain's answer for the last ideal only:
each column's rank order and the components' rank rows.
``associated_primes`` reads the supports off the rank rows, and
``irreducible_decomposition`` builds and sorts its records from both.
``cover_ideal`` holds the last graph's ideal and ``power`` the last power.

Exponents may be any nonnegative ints; only the field width grows with
them.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import accumulate, compress, pairwise
from operator import getitem
from typing import NamedTuple

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
    "contains_in_power",
    "irreducible_decomposition",
    "associated_primes",
]

Monomial = tuple[int, ...]


def _width(top: int) -> int:
    """Bytes per field of packed rows whose values reach top."""
    return max(1, (top.bit_length() + 7) // 8)


def _pack(g: Monomial, k: int) -> int:
    if k == 1:
        return int.from_bytes(bytes(g), "big")
    return int.from_bytes(b"".join(e.to_bytes(k, "big") for e in g), "big")


def _unpack(row: int, nvars: int, k: int) -> Monomial:
    b = row.to_bytes(nvars * k, "big")
    if k == 1:
        return tuple(b)
    return tuple(int.from_bytes(b[i : i + k], "big") for i in range(0, len(b), k))


def _distinct(col) -> list[int]:
    """The distinct values of a column, ascending."""
    if isinstance(col, bytes):
        # Deleting the column's bytes from all 256 leaves the absent ones.
        every = bytes.maketrans(b"", b"")
        return list(every.translate(None, every.translate(None, col)))
    return sorted(set(col))


def _rank_rows(columns: list, orders: list[list[int]]) -> list:
    """The rows of the columns with each value of column v replaced by its
    index in ``orders[v]``: byte strings from byte columns, else tuples."""
    n = len(columns)
    if isinstance(columns[0], bytes):
        buf = bytearray(len(columns[0]) * n)
        for v, (col, order) in enumerate(zip(columns, orders)):
            table = bytearray(256)
            for r, x in enumerate(order):
                table[x] = r
            buf[v::n] = col.translate(table)
        buf = bytes(buf)
        return [buf[i : i + n] for i in range(0, len(buf), n)]
    ranks = [dict(zip(order, range(len(order)))) for order in orders]
    return list(zip(*([rank[x] for x in col] for col, rank in zip(columns, ranks))))


def _bitset(flags: list[bool]) -> int:
    """The int whose bit i is flags[i]."""
    return int(bytes(flags[::-1]).translate(bytes.maketrans(b"\x00\x01", b"01")), 2)


def _above(rows: list, tops: list[int]) -> list[list[int]]:
    """The bitsets of rank rows, one slot per row in row order.

    ``above[v][r]``, for r up to ``tops[v]``, holds bit i iff row i has a
    rank above r at v; the last one, past the largest rank, is 0.  Each
    column is read last slot first, so that ``int(·, 2)`` of its digits
    puts slot i at bit i; a column of byte ranks gives the digits of each
    r in one ``bytes.translate``.
    """
    n = len(tops)
    if max(tops) < 256:
        buf = b"".join(map(bytes, rows))[::-1]
        cols = [buf[n - 1 - v :: n] for v in range(n)]
        return [
            [int(col.translate(b"0" * (r + 1) + b"1" * (255 - r)), 2) for r in range(t)] + [0]
            for col, t in zip(cols, tops)
        ]
    cols = [col[::-1] for col in zip(*rows)]
    return [
        [int(bytes(49 if x > r else 48 for x in col), 2) for r in range(t)] + [0]
        for col, t in zip(cols, tops)
    ]


def _minimalize(rows: list[int], nvars: int, k: int) -> list[int]:
    """The divisibility-minimal rows among distinct packed rows given in
    row-lex order, in that order.

    The rank rows take slots in (degree, row-lex) order and are held
    bit-sliced once.  Two distinct rows of the same degree never divide
    each other, so the levels of equal degree are screened in ascending
    order, each against the minimal rows of lower degree: with ``kept``
    their slots, a kept row divides a candidate c iff it lies in no
    ``above[v][c_v]``, so c is minimal iff the OR of those bitsets,
    masked to ``kept``, is all of ``kept``.  A level's candidates come in
    row-lex order, so each shares the partial ORs over the fields it has
    in common with the candidate before; the top set bit of the XOR of
    their packed rows tells how many fields that is.
    """
    if k == 1:
        buf = b"".join([r.to_bytes(nvars, "big") for r in rows])
        columns = [buf[v::nvars] for v in range(nvars)]
    else:
        columns = list(zip(*(_unpack(r, nvars, k) for r in rows)))
    orders = [_distinct(col) for col in columns]
    ranks = _rank_rows(columns, orders)
    del columns
    degs = list(map(sum, ranks))
    slots = sorted(range(len(rows)), key=degs.__getitem__)
    ranks = [ranks[i] for i in slots]
    above = _above(ranks, [len(order) - 1 for order in orders])
    sizes = [size for _, size in sorted(Counter(degs).items())]
    packed = [rows[i] for i in slots]
    bits = 8 * k * nvars
    keep: list[bool] = []
    kept = 0
    for lo, hi in pairwise(accumulate(sizes, initial=0)):
        masked = [[a & kept for a in above_v] for above_v in above]
        # ors[v] is the OR over the first v fields of the last candidate;
        # prev differs from the level's first row in its first field.
        ors = [0] * (nvars + 1)
        prev = packed[lo] ^ (1 << (bits - 1))
        flags = []
        for c, x in zip(ranks[lo:hi], packed[lo:hi]):
            for v in range((bits - (x ^ prev).bit_length()) // (8 * k), nvars):
                ors[v + 1] = ors[v] | masked[v][c[v]]
            flags.append(ors[nvars] == kept)
            prev = x
        kept |= _bitset(flags) << lo
        keep += flags
    return [rows[i] for i in sorted(compress(slots, keep))]


class MonomialIdeal(NamedTuple):
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
    k = _width(max(map(max, gens)))
    rows = sorted({_pack(g, k) for g in gens})
    return MonomialIdeal(nvars, tuple(_unpack(r, nvars, k) for r in _minimalize(rows, nvars, k)))


@lru_cache(maxsize=1)
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
    k = _width(max(map(max, I.gens)) + max(map(max, J.gens)))
    B = [_pack(g, k) for g in J.gens]
    rows = sorted({a + b for a in (_pack(g, k) for g in I.gens) for b in B})
    return MonomialIdeal(nvars, tuple(_unpack(r, nvars, k) for r in _minimalize(rows, nvars, k)))


@lru_cache(maxsize=1)
def _held_power(I: MonomialIdeal) -> list:
    """The slot ``[t, I**t]`` of the last power ``power`` built of I."""
    return [1, I]


def power(I: MonomialIdeal, s: int) -> MonomialIdeal:
    """s-th power of the ideal.

    The last power built of the last ideal asked for is held
    (``_held_power``), and a call at that power or above starts from it,
    so ascending calls, such as J^s then J^(s+1), cost one product each.
    """
    if s < 1:
        raise ValueError("power must be >= 1")
    held = _held_power(I)
    t, out = held if held[0] <= s else (1, I)
    for _ in range(s - t):
        out = multiply(out, I)
    held[:] = s, out
    return out


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
    if any(e < 0 for e in m):
        raise ValueError("exponents must be nonnegative")
    if d < 1:
        raise ValueError("power must be >= 1")
    if not J.gens:
        return False
    if any(e > 1 for g in J.gens for e in g):
        raise ValueError("contains_in_power expects a squarefree ideal")
    sets = [frozenset(v for v, e in enumerate(g) if not e) for g in J.gens]
    return _multicover(sets, [max(d - e, 0) for e in m], d) is not None


class IrreducibleIdeal(NamedTuple):
    """Ideal generated by pure powers x_v^e on its support; exps sorted by variable."""

    nvars: int
    exps: tuple[tuple[int, int], ...]


def _intersect(R: list, tops: list[int]) -> list[tuple[int, ...]]:
    """Minimal rank rows of the intersection of the irreducible ideals whose
    exponent ranks are the rows of R, met in row order; ``tops[v]`` is the
    largest rank at v.

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
    inside the irreducible ideal pass; a raised row g is below sig on the
    whole support, so its image c_v writes sig_v at v.  Two facts make the
    screens exact.  The live rows form an antichain, so none divides g, and
    a live row divides c_v iff it exceeds g at v alone and is at most sig_v
    there: one pass over g's fields gives ``twice``, the slots that exceed g
    in two or more fields, and c_v is kept iff no live slot outside
    ``twice`` is in ``above[v][g_v]`` and not in ``above[v][sig_v]``.  The
    same pass gives ``over``, the live multiples of g.  Each was added
    earlier in this step and lies inside sig, so it is a multiple of an
    image of g, and that image is kept, as a live row dividing it would
    divide the multiple too; so ``over`` is evicted before g's images are
    added.  Images of one g never divide each other.

    Each kept image c_v differs from g only at v, so it sets its own bit
    only in ``above[v][r]`` for g_v <= r < sig_v; the images of g share
    every bit below g, which their joint bitset takes in one OR per
    bitset, and ``alive`` in one more, after the last image is screened.
    No screen of g's images reads those bits, as ``solo`` is fixed first.
    """
    rows = [(0,) * len(tops)]
    alive = 1
    above = [[0] * (t + 1) for t in tops]
    for sig in R:
        support = [v for v, r in enumerate(sig) if r]
        inside = 0
        for v in support:
            inside |= above[v][sig[v] - 1]
        raised = alive & ~inside
        if not raised:
            continue
        alive &= inside
        for slot in _members(raised):
            g = rows[slot]
            rows[slot] = None
            once = twice = 0
            over = alive
            for above_u, r in zip(above, g):
                twice |= once & above_u[r]
                once |= above_u[r]
                if r:
                    over &= above_u[r - 1]
            if over:
                alive &= ~over
                for dead in _members(over):
                    rows[dead] = None
            solo = alive & ~twice
            new = 0
            for v in support:
                if solo & above[v][g[v]] & ~above[v][sig[v]]:
                    continue
                bit = 1 << len(rows)
                rows.append(g[:v] + (sig[v],) + g[v + 1 :])
                above_v = above[v]
                for k in range(g[v], sig[v]):
                    above_v[k] |= bit
                new |= bit
            if new:
                for above_u, r in zip(above, g):
                    for k in range(r):
                        above_u[k] |= new
                alive |= new
        if len(rows) > 2 * alive.bit_count():
            rows = [g for g in rows if g is not None]
            above = _above(rows, tops)
            alive = (1 << len(rows)) - 1
    return [g for g in rows if g is not None]


@lru_cache(maxsize=1)
def _components(I: MonomialIdeal) -> tuple[list[list[int]], list[tuple[int, ...]]]:
    """The irreducible components of I as the duality chain leaves them:
    ``orders[v]`` and the chain's rank rows, where a row c has support the
    v with c_v > 0 and exponent ``orders[v][c_v]`` there.

    Computed by generator-wise duality.  With a the componentwise maximum
    over the minimal generators, each generator m dualizes to the
    irreducible ideal with exponents a_v + 1 - m_v on the support of m;
    the components of I are read off the minimal generators of the
    intersection of those ideals by the same exponent flip.  The
    intersection is built one generator at a time, in the generators' lex
    order, from the unit ideal, keeping the intermediate generator set K
    minimal.  K is held bit-sliced, so each step's inside test and divisor
    screens are a few big-int operations over all of K at once.

    This is the one decomposition memo, and it holds the last ideal only:
    every reuse is of the ideal just decomposed, as when
    ``persistence_check`` called with ascending s reads J^(s+1) again as
    the next J^s, or ``decompose`` lists the primes of the components it
    has just built.
    """
    if not I.gens:
        raise ValueError("the zero ideal has no irreducible decomposition")
    if any(sum(g) == 0 for g in I.gens):
        raise ValueError("the unit ideal has no irreducible decomposition")
    try:
        columns = [bytes(col) for col in zip(*I.gens)]
    except ValueError:  # an exponent past one byte
        columns = list(zip(*I.gens))
    # Every row along the chain is an lcm of dual pure powers, so its
    # exponents are zero or dual exponents a_v + 1 - m_v, which fall as m_v
    # rises: zero and then the generator exponents in descending order rank
    # the whole chain once, and orders[v][r] reads rank r back as the
    # component exponent.
    orders = [[0, *reversed([x for x in _distinct(col) if x])] for col in columns]
    return orders, _intersect(_rank_rows(columns, orders), [len(order) - 1 for order in orders])


def irreducible_decomposition(I: MonomialIdeal) -> tuple[IrreducibleIdeal, ...]:
    """Unique irredundant decomposition into irreducible monomial ideals,
    in canonical order (by support, then exponents).

    Each call builds and sorts its records from the chain's answer
    memoized by ``_components``, which runs the chain once per ideal.
    """
    n = I.nvars
    orders, ranks = _components(I)
    keys = sorted(
        (tuple(compress(range(n), c)), tuple(filter(None, map(getitem, orders, c))))
        for c in ranks
    )
    return tuple(IrreducibleIdeal(n, tuple(zip(*key))) for key in keys)


def associated_primes(I: MonomialIdeal) -> list[frozenset[int]]:
    """Supports of the irreducible components, deduplicated and sorted.

    Read straight off the memoized rank rows: a support is where a row is
    nonzero, and no exponent or component record is built.
    """
    vertices = range(I.nvars)
    _, ranks = _components(I)
    return [frozenset(p) for p in sorted({tuple(compress(vertices, c)) for c in ranks})]
