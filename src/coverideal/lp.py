"""Exact revised simplex for set-covering linear programs.

The covering LP is ``min sum(w_S)`` subject to ``sum(w_S for S containing
v) >= 1`` for every point v and ``w >= 0``.  It is solved in the standard
form ``A w - s = 1`` with one surplus ``s_v >= 0`` per point, so a basis
has one column per point: the work per pivot grows with the n points, and
the sets are only priced.

Basis inverse.  The inverse of the basis B is held as an integer matrix M
and a positive integer D with ``B^-1 = M / D``, and the basic values as
``X = D x_B``.  Throughout, ``D = det(B)`` and ``M = adj(B)``.  That holds
at the start (B = I) and each pivot keeps it: with entering column a and
``E = M a``, pivoting on row l multiplies the determinant by
``(B^-1 a)_l = E_l / D``, so ``D' = E_l``, and

    M'_l = M_l,    M'_i = (M_i E_l - E_i M_l) / D    for i != l,

where the division is exact because the result is the integer matrix
``adj(B')``: Sylvester's identity, as in Bareiss, "Sylvester's identity
and multistep integer-preserving Gaussian elimination", Math. Comp. 22
(1968).  X is updated like a column of M.  No fraction appears inside the
loop.

Start.  The start basis is the n singleton columns {v}: B = I and
``x_B = 1`` is feasible.  Every point lies in a listed set, so each
singleton is dominated by a listed set and adding the singletons does not
change the optimum: once the duals satisfy ``y >= 0`` and ``y(S) <= 1``
on the listed sets, ``y_v <= y(S) <= 1`` for a listed S containing v.
The singletons are therefore never priced.  At the end, weight left on
{v} moves to the first listed set that contains v.

Pricing.  The duals are ``y = Y / D`` with ``Y = c_B M``.  The listed set
with the largest ``y(S) > 1`` enters, ties going to the lowest index;
failing that, the surplus of the point with the most negative ``y_v``
enters; failing that, the basis is optimal.

Leaving row.  Among the rows with ``E_i > 0``, the row whose vector
``(X_i, M_i) / E_i`` is lexicographically smallest leaves (Dantzig, Orden
and Wolfe, Pacific J. Math. 5, 1955).  The rows of ``(X, M)`` start
lexicographically positive, as ``(1, e_i)``, and the rule keeps them so.
The rows of M are independent, so the smallest row is unique.  Each pivot
then adds a negative multiple of a lexicographically positive row to
``(c_B x_B, c_B B^-1)``, so that vector strictly decreases, no basis
repeats and the method terminates however degenerate the LP.  Bland's
rule also terminates, but was far slower on the degenerate covering LPs
of graphs.

Certificate.  The answer is checked apart from the loop: the weights are
nonnegative and cover every point, and the final duals satisfy ``y >= 0``,
``y(S) <= 1`` on every listed set and ``sum(y) = sum(w)``, which proves
the value optimal by weak duality.  A failed check raises RuntimeError.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["solve_cover_lp"]

# Each pivot costs O(n^2) on the basis and O(m n) to price the m sets.
# Kneser K(8, 3), with 56 points and 23,936 sets, solves in 6 s (2,337
# pivots) at 62 MB peak RSS on a 2-vCPU Xeon with Python 3.11.  Beyond this
# many sets the solve is refused.
_SET_LIMIT = 25_000


def _price(incidence, Y, D):
    """The entering column, or None when the duals ``Y / D`` are feasible.

    ``incidence`` is the 0/1 set-by-point matrix.  A listed set enters as
    its index, the surplus of point v as ``~v``.  The sums ``Y(S)`` are
    taken in int64 while no partial sum can reach 2^63, and in Python
    integers beyond.
    """
    import numpy as np

    wide = max(map(abs, Y)) * incidence.shape[1] >= 2**63
    totals = incidence @ np.array(Y, dtype=object if wide else np.int64)
    j = int(np.argmax(totals))  # the first of equal maxima
    if int(totals[j]) > D:
        return j
    low = min(Y)
    return ~Y.index(low) if low < 0 else None


def _lex_smaller(X, M, E, i, k) -> bool:
    """True when row i's ``(X_i, M_i) / E_i`` is lexicographically below row k's."""
    a, b = E[k], E[i]
    for p, q in zip((X[i], *M[i]), (X[k], *M[k])):
        if p * a != q * b:
            return p * a < q * b
    raise RuntimeError("basis inverse has two proportional rows")


def solve_cover_lp(n: int, sets) -> tuple[Fraction, list[Fraction]]:
    """Exact optimum of ``min sum(w)`` with every point covered by weight >= 1.

    Points are 0..n-1 and each entry of ``sets`` is a subset that its weight
    covers.  Solved by a revised simplex on the n point rows with an
    integer basis inverse and the lexicographic leaving rule; see the module
    docstring.

    Returns (optimum, weights aligned with ``sets``, duplicates included).
    More than ``_SET_LIMIT`` sets raise ``ValueError``.
    """
    sets = [frozenset(s) for s in sets]
    m = len(sets)
    if m > _SET_LIMIT:
        raise ValueError(f"{m} sets exceed the exact LP's limit of {_SET_LIMIT} sets")
    if n < 1 or m < 1:
        raise ValueError("need at least one point and one set")
    covered = set().union(*sets)
    if covered != set(range(n)):
        raise ValueError("every point must belong to some set")

    # Only the pricing uses numpy, so no process without an LP pays its start-up.
    import numpy as np

    cols = [tuple(sorted(s)) for s in sets]
    incidence = np.zeros((m, n), dtype=np.int64)
    for j, S in enumerate(cols):
        incidence[j, list(S)] = 1
    # basis[i] is the column of row i: a listed set j < m, the singleton
    # {v} as m + v, or the surplus of v as ~v (negative, cost 0).
    basis = [m + v for v in range(n)]
    M = [[int(i == k) for k in range(n)] for i in range(n)]
    X = [1] * n
    D = 1

    while True:
        Y = [sum(col) for col in zip(*(row for row, j in zip(M, basis) if j >= 0))]
        enter = _price(incidence, Y, D)
        if enter is None:
            break
        if enter >= 0:
            S = cols[enter]
            E = [sum(map(row.__getitem__, S)) for row in M]
        else:
            E = [-row[~enter] for row in M]
        leave = None
        for i in range(n):
            if E[i] > 0 and (leave is None or _lex_smaller(X, M, E, i, leave)):
                leave = i
        if leave is None:
            raise RuntimeError("covering LP unbounded; covering sets malformed")
        El, Ml, Xl = E[leave], M[leave], X[leave]
        for i in range(n):
            Ei = E[i]
            if i == leave or (Ei == 0 and El == D):
                continue
            M[i] = [(p * El - Ei * q) // D for p, q in zip(M[i], Ml)]
            X[i] = (X[i] * El - Ei * Xl) // D
        D = El
        basis[leave] = enter

    # Independent certificate checks on the numerators over D: exactness
    # means these never fire.
    first = [next(j for j, S in enumerate(sets) if v in S) for v in range(n)]
    W = [0] * m
    for j, x in zip(basis, X):
        if j >= 0:
            W[j if j < m else first[j - m]] += x
    if any(w < 0 for w in W):
        raise RuntimeError("simplex produced a negative covering weight")
    cover = [0] * n
    for S, w in zip(cols, W):
        if w:
            for v in S:
                cover[v] += w
    if min(cover) < D:
        raise RuntimeError("simplex certificate fails to cover a point")
    if min(Y) < 0 or sum(Y) != sum(W):
        raise RuntimeError("simplex dual is negative or misses the covering value")
    if any(sum(map(Y.__getitem__, S)) > D for S in cols):
        raise RuntimeError("simplex dual overloads a set; the cover is not proved optimal")
    value = Fraction(sum(W), D)
    weights = [Fraction(w, D) for w in W]
    return value, weights

