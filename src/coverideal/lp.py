"""Exact rational simplex for set-covering linear programs."""

from __future__ import annotations

from fractions import Fraction

__all__ = ["solve_cover_lp"]

# The tableau is dense: one row of n + len(sets) + 1 Fractions per set, so
# Kneser K(8, 3), with 23,936 sets, ran out of memory.  Beyond this many
# sets the solve is refused.  The tests and benchmark solve at most 144
# (Mycielski M(C11)); 400 of M(C14)'s sets take 1.7 s and 37 MB peak RSS
# on a 2-vCPU Xeon with Python 3.11, but all 509 take 220 s.
_SET_LIMIT = 400


def solve_cover_lp(n: int, sets) -> tuple[Fraction, list[Fraction]]:
    """Exact optimum of ``min sum(w)`` with every point covered by weight >= 1.

    Points are 0..n-1 and each entry of ``sets`` is a subset that its weight
    covers.  Internally solves the packing dual ``max sum(y)`` subject to
    ``sum(y_v for v in S) <= 1`` with a Bland-rule simplex over exact
    fractions, then reads the covering weights off the optimal tableau.

    Returns (optimum, weights aligned with ``sets``).  More than
    ``_SET_LIMIT`` sets raise ``ValueError``.
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

    zero, one = Fraction(0), Fraction(1)
    width = n + m + 1  # y variables, slacks, rhs
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
    # Independent certificate check: exactness means these never fire.
    if sum(weights) != value or any(w < 0 for w in weights):
        raise RuntimeError("simplex produced an inconsistent covering certificate")
    for v in range(n):
        if sum(w for w, s in zip(weights, sets) if v in s) < 1:
            raise RuntimeError("simplex certificate fails to cover a point")
    return value, weights
