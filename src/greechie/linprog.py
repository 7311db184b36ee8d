"""Exact rational linear algebra over polyhedra.

Nothing here is ever rounded.  :func:`gauss_affine`, the one elimination
routine, solves a linear system over the integers on sparse rows and
divides by its pivots only at the end; :func:`vertices` lists the vertices
of {x >= 0 : A x = b} from that solution by double description, with
integer rays and bitmask zero sets.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

ZERO = Fraction(0)
ONE = Fraction(1)


def gauss_affine(
    rows: list[list[int | Fraction]], rhs: list[int | Fraction]
) -> tuple[list[Fraction], list[list[Fraction]]] | None:
    """Solve ``rows · x = rhs`` over the rationals.

    Returns (particular solution, nullspace basis) with free variables set
    to zero and each basis vector 1 in its own free column, or ``None`` if
    the system is inconsistent.  Both are read off the reduced row echelon
    form, which is unique, so any elimination order gives the same answer.

    The elimination is sparse and fraction-free.  Each row, scaled to
    integers, is a ``{column: value}`` dict with the right-hand side in
    column n.  Pivot columns are taken in order; the pivot row is the
    remaining row with the fewest nonzeros (the first on ties), which keeps
    fill-in low, and each combined row is divided by its content, the gcd
    of its entries, which keeps the integers small.  A backward pass clears
    each pivot column above its pivot, and only then are the pivots divided
    out.
    """
    n = len(rows[0]) if rows else 0
    active: list[dict[int, int]] = []
    for row, b in zip(rows, rhs):
        r = {j: v for j, v in enumerate(row) if v}
        if b:
            r[n] = b
        if r:
            den = lcm(*(v.denominator for v in r.values()))
            active.append({j: int(v * den) for j, v in r.items()})
    pivots: list[tuple[int, dict[int, int]]] = []
    for col in range(n):
        holders = [r for r in active if col in r]
        if not holders:
            continue
        prow = min(holders, key=len)
        pivots.append((col, prow))
        rest = []
        for r in active:
            if r is not prow:
                r = _cancel(r, prow, col) if col in r else r
                if r:
                    rest.append(r)
        active = rest
    if active:  # what is left is zero but in column n: 0 = b with b nonzero
        return None
    for k in range(len(pivots) - 1, 0, -1):
        col, prow = pivots[k]
        for i, (c, r) in enumerate(pivots[:k]):
            if col in r:
                pivots[i] = (c, _cancel(r, prow, col))
    x0 = [ZERO] * n
    for col, r in pivots:
        x0[col] = Fraction(r.get(n, 0), r[col])
    pivot_cols = {col for col, _ in pivots}
    basis = []
    for free in range(n):
        if free not in pivot_cols:
            v = [ZERO] * n
            v[free] = ONE
            for col, r in pivots:
                if free in r:
                    v[col] = Fraction(-r[free], r[col])
            basis.append(v)
    return x0, basis


def _cancel(row: dict[int, int], prow: dict[int, int], col: int) -> dict[int, int]:
    """``row`` with column ``col`` eliminated by ``prow``, divided by its content."""
    g = gcd(prow[col], row[col])
    s, t = prow[col] // g, row[col] // g
    out = {j: s * v for j, v in row.items()} if s != 1 else dict(row)
    for j, v in prow.items():
        w = out.get(j, 0) - t * v
        if w:
            out[j] = w
        else:
            del out[j]
    g = gcd(*out.values())
    return {j: v // g for j, v in out.items()} if g > 1 else out


def vertices(
    rows: list[list[int | Fraction]], rhs: list[int | Fraction]
) -> tuple[list[tuple[Fraction, ...]], list[int]]:
    """The vertices of {x >= 0 : rows · x = rhs} in lexicographic order, and
    beside them their zero sets, the masks of the j with x_j = 0.

    By the double-description method (Motzkin, Raiffa, Thompson & Thrall
    1953; Fukuda & Prodon 1996).  :func:`gauss_affine` writes the solutions
    as x = x0 + N t with t the values on the free columns.  Homogenized by
    s >= 0, the points (x, s) with x = s x0 + N t form a cone, which starts
    as the one where only t >= 0 and s >= 0 are imposed; its extreme rays
    are (N_i, 0) and (x0, 1), kept in integers.  Each pivot column p then
    adds the inequality x_p >= 0: the rays with x_p < 0 go, and each ray
    with x_p > 0 that is adjacent to one of them makes a new ray with
    x_p = 0.  Two rays are adjacent when no third ray is zero on every
    coordinate imposed so far on which both are zero, tested on zero-set
    bitmasks.  The rays with s > 0 are the vertices; any with s = 0 are
    directions in which the polyhedron is unbounded, and are left out.
    """
    affine = gauss_affine(rows, rhs)
    if affine is None:
        return [], []
    x0, basis = affine
    n = len(x0)
    rays = [_integral(v + [ZERO]) for v in basis] + [_integral(x0 + [ONE])]
    # s >= 0 and t >= 0; in reduced echelon form the last nonzero of a
    # basis vector is its free column
    imposed = 1 << n | sum(1 << max(j for j, v in enumerate(b) if v) for b in basis)
    zeros = [sum(1 << j for j, v in enumerate(r) if imposed >> j & 1 and not v) for r in rays]
    for col in [c for c in range(n) if not imposed >> c & 1]:  # the pivot columns
        tight = 1 << col
        kept = [q for q, r in enumerate(rays) if r[col] >= 0]
        positive = [q for q in kept if rays[q][col]]
        negative = [q for q, r in enumerate(rays) if r[col] < 0]
        new_rays = [rays[q] for q in kept]
        new_zeros = [zeros[q] | tight if not rays[q][col] else zeros[q] for q in kept]
        if negative:
            # per imposed coordinate, the mask of the rays zero on it
            holders = [0] * (n + 1)
            for q, z in enumerate(zeros):
                while z:
                    low = z & -z
                    holders[low.bit_length() - 1] |= 1 << q
                    z ^= low
            everyone = (1 << len(rays)) - 1
            for p in positive:
                vp = rays[p][col]
                for q in negative:
                    # adjacent rays are both zero on len(basis) - 1 independent coordinates
                    common = zeros[p] & zeros[q]
                    if common.bit_count() < len(basis) - 1:
                        continue
                    pair = 1 << p | 1 << q
                    shared = everyone
                    rest = common
                    while rest and shared != pair:
                        low = rest & -rest
                        rest ^= low
                        shared &= holders[low.bit_length() - 1]
                    if shared == pair:
                        vq = rays[q][col]
                        ray = [vp * b - vq * a for a, b in zip(rays[p], rays[q])]
                        g = gcd(*ray)
                        new_rays.append(tuple(v // g for v in ray))
                        new_zeros.append(common | tight)
        rays, zeros = new_rays, new_zeros

    # s > 0; each mask is exact on every imposed coordinate, s among them
    points = [(r, z) for r, z in zip(rays, zeros) if r[n]]
    den = lcm(*(r[n] for r, _ in points))  # sorted over one denominator, in integers
    points.sort(key=lambda p: [v * (den // p[0][n]) for v in p[0][:n]])
    value = {pair: Fraction(*pair) for pair in {(v, r[n]) for r, _ in points for v in r[:n]}}
    return [tuple(value[v, r[n]] for v in r[:n]) for r, _ in points], [z for _, z in points]


def _integral(vector: list[Fraction]) -> tuple[int, ...]:
    """``vector`` times the lcm of its denominators: coprime, as one entry is 1."""
    den = lcm(*(v.denominator for v in vector))
    return tuple(v.numerator * (den // v.denominator) for v in vector)
