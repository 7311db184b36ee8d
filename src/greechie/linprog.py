"""Exact linear algebra over polyhedra, in integers; nothing is rounded.

The rows are sparse integer rows, as the state analysis reads them off a
diagram's incidence.  :func:`_reduce`, the one elimination core, brings them
to echelon form; :func:`_rays` finds their solutions as coprime integer rays
by back substitution; and :func:`_vertices` lists the vertices of
{x >= 0 : A x = b} from those rays by double description.
"""

from __future__ import annotations

from math import gcd, lcm


def _reduce(rows: list[dict[int, int]], n: int):
    """The echelon rows of the sparse system ``rows`` on ``n`` columns, as
    (pivot column, row) in column order, or ``None`` if inconsistent.

    Each row is a ``{column: value}`` dict of nonzero integers with -rhs in
    column n, so that it reads row · (x, s) = 0.  The elimination is
    fraction-free.  Pivot columns are taken in order; the pivot row, found in
    the scan for the column's holders, is the first remaining row with the
    fewest nonzeros, which keeps fill-in low, and each combined row is divided
    by its content, the gcd of its entries, which keeps the integers small.
    Each row is 0 on the columns before its pivot; nothing is cleared above a
    pivot, since :func:`_rays` reads the rows by back substitution.
    """
    active = rows
    pivots: list[tuple[int, dict[int, int]]] = []
    for col in range(n):
        prow = None
        for r in active:
            if col in r and (prow is None or len(r) < len(prow)):
                prow = r
        if prow is None:
            continue
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
    return pivots


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


def _rays(rows: list[dict[int, int]], n: int):
    """The solutions (x, s) of the sparse system ``rows`` (see :func:`_reduce`)
    as (free columns, rays), or ``None`` if it is inconsistent.

    The free columns are those without a pivot, in order, then n, that of s.
    Ray k is the coprime integer solution positive on free column k and 0 on
    the others: those of x's columns span the nullspace, and the last ray is
    the particular solution, with s > 0.  The values on the free columns fix
    a solution, so this ray is unique, whatever the order and scale of the
    rows.  It is found by back substitution through the echelon rows, last
    pivot first, in integers over one scale: where a pivot does not divide
    its row's sum, every entry so far is multiplied by what it lacks, a
    positive factor, and the ray is divided by its content at the end.
    """
    pivots = _reduce(rows, n)
    if pivots is None:
        return None
    pivot_cols = {col for col, _ in pivots}
    free = [k for k in range(n + 1) if k not in pivot_cols]
    rays = []
    for k in free:
        ray = [0] * (n + 1)
        ray[k] = 1
        for col, r in reversed(pivots):  # r[col] x_col + (the rest of r) · ray = 0
            t = 0
            for j, v in r.items():  # faster than sum() over a generator on short rows
                t += v * ray[j]
            if t:
                p = r[col]
                if t % p:
                    m = abs(p) // gcd(t, p)
                    ray = [m * v for v in ray]
                    t *= m
                ray[col] = -t // p
        g = gcd(*ray)
        rays.append(tuple(v // g for v in ray))
    return free, rays


def _vertices(rows: list[dict[int, int]], n: int) -> tuple[list[tuple[int, ...]], int]:
    """The vertices p / den of {x >= 0 : A x = b}, given as the sparse system
    ``rows`` of :func:`_reduce`, as (points, den): integer points p, in
    lexicographic order, over one common denominator; ([], 1) if none.

    By the double-description method (Motzkin, Raiffa, Thompson & Thrall
    1953; Fukuda & Prodon 1996), in integers.  The solutions are x = x0 + N t
    with t the values on the free columns.  Homogenized by s >= 0, the points
    (x, s) with x = s x0 + N t form a cone, which starts as the one where
    only t >= 0 and s >= 0 are imposed; its extreme rays are those of
    :func:`_rays`.  Each pivot column p then adds x_p >= 0: one pass splits
    the rays by the sign of x_p, those with x_p < 0 go, and each with
    x_p > 0 that is adjacent to one of them makes a new ray with x_p = 0.
    Two rays are adjacent when no third ray is zero on every coordinate
    imposed so far on which both are zero, tested on zero-set bitmasks.  The
    rays with s > 0 are the vertices; any with s = 0 are directions in which
    the polyhedron is unbounded, and are left out.
    """
    solved = _rays(rows, n)
    if solved is None:
        return [], 1
    free, rays = solved
    # s >= 0 and t >= 0; each first ray is zero on every free column but its own
    imposed = sum(1 << k for k in free)
    zeros = [imposed ^ 1 << k for k in free]
    for col in [c for c in range(n) if not imposed >> c & 1]:  # the pivot columns
        tight = 1 << col
        new_rays, new_zeros, positive, negative = [], [], [], []
        for q, r in enumerate(rays):
            if r[col] < 0:
                negative.append(q)
            else:
                new_rays.append(r)
                new_zeros.append(zeros[q] if r[col] else zeros[q] | tight)
                if r[col]:
                    positive.append(q)
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
                    # adjacent rays are both zero on len(free) - 2 independent coordinates
                    common = zeros[p] & zeros[q]
                    if common.bit_count() < len(free) - 2:
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

    # the rays with s > 0 are the vertices
    kept = [r for r in rays if r[n]]
    den = lcm(*(r[n] for r in kept))
    return sorted(tuple(v * (den // r[n]) for v in r[:n]) for r in kept), den
