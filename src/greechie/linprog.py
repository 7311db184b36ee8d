"""Exact linear algebra over polyhedra, in integers; nothing is rounded.

:func:`_reduce`, the one elimination core, reduces sparse integer rows, as
the state analysis reads them off a diagram's incidence, and :func:`_rays`
reads its solutions off as coprime integer rays.  :func:`vertices` lists the
vertices of {x >= 0 : A x = b} from them by double description, with bitmask
zero sets; :func:`gauss_affine` divides them out into ``Fraction``s.  Both
take dense rational rows and convert them once, by :func:`_sparse`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def gauss_affine(
    rows: list[list[int | Fraction]], rhs: list[int | Fraction]
) -> tuple[list[Fraction], list[list[Fraction]]] | None:
    """Solve ``rows · x = rhs`` over the rationals.

    Returns (particular solution, nullspace basis) with free variables set
    to zero and each basis vector 1 in its own free column, or ``None`` if
    the system is inconsistent.  Both are read off the reduced row echelon
    form, which is unique, so any elimination order gives the same answer:
    each is a ray of :func:`_rays` divided by its entry in its own column.
    """
    solved = _rays(*_sparse(rows, rhs))
    if solved is None:
        return None
    free, rays = solved  # free[-1] is n, the column of s
    *basis, x0 = ([Fraction(v, r[k]) for v in r[: free[-1]]] for k, r in zip(free, rays))
    return x0, basis


def _reduce(rows: list[dict[int, int]], n: int):
    """The reduced echelon rows of the sparse system ``rows`` on ``n`` columns,
    as (pivot column, row) in column order, or ``None`` if inconsistent.

    Each row is a ``{column: value}`` dict of nonzero integers with -rhs in
    column n, so that it reads row · (x, s) = 0.  The elimination is
    fraction-free.  Pivot columns are taken in order; the pivot row, found in
    the scan for the column's holders, is the first remaining row with the
    fewest nonzeros, which keeps fill-in low, and each combined row is divided
    by its content, the gcd of its entries, which keeps the integers small.  A
    backward pass clears each pivot column above its pivot.
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
    for k in range(len(pivots) - 1, 0, -1):
        col, prow = pivots[k]
        for i, (c, r) in zip(range(k), pivots):
            if col in r:
                pivots[i] = (c, _cancel(r, prow, col))
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


def _sparse(rows: list[list[int | Fraction]], rhs: list[int | Fraction]):
    """``rows · x = rhs``, dense and rational, as the sparse integer rows of
    :func:`_reduce`, each scaled by the lcm of its denominators, and n."""
    n = len(rows[0]) if rows else 0
    sparse = []
    for row, b in zip(rows, rhs):
        r = {j: v for j, v in enumerate(row) if v}
        if b:
            r[n] = -b
        if r:
            den = lcm(*(v.denominator for v in r.values()))
            sparse.append({j: int(v * den) for j, v in r.items()})
    return sparse, n


def _rays(rows: list[dict[int, int]], n: int):
    """The solutions (x, s) of the sparse system ``rows`` (see :func:`_reduce`)
    as (free columns, rays), or ``None`` if it is inconsistent.

    The free columns are those without a pivot, in order, then n, that of s.
    Ray k is the coprime integer solution positive on free column k and 0 on
    the others: those of x's columns span the nullspace, and the last ray is
    the particular solution, with s > 0.
    """
    pivots = _reduce(rows, n)
    if pivots is None:
        return None
    pivot_cols = {col for col, _ in pivots}
    free = [k for k in range(n + 1) if k not in pivot_cols]
    rays = []
    for k in free:
        held = [(col, r) for col, r in pivots if k in r]
        ray = [0] * (n + 1)
        ray[k] = lcm(*(abs(r[col]) for col, r in held))
        for col, r in held:  # r[col] x_col + r[k] x_k = 0
            ray[col] = -r[k] * ray[k] // r[col]
        g = gcd(*ray)
        rays.append(tuple(v // g for v in ray))
    return free, rays


def vertices(
    rows: list[list[int | Fraction]], rhs: list[int | Fraction]
) -> tuple[list[tuple[int, ...]], int, list[int]]:
    """The vertices p / den of {x >= 0 : rows · x = rhs} as (points, den,
    zero masks): integer points p, in lexicographic order, over one common
    denominator, each with the mask of its j with x_j = 0; ([], 1, []) if none.

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
    return _vertices(*_sparse(rows, rhs))


def _vertices(rows: list[dict[int, int]], n: int):
    """:func:`vertices` of the sparse system ``rows`` of :func:`_reduce`."""
    solved = _rays(rows, n)
    if solved is None:
        return [], 1, []
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

    # s > 0; each mask is exact on every imposed coordinate, s among them
    kept = [(r, z) for r, z in zip(rays, zeros) if r[n]]
    den = lcm(*(r[n] for r, _ in kept))
    points = sorted((tuple(v * (den // r[n]) for v in r[:n]), z) for r, z in kept)
    return [p for p, _ in points], den, [z for _, z in points]
