"""Exact rational linear algebra and linear programming.

Nothing here is ever rounded.  :func:`gauss_affine`, the one elimination
routine, solves a linear system over the integers on sparse rows and
divides by its pivots only at the end; the simplex works over
``fractions.Fraction``, using Dantzig pricing for speed but switching to
Bland's rule after a fixed pivot budget, so termination is guaranteed.
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


class SimplexError(Exception):
    pass


class EqualityLP:
    """Exact simplex over {x : A x = b, x >= 0}.

    Phase 1 runs once at construction; afterwards ``optimize`` re-prices
    and re-solves for any objective from the current feasible basis, which
    makes per-coordinate range scans cheap.
    """

    #: pivots before pricing falls back from Dantzig to Bland's rule
    BLAND_AFTER = 2000

    def __init__(self, rows: list[list[Fraction]], rhs: list[Fraction]):
        self.n = len(rows[0]) if rows else 0
        work_rows = []
        work_rhs = []
        for row, b in zip(rows, rhs):
            if b < 0:
                work_rows.append([-v for v in row])
                work_rhs.append(-b)
            else:
                work_rows.append(list(row))
                work_rhs.append(b)
        m = len(work_rows)
        total = self.n + m  # originals then artificials
        self.tab = [
            [Fraction(v) for v in work_rows[i]]
            + [ONE if j == i else ZERO for j in range(m)]
            + [Fraction(work_rhs[i])]
            for i in range(m)
        ]
        self.basis = [self.n + i for i in range(m)]
        self.total = total
        self.feasible = self._phase1()

    # -- internals -----------------------------------------------------------

    def _phase1(self) -> bool:
        cost = [ZERO] * self.total
        for j in range(self.n, self.total):
            cost[j] = ONE
        value, _ = self._run(cost, allowed=range(self.total))
        if value != 0:
            return False
        self._evict_artificials()
        return True

    def _evict_artificials(self) -> None:
        keep = []
        for i in range(len(self.tab)):
            if self.basis[i] >= self.n:
                col = next((j for j in range(self.n) if self.tab[i][j] != 0), None)
                if col is None:
                    continue  # redundant constraint
                self._pivot(i, col)
            keep.append(i)
        if len(keep) != len(self.tab):
            self.tab = [self.tab[i] for i in keep]
            self.basis = [self.basis[i] for i in keep]

    def _pivot(self, row: int, col: int) -> None:
        tab = self.tab
        prow = tab[row]
        pv = prow[col]
        if pv != 1:
            tab[row] = prow = [v / pv for v in prow]
        for i in range(len(tab)):
            if i != row:
                f = tab[i][col]
                if f != 0:
                    r = tab[i]
                    tab[i] = [a - f * b for a, b in zip(r, prow)]
        self.basis[row] = col

    def _run(self, cost: list[Fraction], allowed) -> tuple[Fraction, list[Fraction]]:
        """Minimize cost entering only ``allowed`` columns; (optimum, reduced costs)."""
        tab = self.tab
        m = len(tab)
        width = self.total + 1
        # reduced costs: r_j = c_j - c_B . T_j
        red = list(cost) + [ZERO]
        for i in range(m):
            cb = cost[self.basis[i]]
            if cb != 0:
                row = tab[i]
                red = [a - cb * b for a, b in zip(red, row)]
        allowed = list(allowed)
        pivots = 0
        while True:
            entering = None
            if pivots < self.BLAND_AFTER:
                best = ZERO
                for j in allowed:
                    if red[j] < best:
                        best = red[j]
                        entering = j
            else:
                for j in allowed:
                    if red[j] < 0:
                        entering = j
                        break
            if entering is None:
                break
            # ratio test, Bland tie-break on basis variable
            row_pick = None
            best_ratio = None
            for i in range(m):
                coef = tab[i][entering]
                if coef > 0:
                    ratio = tab[i][-1] / coef
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and self.basis[i] < self.basis[row_pick])
                    ):
                        best_ratio = ratio
                        row_pick = i
            if row_pick is None:
                raise SimplexError("objective unbounded below on the feasible set")
            self._pivot(row_pick, entering)
            f = red[entering]
            if f != 0:
                prow = tab[row_pick]
                red = [a - f * b for a, b in zip(red, prow)]
            pivots += 1
        value = ZERO
        for i in range(m):
            cb = cost[self.basis[i]]
            if cb != 0:
                value += cb * tab[i][-1]
        return value, red

    # -- public --------------------------------------------------------------

    def optimize(
        self, cost: list[Fraction], minimize: bool = True, face_of: list[Fraction] | None = None
    ) -> tuple[Fraction, list[Fraction]]:
        """Optimal value and an optimal point for the given objective.

        With ``face_of``, only over the face of points maximizing ``face_of``:
        at that optimum, the face is where every column of nonzero reduced
        cost is 0 (complementary slackness), so the same tableau goes on
        with only the zero-reduced-cost columns allowed to enter.
        """
        if not self.feasible:
            raise SimplexError("LP is infeasible")
        pad = [ZERO] * (self.total - self.n)
        allowed = range(self.n)
        if face_of is not None:
            _, red = self._run([-v for v in face_of] + pad, allowed)
            allowed = [j for j in allowed if red[j] == 0]
        c = list(cost) if minimize else [-v for v in cost]
        value, _ = self._run(c + pad, allowed)
        return (value if minimize else -value), self.solution()

    def solution(self) -> list[Fraction]:
        x = [ZERO] * self.n
        for i, bv in enumerate(self.basis):
            if bv < self.n:
                x[bv] = self.tab[i][-1]
        return x
