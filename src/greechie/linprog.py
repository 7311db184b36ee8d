"""Exact rational linear algebra and linear programming.

Everything here works over ``fractions.Fraction``; nothing is ever
rounded.  The simplex uses Dantzig pricing for speed but switches to
Bland's rule after a fixed pivot budget, so termination is guaranteed.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def gauss_affine(
    rows: list[list[Fraction]], rhs: list[Fraction]
) -> tuple[list[Fraction], list[list[Fraction]]] | None:
    """Solve ``rows · x = rhs`` over the rationals.

    Returns (particular solution, nullspace basis) with free variables set
    to zero, or ``None`` if the system is inconsistent.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [list(row) + [rhs[i]] for i, row in enumerate(rows)]
    pivots: list[tuple[int, int]] = []  # (row, col)
    r = 0
    for col in range(n):
        pivot_row = next((i for i in range(r, m) if aug[i][col] != 0), None)
        if pivot_row is None:
            continue
        aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
        pv = aug[r][col]
        if pv != 1:
            aug[r] = [v / pv for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append((r, col))
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    pivot_cols = {c for _, c in pivots}
    free_cols = [c for c in range(n) if c not in pivot_cols]
    x0 = [ZERO] * n
    for row, col in pivots:
        x0[col] = aug[row][n]
    basis = []
    for fc in free_cols:
        v = [ZERO] * n
        v[fc] = ONE
        for row, col in pivots:
            v[col] = -aug[row][fc]
        basis.append(v)
    return x0, basis


def rank_mod_p(rows: list[list[int]], n_cols: int, p: int = 2_147_483_629) -> list[int]:
    """Pivot columns of the integer matrix ``rows``, eliminated over GF(p)
    column by column.

    Their number is the rank mod p, and those before column k number the
    rank mod p of the first k columns.  Each is a lower bound for (and
    usually equal to) the rank over Q: a minor that vanishes over Q
    vanishes mod p.
    """
    mat = [[v % p for v in row] for row in rows]
    pivots: list[int] = []
    for col in range(n_cols):
        rank = len(pivots)
        if rank == len(mat):
            break
        pivot_row = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        mat[rank] = [v * inv % p for v in mat[rank]]
        prow = mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], prow)]
        pivots.append(col)
    return pivots


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
