import ast
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

from greechie.linprog import _rays, _vertices
from conftest import divided_rays, sparse_rows
from oracles import basic_solutions, dense_gauss_affine

F = Fraction


def _mixed(rng, rows):
    """``rows`` shuffled, each times a random nonzero integer, sign included.
    The coprime rays are unique, so the core must return the same."""
    scales = rng.choices((-3, -2, -1, 1, 2, 5), k=len(rows))
    mixed = [{j: c * v for j, v in r.items()} for r, c in zip(rows, scales)]
    rng.shuffle(mixed)
    return mixed


def _integral(rows, rhs):
    """Each row of ``rows · x = rhs`` with its right-hand side, times the lcm
    of their denominators."""
    scaled = []
    for row, b in zip(rows, rhs):
        den = lcm(*(F(v).denominator for v in [*row, b]))
        scaled.append([int(v * den) for v in [*row, b]])
    return [r[:-1] for r in scaled], [r[-1] for r in scaled]


def divided(rows, rhs, rng=None):
    """``_vertices`` on dense integer rows, its integer points divided by their
    common denominator; with ``rng``, the same on the rows mixed."""
    system, n = sparse_rows(rows, rhs)
    points, den = _vertices(system, n)
    assert type(den) is int and den > 0
    assert all(type(v) is int for p in points for v in p)
    if rng:
        assert _vertices(_mixed(rng, system), n) == (points, den), (rows, rhs)
    return [tuple(F(v, den) for v in p) for p in points]


def test_min_max_over_segment():
    # x + y = 1: the segment between its two vertices, in lexicographic order
    assert divided([[1, 1]], [1]) == [(F(0), F(1)), (F(1), F(0))]


def test_negative_rhs_rows_are_normalized():
    # -x - y = -1 is the same segment
    assert divided([[-1, -1]], [-1]) == [(F(0), F(1)), (F(1), F(0))]


def test_duplicate_rows_are_redundant_not_fatal():
    assert divided([[1, 1], [1, 1]], [1, 1]) == [(F(0), F(1)), (F(1), F(0))]


def test_infeasible_systems():
    assert divided([[1]], [-1]) == []  # x = -1 has no solution x >= 0
    assert divided([[1, 1], [1, 1]], [1, 2]) == []  # inconsistent
    assert divided([[1, 1, 0], [0, 1, 1]], [1, -1]) == []  # consistent, nothing x >= 0


def test_unbounded_polyhedra_keep_their_vertices():
    # x = y >= 0 is a ray from its one vertex; x - y = 1 a ray from (1, 0)
    assert divided([[1, -1]], [0]) == [(F(0), F(0))]
    assert divided([[1, -1]], [1]) == [(F(1), F(0))]


def test_points_and_empty_systems():
    assert divided([], []) == [()]  # the one point of R^0
    assert divided([[2, 0], [0, 3]], [1, 1]) == [(F(1, 2), F(1, 3))]
    assert divided([[1, 1]], [0]) == [(F(0), F(0))]


def test_vertices_match_basic_solution_enumeration(rng):
    # Integer systems with negative and non-unit entries, bounded (the first
    # row fixing the coordinate sum) or not; the vertices are the
    # nonnegative solutions unique on their support, listed once each in
    # lexicographic order, whatever the order and scale of the rows.
    kinds = {"none": 0, "one": 0, "many": 0}
    for _ in range(300):
        n = rng.randrange(1, 7)
        m = rng.randrange(1, 4)
        rows = [[rng.choice((0, 0, 1, 1, 2, -1, 3)) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.5:
            rows[0] = [1] * n
        rhs = [rng.randrange(-1, 4) for _ in rows]
        found = divided(rows, rhs, rng)
        want = basic_solutions([[F(v) for v in row] for row in rows], [F(b) for b in rhs])
        assert found == sorted(want), (rows, rhs)
        kinds["none" if not want else "one" if len(want) == 1 else "many"] += 1
    assert min(kinds.values()) > 30, kinds


def test_vertices_of_rational_systems_match_basic_solution_enumeration(rng):
    # Entries and right-hand sides over the distinct denominators 2, 3, 5
    # and 7 on 7 to 9 columns, each row scaled to integers: the first rays
    # come out of the elimination with mixed entries on their free columns,
    # and the rays combined from them share factors that must be divided out.
    kinds = {"none": 0, "one": 0, "many": 0}
    for _ in range(120):
        n = rng.randrange(7, 10)
        m = rng.randrange(1, 4)
        rows = [
            [F(rng.choice((0, 1, 1, 2, -1, 3)), rng.choice((2, 3, 5, 7))) for _ in range(n)]
            for _ in range(m)
        ]
        if rng.random() < 0.5:
            rows[0] = [F(1, rng.choice((2, 3, 5, 7)))] * n
        rhs = [F(rng.randrange(-1, 4), rng.choice((2, 3, 5, 7))) for _ in rows]
        found = divided(*_integral(rows, rhs), rng)
        want = basic_solutions(rows, rhs)
        assert found == sorted(want), (rows, rhs)
        kinds["none" if not want else "one" if len(want) == 1 else "many"] += 1
    assert min(kinds.values()) > 5, kinds


def test_rays_cases():
    # unique: x + y = 1, x - y = 0
    assert _rays([{0: 1, 1: 1, 2: -1}, {0: 1, 1: -1}], 2) == ([2], [(1, 1, 2)])
    # underdetermined: x + y = 1 has the free column y, with ray (-1, 1)
    assert _rays([{0: 1, 1: 1, 2: -1}], 2) == ([1, 2], [(-1, 1, 0), (1, 0, 1)])
    # inconsistent: x + y = 1, 2x + 2y = 3
    assert _rays([{0: 1, 1: 1, 2: -1}, {0: 2, 1: 2, 2: -3}], 2) is None
    # empty system: the one point of R^0
    assert _rays([], 0) == ([0], [(1,)])


def test_rays_agree_with_the_dense_oracle(rng):
    # Integer systems with negative and non-unit entries, some with a row
    # that is a combination of others (rank-deficient), some with one
    # right-hand side shifted (usually inconsistent), a few with rational
    # entries, and empty ones, each row scaled to integers; the solution
    # with given values on the free columns is unique, so the two
    # eliminations return the same x0 and nullspace basis exactly, and the
    # rays do not depend on the order and scale of the rows.
    kinds = {"none": 0, "unique": 0, "hull": 0}
    for trial in range(400):
        n = rng.randrange(0, 7)
        m = rng.randrange(0, 7) if n else 0
        rows = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 6)) for _ in range(n)] for _ in range(m)]
        if m >= 2 and rng.random() < 0.3:
            rows.append([2 * a - b for a, b in zip(rows[0], rows[-1])])
        x = [F(rng.randrange(-3, 4), rng.randrange(1, 3)) for _ in range(n)]
        rhs = [sum((a * v for a, v in zip(row, x)), F(0)) for row in rows]
        if rows and rng.random() < 0.4:
            rhs[rng.randrange(len(rows))] += rng.choice((-2, 1, 3))
        if trial % 10 == 0:
            rows = [[F(v, rng.randrange(1, 4)) for v in row] for row in rows]
        want = dense_gauss_affine(rows, rhs)
        system, n = sparse_rows(*_integral(rows, rhs))
        assert divided_rays(system, n) == want, (rows, rhs)
        assert _rays(_mixed(rng, system), n) == _rays(system, n), (rows, rhs)
        kinds["none" if want is None else "hull" if want[1] else "unique"] += 1
    assert min(kinds.values()) > 50, kinds
    assert divided_rays([], 0) == dense_gauss_affine([], []) == ([], [])


def test_back_substitution_agrees_with_the_dense_oracle_on_wide_systems(rng):
    # 8 to 14 columns and rank-deficient by construction: a few random rows
    # and integer combinations of them, so each system has several free
    # columns; the right-hand side comes from a point with halves and
    # thirds.  A particular solution with a denominator above 1, or a
    # nullspace vector with one, is reached only by rescaling its ray.  Each
    # ray is coprime, positive on its own free column, 0 on the other free
    # columns, and independent of the order and scale of the rows.
    particular = nullspace = 0  # trials with a rescaled ray of each kind
    for _ in range(150):
        n = rng.randrange(8, 15)
        base = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 6)) for _ in range(n)]
                for _ in range(rng.randrange(2, n - 2))]
        combined = [[sum(c * v for c, v in zip(cs, col)) for col in zip(*base)]
                    for cs in ([rng.choice((-1, 0, 1, 2)) for _ in base] for _ in range(3))]
        rows = [r for r in base + combined if any(r)]
        x = [F(rng.randrange(-3, 4), rng.choice((1, 2, 3))) for _ in range(n)]
        rhs = [sum((a * v for a, v in zip(row, x)), F(0)) for row in rows]
        want = dense_gauss_affine(rows, rhs)
        system, n = sparse_rows(*_integral(rows, rhs))
        assert divided_rays(system, n) == want, (rows, rhs)
        free, rays = _rays(system, n)
        assert _rays(_mixed(rng, system), n) == (free, rays), (rows, rhs)
        for k, r in zip(free, rays):
            assert gcd(*r) == 1 and r[k] > 0 and all(r[j] == 0 for j in free if j != k)
        assert len(free) >= 4
        particular += rays[-1][n] > 1
        nullspace += any(r[k] > 1 for k, r in zip(free[:-1], rays))
    assert particular > 50 and nullspace > 50, (particular, nullspace)


def test_analysis_modules_hold_no_float():
    # no true division, float literal or float name where exact results are
    # computed: every division in them is an exact // on integers, and a
    # rational is built as Fraction(p, q)
    src = Path(__file__).resolve().parent.parent / "src" / "greechie"
    for module in ("linprog.py", "states.py", "lattice.py"):
        for node in ast.walk(ast.parse((src / module).read_text())):
            where = f"{module}:{getattr(node, 'lineno', '?')}"
            assert not (isinstance(node, (ast.BinOp, ast.AugAssign))
                        and isinstance(node.op, ast.Div)), where
            assert not (isinstance(node, ast.Constant) and isinstance(node.value, float)), where
            assert not (isinstance(node, ast.Name) and node.id == "float"), where
