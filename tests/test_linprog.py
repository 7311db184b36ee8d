from fractions import Fraction

import pytest

from greechie.linprog import EqualityLP, SimplexError, gauss_affine
from oracles import basic_solutions, dense_gauss_affine

F = Fraction


def test_min_max_over_segment():
    lp = EqualityLP([[F(1), F(1)]], [F(1)])
    assert lp.feasible
    lo, x = lp.optimize([F(1), F(0)])
    assert lo == 0 and x == [F(0), F(1)]
    hi, x = lp.optimize([F(1), F(0)], minimize=False)
    assert hi == 1 and x == [F(1), F(0)]


def test_negative_rhs_rows_are_normalized():
    # -x - y = -1 is the same segment
    lp = EqualityLP([[F(-1), F(-1)]], [F(-1)])
    assert lp.feasible
    assert lp.optimize([F(1), F(0)])[0] == 0


def test_duplicate_rows_are_redundant_not_fatal():
    lp = EqualityLP([[F(1), F(1)], [F(1), F(1)]], [F(1), F(1)])
    assert lp.feasible
    assert lp.optimize([F(0), F(1)], minimize=False)[0] == 1


def test_infeasible_systems():
    assert not EqualityLP([[F(1)]], [F(-1)]).feasible
    assert not EqualityLP([[F(1), F(1)], [F(1), F(1)]], [F(1), F(2)]).feasible
    with pytest.raises(SimplexError):
        EqualityLP([[F(1)]], [F(-1)]).optimize([F(1)])


def test_unbounded_objective_raises():
    lp = EqualityLP([[F(1), F(-1)]], [F(0)])  # the ray x = y >= 0
    with pytest.raises(SimplexError):
        lp.optimize([F(-1), F(0)])  # maximize x: unbounded


def test_warm_reoptimization_matches_fresh_solves(rng):
    for _ in range(30):
        n = rng.randrange(2, 6)
        m = rng.randrange(1, 4)
        rows = [[F(rng.randrange(0, 3)) for _ in range(n)] for _ in range(m)]
        rhs = [F(rng.randrange(0, 4)) for _ in range(m)]
        warm = EqualityLP(rows, rhs)
        objectives = [[F(rng.randrange(-2, 3)) for _ in range(n)] for _ in range(4)]
        for cost in objectives:
            fresh = EqualityLP(rows, rhs)
            assert warm.feasible == fresh.feasible
            if not warm.feasible:
                break
            try:
                a = warm.optimize(cost)[0]
            except SimplexError:
                with pytest.raises(SimplexError):
                    fresh.optimize(cost)
                continue
            assert a == fresh.optimize(cost)[0]


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), F(0))


def test_face_restricted_optimize_matches_vertex_enumeration(rng):
    # Bounded polytopes (the first row fixes the coordinate sum); each LP
    # answers several face queries in a row from its warm tableau.
    checked = 0
    for _ in range(60):
        n = rng.randrange(2, 7)
        rows = [[F(1)] * n] + [
            [F(rng.randrange(0, 3)) for _ in range(n)] for _ in range(rng.randrange(0, 3))
        ]
        rhs = [F(rng.randrange(1, 4))] + [F(rng.randrange(0, 5)) for _ in rows[1:]]
        lp = EqualityLP(rows, rhs)
        vertices = basic_solutions(rows, rhs)
        assert lp.feasible == bool(vertices)
        if not vertices:
            continue
        for _ in range(4):
            primary = [F(rng.randrange(-1, 2)) for _ in range(n)]
            cost = [F(rng.randrange(-2, 3)) for _ in range(n)]
            minimize = rng.random() < 0.5
            best = max(_dot(primary, v) for v in vertices)
            face = [v for v in vertices if _dot(primary, v) == best]
            pick = min if minimize else max
            expected = pick(_dot(cost, v) for v in face)
            value, point = lp.optimize(cost, minimize=minimize, face_of=primary)
            assert value == expected
            assert _dot(cost, point) == value and _dot(primary, point) == best
            assert all(v >= 0 for v in point)
            assert all(_dot(row, point) == b for row, b in zip(rows, rhs))
            checked += 1
    assert checked > 100


def test_gauss_affine_cases():
    # unique
    x0, null = gauss_affine([[F(1), F(1)], [F(1), F(-1)]], [F(1), F(0)])
    assert x0 == [F(1, 2), F(1, 2)] and null == []
    # underdetermined
    x0, null = gauss_affine([[F(1), F(1)]], [F(1)])
    assert len(null) == 1
    v = null[0]
    assert v[0] + v[1] == 0
    # inconsistent
    assert gauss_affine([[F(1), F(1)], [F(2), F(2)]], [F(1), F(3)]) is None
    # empty system
    x0, null = gauss_affine([], [])
    assert x0 == [] and null == []


def test_gauss_affine_agrees_with_the_dense_oracle(rng):
    # Integer systems with negative and non-unit entries, some with a row
    # that is a combination of others (rank-deficient), some with one
    # right-hand side shifted (usually inconsistent), a few with rational
    # entries, and empty ones; the reduced echelon form is unique, so the
    # two eliminations return the same x0 and nullspace basis exactly.
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
        assert gauss_affine(rows, rhs) == want, (rows, rhs)
        kinds["none" if want is None else "hull" if want[1] else "unique"] += 1
    assert min(kinds.values()) > 50, kinds
    assert gauss_affine([], []) == dense_gauss_affine([], []) == ([], [])
