from fractions import Fraction

import pytest

from greechie.linprog import EqualityLP, SimplexError, gauss_affine, rank_mod_p
from oracles import basic_solutions

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


def test_rank_mod_p():
    assert rank_mod_p([[1, 1], [1, -1]], 2) == 2
    assert rank_mod_p([[1, 1], [2, 2]], 2) == 1
    assert rank_mod_p([[0, 0]], 2) == 0
