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
    assert rank_mod_p([[1, 1], [1, -1]], 2) == [0, 1]
    assert rank_mod_p([[1, 1], [2, 2]], 2) == [0]
    assert rank_mod_p([[0, 0]], 2) == []


def test_full_rank_mod_p_certificate_agrees_with_gauss_affine(rng):
    # [A | b] eliminated mod p: once A has n pivots its rank over Q is n,
    # so a pivot in b proves the system inconsistent and no pivot leaves at
    # most one solution; below n pivots (a small p can drop the rank)
    # nothing follows.  Sound for every prime.
    fired = 0
    for _ in range(300):
        n = rng.randrange(1, 5)
        m = rng.randrange(n, n + 3)
        rows = [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(m)]
        x = [rng.randrange(-2, 3) for _ in range(n)]
        rhs = [sum(a * v for a, v in zip(row, x)) for row in rows]
        if rng.random() < 0.5:
            rhs[rng.randrange(m)] += rng.choice((-1, 1))  # usually inconsistent now
        solved = gauss_affine([[F(v) for v in row] for row in rows], [F(b) for b in rhs])
        for p in (2, 3, 5, 2_147_483_629):
            pivots = rank_mod_p([row + [b] for row, b in zip(rows, rhs)], n + 1, p)
            if pivots[:n] != list(range(n)):
                continue
            if n in pivots:
                assert solved is None
                if p > 5:
                    fired += 1
            else:
                assert solved is None or solved[1] == []
        if solved is None and rank_mod_p(rows, n)[:n] == list(range(n)):
            # full rank over Q and inconsistent: the large prime certifies it
            assert rank_mod_p([row + [b] for row, b in zip(rows, rhs)], n + 1)[-1] == n
    assert fired > 20
