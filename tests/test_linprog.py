from fractions import Fraction

from greechie.linprog import gauss_affine, vertices
from oracles import basic_solutions, dense_gauss_affine

F = Fraction


def _zero_mask(vertex) -> int:
    """Bit j set where the vertex has coordinate j equal to 0."""
    return sum(1 << j for j, v in enumerate(vertex) if not v)


def test_min_max_over_segment():
    # x + y = 1: the segment between its two vertices, in lexicographic
    # order, beside their zero sets {x} and {y}
    assert vertices([[1, 1]], [1]) == ([(F(0), F(1)), (F(1), F(0))], [0b01, 0b10])


def test_negative_rhs_rows_are_normalized():
    # -x - y = -1 is the same segment
    assert vertices([[-1, -1]], [-1])[0] == [(F(0), F(1)), (F(1), F(0))]


def test_duplicate_rows_are_redundant_not_fatal():
    assert vertices([[F(1), F(1)], [F(1), F(1)]], [F(1), F(1)])[0] == [(F(0), F(1)), (F(1), F(0))]


def test_infeasible_systems():
    assert vertices([[1]], [-1])[0] == []  # x = -1 has no solution x >= 0
    assert vertices([[1, 1], [1, 1]], [1, 2])[0] == []  # inconsistent
    assert vertices([[1, 1, 0], [0, 1, 1]], [1, -1])[0] == []  # consistent, nothing x >= 0


def test_unbounded_polyhedra_keep_their_vertices():
    # x = y >= 0 is a ray from its one vertex; x - y = 1 a ray from (1, 0)
    assert vertices([[1, -1]], [0])[0] == [(F(0), F(0))]
    assert vertices([[1, -1]], [1])[0] == [(F(1), F(0))]


def test_points_and_empty_systems():
    assert vertices([], [])[0] == [()]  # the one point of R^0
    assert vertices([[2, 0], [0, 3]], [1, 1])[0] == [(F(1, 2), F(1, 3))]
    assert vertices([[1, 1]], [0])[0] == [(F(0), F(0))]


def test_vertices_match_basic_solution_enumeration(rng):
    # Integer systems with negative and non-unit entries, bounded (the first
    # row fixing the coordinate sum) or not; the vertices are the
    # nonnegative solutions unique on their support, listed once each in
    # lexicographic order, each with the mask of its zero coordinates.
    kinds = {"none": 0, "one": 0, "many": 0}
    for _ in range(300):
        n = rng.randrange(1, 7)
        m = rng.randrange(1, 4)
        rows = [[rng.choice((0, 0, 1, 1, 2, -1, 3)) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.5:
            rows[0] = [1] * n
        rhs = [rng.randrange(-1, 4) for _ in rows]
        found, zero_masks = vertices(rows, rhs)
        want = basic_solutions([[F(v) for v in row] for row in rows], [F(b) for b in rhs])
        assert found == sorted(want), (rows, rhs)
        assert zero_masks == [_zero_mask(v) for v in found], (rows, rhs)
        kinds["none" if not want else "one" if len(want) == 1 else "many"] += 1
    assert min(kinds.values()) > 30, kinds


def test_vertices_of_rational_systems_match_basic_solution_enumeration(rng):
    # Entries and right-hand sides over the distinct denominators 2, 3, 5
    # and 7 on 7 to 9 columns: the first rays come out of the elimination
    # with mixed denominators to clear, and the rays combined from them
    # share factors that must be divided out.
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
        found, zero_masks = vertices(rows, rhs)
        want = basic_solutions(rows, rhs)
        assert found == sorted(want), (rows, rhs)
        assert zero_masks == [_zero_mask(v) for v in found], (rows, rhs)
        kinds["none" if not want else "one" if len(want) == 1 else "many"] += 1
    assert min(kinds.values()) > 5, kinds


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
