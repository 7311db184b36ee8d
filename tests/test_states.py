import json
import time
from collections import Counter
from fractions import Fraction

import pytest

from greechie import corpus, linprog
from greechie.diagram import MmpDiagram, incidence, parse_mmp, twin_classes
from greechie.errors import Infeasible, LengthMismatch, NotAdmissible, NotValidated
from greechie.lattice import ATOM, COATOM, ZERO, build_oml
from greechie.cli import main
from greechie.diagram import serialize_mmp
from greechie.linprog import _rays, _vertices
from greechie.generate import GenSpec, generate
from greechie.states import (
    Classification,
    _strong_over,
    admits_strong_01_set,
    admits_strong_set,
    atom_range,
    classify_states,
    enumerate_01_states,
    is_state,
)
from greechie.structure import drop_blocks, validate
from conftest import (
    divided_rays,
    random_admissible,
    random_diagram,
    random_looped,
    random_mmp,
    sparse_rows,
    twin_rich,
    within,
)
from oracles import (
    block_order_01_states,
    block_rows,
    brute_01_states,
    dense_gauss_affine,
    first_failing_pair,
    pairwise_strong_sweep,
    polytope_vertices,
    strong_set_by_vertices,
)

F = Fraction
PENTAGON = "123,345,567,789,9A1."


def test_is_state_published_vectors():
    d = corpus.diagram("35-35e")
    for vec in corpus.KNOWN_STATES["35-35e"]:
        assert is_state(d, vec)


def test_is_state_uniform_third_on_3_uniform(rng):
    for _ in range(50):
        d = random_diagram(rng)
        assert is_state(d, [F(1, 3)] * d.atom_count)


def test_is_state_rejections():
    d = parse_mmp("123.")
    assert not is_state(d, [F(1, 2)] * 3)
    assert not is_state(d, [F(2), F(-1), F(0)])
    with pytest.raises(LengthMismatch):
        is_state(d, [F(1)])


def test_classify_single_block():
    s = classify_states(parse_mmp("123."))
    assert s.classification is Classification.MORE_THAN_ONE
    assert s.atom_ranges == ((F(0), F(1)),) * 3
    assert is_state(parse_mmp("123."), s.witness_state)
    assert is_state(parse_mmp("123."), s.second_witness)
    assert s.witness_state != s.second_witness


def test_classify_requires_validity():
    with pytest.raises(NotValidated):
        classify_states(MmpDiagram(4, ((0, 1, 2),)))


def test_classify_corpus_single_state_lattices():
    for name in ("35-35a", "36-36", "38-38e", "44-44", "73-73"):
        s = classify_states(corpus.diagram(name))
        assert s.classification is Classification.EXACTLY_ONE
        assert set(s.unique_state) == {F(1, 3)}


def test_classify_weber_original_has_no_states():
    s = classify_states(corpus.diagram("73-78-ngv"))
    assert s.classification is Classification.NONE


def test_classify_35_35e_and_witnesses():
    d = corpus.diagram("35-35e")
    s = classify_states(d)
    assert s.classification is Classification.MORE_THAN_ONE
    assert is_state(d, s.witness_state) and is_state(d, s.second_witness)


def test_classification_agrees_with_vertex_enumeration(rng):
    # sparse 3-uniform diagrams, then dense ones with 3- to 5-atom blocks,
    # where the elimination often proves that no state exists
    seen = dict.fromkeys(Classification, 0)
    inputs = [random_diagram(rng, max_atoms=9, max_blocks=5) for _ in range(120)]
    inputs += [random_mmp(rng, max_atoms=10, sizes=(4, 5)) for _ in range(15)]
    for d in inputs:
        rep = validate(d)
        if not (rep.mmp_i and rep.mmp_ii and rep.mmp_iii):
            continue
        s = classify_states(d)
        verts = polytope_vertices(d)
        assert s.vertices == tuple(sorted(verts))
        if s.classification is Classification.NONE:
            assert not verts
        elif s.classification is Classification.EXACTLY_ONE:
            assert verts == {s.unique_state}
        else:
            assert len(verts) >= 2
            assert (s.witness_state, s.second_witness) == (min(verts), max(verts))
        seen[s.classification] += 1
    assert all(seen.values())
    blockless = classify_states(MmpDiagram(0, ()))
    assert blockless.classification is Classification.EXACTLY_ONE
    assert blockless.unique_state == () and blockless.vertices == ((),)


def test_atom_ranges_and_witnesses_match_the_vertex_oracle(rng):
    # the ranges are the column extremes of the oracle's vertices, and the
    # witnesses its lexicographically least and greatest vertex
    inputs = [random_mmp(rng, max_atoms=9) for _ in range(60)]
    for sizes in ((3,), (4,), (5,), (3, 4, 5)):
        inputs += [random_admissible(rng, max_blocks=5, sizes=sizes) for _ in range(15)]
    checked = 0
    for d in inputs:
        if d.atom_count > 10:  # the vertex oracle grows as 2^n
            continue
        s = classify_states(d)
        if s.classification is not Classification.MORE_THAN_ONE:
            continue
        verts = polytope_vertices(d)
        columns = list(zip(*verts))
        assert s.atom_ranges == tuple((min(c), max(c)) for c in columns)
        assert (s.witness_state, s.second_witness) == (min(verts), max(verts))
        checked += 1
    assert checked > 40


def _twin_rich(rng) -> MmpDiagram:
    """A random admissible diagram with many twins, atoms on the same blocks.

    A forest or a looped diagram of 3- to 6-atom blocks gets pendant blocks,
    each on one old atom with two to five new ones, which are twins, and
    some blocks get one more new atom, a twin of their other new atoms.
    """
    if rng.random() < 0.5:
        d = random_admissible(rng, max_blocks=4, sizes=(3, 4, 5, 6))
    else:
        d = random_looped(rng, max_atoms=10)
    blocks, n = [list(b) for b in d.blocks], d.atom_count
    for _ in range(rng.randrange(0, 3)):
        fresh = rng.randrange(2, 6)
        blocks.append([rng.randrange(n)] + list(range(n, n + fresh)))
        n += fresh
    for b in blocks:
        if rng.random() < 0.3:
            b.append(n)
            n += 1
    return MmpDiagram(n, tuple(tuple(b) for b in blocks))


def _unreduced(d):
    """The vertices and zero masks of the whole block system, one column per atom."""
    points, den = _vertices(*sparse_rows(*block_rows(d)))
    zero_masks = [sum(1 << j for j, v in enumerate(p) if not v) for p in points]
    return [tuple(F(v, den) for v in p) for p in points], zero_masks


def _disjoint(k: int) -> MmpDiagram:
    return MmpDiagram(3 * k, tuple((3 * i, 3 * i + 1, 3 * i + 2) for i in range(k)))


def _star(k: int) -> MmpDiagram:
    # k spokes (2i, 2i + 1, 2k) on one hub: the two ends of a spoke are twins
    return MmpDiagram(2 * k + 1, tuple((2 * i, 2 * i + 1, 2 * k) for i in range(k)))


def _census() -> list[MmpDiagram]:
    """The 84 classes the benchmark's census specs emit."""
    pool: list[MmpDiagram] = []
    for spec in (GenSpec(12, 6), GenSpec(13, 6), GenSpec(14, 7), GenSpec(15, 7)):
        generate(spec, lambda line: pool.append(parse_mmp(line)))
    assert len(pool) == 84
    return pool


def test_twin_classes_are_the_atoms_on_equal_block_sets(rng):
    # the one twin-class helper against its definition; the atoms of one
    # class share one tuple object, which the canonical search and
    # generation compare by identity
    inputs = [twin_rich(rng, max_atoms=rng.randrange(6, 16)) for _ in range(60)]
    inputs += [_star(k) for k in range(1, 7)] + [_disjoint(k) for k in range(1, 7)]
    inputs += [e.diagram() for e in corpus.ENTRIES]
    twinned = 0
    for d in inputs:
        n = d.atom_count
        on = [{i for i, b in enumerate(d.blocks) if a in b} for a in range(n)]
        twins = twin_classes(incidence(d.blocks, n))
        for a in range(n):
            assert twins[a] == tuple(x for x in range(n) if on[x] == on[a])
            assert all(twins[x] is twins[a] for x in twins[a])
        twinned += len(set(twins)) < n
    assert twinned > 60


def test_twin_reduction_matches_the_unreduced_system(rng):
    # classify_states lists the vertices on one column per twin class and
    # expands them; the whole system, one column per atom, and at 12 atoms or
    # fewer the basic-solution oracle must give the same vertices, zero
    # masks, ranges and witnesses
    inputs = [_twin_rich(rng) for _ in range(120)]
    inputs += [_star(k) for k in range(1, 7)] + [_disjoint(k) for k in range(1, 7)]
    inputs.append(parse_mmp("1234,4567,789A,ABCD,DEF1."))  # the pentagon, two pendant twins a block
    twinned = oracle_checked = 0
    for d in inputs:
        s = classify_states(d)
        found, zero_masks = _unreduced(d)
        assert s.vertices == tuple(found)
        assert s.zero_masks == tuple(zero_masks)
        assert s.atom_ranges == tuple((min(c), max(c)) for c in zip(*found))
        if len(found) == 1:
            assert s.classification is Classification.EXACTLY_ONE and s.unique_state == found[0]
        else:
            assert s.classification is Classification.MORE_THAN_ONE
            assert (s.witness_state, s.second_witness) == (found[0], found[-1])
        if d.atom_count <= 12:
            assert s.vertices == tuple(sorted(polytope_vertices(d)))
            oracle_checked += 1
        twinned += len({tuple(b for b in d.blocks if a in b) for a in range(d.atom_count)}) < d.atom_count
    assert twinned > 120 and oracle_checked > 40, (twinned, oracle_checked)
    pentagon = classify_states(inputs[-1])
    assert len(pentagon.vertices) == 83 and len(enumerate_01_states(inputs[-1])) == 82


def test_twin_reduction_eliminates_one_column_per_class(monkeypatch):
    # ten disjoint blocks are ten twin classes: one reduced vertex, all ones,
    # that expands to 3^10 vertices; the k-spoke star is k + 1 classes
    seen = []

    def counted(rows, n):
        out = _vertices(rows, n)
        seen.append((n, len(out[0])))
        return out

    monkeypatch.setattr("greechie.states._vertices", counted)
    s = classify_states(_disjoint(10))
    assert seen == [(10, 1)] and len(s.zero_masks) == 3**10
    assert "vertices" not in vars(s)  # built on first access
    assert len(s.vertices) == 3**10 and s.vertices[0] == (F(0), F(0), F(1)) * 10
    seen.clear()
    assert len(classify_states(_star(5)).zero_masks) == 2**5 + 1
    assert seen == [(6, 2)]


#: per corpus lattice, the row combinations (``linprog._cancel`` calls) of
#: its one exact elimination
CANCELS = {
    "35-35a": 212, "35-35b": 209, "35-35c": 234, "35-35d": 224, "35-35e": 196,
    "36-36": 219,
    "38-38a": 270, "38-38b": 250, "38-38c": 284, "38-38d": 269,
    "38-38e": 247, "38-38f": 256, "38-38g": 269, "38-38h": 281,
    "44-44": 358, "73-78-ngv": 769, "73-78-single": 919, "73-73": 680,
}


def test_corpus_eliminations_make_a_pinned_number_of_row_combinations(monkeypatch):
    # the work count of the exact elimination: pivot choice and fill-in show
    # here before they show as time
    calls = 0
    cancel = linprog._cancel

    def counted(row, prow, col):
        nonlocal calls
        calls += 1
        return cancel(row, prow, col)

    monkeypatch.setattr(linprog, "_cancel", counted)
    seen = {}
    for name in corpus.names():
        calls = 0
        classify_states(corpus.diagram(name))
        seen[name] = calls
    assert seen == CANCELS


#: admissible sub-diagrams (lattice, dropped blocks) whose state polytopes
#: have dimension 2 to 5
CLIFF = [
    ("38-38a", {0, 1}),
    ("44-44", {0, 1}),
    ("44-44", {0, 1, 2, 3}),
    ("73-73", {0, 1, 2}),
    ("73-73", {0, 1, 2, 3, 4}),
]
#: per CLIFF case: the dimension of its state polytope and its vertex count
CLIFF_SHAPES = [(2, 6), (2, 6), (4, 71), (3, 30), (5, 496)]


def _case_id(value):
    if isinstance(value, str):
        return value
    return "minus-" + ",".join(map(str, sorted(value))) if value else "whole"


@pytest.mark.parametrize(
    "name, dropped", [(name, set()) for name in corpus.names()] + CLIFF, ids=_case_id
)
def test_block_systems_agree_with_the_dense_oracle(name, dropped):
    d, _ = drop_blocks(corpus.diagram(name), dropped)
    rows, rhs = block_rows(d)
    assert divided_rays(*sparse_rows(rows, rhs)) == dense_gauss_affine(rows, rhs)


@pytest.mark.parametrize(
    "name, dropped",
    [(name, set()) for name in ("73-73", "73-78-single", "73-78-ngv")] + CLIFF[3:],
    ids=_case_id,
)
def test_affine_hull_of_a_73_atom_system_within_a_tenth_of_a_second(name, dropped):
    d, _ = drop_blocks(corpus.diagram(name), dropped)
    system, n = sparse_rows(*block_rows(d))
    t0 = time.perf_counter()
    _rays(system, n)
    dt = time.perf_counter() - t0
    assert dt < 0.1, f"{name} minus {sorted(dropped)} took {dt:.3f}s"


def test_weber_original_is_stateless_within_a_second():
    d = corpus.diagram("73-78-ngv")
    t0 = time.perf_counter()
    s = classify_states(d)
    dt = time.perf_counter() - t0
    assert s.classification is Classification.NONE
    assert dt < 1.0, f"73-78-ngv took {dt:.2f}s"


@pytest.mark.parametrize(
    "name, dropped, shape",
    [c + (shape,) for c, shape in zip(CLIFF, CLIFF_SHAPES)],
    ids=[f"{name}-{_case_id(dropped)}" for name, dropped in CLIFF],
)
def test_cliff_sub_diagrams_take_their_vertices_in_a_few_seconds(
    name, dropped, shape, tmp_path, capsys
):
    # a scan of two simplex optimizations per atom took 3.4 to 67 s on these
    d, _ = drop_blocks(corpus.diagram(name), dropped)
    dim, count = shape
    assert len(_rays(*sparse_rows(*block_rows(d)))[0]) - 1 == dim
    s = classify_states(d)
    assert s.classification is Classification.MORE_THAN_ONE and len(s.vertices) == count
    assert all(is_state(d, v) for v in s.vertices)
    f = tmp_path / "d.mmp"
    f.write_text(serialize_mmp(d) + "\n")
    t0 = time.perf_counter()
    assert main(["states", "--strong", "--zero-one", str(f)]) == 0
    dt = time.perf_counter() - t0
    assert json.loads(capsys.readouterr().out)["classification"] == "MoreThanOne"
    bound = 1.0 if dim <= 4 else 5.0
    assert dt < bound, f"{name} minus {sorted(dropped)} took {dt:.2f}s"


def test_atom_range_examples():
    d = parse_mmp("123.")
    assert atom_range(d, 0) == (F(0), F(1))
    assert atom_range(corpus.diagram("35-35a"), 0) == (F(1, 3), F(1, 3))
    pent = parse_mmp(PENTAGON)
    verts = polytope_vertices(pent)
    lo = min(v[0] for v in verts)
    hi = max(v[0] for v in verts)
    assert (lo, hi) == (F(0), F(1))
    assert atom_range(pent, 0) == (lo, hi)
    with pytest.raises(Infeasible):
        atom_range(corpus.diagram("73-78-ngv"), 0)
    for p in (d.atom_count, -1):  # the first index past each end
        with pytest.raises(LengthMismatch):
            atom_range(d, p)


def test_enumerate_01_states_single_block():
    states = enumerate_01_states(parse_mmp("123."))
    assert len(states) == 3
    assert states == brute_01_states(parse_mmp("123."))


def test_enumerate_01_states_pentagon():
    pent = parse_mmp(PENTAGON)
    states = enumerate_01_states(pent)
    assert len(states) == 11
    assert states == brute_01_states(pent)


def test_enumerate_01_states_corpus_single_state_empty():
    assert enumerate_01_states(corpus.diagram("35-35a")) == []


def test_enumerate_01_states_blockless():
    assert enumerate_01_states(parse_mmp(".")) == [()]


def test_zero_one_states_follow_the_classification(rng):
    # a 0-1 state is a state: none without states, at most the one state for
    # ExactlyOne, and that state itself when it is 0-1
    seen = Counter()
    inputs = [parse_mmp("1459,1256,12378,3468,2349,13679,2579,2458.")]  # one state, 0-1
    inputs += [random_mmp(rng) for _ in range(100)]
    for d in inputs:
        s = classify_states(d)
        states = enumerate_01_states(d)
        assert states == brute_01_states(d)
        if s.classification is Classification.NONE:
            assert states == []
        elif s.classification is Classification.EXACTLY_ONE:
            assert len(states) <= 1
            if states:
                assert tuple(s.unique_state) == states[0]
        seen[s.classification, len(states)] += 1
    assert seen[Classification.NONE, 0] > 0
    assert seen[Classification.EXACTLY_ONE, 0] > 0
    assert seen[Classification.EXACTLY_ONE, 1] > 0


def test_zero_one_states_are_the_zero_one_vertices(rng):
    # Every atom lies in a block, so the state polytope lies in the unit
    # cube, and a 0-1 state, a corner of the cube, is one of its vertices.
    # The 0-1 vertices are then exactly the 0-1 states, and as many 0-1
    # states as vertices means the same set, as states --strong --zero-one
    # assumes when it runs one strong-set sweep for both.
    inputs = [e.diagram() for e in corpus.ENTRIES]
    inputs += [random_looped(rng, max_atoms=12) for _ in range(70)]
    inputs += [random_mmp(rng) for _ in range(40)]
    seen = Counter()
    for d in inputs:
        s = classify_states(d)
        zero_one = [v for v in s.vertices if set(v) <= {0, 1}]
        assert zero_one == enumerate_01_states(d)
        if d.atom_count <= 12:
            assert set(brute_01_states(d)) <= set(s.vertices)
        masks = tuple(sum(1 << a for a, x in enumerate(v) if not x) for v in s.vertices)
        assert s.zero_masks == masks
        seen[len(zero_one) == len(s.vertices)] += 1
    assert seen[True] > 20 and seen[False] > 20, seen


def test_enumerate_01_states_matches_brute_force(rng):
    for _ in range(80):
        d = random_diagram(rng, max_atoms=10, max_blocks=5)
        rep = validate(d)
        if not (rep.mmp_i and rep.mmp_ii and rep.mmp_iii):
            continue
        assert enumerate_01_states(d) == brute_01_states(d)


def test_enumerate_01_states_matches_block_order_backtracking():
    # the corpus lattices of 35-44 atoms, beyond the brute force's 20 atoms
    for entry in corpus.ENTRIES:
        d = entry.diagram()
        if d.atom_count <= 44:
            assert enumerate_01_states(d) == block_order_01_states(d), entry.name


def test_zero_one_states_through_the_twin_expansion(rng):
    # the 0-1 states are the expanded vertices whose reduced point is 0-1;
    # twins spread a class total of 1 over several atoms, so most 0-1
    # states here come from expanding one reduced vertex
    inputs = [_twin_rich(rng) for _ in range(40)]
    inputs += [_star(k) for k in range(1, 7)] + [_disjoint(k) for k in range(1, 7)]
    brute = 0
    for d in inputs:
        states = enumerate_01_states(d)
        assert states == block_order_01_states(d)
        if d.atom_count <= 12:
            assert states == brute_01_states(d)
            brute += 1
    assert brute > 10


@pytest.mark.parametrize(
    "name, dropped",
    [("73-73", {0}), ("73-73", {1}), ("73-73", {0, 1}), ("73-78-ngv", set(range(8)))],
    ids=["73-73-minus-0", "73-73-minus-1", "73-73-minus-0,1", "73-78-ngv-minus-0..7"],
)
def test_enumerate_01_states_on_73_atom_sub_diagrams_is_fast(name, dropped):
    # admissible and MoreThanOne, with no 0-1 state; block-order
    # backtracking did not finish in 15 s here
    d, _ = drop_blocks(corpus.diagram(name), dropped)
    assert validate(d).greechie_admissible
    t0 = time.perf_counter()
    assert enumerate_01_states(d) == []
    dt = time.perf_counter() - t0
    assert dt < 0.1, f"{name} minus {sorted(dropped)} took {dt:.3f}s"


def test_admits_strong_set_boolean_block():
    rep = admits_strong_set(parse_mmp("123."))
    assert rep.admits and rep.witness_pair is None
    assert strong_set_by_vertices(parse_mmp("123.")) is None


def test_admits_strong_set_pentagon_with_oracle():
    pent = parse_mmp(PENTAGON)
    assert admits_strong_set(pent).admits
    assert strong_set_by_vertices(pent) is None


def test_admits_strong_set_oracle_random(rng):
    decided = {True: 0, False: 0}
    for _ in range(40):
        d = random_admissible(rng, max_blocks=4)
        if not validate(d).greechie_admissible or d.atom_count > 12:
            continue
        rep = admits_strong_set(d)
        assert rep.witness_pair == strong_set_by_vertices(d)
        assert rep.admits == (rep.witness_pair is None)
        decided[rep.admits] += 1
    assert decided[True] > 0


def test_strong_sets_with_block_interiors_match_oracles(rng):
    # 4- and 5-atom blocks have interior elements, whose value is 1 exactly
    # where the rest of their block is 0
    interiors = 0
    for _ in range(40):
        d = random_admissible(rng, max_blocks=4, sizes=(3, 4, 5))
        if not validate(d).greechie_admissible or d.atom_count > 12:
            continue
        rep = admits_strong_set(d)
        assert rep.witness_pair == strong_set_by_vertices(d)
        assert rep.admits == (rep.witness_pair is None)
        rep01 = admits_strong_01_set(d)
        states01 = brute_01_states(d)
        assert rep01.witness_pair == first_failing_pair(build_oml(d), states01)
        assert rep01.admits == (rep01.witness_pair is None)
        interiors += any(len(b) >= 4 for b in d.blocks)
    assert interiors > 10


def _with_pendants(d: MmpDiagram, rng) -> MmpDiagram:
    """``d`` with one or two new atoms added to each of up to three random
    blocks: admissible if ``d`` is, as a new atom lies on one block only."""
    blocks, n = [list(b) for b in d.blocks], d.atom_count
    for b in rng.sample(blocks, min(len(blocks), rng.randrange(4))):
        k = rng.randrange(1, 3)
        b += range(n, n + k)
        n += k
    return MmpDiagram(n, tuple(map(tuple, blocks)))


def test_strong_sweep_matches_the_pairwise_reference(rng):
    # the same report as one test per pair, on the corpus, the 84 classes
    # the benchmark's census specs emit and 400 random admissible diagrams of
    # 3- to 5-atom blocks: forests, diagrams with loops and sub-diagrams of
    # the corpus lattices, a third of which admit no strong set.  Each is
    # swept over its vertices, also shuffled, its 0-1 states, a random subset
    # of its vertices, on which pairs past the zero element fail, and no
    # state at all
    pool = [corpus.diagram(name) for name in corpus.names()] + _census()
    lattices = [name for name in corpus.names() if not name.startswith("73")]
    sources = [
        lambda: random_admissible(rng, max_blocks=6, sizes=(3, 4, 5)),
        lambda: _with_pendants(random_looped(rng, max_atoms=12), rng),
        lambda: _with_pendants(
            drop_blocks(corpus.diagram(rng.choice(lattices)), {rng.randrange(35)})[0], rng
        ),
    ]
    randoms = [sources[i % 3]() for i in range(400)]
    decided, failing = Counter(), Counter()
    for i, d in enumerate(pool + randoms):
        assert validate(d).greechie_admissible
        poset = build_oml(d)
        s = classify_states(d)
        rep = pairwise_strong_sweep(poset, s.zero_masks)
        assert _strong_over(poset, s.zero_masks) == rep, serialize_mmp(d)
        shuffled = list(s.zero_masks)
        rng.shuffle(shuffled)
        assert _strong_over(poset, shuffled) == rep, serialize_mmp(d)
        decided[rep.admits] += i >= len(pool)
        subset = rng.sample(shuffled, rng.randrange(len(shuffled) + 1))
        for masks in (s.zero_one_masks, subset, ()):
            rep = pairwise_strong_sweep(poset, masks)
            assert _strong_over(poset, masks) == rep, serialize_mmp(d)
            failing[None if rep.admits else rep.witness_pair[1].kind] += 1
    assert min(decided[True], decided[False]) > 100, decided
    assert failing[ATOM] + failing[COATOM] > 200, failing


def test_m_y_is_one_on_f_x_exactly_when_s_y_lies_in_z_x(rng):
    # The lemma the strong-set test rests on, over the vertices listed by
    # basic solutions, the 0-1 states and a random subset of the vertices:
    # for x and y not above x, m(y) = 1 on all of F_x (the states with m(x) =
    # 1) exactly when S_y (the atoms a with y <= a') lies in Z_x (the atoms 0
    # on all of F_x).  Forests of 3- to 5-atom blocks, loops and the
    # pentagon, at most 10 atoms each, all admit a strong set: the subsets
    # give the pairs that fail, and the empty F_x
    sources = [
        lambda: random_admissible(rng, max_blocks=4, sizes=(3, 4, 5)),
        lambda: random_looped(rng, max_atoms=10),
    ]
    diagrams = [parse_mmp(PENTAGON)] + [sources[i % 2]() for i in range(60)]
    seen = Counter()
    for d in diagrams:
        if d.atom_count > 10 or not validate(d).greechie_admissible:
            continue
        poset = build_oml(d)
        atoms = [e for e in poset.elements if e.kind == ATOM]
        s = {y: {a for a in atoms if poset.leq(y, poset.ortho(a))} for y in poset.elements}  # S_y
        vertices = sorted(polytope_vertices(d))
        subset = rng.sample(vertices, rng.randrange(len(vertices) + 1))
        for states in (vertices, brute_01_states(d), subset):
            values = [poset.extend_state(v) for v in states]
            for x in poset.elements:
                face = [m for m in values if m[x] == 1]
                zero = {a for a in atoms if all(m[a] == 0 for m in face)}
                for y in poset.elements:
                    if poset.leq(x, y):
                        continue
                    holds = all(m[y] == 1 for m in face)
                    assert holds == (s[y] <= zero), (serialize_mmp(d), x, y)
                    seen[bool(face), holds] += 1
    # an empty F_x holds vacuously, so (False, False) never occurs
    assert len(seen) == 3 and min(seen.values()) > 100, seen


def test_admits_strong_set_on_eleven_disjoint_blocks_in_bounded_time():
    # 3^11 = 177,147 vertices, all 0-1 states.  One XOR per state and
    # support atom, and one bit extraction per pair, took 3 s for the sweep
    d = MmpDiagram(33, tuple((3 * i, 3 * i + 1, 3 * i + 2) for i in range(11)))
    rep = within(1.0, lambda: admits_strong_set(d), "admits_strong_set on 11 disjoint blocks")
    assert rep.admits and rep.witness_pair is None


def test_admits_strong_set_fails_past_the_zero_pair():
    # An admissible sub-diagram of a corpus lattice with many states, in
    # which every state putting 1 on atom 1 puts 0 on atom I.
    d = parse_mmp(
        "2EP,39W,OPU,5FK,GHO,6HK,BJM,78C,DOT,8GI,NVX,FPW,1CU,EJV,IRZ,9AQ,BFI,"
        "6NR,5AL,28A,3SY,EYZ,9HJ,CKY,QTZ,7MT,LMS,1QX,5DV,246,34D,LRU,7NW."
    )
    s = classify_states(d)
    assert s.classification is Classification.MORE_THAN_ONE
    rep = admits_strong_set(d)
    x, y = rep.witness_pair
    assert not rep.admits and (x.label(), y.label()) == ("1", "I'")
    # Each listed point is a state and a vertex, the one nonnegative solution
    # on its support.  m(x) = 1 is a face, the convex hull of the vertices
    # on it; on every one of them m(I) = 0, so m(I') = 1 wherever m(x) = 1.
    rows = [[F(a in b) for a in range(d.atom_count)] for b in d.blocks]
    on_face = []
    for v in s.vertices:
        assert is_state(d, v)
        support = [a for a in range(d.atom_count) if v[a]]
        sub = [[row[a] for a in support] for row in rows]
        assert dense_gauss_affine(sub, [F(1)] * len(rows)) == ([v[a] for a in support], [])
        if v[x.atom] == 1:
            on_face.append(v)
    assert on_face and all(v[y.atom] == 0 for v in on_face)


def test_admits_strong_set_single_state_failure_shape():
    rep = admits_strong_set(corpus.diagram("35-35a"))
    assert not rep.admits
    x, y = rep.witness_pair
    # no state puts 1 on any atom, so the first atom fails against zero
    assert x.kind == ATOM and x.atom == 0
    assert y.kind == ZERO


def test_admits_strong_set_requires_admissibility():
    with pytest.raises(NotAdmissible):
        admits_strong_set(parse_mmp("123,345,567,781."))


def test_admits_strong_01_set_examples():
    assert admits_strong_01_set(parse_mmp("123.")).admits
    rep = admits_strong_01_set(corpus.diagram("35-35a"))
    assert not rep.admits  # no 0-1 states at all
    pent = parse_mmp(PENTAGON)
    assert admits_strong_01_set(pent).admits  # decided over its 11 states


def test_strong_set_monotonicity(rng):
    # a subset of the states can only fail more pairs.  The random forests
    # all admit a strong set; the corpus lattices with one block dropped,
    # a third of the diagrams here, admit none, so the implication is tested
    lattices = [name for name in corpus.names() if not name.startswith("73")]
    diagrams = [random_admissible(rng, max_blocks=4) for _ in range(30)]
    for _ in range(15):
        d = corpus.diagram(rng.choice(lattices))
        diagrams.append(drop_blocks(d, {rng.randrange(d.block_count)})[0])
    fired = 0
    for d in diagrams:
        if not validate(d).greechie_admissible:
            continue
        if not admits_strong_set(d).admits:
            assert not admits_strong_01_set(d).admits
            fired += 1
    assert fired >= 10, fired


def test_strong_sweep_builds_elements_only_to_name_a_failing_pair(rng):
    # The sweep reads the order alone, so it leaves the element list unbuilt,
    # whether a strong set exists or not; its answers are the oracle's
    lattices = [name for name in corpus.names() if not name.startswith("73")]
    diagrams = [corpus.diagram(name) for name in lattices]
    diagrams += [random_admissible(rng, max_blocks=5, sizes=(3, 4, 5, 6)) for _ in range(40)]
    decided = Counter()
    for d in diagrams:
        poset = build_oml(d)
        s = classify_states(d)
        reps = {masks: _strong_over(poset, masks) for masks in (s.zero_masks, s.zero_one_masks)}
        assert "elements" not in vars(poset), serialize_mmp(d)
        for masks, rep in reps.items():
            assert rep == pairwise_strong_sweep(poset, masks), serialize_mmp(d)
            decided[rep.admits] += 1
    assert min(decided.values()) > 10, decided


def _subset_is_strong(d, states):
    return first_failing_pair(build_oml(d), states) is None


def test_maximality_reduction_subsets_fail_too(rng):
    # Deciding against the set of ALL states really does rule out every
    # nonempty subset.  With a unique state the one candidate subset is
    # checked outright; with several states, sampled subsets are checked
    # by direct exact evaluation.
    d = corpus.diagram("35-35a")
    assert not admits_strong_set(d).admits
    unique = classify_states(d).unique_state
    assert not _subset_is_strong(d, [unique])  # the only nonempty subset

    e = corpus.diagram("35-35e")
    assert not admits_strong_set(e).admits
    v1, v2 = corpus.KNOWN_STATES["35-35e"]
    mix = tuple((a + b) / 2 for a, b in zip(v1, v2))
    assert is_state(e, mix)
    third = tuple(F(1, 3) for _ in range(35))
    for subset in ([v1], [v2], [mix], [v1, v2], [v1, v2, mix, third]):
        assert not _subset_is_strong(e, subset)


def test_full_state_set_is_strong_when_decision_is_positive(rng):
    # the converse side of the reduction, on vertex-enumerable diagrams
    checked = 0
    for _ in range(25):
        d = random_admissible(rng, max_blocks=4)
        if not validate(d).greechie_admissible or d.atom_count > 12:
            continue
        if admits_strong_set(d).admits:
            assert _subset_is_strong(d, sorted(polytope_vertices(d)))
            checked += 1
    assert checked > 0


def test_every_witness_is_exact(rng):
    for _ in range(40):
        d = random_diagram(rng, max_atoms=9, max_blocks=4)
        rep = validate(d)
        if not (rep.mmp_i and rep.mmp_ii and rep.mmp_iii):
            continue
        s = classify_states(d)
        for w in (s.unique_state, s.witness_state, s.second_witness):
            if w is not None:
                assert is_state(d, w)
