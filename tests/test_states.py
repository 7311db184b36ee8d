import json
import time
from collections import Counter
from fractions import Fraction

import pytest

from greechie import corpus
from greechie.diagram import MmpDiagram, parse_mmp
from greechie.errors import Infeasible, LengthMismatch, NotAdmissible, NotValidated
from greechie.lattice import ATOM, ZERO, build_oml
from greechie.cli import main
from greechie.diagram import serialize_mmp
from greechie.linprog import gauss_affine
from greechie.states import (
    Classification,
    _block_rows,
    admits_strong_01_set,
    admits_strong_set,
    atom_range,
    classify_states,
    enumerate_01_states,
    is_state,
)
from greechie.structure import drop_blocks, validate
from conftest import random_admissible, random_diagram, random_looped, random_mmp
from oracles import (
    block_order_01_states,
    brute_01_states,
    dense_gauss_affine,
    first_failing_pair,
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
    rows, rhs = _block_rows(d)
    assert gauss_affine(rows, rhs) == dense_gauss_affine(rows, rhs)


@pytest.mark.parametrize(
    "name, dropped",
    [(name, set()) for name in ("73-73", "73-78-single", "73-78-ngv")] + CLIFF[3:],
    ids=_case_id,
)
def test_affine_hull_of_a_73_atom_system_within_a_tenth_of_a_second(name, dropped):
    d, _ = drop_blocks(corpus.diagram(name), dropped)
    rows, rhs = _block_rows(d)
    t0 = time.perf_counter()
    gauss_affine(rows, rhs)
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
    assert len(gauss_affine(*_block_rows(d))[1]) == dim
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
    # a subset of the states can only fail more pairs
    for _ in range(30):
        d = random_admissible(rng, max_blocks=4)
        if not validate(d).greechie_admissible:
            continue
        if not admits_strong_set(d).admits:
            assert not admits_strong_01_set(d).admits


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
