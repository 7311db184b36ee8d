from dataclasses import replace

import pytest

from greechie import corpus
from greechie.diagram import MmpDiagram, incidence, parse_mmp, serialize_mmp
from greechie.errors import IndexOutOfRange, NotAdmissible, PreconditionViolated
from greechie.generate import GenSpec, generate
from greechie.lattice import build_oml
from greechie.structure import (
    MIN_GREECHIE_GIRTH,
    components,
    drop_atom_from_block,
    drop_blocks,
    dual,
    element_count,
    girth,
    is_connected,
    max_loop,
    min_loop,
    mmp_checks,
    require_admissible,
    require_mmp,
    validate,
)
from greechie.structure import _shortest_incidence_cycle
from greechie.symmetry import Permutation, are_isomorphic, relabel
from conftest import (
    block_cycle,
    random_admissible,
    random_diagram,
    random_looped,
    random_mmp,
    within,
)
from oracles import (
    SPENT,
    bfs_components,
    bfs_incidence_cycle,
    brute_girth,
    brute_max_loop_order,
    incidence_connected,
    pair_offenders,
    recursive_max_loop,
)

PENTAGON = "123,345,567,789,9A1."
SQUARE = "123,345,567,781."


def test_validate_simple_pass():
    rep = validate(parse_mmp("123,345."))
    assert rep.mmp_i and rep.mmp_ii and rep.mmp_iii
    assert rep.girth is None
    assert rep.connected
    assert rep.greechie_admissible


def test_validate_square_loop_fails_admissibility():
    rep = validate(parse_mmp(SQUARE))
    assert rep.mmp_i and rep.mmp_ii and rep.mmp_iii
    assert rep.girth == 4
    assert not rep.greechie_admissible


def test_validate_reports_unused_atoms():
    rep = validate(MmpDiagram(5, ((0, 1, 2),)))
    assert not rep.mmp_i
    assert rep.mmp_i.offenders == (3, 4)


def test_validate_reports_small_blocks_and_shared_pairs():
    rep = validate(MmpDiagram(4, ((0, 1), (0, 1, 2, 3))))
    assert not rep.mmp_ii and rep.mmp_ii.offenders == (0,)
    assert not rep.mmp_iii  # intersection of size 2 inside a 2-block
    assert rep.girth == 2


def test_condition_iii_equivalent_to_linearity_for_3_uniform(rng):
    for _ in range(300):
        d = random_diagram(rng, max_atoms=10, max_blocks=5)
        rep = validate(d)
        pairwise = all(
            len(set(d.blocks[i]) & set(d.blocks[j])) <= 1
            for i in range(d.block_count)
            for j in range(i + 1, d.block_count)
        )
        assert rep.mmp_iii.passed == pairwise


def test_pair_offenders_match_all_pairs_intersections(rng):
    # blocks of 2-5 atoms over few atoms, so that many pairs share two or more
    found_iii = found_pairs = 0
    for _ in range(400):
        n = rng.randrange(4, 11)
        blocks = [rng.sample(range(n), rng.randrange(2, min(5, n) + 1)) for _ in range(rng.randrange(1, 8))]
        d = MmpDiagram(n, tuple(blocks))
        rep = validate(d)
        bad_iii, bad_pairs = pair_offenders(d)
        assert rep.mmp_iii.offenders == bad_iii and rep.mmp_iii.passed == (not bad_iii)
        assert rep.pairwise_intersections.offenders == bad_pairs
        assert rep.pairwise_intersections.passed == (not bad_pairs)
        found_iii += bool(bad_iii)
        found_pairs += bool(bad_pairs)
    assert found_iii > 50 and found_pairs > 50


def test_girth_pentagon():
    assert girth(parse_mmp(PENTAGON)) == 5
    prof = min_loop(parse_mmp(PENTAGON))
    assert prof.order == 5
    assert sorted(prof.blocks) == [0, 1, 2, 3, 4]


def test_girth_acyclic():
    assert girth(parse_mmp("123,345.")) is None
    assert min_loop(parse_mmp("123,345.")) is None
    assert max_loop(parse_mmp("123,345.")) is None


def test_girth_precondition():
    # two blocks sharing two atoms; both searches read the diagram's check
    # and name its first offending pair
    d = MmpDiagram(4, ((0, 1, 2), (0, 1, 3)))
    for search in (girth, max_loop):
        with pytest.raises(PreconditionViolated, match="blocks 0 and 1 share two or more atoms"):
            search(d)
    with pytest.raises(PreconditionViolated):  # the shared atoms are not the first ones
        max_loop(MmpDiagram(7, ((0, 1, 2), (2, 3, 4), (3, 4, 5, 6))))


def test_max_loop_needs_blocks_of_three_atoms():
    # its bound counts two fresh atoms per added block; a triangle of 2-atom
    # blocks has a loop of order 3 on 3 atoms
    with pytest.raises(PreconditionViolated):
        max_loop(MmpDiagram(3, ((0, 1), (1, 2), (0, 2))))


def _random_linear(rng, max_atoms=14, sizes=(3, 4, 5)) -> MmpDiagram:
    """Blocks of the given sizes over up to ``max_atoms`` atoms, each kept
    while it meets every block before it in at most one atom."""
    n = rng.randrange(6, max_atoms + 1)
    blocks: list[tuple[int, ...]] = []
    for _ in range(30):
        cand = tuple(sorted(rng.sample(range(n), rng.choice(sizes))))
        if all(len(set(cand) & set(b)) <= 1 for b in blocks):
            blocks.append(cand)
    used = sorted({a for b in blocks for a in b})
    remap = {a: i for i, a in enumerate(used)}
    return MmpDiagram(len(used), tuple(tuple(remap[a] for a in b) for b in blocks))


def _disjoint_union(*parts: MmpDiagram) -> MmpDiagram:
    blocks, n = [], 0
    for p in parts:
        blocks += [tuple(a + n for a in b) for b in p.blocks]
        n += p.atom_count
    return MmpDiagram(n, tuple(blocks))


def test_girth_agrees_with_brute_force(rng):
    sources = [
        lambda: random_diagram(rng, max_atoms=11, max_blocks=6),
        lambda: _random_linear(rng),
        lambda: random_looped(rng, max_atoms=12),
        lambda: _disjoint_union(random_looped(rng, max_atoms=10), _random_linear(rng, max_atoms=8)),
    ]
    cyclic = [0] * len(sources)
    for _ in range(200):
        for k, source in enumerate(sources):
            d = source()
            if d.block_count > 8 or not validate(d).pairwise_intersections:
                continue  # the oracle tries every block order
            assert girth(d) == brute_girth(d)
            prof = max_loop(d)
            want = brute_max_loop_order(d)
            assert (prof.order if prof else None) == want
            cyclic[k] += want is not None
    assert min(cyclic[1:]) >= 80  # the first, 3-uniform source rarely closes a loop


def test_loop_profile_invariants(rng):
    for _ in range(120):
        d = random_diagram(rng, max_atoms=12, max_blocks=6)
        if not validate(d).pairwise_intersections:
            continue
        for prof in (min_loop(d), max_loop(d)):
            if prof is not None:
                _assert_loop_profile(d, prof)


def _assert_loop_profile(d, prof):
    r = prof.order
    assert len(prof.blocks) == len(prof.junction_atoms) == r
    assert len(set(prof.blocks)) == r
    assert len(set(prof.junction_atoms)) == r
    for i in range(r):
        b1 = set(d.blocks[prof.blocks[i]])
        b2 = set(d.blocks[prof.blocks[(i + 1) % r]])
        assert b1 & b2 == {prof.junction_atoms[i]}
    for i in range(r):
        for j in range(i + 2, r):
            if i == 0 and j == r - 1:
                continue
            assert not set(d.blocks[prof.blocks[i]]) & set(d.blocks[prof.blocks[j]])


def _random_linear_with_loops(rng):
    """3-uniform linear diagrams of up to 8 blocks, most of them cyclic."""
    while True:
        d = random_mmp(rng, max_atoms=10, sizes=(3,), tries=14)
        if d.block_count <= 8:
            return d


def test_budgeted_max_loop_that_finishes_is_the_exact_one(rng):
    cyclic = 0
    for _ in range(150):
        d = _random_linear_with_loops(rng)
        exact = max_loop(d)
        budgeted = max_loop(d, budget=10_000)
        assert budgeted == exact
        assert (budgeted.order if budgeted else None) == brute_max_loop_order(d)
        if budgeted is not None:
            cyclic += 1
            assert budgeted.exact
    assert cyclic > 100


def test_budget_spent_gives_a_valid_loop_marked_inexact(rng):
    inexact = 0
    for _ in range(150):
        d = _random_linear_with_loops(rng)
        exact = max_loop(d)
        for budget in (0, 1, 3):
            prof = max_loop(d, budget=budget)
            if exact is None:
                assert prof is None
                continue
            _assert_loop_profile(d, prof)
            assert prof.order <= exact.order
            if prof.exact:
                assert budget > 0 and prof == exact
            else:
                inexact += 1
    assert inexact > 100
    # the corpus lattices need tens of thousands of nodes to prove optimality
    prof = max_loop(corpus.diagram("35-35a"), budget=100)
    _assert_loop_profile(corpus.diagram("35-35a"), prof)
    assert not prof.exact and prof.order == 16


def test_max_loop_rejects_a_negative_budget():
    # a negative budget is never counted down to 0, so it would not bound
    # the search at all
    with pytest.raises(PreconditionViolated):
        max_loop(corpus.diagram("73-73"), budget=-1)


def _assert_max_loop_is_the_recursive_search(d, budget):
    want, nodes = recursive_max_loop(d, budget)
    got = max_loop(d, budget=budget)
    if want == SPENT:
        shortest = min_loop(d)
        assert got == (None if shortest is None else replace(shortest, exact=False))
    else:
        assert (got and (got.order, got.blocks, got.junction_atoms, got.exact)) == want
    return nodes


def test_max_loop_counts_nodes_as_the_recursive_search(rng):
    """At every budget up to the whole search, the same loop and the same
    verdict on exactness."""
    cyclic = spent = 0
    for _ in range(120):
        d = _random_linear(rng)
        total = _assert_max_loop_is_the_recursive_search(d, None)
        for budget in range(total + 1):
            _assert_max_loop_is_the_recursive_search(d, budget)
        cyclic += max_loop(d) is not None
        spent += recursive_max_loop(d, total // 2)[0] == SPENT
    assert cyclic >= 60 and spent >= 10


def test_max_loop_counts_nodes_as_the_recursive_search_on_the_corpus(rng):
    """Also at one node short of the whole search and at the whole search,
    where ``exact`` flips, on the nine lattices whose search finishes."""
    finishing = 0
    for name in corpus.names():
        d = corpus.diagram(name)
        copies = [d]
        for _ in range(2):
            pi = list(range(d.atom_count))
            rng.shuffle(pi)
            copies.append(relabel(d, Permutation(tuple(pi))))
        for c in copies:
            # a search that stops short of its budget has finished
            total = _assert_max_loop_is_the_recursive_search(c, 20_000)
            finished = total < 20_000
            for budget in (0, 1, 100, 1000) + ((total - 1, total) if finished else ()):
                _assert_max_loop_is_the_recursive_search(c, budget)
            finishing += finished
    assert finishing == 9 * 3


def test_girth_of_corpus_lattices_and_relabellings(rng):
    for name in corpus.names():
        d = corpus.diagram(name)
        copies = [d]
        for _ in range(3):
            pi = list(range(d.atom_count))
            rng.shuffle(pi)
            copies.append(relabel(d, Permutation(tuple(pi))))
        for c in copies:
            assert girth(c) == 5
            prof = min_loop(c)
            assert prof.order == 5
            _assert_loop_profile(c, prof)


def test_shortest_cycle_is_the_reference_witness(rng):
    # the same cycle, vertex for vertex, as a search that stops neither a
    # level early nor once the graph left holds no cycle: on the corpus, the
    # 84 classes the benchmark's census specs emit and random diagrams
    # whose blocks share at most one atom, some of them acyclic
    pool = [corpus.diagram(name) for name in corpus.names()]
    for spec in (GenSpec(12, 6), GenSpec(13, 6), GenSpec(14, 7), GenSpec(15, 7)):
        lines = []
        generate(spec, lines.append)
        pool += [parse_mmp(line) for line in lines]
    assert len(pool) == 18 + 84
    sources = [
        lambda: _random_linear(rng, max_atoms=14),
        lambda: random_looped(rng, max_atoms=14),
        lambda: random_admissible(rng, max_blocks=10),
        lambda: _disjoint_union(random_looped(rng, max_atoms=10), _random_linear(rng, max_atoms=8)),
        lambda: random_diagram(rng, max_atoms=16, max_blocks=10, sizes=(3, 4, 5)),
    ]
    randoms = acyclic = 0
    while randoms < 500:
        d = rng.choice(sources)()
        if validate(d).pairwise_intersections:
            pool.append(d)
            randoms += 1
    for d in pool:
        cycle = _shortest_incidence_cycle(d)
        assert cycle == bfs_incidence_cycle(d)
        acyclic += cycle is None
    assert 50 < acyclic < 400


def test_validate_a_ring_of_3000_blocks_in_bounded_time():
    # one incidence cycle of 6,000 vertices: once the first root is deleted
    # no cycle is left, and the search of the roots stops
    report = within(2.0, lambda: validate(block_cycle(3000)), "validate of the 3,000-block cycle")
    assert report.girth == 3000 and report.greechie_admissible


def test_max_loop_published_examples():
    assert max_loop(corpus.diagram("36-36")).order == 18
    assert girth(corpus.diagram("36-36")) == 5
    assert max_loop(corpus.diagram("44-44")).order == 22
    assert max_loop(corpus.diagram("38-38a")).order == 19
    assert max_loop(corpus.diagram("38-38h")).order == 18
    # each first closes a loop at its cap min(blocks, atoms // 2), which ends
    # the search exact; a node fewer leaves a shortest loop, inexact
    for name, budget, order in (("36-36", 16, 18), ("38-38a", 17, 19), ("44-44", 20, 22)):
        d = corpus.diagram(name)
        prof = max_loop(d, budget=budget)
        assert (prof.order, prof.exact) == (order, True)
        assert not max_loop(d, budget=budget - 1).exact


def test_max_loop_of_a_long_block_cycle():
    # one chain of 3,000 blocks, three times the default recursion limit
    prof = max_loop(block_cycle(3000))
    assert (prof.order, prof.exact) == (3000, True)


def test_is_connected():
    assert is_connected(parse_mmp("123,345."))
    assert not is_connected(parse_mmp("123,456."))
    assert is_connected(MmpDiagram(0, ()))
    assert not is_connected(MmpDiagram(4, ((0, 1, 2),)))  # isolated atom


def test_is_connected_matches_incidence_search(rng):
    cases = [MmpDiagram(0, ()), MmpDiagram(1, ()), MmpDiagram(2, ())]
    # only the JSON form can express empty blocks
    for text in ('{"atoms": 0, "blocks": [[]]}', '{"atoms": 0, "blocks": [[], []]}',
                 '{"atoms": 3, "blocks": [[0, 1, 2], []]}', '{"atoms": 1, "blocks": [[]]}'):
        cases.append(MmpDiagram.from_json(text))
    for _ in range(300):
        n = rng.randrange(1, 10)
        blocks = [rng.sample(range(n), rng.randrange(0, min(3, n) + 1)) for _ in range(rng.randrange(0, 5))]
        cases.append(MmpDiagram(n, tuple(blocks)))
    outcomes = set()
    for d in cases:
        assert is_connected(d) == incidence_connected(d), d
        outcomes.add(is_connected(d))
    assert outcomes == {True, False}


def test_components_match_breadth_first_oracle(rng):
    # atoms in no block and empty blocks among them; block order and the
    # atom order inside a block kept as given
    cases = [((), 0), ((), 3), (((),), 2), (((2, 0, 1), ()), 4)]
    for _ in range(400):
        n = rng.randrange(1, 14)
        blocks = tuple(tuple(rng.sample(range(n), rng.randrange(0, min(4, n) + 1)))
                       for _ in range(rng.randrange(0, 7)))
        cases.append((blocks, n))
    isolated = empty = split = 0
    for blocks, n in cases:
        got = components(blocks, incidence(blocks, n))
        assert got == bfs_components(blocks, n), (blocks, n)
        isolated += any(not bs for _, bs in got)
        empty += () in blocks
        split += len(got) > 1
    assert min(isolated, empty, split) > 50


def test_dual_small_example():
    dd = dual(parse_mmp("123,345."))
    assert dd.atom_count == 2
    assert sorted(len(b) for b in dd.blocks) == [1, 1, 1, 1, 2]
    assert not validate(dd).mmp_ii


def test_dual_dual_isomorphic_on_corpus():
    from greechie.symmetry import are_isomorphic

    for entry in corpus.ENTRIES:
        d = entry.diagram()
        assert are_isomorphic(dual(dual(d)), d) is not None, entry.name


def test_35_35_dual_pairs():
    # 35-35a and 35-35c are dual, as are 35-35b and 35-35d; 35-35a's dual is
    # neither 35-35b nor 35-35d
    a, b, c, d = (corpus.diagram(f"35-35{x}") for x in "abcd")
    assert are_isomorphic(dual(a), c) is not None
    assert are_isomorphic(dual(b), d) is not None
    assert are_isomorphic(dual(a), b) is None
    assert are_isomorphic(dual(a), d) is None


def test_drop_blocks_identity():
    d = parse_mmp(PENTAGON)
    kept, mapping = drop_blocks(d, set())
    assert kept == d
    assert mapping == tuple(range(10))


def test_drop_blocks_recompacts():
    d = parse_mmp("123,456.")
    kept, mapping = drop_blocks(d, {0})
    assert kept == parse_mmp("123.")
    assert mapping == (None, None, None, 0, 1, 2)
    with pytest.raises(IndexOutOfRange):
        drop_blocks(d, {7})


def test_weber_drop_first_five_gives_published_73_73():
    weber = corpus.diagram("73-78-ngv")
    derived, mapping = drop_blocks(weber, set(range(5)))
    assert mapping == tuple(range(73))  # all atoms survive
    assert derived == corpus.diagram("73-73")


def test_weber_drop_slash_gives_single_state_variety():
    weber = corpus.diagram("73-78-ngv")
    slash = 72  # '/' is the 73rd symbol
    assert slash in weber.blocks[0]
    derived, mapping = drop_atom_from_block(weber, 0, slash)
    assert mapping == tuple(range(73))  # '/' still occurs in another block
    assert derived == corpus.diagram("73-78-single")
    with pytest.raises(IndexOutOfRange):
        drop_atom_from_block(weber, 1, slash)


def test_element_count_examples():
    assert element_count(parse_mmp("123.")) == 8
    assert element_count(corpus.diagram("73-78-ngv")) == 154
    assert element_count(corpus.diagram("73-78-single")) == 148
    with pytest.raises(NotAdmissible):
        element_count(parse_mmp(SQUARE))


def test_element_count_matches_built_poset(rng):
    for name in ("35-35a", "36-36", "44-44", "73-78-ngv"):
        d = corpus.diagram(name)
        assert element_count(d) == len(build_oml(d))
    for _ in range(25):
        d = random_admissible(rng, max_blocks=12)
        if validate(d).greechie_admissible:
            assert element_count(d) == len(build_oml(d))


def test_corpus_round_trip_respects_block_order():
    for entry in corpus.ENTRIES:
        d = entry.diagram()
        line = serialize_mmp(d)
        # same blocks in the same order, atoms within blocks re-sorted
        assert parse_mmp(line) == d
        assert line.count(",") == entry.mmp_line.count(",")
        for ours, stored in zip(line[:-1].split(","), entry.mmp_line[:-1].split(",")):
            assert sorted(ours) == sorted(stored)


def test_min_girth_constant():
    assert MIN_GREECHIE_GIRTH == 5


def test_every_reader_shares_the_one_check_a_diagram_keeps(monkeypatch):
    # require_mmp, and canon through it, run neither the girth search nor
    # the connectivity scan; every reader after validate reaches no check,
    # and validate, min_loop, girth and max_loop's spent-budget fallback
    # share one girth search, whichever of them reads first
    from greechie import structure
    from greechie.render import render_dot
    from greechie.states import classify_states
    from greechie.symmetry import canonical_form

    def refused(*args):
        raise AssertionError("the MMP requirement ran a search of validate's")

    checked, cycles = [], []
    checks, cycle = structure._checks, structure._shortest_incidence_cycle
    monkeypatch.setattr(structure, "_checks", lambda d: checked.append(d) or checks(d))
    monkeypatch.setattr(structure, "_shortest_incidence_cycle", lambda d: cycles.append(d) or cycle(d))
    d = parse_mmp("123,345,567,789,9A1.")
    with monkeypatch.context() as m:
        m.setattr(structure, "_shortest_incidence_cycle", refused)
        m.setattr(structure, "is_connected", refused)
        require_mmp(d)
        assert all(mmp_checks(d)) and canonical_form(d).automorphism_count == 10
    assert validate(d).greechie_admissible
    require_admissible(d)
    assert min_loop(d).order == girth(d) == max_loop(d).order == max_loop(d, budget=0).order == 5
    assert d.degrees() == [2, 1] * 5 and dual(d).block_count == 10
    assert classify_states(d).classification.value == "MoreThanOne"
    assert len(build_oml(d)) == element_count(d) == 22
    assert render_dot(d).startswith("graph mmp {")
    assert len(checked) == 1 and checked[0] is d
    e = parse_mmp("123,345,567,789,9AB,BC1.")
    assert not max_loop(e, budget=0).exact and validate(e).girth == girth(e) == min_loop(e).order == 6
    assert len(cycles) == 2 and cycles[0] is d and cycles[1] is e
