import gc
import inspect
import json
import math
import random
import sys
import time
from pathlib import Path

import pytest

from greechie import corpus, symmetry
from greechie.diagram import MmpDiagram, incidence, load_diagram_line, parse_mmp, twin_classes
from greechie.errors import NotValidated, SizeMismatch
from greechie.generate import GenSpec, generate
from greechie.render import render_dot
from greechie.states import admits_strong_set, enumerate_01_states
from greechie.structure import dual, girth, is_connected, max_loop, mmp_checks, validate
from greechie.symmetry import (
    Permutation,
    _canonical_search,
    _refiner,
    are_isomorphic,
    canonical_form,
    is_self_dual,
    relabel,
)
from conftest import block_cycle, pendant_tree, random_diagram, random_mmp, twin_rich, within
from oracles import brute_automorphism_count, closure_order, refine_by_signatures

PENTAGON = "123,345,567,789,9A1."
CANON_RECORDED = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "canon.json"


def shuffled(d, rng):
    pi = list(range(d.atom_count))
    rng.shuffle(pi)
    return relabel(d, Permutation(tuple(pi))), Permutation(tuple(pi))


def test_permutation_basics():
    pi = Permutation((2, 0, 1))
    assert pi.inverse().compose(pi).mapping == (0, 1, 2)
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_relabel_identity_and_composition(rng):
    d = parse_mmp(PENTAGON)
    ident = Permutation.identity(d.atom_count)
    assert relabel(d, ident) == d
    r, pi = shuffled(d, rng)
    back = relabel(r, pi.inverse())
    assert sorted(back.blocks) == sorted(d.blocks)
    with pytest.raises(SizeMismatch):
        relabel(d, Permutation((0, 1, 2)))


def test_relabel_preserves_girth(rng):
    for name in ("35-35a", "36-36"):
        d = corpus.diagram(name)
        r, _ = shuffled(d, rng)
        assert girth(r) == girth(d)


def test_canonical_form_requires_validity():
    with pytest.raises(NotValidated):
        canonical_form(MmpDiagram(4, ((0, 1, 2),)))


def test_canonical_form_relabeling_invariance(rng):
    for name in ("35-35a", "36-36", "38-38f"):
        d = corpus.diagram(name)
        base = canonical_form(d)
        for _ in range(10):
            r, _ = shuffled(d, rng)
            assert canonical_form(r) == base


def test_canonical_forms_of_35s_are_distinct():
    texts = {canonical_form(corpus.diagram(f"35-35{x}")).canonical_text for x in "abcde"}
    assert len(texts) == 5


def test_36_36_automorphisms_multiple_of_9():
    cf = canonical_form(corpus.diagram("36-36"))
    assert cf.automorphism_count % 9 == 0


def test_automorphism_count_matches_brute_force(rng):
    checked = 0
    for _ in range(60):
        d = random_diagram(rng, max_atoms=9, max_blocks=4)
        rep = validate(d)
        if not (rep.mmp_i and rep.mmp_ii and rep.mmp_iii):
            continue
        assert canonical_form(d).automorphism_count == brute_automorphism_count(d)
        checked += 1
    assert checked > 15
    # 2-3 copies of one component, each relabelled within its own atom range:
    # k! times the component order to the k
    copies = 0
    while copies < 12:
        c = random_diagram(rng, max_atoms=5, max_blocks=2)
        rep = validate(c)
        if not (rep.mmp_i and rep.mmp_ii and rep.mmp_iii):
            continue
        k = rng.choice((2, 3))
        n = c.atom_count
        blocks = []
        for i in range(k):
            r, _ = shuffled(c, rng)
            blocks += [tuple(i * n + a for a in b) for b in r.blocks]
        rng.shuffle(blocks)
        d = MmpDiagram(k * n, tuple(blocks))
        expected = math.factorial(k) * brute_automorphism_count(c) ** k
        assert canonical_form(d).automorphism_count == brute_automorphism_count(d) == expected
        copies += 1


def test_automorphism_count_disjoint_blocks():
    # each isolated block contributes 3! and the blocks themselves permute
    d = parse_mmp("123,456.")
    assert canonical_form(d).automorphism_count == brute_automorphism_count(d) == 72
    d3 = parse_mmp("123,456,789.")
    assert canonical_form(d3).automorphism_count == brute_automorphism_count(d3) == 1296
    # closed forms far beyond what enumerating the group could reach; 2 s for all
    t0 = time.perf_counter()
    for k in range(4, 8):
        star = MmpDiagram(2 * k + 1, tuple((2 * i, 2 * i + 1, 2 * k) for i in range(k)))
        assert canonical_form(star).automorphism_count == math.factorial(k) * 2**k
    for k, order in ((4, 31104), (8, 67722117120)):
        disjoint = MmpDiagram(3 * k, tuple((3 * i, 3 * i + 1, 3 * i + 2) for i in range(k)))
        assert canonical_form(disjoint).automorphism_count == math.factorial(k) * 6**k == order
    assert time.perf_counter() - t0 < 2.0


def test_are_isomorphic_witness(rng):
    d = corpus.diagram("38-38b")
    r, _ = shuffled(d, rng)
    pi = are_isomorphic(d, r)
    assert pi is not None
    assert sorted(relabel(d, pi).blocks) == sorted(r.blocks)


def test_are_isomorphic_with_an_empty_block():
    # an empty block belongs to no component (JSON input can hold one)
    d = MmpDiagram(3, ((0, 1, 2), ()))
    assert are_isomorphic(d, d) == Permutation.identity(3)
    assert are_isomorphic(d, MmpDiagram(3, ((), (0, 1, 2)))) is not None
    assert are_isomorphic(d, MmpDiagram(3, ((0, 1, 2), (0,)))) is None


def test_are_isomorphic_negative_cases():
    assert are_isomorphic(corpus.diagram("35-35a"), corpus.diagram("35-35b")) is None
    assert are_isomorphic(corpus.diagram("73-73"), corpus.diagram("44-44")) is None


def test_canonical_equality_is_isomorphism(rng, monkeypatch):
    # equal canonical text <=> witness exists, on random pairs
    pool = []
    while len(pool) < 12:
        d = random_diagram(rng, max_atoms=8, max_blocks=4)
        rep = validate(d)
        if rep.mmp_i and rep.mmp_ii and rep.mmp_iii:
            pool.append(d)
    for i, d1 in enumerate(pool):
        for d2 in pool[i:]:
            same = canonical_form(d1).canonical_text == canonical_form(d2).canonical_text
            assert same == (are_isomorphic(d1, d2) is not None)
    # connected MMP diagrams, where are_isomorphic takes one leaf of the
    # second diagram's search: each paired with a relabelled copy of itself,
    # of itself with one block moved off an atom onto another (non-isomorphic,
    # since the degrees change), or of itself with two blocks trading atoms
    # (the degrees stay, so only the search tells)
    pairs, moved = [], 0
    while len(pairs) < 360:
        d = random_mmp(rng, sizes=rng.choice(((3,), (3, 4), (3, 4, 5))))
        if d.block_count < 3 or not is_connected(d):
            continue
        kind = len(pairs) % 3
        e = rewired(d, rng, keep_degrees=kind == 2) if kind else d
        if e is None or (kind == 1 and degrees(e) == degrees(d)):
            continue
        pairs.append((d, shuffled(e, rng)[0]))
        moved += kind == 1
    # blocks {i, i + 1, i + 3} mod k: self-dual, as atom i to block -i maps
    # the dual onto the diagram
    for k in range(7, 13):
        c = MmpDiagram(k, tuple(tuple(sorted((i, (i + 1) % k, (i + 3) % k))) for i in range(k)))
        pairs.append((shuffled(c, rng)[0], shuffled(c, rng)[0]))
    differ = self_dual = 0
    for d, e in pairs:
        same = canonical_form(d).canonical_text == canonical_form(e).canonical_text
        pi = are_isomorphic(d, e)
        assert same == (pi is not None)
        if pi is not None:
            assert sorted(relabel(d, pi).blocks) == sorted(e.blocks)
        dd = dual(d)
        claim = all(mmp_checks(dd)) and canonical_form(d) == canonical_form(dd)
        assert is_self_dual(d) == claim
        differ += not same
        self_dual += claim
    assert moved >= 100 and differ > moved and self_dual >= 6
    # a connected and a disconnected diagram of 9 atoms and 4 blocks: told
    # apart before any search
    calls = counted_refines(monkeypatch)
    path, split = parse_mmp("123,345,567,789."), parse_mmp("123,345,561,789.")
    assert are_isomorphic(path, split) is None and are_isomorphic(split, path) is None
    assert calls[0] == 0


def degrees(d: MmpDiagram) -> list[int]:
    return sorted(sum(a in b for b in d.blocks) for a in range(d.atom_count))


def rewired(d: MmpDiagram, rng, keep_degrees: bool) -> MmpDiagram | None:
    """d with atom y of one block replaced by an atom x outside it and, with
    ``keep_degrees``, x replaced by y in a second block; None unless the
    result is a connected MMP diagram without repeated blocks."""
    blocks = [list(b) for b in d.blocks]
    i, j = rng.sample(range(len(blocks)), 2)
    y = rng.choice(blocks[i])
    x = rng.choice([a for a in range(d.atom_count) if a not in blocks[i]])
    blocks[i] = [x if a == y else a for a in blocks[i]]
    if keep_degrees:
        if y in blocks[j] or x not in blocks[j]:
            return None
        blocks[j] = [y if a == x else a for a in blocks[j]]
    e = MmpDiagram(d.atom_count, tuple(tuple(sorted(b)) for b in blocks))
    if len(set(e.blocks)) < len(e.blocks) or not all(mmp_checks(e)) or not is_connected(e):
        return None
    return e


def test_is_self_dual_corpus_claims(monkeypatch):
    # at most one canonical search of d plus the first path of its dual's
    # search (the refines up to its first leaf); two whole searches would
    # take 78 refines on 38-38a, where this bound is 41
    calls = counted_refines(monkeypatch)
    claims = {"35-35e": True, "36-36": True}
    claims.update({f"38-38{x}": True for x in "abcdefgh"})
    claims.update({f"35-35{x}": False for x in "abcd"})
    for name, claim in claims.items():
        d = corpus.diagram(name)
        dd = dual(d)
        calls[:] = [0]
        _canonical_search(dd.blocks, dd.incident_blocks())
        first_path = calls[1]
        calls[:] = [0]
        _canonical_search(d.blocks, d.incident_blocks())
        bound = calls[0] + first_path
        calls[:] = [0]
        assert is_self_dual(d) is claim, name
        assert calls[0] <= bound, name


def test_is_self_dual_invalid_dual_is_false():
    # pentagon's dual has 2-atom blocks, hence not even MMP-valid
    assert not is_self_dual(parse_mmp(PENTAGON))


def test_corpus_searches_read_the_incidence_each_diagram_keeps(monkeypatch):
    # the corpus lattices are connected, so canonical_form and is_self_dual
    # hand the search the incidence that each diagram and its dual keep; only
    # a search per component counts one, for the component
    def refused(*args):
        raise AssertionError("the canonical search counted an incidence")

    monkeypatch.setattr(symmetry, "incidence", refused)
    for name in corpus.names():
        d = corpus.diagram(name)
        assert canonical_form(d).canonical_text
        is_self_dual(d)


def test_incremental_refine_matches_full_signature_oracle(rng):
    # from the initial coloring, then after individualizing each atom of the
    # first cell the search would branch on.  Random cubic diagrams (3-uniform,
    # every atom of degree 3) and the 35- to 44-atom corpus lattices take the
    # unrolled degree-3 signatures; 3-uniform diagrams of mixed degree, 73-73
    # and 73-78-single among them, mix them with the partner-pair keys, cell by
    # cell; the others, 73-78-ngv among them, take the size-prefixed keys, up
    # to size 8.  The returned colors must be the last positions of their
    # cells, their dense ranks the oracle's coloring, and no cell list given to
    # refine may change
    pool = [corpus.diagram(name) for name in corpus.names()]
    cubic = mixed = 0
    while cubic < 100:
        d = random_cubic(rng, rng.randrange(4, 19))
        if d is not None:
            pool.append(d)
            cubic += 1
    while mixed < 100:
        d = random_diagram(rng, max_atoms=12, max_blocks=12)
        if is_connected(d) and 3 in degrees(d) and len(set(degrees(d))) > 1:
            pool.append(d)
            mixed += 1
    shapes = [(3, 4, 5), (3, 5, 8), (4, 6, 7, 8)]
    for i in range(225):
        while not is_connected(d := random_diagram(rng, max_atoms=16, max_blocks=10, sizes=shapes[i % 3])):
            pass
        pool.append(d)
    assert sum(any(len(b) == 8 for b in d.blocks) for d in pool) > 60
    branched = 0
    for d in pool:
        n = d.atom_count
        refine = _refiner(d.blocks, n)
        profiles = [sorted(len(b) for b in d.blocks if a in b) for a in range(n)]
        sigs = [(len(p), tuple(p)) for p in profiles]
        initial = [sorted(set(sigs)).index(s) for s in sigs]
        want = refine_by_signatures(d.blocks, n, initial)
        colors, cells = refine(*last_positions(initial), range(n))
        assert_refined(colors, cells, want)
        big = [(len(v), c) for c, v in cells.items() if len(v) > 1]
        if not big:
            continue
        c = min(big)[1]
        cell, start = cells[c], c + 1 - len(cells[c])
        given = (colors[:], {e: v[:] for e, v in cells.items()})
        for a in cell:  # individualized as the search does: a takes the cell's first position
            ind, sub = colors[:], {**cells, start: [a], c: [x for x in cell if x != a]}
            ind[a] = start
            assert_refined(*refine(ind, sub, [a]), refine_by_signatures(d.blocks, n, ranks(ind)))
            assert (colors, cells) == given
            branched += 1
    assert branched > 300


def random_cubic(rng, n: int) -> MmpDiagram | None:
    """n atoms on n random 3-atom blocks, every atom on three of them, or
    None when a block repeats an atom or the diagram is not connected."""
    points = [a for a in range(n) for _ in range(3)]
    rng.shuffle(points)
    blocks = tuple(tuple(points[i : i + 3]) for i in range(0, 3 * n, 3))
    if any(len(set(b)) < 3 for b in blocks):
        return None
    d = MmpDiagram(n, blocks)
    return d if is_connected(d) else None


def ranks(colors: list[int]) -> list[int]:
    """The dense ranks of a coloring's colors."""
    rank = {c: r for r, c in enumerate(sorted(set(colors)))}
    return [rank[c] for c in colors]


def last_positions(dense: list[int]) -> tuple[list[int], dict[int, list[int]]]:
    """A dense coloring recolored by the last position of each cell, and its
    cells keyed by color, as ascending atom lists."""
    ends = {}
    for c in sorted(set(dense)):
        ends[c] = sum(x <= c for x in dense) - 1
    colors = [ends[c] for c in dense]
    return colors, {ends[c]: [a for a in range(len(dense)) if dense[a] == c] for c in ends}


def assert_refined(colors: list[int], cells: dict[int, list[int]], want: list[int]) -> None:
    """``colors`` ranks as the dense coloring ``want``, and with ``cells`` it
    colors each cell of ``want`` by its last position."""
    assert ranks(colors) == want
    assert (colors, cells) == last_positions(want)


def test_search_generators_generate_the_automorphism_group(rng):
    # every generator maps the block multiset onto itself, and together they
    # generate a group of order |Aut|; isolated atoms are fixed by every
    # generator and left out of |Aut|, so the brute count is divided by k!
    checked = repeated = isolated = 0
    while checked < 40:
        c = random_diagram(rng, max_atoms=6, max_blocks=3)
        copies = rng.choice((1, 1, 2, 3))
        extra = rng.choice((0, 0, 1, 2))
        n = copies * c.atom_count + extra
        if n > 9:
            continue
        place = list(range(n))
        rng.shuffle(place)
        blocks = []
        for i in range(copies):
            r, _ = shuffled(c, rng)
            blocks += [tuple(place[i * c.atom_count + a] for a in b) for b in r.blocks]
        if rng.random() < 0.5:
            other = random_diagram(rng, max_atoms=4, max_blocks=2)
            blocks += [tuple(n + a for a in b) for b in other.blocks]
            n += other.atom_count
        rng.shuffle(blocks)
        d = MmpDiagram(n, tuple(blocks))
        _, _, order, gens = _canonical_search(d.blocks, d.incident_blocks())
        target = sorted(tuple(sorted(b)) for b in d.blocks)
        for g in gens:
            assert sorted(g) == list(range(n))
            assert sorted(tuple(sorted(g[a] for a in b)) for b in d.blocks) == target
        assert closure_order(gens, n) == order
        assert order * math.factorial(extra) == brute_automorphism_count(d)
        checked += 1
        repeated += copies > 1
        isolated += extra > 0
    assert repeated >= 10 and isolated >= 10


def counted_refines(monkeypatch) -> list[int]:
    """Patch the search's refiner to count its calls into the returned list:
    the count is its first item, and each call that returns a discrete
    coloring (a leaf) appends the count so far."""
    calls = [0]
    make = symmetry._refiner

    def counting(blocks, n):
        refine = make(blocks, n)

        def wrapped(colors, cells, moved):
            calls[0] += 1
            out, cells = refine(colors, cells, moved)
            if len(cells) == len(out):
                calls.append(calls[0])
            return out, cells

        return wrapped

    monkeypatch.setattr(symmetry, "_refiner", counting)
    return calls


@pytest.mark.parametrize("k", range(3, 9))
def test_twins_of_one_block_cost_one_refine_each(monkeypatch, k):
    # the k atoms of one block are twins, one cell of the initial coloring,
    # which is split in one step with no refinement: the initial refinement
    # is the only one
    calls = counted_refines(monkeypatch)
    blocks = (tuple(range(k)),)
    code, _, order, gens = _canonical_search(blocks, incidence(blocks, k))
    assert calls[0] == 1
    assert code == blocks and order == math.factorial(k)
    assert closure_order(gens, k) == order


def star(k: int) -> MmpDiagram:
    """k blocks through one centre; the other two atoms of each are twins."""
    return MmpDiagram(2 * k + 1, tuple((2 * i, 2 * i + 1, 2 * k) for i in range(k)))


@pytest.mark.parametrize("k", [40, 80, 300])
def test_canon_of_a_large_star_in_bounded_time(monkeypatch, rng, k):
    # the spokes are pendant blocks at the centre, so the swaps of spokes
    # next in the order of their least atoms, like those of the twin spoke
    # ends, are known before the search starts.  The first path
    # individualizes spokes in that order, so at every node the swaps of
    # the spokes left put them in one orbit: the first path, whose last
    # cell is two twins, is the whole search, k refines, in any labelling.
    # With the twin swaps alone each node at depth i searched one child
    # more, k(k + 1) / 2 refines, and k = 300 took 4.9 s
    calls = counted_refines(monkeypatch)
    for d in (star(k), shuffled(star(k), rng)[0]):
        calls[:] = [0]
        form = within(1.5, lambda: canonical_form(d), f"canon of the {k}-spoke star")
        assert form.automorphism_count == math.factorial(k) * 2**k
        assert calls[0] == k


def test_canonical_text_past_the_alphabet_is_json_that_round_trips():
    # 93 atoms are more than the MMP characters, so the text is the JSON
    # interchange form, which reads back to a diagram with the same text
    # and |Aut|
    k = 46
    form = canonical_form(star(k))
    assert form.canonical_text.startswith('{"atoms": 93, "blocks": [[')
    assert canonical_form(load_diagram_line(form.canonical_text)) == form
    assert form.automorphism_count == math.factorial(k) * 2**k


def disjoint_blocks(k: int) -> MmpDiagram:
    return MmpDiagram(3 * k, tuple((3 * i, 3 * i + 1, 3 * i + 2) for i in range(k)))


def test_twin_rich_search_matches_brute_force(rng):
    # code, |Aut| and generators where twin classes abound, so that cells of
    # twins split in one step and leaves repeat codes.  On random twin-rich
    # diagrams and the small stars |Aut| is checked by backtracking; on the
    # larger stars, disjoint blocks and block cycles against its closed form;
    # on corpus lattices, which are too large for either, only as below.
    # Everywhere the generators must be automorphisms that generate a group
    # of order |Aut| (where it is small enough to list), and code and |Aut|
    # must stay under relabelling.
    pool = [(twin_rich(rng, max_atoms=rng.randrange(5, 10)), "brute") for _ in range(60)]
    pool += [(star(k), "brute") for k in (2, 3, 4)]
    pool += [(star(k), math.factorial(k) * 2**k) for k in (5, 6, 7)]
    pool += [(disjoint_blocks(k), math.factorial(k) * 6**k) for k in (2, 3, 4, 8)]
    pool += [(block_cycle(k), 2 * k) for k in (3, 5, 8, 12, 20)]
    pool += [(corpus.diagram(name), None) for name in ("35-35a", "35-35e", "36-36", "38-38c", "44-44", "73-73")]
    twins = listed = 0
    for d, count in pool:
        n = d.atom_count
        code, perm, order, gens = _canonical_search(d.blocks, d.incident_blocks())
        assert tuple(sorted(tuple(sorted(perm[a] for a in b)) for b in d.blocks)) == code
        target = sorted(tuple(sorted(b)) for b in d.blocks)
        for g in gens:
            assert sorted(tuple(sorted(g[a] for a in b)) for b in d.blocks) == target
        if count == "brute":
            assert order == brute_automorphism_count(d)
        elif count is not None:
            assert order == count
        if count == "brute" or order <= 5000:
            assert closure_order(gens, n) == order
            listed += 1
        for _ in range(3):
            r, _ = shuffled(d, rng)
            assert _canonical_search(r.blocks, r.incident_blocks())[::2] == (code, order)
        on = [tuple(i for i, b in enumerate(d.blocks) if a in b) for a in range(n)]
        twins += len(set(on)) < n
    assert twins > 0.8 * len(pool) and listed > 70


def test_pendant_block_seeds_are_automorphisms_of_the_diagram(rng):
    # block-trees whose 3- and 4-atom blocks hang at shared hubs, some with
    # a cycle closed through them, some with pendant blocks of two sizes at
    # one hub.  A search that stops at its first leaf returns the seeded
    # swaps alone as its generators; each must map the blocks onto
    # themselves, which a swap of pendant blocks of two sizes, or of a
    # block with a second hub, does not.  |Aut| is checked by backtracking
    # and by listing the group, and the canonical text must stay under
    # relabelling
    swapped = mixed = 0
    for i in range(200):
        d = pendant_tree(rng, rng.randrange(8, 13), loop=i % 3 == 0)
        n, target = d.atom_count, sorted(d.blocks)
        incident = incidence(d.blocks, n)
        seeds = _canonical_search(d.blocks, incident, until=lambda code: True)[3]
        for g in seeds:
            assert sorted(tuple(sorted(g[a] for a in b)) for b in d.blocks) == target
        twins = twin_classes(incident)
        swapped += any(twins[g[a]] is not twins[a] for g in seeds for a in range(n))
        sizes: dict[int, set[int]] = {}
        for b in d.blocks:
            if len(hubs := [a for a in b if len(incident[a]) > 1]) == 1:
                sizes.setdefault(hubs[0], set()).add(len(b))
        mixed += any(len(s) > 1 for s in sizes.values())
        form = canonical_form(d)
        order, gens = _canonical_search(d.blocks, incident)[2:]
        assert form.automorphism_count == order == brute_automorphism_count(d) == closure_order(gens, n)
        assert canonical_form(shuffled(d, rng)[0]) == form
    assert swapped > 80 and mixed > 50


def test_component_memo_returns_the_memo_free_search(rng):
    # one memo shared by every search below, as generation shares one per
    # run: on disconnected diagrams whose components repeat, in the same or
    # another local labelling, with isolated atoms and empty blocks, and on
    # the inputs of the canon workload (each corpus lattice relabelled five
    # times, stars, disjoint blocks and block cycles), every search returns
    # exactly what a search with its own memo returns
    pool = [parse_mmp("123."), parse_mmp("123,345."), parse_mmp("124,135,236.")]
    while len(pool) < 12:
        d = random_diagram(rng, max_atoms=8, max_blocks=4, sizes=(3, 4))
        if is_connected(d):
            pool.append(d)
    inputs, searched, extras = [], 0, {"repeated": 0, "isolated": 0, "empty": 0}
    while len(inputs) < 400:
        parts = [rng.choice(pool) for _ in range(rng.randrange(2, 5))]
        parts = [shuffled(c, rng)[0] if rng.random() < 0.5 else c for c in parts]
        isolated = rng.choice((0, 0, 1, 2))
        n = sum(c.atom_count for c in parts) + isolated
        place = list(range(n))
        if rng.random() < 0.5:  # else each part keeps its atoms' order
            rng.shuffle(place)
        blocks, offset = [], 0
        for c in parts:
            blocks += [tuple(place[offset + a] for a in b) for b in c.blocks]
            offset += c.atom_count
        if rng.random() < 0.25:
            blocks.append(())
        if rng.random() < 0.5:
            rng.shuffle(blocks)
        inputs.append(MmpDiagram(n, tuple(blocks)))
        searched += len(parts)
        extras["repeated"] += len({c.blocks for c in parts}) < len(parts)
        extras["isolated"] += isolated > 0
        extras["empty"] += () in blocks
    for d in [corpus.diagram(name) for name in corpus.names()]:
        inputs += [shuffled(d, rng)[0] for _ in range(5)]
    inputs += [star(k) for k in (4, 5, 6, 7)] + [disjoint_blocks(k) for k in (2, 3, 4, 8)]
    inputs += [block_cycle(k) for k in (5, 8, 12, 20)]
    assert len(inputs) == 502 and min(extras.values()) > 60
    memo = {}
    for d in inputs:
        incident = d.incident_blocks()
        assert _canonical_search(d.blocks, incident, memo) == _canonical_search(d.blocks, incident)
    # most components were met before
    assert 0 < len(memo) < searched / 2


def test_each_distinct_component_is_searched_once_per_call(monkeypatch):
    # without a memo, a search keeps its own: eight disjoint blocks take one
    # search of one block, and two copies of the 3-spoke star beside them,
    # on interleaved atoms in one order, take one more
    calls = [0]
    real = symmetry._search_connected

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(symmetry, "_search_connected", counted)
    blocks = disjoint_blocks(8).blocks
    spokes = tuple(tuple(k + 2 * a for a in b) for k in (24, 25) for b in star(3).blocks)
    blocks_order = math.factorial(8) * 6**8
    for d, searched, order in (
        (disjoint_blocks(8), 1, blocks_order),
        (MmpDiagram(38, blocks + spokes), 2, blocks_order * 2 * 48**2),
    ):
        calls[0] = 0
        assert _canonical_search(d.blocks, d.incident_blocks())[2] == order
        assert calls[0] == searched


def test_refines_of_the_7_spoke_star_and_35_35a(monkeypatch):
    # the pairs of spoke-end twins split in one step, the seeded swaps of
    # pendant spokes leave the star's first path the only one, and a leaf
    # that repeats a code returns the search to where its path parted from
    # the earlier leaf's; individualizing the twins one at a time and
    # searching on below such leaves takes 85 and 34 refines, and without
    # the pendant seeds the star takes 28
    calls = counted_refines(monkeypatch)
    for d, bound in ((star(7), 7), (corpus.diagram("35-35a"), 23)):
        calls[:] = [0]
        _canonical_search(d.blocks, d.incident_blocks())
        assert calls[0] <= bound


#: refines and leaves of the search of each corpus lattice as published and
#: under two relabellings (``test_corpus_search_trees_are_pinned``)
SEARCH_TREES = {
    "35-35a": ((23, 9), (15, 6), (20, 8)),
    "35-35b": ((23, 11), (22, 12), (22, 11)),
    "35-35c": ((17, 8), (15, 7), (19, 9)),
    "35-35d": ((21, 10), (19, 10), (23, 13)),
    "35-35e": ((18, 8), (17, 8), (22, 11)),
    "36-36": ((17, 10), (15, 9), (15, 9)),
    "38-38a": ((39, 38), (39, 38), (39, 38)),
    "38-38b": ((23, 17), (16, 12), (16, 12)),
    "38-38c": ((39, 38), (39, 38), (39, 38)),
    "38-38d": ((26, 23), (24, 21), (24, 21)),
    "38-38e": ((19, 16), (23, 20), (18, 15)),
    "38-38f": ((19, 15), (18, 13), (15, 11)),
    "38-38g": ((24, 21), (25, 22), (24, 21)),
    "38-38h": ((22, 19), (21, 18), (18, 15)),
    "44-44": ((4, 3), (4, 3), (4, 3)),
    "73-78-ngv": ((1, 1), (1, 1), (1, 1)),
    "73-78-single": ((1, 1), (1, 1), (1, 1)),
    "73-73": ((1, 1), (1, 1), (1, 1)),
}


def test_corpus_search_trees_are_pinned(monkeypatch):
    # the canonical text and |Aut| recorded for the canon workload, and the
    # refines and leaves of the search, on every corpus lattice and two
    # relabellings of each: a change to the search tree (the refinement's
    # splits or part order, the target cell, the child order or a prune)
    # moves these counts.  The lattices have no twins, so every leaf is
    # reached through a refine
    recorded = json.loads(CANON_RECORDED.read_text())
    calls = counted_refines(monkeypatch)
    rng = random.Random(35)
    assert tuple(SEARCH_TREES) == corpus.names()
    for name, trees in SEARCH_TREES.items():
        d = corpus.diagram(name)
        for i, tree in enumerate(trees):
            r = shuffled(d, rng)[0] if i else d
            calls[:] = [0]
            form = canonical_form(r)
            assert form.canonical_text == recorded[name]["canonical"], name
            assert form.automorphism_count == recorded[name]["aut"], name
            assert (calls[0], len(calls) - 1) == tree, (name, i)


def test_recursive_searches_leave_no_garbage():
    # nothing may be left for the cyclic collector.  No search holds itself
    # any more: the canonical search, the loop search and the states layer
    # all run loops over explicit lists, and are checked for cycles all the
    # same
    d = corpus.diagram("35-35a")
    calls = [
        lambda: canonical_form(d),
        lambda: is_self_dual(d),
        lambda: enumerate_01_states(d),
        lambda: admits_strong_set(d),
        lambda: max_loop(d, budget=100),  # the budget runs out
        lambda: render_dot(d),  # the budgeted max_loop of render
        lambda: max_loop(corpus.diagram("36-36")),  # the search finishes
        lambda: generate(GenSpec(12, 6), lambda line: None),  # a canonical search per node
    ]
    gc.disable()
    try:
        gc.collect()
        for call in calls:
            call()
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_deep_search_never_hits_the_recursion_limit():
    # the 80-spoke star's first path individualizes 80 spoke ends, one
    # branching node each; the search keeps them on its own stack, so it
    # runs within 40 frames above its caller
    k = 80
    star = MmpDiagram(2 * k + 1, tuple((2 * i, 2 * i + 1, 2 * k) for i in range(k)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 40)
    try:
        order = canonical_form(star).automorphism_count
    finally:
        sys.setrecursionlimit(limit)
    assert order == math.factorial(k) * 2**k
