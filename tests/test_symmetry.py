import gc
import math
import time

import pytest

from greechie import corpus, symmetry
from greechie.diagram import MmpDiagram, parse_mmp
from greechie.errors import NotValidated, SizeMismatch
from greechie.generate import GenSpec, generate
from greechie.render import render_dot
from greechie.states import enumerate_01_states
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
from conftest import random_diagram, random_mmp, twin_rich
from oracles import brute_automorphism_count, closure_order, refine_by_signatures

PENTAGON = "123,345,567,789,9A1."


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
        _canonical_search(dd.blocks, dd.atom_count)
        first_path = calls[1]
        calls[:] = [0]
        _canonical_search(d.blocks, d.atom_count)
        bound = calls[0] + first_path
        calls[:] = [0]
        assert is_self_dual(d) is claim, name
        assert calls[0] <= bound, name


def test_is_self_dual_invalid_dual_is_false():
    # pentagon's dual has 2-atom blocks, hence not even MMP-valid
    assert not is_self_dual(parse_mmp(PENTAGON))


def test_incremental_refine_matches_full_signature_oracle(rng):
    # from the initial coloring, then after individualizing each atom of the
    # first cell the search would branch on; 3-uniform diagrams take the
    # partner-pair keys, the others the size-prefixed keys up to size 8
    pool = [corpus.diagram(name) for name in ("35-35a", "36-36", "38-38f")]
    shapes = [(3,), (3, 4, 5), (3, 5, 8), (4, 6, 7, 8)]
    while len(pool) < 300:
        d = random_diagram(rng, max_atoms=16, max_blocks=10, sizes=shapes[len(pool) % len(shapes)])
        if is_connected(d):
            pool.append(d)
    assert sum(all(len(b) == 3 for b in d.blocks) for d in pool) > 60
    assert sum(any(len(b) == 8 for b in d.blocks) for d in pool) > 60
    branched = 0
    for d in pool:
        n = d.atom_count
        refine = _refiner(d.blocks, n)
        profiles = [sorted(len(b) for b in d.blocks if a in b) for a in range(n)]
        sigs = [(len(p), tuple(p)) for p in profiles]
        initial = [sorted(set(sigs)).index(s) for s in sigs]
        colors = refine_by_signatures(d.blocks, n, initial)
        cells = cells_of(colors)
        assert refine(initial, range(n)) == (colors, cells)
        big = [(len(v), c) for c, v in enumerate(cells) if len(v) > 1]
        if not big:
            continue
        cell = cells[min(big)[1]]
        for a in cell:
            ca = colors[a]
            ind = [c + 1 if (c > ca or (c == ca and x != a)) else c for x, c in enumerate(colors)]
            want = refine_by_signatures(d.blocks, n, ind)
            assert refine(ind, [a]) == (want, cells_of(want))
            branched += 1
    assert branched > 200


def cells_of(colors: list[int]) -> list[list[int]]:
    """The cells of a dense coloring, as ascending atom lists in color order."""
    cells = [[] for _ in range(max(colors) + 1)]
    for a, c in enumerate(colors):
        cells[c].append(a)
    return cells


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
        _, _, order, gens = _canonical_search(d.blocks, n)
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

        def wrapped(colors, moved):
            calls[0] += 1
            out, cells = refine(colors, moved)
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
    code, _, order, gens = _canonical_search((tuple(range(k)),), k)
    assert calls[0] == 1
    assert code == (tuple(range(k)),) and order == math.factorial(k)
    assert closure_order(gens, k) == order


def star(k: int) -> MmpDiagram:
    """k blocks through one centre; the other two atoms of each are twins."""
    return MmpDiagram(2 * k + 1, tuple((2 * i, 2 * i + 1, 2 * k) for i in range(k)))


def disjoint_blocks(k: int) -> MmpDiagram:
    return MmpDiagram(3 * k, tuple((3 * i, 3 * i + 1, 3 * i + 2) for i in range(k)))


def block_cycle(k: int) -> MmpDiagram:
    """k blocks in a ring, each sharing one atom with the next: |Aut| = 2k."""
    return MmpDiagram(2 * k, tuple((2 * i, 2 * i + 1, (2 * i + 2) % (2 * k)) for i in range(k)))


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
        code, perm, order, gens = _canonical_search(d.blocks, n)
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
            assert _canonical_search(r.blocks, n)[::2] == (code, order)
        on = [tuple(i for i, b in enumerate(d.blocks) if a in b) for a in range(n)]
        twins += len(set(on)) < n
    assert twins > 0.8 * len(pool) and listed > 70


def test_component_memo_returns_the_memo_free_search(rng):
    # one memo shared by every search below, as generation shares one per
    # run: on disconnected diagrams whose components repeat, in the same or
    # another local labelling, with isolated atoms and empty blocks, and on
    # the inputs of the canon workload (each corpus lattice relabelled five
    # times, stars, disjoint blocks and block cycles), every search returns
    # exactly what a search without the memo returns
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
        assert _canonical_search(d.blocks, d.atom_count, memo) == _canonical_search(d.blocks, d.atom_count)
    # most components were met before
    assert 0 < len(memo) < searched / 2


def test_refines_of_the_7_spoke_star_and_35_35a(monkeypatch):
    # the pairs of spoke-end twins split in one step, and a leaf that
    # repeats a code returns the search to where its path parted from the
    # earlier leaf's; individualizing the twins one at a time and searching
    # on below such leaves takes 85 and 34 refines
    calls = counted_refines(monkeypatch)
    _canonical_search(star(7).blocks, 15)
    assert calls[0] <= 28
    calls[:] = [0]
    _canonical_search(corpus.diagram("35-35a").blocks, 35)
    assert calls[0] <= 23


def test_recursive_searches_leave_no_garbage():
    # each of these searches recurses through a nested function, which holds
    # itself through its closure cell unless the cell is cleared; nothing
    # may be left for the cyclic collector
    d = corpus.diagram("35-35a")
    calls = [
        lambda: canonical_form(d),
        lambda: is_self_dual(d),
        lambda: enumerate_01_states(d),
        lambda: max_loop(d, budget=100),  # the budget runs out
        lambda: render_dot(d),  # the budgeted max_loop of render
        lambda: max_loop(corpus.diagram("36-36")),  # the search finishes
        lambda: generate(GenSpec(12, 6), lambda line: None),  # generate._candidates
    ]
    gc.disable()
    try:
        gc.collect()
        for call in calls:
            call()
            assert gc.collect() == 0
    finally:
        gc.enable()
