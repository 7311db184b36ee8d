import math
import time

import pytest

from greechie import corpus
from greechie.diagram import MmpDiagram, parse_mmp
from greechie.errors import NotValidated, SizeMismatch
from greechie.structure import dual, girth, is_connected, validate
from greechie.symmetry import (
    Permutation,
    _canonical_search,
    _refiner,
    are_isomorphic,
    canonical_form,
    is_self_dual,
    relabel,
)
from conftest import random_diagram
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


def test_are_isomorphic_negative_cases():
    assert are_isomorphic(corpus.diagram("35-35a"), corpus.diagram("35-35b")) is None
    assert are_isomorphic(corpus.diagram("73-73"), corpus.diagram("44-44")) is None


def test_canonical_equality_is_isomorphism(rng):
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


def test_is_self_dual_corpus_claims():
    assert is_self_dual(corpus.diagram("35-35e"))
    assert is_self_dual(corpus.diagram("36-36"))
    for x in "abcdefgh":
        assert is_self_dual(corpus.diagram(f"38-38{x}"))
    for x in "abcd":
        assert not is_self_dual(corpus.diagram(f"35-35{x}"))


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
        assert refine(initial, range(n)) == colors
        cells = {}
        for a, c in enumerate(colors):
            cells.setdefault(c, []).append(a)
        big = [(len(v), c) for c, v in cells.items() if len(v) > 1]
        if not big:
            continue
        cell = cells[min(big)[1]]
        for a in cell:
            ca = colors[a]
            ind = [c + 1 if (c > ca or (c == ca and x != a)) else c for x, c in enumerate(colors)]
            assert refine(ind, [a]) == refine_by_signatures(d.blocks, n, ind)
            branched += 1
    assert branched > 200


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
