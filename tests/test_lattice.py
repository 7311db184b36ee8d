import json
import random
from fractions import Fraction

import pytest

from conftest import random_admissible
from greechie import corpus
from greechie.diagram import MmpDiagram, parse_mmp
from greechie.errors import ForeignElement, LengthMismatch, NotAdmissible, NotAState
from greechie.lattice import ATOM, COATOM, MID, OmlElement, build_oml, extend_state, leq, ortho
from greechie.states import classify_states, is_state
from greechie.structure import element_count
from oracles import brute_covers, brute_leq, eager_elements

F = Fraction

#: The two-block "atom a shared" diagram pictured alongside the Hasse example.
FIG_TWO_BLOCKS = "123,145."


def test_single_block_is_boolean_eight():
    poset = build_oml(parse_mmp("123."))
    assert len(poset) == 8
    kinds = [e.kind for e in poset.elements]
    assert kinds.count(ATOM) == 3 and kinds.count(COATOM) == 3
    a0 = OmlElement(ATOM, atom=0)
    c1 = OmlElement(COATOM, atom=1)
    assert leq(poset, a0, c1)  # atoms of one block are orthogonal
    assert not leq(poset, a0, OmlElement(ATOM, atom=1))


def test_two_pasted_blocks_give_twelve_elements():
    poset = build_oml(parse_mmp(FIG_TWO_BLOCKS))
    assert len(poset) == 12
    # b' sits above both a and c (atoms 0 and 2 of the first block)
    b_prime = OmlElement(COATOM, atom=1)
    assert leq(poset, OmlElement(ATOM, atom=0), b_prime)
    assert leq(poset, OmlElement(ATOM, atom=2), b_prime)
    # but not above d from the other block
    assert not leq(poset, OmlElement(ATOM, atom=3), b_prime)
    # atoms of different blocks are not orthogonal
    assert not leq(poset, OmlElement(ATOM, atom=3), OmlElement(COATOM, atom=1))


def test_build_oml_requires_admissibility():
    with pytest.raises(NotAdmissible):
        build_oml(parse_mmp("123,345,567,781."))


def test_build_oml_element_count_35_35a():
    assert len(build_oml(corpus.diagram("35-35a"))) == 72


def test_order_matches_block_containment_oracle():
    # Every bit of the order tables against "some block holds both forms,
    # nested", on the corpus, the blockless 0 < 1 chain and random pastings
    # of 3-, 4- and 5-atom blocks.
    rng = random.Random(1971)
    diagrams = [entry.diagram() for entry in corpus.ENTRIES] + [MmpDiagram(0, ())]
    for sizes in ((3,), (4,), (5,), (3, 4), (3, 4, 5)):
        diagrams += [random_admissible(rng, max_blocks=6, sizes=sizes) for _ in range(20)]
    for d in diagrams:
        poset = build_oml(d)
        for i, x in enumerate(poset.elements):
            for j, y in enumerate(poset.elements):
                assert bool(poset.ups[i] >> j & 1) == brute_leq(d, x, y), (d, x, y)


def test_elements_are_built_when_named_and_match_the_eager_list():
    # On the corpus and on random pastings of 3- to 6-atom blocks, whose
    # interiors come after the coatoms: pasting builds no element object,
    # and the ones built later, one at a time or all at once, are the eager
    # list's, as many as the closed-form count
    rng = random.Random(1972)
    diagrams = [entry.diagram() for entry in corpus.ENTRIES]
    for sizes in ((3, 4), (5,), (6,), (3, 4, 5, 6)):
        diagrams += [random_admissible(rng, max_blocks=5, sizes=sizes) for _ in range(15)]
    for d in diagrams:
        poset = build_oml(d)
        assert "elements" not in vars(poset)
        want = eager_elements(d)
        assert len(poset) == len(want) == element_count(d)
        assert [poset.element(i) for i in range(len(poset))] == want
        assert poset.elements == want


def test_foreign_element_rejected():
    poset = build_oml(parse_mmp("123."))
    with pytest.raises(ForeignElement):
        leq(poset, OmlElement(ATOM, atom=7), OmlElement(ATOM, atom=0))


def test_ortho_involution_and_order_reversal_exhaustive():
    # On corpus lattices and on random pastings of 4- to 6-atom blocks,
    # whose interiors each have the rest of their block as ortho
    rng = random.Random(1974)
    names = ("35-35a", "35-35e", "36-36", "38-38g", "44-44", "73-78-ngv")
    diagrams = [corpus.diagram(name) for name in names]
    for sizes in ((4,), (5,), (6,), (4, 5, 6)):
        diagrams += [random_admissible(rng, max_blocks=3, sizes=sizes) for _ in range(5)]
    for d in diagrams:
        poset = build_oml(d)
        assert len(poset) <= 200
        for x in poset.elements:
            assert ortho(poset, ortho(poset, x)) == x
            if x.kind == MID:
                rest = tuple(a for a in d.blocks[x.block] if a not in x.subset)
                assert ortho(poset, x) == OmlElement(MID, block=x.block, subset=rest)
        for x in poset.elements:
            for y in poset.elements:
                assert leq(poset, x, y) == leq(poset, ortho(poset, y), ortho(poset, x))


def _join(poset, i, j):
    """Least upper bound by brute force over the up-set intersection."""
    inter = poset.ups[i] & poset.ups[j]
    members = [k for k in range(len(poset)) if inter >> k & 1]
    least = [k for k in members if all(poset.ups[k] >> other & 1 for other in members)]
    assert len(least) <= 1
    return least[0] if least else None


def test_orthomodularity_by_brute_force_joins():
    for entry in corpus.ENTRIES:
        poset = build_oml(entry.diagram())
        n = len(poset)
        ortho_idx = [poset.index(poset.ortho(e)) for e in poset.elements]
        for i in range(n):
            for j in range(n):
                if i != j and poset.ups[i] >> j & 1:
                    # x <= y: some z <= x' with x v z = y
                    down_xp = [
                        k for k in range(n) if poset.ups[k] >> ortho_idx[i] & 1
                    ]
                    assert any(_join(poset, i, k) == j for k in down_xp), (entry.name, i, j)


def test_extend_state_uniform_third_on_35_35a():
    d = corpus.diagram("35-35a")
    poset = build_oml(d)
    values = [F(1, 3)] * 35
    ext = extend_state(poset, values)
    for e in poset.elements:
        if e.kind == COATOM:
            assert ext[e] == F(2, 3)
    assert ext[OmlElement("zero")] == 0
    assert ext[OmlElement("one")] == 1


def test_extend_state_01_state_is_principal_filter_indicator():
    poset = build_oml(parse_mmp("123."))
    ext = extend_state(poset, [F(1), F(0), F(0)])
    a0 = OmlElement(ATOM, atom=0)
    for e in poset.elements:
        assert ext[e] == (1 if leq(poset, a0, e) else 0)


def test_extend_state_mid_elements_sum_pairs():
    # A 4-atom block pasted to a 3-block, with an exact (non-uniform) state.
    d = MmpDiagram(6, ((0, 1, 2, 3), (3, 4, 5)))
    assert build_oml(d)  # admissible
    poset = build_oml(d)
    state = [F(1, 3), F(1, 3), F(1, 6), F(1, 6), F(1, 2), F(1, 3)]
    ext = extend_state(poset, state)
    pair = OmlElement(MID, block=0, subset=(0, 1))
    assert ext[pair] == F(2, 3)
    # interior complement pairs with its ortho to 1
    assert ext[pair] + ext[poset.ortho(pair)] == 1
    mids = [e for e in poset.elements if e.kind == MID]
    assert len(mids) == 6


def test_five_atom_block_interior():
    # 2^5 - 2 - 10 = 20 interior elements of sizes 2 and 3
    d = MmpDiagram(7, ((0, 1, 2, 3, 4), (4, 5, 6)))
    poset = build_oml(d)
    from greechie.structure import element_count

    assert element_count(d) == len(poset) == 2 + 14 + 20
    small = OmlElement(MID, block=0, subset=(0, 1))
    large = OmlElement(MID, block=0, subset=(0, 1, 2))
    assert leq(poset, small, large)
    assert not leq(poset, large, small)
    assert poset.ortho(large) == OmlElement(MID, block=0, subset=(3, 4))
    assert leq(poset, small, OmlElement(COATOM, atom=3))
    assert not leq(poset, small, OmlElement(COATOM, atom=1))
    state = [F(1, 4), F(1, 4), F(1, 4), F(1, 8), F(1, 8), F(1, 2), F(3, 8)]
    ext = extend_state(poset, state)
    assert ext[large] == F(3, 4)
    from greechie.states import classify_states, Classification

    assert classify_states(d).classification is Classification.MORE_THAN_ONE


def test_extend_state_rejects_non_states():
    d = parse_mmp("123.")
    poset = build_oml(d)
    for values, message in (
        ([F(1, 2), F(1, 2), F(1, 2)], "block 0 does not sum to 1"),
        ([F(1), F(0)], "expected 3 atom values, got 2"),
        ([F(3, 2), F(-1, 2), F(0)], "atom values must lie in [0, 1]"),
    ):
        with pytest.raises(NotAState) as caught:
            extend_state(poset, values)
        assert str(caught.value) == message
    with pytest.raises(LengthMismatch) as caught:
        is_state(d, [F(1), F(0)])
    assert str(caught.value) == "expected 3 values, got 2"


def test_extension_is_monotone_and_complement_summing():
    # Unit-sum and monotonicity of the extension for every witness state the
    # analyzer produces on the corpus and on random pastings of 4- to 6-atom
    # blocks, which have interiors.
    rng = random.Random(1975)
    named = [(entry.name, entry.diagram()) for entry in corpus.ENTRIES]
    for sizes in ((4,), (5, 6), (3, 4, 5, 6)):
        named += [(None, random_admissible(rng, max_blocks=3, sizes=sizes)) for _ in range(5)]
    for name, d in named:
        summary = classify_states(d)
        witnesses = [w for w in (summary.unique_state, summary.witness_state,
                                 summary.second_witness) if w is not None]
        witnesses += list(corpus.KNOWN_STATES.get(name, ()))
        if not witnesses:
            continue
        poset = build_oml(d)
        for w in witnesses:
            ext = extend_state(poset, w)
            for e in poset.elements:
                assert ext[e] + ext[poset.ortho(e)] == 1
            for x in poset.elements:
                for y in poset.elements:
                    if poset.leq(x, y):
                        assert ext[x] <= ext[y]


def test_poset_json_export():
    poset = build_oml(parse_mmp("123."))
    doc = json.loads(poset.to_json())
    assert set(doc) == {"elements", "covers"}
    assert len(doc["elements"]) == 8
    # 0 is covered by exactly the three atoms
    bottoms = [pair for pair in doc["covers"] if pair[0] == "0"]
    assert sorted(x[1] for x in bottoms) == ["1", "2", "3"]
    # covers, in order, and the export against the brute-force oracle on the
    # corpus and on random pastings of 3- to 6-atom blocks
    rng = random.Random(1976)
    diagrams = [entry.diagram() for entry in corpus.ENTRIES]
    for sizes in ((3,), (4,), (5,), (6,), (3, 4, 5, 6)):
        diagrams += [random_admissible(rng, max_blocks=4, sizes=sizes) for _ in range(8)]
    for d in diagrams:
        poset = build_oml(d)
        want = brute_covers(d)
        assert poset.covers() == want, d
        labels = [e.label() for e in eager_elements(d)]
        assert json.loads(poset.to_json()) == {"elements": labels, "covers": [list(c) for c in want]}
