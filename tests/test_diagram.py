import io
import json
import pickle

import pytest

from greechie import corpus
from greechie.diagram import (
    ALPHABET,
    MmpDiagram,
    incidence,
    iter_mmp_lines,
    load_diagram_line,
    parse_mmp,
    serialize_mmp,
)
from greechie.errors import (
    BadJson,
    DuplicateAtomInBlock,
    EmptyBlock,
    MissingTerminator,
    TooManyAtoms,
    UnknownCharacter,
)
from greechie.structure import drop_blocks, dual, min_loop, validate
from greechie.symmetry import Permutation, relabel
from conftest import random_diagram

KEPT = {"_incident", "_checked", "_report"}  # what a diagram works out once and keeps


def test_alphabet_is_the_published_90_symbols():
    assert len(ALPHABET) == 90
    assert ALPHABET.startswith("123456789ABC")
    assert ALPHABET[9:35] == "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    assert ALPHABET[35:61] == "abcdefghijklmnopqrstuvwxyz"
    assert ALPHABET[61:] == "!\"#$%&'()*-/:;<=>?@[\\]^_`{|}~"


def test_parse_two_blocks():
    d = parse_mmp("123,345.")
    assert d.atom_count == 5
    assert d.blocks == ((0, 1, 2), (2, 3, 4))


def test_parse_preserves_block_order_and_sorts_atoms():
    d = parse_mmp("ZYX,123.")
    assert d.blocks[0] == (ALPHABET.index("X"), ALPHABET.index("Y"), ALPHABET.index("Z"))
    assert d.blocks[1] == (0, 1, 2)


def test_parse_missing_terminator():
    with pytest.raises(MissingTerminator):
        parse_mmp("12,34")


def test_parse_unknown_character():
    with pytest.raises(UnknownCharacter):
        parse_mmp("12 3.")
    with pytest.raises(UnknownCharacter):
        parse_mmp("1,0.")  # zero is not an atom symbol


def test_parse_empty_block():
    with pytest.raises(EmptyBlock):
        parse_mmp("123,,456.")


def test_parse_duplicate_atom_in_block():
    with pytest.raises(DuplicateAtomInBlock):
        parse_mmp("121.")


def test_parse_empty_diagram():
    d = parse_mmp(".")
    assert d.atom_count == 0 and d.blocks == ()
    assert serialize_mmp(d) == "."


def test_serialize_round_trip_example():
    d = MmpDiagram(5, ((0, 1, 2), (2, 3, 4)))
    assert serialize_mmp(d) == "123,345."
    assert parse_mmp(serialize_mmp(d)) == d


def test_serialize_too_many_atoms():
    blocks = tuple((i, i + 1, i + 2) for i in range(0, 89, 2))
    d = MmpDiagram(91, blocks)
    with pytest.raises(TooManyAtoms):
        serialize_mmp(d)


def test_parse_serialize_round_trip_random(rng):
    for _ in range(500):
        d = random_diagram(rng, max_atoms=13, max_blocks=5, sizes=(3, 4, 5))
        assert parse_mmp(serialize_mmp(d)) == d


def test_json_round_trip():
    d = parse_mmp("123,345.")
    assert MmpDiagram.from_json(d.to_json()) == d
    big = MmpDiagram(120, ((0, 1, 119),))
    assert MmpDiagram.from_json(big.to_json()) == big


def test_json_rejects_malformed_documents():
    with pytest.raises(BadJson):
        MmpDiagram.from_json("[1, 2]")
    with pytest.raises(BadJson):
        MmpDiagram.from_json('{"atoms": 2, "blocks": [[0, 5]]}')
    with pytest.raises(BadJson):
        MmpDiagram.from_json('{"atoms": "x", "blocks": []}')
    # JSON true and false are not integers, though Python's bool is an int
    with pytest.raises(BadJson):
        MmpDiagram.from_json('{"atoms": true, "blocks": []}')
    with pytest.raises(BadJson):
        MmpDiagram.from_json('{"atoms": 3, "blocks": [[0, true, 2]]}')


def test_load_diagram_line_dispatches_on_shape():
    assert load_diagram_line("123.") == parse_mmp("123.")
    assert load_diagram_line(json.dumps({"atoms": 3, "blocks": [[0, 1, 2]]})) == parse_mmp("123.")


def test_iter_mmp_lines_skips_comments_and_blanks():
    stream = io.StringIO("# header\n\n123.\n   \n456.\n")
    assert list(iter_mmp_lines(stream)) == [(3, "123."), (5, "456.")]


def test_atom_index_bounds_are_enforced():
    with pytest.raises(ValueError):
        MmpDiagram(2, ((0, 1, 2),))


def test_kept_validation_stays_out_of_equality_hashing_and_pickles():
    # 35-35e, with its incidence, checks and report worked out, is the same
    # value as a fresh parse; what is derived from it keeps nothing of its own
    line = corpus.get("35-35e").mmp_line
    d = parse_mmp(line)
    report = validate(d)
    assert min_loop(d).order == 5 and vars(d).keys() >= KEPT
    assert validate(d) is report
    fresh = parse_mmp(line)
    assert not vars(fresh).keys() & KEPT
    assert d == fresh and hash(d) == hash(fresh) and repr(d) == repr(fresh)
    copy = pickle.loads(pickle.dumps(d))
    assert copy == fresh and hash(copy) == hash(fresh) and validate(copy) == validate(fresh)
    n = d.atom_count
    derived = [relabel(d, Permutation(tuple(range(1, n)) + (0,))), dual(d), drop_blocks(d, {0})[0]]
    for e in derived:
        assert not vars(e).keys() & KEPT
        assert e.incident_blocks() == tuple(map(tuple, incidence(e.blocks, e.atom_count)))
        assert validate(e) == validate(MmpDiagram(e.atom_count, e.blocks))
    incident = d.incident_blocks()
    assert type(incident) is tuple and all(type(inc) is tuple for inc in incident)
    assert incident == tuple(map(tuple, incidence(d.blocks, n)))
