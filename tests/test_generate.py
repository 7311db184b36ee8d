import json
import math
import sys
from dataclasses import asdict

import pytest

from greechie import corpus
from greechie.diagram import parse_mmp
from greechie.errors import InvalidSpec, TooLarge
from greechie.generate import (
    GenSpec,
    brute_force_generate,
    census,
    generate,
    membership_probe,
)
from greechie.structure import validate
from greechie.symmetry import are_isomorphic, canonical_form

PENTAGON = "123,345,567,789,9A1."


def test_spec_validation():
    with pytest.raises(InvalidSpec):
        GenSpec(5, 2, block_size=2).check()
    with pytest.raises(InvalidSpec):
        GenSpec(-1, 2).check()
    with pytest.raises(InvalidSpec):
        GenSpec(5, 2, min_girth=2).check()
    with pytest.raises(InvalidSpec):
        GenSpec(2, 1).check()


def test_generate_single_block():
    lines = []
    stats = generate(GenSpec(3, 1), lines.append)
    assert lines == ["123."]
    assert stats.emitted_count == 1


def test_generate_two_blocks_sharing_one_atom():
    # on exactly 5 atoms the only class is two blocks through one atom
    lines = []
    generate(GenSpec(5, 2), lines.append)
    assert len(lines) == 1
    d = parse_mmp(lines[0])
    assert sorted(len(set(a) & set(b)) for a, b in [(d.blocks[0], d.blocks[1])]) == [1]


def test_generate_disjoint_pair_needs_six_atoms():
    lines = []
    generate(GenSpec(6, 2, require_connected=False), lines.append)
    assert len(lines) == 1  # the disjoint pair
    assert census(GenSpec(6, 2, require_connected=True)) == 0


def test_emitted_diagrams_are_canonical_admissible_and_within_spec():
    spec = GenSpec(11, 5)
    lines = []
    generate(spec, lines.append)
    assert len(lines) == len(set(lines))
    for line in lines:
        d = parse_mmp(line)
        rep = validate(d)
        assert rep.greechie_admissible and rep.connected
        assert d.atom_count == 11 and d.block_count == 5
        assert canonical_form(d).canonical_text == line


def test_no_two_emissions_isomorphic():
    lines = []
    generate(GenSpec(10, 5), lines.append)
    lines2 = []
    generate(GenSpec(11, 5), lines2.append)
    pool = [parse_mmp(line) for line in lines + lines2]
    for i in range(len(pool)):
        for j in range(i + 1, len(pool)):
            assert are_isomorphic(pool[i], pool[j]) is None


def test_pentagon_is_the_unique_10_5_class():
    lines = []
    generate(GenSpec(10, 5), lines.append)
    assert len(lines) == 1
    assert are_isomorphic(parse_mmp(lines[0]), parse_mmp(PENTAGON)) is not None


def test_census_examples():
    assert census(GenSpec(7, 3)) == 2
    assert census(GenSpec(12, 12)) == 0


def test_oracle_equivalence_spot_checks():
    for a, m, conn in [(7, 3, True), (8, 3, False), (9, 4, True), (6, 2, False)]:
        spec = GenSpec(a, m, require_connected=conn)
        lines = []
        generate(spec, lines.append)
        assert sorted(lines) == [f.canonical_text for f in brute_force_generate(spec)]


def test_brute_force_guard():
    with pytest.raises(TooLarge):
        brute_force_generate(GenSpec(12, 6))
    assert math.comb(math.comb(12, 3), 6) > 10**8


def _counts(stats):
    """Every GenStats count; only the wall time may differ between runs."""
    counts = asdict(stats)
    del counts["wall_time"]
    return counts


def test_worker_determinism():
    for spec, worker_counts in ((GenSpec(11, 5), (1, 4)), (GenSpec(13, 6), (1, 2))):
        baseline = []
        base_stats = generate(spec, baseline.append)
        for workers in worker_counts:
            lines = []
            stats = generate(spec, lines.append, workers=workers, split_depth=2)
            assert lines == baseline
            assert _counts(stats) == _counts(base_stats)


def test_checkpoint_resume(tmp_path):
    for spec, workers in ((GenSpec(11, 5), 2), (GenSpec(13, 6), 1), (GenSpec(13, 6), 2)):
        baseline = []
        base_stats = generate(spec, baseline.append)
        cp = tmp_path / f"run-{spec.atom_count}-{workers}.json"
        first = []
        stats = generate(spec, first.append, workers=workers, checkpoint=str(cp))
        assert first == baseline
        assert _counts(stats) == _counts(base_stats)
        doc = json.loads(cp.read_text())
        assert doc["tasks"] >= 1 and doc["completed"]
        # forget half the tasks, then resume
        for key in sorted(doc["completed"], key=int)[::2]:
            del doc["completed"][key]
        cp.write_text(json.dumps(doc))
        second = []
        resumed = generate(spec, second.append, workers=workers, checkpoint=str(cp))
        assert second == first
        assert resumed.emitted_count == len(baseline)


def test_task_roots_prune_by_their_automorphisms(monkeypatch, tmp_path):
    # a subtree task starts from its root's generators, so a partitioned run
    # (in this process: one worker with a checkpoint) makes exactly the
    # canonical searches of a serial one
    calls = []
    module = sys.modules["greechie.generate"]  # the package exports the function by this name
    real = module._canonical_search

    def counted(blocks, n):
        calls.append(len(blocks))
        return real(blocks, n)

    monkeypatch.setattr(module, "_canonical_search", counted)
    spec = GenSpec(13, 6)
    generate(spec, lambda line: None)
    serial = len(calls)
    calls.clear()
    generate(spec, lambda line: None, workers=1, split_depth=3, checkpoint=str(tmp_path / "cp.json"))
    assert len(calls) == serial
    # far fewer searches than candidates: one per Aut(parent) orbit
    assert serial < 200


@pytest.mark.parametrize(
    "spec",
    [GenSpec(13, 6), GenSpec(15, 7), GenSpec(10, 10, min_girth=3, min_atom_degree=3),
     GenSpec(12, 12, min_atom_degree=3)],
    ids=["13-6", "15-7", "10_3", "12-12-degree-3"],
)
def test_parent_test_filters_agree_with_the_full_comparison(monkeypatch, spec):
    # the block-orbit and degree-profile tests settle the parent test without
    # a canonical search; each of their answers must be the search's answer
    module = sys.modules["greechie.generate"]
    real_test, real_code = module._is_canonical_parent, module.canonical_code
    searches = []
    by_filter = {True: 0, False: 0}
    parent_codes = {}

    def counted(blocks, n):
        searches.append(len(blocks))
        return real_code(blocks, n)

    def checked(child, beta, gens, parent_code, n):
        before = len(searches)
        got = real_test(child, beta, gens, parent_code, n)
        if len(searches) == before:
            by_filter[got] += 1
        # the code handed in is the parent's own, checked once per parent
        parent = child[:-1]
        if parent not in parent_codes:
            parent_codes[parent] = real_code(parent, n)
        assert parent_code == parent_codes[parent]
        rest = child[:beta] + child[beta + 1 :]
        assert got == (real_code(rest, n) == parent_code)
        return got

    monkeypatch.setattr(module, "canonical_code", counted)
    monkeypatch.setattr(module, "_is_canonical_parent", checked)
    generate(spec, lambda line: None)
    assert by_filter[True] > 0 and by_filter[False] > 0
    assert len(searches) < (by_filter[True] + by_filter[False]) / 10


def test_n3_configuration_counts():
    # (n_3) configurations: 3-regular, 3-uniform, girth >= 3 (OEIS A001403)
    counts = [census(GenSpec(n, n, min_girth=3, min_atom_degree=3)) for n in range(7, 11)]
    assert counts == [1, 1, 3, 10]


def test_membership_probe_examples():
    assert membership_probe(parse_mmp(PENTAGON), GenSpec(10, 5))
    assert not membership_probe(parse_mmp("123,345,567,781."), GenSpec(8, 4))
    assert not membership_probe(parse_mmp(PENTAGON), GenSpec(10, 6))


def test_membership_probe_agrees_with_emission():
    spec = GenSpec(11, 5)
    lines = []
    generate(spec, lines.append)
    for line in lines:
        assert membership_probe(parse_mmp(line), spec)


def test_membership_probe_deep_corpus_entries():
    for name in ("73-73", "73-78-single"):
        d = corpus.diagram(name)
        assert membership_probe(d, GenSpec(d.atom_count, d.block_count))


def test_generate_stats_accounting():
    spec = GenSpec(9, 4)
    lines = []
    stats = generate(spec, lines.append)
    assert stats.emitted_count == len(lines)
    assert stats.nodes_explored > 0
    assert stats.wall_time >= 0
