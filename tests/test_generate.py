import json
import math
import re
import sys
from dataclasses import asdict
from itertools import combinations

import pytest

from greechie import corpus
from greechie.diagram import MmpDiagram, incidence, parse_mmp, twin_classes
from greechie.errors import BadCheckpoint, InvalidSpec, TooLarge
from greechie.generate import (
    TASKS_PER_WORKER,
    GenSpec,
    brute_force_generate,
    census,
    generate,
    membership_probe,
)
from greechie.structure import validate
from greechie.symmetry import _canonical_search, are_isomorphic, canonical_form
from conftest import twin_rich
from oracles import chain_balls, closure, deletion_keys

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
    for workers in (0, -1):  # never a large count: each worker is a process
        with pytest.raises(InvalidSpec):
            generate(GenSpec(10, 5), lambda line: None, workers=workers)


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


@pytest.mark.parametrize(
    "spec, counts",
    [(GenSpec(12, 6), (35, 484, 3165, 10, 3)), (GenSpec(13, 6), (55, 950, 1996, 29, 19)),
     (GenSpec(14, 7), (88, 1769, 12362, 27, 14)), (GenSpec(15, 7), (134, 3298, 7771, 74, 48)),
     (GenSpec(16, 16, min_atom_degree=3), (236, 7138, 107131, 218, 0)),
     (GenSpec(10, 10, min_girth=3, min_atom_degree=3), (590, 5069, 59369, 2813, 10)),
     (GenSpec(18, 8, require_connected=False), (296, 10293, 14217, 319, 97))],
    ids=["12-6", "13-6", "14-7", "15-7", "16-16-degree-3", "10_3", "18-8-disconnected"],
)
def test_census_counts(spec, counts):
    # the four census specs of the benchmark, a regular spec with no class,
    # (10_3) and a spec whose classes are all disconnected: nodes, canonical
    # rejections, girth prunes, budget prunes and emitted classes, which a
    # change to the search order, the candidate filters or the deletion rule
    # would move
    lines = []
    stats = generate(spec, lines.append)
    assert tuple(_counts(stats).values()) == counts
    assert len(lines) == counts[-1]


def test_worker_determinism():
    for spec, worker_counts in ((GenSpec(11, 5), (1, 4)), (GenSpec(13, 6), (1, 2))):
        baseline = []
        base_stats = generate(spec, baseline.append)
        for workers in worker_counts:
            lines = []
            stats = generate(spec, lines.append, workers=workers)
            assert lines == baseline
            assert _counts(stats) == _counts(base_stats)


def test_checkpoint_resume(tmp_path):
    for spec, workers in ((GenSpec(11, 5), 2), (GenSpec(13, 6), 1), (GenSpec(13, 6), 2)):
        baseline = []
        base_stats = generate(spec, baseline.append)
        cp = tmp_path / f"run-{spec.atom_count}-{workers}.jsonl"
        first = []
        stats = generate(spec, first.append, workers=workers, checkpoint=str(cp))
        assert first == baseline
        assert _counts(stats) == _counts(base_stats)
        header, *records = cp.read_text().splitlines()
        assert json.loads(header)["tasks"] == len(records) > 1
        # forget every other task; then also cut a record mid-line, as an
        # interrupted run leaves it.  A finished checkpoint replays as is.
        kept = "\n".join([header] + records[1::2]) + "\n"
        for text in (kept, kept + records[0][:-7], None):
            if text is not None:
                cp.write_text(text)
            resumed_lines = []
            resumed = generate(spec, resumed_lines.append, workers=workers, checkpoint=str(cp))
            assert resumed_lines == baseline
            assert _counts(resumed) == _counts(base_stats)
            # every task is recorded once, and no torn line is left behind
            tasks = [json.loads(line)["task"] for line in cp.read_text().splitlines()[1:]]
            assert sorted(tasks) == list(range(len(records)))


def test_checkpoint_for_another_spec_or_unreadable_is_refused(tmp_path):
    cp = tmp_path / "cp.jsonl"
    spec = GenSpec(13, 6)
    generate(spec, lambda line: None, workers=1, checkpoint=str(cp))
    finished = cp.read_text()
    header, record = finished.splitlines()[:2]
    fields = json.loads(record)

    def with_record(**changes):
        return header + "\n" + json.dumps({**fields, **changes}) + "\n"

    cases = [
        (GenSpec(12, 6), finished),
        (spec, "not json\n"),
        (spec, header[:-3]),  # a header cut before its newline
        (spec, "[1, 2]\n"),
        (spec, json.dumps({**json.loads(header), "depth": "4"}) + "\n"),
        (spec, json.dumps({**json.loads(header), "tasks": 3}) + "\n"),
        # a depth past the search deepened the frontier past the leaves
        (spec, json.dumps({**json.loads(header), "depth": 7}) + "\n"),
        (spec, header + "\n" + record.replace('"stats"', '"counts"') + "\n"),
        # a string count crashed in GenStats.merge; a string of lines printed
        # one line per character; a bool read as task 1; an index past the
        # task count was ignored
        (spec, with_record(stats={**fields["stats"], "nodes_explored": "x"})),
        (spec, with_record(lines="abc")),
        (spec, with_record(task=True)),
        (spec, with_record(task=json.loads(header)["tasks"])),
    ]
    for other, text in cases:
        cp.write_text(text)
        with pytest.raises(BadCheckpoint, match=re.escape(str(cp))):
            generate(other, lambda line: None, workers=1, checkpoint=str(cp))
        assert cp.read_text() == text


def test_split_gives_several_tasks_per_worker(tmp_path):
    # split at a fixed 2 blocks, these trees gave 2 tasks, one of them
    # nearly the whole tree, so a second worker sat idle
    for spec in (GenSpec(15, 7), GenSpec(10, 10, min_girth=3, min_atom_degree=3)):
        baseline = []
        generate(spec, baseline.append)
        cp = tmp_path / f"{spec.atom_count}.jsonl"
        lines = []
        generate(spec, lines.append, workers=2, checkpoint=str(cp))
        assert lines == baseline
        assert json.loads(cp.read_text().splitlines()[0])["tasks"] >= 2 * TASKS_PER_WORKER


def test_no_more_workers_start_than_tasks_are_left(monkeypatch, tmp_path):
    # a forked pool starts all its workers at once, so a run asks for at most
    # one per unfinished task and for no pool when one is left.  A pool
    # stand-in records the count asked for and runs the tasks here, so no
    # large worker count ever starts a process.
    module = sys.modules["greechie.generate"]
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(module, "ProcessPoolExecutor", SerialPool)
    spec = GenSpec(13, 6)
    baseline = []
    generate(spec, baseline.append)
    cp = tmp_path / "cp.jsonl"
    lines = []
    generate(spec, lines.append, workers=1000, checkpoint=str(cp))
    tasks = json.loads(cp.read_text().splitlines()[0])["tasks"]
    assert lines == baseline and asked == [tasks] and 3 < tasks < 1000
    # rerun with the last `left` task records forgotten
    for left, workers, expected in ((3, 1000, [3]), (3, 2, [2]), (1, 1000, []), (0, 1000, [])):
        header, *records = cp.read_text().splitlines()
        cp.write_text("\n".join([header] + records[: tasks - left]) + "\n")
        asked.clear()
        lines = []
        generate(spec, lines.append, workers=workers, checkpoint=str(cp))
        assert lines == baseline and asked == expected


def test_task_roots_prune_by_their_automorphisms(monkeypatch, tmp_path):
    # a subtree task starts from its root's generators, so a partitioned run
    # (in this process: one worker with a checkpoint) makes exactly the
    # canonical searches of a serial one
    calls = []
    module = sys.modules["greechie.generate"]  # the package exports the function by this name
    real = module._canonical_search

    def counted(blocks, incident, memo=None):
        calls.append(len(blocks))
        return real(blocks, incident, memo)

    monkeypatch.setattr(module, "_canonical_search", counted)
    spec = GenSpec(13, 6)
    generate(spec, lambda line: None)
    serial = len(calls)
    calls.clear()
    generate(spec, lambda line: None, workers=1, checkpoint=str(tmp_path / "cp.jsonl"))
    assert len(calls) == serial
    # far fewer searches than candidates: one per Aut(parent) orbit
    assert serial < 200


@pytest.mark.parametrize(
    "spec, by_keys, by_orbit",
    [(GenSpec(13, 6), 347, 0), (GenSpec(15, 7), 1344, 1),
     (GenSpec(10, 10, min_girth=3, min_atom_degree=3), 4219, 134),
     (GenSpec(12, 12, min_atom_degree=3), 148, 0)],
    ids=["13-6", "15-7", "10_3", "12-12-degree-3"],
)
def test_deletion_rule_agrees_with_the_full_rule(monkeypatch, spec, by_keys, by_orbit):
    # every child is judged by the full rule as well: search it, take b* as
    # the block of largest key (keys counted from scratch) whose canonical
    # image is last, and test whether an automorphism maps b* onto the new
    # block (marked diagrams: b* or the new block grows one private atom).
    # Children rejected on their keys alone must fail it, children whose new
    # block alone has the largest key (kept with no search) must pass it,
    # and the orbit test must give its answer.  Both kinds of rejection
    # occur, the orbit kind only at two of the four specs.
    module = sys.modules["greechie.generate"]
    real_keys, real_accepts = module._child_keys, module._accepts
    rejected = {"keys": 0, "orbit": 0}

    def full_rule(child):
        n = 1 + max(a for b in child for a in b)
        _, perm, _, _ = _canonical_search(child, incidence(child, n))
        keys = deletion_keys(child)
        top = max(keys)
        star = max((b for b, k in zip(child, keys) if k == top), key=lambda b: sorted(perm[a] for a in b))

        def marked_code(block):
            marked = tuple(b + (n,) if b == block else b for b in child)
            return _canonical_search(marked, incidence(marked, n + 1))[0]

        return marked_code(star) == marked_code(child[-1])

    def keys_checked(blocks, cand, *parent):
        got = real_keys(blocks, cand, *parent)
        if got is None:
            rejected["keys"] += 1
            assert not full_rule(blocks + (cand,))
        else:
            keys = got[3]
            assert keys == deletion_keys(blocks + (cand,))
            if keys.count(keys[-1]) == 1:
                assert full_rule(blocks + (cand,))
        return got

    def accepts_checked(child, keys, *search):
        got = real_accepts(child, keys, *search)
        rejected["orbit"] += not got
        assert got == full_rule(child)
        return got

    monkeypatch.setattr(module, "_child_keys", keys_checked)
    monkeypatch.setattr(module, "_accepts", accepts_checked)
    generate(spec, lambda line: None)
    assert rejected == {"keys": by_keys, "orbit": by_orbit}


@pytest.mark.parametrize(
    "spec",
    [GenSpec(15, 7), GenSpec(16, 9), GenSpec(10, 10, min_girth=3, min_atom_degree=3),
     GenSpec(18, 8, require_connected=False)],
    ids=["15-7", "16-9", "10_3", "18-8-disconnected"],
)
def test_handed_down_bookkeeping_matches_a_recount(monkeypatch, spec):
    # every node gets its degrees, incidence, weights, keys, twin classes and
    # chain balls from its parent's; at every node they must equal the same
    # counted from scratch (a leaf picks no candidates and gets no balls)
    module = sys.modules["greechie.generate"]
    real = module._expand
    checked = 0

    def expand_checked(node, *args):
        nonlocal checked
        blocks, n = node[:2]
        degree, incident, weight, keys, twins, balls = node[4]
        assert (degree, incident, weight, keys) == module._invariants(blocks, n)
        assert keys == deletion_keys(blocks)
        assert twins == twin_classes(incidence(blocks, n))
        assert all(twins[a] is twins[cls[0]] for cls in twins for a in cls)
        leaf = len(blocks) == spec.block_count
        assert balls == (None if leaf else chain_balls(blocks, n, spec.min_girth - 2))
        checked += 1
        real(node, *args)

    monkeypatch.setattr(module, "_expand", expand_checked)
    stats = generate(spec, lambda line: None)
    assert checked == stats.nodes_explored


@pytest.mark.parametrize(
    ("spec", "disconnected"),
    [(GenSpec(15, 7), 4), (GenSpec(12, 8, min_girth=3, min_atom_degree=2), 1),
     (GenSpec(10, 10, min_girth=3, min_atom_degree=3), 0),
     (GenSpec(12, 9, block_size=4, min_girth=3, min_atom_degree=3), 0),
     (GenSpec(18, 8, require_connected=False), 97)],
    ids=["15-7", "12-8-degree-2", "10_3", "12-9-size-4-degree-3", "18-8-disconnected"],
)
def test_every_leaf_has_the_spec_atoms_and_degrees(monkeypatch, tmp_path, spec, disconnected):
    # a leaf tests only connectivity: the budget tests of _candidates at the
    # last block leave atom_count atoms, each of degree >= min_atom_degree.
    # The serial search and the subtree tasks of a checkpointed run reach
    # the same leaves, and emit those that are connected or need not be
    module = sys.modules["greechie.generate"]
    real = module._expand
    leaves = []

    def expand_checked(node, *args):
        blocks, n = node[:2]
        if len(blocks) == spec.block_count:
            d = MmpDiagram(n, blocks)
            assert n == spec.atom_count and min(d.degrees()) >= spec.min_atom_degree
            leaves.append(validate(d).connected)
        real(node, *args)

    monkeypatch.setattr(module, "_expand", expand_checked)
    serial = generate(spec, lambda line: None)
    assert leaves.count(False) == disconnected
    kept = len(leaves) - (disconnected if spec.require_connected else 0)
    assert serial.emitted_count == kept > 0
    tasked = generate(spec, lambda line: None, checkpoint=str(tmp_path / "cp.jsonl"))
    assert leaves.count(False) == 2 * disconnected and tasked.emitted_count == kept


# class sets recorded before the deletion rule replaced the canonical-tail
# parent test; the brute-force oracle's guard forbids these specs
RECORDED_CLASSES = {
    "10_3": (GenSpec(10, 10, min_girth=3, min_atom_degree=3), {
        "123,146,157,248,25A,349,378,569,68A,79A.", "123,146,157,248,25A,369,378,459,68A,79A.",
        "123,146,157,248,269,358,37A,479,56A,89A.", "123,146,157,248,259,368,379,45A,69A,78A.",
        "123,145,167,248,269,358,36A,47A,579,89A.", "123,145,167,248,269,358,36A,479,57A,89A.",
        "124,135,167,238,269,36A,458,479,57A,89A.", "123,146,157,248,25A,368,379,459,69A,78A.",
        "123,146,157,248,269,35A,378,459,68A,79A.", "125,136,147,234,279,358,49A,56A,689,78A.",
    }),
    "11-5": (GenSpec(11, 5), {
        "12B,34B,56B,78B,9AB.", "12A,34B,56B,78B,9AB.", "12A,34A,56B,78B,9AB.",
        "129,34B,56B,79A,8AB.", "128,349,58A,69B,7AB.", "129,34A,56B,79B,8AB.",
        "129,34A,56B,78B,9AB.", "128,349,56A,78B,9AB.",
    }),
    "12-6": (GenSpec(12, 6), {
        "12C,389,48A,59B,6AC,7BC.", "178,279,38A,49B,5AC,6BC.", "127,389,48A,59B,6AC,7BC.",
    }),
    "12-12-degree-3": (GenSpec(12, 12, min_atom_degree=3), set()),
}


@pytest.mark.parametrize("name", sorted(RECORDED_CLASSES))
def test_no_duplicates_and_unchanged_class_sets(name):
    spec, recorded = RECORDED_CLASSES[name]
    lines = []
    generate(spec, lines.append)
    assert len(lines) == len(set(lines))
    assert set(lines) == recorded
    for line in lines:
        assert membership_probe(parse_mmp(line), spec)


def test_n3_configuration_counts():
    # (n_3) configurations: 3-regular, 3-uniform, girth >= 3 (OEIS A001403)
    counts = [census(GenSpec(n, n, min_girth=3, min_atom_degree=3)) for n in range(7, 12)]
    assert counts == [1, 1, 3, 10, 31]


def test_membership_probe_examples():
    assert membership_probe(parse_mmp(PENTAGON), GenSpec(10, 5))
    assert not membership_probe(parse_mmp("123,345,567,781."), GenSpec(8, 4))
    assert not membership_probe(parse_mmp(PENTAGON), GenSpec(10, 6))
    # the spec's connectivity and minimum degree, which generation's leaves
    # meet by their construction, are tested on the probed diagram itself
    assert not membership_probe(parse_mmp("123,456."), GenSpec(6, 2))
    assert membership_probe(parse_mmp("123,456."), GenSpec(6, 2, require_connected=False))
    assert not membership_probe(parse_mmp(PENTAGON), GenSpec(10, 5, min_atom_degree=2))
    # the empty diagram has no atom short of the minimum degree, and
    # generate emits it as "."
    assert membership_probe(MmpDiagram(0, ()), GenSpec(0, 0, min_atom_degree=3))


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


def test_block_orbit_over_twin_classes_matches_the_listed_group(rng):
    # _block_orbit walks twin forms with only the generators that move an
    # atom out of its twin class; the brute orbit applies every element of
    # the listed group.  A block (some with a new atom, which every
    # automorphism fixes) is in the brute orbit exactly when its twin form
    # is in the set _block_orbit returns, and a twin form is a block of the
    # orbit.
    module = sys.modules["greechie.generate"]
    checked = listed = 0
    while checked < 40:
        d = twin_rich(rng, max_atoms=rng.randrange(6, 10))
        n = d.atom_count
        _, _, order, gens = _canonical_search(d.blocks, d.incident_blocks())
        if order > 20000:
            continue
        group = closure(gens, n)
        assert len(group) == order
        twins = twin_classes(incidence(d.blocks, n))
        pool = list(combinations(range(n + 1), 3))
        for block in rng.sample(pool, 8) + [d.blocks[0][:3]]:
            orbit = module._block_orbit(block, gens, twins)
            brute = {tuple(sorted(g[a] if a < n else a for a in block)) for g in group}
            assert orbit == {module._twin_form(b, twins) for b in brute} <= brute
            for b in pool:
                assert (b in brute) == (module._twin_form(b, twins) in orbit)
            listed += len(brute) > len(orbit)
        checked += 1
    assert listed > 100
