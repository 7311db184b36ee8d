import dataclasses
import json
import math
import time
from fractions import Fraction

import pytest

from greechie import cli, corpus
from greechie.cli import main
from greechie.diagram import load_diagram_line, serialize_mmp
from greechie.generate import BRUTE_FORCE_GUARD, GenSpec, generate, membership_probe
from greechie.lattice import build_oml
from greechie.render import LOOP_BUDGET, render_dot
from greechie.states import classify_states, enumerate_01_states
from greechie.structure import drop_blocks
from conftest import random_admissible, random_looped
from oracles import brute_01_states, first_failing_pair, strong_set_by_vertices

PENTAGON = "123,345,567,789,9A1."
SQUARE = "123,345,567,781."


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_validate_ok_and_failure_codes(tmp_path, capsys):
    good = write(tmp_path, "good.mmp", "# comment\n123,345.\n")
    assert main(["validate", good]) == 0
    out = capsys.readouterr().out
    assert "ok [greechie]" in out
    bad = write(tmp_path, "bad.mmp", SQUARE + "\n")
    assert main(["validate", bad]) == 2
    assert "loop of order 4" in capsys.readouterr().out


def test_validate_fail_lines_name_every_broken_condition(tmp_path, capsys):
    cases = [
        ('{"atoms": 5, "blocks": [[0, 1, 2]]}',
         "atoms=5 blocks=1 girth=inf connected=false: unused atoms [3, 4]"),
        ("12,234,456.",
         "atoms=6 blocks=3 girth=inf connected=true: blocks below 3 atoms [0]; "
         "condition (iii) pairs [(0, 1)]"),
        ("123,124,345.",
         "atoms=5 blocks=3 girth=2 connected=true: condition (iii) pairs [(0, 1)]; "
         "blocks sharing 2+ atoms [(0, 1)]; loop of order 2"),
    ]
    for line, detail in cases:
        f = write(tmp_path, "bad.mmp", line + "\n")
        assert main(["validate", f]) == 2, line
        assert capsys.readouterr().out == f"{f}:1: FAIL [greechie] {detail}\n"


def test_validate_reports_json_lines_that_do_not_load(tmp_path, capsys):
    cases = [
        ('{"atoms": 3, "blocks": [[0, 0, 1]]}', "block 0 repeats atom 0"),
        ('{"atoms": -1, "blocks": []}', "atom_count must be non-negative"),
        ('{"atoms": 3', "not valid JSON: Expecting ',' delimiter: line 1 column 12 (char 11)"),
    ]
    for line, error in cases:
        f = write(tmp_path, "bad.json", line + "\n")
        assert main(["validate", f]) == 2, line
        assert capsys.readouterr().out == f"{f}:1: parse error: {error}\n"


def test_validate_mmp_level_accepts_square_loop(tmp_path):
    bad = write(tmp_path, "sq.mmp", SQUARE + "\n")
    assert main(["validate", "--mmp", bad]) == 0


def test_validate_whole_corpus_file(tmp_path, capsys):
    lines = "".join(e.mmp_line + "\n" for e in corpus.ENTRIES)
    path = write(tmp_path, "corpus.mmp", lines)
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert out.count("ok [greechie]") == 18


def test_validate_empty_file(tmp_path, capsys):
    empty = write(tmp_path, "empty.mmp", "")
    assert main(["validate", empty]) == 0
    assert capsys.readouterr().out == ""


def test_validate_parse_error(tmp_path, capsys):
    f = write(tmp_path, "x.mmp", "12,34\n")
    assert main(["validate", f]) == 2
    assert "parse error" in capsys.readouterr().out


def test_states_json_lines(tmp_path, capsys):
    f = write(tmp_path, "d.mmp", "123.\n" + corpus.get("35-35a").mmp_line + "\n")
    assert main(["states", f]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert lines[0]["classification"] == "MoreThanOne"
    assert lines[1]["classification"] == "ExactlyOne"
    assert lines[1]["value"] == "1/3"
    assert lines[1]["unique_state"][0] == "1/3"


def test_states_flags(tmp_path, capsys):
    f = write(tmp_path, "d.mmp", "123.\n")
    assert main(["states", f, "--strong", "--zero-one"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["strong"]["admits_strong_set"] is True
    assert doc["zero_one"]["count"] == 3
    assert doc["zero_one"]["admits_strong_01_set"] is True
    # --classical is removed (its answer was block_count == 0): a usage error
    with pytest.raises(SystemExit) as exc:
        main(["states", f, "--classical"])
    assert exc.value.code == 2


def test_states_json_interchange_input(tmp_path, capsys):
    f = write(tmp_path, "d.json", '{"atoms": 3, "blocks": [[0, 1, 2]]}\n')
    assert main(["states", f]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["classification"] == "MoreThanOne"


def test_states_degenerate_two_element_lattice(tmp_path, capsys):
    # only the JSON form can express the blockless diagram; its lattice is
    # the 0 < 1 chain
    f = write(tmp_path, "chain.json", '{"atoms": 0, "blocks": []}\n')
    assert main(["states", f]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["classification"] == "ExactlyOne"


def test_states_parse_error_carries_file(tmp_path, capsys):
    f = write(tmp_path, "bad.mmp", "12,34\n")
    assert main(["states", f]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"file": f, "line": 1, "error": "MMP line must end with a full stop"}


def record_checks(monkeypatch) -> list:
    """The diagram objects that reach ``structure._checks``, in call order."""
    from greechie import structure

    checked = []
    checks = structure._checks
    monkeypatch.setattr(structure, "_checks", lambda d: checked.append(d) or checks(d))
    return checked


def each_checked_once(checked: list) -> bool:
    # the list holds every object, so no two share an id
    return len(set(map(id, checked))) == len(checked)


@pytest.mark.parametrize("flag", ["--strong", "--zero-one", "--strong --zero-one"])
def test_states_requirement_errors(tmp_path, capsys, monkeypatch, flag):
    # blocks below 3 atoms fail (i)-(iii); the square is MMP but has a loop
    # of order 4; the pentagon passes.  Each line runs the checks once, for
    # the classification and the pasted lattice alike
    checked = record_checks(monkeypatch)
    lines = ["12,34.", SQUARE, PENTAGON]
    f = write(tmp_path, "e.mmp", "".join(line + "\n" for line in lines))
    assert main(["states", *flag.split(), f]) == 2
    docs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert docs[:2] == [
        {"file": f, "line": 1, "error": "diagram fails MMP conditions (i)-(iii)"},
        {"file": f, "line": 2, "error": "operation requires a Greechie-admissible diagram"},
    ]
    assert docs[2]["classification"] == "MoreThanOne"
    assert checked == [load_diagram_line(line) for line in lines]
    assert each_checked_once(checked)


@pytest.mark.parametrize("command", ["render", "canon"])
def test_render_and_canon_check_each_line_once(tmp_path, capsys, monkeypatch, command):
    # the requirement and render's loop search, budget-spent on 35-35a,
    # read the checks the diagram keeps
    checked = record_checks(monkeypatch)
    lines = ["12,34.", SQUARE, PENTAGON, corpus.get("35-35a").mmp_line]
    f = write(tmp_path, "e.mmp", "".join(line + "\n" for line in lines))
    assert main([command, f]) == 2
    capsys.readouterr()
    assert checked == [load_diagram_line(line) for line in lines]
    assert each_checked_once(checked)


def test_states_internal_errors_surface(tmp_path, monkeypatch):
    f = write(tmp_path, "p.mmp", PENTAGON + "\n")

    def broken(d):
        raise RuntimeError("internal")

    monkeypatch.setattr("greechie.cli.classify_states", broken)
    with pytest.raises(RuntimeError):
        main(["states", f])


@pytest.mark.parametrize("name", ["73-78-ngv", "73-78-single", "73-73"])
def test_states_zero_one_on_the_73_atom_lattices(tmp_path, capsys, name):
    # no state, or only the 1/3 state: no 0-1 state
    f = write(tmp_path, "w.mmp", corpus.get(name).mmp_line + "\n")
    t0 = time.perf_counter()
    assert main(["states", "--zero-one", f]) == 0
    dt = time.perf_counter() - t0
    doc = json.loads(capsys.readouterr().out)
    assert doc["zero_one"] == {"count": 0, "admits_strong_01_set": False, "failing_pair": ["1", "0"]}
    assert dt < 2.0, f"{name} took {dt:.2f}s"


def test_states_zero_one_matches_the_enumerations(tmp_path, capsys, rng):
    # the corpus lattices, and random admissible diagrams, brute-forced
    lattices = [e.diagram() for e in corpus.ENTRIES]
    cases = [(d, enumerate_01_states(d)) for d in lattices]
    for _ in range(30):
        d = random_admissible(rng, max_blocks=5, sizes=(3, 4))
        cases.append((d, brute_01_states(d)))
    f = write(tmp_path, "z.mmp", "".join(serialize_mmp(d) + "\n" for d, _ in cases))
    assert main(["states", "--zero-one", f]) == 0
    docs = [json.loads(out) for out in capsys.readouterr().out.splitlines()]
    assert len(docs) == len(cases)
    for doc, (d, states) in zip(docs, cases):
        pair = first_failing_pair(build_oml(d), states)
        expected = {"count": len(states), "admits_strong_01_set": pair is None}
        if pair is not None:
            expected["failing_pair"] = [e.label() for e in pair]
        assert doc["zero_one"] == expected, serialize_mmp(d)


def _strong_doc(key: str, pair) -> dict:
    doc = {key: pair is None}
    if pair is not None:
        doc["failing_pair"] = [e.label() for e in pair]
    return doc


def test_states_strong_zero_one_match_the_oracles(tmp_path, capsys, monkeypatch, rng):
    # strong against the vertex oracle (on up to 10 atoms, else the sweep of
    # the vertex list), zero_one against the brute-force 0-1 states (on up
    # to 12 atoms, else the exact cover's).  Where every vertex is a 0-1
    # state, one strong-set sweep serves both results; otherwise, as on the
    # pentagon's 12 vertices and 11 0-1 states, the 0-1 states get a sweep
    # of their own.
    sweeps = []
    sweep = cli._strong_over
    monkeypatch.setattr(cli, "_strong_over", lambda *a: sweeps.append(1) or sweep(*a))
    past_the_zero_pair = (  # every state with m(1) = 1 has m(I) = 0
        "2EP,39W,OPU,5FK,GHO,6HK,BJM,78C,DOT,8GI,NVX,FPW,1CU,EJV,IRZ,9AQ,BFI,"
        "6NR,5AL,28A,3SY,EYZ,9HJ,CKY,QTZ,7MT,LMS,1QX,5DV,246,34D,LRU,7NW."
    )
    diagrams = [load_diagram_line(line) for line in ("123.", PENTAGON, past_the_zero_pair)]
    diagrams += [corpus.diagram("35-35a")]
    diagrams += [random_looped(rng, max_atoms=10) for _ in range(60)]
    diagrams += [random_looped(rng, max_atoms=12) for _ in range(20)]
    seen = {"one sweep": 0, "two sweeps": 0, "strong fails": 0, "zero_one fails": 0}
    for d in diagrams:
        poset = build_oml(d)
        s = classify_states(d)
        if d.atom_count <= 10:
            strong_pair = strong_set_by_vertices(d)
        else:
            strong_pair = first_failing_pair(poset, s.vertices)
        states01 = brute_01_states(d) if d.atom_count <= 12 else enumerate_01_states(d)
        zero_one_pair = first_failing_pair(poset, states01)
        f = write(tmp_path, "d.mmp", serialize_mmp(d) + "\n")
        sweeps.clear()
        assert main(["states", "--strong", "--zero-one", f]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["strong"] == _strong_doc("admits_strong_set", strong_pair), serialize_mmp(d)
        assert doc["zero_one"] == {
            "count": len(states01),
            **_strong_doc("admits_strong_01_set", zero_one_pair),
        }, serialize_mmp(d)
        reused = len(states01) == len(s.vertices)
        assert len(sweeps) == (1 if reused else 2)
        seen["one sweep" if reused else "two sweeps"] += 1
        seen["strong fails"] += strong_pair is not None
        seen["zero_one fails"] += zero_one_pair is not None
    assert min(seen.values()) >= 2, seen


def test_states_strong_zero_one_on_a_73_atom_sub_diagram(tmp_path, capsys):
    # admissible and MoreThanOne, where block-order backtracking over the
    # 0-1 states did not finish in 15 s
    d, _ = drop_blocks(corpus.diagram("73-73"), {0})
    f = write(tmp_path, "d.mmp", serialize_mmp(d) + "\n")
    t0 = time.perf_counter()
    assert main(["states", "--strong", "--zero-one", f]) == 0
    dt = time.perf_counter() - t0
    doc = json.loads(capsys.readouterr().out)
    assert doc["classification"] == "MoreThanOne"
    assert doc["zero_one"]["count"] == 0
    assert dt < 1.0, f"took {dt:.2f}s"


def test_validate_greechie_flag_explicit(tmp_path):
    good = write(tmp_path, "g.mmp", "123,345.\n")
    assert main(["validate", "--greechie", good]) == 0


def test_generate_count_only(capsys):
    assert main(["generate", "--atoms", "12", "--blocks", "12", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_generate_includes_pentagon(capsys):
    assert main(["generate", "--atoms", "10", "--blocks", "5"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1
    from greechie.diagram import parse_mmp
    from greechie.symmetry import are_isomorphic

    assert are_isomorphic(parse_mmp(out[0]), parse_mmp(PENTAGON)) is not None


def test_generate_stderr_summary_keys(capsys):
    assert main(["generate", "--atoms", "10", "--blocks", "5", "--count-only"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "1\n"
    fields = captured.err.strip().removeprefix("# ").split()
    assert [f.split("=")[0] for f in fields] == [
        "nodes",
        "canonical_rejections",
        "girth_prunes",
        "budget_prunes",
        "emitted",
        "wall",
    ]
    assert "emitted=1" in fields


def test_generate_oracle_cross_check(capsys):
    assert main(["generate", "--atoms", "7", "--blocks", "3", "--count-only", "--oracle"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_generate_streams_each_line_as_emitted(capsys, monkeypatch):
    # stdout is the library's emission sequence, one line each, and each
    # line is printed before generation moves on; --count-only prints only
    # the count, for any worker count
    from greechie import cli
    from greechie.generate import GenSpec, generate

    expected = []
    generate(GenSpec(11, 5), expected.append)
    printed = []

    def spy(spec, sink, **kwargs):
        def traced(line):
            sink(line)
            printed.append(capsys.readouterr().out)

        return generate(spec, traced, **kwargs)

    monkeypatch.setattr(cli, "generate", spy)
    assert main(["generate", "--atoms", "11", "--blocks", "5"]) == 0
    assert printed == [line + "\n" for line in expected]
    monkeypatch.undo()
    for workers in ("1", "2"):
        assert main(["generate", "--atoms", "11", "--blocks", "5", "--workers", workers]) == 0
        assert capsys.readouterr().out == "".join(line + "\n" for line in expected)
        argv = ["generate", "--atoms", "11", "--blocks", "5", "--workers", workers, "--count-only"]
        assert main(argv) == 0
        assert capsys.readouterr().out == f"{len(expected)}\n"


def test_generate_oracle_skipped_past_the_guard(capsys):
    assert main(["generate", "--atoms", "30", "--blocks", "10", "--oracle"]) == 3
    err = capsys.readouterr().err.splitlines()
    universe = math.comb(math.comb(30, 3), 10)
    assert err[-1] == f"oracle skipped: {universe} candidate block sets exceed the {BRUTE_FORCE_GUARD} guard"


def test_generate_with_no_blocks(capsys):
    # (0, 0) has one class, the empty diagram, and (3, 0) none; no node is
    # searched and the oracle agrees
    for atoms, out in (("0", ".\n"), ("3", "")):
        assert main(["generate", "--atoms", atoms, "--blocks", "0", "--oracle"]) == 0
        captured = capsys.readouterr()
        assert captured.out == out
        counts, oracle = captured.err.splitlines()
        emitted = len(out.split())
        assert counts.startswith(
            f"# nodes=0 canonical_rejections=0 girth_prunes=0 budget_prunes=0 emitted={emitted} wall="
        )
        assert oracle == f"oracle agrees: {emitted} classes"


def test_generate_past_the_alphabet_prints_what_canon_prints(tmp_path, capsys):
    # 91 atoms have no MMP spelling: generation writes the JSON form, as
    # canon does, serially and as checkpointed subtree tasks
    block = write(tmp_path, "block.json", json.dumps({"atoms": 91, "blocks": [list(range(91))]}) + "\n")
    assert main(["canon", block]) == 0
    text, count = capsys.readouterr().out.rstrip("\n").rsplit(" ", 1)
    assert text.startswith("{") and count == str(math.factorial(91))
    argv = ["generate", "--atoms", "91", "--blocks", "1", "--block-size", "91"]
    for extra in ([], ["--workers", "2", "--checkpoint", str(tmp_path / "cp.jsonl")]):
        assert main(argv + extra) == 0, extra
        assert capsys.readouterr().out == text + "\n"
    assert membership_probe(load_diagram_line(text), GenSpec(91, 1, block_size=91))


def test_generate_invalid_spec(capsys):
    assert main(["generate", "--atoms", "4", "--blocks", "1", "--block-size", "2"]) == 3


def test_generate_refuses_a_checkpoint_for_another_spec(tmp_path, capsys):
    cp = str(tmp_path / "cp.jsonl")
    assert main(["generate", "--atoms", "13", "--blocks", "6", "--checkpoint", cp]) == 0
    with open(cp) as fh:
        before = fh.read()
    capsys.readouterr()
    assert main(["generate", "--atoms", "12", "--blocks", "6", "--checkpoint", cp]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"checkpoint error: {cp}: written for another spec")
    with open(cp) as fh:
        assert fh.read() == before


def test_render_pipe(tmp_path, capsys):
    f = write(tmp_path, "p.mmp", PENTAGON + "\n")
    assert main(["render", f]) == 0
    assert capsys.readouterr().out.startswith("graph mmp {")
    bad = write(tmp_path, "sq.mmp", SQUARE + "\n")
    assert main(["render", bad]) == 2
    # each bad line is reported and the lines after it still render
    capsys.readouterr()
    mixed = write(tmp_path, "m.mmp", "\n".join([PENTAGON, SQUARE, "12,34", PENTAGON]) + "\n")
    assert main(["render", mixed]) == 2
    captured = capsys.readouterr()
    assert captured.out == 2 * render_dot(load_diagram_line(PENTAGON))
    assert [e.split(": ", 1)[0] for e in captured.err.splitlines()] == [f"{mixed}:2", f"{mixed}:3"]


def test_render_notes_a_loop_not_proven_longest(tmp_path, capsys):
    lines = [PENTAGON, corpus.get("35-35a").mmp_line, corpus.get("36-36").mmp_line]
    f = write(tmp_path, "r.mmp", "\n".join(lines) + "\n")
    assert main(["render", f]) == 0
    captured = capsys.readouterr()
    assert captured.out == "".join(render_dot(load_diagram_line(x)) for x in lines)
    # 35-35a needs more nodes than the budget to prove its 16-loop longest
    assert captured.err == (
        f"{f}:2: note: the outer loop, of order 16, is the longest found "
        f"within {LOOP_BUDGET} search nodes\n"
    )


def test_render_notes_over_the_corpus(tmp_path, capsys):
    f = write(tmp_path, "corpus.mmp", "".join(e.mmp_line + "\n" for e in corpus.ENTRIES))
    assert main(["render", f]) == 0
    # the nine lattices whose longest loop is not proven within the budget:
    # the five 35-35s, 38-38h, 73-78-ngv, 73-78-single and 73-73
    unproven = {"35-35a": 16, "35-35b": 16, "35-35c": 16, "35-35d": 16, "35-35e": 16,
                "38-38h": 18, "73-78-ngv": 30, "73-78-single": 32, "73-73": 30}
    assert capsys.readouterr().err == "".join(
        f"{f}:{lineno}: note: the outer loop, of order {unproven[e.name]}, is the longest "
        f"found within {LOOP_BUDGET} search nodes\n"
        for lineno, e in enumerate(corpus.ENTRIES, start=1) if e.name in unproven
    )


def test_canon_output(tmp_path, capsys):
    f = write(tmp_path, "c.mmp", "123.\n123,345.\n")
    assert main(["canon", f]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "123. 6"
    text, count = lines[1].rsplit(" ", 1)
    assert text.endswith(".") and int(count) == 8


def test_canon_input_errors_exit_2_and_internal_errors_surface(tmp_path, capsys, monkeypatch):
    # a parse error and a line failing MMP condition (ii) between valid lines
    f = write(tmp_path, "c.mmp", "123.\n123,345\n12.\n123,345.\n")
    assert main(["canon", f]) == 2
    captured = capsys.readouterr()
    out = captured.out.splitlines()
    assert len(out) == 2 and out[0] == "123. 6" and out[1].endswith(" 8")
    errors = captured.err.splitlines()
    assert [e.split(": ", 1)[0] for e in errors] == [f"{f}:2", f"{f}:3"]
    assert "full stop" in errors[0] and "MMP conditions" in errors[1]

    def broken(d):
        raise RuntimeError("internal")

    monkeypatch.setattr("greechie.cli.canonical_form", broken)
    with pytest.raises(RuntimeError):
        main(["canon", f])


def test_corpus_list_show_check(capsys):
    assert main(["corpus", "--list"]) == 0
    names = capsys.readouterr().out.split()
    assert len(names) == 18
    assert main(["corpus", "--show", "44-44"]) == 0
    line = capsys.readouterr().out.strip()
    assert line == corpus.get("44-44").mmp_line
    assert main(["corpus", "--show", "nope"]) == 2


def test_corpus_check_runs_clean(capsys):
    assert main(["corpus", "--check"]) == 0
    out = capsys.readouterr().out
    assert out.count(": ok") == 18


def test_exit_codes_of_every_command(tmp_path, capsys, monkeypatch):
    # 0 success, 1 analysis-claim mismatch, 2 format or validation error,
    # 3 invalid generation spec
    from greechie import cli

    good = write(tmp_path, "good.mmp", PENTAGON + "\n")
    square = write(tmp_path, "square.mmp", SQUARE + "\n")
    short = write(tmp_path, "short.mmp", "12.\n")  # fails MMP condition (ii)
    unparsable = write(tmp_path, "unparsable.mmp", "12,34\n")
    # JSON true is no atom count or index, though Python's bool is an int
    true_count = write(tmp_path, "true_count.json", '{"atoms": true, "blocks": []}\n')
    true_atom = write(tmp_path, "true_atom.json", '{"atoms": 3, "blocks": [[0, true, 2]]}\n')
    missing = str(tmp_path / "missing.mmp")
    unreadable_checkpoint = write(tmp_path, "cp.jsonl", "not json\n")
    pentagon = ["generate", "--atoms", "10", "--blocks", "5"]
    oracle = ["generate", "--atoms", "7", "--blocks", "3", "--count-only", "--oracle"]
    cases = [
        (["validate", good], 0),
        (["validate", square], 2),
        (["validate", true_count], 2),
        (["states", good], 0),
        (["states", unparsable], 2),  # reported in the line's JSON object
        (["states", missing], 2),
        (["render", good], 0),
        (["render", square], 2),
        (["canon", good], 0),
        (["canon", short], 2),
        (["canon", true_atom], 2),
        (pentagon, 0),
        (oracle, 0),
        (["generate", "--atoms", "4", "--blocks", "1", "--block-size", "2"], 3),
        (pentagon + ["--workers", "0"], 3),
        (pentagon + ["--workers", "-1"], 3),
        (pentagon + ["--checkpoint", unreadable_checkpoint], 2),
        (["corpus", "--show", "44-44"], 0),
        (["corpus", "--show", "nope"], 2),
    ]
    assert [main(argv) for argv, _ in cases] == [code for _, code in cases]
    monkeypatch.setattr(cli, "brute_force_generate", lambda spec: [])
    assert main(oracle) == 1
    wrong = dataclasses.replace(corpus.get("36-36"), element_count=1)
    monkeypatch.setattr(corpus, "ENTRIES", (wrong,))
    capsys.readouterr()
    assert main(["corpus", "--check"]) == 1
    assert capsys.readouterr().out == "36-36: FAIL: element count 74 != 1\n"


def test_corpus_check_names_each_failed_claim(capsys, monkeypatch):
    # 36-36 meets every claim; each copy breaks one.  The published states
    # are the uniform 1/3, a state, and the uniform 1/2, which is not one
    entry = corpus.get("36-36")
    wrong = (
        dataclasses.replace(entry, name="class", state_classification=corpus.MORE_THAN_ONE),
        dataclasses.replace(entry, name="value", unique_state_value=Fraction(1, 2)),
        dataclasses.replace(entry, name="dual", self_dual=False),
        dataclasses.replace(entry, name="strong", admits_strong_set=True),
        dataclasses.replace(entry, name="published"),
        dataclasses.replace(entry, name="square", mmp_line=SQUARE),
    )
    n = entry.diagram().atom_count
    published = ((Fraction(1, 3),) * n, (Fraction(1, 2),) * n)
    monkeypatch.setitem(corpus.KNOWN_STATES, "published", published)
    monkeypatch.setattr(corpus, "ENTRIES", wrong)
    assert main(["corpus", "--check"]) == 1
    assert capsys.readouterr().out == (
        "class: FAIL: classification ExactlyOne != MoreThanOne\n"
        "value: FAIL: unique state is not uniformly the claimed value\n"
        "dual: FAIL: self_dual True != False\n"
        "strong: FAIL: admits_strong_set False != True\n"
        "published: FAIL: published state 2 fails is_state\n"
        "square: FAIL: not greechie-admissible\n"
    )


def test_an_input_file_that_does_not_decode_exits_2(tmp_path, capsys):
    # the same bytes on stdin under the C locale are a parse error
    bad = tmp_path / "bad.mmp"
    bad.write_bytes(b"\xff123.\n")
    good = tmp_path / "good.mmp"
    good.write_text("123.\n")
    for command in ("validate", "states", "canon", "render"):
        assert main([command, str(bad)]) == 2, command
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"io error: {bad}: ") and err.count("\n") == 1, (command, err)
        if command == "render":  # one file
            continue
        # with several files, the line names the one that failed, after the
        # output of those before it
        assert main([command, str(good)]) == 0, command
        before = capsys.readouterr().out
        assert main([command, str(good), str(bad)]) == 2, command
        out, err = capsys.readouterr()
        assert out == before and err.startswith(f"io error: {bad}: ") and err.count("\n") == 1, (command, err)


def test_corpus_check_validates_each_entry_once(capsys, monkeypatch):
    # each entry's lattice, states and strong-set claims share one check of
    # its diagram; a self-duality claim also checks the dual, a second object
    from greechie import structure

    calls = []
    validate = structure.validate

    def counting(d):
        calls.append(d)
        return validate(d)

    monkeypatch.setattr(structure, "validate", counting)
    checked = record_checks(monkeypatch)
    assert main(["corpus", "--check"]) == 0
    assert capsys.readouterr().out.count(": ok") == 18
    assert len(calls) == 18
    assert len(checked) == 18 + sum(e.self_dual is not None for e in corpus.ENTRIES)
    assert each_checked_once(checked)


def test_one_parser_serves_every_call_without_carrying_options_over(tmp_path, capsys):
    # main() builds its parser once per process; what one call sets, the
    # next call must not see
    f = write(tmp_path, "p.mmp", PENTAGON + "\n")
    assert main(["states", "--strong", "--zero-one", f]) == 0
    assert {"strong", "zero_one"} <= json.loads(capsys.readouterr().out).keys()
    assert main(["states", f]) == 0
    plain = capsys.readouterr().out
    assert not {"strong", "zero_one"} & json.loads(plain).keys()
    assert main(["validate", "--mmp", f]) == 0
    assert "ok [mmp]" in capsys.readouterr().out
    assert main(["validate", f]) == 0
    assert "ok [greechie]" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["states"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["states", f]) == 0
    assert capsys.readouterr().out == plain
    pentagons = ["generate", "--atoms", "10", "--blocks", "5"]
    assert main(pentagons + ["--count-only"]) == 0
    assert capsys.readouterr().out == "1\n"
    assert main(pentagons) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert load_diagram_line(line).block_count == 5
