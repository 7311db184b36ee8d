import dataclasses
import json
import time

import pytest

from greechie import cli, corpus
from greechie.cli import main
from greechie.diagram import load_diagram_line, serialize_mmp
from greechie.generate import GenSpec, generate
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


@pytest.mark.parametrize("flag", ["--strong", "--zero-one"])
def test_states_requirement_errors(tmp_path, capsys, flag):
    # blocks below 3 atoms fail (i)-(iii); the square is MMP but has a loop of order 4
    f = write(tmp_path, "e.mmp", "12,34.\n" + SQUARE + "\n")
    assert main(["states", flag, f]) == 2
    docs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert docs == [
        {"file": f, "line": 1, "error": "diagram fails MMP conditions (i)-(iii)"},
        {"file": f, "line": 2, "error": "operation requires a Greechie-admissible diagram"},
    ]


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


def test_corpus_check_validates_each_entry_once(capsys, monkeypatch):
    from greechie import structure

    calls = []
    validate = structure.validate

    def counting(d):
        calls.append(d)
        return validate(d)

    monkeypatch.setattr(structure, "validate", counting)
    assert main(["corpus", "--check"]) == 0
    assert capsys.readouterr().out.count(": ok") == 18
    assert len(calls) == 18


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
