"""Command-line interface.

Exit codes: 0 success, 1 analysis-claim mismatch (``corpus --check``,
``generate --oracle``), 2 format or validation error (also a
``generate --checkpoint`` file for another spec or that does not read),
3 invalid generation spec (including ``--workers`` below 1).  Input
files hold one diagram per line in MMP notation (lines starting with '#'
are comments); a line opening with '{' is read as the JSON interchange
form instead.  ``-`` means stdin.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import corpus
from .diagram import MmpDiagram, iter_mmp_lines, load_diagram_line
from .errors import BadCheckpoint, InvalidSpec, MmpError, NotAdmissible, NotValidated, TooLarge
from .generate import GenSpec, brute_force_generate, generate
from .lattice import build_oml
from .render import LOOP_BUDGET, render_dot
from .states import Classification, _enumerate_01, _strong_over, classify_states, is_state
from .structure import validate
from .symmetry import canonical_form, is_self_dual

OK, CLAIM_MISMATCH, FORMAT_ERROR, BAD_SPEC = 0, 1, 2, 3


def _open_lines(path: str):
    if path == "-":
        yield from iter_mmp_lines(sys.stdin)
    else:
        with open(path) as fh:
            yield from iter_mmp_lines(fh)


def cmd_validate(args) -> int:
    status = OK
    for path in args.files:
        for lineno, line in _open_lines(path):
            where = f"{path}:{lineno}"
            try:
                d = load_diagram_line(line)
            except MmpError as exc:
                print(f"{where}: parse error: {exc}")
                status = FORMAT_ERROR
                continue
            rep = validate(d)
            if args.mmp:
                passed = bool(rep.mmp_i and rep.mmp_ii and rep.mmp_iii)
                level = "mmp"
            else:
                passed = rep.greechie_admissible
                level = "greechie"
            girth = "inf" if rep.girth is None else str(rep.girth)
            detail = (
                f"atoms={d.atom_count} blocks={d.block_count} girth={girth} "
                f"connected={str(rep.connected).lower()}"
            )
            if passed:
                print(f"{where}: ok [{level}] {detail}")
            else:
                problems = []
                if not rep.mmp_i:
                    problems.append(f"unused atoms {list(rep.mmp_i.offenders)}")
                if not rep.mmp_ii:
                    problems.append(f"blocks below 3 atoms {list(rep.mmp_ii.offenders)}")
                if not rep.mmp_iii:
                    problems.append(f"condition (iii) pairs {list(rep.mmp_iii.offenders)}")
                if not rep.pairwise_intersections:
                    problems.append(
                        f"blocks sharing 2+ atoms {list(rep.pairwise_intersections.offenders)}"
                    )
                if rep.girth is not None and rep.girth < 5:
                    problems.append(f"loop of order {rep.girth}")
                print(f"{where}: FAIL [{level}] {detail}: {'; '.join(problems)}")
                status = FORMAT_ERROR
    return status


def _summary_json(d: MmpDiagram, args) -> dict:
    summary = classify_states(d)
    doc: dict = {"classification": summary.classification.value}
    if summary.classification is Classification.EXACTLY_ONE:
        doc["unique_state"] = [str(v) for v in summary.unique_state]
        values = set(summary.unique_state)
        if len(values) == 1:
            doc["value"] = str(values.pop())
    if summary.atom_ranges is not None:
        doc["atom_ranges"] = [[str(lo), str(hi)] for lo, hi in summary.atom_ranges]
    if summary.classification is Classification.MORE_THAN_ONE:
        doc["witnesses"] = [
            [str(v) for v in summary.witness_state],
            [str(v) for v in summary.second_witness],
        ]
    poset = build_oml(d) if args.zero_one or args.strong else None
    strong = _strong_over(poset, summary.zero_masks) if args.strong else None
    if args.zero_one:
        zeros = _enumerate_01(d)
        # A 0-1 state is a vertex of any polytope inside the unit cube: as
        # many 0-1 states as vertices means the same set, so the same report
        same = strong is not None and len(zeros) == len(summary.zero_masks)
        rep = strong if same else _strong_over(poset, zeros)
        doc["zero_one"] = {"count": len(zeros), "admits_strong_01_set": rep.admits}
        if rep.witness_pair:
            doc["zero_one"]["failing_pair"] = [e.label() for e in rep.witness_pair]
    if strong is not None:
        doc["strong"] = {"admits_strong_set": strong.admits}
        if strong.witness_pair:
            doc["strong"]["failing_pair"] = [e.label() for e in strong.witness_pair]
    return doc


def cmd_states(args) -> int:
    status = OK
    for path in args.files:
        for lineno, line in _open_lines(path):
            try:
                d = load_diagram_line(line)
            except MmpError as exc:
                print(json.dumps({"file": path, "line": lineno, "error": str(exc)}))
                status = FORMAT_ERROR
                continue
            doc = {"file": path, "line": lineno}
            try:
                doc.update(_summary_json(d, args))
            except (NotValidated, NotAdmissible) as exc:  # report the line, keep going
                doc["error"] = str(exc)
                status = FORMAT_ERROR
            print(json.dumps(doc))
    return status


def cmd_generate(args) -> int:
    spec = GenSpec(
        atom_count=args.atoms,
        block_count=args.blocks,
        block_size=args.block_size,
        min_girth=args.min_girth,
        require_connected=not args.allow_disconnected,
        min_atom_degree=args.min_degree,
    )
    lines: list[str] = []  # kept only for the oracle

    def emit(line: str) -> None:
        if not args.count_only:
            print(line)
        if args.oracle:
            lines.append(line)

    try:
        stats = generate(spec, emit, workers=args.workers, checkpoint=args.checkpoint)
    except InvalidSpec as exc:
        print(f"invalid spec: {exc}", file=sys.stderr)
        return BAD_SPEC
    except BadCheckpoint as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return FORMAT_ERROR
    if args.count_only:
        print(stats.emitted_count)
    print(
        f"# nodes={stats.nodes_explored} canonical_rejections={stats.canonical_rejections} "
        f"girth_prunes={stats.girth_prunes} budget_prunes={stats.budget_prunes} "
        f"emitted={stats.emitted_count} wall={stats.wall_time:.2f}s",
        file=sys.stderr,
    )
    if args.oracle:
        try:
            reference = sorted(f.canonical_text for f in brute_force_generate(spec))
        except TooLarge as exc:
            print(f"oracle skipped: {exc}", file=sys.stderr)
            return BAD_SPEC
        if sorted(lines) != reference:
            print("oracle DISAGREES with generator", file=sys.stderr)
            return CLAIM_MISMATCH
        print(f"oracle agrees: {len(reference)} classes", file=sys.stderr)
    return OK


def cmd_render(args) -> int:
    status = OK
    for lineno, line in _open_lines(args.file):
        drawn = []  # the loop render_dot lays out, if any
        try:
            d = load_diagram_line(line)
            sys.stdout.write(render_dot(d, on_loop=drawn.append))
        except (MmpError, NotAdmissible) as exc:
            print(f"{args.file}:{lineno}: {exc}", file=sys.stderr)
            status = FORMAT_ERROR
            continue
        if drawn and not drawn[0].exact:
            print(
                f"{args.file}:{lineno}: note: the outer loop, of order {drawn[0].order}, is the "
                f"longest found within {LOOP_BUDGET} search nodes",
                file=sys.stderr,
            )
    return status


def cmd_canon(args) -> int:
    status = OK
    for path in args.files:
        for lineno, line in _open_lines(path):
            try:
                d = load_diagram_line(line)
                cf = canonical_form(d)
            except (MmpError, NotValidated) as exc:
                print(f"{path}:{lineno}: error: {exc}", file=sys.stderr)
                status = FORMAT_ERROR
                continue
            print(f"{cf.canonical_text} {cf.automorphism_count}")
    return status


def _check_entry(entry: corpus.CorpusEntry) -> list[str]:
    problems: list[str] = []
    d = entry.diagram()
    try:
        poset = build_oml(d)  # validates once, for every check below
    except NotAdmissible:
        return ["not greechie-admissible"]
    summary = None
    if entry.state_classification is not None:
        summary = classify_states(d)
        if summary.classification.value != entry.state_classification:
            problems.append(
                f"classification {summary.classification.value} != {entry.state_classification}"
            )
        elif entry.unique_state_value is not None:
            if set(summary.unique_state) != {entry.unique_state_value}:
                problems.append("unique state is not uniformly the claimed value")
    if entry.element_count is not None:
        ec = len(poset.elements)
        if ec != entry.element_count:
            problems.append(f"element count {ec} != {entry.element_count}")
    if entry.self_dual is not None:
        sd = is_self_dual(d)
        if sd != entry.self_dual:
            problems.append(f"self_dual {sd} != {entry.self_dual}")
    if entry.admits_strong_set is not None:
        rep_strong = _strong_over(poset, (summary or classify_states(d)).zero_masks)
        if rep_strong.admits != entry.admits_strong_set:
            problems.append(f"admits_strong_set {rep_strong.admits} != {entry.admits_strong_set}")
    if entry.name in corpus.KNOWN_STATES:
        for i, vec in enumerate(corpus.KNOWN_STATES[entry.name]):
            if not is_state(d, vec):
                problems.append(f"published state {i + 1} fails is_state")
    return problems


def cmd_corpus(args) -> int:
    if args.list:
        for name in corpus.names():
            print(name)
        return OK
    if args.show:
        try:
            print(corpus.get(args.show).mmp_line)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return FORMAT_ERROR
        return OK
    status = OK
    for entry in corpus.ENTRIES:
        problems = _check_entry(entry)
        if problems:
            print(f"{entry.name}: FAIL: {'; '.join(problems)}")
            status = CLAIM_MISMATCH
        else:
            print(f"{entry.name}: ok")
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greechie",
        description="MMP/Greechie diagram toolkit: validation, states, generation, rendering",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check MMP/Greechie conditions line by line")
    p.add_argument("files", nargs="+", help="MMP files ('-' for stdin)")
    level = p.add_mutually_exclusive_group()
    level.add_argument("--mmp", action="store_true", help="require only conditions (i)-(iii)")
    level.add_argument(
        "--greechie", action="store_true", help="require Greechie admissibility (default)"
    )
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("states", help="classify the state polytope per line (JSON lines)")
    p.add_argument("files", nargs="+")
    p.add_argument("--strong", action="store_true", help="decide strong-set admission")
    p.add_argument("--zero-one", dest="zero_one", action="store_true", help="count 0-1 states")
    p.set_defaults(func=cmd_states)

    p = sub.add_parser("generate", help="exhaustive isomorph-free generation")
    p.add_argument("--atoms", type=int, required=True)
    p.add_argument("--blocks", type=int, required=True)
    p.add_argument("--block-size", type=int, default=3)
    p.add_argument("--min-girth", type=int, default=5)
    p.add_argument("--allow-disconnected", action="store_true")
    p.add_argument("--min-degree", type=int, default=1)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--checkpoint", help="file of per-task JSON records for resumable runs")
    p.add_argument("--oracle", action="store_true", help="cross-check with brute force")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("render", help="emit Graphviz DOT with the biggest loop outside")
    p.add_argument("file")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("canon", help="canonical MMP line and automorphism count per line")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_canon)

    p = sub.add_parser("corpus", help="published lattices with expected properties")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--list", action="store_true")
    mode.add_argument("--show", metavar="NAME")
    mode.add_argument("--check", action="store_true")
    p.set_defaults(func=cmd_corpus)

    return parser


_parser = cache(build_parser)  # built by the first main() call; parsing leaves it unchanged


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return FORMAT_ERROR


if __name__ == "__main__":
    sys.exit(main())
