"""Operations and output checks for each benchmark workload.

An operation is one ``greechie`` command line with its stdin text and a
check of what it printed.  Inputs come from the committed files in
``data/`` and from the seed; nothing here imports the package, so the
program only ever sees the generated input lines.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from pathlib import Path
from typing import Callable

DATA = Path(__file__).resolve().parent / "data"

#: The 90 atom symbols of the MMP notation, in index order.
ALPHABET = (
    "123456789"
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    "abcdefghijklmnopqrstuvwxyz"
    "!\"#$%&'()*-/:;<=>?@[\\]^_`{|}~"
)
_INDEX = {c: i for i, c in enumerate(ALPHABET)}

WORKLOADS = ("census", "corpus", "sweep", "canon")

CENSUS_SPECS = ((12, 6), (13, 6), (14, 7), (15, 7))
STAR_SPOKES = (4, 5, 6, 7)
DISJOINT_BLOCKS = (2, 3, 4, 8)
CYCLE_LENGTHS = (5, 8, 12, 20)
CANON_RELABELLINGS = 5  # seeded relabellings of each corpus lattice
CORPUS_COMMANDS = {
    "validate": ["validate", "-"],
    "strong": ["states", "--strong", "-"],
    "zero-one": ["states", "--zero-one", "-"],
    "canon": ["canon", "-"],
    "render": ["render", "-"],
}

Check = Callable[[str], "str | None"]


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    stdin: str
    check: Check  # stdout -> None when correct, else what is wrong
    units: int = 1  # completed work counted by ops_per_s


# -- MMP lines ----------------------------------------------------------------


def parse_line(line: str) -> list[list[int]]:
    return [[_INDEX[c] for c in part] for part in line.rstrip(".").split(",")]


def format_line(blocks) -> str:
    return ",".join("".join(ALPHABET[a] for a in b) for b in blocks) + "."


def relabel(line: str, rng: random.Random) -> tuple[str, list[list[int]]]:
    """Permute the used atoms, the atoms inside each block and the blocks."""
    blocks = parse_line(line)
    used = sorted({a for b in blocks for a in b})
    image = used[:]
    rng.shuffle(image)
    perm = dict(zip(used, image))
    out = [[perm[a] for a in b] for b in blocks]
    for b in out:
        rng.shuffle(b)
    rng.shuffle(out)
    while ALPHABET[out[0][0]] in "#{":  # would read as a comment or as JSON
        out[0].append(out[0].pop(0))
    return format_line(out), out


def star(k: int) -> str:
    return format_line([(2 * i, 2 * i + 1, 2 * k) for i in range(k)])


def disjoint(k: int) -> str:
    return format_line([(3 * i, 3 * i + 1, 3 * i + 2) for i in range(k)])


def cycle(k: int) -> str:
    return format_line([(2 * i, 2 * i + 1, (2 * i + 2) % (2 * k)) for i in range(k)])


def families() -> list[tuple[str, str, int]]:
    """(name, line, |Aut| in closed form) for the high-symmetry families."""
    out = [(f"star-{k}", star(k), factorial(k) * 2**k) for k in STAR_SPOKES]
    out += [(f"disjoint-{k}", disjoint(k), factorial(k) * 6**k) for k in DISJOINT_BLOCKS]
    out += [(f"cycle-{k}", cycle(k), 2 * k) for k in CYCLE_LENGTHS]
    return out


def load(name: str):
    with open(DATA / name) as fh:
        return json.load(fh)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- checks -------------------------------------------------------------------


def _exact(expected: str) -> Check:
    return lambda out: None if out == expected else "output differs from the recorded one"


def _state_problem(vec: list[str], blocks: list[list[int]]) -> str | None:
    vals = [Fraction(v) for v in vec]
    if any(v < 0 or v > 1 for v in vals):
        return "witness value outside [0, 1]"
    if any(sum(vals[a] for a in b) != 1 for b in blocks):
        return "witness does not sum to 1 on a block"
    return None


def _sweep_check(blocks: list[list[int]], exp: dict) -> Check:
    def check(out: str) -> str | None:
        doc = json.loads(out)
        if doc.get("classification") != exp["classification"]:
            return f"classification {doc.get('classification')}"
        ranges = doc["atom_ranges"]
        if sorted(map(tuple, ranges)) != sorted(map(tuple, exp["atom_ranges"])):
            return "atom ranges differ as a multiset"
        witnesses = doc.get("witnesses", [])
        if len(witnesses) != 2 or witnesses[0] == witnesses[1]:
            return "expected two distinct witness states"
        for w in witnesses:
            problem = _state_problem(w, blocks)
            if problem:
                return problem
            if any(not Fraction(lo) <= Fraction(v) <= Fraction(hi) for v, (lo, hi) in zip(w, ranges)):
                return "witness outside its atom range"
        strong = doc["strong"]
        if strong["admits_strong_set"] != exp["strong"] or ("failing_pair" in strong) == exp["strong"]:
            return "strong-set decision differs"
        zero_one = doc["zero_one"]
        if zero_one["count"] != exp["zero_one_count"]:
            return f"0-1 count {zero_one['count']}"
        if zero_one["admits_strong_01_set"] != exp["strong_01"]:
            return "strong 0-1 decision differs"
        return None

    return check


def _canon_check(canonical: str | None, aut: int, atoms: int) -> Check:
    def check(out: str) -> str | None:
        parts = out.split()
        if len(parts) != 2 or out.count("\n") != 1:
            return "expected one '<canonical line> <|Aut|>' line"
        if parts[1] != str(aut):
            return f"|Aut| {parts[1]} != {aut}"
        if canonical is not None and parts[0] != canonical:
            return "canonical text is not relabelling-invariant"
        if canonical is None and max(_INDEX[c] for c in parts[0] if c in _INDEX) + 1 != atoms:
            return "canonical text has the wrong atom count"
        return None

    return check


def _corpus_check(entry: dict, cmd: str, recorded: dict | None) -> Check:
    """Compare with the recorded CLI output, then with the published claims."""

    def check(out: str) -> str | None:
        if recorded is not None and sha256(out) != recorded["sha256"]:
            return "output differs from the recorded one"
        if cmd in ("strong", "zero-one"):
            doc = json.loads(out)
            claimed = entry["classification"]
            if claimed is not None and doc.get("classification") != claimed:
                return f"classification {doc.get('classification')} != {claimed}"
            if entry["value"] is not None and doc.get("value") != entry["value"]:
                return "unique state is not the claimed value"
            if cmd == "strong" and entry["strong"] is not None:
                if doc["strong"]["admits_strong_set"] != entry["strong"]:
                    return "strong-set decision contradicts the claim"
            if cmd == "zero-one" and doc["classification"] != "MoreThanOne":
                # a 0-1 state is a state: none exist unless the only state is 0-1
                only = doc.get("unique_state", [])
                none_01 = doc["classification"] == "None" or any(v not in ("0", "1") for v in only)
                if none_01 and doc["zero_one"]["count"] != 0:
                    return "0-1 states counted where no state is 0-1"
        if cmd == "render" and recorded is None:
            atoms = 1 + max(a for b in parse_line(entry["line"]) for a in b)
            nodes = [ln for ln in out.splitlines() if ln.startswith('  "') and "--" not in ln]
            if not out.startswith("graph mmp {") or not out.endswith("}\n") or len(nodes) != atoms:
                return "not a DOT graph with one node per atom"
        return None

    return check


# -- workloads ----------------------------------------------------------------


def census_ops(rng: random.Random) -> list[Op]:
    data = load("census.json")
    specs = list(CENSUS_SPECS)
    rng.shuffle(specs)
    ops = []
    for a, b in specs:
        lines = data[f"{a},{b}"]
        argv = ("generate", "--atoms", str(a), "--blocks", str(b), "--workers", "1")
        expected = "".join(line + "\n" for line in lines)
        ops.append(Op(f"census:generate:{a},{b}", argv, "", _exact(expected), units=len(lines)))
    return ops


def sweep_ops(rng: random.Random) -> list[Op]:
    census = load("census.json")
    expected = load("sweep.json")
    ops = []
    for a, b in CENSUS_SPECS:
        for i, line in enumerate(census[f"{a},{b}"]):
            text, blocks = relabel(line, rng)
            argv = ("states", "--strong", "--zero-one", "-")
            check = _sweep_check(blocks, expected[line])
            ops.append(Op(f"sweep:states:{a},{b}#{i}", argv, text + "\n", check))
    rng.shuffle(ops)
    return ops


def canon_ops(rng: random.Random) -> list[Op]:
    corpus = load("corpus.json")
    canon = load("canon.json")
    inputs = [(e["name"], e["line"], canon[e["name"]]["aut"], CANON_RELABELLINGS)
              for e in corpus["entries"]]
    inputs += [(name, line, aut, 1) for name, line, aut in families()]
    ops = []
    for name, line, aut, copies in inputs:
        atoms = 1 + max(a for b in parse_line(line) for a in b)
        check = _canon_check(canon[name]["canonical"], aut, atoms)
        for i in range(copies):
            text, _ = relabel(line, rng)
            op_name = f"canon:canon:{name}" + (f"#{i}" if copies > 1 else "")
            ops.append(Op(op_name, ("canon", "-"), text + "\n", check))
    # not shuffled: star-7 and disjoint-8 fill the heap, and peak RSS
    # repeats only when they run at the same point of every run
    return ops


def corpus_ops(rng: random.Random) -> list[Op]:
    corpus = load("corpus.json")
    outputs = corpus["outputs"]
    ops = []
    for entry in corpus["entries"]:
        for cmd, argv in CORPUS_COMMANDS.items():
            name = f"corpus:{cmd}:{entry['name']}"
            check = _corpus_check(entry, cmd, outputs.get(name))
            ops.append(Op(name, tuple(argv), entry["line"] + "\n", check))
    check_out = outputs["corpus:check"]
    ops.append(Op("corpus:check", ("corpus", "--check"), "", lambda out: None
                  if sha256(out) == check_out["sha256"] else "claims table output differs"))
    rng.shuffle(ops)
    return ops


BUILDERS = {"census": census_ops, "corpus": corpus_ops, "sweep": sweep_ops, "canon": canon_ops}


def build(workload: str, seed: int) -> list[Op]:
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def known_failures() -> dict[str, str]:
    """Operations that do not finish within the budget at the recorded commit."""
    return load("known_failures.json")
