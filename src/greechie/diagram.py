"""MMP diagram representation and the bit-exact text format.

A diagram is a hypergraph: atoms are the vertices, blocks are the edges.
One diagram per line, blocks separated by commas, line terminated by a
full stop, atoms drawn from a fixed 90-character alphabet in which the
i-th character denotes atom index i.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence, TextIO

from .errors import (
    BadJson,
    DuplicateAtomInBlock,
    EmptyBlock,
    MissingTerminator,
    TooManyAtoms,
    UnknownCharacter,
)

#: The 90 atom symbols, in order: digits 1-9, A-Z, a-z, then specials.
ALPHABET = (
    "123456789"
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    "abcdefghijklmnopqrstuvwxyz"
    "!\"#$%&'()*-/:;<=>?@[\\]^_`{|}~"
)

_CHAR_TO_INDEX = {c: i for i, c in enumerate(ALPHABET)}

assert len(ALPHABET) == 90 and len(_CHAR_TO_INDEX) == 90


@dataclass(frozen=True)
class MmpDiagram:
    """Immutable hypergraph: an atom count plus an ordered list of blocks.

    Blocks are stored as ascending tuples of atom indices and keep their
    input order (round-tripping and "biggest loop first" presentations
    depend on it).  Structural soundness beyond index bounds -- every atom
    used, block sizes, intersection limits -- is the validator's job, so
    that duals and intermediate fragments stay representable.

    Being immutable, a diagram works out its incidence, checks, shortest
    incidence cycle and validation report each once, when first read, and
    keeps them apart in its ``__dict__``, out of the fields that ``__eq__``
    and ``__hash__`` read.
    """

    atom_count: int
    blocks: tuple[tuple[int, ...], ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.atom_count < 0:
            raise ValueError("atom_count must be non-negative")
        norm = []
        for bi, block in enumerate(self.blocks):
            b = tuple(sorted(block))
            for j in range(1, len(b)):
                if b[j] == b[j - 1]:
                    raise DuplicateAtomInBlock(bi, b[j])
            if b and (b[0] < 0 or b[-1] >= self.atom_count):
                raise ValueError(f"block {bi} uses an atom outside [0, {self.atom_count})")
            norm.append(b)
        object.__setattr__(self, "blocks", tuple(norm))

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def used_atoms(self) -> set[int]:
        used: set[int] = set()
        for b in self.blocks:
            used.update(b)
        return used

    def degrees(self) -> list[int]:
        return [len(inc) for inc in self.incident_blocks()]

    def incident_blocks(self) -> tuple[tuple[int, ...], ...]:
        """For each atom, the indices of the blocks containing it, ascending."""
        return self._incident

    @cached_property
    def _incident(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, incidence(self.blocks, self.atom_count)))

    @cached_property
    def _checked(self):
        return structure._checks(self)

    @cached_property
    def _shortest_cycle(self):
        return structure._shortest_incidence_cycle(self)

    @cached_property
    def _report(self):
        return structure._validation(self)

    def to_json(self) -> str:
        return json.dumps({"atoms": self.atom_count, "blocks": [list(b) for b in self.blocks]})

    @classmethod
    def from_json(cls, text: str) -> "MmpDiagram":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise BadJson(f"not valid JSON: {exc}") from exc
        if not isinstance(doc, dict) or "atoms" not in doc or "blocks" not in doc:
            raise BadJson('expected {"atoms": N, "blocks": [[...], ...]}')
        atoms = doc["atoms"]
        blocks = doc["blocks"]
        # ``type(...) is int``, since JSON true and false load as bools, an int subclass
        if type(atoms) is not int or not isinstance(blocks, list):
            raise BadJson('"atoms" must be an integer and "blocks" a list')
        for b in blocks:
            if not isinstance(b, list) or not all(type(a) is int for a in b):
                raise BadJson("each block must be a list of integer atom indices")
        try:
            return cls(atoms, tuple(tuple(b) for b in blocks))
        except ValueError as exc:
            raise BadJson(str(exc)) from exc


def incidence(blocks: tuple[tuple[int, ...], ...], n: int) -> list[list[int]]:
    """For each of atoms 0..n-1, the indices of the blocks containing it, ascending."""
    inc: list[list[int]] = [[] for _ in range(n)]
    for i, b in enumerate(blocks):
        for a in b:
            inc[a].append(i)
    return inc


def twin_classes(incident: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Per atom, its twin class: the atoms on exactly its blocks, ascending.

    ``incident`` is :func:`incidence` of the blocks.  The atoms of one class
    share one tuple object, so a class is told by identity.
    """
    on: dict[tuple[int, ...], list[int]] = {}
    for a, inc in enumerate(incident):
        on.setdefault(tuple(inc), []).append(a)
    classes = {key: tuple(atoms) for key, atoms in on.items()}
    return [classes[tuple(inc)] for inc in incident]


def parse_mmp(text: str) -> MmpDiagram:
    """Parse one line of MMP notation.

    The atom count is one plus the highest alphabet position used; block
    order is preserved.  Whether all characters up to the n-th are used
    without skipping is deliberately left to the validator so fragments
    remain parseable.
    """
    line = text.rstrip("\r\n")
    if not line.endswith("."):
        raise MissingTerminator()
    body = line[:-1]
    if body == "":
        return MmpDiagram(0, ())
    blocks: list[tuple[int, ...]] = []
    highest = -1
    pos = 0
    for bi, chunk in enumerate(body.split(",")):
        if chunk == "":
            raise EmptyBlock(bi)
        atoms = []
        for c in chunk:
            idx = _CHAR_TO_INDEX.get(c)
            if idx is None:
                raise UnknownCharacter(c, pos + chunk.index(c))
            atoms.append(idx)
            highest = max(highest, idx)
        seen = set()
        for a in atoms:
            if a in seen:
                raise DuplicateAtomInBlock(bi, a)
            seen.add(a)
        blocks.append(tuple(sorted(atoms)))
        pos += len(chunk) + 1
    return MmpDiagram(highest + 1, tuple(blocks))


def serialize_mmp(d: MmpDiagram) -> str:
    """Render a diagram as one MMP line; inverse of :func:`parse_mmp`.

    Atoms inside a block come out in alphabet order.  Diagrams with more
    than 90 atoms cannot be spelled and must use the JSON format.
    """
    if d.atom_count > len(ALPHABET):
        raise TooManyAtoms(d.atom_count)
    parts = []
    for bi, b in enumerate(d.blocks):
        if not b:
            raise ValueError(f"block {bi} is empty and has no text form")
        parts.append("".join(ALPHABET[a] for a in b))
    return ",".join(parts) + "."


def iter_mmp_lines(stream: TextIO | Iterable[str]) -> Iterator[tuple[int, str]]:
    """Yield (line_number, payload) pairs, skipping blanks and '#' comments."""
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def load_diagram_line(line: str) -> MmpDiagram:
    """Parse a single input line in either MMP or JSON interchange form."""
    if line.lstrip().startswith("{"):
        return MmpDiagram.from_json(line)
    return parse_mmp(line)


from . import structure  # noqa: E402  last, as structure imports this module
