"""The pasted orthomodular lattice of an admissible diagram.

Elements are 0, 1, one atom and one coatom per vertex, and for every
block of size >= 4 its interior subsets (size 2 to size-2).  Subsets of
size |block|-1 are identified with the coatom of the excluded atom.
For an admissible pasting the order is the union of the Boolean block
orders (Greechie's paste lemma): x <= y exactly when some block holds
both with subset containment.  It is built from the block incidences
alone; only order, ortho, and block-local Boolean structure are
materialized.  Every query answers by element index: ``leq`` reads the
up-set table, ``ortho`` one index table, ``extend_state`` lists the
values in element order, and ``covers`` reads the up-sets in O(E^2)
word operations for E elements.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Iterable

from .diagram import ALPHABET, MmpDiagram
from .errors import ForeignElement, NotAState
from .structure import require_admissible

ZERO = "zero"
ONE = "one"
ATOM = "atom"
COATOM = "coatom"
MID = "mid"


@dataclass(frozen=True)
class OmlElement:
    kind: str
    atom: int | None = None
    block: int | None = None
    subset: tuple[int, ...] | None = None

    def label(self) -> str:
        """Readable name: 0, 1, atom char, primed char, or subset string."""
        if self.kind == ZERO:
            return "0"
        if self.kind == ONE:
            return "1"
        if self.kind == ATOM:
            return _atom_name(self.atom)
        if self.kind == COATOM:
            return _atom_name(self.atom) + "'"
        return "".join(_atom_name(a) for a in self.subset)

    def __repr__(self) -> str:
        return f"<{self.label()}>"


def _atom_name(a: int) -> str:
    return ALPHABET[a] if a < len(ALPHABET) else f"[{a}]"


class OmlPoset:
    """Order + orthocomplement of the pasted lattice of ``source``.

    The order is ``ups``, over the elements in a fixed order (zero, one,
    atoms, coatoms, block interiors): bit j of ``ups[i]`` is element i <=
    element j.  The element objects are built only when named: ``element(i)``
    builds one, and ``elements`` all of them on first access.  ``leq``
    reads ``ups``, and ``ortho`` an index table built on first use.
    ``source`` must be Greechie-admissible, as read from the validation it
    keeps.
    """

    def __init__(self, source: MmpDiagram):
        require_admissible(source)
        self.source = source
        n = source.atom_count
        # (block, subset) of each interior, element 2 + 2n + k for the k-th
        self._interiors: list[tuple[int, tuple[int, ...]]] = []
        # Bit j of up[i] is element i <= element j: the union of the block
        # orders.  Atom a sits at 2 + a, coatom a' at 2 + n + a, and a
        # coatom lies below only itself and 1.
        up = [1 << i | 1 << 1 for i in range(2 + 2 * n)]  # x <= x <= 1
        for bi, block in enumerate(source.blocks):
            for a in block:
                for b in block:
                    if b != a:
                        up[2 + a] |= 1 << (2 + n + b)  # a <= b'
            first = len(up)
            subsets = []
            for size in range(2, len(block) - 1):
                for sub in combinations(block, size):
                    i = len(up)
                    self._interiors.append((bi, sub))
                    subsets.append(set(sub))
                    up.append(1 << i | 1 << 1)
                    for a in block:
                        if a in sub:
                            up[2 + a] |= 1 << i  # a <= S
                        else:
                            up[i] |= 1 << (2 + n + a)  # S <= a'
            # Interiors come in ascending size, so every strict superset of
            # an interior S of this block comes after it.
            for i, s in enumerate(subsets):
                for j in range(i + 1, len(subsets)):
                    if s < subsets[j]:
                        up[first + i] |= 1 << (first + j)  # S < T
        up[0] = (1 << len(up)) - 1  # 0 <= everything
        self.ups = up

    def __len__(self) -> int:
        return len(self.ups)

    def element(self, i: int) -> OmlElement:
        """Element i of the order, built on its own."""
        n = self.source.atom_count
        if i < 2:
            return OmlElement(ONE if i else ZERO)
        if i < 2 + 2 * n:
            return OmlElement(ATOM if i < 2 + n else COATOM, atom=(i - 2) % n)
        return OmlElement(MID, None, *self._interiors[i - 2 - 2 * n])

    @cached_property
    def elements(self) -> list[OmlElement]:
        return [self.element(i) for i in range(len(self.ups))]

    @cached_property
    def _index(self) -> dict[OmlElement, int]:
        return {e: i for i, e in enumerate(self.elements)}

    @cached_property
    def _orth(self) -> list[int]:
        # 0 <-> 1, atom a <-> coatom a', an interior <-> the rest of its block
        n, blocks = self.source.atom_count, self.source.blocks
        where = {form: i for i, form in enumerate(self._interiors, 2 + 2 * n)}
        rest = [where[bi, tuple(a for a in blocks[bi] if a not in sub)]
                for bi, sub in self._interiors]
        return [1, 0, *range(2 + n, 2 + 2 * n), *range(2, 2 + n), *rest]

    def index(self, x: OmlElement) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise ForeignElement(f"{x!r} is not an element of this poset") from None

    def leq(self, x: OmlElement, y: OmlElement) -> bool:
        return bool(self.ups[self.index(x)] >> self.index(y) & 1)

    def ortho(self, x: OmlElement) -> OmlElement:
        return self.elements[self._orth[self.index(x)]]

    # -- state extension ----------------------------------------------------

    def extend_state(self, values: Iterable[Fraction]) -> dict[OmlElement, Fraction]:
        """Extend atom values to every lattice element.

        Requires a genuine state: entries in [0,1] and unit block sums.
        The extension satisfies m(0)=0, m(1)=1, m(a')=1-m(a), and block
        interiors sum their members.
        """
        vals = [Fraction(v) for v in values]
        problem = _state_problem(self.source, vals)
        if problem is not None:
            raise NotAState(problem)
        mids = (sum((vals[a] for a in sub), Fraction(0)) for _, sub in self._interiors)
        values = [Fraction(0), Fraction(1), *vals, *(1 - v for v in vals), *mids]
        return dict(zip(self.elements, values))

    # -- export --------------------------------------------------------------

    def covers(self) -> list[tuple[str, str]]:
        """Cover relation (x, y) pairs with y covering x, by label.

        The covers of x are its strict up-set less the strict up-sets of
        its members: O(E^2) word operations for E elements.
        """
        labels = [e.label() for e in self.elements]
        strict = [up ^ 1 << i for i, up in enumerate(self.ups)]  # x <= x always
        out = []
        for i, up in enumerate(strict):
            above = 0
            for k in _bits(up):
                above |= strict[k]
            out += [(labels[i], labels[j]) for j in _bits(up & ~above)]
        return out

    def to_json(self) -> str:
        return json.dumps(
            {
                "elements": [e.label() for e in self.elements],
                "covers": self.covers(),
            }
        )


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _state_problem(d: MmpDiagram, vals: list[Fraction]) -> str | None:
    """The first rule of a state of ``d`` that ``vals`` breaks, as a message,
    or None: one value per atom, each in [0, 1], every block summing to 1."""
    if len(vals) != d.atom_count:
        return f"expected {d.atom_count} atom values, got {len(vals)}"
    if any(v < 0 or v > 1 for v in vals):
        return "atom values must lie in [0, 1]"
    sums = (sum(vals[a] for a in b) for b in d.blocks)
    return next((f"block {bi} does not sum to 1" for bi, s in enumerate(sums) if s != 1), None)


def build_oml(d: MmpDiagram) -> OmlPoset:
    """Paste the Boolean blocks of an admissible diagram into one lattice."""
    return OmlPoset(d)


def leq(poset: OmlPoset, x: OmlElement, y: OmlElement) -> bool:
    return poset.leq(x, y)


def ortho(poset: OmlPoset, x: OmlElement) -> OmlElement:
    return poset.ortho(x)


def extend_state(poset: OmlPoset, values: Iterable[Fraction]) -> dict[OmlElement, Fraction]:
    return poset.extend_state(values)
