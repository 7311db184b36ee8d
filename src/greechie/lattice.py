"""The pasted orthomodular lattice of an admissible diagram.

Elements are 0, 1, one atom and one coatom per vertex, and for every
block of size >= 4 its interior subsets (size 2 to size-2).  Subsets of
size |block|-1 are identified with the coatom of the excluded atom.
For an admissible pasting the order is the union of the Boolean block
orders (Greechie's paste lemma): x <= y exactly when some block holds
both with subset containment.  It is built from the block incidences
alone; only order, ortho, and block-local Boolean structure are
materialized.
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
    builds one, and ``elements`` all of them on first access.  ``leq`` and
    ``ortho`` answer from tables built on first use.  ``source`` must be
    Greechie-admissible, as read from the validation it keeps.
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
    def _ortho(self) -> list[OmlElement]:
        return [self._orthocomplement(e) for e in self.elements]

    def index(self, x: OmlElement) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise ForeignElement(f"{x!r} is not an element of this poset") from None

    def leq(self, x: OmlElement, y: OmlElement) -> bool:
        return bool(self.ups[self.index(x)] >> self.index(y) & 1)

    def ortho(self, x: OmlElement) -> OmlElement:
        return self._ortho[self.index(x)]

    def _orthocomplement(self, x: OmlElement) -> OmlElement:
        if x.kind == ZERO:
            return OmlElement(ONE)
        if x.kind == ONE:
            return OmlElement(ZERO)
        if x.kind == ATOM:
            return OmlElement(COATOM, atom=x.atom)
        if x.kind == COATOM:
            return OmlElement(ATOM, atom=x.atom)
        block = self.source.blocks[x.block]
        rest = tuple(a for a in block if a not in x.subset)
        return OmlElement(MID, block=x.block, subset=rest)

    # -- state extension ----------------------------------------------------

    def extend_state(self, values: Iterable[Fraction]) -> dict[OmlElement, Fraction]:
        """Extend atom values to every lattice element.

        Requires a genuine state: entries in [0,1] and unit block sums.
        The extension satisfies m(0)=0, m(1)=1, m(a')=1-m(a), and block
        interiors sum their members.
        """
        vals = [Fraction(v) for v in values]
        self._check_state(vals)
        out: dict[OmlElement, Fraction] = {}
        for e in self.elements:
            if e.kind == ZERO:
                out[e] = Fraction(0)
            elif e.kind == ONE:
                out[e] = Fraction(1)
            elif e.kind == ATOM:
                out[e] = vals[e.atom]
            elif e.kind == COATOM:
                out[e] = 1 - vals[e.atom]
            else:
                out[e] = sum((vals[a] for a in e.subset), Fraction(0))
        return out

    def _check_state(self, vals: list[Fraction]) -> None:
        if len(vals) != self.source.atom_count:
            raise NotAState(f"expected {self.source.atom_count} atom values, got {len(vals)}")
        if any(v < 0 or v > 1 for v in vals):
            raise NotAState("atom values must lie in [0, 1]")
        for bi, block in enumerate(self.source.blocks):
            if sum(vals[a] for a in block) != 1:
                raise NotAState(f"block {bi} does not sum to 1")

    # -- export --------------------------------------------------------------

    def covers(self) -> list[tuple[str, str]]:
        """Cover relation (x, y) pairs with y covering x, by label."""
        n = len(self.elements)
        out = []
        for i in range(n):
            strict_up = self.ups[i] & ~(1 << i)
            for j in range(n):
                if strict_up >> j & 1:
                    others = strict_up & ~(1 << j)
                    if all(not (self.ups[k] >> j & 1) for k in _bits(others)):
                        out.append((self.elements[i].label(), self.elements[j].label()))
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


def build_oml(d: MmpDiagram) -> OmlPoset:
    """Paste the Boolean blocks of an admissible diagram into one lattice."""
    return OmlPoset(d)


def leq(poset: OmlPoset, x: OmlElement, y: OmlElement) -> bool:
    return poset.leq(x, y)


def ortho(poset: OmlPoset, x: OmlElement) -> OmlElement:
    return poset.ortho(x)


def extend_state(poset: OmlPoset, values: Iterable[Fraction]) -> dict[OmlElement, Fraction]:
    return poset.extend_state(values)
