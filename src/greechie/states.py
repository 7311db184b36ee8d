"""Exact analysis of the state space of a diagram.

A state assigns each atom a rational in [0,1] so that every block sums
to one.  The set of states is a polytope cut out by those equations;
everything below (classification, per-atom ranges, 0-1 states, strong
set decisions) is decided in exact arithmetic, never with floats.  The
strong-set tests see each state as its zero mask, bit a set when m(a) = 0;
``Fraction`` tuples are built only for the values handed out.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .diagram import MmpDiagram
from .errors import Infeasible, LengthMismatch
from .lattice import OmlElement, OmlPoset, build_oml
from .linprog import vertices
from .structure import require_mmp

StateVector = tuple[Fraction, ...]

# the value of an atom whose zero-mask digit is "0" or "1", one object each
_DIGIT_VALUE = {"0": Fraction(1), "1": Fraction(0)}


class Classification(Enum):
    NONE = "None"
    EXACTLY_ONE = "ExactlyOne"
    MORE_THAN_ONE = "MoreThanOne"


@dataclass(frozen=True)
class PolytopeSummary:
    """The state polytope, read off its vertices.

    ``vertices`` lists them in lexicographic order: none for ``None``, the
    one state for ``ExactlyOne``, two or more for ``MoreThanOne``.  Each
    atom's (min, max) range is the least and greatest value it takes on a
    vertex; the two ``MoreThanOne`` witnesses are the least and the
    greatest vertex.  ``zero_masks[k]`` has bit a set when ``vertices[k]``
    puts 0 on atom a.
    """

    classification: Classification
    unique_state: StateVector | None = None
    atom_ranges: tuple[tuple[Fraction, Fraction], ...] | None = None
    witness_state: StateVector | None = None
    second_witness: StateVector | None = None
    vertices: tuple[StateVector, ...] = field(default=(), repr=False)
    zero_masks: tuple[int, ...] = field(default=(), repr=False)


@dataclass(frozen=True)
class StrongReport:
    """Outcome of a strong-set decision.

    When ``admits`` is false, ``witness_pair`` is the first pair (x, y)
    with x not below y for which every state with m(x)=1 keeps m(y)=1
    (vacuously, when no state puts 1 on x at all).
    """

    admits: bool
    witness_pair: tuple[OmlElement, OmlElement] | None


def _block_rows(d: MmpDiagram) -> tuple[list[list[int]], list[int]]:
    """The system A x = 1 of the block sums, in integers."""
    rows = [[int(a in b) for a in range(d.atom_count)] for b in map(set, d.blocks)]
    return rows, [1] * len(rows)


def is_state(d: MmpDiagram, values) -> bool:
    """True iff entries lie in [0,1] and every block sums to exactly 1."""
    vals = [Fraction(v) for v in values]
    if len(vals) != d.atom_count:
        raise LengthMismatch(f"expected {d.atom_count} values, got {len(vals)}")
    if any(v < 0 or v > 1 for v in vals):
        return False
    return all(sum(vals[a] for a in b) == 1 for b in d.blocks)


def classify_states(d: MmpDiagram) -> PolytopeSummary:
    """Decide whether the diagram admits no, one, or many states.

    The state polytope {x >= 0 : A x = 1} is listed by its vertices
    (:func:`~greechie.linprog.vertices`): one exact sparse elimination of
    the block sums over the integers, then double description from its
    solution.  Every atom lies in a block summing to 1, so the polytope
    is bounded and is the convex hull of those vertices: no vertex means no
    state, one means exactly one, and the atom ranges are the vertices'
    column extremes.  The run time grows with the vertex count.
    """
    require_mmp(d)
    return _classify(d)


def _classify(d: MmpDiagram) -> PolytopeSummary:
    """:func:`classify_states` on a diagram already known to pass (i)-(iii)."""
    found, zero_masks = vertices(*_block_rows(d))
    if not found:
        return PolytopeSummary(Classification.NONE)
    # ``vertices`` shares one Fraction per value: compare each column's few distinct objects
    distinct = ({id(v): v for v in column}.values() for column in zip(*found))
    one = len(found) == 1
    return PolytopeSummary(
        Classification.EXACTLY_ONE if one else Classification.MORE_THAN_ONE,
        unique_state=found[0] if one else None,
        atom_ranges=tuple((min(values), max(values)) for values in distinct),
        witness_state=None if one else found[0],
        second_witness=None if one else found[-1],
        vertices=tuple(found),
        zero_masks=tuple(zero_masks),
    )


def atom_range(d: MmpDiagram, p: int) -> tuple[Fraction, Fraction]:
    """Exact (min, max) of atom p's value over the state polytope."""
    if not 0 <= p < d.atom_count:
        raise LengthMismatch(f"atom {p} out of range")
    summary = classify_states(d)
    if summary.classification is Classification.NONE:
        raise Infeasible("the diagram admits no states")
    return summary.atom_ranges[p]


def enumerate_01_states(d: MmpDiagram) -> list[StateVector]:
    """All dispersion-free states: exactly one atom of each block at 1.

    An exact cover of the blocks by atoms, searched on bitmasks: each step
    branches on the open block with the fewest live atoms.  Results come
    out in lexicographic order.  The list may be empty.
    """
    require_mmp(d)
    n = d.atom_count
    # each zero mask's n binary digits from atom 0 on (bit n pads, the slice
    # drops it); a digit 1 is a value 0, so the digits sort backwards
    digits = sorted((format(z | 1 << n, "b")[:0:-1] for z in _enumerate_01(d)), reverse=True)
    return [tuple(map(_DIGIT_VALUE.__getitem__, s)) for s in digits]


def _enumerate_01(d: MmpDiagram) -> list[int]:
    """The 0-1 states as zero masks, unsorted, on a diagram known to pass (i)-(iii).

    Setting atom a to 1 closes every block holding a and sets every atom of
    those blocks to 0; a branch dies when an open block has no live atom.
    """
    n = d.atom_count
    members = [sum(1 << a for a in block) for block in d.blocks]
    blocks_of = [0] * n  # per atom, the mask of the blocks holding it
    mates = [0] * n  # per atom, the atoms sharing a block with it, itself included
    for bi, block in enumerate(d.blocks):
        for a in block:
            blocks_of[a] |= 1 << bi
            mates[a] |= members[bi]
    full = (1 << n) - 1
    found: list[int] = []

    def cover(live: int, open_blocks: int, ones: int) -> None:
        if not open_blocks:
            found.append(full & ~ones)
            return
        best = -1
        rest = open_blocks
        while rest:
            low = rest & -rest
            rest ^= low
            choices = members[low.bit_length() - 1] & live
            if not choices:
                return
            if best < 0 or choices.bit_count() < best.bit_count():
                best = choices
        while best:
            low = best & -best
            best ^= low
            a = low.bit_length() - 1
            cover(live & ~mates[a], open_blocks & ~blocks_of[a], ones | low)

    cover(full, (1 << len(members)) - 1, 0)
    return found


# ---------------------------------------------------------------------------
# Strong sets of states
# ---------------------------------------------------------------------------


def _strong_over(poset: OmlPoset, zero_masks: Sequence[int]) -> StrongReport:
    """The strong-set test over a finite list of states, given by their zero
    masks in any order.

    Sweeps the pairs (x, y) with x not below y, x-major in element order.
    A pair fails when no state puts 1 on x (reported against the zero
    element) or every state with m(x) = 1 has m(y) = 1.
    """
    n = poset.source.atom_count
    everyone = (1 << len(zero_masks)) - 1
    # per atom, the k with state k at 0 there: cleared along each state's
    # support, the short side of a vertex
    at_zero = [everyone] * n
    for k, z in enumerate(zero_masks):
        rest = ((1 << n) - 1) & ~z
        while rest:
            low = rest & -rest
            rest ^= low
            at_zero[low.bit_length() - 1] ^= 1 << k
    # per element x, the k with m(x) = 1 in state k.  m(x) = 1 - m(x'), and
    # atom values are nonnegative, so m(x) = 1 exactly when m is 0 on every
    # atom a below x', that is every a with x <= a'; coatom a' is element 2 + n + a
    elements = poset.elements
    ups = [poset.up_mask(x) for x in elements]
    ones = []
    for up in ups:
        mask = everyone
        coatoms = up >> (2 + n) & ((1 << n) - 1)
        while coatoms:
            low = coatoms & -coatoms
            coatoms ^= low
            mask &= at_zero[low.bit_length() - 1]
        ones.append(mask)
    everything = (1 << len(elements)) - 1
    for i, x in enumerate(elements):
        rest = everything & ~ups[i]
        if rest and not ones[i]:
            return StrongReport(False, (x, elements[0]))
        rest &= ~1  # (x, 0) passes: m(0) = 0 wherever m(x) = 1
        while rest:
            low = rest & -rest
            rest ^= low
            j = low.bit_length() - 1
            if not ones[i] & ~ones[j]:
                return StrongReport(False, (x, elements[j]))
    return StrongReport(True, None)


def admits_strong_set(d: MmpDiagram) -> StrongReport:
    """Decide whether any nonempty strong set of states exists.

    It suffices to test the set of all states: if that set fails the
    strong-set biconditional at some pair, every subset fails the same
    pair, since shrinking the set only weakens the premise of the
    implication.  The states with m(x) = 1 are those that are 0 on a set
    of atoms, a face of the state polytope, and the vertices of that face
    are vertices of the polytope.  So m(y) = 1 on the whole face exactly
    when it holds on each polytope vertex with m(x) = 1, and the test over
    the vertex list decides every pair.
    """
    poset = build_oml(d)  # requires admissibility, which implies (i)-(iii)
    return _strong_over(poset, _classify(d).zero_masks)


def admits_strong_01_set(d: MmpDiagram) -> StrongReport:
    """Strong-set test restricted to the 0-1 states (the Kochen-Specker test)."""
    poset = build_oml(d)  # requires admissibility, which implies (i)-(iii)
    return _strong_over(poset, _enumerate_01(d))

