"""Exact analysis of the state space of a diagram.

A state assigns each atom a rational in [0,1] so that every block sums
to one.  The set of states is a polytope cut out by those equations;
everything below (classification, per-atom ranges, 0-1 states, strong
set decisions) is decided in exact arithmetic, never with floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .diagram import MmpDiagram
from .errors import Infeasible, LengthMismatch
from .lattice import ATOM, COATOM, ONE, ZERO, OmlElement, OmlPoset, build_oml
from .linprog import EqualityLP, gauss_affine
from .structure import require_admissible, require_mmp

StateVector = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Classification(Enum):
    NONE = "None"
    EXACTLY_ONE = "ExactlyOne"
    MORE_THAN_ONE = "MoreThanOne"


@dataclass(frozen=True)
class PolytopeSummary:
    """Feasibility and uniqueness of the state polytope.

    ``ExactlyOne`` iff every atom's (min, max) range collapses to a point;
    ``MoreThanOne`` carries two valid states differing in some coordinate,
    ``known_states``, every state computed on the way (the witnesses and
    each simplex optimum), and ``lp``, when the range scan ran the simplex,
    its feasible tableau, which later optimizations over the same polytope
    may re-price.
    """

    classification: Classification
    unique_state: StateVector | None = None
    atom_ranges: tuple[tuple[Fraction, Fraction], ...] | None = None
    witness_state: StateVector | None = None
    second_witness: StateVector | None = None
    known_states: tuple[StateVector, ...] = field(default=(), compare=False, repr=False)
    lp: EqualityLP | None = field(default=None, compare=False, repr=False)


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

    The block sums A x = 1 are solved first, by one exact sparse
    elimination over the integers (:func:`~greechie.linprog.gauss_affine`).
    No solution means no state; a unique solution is the one state if it
    lies in [0, 1]^n and otherwise there is none; a line of solutions is
    cut to a segment by interval arithmetic.  Only affine hulls of two or
    more dimensions reach the per-atom simplex scan.
    """
    require_mmp(d)
    return _classify(d)


def _classify(d: MmpDiagram) -> PolytopeSummary:
    """:func:`classify_states` on a diagram already known to pass (i)-(iii)."""
    rows, rhs = _block_rows(d)
    affine = gauss_affine(rows, rhs)
    if affine is None:
        return PolytopeSummary(Classification.NONE)
    x0, nullspace = affine
    if not nullspace:
        if all(0 <= v <= 1 for v in x0):
            return PolytopeSummary(
                Classification.EXACTLY_ONE,
                unique_state=tuple(x0),
                atom_ranges=tuple((v, v) for v in x0),
            )
        return PolytopeSummary(Classification.NONE)
    if len(nullspace) == 1:
        return _classify_segment(x0, nullspace[0])

    n = d.atom_count
    lp = EqualityLP(rows, rhs)
    if not lp.feasible:
        return PolytopeSummary(Classification.NONE)
    witness = tuple(lp.solution())
    known = [witness]
    ranges: list[tuple[Fraction, Fraction]] = []
    second: StateVector | None = None
    for p in range(n):
        cost = [_ZERO] * n
        cost[p] = _ONE
        bounds = []
        for bound, minimize in ((_ZERO, True), (_ONE, False)):
            # 0 <= x_p <= 1 in every state (p lies in a block summing to 1), so
            # a known state at a bound attains it; until ``second`` is found
            # every LP runs, which keeps the witnesses' pivots
            if second is None or all(s[p] != bound for s in known):
                bound, point = lp.optimize(cost, minimize=minimize)
                known.append(tuple(point))
            bounds.append(bound)
        lo, hi = bounds
        ranges.append((lo, hi))
        if second is None and lo != hi:
            x_lo, x_hi = known[-2:]
            second = x_lo if x_lo[p] != witness[p] else x_hi
    if second is None:
        return PolytopeSummary(
            Classification.EXACTLY_ONE, unique_state=witness, atom_ranges=tuple(ranges)
        )
    return PolytopeSummary(
        Classification.MORE_THAN_ONE,
        atom_ranges=tuple(ranges),
        witness_state=witness,
        second_witness=second,
        known_states=tuple(known),
        lp=lp,
    )


def _classify_segment(x0: list[Fraction], direction: list[Fraction]) -> PolytopeSummary:
    """Classification when the affine hull is a line: pure interval arithmetic.

    The states are x0 + t * direction for t in a closed interval determined
    coordinatewise by 0 <= x_i <= 1; no simplex is needed.
    """
    t_lo: Fraction | None = None
    t_hi: Fraction | None = None
    for xi, vi in zip(x0, direction):
        if vi == 0:
            if xi < 0 or xi > 1:
                return PolytopeSummary(Classification.NONE)
            continue
        bounds = sorted(((-xi) / vi, (1 - xi) / vi))
        t_lo = bounds[0] if t_lo is None else max(t_lo, bounds[0])
        t_hi = bounds[1] if t_hi is None else min(t_hi, bounds[1])
    assert t_lo is not None and t_hi is not None  # direction is nonzero
    if t_lo > t_hi:
        return PolytopeSummary(Classification.NONE)
    low = tuple(xi + t_lo * vi for xi, vi in zip(x0, direction))
    high = tuple(xi + t_hi * vi for xi, vi in zip(x0, direction))
    ranges = tuple(tuple(sorted((a, b))) for a, b in zip(low, high))
    if t_lo == t_hi:
        return PolytopeSummary(
            Classification.EXACTLY_ONE, unique_state=low, atom_ranges=ranges
        )
    return PolytopeSummary(
        Classification.MORE_THAN_ONE,
        atom_ranges=ranges,
        witness_state=low,
        second_witness=high,
        known_states=(low, high),
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
    return _enumerate_01(d)


def _enumerate_01(d: MmpDiagram) -> list[StateVector]:
    """:func:`enumerate_01_states` on a diagram already known to pass (i)-(iii).

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
    found: list[int] = []

    def cover(live: int, open_blocks: int, ones: int) -> None:
        if not open_blocks:
            found.append(ones)
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

    cover((1 << n) - 1, (1 << len(members)) - 1, 0)
    return sorted(tuple(_ONE if ones >> a & 1 else _ZERO for a in range(n)) for ones in found)


# ---------------------------------------------------------------------------
# Strong sets of states
# ---------------------------------------------------------------------------


def _unit_zeros(poset: OmlPoset) -> list[tuple[int, ...] | None]:
    """Per element e but 0 (``None``), the atoms Z with m(e) = 1 - m(Z): the
    rest of its block for an atom or a block interior, {a} for a coatom a'.
    Atom values are nonnegative, so m(e) = 1 exactly when m is 0 on Z."""
    blocks = poset.source.blocks
    home = {a: block for block in reversed(blocks) for a in block}
    out: list[tuple[int, ...] | None] = []
    for e in poset.elements:
        if e.kind == ZERO:
            out.append(None)
        elif e.kind == ONE:
            out.append(())
        elif e.kind == ATOM:
            out.append(tuple(a for a in home[e.atom] if a != e.atom))
        elif e.kind == COATOM:
            out.append((e.atom,))
        else:
            out.append(tuple(a for a in blocks[e.block] if a not in e.subset))
    return out


def _ones(zeros: list[tuple[int, ...] | None], n: int, states: list[StateVector]) -> list[int]:
    """Per element, the bitmask of the k with m(e) = 1 in ``states[k]``."""
    at_zero = [
        int("".join("0" if s[a] else "1" for s in reversed(states)) or "0", 2) for a in range(n)
    ]
    out = []
    for need in zeros:
        mask = 0 if need is None else (1 << len(states)) - 1
        for a in need or ():
            mask &= at_zero[a]
        out.append(mask)
    return out


def _first_failure(poset: OmlPoset, ones: list[int], reaches_one, below_one) -> StrongReport:
    """Sweep the pairs (x, y) with x not below y, x-major in element order.

    A known state in ``ones`` with m(x) = 1 and m(y) < 1 passes a pair;
    otherwise ``below_one(i, j)`` decides whether any state does.
    ``reaches_one(i)`` decides whether any state puts 1 on element i.
    """
    elements = poset.elements
    everything = (1 << len(elements)) - 1
    for i, x in enumerate(elements):
        rest = everything & ~poset.up_mask(x)
        if rest and not reaches_one(i):
            return StrongReport(False, (x, elements[0]))
        rest &= ~1  # (x, 0) passes: m(0) = 0 wherever m(x) = 1
        while rest:
            low = rest & -rest
            rest ^= low
            j = low.bit_length() - 1
            if not ones[i] & ~ones[j] and not below_one(i, j):
                return StrongReport(False, (x, elements[j]))
    return StrongReport(True, None)


def _strong_over(poset: OmlPoset, states: list[StateVector]) -> StrongReport:
    """The strong-set test over a finite list of states, exactly as given."""
    ones = _ones(_unit_zeros(poset), poset.source.atom_count, states)
    return _first_failure(poset, ones, lambda i: ones[i] != 0, lambda i, j: False)


def admits_strong_set(d: MmpDiagram) -> StrongReport:
    """Decide whether any nonempty strong set of states exists.

    It suffices to test the set of all states: if that set fails the
    strong-set biconditional at some pair, every subset fails the same
    pair, since shrinking the set only weakens the premise of the
    implication.  A pair (x, y) with x not below y passes when a known
    state has m(x) = 1 and m(y) < 1; otherwise the exact minimum of m(y)
    over the face m(x) = 1 decides it.
    """
    poset = build_oml(d)  # requires admissibility, which implies (i)-(iii)
    return _strong_set(poset, _classify(d))


def _strong_set(poset: OmlPoset, summary: PolytopeSummary, zero_one=()) -> StrongReport:
    """:func:`admits_strong_set` given the poset and the state classification.

    ``zero_one``, 0-1 states already enumerated, join ``summary.known_states``
    as known states.  Pair decisions are exact, so they change only how
    many LPs run, never the report.
    """
    if summary.classification is not Classification.MORE_THAN_ONE:
        return _strong_over(poset, [] if summary.unique_state is None else [summary.unique_state])

    # MoreThanOne: every LP re-prices one tableau, the classification's or
    # one built on first use.
    n = poset.source.atom_count
    zeros = _unit_zeros(poset)
    known = [*summary.known_states, *zero_one]
    ones = _ones(zeros, n, known)
    witnesses = len(known)
    base = summary.lp

    def solve(i: int, **kwargs) -> Fraction:
        """Optimize m(Z) of element i and cache the optimal point as a witness."""
        nonlocal base, witnesses
        if base is None:
            base = EqualityLP(*_block_rows(poset.source))
        cost = [_ONE if a in zeros[i] else _ZERO for a in range(n)]
        value, point = base.optimize(cost, **kwargs)
        for k, mask in enumerate(_ones(zeros, n, [point])):
            ones[k] |= mask << witnesses
        witnesses += 1
        return value

    def reaches_one(i: int) -> bool:
        e = poset.elements[i]
        if ones[i]:
            return True
        if e.kind == ATOM:
            return summary.atom_ranges[e.atom][1] == 1
        if e.kind == COATOM:
            return summary.atom_ranges[e.atom][0] == 0
        return solve(i) == 0  # a block interior: min m(Z) = 0 means max m(x) = 1

    def below_one(i: int, j: int) -> bool:
        # max m(Z_y) on the face where m(Z_x) is least, that is m(x) = 1
        face = [-_ONE if a in zeros[i] else _ZERO for a in range(n)]
        return solve(j, minimize=False, face_of=face) > 0

    return _first_failure(poset, ones, reaches_one, below_one)


def admits_strong_01_set(d: MmpDiagram) -> StrongReport:
    """Strong-set test restricted to the 0-1 states (the Kochen-Specker test)."""
    poset = build_oml(d)  # requires admissibility, which implies (i)-(iii)
    return _strong_over(poset, _enumerate_01(d))


def admits_classically_strong(d: MmpDiagram) -> bool:
    """Literal reading of the single-state strong condition.

    A single state m must satisfy (m(a)=1 implies m(b)=1) iff a <= b for
    every ordered pair.  Two mutually incomparable elements already make
    that contradictory, and any two atoms of one block are incomparable,
    so only the blockless diagram (the chain 0 < 1) qualifies.
    """
    require_admissible(d)
    return d.block_count == 0
