"""Exact analysis of the state space of a diagram.

A state assigns each atom a rational in [0,1] so that every block sums
to one.  The set of states is a polytope cut out by those equations;
everything below (classification, per-atom ranges, 0-1 states, strong
set decisions) is decided in exact arithmetic, never with floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .diagram import MmpDiagram
from .errors import Infeasible, LengthMismatch
from .lattice import ATOM, COATOM, ONE, ZERO, OmlElement, OmlPoset, build_oml
from .linprog import EqualityLP, gauss_affine, rank_mod_p
from .structure import require_admissible, require_mmp

StateVector = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)
_THIRD = Fraction(1, 3)


class Classification(Enum):
    NONE = "None"
    EXACTLY_ONE = "ExactlyOne"
    MORE_THAN_ONE = "MoreThanOne"


@dataclass(frozen=True)
class PolytopeSummary:
    """Feasibility and uniqueness of the state polytope.

    ``ExactlyOne`` iff every atom's (min, max) range collapses to a point;
    ``MoreThanOne`` carries two valid states differing in some coordinate.
    """

    classification: Classification
    unique_state: StateVector | None = None
    atom_ranges: tuple[tuple[Fraction, Fraction], ...] | None = None
    witness_state: StateVector | None = None
    second_witness: StateVector | None = None


@dataclass(frozen=True)
class StrongReport:
    """Outcome of a strong-set decision.

    When ``admits`` is false, ``witness_pair`` is the first pair (x, y)
    with x not below y for which every state with m(x)=1 keeps m(y)=1
    (vacuously, when no state puts 1 on x at all).
    """

    admits: bool
    witness_pair: tuple[OmlElement, OmlElement] | None


def _block_rows(d: MmpDiagram) -> tuple[list[list[Fraction]], list[Fraction]]:
    rows = []
    for b in d.blocks:
        members = set(b)
        rows.append([_ONE if a in members else _ZERO for a in range(d.atom_count)])
    return rows, [_ONE] * len(rows)


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

    The equality system is examined first: a full-rank system pins the
    polytope to at most a point (for 3-uniform diagrams the uniform 1/3
    vector, whose validity is immediate, together with a nonsingularity
    certificate settles it without any elimination over Q).  Only systems
    with a nontrivial affine hull reach the per-atom simplex scan.
    """
    require_mmp(d)
    return _classify(d)


def _classify(d: MmpDiagram) -> PolytopeSummary:
    """:func:`classify_states` on a diagram already known to pass (i)-(iii)."""
    n = d.atom_count
    if n == 0:
        empty: StateVector = ()
        return PolytopeSummary(Classification.EXACTLY_ONE, unique_state=empty, atom_ranges=())

    if all(len(b) == 3 for b in d.blocks):
        int_rows = [[1 if a in set(b) else 0 for a in range(n)] for b in d.blocks]
        if rank_mod_p(int_rows, n) == n:
            uniform = tuple([_THIRD] * n)
            return PolytopeSummary(
                Classification.EXACTLY_ONE,
                unique_state=uniform,
                atom_ranges=tuple((_THIRD, _THIRD) for _ in range(n)),
            )

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

    lp = EqualityLP(rows, rhs)
    if not lp.feasible:
        return PolytopeSummary(Classification.NONE)
    witness = tuple(lp.solution())
    ranges: list[tuple[Fraction, Fraction]] = []
    second: StateVector | None = None
    for p in range(n):
        cost = [_ZERO] * n
        cost[p] = _ONE
        lo, x_lo = lp.optimize(cost)
        hi, x_hi = lp.optimize(cost, minimize=False)
        ranges.append((lo, hi))
        if second is None and lo != hi:
            second = tuple(x_lo) if x_lo[p] != witness[p] else tuple(x_hi)
    if second is None:
        return PolytopeSummary(
            Classification.EXACTLY_ONE, unique_state=witness, atom_ranges=tuple(ranges)
        )
    return PolytopeSummary(
        Classification.MORE_THAN_ONE,
        atom_ranges=tuple(ranges),
        witness_state=witness,
        second_witness=second,
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

    Backtracking over blocks with constraint propagation; results come out
    in lexicographic order.  The list may be empty.
    """
    require_mmp(d)
    return _enumerate_01(d)


def _enumerate_01(d: MmpDiagram) -> list[StateVector]:
    """:func:`enumerate_01_states` on a diagram already known to pass (i)-(iii)."""
    n = d.atom_count
    blocks = d.blocks
    assign: list[int | None] = [None] * n
    found: list[StateVector] = []

    def fill(bi: int) -> None:
        if bi == len(blocks):
            found.append(tuple(_ONE if assign[a] == 1 else _ZERO for a in range(n)))
            return
        block = blocks[bi]
        ones = [a for a in block if assign[a] == 1]
        if len(ones) > 1:
            return
        if len(ones) == 1:
            touched = [a for a in block if assign[a] is None]
            for a in touched:
                assign[a] = 0
            fill(bi + 1)
            for a in touched:
                assign[a] = None
            return
        for pick in block:
            if assign[pick] == 0:
                continue
            touched = [a for a in block if assign[a] is None]
            for a in touched:
                assign[a] = 1 if a == pick else 0
            fill(bi + 1)
            for a in touched:
                assign[a] = None
        return

    fill(0)
    return sorted(found)


# ---------------------------------------------------------------------------
# Strong sets of states
# ---------------------------------------------------------------------------


def _element_form(poset: OmlPoset, e: OmlElement) -> tuple[Fraction, dict[int, Fraction]]:
    """m(e) as an affine function (const, coefficients) of the atom values."""
    if e.kind == ZERO:
        return _ZERO, {}
    if e.kind == ONE:
        return _ONE, {}
    if e.kind == ATOM:
        return _ZERO, {e.atom: _ONE}
    if e.kind == COATOM:
        return _ONE, {e.atom: -_ONE}
    return _ZERO, {a: _ONE for a in e.subset}


def _form_value(form: tuple[Fraction, dict[int, Fraction]], x) -> Fraction:
    const, coeffs = form
    return const + sum((c * x[a] for a, c in coeffs.items()), _ZERO)


def _incomparable_pairs(poset: OmlPoset):
    elements = poset.elements
    for i, x in enumerate(elements):
        for j, y in enumerate(elements):
            if i != j and not poset.leq(x, y):
                yield x, y


def admits_strong_set(d: MmpDiagram) -> StrongReport:
    """Decide whether any nonempty strong set of states exists.

    It suffices to test the set of all states: if that set fails the
    strong-set biconditional at some pair, every subset fails the same
    pair, since shrinking the set only weakens the premise of the
    implication.  Each pair (x, y) with x not below y is checked by
    minimizing m(y) over the states with m(x) = 1; with a unique overall
    state the minimum is read off that state directly.
    """
    poset = build_oml(d)  # requires admissibility, which implies (i)-(iii)
    return _strong_set(poset, _classify(d))


def _strong_set(poset: OmlPoset, summary: PolytopeSummary) -> StrongReport:
    """:func:`admits_strong_set` given the poset and the state classification."""
    d = poset.source
    zero_elem = poset.elements[0]

    if summary.classification is Classification.NONE:
        for x, _ in _incomparable_pairs(poset):
            return StrongReport(False, (x, zero_elem))
        return StrongReport(False, None)

    forms = {id(e): _element_form(poset, e) for e in poset.elements}
    if summary.classification is Classification.EXACTLY_ONE:
        vals = {id(e): _form_value(forms[id(e)], summary.unique_state) for e in poset.elements}
        for x, y in _incomparable_pairs(poset):
            if vals[id(x)] != 1:
                return StrongReport(False, (x, zero_elem))
            if vals[id(y)] == 1:
                return StrongReport(False, (x, y))
        return StrongReport(True, None)

    # MoreThanOne: sweep pairs with exact LPs, caching witness states.
    rows, rhs = _block_rows(d)
    base = EqualityLP(rows, rhs)
    known: list[StateVector] = [summary.witness_state, summary.second_witness]
    emax: dict[int, Fraction] = {}
    constrained: dict[int, EqualityLP | None] = {}

    def element_max(e: OmlElement) -> Fraction:
        key = id(e)
        if key not in emax:
            const, coeffs = forms[key]
            cost = [_ZERO] * d.atom_count
            for a, c in coeffs.items():
                cost[a] = c
            value, point = base.optimize(cost, minimize=False)
            emax[key] = const + value
            known.append(tuple(point))
        return emax[key]

    def lp_with_x_equal_one(x: OmlElement) -> EqualityLP | None:
        key = id(x)
        if key not in constrained:
            const, coeffs = forms[key]
            row = [_ZERO] * d.atom_count
            for a, c in coeffs.items():
                row[a] = c
            lp = EqualityLP(rows + [row], rhs + [_ONE - const])
            constrained[key] = lp if lp.feasible else None
        return constrained[key]

    for x, y in _incomparable_pairs(poset):
        if element_max(x) != 1:
            return StrongReport(False, (x, zero_elem))
        fx = forms[id(x)]
        fy = forms[id(y)]
        if any(_form_value(fx, s) == 1 and _form_value(fy, s) < 1 for s in known):
            continue
        lp = lp_with_x_equal_one(x)
        if lp is None:
            return StrongReport(False, (x, zero_elem))
        const_y, coeffs_y = fy
        cost = [_ZERO] * d.atom_count
        for a, c in coeffs_y.items():
            cost[a] = c
        value, point = lp.optimize(cost)
        if const_y + value >= 1:
            return StrongReport(False, (x, y))
        known.append(tuple(point))
    return StrongReport(True, None)


def admits_strong_01_set(d: MmpDiagram) -> StrongReport:
    """Strong-set test restricted to the 0-1 states (the Kochen-Specker test)."""
    poset = build_oml(d)  # requires admissibility, which implies (i)-(iii)
    return _strong_01_set(poset, _enumerate_01(d))


def _strong_01_set(poset: OmlPoset, states: list[StateVector]) -> StrongReport:
    """:func:`admits_strong_01_set` given the poset and its source's 0-1 states.

    Only the blockless diagram has no incomparable pair, and it has one
    (empty) 0-1 state, so an empty ``states`` always fails at a pair.
    """
    forms = {id(e): _element_form(poset, e) for e in poset.elements}
    zero_elem = poset.elements[0]
    values = [
        {id(e): _form_value(forms[id(e)], s) for e in poset.elements} for s in states
    ]
    for x, y in _incomparable_pairs(poset):
        ones = [v for v in values if v[id(x)] == 1]
        if not ones:
            return StrongReport(False, (x, zero_elem))
        if all(v[id(y)] == 1 for v in ones):
            return StrongReport(False, (x, y))
    return StrongReport(True, None)


def admits_classically_strong(d: MmpDiagram) -> bool:
    """Literal reading of the single-state strong condition.

    A single state m must satisfy (m(a)=1 implies m(b)=1) iff a <= b for
    every ordered pair.  Two mutually incomparable elements already make
    that contradictory, and any two atoms of one block are incomparable,
    so only the blockless diagram (the chain 0 < 1) qualifies.
    """
    require_admissible(d)
    return d.block_count == 0
