"""Exact analysis of the state space of a diagram.

A state assigns each atom a rational in [0,1] so that every block sums
to one.  The states form a polytope cut out by those equations, and
everything below (classification, per-atom ranges, 0-1 states, strong
set decisions) is read off its vertices exactly, never with floats.  It
lies in the unit cube, so the 0-1 states are its 0-1 vertices.  The
strong-set tests see a state as its zero mask, bit a set when m(a) = 0,
and ask each element x if F_x = {m : m(x) = 1} is empty and which atoms
Z_x are 0 on all of it.  ``Fraction`` tuples are built only when handed out.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cache, cached_property

from .diagram import MmpDiagram, twin_classes
from .errors import Infeasible, LengthMismatch
from .lattice import OmlElement, OmlPoset, _bits, _state_problem, build_oml
from .linprog import _vertices
from .structure import require_mmp

StateVector = tuple[Fraction, ...]


class Classification(Enum):
    NONE = "None"
    EXACTLY_ONE = "ExactlyOne"
    MORE_THAN_ONE = "MoreThanOne"


@dataclass(frozen=True)
class PolytopeSummary:
    """The state polytope, read off its vertices.

    ``vertices`` lists them in lexicographic order: none for ``None``, the
    one state for ``ExactlyOne``, two or more for ``MoreThanOne``.  It is
    built from ``_vertex`` on first access; ``zero_masks[k]`` has bit a set
    when ``vertices[k]`` puts 0 on atom a.  ``zero_one_masks`` are the zero
    masks of the 0-1 vertices, the 0-1 states, in the same order, filled
    with ``zero_masks``.  Each atom's (min, max) range is the least
    and greatest value it takes on a vertex; the two ``MoreThanOne``
    witnesses are the least and the greatest vertex.
    """

    classification: Classification
    unique_state: StateVector | None = None
    atom_ranges: tuple[tuple[Fraction, Fraction], ...] | None = None
    witness_state: StateVector | None = None
    second_witness: StateVector | None = None
    zero_masks: tuple[int, ...] = field(default=(), repr=False)
    zero_one_masks: tuple[int, ...] = field(default=(), repr=False, compare=False)
    _vertex: Callable[[int], StateVector] | None = field(default=None, repr=False, compare=False)

    @cached_property
    def vertices(self) -> tuple[StateVector, ...]:
        return tuple(map(self._vertex, range(len(self.zero_masks)))) if self._vertex else ()


@dataclass(frozen=True)
class StrongReport:
    """Outcome of a strong-set decision.

    When ``admits`` is false, ``witness_pair`` is the first pair (x, y)
    with x not below y for which every state with m(x)=1 keeps m(y)=1
    (vacuously, when no state puts 1 on x at all).
    """

    admits: bool
    witness_pair: tuple[OmlElement, OmlElement] | None


def is_state(d: MmpDiagram, values) -> bool:
    """True iff entries lie in [0,1] and every block sums to exactly 1."""
    vals = [Fraction(v) for v in values]
    if len(vals) != d.atom_count:
        raise LengthMismatch(f"expected {d.atom_count} values, got {len(vals)}")
    return _state_problem(d, vals) is None


def classify_states(d: MmpDiagram) -> PolytopeSummary:
    """Decide whether the diagram admits no, one, or many states.

    The state polytope {x >= 0 : A x = 1} is listed by its vertices
    (:func:`~greechie.linprog._vertices`): one exact sparse elimination of
    the block sums over the integers, each block's row read off the
    incidence as the sparse integer row ``{class: 1, ..., m: -1}``, then
    double description from its solution.  Every atom lies in a block
    summing to 1, so the polytope is bounded and is the convex hull of
    those vertices: no vertex means no state, one means exactly one, and the
    atom ranges are the vertices' column extremes.

    Twins, atoms on the same blocks, have equal columns in A x = 1, so the
    vertices are listed with one column per twin class T, for y_T the sum
    over T, and expanded: y_T > 0 goes on one of the |T| atoms, y_T = 0 puts
    0 on all.  This is exact.  The fibre over a reduced point y is the
    product of the simplices y_T Δ_T, affine in y, so the polytope is the
    hull of the expansions of the reduced vertices; and each expansion is a
    vertex, as its support columns are y's, independent since y is a vertex.
    So the double description grows with the reduced vertices, and only
    their expansion with the full vertex count.
    Conditions (i)-(iii) are required, as read from the checks the diagram
    keeps: one already checked, say by ``build_oml``, is not checked again.
    """
    require_mmp(d)
    n = d.atom_count
    incident = d.incident_blocks()
    twins = twin_classes(incident)
    members = list(dict.fromkeys(twins))  # the classes, numbered from the first atom on
    number = {cls: t for t, cls in enumerate(members)}
    class_of = [number[cls] for cls in twins]
    rows: list[dict[int, int]] = [{} for _ in d.blocks]  # A x = 1 on one column per class
    for t, cls in enumerate(members):
        for bi in incident[cls[0]]:
            rows[bi][t] = 1
    points, den = _vertices([row | {len(members): -1} for row in rows], len(members))
    if not points:
        return PolytopeSummary(Classification.NONE)
    # each value as its rank among the distinct ones: the lexicographic order
    # is then that of one integer, with atom a at digit n - 1 - a
    rank = {v: r for r, v in enumerate(sorted({0}.union(*points)))}
    shift = [len(rank).bit_length() * (n - 1 - a) for a in range(n)]
    expanded: list[tuple[int, int, int]] = []  # (key, zero mask, reduced point)
    for k, p in enumerate(points):
        found = [(0, (1 << n) - 1)]
        for v, atoms in zip(p, members):
            if v:
                found = [(key | rank[v] << shift[a], z ^ 1 << a) for key, z in found for a in atoms]
        expanded += [(key, z, k) for key, z in found]
    expanded.sort()
    _, masks, owners = zip(*expanded)
    # a vertex is 0-1 when its reduced point is: every class total 0 or 1
    flat = [set(p) <= {0, den} for p in points]
    value = cache(lambda v: Fraction(v, den))  # one object per value, built when handed out

    def vertex(k: int) -> StateVector:
        p, z = points[owners[k]], masks[k]
        return tuple(value(0 if z >> a & 1 else p[class_of[a]]) for a in range(n))

    # an atom with a twin is 0 on some vertex; its class total is its maximum
    extremes = [(min(c) if len(t) == 1 else 0, max(c)) for c, t in zip(zip(*points), members)]
    one = len(masks) == 1
    return PolytopeSummary(
        Classification.EXACTLY_ONE if one else Classification.MORE_THAN_ONE,
        unique_state=vertex(0) if one else None,
        atom_ranges=tuple((value(lo), value(hi)) for lo, hi in map(extremes.__getitem__, class_of)),
        witness_state=None if one else vertex(0),
        second_witness=None if one else vertex(-1),
        zero_masks=masks,
        zero_one_masks=tuple(z for z, k in zip(masks, owners) if flat[k]),
        _vertex=vertex,
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

    They are the 0-1 vertices of the state polytope (``zero_one_masks``),
    in the lexicographic order of ``vertices``, so this lists every vertex
    first (:func:`classify_states`).  The list may be empty.
    """
    zero, one = Fraction(0), Fraction(1)
    masks = classify_states(d).zero_one_masks
    return [tuple(zero if z >> a & 1 else one for a in range(d.atom_count)) for z in masks]


# ---------------------------------------------------------------------------
# Strong sets of states
# ---------------------------------------------------------------------------


def _columns(rows: Sequence[int], n: int) -> list[int]:
    """Per bit a < n, the k with bit a set in rows[k]: every n-th binary digit, last row first."""
    spec = f"0{n}b"
    text = "".join([format(r, spec) for r in reversed(rows)])
    return [int(text[n - 1 - a :: n] or "0", 2) for a in range(n)]


def _strong_over(poset: OmlPoset, zero_masks: Sequence[int]) -> StrongReport:
    """The strong-set test over a finite list of states, given by their zero
    masks in any order.

    Finds the first pair (x, y) with x not below y, x-major in element order,
    that fails: no state puts 1 on x (reported against the zero element), or
    every state with m(x) = 1 has m(y) = 1.  Atom values are nonnegative, so
    m(x) = 1 - m(x') is 1 exactly when m is 0 on S_x, the atoms a with
    x <= a'.  So each x asks: is F_x, the states with m(x) = 1, empty, and
    which atoms Z_x are 0 on all of it?  m(y) = 1 on all of F_x exactly when
    S_y <= Z_x: x fails at the first y, not 0 and not above x, below no a'
    with a outside Z_x.  Only this reads the states, from V-bit atom columns
    (an O(V n) transpose); each x then takes O(n) V-bit and E-bit steps.
    """
    n = poset.source.atom_count
    atoms = (1 << n) - 1
    at_zero = _columns(zero_masks, n)  # per atom, the k with state k at 0 there
    everyone = (1 << len(zero_masks)) - 1
    everything = (1 << len(poset.ups)) - 1
    below = None  # per atom a, the elements below a' (element 2 + n + a)
    for i, up in enumerate(poset.ups[1:], 1):  # x = 0 is below every y
        face = everyone  # F_x
        for a in _bits(up >> (2 + n) & atoms):
            face &= at_zero[a]
        if not face:  # element objects are built only for the pair returned
            return StrongReport(False, (poset.element(i), poset.element(0)))
        if below is None and not any(column & face == face for column in at_zero):
            continue  # Z_x is empty: only the unit has S_y empty, and it is above x
        below = below or _columns([u >> (2 + n) & atoms for u in poset.ups], n)  # on first need
        outside = 0  # the y below some a' with a outside Z_x
        for column, elements in zip(at_zero, below):
            if column & face != face:
                outside |= elements
        failing = everything & ~up & ~outside & ~1
        if failing:
            return StrongReport(False, (poset.element(i), poset.element(next(_bits(failing)))))
    return StrongReport(True, None)


def admits_strong_set(d: MmpDiagram) -> StrongReport:
    """Decide whether any nonempty strong set of states exists.

    It suffices to test the set of all states: if it fails the strong-set
    biconditional at a pair, so does every subset, as shrinking the set only
    weakens the premise.  Each F_x is a face of the state polytope (its
    states are 0 on S_x), the hull of the vertices it holds, so whether F_x
    is empty and which atoms Z_x are 0 on all of it are read off the vertices.
    """
    poset = build_oml(d)  # requires admissibility, which implies (i)-(iii)
    return _strong_over(poset, classify_states(d).zero_masks)


def admits_strong_01_set(d: MmpDiagram) -> StrongReport:
    """The strong-set test with F_x and Z_x over the 0-1 states (the Kochen-Specker test)."""
    poset = build_oml(d)  # requires admissibility, which implies (i)-(iii)
    return _strong_over(poset, classify_states(d).zero_one_masks)

