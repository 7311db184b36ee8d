"""Structural checks and transforms on MMP diagrams.

Covers the three MMP hypergraph conditions, loop/girth analysis,
connected components, incidence duality, block dropping, and the element
count of the pasted lattice.

Every block overlap is read from one pass over block bitmasks
(``_meeting_pairs``), and all connectivity, the canonical search's
included, from one union-find (``components``).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from typing import Iterator

from .diagram import MmpDiagram
from .errors import IndexOutOfRange, NotAdmissible, NotValidated, PreconditionViolated

#: Loops shorter than this cannot occur in a Greechie diagram of a lattice.
MIN_GREECHIE_GIRTH = 5


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    offenders: tuple = ()

    def __bool__(self) -> bool:
        return self.passed


@dataclass(frozen=True)
class LoopProfile:
    """A cyclic chain of blocks, consecutive ones sharing one junction atom.

    ``junction_atoms[i]`` is shared by ``blocks[i]`` and ``blocks[(i+1) % order]``.
    All blocks are distinct, all junctions are distinct, and non-consecutive
    blocks are disjoint.
    """

    order: int
    blocks: tuple[int, ...]
    junction_atoms: tuple[int, ...]
    #: False when a budgeted :func:`max_loop` stopped before proving that no
    #: longer loop exists
    exact: bool = True


@dataclass(frozen=True)
class ValidationReport:
    """Findings of :func:`validate`; nothing raises, everything is reported.

    Connectivity is informational only: it never gates admissibility (census
    conventions live in the generator instead).  ``girth`` is ``None`` for an
    acyclic diagram and 2 when some pair of blocks overlaps in two atoms.
    """

    mmp_i: CheckResult
    mmp_ii: CheckResult
    mmp_iii: CheckResult
    alphabet_contiguous: CheckResult
    pairwise_intersections: CheckResult
    girth: int | None
    connected: bool
    greechie_admissible: bool


def _meeting_pairs(blocks: tuple[tuple[int, ...], ...]) -> Iterator[tuple[int, int, int]]:
    """Every two blocks i < j that share an atom, in pair order, with the
    bitmask of the atoms they share."""
    masks = [sum(1 << a for a in b) for b in blocks]
    for i, mi in enumerate(masks):
        for j in range(i + 1, len(masks)):
            if mi & masks[j]:
                yield i, j, mi & masks[j]


def _checks(d: MmpDiagram) -> tuple[CheckResult, CheckResult, CheckResult, CheckResult]:
    """MMP conditions (i)-(iii), then the check that no two blocks share
    two or more atoms; one pass over the meeting pairs serves the last two."""
    missing = tuple(sorted(set(range(d.atom_count)) - d.used_atoms()))
    small = tuple(i for i, b in enumerate(d.blocks) if len(b) < 3)
    bad_iii, bad_pairs = [], []
    for i, j, shared in _meeting_pairs(d.blocks):
        t = shared.bit_count()
        if min(len(d.blocks[i]), len(d.blocks[j])) < t + 2:
            bad_iii.append((i, j))
        if t >= 2:
            bad_pairs.append((i, j))
    found = (missing, small, tuple(bad_iii), tuple(bad_pairs))
    return tuple(CheckResult(not f, f) for f in found)


def mmp_checks(d: MmpDiagram) -> tuple[CheckResult, CheckResult, CheckResult]:
    """The results of MMP conditions (i), (ii) and (iii), in that order."""
    return _checks(d)[:3]


def validate(d: MmpDiagram) -> ValidationReport:
    """Check the MMP conditions plus the Greechie loop-order requirement.

    (i) every atom lies in some block, (ii) every block has at least three
    atoms, (iii) blocks meeting in n-2 atoms have at least n atoms.  A
    diagram is Greechie-admissible when all three hold, any two blocks
    share at most one atom, and every loop has order at least five.
    """
    mmp_i, mmp_ii, mmp_iii, pairwise = _checks(d)
    used = d.used_atoms()
    gaps = tuple(sorted(set(range(max(used, default=-1) + 1)) - used))
    contiguous = CheckResult(not gaps, gaps)

    if pairwise.passed:
        cycle = _shortest_incidence_cycle(d)
        g = None if cycle is None else len(cycle) // 2
    else:
        g = 2
    connected = is_connected(d)
    admissible = bool(
        mmp_i and mmp_ii and mmp_iii and pairwise and (g is None or g >= MIN_GREECHIE_GIRTH)
    )
    return ValidationReport(
        mmp_i=mmp_i,
        mmp_ii=mmp_ii,
        mmp_iii=mmp_iii,
        alphabet_contiguous=contiguous,
        pairwise_intersections=pairwise,
        girth=g,
        connected=connected,
        greechie_admissible=admissible,
    )


def require_mmp(d: MmpDiagram) -> None:
    """Raise ``NotValidated`` unless the MMP conditions (i)-(iii) hold."""
    if not all(mmp_checks(d)):
        raise NotValidated("diagram fails MMP conditions (i)-(iii)")


def require_admissible(d: MmpDiagram) -> None:
    """Raise ``NotAdmissible`` unless the diagram is Greechie-admissible."""
    if not validate(d).greechie_admissible:
        raise NotAdmissible("operation requires a Greechie-admissible diagram")


def _require_linear(d: MmpDiagram) -> list[tuple[int, int, int]]:
    """The meeting pairs (``_meeting_pairs``) of a diagram in which no two
    blocks share two or more atoms; raise ``PreconditionViolated`` otherwise."""
    pairs = list(_meeting_pairs(d.blocks))
    bad = tuple((i, j) for i, j, shared in pairs if shared & (shared - 1))
    if bad:
        raise PreconditionViolated(f"blocks share two or more atoms: {bad[:3]}")
    return pairs


def girth(d: MmpDiagram) -> int | None:
    """Minimal loop order, or ``None`` if the diagram is acyclic.

    For a linear hypergraph a loop of order k is exactly a 2k-cycle of the
    atom-block incidence graph, so the girth is half the incidence girth.
    Requires pairwise block intersections of at most one atom.
    """
    _require_linear(d)
    cycle = _shortest_incidence_cycle(d)
    if cycle is None:
        return None
    return len(cycle) // 2


def min_loop(d: MmpDiagram) -> LoopProfile | None:
    """A witness loop of minimal order, or ``None`` if acyclic."""
    _require_linear(d)
    cycle = _shortest_incidence_cycle(d)
    if cycle is None:
        return None
    return _cycle_to_profile(d, cycle)


def _cycle_to_profile(d: MmpDiagram, cycle: list[int]) -> LoopProfile:
    n = d.atom_count
    # Rotate so the cycle starts at a block vertex, then read off
    # alternating block, junction, block, junction, ...
    start = next(i for i, v in enumerate(cycle) if v >= n)
    cyc = cycle[start:] + cycle[:start]
    blocks = tuple(v - n for v in cyc[0::2])
    junctions = tuple(cyc[1::2])
    return LoopProfile(order=len(blocks), blocks=blocks, junction_atoms=junctions)


def _shortest_incidence_cycle(d: MmpDiagram) -> list[int] | None:
    """Shortest cycle of the incidence graph (atoms 0..n-1, then the
    blocks) as a vertex list, or None."""
    n = d.atom_count
    adj = [[] for _ in range(n)] + list(d.blocks)
    for i, block in enumerate(d.blocks):
        for a in block:
            adj[a].append(n + i)
    size = len(adj)
    best: list[int] | None = None
    # Atom roots suffice: every incidence cycle alternates atoms and blocks.
    for root in range(d.atom_count):
        if best is not None and len(best) <= 6:
            break  # 6 is the minimum possible (loops of order >= 3)
        dist = [-1] * size
        parent = [-1] * size
        dist[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            if best is not None and 2 * dist[u] >= len(best):
                break
            for w in adj[u]:
                if dist[w] == -1:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w and parent[w] != u and (
                    best is None or dist[u] + dist[w] + 1 < len(best)
                ):
                    # A closed walk through the root of length dist[u]+dist[w]+1
                    # (even: the graph is bipartite) holds a cycle no longer
                    # than it.  Longer walks are skipped: a shorter cycle inside
                    # one is found at its true length from its own vertices.
                    path_u = _path_to_root(parent, u)
                    path_w = _path_to_root(parent, w)
                    set_u = set(path_u)
                    common = next(x for x in path_w if x in set_u)
                    iu = path_u.index(common)
                    iw = path_w.index(common)
                    cycle = path_u[:iu] + [common] + path_w[:iw][::-1]
                    if len(cycle) >= 6:
                        best = cycle
        # dist/parent discarded per root
    return best


def _path_to_root(parent: list[int], v: int) -> list[int]:
    path = [v]
    while parent[path[-1]] != -1:
        path.append(parent[path[-1]])
    return path


class _BudgetSpent(Exception):
    pass


def max_loop(d: MmpDiagram, budget: int | None = None) -> LoopProfile | None:
    """A witness loop of maximal order, or ``None`` if acyclic.

    Branch-and-bound over simple block chains.  A loop of order k uses 2k
    distinct atoms, which caps the search at atom_count // 2 and lets the
    first full-length loop terminate it on structured inputs.

    With a ``budget``, the search stops after that many chain extensions and
    returns the longest loop found so far, with ``exact`` false (a shortest
    loop if it found none yet).  A loop is replaced only by a strictly longer
    one, so a search that completes within the budget returns the same
    profile as the unbudgeted one.
    """
    pairs = _require_linear(d)
    if any(len(b) < 3 for b in d.blocks):
        raise PreconditionViolated("max_loop needs blocks of three or more atoms")
    n, m = d.atom_count, d.block_count
    block_masks = [sum(1 << a for a in b) for b in d.blocks]
    # per block, (neighbor, junction atom, neighbor's mask), neighbors ascending
    neighbors: list[list[tuple[int, int, int]]] = [[] for _ in range(m)]
    for i, j, shared in pairs:
        x = shared.bit_length() - 1
        neighbors[i].append((j, x, block_masks[j]))
        neighbors[j].append((i, x, block_masks[i]))
    hard_cap = min(m, n // 2)

    best: LoopProfile | None = None
    nodes_left = math.inf if budget is None else budget
    # the chain being extended: path[i] and path[i + 1] share junctions[i]
    path: list[int] = []
    junctions: list[int] = []

    def extend(last: int, last_junction: int, used_mask: int, used_count: int):
        # start and first_mask belong to the chain's first block, set below
        nonlocal best, nodes_left
        if nodes_left == 0:
            raise _BudgetSpent
        nodes_left -= 1
        if best is not None and best.order >= hard_cap:
            return
        k = len(path)
        if best is not None and k + (n - used_count + 1) // 2 <= best.order:
            return
        for j, x, bm in neighbors[last]:
            if j <= start or x == last_junction:
                continue
            extra = (bm & used_mask) & ~(1 << x)
            if extra == 0:
                path.append(j)
                junctions.append(x)
                extend(j, x, used_mask | bm, used_count + (bm & ~used_mask).bit_count())
                path.pop()
                junctions.pop()
            elif extra & (extra - 1) == 0 and extra & first_mask == extra:
                # j touches exactly the last block (at x) and the first block
                # (at one further atom y): it closes a loop of order k+1.
                y = extra.bit_length() - 1
                if y != junctions[0] and (best is None or k + 1 > best.order):
                    best = LoopProfile(k + 1, (*path, j), (*junctions, x, y))

    try:
        for start in range(m):
            if best is not None and best.order >= hard_cap:
                break
            first_mask = block_masks[start]
            for j, x, bm in neighbors[start]:
                if j > start:
                    path[:] = [start, j]
                    junctions[:] = [x]
                    used = first_mask | bm
                    extend(j, x, used, used.bit_count())
    except _BudgetSpent:
        found = best or min_loop(d)
        return None if found is None else replace(found, exact=False)
    return best


def components(
    blocks: tuple[tuple[int, ...], ...], n: int
) -> list[tuple[list[int], list[tuple[int, ...]]]]:
    """Connected components of a diagram on atoms 0..n-1, ordered by least atom.

    Each is a pair (ascending atoms, its blocks in input order).  An atom
    in no block is a component without blocks; empty blocks belong to no
    component.
    """
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    blocks = tuple(b for b in blocks if b)
    for b in blocks:
        r = find(b[0])
        for a in b[1:]:
            parent[find(a)] = r
    comps: dict[int, tuple[list[int], list[tuple[int, ...]]]] = {}
    for a in range(n):
        comps.setdefault(find(a), ([], []))[0].append(a)
    for b in blocks:
        comps[find(b[0])][1].append(b)
    return list(comps.values())


def is_connected(d: MmpDiagram) -> bool:
    """True iff the atom-block incidence graph, in which an empty block is
    a component of its own, has at most one component."""
    return len(components(d.blocks, d.atom_count)) + sum(not b for b in d.blocks) <= 1


def dual(d: MmpDiagram) -> MmpDiagram:
    """Incidence dual: atoms and blocks exchange roles.

    The result has one atom per original block and, for each original atom,
    a block listing the original blocks containing it.  It may well fail
    validation (that is legal); taking the dual twice returns an isomorph of
    the input when blocks and atom neighborhoods are duplicate-free.
    """
    blocks = tuple(tuple(inc) for inc in d.incident_blocks())
    return MmpDiagram(d.block_count, blocks)


def drop_blocks(d: MmpDiagram, indices: set[int]) -> tuple[MmpDiagram, tuple[int | None, ...]]:
    """Remove the given blocks and re-compact atoms to a dense range.

    Returns the reduced diagram and the atom renumbering map: position a
    holds the new index of old atom a, or ``None`` if the atom vanished.
    """
    for i in indices:
        if not 0 <= i < d.block_count:
            raise IndexOutOfRange(f"block index {i} out of range")
    kept = [b for i, b in enumerate(d.blocks) if i not in indices]
    return _recompact(d.atom_count, kept)


def drop_atom_from_block(
    d: MmpDiagram, block_index: int, atom: int
) -> tuple[MmpDiagram, tuple[int | None, ...]]:
    """Remove one atom from one block; same recompaction contract as drop_blocks."""
    if not 0 <= block_index < d.block_count:
        raise IndexOutOfRange(f"block index {block_index} out of range")
    if atom not in d.blocks[block_index]:
        raise IndexOutOfRange(f"atom {atom} not in block {block_index}")
    blocks = list(d.blocks)
    blocks[block_index] = tuple(a for a in blocks[block_index] if a != atom)
    return _recompact(d.atom_count, blocks)


def _recompact(
    atom_count: int, blocks: list[tuple[int, ...]]
) -> tuple[MmpDiagram, tuple[int | None, ...]]:
    used = sorted({a for b in blocks for a in b})
    remap = {a: i for i, a in enumerate(used)}
    mapping = tuple(remap.get(a) for a in range(atom_count))
    new_blocks = tuple(tuple(remap[a] for a in b) for b in blocks)
    return MmpDiagram(len(used), new_blocks), mapping


def element_count(d: MmpDiagram) -> int:
    """Number of elements of the pasted orthomodular lattice.

    0 and 1, an atom and a coatom per vertex, plus for every block of size
    k >= 4 its 2^k - 2 - 2k interior subsets (proper subsets of size 2 to
    k-2; the (k-1)-subsets coincide with coatoms).
    """
    require_admissible(d)
    total = 2 + 2 * d.atom_count
    for b in d.blocks:
        k = len(b)
        if k >= 4:
            total += (1 << k) - 2 - 2 * k
    return total
