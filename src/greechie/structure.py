"""Structural checks and transforms on MMP diagrams.

Covers the three MMP hypergraph conditions, loop/girth analysis,
connected components, incidence duality, block dropping, and the element
count of the pasted lattice.

A diagram keeps its incidence (``incident_blocks``), ``_checks``, shortest
incidence cycle and ``validate`` report, each worked out once: every
requirement reads them, ``require_mmp`` never runs the girth search or the
connectivity scan, and ``validate``, ``min_loop``, ``girth`` and a spent
``max_loop`` share one girth search.  The checks, the loop searches and
``dual`` read every block overlap from that incidence, and all
connectivity, the canonical search's included, comes from one
breadth-first labelling of it (``components``).
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass, replace
from itertools import combinations, permutations
from typing import Sequence

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


def _checks(d: MmpDiagram) -> tuple[CheckResult, CheckResult, CheckResult, CheckResult]:
    """MMP conditions (i)-(iii), then the check that no two blocks share
    two or more atoms.  The last two read the block pairs through each atom:
    one sharing t atoms is met t times.  Only the offending pairs are
    sorted, into scan order."""
    missing = tuple(sorted(set(range(d.atom_count)) - d.used_atoms()))
    small = tuple(i for i, b in enumerate(d.blocks) if len(b) < 3)
    shared = Counter(pair for inc in d.incident_blocks() for pair in combinations(inc, 2))
    size = [len(b) for b in d.blocks]
    bad_iii = sorted(p for p, t in shared.items() if min(size[p[0]], size[p[1]]) < t + 2)
    bad_pairs = sorted(p for p, t in shared.items() if t >= 2)
    found = (missing, small, tuple(bad_iii), tuple(bad_pairs))
    return tuple(CheckResult(not f, f) for f in found)


def mmp_checks(d: MmpDiagram) -> tuple[CheckResult, CheckResult, CheckResult]:
    """The results of MMP conditions (i), (ii) and (iii), in that order."""
    return d._checked[:3]


def validate(d: MmpDiagram) -> ValidationReport:
    """Check the MMP conditions plus the Greechie loop-order requirement.

    (i) every atom lies in some block, (ii) every block has at least three
    atoms, (iii) blocks meeting in n-2 atoms have at least n atoms.  A
    diagram is Greechie-admissible when all three hold, any two blocks
    share at most one atom, and every loop has order at least five.  The
    report is worked out once per diagram, and kept.
    """
    return d._report


def _validation(d: MmpDiagram) -> ValidationReport:
    """:func:`validate`, worked out; the diagram keeps it."""
    mmp_i, mmp_ii, mmp_iii, pairwise = d._checked
    used = d.used_atoms()
    gaps = tuple(sorted(set(range(max(used, default=-1) + 1)) - used))
    contiguous = CheckResult(not gaps, gaps)

    if pairwise.passed:
        g = None if d._shortest_cycle is None else len(d._shortest_cycle) // 2
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


def girth(d: MmpDiagram) -> int | None:
    """Minimal loop order, or ``None`` if the diagram is acyclic.

    For a linear hypergraph a loop of order k is exactly a 2k-cycle of the
    atom-block incidence graph, so the girth is half the incidence girth.
    Requires pairwise block intersections of at most one atom.
    """
    loop = min_loop(d)
    return None if loop is None else loop.order


def min_loop(d: MmpDiagram) -> LoopProfile | None:
    """A witness loop of minimal order, or ``None`` if acyclic."""
    _require_linear(d)
    cycle = d._shortest_cycle
    return None if cycle is None else _cycle_to_profile(d, cycle)


def _require_linear(d: MmpDiagram) -> None:
    """Raise ``PreconditionViolated``, naming the first pair, unless the
    diagram's kept check finds no two blocks sharing two or more atoms."""
    pairwise = d._checked[3]
    if not pairwise:
        i, j = pairwise.offenders[0]
        raise PreconditionViolated(f"blocks {i} and {j} share two or more atoms")


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
    blocks) as a vertex list, or None.

    A breadth-first search from each atom (Itai & Rodeh 1978), deleting
    each root once its search is done.  That keeps the girth exact: no atom
    deleted before the least atom r of a shortest cycle lies on that cycle,
    so the search from r still finds a cycle no longer than it.

    A search stops at the first vertex u with 2 dist[u] + 2 >= len(best).
    The graph is bipartite, so an edge from u to a vertex w seen before
    closes a walk of length 2 dist[u] + 2, or of 2 dist[u] if w is one
    level up; but then u was seen when w was searched, which closed that
    walk already.  The roots stop once the 2-core of the graph left (what
    deleting vertices of degree below 2 in turn leaves) is empty: every
    cycle lies in it.  Roots outside it are searched, as the cycle a
    search finds need not pass through its root.
    """
    n = d.atom_count
    adj = [[n + i for i in inc] for inc in d.incident_blocks()] + [list(b) for b in d.blocks]
    size = len(adj)
    best: list[int] | None = None
    # the 2-core has ``core`` vertices, those of degree 2 or more; ``peel``
    # holds the vertices out of it whose edges ``degree`` still counts
    degree = [len(vs) for vs in adj]
    peel = [v for v in range(size) if degree[v] < 2]
    core = size - len(peel)
    # Atom roots suffice: every incidence cycle alternates atoms and blocks.
    for root in range(d.atom_count):
        while peel:
            for w in adj[peel.pop()]:
                degree[w] -= 1
                if degree[w] == 1:
                    core -= 1
                    peel.append(w)
        if not core or (best is not None and len(best) <= 6):
            break  # 6 is the minimum possible (loops of order >= 3)
        dist = [-1] * size
        parent = [-1] * size
        dist[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            if best is not None and 2 * dist[u] + 2 >= len(best):
                break
            for w in adj[u]:
                if dist[w] == -1:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w and parent[w] != u and (
                    best is None or dist[u] + dist[w] + 1 < len(best)
                ):
                    # the walk closed through the root, shorter than the best,
                    # holds the cycle of u, w and their tree paths to where they meet
                    cycle, back = [u], [w]
                    while cycle[-1] != back[-1]:
                        deeper = cycle if dist[cycle[-1]] >= dist[back[-1]] else back
                        deeper.append(parent[deeper[-1]])
                    cycle += back[-2::-1]
                    if len(cycle) >= 6:
                        best = cycle
        for v in adj[root]:
            adj[v].remove(root)
        if degree[root] >= 2:
            core -= 1
            peel.append(root)
    return best


def max_loop(d: MmpDiagram, budget: int | None = None) -> LoopProfile | None:
    """A witness loop of maximal order, or ``None`` if acyclic.

    Branch-and-bound over simple block chains, each grown from its least
    block.  With a ``budget``, the search stops after that many chain
    extensions and returns the longest loop found so far, with ``exact``
    false (a shortest loop if it found none yet).  A search that completes
    within the budget returns the same profile as the unbudgeted one.

    One loop extends an explicit chain, so no chain length meets a
    recursion limit.  Depth k keeps its moves left, in ascending order, with
    the atoms the chain uses and the count it leaves free.  Each free move
    is one node: counted, bounded, then entered, and a spent depth returns
    to the one below, so any budget meets the nodes in the order of a
    recursive depth-first search.  A move that is not free can only close a
    loop, of order k + 1 for a chain of k blocks, and only a longer loop
    replaces the best, whose order never falls; so the closing test runs
    only while k is at least the best order.  A loop of order k uses 2k
    distinct atoms, so none is longer than min(blocks, atoms // 2): the
    first loop of that order ends the search, exact at any budget.
    """
    _require_linear(d)
    if not d._checked[1]:
        raise PreconditionViolated("max_loop needs blocks of three or more atoms")
    if budget is not None and budget < 0:
        raise PreconditionViolated(f"max_loop budget must be at least 0, not {budget}")
    n, m = d.atom_count, d.block_count
    block_masks = [sum(1 << a for a in b) for b in d.blocks]
    # steps[b]: the steps out of block b by ascending j: (block j, junction
    # x, j's atoms but x, their count, moves[j][x]).  x is in the chain, so j
    # extends it if no other atom is.  Each two blocks through an atom meet
    # there, and only there.  tables[moves[b][e]] lists the steps out of b
    # entered at e: by number, so no list holds itself.
    steps: list[list[tuple]] = [[] for _ in range(m)]
    moves: list[dict[int, int]] = [{} for _ in range(m)]
    tables: list[list[tuple]] = []
    for x, through in enumerate(d.incident_blocks()):
        if len(through) > 1:
            for b in through:
                moves[b][x] = len(tables)
                tables.append([])
        for i, j in permutations(through, 2):
            steps[i].append((j, x, block_masks[j] ^ 1 << x, len(d.blocks[j]) - 1, moves[j][x]))
    for out in steps:
        out.sort(key=lambda step: step[0])
    for b, out in enumerate(moves):
        for e, t in out.items():
            tables[t] += [s for s in steps[b] if s[1] != e]
    hard_cap = min(m, n // 2)

    best: LoopProfile | None = None
    best_order = 0  # best's order, 0 before any loop
    nodes_left = math.inf if budget is None else budget
    # depth k: the chain's block path[k] and, while a deeper block is tried,
    # the moves left out of it, the atoms used and the count left free
    path = [0] * m
    pending: list = [None] * m
    used_at = [0] * m
    left_at = [0] * m
    for start in range(m):
        # a chain's first block is its least, so moves into start go
        for b, *_ in steps[start]:
            for t in moves[b].values():
                into = tables[t]
                if into and into[0][0] == start:
                    del into[0]
        path[0] = start
        for second in steps[start]:
            if second[0] <= start:
                continue
            # the second block is one node as any later one
            closing = block_masks[start] ^ (1 << second[1])
            k, it, used, left = 1, iter((second,)), block_masks[start], n - len(d.blocks[start])
            while k:
                for j, x, rest, fresh, onward in it:
                    if not rest & used:
                        if nodes_left == 0:
                            found = best or min_loop(d)
                            return None if found is None else replace(found, exact=False)
                        nodes_left -= 1
                        if k + 1 + (left - fresh + 1) // 2 <= best_order:
                            continue
                        path[k] = j
                        pending[k], used_at[k], left_at[k] = it, used, left
                        it = iter(tables[onward])
                        used |= rest
                        left -= fresh
                        k += 1
                        break
                    elif k >= best_order:
                        extra = rest & used
                        if extra & (extra - 1) == 0 and extra & closing == extra:
                            # j touches exactly the last block (at x) and the
                            # first (at one atom y but the first junction): a
                            # loop of order k + 1, its junctions read off its blocks
                            best_order, y = k + 1, extra.bit_length() - 1
                            blocks = (*path[:k], j)
                            meets = [block_masks[a] & block_masks[b] for a, b in zip(blocks, blocks[1:])]
                            best = LoopProfile(k + 1, blocks, (*(c.bit_length() - 1 for c in meets), y))
                            if best_order == hard_cap:
                                return best
                else:
                    k -= 1
                    it, used, left = pending[k], used_at[k], left_at[k]
    return best


def components(
    blocks: tuple[tuple[int, ...], ...], incident: Sequence[Sequence[int]]
) -> list[tuple[list[int], list[tuple[int, ...]]]]:
    """Connected components of a diagram, ordered by least atom.

    ``incident`` is the blocks' :func:`~greechie.diagram.incidence`, one
    entry per atom.  Each component is a pair (ascending atoms, its blocks
    in input order).  An atom in no block is a component without blocks;
    empty blocks belong to no component.
    """
    n = len(incident)
    label = [-1] * n
    comps: list[tuple[list[int], list[tuple[int, ...]]]] = []
    for root in range(n):
        if label[root] < 0:  # breadth-first from the least unlabelled atom
            k = label[root] = len(comps)
            atoms = [root]
            for a in atoms:
                for i in incident[a]:
                    for x in blocks[i]:
                        if label[x] < 0:
                            label[x] = k
                            atoms.append(x)
            atoms.sort()
            comps.append((atoms, []))
    for b in blocks:
        if b:
            comps[label[b[0]]][1].append(b)
    return comps


def is_connected(d: MmpDiagram) -> bool:
    """True iff the atom-block incidence graph, in which an empty block is
    a component of its own, has at most one component."""
    return blocks_connected(d.blocks, d.incident_blocks())


def blocks_connected(blocks: tuple[tuple[int, ...], ...], incident: Sequence[Sequence[int]]) -> bool:
    """:func:`is_connected` of the blocks with incidence ``incident``, with no diagram built."""
    return len(components(blocks, incident)) + sum(not b for b in blocks) <= 1


def dual(d: MmpDiagram) -> MmpDiagram:
    """Incidence dual: atoms and blocks exchange roles.

    The result has one atom per original block and, for each original atom,
    a block listing the original blocks containing it.  It may well fail
    validation (that is legal); taking the dual twice returns an isomorph of
    the input when blocks and atom neighborhoods are duplicate-free.
    """
    return MmpDiagram(d.block_count, d.incident_blocks())


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
