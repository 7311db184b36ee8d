"""Exhaustive isomorph-free generation of admissible diagrams.

Diagrams are grown block by block (new atoms always take the smallest
unused indices) by canonical augmentation (McKay 1998).  A node tries
one candidate block per orbit of its automorphism group, with the
generators its own canonical search found.  A child is kept only when
its new block is, up to automorphism, the block b* its deletion rule
picks: of the blocks with the largest key (sorted atom degrees, then
sorted atom weights, both isomorphism invariants), the one whose
canonical image comes last.  A child whose new block has a smaller key
than some other block is rejected before any canonical search, and one
whose new block alone has the largest key is kept before any; its own
search waits until its group or its code is needed.  Both orbit tests run
over twin forms of blocks (``_block_orbit``), as twins permute freely.
A parent hands each child it keeps the bookkeeping it worked out while
judging it (degrees, incidence, weights, keys, twin classes) and the
child's chain balls, grown from its own around the new block, which the
girth filter on candidates reads; nothing is counted from scratch.
Every isomorphism class matching the spec is emitted exactly once, in
canonical form, in a deterministic order independent of the worker count.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from functools import partial
from itertools import combinations
from pathlib import Path
from typing import Callable, Iterator

from .diagram import MmpDiagram, dump_diagram_line, incidence, twin_classes
from .errors import BadCheckpoint, InvalidSpec, TooLarge
from .structure import blocks_connected, validate
from .symmetry import CanonicalForm, Gens, canonical_form, _canonical_search

Blocks = tuple[tuple[int, ...], ...]
# blocks, atoms used, canonical code, Aut generators (the last two None until
# searched), and the bookkeeping the node's parent hands down: its
# ``_invariants`` (degrees, incidence, weights, keys), its twin classes and,
# per radius r = 1..min_girth - 2, each atom's ball, the bitmask of the atoms
# joined to it by a chain of at most r blocks (None at a leaf)
Node = tuple[Blocks, int, Blocks | None, Gens | None, tuple]
TASKS_PER_WORKER = 8  # subtree tasks per worker that a partitioned run aims for
BRUTE_FORCE_GUARD = 10**8  # candidate block sets that brute_force_generate may filter


@dataclass(frozen=True)
class GenSpec:
    """Target shape of the census: size, girth, and conventions.

    Connectivity and the minimum atom degree are conventions, not part of
    admissibility; both default to the weakest published reading.
    """

    atom_count: int
    block_count: int
    block_size: int = 3
    min_girth: int = 5
    require_connected: bool = True
    min_atom_degree: int = 1

    def check(self) -> None:
        if self.atom_count < 0 or self.block_count < 0:
            raise InvalidSpec("atom and block counts must be non-negative")
        if self.block_size < 3:
            raise InvalidSpec("blocks must have at least 3 atoms")
        if self.min_girth < 3:
            raise InvalidSpec("loops have order at least 3; min_girth must be >= 3")
        if self.min_atom_degree < 1:
            raise InvalidSpec("every atom of a generated diagram lies in a block")
        if self.block_count and self.atom_count < self.block_size:
            raise InvalidSpec("atom_count too small for a single block")


@dataclass
class GenStats:
    nodes_explored: int = 0
    canonical_rejections: int = 0
    girth_prunes: int = 0
    budget_prunes: int = 0
    emitted_count: int = 0
    wall_time: float = 0.0

    def merge(self, other: "GenStats") -> None:
        self.nodes_explored += other.nodes_explored
        self.canonical_rejections += other.canonical_rejections
        self.girth_prunes += other.girth_prunes
        self.budget_prunes += other.budget_prunes
        self.emitted_count += other.emitted_count


def _grow_balls(balls: list[list[int]], block: tuple[int, ...], n: int) -> list[list[int]]:
    """The balls of a diagram on ``n`` atoms plus ``block``, from its own.

    A shortest chain uses the new block at most once: it reaches the block
    within j old blocks, crosses it, and goes on from any of its atoms.  So
    an atom within j of the block, for the least such j, gains at radius r
    the old ball of radius r - 1 - j around the block; atoms farther than
    r - 1 from it keep their ball of radius r.
    """
    mask = sum(1 << a for a in block)
    around = [mask]  # around[j]: the atoms within j old blocks of the block
    for ring in balls[:-1]:
        near = mask
        for a in block:
            if a < n:
                near |= ring[a]
        around.append(near)
    # a new atom's ball of radius r is the block's old ball of radius r - 1
    grown = [ring + [outer] * (block[-1] + 1 - n) for ring, outer in zip(balls, around)]
    for x in range(n):
        for j, near in enumerate(around):
            if near >> x & 1:
                for r in range(j, len(balls)):
                    grown[r][x] |= around[r - j]
                break
    return grown


def _candidates(
    blocks: Blocks, n_used: int, spec: GenSpec, stats: GenStats, degree: list[int], ball: list[int]
) -> list:
    """Valid augmenting blocks in lexicographic order.

    New atoms are appended densely; a candidate survives if it cannot
    close a loop shorter than min_girth and leaves the atom budget
    reachable for the remaining blocks.  Old atoms are picked in
    increasing order, each outside the ``ball`` of radius min_girth - 2
    of all picked: a block over x and y closes a loop of order one more
    than the shortest chain joining them.

    At the last block (``remaining_after`` = 0) the budget tests are exact.
    The atom budget needs new >= atom_count - n_used, the loop's bound, so
    a leaf has atom_count atoms, each in some block.  With md > 1 (md =
    min_atom_degree), ``spare`` is -new * (md - 1) and the shortfall left
    is >= 0, so only new = 0 with none left passes: all degrees end >= md.
    """
    s, md = spec.block_size, spec.min_atom_degree
    remaining_after = spec.block_count - len(blocks) - 1
    shortfall = sum(max(0, md - d) for d in degree)  # incidences the old atoms lack
    out: list[tuple[int, ...]] = []
    # levels[k]: the k-atom cores in lexicographic order, each with the atoms
    # above its last that are far from all of it
    levels = [[((), (1 << n_used) - 1)]]
    for new in range(min(s, spec.atom_count - n_used) + 1):
        # enough room must remain to reach atom_count with later blocks
        if n_used + new + s * remaining_after < spec.atom_count:
            stats.budget_prunes += 1
            continue
        while len(levels) <= s - new:
            grown = []
            for core, allowed in levels[-1]:
                while allowed:
                    bit = allowed & -allowed
                    allowed ^= bit
                    a = bit.bit_length() - 1
                    grown.append((core + (a,), allowed & ~ball[a]))
            levels.append(grown)
        cores = levels[s - new]
        stats.girth_prunes += math.comb(n_used, s - new) - len(cores)
        # new atoms in this block already start at degree 1
        spare = s * remaining_after - (spec.atom_count - n_used - new) * md - new * (md - 1)
        tail = tuple(range(n_used, n_used + new))
        for core, _ in cores:
            if md > 1 and shortfall - sum(degree[a] < md for a in core) > spare:
                stats.budget_prunes += 1
            else:
                out.append(core + tail)
    out.sort()
    return out


def _expand(node: Node, spec: GenSpec, stats: GenStats, emit: Callable[[str], None], memo: dict) -> None:
    """Depth-first canonical augmentation below one node, with the run's ``memo``."""
    blocks, n_used, own_code, _, book = node
    stats.nodes_explored += 1
    if len(blocks) == spec.block_count:  # atoms and degrees hold by ``_candidates``
        if not spec.require_connected or blocks_connected(blocks, book[1]):
            stats.emitted_count += 1
            code = _canonical_search(blocks, book[1], memo)[0] if own_code is None else own_code
            emit(dump_diagram_line(MmpDiagram(n_used, code)))
        return
    for child in _children(node, spec, stats, memo):
        _expand(child, spec, stats, emit, memo)


def _children(node: Node, spec: GenSpec, stats: GenStats, memo: dict) -> Iterator[Node]:
    """The node's accepted children, in search order, each with the
    bookkeeping that ``Node`` lists.

    ``gens`` generate the node's automorphism group, acting on its own
    labels (None until the node's search runs, at the first candidate that
    needs them).  Candidates in one orbit of that group give isomorphic
    children, so only the first candidate of each orbit is tried; a
    candidate is told by its twin form (``_block_orbit``): its old atoms share
    no block, so no two are twins, and each stands for its class.  A child
    whose new block's key is beaten (``_child_keys``) is rejected unsearched;
    one whose new block alone has the largest key is kept unsearched; any
    other is searched and kept when its new block lies in the orbit of b*
    (``_accepts``).  Each rejection counts as a canonical rejection.  As
    Aut(node) is complete, kept children are pairwise non-isomorphic.
    """
    blocks, n_used, _, gens, book = node
    twins, balls = book[4:]
    top = max(book[3], default=())
    covered: set[tuple[int, ...]] = set()  # twin forms of the tried orbits
    for cand in _candidates(blocks, n_used, spec, stats, book[0], balls[-1]):
        seen = covered and tuple(sorted(twins[a][0] if a < n_used else a for a in cand)) in covered
        grown = None if seen else _child_keys(blocks, cand, book, top)
        if grown is None:
            stats.canonical_rejections += 1
            continue
        if gens is None:
            gens = _canonical_search(blocks, book[1], memo)[3]
        covered |= _block_orbit(cand, gens, twins)
        child = blocks + (cand,)
        child_used = len(grown[0])
        keys, child_twins = grown[3], twin_classes(grown[1])
        code = child_gens = None
        if keys.count(keys[-1]) > 1:  # b* may be another block
            code, perm, _, child_gens = _canonical_search(child, grown[1], memo)
            if not _accepts(child, keys, perm, child_gens, child_twins):
                stats.canonical_rejections += 1
                continue
        leaf = len(child) == spec.block_count  # a leaf picks no candidates
        child_balls = None if leaf else _grow_balls(balls, cand, n_used)
        yield child, child_used, code, child_gens, (*grown, child_twins, child_balls)


def _invariants(blocks: Blocks, n: int) -> tuple[list[int], list[list[int]], list[int], list]:
    """Atom degrees, the blocks through each atom, atom weights and block keys.

    The weight of an atom is the sum, over its blocks, of the block's
    degree total; the key of a block is its sorted atom degrees followed
    by its sorted atom weights.  Isomorphisms preserve all of them.
    """
    incident = incidence(blocks, n)
    degree = [len(inc) for inc in incident]
    total = [sum(degree[a] for a in b) for b in blocks]
    weight = [sum(total[i] for i in incident[a]) for a in range(n)]
    return degree, incident, weight, [_key(b, degree, weight) for b in blocks]


def _key(block: tuple[int, ...], degree: list[int], weight: list[int]) -> tuple[int, ...]:
    return tuple(sorted(degree[a] for a in block)) + tuple(sorted(weight[a] for a in block))


def _child_keys(blocks: Blocks, cand: tuple[int, ...], invariants: tuple, top: tuple) -> tuple | None:
    """``_invariants`` of ``blocks + (cand,)`` from the parent's, or None
    when some block's key beats the new block's.  Only the candidate's
    atoms gain a degree, and only the blocks through them a degree total
    (no two candidate atoms share a block).  Keys start with their block's
    sorted degrees and never fall, so the parent's largest key ``top``
    rejects first on the new block's degrees alone, then on its whole key.
    """
    degree, incident, weight = invariants[:3]
    n = len(degree)
    if top[: len(cand)] > tuple(sorted(degree[a] + 1 if a < n else 1 for a in cand)):
        return None
    pad = [0] * (cand[-1] + 1 - n)
    degree, weight = degree + pad, weight + pad
    total = len(cand) + sum(degree[a] for a in cand)
    for a in cand:
        degree[a] += 1
        weight[a] += total
        for i in incident[a] if a < n else ():
            for x in blocks[i]:
                weight[x] += 1
    new_key = _key(cand, degree, weight)
    if top > new_key:
        return None
    keys = []
    for b in blocks:
        if (key := _key(b, degree, weight)) > new_key:
            return None
        keys.append(key)
    incident = incident + [[] for _ in pad]
    for a in cand:
        incident[a] = incident[a] + [len(blocks)]
    return degree, incident, weight, keys + [new_key]


def _accepts(child: Blocks, keys: list, perm: tuple[int, ...], gens: Gens, twins: list) -> bool:
    """Is the last block in the Aut(child)-orbit (``gens``) of b*, the block
    of largest key whose image under the canonical labelling ``perm`` is
    last in the code?  Blocks are compared by twin form in the child, whose
    twin classes are ``twins``."""
    top = keys[-1]
    star = max((b for b, k in zip(child, keys) if k == top), key=lambda b: sorted(perm[a] for a in b))
    return star == child[-1] or _twin_form(child[-1], twins) in _block_orbit(star, gens, twins)


def _twin_form(block: tuple[int, ...], twins: list[tuple[int, ...]]) -> tuple[int, ...]:
    """The block with, in each twin class, its atoms replaced by the class's
    least ones, as many; atoms beyond ``twins`` (new atoms) stay."""
    out: list[int] = []
    for a in block:
        cls = twins[a] if a < len(twins) else (a,)
        i = 0
        while cls[i] in out:  # taken by an earlier atom of the class
            i += 1
        out.append(cls[i])
    return tuple(sorted(out))


def _block_orbit(block: tuple[int, ...], gens: Gens, twins: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """Twin forms (``_twin_form``) of the images of a block under the group
    that ``gens`` generate, atoms past their range (new atoms) fixed: a
    block is in the orbit exactly when its twin form is in the set.

    The permutations within twin classes are automorphisms, and an
    automorphism g maps twin classes onto twin classes, so they form a
    normal subgroup S (g S g^-1 = S).  The blocks of one twin form are one
    S-orbit and g maps S-orbits onto S-orbits, so a search over twin forms
    needs only the generators outside S, which move an atom out of its class.
    """
    n = len(twins)
    pad = tuple(range(n, block[-1] + 1))
    gens = [g + pad for g in gens if any(twins[g[a]] is not twins[a] for a in range(n))]
    start = _twin_form(block, twins)
    orbit = {start}
    todo = [start]
    while todo:
        b = todo.pop()
        for g in gens:
            image = _twin_form([g[a] for a in b], twins)
            if image not in orbit:
                orbit.add(image)
                todo.append(image)
    return orbit


def _root(spec: GenSpec) -> Node:
    """The empty diagram, the root of every search."""
    return (), 0, (), (), ([], [], [], [], [], [[]] * (spec.min_girth - 2))


def _run_subtree(spec: GenSpec, node: Node) -> tuple[list[str], GenStats]:
    stats, lines = GenStats(), []
    _expand(node, spec, stats, lines.append, {})
    return lines, stats


def generate(
    spec: GenSpec, sink: Callable[[str], None], *, workers: int = 1, checkpoint: str | None = None
) -> GenStats:
    """Emit every matching isomorphism class once, in canonical form.

    ``workers`` > 1 or a ``checkpoint`` runs the search as subtree tasks
    (``_run_tasks``) and emits their lines in task order, so the output does
    not depend on the worker count.  ``checkpoint`` names a file of JSON
    lines: a header (spec, depth, task count), then one record (index,
    lines, ``GenStats``) per finished task; a run on it resumes it.
    """
    spec.check()
    if workers < 1:
        raise InvalidSpec("workers must be at least 1")
    start = time.perf_counter()
    stats = GenStats()
    if spec.block_count == 0:
        if spec.atom_count == 0:
            stats.emitted_count = 1
            sink(".")
    elif workers == 1 and checkpoint is None:
        _expand(_root(spec), spec, stats, sink, {})
    else:
        _run_tasks(spec, sink, stats, workers, checkpoint)
    stats.wall_time = time.perf_counter() - start
    return stats


def _run_tasks(
    spec: GenSpec, sink: Callable, stats: GenStats, workers: int, checkpoint: str | None
) -> None:
    """Run the search as subtree tasks, each finished one recorded in the
    line-buffered ``checkpoint``.  The frontier deepens one block at a time
    until it holds ``TASKS_PER_WORKER`` tasks per worker or lies just above
    the leaves; a resumed run deepens it to the recorded depth.  No more
    worker processes start than there are tasks left, and none for one."""
    header, done, size = _read_checkpoint(checkpoint, spec) if checkpoint else (None, {}, 0)
    tasks, depth, memo = [_root(spec)], 0, {}
    last = spec.block_count - 1 if header is None else header["depth"]
    while depth < last and (header or len(tasks) < TASKS_PER_WORKER * workers):
        stats.nodes_explored += len(tasks)
        tasks = [child for task in tasks for child in _children(task, spec, stats, memo)]
        depth += 1
    if header and header["tasks"] != len(tasks):
        raise BadCheckpoint(f"{checkpoint}: records {header['tasks']} tasks, not {len(tasks)}")
    todo = [task for i, task in enumerate(tasks) if i not in done]
    workers = min(workers, len(todo))  # a forked pool starts all its workers at once
    pool = ProcessPoolExecutor(workers) if workers > 1 else nullcontext()
    with pool as pool, open(checkpoint, "a", buffering=1) if checkpoint else nullcontext() as log:
        if log:
            log.truncate(size)  # drops a record torn by an interrupted run
        if log and not header:
            print(json.dumps({"spec": asdict(spec), "depth": depth, "tasks": len(tasks)}), file=log)
        fresh = (pool.map if pool else map)(partial(_run_subtree, spec), todo)
        for i in range(len(tasks)):
            lines, sub = done[i] if i in done else next(fresh)
            if log and i not in done:
                print(json.dumps({"task": i, "lines": lines, "stats": asdict(sub)}), file=log)
            stats.merge(sub)
            for line in lines:
                sink(line)


def _read_checkpoint(path: str, spec: GenSpec) -> tuple[dict | None, dict, int]:
    """Header, finished tasks and the byte length of the complete lines of a
    checkpoint.  A missing or empty file has no header; a last line without
    its newline was torn by an interrupted run and is ignored.  A header or
    record of the wrong shape or types, or a depth past the search, raises
    ``BadCheckpoint``."""
    data = Path(path).read_bytes() if Path(path).exists() else b""
    if not data:
        return None, {}, 0
    complete = data[: data.rfind(b"\n") + 1]
    try:
        header, *records = map(json.loads, complete.splitlines())
        if header["spec"] != asdict(spec):
            raise BadCheckpoint(f"{path}: written for another spec, {header['spec']}")
        if not type(header["depth"]) is type(header["tasks"]) is int:
            raise ValueError("depth and task count must be integers")
        if not 0 <= header["depth"] < spec.block_count:  # the depths a run writes
            raise ValueError(f"depth {header['depth']} lies outside 0 to {spec.block_count - 1}")
        done = {}
        for r in records:
            stats = GenStats(**r["stats"])
            counts = [v for k, v in asdict(stats).items() if k != "wall_time"]
            if not (
                type(r["task"]) is int and 0 <= r["task"] < header["tasks"]
                and type(r["lines"]) is list and all(type(x) is str for x in r["lines"])
                and all(type(c) is int for c in counts)
            ):
                raise ValueError(f"task {r['task']!r}: a task index, lines and integer counts expected")
            done[r["task"]] = (r["lines"], stats)
    except (KeyError, TypeError, ValueError) as exc:
        raise BadCheckpoint(f"{path}: not a readable checkpoint ({exc!r})") from None
    return header, done, len(complete)


def membership_probe(d: MmpDiagram, spec: GenSpec) -> bool:
    """Would ``generate(spec)`` emit this diagram's isomorphism class?

    Walks the parent chain down to the empty diagram.  At every level the
    deletion rule of ``_children`` picks b*, the last block of largest key
    in the canonical code; the parent is the code without b*, and the
    generator's own acceptance test is replayed on the parent plus b*.
    The candidate filters hold on every sub-diagram of a diagram that
    meets the spec, so the full tree is never searched and deep lattices
    can be probed directly.
    """
    spec.check()
    rep = validate(d)
    if not (
        (d.atom_count, d.block_count) == (spec.atom_count, spec.block_count)
        and all(len(b) == spec.block_size for b in d.blocks)
        and rep.mmp_i and rep.mmp_ii and rep.mmp_iii and rep.pairwise_intersections
        and (rep.girth is None or rep.girth >= spec.min_girth)
        and (rep.connected or not spec.require_connected)
        and all(k >= spec.min_atom_degree for k in d.degrees())
    ):
        return False
    code = _canonical_search(d.blocks, d.incident_blocks())[0]
    while code:
        n = 1 + max(a for b in code for a in b)
        keys = _invariants(code, n)[3]
        star = max(range(len(code)), key=lambda i: (keys[i], i))
        parent = code[:star] + code[star + 1 :]
        pcode, pperm, _, _ = _canonical_search(parent, incidence(parent, n))
        cand = tuple(sorted(pperm[a] for a in code[star]))
        p_used = 1 + max((a for b in pcode for a in b), default=-1)
        invariants = _invariants(pcode, p_used)
        grown = _child_keys(pcode, cand, invariants, max(invariants[3], default=()))
        if grown is None:
            return False
        child = pcode + (cand,)
        ccode, cperm, _, cgens = _canonical_search(child, grown[1])
        if ccode != code or not _accepts(child, grown[3], cperm, cgens, twin_classes(grown[1])):
            return False
        code = pcode
    return True


def census(spec: GenSpec) -> int:
    """Number of isomorphism classes matching the spec."""
    return generate(spec, lambda _line: None).emitted_count


def brute_force_generate(spec: GenSpec) -> list[CanonicalForm]:
    """Independent oracle: filter all block combinations, dedupe canonically.

    One block is pinned to the identity labeling (every class has a
    representative containing it), which shrinks the enumeration without
    touching the augmentation machinery under test.
    """
    spec.check()
    a, s, m = spec.atom_count, spec.block_size, spec.block_count
    if m == 0:
        if a == 0:
            return [CanonicalForm(".", 1)]
        return []
    universe = math.comb(math.comb(a, s), m) if a >= s else 0
    if universe > BRUTE_FORCE_GUARD:
        raise TooLarge(f"{universe} candidate block sets exceed the {BRUTE_FORCE_GUARD} guard")
    if a < s or s * m < a:
        return []
    all_blocks = list(combinations(range(a), s))
    masks = {b: sum(1 << x for x in b) for b in all_blocks}
    first = tuple(range(s))
    rest_pool = [b for b in all_blocks if b != first]
    full = (1 << a) - 1
    classes: dict[tuple, MmpDiagram] = {}
    for rest in combinations(rest_pool, m - 1):
        blocks = (first,) + rest
        union = 0
        for b in blocks:
            union |= masks[b]
        if union != full:
            continue
        if any(
            (masks[blocks[i]] & masks[blocks[j]]).bit_count() >= 2
            for i in range(m)
            for j in range(i + 1, m)
        ):
            continue
        d = MmpDiagram(a, blocks)
        rep = validate(d)
        if rep.girth is not None and rep.girth < spec.min_girth:
            continue
        if spec.require_connected and not rep.connected:
            continue
        if spec.min_atom_degree > 1 and min(d.degrees()) < spec.min_atom_degree:
            continue
        key = _canonical_search(d.blocks, d.incident_blocks())[0]
        if key not in classes:
            classes[key] = d
    forms = [canonical_form(d) for d in classes.values()]
    return sorted(forms, key=lambda f: f.canonical_text)
