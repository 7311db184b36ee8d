"""Exhaustive isomorph-free generation of admissible diagrams.

Diagrams are grown block by block (new atoms always take the smallest
unused indices).  Only one candidate block per orbit of the parent's
automorphism group is tried (McKay 1998), with the generators that the
parent's own canonical search found.  A child is kept only when it
survives sibling deduplication by canonical code and the
canonical-augmentation parent test: removing the canonically last block
of the child must reproduce the parent.  Every isomorphism class
matching the spec is emitted exactly once, in canonical form, in a
deterministic order independent of the worker count.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from itertools import combinations
from typing import Callable

from .diagram import MmpDiagram, serialize_mmp
from .errors import InvalidSpec, TooLarge
from .structure import is_connected, validate
from .symmetry import CanonicalForm, Gens, canonical_code, canonical_form, _canonical_search

Blocks = tuple[tuple[int, ...], ...]


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


def _pair_distances(blocks: Blocks, n_used: int) -> list[list[int]]:
    """Chain distance between atoms: least number of blocks joining them.

    dist[x][y] = 1 when x, y share a block; adding a new block over x and y
    would close a loop of order dist[x][y] + 1.
    """
    incident: list[list[int]] = [[] for _ in range(n_used)]
    for i, b in enumerate(blocks):
        for a in b:
            incident[a].append(i)
    big = len(blocks) + 2
    dist = [[big] * n_used for _ in range(n_used)]
    for src in range(n_used):
        row = dist[src]
        row[src] = 0
        seen_atom = [False] * n_used
        seen_block = [False] * len(blocks)
        seen_atom[src] = True
        frontier = [src]
        depth = 0
        while frontier:
            depth += 1
            nxt = []
            for x in frontier:
                for bi in incident[x]:
                    if not seen_block[bi]:
                        seen_block[bi] = True
                        for y in blocks[bi]:
                            if not seen_atom[y]:
                                seen_atom[y] = True
                                row[y] = depth
                                nxt.append(y)
            frontier = nxt
    return dist


def _candidates(blocks: Blocks, n_used: int, spec: GenSpec, stats: GenStats) -> list[tuple[int, ...]]:
    """Valid augmenting blocks in lexicographic order.

    New atoms are appended densely; a candidate survives if it cannot
    close a loop shorter than min_girth and leaves the atom budget
    reachable for the remaining blocks.
    """
    s = spec.block_size
    k = len(blocks)
    remaining_after = spec.block_count - k - 1
    max_new = min(s, spec.atom_count - n_used)
    degrees = [0] * n_used
    for b in blocks:
        for a in b:
            degrees[a] += 1
    dist = _pair_distances(blocks, n_used) if n_used else []
    min_sep = spec.min_girth - 1
    out: list[tuple[int, ...]] = []
    for new in range(max_new + 1):
        # enough room must remain to reach atom_count with later blocks
        if n_used + new + s * remaining_after < spec.atom_count:
            stats.budget_prunes += 1
            continue
        tail = tuple(range(n_used, n_used + new))
        for core in combinations(range(n_used), s - new):
            ok = True
            for i in range(len(core)):
                for j in range(i + 1, len(core)):
                    if dist[core[i]][core[j]] < min_sep:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                stats.girth_prunes += 1
                continue
            if spec.min_atom_degree > 1:
                deficit = 0
                for a in range(n_used):
                    d = degrees[a] + (1 if a in core else 0)
                    if d < spec.min_atom_degree:
                        deficit += spec.min_atom_degree - d
                deficit += (spec.atom_count - n_used - new) * spec.min_atom_degree
                # new atoms in this block already start at degree 1
                deficit += new * (spec.min_atom_degree - 1)
                if deficit > s * remaining_after:
                    stats.budget_prunes += 1
                    continue
            out.append(core + tail)
    out.sort()
    return out


def _final_ok(blocks: Blocks, n_used: int, spec: GenSpec) -> bool:
    if n_used != spec.atom_count:
        return False
    d = MmpDiagram(n_used, blocks)
    if spec.require_connected and not is_connected(d):
        return False
    if spec.min_atom_degree > 1 and min(d.degrees(), default=0) < spec.min_atom_degree:
        return False
    return True


def _designated_last(blocks: Blocks, code: Blocks, perm: tuple[int, ...]) -> int:
    """Index of the block mapped to the last entry of the canonical code."""
    target = code[-1]
    for i, b in enumerate(blocks):
        if tuple(sorted(perm[a] for a in b)) == target:
            return i
    raise AssertionError("no block maps to the canonical tail")


def _expand(
    blocks: Blocks,
    n_used: int,
    own_code: Blocks,
    gens: Gens,
    spec: GenSpec,
    stats: GenStats,
    emit: Callable[[str], None],
    depth_limit: int | None = None,
    frontier: list | None = None,
) -> None:
    """Depth-first canonical augmentation below one node.

    ``gens`` generate the node's automorphism group, acting on its own
    labels.  Candidates in one orbit of that group give isomorphic
    children with one code, so only the first candidate of each orbit, in
    candidate order, is searched; the rest count as canonical rejections,
    exactly as the duplicate-code test would have counted them.  A
    searched child passes its own generators down, and they settle most
    parent tests without a second search (``_is_canonical_parent``).

    When ``depth_limit`` is set, nodes reaching it are appended to
    ``frontier`` instead of being expanded (work partitioning hook).
    """
    stats.nodes_explored += 1
    if len(blocks) == spec.block_count:
        if _final_ok(blocks, n_used, spec):
            stats.emitted_count += 1
            emit(serialize_mmp(MmpDiagram(n_used, own_code)))
        return
    if depth_limit is not None and len(blocks) >= depth_limit:
        frontier.append((blocks, n_used, own_code, gens))
        return
    covered: set[tuple[int, ...]] = set()
    seen: set[Blocks] = set()
    for cand in _candidates(blocks, n_used, spec, stats):
        if cand in covered:
            stats.canonical_rejections += 1
            continue
        covered |= _block_orbit(cand, gens)
        child = blocks + (cand,)
        child_used = max(n_used, (cand[-1] + 1) if cand else 0)
        code, perm, _, child_gens = _canonical_search(child, child_used)
        if code in seen:
            stats.canonical_rejections += 1
            continue
        seen.add(code)
        beta = _designated_last(child, code, perm)
        if not _is_canonical_parent(child, beta, child_gens, own_code, child_used):
            stats.canonical_rejections += 1
            continue
        _expand(child, child_used, code, child_gens, spec, stats, emit, depth_limit, frontier)


def _is_canonical_parent(child: Blocks, beta: int, gens: Gens, parent_code: Blocks, n: int) -> bool:
    """Is ``child`` minus block ``beta`` a copy of the parent, ``child``
    minus its last block, whose canonical code is ``parent_code``?

    Yes if an automorphism of the child (``gens`` generate them all) maps
    block ``beta`` onto the last block, since it maps one remainder onto
    the other; no if the remainders differ in the multiset of their
    blocks' sorted atom degrees, which isomorphisms preserve.  Only the
    other cases run the canonical search.
    """
    if child[-1] in _block_orbit(child[beta], gens):
        return True
    rest = child[:beta] + child[beta + 1 :]
    if _degree_profiles(rest) != _degree_profiles(child[:-1]):
        return False
    return canonical_code(rest, n) == parent_code


def _degree_profiles(blocks: Blocks) -> list[tuple[int, ...]]:
    degree = Counter(a for b in blocks for a in b)
    return sorted(tuple(sorted(degree[a] for a in b)) for b in blocks)


def _block_orbit(block: tuple[int, ...], gens: Gens) -> set[tuple[int, ...]]:
    """Images of a candidate block under the group generated by ``gens``;
    atoms beyond the generators' range (new atoms) are fixed."""
    orbit = {block}
    todo = [block]
    while todo:
        b = todo.pop()
        for g in gens:
            image = tuple(sorted(g[a] if a < len(g) else a for a in b))
            if image not in orbit:
                orbit.add(image)
                todo.append(image)
    return orbit


def _run_subtree(args: tuple) -> tuple[list[str], GenStats]:
    spec_fields, blocks, n_used, own_code, gens = args
    stats = GenStats()
    lines: list[str] = []
    _expand(blocks, n_used, own_code, gens, GenSpec(**spec_fields), stats, lines.append)
    return lines, stats


def generate(
    spec: GenSpec,
    sink: Callable[[str], None],
    *,
    workers: int = 1,
    split_depth: int = 2,
    checkpoint: str | None = None,
) -> GenStats:
    """Emit every matching isomorphism class once, in canonical form.

    ``workers`` > 1 partitions the search tree at ``split_depth`` blocks
    into independent subtree tasks, each starting from its root's
    automorphism generators; emissions reach ``sink`` in task order as
    the tasks finish, so the output sequence does not depend on the
    worker count.  ``checkpoint``
    names a JSON file recording completed subtrees for resumable runs.
    """
    spec.check()
    start = time.perf_counter()
    stats = GenStats()
    if spec.block_count == 0:
        if spec.atom_count == 0:
            stats.emitted_count = 1
            sink(".")
        stats.wall_time = time.perf_counter() - start
        return stats
    if workers <= 1 and checkpoint is None:
        _expand((), 0, (), (), spec, stats, sink)
        stats.wall_time = time.perf_counter() - start
        return stats

    # Collect the frontier at split_depth, emitting anything shallower.
    frontier: list[tuple[Blocks, int, Blocks, Gens]] = []
    depth = max(1, min(split_depth, spec.block_count))
    _expand((), 0, (), (), spec, stats, sink, depth_limit=depth, frontier=frontier)
    stats.nodes_explored -= len(frontier)  # tasks count their own roots

    state = _load_checkpoint(checkpoint, spec, depth, len(frontier))
    completed = state["completed"]
    tasks = [(asdict(spec), *task) for i, task in enumerate(frontier) if str(i) not in completed]
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        fresh = (pool.map if pool else map)(_run_subtree, tasks)
        for i in range(len(frontier)):
            lines = completed.get(str(i))
            if lines is None:
                lines, sub = next(fresh)
                stats.merge(sub)
                _record_task(state, i, lines, checkpoint)
            else:
                stats.emitted_count += len(lines)
            for line in lines:
                sink(line)
    stats.wall_time = time.perf_counter() - start
    return stats


def _load_checkpoint(path: str | None, spec: GenSpec, depth: int, n_tasks: int) -> dict:
    state = {"spec": asdict(spec), "split_depth": depth, "tasks": n_tasks, "completed": {}}
    if path and os.path.exists(path):
        with open(path) as fh:
            old = json.load(fh)
        if old.get("spec") == state["spec"] and old.get("split_depth") == depth:
            state["completed"] = old.get("completed", {})
    return state


def _record_task(state: dict, task_id: int, lines: list[str], path: str | None) -> None:
    if path is None:
        return
    state["completed"][str(task_id)] = lines
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(state, fh)
    os.replace(tmp, path)


def membership_probe(d: MmpDiagram, spec: GenSpec) -> bool:
    """Would ``generate(spec)`` emit this diagram's isomorphism class?

    Walks the canonical-parent chain down to the empty diagram, replaying
    the generator's own acceptance test at every level: the child must
    arise from its parent by one augmenting block whose removal (at the
    canonically last position) reproduces that parent.  The full tree is
    never searched, so deep lattices can be probed directly.
    """
    spec.check()
    if d.atom_count != spec.atom_count or d.block_count != spec.block_count:
        return False
    if any(len(b) != spec.block_size for b in d.blocks):
        return False
    rep = validate(d)
    if not (rep.mmp_i and rep.mmp_ii and rep.mmp_iii and rep.pairwise_intersections):
        return False
    if rep.girth is not None and rep.girth < spec.min_girth:
        return False
    if not _final_ok(d.blocks, d.atom_count, spec):
        return False

    code = canonical_code(d.blocks, d.atom_count)
    level = spec.block_count
    while code:
        child_atoms = 1 + max(a for b in code for a in b)
        parent_blocks = code[:-1]
        parent_used = sorted({a for b in parent_blocks for a in b})
        # The atom budget must stay reachable or the generator would prune.
        if len(parent_used) + spec.block_size * (spec.block_count - level + 1) < spec.atom_count:
            return False
        pcode, pperm, _, _ = _canonical_search(parent_blocks, child_atoms)
        candidate = tuple(sorted(pperm[a] for a in code[-1]))
        rebuilt = pcode + (candidate,)
        rebuilt_atoms = max(child_atoms, candidate[-1] + 1) if candidate else child_atoms
        ccode, cperm, _, cgens = _canonical_search(rebuilt, rebuilt_atoms)
        if ccode != code:
            return False
        beta = _designated_last(rebuilt, ccode, cperm)
        if not _is_canonical_parent(rebuilt, beta, cgens, pcode, rebuilt_atoms):
            return False
        code = pcode
        level -= 1
    return True


def census(spec: GenSpec, *, workers: int = 1, split_depth: int = 2, checkpoint: str | None = None) -> int:
    """Number of isomorphism classes matching the spec."""
    return generate(
        spec, lambda _line: None, workers=workers, split_depth=split_depth, checkpoint=checkpoint
    ).emitted_count


def brute_force_generate(spec: GenSpec, guard: int = 10**8) -> list[CanonicalForm]:
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
    if universe > guard:
        raise TooLarge(f"{universe} candidate block sets exceed the {guard} guard")
    if a < s or s * m < a:
        return []
    all_blocks = list(combinations(range(a), s))
    masks = {b: _mask(b) for b in all_blocks}
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
        key = canonical_code(d.blocks, a)
        if key not in classes:
            classes[key] = d
    forms = [canonical_form(d) for d in classes.values()]
    return sorted(forms, key=lambda f: f.canonical_text)


def _mask(block: tuple[int, ...]) -> int:
    m = 0
    for x in block:
        m |= 1 << x
    return m
