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

from .diagram import MmpDiagram, incidence, serialize_mmp, twin_classes
from .errors import BadCheckpoint, InvalidSpec, TooLarge
from .structure import is_connected, validate
from .symmetry import CanonicalForm, Gens, canonical_code, canonical_form, _canonical_search

Blocks = tuple[tuple[int, ...], ...]
# blocks, atoms used, canonical code, Aut generators (the last two None until searched)
Node = tuple[Blocks, int, Blocks | None, Gens | None]
TASKS_PER_WORKER = 8  # subtree tasks per worker that a partitioned run aims for


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


def _far_masks(blocks: Blocks, incident: list[list[int]], sep: int) -> list[int]:
    """Per atom x, the bitmask of the atoms y joined by no chain of fewer
    than ``sep`` blocks; a new block over x and y would close a loop of
    order chain length + 1.  ``incident[a]`` lists the blocks through a."""
    n = len(incident)
    step = [sum(1 << y for y in {y for i in incident[x] for y in blocks[i]}) for x in range(n)]
    far = []
    for x in range(n):
        near = frontier = 1 << x
        for _ in range(sep - 1):
            grown = near
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                grown |= step[low.bit_length() - 1]
            near, frontier = grown, grown & ~near
        far.append((1 << n) - 1 & ~near)
    return far


def _candidates(blocks: Blocks, n_used: int, spec: GenSpec, stats: GenStats, invariants: tuple) -> list:
    """Valid augmenting blocks in lexicographic order.

    New atoms are appended densely; a candidate survives if it cannot
    close a loop shorter than min_girth and leaves the atom budget
    reachable for the remaining blocks.  Old atoms are picked in
    increasing order, each among the atoms far enough from all picked.
    """
    s, md = spec.block_size, spec.min_atom_degree
    degree, incident = invariants[:2]
    remaining_after = spec.block_count - len(blocks) - 1
    far = _far_masks(blocks, incident, spec.min_girth - 1)
    shortfall = sum(max(0, md - d) for d in degree)  # incidences the old atoms lack
    out: list[tuple[int, ...]] = []

    def pick(core: tuple[int, ...], allowed: int, size: int, found: list) -> None:
        if len(core) == size:
            found.append(core)
            return
        while allowed:
            bit = allowed & -allowed
            allowed ^= bit
            a = bit.bit_length() - 1
            pick(core + (a,), allowed & far[a], size, found)

    for new in range(min(s, spec.atom_count - n_used) + 1):
        # enough room must remain to reach atom_count with later blocks
        if n_used + new + s * remaining_after < spec.atom_count:
            stats.budget_prunes += 1
            continue
        cores: list[tuple[int, ...]] = []
        pick((), (1 << n_used) - 1, s - new, cores)
        stats.girth_prunes += math.comb(n_used, s - new) - len(cores)
        # new atoms in this block already start at degree 1
        spare = s * remaining_after - (spec.atom_count - n_used - new) * md - new * (md - 1)
        tail = tuple(range(n_used, n_used + new))
        for core in cores:
            if md > 1 and shortfall - sum(degree[a] < md for a in core) > spare:
                stats.budget_prunes += 1
            else:
                out.append(core + tail)
    del pick  # it holds itself through its closure cell
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


def _expand(node: Node, spec: GenSpec, stats: GenStats, emit: Callable[[str], None], memo: dict) -> None:
    """Depth-first canonical augmentation below one node, with the run's ``memo``."""
    blocks, n_used, own_code, _ = node
    stats.nodes_explored += 1
    if len(blocks) == spec.block_count:
        if _final_ok(blocks, n_used, spec):
            stats.emitted_count += 1
            code = _canonical_search(blocks, n_used, memo)[0] if own_code is None else own_code
            emit(serialize_mmp(MmpDiagram(n_used, code)))
        return
    for child in _children(node, spec, stats, memo):
        _expand(child, spec, stats, emit, memo)


def _children(node: Node, spec: GenSpec, stats: GenStats, memo: dict) -> Iterator[Node]:
    """The node's accepted children, in search order.

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
    blocks, n_used, _, gens = node
    invariants = _invariants(blocks, n_used)
    twins = twin_classes(invariants[1])
    top = max(invariants[3], default=())
    covered: set[tuple[int, ...]] = set()  # twin forms of the tried orbits
    for cand in _candidates(blocks, n_used, spec, stats, invariants):
        seen = covered and tuple(sorted(twins[a][0] if a < n_used else a for a in cand)) in covered
        child_keys = None if seen else _child_keys(blocks, cand, invariants, top)
        if child_keys is None:
            stats.canonical_rejections += 1
            continue
        if gens is None:
            gens = _canonical_search(blocks, n_used, memo)[3]
        covered |= _block_orbit(cand, gens, twins)
        child = blocks + (cand,)
        child_used = max(n_used, cand[-1] + 1)
        if child_keys.count(child_keys[-1]) == 1:  # b* is the new block
            yield child, child_used, None, None
            continue
        code, perm, _, child_gens = _canonical_search(child, child_used, memo)
        if not _accepts(child, child_keys, perm, child_gens):
            stats.canonical_rejections += 1
            continue
        yield child, child_used, code, child_gens


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


def _child_keys(blocks: Blocks, cand: tuple[int, ...], invariants: tuple, top: tuple) -> list | None:
    """The keys of ``blocks + (cand,)`` from the parent's ``_invariants``,
    or None when some block's key beats the new block's.  Only the
    candidate's atoms gain a degree, and only the blocks through them a
    degree total (no two candidate atoms share a block).  Keys never fall,
    so the parent's largest key ``top`` above the new one already rejects.
    """
    degree, incident, weight, _ = invariants
    n = len(degree)
    degree = degree + [0] * (cand[-1] + 1 - n)
    weight = weight + [0] * (cand[-1] + 1 - n)
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
    return keys + [new_key]


def _accepts(child: Blocks, keys: list[tuple[int, ...]], perm: tuple[int, ...], gens: Gens) -> bool:
    """Is the last block in the Aut(child)-orbit (``gens``) of b*, the block
    of largest key whose image under the canonical labelling ``perm`` is
    last in the code?  Blocks are compared by twin form in the child."""
    top = keys[-1]
    star = max((b for b, k in zip(child, keys) if k == top), key=lambda b: sorted(perm[a] for a in b))
    if star == child[-1]:
        return True
    twins = twin_classes(incidence(child, len(perm)))
    return _twin_form(child[-1], twins) in _block_orbit(star, gens, twins)


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
        _expand(((), 0, (), ()), spec, stats, sink, {})
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
    the leaves; a resumed run deepens it to the recorded depth."""
    header, done, size = _read_checkpoint(checkpoint, spec) if checkpoint else (None, {}, 0)
    tasks, depth, memo = [((), 0, (), ())], 0, {}
    last = spec.block_count - 1 if header is None else header["depth"]
    while depth < last and (header or len(tasks) < TASKS_PER_WORKER * workers):
        stats.nodes_explored += len(tasks)
        tasks = [child for task in tasks for child in _children(task, spec, stats, memo)]
        depth += 1
    if header and header["tasks"] != len(tasks):
        raise BadCheckpoint(f"{checkpoint}: records {header['tasks']} tasks, not {len(tasks)}")
    todo = [task for i, task in enumerate(tasks) if i not in done]
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
    record of the wrong shape or types raises ``BadCheckpoint``."""
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
        and _final_ok(d.blocks, d.atom_count, spec)
    ):
        return False
    code = canonical_code(d.blocks, d.atom_count)
    while code:
        n = 1 + max(a for b in code for a in b)
        keys = _invariants(code, n)[3]
        star = max(range(len(code)), key=lambda i: (keys[i], i))
        pcode, pperm, _, _ = _canonical_search(code[:star] + code[star + 1 :], n)
        cand = tuple(sorted(pperm[a] for a in code[star]))
        p_used = 1 + max((a for b in pcode for a in b), default=-1)
        invariants = _invariants(pcode, p_used)
        keys = _child_keys(pcode, cand, invariants, max(invariants[3], default=()))
        child = pcode + (cand,)
        ccode, cperm, _, cgens = _canonical_search(child, max(p_used, cand[-1] + 1))
        if keys is None or ccode != code or not _accepts(child, keys, cperm, cgens):
            return False
        code = pcode
    return True


def census(spec: GenSpec) -> int:
    """Number of isomorphism classes matching the spec."""
    return generate(spec, lambda _line: None).emitted_count


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
        key = canonical_code(d.blocks, a)
        if key not in classes:
            classes[key] = d
    forms = [canonical_form(d) for d in classes.values()]
    return sorted(forms, key=lambda f: f.canonical_text)
