"""Independent brute-force oracles for cross-checking the main algorithms.

Everything here is deliberately naive: exhaustive enumeration with none of
the pruning, refinement, or double-description machinery used by the
library, so that agreement between the two is meaningful evidence.
"""

from __future__ import annotations

from collections import Counter, deque
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

from greechie import lattice
from greechie.diagram import MmpDiagram
from greechie.lattice import OmlElement, OmlPoset, build_oml
from greechie.states import StrongReport

ZERO = Fraction(0)
ONE = Fraction(1)


def dense_gauss_affine(
    rows: list[list[Fraction]], rhs: list[Fraction]
) -> tuple[list[Fraction], list[list[Fraction]]] | None:
    """The solutions of ``rows · x = rhs`` as (particular solution, nullspace
    basis), free variables set to 0 and each basis vector 1 in its own free
    column, or ``None`` if inconsistent: the reference for ``linprog._rays``,
    by dense Gauss-Jordan elimination over ``Fraction``, pivot columns in
    order, the first nonzero row as pivot."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    pivots: list[tuple[int, int]] = []  # (row, col)
    r = 0
    for col in range(n):
        pivot_row = next((i for i in range(r, m) if aug[i][col] != 0), None)
        if pivot_row is None:
            continue
        aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
        pv = aug[r][col]
        if pv != 1:
            aug[r] = [v / pv for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append((r, col))
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    pivot_cols = {c for _, c in pivots}
    free_cols = [c for c in range(n) if c not in pivot_cols]
    x0 = [ZERO] * n
    for row, col in pivots:
        x0[col] = aug[row][n]
    basis = []
    for fc in free_cols:
        v = [ZERO] * n
        v[fc] = ONE
        for row, col in pivots:
            v[col] = -aug[row][fc]
        basis.append(v)
    return x0, basis


def brute_loop_orders(d: MmpDiagram) -> list[int]:
    """Orders of all loops, by checking every cyclic block arrangement."""
    m = d.block_count
    assert m <= 8, "oracle is factorial in the block count"
    sets = [frozenset(b) for b in d.blocks]
    orders = []
    for r in range(3, m + 1):
        for subset in combinations(range(m), r):
            first = subset[0]
            for rest in permutations(subset[1:]):
                if r > 3 and rest[0] > rest[-1]:
                    continue  # each cycle once per direction
                cycle = (first,) + rest
                if _is_loop(sets, cycle):
                    orders.append(r)
    return sorted(orders)


def _is_loop(sets: list[frozenset], cycle: tuple[int, ...]) -> bool:
    r = len(cycle)
    junctions = []
    for i in range(r):
        a, b = sets[cycle[i]], sets[cycle[(i + 1) % r]]
        inter = a & b
        if len(inter) != 1:
            return False
        junctions.append(next(iter(inter)))
    if len(set(junctions)) != r:
        return False
    for i in range(r):
        for j in range(i + 2, r):
            if i == 0 and j == r - 1:
                continue
            if sets[cycle[i]] & sets[cycle[j]]:
                return False
    return True


def brute_girth(d: MmpDiagram) -> int | None:
    orders = brute_loop_orders(d)
    return orders[0] if orders else None


def brute_max_loop_order(d: MmpDiagram) -> int | None:
    orders = brute_loop_orders(d)
    return orders[-1] if orders else None


SPENT = "spent before any loop"


def recursive_max_loop(d: MmpDiagram, budget: int | None = None):
    """``structure.max_loop``'s chain search as one recursive call per node.

    Each call extends the chain by one block and counts as one node.  Once
    the best loop has the cap order min(blocks, atoms // 2), which no loop
    exceeds, every call returns before it counts, so that loop is exact at
    any budget that reaches it.  Otherwise a call stops the search when the
    budget is spent, then returns early when the chain plus half the atoms
    not yet used cannot beat the best loop.  Chains start at their least
    block and grow through blocks meeting the last one in a new junction.
    Returns ``(loop, nodes)``: the loop is ``(order, blocks, junctions,
    exact)``, ``None`` for an acyclic diagram, or ``SPENT`` when the budget
    ran out before any loop; ``nodes`` counts the calls that were counted.
    """
    n, m = d.atom_count, d.block_count
    masks = [sum(1 << a for a in b) for b in d.blocks]
    neighbors: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    for i, j in combinations(range(m), 2):
        if masks[i] & masks[j]:
            x = (masks[i] & masks[j]).bit_length() - 1
            neighbors[i].append((j, x))
            neighbors[j].append((i, x))
    for nb in neighbors:
        nb.sort()
    cap = min(m, n // 2)
    best = None
    nodes = 0
    path: list[int] = []
    junctions: list[int] = []

    class Spent(Exception):
        pass

    def extend(start: int, last: int, last_junction: int, used: int) -> None:
        nonlocal best, nodes
        if best is not None and best[0] >= cap:
            return
        if nodes == budget:
            raise Spent
        nodes += 1
        if best is not None and len(path) + (n - used.bit_count() + 1) // 2 <= best[0]:
            return
        for j, x in neighbors[last]:
            if j <= start or x == last_junction:
                continue
            extra = masks[j] & used & ~(1 << x)
            if extra == 0:
                path.append(j)
                junctions.append(x)
                extend(start, j, x, used | masks[j])
                path.pop()
                junctions.pop()
            elif extra & (extra - 1) == 0 and extra & masks[start]:
                y = extra.bit_length() - 1
                if y != junctions[0] and (best is None or len(path) + 1 > best[0]):
                    best = (len(path) + 1, (*path, j), (*junctions, x, y))

    try:
        for start in range(m):
            if best is not None and best[0] >= cap:
                break
            for j, x in neighbors[start]:
                if j > start:
                    path[:] = [start, j]
                    junctions[:] = [x]
                    extend(start, j, x, masks[start] | masks[j])
    except Spent:
        return (SPENT if best is None else (*best, False)), nodes
    return (None if best is None else (*best, True)), nodes


def pair_offenders(d: MmpDiagram) -> tuple[tuple, tuple]:
    """Offenders of MMP condition (iii) and of the at-most-one-shared-atom
    check, by intersecting the atom sets of every two blocks."""
    bad_iii, bad_pairs = [], []
    for i, j in combinations(range(d.block_count), 2):
        a, b = set(d.blocks[i]), set(d.blocks[j])
        t = len(a & b)
        if t and min(len(a), len(b)) < t + 2:
            bad_iii.append((i, j))
        if t >= 2:
            bad_pairs.append((i, j))
    return tuple(bad_iii), tuple(bad_pairs)


def bfs_incidence_cycle(d: MmpDiagram) -> list[int] | None:
    """``structure._shortest_incidence_cycle`` as a breadth-first search
    from every atom in turn, each root deleted once searched, and each
    search stopped only at the first vertex u with 2 dist[u] >= len(best):
    no early stop of the roots but at a shortest possible cycle.  It is the
    witness reference: the cycle it returns, vertex for vertex, is the one
    the library must return."""
    n = d.atom_count
    adj = [[n + i for i, b in enumerate(d.blocks) if a in b] for a in range(n)]
    adj += [list(b) for b in d.blocks]
    best = None
    for root in range(n):
        if best is not None and len(best) <= 6:
            break
        dist = [-1] * len(adj)
        parent = [-1] * len(adj)
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
                    path_u, path_w = [u], [w]
                    while parent[path_u[-1]] != -1:
                        path_u.append(parent[path_u[-1]])
                    while parent[path_w[-1]] != -1:
                        path_w.append(parent[path_w[-1]])
                    common = next(x for x in path_w if x in path_u)
                    cycle = path_u[: path_u.index(common)] + path_w[path_w.index(common) :: -1]
                    if len(cycle) >= 6:
                        best = cycle
        for v in adj[root]:
            adj[v].remove(root)
    return best


def incidence_connected(d: MmpDiagram) -> bool:
    """Connectivity by breadth-first search of the incidence graph, whose
    vertices are the atoms and the blocks (empty ones included)."""
    vertices = [("atom", a) for a in range(d.atom_count)] + [("block", i) for i in range(d.block_count)]
    if not vertices:
        return True
    seen, todo = {vertices[0]}, [vertices[0]]
    while todo:
        kind, x = todo.pop()
        if kind == "atom":
            nexts = [("block", i) for i, b in enumerate(d.blocks) if x in b]
        else:
            nexts = [("atom", a) for a in d.blocks[x]]
        for v in nexts:
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return len(seen) == len(vertices)


def bfs_components(blocks, n: int) -> list[tuple[list[int], list[tuple[int, ...]]]]:
    """Components by breadth-first search of the incidence graph from each
    unseen atom in turn: (ascending atoms, blocks in input order) each;
    empty blocks, which touch no atom, are left out."""
    seen: set[int] = set()
    found = []
    for start in range(n):
        if start in seen:
            continue
        atoms, block_ids = {start}, set()
        queue = deque([start])
        while queue:
            a = queue.popleft()
            for i, b in enumerate(blocks):
                if a in b and i not in block_ids:
                    block_ids.add(i)
                    for x in b:
                        if x not in atoms:
                            atoms.add(x)
                            queue.append(x)
        seen |= atoms
        found.append((sorted(atoms), [tuple(blocks[i]) for i in sorted(block_ids)]))
    return found


def block_rows(d: MmpDiagram) -> tuple[list[list[int]], list[int]]:
    """The system A x = 1 of the block sums in integers, one column per atom."""
    rows = [[int(a in b) for a in range(d.atom_count)] for b in map(set, d.blocks)]
    return rows, [1] * len(rows)


def polytope_vertices(d: MmpDiagram) -> set[tuple[Fraction, ...]]:
    """All vertices of {x >= 0, block sums = 1} by basic-solution enumeration."""
    n = d.atom_count
    assert n <= 12, "oracle enumerates coordinate subsets"
    rows = [[ONE if a in set(b) else ZERO for a in range(n)] for b in d.blocks]
    if not rows:
        return {()} if n == 0 else set()
    return basic_solutions(rows, [ONE] * len(rows))


def basic_solutions(rows: list[list[Fraction]], rhs: list[Fraction]) -> set[tuple[Fraction, ...]]:
    """All vertices of {x >= 0, rows . x = rhs}: the nonnegative solutions
    that are unique on their support."""
    n = len(rows[0])
    rank = _rank(rows)
    vertices: set[tuple[Fraction, ...]] = set()
    for size in range(rank + 1):
        for support in combinations(range(n), size):
            sub = [[row[a] for a in support] for row in rows]
            solved = dense_gauss_affine(sub, rhs)
            if solved is None:
                continue
            x_s, null = solved
            if null:  # underdetermined: not a basic solution for this support
                continue
            if any(v < 0 for v in x_s):
                continue
            x = [ZERO] * n
            for a, v in zip(support, x_s):
                x[a] = v
            vertices.add(tuple(x))
    return vertices


def _rank(rows: list[list[Fraction]]) -> int:
    solved = dense_gauss_affine(rows, [ZERO] * len(rows))
    assert solved is not None
    _, null = solved
    return len(rows[0]) - len(null)


def eager_elements(d: MmpDiagram) -> list[OmlElement]:
    """The elements of the pasted lattice in ``OmlPoset``'s order, all built
    at once: 0, 1, the atoms, the coatoms, then each block's interiors, its
    subsets of 2 to size - 2 atoms, in ascending size."""
    out = [OmlElement(lattice.ZERO), OmlElement(lattice.ONE)]
    out += [OmlElement(lattice.ATOM, atom=a) for a in range(d.atom_count)]
    out += [OmlElement(lattice.COATOM, atom=a) for a in range(d.atom_count)]
    for bi, block in enumerate(d.blocks):
        for size in range(2, len(block) - 1):
            out += [OmlElement(lattice.MID, block=bi, subset=s) for s in combinations(block, size)]
    return out


@lru_cache(maxsize=1024)
def block_forms(d: MmpDiagram, e: OmlElement) -> dict[int, frozenset]:
    """Each block holding lattice element ``e``, mapped to the set of its
    atoms whose join is ``e``.  Cached: callers must not mutate the dict."""
    if e.kind == lattice.MID:
        return {e.block: frozenset(e.subset)}
    forms = {}
    for bi, block in enumerate(d.blocks):
        if e.kind == lattice.ZERO:
            forms[bi] = frozenset()
        elif e.kind == lattice.ONE:
            forms[bi] = frozenset(block)
        elif e.atom in block:
            forms[bi] = frozenset({e.atom} if e.kind == lattice.ATOM else set(block) - {e.atom})
    return forms


def brute_leq(d: MmpDiagram, x: OmlElement, y: OmlElement) -> bool:
    """x <= y in the pasted lattice: some block holds both, with the form of
    x a subset of the form of y.  Without blocks the lattice is 0 < 1."""
    if not d.blocks:
        return x == y or x.kind == lattice.ZERO
    fx, fy = block_forms(d, x), block_forms(d, y)
    return any(bi in fy and form <= fy[bi] for bi, form in fx.items())


def brute_covers(d: MmpDiagram) -> list[tuple[str, str]]:
    """The cover pairs (x, y) of the pasted lattice by label, x-major in
    ``eager_elements`` order: y covers x when x < y and no z has
    x < z < y, every comparison by :func:`brute_leq`."""
    elements = eager_elements(d)
    size = len(elements)
    lt = [[x != y and brute_leq(d, x, y) for y in elements] for x in elements]
    return [
        (elements[i].label(), elements[j].label())
        for i in range(size)
        for j in range(size)
        if lt[i][j] and not any(lt[i][k] and lt[k][j] for k in range(size))
    ]


def brute_01_states(d: MmpDiagram) -> list[tuple[Fraction, ...]]:
    """All 0-1 states by scanning every bit vector."""
    n = d.atom_count
    assert n <= 20, "oracle scans 2^n vectors"
    out = []
    for bits in range(1 << n):
        x = tuple(ONE if bits >> a & 1 else ZERO for a in range(n))
        if all(sum(x[a] for a in b) == 1 for b in d.blocks):
            out.append(x)
    return sorted(out)


def block_order_01_states(d: MmpDiagram) -> list[tuple[Fraction, ...]]:
    """All 0-1 states by backtracking over the blocks in index order,
    looking only inside the current block; no 20-atom limit, but it can
    take exponential time where an exact cover prunes at once."""
    n = d.atom_count
    blocks = d.blocks
    assign: list[int | None] = [None] * n
    found: list[tuple[Fraction, ...]] = []

    def fill(bi: int) -> None:
        if bi == len(blocks):
            found.append(tuple(ONE if assign[a] == 1 else ZERO for a in range(n)))
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

    fill(0)
    return sorted(found)


def brute_automorphism_count(d: MmpDiagram) -> int:
    """Count block-multiset-preserving atom bijections by backtracking."""
    n = d.atom_count
    blocks = sorted(d.blocks)
    incident = [[] for _ in range(n)]
    for i, b in enumerate(d.blocks):
        for a in b:
            incident[a].append(i)
    degree = [len(incident[a]) for a in range(n)]
    # atoms in the order a walk over the blocks meets them, each block next
    # to one met before where there is one, so that blocks are completed,
    # and checked, early; the count is the same in any order
    order: list[int] = []
    left = list(blocks)
    while left:
        b = next((b for b in left if set(b) & set(order)), left[0])
        left.remove(b)
        order += [a for a in b if a not in order]
    order += [a for a in range(n) if a not in order]
    count = 0

    def extend(mapping: dict[int, int], used: set[int]) -> None:
        nonlocal count
        if len(mapping) == n:
            image = sorted(tuple(sorted(mapping[a] for a in b)) for b in d.blocks)
            if image == blocks:
                count += 1
            return
        a = order[len(mapping)]
        for target in range(n):
            if target in used or degree[target] != degree[a]:
                continue
            mapping[a] = target
            used.add(target)
            if _partial_ok(d, mapping):
                extend(mapping, used)
            del mapping[a]
            used.discard(target)

    extend({}, set())
    return count


def _partial_ok(d: MmpDiagram, mapping: dict[int, int]) -> bool:
    assigned = set(mapping)
    targets = {tuple(sorted(b)) for b in d.blocks}
    for b in d.blocks:
        if set(b) <= assigned:
            if tuple(sorted(mapping[a] for a in b)) not in targets:
                return False
    return True


def first_failing_pair(poset: OmlPoset, states):
    """First pair (x, y), x-major in element order with x not below y, at
    which ``states`` fail the strong-set condition, or ``None``.

    The pair fails when no state puts 1 on x (reported against the zero
    element) or when every state with m(x) = 1 also has m(y) = 1.
    """
    elements = poset.elements
    values = [poset.extend_state(s) for s in states]
    for x in elements:
        later = [y for y in elements if y != x and not poset.leq(x, y)]
        if not later:
            continue
        ones = [v for v in values if v[x] == 1]
        if not ones:
            return x, elements[0]
        for y in later:
            if all(v[y] == 1 for v in ones):
                return x, y
    return None


def strong_set_by_vertices(d: MmpDiagram):
    """The first pair failing the strong-set condition, or ``None``, decided
    from the polytope's vertex list alone.

    The premise of the strong-set condition is a statement about the face
    m(x) = 1, whose vertices are polytope vertices, so scanning vertices
    decides every pair.
    """
    return first_failing_pair(build_oml(d), sorted(polytope_vertices(d)))


def pairwise_strong_sweep(poset: OmlPoset, zero_masks) -> StrongReport:
    """The report of ``states._strong_over``, by one test per pair.

    ``_strong_over`` asks each x one question, whether F_x (the states with
    m(x) = 1) is empty and which atoms Z_x are 0 on all of it, and reads
    the failing y off Z_x.  This reference builds F_y for every element and
    tests the pairs one at a time: each state clears its bit from the
    column of every atom it puts above 0, one XOR per (state, support atom),
    and each x tests the elements not above it, lowest first, for the first
    y with F_x inside F_y (against the zero element when F_x is empty).
    """
    n = poset.source.atom_count
    everyone = (1 << len(zero_masks)) - 1
    at_zero = [everyone] * n
    for k, z in enumerate(zero_masks):
        for a in range(n):
            if not z >> a & 1:
                at_zero[a] ^= 1 << k
    ones = []
    for up in poset.ups:
        mask = everyone
        for a in range(n):
            if up >> (2 + n + a) & 1:  # x <= a', so m(x) = 1 needs m(a) = 0
                mask &= at_zero[a]
        ones.append(mask)
    elements = poset.elements
    for i, x in enumerate(elements):
        rest = [j for j in range(len(elements)) if not poset.ups[i] >> j & 1]
        if rest and not ones[i]:
            return StrongReport(False, (x, elements[0]))
        for j in rest:
            if j and not ones[i] & ~ones[j]:
                return StrongReport(False, (x, elements[j]))
    return StrongReport(True, None)


def refine_by_signatures(blocks, n: int, colors: list[int]) -> list[int]:
    """Equitable refinement recomputing every atom's signature each round.

    A signature is (own color, sorted (block size, sorted colors of the
    block's other atoms) over the atom's blocks); each round ranks the
    distinct signatures, until the ranking reproduces the coloring.
    """
    incident = [[b for b in blocks if a in b] for a in range(n)]
    while True:
        sigs = []
        for a in range(n):
            around = sorted(
                (len(b), tuple(sorted(colors[x] for x in b if x != a))) for b in incident[a]
            )
            sigs.append((colors[a], tuple(around)))
        ranking = {s: r for r, s in enumerate(sorted(set(sigs)))}
        new = [ranking[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def closure_order(gens, n: int) -> int:
    """Order of the permutation group on range(n) generated by ``gens``,
    by listing every element."""
    return len(closure(gens, n))


def closure(gens, n: int) -> set[tuple[int, ...]]:
    """Every element of the permutation group on range(n) that ``gens``
    generate."""
    identity = tuple(range(n))
    group = {identity}
    frontier = [identity]
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = tuple(g[x] for x in p)
            if q not in group:
                group.add(q)
                frontier.append(q)
    return group


def deletion_keys(blocks) -> list[tuple[int, ...]]:
    """Generation's block keys, counted from scratch: per block, its sorted
    atom degrees, then its sorted atom weights, the weight of an atom being
    the sum of the degree totals of the blocks through it."""
    degree = Counter(a for b in blocks for a in b)
    total = {b: sum(degree[a] for a in b) for b in blocks}
    weight = {a: sum(total[b] for b in blocks if a in b) for a in degree}
    return [tuple(sorted(degree[a] for a in b)) + tuple(sorted(weight[a] for a in b)) for b in blocks]


def chain_balls(blocks, n: int, radius: int) -> list[list[int]]:
    """Per radius r = 1..radius, per atom x, the bitmask of the atoms joined
    to x by a chain of at most r blocks: distances by breadth-first search
    from each atom over the atom graph, scanning every block at each step."""
    balls = [[0] * n for _ in range(radius)]
    for x in range(n):
        dist, queue = {x: 0}, deque([x])
        while queue:
            y = queue.popleft()
            for b in blocks:
                for z in b if y in b else ():
                    if z not in dist:
                        dist[z] = dist[y] + 1
                        queue.append(z)
        for y, d in dist.items():
            for r in range(max(d, 1), radius + 1):
                balls[r - 1][x] |= 1 << y
    return balls
