"""Canonical labeling, isomorphism, automorphisms, and self-duality.

The canonical form of a diagram is the least block code reachable by the
individualization-refinement search below: atoms are iteratively colored
by (degree, incident block-size profile, neighbor color multisets); when
the coloring is not discrete the search branches on the smallest
non-singleton color class, lowest atom index first.  The minimum, taken
over all leaves of that search, is a deterministic relabeling-invariant
representative: two diagrams get the same canonical text exactly when
they are isomorphic.

Every search enters at ``_canonical_search``, with the incidence its
caller holds.  A diagram that is not connected is searched per
component, and each distinct component is searched once per call, and
once per run with generation's memo.  Isomorphism needs one leaf, not
two canonical codes: the set of leaf codes is an isomorphism invariant
that pruning keeps whole, so ``are_isomorphic`` (and ``is_self_dual``
through it) searches one connected diagram only until a leaf repeats the
other's first leaf code.

Refinement is incremental: a cell is colored by the last position it
takes in the ordered partition (McKay & Piperno 2014), so a split
recolors only its parts before the last; each round re-examines only the
cells next to an atom that changed cell in the round before, and it keys
each incident block by one int whose order is that of the (size, colors)
tuple it encodes (see ``_refiner``).  Twins, atoms on exactly the same
blocks, and pendant blocks of one size at one atom are swapped by
automorphisms known before the search starts, and a cell of twins alone
is split in one step.  Each node keeps the orbits of the automorphisms
known to fix its path, as a union-find partition.  A leaf that repeats
the first or the least code returns the search to the node where its
path parts from that leaf's (McKay 1981).  Besides the code, the search
returns |Aut| and generators of Aut.  Generation uses them to try one
augmenting block per orbit and in the deletion rule's orbit test
(``generate._accepts``).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .diagram import ALPHABET, MmpDiagram, incidence, serialize_mmp, twin_classes
from .errors import SizeMismatch
from .structure import components, dual, is_connected, mmp_checks, require_mmp

Code = tuple[tuple[int, ...], ...]
Gens = tuple[tuple[int, ...], ...]  # generators of a permutation group
Cells = dict[int, list[int]]  # a coloring's cells: ascending atom lists keyed by color


@dataclass(frozen=True)
class CanonicalForm:
    """Relabeling-invariant fingerprint: canonical text plus |Aut|."""

    canonical_text: str
    automorphism_count: int


@dataclass(frozen=True)
class Permutation:
    """Bijection on an atom range; ``mapping[i]`` is the image of atom i."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.mapping) != list(range(len(self.mapping))):
            raise ValueError("mapping is not a bijection on 0..n-1")

    def __len__(self) -> int:
        return len(self.mapping)

    def __getitem__(self, i: int) -> int:
        return self.mapping[i]

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.mapping)
        for i, v in enumerate(self.mapping):
            inv[v] = i
        return Permutation(tuple(inv))

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))[i] = self[other[i]]."""
        return Permutation(tuple(self.mapping[v] for v in other.mapping))

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))


def relabel(d: MmpDiagram, pi: Permutation) -> MmpDiagram:
    """Map every atom through ``pi``; block positions are untouched."""
    if len(pi) != d.atom_count:
        raise SizeMismatch(f"permutation on {len(pi)} atoms vs diagram with {d.atom_count}")
    return MmpDiagram(d.atom_count, tuple(tuple(pi[a] for a in b) for b in d.blocks))


def canonical_form(d: MmpDiagram) -> CanonicalForm:
    """Canonical text and automorphism count of a validated diagram.

    The count is read from the canonical search itself (orbit-stabilizer
    along its first path, times k! per run of k isomorphic components), so
    it is exact at any size.
    """
    require_mmp(d)
    code, _, order, _ = _canonical_search(d.blocks, d.incident_blocks())
    canon = MmpDiagram(d.atom_count, code)
    text = serialize_mmp(canon) if d.atom_count <= len(ALPHABET) else canon.to_json()
    return CanonicalForm(text, order)


def are_isomorphic(d1: MmpDiagram, d2: MmpDiagram) -> Permutation | None:
    """A witness permutation with relabel(d1, pi) == d2 up to block order, or None.

    A connected and a disconnected diagram are told apart before any
    search.  Two connected diagrams take the first leaf of d2's search,
    then search d1 until a leaf repeats its code.  Such a leaf exists
    exactly when they are isomorphic: equal codes are equal relabelled
    block multisets, and the codes a pruned search reaches are an
    isomorphism invariant, since pruning drops only automorphic images of
    explored subtrees.  Two disconnected diagrams compare canonical codes.
    """
    if d1.atom_count != d2.atom_count:
        return None
    if sorted(len(b) for b in d1.blocks) != sorted(len(b) for b in d2.blocks):
        return None
    if is_connected(d1) != is_connected(d2):
        return None
    code2, p2, _, _ = _canonical_search(d2.blocks, d2.incident_blocks(), until=lambda code: True)
    code1, p1, _, _ = _canonical_search(d1.blocks, d1.incident_blocks(), until=code2.__eq__)
    if code1 != code2:
        return None
    pi = Permutation(p2).inverse().compose(Permutation(p1))
    assert sorted(relabel(d1, pi).blocks) == sorted(d2.blocks)
    return pi


def is_self_dual(d: MmpDiagram) -> bool:
    """True iff the diagram is isomorphic to its incidence dual.

    False when the dual is not even a valid MMP diagram (conditions (i)-(iii)).
    """
    dd = dual(d)
    if not all(mmp_checks(dd)):
        return False
    return are_isomorphic(d, dd) is not None


# ---------------------------------------------------------------------------
# Individualization-refinement engine
# ---------------------------------------------------------------------------


def _canonical_search(
    blocks: tuple[tuple[int, ...], ...], incident: Sequence[Sequence[int]], memo: dict | None = None,
    until: Callable[[Code], bool] | None = None,
) -> tuple[Code, tuple[int, ...], int, Gens]:
    """Return (canonical code, a permutation achieving it, |Aut|, generators)
    of the blocks on atoms 0..n-1 whose ``incidence`` is ``incident`` (n =
    its length).

    The permutation maps original atom -> canonical index.  The generators
    are atom permutations of the input that generate its automorphism
    group.  A connected diagram is searched whole, and with ``until`` up to
    the first leaf whose code satisfies it (``_search_connected``).

    Any other is searched per component, in full, and ``until`` is
    ignored.  Each component is canonicalized on its own, and the
    components are recombined in sorted-code order; the result is still a
    relabeled copy of the input.  An automorphism permutes the components
    within each isomorphism class and acts on each one by a component
    automorphism, so |Aut| is the product of the component orders times k!
    for each run of k components with equal codes.  The group is generated
    by the component generators and, for each two neighbours in such a run,
    the swap that matches their canonical labelings.

    Isolated atoms are the components without blocks.  They are not
    searched: they take the trailing indices in input order and never
    influence the code, so a diagram and its atom-compacted version share
    one code; they add nothing to the automorphism count, and every
    generator fixes them.  Empty blocks stay empty blocks of the code.

    ``memo`` maps a component, as its blocks on atoms 0..k-1 and k, to its
    ``_search_connected`` result, which depends on nothing else; a call
    given none keeps its own.  So each distinct component is searched once
    per call, and once per run with generation's memo: generation keeps a
    node's untouched components in its children, and so meets each one
    many times.
    """
    comps = components(blocks, incident)
    if len(comps) == 1 and len(comps[0][1]) == len(blocks) > 0:
        return _search_connected(blocks, incident, until)
    if memo is None:
        memo = {}
    n = len(incident)
    pieces, isolated = [], []
    for atoms, comp_blocks in comps:
        if not comp_blocks:
            isolated += atoms
            continue
        index = {a: i for i, a in enumerate(atoms)}
        key = (tuple(tuple(index[a] for a in b) for b in comp_blocks), len(atoms))
        found = memo.get(key)
        if found is None:
            found = memo[key] = _search_connected(key[0], incidence(*key))
        pieces.append((*found, atoms))
    pieces.sort(key=lambda p: (p[0], p[4][0]))
    perm_out = [0] * n
    code_out: list[tuple[int, ...]] = [b for b in blocks if not b]
    order_out = 1
    gens_out: list[tuple[int, ...]] = []
    offset = 0
    run = 0
    for i, (code, perm, order, gens, atoms) in enumerate(pieces):
        for j, a in enumerate(atoms):
            perm_out[a] = offset + perm[j]
        code_out.extend(tuple(offset + x for x in b) for b in code)
        for g in gens:  # lifted to range(n), fixing the other atoms
            lifted = list(range(n))
            for j, a in enumerate(atoms):
                lifted[a] = atoms[g[j]]
            gens_out.append(tuple(lifted))
        run = run + 1 if i and code == pieces[i - 1][0] else 1
        if run > 1:
            at = {perm_out[b]: b for b in atoms}
            swap = list(range(n))
            for a in pieces[i - 1][4]:
                b = at[perm_out[a] + len(atoms)]
                swap[a], swap[b] = b, a
            gens_out.append(tuple(swap))
        offset += len(atoms)
        order_out *= order * run
    for k, a in enumerate(isolated, offset):
        perm_out[a] = k
    return tuple(sorted(code_out)), tuple(perm_out), order_out, tuple(gens_out)


def _search_connected(
    blocks: tuple[tuple[int, ...], ...],
    incident: Sequence[Sequence[int]],
    until: Callable[[Code], bool] | None = None,
) -> tuple[Code, tuple[int, ...], int, Gens]:
    """Individualization-refinement search over a connected diagram on
    atoms 0..n-1, whose ``incidence`` is ``incident`` (n = its length).

    The search is one loop over a stack of the branching nodes on its path,
    as ``structure.max_loop`` extends its chain, so no depth meets a
    recursion limit.  A node keeps its coloring, cells, path (the
    individualized atoms) and path bitmask, whether it is on the first
    path, its target color and cell, the cell's atoms left to try, those
    explored (the last is the child searched now), and its orbits with the
    count of generators merged.  A cell of twins alone extends the path in
    place, with no node; any other target cell pushes a node and searches
    its first atom.  A leaf gives the depth (path length) to go on at, and
    every deeper node is popped; the node on top merges the new generators,
    skips the atoms in an explored one's orbit and searches its next atom,
    or, with none left, pops itself.

    Known automorphisms prune each child in the orbit of an explored
    sibling.  Some are generators from the start (McKay & Piperno 2014),
    each a swap of two atom lists xs and ys of one length, exchanging each
    atom of xs with the atom at its place in ys: first xs = [x] and ys =
    [y] for each two neighbours x and y in a twin class, twins being atoms
    on exactly the same blocks; then the other atoms, in order, of each two
    pendant blocks of one size at one atom h that are consecutive in the
    order of their least other atoms.  A block is pendant at h when h is
    its only atom on another block, so that swap fixes every other block.
    The rest are found at leaves with equal codes.

    Each generator is kept with its support, the atoms it moves, as a list
    and as a bitmask; it fixes a node's path P, a bitmask too, when the two
    are disjoint.  A node keeps the orbits of the generators fixing P as a
    union-find partition, joining each atom of a support with its image in
    the target cell alone: such an automorphism fixes P's coloring, so it
    maps the cell onto itself.  The partition starts once the first child
    is searched and grows with each generator found later; it is never
    built while no generator fixing P moves an atom of the cell.

    A child gives its atom the first position of the target cell, the first
    smallest cell of two or more atoms.  A target cell of twins alone (k
    atoms) is split in one step: its atoms take its k positions in atom
    order, as individualizing them one at a time, least first, would.  No
    refinement runs: it would move nothing, since every block through a
    twin holds the whole class.
    Each other child of that one-at-a-time search is the least one's image
    under a twin transposition fixing the path, so its leaves repeat codes
    found before.  On the first path the step counts k! (orbits k, k - 1,
    ..., 2), and the twin swaps, which generate every permutation within a
    class, keep the generators generating Aut.

    A leaf that repeats the first leaf's code yields an automorphism g,
    and since a leaf's ordered partition determines its path, g maps the
    first path onto the leaf's.  The search returns at once to the node
    where the two paths part (McKay 1981): the rest of the abandoned
    branches is g's image of a part already searched, so each code in it
    appeared earlier.  So does a leaf that repeats the least code so far,
    against that leaf's path.  The first leaf to reach the least code, and
    so the code and the permutation, are those of the whole search.

    |Aut| comes from orbit-stabilizer along the first path (McKay 1981).
    Let a be the first child of a first-path node with prefix P, and let
    the known automorphisms fixing P + (a,) generate its stabilizer (at
    the first leaf it is trivial).  A child c in the orbit of a under the
    stabilizer of P is either pruned as an image of an explored child by
    a known automorphism fixing P, or explored, and then a leaf below it
    repeats the first leaf's code, or the least code of a leaf below a
    (one below another child would put that child in a's orbit, and a's
    branch would have reached its code first).  Either yields an
    automorphism fixing P that takes a to c, and the return lands on P's
    node, which goes on; no return leaves a first-path node unfinished.
    So the known automorphisms fixing P generate its stabilizer, the orbit
    of a under them is exact, and |Aut| is the product of these orbit
    sizes; at the root P is empty, so the generators returned generate
    Aut.  Only the generator list depends on the seeds.

    With ``until``, the search stops at the first leaf whose code
    satisfies it and returns that leaf's code and permutation; the count
    and generators are then partial.
    """
    n = len(incident)
    refine = _refiner(blocks, n)
    sigs = [(len(inc), tuple(sorted(len(blocks[i]) for i in inc))) for inc in incident]
    ordered = sorted(sigs)  # a profile's cell is colored by the last position it takes
    colors = [bisect_right(ordered, s) - 1 for s in sigs]
    cells: Cells = {}
    for a, c in enumerate(colors):
        cells.setdefault(c, []).append(a)
    twins = twin_classes(incident)
    # swaps of twin neighbours, then of consecutive pendant blocks, as (xs, ys)
    swaps = [([x], [y]) for cls in dict.fromkeys(twins) for x, y in zip(cls, cls[1:])]
    if any(len(inc) == 1 for inc in incident):  # pendant blocks, as (hub, size) -> their other atoms
        pendant: dict[tuple[int, int], list[list[int]]] = {}
        for b in blocks:
            if len(hubs := [a for a in b if len(incident[a]) > 1]) == 1 < len(b):
                pendant.setdefault((hubs[0], len(b)), []).append([a for a in b if a != hubs[0]])
        for run in pendant.values():
            run.sort(key=min)  # as the search individualizes a star's spokes
            swaps += zip(run, run[1:])
    # moves[i]: gens[i], with the bitmask and the list of the atoms it moves
    moves = []
    for xs, ys in swaps:
        g = list(range(n))
        for x, y in zip(xs, ys):
            g[x], g[y] = y, x
        moves.append((tuple(g), sum(1 << a for a in xs + ys), xs + ys))
    gens = [g for g, _, _ in moves]
    # one per block; a 1-atom block's takes a slice, so it too returns a sequence
    getters = [itemgetter(*b) if len(b) > 1 else itemgetter(slice(b[0], b[0] + 1)) for b in blocks]

    # (code, permutation, path) of the first leaf and of the first leaf with
    # the least code so far
    first = best = None
    order = 1
    # the branching nodes on the path, each [colors, cells, path, mask,
    # on_first, c, cell, atoms left, explored, orbits, merged]
    stack: list[list] = []
    colors, cells = refine(colors, cells, range(n))
    path, mask, on_first = (), 0, True  # of the coloring searched now
    while True:
        if len(cells) < n:
            c = min((len(cell), end) for end, cell in cells.items() if len(cell) > 1)[1]  # the first smallest
            cell = cells[c]
            if all(twins[a] is twins[cell[0]] for a in cell):  # twins: split at once, in place
                for i, a in enumerate(cell, c + 1 - len(cell)):  # (no node holds them)
                    colors[a] = i
                    cells[i] = [a]
                    mask |= 1 << a
                path += tuple(cell)
                if on_first:
                    order *= math.factorial(len(cell))
                continue
            a, atoms = cell[0], iter(cell[1:])
            stack.append([colors, cells, path, mask, on_first, c, cell, atoms, [a], None, 0])
        else:  # a leaf: a discrete coloring, color value == canonical position
            code = tuple(sorted([tuple(sorted(get(colors))) for get in getters]))
            back = len(path)  # the depth the search goes on at
            if until is not None and until(code):
                best, back = (code, tuple(colors), path), -1
            elif first is None:
                first = best = (code, tuple(colors), path)
            elif (ref := first if code == first[0] else best if code == best[0] else None) is None:
                if code < best[0]:
                    best = (code, tuple(colors), path)
            else:
                inv_leaf = sorted(range(n), key=colors.__getitem__)
                g = tuple([inv_leaf[v] for v in ref[1]])
                support = [i for i in range(n) if g[i] != i]
                if support and g not in gens:
                    gens.append(g)
                    moves.append((g, sum(1 << i for i in support), support))
                # the node where this path leaves the reference path
                back = next((d for d, (x, y) in enumerate(zip(path, ref[2])) if x != y), back)
            while stack and len(stack[-1][2]) > back:
                stack.pop()
            while stack:  # the node on top goes on with its next atom, or is done
                node = stack[-1]
                colors, cells, path, mask, on_first, c, cell, atoms, explored, orbits, merged = node
                if merged < len(gens):
                    orbits = node[9] = _merge_moves(orbits, moves[merged:], mask, colors, c)
                    node[10] = len(gens)
                roots = set() if orbits is None else {_find(orbits, x) for x in explored}
                a = next((x for x in atoms if orbits is None or _find(orbits, x) not in roots), None)
                if a is not None:
                    explored.append(a)
                    break
                if on_first and orbits is not None:
                    root = _find(orbits, cell[0])
                    order *= sum(_find(orbits, x) == root for x in cell)
                stack.pop()
            else:
                return best[0], best[1], order, tuple(gens)
        # the child of the node on top that gives a the cell's first position
        start = c + 1 - len(cell)
        colors, cells = colors[:], {**cells, start: [a], c: [x for x in cell if x != a]}
        colors[a] = start
        colors, cells = refine(colors, cells, [a])
        path, mask, on_first = path + (a,), mask | 1 << a, on_first and a == cell[0]


def _merge_moves(
    orbits: list[int] | None, moves: list, mask: int, colors: list[int], c: int
) -> list[int] | None:
    """Join in the union-find parents ``orbits`` (None: each atom alone) each
    atom of color c and its image under each of ``moves`` that fixes ``mask``."""
    for g, moved, support in moves:
        if not moved & mask:
            for x in support:
                if colors[x] == c:
                    if orbits is None:
                        orbits = list(range(len(colors)))
                    rx, ry = _find(orbits, x), _find(orbits, g[x])
                    if rx != ry:
                        orbits[max(rx, ry)] = min(rx, ry)
    return orbits


def _find(orbits: list[int], x: int) -> int:
    """The root of x's class in the union-find parents ``orbits``, halving its path."""
    while orbits[x] != x:
        orbits[x] = x = orbits[orbits[x]]
    return x


def _refiner(
    blocks: tuple[tuple[int, ...], ...], n: int
) -> Callable[[list[int], Cells, Iterable[int]], tuple[list[int], Cells]]:
    """The refinement function of one connected diagram on atoms 0..n-1.

    ``refine(colors, cells, moved)`` refines a coloring and its cells in
    place to the equitable refinement and returns them, never changing a
    cell list it was given.  A cell's color is the last position it takes in
    the ordered partition, and the atoms of a cell share their degree.
    ``moved`` lists the atoms that left their cell since the coloring was
    last equitable: every atom for a fresh coloring, the individualized atom
    after an individualization.

    The signature of an atom is the sorted list of (size, sorted colors of
    the other atoms) over its blocks, each entry encoded as one int whose
    base-(n + 2) digits are the size and then the colors.  Digits are
    below the base and the leading one is not 0, so a block of s atoms
    gives an s-digit number: larger blocks give larger numbers, and blocks
    of one size compare digit by digit, as the tuples do.  So the encoding
    is strictly order-preserving and cells split into the same parts in
    the same order.  When every block has 3 atoms the size digit is the
    same in every entry, so an entry is just min * base + max of the two
    partners' colors: the same order without a sort per block.  An atom
    of degree 3 there reads its six partners' colors with one getter and
    orders its three entries by compare-and-swap.

    Each round splits cells by signature, lays each cell's parts out over
    its run in signature order and recolors the atoms of all parts but the
    last, until no cell splits.  The colors of disjoint runs are
    order-isomorphic to the cells' dense indices, so each round splits the
    cells into the parts, in the order, that recomputing every signature on
    those indices would.  Only the cells next to a moved atom are examined:
    the atoms of every part but the largest count as moved, and an atom of
    any other cell meets no atom of a split cell outside its largest part,
    whose atoms take one color that orders as the old one did, so its
    signature changes by one order-preserving map (McKay 1981).
    """
    base = n + 2
    uniform = all(len(b) == 3 for b in blocks)
    # per atom: the other atoms of each incident block, and its neighbours
    around: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    for b in blocks:
        for i, a in enumerate(b):
            around[a].append(b[:i] + b[i + 1 :])
    nbrs = [tuple({x for xs in around[a] for x in xs}) for a in range(n)]
    # per atom of degree 3 when every block has 3 atoms: its six partners' colors
    six = [itemgetter(*sum(around[a], ())) if uniform and len(around[a]) == 3 else None for a in range(n)]

    def refine(colors: list[int], cells: Cells, moved: Iterable[int]) -> tuple[list[int], Cells]:
        while True:
            splits = []
            for c in {colors[x] for a in moved for x in nbrs[a]}:
                cell = cells[c]
                if len(cell) == 1:
                    continue
                sigs = []
                if six[cell[0]] is not None:
                    for a in cell:
                        x1, y1, x2, y2, x3, y3 = six[a](colors)
                        k1 = x1 * base + y1 if x1 < y1 else y1 * base + x1
                        k2 = x2 * base + y2 if x2 < y2 else y2 * base + x2
                        k3 = x3 * base + y3 if x3 < y3 else y3 * base + x3
                        if k1 > k2:
                            k1, k2 = k2, k1
                        if k2 > k3:
                            k2, k3 = k3, k2
                            if k1 > k2:
                                k1, k2 = k2, k1
                        sigs.append((k1, k2, k3))
                else:
                    for a in cell:
                        keys = []
                        if uniform:
                            for x, y in around[a]:
                                cx, cy = colors[x], colors[y]
                                keys.append(cx * base + cy if cx < cy else cy * base + cx)
                        else:
                            for xs in around[a]:
                                key = len(xs) + 1
                                for color in sorted([colors[x] for x in xs]):
                                    key = key * base + color
                                keys.append(key)
                        keys.sort()
                        sigs.append(tuple(keys))
                if len(cell) == 2:  # no dict, no sort
                    if sigs[0] != sigs[1]:
                        splits.append((c, [[a] for a in (cell if sigs[0] < sigs[1] else cell[::-1])]))
                    continue
                by_sig: dict[tuple[int, ...], list[int]] = {}
                for a, sig in zip(cell, sigs):
                    by_sig.setdefault(sig, []).append(a)
                if len(by_sig) > 1:
                    splits.append((c, [by_sig[sig] for sig in sorted(by_sig)]))
            if not splits:
                return colors, cells
            moved = []
            for c, parts in splits:
                largest, end = max(parts, key=len), c - len(cells[c])
                for part in parts:
                    end += len(part)
                    cells[end] = part
                    for a in part if end != c else ():
                        colors[a] = end
                    if part is not largest:
                        moved += part

    return refine
