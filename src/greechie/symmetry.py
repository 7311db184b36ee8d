"""Canonical labeling, isomorphism, automorphisms, and self-duality.

The canonical form of a diagram is the least block code reachable by the
individualization-refinement search below: atoms are iteratively colored
by (degree, incident block-size profile, neighbor color multisets); when
the coloring is not discrete the search branches on the smallest
non-singleton color class, lowest atom index first.  The minimum, taken
over all leaves of that search, is a deterministic relabeling-invariant
representative: two diagrams get the same canonical text exactly when
they are isomorphic.

Isomorphism needs one leaf, not two canonical codes: the set of leaf
codes is an isomorphism invariant that pruning keeps whole, so
``are_isomorphic`` (and ``is_self_dual`` through it) searches one
connected diagram only until a leaf repeats the other's first leaf code.

Refinement is incremental: each round re-examines only the cells next to
an atom that changed cell in the round before, and it keys each incident
block by one int whose order is that of the (size, colors) tuple it
encodes (see ``_refiner``).  Twins, atoms on exactly the same blocks,
are swapped by automorphisms known before the search starts, and a cell
of twins alone is split in one step.  A leaf that repeats the first or
the least code returns the search to the node where its path parts from
that leaf's (McKay 1981).  Besides the code, the search returns |Aut| and
generators of Aut.  Generation uses them to try one augmenting block per
orbit and in the deletion rule's orbit test (``generate._accepts``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable

from .diagram import ALPHABET, MmpDiagram, incidence, serialize_mmp, twin_classes
from .errors import SizeMismatch
from .structure import components, dual, mmp_checks, require_mmp

Code = tuple[tuple[int, ...], ...]
Gens = tuple[tuple[int, ...], ...]  # generators of a permutation group


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
    code, _, order, _ = _canonical_search(d.blocks, d.atom_count)
    if d.atom_count <= len(ALPHABET):
        text = serialize_mmp(MmpDiagram(d.atom_count, code))
    else:
        text = json.dumps({"atoms": d.atom_count, "blocks": [list(b) for b in code]})
    return CanonicalForm(text, order)


def are_isomorphic(d1: MmpDiagram, d2: MmpDiagram) -> Permutation | None:
    """A witness permutation with relabel(d1, pi) == d2 up to block order, or None.

    Two connected diagrams take the first leaf of d2's search, then
    search d1 until a leaf repeats its code.  Such a leaf exists exactly
    when they are isomorphic: equal codes are equal relabelled block
    multisets, and the codes a pruned search reaches are an isomorphism
    invariant, since pruning drops only automorphic images of explored
    subtrees.  Other pairs compare canonical codes.
    """
    if d1.atom_count != d2.atom_count:
        return None
    if sorted(len(b) for b in d1.blocks) != sorted(len(b) for b in d2.blocks):
        return None
    n = d1.atom_count
    comps1, comps2 = components(d1.blocks, n), components(d2.blocks, n)
    connected = _connected(comps1, d1.blocks)
    if connected != _connected(comps2, d2.blocks):
        return None
    if connected:
        code2, p2, _, _ = _search_connected(d2.blocks, n, lambda code: True)
        code1, p1, _, _ = _search_connected(d1.blocks, n, code2.__eq__)
    else:
        code1, p1, _, _ = _search_components(d1.blocks, n, comps1, None)
        code2, p2, _, _ = _search_components(d2.blocks, n, comps2, None)
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


def canonical_code(blocks: tuple[tuple[int, ...], ...], atom_count: int) -> Code:
    """Canonical block code only (no text, no automorphism count)."""
    return _canonical_search(blocks, atom_count)[0]


def _canonical_search(
    blocks: tuple[tuple[int, ...], ...], n: int, memo: dict | None = None
) -> tuple[Code, tuple[int, ...], int, Gens]:
    """Return (canonical code, a permutation achieving it, |Aut|, generators).

    The permutation maps original atom -> canonical index.  The generators
    are atom permutations of the input that generate its automorphism
    group.  Calls that share a ``memo`` share their component searches
    (``_search_components``).
    """
    comps = components(blocks, n)
    if _connected(comps, blocks):
        return _search_connected(blocks, n)
    return _search_components(blocks, n, comps, memo)


def _search_components(
    blocks: tuple[tuple[int, ...], ...], n: int, comps: list, memo: dict | None
) -> tuple[Code, tuple[int, ...], int, Gens]:
    """``_canonical_search`` of a diagram that is not connected, whose
    ``components`` are ``comps``.  Each component is canonicalized on its
    own, and the components are recombined in sorted-code order; the
    result is still a relabeled copy of the input.  An automorphism
    permutes the components within each isomorphism class and acts on
    each one by a component automorphism, so |Aut| is the product of the
    component orders times k! for each run of k components with equal
    codes.  The group is generated by the component generators and, for
    each two neighbours in such a run, the swap that matches their
    canonical labelings.

    Isolated atoms are the components without blocks.  They are not
    searched: they take the trailing indices in input order and never
    influence the code, so a diagram and its atom-compacted version share
    one code; they add nothing to the automorphism count, and every
    generator fixes them.  Empty blocks stay empty blocks of the code.

    ``memo``, when given, maps a component, as its blocks on atoms 0..k-1
    and k, to its ``_search_connected`` result, which depends on nothing
    else.  Generation keeps a node's untouched components in its children,
    and so meets each one many times.
    """
    pieces, isolated = [], []
    for atoms, comp_blocks in comps:
        if not comp_blocks:
            isolated += atoms
            continue
        index = {a: i for i, a in enumerate(atoms)}
        key = (tuple(tuple(index[a] for a in b) for b in comp_blocks), len(atoms))
        found = memo.get(key) if memo is not None else None
        if found is None:
            found = _search_connected(*key)
            if memo is not None:
                memo[key] = found
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


def _connected(comps: list, blocks: tuple[tuple[int, ...], ...]) -> bool:
    """True iff ``comps``, the components of ``blocks``, are one, holding every atom and block."""
    return len(comps) == 1 and len(comps[0][1]) == len(blocks) > 0


def _search_connected(
    blocks: tuple[tuple[int, ...], ...], n: int, until: Callable[[Code], bool] | None = None
) -> tuple[Code, tuple[int, ...], int, Gens]:
    """Individualization-refinement search over a connected diagram.

    Known automorphisms prune each child in the orbit of an explored
    sibling.  Twins, atoms on exactly the same blocks, are known before
    the search: the swap of each two neighbours in a twin class is a
    generator from the start (McKay & Piperno 2014).  The rest are found
    at leaves with equal codes.

    A target cell of twins alone (k atoms) is split in one step: its atoms
    take consecutive colors in atom order, the coloring that individualizing
    them one at a time, least first, reaches.  No refinement runs: it would
    move nothing, since every block through a twin holds the whole class.
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
    refine = _refiner(blocks, n)
    incident = incidence(blocks, n)
    sigs = [(len(inc), tuple(sorted(len(blocks[i]) for i in inc))) for inc in incident]
    ranking = {s: r for r, s in enumerate(sorted(set(sigs)))}
    twins = twin_classes(incident)
    gens = [tuple(y if i == x else x if i == y else i for i in range(n))
            for cls in dict.fromkeys(twins) for x, y in zip(cls, cls[1:])]

    def code_of(perm: list[int]) -> Code:
        return tuple(sorted(tuple(sorted(perm[a] for a in b)) for b in blocks))

    # (code, permutation, path) of the first leaf and of the first leaf with
    # the least code so far; a path lists the individualized atoms
    first = best = None

    def record_leaf(perm: list[int], path: tuple[int, ...]) -> int:
        """Record a leaf (a discrete coloring: color value == canonical
        position); return the depth the search goes on at."""
        nonlocal first, best
        code = code_of(perm)
        if until is not None and until(code):
            best = (code, tuple(perm), path)
            return -1
        if first is None:
            first = best = (code, tuple(perm), path)
            return len(path)
        ref = first if code == first[0] else best if code == best[0] else None
        if ref is None:
            if code < best[0]:
                best = (code, tuple(perm), path)
            return len(path)
        inv_leaf = [0] * n
        for i, v in enumerate(perm):
            inv_leaf[v] = i
        g = tuple(inv_leaf[ref[1][i]] for i in range(n))
        if any(g[i] != i for i in range(n)) and g not in gens:
            gens.append(g)
        # the node where this path leaves the reference path
        return next((d for d, (x, y) in enumerate(zip(path, ref[2])) if x != y), len(path))

    def individualize(colors: list[int], a: int) -> list[int]:
        ca = colors[a]
        return [c + 1 if (c > ca or (c == ca and x != a)) else c for x, c in enumerate(colors)]

    order = 1

    def search(colors: list[int], cells: list[list[int]], fixed: tuple[int, ...], on_first: bool) -> int:
        """Search below one node (``cells`` in color order); return the depth
        (length of ``fixed``) of the node the search goes on at: this node's
        own when it is done."""
        nonlocal order
        if len(cells) == n:
            return record_leaf(colors, fixed)
        cell = min((c for c in cells if len(c) > 1), key=len)  # the first smallest
        if all(twins[a] is twins[cell[0]] for a in cell):  # twins: split at once
            c, k = colors[cell[0]], len(cell)
            colors = [x + k - 1 if x > c else x for x in colors]
            for i, a in enumerate(cell):
                colors[a] = c + i
            if on_first:
                order *= math.factorial(k)
            cells = cells[:c] + [[a] for a in cell] + cells[c + 1 :]
            return search(colors, cells, fixed + tuple(cell), on_first)
        depth = len(fixed)
        explored: set[int] = set()  # the orbits of the atoms searched so far
        # the known automorphisms that fix ``fixed``
        valid = [g for g in gens if all(g[x] == x for x in fixed)]
        for a in cell:
            if a in _close(explored, valid):
                continue
            explored.add(a)
            known = len(gens)
            back = search(*refine(individualize(colors, a), [a]), fixed + (a,), on_first and a == cell[0])
            if back < depth:
                return back
            valid += [g for g in gens[known:] if all(g[x] == x for x in fixed)]
        if on_first:
            order *= len(_close({cell[0]}, valid))
        return depth

    search(*refine([ranking[s] for s in sigs], range(n)), (), True)
    del search  # it holds itself through its closure cell
    return best[0], best[1], order, tuple(gens)


def _refiner(
    blocks: tuple[tuple[int, ...], ...], n: int
) -> Callable[[list[int], Iterable[int]], tuple[list[int], list[list[int]]]]:
    """The refinement function of one connected diagram on atoms 0..n-1.

    ``refine(colors, moved)`` returns the equitable refinement of
    ``colors`` (cell indices, dense, in cell order) and its cells, as
    ascending atom lists in cell order.  ``moved`` lists the
    atoms that left their cell since the coloring was last equitable:
    every atom for a fresh coloring, the individualized atom after an
    individualization.

    The signature of an atom is the sorted list of (size, sorted colors of
    the other atoms) over its blocks, each entry encoded as one int whose
    base-(n + 2) digits are the size and then the colors.  Digits are
    below the base and the leading one is not 0, so a block of s atoms
    gives an s-digit number: larger blocks give larger numbers, and blocks
    of one size compare digit by digit, as the tuples do.  So the encoding
    is strictly order-preserving and cells split into the same parts in
    the same order.  When every block has 3 atoms the size digit is the
    same in every entry, so an entry is just min * base + max of the two
    partners' colors: the same order without a sort per block.

    Each round splits cells by signature, puts the parts in their cell's
    place in signature order and renumbers the cells, until no cell
    splits.  Only the cells next to a moved atom are examined: the atoms
    of any other cell see their neighbours' colors renumbered by one
    order-preserving map, so their signatures stay equal (McKay 1981).
    When a cell splits, the atoms of every part but its largest count as
    moved for the next round.  The rounds, and so the result, are those
    of recomputing every signature every round.
    """
    base = n + 2
    uniform = all(len(b) == 3 for b in blocks)
    # per atom: the other atoms of each incident block, and its neighbours
    around: list[list[list[int]]] = [[] for _ in range(n)]
    for b in blocks:
        for a in b:
            around[a].append([x for x in b if x != a])
    nbrs = [{x for xs in around[a] for x in xs} for a in range(n)]

    def refine(colors: list[int], moved: Iterable[int]) -> tuple[list[int], list[list[int]]]:
        colors = list(colors)
        cells: list[list[int]] = [[] for _ in range(max(colors) + 1)]
        for a, c in enumerate(colors):
            cells[c].append(a)
        while True:
            parts: dict[int, list[list[int]]] = {}
            for c in {colors[x] for a in moved for x in nbrs[a]}:
                if len(cells[c]) == 1:
                    continue
                by_sig: dict[tuple[int, ...], list[int]] = {}
                for a in cells[c]:
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
                    by_sig.setdefault(tuple(keys), []).append(a)
                if len(by_sig) > 1:
                    parts[c] = [by_sig[sig] for sig in sorted(by_sig)]
            if not parts:
                return colors, cells
            moved = []
            new_cells: list[list[int]] = []
            for c, cell in enumerate(cells):
                if c in parts:
                    new_cells.extend(parts[c])
                    largest = max(parts[c], key=len)
                    moved.extend(a for part in parts[c] if part is not largest for a in part)
                else:
                    new_cells.append(cell)
            cells = new_cells
            for c in range(min(parts), len(cells)):
                for a in cells[c]:
                    colors[a] = c

    return refine


def _close(orbit: set[int], gens: list[tuple[int, ...]]) -> set[int]:
    """Extend ``orbit`` in place to its orbit under the group ``gens`` generate."""
    frontier = list(orbit)
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = g[p]
            if q not in orbit:
                orbit.add(q)
                frontier.append(q)
    return orbit
