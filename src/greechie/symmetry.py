"""Canonical labeling, isomorphism, automorphisms, and self-duality.

The canonical form of a diagram is the least block code reachable by the
individualization-refinement search below: atoms are iteratively colored
by (degree, incident block-size profile, neighbor color multisets); when
the coloring is not discrete the search branches on the smallest
non-singleton color class, lowest atom index first.  The minimum, taken
over all leaves of that search, is a deterministic relabeling-invariant
representative: two diagrams get the same canonical text exactly when
they are isomorphic.

Refinement is incremental: each round re-examines only the cells next to
an atom that changed cell in the round before, and it keys each incident
block by one int whose order is that of the (size, colors) tuple it
encodes (see ``_refiner``).  Besides the code, the search returns |Aut|
and generators of the automorphism group; generation uses the generators
to try one augmenting block per orbit and to settle most parent tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable

from .diagram import ALPHABET, MmpDiagram, serialize_mmp
from .errors import SizeMismatch
from .structure import dual, mmp_checks, require_mmp

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
    """A witness permutation with relabel(d1, pi) == d2 up to block order, or None."""
    if d1.atom_count != d2.atom_count:
        return None
    if sorted(len(b) for b in d1.blocks) != sorted(len(b) for b in d2.blocks):
        return None
    code1, p1, _, _ = _canonical_search(d1.blocks, d1.atom_count)
    code2, p2, _, _ = _canonical_search(d2.blocks, d2.atom_count)
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
    blocks: tuple[tuple[int, ...], ...], n: int
) -> tuple[Code, tuple[int, ...], int, Gens]:
    """Return (canonical code, a permutation achieving it, |Aut|, generators).

    The permutation maps original atom -> canonical index.  The generators
    are atom permutations of the input that generate its automorphism
    group.  Isolated atoms take the trailing indices in input order and
    never influence the code, so a diagram and its atom-compacted version
    share one code; they add nothing to the automorphism count, and every
    generator fixes them.
    """
    if not blocks:
        return (), tuple(range(n)), 1, ()
    used = sorted({a for b in blocks for a in b})
    if len(used) < n:
        comp = {a: i for i, a in enumerate(used)}
        cblocks = tuple(tuple(comp[a] for a in b) for b in blocks)
        code, cperm, order, cgens = _search_dense(cblocks, len(used))
        perm = [0] * n
        nxt = len(used)
        for a in range(n):
            if a in comp:
                perm[a] = cperm[comp[a]]
            else:
                perm[a] = nxt
                nxt += 1
        return code, tuple(perm), order, tuple(_lift(g, used, n) for g in cgens)
    return _search_dense(blocks, n)


def _lift(g: tuple[int, ...], atoms: list[int], n: int) -> tuple[int, ...]:
    """Extend a permutation of ``atoms`` (given by local index) to range(n)."""
    full = list(range(n))
    for j, a in enumerate(atoms):
        full[a] = atoms[g[j]]
    return tuple(full)


def _search_dense(
    blocks: tuple[tuple[int, ...], ...], n: int
) -> tuple[Code, tuple[int, ...], int, Gens]:
    """Canonical search over a diagram in which every atom is used.

    Disconnected diagrams are canonicalized one component at a time and
    recombined in sorted-code order; the result is still a relabeled copy
    of the input.  An automorphism permutes the components within each
    isomorphism class and acts on each one by a component automorphism,
    so |Aut| is the product of the component orders times k! for each run
    of k components with equal codes.  The group is generated by the
    component generators and, for each two neighbours in such a run, the
    swap that matches their canonical labelings.
    """
    comps = _components(blocks, n)
    if len(comps) <= 1:
        return _search_connected(blocks, n)
    pieces = []
    for atoms, comp_blocks in comps:
        index = {a: i for i, a in enumerate(atoms)}
        local = tuple(tuple(index[a] for a in b) for b in comp_blocks)
        pieces.append((*_search_connected(local, len(atoms)), atoms))
    pieces.sort(key=lambda p: (p[0], p[4][0]))
    perm_out = [0] * n
    code_out: list[tuple[int, ...]] = []
    order_out = 1
    gens_out: list[tuple[int, ...]] = []
    offset = 0
    run = 0
    for i, (code, perm, order, gens, atoms) in enumerate(pieces):
        for j, a in enumerate(atoms):
            perm_out[a] = offset + perm[j]
        code_out.extend(tuple(offset + x for x in b) for b in code)
        gens_out.extend(_lift(g, atoms, n) for g in gens)
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
    return tuple(sorted(code_out)), tuple(perm_out), order_out, tuple(gens_out)


def _components(
    blocks: tuple[tuple[int, ...], ...], n: int
) -> list[tuple[list[int], list[tuple[int, ...]]]]:
    """Connected components as (sorted atom list, block list) pairs."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for b in blocks:
        r = find(b[0])
        for a in b[1:]:
            parent[find(a)] = r
    atoms_by_root: dict[int, list[int]] = {}
    for a in range(n):
        atoms_by_root.setdefault(find(a), []).append(a)
    blocks_by_root: dict[int, list[tuple[int, ...]]] = {r: [] for r in atoms_by_root}
    for b in blocks:
        blocks_by_root[find(b[0])].append(b)
    return [
        (sorted(atoms_by_root[r]), blocks_by_root[r]) for r in sorted(atoms_by_root)
    ]


def _search_connected(
    blocks: tuple[tuple[int, ...], ...], n: int
) -> tuple[Code, tuple[int, ...], int, Gens]:
    """Individualization-refinement search over a connected diagram.

    Leaves with equal codes yield automorphisms, which prune branches in
    the orbit of an explored sibling.  |Aut| comes from orbit-stabilizer
    along the first path (McKay 1981): once the children of a first-path
    node are explored, the automorphisms found that fix its individualized
    prefix generate that prefix's stabilizer, so the orbit of the node's
    first child under them is exact, and |Aut| is the product of these
    orbit sizes (the stabilizer of the first leaf is trivial).  At the
    root the prefix is empty, so the automorphisms found generate Aut.
    """
    refine = _refiner(blocks, n)

    def initial_colors() -> list[int]:
        profile: list[list[int]] = [[] for _ in range(n)]  # incident block sizes
        for b in blocks:
            for a in b:
                profile[a].append(len(b))
        sigs = [(len(p), tuple(sorted(p))) for p in profile]
        ranking = {s: r for r, s in enumerate(sorted(set(sigs)))}
        return refine([ranking[s] for s in sigs], range(n))

    def code_of(perm: list[int]) -> Code:
        return tuple(sorted(tuple(sorted(perm[a] for a in b)) for b in blocks))

    best: dict = {"code": None, "perm": None, "first_code": None, "first_perm": None}
    gens: list[tuple[int, ...]] = []

    def record_leaf(colors: list[int]) -> None:
        perm = colors  # discrete coloring: color value == canonical position
        code = code_of(perm)
        if best["first_code"] is None:
            best["first_code"] = code
            best["first_perm"] = tuple(perm)
        elif code == best["first_code"]:
            _harvest(perm, best["first_perm"])
        if best["code"] is None or code < best["code"]:
            best["code"] = code
            best["perm"] = tuple(perm)
        elif code == best["code"]:
            _harvest(perm, best["perm"])

    def _harvest(leaf_perm: list[int], ref_perm: tuple[int, ...]) -> None:
        inv_leaf = [0] * n
        for i, v in enumerate(leaf_perm):
            inv_leaf[v] = i
        g = tuple(inv_leaf[ref_perm[i]] for i in range(n))
        if any(g[i] != i for i in range(n)) and g not in gens:
            gens.append(g)

    def target_cell(colors: list[int]) -> list[int] | None:
        cells: dict[int, list[int]] = {}
        for a, c in enumerate(colors):
            cells.setdefault(c, []).append(a)
        nonsingleton = [(len(v), c) for c, v in cells.items() if len(v) > 1]
        if not nonsingleton:
            return None
        _, c = min(nonsingleton)
        return sorted(cells[c])

    def individualize(colors: list[int], a: int) -> list[int]:
        ca = colors[a]
        return [c + 1 if (c > ca or (c == ca and x != a)) else c for x, c in enumerate(colors)]

    order = 1

    def search(colors: list[int], fixed: tuple[int, ...], first: bool) -> None:
        nonlocal order
        cell = target_cell(colors)
        if cell is None:
            record_leaf(colors)
            return
        explored: set[int] = set()  # the orbits of the atoms searched so far
        # the known automorphisms that fix ``fixed``
        valid = [g for g in gens if all(g[x] == x for x in fixed)]
        for a in cell:
            if a in _close(explored, valid):
                continue
            explored.add(a)
            known = len(gens)
            search(refine(individualize(colors, a), [a]), fixed + (a,), first and a == cell[0])
            valid += [g for g in gens[known:] if all(g[x] == x for x in fixed)]
        if first:
            order *= len(_close({cell[0]}, valid))

    search(initial_colors(), (), True)
    return best["code"], best["perm"], order, tuple(gens)


def _refiner(
    blocks: tuple[tuple[int, ...], ...], n: int
) -> Callable[[list[int], Iterable[int]], list[int]]:
    """The refinement function of one connected diagram on atoms 0..n-1.

    ``refine(colors, moved)`` returns the equitable refinement of
    ``colors`` (cell indices, dense, in cell order).  ``moved`` lists the
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

    def refine(colors: list[int], moved: Iterable[int]) -> list[int]:
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
                return colors
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
