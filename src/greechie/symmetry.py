"""Canonical labeling, isomorphism, automorphisms, and self-duality.

The canonical form of a diagram is the least block code reachable by the
individualization-refinement search below: atoms are iteratively colored
by (degree, incident block-size profile, neighbor color multisets); when
the coloring is not discrete the search branches on the smallest
non-singleton color class, lowest atom index first.  The minimum, taken
over all leaves of that search, is a deterministic relabeling-invariant
representative: two diagrams get the same canonical text exactly when
they are isomorphic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .diagram import ALPHABET, MmpDiagram, serialize_mmp
from .errors import SizeMismatch
from .structure import require_mmp, validate

Code = tuple[tuple[int, ...], ...]


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
    """Canonical text and automorphism count of a validated diagram."""
    require_mmp(d)
    code, _, gens = _canonical_search(d.blocks, d.atom_count)
    if d.atom_count <= len(ALPHABET):
        text = serialize_mmp(MmpDiagram(d.atom_count, code))
    else:
        text = json.dumps({"atoms": d.atom_count, "blocks": [list(b) for b in code]})
    return CanonicalForm(text, _group_order(gens, d.atom_count))


def are_isomorphic(d1: MmpDiagram, d2: MmpDiagram) -> Permutation | None:
    """A witness permutation with relabel(d1, pi) == d2 up to block order, or None."""
    if d1.atom_count != d2.atom_count:
        return None
    if sorted(len(b) for b in d1.blocks) != sorted(len(b) for b in d2.blocks):
        return None
    code1, p1, _ = _canonical_search(d1.blocks, d1.atom_count)
    code2, p2, _ = _canonical_search(d2.blocks, d2.atom_count)
    if code1 != code2:
        return None
    pi = Permutation(p2).inverse().compose(Permutation(p1))
    assert sorted(relabel(d1, pi).blocks) == sorted(d2.blocks)
    return pi


def is_self_dual(d: MmpDiagram) -> bool:
    """True iff the diagram is isomorphic to its incidence dual.

    False when the dual is not even a valid MMP diagram (conditions (i)-(iii)).
    """
    from .structure import dual  # local import to avoid cycle at module load

    dd = dual(d)
    rep = validate(dd)
    if not (rep.mmp_i and rep.mmp_ii and rep.mmp_iii):
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
) -> tuple[Code, tuple[int, ...], list[tuple[int, ...]]]:
    """Return (canonical code, a permutation achieving it, automorphism gens).

    The permutation maps original atom -> canonical index.  Isolated atoms
    take the trailing indices in input order and never influence the code,
    so a diagram and its atom-compacted version share one code.
    """
    if not blocks:
        return (), tuple(range(n)), []
    used = sorted({a for b in blocks for a in b})
    if len(used) < n:
        comp = {a: i for i, a in enumerate(used)}
        cblocks = tuple(tuple(comp[a] for a in b) for b in blocks)
        code, cperm, cgens = _search_dense(cblocks, len(used))
        perm = [0] * n
        nxt = len(used)
        for a in range(n):
            if a in comp:
                perm[a] = cperm[comp[a]]
            else:
                perm[a] = nxt
                nxt += 1
        lifted = []
        for g in cgens:
            h = list(range(n))
            for a in used:
                h[a] = used[g[comp[a]]]
            lifted.append(tuple(h))
        return code, tuple(perm), lifted
    return _search_dense(blocks, n)


def _search_dense(
    blocks: tuple[tuple[int, ...], ...], n: int
) -> tuple[Code, tuple[int, ...], list[tuple[int, ...]]]:
    """Canonical search over a diagram in which every atom is used.

    Disconnected diagrams are canonicalized one component at a time and
    recombined in sorted-code order, which sidesteps the component-swap
    symmetry blowup; the result is still a relabeled copy of the input.
    """
    comps = _components(blocks, n)
    if len(comps) <= 1:
        return _search_connected(blocks, n)
    pieces = []
    for atoms, comp_blocks in comps:
        index = {a: i for i, a in enumerate(atoms)}
        local = tuple(tuple(index[a] for a in b) for b in comp_blocks)
        code, perm, gens = _search_connected(local, len(atoms))
        pieces.append((code, atoms, index, perm, gens))
    pieces.sort(key=lambda p: (p[0], p[1][0]))
    perm_out = [0] * n
    code_out: list[tuple[int, ...]] = []
    gens_out: list[tuple[int, ...]] = []
    offset = 0
    for code, atoms, index, perm, gens in pieces:
        for a in atoms:
            perm_out[a] = offset + perm[index[a]]
        code_out.extend(tuple(offset + x for x in b) for b in code)
        for g in gens:
            lifted = list(range(n))
            for a in atoms:
                lifted[a] = atoms[g[index[a]]]
            gens_out.append(tuple(lifted))
        offset += len(atoms)
    for (code1, atoms1, index1, perm1, _), (code2, atoms2, index2, perm2, _) in zip(
        pieces, pieces[1:]
    ):
        if code1 == code2:
            # Equal components may be exchanged position-for-position.
            inv2 = [0] * len(atoms2)
            for a in atoms2:
                inv2[perm2[index2[a]]] = a
            inv1 = [0] * len(atoms1)
            for a in atoms1:
                inv1[perm1[index1[a]]] = a
            swap = list(range(n))
            for a in atoms1:
                swap[a] = inv2[perm1[index1[a]]]
            for a in atoms2:
                swap[a] = inv1[perm2[index2[a]]]
            gens_out.append(tuple(swap))
    return tuple(sorted(code_out)), tuple(perm_out), gens_out


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
) -> tuple[Code, tuple[int, ...], list[tuple[int, ...]]]:
    sizes = [len(b) for b in blocks]
    incident: list[list[int]] = [[] for _ in range(n)]
    for i, b in enumerate(blocks):
        for a in b:
            incident[a].append(i)

    def refine(colors: list[int]) -> list[int]:
        while True:
            sigs = []
            for a in range(n):
                around = sorted(
                    (sizes[i], tuple(sorted(colors[x] for x in blocks[i] if x != a)))
                    for i in incident[a]
                )
                sigs.append((colors[a], tuple(around)))
            ranking = {s: r for r, s in enumerate(sorted(set(sigs)))}
            new = [ranking[s] for s in sigs]
            if new == colors:
                return colors
            colors = new

    def initial_colors() -> list[int]:
        sigs = [(len(incident[a]), tuple(sorted(sizes[i] for i in incident[a]))) for a in range(n)]
        ranking = {s: r for r, s in enumerate(sorted(set(sigs)))}
        return refine([ranking[s] for s in sigs])

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

    def search(colors: list[int], fixed: tuple[int, ...]) -> None:
        cell = target_cell(colors)
        if cell is None:
            record_leaf(colors)
            return
        explored: list[int] = []
        for a in cell:
            if _orbit_covered(a, explored, fixed, gens):
                continue
            explored.append(a)
            search(refine(individualize(colors, a)), fixed + (a,))

    search(initial_colors(), ())
    return best["code"], best["perm"], gens


def _orbit_covered(
    a: int, explored: list[int], fixed: tuple[int, ...], gens: list[tuple[int, ...]]
) -> bool:
    """True if some known automorphism fixing ``fixed`` maps an explored branch to a."""
    if not explored or not gens:
        return False
    valid = [g for g in gens if all(g[x] == x for x in fixed)]
    if not valid:
        return False
    # Orbit of the explored set under the valid generators.
    orbit = set(explored)
    frontier = list(explored)
    while frontier:
        p = frontier.pop()
        for g in valid:
            q = g[p]
            if q not in orbit:
                if q == a:
                    return True
                orbit.add(q)
                frontier.append(q)
    return a in orbit


def _group_order(gens: list[tuple[int, ...]], n: int, limit: int = 10**6) -> int:
    """Order of the group generated by ``gens`` via closure enumeration.

    Automorphism groups of admissible diagrams are small; the limit guards
    against degenerate inputs rather than expected use.
    """
    ident = tuple(range(n))
    gens = [g for g in gens if g != ident]
    if not gens:
        return 1
    seen = {ident}
    frontier = [ident]
    while frontier:
        h = frontier.pop()
        for g in gens:
            hg = tuple(h[g[i]] for i in range(n))
            if hg not in seen:
                if len(seen) >= limit:
                    raise OverflowError("automorphism group too large to count")
                seen.add(hg)
                frontier.append(hg)
    return len(seen)
