"""Deterministic DOT emission for admissible diagrams.

Atoms become nodes and each block becomes a colored path through its
atoms.  The blocks of a biggest loop are laid out first: their junction
atoms are pinned around a circle (neato honors the ``pos=...!`` hints)
so the dominant cycle renders as the outer face.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from .diagram import ALPHABET, MmpDiagram
from .structure import LoopProfile, max_loop, require_admissible

#: chain extensions the loop search may spend; a node count, not a time, so
#: the drawing is the same on every machine.  The corpus lattices of 35 to 44
#: atoms reach their longest loop within their first few dozen nodes.
LOOP_BUDGET = 20_000

_PALETTE = (
    "black", "firebrick", "royalblue", "forestgreen", "darkorange",
    "purple", "saddlebrown", "deeppink", "teal", "olive",
)


def _node_name(a: int) -> str:
    return ALPHABET[a] if a < len(ALPHABET) else f"a{a}"


def render_dot(d: MmpDiagram, on_loop: Callable[[LoopProfile], None] | None = None) -> str:
    """Graphviz source for the diagram; byte-identical across runs.

    The loop laid out first is the longest one :func:`max_loop` finds within
    ``LOOP_BUDGET`` nodes; ``on_loop``, if given, receives it (it is not
    called for an acyclic diagram).
    """
    require_admissible(d)
    loop = max_loop(d, budget=LOOP_BUDGET)
    if loop is not None and on_loop is not None:
        on_loop(loop)
    pos: dict[int, tuple[float, float]] = {}
    paths: dict[int, list[int]] = {}  # per loop block: junction in, interior, junction out
    if loop is not None:
        radius = max(2.0, loop.order / 2.0)
        for i, atom in enumerate(loop.junction_atoms):
            angle = 2 * math.pi * i / loop.order - math.pi / 2
            pos[atom] = (radius * math.cos(angle), radius * math.sin(angle))
        for i, bi in enumerate(loop.blocks):
            # interior atoms of a loop block sit outside the chord between
            # its two junctions
            j_in = loop.junction_atoms[i - 1]
            j_out = loop.junction_atoms[i]
            interior = [a for a in d.blocks[bi] if a not in (j_in, j_out)]
            paths[bi] = [j_in, *interior, j_out]
            a_in = 2 * math.pi * (i - 1) / loop.order - math.pi / 2
            a_out = 2 * math.pi * i / loop.order - math.pi / 2
            for k, atom in enumerate(interior, start=1):
                frac = k / (len(interior) + 1)
                angle = a_in + (a_out - a_in) * frac
                r = radius * 1.18
                pos[atom] = (r * math.cos(angle), r * math.sin(angle))

    lines = [
        "graph mmp {",
        "  layout=neato;",
        '  node [shape=circle, fixedsize=true, width=0.3, fontsize=11];',
    ]
    for a in range(d.atom_count):
        attrs = []
        if a in pos:
            attrs.append(f'pos="{pos[a][0]:.4f},{pos[a][1]:.4f}!"')
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f'  "{_node_name(a)}"{suffix};')
    for bi, block in enumerate(d.blocks):
        color = _PALETTE[bi % len(_PALETTE)]
        path = paths.get(bi, block)
        for x, y in zip(path, path[1:]):
            lines.append(
                f'  "{_node_name(x)}" -- "{_node_name(y)}" [color={color}, penwidth=2];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"

