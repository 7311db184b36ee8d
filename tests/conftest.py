import math
import random

import pytest

from greechie.diagram import MmpDiagram


def random_diagram(rng: random.Random, max_atoms: int = 13, max_blocks: int = 5,
                   sizes=(3,)) -> MmpDiagram:
    """A random diagram with dense atoms; no structural guarantees."""
    n = rng.randrange(4, max_atoms + 1)
    usable = [s for s in sizes if s <= n]
    cap = sum(math.comb(n, s) for s in usable)
    m = rng.randrange(1, min(max_blocks, cap) + 1)
    blocks = set()
    while len(blocks) < m:
        size = rng.choice(usable)
        blocks.add(tuple(sorted(rng.sample(range(n), size))))
    used = sorted({a for b in blocks for a in b})
    remap = {a: i for i, a in enumerate(used)}
    return MmpDiagram(len(used), tuple(tuple(remap[a] for a in b) for b in blocks))


def random_mmp(rng: random.Random, max_atoms: int = 12, sizes=(3, 4, 5), tries: int = 60) -> MmpDiagram:
    """A random diagram passing MMP conditions (i)-(iii), often with as many
    blocks as atoms, so that all three state classifications occur.

    Blocks are drawn at random and kept while every two of them meeting in
    t atoms have at least t + 2 atoms each; unused atoms are dropped.
    """
    n = rng.randrange(6, max_atoms + 1)
    blocks: list[tuple[int, ...]] = []
    for _ in range(tries):
        cand = tuple(sorted(rng.sample(range(n), rng.choice(sizes))))
        if cand not in blocks and all(
            len(set(cand) & set(b)) + 2 <= min(len(cand), len(b)) for b in blocks
        ):
            blocks.append(cand)
    used = sorted({a for b in blocks for a in b})
    remap = {a: i for i, a in enumerate(used)}
    return MmpDiagram(len(used), tuple(tuple(remap[a] for a in b) for b in blocks))


def random_admissible(rng: random.Random, max_blocks: int = 6, sizes=(3,)) -> MmpDiagram:
    """Grow a random Greechie-admissible diagram block by block.

    The first block has ``sizes[0]`` atoms; each later block draws its size
    from ``sizes`` and shares at most one atom with the blocks before it.
    """
    from greechie.structure import validate

    blocks: list[tuple[int, ...]] = [tuple(range(sizes[0]))]
    n = sizes[0]
    target = rng.randrange(1, max_blocks + 1)
    attempts = 0
    while len(blocks) < target and attempts < 60:
        attempts += 1
        # one size draws nothing, so 3-block callers keep their random stream
        size = rng.choice(sizes) if len(sizes) > 1 else sizes[0]
        new_atoms = rng.randrange(size - 1, size + 1)
        stock = rng.sample(range(n), size - new_atoms)
        cand = tuple(sorted(stock + list(range(n, n + new_atoms))))
        trial = blocks + [cand]
        trial_n = n + new_atoms
        rep = validate(MmpDiagram(trial_n, tuple(trial)))
        if rep.pairwise_intersections and (rep.girth is None or rep.girth >= 5):
            blocks = trial
            n = trial_n
    return MmpDiagram(n, tuple(blocks))


def random_looped(rng: random.Random, max_atoms: int = 12) -> MmpDiagram:
    """A random Greechie-admissible diagram of 3-atom blocks with loops.

    :func:`random_admissible` only grows forests, whose state polytopes
    have 0-1 vertices alone.  Here a small forest is grown on by blocks
    with two or three old atoms, which close loops, and blocks with one
    old atom, each kept while the diagram stays admissible and within
    ``max_atoms`` atoms.
    """
    from greechie.structure import validate

    d = random_admissible(rng, max_blocks=3)
    blocks, n = list(d.blocks), d.atom_count
    for _ in range(40):
        new_atoms = rng.randrange(0, 3)
        if n + new_atoms > max_atoms:
            continue
        cand = tuple(sorted(rng.sample(range(n), 3 - new_atoms) + list(range(n, n + new_atoms))))
        trial = MmpDiagram(n + new_atoms, tuple(blocks + [cand]))
        if validate(trial).greechie_admissible:
            blocks, n = blocks + [cand], n + new_atoms
    return MmpDiagram(n, tuple(blocks))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)
