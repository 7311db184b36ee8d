import math
import random
import signal
from fractions import Fraction

import pytest

from greechie.diagram import MmpDiagram
from greechie.linprog import _rays


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


def block_cycle(k: int) -> MmpDiagram:
    """k blocks in a ring, each sharing one atom with the next: |Aut| = 2k."""
    return MmpDiagram(2 * k, tuple((2 * i, 2 * i + 1, (2 * i + 2) % (2 * k)) for i in range(k)))


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


def twin_rich(rng: random.Random, max_atoms: int) -> MmpDiagram:
    """Blocks of 3-6 atoms, each after the first through one or two earlier
    atoms, so that most blocks hold two or more pendant atoms, which are
    twins; relabelled at random."""
    blocks, n = [], 0
    while True:
        size = rng.randrange(3, 7)
        old = rng.sample(range(n), rng.choice((1, 1, 2))) if blocks else []
        if n + size - len(old) > max_atoms:
            break
        blocks.append(old + list(range(n, n + size - len(old))))
        n += size - len(old)
    pi = list(range(n))
    rng.shuffle(pi)
    rng.shuffle(blocks)
    return MmpDiagram(n, tuple(tuple(sorted(pi[a] for a in b)) for b in blocks))


def pendant_tree(rng: random.Random, max_atoms: int, loop: bool = False) -> MmpDiagram:
    """A block-tree of 3- and 4-atom blocks, each after the first hung at
    one atom of those before it, mostly at an atom that already holds a
    hung block, so that pendant blocks of one or of two sizes share a hub.
    With ``loop``, one more 3-atom block through two atoms on no common
    block closes a cycle.  Relabelled at random."""
    first = rng.choice((3, 4))
    blocks, n, hubs = [list(range(first))], first, [rng.randrange(first)]
    while n + 2 + loop <= max_atoms:
        size = min(rng.choice((3, 4)), max_atoms - loop - n + 1)
        hub = rng.choice(hubs) if rng.random() < 0.7 else rng.randrange(n)
        hubs.append(hub)
        blocks.append([hub] + list(range(n, n + size - 1)))
        n += size - 1
    if loop:
        apart = [(x, y) for x in range(n) for y in range(x) if not any(x in b and y in b for b in blocks)]
        blocks.append([*rng.choice(apart), n])
        n += 1
    pi = list(range(n))
    rng.shuffle(pi)
    rng.shuffle(blocks)
    return MmpDiagram(n, tuple(tuple(sorted(pi[a] for a in b)) for b in blocks))


def sparse_rows(rows: list[list[int]], rhs: list[int]) -> tuple[list[dict[int, int]], int]:
    """``rows · x = rhs``, dense and in integers, as the sparse rows of
    ``linprog._reduce`` (-rhs in column n, zero rows left out), and n."""
    n = len(rows[0]) if rows else 0
    sparse = [{j: v for j, v in enumerate([*row, -b]) if v} for row, b in zip(rows, rhs)]
    return [r for r in sparse if r], n


def divided_rays(rows: list[dict[int, int]], n: int):
    """``linprog._rays`` in the form of ``oracles.dense_gauss_affine``, or
    ``None``: each ray divided by its entry on its own free column; the last,
    on the column of s, gives the particular solution, the others the
    nullspace basis."""
    solved = _rays(rows, n)
    if solved is None:
        return None
    free, rays = solved
    *basis, x0 = ([Fraction(v, r[k]) for v in r[:n]] for k, r in zip(free, rays))
    return x0, basis


class _Overran(BaseException):
    pass


def _overran(signum, frame):
    raise _Overran()


def within(seconds: float, call, what: str):
    """``call()``'s result, or a test failure when it runs over ``seconds``.

    A ``SIGALRM`` timer interrupts a call that runs away, where a bound
    checked after the call would never be reached.  The failure is raised
    once the timer is cleared and the old handler is back, outside the
    handler of the interrupt, so that the report has no interrupted frame.
    """
    old = signal.signal(signal.SIGALRM, _overran)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return call()
    except _Overran:
        pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    pytest.fail(f"{what} ran over {seconds:g} s")


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)
