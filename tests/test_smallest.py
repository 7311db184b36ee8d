"""The lower half of "smallest" as tested statements.

The paper calls the 35-35 lattices the smallest with exactly one state.
Two parts of that claim are checked here, with no appeal to any bound
whose hypotheses the suite does not check:

- Rank.  When the block sums A x = 1 have a unique solution (an empty
  nullspace, k = 0), the incidence matrix has rank equal to the number of
  atoms, so there are at least as many blocks as atoms.
- Search.  With 3-atom blocks and as many blocks as atoms, the atom
  degrees sum to 3A, so a minimum degree of 3 makes every atom lie on
  exactly three blocks.  The generator finds no such connected diagram of
  girth at least 5 (its defaults) for 7 <= A = B <= 16.
"""

import pytest

from greechie import corpus
from greechie.generate import GenSpec, generate
from greechie.linprog import _rays
from conftest import random_mmp


def nullity(d):
    """The nullspace dimension k of the block sums A x = 1, or None if they
    have no solution: the free columns of ``_rays`` less that of s."""
    n = d.atom_count
    solved = _rays([dict.fromkeys(b, 1) | {n: -1} for b in d.blocks], n)
    return None if solved is None else len(solved[0]) - 1


def test_a_unique_solution_of_the_block_sums_needs_as_many_blocks_as_atoms(rng):
    # the nullspace has at least A - B dimensions, so k = 0 forces B >= A
    unique = fewer_blocks = 0
    for _ in range(400):
        d = random_mmp(rng)
        k = nullity(d)
        if k is None:
            continue
        assert k >= d.atom_count - d.block_count
        unique += k == 0
        fewer_blocks += d.block_count < d.atom_count
    assert unique >= 10 and fewer_blocks >= 100
    # the corpus: each lattice recorded with exactly one state has k = 0,
    # and so at least as many blocks as atoms
    single = [corpus.get(name) for name in corpus.names()]
    single = [e for e in single if e.state_classification == "ExactlyOne"]
    assert len(single) >= 10
    for e in single:
        d = e.diagram()
        assert nullity(d) == 0 and d.block_count >= d.atom_count


@pytest.mark.parametrize("atoms", range(7, 17))
def test_no_three_regular_diagram_of_girth_five_up_to_sixteen_atoms(atoms):
    lines = []
    stats = generate(GenSpec(atoms, atoms, min_atom_degree=3), lines.append)
    assert lines == [] and stats.emitted_count == 0
    assert stats.nodes_explored > 0
