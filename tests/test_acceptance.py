"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Every quantitative claim is checked in exact rational arithmetic; the
stated runtime budgets are asserted as hard bounds.  Run with ``-s`` to
see the per-criterion lines immediately.
"""

import math
import time
from fractions import Fraction

from greechie import corpus
from greechie.diagram import parse_mmp, serialize_mmp
from greechie.generate import GenSpec, brute_force_generate, generate, membership_probe
from greechie.lattice import build_oml, extend_state
from greechie.states import (
    Classification,
    admits_strong_set,
    classify_states,
    is_state,
)
from greechie.structure import drop_blocks, element_count
from greechie.symmetry import Permutation, are_isomorphic, canonical_form, is_self_dual, relabel
from conftest import random_diagram

F = Fraction
THIRD = F(1, 3)

SINGLE_STATE_THIRD = [
    "35-35a", "35-35b", "35-35c", "35-35d", "36-36",
    "38-38a", "38-38b", "38-38c", "38-38d", "38-38e",
    "38-38f", "38-38g", "38-38h", "44-44", "73-73",
]

GENERATOR_TARGETS = SINGLE_STATE_THIRD + ["73-78-single"]


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\nCRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_unique_state_one_third():
    worst = 0.0
    for name in SINGLE_STATE_THIRD:
        d = corpus.diagram(name)
        t0 = time.perf_counter()
        summary = classify_states(d)
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        assert summary.classification is Classification.EXACTLY_ONE, name
        assert all(v == THIRD for v in summary.unique_state), name
        assert all(r == (THIRD, THIRD) for r in summary.atom_ranges), name
        assert dt < 1.0, f"{name} took {dt:.2f}s"
    _report(1, True, f"{len(SINGLE_STATE_THIRD)} lattices ExactlyOne at 1/3, worst {worst*1000:.0f}ms")


def test_criterion_2_35_35e_more_than_one():
    d = corpus.diagram("35-35e")
    t0 = time.perf_counter()
    summary = classify_states(d)
    ok_published = all(is_state(d, v) for v in corpus.KNOWN_STATES["35-35e"])
    dt = time.perf_counter() - t0
    ok = summary.classification is Classification.MORE_THAN_ONE and ok_published and dt < 1.0
    _report(2, ok, f"MoreThanOne with both published states exact, {dt*1000:.0f}ms")


def test_criterion_3_strong_set_decisions():
    worst = 0.0
    for name in corpus.SINGLE_STATE_NAMES:
        d = corpus.diagram(name)
        t0 = time.perf_counter()
        rep = admits_strong_set(d)
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        assert not rep.admits, name
        assert rep.witness_pair is not None, name
        assert dt < 30.0, f"{name} took {dt:.2f}s"
    t0 = time.perf_counter()
    boolean = admits_strong_set(parse_mmp("123."))
    dt = time.perf_counter() - t0
    assert boolean.admits and dt < 30.0
    from oracles import strong_set_by_vertices

    assert strong_set_by_vertices(parse_mmp("123.")) is None
    _report(
        3,
        True,
        f"{len(corpus.SINGLE_STATE_NAMES)} single-state lattices refuse strong sets "
        f"(worst {worst:.2f}s); Boolean block admits one (oracle-confirmed)",
    )


def test_criterion_4_element_counts():
    t0 = time.perf_counter()
    weber = corpus.diagram("73-78-ngv")
    single = corpus.diagram("73-78-single")
    by_formula = (element_count(weber), element_count(single))
    by_build = (len(build_oml(weber)), len(build_oml(single)))
    dt = time.perf_counter() - t0
    ok = by_formula == by_build == (154, 148) and dt < 1.0
    _report(4, ok, f"154/148 elements by formula and construction, {dt*1000:.0f}ms")


def test_criterion_5_self_duality():
    t0 = time.perf_counter()
    expected = {"35-35e": True, "36-36": True}
    expected.update({f"38-38{x}": True for x in "abcdefgh"})
    expected.update({f"35-35{x}": False for x in "abcd"})
    for name, want in expected.items():
        assert is_self_dual(corpus.diagram(name)) == want, name
    dt = time.perf_counter() - t0
    ok = dt < 5.0
    _report(5, ok, f"{len(expected)} self-duality claims verified in {dt:.2f}s")


def test_criterion_6_weber_drop_derivation():
    t0 = time.perf_counter()
    derived, _ = drop_blocks(corpus.diagram("73-78-ngv"), set(range(5)))
    witness = are_isomorphic(derived, corpus.diagram("73-73"))
    dt = time.perf_counter() - t0
    ok = witness is not None and dt < 5.0
    _report(6, ok, f"dropping 5 blocks reproduces 73-73 up to relabeling, {dt:.2f}s")


def test_criterion_7_desk_scale_census_and_oracle():
    t0 = time.perf_counter()
    for a in range(3, 13):
        assert __census(a, a) == 0, f"census({a},{a})"
    compared = 0
    for a in range(3, 13):
        for m in range(1, 5):
            for conn in (True, False):
                if math.comb(math.comb(a, 3), m) > 10**8:
                    continue
                spec = GenSpec(atom_count=a, block_count=m, require_connected=conn)
                lines = []
                generate(spec, lines.append)
                oracle = [f.canonical_text for f in brute_force_generate(spec)]
                assert sorted(lines) == oracle, f"spec {a}-{m} conn={conn}"
                compared += 1
    dt = time.perf_counter() - t0
    ok = dt < 1800.0
    _report(
        7,
        ok,
        f"census(A,A)=0 for A=3..12 and {compared} specs match the oracle, {dt:.0f}s total",
    )


def __census(a: int, m: int) -> int:
    count = [0]
    generate(GenSpec(atom_count=a, block_count=m), lambda _line: count.__setitem__(0, count[0] + 1))
    return count[0]


def test_criterion_8_reachability_uniqueness_determinism():
    t0 = time.perf_counter()
    for name in GENERATOR_TARGETS:
        d = corpus.diagram(name)
        spec = GenSpec(atom_count=d.atom_count, block_count=d.block_count)
        assert membership_probe(d, spec), name
    emitted: list[str] = []
    for spec in (GenSpec(10, 5), GenSpec(11, 5), GenSpec(12, 6)):
        lines = []
        generate(spec, lines.append)
        emitted.extend(lines)
        assert len(lines) == len(set(lines))
        pool = [parse_mmp(line) for line in lines]
        for i in range(len(pool)):
            for j in range(i + 1, len(pool)):
                assert are_isomorphic(pool[i], pool[j]) is None
    runs = {}
    for workers in (1, 4, 8):
        lines = []
        generate(GenSpec(11, 5), lines.append, workers=workers)
        runs[workers] = lines
    determinism = runs[1] == runs[4] == runs[8]
    dt = time.perf_counter() - t0
    ok = determinism
    _report(
        8,
        ok,
        f"{len(GENERATOR_TARGETS)} corpus targets reachable, {len(emitted)} emissions "
        f"duplicate-free, worker counts 1/4/8 agree, {dt:.0f}s",
    )


def test_criterion_9_property_suites(rng):
    failures = 0
    # 10,000 parse/serialize round trips
    for _ in range(10_000):
        d = random_diagram(rng, max_atoms=12, max_blocks=5, sizes=(3, 4, 5))
        if parse_mmp(serialize_mmp(d)) != d:
            failures += 1
    # canonical-form invariance under 100 relabelings per corpus entry
    for entry in corpus.ENTRIES:
        d = entry.diagram()
        base = canonical_form(d).canonical_text
        for _ in range(100):
            pi = list(range(d.atom_count))
            rng.shuffle(pi)
            if canonical_form(relabel(d, Permutation(tuple(pi)))).canonical_text != base:
                failures += 1
    # unit complement sums and monotonicity for every witness state
    for entry in corpus.ENTRIES:
        d = entry.diagram()
        summary = classify_states(d)
        witnesses = [
            w
            for w in (summary.unique_state, summary.witness_state, summary.second_witness)
            if w is not None
        ]
        witnesses += list(corpus.KNOWN_STATES.get(entry.name, ()))
        if not witnesses:
            continue
        poset = build_oml(d)
        n = len(poset)
        for w in witnesses:
            ext = extend_state(poset, w)
            vals = [ext[e] for e in poset.elements]
            orth = [poset.index(poset.ortho(e)) for e in poset.elements]
            if any(vals[i] + vals[orth[i]] != 1 for i in range(n)):
                failures += 1
            if any(
                vals[i] > vals[j]
                for i in range(n)
                for j in range(n)
                if poset.ups[i] >> j & 1
            ):
                failures += 1
    # orthocomplement involution and order reversal, exhaustively
    for entry in corpus.ENTRIES:
        poset = build_oml(entry.diagram())
        if len(poset) > 200:
            continue
        orth = [poset.index(poset.ortho(e)) for e in poset.elements]
        n = len(poset)
        if any(orth[orth[i]] != i for i in range(n)):
            failures += 1
        if any(
            (poset.ups[i] >> j & 1) != (poset.ups[orth[j]] >> orth[i] & 1)
            for i in range(n)
            for j in range(n)
        ):
            failures += 1
    _report(9, failures == 0, f"property suites complete with {failures} failures")
