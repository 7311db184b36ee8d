import hashlib
import json
from pathlib import Path

import pytest

from greechie import corpus
from greechie.diagram import load_diagram_line, parse_mmp
from greechie.errors import NotAdmissible
from greechie.render import render_dot
from conftest import block_cycle, within

RECORDED = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "corpus.json"

PENTAGON = "123,345,567,789,9A1."


def test_single_block_renders_as_path():
    dot = render_dot(parse_mmp("123."))
    assert dot.startswith("graph mmp {")
    assert dot.count(" -- ") == 2  # a 3-atom block is one two-edge path
    assert 'pos=' not in dot  # no loop, nothing pinned


def test_pentagon_outer_cycle_is_pinned():
    dot = render_dot(parse_mmp(PENTAGON))
    pinned = [line for line in dot.splitlines() if "pos=" in line]
    assert len(pinned) == 10  # 5 junctions + 5 interior atoms
    assert dot.count(" -- ") == 10


def test_render_rejects_inadmissible():
    with pytest.raises(NotAdmissible):
        render_dot(parse_mmp("123,345,567,781."))


def test_render_is_deterministic():
    d = corpus.diagram("36-36")
    assert render_dot(d) == render_dot(d)


def test_36_36_has_18_loop_layout():
    dot = render_dot(corpus.diagram("36-36"))
    pinned = [line for line in dot.splitlines() if "pos=" in line]
    assert len(pinned) == 36  # 18 junctions + 18 interiors of the loop blocks
    assert dot.count(" -- ") == 72  # every block contributes two edges


def test_render_matches_recorded_corpus_outputs():
    data = json.loads(RECORDED.read_text())
    lines = {e["name"]: e["line"] for e in data["entries"]}
    pinned = {k.split(":")[2]: v["sha256"] for k, v in data["outputs"].items()
              if k.startswith("corpus:render:")}
    assert len(pinned) == 15
    for name, digest in pinned.items():
        dot = render_dot(load_diagram_line(lines[name]))
        assert hashlib.sha256(dot.encode()).hexdigest() == digest, name


#: the recorded corpus outputs pin the other fifteen lattices
RENDER_73_SHA256 = {
    "73-78-ngv": "40ccc1c765d3be845f3b8a099e93efaa04ae25a44593bf9e68d1639bf4953933",
    "73-78-single": "65cdaf6d71b5985578adc8e364d0d7f442e23999e217522ad6c21dcaa18c665c",
    "73-73": "201c5761e92aaa850da5e53e7d7642b6015022e239fd0fe0fdbeb78940bdcf90",
}


@pytest.mark.parametrize("name", sorted(RENDER_73_SHA256))
def test_render_73_atom_lattices_match_their_pinned_digests(name):
    dot = render_dot(corpus.diagram(name))
    assert hashlib.sha256(dot.encode()).hexdigest() == RENDER_73_SHA256[name]


@pytest.mark.parametrize("name", ["73-73", "73-78-ngv", "73-78-single"])
def test_render_73_atom_lattices_in_bounded_time(name):
    d = corpus.diagram(name)
    drawn = []
    first, second = within(
        1.0, lambda: (render_dot(d, on_loop=drawn.append), render_dot(d)), f"render_dot({name})"
    )
    assert first == second
    nodes = [ln for ln in first.splitlines() if ln.startswith('  "') and "--" not in ln]
    assert len(nodes) == d.atom_count
    (loop,) = drawn
    assert not loop.exact and loop.order >= 30
    pinned = [ln for ln in nodes if "pos=" in ln]  # every atom of the loop's blocks
    assert len(pinned) == sum(len(d.blocks[b]) - 1 for b in loop.blocks)


def test_render_a_long_block_cycle_in_bounded_time():
    # the loop search follows one chain of 1,200 blocks and stops at the cap
    drawn = []
    dot = within(
        5.0,
        lambda: render_dot(block_cycle(1200), on_loop=drawn.append),
        "render_dot of the 1,200-block cycle",
    )
    nodes = [ln for ln in dot.splitlines() if ln.startswith('  "') and "--" not in ln]
    assert len(nodes) == 2400 and all("pos=" in ln for ln in nodes)
    (loop,) = drawn
    assert (loop.order, loop.exact) == (1200, True)
