"""Per-layer spans recorded from outside the package.

Each layer entry point is wrapped at every place the package binds it:
``cli``, ``generate`` and ``states`` import functions by name, so patching
the defining module alone would miss their calls.  Modules are looked up
in ``sys.modules`` because ``greechie.generate`` as an attribute of the
package is the function, not the module.

Spans are named by layer, not by function.  The table below maps each
layer name to the functions that currently implement it; when a private
function is rebuilt, only the table changes and the metric keeps its name.
A name missing from the package is skipped and listed in
``Tracer.unwrapped``.
"""

from __future__ import annotations

import functools
import sys
import time

# (span, defining module, attribute, rebind everywhere or only in that module)
ENTRY_POINTS: tuple[tuple[str, str, str, bool], ...] = (
    ("cli", "greechie.cli", "main", True),
    ("diagram.parse", "greechie.diagram", "load_diagram_line", True),
    ("diagram.parse", "greechie.diagram", "parse_mmp", True),
    ("diagram.serialize", "greechie.diagram", "serialize_mmp", True),
    ("structure.validate", "greechie.structure", "validate", True),
    ("structure.max_loop", "greechie.structure", "max_loop", True),
    ("lattice.build_oml", "greechie.lattice", "build_oml", True),
    ("linprog.gauss_affine", "greechie.linprog", "gauss_affine", True),
    ("linprog.rank_mod_p", "greechie.linprog", "rank_mod_p", True),
    ("states.classify_states", "greechie.states", "classify_states", True),
    ("states.admits_strong_set", "greechie.states", "admits_strong_set", True),
    ("states.enumerate_01_states", "greechie.states", "enumerate_01_states", True),
    ("states.admits_strong_01_set", "greechie.states", "admits_strong_01_set", True),
    ("symmetry.canonical_form", "greechie.symmetry", "canonical_form", True),
    ("symmetry.is_self_dual", "greechie.symmetry", "is_self_dual", True),
    ("render.render_dot", "greechie.render", "render_dot", True),
    ("generate.generate", "greechie.generate", "generate", True),
    # generation's own calls into the canonical search, not symmetry's
    ("symmetry.search", "greechie.generate", "_canonical_search", False),
    ("symmetry.search", "greechie.generate", "canonical_code", False),
)

# (span, module, class, method): methods patched on the class itself
METHODS: tuple[tuple[str, str, str, str], ...] = (
    ("linprog.lp_build", "greechie.linprog", "EqualityLP", "__init__"),
    ("linprog.lp_optimize", "greechie.linprog", "EqualityLP", "optimize"),
)

SPANS: tuple[str, ...] = tuple(dict.fromkeys([e[0] for e in ENTRY_POINTS] + [m[0] for m in METHODS]))

# spans whose presence under classify_states means it left the mod-p shortcut
_SLOW_PATH = frozenset({"linprog.gauss_affine", "linprog.lp_build", "linprog.lp_optimize"})
_CLASSIFY = "states.classify_states"
GEN_COUNTS = ("nodes_explored", "canonical_rejections", "girth_prunes", "budget_prunes", "emitted_count")


class Tracer:
    """Records span counts and times while its wrappers are installed."""

    def __init__(self) -> None:
        self.calls = dict.fromkeys(SPANS, 0)
        self.time_s = dict.fromkeys(SPANS, 0.0)
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.gen = dict.fromkeys(GEN_COUNTS, 0)
        self.classify_shortcuts = 0
        self.unwrapped: list[str] = []
        # open spans: [name, start, time covered by child spans, left shortcut]
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:  # a layer calling itself
                return fn(*args, **kwargs)
            if name in _SLOW_PATH:
                for frame in stack:
                    if frame[0] == _CLASSIFY:
                        frame[3] = True
            frame = [name, time.perf_counter(), 0.0, False]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if name == "generate.generate":
                    for key in GEN_COUNTS:
                        self.gen[key] += getattr(result, key)
                return result
            finally:
                self._close(frame)

        return traced

    def _close(self, frame: list) -> None:
        dur = time.perf_counter() - frame[1]
        name = frame[0]
        stack = self._stack
        while stack and stack[-1] is not frame:  # abandoned by an interrupt
            stack.pop()
        if stack:
            stack.pop()
        self.calls[name] += 1
        self.time_s[name] += dur
        self.self_s[name] += dur - frame[2]
        if name == _CLASSIFY and not frame[3]:
            self.classify_shortcuts += 1
        if stack:
            stack[-1][2] += dur

    def clear_stack(self) -> None:
        """Drop spans left open when an operation was interrupted."""
        self._stack.clear()

    def counts(self) -> dict[str, int]:
        """Everything that must repeat exactly on identical input."""
        out = {f"{k}.calls": v for k, v in self.calls.items()}
        out.update({f"generate.{k}": v for k, v in self.gen.items()})
        out["classify.shortcuts"] = self.classify_shortcuts
        return out

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "greechie" or n.startswith("greechie.")]
        for span, mod_name, attr, everywhere in ENTRY_POINTS:
            home = sys.modules.get(mod_name)
            original = getattr(home, attr, None)
            if original is None:
                self.unwrapped.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(span, original)
            for mod in modules if everywhere else [home]:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for span, mod_name, cls_name, method in METHODS:
            cls = getattr(sys.modules.get(mod_name), cls_name, None)
            original = vars(cls).get(method) if cls is not None else None
            if original is None:
                self.unwrapped.append(f"{mod_name}.{cls_name}.{method}")
                continue
            self._undo.append((cls, method, original))
            setattr(cls, method, self._wrap(span, original))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()
