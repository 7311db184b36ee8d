"""Toolkit for MMP/Greechie diagrams of orthomodular lattices.

Parse and validate the one-line MMP hypergraph notation, paste admissible
diagrams into their orthomodular lattices, analyze state spaces in exact
rational arithmetic (unique-state detection, 0-1 states, strong sets),
canonicalize and compare diagrams up to isomorphism, and exhaustively
generate all admissible diagrams of a given size.
"""

from .corpus import ENTRIES as CORPUS_ENTRIES
from .corpus import CorpusEntry
from .diagram import ALPHABET, MmpDiagram, parse_mmp, serialize_mmp
from .errors import (
    BadCheckpoint,
    DuplicateAtomInBlock,
    EmptyBlock,
    Infeasible,
    InvalidSpec,
    LengthMismatch,
    MissingTerminator,
    MmpError,
    NotAdmissible,
    NotAState,
    NotValidated,
    PreconditionViolated,
    TooLarge,
    TooManyAtoms,
    UnknownCharacter,
)
from .generate import GenSpec, GenStats, brute_force_generate, census, generate, membership_probe
from .lattice import OmlElement, OmlPoset, build_oml, extend_state, leq, ortho
from .render import render_dot
from .states import (
    Classification,
    PolytopeSummary,
    StrongReport,
    admits_strong_01_set,
    admits_strong_set,
    atom_range,
    classify_states,
    enumerate_01_states,
    is_state,
)
from .structure import (
    LoopProfile,
    ValidationReport,
    drop_atom_from_block,
    drop_blocks,
    dual,
    element_count,
    girth,
    is_connected,
    max_loop,
    min_loop,
    validate,
)
from .symmetry import CanonicalForm, Permutation, are_isomorphic, canonical_form, is_self_dual, relabel

__version__ = "0.1.0"

__all__ = [
    "ALPHABET",
    "CORPUS_ENTRIES",
    "CanonicalForm",
    "Classification",
    "CorpusEntry",
    "GenSpec",
    "GenStats",
    "LoopProfile",
    "MmpDiagram",
    "OmlElement",
    "OmlPoset",
    "Permutation",
    "PolytopeSummary",
    "StrongReport",
    "ValidationReport",
    "admits_strong_01_set",
    "admits_strong_set",
    "are_isomorphic",
    "atom_range",
    "brute_force_generate",
    "build_oml",
    "canonical_form",
    "census",
    "classify_states",
    "drop_atom_from_block",
    "drop_blocks",
    "dual",
    "element_count",
    "enumerate_01_states",
    "extend_state",
    "generate",
    "girth",
    "is_connected",
    "is_self_dual",
    "is_state",
    "leq",
    "max_loop",
    "membership_probe",
    "min_loop",
    "ortho",
    "parse_mmp",
    "relabel",
    "render_dot",
    "serialize_mmp",
    "validate",
    # errors
    "MmpError",
    "UnknownCharacter",
    "MissingTerminator",
    "EmptyBlock",
    "DuplicateAtomInBlock",
    "TooManyAtoms",
    "PreconditionViolated",
    "NotAdmissible",
    "NotValidated",
    "NotAState",
    "LengthMismatch",
    "Infeasible",
    "InvalidSpec",
    "BadCheckpoint",
    "TooLarge",
]
