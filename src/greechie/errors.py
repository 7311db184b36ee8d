"""Exception types shared across the package."""


class MmpError(Exception):
    """Base for format-level problems (CLI maps these to exit code 2)."""


class UnknownCharacter(MmpError):
    def __init__(self, char: str, position: int):
        super().__init__(f"character {char!r} at position {position} is not in the MMP alphabet")
        self.char = char
        self.position = position


class MissingTerminator(MmpError):
    def __init__(self):
        super().__init__("MMP line must end with a full stop")


class EmptyBlock(MmpError):
    def __init__(self, block_index: int):
        super().__init__(f"block {block_index} is empty (two adjacent commas?)")
        self.block_index = block_index


class DuplicateAtomInBlock(MmpError):
    def __init__(self, block_index: int, atom: int):
        super().__init__(f"block {block_index} repeats atom {atom}")
        self.block_index = block_index
        self.atom = atom


class TooManyAtoms(MmpError):
    def __init__(self, atom_count: int):
        super().__init__(
            f"{atom_count} atoms exceed the 90-character alphabet; use the JSON interchange format"
        )
        self.atom_count = atom_count


class BadJson(MmpError):
    """JSON interchange document does not match the documented schema."""


class PreconditionViolated(Exception):
    """Two blocks share two or more atoms where a linear hypergraph is required."""


class NotAdmissible(Exception):
    """Operation requires a Greechie-admissible diagram."""


class NotValidated(Exception):
    """Operation requires a diagram passing the three MMP conditions."""


class IndexOutOfRange(Exception):
    pass


class NotAState(Exception):
    """Vector violates the state constraints (range or block sums)."""


class LengthMismatch(Exception):
    pass


class ForeignElement(Exception):
    """Element does not belong to the poset it was queried against."""


class Infeasible(Exception):
    """The state polytope is empty."""


class SizeMismatch(Exception):
    """Permutation length does not match the diagram's atom count."""


class InvalidSpec(Exception):
    """Generation parameters are contradictory or out of range."""


class BadCheckpoint(Exception):
    """A generation checkpoint is for another spec or does not read."""


class TooLarge(Exception):
    """Brute-force enumeration would exceed its guard."""
