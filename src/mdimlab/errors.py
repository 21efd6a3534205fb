"""Exception taxonomy shared by all mdimlab modules."""


class GraphError(Exception):
    """Base class for every error raised by this package."""


class LoopEdgeError(GraphError):
    """An edge joins a vertex to itself."""


class DisconnectedError(GraphError):
    """The edge set does not connect all vertices."""


class TooSmallError(GraphError):
    """The graph has fewer than two vertices."""


class BadSpecError(GraphError):
    """A family specification has an unknown family or out-of-range parameters."""


class ClassMismatchError(GraphError):
    """A closed-form formula was requested for a graph outside its class."""


class NotCactusError(ClassMismatchError):
    """Some biconnected component is neither a single edge nor a cycle."""


class NotABasisError(GraphError):
    """The supplied vertex set is not a resolving set of the subdivision graph."""


class SearchBudgetExceededError(GraphError):
    """The solver hit its cap on search nodes."""

    def __init__(self, checked: int, budget: int):
        super().__init__(f"search budget exhausted after {checked} search nodes (budget {budget})")
        self.checked = checked
        self.budget = budget


class EnumerationOverflowError(GraphError):
    """Too many candidate subsets to enumerate under the configured cap."""

    def __init__(self, count: int, cap: int):
        super().__init__(f"{count} candidate subsets exceed the enumeration cap of {cap}")
        self.count = count
        self.cap = cap


class ParseError(GraphError):
    """Malformed graph input.

    Carries the 1-based line number (edge-list format) or 0-based byte
    position (graph6 format) of the offending token when known.
    """

    def __init__(self, message: str, *, line: int | None = None, position: int | None = None):
        where = ""
        if line is not None:
            where = f" (line {line})"
        elif position is not None:
            where = f" (byte {position})"
        super().__init__(message + where)
        self.line = line
        self.position = position
