"""Shared exception types."""

__all__ = ["WGraphError", "GraphStructureError", "DimensionCapError", "CoveringError", "ActionError", "ParseError"]


class WGraphError(Exception):
    """Base class for all library errors."""


class GraphStructureError(WGraphError, ValueError):
    """A graph, pairing, or arc/vertex reference is structurally invalid."""


class DimensionCapError(WGraphError, ValueError):
    """A dense computation exceeds the finite-dimensional size cap."""


class CoveringError(WGraphError, ValueError):
    """A covering map is invalid or an induced construction failed."""


class ActionError(WGraphError, ValueError):
    """A group action, word, or group-algebra element is invalid."""


class ParseError(WGraphError, ValueError):
    """A file does not conform to its format; carries path and line number."""

    def __init__(self, path, line, message):
        self.path = str(path)
        self.line = int(line)
        self.message = message
        super().__init__(f"{self.path}:{self.line}: {message}")
