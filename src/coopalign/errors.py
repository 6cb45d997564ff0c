"""Exception types shared across the package."""


class CoopAlignError(Exception):
    """Base class for package errors."""


class ParameterError(CoopAlignError):
    """A scheme or config parameter is out of its admissible range."""


class SymbolRangeError(CoopAlignError):
    """A symbol or payload entry lies outside its declared alphabet."""


class GenericityError(CoopAlignError):
    """Channel gains failed the generic-position check."""


class SingularChannelError(CoopAlignError):
    """Channel matrix is (numerically) singular and cannot be inverted."""


class MLBudgetError(CoopAlignError):
    """Exhaustive detection would exceed the configured candidate budget."""


class ProtocolError(CoopAlignError):
    """A cooperation-protocol step failed; carries round/node context."""

    def __init__(self, message, round_index=None, node=None):
        self.round_index = round_index
        self.node = node
        where = []
        if round_index is not None:
            where.append(f"round {round_index}")
        if node is not None:
            where.append(f"node {node}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)


class ConfigError(CoopAlignError):
    """Experiment configuration failed validation."""
