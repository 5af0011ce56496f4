"""Exception types shared by all kernel modules."""


class SoeError(Exception):
    """Base class for every error raised by this package."""


class EntityValidationError(SoeError):
    """Entity data violates a structural invariant (empty cell, stray outcome, ...)."""


class UnknownIdentifierError(SoeError, KeyError):
    """A state/experiment/outcome identifier is not declared in the entity."""

    def __init__(self, kind, identifier):
        self.kind = kind
        self.identifier = identifier
        super().__init__(f"unknown {kind} identifier: {identifier!r}")

    def __str__(self):
        return f"unknown {self.kind} identifier: {self.identifier!r}"


class ContractError(SoeError):
    """An operation was called with arguments outside its contract."""


class CapacityError(SoeError):
    """A materialization would exceed the configured size budget."""


class ConsistencyError(SoeError):
    """An internal theorem cross-check failed; indicates a kernel bug, never user error."""


class ParseError(SoeError):
    """Entity document could not be parsed; carries the offending location."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message + (f" (line {line})" if line is not None else ""))
