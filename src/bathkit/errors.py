"""Exception hierarchy shared across the toolkit.

The CLI maps these onto stable exit codes: ValidationError -> 2,
ConvergenceError -> 3, ResourceLimitError -> 4.
"""

from contextlib import contextmanager


class BathkitError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(BathkitError):
    """Malformed input: bad config, bad tabulated data, broken invariants."""


class SchemaError(ValidationError):
    """JSON document violates a bathkit schema.

    Carries a JSON-pointer to the offending location.
    """

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")

    @classmethod
    @contextmanager
    def at(cls, pointer: str):
        """Re-raise a ValidationError from the block as a SchemaError at ``pointer``."""
        try:
            yield
        except ValidationError as exc:
            raise cls(pointer, str(exc)) from None


class ConvergenceError(BathkitError):
    """An iterative solver failed to converge.

    ``diagnostics`` holds whatever partial results were available when the
    solver gave up (may be None).
    """

    def __init__(self, message: str, diagnostics=None):
        self.diagnostics = diagnostics
        super().__init__(message)


class ResourceLimitError(BathkitError):
    """A call would allocate more bytes than its memory cap allows."""
