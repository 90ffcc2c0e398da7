"""Shared exception types."""


class ChardegError(Exception):
    """Base class for errors raised by this package."""


class ParseError(ChardegError):
    """Malformed group file or permutation/matrix payload."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class GroupTooLargeError(ChardegError):
    """An input exceeds one of the size limits, module constants such as
    groups.DEFAULT_ELEMENT_BOUND, checked before large arrays exist."""


class NotMemberError(ChardegError):
    """An element was expected to lie in a group but does not."""


class NotNormalError(ChardegError):
    """A subgroup was expected to be normal but is not."""


class ValidationError(ChardegError):
    """A corpus entry failed its expected-value block."""


class TableError(ChardegError):
    """Character table construction failed an internal exactness check."""
