"""Shared exception types.

The CLI maps these onto exit codes: UsageError -> 1; any other
FakeflowError, and an OSError from a file the CLI cannot read or write,
-> 2.
"""


class FakeflowError(Exception):
    """Base class for all toolkit errors."""


class UsageError(FakeflowError):
    """Caller misuse: bad arguments, wrong call order, unknown mode."""


class DataError(FakeflowError):
    """Problems with input data or configuration files."""


class ParseError(DataError):
    """Malformed record in a corpus, lexicon, or prediction file."""


class ConfigError(DataError):
    """Invalid or incomplete configuration."""


class EmptyDocument(DataError):
    """A document had no tokens left after tokenization."""


class StratificationError(DataError):
    """A label class is too small to split."""


class ShapeError(FakeflowError):
    """Array arguments whose shapes do not conform to an operation."""


class NumericsError(FakeflowError):
    """An operation produced a non-finite value."""


class UnsupportedMode(UsageError):
    """The requested output does not exist for this model mode."""
