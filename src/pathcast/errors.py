"""Exception types shared across the package."""


class PathcastError(Exception):
    """Base class for all pathcast evaluation errors."""


class DomainError(PathcastError, ValueError):
    """An input lies outside an operation's mathematical domain."""


class BoundsError(PathcastError, ValueError):
    """A value falls outside a table grid or search bracket."""


class CurveParseError(PathcastError, ValueError):
    """A curve table is malformed; read from CSV, the message carries the line number."""


class CurveLookupError(PathcastError, KeyError):
    """A requested environment has no rows in the curve table."""

    __str__ = Exception.__str__  # the message as given, not quoted as KeyError quotes a key
