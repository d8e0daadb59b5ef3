"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: usage errors exit 1, data errors exit 2,
numerical failures exit 3.
"""


class LexnerError(Exception):
    """Base class for all toolkit errors."""


class UsageError(LexnerError):
    """Bad command-line invocation or configuration key."""


class DataError(LexnerError):
    """Malformed or inconsistent input data."""


class ParseError(DataError):
    """Unparseable input file; carries a 1-based line number: "[PATH: ]line N: ..."."""

    def __init__(self, message: str, line: int, path=None):
        where = f"line {line}" if path is None else f"{path}: line {line}"
        super().__init__(f"{where}: {message}")
        self.line = line


class SchemeError(DataError):
    """Tag sequence invalid under the active tagging scheme."""

    def __init__(self, message: str, position: int):
        super().__init__(f"position {position}: {message}")
        self.position = position


class FormatError(DataError):
    """Corrupt or incompatible file; carries a byte offset when known."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class NumericalError(LexnerError):
    """Non-finite values or failed numerical checks during training."""
