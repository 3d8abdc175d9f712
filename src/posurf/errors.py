"""Exception types shared across the package."""

from __future__ import annotations

__all__ = ["PosurfError", "DomainError", "ParseError", "CrossCheckError"]


class PosurfError(Exception):
    """Base class for all library errors."""


class DomainError(PosurfError):
    """A contract violation: unknown face, bad parameter, wrong structure."""


class ParseError(PosurfError):
    """Malformed input text. Carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CrossCheckError(PosurfError):
    """The fast and recursive classifications disagreed on an instance."""

    def __init__(self, message: str, artifact: str | None = None):
        self.artifact = artifact
        if artifact:
            message = f"{message} (instance dumped to {artifact})"
        super().__init__(message)
