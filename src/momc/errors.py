"""Error types shared by all compiler stages.

Every user-facing error derives from CompileError and carries a source
location when one is known; the CLI formats them as `origin:line:col: message`.
"""

from __future__ import annotations


class CompileError(Exception):
    """Base class for all diagnosable compilation failures."""

    def __init__(self, message: str, *, line: int | None = None,
                 col: int | None = None) -> None:
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col
        # The input's name; the CLI sets it, the library knows no file names.
        self.origin: str | None = None

    def at(self, line: int | None, col: int | None) -> "CompileError":
        """Attach a source location in place (used when the raise site has none)."""
        if self.line is None:
            self.line = line
        if self.col is None:
            self.col = col
        return self

    def __str__(self) -> str:
        prefix = ""
        if self.origin is not None:
            prefix += f"{self.origin}:"
        if self.line is not None:
            prefix += f"{self.line}:"
            if self.col is not None:
                prefix += f"{self.col}:"
        if prefix:
            return f"{prefix} error: {self.message}"
        return f"error: {self.message}"


class LexError(CompileError):
    """Character outside the grammar."""

    def __init__(self, line: int, col: int, char: str) -> None:
        super().__init__(f"unexpected character {char!r}", line=line, col=col)
        self.char = char


class ParseError(CompileError):
    """Token stream does not match the grammar."""

    def __init__(self, line: int, col: int, expected: tuple[str, ...],
                 found: str) -> None:
        want = " or ".join(expected)
        super().__init__(f"expected {want}, found {found}", line=line, col=col)
        self.expected = expected
        self.found = found


class UndeclaredIdentifier(CompileError):
    pass


class DuplicateDeclaration(CompileError):
    pass


class UnknownProperty(CompileError):
    pass


class UnboundConstant(CompileError):
    pass


class NonPositiveDimension(CompileError):
    pass


class NonSquareStructuralProperty(CompileError):
    pass


class MultipleAssignment(CompileError):
    pass


class UseBeforeAssign(CompileError):
    pass


class AssignToIdentity(CompileError):
    pass


class DimMismatch(CompileError):
    """Incompatible operand shapes, raised by kernels and the chain solver."""


class NonFiniteValue(CompileError):
    """A fill or kernel made an entry infinite or NaN at run time."""


class BrokenStoredPattern(CompileError):
    """A buffer holds a nonzero outside its type's stored pattern at a print.
    The compiler broke a property it put in the type; nothing is printed."""


class AllocationError(CompileError):
    """A tensor's buffer could not be allocated at run time."""


class UnresolvedTerm(CompileError):
    """Loop lowering reached a value whose type is still a placeholder term."""


class ResolutionError(CompileError):
    """Type resolution failed inside an equation (dims or element kinds clash)."""
