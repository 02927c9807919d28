"""Error codes, positions and the per-article error report.

The code table is small and fixed, and ``ERROR_MESSAGES`` below is its
only copy: a second hand-kept list would drift from it.  Positions
print as ``line:col``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

ERROR_MESSAGES = {
    51: "Invalid skeleton step",
    52: "Type mismatch",
    53: "Attributed type has no existence registration",
    61: "Inference not accepted by the checker",
    62: "Scheme instantiation: sign mismatch on a scheme variable",
    63: "Scheme instantiation: head mismatch",
    64: "Scheme instantiation: conflicting assignment",
    65: "Scheme instantiation: wrong number of premises",
    66: "Clause limit exceeded while normalizing the goal",
    67: "Search budget exhausted",
    70: "Something remains to be proved",
    71: "Statement does not match the shape of the thesis",
    90: "Syntax error",
    91: "Unknown identifier",
    92: "Wrong number of arguments",
    93: "Duplicate label",
    94: "Malformed flexary conjunction",
    95: "Construct requires a requirement that is not enabled",
    99: "Internal error while checking this item",
}


Pos = tuple[int, int]  # (line, col), both 1-based; a `SourcePos` is one too


class SourcePos(NamedTuple):
    """A position that is read by field or printed: an error's, a
    top-level item's, an internal error's or a trace record's.  Any other
    is a plain `Pos`, which the collector untracks at its first
    collection, as it never does a tuple subclass.  Equal to the pair."""

    line: int  # 1-based
    col: int  # 1-based

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


@dataclass(frozen=True)
class VerifyError:
    pos: SourcePos  # given as any `Pos`
    code: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "pos", SourcePos(*self.pos))

    @property
    def message(self) -> str:
        return ERROR_MESSAGES.get(self.code, "Unknown error")


class MizarError(Exception):
    """Internal signal carrying a reportable error."""

    def __init__(self, pos: Pos, code: int, note: str = ""):
        self.pos = SourcePos(*pos)
        super().__init__(f"{self.pos}: {code}" + (f" ({note})" if note else ""))
        self.code = code
        self.note = note

    def to_error(self) -> VerifyError:
        return VerifyError(self.pos, self.code)


class RequirementFileError(Exception):
    """Raised for problems in the requirements table file itself."""
