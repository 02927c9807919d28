"""Tokenizer for article text.

Symbols are matched longest-first from a fixed table; ``::`` starts a
comment running to end of line (which also swallows the ``::>`` marker
lines an annotated copy contains, so annotated articles stay
parseable).  ``c=`` is the one spelling that fuses an identifier
character with ``=``: it is recognized only when the two characters
are adjacent.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MizarError, SourcePos

KEYWORDS = frozenset(
    """
    environ requirements begin theorem scheme proof end now let be being
    assume thus hence take consider given reconsider as such that st holds
    for ex not or implies iff is by from then per cases suppose case
    definition registration cluster deffunc defpred means equals mode attr
    pred func of the non provided and contradiction thesis it expandable
    existence coherence uniqueness where
    """.split()
)

# ASCII only: str.isdigit() also admits characters such as "²" that
# int() rejects
DIGITS = frozenset("0123456789")

# longest first so that prefixes never shadow longer spellings
SYMBOLS = (
    "\\+\\",
    "...",
    "<i>",
    "c=",
    "<=",
    ">=",
    "<>",
    "->",
    "\\/",
    "/\\",
    "::",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
    ",",
    ";",
    ":",
    "=",
    "<",
    ">",
    "+",
    "-",
    "*",
    "/",
    "\\",
    "&",
    '"',
)


@dataclass(frozen=True)
class Token:
    kind: str  # "kw" | "ident" | "num" | "sym" | "dollar" | "eof"
    text: str
    pos: SourcePos

    def is_kw(self, word: str) -> bool:
        return self.kind == "kw" and self.text == word

    def is_sym(self, sym: str) -> bool:
        return self.kind == "sym" and self.text == sym


def tokenize(text: str) -> list[Token]:
    out: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)

    def pos() -> SourcePos:
        return SourcePos(line, col)

    def advance(k: int) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if text.startswith("::", i):
            while i < n and text[i] != "\n":
                advance(1)
            continue
        p = pos()
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            advance(j - i)
            if word == "c" and i < n and text[i] == "=":
                advance(1)
                out.append(Token("sym", "c=", p))
            elif word in KEYWORDS:
                out.append(Token("kw", word, p))
            else:
                out.append(Token("ident", word, p))
            continue
        if ch in DIGITS:
            j = i
            while j < n and text[j] in DIGITS:
                j += 1
            out.append(Token("num", text[i:j], p))
            advance(j - i)
            continue
        if ch == "$":
            j = i + 1
            while j < n and text[j] in DIGITS:
                j += 1
            if j == i + 1:
                raise MizarError(p, 90, "expected digits after $")
            out.append(Token("dollar", text[i + 1 : j], p))
            advance(j - i)
            continue
        for sym in SYMBOLS:
            if text.startswith(sym, i):
                out.append(Token("sym", sym, p))
                advance(len(sym))
                break
        else:
            raise MizarError(p, 90, f"unexpected character {ch!r}")
    out.append(Token("eof", "", pos()))
    return out
