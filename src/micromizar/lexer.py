"""Tokenizer for article text.

No token spans a line, so the article is read one line at a time, and
only ``\\n`` ends a line (``str.split``, not ``str.splitlines``, which
also breaks at characters such as ``\\x0c`` and ``\\u2028``).  One
compiled pattern reads each line: at each match it skips blanks (space,
tab, ``\\r``) and ``::`` comments, which run to the end of the line (so
the ``::>`` marker lines of an annotated copy are skipped too), then
takes one token:

* a symbol from `SYMBOLS`, longest spelling first.  ``c=`` is the one
  symbol that starts like an identifier: ``c`` followed at once by
  ``=`` is ``c=`` only when the ``c`` is a whole identifier, so ``abc=``
  is ``abc`` then ``=``;
* a word: a character for which `str.isalpha` holds, or ``_``, then
  characters for which `str.isalnum` holds, or ``_``.  A word in
  `KEYWORDS` is a keyword, any other an identifier.  A digit that is
  not ASCII (``²``, ``٣``) cannot start a word;
* a numeral: ASCII digits only (`str.isdigit` also admits ``²``, which
  `int` rejects);
* ``$`` and the ASCII digits after it; ``$`` without digits is error 90
  at the ``$``.

Any other character is error 90 at its own position.  `scan` makes each
error an ``error`` token, whose text is the error's note, and reads on,
so the parser reports it and loses only its item; `tokenize` raises at
the first one.  The token list ends with an ``eof`` token at the
position just past the text.  Lines and columns count from 1; a column
counts characters, not bytes, and a tab or ``\\r`` is one column like
any other character.  No keyword or symbol shares its text with a
token of another kind, so the parser tests them by text alone.

A token is an exact tuple ``(kind, text, line, col)``, `Token`.  The
cyclic garbage collector untracks an exact tuple of strings and ints at
its first collection, but never a tuple subclass such as a
``NamedTuple``, so an article's tokens cost the collector nothing after
that.  A node's position, ``tok[2:]``, is an exact tuple too (see
`errors.SourcePos`).
"""

from __future__ import annotations

import re

from .errors import MizarError

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

SYMBOLS = frozenset('\\+\\ ... <i> c= <= >= <> -> \\/ /\\ ( ) [ ] { } , ; : = < > + - * / \\ & "'.split())

# One group per token kind.  ``sym`` comes first so that ``c=`` beats the
# identifier ``c``; ``[^\W\d]`` in ``other`` also admits digits such as
# ``²``, hence the `str.isalpha` test.  The last match, at ``\Z``, has no group.
_TOKEN = re.compile(
    r"(?:[ \t\r]+|::.*)*(?:(?P<sym>{})|(?P<ident>[A-Za-z_]\w*)|(?P<num>[0-9]+)"
    r"|(?P<dollar>\$[0-9]*)|(?P<other>[^\W\d]\w*|.)|\Z)".format(
        "|".join(map(re.escape, sorted(SYMBOLS, key=lambda s: (-len(s), s))))
    )
)


Token = tuple[str, str, int, int]  # kind ("kw" "ident" "num" "sym" "dollar" "error" "eof"), text, line, col


def tokenize(text: str) -> list[Token]:
    """The tokens of `text`; error 90 at the first bad character."""
    tokens = scan(text)
    for t in tokens:
        if t[0] == "error":
            raise MizarError(t[2:], 90, t[1])
    return tokens


def scan(text: str) -> list[Token]:
    out: list[Token] = []
    for line, row in enumerate(text.split("\n"), 1):
        for m in _TOKEN.finditer(row):
            kind = m.lastgroup
            if kind is None:
                break
            col = m.start(kind) + 1
            word = m.group(kind)
            if kind == "ident":
                if word in KEYWORDS:
                    kind = "kw"
            elif kind == "dollar":
                if len(word) == 1:
                    kind, word = "error", "expected digits after $"
                else:
                    word = word[1:]
            elif kind == "other":
                if word[0].isalpha():
                    kind = "ident"
                else:
                    kind, word = "error", f"unexpected character {word[0]!r}"
            out.append((kind, word, line, col))
    out.append(("eof", "", line, len(row) + 1))
    return out
