"""Tokenizer for MiniLang source text.

One master pattern has an alternative per token kind and is matched at the
cursor (the tokenizer recipe in the :mod:`re` documentation).  Only skipped
text (whitespace and comments) can span lines, so positions are kept as the
current line and the index where it starts.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .._util import TYPED_EQUALITY
from .ast import MiniLangSyntaxError, Position

KEYWORDS = {
    "class", "interface", "extends", "implements",
    "public", "protected", "private", "static", "abstract",
    "throws", "return", "throw", "if", "else", "try", "catch",
    "new", "this", "super", "null", "true", "false",
}

_TOKEN = re.compile(r"""
    (?P<skip>[ \t\r\n]+|//[^\n]*|/\*.*?\*/)
  | "(?P<string>[^"\n]*)"
  | (?P<int>\d+)
  | (?P<word>\w+)
  | (?P<op>[=!]=|=)
  | (?P<punct>[{}(),;.])
  | (?P<error>.)
""", re.VERBOSE | re.DOTALL)


class Token(NamedTuple):
    kind: str  # "ident" | "keyword" | "int" | "string" | "punct" | "op" | "eof"
    value: str
    pos: Position
    __eq__, __ne__, __hash__ = TYPED_EQUALITY


def tokenize(text: str) -> list[Token]:
    """Produce the token stream; raises :class:`MiniLangSyntaxError` on the
    first bad character.

    ``int`` is a run of decimal digits, exactly what :func:`int` accepts; an
    identifier starts with a letter (``str.isalpha``) or ``_``.  Tokens and
    positions are built with ``tuple.__new__``, which skips the named
    tuples' Python-level constructors and makes the same values.
    """
    new = tuple.__new__
    tokens: list[Token] = []
    line, line_start = 1, 0
    for match in _TOKEN.finditer(text):
        kind, value, start = match.lastgroup, match[match.lastgroup], match.start()
        if kind == "skip":
            newlines = value.count("\n")
            if newlines:
                line += newlines
                line_start = start + value.rindex("\n") + 1
            continue
        pos = new(Position, (line, start - line_start + 1))
        if kind == "word":
            if not (value[0].isalpha() or value[0] == "_"):
                kind, value = "error", value[0]
            else:
                kind = "keyword" if value in KEYWORDS else "ident"
        if kind == "error":
            if text.startswith("/*", start):
                message = "unterminated block comment"
            elif value == '"':
                message = "unterminated string literal"
            else:
                message = f"unexpected character {value!r}"
            raise MiniLangSyntaxError(pos, message)
        tokens.append(new(Token, (kind, value, pos)))
    tokens.append(new(Token, ("eof", "", new(Position, (line, len(text) - line_start + 1)))))
    return tokens
