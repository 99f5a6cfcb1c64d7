"""Lexer for the PROB concrete syntax.

Produces a flat list of :class:`Token`; the parser indexes into it.
Comments (``// ...`` and ``/* ... */``) and whitespace are skipped.

One compiled master regex (:data:`_TOKEN_RE`) recognizes each token,
together with the blanks before it, in a single match.  It is exact on
ASCII only.  The lexer's character classes are Python's ``str``
predicates, and no regex class equals them outside ASCII:

* a number starts with and continues over ``str.isdigit`` characters
  (``\\d`` is ``str.isdecimal``, which misses ``²``; ``[0-9]`` misses
  ``٣``);
* an identifier starts with a ``str.isalpha`` character or ``_`` and
  continues over ``str.isalnum`` ones (``\\w`` also takes ``²`` at the
  start).

So a number or identifier that starts with or runs into a non-ASCII
character is scanned again by :func:`_scan`, one character at a time
with those predicates, as are malformed numbers and characters no
token starts with.  Columns count code points, with a tab or carriage
return as one column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Tuple

from .errors import ProbSyntaxError

__all__ = ["Token", "tokenize", "KEYWORDS"]

#: Reserved words.  ``double`` is accepted as a synonym for ``float`` in
#: declarations, matching the paper's C-flavoured examples.
KEYWORDS = frozenset(
    {
        "skip",
        "observe",
        "factor",
        "if",
        "else",
        "while",
        "return",
        "true",
        "false",
        "bool",
        "int",
        "float",
        "double",
        "then",
        "do",
    }
)

#: One token per match, after any spaces, tabs and carriage returns.
#: Alternatives are tried in order, the most frequent first; two-character
#: operators come before their one-character prefixes, and ``/`` is an
#: operator only where no comment starts.  ``OTHER`` takes any character
#: no earlier alternative starts with (non-ASCII characters, a ``.``
#: that starts no ASCII number, a stray ``&``, ...); :func:`_scan`
#: decides what it starts.
_TOKEN_RE = re.compile(
    r"""[ \t\r]*(?:
        (?P<OP>&&|\|\||[=!<>]=|[-<>+*%!=~;,(){}]|/(?![/*]))
      | (?P<WORD>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<NUMBER>(?:[0-9]|\.(?=[0-9]))[0-9.]*(?P<EXPONENT>[eE][+-]?[0-9]+)?)
      | (?P<NEWLINE>\n[ \t\r\n]*)
      | (?P<LINE_COMMENT>//[^\n]*)
      | (?P<BLOCK_COMMENT>/\*[\s\S]*?\*/)
      | (?P<OPEN_COMMENT>/\*)
      | (?P<END>\Z)
      | (?P<OTHER>[\s\S])
    )""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    """A lexical token.

    ``kind`` is one of ``IDENT``, ``INT``, ``FLOAT``, ``KEYWORD``,
    ``OP``, or ``EOF``; ``text`` is the matched source text.
    """

    kind: str
    text: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.kind}({self.text!r})"


def _scan(source: str, start: int, line: int, column: int) -> Tuple[str, int]:
    """The kind and end of the token at ``start`` under the lexer's
    character-by-character rules: a number (``str.isdigit``), an
    identifier or keyword (``str.isalpha`` then ``str.isalnum``), or
    else an error at ``line``/``column``."""
    n = len(source)
    i = start
    ch = source[i]
    if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
        is_float = False
        while i < n and (source[i].isdigit() or source[i] == "."):
            if source[i] == ".":
                if is_float:
                    raise ProbSyntaxError("malformed number", line, column)
                is_float = True
            i += 1
        # Exponent part: 1e-3, 2.5E+7
        if i < n and source[i] in "eE":
            i += 1
            is_float = True
            if i < n and source[i] in "+-":
                i += 1
            if i >= n or not source[i].isdigit():
                raise ProbSyntaxError("malformed exponent", line, column)
            while i < n and source[i].isdigit():
                i += 1
        return ("FLOAT" if is_float else "INT"), i
    if ch.isalpha() or ch == "_":
        i += 1
        while i < n and (source[i].isalnum() or source[i] == "_"):
            i += 1
        return ("KEYWORD" if source[start:i] in KEYWORDS else "IDENT"), i
    raise ProbSyntaxError(f"unexpected character {ch!r}", line, column)


def tokenize(source: str) -> List[Token]:
    """Tokenize PROB source text, raising :class:`ProbSyntaxError` on
    unrecognized characters or unterminated comments."""
    tokens: List[Token] = []
    append = tokens.append
    match = _TOKEN_RE.match
    n = len(source)
    pos = 0
    line = 1
    line_start = 0  # index of the current line's first character
    while True:
        m = match(source, pos)
        group = m.lastgroup
        start = m.start(group)
        pos = m.end()
        if group == "OP":
            append(Token("OP", m.group(group), line, start - line_start + 1))
            continue
        column = start - line_start + 1
        if group == "WORD":
            if pos < n and source[pos] >= "\x80":
                kind, pos = _scan(source, start, line, column)
            else:
                kind = "KEYWORD" if m.group(group) in KEYWORDS else "IDENT"
        elif group == "NUMBER":
            text = m.group(group)
            exponent = m.start("EXPONENT") >= 0
            if text.count(".") > 1 or pos < n and (
                source[pos] >= "\x80" or (not exponent and source[pos] in "eE")
            ):
                # Malformed, or running into a non-ASCII digit.
                kind, pos = _scan(source, start, line, column)
            else:
                kind = "FLOAT" if exponent or "." in text else "INT"
        elif group == "OTHER":
            kind, pos = _scan(source, start, line, column)
        elif group == "NEWLINE" or group == "BLOCK_COMMENT":
            text = m.group(group)
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = start + text.rfind("\n") + 1
            continue
        elif group == "LINE_COMMENT":
            continue
        elif group == "END":
            append(Token("EOF", "", line, n - line_start + 1))
            return tokens
        else:  # OPEN_COMMENT
            raise ProbSyntaxError("unterminated comment", line, column)
        append(Token(kind, source[start:pos], line, column))
