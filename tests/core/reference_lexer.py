"""Reference lexer: the per-character PROB lexer, kept verbatim.

This is the implementation :mod:`repro.core.parser.lexer` had before
its master-regex rewrite.  The differential tests in
``tests/core/test_frontend_differential.py`` hold the production lexer
to it on every input: same tokens (kind, text, line, column) and the
same exceptions.  Only the imports differ from the original module:
``Token`` and ``ProbSyntaxError`` are the production classes, so the
two token streams compare with ``==``.
"""

from __future__ import annotations

from typing import List

from repro.core.parser.errors import ProbSyntaxError
from repro.core.parser.lexer import Token

__all__ = ["tokenize", "KEYWORDS"]


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

# Multi-character operators must be tried before their prefixes.
_OPERATORS = [
    "&&",
    "||",
    "==",
    "!=",
    "<=",
    ">=",
    "<",
    ">",
    "+",
    "-",
    "*",
    "/",
    "%",
    "!",
    "=",
    "~",
    ";",
    ",",
    "(",
    ")",
    "{",
    "}",
]


def tokenize(source: str) -> List[Token]:
    """Tokenize PROB source text, raising :class:`ProbSyntaxError` on
    unrecognized characters or unterminated comments."""
    tokens: List[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    def advance(count: int) -> None:
        nonlocal i, line, col
        for _ in range(count):
            if i < n and source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                advance(1)
            continue
        if source.startswith("/*", i):
            start_line, start_col = line, col
            advance(2)
            while i < n and not source.startswith("*/", i):
                advance(1)
            if i >= n:
                raise ProbSyntaxError("unterminated comment", start_line, start_col)
            advance(2)
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            start = i
            start_line, start_col = line, col
            is_float = False
            while i < n and (source[i].isdigit() or source[i] == "."):
                if source[i] == ".":
                    if is_float:
                        raise ProbSyntaxError(
                            "malformed number", start_line, start_col
                        )
                    is_float = True
                advance(1)
            # Exponent part: 1e-3, 2.5E+7
            if i < n and source[i] in "eE":
                advance(1)
                is_float = True
                if i < n and source[i] in "+-":
                    advance(1)
                if i >= n or not source[i].isdigit():
                    raise ProbSyntaxError("malformed exponent", start_line, start_col)
                while i < n and source[i].isdigit():
                    advance(1)
            text = source[start:i]
            kind = "FLOAT" if is_float else "INT"
            tokens.append(Token(kind, text, start_line, start_col))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            start_line, start_col = line, col
            while i < n and (source[i].isalnum() or source[i] == "_"):
                advance(1)
            text = source[start:i]
            kind = "KEYWORD" if text in KEYWORDS else "IDENT"
            tokens.append(Token(kind, text, start_line, start_col))
            continue
        for op in _OPERATORS:
            if source.startswith(op, i):
                tokens.append(Token("OP", op, line, col))
                advance(len(op))
                break
        else:
            raise ProbSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens
