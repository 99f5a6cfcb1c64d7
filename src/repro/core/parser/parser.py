"""Recursive-descent parser for the PROB concrete syntax.

Grammar (statements end in ``;``; bodies are brace-enclosed)::

    program   := stmt* 'return' expr ';'
    stmt      := 'skip' ';'
               | type ident (',' ident)* ';'
               | ident '=' expr ';'
               | ident '~' distcall ';'
               | 'observe' '(' expr ')' ';'
               | 'observe' '(' distcall ',' expr ')' ';'
               | 'factor' '(' expr ')' ';'
               | 'if' '(' expr ')' ['then'] block ('else' block)?
               | 'while' '(' expr ')' ['do'] block
    block     := '{' stmt* '}' | stmt
    distcall  := CapitalizedIdent '(' (expr (',' expr)*)? ')'

Inside expressions a bare ``=`` is accepted as equality, so the paper's
``observe(l = true)`` parses directly.  Distribution calls are
recognized by an identifier immediately followed by ``(`` — PROB has no
user-defined functions, so there is no ambiguity.
"""

from __future__ import annotations

from typing import List, Tuple

from ..ast import (
    Assign,
    Binary,
    Const,
    Decl,
    DistCall,
    Expr,
    Factor,
    If,
    Observe,
    ObserveSample,
    Program,
    Sample,
    SKIP,
    Skip,
    Stmt,
    TupleExpr,
    Unary,
    Var,
    While,
    seq,
)
from .errors import ProbSyntaxError
from .lexer import Token, tokenize

__all__ = ["parse", "parse_statement", "parse_expr"]

_TYPE_KEYWORDS = {"bool", "int", "float", "double"}

# Binary operator precedence levels, loosest first; each level is
# left-associative.  ``=`` is treated as ``==``.
_BINARY_LEVELS: List[Tuple[str, ...]] = [
    ("||",),
    ("&&",),
    ("==", "!=", "<", "<=", ">", ">=", "="),
    ("+", "-"),
    ("*", "/", "%"),
]


class _Parser:
    """One frame per precedence level, and a fixed set of calls on the
    way down a nesting: together they decide where too-deep input
    meets the interpreter's recursion limit (about 110 nested
    parentheses at the default limit) and which ``RecursionError``
    message it gets, since the message names whichever check trips
    first — a frame, a call to ``min``, a comparison.  So each method's
    first token read goes through the plumbing below, calls and all.
    A later read in the same method follows a call that went at least
    as deep (a sub-parse, ``_peek``, ``_expect``, ``_match``), so it
    cannot be the first to reach a depth: it indexes the token list
    directly or uses ``_take``, which changes nothing but the time
    taken.
    """

    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # -- token plumbing -----------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        return self._tokens[min(self._pos + offset, len(self._tokens) - 1)]

    def _next(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != "EOF":
            self._pos += 1
        return tok

    def _error(self, message: str) -> ProbSyntaxError:
        tok = self._peek()
        return ProbSyntaxError(f"{message}, found {tok}", tok.line, tok.column)

    def _expect(self, kind: str, text: str = "") -> Token:
        tok = self._peek()
        if tok.kind != kind or (text and tok.text != text):
            want = text or kind
            raise self._error(f"expected {want!r}")
        return self._next()

    def _match(self, kind: str, text: str = "") -> bool:
        tok = self._peek()
        if tok.kind == kind and (not text or tok.text == text):
            self._next()
            return True
        return False

    def _take(self, kind: str, text: str) -> bool:
        """``_match`` for a read that follows a deeper call in the same
        method (see the class docstring); ``_take(...) or _expect(...)``
        leaves the error path to ``_expect``."""
        tok = self._tokens[self._pos]
        if tok.kind == kind and tok.text == text:
            self._pos += 1
            return True
        return False

    # -- expressions ----------------------------------------------------------

    def parse_expr(self) -> Expr:
        return self._parse_binary(0)

    def _parse_binary(self, level: int) -> Expr:
        if level >= len(_BINARY_LEVELS):
            return self._parse_unary()
        ops = _BINARY_LEVELS[level]
        left = self._parse_binary(level + 1)
        tok = self._tokens[self._pos]
        while tok.kind == "OP" and tok.text in ops:
            self._pos += 1
            op = tok.text
            if op == "=":
                op = "=="
            right = self._parse_binary(level + 1)
            left = Binary(op, left, right)
            tok = self._tokens[self._pos]
        return left

    def _parse_unary(self) -> Expr:
        tok = self._peek()
        if tok.kind == "OP" and tok.text in ("!", "-"):
            self._pos += 1
            operand = self._parse_unary()
            # Fold negated numeric literals so `-0.5` round-trips as
            # the constant the builder DSL produces.
            if (
                tok.text == "-"
                and isinstance(operand, Const)
                and not isinstance(operand.value, bool)
            ):
                return Const(-operand.value)
            return Unary(tok.text, operand)
        return self._parse_atom()

    def _parse_atom(self) -> Expr:
        tok = self._peek()
        if tok.kind == "OP" and tok.text == "(":
            self._pos += 1
            expr = self.parse_expr()
            self._take("OP", ")") or self._expect("OP", ")")
            return expr
        if tok.kind == "INT":
            self._pos += 1
            return Const(int(tok.text))
        if tok.kind == "FLOAT":
            self._pos += 1
            return Const(float(tok.text))
        if tok.kind == "KEYWORD" and tok.text in ("true", "false"):
            self._pos += 1
            return Const(tok.text == "true")
        if tok.kind == "IDENT":
            # ``tuple(E1, ..., En)`` — the factorisation pass's joint
            # return expression.  PROB has no other function-call
            # syntax in expressions, so this is unambiguous.
            if (
                tok.text == "tuple"
                and self._peek(1).kind == "OP"
                and self._peek(1).text == "("
            ):
                self._next()
                self._next()
                elements: List[Expr] = []
                if not (self._peek().kind == "OP" and self._peek().text == ")"):
                    elements.append(self.parse_expr())
                    tok = self._tokens[self._pos]
                    while tok.kind == "OP" and tok.text == ",":
                        self._pos += 1
                        elements.append(self.parse_expr())
                        tok = self._tokens[self._pos]
                self._expect("OP", ")")
                return TupleExpr(tuple(elements))
            self._pos += 1
            return Var(tok.text)
        raise self._error("expected an expression")

    def _parse_dist_call(self) -> DistCall:
        name = self._expect("IDENT").text
        self._take("OP", "(") or self._expect("OP", "(")
        args: List[Expr] = []
        tok = self._tokens[self._pos]
        if not (tok.kind == "OP" and tok.text == ")"):
            args.append(self.parse_expr())
            tok = self._tokens[self._pos]
            while tok.kind == "OP" and tok.text == ",":
                self._pos += 1
                args.append(self.parse_expr())
                tok = self._tokens[self._pos]
        self._take("OP", ")") or self._expect("OP", ")")
        return DistCall(name, tuple(args))

    # -- statements -----------------------------------------------------------

    def parse_block(self) -> Stmt:
        if self._match("OP", "{"):
            stmts: List[Stmt] = []
            tok = self._tokens[self._pos]
            while not (tok.kind == "OP" and tok.text == "}"):
                if tok.kind == "EOF":
                    raise self._error("unterminated block, expected '}'")
                stmts.append(self.parse_statement())
                tok = self._tokens[self._pos]
            self._expect("OP", "}")
            return seq(*stmts)
        return self.parse_statement()

    def parse_statement(self) -> Stmt:
        tok = self._peek()
        if tok.kind == "KEYWORD":
            if tok.text == "skip":
                self._next()
                self._expect("OP", ";")
                return SKIP
            if tok.text in _TYPE_KEYWORDS:
                return self._parse_declaration()
            if tok.text == "observe":
                return self._parse_observe()
            if tok.text == "factor":
                self._next()
                self._expect("OP", "(")
                expr = self.parse_expr()
                self._expect("OP", ")")
                self._expect("OP", ";")
                return Factor(expr)
            if tok.text == "if":
                return self._parse_if()
            if tok.text == "while":
                return self._parse_while()
            raise self._error("unexpected keyword")
        if tok.kind == "IDENT":
            name = tok.text
            self._pos += 1
            if self._match("OP", "="):
                expr = self.parse_expr()
                self._take("OP", ";") or self._expect("OP", ";")
                return Assign(name, expr)
            if self._take("OP", "~"):
                dcall = self._parse_dist_call()
                self._take("OP", ";") or self._expect("OP", ";")
                return Sample(name, dcall)
            raise self._error("expected '=' or '~' after identifier")
        raise self._error("expected a statement")

    def _parse_declaration(self) -> Stmt:
        type_name = self._next().text
        if type_name == "double":
            type_name = "float"
        names = [self._expect("IDENT").text]
        while self._match("OP", ","):
            names.append(self._expect("IDENT").text)
        self._expect("OP", ";")
        return seq(*(Decl(name, type_name) for name in names))

    def _parse_observe(self) -> Stmt:
        self._next()  # 'observe'
        self._expect("OP", "(")
        # A distribution call is an identifier immediately followed by
        # '(' — there are no function calls in PROB expressions.
        nxt, after = self._peek(), self._peek(1)
        if (
            nxt.kind == "IDENT"
            and after.kind == "OP"
            and after.text == "("
        ):
            dcall = self._parse_dist_call()
            self._take("OP", ",") or self._expect("OP", ",")
            value = self.parse_expr()
            self._take("OP", ")") or self._expect("OP", ")")
            self._take("OP", ";") or self._expect("OP", ";")
            return ObserveSample(dcall, value)
        cond = self.parse_expr()
        self._take("OP", ")") or self._expect("OP", ")")
        self._take("OP", ";") or self._expect("OP", ";")
        return Observe(cond)

    def _parse_if(self) -> Stmt:
        self._next()  # 'if'
        self._expect("OP", "(")
        cond = self.parse_expr()
        self._expect("OP", ")")
        self._match("KEYWORD", "then")
        then_branch = self.parse_block()
        else_branch: Stmt = SKIP
        if self._match("KEYWORD", "else"):
            else_branch = self.parse_block()
        return If(cond, then_branch, else_branch)

    def _parse_while(self) -> Stmt:
        self._next()  # 'while'
        self._expect("OP", "(")
        cond = self.parse_expr()
        self._expect("OP", ")")
        self._match("KEYWORD", "do")
        body = self.parse_block()
        return While(cond, body)

    def parse_program(self) -> Program:
        stmts: List[Stmt] = []
        while not self._match("KEYWORD", "return"):
            if self._peek().kind == "EOF":
                raise self._error("expected 'return' before end of input")
            stmts.append(self.parse_statement())
        ret = self.parse_expr()
        self._expect("OP", ";")
        self._expect("EOF")
        return Program(seq(*stmts), ret)


def parse(source: str) -> Program:
    """Parse a full PROB program (statements followed by ``return E;``)."""
    return _Parser(tokenize(source)).parse_program()


def parse_statement(source: str) -> Stmt:
    """Parse a single statement or brace-enclosed block."""
    parser = _Parser(tokenize(source))
    stmts = []
    while parser._peek().kind != "EOF":
        stmts.append(parser.parse_statement())
    return seq(*stmts)


def parse_expr(source: str) -> Expr:
    """Parse a standalone expression."""
    parser = _Parser(tokenize(source))
    expr = parser.parse_expr()
    parser._expect("EOF")
    return expr
