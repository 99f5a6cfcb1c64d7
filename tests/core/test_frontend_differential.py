"""Differential tests: the production lexer and parser against the
verbatim pre-rewrite references in ``tests/core/reference_lexer.py``
and ``tests/core/reference_parser.py``.

Every input goes to both implementations unmodified.  They must agree
on the tokens (kind, text, line, column), on the AST, and on any
exception (type, message, and for syntax errors line and column) —
today's bugs included, which are pinned by name below so a deliberate
fix shows up as a failing test.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.parser import parse, parse_expr, parse_statement, tokenize
from repro.core.printer import pretty
from repro.models.registry import TABLE1

from tests.core import reference_lexer, reference_parser
from tests.strategies import programs

CORPUS = Path(__file__).resolve().parent.parent / "qa_corpus"

#: (production, reference) pairs of every front-end entry point.
ENTRY_POINTS = {
    "tokenize": (tokenize, reference_lexer.tokenize),
    "parse": (parse, reference_parser.parse),
    "parse_expr": (parse_expr, reference_parser.parse_expr),
    "parse_statement": (parse_statement, reference_parser.parse_statement),
}


def outcome(fn, source):
    """What ``fn(source)`` gives: its value, or its exception's type,
    message and (for syntax errors) position."""
    try:
        return ("value", fn(source))
    except Exception as exc:  # every exception type is part of the contract
        return (
            "raised",
            type(exc),
            str(exc),
            getattr(exc, "line", None),
            getattr(exc, "column", None),
        )


def assert_same_front_end(source, entry_points=tuple(ENTRY_POINTS)):
    for name in entry_points:
        production, reference = ENTRY_POINTS[name]
        assert outcome(production, source) == outcome(reference, source), (
            name,
            source,
        )


# -- hypothesis text over the PROB alphabet ----------------------------------

#: Whole lexemes, malformed numbers and comment shapes included.
FRAGMENTS = [
    "x", "y1", "_t", "skip", "observe", "factor", "if", "else", "while",
    "return", "true", "false", "bool", "int", "float", "double", "then",
    "do", "tuple", "Bernoulli", "Gaussian", "e", "E", "e5",
    "0", "7", "42", "2.5", "1e-3", "2.5E+7", "1.2.3", "1e", "1E+", "1.e5",
    ".5", "1.", "1e5e5", "1e5.3", "..", "..5",
    "&&", "||", "==", "!=", "<=", ">=", "<", ">", "+", "-", "*", "/", "%",
    "!", "=", "~", ";", ",", "(", ")", "{", "}", "&", "|", ".", "@", "#",
    " ", "  ", "\t", "\n", "\r\n", "\r", "\f",
    "// line comment\n", "//", "/* block */", "/* multi\nline\r\n */",
    "/*/ */", "/*", "*/",
]
#: Single characters, including ones no lexeme starts with.
ALPHABET = "abcxyzE_019.+-*/%!=<>&|~;,(){} \t\r\n"

prob_text = st.lists(
    st.one_of(st.sampled_from(FRAGMENTS), st.sampled_from(ALPHABET)),
    max_size=40,
).map("".join)

_SETTINGS = settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(prob_text)
@_SETTINGS
def test_prob_alphabet_text_matches_reference(source):
    assert_same_front_end(source)


@given(st.text(alphabet=ALPHABET, max_size=60))
@_SETTINGS
def test_prob_alphabet_characters_match_reference(source):
    assert_same_front_end(source)


# -- non-ASCII letters and digits --------------------------------------------

#: Letters, ``str.isdigit``-but-not-ASCII digits, and numerics that are
#: neither (``½``, ``Ⅻ``): the characters no regex class sorts as the
#: lexer's ``str`` predicates do.
NON_ASCII = ["é", "ß", "名前", "²", "٣", "½", "Ⅻ", "x²", "1²", "1e²"]
CONTEXTS = [
    "{}",
    "{} ",
    "x = {};",
    "x = {}; return x;",
    "{0} = 1; return {0};",
    "return {} + 1;",
    "return 1{};",
    "return .{};",
    "return 1.{};",
    "return 1e{};",
    "return 1e+{};",
    "return x{}y;",
    "return _{}2;",
    "x ~ Bernoulli({});",
    "observe({} == 2); return 0;",
    "// {}\nreturn 1;",
    "/* {} */ return 1;",
    "if ({}) {{ x = 1; }} return x;",
]


@pytest.mark.parametrize("text", NON_ASCII)
@pytest.mark.parametrize("context", CONTEXTS)
def test_non_ascii_characters_match_reference(text, context):
    assert_same_front_end(context.format(text))


@given(
    st.lists(
        st.one_of(
            st.sampled_from(FRAGMENTS),
            st.sampled_from(NON_ASCII),
            st.sampled_from(ALPHABET),
        ),
        max_size=30,
    ).map("".join)
)
@_SETTINGS
def test_non_ascii_text_matches_reference(source):
    assert_same_front_end(source)


def test_known_non_ascii_number_bugs_are_kept():
    # Today's behaviour, bugs included.  The lexer takes any
    # str.isdigit character as a digit; int() then rejects some of them.
    with pytest.raises(ValueError):
        parse("x = ²; return x;")
    assert [(t.kind, t.text) for t in tokenize("٣")] == [("INT", "٣"), ("EOF", "")]
    assert parse_expr("٣").value == 3
    assert [(t.kind, t.text) for t in tokenize("1²")] == [("INT", "1²"), ("EOF", "")]


# -- generated programs, the qa corpus, paper-scale sources ------------------


@given(programs())
@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_pretty_printed_generated_programs_match_reference(program):
    source = pretty(program)
    assert_same_front_end(source, ("tokenize", "parse"))
    assert parse(source) == program


@pytest.mark.parametrize(
    "path", sorted(CORPUS.glob("*.prob")), ids=lambda p: p.name
)
def test_qa_corpus_matches_reference(path):
    assert_same_front_end(path.read_text(), ("tokenize", "parse"))


@pytest.mark.parametrize("spec", TABLE1, ids=lambda spec: spec.name)
def test_paper_scale_table1_sources_match_reference(spec):
    assert_same_front_end(pretty(spec.paper()), ("tokenize", "parse"))


# -- recursion depth ----------------------------------------------------------


def _nested_parens(depth):
    return "return " + "(" * depth + "1" + ")" * depth + ";"


def test_nested_parentheses_overflow_like_reference():
    results = []
    for depth in range(100, 121):
        source = _nested_parens(depth)
        new, ref = outcome(parse, source), outcome(reference_parser.parse, source)
        assert new == ref, depth
        results.append(ref[0] == "raised" and ref[1] is RecursionError)
    # The range straddles the default recursion limit: both outcomes
    # occur, and 110 levels overflow from a test's stack depth.
    assert any(results) and not all(results)
    assert results[110 - 100]


def _at_depth(extra, fn, source):
    """``outcome(fn, source)`` called ``extra`` frames deeper."""
    if extra:
        return _at_depth(extra - 1, fn, source)
    return outcome(fn, source)


#: Deeply nested inputs, well-formed and not.  One paren level is nine
#: frames of the recursive descent, one ``if`` level three.
NESTED = [
    ("parse", _nested_parens),
    ("parse", lambda d: "return " + "(" * d + "x + y * z" + ")" * d + ";"),
    ("parse_expr", lambda d: "(" * d),
    ("parse_expr", lambda d: "(" * d + "1 , 2" + ")" * d),
    ("parse_expr", lambda d: "tuple(" * d + "1, (2)" + ")" * d),
    ("parse_expr", lambda d: "-" * (9 * d) + "1"),
    ("parse_statement", lambda d: "if (x) {" * (3 * d) + "y = 1;" + "}" * (3 * d)),
    ("parse", lambda d: "x ~ Gaussian(" + "(" * d + "0.5" + ")" * d + ", 1.0); return x;"),
]


@pytest.mark.parametrize("case", range(len(NESTED)))
def test_deep_nesting_matches_reference_from_any_caller_depth(case):
    # A RecursionError's message names the interpreter check that
    # tripped first, which depends on the caller's stack depth modulo
    # the frames one nesting level takes; padding the stack by 0-8
    # frames covers every residue.
    entry, make = NESTED[case]
    production, reference = ENTRY_POINTS[entry]
    limit = sys.getrecursionlimit()
    for depth in (100, 105, 110, 115, 120):
        source = make(depth)
        for extra in range(9):
            new = _at_depth(extra, production, source)
            ref = _at_depth(extra, reference, source)
            # Comparing deep ASTs recurses too; give it room.
            sys.setrecursionlimit(limit + 10_000)
            try:
                assert new == ref, (depth, extra)
            finally:
                sys.setrecursionlimit(limit)
