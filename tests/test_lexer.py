"""Unit tests for the mini-C lexer, and its differential test against
the character-at-a-time reference scan in ``tests/char_walk_lexer.py``."""

import ast
import glob
import json
import os
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.minic.errors import LexError
from repro.minic.lexer import tokenize
from repro.programs import samples
from repro.programs.ac_controller import AC_CONTROLLER_SOURCE
from repro.programs.needham_schroeder import TOPLEVELS, ns_source
from repro.programs.osip import OsipLibrary
from repro.testgen import generate_program
from tests import char_walk_lexer
from repro.minic.tokens import (
    CHAR_LIT,
    EOF,
    IDENT,
    INT_LIT,
    KEYWORD,
    PUNCT,
    STRING_LIT,
)


def kinds(source):
    return [t.kind for t in tokenize(source)]


def texts(source):
    return [t.text for t in tokenize(source)[:-1]]


def values(source):
    return [t.value for t in tokenize(source)[:-1]]


class TestBasicTokens:
    def test_empty_input_yields_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind == EOF

    def test_identifier(self):
        tokens = tokenize("hello_world42")
        assert tokens[0].kind == IDENT
        assert tokens[0].text == "hello_world42"

    def test_identifier_with_leading_underscore(self):
        assert tokenize("__dart_int")[0].kind == IDENT

    def test_keyword_recognized(self):
        tokens = tokenize("int")
        assert tokens[0].kind == KEYWORD

    def test_keyword_prefix_is_identifier(self):
        assert tokenize("integer")[0].kind == IDENT

    def test_all_statement_keywords(self):
        for kw in ("if", "else", "while", "for", "return", "break",
                   "continue", "do", "sizeof", "struct", "typedef"):
            assert tokenize(kw)[0].kind == KEYWORD, kw

    def test_punctuation_sequence(self):
        assert texts("+ - * / % = == != <= >= && || -> ++ --") == [
            "+", "-", "*", "/", "%", "=", "==", "!=", "<=", ">=",
            "&&", "||", "->", "++", "--",
        ]

    def test_maximal_munch(self):
        # ">>=" must lex as one token, not ">" ">" "=".
        assert texts("a >>= b") == ["a", ">>=", "b"]

    def test_arrow_vs_minus(self):
        assert texts("a->b - c") == ["a", "->", "b", "-", "c"]

    def test_unknown_character_raises(self):
        with pytest.raises(LexError):
            tokenize("int $x;")


class TestNumbers:
    def test_decimal(self):
        assert values("42") == [42]

    def test_zero(self):
        assert values("0") == [0]

    def test_hex(self):
        assert values("0xFF 0x10") == [255, 16]

    def test_octal(self):
        assert values("017") == [15]

    def test_suffixes_ignored(self):
        assert values("10u 10L 10UL") == [10, 10, 10]

    def test_malformed_hex(self):
        with pytest.raises(LexError):
            tokenize("0x")

    def test_malformed_octal(self):
        with pytest.raises(LexError):
            tokenize("09")

    def test_trailing_letter_rejected(self):
        with pytest.raises(LexError):
            tokenize("12abc")


class TestCharAndString:
    def test_simple_char(self):
        tokens = tokenize("'A'")
        assert tokens[0].kind == CHAR_LIT
        assert tokens[0].value == 65

    def test_escape_chars(self):
        assert values(r"'\n' '\t' '\0' '\\'") == [10, 9, 0, 92]

    def test_hex_escape(self):
        assert values(r"'\x41'") == [65]

    def test_unterminated_char(self):
        with pytest.raises(LexError):
            tokenize("'a")

    def test_empty_char(self):
        with pytest.raises(LexError):
            tokenize("''")

    def test_string_literal(self):
        tokens = tokenize('"hello"')
        assert tokens[0].kind == STRING_LIT
        assert tokens[0].value == b"hello"

    def test_string_with_escapes(self):
        assert values(r'"a\nb\0d"') == [b"a\nb\x00d"]

    def test_hex_escape_is_greedy_like_c(self):
        # \x consumes every following hex digit, so "\x00c" is the single
        # byte 0x00c & 0xFF == 0x0c — exactly what a C compiler produces.
        assert values(r'"\x00c"') == [b"\x0c"]
        assert values(r'"\x41g"') == [b"Ag"]  # 'g' is not a hex digit

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"abc')

    def test_string_may_not_span_lines(self):
        with pytest.raises(LexError):
            tokenize('"abc\ndef"')


class TestCommentsAndWhitespace:
    def test_line_comment(self):
        assert texts("a // comment here\n b") == ["a", "b"]

    def test_block_comment(self):
        assert texts("a /* x * y */ b") == ["a", "b"]

    def test_block_comment_multiline(self):
        assert texts("a /* 1\n2\n3 */ b") == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("a /* never closed")

    def test_preprocessor_lines_skipped(self):
        assert texts('#include <assert.h>\nint x;') == ["int", "x", ";"]


class TestLocations:
    def test_line_and_column_tracking(self):
        tokens = tokenize("a\n  b")
        assert tokens[0].location.line == 1
        assert tokens[0].location.column == 1
        assert tokens[1].location.line == 2
        assert tokens[1].location.column == 3

    def test_filename_recorded(self):
        tokens = tokenize("x", filename="prog.c")
        assert tokens[0].location.filename == "prog.c"

    def test_columns_advance_across_token(self):
        tokens = tokenize("abc def")
        assert tokens[1].location.column == 5


class TestNonAsciiDigits:
    def test_superscript_digit_is_an_unexpected_character(self):
        # '\u00b2'.isdigit() is true but int() cannot read it.
        with pytest.raises(LexError) as caught:
            tokenize("x + \u00b2;", filename="f.c")
        assert caught.value.message == "unexpected character '\u00b2'"
        assert str(caught.value.location) == "f.c:1:5"

    def test_superscript_digit_ends_a_number(self):
        with pytest.raises(LexError) as caught:
            tokenize("12\u00b2")
        assert caught.value.message == "unexpected character '\u00b2'"
        assert caught.value.location.column == 3

    def test_superscript_digit_continues_an_identifier(self):
        assert texts("x\u00b2 + 1") == ["x\u00b2", "+", "1"]

    def test_non_ascii_decimal_digits_are_digits(self):
        assert values("\u0663\u0661") == [31]


class TestSplicing:
    def test_text_lexed_from_an_eof_location_splices(self):
        source = "int x; /* a\nb */ int y"
        head = tokenize(source, filename="p.c")
        tail = tokenize("\nint z;", filename="p.c",
                        start=head[-1].location)
        assert _keys(head[:-1] + tail) == _keys(
            tokenize(source + "\nint z;", filename="p.c"))


# -- differential test against the reference scan ----------------------------

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _keys(tokens):
    return [(t.kind, t.text, t.value, t.location.filename, t.location.line,
             t.location.column) for t in tokens]


def _outcome(lex, source):
    """Tokens as comparable tuples, or the LexError's message and place."""
    try:
        return _keys(lex(source, filename="f.c"))
    except LexError as error:
        return ("LexError", error.message, str(error.location))


def _assert_same(source):
    assert _outcome(tokenize, source) == _outcome(
        char_walk_lexer.tokenize, source)


def _program_sources():
    library = OsipLibrary()
    sources = [("osip:" + module, library.source_for_module(module))
               for module in library.module_names]
    sources.append(("osip:full", library.full_source()))
    for model in sorted(TOPLEVELS):
        for fix in ("none", "buggy", "correct"):
            sources.append(("ns:{}:{}".format(model, fix),
                            ns_source(model, fix)))
    sources.append(("ac", AC_CONTROLLER_SOURCE))
    for name, (source, _, _) in sorted(samples.ALL_SAMPLES.items()):
        sources.append(("sample:" + name, source))
    for path in sorted(glob.glob(os.path.join(ROOT, "tests", "corpus",
                                              "*.json"))):
        with open(path) as handle:
            sources.append(("corpus:" + os.path.basename(path),
                            json.load(handle)["source"]))
    # Every string constant of the examples, C listings and prose alike:
    # both lexers must agree on the error when it is not C.
    for path in sorted(glob.glob(os.path.join(ROOT, "examples", "*.py"))):
        with open(path) as handle:
            tree = ast.parse(handle.read())
        constants = [node.value for node in ast.walk(tree)
                     if isinstance(node, ast.Constant)
                     and isinstance(node.value, str)]
        for index, text in enumerate(constants):
            sources.append(("example:{}:{}".format(
                os.path.basename(path), index), text))
    return sources


PROGRAM_SOURCES = _program_sources()

MALFORMED = [
    "a /* never closed",
    "a /* nearly */ b /*/",
    "int @x;",
    "0x",
    "0xg",
    "0x1g",
    "0xu",
    "09",
    "08u",
    "12abc",
    "12_",
    "12u\u00e9",
    "1\u00b2",
    "\u00b2",
    "\u00bd",
    "\u00e9t\u00e9 = 1;",
    "'a",
    "'",
    "''",
    "'ab'",
    "'\\q'",
    "'\\x'",
    "'\\x41",
    "'\\x41g'",
    "'\\",
    "'\n'",
    "'\u20ac'",
    '"abc',
    '"abc\ndef"',
    '"a\\qb"',
    '"\\x"',
    '"\\',
    '"caf\u00e9 \u20ac\\x100"',
    # Unterminated after many hex escapes: linear, not one try per way
    # of splitting the escapes' digits.
    '"' + "\\xff" * 40,
    '"' + "\\xff" * 40 + "\n",
    "'" + "\\xff" * 40,
    "x = 42",
    "x = 0x1F",
    "x = 017",
    "a // comment at EOF",
    "a # line at EOF",
    "#",
    "//",
    "a\r\nb\r\n",
    "a\fb\vc\td",
    "\\",
    "a...b->c<<=d>>=e",
    "",
]


class TestAgainstCharWalkLexer:
    @pytest.mark.parametrize("name,source", PROGRAM_SOURCES,
                             ids=[name for name, _ in PROGRAM_SOURCES])
    def test_program_sources(self, name, source):
        _assert_same(source)

    @pytest.mark.parametrize("source", MALFORMED)
    def test_malformed_and_edge_inputs(self, source):
        _assert_same(source)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(min_value=0, max_value=2 ** 32))
    def test_generated_programs(self, seed):
        program = generate_program(random.Random(seed), seed=seed)
        _assert_same(program.render())

    @settings(deadline=None, max_examples=400)
    @given(st.text(alphabet="ax_0179xXuLq \t\r\n\f\v'\"\\/*#+-<>=.;@"
                            "\u00b2\u00e9\u0663", max_size=40))
    def test_random_text(self, source):
        _assert_same(source)
