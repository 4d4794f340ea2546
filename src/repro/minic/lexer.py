"""The mini-C lexer: one compiled regular expression, one match per token.

Supports line (``//``) and block (``/* */``) comments, preprocessor lines
(skipped), decimal / hex / octal integer literals (with optional
``u``/``l`` suffixes, which are accepted and ignored), character literals
with the usual escape sequences, and string literals (decoded to
``bytes``, NUL-terminated by the lowering pass when interned).

Each match of :data:`_TOKEN` skips the whitespace and comments before a
token and then matches exactly one well-formed token, or one of the
error alternatives that start a malformed one (a lone quote, an
unterminated ``/*``, any other character).  Only a match's skipped part
and a character literal holding a raw newline can span lines, so line
and column tracking costs one ``str.count`` per token.

:func:`tokenize` can start at a given location, so text appended to an
already lexed source (a generated test driver) is lexed on its own and
its tokens spliced after the source's: when the appended text starts
with a newline, ``tokenize(a)[:-1] + tokenize(b, start=tokenize(a)[-1]
.location)`` equals ``tokenize(a + b)``.
"""

import re

from repro.minic.errors import LexError, SourceLocation
from repro.minic.tokens import (
    CHAR_LIT,
    EOF,
    IDENT,
    INT_LIT,
    KEYWORD,
    KEYWORDS,
    PUNCT,
    PUNCTUATORS,
    STRING_LIT,
    Token,
)

_SIMPLE_ESCAPES = {
    "n": 10,
    "t": 9,
    "r": 13,
    "0": 0,
    "\\": 92,
    "'": 39,
    '"': 34,
    "a": 7,
    "b": 8,
    "f": 12,
    "v": 11,
}

#: One escape sequence.  The simple ones come from :data:`_SIMPLE_ESCAPES`;
#: a hex escape takes every hex digit that follows, and the lookahead
#: says so, so that a string literal's digits cannot also be matched one
#: at a time (which made an unterminated literal backtrack exponentially).
_ESCAPE = r"\\(?:x[0-9a-fA-F]+(?![0-9a-fA-F])|[{}])".format(
    re.escape("".join(_SIMPLE_ESCAPES)))

#: Whitespace, ``//`` and ``#`` lines and closed block comments before a
#: token.  The token group after it matches at every position (``EOF``
#: at the end, ``OTHER`` anywhere else), so the match never backtracks
#: into the skipped part to give back a skipped comment (whose ``/*``
#: would then read as an unterminated one).
_SKIP = r"(?:[ \t\r\n\f\v]+|//[^\n]*|#[^\n]*|/\*.*?\*/)*"

#: Token alternatives, tried in order.  Identifiers start with a letter
#: (``str.isalpha``) or ``_`` and continue with ``\w`` (exactly
#: ``str.isalnum`` or ``_``); ASCII starts take the first alternative and
#: any other ``\w`` start the checked UIDENT one.  Integer digits are
#: ``\d`` (``str.isdecimal``, what ``int`` accepts).  Punctuators are
#: listed longest first, so the first alternative that matches is the
#: maximal munch.
_ALTERNATIVES = (
    ("IDENT", r"[A-Za-z_]\w*"),
    ("INT", r"(?:0[xX][0-9a-fA-F]*|\d+)[uUlL]*"),
    ("OPEN_COMMENT", r"/\*"),
    ("PUNCT", "|".join(re.escape(p) for p in PUNCTUATORS)),
    ("CHAR", r"'(?:[^\\']|{})'".format(_ESCAPE)),
    ("STRING", r'"(?:[^"\\\n]|{})*"'.format(_ESCAPE)),
    ("OPEN_QUOTE", r"""['"]"""),
    ("UIDENT", r"[^\W\d]\w*"),
    ("EOF", r"\Z"),
    ("OTHER", r"."),
)

_TOKEN = re.compile(
    _SKIP + "(?:" + "|".join(
        "(?P<{}>{})".format(name, pattern) for name, pattern in _ALTERNATIVES
    ) + ")",
    re.DOTALL,
)

_ESCAPES = re.compile(r"\\(?:x([0-9a-fA-F]+)|(.))", re.DOTALL)
_HEX_DIGITS = re.compile(r"[0-9a-fA-F]*")


def tokenize(source, filename="<source>", start=None):
    """Lex ``source`` and return its tokens, ending with an EOF token.

    ``start`` is the location of the first character (default line 1,
    column 1).  Raises :class:`LexError` at the first malformed token.
    """
    tokens = []
    append = tokens.append
    match = _TOKEN.match
    count = source.count
    keywords = KEYWORDS
    line = start.line if start is not None else 1
    # Offset of the current line's first character: column = pos - it + 1.
    line_start = 1 - start.column if start is not None else 0
    pos = 0
    while True:
        m = match(source, pos)
        kind = m.lastgroup
        begin, end = m.span(kind)
        newlines = count("\n", pos, begin)
        if newlines:
            line += newlines
            line_start = source.rfind("\n", pos, begin) + 1
        location = SourceLocation(filename, line, begin - line_start + 1)
        pos = end
        text = m.group(kind)
        if kind == "IDENT":
            append(Token(KEYWORD if text in keywords else IDENT, text, text,
                         location))
        elif kind == "PUNCT":
            append(Token(PUNCT, text, text, location))
        elif kind == "INT":
            append(_integer(text, source[end:end + 1], location))
        elif kind == "CHAR":
            append(_char(text, location))
            if text[1] == "\n":
                line += 1
                line_start = begin + 2
        elif kind == "STRING":
            data = _string_bytes(text[1:-1])
            append(Token(STRING_LIT, repr(data), data, location))
        elif kind == "EOF":
            append(Token(EOF, "", None, location))
            return tokens
        elif kind == "UIDENT" and text[0].isalpha():
            append(Token(IDENT, text, text, location))
        elif kind == "OPEN_COMMENT":
            raise LexError("unterminated block comment", location)
        elif kind == "OPEN_QUOTE":
            _raise_literal_error(source, begin, location)
        else:
            # OTHER, or a UIDENT that starts with a non-letter such as a
            # superscript digit ('²'.isdigit() but int() refuses it).
            raise LexError("unexpected character {!r}".format(text[0]),
                           location)


def _integer(text, following, location):
    digits = text.rstrip("uUlL")
    if digits[1:2] in ("x", "X"):
        if len(digits) == 2:
            raise LexError("malformed hex literal", location)
        value = int(digits, 16)
    elif digits[0] == "0" and len(digits) > 1:
        try:
            value = int(digits, 8)
        except ValueError:
            raise LexError("malformed octal literal", location)
    else:
        value = int(digits, 10)
    if following.isalpha():
        raise LexError("malformed integer literal", location)
    return Token(INT_LIT, text, value, location)


def _escape_value(m):
    digits, simple = m.groups()
    if digits is not None:
        return int(digits, 16) & 0xFF
    return _SIMPLE_ESCAPES[simple]


def _char(text, location):
    body = text[1:-1]
    value = ord(body) if len(body) == 1 else _escape_value(
        _ESCAPES.match(body))
    return Token(CHAR_LIT, "'{}'".format(chr(value)), value, location)


def _string_bytes(body):
    if "\\" not in body:
        try:
            return body.encode("latin-1")
        except UnicodeEncodeError:
            return bytes(ord(ch) & 0xFF for ch in body)
    data = bytearray()
    done = 0
    for m in _ESCAPES.finditer(body):
        data.extend(ord(ch) & 0xFF for ch in body[done:m.start()])
        data.append(_escape_value(m))
        done = m.end()
    data.extend(ord(ch) & 0xFF for ch in body[done:])
    return bytes(data)


def _raise_literal_error(source, pos, location):
    """Raise the error of the malformed literal whose quote is at ``pos``
    (the token alternatives refused it), scanning as far as the first
    fault, like a character-at-a-time scan would."""
    pos += 1
    if source[pos - 1] == "'":
        ch = source[pos:pos + 1]
        if ch == "":
            raise LexError("unterminated character literal", location)
        if ch == "'":
            raise LexError("empty character literal", location)
        if ch == "\\":
            _skip_escape(source, pos + 1, location)
        raise LexError("unterminated character literal", location)
    while True:
        ch = source[pos:pos + 1]
        if ch == "" or ch == "\n":
            raise LexError("unterminated string literal", location)
        pos = _skip_escape(source, pos + 1, location) if ch == "\\" \
            else pos + 1


def _skip_escape(source, pos, location):
    """Position after the escape sequence whose backslash precedes
    ``pos``; raises when it is malformed."""
    ch = source[pos:pos + 1]
    if ch == "":
        raise LexError("unterminated escape sequence", location)
    if ch == "x":
        end = _HEX_DIGITS.match(source, pos + 1).end()
        if end == pos + 1:
            raise LexError("malformed hex escape", location)
        return end
    if ch in _SIMPLE_ESCAPES:
        return pos + 1
    raise LexError("unknown escape sequence \\{}".format(ch), location)
