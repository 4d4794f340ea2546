"""Reference for the differential lexer tests: a character-at-a-time
mini-C lexer.

This is the scan ``repro.minic.lexer`` replaced, kept here only so the
compiled-regex lexer can be checked against it token for token and error
for error.  One deliberate change: integer literals take decimal digits
(``str.isdecimal``) where the old scan took ``str.isdigit``, which also
accepts characters such as ``'²'`` that ``int`` cannot read (the old scan
then raised a bare ``ValueError`` instead of a :class:`LexError`).

Supports line (``//``) and block (``/* */``) comments, decimal / hex / octal
integer literals (with optional ``u``/``l`` suffixes, which are accepted and
ignored), character literals with the usual escape sequences, and string
literals (decoded to ``bytes``, NUL-terminated by the lowering pass when
interned).
"""

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


class Lexer:
    """Turns mini-C source text into a list of :class:`Token` objects."""

    def __init__(self, source, filename="<source>"):
        self._source = source
        self._filename = filename
        self._pos = 0
        self._line = 1
        self._column = 1

    def tokenize(self):
        """Scan the whole input and return tokens, ending with an EOF token."""
        tokens = []
        while True:
            self._skip_whitespace_and_comments()
            if self._pos >= len(self._source):
                tokens.append(Token(EOF, "", None, self._location()))
                return tokens
            tokens.append(self._next_token())

    # -- internals ---------------------------------------------------------

    def _location(self):
        return SourceLocation(self._filename, self._line, self._column)

    def _peek(self, offset=0):
        index = self._pos + offset
        if index < len(self._source):
            return self._source[index]
        return ""

    def _advance(self, count=1):
        for _ in range(count):
            if self._pos >= len(self._source):
                return
            if self._source[self._pos] == "\n":
                self._line += 1
                self._column = 1
            else:
                self._column += 1
            self._pos += 1

    def _skip_whitespace_and_comments(self):
        while self._pos < len(self._source):
            ch = self._peek()
            if ch in " \t\r\n\f\v":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self._pos < len(self._source) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                start = self._location()
                self._advance(2)
                while not (self._peek() == "*" and self._peek(1) == "/"):
                    if self._pos >= len(self._source):
                        raise LexError("unterminated block comment", start)
                    self._advance()
                self._advance(2)
            elif ch == "#":
                # Preprocessor lines (e.g. ``#include``) are tolerated and
                # skipped so that paper-style listings lex unchanged.
                while self._pos < len(self._source) and self._peek() != "\n":
                    self._advance()
            else:
                return

    def _next_token(self):
        location = self._location()
        ch = self._peek()
        if ch.isalpha() or ch == "_":
            return self._lex_identifier(location)
        if ch.isdecimal():
            return self._lex_number(location)
        if ch == "'":
            return self._lex_char(location)
        if ch == '"':
            return self._lex_string(location)
        for punct in PUNCTUATORS:
            if self._source.startswith(punct, self._pos):
                self._advance(len(punct))
                return Token(PUNCT, punct, punct, location)
        raise LexError("unexpected character {!r}".format(ch), location)

    def _lex_identifier(self, location):
        start = self._pos
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        text = self._source[start : self._pos]
        kind = KEYWORD if text in KEYWORDS else IDENT
        return Token(kind, text, text, location)

    def _lex_number(self, location):
        start = self._pos
        # NB: membership tests against string constants must exclude the
        # empty string _peek() yields at EOF ("" is a substring of
        # everything), or a number at end-of-input mislexes/loops.
        if self._peek() == "0" and self._peek(1) in ("x", "X"):
            self._advance(2)
            if not self._is_hex_digit(self._peek()):
                raise LexError("malformed hex literal", location)
            while self._is_hex_digit(self._peek()):
                self._advance()
            value = int(self._source[start : self._pos], 16)
        else:
            while self._peek().isdecimal():
                self._advance()
            text = self._source[start : self._pos]
            if text.startswith("0") and len(text) > 1:
                try:
                    value = int(text, 8)
                except ValueError:
                    raise LexError("malformed octal literal", location)
            else:
                value = int(text, 10)
        # Accept and discard integer suffixes: all our ints are 32-bit.
        while self._peek() in ("u", "U", "l", "L"):
            self._advance()
        if self._peek().isalpha():
            raise LexError("malformed integer literal", location)
        return Token(INT_LIT, self._source[start : self._pos], value, location)

    @staticmethod
    def _is_hex_digit(ch):
        return bool(ch) and ch in "0123456789abcdefABCDEF"

    def _lex_escape(self, location):
        """Decode one escape sequence after the backslash; returns its byte."""
        ch = self._peek()
        if ch == "":
            raise LexError("unterminated escape sequence", location)
        if ch == "x":
            self._advance()
            digits = ""
            while self._is_hex_digit(self._peek()):
                digits += self._peek()
                self._advance()
            if not digits:
                raise LexError("malformed hex escape", location)
            return int(digits, 16) & 0xFF
        if ch in _SIMPLE_ESCAPES:
            self._advance()
            return _SIMPLE_ESCAPES[ch]
        raise LexError("unknown escape sequence \\{}".format(ch), location)

    def _lex_char(self, location):
        self._advance()  # opening quote
        ch = self._peek()
        if ch == "":
            raise LexError("unterminated character literal", location)
        if ch == "\\":
            self._advance()
            value = self._lex_escape(location)
        elif ch == "'":
            raise LexError("empty character literal", location)
        else:
            value = ord(ch)
            self._advance()
        if self._peek() != "'":
            raise LexError("unterminated character literal", location)
        self._advance()
        return Token(CHAR_LIT, "'{}'".format(chr(value)), value, location)

    def _lex_string(self, location):
        self._advance()  # opening quote
        data = bytearray()
        while True:
            ch = self._peek()
            if ch == "" or ch == "\n":
                raise LexError("unterminated string literal", location)
            if ch == '"':
                self._advance()
                break
            if ch == "\\":
                self._advance()
                data.append(self._lex_escape(location))
            else:
                data.append(ord(ch) & 0xFF)
                self._advance()
        return Token(STRING_LIT, repr(bytes(data)), bytes(data), location)


def tokenize(source, filename="<source>"):
    """Lex ``source`` and return the token list."""
    return Lexer(source, filename=filename).tokenize()
