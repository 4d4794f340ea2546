"""Mini-C: the C-subset language substrate used by the DART reproduction.

The paper instruments real C programs through CIL; this package provides the
equivalent substrate built from scratch: a lexer, a recursive-descent parser,
a C type system with byte-accurate sizes and field offsets, a semantic
analyzer that also discovers the program's external interface, and a lowering
pass that compiles the checked AST down to the RAM-machine IR of Section 2.2
of the paper (assignments plus conditional gotos).

Typical use::

    from repro.minic import compile_program

    module = compile_program(source_text)

The resulting :class:`repro.minic.ir.Module` is what the concrete interpreter
(:mod:`repro.interp`) executes and the DART engine (:mod:`repro.dart`)
instruments.
"""

from repro.minic.errors import (
    LexError,
    MiniCError,
    ParseError,
    SemanticError,
    SourceLocation,
)
from repro.minic.lexer import tokenize
from repro.minic.parser import Parser, parse_program
from repro.minic.semantic import SemanticAnalyzer, analyze
from repro.minic.lower import lower_program
from repro.minic.ir import Module


def compile_program(source, filename="<source>"):
    """Compile mini-C source text all the way to an executable IR module.

    Runs the full front-end pipeline: lexing, parsing, semantic analysis
    (type checking plus interface discovery) and lowering to RAM-machine IR.

    Raises :class:`MiniCError` subclasses on malformed input.
    """
    ast = parse_program(source, filename=filename)
    info = analyze(ast)
    return lower_program(ast, info)


class SourceUnit:
    """One source text, lexed once and parsed and analysed alone once.

    A DART session needs its program twice: analysed on its own (the
    interface and the independence analysis read that AST) and compiled
    with the generated test driver appended.  :meth:`compile_with` reuses
    the source's tokens for the latter and lexes only the appended text,
    starting at the source's EOF location.  ``analyze`` and
    ``lower_program`` annotate the AST they are given, so the combined
    program still gets a parse of its own.  Nothing runs until first
    needed.
    """

    def __init__(self, source, filename="<source>"):
        self.source = source
        self.filename = filename
        self._tokens = None
        self._analysis = None

    @classmethod
    def of(cls, source, filename="<source>"):
        """``source`` itself when it is a unit, else a unit of that text."""
        return source if isinstance(source, cls) else cls(source, filename)

    @property
    def tokens(self):
        """The source's tokens, ending with its EOF token."""
        if self._tokens is None:
            self._tokens = tokenize(self.source, filename=self.filename)
        return self._tokens

    def analysis(self):
        """(Program, ProgramInfo) of the source alone."""
        if self._analysis is None:
            program = Parser(self.tokens, filename=self.filename)\
                .parse_program()
            self._analysis = program, analyze(program)
        return self._analysis

    def compile_with(self, text):
        """The module ``compile_program(source + text)`` compiles.

        ``text`` must start with a newline, so that no token or comment
        straddles the seam and the spliced token list is exactly that of
        ``source + text``.
        """
        if not text.startswith("\n"):
            raise ValueError("appended text must start with a newline")
        eof = self.tokens[-1]
        tokens = self.tokens[:-1] + tokenize(
            text, filename=self.filename, start=eof.location)
        program = Parser(tokens, filename=self.filename).parse_program()
        return lower_program(program, analyze(program))


__all__ = [
    "LexError",
    "MiniCError",
    "Module",
    "ParseError",
    "Parser",
    "SemanticAnalyzer",
    "SemanticError",
    "SourceLocation",
    "SourceUnit",
    "analyze",
    "compile_program",
    "lower_program",
    "parse_program",
    "tokenize",
]
