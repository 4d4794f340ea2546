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

import hashlib

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
from repro.minic.ast_nodes import StringLit, VarDecl


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
    """One source text, lexed, parsed, analysed and lowered alone, once.

    Each step runs on first need and at most once, and nothing it builds
    is changed afterwards, so one unit serves every DART session over the
    text.  The source's analysis gives a session's interface and the AST
    the independence analysis walks (lowering leaves that AST as it
    was); :meth:`compile_with` handles only the text a session appends,
    its test driver, against the source's analysis and module.
    """

    def __init__(self, source, filename="<source>"):
        self.source = source
        self.filename = filename
        self._analysis = None
        self._module = None
        self._sha256 = None

    @classmethod
    def of(cls, source, filename="<source>"):
        """``source`` itself when it is a unit, else a unit of that text."""
        return source if isinstance(source, cls) else cls(source, filename)

    def analysis(self):
        """(Program, ProgramInfo) of the source alone."""
        if self._analysis is None:
            tokens = tokenize(self.source, filename=self.filename)
            parser = Parser(tokens, filename=self.filename)
            program = parser.parse_program()
            #: Where appended text starts, and the typedef names it sees.
            self._eof = tokens[-1].location
            self._typedefs = frozenset(parser.typedefs)
            self._analysis = program, analyze(program)
        return self._analysis

    @property
    def module(self):
        """The source's own :class:`Module`."""
        if self._module is None:
            self._module = lower_program(*self.analysis())
        return self._module

    @property
    def sha256(self):
        """Hex SHA-256 of the source text."""
        if self._sha256 is None:
            self._sha256 = hashlib.sha256(self.source.encode()).hexdigest()
        return self._sha256

    def compile_with(self, text):
        """The module ``compile_program(source + text)`` compiles.

        Only ``text`` is lexed (from the source's EOF location), parsed
        (knowing the source's typedef names), analysed (in the source's
        global scope) and lowered; the module holds the source's lowered
        functions, globals and strings, then the text's.  A function the
        text defines that the source only declares is bound to the text's
        definition in this module alone.

        ``text`` must start with a newline, so that no token or comment
        straddles the seam, and must not initialise a global with a
        string literal: the plain pipeline interns such a literal before
        the source's function bodies' literals, and the source's module
        has them numbered already.  A generated driver declares no
        globals.
        """
        if not text.startswith("\n"):
            raise ValueError("appended text must start with a newline")
        base = self.module
        tokens = tokenize(text, filename=self.filename, start=self._eof)
        program = Parser(tokens, filename=self.filename,
                         typedefs=self._typedefs).parse_program()
        if any(isinstance(decl, VarDecl) and isinstance(decl.init, StringLit)
               for decl in program.declarations):
            raise ValueError(
                "appended text initialises a global with a string literal")
        return lower_program(program, analyze(program, base.info), base)


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
