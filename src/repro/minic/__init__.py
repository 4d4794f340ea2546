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
from repro.minic.ast_nodes import FunctionDef, Program, StringLit, VarDecl


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
    its test driver, against the source's analysis and module, and
    builds each reusable chunk of that text once.
    """

    def __init__(self, source, filename="<source>"):
        self.source = source
        self.filename = filename
        self._analysis = None
        self._module = None
        self._sha256 = None
        #: (chunk, start line, start column) -> (((FunctionDef,
        #: IRFunction), ...), end location) of each kept chunk.
        self._chunks = {}
        #: (appended text, start line, start column) -> the IRFunctions
        #: its first build defined.
        self._texts = {}
        #: The compiled closures of the functions every module of this
        #: unit may share, for :class:`repro.interp.compile.CompiledProgram`:
        #: its keys are the source's and the kept chunks' IRFunctions, and
        #: those the first build of each appended text defined (a later
        #: build's functions name theirs as their ``origin``).
        self.closures = {}

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
            self.closures.update(dict.fromkeys(
                self._module.functions.values()))
        return self._module

    @property
    def sha256(self):
        """Hex SHA-256 of the source text."""
        if self._sha256 is None:
            self._sha256 = hashlib.sha256(self.source.encode()).hexdigest()
        return self._sha256

    def compile_with(self, text, reusable=()):
        """The module ``compile_program(source + "".join(reusable) +
        text)`` compiles.

        Only the appended text is lexed (from the source's EOF location),
        parsed (knowing the source's typedef names), analysed (in the
        source's global scope) and lowered; the module holds the source's
        lowered functions, globals and strings, then the appended ones.
        A function the appended text defines that the source only
        declares is bound to that definition in this module alone.

        ``text`` is built on every call; the functions it defines name
        the first build of the same text at the same place as their
        ``origin`` (they are identical to it).  When the appended text
        defines functions and nothing else, and ``reusable`` holds no
        string literal, each chunk of ``reusable`` is built once per unit
        and start location: a later call that appends the same chunk at the
        same line and column binds the definitions and IRFunctions built
        then, in this module's tables and in the same order, without
        lexing, parsing, checking or lowering them again.  No type,
        global or string of the appended text can then reach a chunk, so
        its build depends only on the source and on the functions it
        calls, which the caller must define with the same signatures
        wherever the chunk reappears: a generated driver does, since a
        driver function's name fixes its signature.  Any other appended
        text is built whole.

        The appended text must start with a newline, so that no token or
        comment straddles the seam; each chunk of ``reusable`` must end
        with one, for the same reason.  It must not initialise a global
        with a string literal: the plain pipeline interns such a literal
        before the source's function bodies' literals, and the source's
        module has them numbered already.  A generated driver declares
        no globals.
        """
        if not (reusable[0] if reusable else text).startswith("\n"):
            raise ValueError("appended text must start with a newline")
        if not all(chunk.endswith("\n") for chunk in reusable):
            raise ValueError("a reusable chunk must end with a newline")
        base = self.module
        start = self._eof
        typedefs = self._typedefs
        declarations = []
        #: FunctionDef -> IRFunction of the kept chunks bound here.
        kept = {}
        built = []
        for chunk in reusable:
            key = (chunk, start.line, start.column)
            entry = self._chunks.get(key)
            if entry is None:
                parsed, start, typedefs = self._parse(chunk, start, typedefs)
                declarations.extend(parsed)
                built.append((key, parsed, start))
            else:
                pairs, start = entry
                kept.update(pairs)
                declarations.extend(decl for decl, _ in pairs)
        appended, _, _ = self._parse(text, start, typedefs)
        declarations.extend(appended)
        if reusable and (
                any('"' in chunk for chunk in reusable) or not all(
                    isinstance(decl, FunctionDef) for decl in declarations)):
            return self.compile_with("".join(reusable) + text)
        if any(isinstance(decl, VarDecl) and isinstance(decl.init, StringLit)
               for decl in declarations):
            raise ValueError(
                "appended text initialises a global with a string literal")
        program = Program(declarations, self._eof)
        module = lower_program(program, analyze(program, base.info, kept),
                               base, kept)
        for key, parsed, end in built:
            pairs = tuple((decl, module.functions[decl.name])
                          for decl in parsed)
            self._chunks[key] = pairs, end
            self.closures.update((function, None) for _, function in pairs)
        # The functions ``text`` defines are built anew, but from the same
        # text at the same place they come out the same: the first build's
        # stand for them in ``closures``.
        defined = tuple(module.functions[decl.name] for decl in appended
                        if isinstance(decl, FunctionDef))
        key = (text, start.line, start.column)
        first = self._texts.get(key)
        if first is None:
            self._texts[key] = defined
            self.closures.update(dict.fromkeys(defined))
        else:
            for origin, function in zip(first, defined):
                function.origin = origin
        return module

    def _parse(self, text, start, typedefs):
        """(declarations, end location, typedef names) of ``text``
        appended at ``start``, seeing the typedef names ``typedefs``."""
        tokens = tokenize(text, filename=self.filename, start=start)
        parser = Parser(tokens, filename=self.filename, typedefs=typedefs)
        declarations = parser.parse_program().declarations
        return declarations, tokens[-1].location, parser.typedefs


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
