"""Recursive-descent parser for mini-C.

The accepted language is the C subset exercised by the paper: scalar and
aggregate types (``char``/``short``/``int``/``long``, signed and unsigned,
pointers, arrays, structs, enums, typedefs), the full expression grammar with
C precedence (including casts, ``sizeof``, short-circuit logic and the
ternary operator), and the statement forms ``if``/``else``, ``while``,
``do``/``while``, ``for``, ``return``, ``break``, ``continue``, blocks,
declarations, ``assert(e);`` and ``abort();``.

Typedef names are tracked during parsing so that casts such as
``(osip_list_t *) p`` and declaration statements are disambiguated exactly
as a C compiler would.
"""

from repro.minic import ast_nodes as ast
from repro.minic.errors import ParseError
from repro.minic.lexer import tokenize
from repro.minic.tokens import (
    CHAR_LIT,
    EOF,
    IDENT,
    INT_LIT,
    KEYWORD,
    PUNCT,
    STRING_LIT,
)

#: Keywords that may begin a type.
_TYPE_KEYWORDS = frozenset(
    ["int", "char", "long", "short", "unsigned", "signed", "void",
     "struct", "union", "enum", "const"]
)

_ASSIGN_OPS = frozenset(["=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
                         "<<=", ">>="])

#: Binary operator precedence table (larger binds tighter).  ``&&``/``||``
#: are parsed here but lowered to control flow later.
_BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6,
    "!=": 6,
    "<": 7,
    ">": 7,
    "<=": 7,
    ">=": 7,
    "<<": 8,
    ">>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
}


class Parser:
    """Parses a token stream into a :class:`repro.minic.ast_nodes.Program`."""

    def __init__(self, tokens, filename="<source>", typedefs=()):
        self._tokens = tokens
        self._pos = 0
        self._filename = filename
        #: Typedef names seen so far (``typedefs``: those of the program
        #: the tokens are appended to).
        self.typedefs = set(typedefs)
        self._struct_tags = set()

    # -- token helpers -------------------------------------------------

    def _peek(self, offset=0):
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self):
        token = self._tokens[self._pos]
        if token.kind != EOF:
            self._pos += 1
        return token

    def _check_punct(self, *names):
        return self._peek().is_punct(*names)

    def _check_keyword(self, *names):
        return self._peek().is_keyword(*names)

    def _accept_punct(self, *names):
        if self._check_punct(*names):
            return self._advance()
        return None

    def _accept_keyword(self, *names):
        if self._check_keyword(*names):
            return self._advance()
        return None

    def _expect_punct(self, name):
        token = self._peek()
        if not token.is_punct(name):
            raise ParseError(
                "expected {!r}, found {!r}".format(name, token.text or "<eof>"),
                token.location,
            )
        return self._advance()

    def _expect_keyword(self, name):
        token = self._peek()
        if not token.is_keyword(name):
            raise ParseError(
                "expected {!r}, found {!r}".format(name, token.text or "<eof>"),
                token.location,
            )
        return self._advance()

    def _expect_ident(self):
        token = self._peek()
        if token.kind != IDENT:
            raise ParseError(
                "expected identifier, found {!r}".format(token.text or "<eof>"),
                token.location,
            )
        return self._advance()

    # -- entry point -----------------------------------------------------

    def parse_program(self):
        declarations = []
        start = self._peek().location
        while self._peek().kind != EOF:
            declarations.extend(self._parse_toplevel())
        return ast.Program(declarations, start)

    # -- top-level declarations -------------------------------------------

    def _parse_toplevel(self):
        token = self._peek()
        if token.is_keyword("typedef"):
            return [self._parse_typedef()]
        if token.is_keyword("struct", "union"):
            # Could be a bare struct definition/forward declaration or the
            # start of a variable/function declaration.
            saved = self._pos
            decl = self._try_parse_bare_struct()
            if decl is not None:
                return [decl]
            self._pos = saved
        if token.is_keyword("enum"):
            saved = self._pos
            decl = self._try_parse_bare_enum()
            if decl is not None:
                return [decl]
            self._pos = saved
        return self._parse_declaration(toplevel=True)

    def _parse_typedef(self):
        location = self._expect_keyword("typedef").location
        base = self._parse_type_specifier()
        name_token, type_expr = self._parse_declarator(base)
        self._expect_punct(";")
        self.typedefs.add(name_token.text)
        return ast.TypedefDecl(name_token.text, type_expr, location)

    def _try_parse_bare_struct(self):
        """Parse ``struct tag { ... };`` or ``struct tag;``; None otherwise."""
        keyword = self._advance()  # struct / union
        location = keyword.location
        is_union = keyword.text == "union"
        if self._peek().kind != IDENT:
            return None
        tag = self._advance().text
        if self._accept_punct("{"):
            fields = self._parse_struct_fields()
            if self._accept_punct(";"):
                self._struct_tags.add(tag)
                return ast.StructDecl(tag, fields, location,
                                      is_union=is_union)
            return None
        if self._accept_punct(";"):
            self._struct_tags.add(tag)
            return ast.StructDecl(tag, None, location, is_union=is_union)
        return None

    def _try_parse_bare_enum(self):
        location = self._advance().location  # enum
        tag = None
        if self._peek().kind == IDENT:
            tag = self._advance().text
        if not self._check_punct("{"):
            return None
        enumerators = self._parse_enumerators()
        if self._accept_punct(";"):
            return ast.EnumDecl(tag, enumerators, location)
        return None

    def _parse_struct_fields(self):
        fields = []
        while not self._accept_punct("}"):
            base = self._parse_type_specifier()
            while True:
                name_token, type_expr = self._parse_declarator(base)
                fields.append((name_token.text, type_expr))
                if not self._accept_punct(","):
                    break
            self._expect_punct(";")
        return fields

    def _parse_enumerators(self):
        self._expect_punct("{")
        enumerators = []
        while not self._accept_punct("}"):
            name_token = self._expect_ident()
            value = None
            if self._accept_punct("="):
                value = self._parse_conditional()
            enumerators.append((name_token.text, value))
            if not self._accept_punct(","):
                self._expect_punct("}")
                break
        return enumerators

    def _parse_declaration(self, toplevel):
        """A function definition/prototype or one or more variable decls."""
        is_extern = bool(self._accept_keyword("extern"))
        self._accept_keyword("static")  # accepted, same semantics here
        base = self._parse_type_specifier()
        first_token = self._peek()
        name_token, type_expr = self._parse_declarator(base)
        if self._check_punct("(") and toplevel:
            return [self._parse_function(name_token, type_expr, is_extern)]
        decls = []
        decl = self._finish_var_decl(name_token, type_expr, is_extern)
        decls.append(decl)
        while self._accept_punct(","):
            name_token, type_expr = self._parse_declarator(base)
            if self._check_punct("("):
                raise ParseError(
                    "function declarator not allowed here", name_token.location
                )
            decls.append(self._finish_var_decl(name_token, type_expr, is_extern))
        self._expect_punct(";")
        if not decls:
            raise ParseError("empty declaration", first_token.location)
        return decls

    def _finish_var_decl(self, name_token, type_expr, is_extern):
        init = None
        if self._accept_punct("="):
            init = self._parse_assignment()
        return ast.VarDecl(
            name_token.text, type_expr, init, name_token.location,
            is_extern=is_extern,
        )

    def _parse_function(self, name_token, return_type_expr, is_extern):
        self._expect_punct("(")
        params = []
        variadic = False
        if not self._check_punct(")"):
            if self._check_keyword("void") and self._peek(1).is_punct(")"):
                self._advance()
            else:
                while True:
                    if self._accept_punct("..."):
                        variadic = True
                        break
                    base = self._parse_type_specifier()
                    pname = None
                    location = self._peek().location
                    if self._check_punct("*") or self._peek().kind == IDENT:
                        tok, ptype = self._parse_declarator(
                            base, allow_abstract=True
                        )
                        pname = tok.text if tok is not None else None
                        params.append(ast.ParamDecl(pname, ptype, location))
                    else:
                        params.append(ast.ParamDecl(None, base, location))
                    if not self._accept_punct(","):
                        break
        self._expect_punct(")")
        if variadic:
            raise ParseError("variadic functions are not supported",
                             name_token.location)
        if self._accept_punct(";"):
            return ast.FunctionDecl(
                name_token.text, return_type_expr, params, name_token.location
            )
        if is_extern:
            raise ParseError(
                "extern function with a body", name_token.location
            )
        body = self._parse_block()
        return ast.FunctionDef(
            name_token.text, return_type_expr, params, body,
            name_token.location,
        )

    # -- types ----------------------------------------------------------

    def _starts_type(self, token=None):
        token = token or self._peek()
        if token.kind == KEYWORD and token.text in _TYPE_KEYWORDS:
            return True
        return token.kind == IDENT and token.text in self.typedefs

    def _parse_type_specifier(self):
        """Parse the base type (no pointers/arrays, which declarators add)."""
        while self._accept_keyword("const"):
            pass
        token = self._peek()
        if token.is_keyword("struct", "union"):
            self._advance()
            if self._peek().kind != IDENT:
                raise ParseError("anonymous structs are not supported",
                                 token.location)
            tag = self._advance().text
            self._struct_tags.add(tag)
            # Inline definition in a type position is not supported; struct
            # bodies must appear as their own top-level declaration.
            result = ast.StructTypeExpr(tag, is_union=token.text == "union")
        elif token.is_keyword("enum"):
            self._advance()
            if self._peek().kind == IDENT:
                self._advance()
            result = ast.BaseTypeExpr("int")
        elif token.is_keyword("void"):
            self._advance()
            result = ast.BaseTypeExpr("void")
        elif token.kind == KEYWORD and token.text in (
            "int", "char", "long", "short", "unsigned", "signed"
        ):
            words = []
            while self._peek().kind == KEYWORD and self._peek().text in (
                "int", "char", "long", "short", "unsigned", "signed", "const"
            ):
                word = self._advance().text
                if word != "const":
                    words.append(word)
            result = ast.BaseTypeExpr(" ".join(words))
        elif token.kind == IDENT and token.text in self.typedefs:
            self._advance()
            result = ast.NamedTypeExpr(token.text)
        else:
            raise ParseError(
                "expected a type, found {!r}".format(token.text or "<eof>"),
                token.location,
            )
        while self._accept_keyword("const"):
            pass
        return result

    def _parse_declarator(self, base, allow_abstract=False):
        """Parse ``* ... name [N]...`` and return (name token, TypeExpr)."""
        type_expr = base
        while self._accept_punct("*"):
            while self._accept_keyword("const"):
                pass
            type_expr = ast.PointerTypeExpr(type_expr)
        name_token = None
        if self._peek().kind == IDENT:
            name_token = self._advance()
        elif not allow_abstract:
            token = self._peek()
            raise ParseError(
                "expected identifier in declarator, found {!r}".format(
                    token.text or "<eof>"
                ),
                token.location,
            )
        # Array suffixes apply outside-in: ``int a[2][3]`` is array 2 of
        # array 3 of int.
        suffixes = []
        while self._accept_punct("["):
            if self._check_punct("]"):
                suffixes.append(None)
            else:
                suffixes.append(self._parse_conditional())
            self._expect_punct("]")
        for length in reversed(suffixes):
            type_expr = ast.ArrayTypeExpr(type_expr, length)
        return name_token, type_expr

    def _parse_abstract_type(self):
        """A type name as used in casts and ``sizeof(type)``."""
        base = self._parse_type_specifier()
        type_expr = base
        while self._accept_punct("*"):
            while self._accept_keyword("const"):
                pass
            type_expr = ast.PointerTypeExpr(type_expr)
        suffixes = []
        while self._accept_punct("["):
            if self._check_punct("]"):
                suffixes.append(None)
            else:
                suffixes.append(self._parse_conditional())
            self._expect_punct("]")
        for length in reversed(suffixes):
            type_expr = ast.ArrayTypeExpr(type_expr, length)
        return type_expr

    # -- statements --------------------------------------------------------

    def _parse_block(self):
        location = self._expect_punct("{").location
        statements = []
        while not self._accept_punct("}"):
            statements.append(self._parse_statement())
        return ast.Block(statements, location)

    def _parse_statement(self):
        token = self._peek()
        if token.is_punct("{"):
            return self._parse_block()
        if token.is_keyword("if"):
            return self._parse_if()
        if token.is_keyword("while"):
            return self._parse_while()
        if token.is_keyword("do"):
            return self._parse_do_while()
        if token.is_keyword("for"):
            return self._parse_for()
        if token.is_keyword("return"):
            self._advance()
            value = None
            if not self._check_punct(";"):
                value = self._parse_expression()
            self._expect_punct(";")
            return ast.Return(value, token.location)
        if token.is_keyword("break"):
            self._advance()
            self._expect_punct(";")
            return ast.Break(token.location)
        if token.is_keyword("continue"):
            self._advance()
            self._expect_punct(";")
            return ast.Continue(token.location)
        if token.is_keyword("assert"):
            self._advance()
            self._expect_punct("(")
            expr = self._parse_expression()
            self._expect_punct(")")
            self._expect_punct(";")
            return ast.AssertStmt(expr, token.location)
        if token.is_keyword("abort"):
            self._advance()
            self._expect_punct("(")
            self._expect_punct(")")
            self._expect_punct(";")
            return ast.AbortStmt(token.location)
        if token.is_keyword("switch"):
            return self._parse_switch()
        if token.is_keyword("goto", "case", "default"):
            raise ParseError(
                "{!r} is not supported here by mini-C".format(token.text),
                token.location,
            )
        if token.is_punct(";"):
            self._advance()
            return ast.ExprStmt(None, token.location)
        if self._starts_type(token) and not self._is_expression_start():
            return self._parse_decl_statement()
        expr = self._parse_expression()
        self._expect_punct(";")
        return ast.ExprStmt(expr, token.location)

    def _is_expression_start(self):
        """Disambiguate ``name * x;`` style cases: a typedef name followed by
        anything other than a declarator shape is an expression."""
        token = self._peek()
        if token.kind != IDENT:
            return False
        if token.text not in self.typedefs:
            return True
        following = self._peek(1)
        return not (
            following.is_punct("*") or following.kind == IDENT
        )

    def _parse_decl_statement(self):
        location = self._peek().location
        self._accept_keyword("static")
        base = self._parse_type_specifier()
        decls = []
        while True:
            name_token, type_expr = self._parse_declarator(base)
            decls.append(self._finish_var_decl(name_token, type_expr, False))
            if not self._accept_punct(","):
                break
        self._expect_punct(";")
        return ast.DeclStmt(decls, location)

    def _parse_switch(self):
        location = self._expect_keyword("switch").location
        self._expect_punct("(")
        expr = self._parse_expression()
        self._expect_punct(")")
        self._expect_punct("{")
        entries = []
        while not self._accept_punct("}"):
            if self._accept_keyword("case"):
                value = self._parse_conditional()
                self._expect_punct(":")
                entries.append(("case", value))
            elif self._accept_keyword("default"):
                self._expect_punct(":")
                entries.append(("default", None))
            else:
                entries.append(("stmt", self._parse_statement()))
        return ast.Switch(expr, entries, location)

    def _parse_if(self):
        location = self._expect_keyword("if").location
        self._expect_punct("(")
        cond = self._parse_expression()
        self._expect_punct(")")
        then = self._parse_statement()
        otherwise = None
        if self._accept_keyword("else"):
            otherwise = self._parse_statement()
        return ast.If(cond, then, otherwise, location)

    def _parse_while(self):
        location = self._expect_keyword("while").location
        self._expect_punct("(")
        cond = self._parse_expression()
        self._expect_punct(")")
        body = self._parse_statement()
        return ast.While(cond, body, location)

    def _parse_do_while(self):
        location = self._expect_keyword("do").location
        body = self._parse_statement()
        self._expect_keyword("while")
        self._expect_punct("(")
        cond = self._parse_expression()
        self._expect_punct(")")
        self._expect_punct(";")
        return ast.DoWhile(body, cond, location)

    def _parse_for(self):
        location = self._expect_keyword("for").location
        self._expect_punct("(")
        init = None
        if not self._check_punct(";"):
            if self._starts_type() and not self._is_expression_start():
                init = self._parse_decl_statement()
            else:
                init = ast.ExprStmt(self._parse_expression(), location)
                self._expect_punct(";")
        else:
            self._advance()
        if init is None and not isinstance(init, ast.Stmt):
            pass
        cond = None
        if not self._check_punct(";"):
            cond = self._parse_expression()
        self._expect_punct(";")
        step = None
        if not self._check_punct(")"):
            step = self._parse_expression()
        self._expect_punct(")")
        body = self._parse_statement()
        return ast.For(init, cond, step, body, location)

    # -- expressions -------------------------------------------------------

    def _parse_expression(self):
        expr = self._parse_assignment()
        while self._check_punct(","):
            location = self._advance().location
            right = self._parse_assignment()
            expr = ast.Comma(expr, right, location)
        return expr

    def _parse_assignment(self):
        left = self._parse_conditional()
        token = self._peek()
        if token.kind == PUNCT and token.text in _ASSIGN_OPS:
            self._advance()
            value = self._parse_assignment()
            return ast.Assign(token.text, left, value, token.location)
        return left

    def _parse_conditional(self):
        cond = self._parse_binary(1)
        if self._check_punct("?"):
            location = self._advance().location
            then = self._parse_expression()
            self._expect_punct(":")
            otherwise = self._parse_conditional()
            return ast.Conditional(cond, then, otherwise, location)
        return cond

    def _parse_binary(self, min_precedence):
        left = self._parse_unary()
        while True:
            token = self._peek()
            precedence = _BINARY_PRECEDENCE.get(token.text) \
                if token.kind == PUNCT else None
            if precedence is None or precedence < min_precedence:
                return left
            self._advance()
            right = self._parse_binary(precedence + 1)
            left = ast.Binary(token.text, left, right, token.location)

    def _parse_unary(self):
        token = self._peek()
        if token.kind == PUNCT and token.text in ("-", "!", "~", "*", "&",
                                                  "+", "++", "--"):
            self._advance()
            operand = self._parse_unary()
            if token.text == "+":
                return operand
            return ast.Unary(token.text, operand, token.location)
        if token.is_keyword("sizeof"):
            self._advance()
            if self._check_punct("(") and self._starts_type(self._peek(1)):
                self._expect_punct("(")
                type_expr = self._parse_abstract_type()
                self._expect_punct(")")
                return ast.SizeofType(type_expr, token.location)
            operand = self._parse_unary()
            return ast.SizeofExpr(operand, token.location)
        if token.is_punct("(") and self._starts_type(self._peek(1)):
            # A cast, unless the typedef-looking identifier is actually used
            # as a value; ``(name)`` followed by a binary operator would be
            # ambiguous but mini-C resolves it as a cast like C does.
            self._advance()
            type_expr = self._parse_abstract_type()
            self._expect_punct(")")
            operand = self._parse_unary()
            return ast.Cast(type_expr, operand, token.location)
        return self._parse_postfix()

    def _parse_postfix(self):
        expr = self._parse_primary()
        while True:
            token = self._peek()
            if token.is_punct("["):
                self._advance()
                index = self._parse_expression()
                self._expect_punct("]")
                expr = ast.Index(expr, index, token.location)
            elif token.is_punct("."):
                self._advance()
                name = self._expect_ident()
                expr = ast.Member(expr, name.text, False, token.location)
            elif token.is_punct("->"):
                self._advance()
                name = self._expect_ident()
                expr = ast.Member(expr, name.text, True, token.location)
            elif token.is_punct("++", "--"):
                self._advance()
                expr = ast.Postfix(token.text, expr, token.location)
            else:
                return expr

    def _parse_primary(self):
        token = self._peek()
        if token.kind == INT_LIT or token.kind == CHAR_LIT:
            self._advance()
            return ast.IntLit(token.value, token.location)
        if token.is_keyword("NULL"):
            self._advance()
            return ast.IntLit(0, token.location)
        if token.kind == STRING_LIT:
            self._advance()
            return ast.StringLit(token.value, token.location)
        if token.kind == IDENT:
            self._advance()
            if self._check_punct("("):
                return self._parse_call(token)
            return ast.Ident(token.text, token.location)
        if token.is_keyword("abort"):
            # ``abort()`` in expression position (e.g. ``x ? abort() : 0``)
            # is not supported; keep it a statement as in the paper listings.
            raise ParseError("abort() must be used as a statement",
                             token.location)
        if token.is_punct("("):
            self._advance()
            expr = self._parse_expression()
            self._expect_punct(")")
            return expr
        raise ParseError(
            "expected an expression, found {!r}".format(token.text or "<eof>"),
            token.location,
        )

    def _parse_call(self, name_token):
        self._expect_punct("(")
        args = []
        if not self._check_punct(")"):
            while True:
                args.append(self._parse_assignment())
                if not self._accept_punct(","):
                    break
        self._expect_punct(")")
        return ast.Call(name_token.text, args, name_token.location)


def parse_program(source, filename="<source>"):
    """Lex and parse mini-C source text into a Program AST."""
    tokens = tokenize(source, filename=filename)
    return Parser(tokens, filename=filename).parse_program()
