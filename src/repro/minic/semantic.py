"""Semantic analysis for mini-C: type checking and interface discovery.

Besides ordinary C type checking (with the usual implicit conversions),
this pass computes the information DART's interface extraction (Section 3.1
of the paper) needs:

* *program functions* — functions defined in the translation unit;
* *external functions* — prototypes with no definition (the environment);
* *external variables* — ``extern`` declarations with no defining
  declaration;
* *library functions* — the built-in functions of :mod:`repro.interp.builtins`
  (``malloc``, ``strlen``, ...), treated as deterministic black boxes.
"""

from collections import ChainMap

from repro.minic import ast_nodes as ast
from repro.minic import typesys as ts
from repro.minic.consts import const_value, wrap
from repro.minic.errors import SemanticError
from repro.minic.symbols import (
    BUILTIN,
    ENUM_CONST,
    EXTERNAL_FUNCTION,
    FUNCTION,
    GLOBAL,
    LOCAL,
    PARAM,
    Scope,
    Symbol,
)

_BASE_TYPES = {
    "void": ts.VOID,
    "char": ts.CHAR,
    "signed char": ts.CHAR,
    "unsigned char": ts.UCHAR,
    "short": ts.SHORT,
    "short int": ts.SHORT,
    "signed short": ts.SHORT,
    "unsigned short": ts.USHORT,
    "int": ts.INT,
    "signed": ts.INT,
    "signed int": ts.INT,
    "long": ts.INT,
    "long int": ts.INT,
    "signed long": ts.INT,
    "unsigned": ts.UINT,
    "unsigned int": ts.UINT,
    "unsigned long": ts.UINT,
}

#: Library functions (Section 3.1: "functions not defined in the program but
#: controlled by the program"), with lenient C signatures.  ``None`` in a
#: parameter list means "any scalar/pointer accepted".
BUILTIN_SIGNATURES = {
    "malloc": (ts.PointerType(ts.VOID), [ts.INT]),
    "calloc": (ts.PointerType(ts.VOID), [ts.INT, ts.INT]),
    "free": (ts.VOID, [ts.PointerType(ts.VOID)]),
    "alloca": (ts.PointerType(ts.VOID), [ts.INT]),
    "memcpy": (
        ts.PointerType(ts.VOID),
        [ts.PointerType(ts.VOID), ts.PointerType(ts.VOID), ts.INT],
    ),
    "memset": (
        ts.PointerType(ts.VOID),
        [ts.PointerType(ts.VOID), ts.INT, ts.INT],
    ),
    "strlen": (ts.INT, [ts.PointerType(ts.CHAR)]),
    "strcpy": (
        ts.PointerType(ts.CHAR),
        [ts.PointerType(ts.CHAR), ts.PointerType(ts.CHAR)],
    ),
    "strncpy": (
        ts.PointerType(ts.CHAR),
        [ts.PointerType(ts.CHAR), ts.PointerType(ts.CHAR), ts.INT],
    ),
    "strcmp": (ts.INT, [ts.PointerType(ts.CHAR), ts.PointerType(ts.CHAR)]),
    "strchr": (ts.PointerType(ts.CHAR), [ts.PointerType(ts.CHAR), ts.INT]),
    "printf": (ts.INT, None),  # lenient: any arguments, output ignored
    "exit": (ts.VOID, [ts.INT]),
    # DART input intrinsics, emitted by the generated test driver
    # (Section 3.2).  Each call consumes the next slot of the input vector.
    "__dart_int": (ts.INT, []),
    "__dart_uint": (ts.UINT, []),
    "__dart_char": (ts.CHAR, []),
    "__dart_uchar": (ts.UCHAR, []),
    "__dart_short": (ts.SHORT, []),
    "__dart_ushort": (ts.USHORT, []),
    "__dart_ptr_choice": (ts.INT, []),
}


class Interface:
    """The external interface of a program (Section 3.1)."""

    def __init__(self):
        self.external_functions = {}  # name -> FunctionType
        self.external_variables = {}  # name -> CType
        self.defined_functions = {}  # name -> FunctionType

    def __repr__(self):
        return "Interface(ext_funcs={}, ext_vars={})".format(
            sorted(self.external_functions), sorted(self.external_variables)
        )


class ProgramInfo:
    """Everything later passes need: symbols, types and the interface.

    The info of declarations appended to an analysed program extends that
    program's ``base`` info: the base's symbols and tables show through
    this info's, which describes the two together, but every write lands
    in this info's own layer, so the base is never changed.
    """

    def __init__(self, base=None):
        def table(name):
            return {} if base is None else ChainMap({}, getattr(base, name))

        self.globals_scope = Scope(
            base=None if base is None else base.globals_scope)
        self.struct_types = table("struct_types")  # tag -> StructType
        self.typedefs = table("typedefs")  # name -> CType
        #: name -> FunctionDef (defined only)
        self.functions = table("functions")
        #: name -> FunctionType (defined + declared)
        self.function_types = table("function_types")
        self.interface = Interface()
        #: This layer's string literals, in order of appearance.
        self.string_literals = []


class SemanticAnalyzer:
    """Checks a parsed Program and produces a :class:`ProgramInfo`.

    With ``base``, the Program's declarations are appended to the program
    ``base`` describes, and are checked in its scope (see ProgramInfo).
    A function definition in ``checked`` was analysed before, against
    the same ``base``: it is bound under the type it has, and its body
    is not checked again.
    """

    def __init__(self, program, base=None, checked=()):
        self._program = program
        self._base = base
        self._checked = checked
        self.info = ProgramInfo(base)
        self._current_function = None
        self._loop_depth = 0
        self._break_depth = 0  # loops + switches

    # -- type resolution --------------------------------------------------

    def resolve_type(self, type_expr, location=None, scope=None):
        """The C type ``type_expr`` denotes; an array length is a constant
        expression evaluated in ``scope`` (the global scope by default)."""
        if isinstance(type_expr, ast.BaseTypeExpr):
            try:
                return _BASE_TYPES[type_expr.name]
            except KeyError:
                raise SemanticError(
                    "unknown type {!r}".format(type_expr.name), location
                )
        if isinstance(type_expr, ast.NamedTypeExpr):
            try:
                return self.info.typedefs[type_expr.name]
            except KeyError:
                raise SemanticError(
                    "unknown typedef {!r}".format(type_expr.name), location
                )
        if isinstance(type_expr, ast.StructTypeExpr):
            struct = self.info.struct_types.get(type_expr.tag)
            if struct is None:
                struct = ts.StructType(type_expr.tag,
                                       is_union=type_expr.is_union)
                self.info.struct_types[type_expr.tag] = struct
            elif struct.is_union != type_expr.is_union:
                raise SemanticError(
                    "{!r} used as both struct and union".format(
                        type_expr.tag
                    ),
                    location,
                )
            return struct
        if isinstance(type_expr, ast.PointerTypeExpr):
            return ts.PointerType(
                self.resolve_type(type_expr.pointee, location, scope)
            )
        if isinstance(type_expr, ast.ArrayTypeExpr):
            element = self.resolve_type(type_expr.element, location, scope)
            length = None
            if type_expr.length_expr is not None:
                # Read as an int, so an unsigned wrap-around such as
                # ``sizeof(int) - 5`` is a negative length, not 2**32 - 1.
                length = wrap(self.eval_const(type_expr.length_expr, scope),
                              ts.INT)
                if length < 0:
                    raise SemanticError("negative array length", location)
            return ts.ArrayType(element, length)
        raise SemanticError("unresolvable type syntax", location)

    def eval_const(self, expr, scope=None):
        """Type-check ``expr`` in ``scope`` (the global scope by default)
        and return its value as an integer constant expression."""
        ctype = self._check_expr(expr, scope or self.info.globals_scope)
        value = const_value(expr, _zero_divisor)
        if value is None or not ctype.decay().is_integer():
            raise SemanticError("expression is not a compile-time constant",
                                expr.location)
        return value

    # -- top-level pass ---------------------------------------------------

    def analyze(self):
        for decl in self._program.declarations:
            if isinstance(decl, ast.StructDecl):
                self._declare_struct(decl)
            elif isinstance(decl, ast.TypedefDecl):
                self.info.typedefs[decl.name] = self.resolve_type(
                    decl.type_expr, decl.location
                )
            elif isinstance(decl, ast.EnumDecl):
                self._declare_enum(decl)
            elif isinstance(decl, ast.FunctionDecl):
                self._declare_function(decl, defined=False)
            elif isinstance(decl, ast.FunctionDef):
                if decl in self._checked:
                    self._bind_function(decl, defined=True)
                else:
                    self._declare_function(decl, defined=True)
            elif isinstance(decl, ast.VarDecl):
                self._declare_global(decl)
            else:
                raise SemanticError("unexpected top-level declaration",
                                    decl.location)
        self._compute_interface()
        for decl in self._program.declarations:
            if isinstance(decl, ast.FunctionDef) \
                    and decl not in self._checked:
                self._check_function(decl)
        return self.info

    def _declare_struct(self, decl):
        if decl.fields is not None and self._base is not None \
                and decl.tag in self._base.struct_types:
            raise SemanticError(
                "{!r} is declared by the program the declarations are "
                "appended to".format(decl.tag), decl.location)
        struct = self.info.struct_types.get(decl.tag)
        if struct is None:
            struct = ts.StructType(decl.tag, is_union=decl.is_union)
            self.info.struct_types[decl.tag] = struct
        elif struct.is_union != decl.is_union:
            raise SemanticError(
                "{!r} declared as both struct and union".format(decl.tag),
                decl.location,
            )
        if decl.fields is not None:
            fields = [
                ts.StructField(
                    name, self.resolve_type(texpr, decl.location)
                )
                for name, texpr in decl.fields
            ]
            struct.define(fields)

    def _declare_enum(self, decl):
        next_value = 0
        for name, value_expr in decl.enumerators:
            if value_expr is not None:
                # Converted to int, the enumerator's type.
                next_value = wrap(self.eval_const(value_expr), ts.INT)
            symbol = Symbol(name, ENUM_CONST, ts.INT, value=next_value)
            self.info.globals_scope.define(symbol, decl.location)
            next_value += 1

    def _function_type(self, decl):
        return_type = self.resolve_type(decl.return_type_expr, decl.location)
        param_types = []
        for param in decl.params:
            ptype = self.resolve_type(param.type_expr, param.location)
            ptype = ptype.decay()
            if ptype.is_void():
                raise SemanticError("parameter of type void", param.location)
            param.ctype = ptype
            param_types.append(ptype)
        return ts.FunctionType(return_type, param_types)

    def _declare_function(self, decl, defined):
        if decl.name in BUILTIN_SIGNATURES:
            if defined:
                raise SemanticError(
                    "cannot redefine library function {!r}".format(decl.name),
                    decl.location,
                )
            # A prototype for a builtin is harmless; accept and ignore it.
            decl.ftype = self._function_type(decl)
            return
        decl.ftype = self._function_type(decl)
        self._bind_function(decl, defined)

    def _bind_function(self, decl, defined):
        """Enter ``decl``, whose ``ftype`` is resolved, in the tables."""
        ftype = decl.ftype
        existing = self.info.function_types.get(decl.name)
        if existing is not None and existing != ftype:
            raise SemanticError(
                "conflicting declarations for {!r}".format(decl.name),
                decl.location,
            )
        self.info.function_types[decl.name] = ftype
        if defined:
            if decl.name in self.info.functions:
                raise SemanticError(
                    "redefinition of function {!r}".format(decl.name),
                    decl.location,
                )
            self.info.functions[decl.name] = decl
            existing_symbol = self.info.globals_scope.own(decl.name)
            if existing_symbol is None:
                self.info.globals_scope.define(
                    Symbol(decl.name, FUNCTION, ftype, decl=decl),
                    decl.location,
                )
            else:
                existing_symbol.kind = FUNCTION
                existing_symbol.decl = decl
        else:
            if self.info.globals_scope.lookup_local(decl.name) is None:
                self.info.globals_scope.define(
                    Symbol(decl.name, EXTERNAL_FUNCTION, ftype, decl=decl),
                    decl.location,
                )

    def _declare_global(self, decl):
        ctype = self.resolve_type(decl.type_expr, decl.location)
        if ctype.is_void():
            raise SemanticError("variable of type void", decl.location)
        if not ctype.is_complete():
            raise SemanticError(
                "global {!r} has incomplete type".format(decl.name),
                decl.location,
            )
        decl.ctype = ctype
        existing = self.info.globals_scope.lookup_local(decl.name)
        if existing is not None:
            if existing.ctype != ctype:
                raise SemanticError(
                    "conflicting declarations for {!r}".format(decl.name),
                    decl.location,
                )
            if not decl.is_extern:
                existing = self.info.globals_scope.own(decl.name)
                existing.is_extern = False
                existing.decl = decl
            decl.symbol = existing
            return
        symbol = Symbol(
            decl.name, GLOBAL, ctype, decl=decl, is_extern=decl.is_extern
        )
        decl.symbol = symbol
        self.info.globals_scope.define(symbol, decl.location)
        if decl.init is not None:
            self._check_expr(decl.init, self.info.globals_scope)
            self._check_assignable(ctype, decl.init, decl.location)

    def _compute_interface(self):
        """The interface of the program, with ``base`` that of the base
        program changed by this info's own layer alone: a name the layer
        declares or binds is classified again, and every other keeps the
        class the base gave it."""
        info = self.info
        interface = info.interface
        if self._base is None:
            function_types = info.function_types
            symbols = info.globals_scope.symbols()
        else:
            base = self._base.interface
            interface.defined_functions.update(base.defined_functions)
            interface.external_functions.update(base.external_functions)
            interface.external_variables.update(base.external_variables)
            function_types = info.function_types.maps[0]
            symbols = info.globals_scope.own_symbols()
        for name, ftype in function_types.items():
            if name in info.functions:
                interface.external_functions.pop(name, None)
                interface.defined_functions[name] = ftype
            else:
                interface.external_functions[name] = ftype
        for symbol in symbols:
            if symbol.kind == GLOBAL and symbol.is_extern:
                interface.external_variables[symbol.name] = symbol.ctype
            else:
                interface.external_variables.pop(symbol.name, None)

    # -- function bodies ---------------------------------------------------

    def _check_function(self, decl):
        self._current_function = decl
        scope = Scope(self.info.globals_scope)
        for param in decl.params:
            if param.name is None:
                raise SemanticError("unnamed parameter in definition",
                                    param.location)
            symbol = Symbol(param.name, PARAM, param.ctype, decl=param)
            param.symbol = symbol
            scope.define(symbol, param.location)
        self._check_block(decl.body, scope)
        self._current_function = None

    def _check_block(self, block, parent_scope):
        scope = Scope(parent_scope)
        for stmt in block.statements:
            self._check_stmt(stmt, scope)

    def _check_stmt(self, stmt, scope):
        if isinstance(stmt, ast.Block):
            self._check_block(stmt, scope)
        elif isinstance(stmt, ast.ExprStmt):
            if stmt.expr is not None:
                self._check_expr(stmt.expr, scope)
        elif isinstance(stmt, ast.If):
            self._check_condition(stmt.cond, scope)
            self._check_stmt(stmt.then, scope)
            if stmt.otherwise is not None:
                self._check_stmt(stmt.otherwise, scope)
        elif isinstance(stmt, ast.While):
            self._check_condition(stmt.cond, scope)
            self._in_loop(stmt.body, scope)
        elif isinstance(stmt, ast.DoWhile):
            self._in_loop(stmt.body, scope)
            self._check_condition(stmt.cond, scope)
        elif isinstance(stmt, ast.For):
            inner = Scope(scope)
            if stmt.init is not None:
                self._check_stmt(stmt.init, inner)
            if stmt.cond is not None:
                self._check_condition(stmt.cond, inner)
            if stmt.step is not None:
                self._check_expr(stmt.step, inner)
            self._in_loop(stmt.body, inner)
        elif isinstance(stmt, ast.Return):
            self._check_return(stmt, scope)
        elif isinstance(stmt, ast.Break):
            if self._break_depth == 0:
                raise SemanticError(
                    "break outside of a loop or switch", stmt.location
                )
        elif isinstance(stmt, ast.Continue):
            if self._loop_depth == 0:
                raise SemanticError(
                    "continue outside of a loop", stmt.location
                )
        elif isinstance(stmt, ast.Switch):
            self._check_switch(stmt, scope)
        elif isinstance(stmt, ast.AssertStmt):
            self._check_condition(stmt.expr, scope)
        elif isinstance(stmt, ast.AbortStmt):
            pass
        elif isinstance(stmt, ast.DeclStmt):
            for decl in stmt.decls:
                self._check_local_decl(decl, scope)
        else:
            raise SemanticError("unexpected statement", stmt.location)

    def _in_loop(self, body, scope):
        self._loop_depth += 1
        self._break_depth += 1
        try:
            self._check_stmt(body, scope)
        finally:
            self._loop_depth -= 1
            self._break_depth -= 1

    def _check_switch(self, stmt, scope):
        ctype = self._check_expr(stmt.expr, scope).decay()
        if not ctype.is_integer():
            raise SemanticError(
                "switch expression must be an integer", stmt.location
            )
        seen_values = set()
        default_count = 0
        inner = Scope(scope)
        self._break_depth += 1
        try:
            for kind, payload in stmt.entries:
                if kind == "case":
                    value = self.eval_const(payload, inner)
                    if value in seen_values:
                        raise SemanticError(
                            "duplicate case value {}".format(value),
                            stmt.location,
                        )
                    seen_values.add(value)
                    payload.case_value = value
                elif kind == "default":
                    default_count += 1
                    if default_count > 1:
                        raise SemanticError(
                            "multiple default labels", stmt.location
                        )
                else:
                    self._check_stmt(payload, inner)
        finally:
            self._break_depth -= 1

    def _check_local_decl(self, decl, scope):
        ctype = self.resolve_type(decl.type_expr, decl.location, scope)
        if ctype.is_void():
            raise SemanticError("variable of type void", decl.location)
        if not ctype.is_complete():
            raise SemanticError(
                "local {!r} has incomplete type".format(decl.name),
                decl.location,
            )
        decl.ctype = ctype
        symbol = Symbol(decl.name, LOCAL, ctype, decl=decl)
        decl.symbol = symbol
        scope.define(symbol, decl.location)
        if decl.init is not None:
            self._check_expr(decl.init, scope)
            self._check_assignable(ctype, decl.init, decl.location)

    def _check_return(self, stmt, scope):
        return_type = self._current_function.ftype.return_type
        if stmt.value is None:
            if not return_type.is_void():
                raise SemanticError(
                    "non-void function must return a value", stmt.location
                )
            return
        if return_type.is_void():
            raise SemanticError("void function returns a value",
                                stmt.location)
        self._check_expr(stmt.value, scope)
        self._check_assignable(return_type, stmt.value, stmt.location)

    # -- expressions --------------------------------------------------------

    def _check_condition(self, expr, scope):
        ctype = self._check_expr(expr, scope)
        if not ctype.decay().is_scalar():
            raise SemanticError("condition must be scalar", expr.location)
        return ctype

    def _check_assignable(self, target, value_expr, location):
        source = value_expr.ctype.decay()
        if target.is_integer() and source.is_integer():
            return
        if target.is_pointer() and source.is_pointer():
            return  # C would warn on incompatible pointees; mini-C is lenient
        if target.is_pointer() and isinstance(value_expr, ast.IntLit) \
                and value_expr.value == 0:
            return
        if target.is_struct() and source == target:
            return
        raise SemanticError(
            "cannot assign {} to {}".format(source, target), location
        )

    def _check_expr(self, expr, scope):
        """Type-check ``expr``, annotate it, and return its C type."""
        method = getattr(self, "_check_" + type(expr).__name__.lower())
        ctype = method(expr, scope)
        expr.ctype = ctype
        return ctype

    def _check_intlit(self, expr, scope):
        expr.is_lvalue = False
        if -(1 << 31) <= expr.value <= (1 << 32) - 1:
            return ts.INT if expr.value <= (1 << 31) - 1 else ts.UINT
        raise SemanticError("integer literal out of range", expr.location)

    def _check_stringlit(self, expr, scope):
        expr.is_lvalue = False
        self.info.string_literals.append(expr)
        return ts.ArrayType(ts.CHAR, len(expr.data) + 1)

    def _check_ident(self, expr, scope):
        symbol = scope.lookup(expr.name)
        if symbol is None:
            raise SemanticError(
                "use of undeclared identifier {!r}".format(expr.name),
                expr.location,
            )
        if symbol.kind in (FUNCTION, EXTERNAL_FUNCTION):
            raise SemanticError(
                "function {!r} used as a value (function pointers are not "
                "supported)".format(expr.name),
                expr.location,
            )
        expr.symbol = symbol
        expr.is_lvalue = symbol.kind != ENUM_CONST
        return symbol.ctype

    def _check_unary(self, expr, scope):
        op = expr.op
        operand_type = self._check_expr(expr.operand, scope)
        if op == "&":
            if not expr.operand.is_lvalue:
                raise SemanticError("cannot take the address of an rvalue",
                                    expr.location)
            expr.is_lvalue = False
            return ts.PointerType(operand_type)
        decayed = operand_type.decay()
        if op == "*":
            if not decayed.is_pointer():
                raise SemanticError("cannot dereference non-pointer",
                                    expr.location)
            pointee = decayed.pointee
            if pointee.is_void():
                raise SemanticError("cannot dereference void pointer",
                                    expr.location)
            expr.is_lvalue = True
            return pointee
        if op == "!":
            if not decayed.is_scalar():
                raise SemanticError("operand of ! must be scalar",
                                    expr.location)
            return ts.INT
        if op in ("-", "~"):
            if not decayed.is_integer():
                raise SemanticError(
                    "operand of {!r} must be an integer".format(op),
                    expr.location,
                )
            return ts.integer_promote(decayed)
        if op in ("++", "--"):
            if not expr.operand.is_lvalue:
                raise SemanticError("operand of {!r} must be an lvalue"
                                    .format(op), expr.location)
            if not decayed.is_scalar():
                raise SemanticError("operand of {!r} must be scalar"
                                    .format(op), expr.location)
            return decayed
        raise SemanticError("unknown unary operator {!r}".format(op),
                            expr.location)

    def _check_postfix(self, expr, scope):
        operand_type = self._check_expr(expr.operand, scope).decay()
        if not expr.operand.is_lvalue:
            raise SemanticError("operand of {!r} must be an lvalue"
                                .format(expr.op), expr.location)
        if not operand_type.is_scalar():
            raise SemanticError("operand of {!r} must be scalar"
                                .format(expr.op), expr.location)
        return operand_type

    def _check_binary(self, expr, scope):
        op = expr.op
        left = self._check_expr(expr.left, scope).decay()
        right = self._check_expr(expr.right, scope).decay()
        if op in ("&&", "||"):
            if not (left.is_scalar() and right.is_scalar()):
                raise SemanticError("operands of {!r} must be scalar"
                                    .format(op), expr.location)
            return ts.INT
        if op in ("==", "!=", "<", ">", "<=", ">="):
            if left.is_pointer() or right.is_pointer():
                ok = (
                    (left.is_pointer() and right.is_pointer())
                    or (left.is_pointer() and _is_zero(expr.right))
                    or (right.is_pointer() and _is_zero(expr.left))
                )
                if not ok:
                    raise SemanticError(
                        "invalid pointer comparison", expr.location
                    )
                return ts.INT
            if left.is_integer() and right.is_integer():
                return ts.INT
            raise SemanticError("invalid comparison operands", expr.location)
        if op in ("+", "-"):
            if left.is_pointer() and right.is_integer():
                self._check_pointer_arith(left, expr)
                return left
            if op == "+" and left.is_integer() and right.is_pointer():
                self._check_pointer_arith(right, expr)
                return right
            if op == "-" and left.is_pointer() and right.is_pointer():
                return ts.INT
        if left.is_integer() and right.is_integer():
            return ts.usual_arithmetic_conversion(left, right)
        raise SemanticError(
            "invalid operands to binary {!r} ({} and {})".format(
                op, left, right
            ),
            expr.location,
        )

    @staticmethod
    def _check_pointer_arith(pointer_type, expr):
        if not pointer_type.pointee.is_complete() \
                and not pointer_type.pointee.is_void():
            raise SemanticError("pointer arithmetic on incomplete type",
                                expr.location)

    def _check_assign(self, expr, scope):
        target_type = self._check_expr(expr.target, scope)
        if not expr.target.is_lvalue:
            raise SemanticError("assignment target is not an lvalue",
                                expr.location)
        if target_type.is_array():
            raise SemanticError("cannot assign to an array", expr.location)
        value_type = self._check_expr(expr.value, scope)
        if expr.op == "=":
            self._check_assignable(target_type, expr.value, expr.location)
        else:
            # Compound assignment: target OP= value desugars to
            # target = target OP value; validate the arithmetic shape.
            base_op = expr.op[:-1]
            decayed = target_type.decay()
            if base_op in ("+", "-") and decayed.is_pointer():
                if not value_type.decay().is_integer():
                    raise SemanticError("invalid pointer arithmetic",
                                        expr.location)
            elif not (decayed.is_integer()
                      and value_type.decay().is_integer()):
                raise SemanticError(
                    "invalid operands to {!r}".format(expr.op), expr.location
                )
        return target_type

    def _check_conditional(self, expr, scope):
        self._check_condition(expr.cond, scope)
        then_type = self._check_expr(expr.then, scope).decay()
        else_type = self._check_expr(expr.otherwise, scope).decay()
        if then_type.is_integer() and else_type.is_integer():
            return ts.usual_arithmetic_conversion(then_type, else_type)
        if then_type.is_pointer() and else_type.is_pointer():
            return then_type
        if then_type.is_pointer() and _is_zero(expr.otherwise):
            return then_type
        if else_type.is_pointer() and _is_zero(expr.then):
            return else_type
        if then_type == else_type:
            return then_type
        raise SemanticError("incompatible conditional branches",
                            expr.location)

    def _check_comma(self, expr, scope):
        self._check_expr(expr.left, scope)
        return self._check_expr(expr.right, scope)

    def _check_call(self, expr, scope):
        name = expr.name
        arg_types = [self._check_expr(arg, scope).decay()
                     for arg in expr.args]
        if name in BUILTIN_SIGNATURES:
            return_type, param_types = BUILTIN_SIGNATURES[name]
            expr.symbol = Symbol(name, BUILTIN,
                                 ts.FunctionType(return_type,
                                                 param_types or []))
            if param_types is not None:
                if len(arg_types) != len(param_types):
                    raise SemanticError(
                        "{!r} expects {} argument(s), got {}".format(
                            name, len(param_types), len(arg_types)
                        ),
                        expr.location,
                    )
                for arg, ptype in zip(expr.args, param_types):
                    self._check_call_arg(arg, ptype, expr.location)
            return return_type
        ftype = self.info.function_types.get(name)
        if ftype is None:
            raise SemanticError(
                "call to undeclared function {!r}".format(name),
                expr.location,
            )
        symbol = self.info.globals_scope.lookup(name)
        expr.symbol = symbol
        if len(arg_types) != len(ftype.param_types):
            raise SemanticError(
                "{!r} expects {} argument(s), got {}".format(
                    name, len(ftype.param_types), len(arg_types)
                ),
                expr.location,
            )
        for arg, ptype in zip(expr.args, ftype.param_types):
            self._check_call_arg(arg, ptype, expr.location)
        return ftype.return_type

    def _check_call_arg(self, arg, param_type, location):
        source = arg.ctype.decay()
        if param_type.is_integer() and source.is_integer():
            return
        if param_type.is_pointer() and source.is_pointer():
            return
        if param_type.is_pointer() and _is_zero(arg):
            return
        if param_type == source:
            return
        raise SemanticError(
            "cannot pass {} for parameter of type {}".format(
                source, param_type
            ),
            location,
        )

    def _check_index(self, expr, scope):
        base = self._check_expr(expr.base, scope).decay()
        index = self._check_expr(expr.index, scope).decay()
        if base.is_integer() and index.is_pointer():
            base, index = index, base
        if not base.is_pointer() or not index.is_integer():
            raise SemanticError("invalid array subscript", expr.location)
        if not base.pointee.is_complete():
            raise SemanticError("subscript of incomplete type", expr.location)
        expr.is_lvalue = True
        return base.pointee

    def _check_member(self, expr, scope):
        base = self._check_expr(expr.base, scope)
        if expr.arrow:
            decayed = base.decay()
            if not decayed.is_pointer() or not decayed.pointee.is_struct():
                raise SemanticError(
                    "-> applied to non-struct-pointer", expr.location
                )
            struct = decayed.pointee
            expr.is_lvalue = True
        else:
            if not base.is_struct():
                raise SemanticError(". applied to non-struct", expr.location)
            struct = base
            expr.is_lvalue = expr.base.is_lvalue
        field = struct.field(expr.name)
        expr.field = field
        return field.ctype

    def _check_cast(self, expr, scope):
        target = self.resolve_type(expr.type_expr, expr.location, scope)
        source = self._check_expr(expr.operand, scope).decay()
        if target.is_void():
            return target
        if not target.is_scalar():
            raise SemanticError("cast target must be scalar or void",
                                expr.location)
        if not source.is_scalar():
            raise SemanticError("cast source must be scalar", expr.location)
        return target

    def _check_sizeoftype(self, expr, scope):
        ctype = self.resolve_type(expr.type_expr, expr.location, scope)
        if not ctype.is_complete() and not ctype.is_void():
            raise SemanticError("sizeof incomplete type", expr.location)
        expr.size = ctype.size
        return ts.UINT

    def _check_sizeofexpr(self, expr, scope):
        operand_type = self._check_expr(expr.operand, scope)
        expr.size = operand_type.size
        return ts.UINT


def _is_zero(expr):
    return isinstance(expr, ast.IntLit) and expr.value == 0


def _zero_divisor(expr):
    raise SemanticError(
        "{} by zero in constant expression".format(
            "division" if expr.op == "/" else "modulo"),
        expr.location,
    )


def analyze(program, base=None, checked=()):
    """Run semantic analysis; returns the :class:`ProgramInfo`.

    With ``base``, the ProgramInfo of an analysed program, ``program``
    holds declarations appended to that program; ``base`` and the nodes
    it describes are left unchanged.  The function definitions in
    ``checked`` were analysed before against the same ``base`` and are
    bound as they are (see :class:`SemanticAnalyzer`).
    """
    return SemanticAnalyzer(program, base, checked).analyze()
