"""AST node classes for mini-C.

Nodes are deliberately plain: the parser builds them, the semantic analyzer
annotates expressions with a resolved ``ctype`` (and lvalue-ness), and the
lowering pass consumes them.  Type *syntax* is represented by the small
``TypeExpr`` hierarchy at the bottom of this module; it is resolved to
:mod:`repro.minic.typesys` types during semantic analysis, when struct tags
and typedefs are known.
"""


class Node:
    """Base class: every node records its source location."""

    def __init__(self, location):
        self.location = location


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr(Node):
    """Base class for expressions.

    Semantic analysis fills in ``ctype`` (the expression's C type) and
    ``is_lvalue``.
    """

    def __init__(self, location):
        super().__init__(location)
        self.ctype = None
        self.is_lvalue = False


class IntLit(Expr):
    def __init__(self, value, location):
        super().__init__(location)
        self.value = value

    def __repr__(self):
        return "IntLit({})".format(self.value)


class StringLit(Expr):
    """A string literal; ``data`` excludes the implicit NUL terminator."""

    def __init__(self, data, location):
        super().__init__(location)
        self.data = data

    def __repr__(self):
        return "StringLit({!r})".format(self.data)


class Ident(Expr):
    def __init__(self, name, location):
        super().__init__(location)
        self.name = name
        self.symbol = None  # filled by semantic analysis

    def __repr__(self):
        return "Ident({!r})".format(self.name)


class Unary(Expr):
    """Prefix operators: ``- ! ~ * & ++ --`` (``op`` is the lexeme)."""

    def __init__(self, op, operand, location):
        super().__init__(location)
        self.op = op
        self.operand = operand

    def __repr__(self):
        return "Unary({!r}, {!r})".format(self.op, self.operand)


class Postfix(Expr):
    """Postfix ``++``/``--``."""

    def __init__(self, op, operand, location):
        super().__init__(location)
        self.op = op
        self.operand = operand

    def __repr__(self):
        return "Postfix({!r}, {!r})".format(self.op, self.operand)


class Binary(Expr):
    """All binary operators, including ``&&``/``||`` (lowered to branches)."""

    def __init__(self, op, left, right, location):
        super().__init__(location)
        self.op = op
        self.left = left
        self.right = right

    def __repr__(self):
        return "Binary({!r}, {!r}, {!r})".format(self.op, self.left, self.right)


class Assign(Expr):
    """Assignment; ``op`` is ``=`` or a compound form like ``+=``."""

    def __init__(self, op, target, value, location):
        super().__init__(location)
        self.op = op
        self.target = target
        self.value = value

    def __repr__(self):
        return "Assign({!r}, {!r}, {!r})".format(self.op, self.target, self.value)


class Conditional(Expr):
    """The ternary ``cond ? then : otherwise`` operator."""

    def __init__(self, cond, then, otherwise, location):
        super().__init__(location)
        self.cond = cond
        self.then = then
        self.otherwise = otherwise


class Comma(Expr):
    def __init__(self, left, right, location):
        super().__init__(location)
        self.left = left
        self.right = right


class Call(Expr):
    """A direct call ``name(args...)`` (no function pointers in mini-C)."""

    def __init__(self, name, args, location):
        super().__init__(location)
        self.name = name
        self.args = args
        self.symbol = None  # filled by semantic analysis

    def __repr__(self):
        return "Call({!r}, {} args)".format(self.name, len(self.args))


class Index(Expr):
    def __init__(self, base, index, location):
        super().__init__(location)
        self.base = base
        self.index = index


class Member(Expr):
    """``base.name`` (``arrow`` False) or ``base->name`` (``arrow`` True)."""

    def __init__(self, base, name, arrow, location):
        super().__init__(location)
        self.base = base
        self.name = name
        self.arrow = arrow
        self.field = None  # filled by semantic analysis


class Cast(Expr):
    def __init__(self, type_expr, operand, location):
        super().__init__(location)
        self.type_expr = type_expr
        self.operand = operand


class SizeofType(Expr):
    def __init__(self, type_expr, location):
        super().__init__(location)
        self.type_expr = type_expr


class SizeofExpr(Expr):
    def __init__(self, operand, location):
        super().__init__(location)
        self.operand = operand


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt(Node):
    pass


class Block(Stmt):
    def __init__(self, statements, location):
        super().__init__(location)
        self.statements = statements


class ExprStmt(Stmt):
    def __init__(self, expr, location):
        super().__init__(location)
        self.expr = expr  # may be None for the empty statement ``;``


class If(Stmt):
    def __init__(self, cond, then, otherwise, location):
        super().__init__(location)
        self.cond = cond
        self.then = then
        self.otherwise = otherwise  # may be None


class While(Stmt):
    def __init__(self, cond, body, location):
        super().__init__(location)
        self.cond = cond
        self.body = body


class DoWhile(Stmt):
    def __init__(self, body, cond, location):
        super().__init__(location)
        self.body = body
        self.cond = cond


class For(Stmt):
    def __init__(self, init, cond, step, body, location):
        super().__init__(location)
        self.init = init  # DeclStmt, Expr or None
        self.cond = cond  # Expr or None
        self.step = step  # Expr or None
        self.body = body


class Return(Stmt):
    def __init__(self, value, location):
        super().__init__(location)
        self.value = value  # may be None


class Break(Stmt):
    pass


class Continue(Stmt):
    pass


class AssertStmt(Stmt):
    """``assert(e);`` — lowered to ``if (!e) abort()`` so the directed
    search can steer execution toward the violation (Section 4.2 note 8)."""

    def __init__(self, expr, location):
        super().__init__(location)
        self.expr = expr


class AbortStmt(Stmt):
    """``abort();`` — the RAM machine's error statement."""


class Switch(Stmt):
    """``switch`` with C fall-through semantics.

    ``entries`` is the flattened body: a list of ``("case", Expr)``,
    ``("default", None)`` and ``("stmt", Stmt)`` items in source order,
    which preserves arbitrary interleavings of labels and statements.
    """

    def __init__(self, expr, entries, location):
        super().__init__(location)
        self.expr = expr
        self.entries = entries


class DeclStmt(Stmt):
    """A local declaration statement; may declare several variables."""

    def __init__(self, decls, location):
        super().__init__(location)
        self.decls = decls  # list of VarDecl


# ---------------------------------------------------------------------------
# Top-level declarations
# ---------------------------------------------------------------------------


class VarDecl(Node):
    def __init__(self, name, type_expr, init, location, is_extern=False):
        super().__init__(location)
        self.name = name
        self.type_expr = type_expr
        self.init = init  # Expr or None
        self.is_extern = is_extern
        self.ctype = None  # filled by semantic analysis
        self.symbol = None


class ParamDecl(Node):
    def __init__(self, name, type_expr, location):
        super().__init__(location)
        self.name = name  # may be None in prototypes
        self.type_expr = type_expr
        self.ctype = None
        self.symbol = None  # filled by semantic analysis (definitions only)


class FunctionDef(Node):
    def __init__(self, name, return_type_expr, params, body, location):
        super().__init__(location)
        self.name = name
        self.return_type_expr = return_type_expr
        self.params = params  # list of ParamDecl
        self.body = body  # Block
        self.ftype = None  # FunctionType, filled by semantic analysis


class FunctionDecl(Node):
    """A prototype.  Prototypes without a matching definition are the
    program's *external functions* (Section 3.1)."""

    def __init__(self, name, return_type_expr, params, location):
        super().__init__(location)
        self.name = name
        self.return_type_expr = return_type_expr
        self.params = params
        self.ftype = None


class StructDecl(Node):
    """A struct/union definition (forward declaration when ``fields`` is
    None)."""

    def __init__(self, tag, fields, location, is_union=False):
        super().__init__(location)
        self.tag = tag
        self.fields = fields  # list of (name, TypeExpr) or None
        self.is_union = is_union


class TypedefDecl(Node):
    def __init__(self, name, type_expr, location):
        super().__init__(location)
        self.name = name
        self.type_expr = type_expr


class EnumDecl(Node):
    def __init__(self, tag, enumerators, location):
        super().__init__(location)
        self.tag = tag
        self.enumerators = enumerators  # list of (name, Expr or None)


class Program(Node):
    """The translation unit: an ordered list of top-level declarations."""

    def __init__(self, declarations, location):
        super().__init__(location)
        self.declarations = declarations


# ---------------------------------------------------------------------------
# Type syntax (resolved during semantic analysis)
# ---------------------------------------------------------------------------


class TypeExpr:
    """Base class for unresolved type syntax."""


class BaseTypeExpr(TypeExpr):
    """A builtin type name such as ``int`` or ``unsigned char``."""

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return "BaseTypeExpr({!r})".format(self.name)


class NamedTypeExpr(TypeExpr):
    """A typedef name, resolved against the typedef table."""

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return "NamedTypeExpr({!r})".format(self.name)


class StructTypeExpr(TypeExpr):
    def __init__(self, tag, is_union=False):
        self.tag = tag
        self.is_union = is_union

    def __repr__(self):
        return "StructTypeExpr({!r})".format(self.tag)


class PointerTypeExpr(TypeExpr):
    def __init__(self, pointee):
        self.pointee = pointee

    def __repr__(self):
        return "PointerTypeExpr({!r})".format(self.pointee)


class ArrayTypeExpr(TypeExpr):
    def __init__(self, element, length_expr):
        self.element = element
        self.length_expr = length_expr  # Expr (constant) or None

    def __repr__(self):
        return "ArrayTypeExpr({!r})".format(self.element)
