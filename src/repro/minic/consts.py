"""Constant expressions, evaluated with the RAM machine's arithmetic.

:func:`const_value` is the only constant arithmetic in the tree.  Lowering
folds code with it, global initializers are evaluated with it, and
semantic analysis uses it for array lengths, enumerators and case labels,
so a constant means the same thing in every context and the same thing as
when the machine computes it at run time:

* every operator wraps to its result type (C's 32-bit modular arithmetic);
* a comparison compares unsigned when an operand is a pointer or the
  usual arithmetic conversions make it unsigned (C's promotions: an
  ``unsigned char`` operand compares as ``int``);
* shift counts are masked to 5 bits;
* ``/`` and ``%`` truncate toward zero;
* a cast wraps to an integer type, masks to a pointer type and gives 0
  for ``void``.

Division by zero and pointer arithmetic are not constants: the first must
fault at run time with its location, and addresses are per-machine.

:func:`wrap`, :func:`c_div` and :func:`c_mod` are the machine's integer
arithmetic too (:mod:`repro.interp.values` re-exports them).
"""

import operator

from repro.minic import ast_nodes as ast
from repro.minic.symbols import ENUM_CONST
from repro.minic.typesys import compares_unsigned

WORD_MASK = 0xFFFFFFFF


def wrap(value, ctype):
    """Wrap ``value`` into the representation range of integer type ``ctype``."""
    bits = 8 * ctype.size
    value &= (1 << bits) - 1
    if ctype.signed and value >> (bits - 1):
        value -= 1 << bits
    return value


def c_div(a, b):
    """C99 integer division: truncation toward zero."""
    quotient = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        quotient = -quotient
    return quotient


def c_mod(a, b):
    """C99 remainder: ``a == c_div(a, b) * b + c_mod(a, b)``."""
    return a - c_div(a, b) * b


_COMPARISONS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
}

_ARITHMETIC = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": c_div,
    "%": c_mod,
    "<<": lambda a, b: a << (b & 31),
    ">>": lambda a, b: a >> (b & 31),
    "&": operator.and_,
    "|": operator.or_,
    "^": operator.xor,
}


def _convert(value, ctype):
    """``value`` converted to the scalar (or void) type ``ctype``."""
    if ctype.is_void():
        return 0
    if ctype.is_pointer():
        return value & WORD_MASK
    return wrap(value, ctype)


def const_value(expr, on_zero_divisor=None):
    """The value the machine computes for the type-annotated ``expr``, or
    None when ``expr`` is not a constant.

    ``on_zero_divisor(node)`` is called for a constant ``/`` or ``%`` by
    zero before None is returned; a caller that must reject the
    expression with a located error raises from it.
    """
    if isinstance(expr, ast.IntLit):
        return expr.value
    if isinstance(expr, (ast.SizeofExpr, ast.SizeofType)):
        return expr.size
    if isinstance(expr, ast.Ident):
        symbol = expr.symbol
        if symbol is not None and symbol.kind == ENUM_CONST:
            return symbol.value
        return None
    if isinstance(expr, ast.Unary):
        if expr.op not in ("-", "~", "!"):
            return None
        value = const_value(expr.operand, on_zero_divisor)
        if value is None:
            return None
        if expr.op == "!":
            return 0 if value else 1
        return wrap(-value if expr.op == "-" else ~value, expr.ctype)
    if isinstance(expr, ast.Cast):
        value = const_value(expr.operand, on_zero_divisor)
        return None if value is None else _convert(value, expr.ctype)
    if isinstance(expr, ast.Conditional):
        cond = const_value(expr.cond, on_zero_divisor)
        then = const_value(expr.then, on_zero_divisor)
        otherwise = const_value(expr.otherwise, on_zero_divisor)
        if None in (cond, then, otherwise):
            return None
        return _convert(then if cond else otherwise, expr.ctype)
    if isinstance(expr, ast.Binary):
        return _binary_value(expr, on_zero_divisor)
    return None


def _binary_value(expr, on_zero_divisor):
    left = const_value(expr.left, on_zero_divisor)
    if left is None:
        return None
    right = const_value(expr.right, on_zero_divisor)
    if right is None:
        return None
    op = expr.op
    if op == "&&":
        return 1 if left and right else 0
    if op == "||":
        return 1 if left or right else 0
    left_type = expr.left.ctype.decay()
    right_type = expr.right.ctype.decay()
    if op in _COMPARISONS:
        if compares_unsigned(left_type, right_type):
            left &= WORD_MASK
            right &= WORD_MASK
        return 1 if _COMPARISONS[op](left, right) else 0
    if left_type.is_pointer() or right_type.is_pointer():
        return None
    result_type = expr.ctype.decay()
    if not result_type.signed:
        left &= WORD_MASK
        right &= WORD_MASK
    if op in ("/", "%") and right == 0:
        if on_zero_divisor is not None:
            on_zero_divisor(expr)
        return None
    return wrap(_ARITHMETIC[op](left, right), result_type)
