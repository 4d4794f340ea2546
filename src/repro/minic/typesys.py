"""The mini-C type system.

Byte-accurate sizes and struct field offsets matter for this reproduction:
the paper's Section 2.5 example overwrites a struct field through a
``char *`` cast at offset ``sizeof(int)``, and the oSIP study depends on
pointer-sized reasoning.  Types therefore model a conventional 32-bit C
target: ``char`` is 1 byte, ``short`` 2, ``int``/``long``/pointers 4, with
natural alignment.
"""

from repro.minic.errors import SemanticError


class CType:
    """Base class for mini-C types.

    Types are structural value objects: equality compares shape (struct
    types compare by tag identity, as in C).
    """

    size = 0
    alignment = 1

    def is_integer(self):
        return isinstance(self, IntType)

    def is_pointer(self):
        return isinstance(self, PointerType)

    def is_array(self):
        return isinstance(self, ArrayType)

    def is_struct(self):
        return isinstance(self, StructType)

    def is_void(self):
        return isinstance(self, VoidType)

    def is_scalar(self):
        return self.is_integer() or self.is_pointer()

    def is_complete(self):
        return True

    def decay(self):
        """Array-to-pointer decay; other types are returned unchanged."""
        if isinstance(self, ArrayType):
            return PointerType(self.element)
        return self

    def __ne__(self, other):
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result


class VoidType(CType):
    size = 0
    alignment = 1

    def is_complete(self):
        return False

    def __eq__(self, other):
        return isinstance(other, VoidType)

    def __hash__(self):
        return hash("void")

    def __str__(self):
        return "void"


class IntType(CType):
    """A (possibly unsigned) integer type of 1, 2 or 4 bytes."""

    def __init__(self, size, signed=True, name=None):
        if size not in (1, 2, 4):
            raise ValueError("unsupported integer size {}".format(size))
        self.size = size
        self.alignment = size
        self.signed = signed
        self._name = name

    @property
    def min_value(self):
        if self.signed:
            return -(1 << (8 * self.size - 1))
        return 0

    @property
    def max_value(self):
        if self.signed:
            return (1 << (8 * self.size - 1)) - 1
        return (1 << (8 * self.size)) - 1

    def __eq__(self, other):
        return (
            isinstance(other, IntType)
            and other.size == self.size
            and other.signed == self.signed
        )

    def __hash__(self):
        return hash(("int", self.size, self.signed))

    def __str__(self):
        if self._name:
            return self._name
        base = {1: "char", 2: "short", 4: "int"}[self.size]
        return base if self.signed else "unsigned " + base


#: The canonical built-in integer types.
CHAR = IntType(1, signed=True, name="char")
UCHAR = IntType(1, signed=False, name="unsigned char")
SHORT = IntType(2, signed=True, name="short")
USHORT = IntType(2, signed=False, name="unsigned short")
INT = IntType(4, signed=True, name="int")
UINT = IntType(4, signed=False, name="unsigned int")
VOID = VoidType()


class PointerType(CType):
    size = 4
    alignment = 4

    def __init__(self, pointee):
        self.pointee = pointee

    def __eq__(self, other):
        return isinstance(other, PointerType) and other.pointee == self.pointee

    def __hash__(self):
        return hash(("ptr", self.pointee))

    def __str__(self):
        return "{}*".format(self.pointee)


class ArrayType(CType):
    def __init__(self, element, length):
        if length is not None and length < 0:
            raise SemanticError("negative array length")
        self.element = element
        self.length = length

    @property
    def size(self):
        if self.length is None:
            return 0
        return self.element.size * self.length

    @property
    def alignment(self):
        return self.element.alignment

    def is_complete(self):
        return self.length is not None

    def __eq__(self, other):
        return (
            isinstance(other, ArrayType)
            and other.element == self.element
            and other.length == self.length
        )

    def __hash__(self):
        return hash(("array", self.element, self.length))

    def __str__(self):
        return "{}[{}]".format(self.element, self.length if self.length else "")


class StructField:
    """A named member of a struct, with its byte offset once laid out."""

    __slots__ = ("name", "ctype", "offset")

    def __init__(self, name, ctype, offset=0):
        self.name = name
        self.ctype = ctype
        self.offset = offset

    def __repr__(self):
        return "StructField({!r}, {}, offset={})".format(
            self.name, self.ctype, self.offset
        )


def _round_up(value, alignment):
    return (value + alignment - 1) // alignment * alignment


class StructType(CType):
    """A struct (or union) with natural-alignment layout.

    Structs may be declared before being defined (``struct foo;``); they
    become complete once :meth:`define` assigns fields.  Identity (the tag)
    determines equality, exactly as in C.  A union lays every field at
    offset 0 and is as large as its widest member.
    """

    def __init__(self, tag, is_union=False):
        self.tag = tag
        self.is_union = is_union
        self.fields = None
        self._size = 0
        self._alignment = 1

    def define(self, fields):
        if self.fields is not None:
            raise SemanticError("redefinition of {} {}".format(
                "union" if self.is_union else "struct", self.tag
            ))
        offset = 0
        alignment = 1
        size = 0
        laid_out = []
        for field in fields:
            if not field.ctype.is_complete():
                raise SemanticError(
                    "field {!r} has incomplete type".format(field.name)
                )
            if self.is_union:
                laid_out.append(StructField(field.name, field.ctype, 0))
                size = max(size, field.ctype.size)
            else:
                offset = _round_up(offset, field.ctype.alignment)
                laid_out.append(
                    StructField(field.name, field.ctype, offset)
                )
                offset += field.ctype.size
                size = offset
            alignment = max(alignment, field.ctype.alignment)
        self.fields = laid_out
        self._alignment = alignment
        self._size = _round_up(size, alignment)

    @property
    def size(self):
        return self._size

    @property
    def alignment(self):
        return self._alignment

    def is_complete(self):
        return self.fields is not None

    def field(self, name):
        if self.fields is None:
            raise SemanticError(
                "use of incomplete struct {}".format(self.tag)
            )
        for field in self.fields:
            if field.name == name:
                return field
        raise SemanticError(
            "struct {} has no field {!r}".format(self.tag, name)
        )

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return id(self)

    def __str__(self):
        return "{} {}".format(
            "union" if self.is_union else "struct", self.tag
        )


class FunctionType(CType):
    """A function signature: return type plus ordered parameter types."""

    size = 0
    alignment = 1

    def __init__(self, return_type, param_types, variadic=False):
        self.return_type = return_type
        self.param_types = tuple(param_types)
        self.variadic = variadic

    def __eq__(self, other):
        return (
            isinstance(other, FunctionType)
            and other.return_type == self.return_type
            and other.param_types == self.param_types
            and other.variadic == self.variadic
        )

    def __hash__(self):
        return hash(("fn", self.return_type, self.param_types, self.variadic))

    def __str__(self):
        params = ", ".join(str(p) for p in self.param_types) or "void"
        return "{}({})".format(self.return_type, params)


def integer_promote(ctype):
    """C integer promotion: anything narrower than int becomes int."""
    if isinstance(ctype, IntType) and ctype.size < 4:
        return INT
    return ctype


def usual_arithmetic_conversion(left, right):
    """The usual arithmetic conversions for two integer operands."""
    left = integer_promote(left)
    right = integer_promote(right)
    if not left.signed or not right.signed:
        return UINT
    return INT


def compares_unsigned(left, right=INT):
    """Whether C compares a ``left`` and a ``right`` operand unsigned.

    True for a pointer operand, and for integer operands whose usual
    arithmetic conversion is unsigned: ``(unsigned char)200 > -1``
    promotes both sides to ``int`` and compares signed.  A truth test is
    a comparison with the ``int`` 0, the default ``right``; an untyped
    operand (None) is tested signed.
    """
    if left is None:
        return False
    left = left.decay()
    right = right.decay()
    if left.is_pointer() or right.is_pointer():
        return True
    if not (left.is_integer() and right.is_integer()):
        return False
    return not usual_arithmetic_conversion(left, right).signed
