"""Tests for constant folding.

Lowering folds constant expressions, global initializers are evaluated
and array lengths, enumerators and case labels are computed by the one
evaluator in :mod:`repro.minic.consts`; every context must give the value
the machine computes at run time.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.interp import DivisionByZero, Machine
from repro.interp.compile import CompiledProgram
from repro.minic import ast_nodes as ast
from repro.minic import compile_program, ir
from repro.minic import typesys as ts
from repro.minic.errors import LoweringError, SemanticError


def folded_return(source_expr, ctype="int", prelude=""):
    module = compile_program(
        "{} {} f(void) {{ return {}; }}".format(prelude, ctype, source_expr)
    )
    ret = next(
        instr for instr in module.functions["f"].instrs
        if isinstance(instr, ir.Ret)
    )
    return ret.value


class TestFolding:
    def test_addition_folds(self):
        value = folded_return("1 + 2 * 3")
        assert isinstance(value, ast.IntLit) and value.value == 7

    def test_comparison_folds(self):
        value = folded_return("3 < 5")
        assert isinstance(value, ast.IntLit) and value.value == 1

    def test_unary_folds(self):
        value = folded_return("-(2 + 3)")
        assert isinstance(value, ast.IntLit) and value.value == -5

    def test_logical_not_folds(self):
        value = folded_return("!7")
        assert isinstance(value, ast.IntLit) and value.value == 0

    def test_bitwise_folds(self):
        value = folded_return("(0xF0 | 0x0F) ^ 0xFF")
        assert isinstance(value, ast.IntLit) and value.value == 0

    def test_shift_folds(self):
        value = folded_return("1 << 10")
        assert isinstance(value, ast.IntLit) and value.value == 1024

    def test_overflow_wraps_when_folding(self):
        value = folded_return("2147483647 + 1")
        assert isinstance(value, ast.IntLit)
        assert value.value == -(2**31)

    def test_unsigned_folding_wraps_modularly(self):
        value = folded_return("4294967295 + 2", ctype="unsigned int")
        assert isinstance(value, ast.IntLit) and value.value == 1

    def test_division_truncates_toward_zero(self):
        value = folded_return("(-7) / 2")
        assert isinstance(value, ast.IntLit) and value.value == -3

    def test_sizeof_arithmetic_folds(self):
        value = folded_return("sizeof(int) * 4")
        assert isinstance(value, ast.IntLit) and value.value == 16

    def test_division_by_zero_not_folded(self):
        value = folded_return("1 / 0")
        assert isinstance(value, ast.Binary)  # kept for the runtime fault

    def test_runtime_division_by_zero_still_faults(self):
        module = compile_program("int f(void) { return 1 / 0; }")
        with pytest.raises(DivisionByZero):
            Machine(module).run("f", ())

    def test_variables_not_folded(self):
        value = folded_return("1 + 2", ctype="int")
        assert isinstance(value, ast.IntLit)
        module = compile_program("int f(int x) { return x + 2; }")
        ret = next(i for i in module.functions["f"].instrs
                   if isinstance(i, ir.Ret))
        assert isinstance(ret.value, ast.Binary)

    def test_semantics_preserved(self):
        source = """
        int f(void) {
          return (100 - 36) / 2 + (1 << 4) - ~0 + ('z' - 'a') % 7;
        }
        """
        expected = (100 - 36) // 2 + (1 << 4) + 1 + (ord("z") - ord("a")) % 7
        assert Machine(compile_program(source)).run("f", ()) == expected


def run_both(source, function="f", args=()):
    """``function``'s result under the interpreter and the compiled
    engine, which must agree."""
    module = compile_program(source)
    interpreted = Machine(module).run(function, args)
    compiled = Machine(module, compiled=CompiledProgram(module)).run(
        function, args)
    assert interpreted == compiled
    return interpreted


def global_init(source, name="g"):
    module = compile_program(source)
    return next(g.init for g in module.globals if g.name == name)


class TestMachineSemantics:
    """Constants mean what the machine computes, in every context."""

    def test_sizeof_compares_unsigned(self):
        value = folded_return("sizeof(int) > -1")
        assert isinstance(value, ast.IntLit) and value.value == 0
        assert run_both("int f(void) { unsigned s = sizeof(int); "
                        "int m = -1; return s > m; }") == 0

    def test_narrow_unsigned_compares_as_int(self):
        # C promotes unsigned char to int before comparing: 200 > -1.
        value = folded_return("(unsigned char)200 > -1")
        assert isinstance(value, ast.IntLit) and value.value == 1
        assert run_both("int f(void) { unsigned char c = 200; int m = -1; "
                        "return c > m; }") == 1
        assert run_both("unsigned short s = 65535; int f(void) { "
                        "return s > -1; }") == 1
        assert global_init("int g = (unsigned char)200 > -1;") == 1
        assert run_both("int g = (unsigned char)200 > -1; "
                        "int f(void) { return g; }") == 1
        # A full-width unsigned operand still makes the comparison unsigned.
        assert run_both("int f(void) { unsigned u = 200; int m = -1; "
                        "return u > m; }") == 0

    def test_unsigned_difference_wraps(self):
        value = folded_return("sizeof(int) - 5 == -1")
        assert isinstance(value, ast.IntLit) and value.value == 1

    def test_folded_literal_keeps_the_node_type(self):
        # Returned from an unsigned function: an int one would convert it.
        value = folded_return("sizeof(int) - 5", "unsigned")
        assert value.ctype == ts.UINT and value.value == 2 ** 32 - 1

    def test_cast_folds(self):
        value = folded_return("(char)300", "char")
        assert isinstance(value, ast.IntLit)
        assert value.value == 44 and value.ctype == ts.CHAR

    def test_bare_enum_constant_stays_named(self):
        value = folded_return("RED", prelude="enum { RED = 4 };")
        assert isinstance(value, ast.Ident) and value.name == "RED"

    def test_enum_arithmetic_folds(self):
        value = folded_return("RED * 2", prelude="enum { RED = 4 };")
        assert isinstance(value, ast.IntLit) and value.value == 8

    def test_global_shift_is_arithmetic(self):
        assert global_init("int g = (1 << 31) >> 31;") == -1
        assert run_both("int g = (1 << 31) >> 31; "
                        "int f(void) { return g; }") == -1

    def test_global_cast_wraps(self):
        assert run_both("int g = (char)300; int f(void) { return g; }") \
            == 44

    def test_global_division_and_comparison(self):
        assert run_both("int g = 10 / 2; int f(void) { return g; }") == 5
        assert run_both("int g = 3 > 2; int f(void) { return g; }") == 1

    def test_global_division_by_zero_rejected(self):
        with pytest.raises(LoweringError, match="link-time constant"):
            compile_program("int g = 1 / 0;")

    def test_global_string_literal(self):
        assert run_both('char *s = "hi"; int f(void) { return s[1]; }') \
            == ord("i")

    def test_array_length_comparison(self):
        assert run_both("int f(void) { int a[3 > 2]; return sizeof(a); }") \
            == 4

    def test_case_label_comparison(self):
        source = ("int f(int x) { switch (x) { case 3 > 2: return 7; } "
                  "return 0; }")
        assert run_both(source, args=(1,)) == 7
        assert run_both(source, args=(2,)) == 0

    def test_array_length_division_by_zero(self):
        with pytest.raises(SemanticError,
                           match="division by zero in constant expression"):
            compile_program("int a[1 / 0];")

    def test_unsigned_array_length_wraps_negative(self):
        with pytest.raises(SemanticError, match="negative array length"):
            compile_program("int a[sizeof(int) - 5];")

    def test_local_array_length_sees_local_scope(self):
        assert run_both("int f(void) { int x; int a[sizeof(x) + 1]; "
                        "return sizeof(a); }") == 20
        with pytest.raises(SemanticError, match="not a compile-time"):
            compile_program("enum { N = 2 }; int f(void) { int N = 3; "
                            "int a[N]; return 0; }")

    def test_enumerator_is_an_int(self):
        # -2147483648 is unsigned (2147483648 does not fit an int); the
        # enumerator converts it back to int, so M stays negative.
        source = "enum { M = -2147483648 }; int f(void) { return M < 0; }"
        assert run_both(source) == 1


_OPERATORS = ["+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^",
              "==", "!=", "<", ">", "<=", ">=", "&&", "||"]
_CAST_TYPES = ["char", "unsigned char", "short", "unsigned"]
_BOUNDARIES = [0, 1, 31, 32, 128, 200, 255, 300, 2 ** 15, 65535,
               2 ** 31 - 1, 2 ** 31, 2 ** 32 - 1]

_literals = st.one_of(st.sampled_from(_BOUNDARIES),
                      st.integers(min_value=0, max_value=2 ** 32 - 1))

#: An operand as (C text, the type a variable must have to hold it
#: unchanged, the literal that variable is initialised with).
_operands = st.one_of(
    _literals.map(lambda v: (str(v), "int" if v < 2 ** 31 else "unsigned",
                             str(v))),
    st.just(("sizeof(int)", "unsigned", "4")),
    st.tuples(st.sampled_from(_CAST_TYPES), _literals).map(
        lambda tv: ("({})({})".format(*tv), tv[0], str(tv[1]))),
)


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(_OPERATORS), _operands, _operands)
def test_folded_equals_executed(op, left, right):
    """``return a OP b;`` folded in lowering, the same operands stored in
    variables first (executed by both engines), and the same expression
    as a global initializer all agree."""
    expr = "{} {} {}".format(left[0], op, right[0])
    executed_source = "int f(void) {{ {} a = {}; {} b = {}; " \
        "return a {} b; }}".format(left[1], left[2], right[1], right[2], op)
    folded_source = "int f(void) {{ return {}; }}".format(expr)
    try:
        executed = run_both(executed_source)
    except DivisionByZero:
        with pytest.raises(DivisionByZero):
            run_both(folded_source)
        with pytest.raises(LoweringError):
            compile_program("int g = {};".format(expr))
        return
    assert run_both(folded_source) == executed
    if op not in ("&&", "||"):  # lowered to branches, never folded
        assert isinstance(folded_return(expr), ast.IntLit)
    # ``ret`` passes the expression's value through unconverted; ``g``
    # holds it converted to int, so compare the 32-bit patterns.
    stored = run_both("int g = {}; int f(void) {{ return g; }}".format(expr))
    assert stored & 0xFFFFFFFF == executed & 0xFFFFFFFF
