"""Property-based differential testing of the interpreter.

Hypothesis generates random arithmetic expression trees; each is compiled
as a mini-C function and executed by the Machine, and the result is
compared against a Python oracle implementing C99 int32 semantics
(wrap-around, truncation toward zero, etc.).  A disagreement means the
interpreter's concrete semantics — the ground truth every DART verdict
rests on (Theorem 1(a)) — is wrong.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.interp import Machine
from repro.interp.values import c_div, c_mod, wrap_signed
from repro.minic import compile_program

INT_MIN = -(1 << 31)
INT_MAX = (1 << 31) - 1

# -- expression tree generation -------------------------------------------

_BINOPS = ["+", "-", "*", "/", "%", "&", "|", "^", "<", ">", "==", "!=",
           "<=", ">="]
_UNOPS = ["-", "~", "!"]


class _Node:
    __slots__ = ("op", "children", "value")

    def __init__(self, op, children=(), value=None):
        self.op = op
        self.children = children
        self.value = value


@st.composite
def expr_trees(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        kind = draw(st.sampled_from(["const", "x", "y"]))
        if kind == "const":
            return _Node("const", value=draw(
                st.integers(min_value=-100, max_value=100)
            ))
        return _Node(kind)
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        child = draw(expr_trees(depth=depth - 1))
        return _Node(draw(st.sampled_from(_UNOPS)), (child,))
    left = draw(expr_trees(depth=depth - 1))
    right = draw(expr_trees(depth=depth - 1))
    return _Node(draw(st.sampled_from(_BINOPS)), (left, right))


def to_c(node):
    if node.op == "const":
        # Negative literals via unary minus (C has no negative literals).
        return "({})".format(node.value)
    if node.op in ("x", "y"):
        return node.op
    if len(node.children) == 1:
        return "({}{})".format(node.op, to_c(node.children[0]))
    return "({} {} {})".format(
        to_c(node.children[0]), node.op, to_c(node.children[1])
    )


class _DivByZero(Exception):
    pass


def oracle(node, x, y):
    """Evaluate with C99 int32 semantics."""
    if node.op == "const":
        return node.value
    if node.op == "x":
        return x
    if node.op == "y":
        return y
    if len(node.children) == 1:
        value = oracle(node.children[0], x, y)
        if node.op == "-":
            return wrap_signed(-value)
        if node.op == "~":
            return wrap_signed(~value)
        return 0 if value else 1
    left = oracle(node.children[0], x, y)
    right = oracle(node.children[1], x, y)
    if node.op == "+":
        return wrap_signed(left + right)
    if node.op == "-":
        return wrap_signed(left - right)
    if node.op == "*":
        return wrap_signed(left * right)
    if node.op == "/":
        if right == 0:
            raise _DivByZero()
        return wrap_signed(c_div(left, right))
    if node.op == "%":
        if right == 0:
            raise _DivByZero()
        return wrap_signed(c_mod(left, right))
    if node.op == "&":
        return wrap_signed(left & right)
    if node.op == "|":
        return wrap_signed(left | right)
    if node.op == "^":
        return wrap_signed(left ^ right)
    return 1 if {
        "<": left < right,
        ">": left > right,
        "==": left == right,
        "!=": left != right,
        "<=": left <= right,
        ">=": left >= right,
    }[node.op] else 0


small_ints = st.integers(min_value=-1000, max_value=1000)
full_ints = st.integers(min_value=INT_MIN, max_value=INT_MAX)


class TestDifferentialExecution:
    @settings(max_examples=120, deadline=None)
    @given(expr_trees(), small_ints, small_ints)
    def test_machine_matches_c_oracle(self, tree, x, y):
        source = "int f(int x, int y) {{ return {}; }}".format(to_c(tree))
        module = compile_program(source)
        try:
            expected = oracle(tree, x, y)
        except _DivByZero:
            return  # UB in C; the machine reports a fault instead
        assert Machine(module).run("f", (x, y)) == expected

    @settings(max_examples=60, deadline=None)
    @given(expr_trees(depth=2), full_ints, full_ints)
    def test_extreme_values_wrap_identically(self, tree, x, y):
        source = "int f(int x, int y) {{ return {}; }}".format(to_c(tree))
        module = compile_program(source)
        try:
            expected = oracle(tree, x, y)
        except _DivByZero:
            return
        assert Machine(module).run("f", (x, y)) == expected

    @settings(max_examples=60, deadline=None)
    @given(expr_trees(depth=2), small_ints, small_ints)
    def test_condition_agrees_with_value(self, tree, x, y):
        """``if (e)`` must take the then branch iff e evaluates nonzero."""
        c_text = to_c(tree)
        source = (
            "int f(int x, int y) {{\n"
            "  if ({}) return 1;\n"
            "  return 0;\n"
            "}}".format(c_text)
        )
        module = compile_program(source)
        try:
            expected = 1 if oracle(tree, x, y) != 0 else 0
        except _DivByZero:
            return
        assert Machine(module).run("f", (x, y)) == expected


class TestConcolicConsistency:
    """The symbolic half must never contradict the concrete half: whatever
    constraint a branch records, the *concrete* branch outcome satisfies
    it under the current input assignment."""

    @settings(max_examples=80, deadline=None)
    @given(expr_trees(depth=2), small_ints, small_ints)
    def test_recorded_constraints_hold_on_current_inputs(self, tree, x, y):
        import random as random_module

        from repro.dart.config import DartOptions
        from repro.dart.inputs import InputVector
        from repro.dart.instrument import DirectedHooks
        from repro.symbolic.flags import CompletenessFlags

        source = (
            "void main_(void) {{\n"
            "  int x; int y;\n"
            "  x = __dart_int();\n"
            "  y = __dart_int();\n"
            "  if ({}) {{ }}\n"
            "}}".format(to_c(tree))
        )
        module = compile_program(source)
        im = InputVector()
        im.record(0, "int", x)
        im.record(1, "int", y)
        flags = CompletenessFlags()
        hooks = DirectedHooks(im, [], flags, random_module.Random(0),
                              DartOptions())
        try:
            Machine(module, hooks=hooks, flags=flags).run("main_", ())
        except Exception:
            return  # division faults etc. are fine here
        assignment = {0: x, 1: y}
        for constraint in hooks.constraints:
            if constraint is None:
                continue
            assert constraint.evaluate(assignment), (
                "recorded constraint {} contradicts the concrete run "
                "for x={}, y={}".format(constraint, x, y)
            )
