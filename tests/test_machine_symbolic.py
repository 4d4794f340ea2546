"""Integration tests for the intertwined concrete+symbolic execution:
run programs through the machine with tracked inputs and inspect the
constraints the conditionals produce (the heart of Fig. 3)."""

import random

import pytest

from repro.dart.config import DartOptions
from repro.dart.inputs import InputVector
from repro.dart.instrument import DirectedHooks
from repro.interp import Machine
from repro.minic import compile_program
from repro.symbolic.expr import EQ, GE, GT, LE, LT, NE
from repro.symbolic.flags import CompletenessFlags


def trace(source, toplevel_source=None, im_values=(), seed=0):
    """Run a program with DirectedHooks; returns (hooks, flags).

    ``source`` must define ``__dart_main`` style entry named ``main_``
    using __dart_int() intrinsics directly, to keep the tests focused on
    the machine rather than the driver generator.
    """
    module = compile_program(source)
    im = InputVector()
    for ordinal, value in enumerate(im_values):
        im.record(ordinal, "int", value)
    flags = CompletenessFlags()
    hooks = DirectedHooks(im, [], flags, random.Random(seed), DartOptions())
    machine = Machine(module, hooks=hooks, flags=flags)
    machine.run("main_", ())
    return hooks, flags


class TestConstraintShapes:
    def test_equality_constraint(self):
        hooks, flags = trace("""
        void main_(void) {
          int x;
          x = __dart_int();
          if (x == 5) { }
        }
        """, im_values=[5])
        (constraint,) = hooks.constraints
        assert constraint.op == EQ
        assert constraint.lin.coeffs == {0: 1}
        assert constraint.lin.const == -5
        assert flags.complete

    def test_not_taken_branch_negates(self):
        hooks, _ = trace("""
        void main_(void) {
          int x;
          x = __dart_int();
          if (x == 5) { }
        }
        """, im_values=[6])
        (constraint,) = hooks.constraints
        assert constraint.op == NE

    def test_interprocedural_symbolic_value(self):
        # The paper's 2*x through a call: "defined through an
        # interprocedural, dynamic tracing of symbolic expressions".
        hooks, flags = trace("""
        int f(int x) { return 2 * x; }
        void main_(void) {
          int x;
          x = __dart_int();
          if (f(x) == x + 10) { }
        }
        """, im_values=[0])
        (constraint,) = hooks.constraints
        # 2x - (x + 10) = x - 10
        assert constraint.lin.coeffs == {0: 1}
        assert constraint.lin.const == -10
        assert flags.complete

    def test_linear_combination_through_locals(self):
        hooks, _ = trace("""
        void main_(void) {
          int a; int b; int z;
          a = __dart_int();
          b = __dart_int();
          z = 3 * a - b + 7;
          if (z <= 0) { }
        }
        """, im_values=[1, 1])
        (constraint,) = hooks.constraints
        assert constraint.lin.coeffs == {0: 3, 1: -1}
        assert constraint.op in (LE, GT)

    def test_symbolic_value_via_pointer(self):
        hooks, flags = trace("""
        void main_(void) {
          int x; int *p;
          x = __dart_int();
          p = &x;
          if (*p > 100) { }
        }
        """, im_values=[0])
        (constraint,) = hooks.constraints
        assert constraint.lin.coeffs == {0: 1}
        assert flags.complete

    def test_symbolic_value_through_heap_cell(self):
        hooks, flags = trace("""
        struct cell { int v; };
        void main_(void) {
          struct cell *c;
          c = (struct cell *) malloc(sizeof(struct cell));
          c->v = __dart_int();
          if (c->v == 9) { }
        }
        """, im_values=[9])
        (constraint,) = hooks.constraints
        assert constraint.op == EQ
        assert flags.complete  # address was concrete

    def test_overwrite_kills_symbolic_value(self):
        hooks, flags = trace("""
        void main_(void) {
          int x;
          x = __dart_int();
          x = 3;
          if (x == 3) { }
        }
        """, im_values=[0])
        (constraint,) = hooks.constraints
        assert constraint is None  # concrete predicate
        assert flags.complete  # nothing symbolic was lost

    def test_alias_overwrite_invalidates(self):
        # The §2.5 aliasing discipline at machine level.
        hooks, flags = trace("""
        void main_(void) {
          int x; char *p;
          x = __dart_int();
          p = (char *) &x;
          p[1] = 7;
          if (x == 5) { }
        }
        """, im_values=[5])
        (constraint,) = hooks.constraints
        assert constraint is None  # partially clobbered: no symbolic value

    def test_nonlinear_clears_flag_and_falls_back(self):
        hooks, flags = trace("""
        void main_(void) {
          int x; int y;
          x = __dart_int();
          y = __dart_int();
          if (x * y == 12) { }
        }
        """, im_values=[3, 4])
        (constraint,) = hooks.constraints
        assert constraint is None
        assert not flags.all_linear

    def test_input_dependent_index_clears_locs(self):
        hooks, flags = trace("""
        int table[8];
        void main_(void) {
          int i;
          i = __dart_int();
          if (i >= 0)
            if (i < 8)
              if (table[i] == 0) { }
        }
        """, im_values=[2])
        assert not flags.all_locs_definite
        assert hooks.constraints[2] is None

    def test_chars_produce_bounded_domain_inputs(self):
        hooks, _ = trace("""
        void main_(void) {
          char c;
          c = __dart_char();
          if (c == 'A') { }
        }
        """)
        assert hooks.im[0].kind == "char"
        assert -128 <= hooks.im[0].value <= 127

    def test_multiple_inputs_multiple_constraints(self):
        hooks, _ = trace("""
        void main_(void) {
          int a; int b;
          a = __dart_int();
          b = __dart_int();
          if (a < b)
            if (a + b >= 10) { }
        }
        """, im_values=[1, 20])
        assert len(hooks.constraints) == 2
        first, second = hooks.constraints
        assert first.op == LT
        assert second.op == GE
        assert second.lin.coeffs == {0: 1, 1: 1}

    def test_division_by_constant_falls_back(self):
        hooks, flags = trace("""
        void main_(void) {
          int x;
          x = __dart_int();
          if (x / 2 == 4) { }
        }
        """, im_values=[8])
        (constraint,) = hooks.constraints
        assert constraint is None
        assert not flags.all_linear

    def test_left_shift_by_constant_stays_linear(self):
        hooks, flags = trace("""
        void main_(void) {
          int x;
          x = __dart_int();
          if ((x << 3) == 64) { }
        }
        """, im_values=[8])
        (constraint,) = hooks.constraints
        assert constraint is not None
        assert constraint.lin.coeffs == {0: 8}
        assert flags.all_linear
