"""Concrete-execution tests: the interpreter must implement C semantics.

Each test compiles a small program and runs a function on concrete
arguments, checking the returned value against what a C compiler would
produce on a 32-bit target.
"""

import pytest

from repro.interp import Machine
from repro.interp.faults import InterpreterError
from repro.minic import compile_program


def run(source, function="f", args=()):
    return Machine(compile_program(source)).run(function, args)


class TestArithmetic:
    def test_basic_ops(self):
        src = "int f(int a, int b) { return a * b + a / b - a % b; }"
        assert run(src, args=(17, 5)) == 85 + 3 - 2

    def test_division_truncates_toward_zero(self):
        src = "int f(int a, int b) { return a / b; }"
        assert run(src, args=(-7, 2)) == -3
        assert run(src, args=(7, -2)) == -3

    def test_modulo_sign_follows_dividend(self):
        src = "int f(int a, int b) { return a % b; }"
        assert run(src, args=(-7, 2)) == -1
        assert run(src, args=(7, -2)) == 1

    def test_signed_overflow_wraps(self):
        src = "int f(int a) { return a + 1; }"
        assert run(src, args=(2**31 - 1,)) == -(2**31)

    def test_multiplication_wraps(self):
        src = "int f(int a) { return a * a; }"
        assert run(src, args=(1 << 16,)) == 0

    def test_unsigned_arithmetic_wraps(self):
        src = "unsigned int f(unsigned int a) { return a + 1; }"
        assert run(src, args=(2**32 - 1,)) == 0

    def test_unary_minus_of_int_min(self):
        src = "int f(int a) { return -a; }"
        assert run(src, args=(-(2**31),)) == -(2**31)

    def test_bitwise_ops(self):
        src = "int f(int a, int b) { return (a & b) | (a ^ b); }"
        assert run(src, args=(0b1100, 0b1010)) == 0b1110

    def test_bitwise_not(self):
        assert run("int f(int a) { return ~a; }", args=(0,)) == -1

    def test_shifts(self):
        assert run("int f(int a) { return a << 4; }", args=(1,)) == 16
        assert run("int f(int a) { return a >> 2; }", args=(-8,)) == -2

    def test_unsigned_right_shift_is_logical(self):
        src = "unsigned int f(unsigned int a) { return a >> 1; }"
        assert run(src, args=(0x80000000,)) == 0x40000000

    def test_comparisons_yield_zero_one(self):
        src = "int f(int a, int b) { return (a < b) + (a == b) * 10; }"
        assert run(src, args=(1, 2)) == 1
        assert run(src, args=(2, 2)) == 10

    def test_signed_vs_unsigned_comparison(self):
        # -1 compared against an unsigned operand converts to UINT_MAX.
        src = "int f(int a, unsigned int b) { return a > b; }"
        assert run(src, args=(-1, 5)) == 1

    def test_logical_not(self):
        src = "int f(int a) { return !a + !!a * 2; }"
        assert run(src, args=(0,)) == 1
        assert run(src, args=(99,)) == 2


class TestControlFlow:
    def test_short_circuit_and_skips_rhs(self):
        src = """
        int calls = 0;
        int bump(void) { calls = calls + 1; return 1; }
        int f(int a) { int r; r = a && bump(); return calls * 10 + r; }
        """
        assert run(src, args=(0,)) == 0  # bump not called
        assert run(src, args=(5,)) == 11

    def test_short_circuit_or_skips_rhs(self):
        src = """
        int calls = 0;
        int bump(void) { calls = calls + 1; return 0; }
        int f(int a) { int r; r = a || bump(); return calls * 10 + r; }
        """
        assert run(src, args=(7,)) == 1
        assert run(src, args=(0,)) == 10

    def test_ternary_evaluates_one_side(self):
        src = """
        int hits = 0;
        int note(int v) { hits = hits + 1; return v; }
        int f(int c) { int r; r = c ? note(1) : note(2); return r * 10 + hits; }
        """
        assert run(src, args=(1,)) == 11
        assert run(src, args=(0,)) == 21

    def test_nested_loops_with_break_continue(self):
        src = """
        int f(void) {
          int i; int j; int total;
          total = 0;
          for (i = 0; i < 5; i++) {
            if (i == 3) continue;
            for (j = 0; j < 5; j++) {
              if (j > i) break;
              total = total + 1;
            }
          }
          return total;
        }
        """
        assert run(src) == 1 + 2 + 3 + 5  # i = 0,1,2,4

    def test_do_while_runs_at_least_once(self):
        src = """
        int f(int n) { int c; c = 0; do { c = c + 1; } while (n-- > 1);
          return c; }
        """
        assert run(src, args=(0,)) == 1
        assert run(src, args=(3,)) == 3

    def test_while_with_compound_condition(self):
        src = """
        int f(void) {
          int i; int s;
          i = 0; s = 0;
          while (i < 10 && s < 12) { s = s + i; i = i + 1; }
          return s;
        }
        """
        assert run(src) == 15  # 0+1+2+3+4+5

    def test_recursion(self):
        src = "int f(int n) { if (n <= 1) return 1; return n * f(n - 1); }"
        assert run(src, args=(6,)) == 720

    def test_mutual_recursion(self):
        src = """
        int odd(int n);
        int even(int n) { if (n == 0) return 1; return odd(n - 1); }
        int odd(int n) { if (n == 0) return 0; return even(n - 1); }
        int f(int n) { return even(n) * 10 + odd(n); }
        """
        assert run(src, args=(8,)) == 10
        assert run(src, args=(9,)) == 1


class TestIntegerConversions:
    def test_char_truncation(self):
        src = "int f(int a) { char c; c = a; return c; }"
        assert run(src, args=(257,)) == 1
        assert run(src, args=(200,)) == -56  # signed char wraps

    def test_unsigned_char(self):
        src = "int f(int a) { unsigned char c; c = a; return c; }"
        assert run(src, args=(-1,)) == 255

    def test_short_truncation(self):
        src = "int f(int a) { short s; s = a; return s; }"
        assert run(src, args=(0x12345678,)) == 0x5678

    def test_explicit_cast(self):
        assert run("int f(int a) { return (char) a; }", args=(130,)) == -126

    def test_char_promotes_in_arithmetic(self):
        src = "int f(void) { char c; c = 100; return c * 3; }"
        assert run(src) == 300

    def test_increment_decrement(self):
        src = """
        int f(int a) {
          int pre; int post;
          pre = ++a;
          post = a++;
          return pre * 1000 + post * 10 + a;
        }
        """
        assert run(src, args=(5,)) == 6 * 1000 + 6 * 10 + 7

    def test_compound_assignments(self):
        src = """
        int f(int a) {
          a += 3; a -= 1; a *= 4; a /= 3; a %= 7;
          return a;
        }
        """
        a = 5
        a += 3; a -= 1; a *= 4; a //= 3; a %= 7
        assert run(src, args=(5,)) == a


class TestPointersAndArrays:
    def test_address_of_and_deref(self):
        src = "int f(int a) { int *p; p = &a; *p = 9; return a; }"
        assert run(src, args=(1,)) == 9

    def test_pointer_arithmetic_scaling(self):
        src = """
        int f(void) {
          int a[4];
          int *p;
          a[0] = 10; a[1] = 20; a[2] = 30; a[3] = 40;
          p = a;
          p = p + 2;
          return *p + *(p - 1);
        }
        """
        assert run(src) == 50

    def test_pointer_difference(self):
        src = """
        int f(void) { int a[8]; int *p; int *q;
          p = &a[1]; q = &a[6]; return q - p; }
        """
        assert run(src) == 5

    def test_array_write_loop(self):
        src = """
        int f(void) {
          int a[5]; int i; int s;
          for (i = 0; i < 5; i++) a[i] = i * i;
          s = 0;
          for (i = 0; i < 5; i++) s = s + a[i];
          return s;
        }
        """
        assert run(src) == 30

    def test_pointer_to_pointer(self):
        src = """
        int f(int a) { int *p; int **pp; p = &a; pp = &p;
          **pp = 42; return a; }
        """
        assert run(src, args=(0,)) == 42

    def test_pointer_passed_to_function(self):
        src = """
        void set(int *target, int value) { *target = value; }
        int f(void) { int x; x = 0; set(&x, 77); return x; }
        """
        assert run(src) == 77

    def test_char_pointer_into_int(self):
        # Byte-level aliasing, little endian.
        src = """
        int f(void) {
          int v; char *p;
          v = 0;
          p = (char *) &v;
          p[0] = 1; p[1] = 2;
          return v;
        }
        """
        assert run(src) == 0x0201

    def test_null_comparisons(self):
        src = """
        int f(void) { int *p; int x; p = NULL;
          if (p == NULL) { p = &x; }
          return p != NULL; }
        """
        assert run(src) == 1


class TestStructs:
    def test_field_access_and_assignment(self):
        src = """
        struct point { int x; int y; };
        int f(void) {
          struct point p;
          p.x = 3; p.y = 4;
          return p.x * p.x + p.y * p.y;
        }
        """
        assert run(src) == 25

    def test_struct_assignment_copies(self):
        src = """
        struct point { int x; int y; };
        int f(void) {
          struct point a; struct point b;
          a.x = 1; a.y = 2;
          b = a;
          b.x = 100;
          return a.x * 10 + b.x;
        }
        """
        assert run(src) == 110

    def test_struct_by_value_parameter(self):
        src = """
        struct point { int x; int y; };
        int sum(struct point p) { p.x = p.x + 1; return p.x + p.y; }
        int f(void) {
          struct point a;
          a.x = 5; a.y = 6;
          return sum(a) * 100 + a.x;
        }
        """
        assert run(src) == 1205

    def test_nested_struct(self):
        src = """
        struct inner { int v; };
        struct outer { int tag; struct inner in; };
        int f(void) {
          struct outer o;
          o.tag = 1; o.in.v = 41;
          return o.tag + o.in.v;
        }
        """
        assert run(src) == 42

    def test_struct_pointer_arrow(self):
        src = """
        struct node { int value; struct node *next; };
        int f(void) {
          struct node a; struct node b;
          a.value = 1; a.next = &b;
          b.value = 2; b.next = NULL;
          return a.next->value;
        }
        """
        assert run(src) == 2

    def test_linked_list_on_heap(self):
        src = """
        struct node { int value; struct node *next; };
        int f(void) {
          struct node *head; struct node *cur; int i; int total;
          head = NULL;
          for (i = 1; i <= 4; i++) {
            cur = (struct node *) malloc(sizeof(struct node));
            cur->value = i;
            cur->next = head;
            head = cur;
          }
          total = 0;
          while (head != NULL) {
            total = total * 10 + head->value;
            head = head->next;
          }
          return total;
        }
        """
        assert run(src) == 4321

    def test_paper_struct_cast_alias(self):
        # The Section 2.5 program shape: write through char* alias.
        src = """
        struct foo { int i; char c; };
        int f(void) {
          struct foo s;
          s.i = 0; s.c = 0;
          *((char *)&s + sizeof(int)) = 1;
          return s.c;
        }
        """
        assert run(src) == 1


class TestGlobalsAndStrings:
    def test_global_initialization(self):
        src = """
        int counter = 10;
        int table[3];
        int f(void) { table[0] = counter; counter = counter + 1;
          return table[0] + counter; }
        """
        assert run(src) == 21

    def test_globals_persist_across_calls_within_machine(self):
        src = "int g = 0; int f(void) { g = g + 1; return g; }"
        machine = Machine(compile_program(src))
        assert machine.run("f", ()) == 1
        assert machine.run("f", ()) == 2

    def test_globals_reset_in_new_machine(self):
        src = "int g = 0; int f(void) { g = g + 1; return g; }"
        module = compile_program(src)
        assert Machine(module).run("f", ()) == 1
        assert Machine(module).run("f", ()) == 1

    def test_string_functions(self):
        src = """
        int f(void) {
          char buf[16];
          strcpy(buf, "hello");
          return strlen(buf) + (strcmp(buf, "hello") == 0) * 10;
        }
        """
        assert run(src) == 15

    def test_strchr(self):
        src = """
        int f(void) {
          char *s;
          char *found;
          s = "abcdef";
          found = strchr(s, 'd');
          return found - s;
        }
        """
        assert run(src) == 3

    def test_memset_memcpy(self):
        src = """
        int f(void) {
          char a[8]; char b[8];
          memset(a, 7, 8);
          memcpy(b, a, 8);
          return b[0] + b[7];
        }
        """
        assert run(src) == 14

    def test_global_string_pointer(self):
        src = """
        char *greeting = "hi there";
        int f(void) { return strlen(greeting); }
        """
        assert run(src) == 8

    def test_enum_constants_in_code(self):
        src = """
        enum { RED = 1, GREEN = 2, BLUE = 4 };
        int f(void) { return RED + GREEN + BLUE; }
        """
        assert run(src) == 7

    def test_exit_builtin_halts(self):
        src = "int f(void) { exit(42); return 0; }"
        assert run(src) == 42


class TestLoadImage:
    """One post-load memory image per session, restored into every
    machine instead of loading the module again."""

    SOURCE = """
        char *greeting = "hello";
        int counter = 7;
        char tag = 'q';
        unsigned short wide = 65535;
        int table[3];
        char buf[5];
        int f(void) {
          counter = counter + 1;
          tag = 'z';
          wide = 1;
          table[1] = 99;
          buf[0] = 'x';
          greeting = "bye";
          return counter + strlen(greeting) + table[1];
        }
    """

    @staticmethod
    def _regions(machine):
        return sorted(
            (region.start, region.size, region.kind, region.label,
             bytes(region.data))
            for region in machine.memory._regions.values())

    def test_restored_machine_matches_a_fresh_load(self):
        module = compile_program(self.SOURCE)
        image = Machine(module).load_image()
        fresh = Machine(module)
        restored = Machine(module, image=image)
        assert self._regions(restored) == self._regions(fresh)
        assert list(restored._string_addrs) == list(fresh._string_addrs)
        for name in ("greeting", "counter", "tag", "wide", "table", "buf"):
            assert restored.global_address(name) == \
                fresh.global_address(name)
        assert [region.start for region in restored._globals] == \
            [region.start for region in fresh._globals]
        assert restored.run("f", ()) == fresh.run("f", ()) == 8 + 3 + 99

    def test_runs_do_not_leak_into_the_image(self):
        from repro.interp.compile import CompiledProgram

        module = compile_program(self.SOURCE)
        compiled = CompiledProgram(module)
        image = Machine(module).load_image()
        initial = self._regions(Machine(module))
        for engine in (None, compiled):
            machine = Machine(module, image=image, compiled=engine)
            assert machine.run("f", ()) == 8 + 3 + 99
            assert self._regions(machine) != initial
            # The next machine starts from the loader's state again.
            assert self._regions(Machine(module, image=image)) == initial

    def test_session_image_survives_its_runs(self):
        from repro import DartOptions
        from repro.dart.runner import Dart
        from repro.interp.machine import ExecutionHooks
        from repro.symbolic.flags import CompletenessFlags

        dart = Dart(self.SOURCE, "f", DartOptions(), "<test>")
        assert dart.image is None
        initial = self._regions(Machine(dart.module))
        for _ in range(3):
            machine = dart.machine(ExecutionHooks(), CompletenessFlags())
            assert self._regions(machine) == initial
            assert machine.run("f", ()) == 8 + 3 + 99
        assert dart.image is not None

    def test_image_is_taken_before_any_execution(self):
        module = compile_program(self.SOURCE)
        machine = Machine(module)
        machine.run("f", ())
        with pytest.raises(InterpreterError):
            machine.load_image()

    def test_image_of_another_module_is_rejected(self):
        image = Machine(compile_program(self.SOURCE)).load_image()
        with pytest.raises(InterpreterError):
            Machine(compile_program(self.SOURCE), image=image)
