"""Fault detection: the errors DART reports (crashes, aborts, assertions,
division by zero, non-termination, stack overflow, invalid frees)."""

import pickle

import pytest

from repro.interp import (
    AssertionViolation,
    DivisionByZero,
    InvalidFree,
    Machine,
    MachineOptions,
    NonTermination,
    ProgramAbort,
    SegFault,
    StackOverflow,
)
from repro.interp.faults import (
    ExecutionFault,
    InterpreterError,
    OutOfMemory,
    RestoredFault,
    UninitializedRead,
)
from repro.interp.memory import MemoryOptions
from repro.minic import compile_program
from repro.minic.errors import SourceLocation


def run(source, function="f", args=(), **opts):
    machine_options = MachineOptions(
        max_steps=opts.pop("max_steps", 100_000),
        memory=MemoryOptions(**opts),
    )
    return Machine(compile_program(source), machine_options).run(
        function, args
    )


class TestAbortAndAssert:
    def test_abort_raises(self):
        with pytest.raises(ProgramAbort):
            run("int f(void) { abort(); }")

    def test_abort_records_location(self):
        with pytest.raises(ProgramAbort) as exc:
            run("int f(void) {\n  abort();\n}")
        assert exc.value.location.line == 2

    def test_assert_violation(self):
        with pytest.raises(AssertionViolation):
            run("int f(int x) { assert(x == 5); return x; }", args=(4,))

    def test_assert_pass_is_silent(self):
        assert run("int f(int x) { assert(x == 5); return x; }",
                   args=(5,)) == 5

    def test_assertion_violation_is_an_abort(self):
        # Note 8 of the paper: an assert violation triggers abort().
        assert issubclass(AssertionViolation, ProgramAbort)

    def test_conditional_abort(self):
        src = "int f(int x) { if (x > 10) abort(); return 0; }"
        assert run(src, args=(10,)) == 0
        with pytest.raises(ProgramAbort):
            run(src, args=(11,))


class TestMemoryFaults:
    def test_null_read(self):
        with pytest.raises(SegFault):
            run("int f(void) { int *p; p = NULL; return *p; }")

    def test_null_write(self):
        with pytest.raises(SegFault):
            run("int f(void) { int *p; p = NULL; *p = 1; return 0; }")

    def test_null_struct_field(self):
        src = """
        struct s { int a; int b; };
        int f(void) { struct s *p; p = NULL; return p->b; }
        """
        with pytest.raises(SegFault, match="NULL"):
            run(src)

    def test_fault_location_attached(self):
        src = "struct s { int a; };\nint f(struct s *p) { return p->a; }"
        with pytest.raises(SegFault) as exc:
            run(src, args=(0,))
        assert exc.value.location is not None
        assert exc.value.location.line == 2

    def test_out_of_bounds_array(self):
        src = "int f(void) { int a[4]; return a[4]; }"
        with pytest.raises(SegFault):
            run(src)

    def test_use_after_free(self):
        src = """
        int f(void) {
          int *p;
          p = (int *) malloc(4);
          free(p);
          return *p;
        }
        """
        with pytest.raises(SegFault, match="freed"):
            run(src)

    def test_double_free(self):
        src = """
        int f(void) {
          int *p;
          p = (int *) malloc(4);
          free(p);
          free(p);
          return 0;
        }
        """
        with pytest.raises(InvalidFree):
            run(src)

    def test_use_after_return(self):
        src = """
        int *escape(void) { int local; local = 5; return &local; }
        int f(void) { int *p; p = escape(); return *p; }
        """
        with pytest.raises(SegFault, match="dead stack frame"):
            run(src)


class TestOtherFaults:
    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            run("int f(int a) { return 10 / a; }", args=(0,))

    def test_modulo_by_zero(self):
        with pytest.raises(DivisionByZero):
            run("int f(int a) { return 10 % a; }", args=(0,))

    def test_non_termination_detected(self):
        src = "int f(void) { while (1) { } return 0; }"
        with pytest.raises(NonTermination):
            run(src, max_steps=5000)

    def test_non_termination_threshold_not_triggered_early(self):
        src = """
        int f(void) { int i; int s; s = 0;
          for (i = 0; i < 100; i++) s = s + i; return s; }
        """
        assert run(src, max_steps=100_000) == 4950

    def test_runaway_recursion_overflows_stack(self):
        src = "int f(int n) { return f(n + 1); }"
        with pytest.raises(StackOverflow):
            run(src, args=(0,), max_call_depth=64)

    def test_alloca_failure_returns_null_no_fault(self):
        src = """
        int f(void) {
          char *p;
          p = (char *) alloca(1000000);
          return p == NULL;
        }
        """
        assert run(src, stack_limit=1024) == 1

    def test_alloca_success_within_limit(self):
        src = """
        int f(void) {
          char *p;
          p = (char *) alloca(64);
          p[0] = 'x';
          return p[0];
        }
        """
        assert run(src, stack_limit=1 << 16) == ord("x")

    def test_calling_external_without_driver_is_harness_error(self):
        src = "int probe(void); int f(void) { return probe(); }"
        with pytest.raises(InterpreterError):
            run(src)


class TestFaultsPickle:
    """Faults cross process boundaries (pool results) intact."""

    LOCATION = SourceLocation("<program>", 3, 7)

    def faults(self):
        loc = self.LOCATION
        return [
            ExecutionFault("generic", loc),
            ProgramAbort("abort() called", loc),
            AssertionViolation("x > 0", loc),
            SegFault("NULL dereference", 0, loc),
            DivisionByZero("division by zero", loc),
            InvalidFree("double free", loc),
            OutOfMemory("heap exhausted", loc),
            StackOverflow("call depth exceeded", loc),
            UninitializedRead("read of uninitialized memory", 0x1004, loc),
            NonTermination(500, loc),
            RestoredFault("abort", "abort() called", "<program>:3:7"),
            SegFault("no location", 8),
        ]

    def test_every_subclass_is_covered(self):
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        assert set(subclasses(ExecutionFault)) <= \
            {type(fault) for fault in self.faults()}

    def test_round_trip_keeps_the_fields(self):
        for fault in self.faults():
            copy = pickle.loads(pickle.dumps(fault))
            assert type(copy) is type(fault)
            assert copy.kind == fault.kind
            assert copy.message == fault.message
            assert str(copy.location) == str(fault.location)
            assert getattr(copy, "address", None) == \
                getattr(fault, "address", None)
            assert copy.describe() == fault.describe()
