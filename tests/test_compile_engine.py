"""Differential tests of the compiled execution engine.

The compiled engine generates each IR function as one Python function
with every expression inline, and runs symbolic tracking only for
tainted values.  The engine's contract is
*observational identity*: for any program and any input vector, the
compiled engine and the tree-walking interpreter must produce the same
branch events (order, direction, constraint presence), the same final
memory image, the same fault/return value/output, and — across a whole
directed campaign — the same verdict, error set and branch coverage.

Three layers of evidence:

* a Hypothesis property over generated mini-C programs (taint off via
  concrete replay hooks, taint on via ``DirectedHooks``);
* whole-campaign ablation: ``compiled_execution=False`` sessions on the
  benchmark programs and on every checked-in fuzz-corpus repro must
  reproduce the compiled sessions' results key for key;
* unit checks on the lowering cache and its failure modes, the step
  charging per segment, the code memo and the recursion limit.
"""

import glob
import os
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.dart.config import DartOptions
from repro.dart.driver import DRIVER_ENTRY, build_test_program
from repro.dart.inputs import InputVector
from repro.dart.instrument import DirectedHooks
from repro.dart.runner import Dart, source_unit
from repro.interp.codegen import Lowering, accessor
from repro.interp.compile import CompiledProgram, InterpretedProgram
from repro.interp.faults import (
    ExecutionFault,
    InterpreterError,
    NonTermination,
    SegFault,
    UninitializedRead,
)
from repro.interp.machine import Machine, MachineOptions
from repro.interp.memory import MemoryOptions
from repro.minic import compile_program
from repro.obs.clock import COMPILE, LayerClock
from repro.symbolic.flags import CompletenessFlags
from repro.testgen import GeneratorOptions, generate_program, load_repro

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS_FILES = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))

MACHINE_OPTIONS = MachineOptions(max_steps=300_000)

#: The same budget with the written-byte bitmaps on: the compiled
#: engine's direct frame slots branch on ``region.written``.
TRACKING_OPTIONS = MachineOptions(
    max_steps=300_000, memory=MemoryOptions(track_uninitialized=True))

DART_OPTIONS = dict(max_iterations=120, stop_on_first_error=False,
                    handle_signals=False, seed=0)

#: Run-time names only the compiled expression emitter generates; the
#: instruction layer both engines share uses the others.
EXPRESSION_NAMES = {"_ls", "_cmpq", "_lnot", "_lds", "_DBZ", "_cdiv",
                    "_cmod"} | {
    accessor(kind, size, signed) for kind in ("ld", "st", "u")
    for size in (1, 2, 4) for signed in (False, True)}


class _LoggingFixedHooks:
    """Concrete replay of a recorded vector; logs every branch event."""

    def __init__(self, im):
        self.im = im
        self.branch_log = []
        self._next_ordinal = 0

    def acquire_input(self, kind):
        ordinal = self._next_ordinal
        self._next_ordinal += 1
        value = self.im.value_or_none(ordinal, kind)
        return (value if value is not None else 0), None

    def on_branch(self, taken, constraint, location):
        self.branch_log.append((taken, constraint is not None,
                                str(location)))


class _LoggingDirectedHooks(DirectedHooks):
    """Full symbolic instrumentation, plus the same branch log."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.branch_log = []

    def on_branch(self, taken, constraint, location):
        self.branch_log.append((taken, constraint is not None,
                                str(location)))
        super().on_branch(taken, constraint, location)


def _run(module, hooks, compiled=None, options=MACHINE_OPTIONS):
    """Execute the driver; returns (outcome dict, branch log).

    The outcome captures everything the engines must agree on for one
    run: fault, return value, printf output, instruction counts, branch
    trace, and the final memory image (every region's identity, liveness
    and full byte contents — frames are popped by then, so this is the
    surviving globals/string/heap state).
    """
    machine = Machine(module, options, hooks, CompletenessFlags(),
                      compiled=compiled)
    fault = None
    value = None
    try:
        value = machine.run(DRIVER_ENTRY)
    except ExecutionFault as caught:
        fault = (caught.kind, str(caught.location))
    memory = sorted(
        (region.start, region.kind, region.label, region.live,
         bytes(region.data))
        for region in machine.memory._regions.values())
    outcome = {
        "fault": fault,
        "value": value,
        "output": b"".join(machine.output),
        "steps": machine.steps,
        "symbolic_steps": machine.symbolic_steps,
        "branches": machine.branches_executed,
        "covered": frozenset(machine.covered_branches),
        "memory": memory,
    }
    return outcome, list(hooks.branch_log)


def _random_vector(module, seed, options=MACHINE_OPTIONS):
    """Draw one input vector by running the program concretely once."""
    from repro.testgen.oracles import _RecordingHooks

    im = InputVector()
    hooks = _RecordingHooks(im, random.Random(seed))
    machine = Machine(module, options, hooks, CompletenessFlags())
    try:
        machine.run(DRIVER_ENTRY)
    except ExecutionFault:
        pass
    return im


def _directed(im):
    return _LoggingDirectedHooks(
        im.clone(), [], CompletenessFlags(), random.Random(0),
        DartOptions(**DART_OPTIONS))


class TestEngineProperty:
    """Compiled == interpreted, on random programs and random vectors."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_engines_agree_on_generated_programs(self, seed):
        self._check(seed, MACHINE_OPTIONS)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_engines_agree_under_uninitialized_tracking(self, seed):
        self._check(seed, TRACKING_OPTIONS)

    @staticmethod
    def _check(seed, options):
        program = generate_program(
            random.Random(seed), GeneratorOptions(max_statements=10),
            seed)
        module = build_test_program(program.render(), program.toplevel)
        compiled = CompiledProgram(module)
        im = _random_vector(module, seed * 1_000_003 + 17, options)

        # Taint off: concrete replay, symbolic stays dark on both sides.
        interp, interp_log = _run(module, _LoggingFixedHooks(im.clone()),
                                  options=options)
        fast, fast_log = _run(module, _LoggingFixedHooks(im.clone()),
                              compiled=compiled, options=options)
        assert fast == interp
        assert fast_log == interp_log
        assert interp["symbolic_steps"] == 0

        # Taint on: every input is a symbolic source; the compiled
        # engine must fall back to full tracking wherever taint flows
        # and still leave identical concrete state behind.
        interp, interp_log = _run(module, _directed(im), options=options)
        fast, fast_log = _run(module, _directed(im), compiled=compiled,
                              options=options)
        assert fast == interp
        assert fast_log == interp_log


class TestCampaignAblation:
    """Whole directed campaigns, compiled vs. ``--no-compile``."""

    KEYS = ("iterations", "paths", "distinct_paths",
            "instructions_executed", "instructions_symbolic",
            "flips_attempted", "flips_sat", "runs_forced", "runs_new_path")

    def _campaign(self, source, toplevel, **overrides):
        options = DartOptions(**dict(DART_OPTIONS, **overrides))
        result = Dart(source, toplevel, options).run()
        return result

    def _assert_identical(self, compiled, interpreted):
        assert compiled.status == interpreted.status
        assert [(e.kind, str(e.location)) for e in compiled.errors] == \
            [(e.kind, str(e.location)) for e in interpreted.errors]
        assert compiled.stats.covered_branches == \
            interpreted.stats.covered_branches
        assert tuple(compiled.flags) == tuple(interpreted.flags)
        a, b = compiled.stats.summary(), interpreted.stats.summary()
        for key in self.KEYS:
            assert a[key] == b[key], key

    def test_ac_controller_campaign(self):
        from repro.programs.ac_controller import (
            AC_CONTROLLER_SOURCE, AC_CONTROLLER_TOPLEVEL)

        compiled = self._campaign(
            AC_CONTROLLER_SOURCE, AC_CONTROLLER_TOPLEVEL, depth=2,
            max_iterations=200)
        interpreted = self._campaign(
            AC_CONTROLLER_SOURCE, AC_CONTROLLER_TOPLEVEL, depth=2,
            max_iterations=200, compiled_execution=False)
        self._assert_identical(compiled, interpreted)

    @pytest.mark.parametrize(
        "path", CORPUS_FILES,
        ids=[os.path.basename(p) for p in CORPUS_FILES])
    def test_corpus_replay_under_ablation(self, path):
        """Every checked-in fuzz repro explores identically without the
        compiled engine — the ``--no-compile`` ablation demanded by the
        PR 7 acceptance criteria, on the nastiest known programs."""
        payload = load_repro(path)
        compiled = self._campaign(payload["source"], payload["toplevel"])
        interpreted = self._campaign(payload["source"], payload["toplevel"],
                                     compiled_execution=False)
        self._assert_identical(compiled, interpreted)


class TestOneStepLoop:
    """The interpreter is the compiled engine's instruction steps over
    the tree walker, and shares nothing with the compiled engine."""

    SOURCE = """
        int helper(int x) { return x * 3 + 1; }
        int top(int a) {
            if (a > 10) return helper(a);
            return a - 1;
        }
    """

    @staticmethod
    def _ac_session(**overrides):
        from repro.programs.ac_controller import (
            AC_CONTROLLER_SOURCE, AC_CONTROLLER_TOPLEVEL)

        return Dart(AC_CONTROLLER_SOURCE, AC_CONTROLLER_TOPLEVEL,
                    DartOptions(**dict(DART_OPTIONS, depth=2,
                                       max_iterations=60, **overrides)))

    def test_the_interpreter_evaluates_only_through_the_tree_walker(
            self, monkeypatch):
        module = compile_program(self.SOURCE)

        def machine_run():
            machine = Machine(module)
            value = machine.run("top", (50,))
            return value, machine.steps, machine.branches_executed, \
                frozenset(machine.covered_branches)

        def session():
            result = self._ac_session(compiled_execution=False).run()
            return (result.status, [e.describe() for e in result.errors],
                    result.stats.covered_branches, tuple(result.flags),
                    {key: result.stats.summary()[key]
                     for key in TestCampaignAblation.KEYS})

        expected = machine_run(), session()
        assert expected[0][0] == 151

        def refuse(lowering, e):
            raise AssertionError("expression code generated")

        # Every node the compiled expression emitter knows now refuses;
        # the interpreter's functions are generated without it.
        for node in list(Lowering._DISPATCH):
            monkeypatch.setitem(Lowering._DISPATCH, node, refuse)
        with pytest.raises(AssertionError):
            Machine(module, compiled=CompiledProgram(module)).run(
                "top", (50,))
        assert (machine_run(), session()) == expected

    def test_an_interpreted_session_shares_no_unit_closure(self):
        from repro.programs.ac_controller import AC_CONTROLLER_SOURCE

        source_unit.cache_clear()
        interpreted = self._ac_session(compiled_execution=False)
        interpreted.run()
        unit = source_unit(AC_CONTROLLER_SOURCE, "<program>")
        assert isinstance(interpreted.compiled, InterpretedProgram)
        assert interpreted.compiled.functions_compiled > 0
        assert unit.closures and \
            all(entry is None for entry in unit.closures.values())

        first = self._ac_session()
        first.run()
        assert first.compiled.functions_compiled > 0
        shared = {function: entry
                  for function, entry in unit.closures.items()
                  if entry is not None}
        assert shared
        second = self._ac_session()
        second.run()
        assert second.compiled.functions_compiled < \
            first.compiled.functions_compiled
        for function, entry in shared.items():
            assert second.compiled.function(function) is entry

        # An interpreted session after them takes none of those entries.
        again = self._ac_session(compiled_execution=False)
        again.run()
        for function, entry in shared.items():
            assert again.compiled.function(function) is not entry


class TestLoweringMechanics:
    SOURCE = """
        int helper(int x) { return x * 3 + 1; }
        int top(int a) {
            if (a > 10) return helper(a);
            return a - 1;
        }
    """

    def test_lowering_is_lazy_and_cached(self):
        module = build_test_program(self.SOURCE, "top")
        compiled = CompiledProgram(module)
        compiled.clock = LayerClock()
        assert compiled.functions_compiled == 0
        im = InputVector()
        im.record(0, "int", 3)
        outcome, _ = _run(module, _LoggingFixedHooks(im),
                          compiled=compiled)
        assert outcome["fault"] is None
        # a=3 never calls helper: only the executed functions (driver +
        # top) were lowered, each inside the clock's compile layer.
        lowered = compiled.functions_compiled
        assert 0 < lowered < len(module.functions) + 1
        entry = compiled.clock.snapshot()[COMPILE]
        assert entry["entries"] == lowered and entry["seconds"] > 0.0
        im = InputVector()
        im.record(0, "int", 50)
        _run(module, _LoggingFixedHooks(im), compiled=compiled)
        assert compiled.functions_compiled == lowered + 1
        before = compiled.functions_compiled
        im = InputVector()
        im.record(0, "int", 50)
        _run(module, _LoggingFixedHooks(im), compiled=compiled)
        assert compiled.functions_compiled == before

    def test_module_mismatch_is_rejected(self):
        module = build_test_program(self.SOURCE, "top")
        other = compile_program("int f(void) { return 1; }")
        with pytest.raises(InterpreterError):
            Machine(module, MACHINE_OPTIONS, _LoggingFixedHooks(
                InputVector()), CompletenessFlags(),
                compiled=CompiledProgram(other))

    def test_folded_division_fault_keeps_location(self):
        """Constant folding must never fold a division by a folded zero:
        the fault is a runtime event with a source location."""
        source = """
            int top(int a) {
                if (a > 0) return a / (2 - 2);
                return 0;
            }
        """
        module = build_test_program(source, "top")
        compiled = CompiledProgram(module)
        im = InputVector()
        im.record(0, "int", 5)
        fast, _ = _run(module, _LoggingFixedHooks(im.clone()),
                       compiled=compiled)
        interp, _ = _run(module, _LoggingFixedHooks(im.clone()))
        assert fast == interp
        assert fast["fault"] is not None
        assert fast["fault"][0] == "division by zero"


class TestDirectSlotFaults:
    """The compiled engine's direct frame and global slots skip the
    region search; every fault that search stood for must still fire,
    under both engines."""

    @staticmethod
    def _run_both(source, function="f", args=(), options=MACHINE_OPTIONS):
        """``function``'s result (or the fault raised) per engine; the
        fault's location and the step count must agree too."""
        module = compile_program(source)
        outcomes = []
        for compiled in (None, CompiledProgram(module)):
            machine = Machine(module, options, compiled=compiled)
            try:
                outcome = machine.run(function, args)
            except ExecutionFault as fault:
                outcome = (type(fault), str(fault))
                location = str(fault.location)
            else:
                location = None
            outcomes.append((outcome, location, machine.steps))
        assert outcomes[0] == outcomes[1]
        return outcomes[1][0]

    def test_non_termination_stops_at_the_same_step_and_place(self):
        # The budget runs out inside a callee's loop, so the location is
        # the callee's and the step count spans both frames.
        source = """
            int spin(int n) {
              int i; i = 0;
              while (i < n) i = i + 1;
              return i;
            }
            int f(void) { int r; r = 1; r = r + spin(1000000); return r; }
        """
        kind, message = self._run_both(
            source, options=MachineOptions(max_steps=5000))
        assert kind is NonTermination
        assert message == "no progress after 5001 RAM-machine steps"

    def test_pointer_to_popped_local_is_a_dead_frame(self):
        # ``*q = v`` leaves the dying frame as the memory's last-used
        # region, the load's fast path, when ``*p`` reads it.
        kind, message = self._run_both("""
            int *escape(int v) {
              int local; int *q;
              q = &local; *q = v;
              return q;
            }
            int f(void) { int *p; p = escape(5); return *p; }
        """)
        assert kind is SegFault and "dead stack frame" in message

    def test_never_written_local_is_an_uninitialized_read(self):
        kind, _ = self._run_both(
            "int f(int a) { int x; if (a) x = 1; return x; }",
            args=(0,), options=TRACKING_OPTIONS)
        assert kind is UninitializedRead
        assert self._run_both(
            "int f(int a) { int x; if (a) x = 1; return x; }",
            args=(1,), options=TRACKING_OPTIONS) == 1

    @pytest.mark.parametrize("options", [MACHINE_OPTIONS, TRACKING_OPTIONS],
                             ids=["direct", "tracked"])
    def test_narrow_parameters_truncate(self, options):
        source = """
            int c_of(char c) { return c; }
            int s_of(short s) { return s; }
            unsigned uc_of(unsigned char c) { return c; }
            int f(int which) {
              if (which == 0) return c_of(300);
              if (which == 1) return s_of(70000);
              return uc_of(-1);
            }
        """
        assert self._run_both(source, args=(0,), options=options) == 44
        assert self._run_both(source, args=(1,), options=options) == 4464
        assert self._run_both(source, args=(2,), options=options) == 255

    @pytest.mark.parametrize("source", [
        "int f(void) { char *s; s = \"abc\"; *s = s[0] + 1; return 0; }",
        "char *g = \"xyz\";\nint f(void) { g[1] = g[1]; return 0; }",
    ], ids=["local", "global"])
    def test_write_through_string_literal_faults(self, source):
        # The literal is read first, so the write meets it as the
        # memory's last-used region, the store's fast path.
        kind, message = self._run_both(source)
        assert kind is SegFault and "string literal" in message

    def test_scalar_globals_read_and_write_in_place(self):
        source = """
            int counter = 40;
            char tag = 'a';
            int *alias;
            int f(void) {
              alias = &counter;
              counter = counter + 1;
              *alias = *alias + 1;
              tag = tag + 1;
              return counter * 1000 + tag;
            }
        """
        assert self._run_both(source) == 42 * 1000 + ord("b")


class TestSegments:
    """Generated code charges steps a segment at a time.  Where the
    budget runs out, where a fault leaves a segment, and where a fault
    plan fires, both engines report the ``steps`` and location a
    per-instruction step loop reports (the values below are that
    loop's, recorded before segments existed)."""

    SOURCE = """
        int helper(int d) {
          int t; int u; int w;
          t = 5; u = t - d; w = 100 / u; t = t + w; u = 1;
          return t;
        }
        int f(int a) {
          int x; int y; int z; int *p;
          x = a; y = x + 1; z = y + 2;
          if (a == 1) { x = 1; y = 0; z = x / y; x = 2; y = 3; }
          if (a == 2) { p = 0; x = 1; y = *p; z = 2; }
          if (a == 3) { x = 7; assert(x == 8); }
          if (a == 4) { x = 1; y = helper(5); z = 3; }
          z = z + 3; x = x + z; y = y + x; z = z * 2; x = x - 1;
          return x + y + z;
        }
    """

    LOOP = """
        int f(int n) {
          int i; int s;
          i = 0; s = 0;
          while (i < n) { s = s + i; s = s ^ 3; s = s + 1; i = i + 1; }
          return s;
        }
    """

    @staticmethod
    def _outcomes(source, args, plan=None, **options):
        from repro.faults import points
        from repro.faults.plan import FaultPlan

        module = compile_program(source)
        outcomes = []
        for compiled in (CompiledProgram(module), InterpretedProgram(module)):
            machine = Machine(module, MachineOptions(**options),
                              compiled=compiled)
            if plan is not None:
                points.install(points.FaultInjector(FaultPlan.parse(plan)))
            try:
                outcome = ("value", machine.run("f", args))
            except ExecutionFault as fault:
                outcome = (fault.kind, fault.message, str(fault.location))
            except (MemoryError, RecursionError) as exc:
                outcome = (type(exc).__name__,)
            finally:
                points.uninstall()
            outcomes.append(outcome + (machine.steps,))
        assert outcomes[0] == outcomes[1]
        return outcomes[0]

    @pytest.mark.parametrize("budget, expected", [
        (1, ("non-termination", "no progress after 2 RAM-machine steps",
             "<source>:9:18", 2)),
        (12, ("non-termination", "no progress after 13 RAM-machine steps",
              "<source>:14:22", 13)),
    ], ids=["first-block", "last-block"])
    def test_the_step_limit_falls_mid_segment(self, budget, expected):
        assert self._outcomes(self.SOURCE, (0,), max_steps=budget) \
            == expected

    @pytest.mark.parametrize("a, expected", [
        (1, ("division by zero", "division by zero", "<source>:10:45", 7)),
        (2, ("segmentation fault", "NULL pointer dereference",
             "<source>:11:39", 9)),
        (3, ("assertion violation", "assertion violated", "<source>:12:32",
             12)),
        (4, ("division by zero", "division by zero", "<source>:4:37", 15)),
    ], ids=["division", "null", "assertion", "in-callee"])
    def test_a_fault_mid_segment_refunds_the_unrun_steps(self, a, expected):
        assert self._outcomes(self.SOURCE, (a,)) == expected

    @pytest.mark.parametrize("spec, expected", [
        ("machine.memory@2", ("MemoryError", 1024)),
        ("machine.recursion@3", ("RecursionError", 2048)),
    ])
    def test_a_machine_probe_fires_at_the_watchdog_step(self, spec,
                                                        expected):
        assert self._outcomes(self.LOOP, (3000,), plan=spec) == expected


    def test_an_external_call_evaluates_its_arguments_once(self):
        module = compile_program("""
            int g;
            int ext(int x);
            int f(void) { g = 5; return ext(g++); }
        """)
        for compiled in (CompiledProgram(module), InterpretedProgram(module)):
            machine = Machine(module, MACHINE_OPTIONS, compiled=compiled)
            with pytest.raises(InterpreterError):
                machine.run("f")
            assert machine.memory.read_int(
                machine.global_address("g"), 4, True) == 6
            assert machine.steps == 2


class TestCodeMemo:
    """Generated text depends only on a function's shape, and one code
    object serves every program whose function has that shape, under
    the same lowering only."""

    def test_osip_sessions_share_the_driver_entrys_code(self):
        from repro.programs.osip import OsipLibrary

        source = OsipLibrary().source_for_module("uri")
        codes = []
        for toplevel in ("osip_uri_calc_3", "osip_uri_calc_6"):
            dart = Dart(source, toplevel, DartOptions(**DART_OPTIONS))
            main = dart.module.functions[DRIVER_ENTRY]
            compiled = dart.compiled.function(main)
            assert dict(compiled.callees)[toplevel] is \
                dart.module.functions[toplevel]
            codes.append(compiled.code)
        assert codes[0] is codes[1]

    def test_a_repeated_session_lowers_nothing(self):
        from repro.programs.osip import OsipLibrary

        source = OsipLibrary().source_for_module("uri")
        source_unit.cache_clear()
        sessions = []
        for _ in range(2):
            dart = Dart(source, "osip_uri_calc_3", DartOptions(**DART_OPTIONS))
            result = dart.run()
            sessions.append((dart, result))
        (first, first_result), (second, second_result) = sessions
        mains = [dart.module.functions[DRIVER_ENTRY] for dart, _ in sessions]
        # The driver entry is built anew from the same text at the same
        # place: the second session runs the first one's lowered form.
        assert mains[0] is not mains[1] and mains[1].origin is mains[0]
        assert first.compiled.functions_compiled > 0
        assert second.compiled.functions_compiled == 0
        assert second.compiled.function(mains[1]) is \
            first.compiled.function(mains[0])
        assert [e.describe() for e in second_result.errors] == \
            [e.describe() for e in first_result.errors]
        assert second_result.stats.covered_branches == \
            first_result.stats.covered_branches

    @staticmethod
    def _inner(code):
        return next(const for const in code.co_consts
                    if getattr(const, "co_name", None) == "_f")

    def test_an_interpreted_program_never_runs_generated_expressions(self):
        source = """
            int helper(int x) { return x * 3 + 1; }
            int top(int a) { if (a > 10) return helper(a); return a - 1; }
        """
        module = compile_program(source)
        # Either order: the memo is keyed by lowering as well as text.
        for first, second in ((InterpretedProgram, CompiledProgram),
                              (CompiledProgram, InterpretedProgram)):
            programs = {kind: kind(module) for kind in (first, second)}
            for function in module.functions.values():
                interpreted = programs[InterpretedProgram].function(function)
                compiled = programs[CompiledProgram].function(function)
                assert interpreted.code is not compiled.code
                names = set(self._inner(interpreted.code).co_names)
                assert "_eval" in names and not names & EXPRESSION_NAMES
                names = set(self._inner(compiled.code).co_names)
                assert "_eval" not in names and names & EXPRESSION_NAMES
            assert Machine(module, compiled=programs[CompiledProgram]).run(
                "top", (50,)) == Machine(module).run("top", (50,)) == 151


class TestDeepRecursion:
    """Python's recursion limit follows ``max_call_depth``, so a C call
    chain that deep is a ``stack overflow`` on either engine, never a
    harness ``RecursionError``."""

    SOURCE = """
        int down(int n) {
          if (n <= 0) return 0;
          return 1 + down(n - 1);
        }
        int top(int x) {
          if (x == 7) return down(100000);
          return x;
        }
    """

    @pytest.mark.parametrize("compiled", [True, False],
                             ids=["compiled", "interpreted"])
    @pytest.mark.parametrize("depth", [3000, 5000])
    def test_the_depth_limit_is_a_stack_overflow(self, depth, compiled):
        result = Dart(self.SOURCE, "top", DartOptions(
            max_call_depth=depth, stack_limit=1 << 26, max_iterations=10,
            stop_on_first_error=False, compiled_execution=compiled)).run()
        assert not result.quarantined
        assert [(error.kind, error.fault.message) for error in result.errors] \
            == [("stack overflow", "call depth exceeded {}".format(depth))]

    #: The recursive call nine expression levels deep, through a
    #: cast, a unary minus, another call's argument and an index.
    NESTED = """
        int g(int x) { return x; }
        int down(int n) {
          int a[2];
          a[0] = 0; a[1] = 0;
          if (n <= 0) return 0;
          a[1] = 1 + (int)(-(2 * g(3 + a[down(n - 1) & 0])));
          return 0;
        }
        int top(int x) {
          if (x == 7) return down(100000);
          return x;
        }
    """

    #: The recursive call ``CALL_LEVEL`` (6) index levels deep: each
    #: level holds the tree walker's most frames.
    INDEXED = """
        int down(int n) {
          int a[2];
          a[0] = 0; a[1] = 0;
          if (n <= 0) return 0;
          return a[a[a[a[a[a[down(n - 1)]]]]]];
        }
        int top(int x) {
          if (x == 7) return down(100000);
          return x;
        }
    """

    @staticmethod
    def _overflows(source, depth, compiled):
        result = Dart(source, "top", DartOptions(
            max_call_depth=depth, stack_limit=1 << 26, max_iterations=10,
            stop_on_first_error=False, compiled_execution=compiled)).run()
        assert not result.quarantined
        assert [(error.kind, error.fault.message) for error in result.errors] \
            == [("stack overflow", "call depth exceeded {}".format(depth))]

    @pytest.mark.parametrize("compiled", [True, False],
                             ids=["compiled", "interpreted"])
    def test_a_deeply_nested_call_overflows_the_c_stack(self, compiled):
        self._overflows(self.NESTED, 3000, compiled)

    @pytest.mark.parametrize("compiled", [True, False],
                             ids=["compiled", "interpreted"])
    def test_the_deepest_accepted_depth_is_served(self, compiled):
        from repro.dart.config import CALL_LEVEL, MAX_CALL_DEPTH

        assert CALL_LEVEL == 6
        self._overflows(self.INDEXED, MAX_CALL_DEPTH, compiled)

    def test_a_depth_no_ceiling_serves_is_rejected(self):
        from repro.dart.config import MAX_CALL_DEPTH

        DartOptions(max_call_depth=MAX_CALL_DEPTH)
        with pytest.raises(ValueError):
            DartOptions(max_call_depth=MAX_CALL_DEPTH + 1)

    @pytest.mark.parametrize("program", [CompiledProgram, InterpretedProgram])
    @pytest.mark.parametrize("call", [
        "1 + down(n - 1)",
        "a[a[a[down(n - 1)]]]",
        "(int)(-(2 * g(3 + a[down(n - 1) & 0])))",
        "a[down(n - 1) & 1] = 5",
        "a[down(n - 1) & 1]++",
        "--a[down(n - 1) & 1]",
        "*(a + (down(n - 1) & 1))",
        "*&a[down(n - 1) & 1]",
        "s.f[down(n - 1) & 1]",
        "p->f[down(n - 1) & 1] += 2",
        "mk().f[down(n - 1) & 1]",
        "g(g(g(down(n - 1))))",
        "n > 5 && down(n - 1) < 2",
    ])
    def test_a_call_holds_at_most_its_lowered_frames(self, call, program):
        """Between two generated frames of a C call chain, the Python
        stack holds no more frames than the lowering counted."""
        module = compile_program("""
            struct s { int f[2]; };
            struct s mk(void) { struct s r; r.f[0] = 0; r.f[1] = 0;
                                return r; }
            int g(int x) { return x; }
            int down(int n) {
              int a[2];
              struct s s;
              struct s *p;
              a[0] = 0; a[1] = 0; s.f[0] = 0; s.f[1] = 0; p = &s;
              if (n <= 0) return 0;
              return (CALL) & 1;
            }
        """.replace("CALL", call))
        compiled = program(module)
        options = MachineOptions(memory=MemoryOptions(max_call_depth=6))
        with pytest.raises(ExecutionFault) as caught:
            Machine(module, options, compiled=compiled).run("down", (100,))
        assert caught.value.kind == "stack overflow"
        names = []
        tb = caught.value.__traceback__
        while tb is not None:
            names.append(tb.tb_frame.f_code.co_name)
            tb = tb.tb_next
        generated = [index for index, name in enumerate(names)
                     if name == "_f"]
        # Six frames run; the seventh overflows pushing its own.
        assert len(generated) == 7
        held = max(b - a for a, b in zip(generated, generated[1:]))
        assert held <= compiled.call_frames
