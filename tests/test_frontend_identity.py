"""The session front end builds its program once and changes nothing.

A session takes its :class:`repro.minic.SourceUnit` from a process-wide
memo: the unit's single lex, parse, analysis and lowering give the
driver's interface, the AST that the independence analysis walks and the
source's module, and a session lexes, parses, analyses and lowers only
its generated driver.  These tests pin that the resulting module lists
exactly as ``compile_program(source + driver)`` and that the coupling
classes are those computed from the source text
(``repro.testgen.oracles.front_end_divergence``, also run by the fuzz
battery), that sessions sharing a unit leave it and each other alone,
and that a sweep really does lex and parse that little.
"""

import random
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import repro.minic
from repro.dart.config import DartOptions
from repro.dart.independence import coupling_classes
from repro.dart.driver import build_test_program, generate_driver
from repro.dart.interface import extract_interface
from repro.dart.runner import UNITS_KEPT, Dart, source_unit
from repro.minic import SourceUnit, compile_program, parse_program
from repro.minic.errors import SemanticError
from repro.programs import samples
from repro.programs.ac_controller import (
    AC_CONTROLLER_SOURCE,
    AC_CONTROLLER_TOPLEVEL,
)
from repro.programs.needham_schroeder import ns_source
from repro.programs.osip import OsipLibrary
from repro.testgen import generate_program
from repro.testgen.oracles import _module_listing, front_end_divergence

_OSIP = OsipLibrary()

#: (id, source, toplevel, depth, max_init_depth): the benchmark's
#: workloads (one oSIP function per module at the sweep's init bound,
#: Dolev-Yao at depth 3) and the paper's other programs.
WORKLOADS = [
    ("osip:" + module, _OSIP.source_for_module(module),
     next(f.name for f in _OSIP.functions if f.module == module), 1, 4)
    for module in _OSIP.module_names
] + [
    ("ns:dolev_yao", ns_source("dolev_yao"), "ns_dy_step", 3, None),
    ("ns:possibilistic", ns_source("possibilistic", "buggy"), "ns_step", 2,
     None),
    ("ac", AC_CONTROLLER_SOURCE, AC_CONTROLLER_TOPLEVEL, 2, None),
] + [
    ("sample:" + name, source, toplevel, 1, None)
    for name, (source, toplevel, _) in sorted(samples.ALL_SAMPLES.items())
]

#: How a source may end: the driver's tokens are spliced at its EOF.
ENDINGS = {
    "as-is": lambda source: source,
    "no-newline": lambda source: source.rstrip(),
    "line-comment": lambda source: source.rstrip() + "\n// trailing",
    "hash-line": lambda source: source.rstrip() + "\n#pragma trailing",
    "block-comment": lambda source: source + "/* trailing */",
}


@pytest.mark.parametrize("ending", sorted(ENDINGS))
@pytest.mark.parametrize("name,source,toplevel,depth,max_init_depth",
                         WORKLOADS, ids=[w[0] for w in WORKLOADS])
def test_workload_front_end_is_identical(name, source, toplevel, depth,
                                         max_init_depth, ending):
    assert front_end_divergence(ENDINGS[ending](source), toplevel, depth,
                                max_init_depth) is None


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=2 ** 32),
       st.sampled_from(sorted(ENDINGS)), st.integers(min_value=1,
                                                     max_value=2))
def test_generated_program_front_end_is_identical(seed, ending, depth):
    program = generate_program(random.Random(seed), seed=seed)
    assert front_end_divergence(ENDINGS[ending](program.render()),
                                program.toplevel, depth) is None


#: Programs the independence analysis does not latch on (most generated
#: programs call helpers or loop, and latch).
ELIGIBLE = [
    (samples.Z_SOURCE, samples.Z_TOPLEVEL),
    (samples.FOOBAR_SOURCE, samples.FOOBAR_TOPLEVEL),
    ("int f(int a, int b, int c) {\n"
     "    int t;\n"
     "    t = a + 1;\n"
     "    if (t == 4) { if (b > 2) abort(); }\n"
     "    return c / 2;\n"
     "}", "f"),
    # Lowering hoists the && into branches and a temporary, and folds
    # 3 - 1; the AST the walk sees must not show either.
    ("int f(int a, int b, int c) {\n"
     "    int t;\n"
     "    t = a > 0 && b == 3 - 1;\n"
     "    if (t) { if (c > 2) abort(); }\n"
     "    return c / 2;\n"
     "}", "f"),
]


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("source,toplevel", ELIGIBLE,
                         ids=["z", "foobar", "guards", "hoisted"])
def test_classes_from_the_analysed_ast_equal_an_unanalysed_walk(
        source, toplevel, depth):
    # The shared AST has been through semantic analysis, which only
    # annotates nodes, and the unit has been lowered, which leaves it as
    # it was; a walk over a fresh, unanalysed parse must agree.
    unit = SourceUnit(source)
    build_test_program(unit, toplevel, depth)
    shared = coupling_classes(unit, toplevel, depth)
    assert shared is not None
    analysis = SourceUnit.analysis

    def fresh_ast(unit):
        return parse_program(source), analysis(unit)[1]

    with mock.patch.object(SourceUnit, "analysis", fresh_ast):
        assert coupling_classes(source, toplevel, depth) == shared


def test_session_classes_equal_those_from_the_source_text():
    source = samples.FOOBAR_SOURCE
    dart = Dart(source, samples.FOOBAR_TOPLEVEL, DartOptions(depth=2))
    assert dart.independence == coupling_classes(
        source, samples.FOOBAR_TOPLEVEL, 2)


#: The benchmark's oSIP sample (perfbench/workloads.py): 30 functions
#: drawn with seed 0, from 8 module sources.
SWEEP = random.Random(0).sample(_OSIP.functions, 30)


def sweep_options():
    return DartOptions(max_iterations=1000, seed=1, max_steps=200_000,
                       max_init_depth=4)


def test_a_sweep_lexes_and_parses_each_module_and_each_driver_once():
    lexed = []
    real_tokenize = repro.minic.tokenize

    def counting_tokenize(text, *args, **kwargs):
        lexed.append(text)
        return real_tokenize(text, *args, **kwargs)

    source_unit.cache_clear()
    with mock.patch.object(repro.minic, "tokenize", counting_tokenize), \
            mock.patch.object(repro.minic.Parser, "parse_program",
                              autospec=True,
                              side_effect=repro.minic.Parser.parse_program
                              ) as parses:
        for entry in SWEEP:
            Dart(_OSIP.source_for_function(entry.name), entry.name,
                 sweep_options())
    modules = {_OSIP.source_for_module(entry.module) for entry in SWEEP}
    assert len(modules) == 8
    sources = [text for text in lexed if text in modules]
    drivers = [text for text in lexed if text not in modules]
    assert sorted(sources) == sorted(modules)
    assert len(drivers) == len(SWEEP)
    assert all(text.startswith("\n/* ---- DART-generated test driver")
               for text in drivers)
    assert parses.call_count == len(modules) + len(SWEEP)


#: A program with an external function: a driver stubs it, and the
#: stub's definition must bind in that driver's session alone.
DECLARED = """
int ext(int x);
extern int e;
int g = 7;
int twice(int a) { return ext(a) + ext(a + 1); }
int plain(int a, int b) { if (a == b + g) abort(); return a; }
"""


def _reference_listing(source, toplevel, depth=1, max_init_depth=None,
                       filename="<program>"):
    interface, _ = extract_interface(source, toplevel)
    return _module_listing(compile_program(
        source + generate_driver(interface, depth=depth,
                                 max_init_depth=max_init_depth), filename))


def _unit_state(unit):
    """What building a session must leave alone: the source's symbols,
    its tables and its module."""
    _, info = unit.analysis()
    symbols = [(s.name, s.kind, str(s.ctype), id(s.decl), s.is_extern)
               for s in info.globals_scope.symbols()]
    return (symbols, dict(info.functions), dict(info.function_types),
            _module_listing(unit.module), dict(unit.module.functions),
            list(unit.module.globals), list(unit.module.strings))


#: Two sessions over DECLARED: their drivers stub ``ext`` differently
#: (a bounded driver passes the init depth on).
SESSIONS = [("twice", DartOptions(depth=2)),
            ("plain", DartOptions(max_init_depth=3))]


@pytest.mark.parametrize("order", [(0, 1), (1, 0)],
                         ids=["twice-first", "plain-first"])
def test_sessions_sharing_a_unit_stay_isolated(order):
    source_unit.cache_clear()
    unit = source_unit(DECLARED, "<program>")
    before = _unit_state(unit)
    darts = {}
    for index in order:
        toplevel, options = SESSIONS[index]
        darts[toplevel] = Dart(DECLARED, toplevel, options)
        assert source_unit(DECLARED, "<program>") is unit
        assert _unit_state(unit) == before
    for toplevel, options in SESSIONS:
        module = darts[toplevel].module
        assert _module_listing(module) == _reference_listing(
            DECLARED, toplevel, options.depth, options.max_init_depth)
        assert "ext" in module.functions
        assert module.interface.external_functions == {}
    assert darts["twice"].module.functions["ext"] is not \
        darts["plain"].module.functions["ext"]
    # The source's own analysis and module still see ext as external.
    assert "ext" not in unit.module.functions
    assert unit.analysis()[1].globals_scope.lookup("ext").kind == \
        "external_function"
    assert darts["plain"].run().found_error


def _globals(module):
    return [(var.name, var.init) for var in module.globals]


def test_appended_definitions_bind_in_their_module_alone():
    unit = SourceUnit(DECLARED)
    stub = "\nint ext(int x) { return x; }\nint h(void) { return ext(1); }\n"
    call = "\nint h(void) { return twice(1); }\n"
    define = "\nint e = 5;\nint h(void) { return e; }\n"
    before = _unit_state(unit)
    for text in (stub, call, define, stub):
        module = unit.compile_with(text)
        reference = compile_program(DECLARED + text)
        assert _unit_state(unit) == before
        assert _module_listing(module) == _module_listing(reference)
        assert _globals(module) == _globals(reference)
        assert ("ext" in module.functions) == (text == stub)
        assert ("ext" in module.interface.external_functions) == \
            (text != stub)
        assert ("e" in module.interface.external_variables) == \
            (text != define)
    assert _globals(unit.module) == [("e", None), ("g", 7)]


@pytest.mark.parametrize("text,error", [
    ("\nstruct S { int a; };\n", SemanticError),
    ("\nchar *name = \"x\";\n", ValueError),
    ("int h(void) { return 0; }\n", ValueError),
], ids=["completes-a-struct", "string-global", "no-newline"])
def test_appended_text_the_unit_cannot_take_is_refused(text, error):
    unit = SourceUnit("struct S;\nint f(struct S *p) { return p == 0; }\n")
    before = _unit_state(unit)
    with pytest.raises(error):
        unit.compile_with(text)
    assert _unit_state(unit) == before
    assert not unit.analysis()[1].struct_types["S"].is_complete()


def test_the_unit_memo_is_bounded():
    assert source_unit.cache_info().maxsize == UNITS_KEPT >= 9
    source_unit.cache_clear()
    texts = ["int f{}(int x) {{ return x; }}".format(index)
             for index in range(UNITS_KEPT + 1)]
    first = source_unit(texts[0], "<program>")
    for text in texts[1:]:
        source_unit(text, "<program>")
    assert source_unit.cache_info().currsize == UNITS_KEPT
    assert source_unit(texts[0], "<program>") is not first


def test_a_filename_makes_a_unit_of_its_own():
    source = samples.FOOBAR_SOURCE
    first = Dart(source, samples.FOOBAR_TOPLEVEL, DartOptions(), "a.c")
    second = Dart(source, samples.FOOBAR_TOPLEVEL, DartOptions(), "b.c")
    assert source_unit(source, "a.c") is not source_unit(source, "b.c")
    for dart, name in ((first, "a.c"), (second, "b.c")):
        files = {instr.location.filename
                 for function in dart.module.functions.values()
                 for instr in function.instrs}
        assert files == {name}
        assert _module_listing(dart.module) == _reference_listing(
            source, samples.FOOBAR_TOPLEVEL, filename=name)
    assert first.fingerprint == second.fingerprint
