"""The session front end lexes its program once and changes nothing.

A session builds one :class:`repro.minic.SourceUnit`: its single lex,
parse and analysis give the driver's interface and the AST that the
independence analysis walks, and only the generated driver text is lexed
again, its tokens spliced after the program's.  These tests pin that the
resulting module lists exactly as ``compile_program(source + driver)``
and that the coupling classes are those computed from the source text
(``repro.testgen.oracles.front_end_divergence``, also run by the fuzz
battery), and that the session really does lex and parse that little.
"""

import random
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import repro.minic
from repro.dart.config import DartOptions
from repro.dart.independence import coupling_classes
from repro.dart.runner import Dart
from repro.minic import SourceUnit, parse_program
from repro.programs import samples
from repro.programs.ac_controller import (
    AC_CONTROLLER_SOURCE,
    AC_CONTROLLER_TOPLEVEL,
)
from repro.programs.needham_schroeder import ns_source
from repro.programs.osip import OsipLibrary
from repro.testgen import generate_program
from repro.testgen.oracles import front_end_divergence

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
]


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("source,toplevel", ELIGIBLE,
                         ids=["z", "foobar", "guards"])
def test_classes_from_the_analysed_ast_equal_an_unanalysed_walk(
        source, toplevel, depth):
    # The shared AST has been through semantic analysis, which only
    # annotates nodes; a walk over a fresh, unanalysed parse must agree.
    shared = coupling_classes(SourceUnit(source), toplevel, depth)
    assert shared is not None
    analysis = SourceUnit.analysis

    def fresh_ast(unit):
        return parse_program(source), analysis(unit)[1]

    with mock.patch.object(SourceUnit, "analysis", fresh_ast):
        assert coupling_classes(source, toplevel, depth) == shared


def test_session_classes_equal_those_from_the_source_text():
    source = samples.FOOBAR_SOURCE
    dart = Dart(source, samples.FOOBAR_TOPLEVEL, DartOptions(depth=2))
    assert dart.ctx.independence == coupling_classes(
        source, samples.FOOBAR_TOPLEVEL, 2)


def test_a_session_lexes_its_source_once_and_parses_twice():
    _, source, toplevel, _, max_init_depth = WORKLOADS[0]
    lexed = []
    real_tokenize = repro.minic.tokenize

    def counting_tokenize(text, *args, **kwargs):
        lexed.append(text)
        return real_tokenize(text, *args, **kwargs)

    with mock.patch.object(repro.minic, "tokenize", counting_tokenize), \
            mock.patch.object(repro.minic.Parser, "parse_program",
                              autospec=True,
                              side_effect=repro.minic.Parser.parse_program
                              ) as parses:
        Dart(source, toplevel, DartOptions(max_init_depth=max_init_depth))
    # The source, then the generated driver text alone.
    assert lexed[0] == source
    assert len(lexed) == 2 and len(lexed[1]) < len(source)
    assert lexed[1].startswith("\n/* ---- DART-generated test driver")
    # The source alone (interface + independence), then source + driver.
    assert parses.call_count == 2
