"""``return`` converts its value to the function's return type.

C converts a returned value as if by assignment to an object of the
function's return type.  Lowering wraps every integer ``return`` whose
value has another type in a conversion, so the interpreter, the compiled
engine and the constant folder all see it, and a directed search can aim
at the converted value.
"""

import json

import pytest

from repro.cli import main
from repro.dart.config import DartOptions
from repro.dart.runner import Dart
from repro.interp.compile import CompiledProgram
from repro.interp.machine import Machine, MachineOptions
from repro.minic import compile_program
from repro.minic.disasm import disassemble

NARROWING = """
int v = 300;
unsigned big = 4294967295;
char g(void) { return v; }
unsigned char uc(int x) { return x; }
short sh(int x) { return x; }
int si(void) { return big; }
unsigned un(int x) { return x; }
int f(int which) {
  if (which == 0) return g() == 44;
  if (which == 1) return uc(-1);
  if (which == 2) return sh(70000);
  if (which == 3) return si();
  return un(-1) > 0;
}
"""

#: which -> what C returns from f.
EXPECTED = {0: 1, 1: 255, 2: 4464, 3: -1, 4: 1}

#: Reached with x = 300, whose conversion to char is 44.
SEARCH = """
char g(int x) { return x; }
int f(int x) {
  if (x == 300)
    if (g(x) == 44)
      abort();
  return 0;
}
"""

#: Never reached: no char is 300.
UNREACHABLE = SEARCH.replace("g(x) == 44", "g(x) == 300")


@pytest.mark.parametrize("compiled", [False, True],
                         ids=["interpreter", "compiled"])
@pytest.mark.parametrize("which", sorted(EXPECTED))
def test_both_engines_convert_the_returned_value(which, compiled):
    module = compile_program(NARROWING)
    machine = Machine(module, MachineOptions(max_steps=10_000),
                      compiled=CompiledProgram(module) if compiled else None)
    assert machine.run("f", (which,)) == EXPECTED[which]


def test_the_folder_converts_a_constant_return():
    listing = disassemble(compile_program(
        "char g(void) { return 300; }\n"
        "unsigned u(void) { return -1; }\n"
        "int i(void) { return 7; }\n"))
    assert "ret 44" in listing
    assert "ret 4294967295" in listing
    assert "ret 7" in listing and "(int)" not in listing


def test_a_return_of_the_same_type_is_not_wrapped():
    listing = disassemble(compile_program(
        "char c(char x) { return x; }\nint i(int x) { return x; }\n"
        "char *p(char *s) { return s; }\nchar *n(void) { return 0; }\n"))
    assert "ret (" not in listing


def _search(source, compiled):
    return Dart(source, "f", DartOptions(
        max_iterations=20, seed=0, handle_signals=False,
        compiled_execution=compiled)).run()


@pytest.mark.parametrize("compiled", [False, True],
                         ids=["interpreter", "compiled"])
def test_the_search_sees_the_converted_value(compiled):
    result = _search(SEARCH, compiled)
    assert result.found_error
    assert result.first_error().inputs == [300]
    assert not _search(UNREACHABLE, compiled).found_error


def test_the_cli_without_compilation_finds_the_bug(tmp_path, capsys):
    path = tmp_path / "ret.c"
    path.write_text(SEARCH)
    code = main([str(path), "f", "--no-compile", "--json",
                 "--max-iterations", "50"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert [error["inputs"] for error in report["errors"]] == [[300]]
