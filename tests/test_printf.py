"""Tests for the captured printf implementation."""

import pytest

from repro.interp import Machine
from repro.interp.compile import CompiledProgram
from repro.minic import compile_program


def output_of(source, function="f", args=(), compiled=False):
    module = compile_program(source)
    machine = Machine(module, compiled=CompiledProgram(module)
                      if compiled else None)
    machine.run(function, args)
    return machine.output


class TestPrintf:
    def test_plain_text(self):
        out = output_of('int f(void) { printf("hello"); return 0; }')
        assert out == [b"hello"]

    def test_decimal(self):
        out = output_of(
            'int f(void) { printf("v=%d!", -42); return 0; }'
        )
        assert out == [b"v=-42!"]

    def test_unsigned_and_hex(self):
        out = output_of(
            'int f(void) { printf("%u %x", -1, 255); return 0; }'
        )
        assert out == [b"4294967295 ff"]

    def test_char_and_string(self):
        out = output_of(
            'int f(void) { printf("%c %s", 65, "world"); return 0; }'
        )
        assert out == [b"A world"]

    def test_percent_escape(self):
        out = output_of('int f(void) { printf("100%%"); return 0; }')
        assert out == [b"100%"]

    def test_multiple_calls_accumulate(self):
        out = output_of(
            'int f(void) { printf("a"); printf("b%d", 1); return 0; }'
        )
        assert out == [b"a", b"b1"]

    def test_missing_argument_kept_literal(self):
        out = output_of('int f(void) { printf("x=%d"); return 0; }')
        assert out == [b"x=%d"]

    def test_return_value_is_length(self):
        source = 'int f(void) { return printf("abc%d", 7); }'
        machine = Machine(compile_program(source))
        assert machine.run("f", ()) == 4

    def test_computed_values(self):
        out = output_of(
            """
            int f(int n) {
              printf("double(%d) = %d", n, n * 2);
              return 0;
            }
            """,
            args=(21,),
        )
        assert out == [b"double(21) = 42"]

    @pytest.mark.parametrize("compiled", [False, True],
                             ids=["interpreter", "compiled"])
    def test_decimal_reads_unsigned_argument_as_int(self, compiled):
        out = output_of(
            """
            int f(void) {
              unsigned p0 = 2147483647;
              printf("%d %d %u", p0 << 3, p0 + 1, p0 << 3);
              return 0;
            }
            """,
            compiled=compiled,
        )
        assert out == [b"-8 -2147483648 4294967288"]
