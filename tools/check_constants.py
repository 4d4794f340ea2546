"""Constant-parity grid: folded constants against the machine.

Lowering folds constant expressions with
:func:`repro.minic.consts.const_value`, and both execution engines run
the folded IR, so the engine-differential oracle can no longer tell a
folder that disagrees with the machine.  This grid can.  It covers every
binary operator, unary ``-``, ``~`` and ``!``, and casts to every integer
type and to a pointer, over the operand types ``int``, ``unsigned``,
``char``, ``unsigned char`` and ``short`` and the boundary values 0, 1,
-1, 31, 32, 300, INT_MAX, INT_MIN and UINT_MAX.  For every case it
compares

* the literal lowering leaves for the expression over cast literals
  (``(char)(300) + (short)(-1)``),
* the value of the same expression as a global initializer, and
* the value the machine computes for the expression over variables that
  receive the operands at run time, under the interpreter and under the
  compiled engine.

A ``/`` or ``%`` by zero must stay unfolded, fault in both engines and be
rejected as a global initializer.  The cases are batched into one
translation unit per operator.

Usage::

    PYTHONPATH=src python tools/check_constants.py

Exits 0 when every case agrees, 1 with the first mismatch otherwise.
"""

import functools
import itertools
import sys
import time

from repro.interp import DivisionByZero, Machine
from repro.interp.compile import CompiledProgram
from repro.minic import ast_nodes as ast
from repro.minic import compile_program
from repro.minic.errors import LoweringError

MASK = 0xFFFFFFFF
INT_MAX = (1 << 31) - 1

TYPES = ["int", "unsigned", "char", "unsigned char", "short"]
VALUES = [0, 1, -1, 31, 32, 300, INT_MAX, -INT_MAX - 1, MASK]
BINARY = ["+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^",
          "==", "!=", "<", ">", "<=", ">=", "&&", "||"]
UNARY = ["-", "~", "!"]
CASTS = ["int", "unsigned", "char", "unsigned char", "short",
         "unsigned short", "char *"]


class Mismatch(Exception):
    pass


def _literal(value):
    return str(value) if value >= 0 else "-{}".format(-value)


def _operand(ctype, value):
    return "({})({})".format(ctype, _literal(value))


def _template(op):
    """``op`` as a function of its operand texts; the result is unsigned
    (a pointer cast is read back through ``(unsigned)``)."""
    if op in BINARY:
        return lambda x, y: "{} {} {}".format(x, op, y)
    if op in UNARY:
        return lambda x: "{}{}".format(op, x)
    if op.endswith("*"):
        return lambda x: "(unsigned)({})({})".format(op, x)
    return lambda x: "({})({})".format(op, x)


def _groups(op):
    """``(operand types, [operand values...])`` for every case of ``op``."""
    arity = 2 if op in BINARY else 1
    values = list(itertools.product(VALUES, repeat=arity))
    return [(types, values)
            for types in itertools.product(TYPES, repeat=arity)]


@functools.lru_cache(maxsize=None)
def _is_zero(ctype, value):
    module = compile_program("unsigned f(unsigned v) {{ {} b = v; "
                             "return b; }}".format(ctype))
    return Machine(module).run("f", [value & MASK]) & MASK == 0


def check_operator(op):
    """Compile one translation unit for ``op`` and compare every case;
    returns the number of cases."""
    expr = _template(op)
    params = ["v{}".format(i) for i in range(2 if op in BINARY else 1)]
    names = "ab"[:len(params)]
    lines = []
    cases = []
    for g, (types, value_list) in enumerate(_groups(op)):
        decls = " ".join("{} {} = {};".format(t, n, p)
                         for t, n, p in zip(types, names, params))
        lines.append("unsigned run{}({}) {{ {} return {}; }}".format(
            g, ", ".join("unsigned " + p for p in params), decls,
            expr(*names)))
        for values in value_list:
            name = "c{}".format(len(cases))
            text = expr(*(_operand(t, v) for t, v in zip(types, values)))
            zero = op in ("/", "%") and _is_zero(types[1], values[1])
            if not zero:
                lines.append("unsigned g{} = {};".format(name, text))
            lines.append("unsigned {}(void) {{ return {}; }}".format(
                name, text))
            cases.append((name, g, values, text, zero))
    module = compile_program("\n".join(lines))
    inits = {gvar.name: gvar.init for gvar in module.globals}
    engines = {
        "interpreter": Machine(module),
        "compiled": Machine(module, compiled=CompiledProgram(module)),
    }
    for name, g, values, text, zero in cases:
        ret = module.functions[name].instrs[-2]
        executed = {}
        for engine, machine in engines.items():
            try:
                executed[engine] = machine.run(
                    "run{}".format(g), [v & MASK for v in values]) & MASK
            except DivisionByZero:
                executed[engine] = "division by zero"
        if zero:
            _check_zero_divisor(text, ret.value, executed)
            continue
        if isinstance(ret.value, ast.IntLit):
            folded = ret.value.value & MASK
        elif op in ("&&", "||"):
            # Lowered to branches in code: a constant only as an
            # initializer, so here the code's own result stands in.
            folded = engines["interpreter"].run(name, ()) & MASK
        else:
            raise Mismatch("{}: not folded".format(text))
        seen = {"folded": folded, "global": inits["g" + name] & MASK}
        seen.update(executed)
        if len(set(seen.values())) != 1:
            raise Mismatch("{}: {}".format(text, seen))
    return len(cases)


def _check_zero_divisor(text, folded, executed):
    if isinstance(folded, ast.IntLit):
        raise Mismatch("{}: folded a division by zero".format(text))
    for name, value in executed.items():
        if value != "division by zero":
            raise Mismatch("{}: {} gave {}".format(text, name, value))
    try:
        compile_program("unsigned g = {};".format(text))
    except LoweringError:
        return
    raise Mismatch("{}: accepted as a global initializer".format(text))


def main():
    start = time.monotonic()
    total = 0
    for op in BINARY + UNARY + CASTS:
        try:
            total += check_operator(op)
        except Mismatch as mismatch:
            print("constant mismatch: {}".format(mismatch))
            return 1
    print("{} constant case(s) agree (folded, global initializer, both "
          "engines) in {:.1f}s".format(total, time.monotonic() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
