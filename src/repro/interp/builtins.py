"""Library functions (Section 3.1's third category).

These are "functions not defined in the program but controlled by the
program ... treated as unknown but deterministic black-boxes".  Each builtin
receives the machine and the evaluated argument pairs and returns a concrete
result; the machine clears ``all_linear`` when symbolic arguments flow into
a black box (unless the *transparent memory* extension is enabled for the
memory-movement builtins, an optimization the paper's Section 2.3 hints at).
"""

from repro.interp.faults import InterpreterError
from repro.minic.consts import wrap
from repro.minic.typesys import INT


class ProgramHalt(Exception):
    """Normal termination via ``exit()`` — the RAM machine's ``halt``."""

    def __init__(self, code):
        super().__init__("exit({})".format(code))
        self.code = code


def _builtin_malloc(machine, args, location):
    (size, _), = args
    return machine.memory.malloc(size)


def _builtin_calloc(machine, args, location):
    (count, _), (size, _) = args
    total = count * size
    addr = machine.memory.malloc(total)
    if addr != 0 and total > 0:
        machine.memory.fill(addr, 0, total)  # calloc zero-initializes
    return addr


def _builtin_free(machine, args, location):
    (addr, _), = args
    machine.memory.free(addr)
    return 0


def _builtin_alloca(machine, args, location):
    (size, _), = args
    region = machine.memory.alloca(size)
    if region is None:
        return 0  # allocation failed: NULL, as in the oSIP bug of §4.3
    machine._allocas.setdefault(machine.current_frame, []).append(region)
    return region.start


def _consumes_symbolic(machine, addr, size):
    """Reading symbolic memory through a black box costs completeness."""
    if machine.symbolic.has_overlap(addr, size):
        machine.flags.clear_linear()


def _builtin_memcpy(machine, args, location):
    (dst, _), (src, _), (size, _) = args
    machine.memory.copy(dst, src, size)
    if machine.options.transparent_memory:
        machine.symbolic.copy_range(src, dst, size)
    else:
        _consumes_symbolic(machine, src, size)
        machine.symbolic.invalidate(dst, size)
    return dst


def _builtin_memset(machine, args, location):
    (dst, _), (byte, _), (size, _) = args
    machine.memory.fill(dst, byte, size)
    machine.symbolic.invalidate(dst, size)
    return dst


def _builtin_strlen(machine, args, location):
    (addr, _), = args
    data = machine.memory.string_at(addr)
    _consumes_symbolic(machine, addr, len(data) + 1)
    return len(data)


def _builtin_strcpy(machine, args, location):
    (dst, _), (src, _) = args
    data = machine.memory.string_at(src) + b"\x00"
    machine.memory.write_bytes(dst, data)
    if machine.options.transparent_memory:
        machine.symbolic.copy_range(src, dst, len(data))
    else:
        _consumes_symbolic(machine, src, len(data))
        machine.symbolic.invalidate(dst, len(data))
    return dst


def _builtin_strncpy(machine, args, location):
    (dst, _), (src, _), (count, _) = args
    data = machine.memory.string_at(src)[:count]
    _consumes_symbolic(machine, src, len(data) + 1)
    data = data + b"\x00" * (count - len(data))
    machine.memory.write_bytes(dst, data)
    machine.symbolic.invalidate(dst, len(data))
    return dst


def _builtin_strcmp(machine, args, location):
    (left, _), (right, _) = args
    a = machine.memory.string_at(left)
    b = machine.memory.string_at(right)
    _consumes_symbolic(machine, left, len(a) + 1)
    _consumes_symbolic(machine, right, len(b) + 1)
    if a == b:
        return 0
    return -1 if a < b else 1


def _builtin_strchr(machine, args, location):
    (addr, _), (char, _) = args
    data = machine.memory.string_at(addr) + b"\x00"
    _consumes_symbolic(machine, addr, len(data))
    index = data.find(bytes([char & 0xFF]))
    if index == -1:
        return 0
    return addr + index


def _builtin_printf(machine, args, location):
    """printf with %d/%u/%x/%c/%s/%% support; output is captured in
    ``machine.output`` rather than written anywhere (the paper discards
    program output; capturing it helps debugging mini-C programs)."""
    if not args:
        raise InterpreterError("printf with no format string")
    fmt = machine.memory.string_at(args[0][0])
    values = [value for value, _ in args[1:]]
    out = bytearray()
    index = 0
    i = 0
    while i < len(fmt):
        byte = fmt[i]
        if byte != ord("%") or i + 1 >= len(fmt):
            out.append(byte)
            i += 1
            continue
        spec = chr(fmt[i + 1])
        i += 2
        if spec == "%":
            out.append(ord("%"))
            continue
        if index >= len(values):
            out.extend(b"%" + spec.encode())  # missing argument: literal
            continue
        value = values[index]
        index += 1
        if spec == "d":
            # ``%d`` reads its argument as an int, whatever type the
            # caller passed (an unsigned 0xFFFFFFF8 prints as -8).
            out.extend(str(wrap(value, INT)).encode())
        elif spec == "u":
            out.extend(str(value & 0xFFFFFFFF).encode())
        elif spec == "x":
            out.extend(format(value & 0xFFFFFFFF, "x").encode())
        elif spec == "c":
            out.append(value & 0xFF)
        elif spec == "s":
            out.extend(machine.memory.string_at(value))
        else:
            out.extend(("%" + spec).encode())
    machine.output.append(bytes(out))
    return len(out)


def _builtin_exit(machine, args, location):
    (code, _), = args
    raise ProgramHalt(code)


#: Dispatch table.  The ``__dart_*`` input intrinsics are intercepted by the
#: machine itself before reaching this table.
BUILTINS = {
    "malloc": _builtin_malloc,
    "calloc": _builtin_calloc,
    "free": _builtin_free,
    "alloca": _builtin_alloca,
    "memcpy": _builtin_memcpy,
    "memset": _builtin_memset,
    "strlen": _builtin_strlen,
    "strcpy": _builtin_strcpy,
    "strncpy": _builtin_strncpy,
    "strcmp": _builtin_strcmp,
    "strchr": _builtin_strchr,
    "printf": _builtin_printf,
    "exit": _builtin_exit,
}

#: Input-acquisition intrinsics emitted by the generated driver, mapped to
#: the input kind they produce.
INPUT_INTRINSICS = {
    "__dart_int": "int",
    "__dart_uint": "uint",
    "__dart_char": "char",
    "__dart_uchar": "uchar",
    "__dart_short": "short",
    "__dart_ushort": "ushort",
    "__dart_ptr_choice": "ptr_choice",
}
