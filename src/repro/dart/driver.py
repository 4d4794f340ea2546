"""Test-driver generation (Section 3.2, Figs. 7–8).

Given a program and its extracted interface, this module *generates mini-C
source code* for a driver that simulates the most general environment:

* one ``__dart_init_<type>`` function per type reachable from the
  interface, implementing the recursive ``random_init`` of Fig. 8 —
  basic types read an input intrinsic, pointers toss the NULL-or-fresh
  coin (itself an input) and allocate with ``malloc``, structs and arrays
  recurse over their members (recursive types like lists yield data
  structures of unbounded size, exactly as the paper notes);
* a stub for every external function that returns a freshly initialized
  value of its return type (§3.4's side-effect-free environment model);
* a ``__dart_main`` that initializes external variables, then calls the
  toplevel function ``depth`` times with freshly initialized arguments
  (Fig. 7).

The driver text is appended to the program text and the combination is
compiled into a single self-executable module — "there is no need to write
any test driver or harness code".  The program is lexed, parsed, analysed
and lowered once (:class:`repro.minic.SourceUnit`): the interface comes
from that analysis, and only the driver text is lexed, parsed, analysed
(in the program's scope) and lowered per driver, its functions appended
to the program's module.
"""

from repro.minic import SourceUnit
# compile_program is not called here: build_test_program compiles through
# a SourceUnit.  The name stays bound because perfbench/tracer.py wraps it
# at this module, and every name the tracer wraps must resolve.
from repro.minic import compile_program  # noqa: F401
from repro.minic import typesys as ts
from repro.minic.errors import SemanticError
from repro.dart.interface import extract_interface

#: The generated entry point (never "main", to avoid colliding with one).
DRIVER_ENTRY = "__dart_main"

_BASIC_INTRINSICS = {
    (4, True): "__dart_int",
    (4, False): "__dart_uint",
    (2, True): "__dart_short",
    (2, False): "__dart_ushort",
    (1, True): "__dart_char",
    (1, False): "__dart_uchar",
}


def render_declarator(ctype, name):
    """Render ``ctype name`` as C declaration syntax."""
    if isinstance(ctype, ts.PointerType):
        return render_declarator(ctype.pointee, "*" + name)
    if isinstance(ctype, ts.ArrayType):
        return render_declarator(
            ctype.element, "{}[{}]".format(name, ctype.length)
        )
    return "{} {}".format(_base_name(ctype), name).rstrip()


def render_type(ctype):
    """Render an abstract type (for casts and sizeof)."""
    return render_declarator(ctype, "").rstrip()


def _base_name(ctype):
    if isinstance(ctype, ts.StructType):
        return "{} {}".format(
            "union" if ctype.is_union else "struct", ctype.tag
        )
    return str(ctype)


def _mangle(ctype):
    if isinstance(ctype, ts.IntType):
        return {
            (4, True): "int",
            (4, False): "uint",
            (2, True): "short",
            (2, False): "ushort",
            (1, True): "char",
            (1, False): "uchar",
        }[(ctype.size, ctype.signed)]
    if isinstance(ctype, ts.PointerType):
        return "p_" + _mangle_pointee(ctype.pointee)
    if isinstance(ctype, ts.ArrayType):
        return "a{}_{}".format(ctype.length, _mangle(ctype.element))
    if isinstance(ctype, ts.StructType):
        return "s_" + ctype.tag
    if isinstance(ctype, ts.VoidType):
        return "void"
    raise SemanticError("cannot generate driver code for {}".format(ctype))


def _mangle_pointee(ctype):
    if isinstance(ctype, ts.VoidType):
        return "void"
    return _mangle(ctype)


class DriverGenerator:
    """Emits the driver source for one interface.

    ``max_init_depth`` optionally bounds the recursion of ``random_init``:
    beyond that many pointer indirections the driver forces NULL (and does
    not consume a coin input).  The paper's driver is unbounded — recursive
    types yield "data structures of unbounded sizes" — which is the default
    (None); the bound is the practical variant used for library sweeps,
    where a directed search on the coins would otherwise grow structures
    without limit.
    """

    def __init__(self, interface, depth, max_init_depth=None):
        self._interface = interface
        self._depth = depth
        self._max_init_depth = max_init_depth
        self._emitted = {}  # mangled name -> function text
        self._order = []

    @property
    def _bounded(self):
        return self._max_init_depth is not None

    def _init_params(self):
        return ", int __dart_d" if self._bounded else ""

    def _init_args(self, expr):
        return "({}, __dart_d)".format(expr) if self._bounded \
            else "({})".format(expr)

    def _init_call_root(self, fn, expr):
        """An init call from main or a stub (recursion depth 0)."""
        if self._bounded:
            return "{}({}, 0);".format(fn, expr)
        return "{}({});".format(fn, expr)

    # -- init-function synthesis ------------------------------------------

    def _init_fn(self, ctype):
        """Ensure ``__dart_init_<m>`` exists for ``ctype``; returns its name."""
        name = "__dart_init_" + _mangle(ctype)
        if name in self._emitted:
            return name
        self._emitted[name] = None  # reserve: breaks recursive-type cycles
        body = self._init_body(ctype)
        text = "void {}({}{}) {{\n{}}}\n".format(
            name,
            render_declarator(ts.PointerType(ctype), "m"),
            self._init_params(),
            body,
        )
        self._emitted[name] = text
        self._order.append(name)
        return name

    def _init_body(self, ctype):
        if isinstance(ctype, ts.IntType):
            intrinsic = _BASIC_INTRINSICS[(ctype.size, ctype.signed)]
            return "    *m = {}();\n".format(intrinsic)
        if isinstance(ctype, ts.PointerType):
            return self._init_pointer_body(ctype.pointee)
        if isinstance(ctype, ts.StructType):
            fields = ctype.fields
            if ctype.is_union and fields:
                # Union members alias: initializing them all would leave
                # only the last write; fill the widest member instead so
                # every byte of the union is a (symbolically tracked)
                # input.
                widest = max(fields, key=lambda f: f.ctype.size)
                fields = [widest]
            lines = []
            for field in fields:
                fn = self._init_fn(field.ctype)
                lines.append(
                    "    {}{};\n".format(
                        fn, self._init_args("&(m->{})".format(field.name))
                    )
                )
            return "".join(lines)
        if isinstance(ctype, ts.ArrayType):
            fn = self._init_fn(ctype.element)
            return (
                "    int __dart_i;\n"
                "    for (__dart_i = 0; __dart_i < {}; __dart_i++) {{\n"
                "        {}{};\n"
                "    }}\n"
            ).format(
                ctype.length, fn, self._init_args("&((*m)[__dart_i])")
            )
        raise SemanticError(
            "cannot generate initialization for type {}".format(ctype)
        )

    def _init_pointer_body(self, pointee):
        """Fig. 8's pointer case: NULL or a freshly allocated, recursively
        initialized cell, chosen by a coin that is itself an input."""
        guard = "__dart_ptr_choice()"
        if self._bounded:
            # Short-circuit keeps the coin unconsumed past the bound.
            guard = "__dart_d < {} && __dart_ptr_choice()".format(
                self._max_init_depth
            )
        if pointee.is_void() or not pointee.is_complete():
            # Opaque target: allocate raw bytes, nothing to initialize.
            return (
                "    if ({}) {{\n"
                "        *m = malloc(8);\n"
                "    }} else {{\n"
                "        *m = NULL;\n"
                "    }}\n"
            ).format(guard)
        fn = self._init_fn(pointee)
        cast = "({})".format(render_type(ts.PointerType(pointee)))
        nested = "{}(*m, __dart_d + 1);" if self._bounded else "{}(*m);"
        return (
            "    if ({}) {{\n"
            "        *m = {} malloc(sizeof({}));\n"
            "        {}\n"
            "    }} else {{\n"
            "        *m = NULL;\n"
            "    }}\n"
        ).format(guard, cast, render_type(pointee), nested.format(fn))

    # -- external function stubs --------------------------------------------

    def _stub(self, name, ftype):
        params = []
        for index, ptype in enumerate(ftype.param_types):
            params.append(render_declarator(ptype, "__dart_p{}".format(index)))
        params_text = ", ".join(params) if params else "void"
        ret = ftype.return_type
        if ret.is_void():
            body = "    return;\n"
            header = "void {}({})".format(name, params_text)
        else:
            fn = self._init_fn(ret)
            body = (
                "    {};\n"
                "    {}\n"
                "    return __dart_tmp;\n"
            ).format(
                render_declarator(ret, "__dart_tmp"),
                self._init_call_root(fn, "&__dart_tmp"),
            )
            header = render_declarator(
                ret, "{}({})".format(name, params_text)
            )
        return "{} {{\n{}}}\n".format(header, body)

    # -- main ------------------------------------------------------------------

    def generate(self):
        chunks = [
            "\n/* ---- DART-generated test driver (Figs. 7-8) ---- */\n"
        ]
        stubs = []
        for name, ftype in sorted(self._interface.external_functions.items()):
            stubs.append(self._stub(name, ftype))
        main_lines = ["void {}(void) {{\n".format(DRIVER_ENTRY)]
        main_lines.append("    int __dart_depth_i;\n")
        arg_decls = []
        arg_names = []
        for index, ptype in enumerate(self._interface.param_types):
            arg = "__dart_arg{}".format(index)
            arg_names.append(arg)
            arg_decls.append(
                "        {};\n".format(render_declarator(ptype, arg))
            )
        for name, ctype in sorted(
            self._interface.external_variables.items()
        ):
            fn = self._init_fn(ctype)
            main_lines.append(
                "    {}\n".format(self._init_call_root(fn, "&" + name))
            )
        main_lines.append(
            "    for (__dart_depth_i = 0; __dart_depth_i < {}; "
            "__dart_depth_i++) {{\n".format(self._depth)
        )
        main_lines.extend(arg_decls)
        for index, ptype in enumerate(self._interface.param_types):
            fn = self._init_fn(ptype)
            main_lines.append(
                "        {}\n".format(
                    self._init_call_root(fn, "&" + arg_names[index])
                )
            )
        main_lines.append(
            "        {}({});\n".format(
                self._interface.toplevel, ", ".join(arg_names)
            )
        )
        main_lines.append("    }\n")
        main_lines.append("}\n")
        for name in self._order:
            chunks.append(self._emitted[name])
        chunks.extend(stubs)
        chunks.append("".join(main_lines))
        return "".join(chunks)


def generate_driver(interface, depth=1, max_init_depth=None):
    """Generate mini-C driver source text for ``interface``."""
    return DriverGenerator(interface, depth, max_init_depth).generate()


def build_test_program(source, toplevel, depth=1, filename="<program>",
                       max_init_depth=None):
    """Interface extraction + driver generation + compilation, in one step.

    Returns the compiled :class:`repro.minic.ir.Module` of the combined
    program+driver, whose entry point is :data:`DRIVER_ENTRY`: the module
    ``compile_program(source + driver)`` gives, built by
    :meth:`repro.minic.SourceUnit.compile_with` from the unit's lowered
    program and the driver alone.  ``source`` is the program text or a
    :class:`repro.minic.SourceUnit` of it (whose own filename then
    applies), so callers can share one unit across sessions and with
    :func:`repro.dart.independence.coupling_classes`; the unit is not
    changed.
    """
    unit = SourceUnit.of(source, filename)
    interface, _ = extract_interface(unit, toplevel, filename=filename)
    driver = generate_driver(interface, depth=depth,
                             max_init_depth=max_init_depth)
    return unit.compile_with(driver)
