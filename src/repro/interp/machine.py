"""The instrumented RAM machine (Fig. 3 of the paper).

One :class:`Machine` performs one execution of the program: it runs the
concrete semantics over the byte-addressable memory ``M`` while maintaining
the symbolic memory ``S`` side by side.  Every expression evaluates to a
pair ``(concrete value, symbolic expression or None)``.

Each IR function runs as one generated Python function
(:mod:`repro.interp.compile`), the same instruction layer for both
engines; the tree walker here (``Machine._eval``) is the interpreter's
expression semantics and the reference C expression semantics.  The
machine keeps the state generated code shares: the frame stack, the
step budget and the watchdog (``_bound``, ``_tick``).

Two extension points connect the machine to the testing layers:

* ``hooks.acquire_input(kind)`` is called by the ``__dart_*`` intrinsics the
  generated test driver uses; it returns the concrete value (from the input
  vector ``IM``, or freshly randomized) and the :class:`InputVar` naming it
  (or None, which makes the value invisible to the symbolic execution).
* ``hooks.on_branch(taken, constraint, location)`` is called at every
  conditional statement with the branch outcome and the path-constraint
  conjunct, implementing the ``path_constraint``/``stack`` bookkeeping of
  Figs. 3 and 4.
"""

import time

from repro.faults import points as fault_points
from repro.interp.builtins import (
    BUILTINS,
    INPUT_INTRINSICS,
    ProgramHalt,
)
from repro.interp.compile import InterpretedProgram
from repro.interp.faults import (
    DivisionByZero,
    InterpreterError,
    NonTermination,
    RunTimeout,
)
from repro.interp.memory import Memory, MemoryOptions
from repro.interp.values import c_div, c_mod, to_unsigned, wrap
from repro.minic import ast_nodes as ast
from repro.minic import ir
from repro.minic import typesys as ts
from repro.minic.symbols import BUILTIN, ENUM_CONST, GLOBAL
from repro.symbolic.evaluate import SymbolicEvaluator
from repro.symbolic.expr import EQ, LinExpr
from repro.symbolic.flags import CompletenessFlags
from repro.symbolic.symmem import SymbolicMemory
from repro.symbolic.widen import Widener

_COMPARISONS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
}

#: Steps between the watchdog's probes (fault seam, interrupt check,
#: deadline); bounds how far past the deadline a run can drift.
WATCHDOG_INTERVAL = 1024

_INPUT_KIND_TYPES = {
    "int": ts.INT,
    "uint": ts.UINT,
    "char": ts.CHAR,
    "uchar": ts.UCHAR,
    "short": ts.SHORT,
    "ushort": ts.USHORT,
    "ptr_choice": ts.INT,
}


class MachineOptions:
    """Tunables for one execution."""

    def __init__(self, max_steps=1_000_000, transparent_memory=False,
                 memory=None, deadline=None, interrupt_check=None,
                 trace=None):
        #: RAM-machine step budget; exceeding it reports NonTermination,
        #: the paper's timer-based non-termination detection (§4.3).
        self.max_steps = max_steps
        #: Extension: let memcpy/strcpy move symbolic values instead of
        #: erasing them (the paper treats them as opaque; see DESIGN.md).
        self.transparent_memory = transparent_memory
        self.memory = memory or MemoryOptions()
        #: Absolute ``time.perf_counter()`` deadline for this execution, or
        #: None.  Enforced amortized (every ``WATCHDOG_INTERVAL`` steps) by
        #: the watchdog; tripping it raises :class:`RunTimeout`, which the
        #: DART run loop contains instead of aborting the session.
        self.deadline = deadline
        #: Optional callable probed at the watchdog cadence; it may raise
        #: to abort the run (the DART session uses it to observe SIGINT/
        #: SIGTERM mid-run instead of only between runs).
        self.interrupt_check = interrupt_check
        #: Optional repro.obs.trace.TraceBus; when attached and enabled,
        #: every executed conditional emits a ``branch`` event.  The
        #: guard is a plain attribute check, so a machine without a bus
        #: pays nothing.
        self.trace = trace


class ExecutionHooks:
    """Default hooks: inputs are rejected, branches are ignored.

    Suitable for running closed programs (no driver); the DART engine and
    the random tester provide real implementations.
    """

    def acquire_input(self, kind):
        raise InterpreterError(
            "the program read a {} input but no test driver is attached"
            .format(kind)
        )

    def on_branch(self, taken, constraint, location):
        pass


class LoadImage:
    """The memory a module's executions start from, taken once.

    Every string literal and statically initialised global, as immutable
    bytes (:class:`~repro.interp.memory.MemoryImage`), plus the addresses
    the loader gave them.  A DART session takes one from its first
    machine and restores it into every later one
    (``Machine(..., image=...)``), instead of rebuilding the same regions
    on every run.
    """

    __slots__ = ("module", "memory", "string_addrs", "global_addrs")

    def __init__(self, module, memory, string_addrs, global_addrs):
        self.module = module
        self.memory = memory
        self.string_addrs = string_addrs
        self.global_addrs = global_addrs


class _StructValue:
    """A struct rvalue: raw bytes, plus the source address when the value
    was loaded from memory (so struct assignment can move symbolic state)."""

    __slots__ = ("data", "source_addr")

    def __init__(self, data, source_addr=None):
        self.data = data
        self.source_addr = source_addr


class Machine:
    """Executes a lowered module; one instance per program execution.

    ``compiled`` is the program for this module whose generated
    functions run: a ``CompiledProgram``, or an ``InterpretedProgram``
    (built here when none is passed), whose every expression is
    evaluated by ``_eval``.  The engine-differential oracle
    (``repro.testgen.oracles``) checks the compiled expression code
    against that tree walker.

    Generated code charges ``steps`` a segment at a time while the
    charge stays within ``_bound`` (the step budget, and the step
    before the next watchdog mark when a watchdog is armed); otherwise
    it calls ``_tick`` before each instruction.
    """

    def __init__(self, module, options=None, hooks=None, flags=None,
                 compiled=None, image=None):
        self.module = module
        self.options = options or MachineOptions()
        self.hooks = hooks or ExecutionHooks()
        self.flags = flags or CompletenessFlags()
        if compiled is None:
            compiled = InterpretedProgram(module)
        elif compiled.module is not module:
            raise InterpreterError(
                "compiled program was lowered from a different module"
            )
        self.compiled = compiled
        self.symbolic = SymbolicMemory()
        self.evaluator = SymbolicEvaluator(self.flags)
        #: Machine-integer widening: keeps recorded conjuncts faithful to
        #: this run under 32-bit wrap and unsigned compares (see
        #: repro.symbolic.widen); also the funnel counters
        #: conjuncts_widened / conjuncts_dropped_unfaithful.
        self.widener = Widener(self.flags, trace=self.options.trace)
        self.memory = Memory(self.options.memory)
        self.output = []
        self.steps = 0
        #: Instructions whose result carried a symbolic expression — the
        #: taint-gated slow path.
        self.symbolic_steps = 0
        self.branches_executed = 0
        #: (function name, pc, taken) triples — branch-direction coverage.
        self.covered_branches = set()
        #: The live frames' regions, innermost last.
        self._frames = []
        #: Frame region -> the ``alloca`` blocks it owns.
        self._allocas = {}
        #: Global name -> address, and the global regions in
        #: ``module.globals`` order (the compiled engine reads and writes
        #: scalar globals in place, at offset 0 of their region).
        self._global_addrs = {}
        self._globals = []
        self._string_addrs = []
        #: Step count at which the wall-clock watchdog next fires.
        self._next_watchdog = WATCHDOG_INTERVAL
        #: Whether the watchdog is armed, and the fault injector it
        #: probes (both set when a run starts).
        self._watchdog = False
        self._injector = None
        #: The highest step count a segment may reach without a check.
        self._bound = self.options.max_steps
        if image is None:
            self._load_module()
        else:
            self._restore(image)
        compiled.serve_depth(self.memory.options.max_call_depth)

    # -- loading --------------------------------------------------------

    def _load_module(self):
        for data in self.module.strings:
            region = self.memory.alloc_string(data)
            self._string_addrs.append(region.start)
        for gvar in self.module.globals:
            region = self.memory.alloc_global(
                max(gvar.ctype.size, 1), gvar.name
            )
            self._global_addrs[gvar.name] = region.start
            self._globals.append(region)
            self._init_global(gvar, region.start)

    def load_image(self):
        """This machine's post-load memory as a :class:`LoadImage`.

        Valid only before the machine has executed anything: the image
        is the state every execution of the module starts from.
        """
        if self.steps or self._frames:
            raise InterpreterError(
                "a load image must be taken before the machine runs"
            )
        return LoadImage(self.module, self.memory.image(),
                         tuple(self._string_addrs), dict(self._global_addrs))

    def _restore(self, image):
        """Start from ``image`` instead of loading the module afresh."""
        if image.module is not self.module:
            raise InterpreterError(
                "load image was taken from a different module"
            )
        regions = self.memory.restore(image.memory)
        self._string_addrs = image.string_addrs
        self._global_addrs = image.global_addrs
        # The loader bump-allocates globals in module order, so address
        # order is module order.
        self._globals = [r for r in regions if r.kind == "globals"]

    def _init_global(self, gvar, addr):
        init = gvar.init
        if init is None:
            return  # zero-initialized by the allocator
        if isinstance(init, ir.StringRef):
            self.memory.write_int(
                addr, self._string_addrs[init.index], 4, signed=False
            )
        elif isinstance(init, int):
            ctype = gvar.ctype
            size = ctype.size if ctype.is_scalar() else 4
            signed = ctype.is_integer() and ctype.signed
            self.memory.write_int(addr, init, size, signed)
        else:
            raise InterpreterError(
                "unsupported global initializer for {!r}".format(gvar.name)
            )

    @property
    def current_frame(self):
        """The innermost live frame's region."""
        return self._frames[-1]

    def global_address(self, name):
        """The address of a global variable (for drivers and tests)."""
        return self._global_addrs[name]

    # -- public entry points -----------------------------------------------

    def run(self, function_name, args=()):
        """Execute ``function_name``; returns the concrete return value.

        ``args`` are concrete integers for scalar parameters.  Program
        faults propagate as :class:`ExecutionFault`; ``exit()`` is a normal
        halt and yields its status code.
        """
        function = self.module.function(function_name)
        if len(args) != len(function.param_slots):
            raise InterpreterError(
                "{!r} expects {} argument(s)".format(
                    function_name, len(function.param_slots)
                )
            )
        injector = fault_points.ACTIVE
        if injector is not None:
            # Fault seam: may raise MemoryError/RecursionError as if the
            # interpreter itself blew up; the runner's fault boundary
            # must quarantine the run, not crash the session.
            injector.machine_probe()
        options = self.options
        self._injector = injector
        self._watchdog = options.deadline is not None \
            or options.interrupt_check is not None or injector is not None
        self._rebound()
        pairs = [(value, None) for value in args]
        try:
            value, _ = self._call(function, pairs, function.location)
        except ProgramHalt as halt:
            return halt.code
        return value

    # -- call machinery ----------------------------------------------------

    def _call(self, function, arg_pairs, location):
        """Call ``function`` with converted argument pairs; the way in
        for ``run`` and the tree walker (generated code calls callees
        directly)."""
        return self.compiled.entry(
            function, self.memory.options.track_uninitialized)[1](
                self, arg_pairs)

    def _store_scalar_or_struct(self, addr, ctype, value, sym):
        if ctype.is_struct():
            data = value.data if isinstance(value, _StructValue) else value
            self.memory.write_bytes(addr, data)
            if isinstance(value, _StructValue) \
                    and value.source_addr is not None:
                self.symbolic.copy_range(value.source_addr, addr, ctype.size)
            else:
                self.symbolic.invalidate(addr, ctype.size)
            return
        size = ctype.size
        signed = ctype.is_integer() and ctype.signed
        self.memory.write_int(addr, value, size, signed)
        self.symbolic.write(addr, size, sym)

    # -- step budget and watchdog -------------------------------------------

    def _rebound(self):
        """Set ``_bound``: the step budget, and the step before the
        next watchdog mark when a watchdog is armed."""
        limit = self.options.max_steps
        if self._watchdog:
            limit = min(limit, self._next_watchdog - 1)
        self._bound = limit

    def _tick(self, location):
        """Charge one step on the checked path, before the instruction
        at ``location`` runs: the step budget and, at the watchdog
        cadence, the fault seam, the interrupt check and the
        deadline."""
        self.steps += 1
        if self.steps > self.options.max_steps:
            raise NonTermination(self.steps, location)
        if self._watchdog and self.steps >= self._next_watchdog:
            self._next_watchdog = self.steps + WATCHDOG_INTERVAL
            self._rebound()
            if self._injector is not None:
                # Fault seam: resource exhaustion mid-execution, at
                # watchdog cadence so deep runs are also exposed.
                self._injector.machine_probe()
            options = self.options
            if options.interrupt_check is not None:
                options.interrupt_check()
            if options.deadline is not None:
                now = time.perf_counter()
                if now > options.deadline:
                    raise RunTimeout(now - options.deadline, location)

    # -- expression evaluation ----------------------------------------------

    def _eval(self, expr):
        """Evaluate ``expr``; returns (concrete value, symbolic or None)."""
        method = self._DISPATCH.get(type(expr))
        if method is None:
            raise InterpreterError(
                "cannot evaluate {} node".format(type(expr).__name__)
            )
        return method(self, expr)

    def _eval_intlit(self, expr):
        return expr.value, None

    def _eval_stringlit(self, expr):
        return self._string_addrs[expr.intern_index], None

    def _eval_ident(self, expr):
        symbol = expr.symbol
        if symbol.kind == ENUM_CONST:
            return symbol.value, None
        addr = self._symbol_addr(symbol)
        return self._load(addr, expr.ctype)

    def _symbol_addr(self, symbol):
        if symbol.kind == GLOBAL:
            return self._global_addrs[symbol.name]
        return self._frames[-1].start + symbol.frame_offset

    def _load(self, addr, ctype):
        if ctype.is_array():
            return addr, None  # decay
        if ctype.is_struct():
            # check_init=False: padding bytes are legitimately unwritten.
            data = self.memory.read_bytes(addr, ctype.size,
                                          check_init=False)
            return _StructValue(data, addr), None
        size = ctype.size
        signed = ctype.is_integer() and ctype.signed
        value = self.memory.read_int(addr, size, signed)
        sym = self.symbolic.read(addr, size)
        if sym is None and self.symbolic.has_overlap(addr, size):
            # A partial overlap (e.g. reading an int whose low byte holds
            # a symbolic char, union/char* aliasing): the loaded value
            # depends on inputs but carries no symbolic expression —
            # outside the theory, so completeness is lost (Fig. 1 spirit).
            self.flags.clear_linear()
        return value, sym

    # -- lvalues ----------------------------------------------------------

    def _eval_lvalue(self, expr):
        """The address of an lvalue; clears ``all_locs_definite`` when the
        address computation itself depends on inputs (Fig. 1's ``*e`` case)."""
        if isinstance(expr, ast.Ident):
            return self._symbol_addr(expr.symbol)
        if isinstance(expr, ast.Unary) and expr.op == "*":
            value, sym = self._eval(expr.operand)
            if sym is not None:
                self.flags.clear_locs()
            return value
        if isinstance(expr, ast.Index):
            return self._index_addr(expr)
        if isinstance(expr, ast.Member):
            return self._member_addr(expr)
        raise InterpreterError(
            "not an lvalue: {}".format(type(expr).__name__)
        )

    def _index_addr(self, expr):
        base_value, base_sym = self._eval(expr.base)
        index_value, index_sym = self._eval(expr.index)
        base_type = expr.base.ctype.decay()
        if not base_type.is_pointer():
            # Semantic analysis allows ``i[p]``; normalize.
            base_value, index_value = index_value, base_value
            base_sym, index_sym = index_sym, base_sym
            base_type = expr.index.ctype.decay()
        if base_sym is not None or index_sym is not None:
            self.flags.clear_locs()
        return base_value + index_value * base_type.pointee.size

    def _member_addr(self, expr):
        if expr.arrow:
            base_value, base_sym = self._eval(expr.base)
            if base_sym is not None:
                self.flags.clear_locs()
            return base_value + expr.field.offset
        return self._eval_lvalue(expr.base) + expr.field.offset

    # -- operators ---------------------------------------------------------

    def _eval_unary(self, expr):
        op = expr.op
        if op == "&":
            return self._eval_lvalue(expr.operand), None
        if op == "*":
            addr = self._eval_lvalue(expr)
            return self._load(addr, expr.ctype)
        if op in ("++", "--"):
            return self._incdec(expr.operand, op, prefix=True)
        value, sym = self._eval(expr.operand)
        if op == "-":
            result = wrap(-value, expr.ctype)
            return result, self.evaluator.neg(value, sym)
        if op == "~":
            result = wrap(~value, expr.ctype)
            return result, self.evaluator.nonlinear(sym)
        if op == "!":
            result = 0 if value != 0 else 1
            if isinstance(sym, LinExpr):
                # ``!e`` of a linear term is a truth test: encode it
                # here, where the operand lane is still known — a later
                # branch on the stored CmpExpr could only drop it.
                # Domain-precise lanes come back as the plain ``e == 0``.
                notsym = self.widener.widen_truth_test(
                    EQ, value, sym,
                    ts.compares_unsigned(expr.operand.ctype), result,
                )
            else:
                notsym = self.evaluator.logical_not(value, sym)
                if notsym is not None and \
                        not self.widener.faithful(notsym, result):
                    notsym = self.widener.drop_unfaithful()
            return result, notsym
        raise InterpreterError("unknown unary operator {!r}".format(op))

    def _eval_postfix(self, expr):
        return self._incdec(expr.operand, expr.op, prefix=False)

    def _incdec(self, target, op, prefix):
        addr = self._eval_lvalue(target)
        ctype = target.ctype.decay()
        old_value, old_sym = self._load(addr, ctype)
        step = ctype.pointee.size if ctype.is_pointer() else 1
        delta = step if op == "++" else -step
        if ctype.is_pointer():
            new_value = old_value + delta
            new_sym = self.evaluator.nonlinear(old_sym)
        else:
            new_value = wrap(old_value + delta, ctype)
            new_sym = self.evaluator.add(old_value, old_sym, delta, None)
        self._store_scalar(addr, ctype, new_value, new_sym)
        if prefix:
            return new_value, new_sym
        return old_value, old_sym

    def _store_scalar(self, addr, ctype, value, sym):
        size = ctype.size
        signed = ctype.is_integer() and ctype.signed
        self.memory.write_int(addr, value, size, signed)
        self.symbolic.write(addr, size, sym)

    def _eval_binary(self, expr):
        op = expr.op
        left_value, left_sym = self._eval(expr.left)
        right_value, right_sym = self._eval(expr.right)
        return self._apply_binary(
            expr, op,
            expr.left.ctype.decay(), left_value, left_sym,
            expr.right.ctype.decay(), right_value, right_sym,
        )

    def _apply_binary(self, expr, op, left_type, left_value, left_sym,
                      right_type, right_value, right_sym):
        if op in ("==", "!=", "<", ">", "<=", ">="):
            return self._compare(op, left_type, left_value, left_sym,
                                 right_type, right_value, right_sym)
        if left_type.is_pointer() or right_type.is_pointer():
            return self._pointer_arith(op, left_type, left_value, left_sym,
                                       right_type, right_value, right_sym,
                                       expr)
        result_type = expr.ctype.decay()
        if not result_type.signed:
            left_value = to_unsigned(left_value, 4)
            right_value = to_unsigned(right_value, 4)
        if op == "+":
            raw = left_value + right_value
            sym = self.evaluator.add(left_value, left_sym,
                                     right_value, right_sym)
        elif op == "-":
            raw = left_value - right_value
            sym = self.evaluator.sub(left_value, left_sym,
                                     right_value, right_sym)
        elif op == "*":
            raw = left_value * right_value
            sym = self.evaluator.mul(left_value, left_sym,
                                     right_value, right_sym)
        elif op in ("/", "%"):
            if right_value == 0:
                raise DivisionByZero(
                    "{} by zero".format(
                        "division" if op == "/" else "modulo"
                    ),
                    expr.location,
                )
            raw = c_div(left_value, right_value) if op == "/" \
                else c_mod(left_value, right_value)
            sym = self.evaluator.nonlinear(left_sym, right_sym)
        elif op == "<<":
            raw = left_value << (right_value & 31)
            sym = self.evaluator.shift_left(left_value, left_sym,
                                            right_value & 31, right_sym)
        elif op == ">>":
            raw = left_value >> (right_value & 31)
            sym = self.evaluator.nonlinear(left_sym, right_sym)
        elif op == "&":
            raw = left_value & right_value
            sym = self.evaluator.nonlinear(left_sym, right_sym)
        elif op == "|":
            raw = left_value | right_value
            sym = self.evaluator.nonlinear(left_sym, right_sym)
        elif op == "^":
            raw = left_value ^ right_value
            sym = self.evaluator.nonlinear(left_sym, right_sym)
        else:
            raise InterpreterError("unknown binary operator {!r}".format(op))
        # The symbolic half stays in ideal integers even when the concrete
        # result wraps (the paper's lp_solve has no machine arithmetic
        # either).  A comparison recorded from a wrapped value would be
        # false of its own run; _compare detects that and rewrites the
        # conjunct through run-anchored wrap quotients so the recorded
        # fact stays bit-precise (see repro.symbolic.widen).
        return wrap(raw, result_type), sym

    def _compare(self, op, left_type, left_value, left_sym,
                 right_type, right_value, right_sym):
        unsigned = ts.compares_unsigned(left_type, right_type)
        return self._compare_values(op, unsigned, left_value, left_sym,
                                    right_value, right_sym)

    def _compare_values(self, op, unsigned, left_value, left_sym,
                        right_value, right_sym):
        """``_compare`` once the operand types have decided
        ``unsigned`` (the compiled engine decides it when lowering)."""
        if unsigned:
            lv, rv = to_unsigned(left_value, 4), to_unsigned(right_value, 4)
        else:
            lv, rv = left_value, right_value
        result = _COMPARISONS[op](lv, rv)
        if left_sym is None and right_sym is None:
            return (1 if result else 0), None
        if self.widener.lanes_linear(left_sym, right_sym):
            # Every comparison in the linear fragment is encoded by the
            # widener against the *machine* operands (folded into the
            # signed/unsigned window) and the input domains: a
            # domain-precise compare comes back as a plain ideal-integer
            # conjunct, anything that can wrap as a bit-precise
            # WidenedCmp (repro.symbolic.widen).  The ideal-integer
            # reading is never recorded directly — faithful-by-luck
            # conjuncts are exactly the ones whose negations misreport
            # the flipped branch as infeasible.
            sym = self.widener.widen_compare(
                op, lv, left_sym, rv, right_sym, unsigned, result,
                left_value, right_value,
            )
        else:
            # Pointer lanes (the NULL test) and anything outside the
            # linear theory keep the Fig. 1 combinator; the faithfulness
            # screen stays as a last defense, with the drop (which
            # clears ``all_faithful``) as the only remedy.
            sym = self.evaluator.compare(op, left_value, left_sym,
                                         right_value, right_sym)
            if sym is not None and not self.widener.faithful(sym, result):
                sym = self.widener.drop_unfaithful()
        return (1 if result else 0), sym

    def _pointer_arith(self, op, left_type, left_value, left_sym,
                       right_type, right_value, right_sym, expr):
        if op == "-" and left_type.is_pointer() and right_type.is_pointer():
            size = max(left_type.pointee.size, 1)
            diff = (left_value - right_value) // size
            if size == 1:
                sym = self.evaluator.sub(left_value, left_sym,
                                         right_value, right_sym)
            else:
                sym = self.evaluator.nonlinear(left_sym, right_sym)
            return diff, sym
        if left_type.is_pointer():
            ptr_value, ptr_sym = left_value, left_sym
            int_value, int_sym = right_value, right_sym
            pointee = left_type.pointee
        else:
            ptr_value, ptr_sym = right_value, right_sym
            int_value, int_sym = left_value, left_sym
            pointee = right_type.pointee
        size = max(pointee.size, 1)
        offset = int_value * size
        offset_sym = self.evaluator.mul(size, None, int_value, int_sym)
        if op == "+":
            value = ptr_value + offset
            sym = self.evaluator.add(ptr_value, ptr_sym, offset, offset_sym)
        else:
            value = ptr_value - offset
            sym = self.evaluator.sub(ptr_value, ptr_sym, offset, offset_sym)
        return value, sym

    # -- assignment -----------------------------------------------------------

    def _eval_assign(self, expr):
        target_type = expr.target.ctype.decay()
        addr = self._eval_lvalue(expr.target)
        if expr.op == "=":
            value, sym = self._eval(expr.value)
            value, sym = self._convert(
                value, sym, expr.value.ctype.decay(), target_type
            )
        else:
            old_value, old_sym = self._load(addr, target_type)
            rhs_value, rhs_sym = self._eval(expr.value)
            value, sym = self._apply_binary(
                expr, expr.op[:-1],
                target_type, old_value, old_sym,
                expr.value.ctype.decay(), rhs_value, rhs_sym,
            )
            if target_type.is_integer():
                value = wrap(value, target_type)
        if target_type.is_struct():
            self._store_scalar_or_struct(addr, target_type, value, sym)
            return value, sym
        self._store_scalar(addr, target_type, value, sym)
        return value, sym

    def _convert(self, value, sym, from_type, to_type):
        """Implicit conversion on assignment / argument passing / return."""
        if to_type.is_struct():
            return value, sym
        if to_type.is_integer():
            new_value = wrap(value, to_type)
            return new_value, self.evaluator.cast_int(value, new_value, sym)
        if to_type.is_pointer():
            new_value = to_unsigned(value, 4)
            return new_value, self.evaluator.cast_int(value, new_value, sym)
        return value, sym

    def _eval_cast(self, expr):
        value, sym = self._eval(expr.operand)
        target = expr.ctype
        if target.is_void():
            return 0, None
        return self._convert(value, sym, expr.operand.ctype.decay(), target)

    # -- aggregate access -----------------------------------------------------

    def _eval_index(self, expr):
        addr = self._index_addr(expr)
        return self._load(addr, expr.ctype)

    def _eval_member(self, expr):
        if expr.arrow or expr.base.is_lvalue:
            addr = self._member_addr(expr)
            return self._load(addr, expr.ctype)
        # Field of a struct rvalue (e.g. the result of a function call).
        base_value, _ = self._eval(expr.base)
        field = expr.field
        data = base_value.data[field.offset : field.offset + field.ctype.size]
        if field.ctype.is_struct():
            return _StructValue(bytes(data)), None
        signed = field.ctype.is_integer() and field.ctype.signed
        return int.from_bytes(data, "little", signed=signed), None

    # -- calls ------------------------------------------------------------

    def _eval_call(self, expr):
        name = expr.name
        kind = INPUT_INTRINSICS.get(name)
        if kind is not None:
            return self._acquire_input(kind)
        arg_pairs = [self._eval(arg) for arg in expr.args]
        if name in self.module.functions:
            function = self.module.functions[name]
            converted = [
                self._convert(value, sym, arg.ctype.decay(), ptype)
                for (value, sym), arg, ptype in zip(
                    arg_pairs, expr.args, function.ftype.param_types
                )
            ]
            return self._call(function, converted, expr.location)
        handler = BUILTINS.get(name)
        if handler is not None:
            if not (self.options.transparent_memory
                    and name in ("memcpy", "strcpy")):
                if any(sym is not None for _, sym in arg_pairs):
                    # A black-box library call consumed symbolic values.
                    self.flags.clear_linear()
            return handler(self, arg_pairs, expr.location), None
        if expr.symbol is not None and expr.symbol.kind == BUILTIN:
            raise InterpreterError(
                "builtin {!r} has no implementation".format(name)
            )
        raise InterpreterError(
            "call to external function {!r}: generate a test driver first "
            "(repro.dart.driver)".format(name)
        )

    def _acquire_input(self, kind):
        value, var = self.hooks.acquire_input(kind)
        ctype = _INPUT_KIND_TYPES[kind]
        value = wrap(value, ctype)
        if var is None:
            return value, None
        # The widener anchors wrap quotients to this run's assignment; the
        # wrapped value recorded here is exactly what the ideal term
        # x_ordinal evaluates to, so every input lane starts faithful.
        # The kind's machine domain drives its domain-precision check.
        self.widener.note_input(var.ordinal, value, var.lo, var.hi)
        return value, LinExpr.variable(var.ordinal)

    # Dispatch table, built once.
    _DISPATCH = {}


Machine._DISPATCH = {
    ast.IntLit: Machine._eval_intlit,
    ast.StringLit: Machine._eval_stringlit,
    ast.Ident: Machine._eval_ident,
    ast.Unary: Machine._eval_unary,
    ast.Postfix: Machine._eval_postfix,
    ast.Binary: Machine._eval_binary,
    ast.Assign: Machine._eval_assign,
    ast.Cast: Machine._eval_cast,
    ast.Index: Machine._eval_index,
    ast.Member: Machine._eval_member,
    ast.Call: Machine._eval_call,
}
