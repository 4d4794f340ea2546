"""Both execution engines: IR lowered once to Python step closures.

Each :class:`repro.minic.ir.IRFunction` is lowered once into a flat list
of step closures, one per instruction (:meth:`_Compiler.instr`, the
instruction layer of both engines), run by the machine's one step loop.
:class:`CompiledProgram` also lowers each expression to a specialised
closure — operand shapes, C types, frame offsets, wrap masks and
operators resolved at lowering time, since at osip scale (§4.3 of the
paper) per-node dispatch would dominate session wall time.
:class:`InterpretedProgram` (``--no-compile``) evaluates every
expression with the tree walker ``Machine._eval``.

Every closure is called as ``closure(m, frame_region)``: the executing
machine and the current frame's live region, whose bytes scalar locals
are read and written in place (see :class:`_Compiler`).

**Taint gating.** The machine's ``(concrete value, symbolic expression or
None)`` value pairs already carry a per-value taint bit: ``sym is None``
means the value cannot depend on any input.  Every compiled closure tests
that bit inline and, when all operands are untainted, runs a concrete-only
path that skips symbolic expression construction, the
:class:`~repro.symbolic.widen.Widener`, and branch-constraint recording
entirely.  The moment any operand carries taint the closure falls back to
the machine's full-symbolic methods (``_compare``, ``_apply_binary``,
``constraint_from_branch``...), so tainted instructions behave *exactly*
like the interpreter — including every completeness-flag transition.

**Bit-identical invariant.** Both engines share all machine state (memory
``M``, symbolic memory ``S``, hooks, widener, flags, frames, counters)
and must produce identical concrete state, branch events, coverage sets,
faults and fault locations, counters and completeness flags on every
program.  The instruction steps are one code path, so for them that
holds by construction; the expression closures below are exact
inlinings of the tree walker's semantics — the untainted early-outs
mirror the evaluator combinators' ``_both_concrete`` returns (which
neither build expressions nor touch flags).  That equivalence is
pinned by the engine-differential oracle
(``repro.testgen.oracles``) and a Hypothesis property over generated
programs (``tests/test_compile_engine.py``).

Lowering is lazy — a function is lowered on its first call — and a
program enters the session's ``compile`` layer (:mod:`repro.obs.clock`)
around it, so lowering never counts as ``execute``.
"""

import operator

from repro.interp.builtins import BUILTINS, INPUT_INTRINSICS
from repro.interp.faults import (
    AssertionViolation,
    DivisionByZero,
    InterpreterError,
    ProgramAbort,
)
from repro.interp.values import c_div, c_mod
from repro.minic import ast_nodes as ast
from repro.minic import ir
from repro.minic.symbols import ENUM_CONST, GLOBAL
from repro.minic.typesys import compares_unsigned
from repro.obs.clock import COMPILE, LayerClock
from repro.symbolic.evaluate import constraint_from_branch
from repro.symbolic.expr import EQ, LinExpr

_M32 = 0xFFFFFFFF

_CMP = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
}

#: Shared "no value" pair (void returns, casts to void).
_ZERO_PAIR = (0, None)


def _wrap_fn(ctype):
    """A closure computing ``values.wrap(v, ctype)`` with baked-in masks."""
    bits = 8 * ctype.size
    mask = (1 << bits) - 1
    if ctype.signed:
        sbit = 1 << (bits - 1)
        # Branch-free two's-complement wrap.
        return lambda v: ((v & mask) ^ sbit) - sbit
    return lambda v: v & mask


def _load_sym(m, addr, size):
    """S's half of Machine._load for a scalar at ``addr``: the stored
    expression, or None — and a partial overlap clears ``all_linear``.
    Callers test S's bounds inline first; outside them this is None."""
    symbolic = m.symbolic
    sym = symbolic.read(addr, size)
    if sym is None and symbolic.has_overlap(addr, size):
        m.flags.clear_linear()
    return sym


def _local_access(off, size, signed):
    """Direct-slot ``(load, store)`` for a scalar local at frame offset
    ``off``; a frame with a written-bitmap takes the checked path."""
    end = off + size
    mask = (1 << (8 * size)) - 1
    from_bytes = int.from_bytes

    def load_local(m, r):
        if r.written is None:
            value = from_bytes(r.data[off:end], "little", signed=signed)
        else:
            value = m.memory.read_int(r.start + off, size, signed)
        symbolic = m.symbolic
        if symbolic._entries:
            addr = r.start + off
            if addr < symbolic._hi and addr + size > symbolic._lo:
                return value, _load_sym(m, addr, size)
        return value, None

    def store_local(m, r, value, sym):
        if r.written is None:
            r.data[off:end] = (value & mask).to_bytes(size, "little")
        else:
            m.memory.write_int(r.start + off, value, size, signed)
        symbolic = m.symbolic
        if sym is not None:
            symbolic.write(r.start + off, size, sym)
        elif symbolic._entries:
            # A concrete store matters to S only by invalidating an
            # overlapping entry; outside S's bounds it is a no-op.
            addr = r.start + off
            if addr < symbolic._hi and addr + size > symbolic._lo:
                symbolic.invalidate(addr, size)

    return load_local, store_local


def _global_access(index, size, signed):
    """Direct-slot ``(load, store)`` for the scalar global
    ``m._globals[index]``, at offset 0 of its region."""
    mask = (1 << (8 * size)) - 1
    from_bytes = int.from_bytes

    def load_global(m, r):
        region = m._globals[index]
        value = from_bytes(region.data[:size], "little", signed=signed)
        symbolic = m.symbolic
        if symbolic._entries:
            addr = region.start
            if addr < symbolic._hi and addr + size > symbolic._lo:
                return value, _load_sym(m, addr, size)
        return value, None

    def store_global(m, r, value, sym):
        region = m._globals[index]
        region.data[:size] = (value & mask).to_bytes(size, "little")
        symbolic = m.symbolic
        if sym is not None:
            symbolic.write(region.start, size, sym)
        elif symbolic._entries:
            addr = region.start
            if addr < symbolic._hi and addr + size > symbolic._lo:
                symbolic.invalidate(addr, size)

    return load_global, store_global


# ---------------------------------------------------------------------------
# Expression lowering
# ---------------------------------------------------------------------------


class _Compiler:
    """Lowers one module's expressions/instructions to closures.

    Every generated closure has the signature ``closure(m, frame_region)``
    (spelled ``(m, r)``) where ``m`` is the executing
    :class:`~repro.interp.machine.Machine` and ``frame_region`` is the
    current frame's live :class:`~repro.interp.memory.Region`; expression
    closures return the machine's ``(value, sym)`` pairs, lvalue closures
    return addresses, step closures return the next pc (negative =
    return).

    **Direct slots.** A scalar local is read and written at its
    lowering-time offset in ``frame_region.data``, and a scalar global at
    offset 0 of its own region (``m._globals``), with no region search.
    The checks that search would make hold by construction: the frame is
    live while its closures run, a slot lies inside the frame by the
    layout (asserted here; a slot that does not fit keeps the checked
    path), and a global's region is always live, never a string, and
    sized to its type.  A frame that tracks written bytes
    (``track_uninitialized``) keeps the checked path so uninitialised
    reads still fault.  Pointer dereferences always take the checked
    path.
    """

    def __init__(self, module):
        self.module = module
        #: Global name -> index into ``module.globals`` (= ``m._globals``).
        self._global_index = {
            gvar.name: index for index, gvar in enumerate(module.globals)
        }
        #: Frame size of the function being lowered (set per function).
        self.frame_size = 0
        #: What the function being lowered bound from the module: its
        #: callees as (name, IRFunction or None) and its direct global
        #: slots as (name, index, GlobalVar) (reset per function).
        self.callees = []
        self.slots = []

    # -- generic expression dispatch ------------------------------------

    def expr(self, e):
        method = self._DISPATCH.get(type(e))
        if method is None:
            # Sound fallback: the interpreter evaluates the node against
            # the same shared machine state.
            return lambda m, r: m._eval(e)
        return method(self, e)

    # -- loads / stores (specialized by C type) -------------------------

    def _load_fn(self, ctype):
        """``load(m, addr) -> (value, sym)`` mirroring Machine._load."""
        if ctype.is_array():
            return lambda m, addr: (addr, None)  # decay
        if ctype.is_struct():
            size = ctype.size

            def load_struct(m, addr):
                data = m.memory.read_bytes(addr, size, check_init=False)
                return _struct_value(data, addr), None

            return load_struct
        size = ctype.size
        signed = ctype.is_integer() and ctype.signed
        from_bytes = int.from_bytes

        def load(m, addr):
            mem = m.memory
            region = mem._last_region
            if (
                region is not None
                and region.start <= addr
                and addr + size <= region.start + region.size
                and region.live
                and region.written is None
            ):
                off = addr - region.start
                value = from_bytes(
                    region.data[off:off + size], "little", signed=signed
                )
            else:
                value = mem.read_int(addr, size, signed)
            symbolic = m.symbolic
            # Inlined bounds guard: S is consulted only when [addr, addr+size)
            # intersects the range symbolic data is stored in.
            if symbolic._entries and addr < symbolic._hi \
                    and addr + size > symbolic._lo:
                return value, _load_sym(m, addr, size)
            return value, None

        return load

    def _store_fn(self, ctype):
        """``store(m, addr, value, sym)`` mirroring Machine._store_scalar."""
        size = ctype.size
        signed = ctype.is_integer() and ctype.signed
        mask = (1 << (8 * size)) - 1

        def store(m, addr, value, sym):
            mem = m.memory
            region = mem._last_region
            if (
                region is not None
                and region.start <= addr
                and addr + size <= region.start + region.size
                and region.live
                and region.written is None
                and region.kind != "string"
            ):
                off = addr - region.start
                region.data[off:off + size] = (value & mask).to_bytes(
                    size, "little"
                )
            else:
                mem.write_int(addr, value, size, signed)
            symbolic = m.symbolic
            if sym is not None:
                symbolic.write(addr, size, sym)
            elif symbolic._entries and addr < symbolic._hi \
                    and addr + size > symbolic._lo:
                # A concrete store can only matter to S by invalidating an
                # overlapping entry; outside the bounds it is a no-op.
                symbolic.invalidate(addr, size)

        return store

    def _convert_fn(self, from_type, to_type):
        """Machine._convert split into (concrete, full) closures.

        ``concrete(v)`` is the conversion for untainted values (the
        symbolic half stays None); ``full(m, v, s)`` is the tainted path
        including ``evaluator.cast_int``.
        """
        if to_type.is_struct():
            return (lambda v: v), (lambda m, v, s: (v, s))
        if to_type.is_integer():
            wrapf = _wrap_fn(to_type)

            def full_int(m, v, s):
                nv = wrapf(v)
                return nv, m.evaluator.cast_int(v, nv, s)

            return wrapf, full_int
        if to_type.is_pointer():

            def conc_ptr(v):
                return v & _M32

            def full_ptr(m, v, s):
                nv = v & _M32
                return nv, m.evaluator.cast_int(v, nv, s)

            return conc_ptr, full_ptr
        return (lambda v: v), (lambda m, v, s: (v, s))

    def _slot_access(self, e):
        """``(load, store)`` for the scalar the identifier ``e`` names,
        read and written in place (a direct slot, see the class
        docstring), or None when ``e`` has no direct slot.

        ``load(m, r) -> (value, sym)`` mirrors Machine._load and
        ``store(m, r, value, sym)`` Machine._store_scalar.
        """
        if not isinstance(e, ast.Ident) or e.ctype is None:
            return None
        ctype = e.ctype
        if not ctype.is_scalar():
            return None
        size = ctype.size
        signed = ctype.is_integer() and ctype.signed
        symbol = e.symbol
        if symbol.kind == GLOBAL:
            index = self._global_index.get(symbol.name)
            var = None if index is None else self.module.globals[index]
            self.slots.append((symbol.name, index, var))
            if var is None or size > var.ctype.size:
                return None
            return _global_access(index, size, signed)
        off = symbol.frame_offset
        if off is None or off + size > self.frame_size:
            return None
        return _local_access(off, size, signed)

    # -- lvalues ---------------------------------------------------------

    def lvalue(self, e):
        """``lv(m, r) -> address``, mirroring Machine._eval_lvalue."""
        if isinstance(e, ast.Ident):
            symbol = e.symbol
            if symbol.kind == GLOBAL:
                name = symbol.name
                return lambda m, r: m._global_addrs[name]
            off = symbol.frame_offset
            if off is None:
                return lambda m, r: m._eval_lvalue(e)
            return lambda m, r: r.start + off
        if isinstance(e, ast.Unary) and e.op == "*":
            operand = self.expr(e.operand)

            def lv_deref(m, r):
                value, sym = operand(m, r)
                if sym is not None:
                    m.flags.clear_locs()
                return value

            return lv_deref
        if isinstance(e, ast.Index):
            return self._index_lvalue(e)
        if isinstance(e, ast.Member):
            return self._member_lvalue(e)
        return lambda m, r: m._eval_lvalue(e)

    def _index_lvalue(self, e):
        base = self.expr(e.base)
        index = self.expr(e.index)
        base_type = e.base.ctype.decay()
        if base_type.is_pointer():
            esize = base_type.pointee.size

            def lv_index(m, r):
                base_value, base_sym = base(m, r)
                index_value, index_sym = index(m, r)
                if base_sym is not None or index_sym is not None:
                    m.flags.clear_locs()
                return base_value + index_value * esize

            return lv_index
        # ``i[p]``: semantic analysis allows it; the pointer is the index.
        esize = e.index.ctype.decay().pointee.size

        def lv_index_swapped(m, r):
            index_value, index_sym = base(m, r)
            base_value, base_sym = index(m, r)
            if base_sym is not None or index_sym is not None:
                m.flags.clear_locs()
            return base_value + index_value * esize

        return lv_index_swapped

    def _member_lvalue(self, e):
        offset = e.field.offset
        if e.arrow:
            base = self.expr(e.base)

            def lv_arrow(m, r):
                base_value, base_sym = base(m, r)
                if base_sym is not None:
                    m.flags.clear_locs()
                return base_value + offset

            return lv_arrow
        inner = self.lvalue(e.base)
        return lambda m, r: inner(m, r) + offset

    # -- node compilers --------------------------------------------------

    def intlit(self, e):
        pair = (e.value, None)
        return lambda m, r: pair

    def stringlit(self, e):
        index = e.intern_index
        return lambda m, r: (m._string_addrs[index], None)

    def ident(self, e):
        symbol = e.symbol
        if symbol.kind == ENUM_CONST:
            pair = (symbol.value, None)
            return lambda m, r: pair
        access = self._slot_access(e)
        if access is not None:
            # A scalar local or global: the hottest expression form.
            return access[0]
        load = self._load_fn(e.ctype)
        if symbol.kind == GLOBAL:
            name = symbol.name
            return lambda m, r: load(m, m._global_addrs[name])
        off = symbol.frame_offset
        if off is None:
            return lambda m, r: m._eval(e)
        return lambda m, r: load(m, r.start + off)

    def unary(self, e):
        op = e.op
        if op == "&":
            lv = self.lvalue(e.operand)
            return lambda m, r: (lv(m, r), None)
        if op == "*":
            lv = self.lvalue(e)
            load = self._load_fn(e.ctype)
            return lambda m, r: load(m, lv(m, r))
        if op in ("++", "--"):
            return self._incdec(e.operand, op, prefix=True)
        operand = self.expr(e.operand)
        if op in ("-", "~"):
            if e.ctype is None or not e.ctype.is_integer():
                return lambda m, r: m._eval(e)
            wrapf = _wrap_fn(e.ctype)
            if op == "-":

                def ev_neg(m, r):
                    value, sym = operand(m, r)
                    if sym is None:
                        return wrapf(-value), None
                    return wrapf(-value), m.evaluator.neg(value, sym)

                return ev_neg

            def ev_inv(m, r):
                value, sym = operand(m, r)
                if sym is None:
                    return wrapf(~value), None
                return wrapf(~value), m.evaluator.nonlinear(sym)

            return ev_inv
        if op == "!":
            unsigned = compares_unsigned(e.operand.ctype)

            def ev_not(m, r):
                value, sym = operand(m, r)
                result = 0 if value != 0 else 1
                if sym is None:
                    return result, None
                if isinstance(sym, LinExpr):
                    notsym = m.widener.widen_truth_test(
                        EQ, value, sym, unsigned, result
                    )
                else:
                    notsym = m.evaluator.logical_not(value, sym)
                    if notsym is not None and \
                            not m.widener.faithful(notsym, result):
                        notsym = m.widener.drop_unfaithful()
                return result, notsym

            return ev_not
        return lambda m, r: m._eval(e)

    def postfix(self, e):
        return self._incdec(e.operand, e.op, prefix=False)

    def _incdec(self, target, op, prefix):
        ctype = target.ctype.decay()
        if ctype.is_pointer():
            step = ctype.pointee.size
            delta = step if op == "++" else -step

            def bump_ptr(m, r, value, sym):
                return value + delta, \
                    None if sym is None else m.evaluator.nonlinear(sym)

            return self._read_modify_write(target, ctype, bump_ptr, prefix)
        delta = 1 if op == "++" else -1
        wrapf = _wrap_fn(ctype)

        def bump_int(m, r, value, sym):
            return wrapf(value + delta), \
                None if sym is None \
                else m.evaluator.add(value, sym, delta, None)

        return self._read_modify_write(target, ctype, bump_int, prefix)

    def _read_modify_write(self, target, ctype, modify, prefix=True):
        """``ev(m, r)``: load ``target``, store back
        ``modify(m, r, value, sym)`` and return the new pair (``prefix``)
        or the old one.  The target's address is computed once."""
        access = self._slot_access(target)
        if access is not None:
            load, store = access

            def ev_slot(m, r):
                old = load(m, r)
                new = modify(m, r, old[0], old[1])
                store(m, r, new[0], new[1])
                return new if prefix else old

            return ev_slot
        lv = self.lvalue(target)
        load = self._load_fn(ctype)
        store = self._store_fn(ctype)

        def ev_addr(m, r):
            addr = lv(m, r)
            old = load(m, addr)
            new = modify(m, r, old[0], old[1])
            store(m, addr, new[0], new[1])
            return new if prefix else old

        return ev_addr

    def binary(self, e):
        left = self.expr(e.left)
        right = self.expr(e.right)
        apply = self._make_apply(
            e, e.op, e.left.ctype.decay(), e.right.ctype.decay()
        )

        def ev(m, r):
            lv, ls = left(m, r)
            rv, rs = right(m, r)
            return apply(m, lv, ls, rv, rs)

        return ev

    def _make_apply(self, e, op, lt, rt):
        """``apply(m, lv, ls, rv, rs) -> (value, sym)`` mirroring
        Machine._apply_binary, with the untainted path inlined."""

        def apply_generic(m, lv, ls, rv, rs):
            return m._apply_binary(e, op, lt, lv, ls, rt, rv, rs)

        if op in _CMP:
            cmpf = _CMP[op]
            unsigned = compares_unsigned(lt, rt)

            def apply_cmp(m, lv, ls, rv, rs):
                if ls is None and rs is None:
                    if unsigned:
                        lv &= _M32
                        rv &= _M32
                    return (1 if cmpf(lv, rv) else 0), None
                return m._compare_values(op, unsigned, lv, ls, rv, rs)

            return apply_cmp
        if lt.is_pointer() or rt.is_pointer():
            if op == "-" and lt.is_pointer() and rt.is_pointer():
                size = max(lt.pointee.size, 1)

                def apply_ptrdiff(m, lv, ls, rv, rs):
                    if ls is None and rs is None:
                        return (lv - rv) // size, None
                    return apply_generic(m, lv, ls, rv, rs)

                return apply_ptrdiff
            if op in ("+", "-"):
                if lt.is_pointer():
                    size = max(lt.pointee.size, 1)
                    negate = op == "-"

                    def apply_ptr_left(m, lv, ls, rv, rs):
                        if ls is None and rs is None:
                            offset = rv * size
                            return (lv - offset if negate
                                    else lv + offset), None
                        return apply_generic(m, lv, ls, rv, rs)

                    return apply_ptr_left
                size = max(rt.pointee.size, 1)
                negate = op == "-"

                def apply_ptr_right(m, lv, ls, rv, rs):
                    if ls is None and rs is None:
                        offset = lv * size
                        return (rv - offset if negate
                                else rv + offset), None
                    return apply_generic(m, lv, ls, rv, rs)

                return apply_ptr_right
            return apply_generic
        result_type = e.ctype.decay() if e.ctype is not None else None
        if result_type is None or not result_type.is_integer():
            return apply_generic
        wrapf = _wrap_fn(result_type)
        ufold = not result_type.signed
        # The wrap is inlined below rather than calling wrapf: a Python
        # closure call per arithmetic node is the single largest cost of
        # the concrete fast path.
        mask = (1 << (8 * result_type.size)) - 1
        sbit = 1 << (8 * result_type.size - 1)
        if op in ("+", "-", "*"):
            arith = {"+": operator.add, "-": operator.sub,
                     "*": operator.mul}[op]
            if ufold:

                def apply_arith(m, lv, ls, rv, rs):
                    if ls is None and rs is None:
                        return arith(lv & _M32, rv & _M32) & mask, None
                    return apply_generic(m, lv, ls, rv, rs)

            else:

                def apply_arith(m, lv, ls, rv, rs):
                    if ls is None and rs is None:
                        return ((arith(lv, rv) & mask) ^ sbit) - sbit, \
                            None
                    return apply_generic(m, lv, ls, rv, rs)

            return apply_arith
        if op in ("/", "%"):
            message = "division by zero" if op == "/" else "modulo by zero"
            divf = c_div if op == "/" else c_mod
            location = e.location

            def apply_div(m, lv, ls, rv, rs):
                if ls is None and rs is None:
                    if ufold:
                        lv &= _M32
                        rv &= _M32
                    if rv == 0:
                        raise DivisionByZero(message, location)
                    return wrapf(divf(lv, rv)), None
                return apply_generic(m, lv, ls, rv, rs)

            return apply_div
        if op in ("<<", ">>", "&", "|", "^"):
            if op == "<<":
                def bitf(a, b):
                    return a << (b & 31)
            elif op == ">>":
                def bitf(a, b):
                    return a >> (b & 31)
            else:
                bitf = {"&": operator.and_, "|": operator.or_,
                        "^": operator.xor}[op]

            if ufold:

                def apply_bit(m, lv, ls, rv, rs):
                    if ls is None and rs is None:
                        return bitf(lv & _M32, rv & _M32) & mask, None
                    return apply_generic(m, lv, ls, rv, rs)

            else:

                def apply_bit(m, lv, ls, rv, rs):
                    if ls is None and rs is None:
                        return ((bitf(lv, rv) & mask) ^ sbit) - sbit, None
                    return apply_generic(m, lv, ls, rv, rs)

            return apply_bit
        return apply_generic

    def assign(self, e):
        target_type = e.target.ctype.decay()
        if e.op == "=":
            value = self.expr(e.value)
            if target_type.is_struct():
                lv = self.lvalue(e.target)

                def ev_struct(m, r):
                    addr = lv(m, r)
                    v, s = value(m, r)
                    m._store_scalar_or_struct(addr, target_type, v, s)
                    return v, s

                return ev_struct
            conc, full = self._convert_fn(
                e.value.ctype.decay(), target_type
            )
            access = self._slot_access(e.target)
            if access is not None:
                # A direct slot on the left (the hot loop-body shape).
                store_slot = access[1]

                def ev_assign_slot(m, r):
                    v, s = value(m, r)
                    if s is None:
                        v = conc(v)
                        store_slot(m, r, v, None)
                        return v, None
                    v, s = full(m, v, s)
                    store_slot(m, r, v, s)
                    return v, s

                return ev_assign_slot
            lv = self.lvalue(e.target)
            store = self._store_fn(target_type)

            def ev_assign(m, r):
                addr = lv(m, r)
                v, s = value(m, r)
                if s is None:
                    v = conc(v)
                    store(m, addr, v, None)
                    return v, None
                v, s = full(m, v, s)
                store(m, addr, v, s)
                return v, s

            return ev_assign
        # Compound assignment (+=, -=, ...): load-modify-store.
        binop = e.op[:-1]
        rhs_type = e.value.ctype.decay()
        rhs = self.expr(e.value)
        apply = self._make_apply(e, binop, target_type, rhs_type)
        target_int = target_type.is_integer()
        wrapt = _wrap_fn(target_type) if target_int else None

        def compound(m, r, old_value, old_sym):
            rv, rs = rhs(m, r)
            v, s = apply(m, old_value, old_sym, rv, rs)
            if target_int:
                v = wrapt(v)
            return v, s

        return self._read_modify_write(e.target, target_type, compound)

    def cast(self, e):
        operand = self.expr(e.operand)
        target = e.ctype
        if target.is_void():

            def ev_void(m, r):
                operand(m, r)
                return _ZERO_PAIR

            return ev_void
        conc, full = self._convert_fn(e.operand.ctype.decay(), target)

        def ev_cast(m, r):
            v, s = operand(m, r)
            if s is None:
                return conc(v), None
            return full(m, v, s)

        return ev_cast

    def index(self, e):
        lv = self._index_lvalue(e)
        load = self._load_fn(e.ctype)
        return lambda m, r: load(m, lv(m, r))

    def member(self, e):
        if e.arrow or e.base.is_lvalue:
            lv = self._member_lvalue(e)
            load = self._load_fn(e.ctype)
            return lambda m, r: load(m, lv(m, r))
        # Field of a struct rvalue: rare; the interpreter path is shared.
        return lambda m, r: m._eval_member(e)

    def call(self, e):
        name = e.name
        kind = INPUT_INTRINSICS.get(name)
        if kind is not None:
            return lambda m, r: m._acquire_input(kind)
        arg_evs = [self.expr(arg) for arg in e.args]
        location = e.location
        function = self.module.functions.get(name)
        self.callees.append((name, function))
        if function is not None:
            converters = [
                self._convert_fn(arg.ctype.decay(), ptype)
                for arg, ptype in zip(e.args, function.ftype.param_types)
            ]

            def ev_call(m, r):
                # Every argument is evaluated before any is converted, as
                # in the interpreter: a tainted conversion can clear a
                # flag, and the trace orders those events.
                pairs = [ev(m, r) for ev in arg_evs]
                return m._call(function, [
                    (conc(v), None) if s is None else full(m, v, s)
                    for (conc, full), (v, s) in zip(converters, pairs)
                ], location)

            return ev_call
        handler = BUILTINS.get(name)
        if handler is not None:
            transparent_candidate = name in ("memcpy", "strcpy")

            def ev_builtin(m, r):
                pairs = [ev(m, r) for ev in arg_evs]
                if not (m.options.transparent_memory
                        and transparent_candidate):
                    if any(s is not None for _, s in pairs):
                        # A black-box library call consumed symbolic
                        # values (same loss as the interpreter records).
                        m.flags.clear_linear()
                return handler(m, pairs, location), None

            return ev_builtin
        # Unknown callee: the interpreter raises the right diagnostic.
        return lambda m, r: m._eval_call(e)

    # -- instruction lowering --------------------------------------------

    def instr(self, instruction, pc, function):
        if isinstance(instruction, ir.Eval):
            ev = self.expr(instruction.expr)
            next_pc = pc + 1

            def step_eval(m, r):
                if ev(m, r)[1] is not None:
                    m.symbolic_steps += 1
                return next_pc

            return step_eval
        if isinstance(instruction, ir.Branch):
            cond = self.expr(instruction.cond)
            unsigned = compares_unsigned(instruction.cond.ctype)
            target = instruction.target
            next_pc = pc + 1
            location = instruction.location
            fname = function.name
            key_taken = (fname, pc, True)
            key_not_taken = (fname, pc, False)

            def step_branch(m, r):
                value, sym = cond(m, r)
                taken = value != 0
                if sym is None:
                    constraint = None
                else:
                    m.symbolic_steps += 1
                    constraint = constraint_from_branch(
                        sym, taken, widener=m.widener, value=value,
                        unsigned=unsigned,
                    )
                m.branches_executed += 1
                m.covered_branches.add(key_taken if taken
                                       else key_not_taken)
                trace = m.options.trace
                if trace is not None and trace.enabled:
                    trace.emit("branch", function=fname, pc=pc,
                               taken=taken,
                               symbolic=constraint is not None)
                m.hooks.on_branch(taken, constraint, location)
                return target if taken else next_pc

            return step_branch
        if isinstance(instruction, ir.Jump):
            target = instruction.target
            return lambda m, r: target
        if isinstance(instruction, ir.Ret):
            if instruction.value is None:

                def step_ret_void(m, r):
                    m._return_value = _ZERO_PAIR
                    return -1

                return step_ret_void
            ev = self.expr(instruction.value)

            def step_ret(m, r):
                pair = ev(m, r)
                if pair[1] is not None:
                    m.symbolic_steps += 1
                m._return_value = pair
                return -1

            return step_ret
        if isinstance(instruction, ir.AbortInstr):
            location = instruction.location
            if instruction.reason == "assertion violation":

                def step_assert(m, r):
                    raise AssertionViolation("assertion violated", location)

                return step_assert

            def step_abort(m, r):
                raise ProgramAbort("abort() reached", location)

            return step_abort
        raise InterpreterError(
            "cannot compile instruction {!r}".format(instruction)
        )

    _DISPATCH = {}


_Compiler._DISPATCH = {
    ast.IntLit: _Compiler.intlit,
    ast.StringLit: _Compiler.stringlit,
    ast.Ident: _Compiler.ident,
    ast.Unary: _Compiler.unary,
    ast.Postfix: _Compiler.postfix,
    ast.Binary: _Compiler.binary,
    ast.Assign: _Compiler.assign,
    ast.Cast: _Compiler.cast,
    ast.Index: _Compiler.index,
    ast.Member: _Compiler.member,
    ast.Call: _Compiler.call,
}


class _TreeWalker(_Compiler):
    """The interpreter's lowering: every expression is evaluated by
    the machine's tree walker (``Machine._eval``)."""

    def expr(self, e):
        return lambda m, r: m._eval(e)


def _struct_value(data, addr):
    """Build the machine's struct rvalue (lazy import avoids a cycle at
    module-definition time; the class object is cached on first use)."""
    global _StructValue
    if _StructValue is None:
        from repro.interp.machine import _StructValue as cls
        _StructValue = cls
    return _StructValue(data, addr)


_StructValue = None


# ---------------------------------------------------------------------------
# Compiled artifacts
# ---------------------------------------------------------------------------


class CompiledFunction:
    """One lowered function: a closure per instruction, plus locations
    (for NonTermination / RunTimeout / fault-location anchoring) and
    what its closures bound from the module (``callees`` and ``slots``,
    see :class:`_Compiler`)."""

    __slots__ = ("name", "steps", "locations", "callees", "slots")

    def __init__(self, name, steps, locations, callees, slots):
        self.name = name
        self.steps = steps
        self.locations = locations
        self.callees = callees
        self.slots = slots

    def __repr__(self):
        return "CompiledFunction({!r}, {} steps)".format(
            self.name, len(self.steps)
        )


class CompiledProgram:
    """The compiled engine: a per-module cache of
    :class:`CompiledFunction` artifacts.

    One instance is shared by every :class:`Machine` a session creates
    (closures bake in only module-level facts — types, offsets, operator
    shapes, callee IRFunctions and global slots — never per-machine
    state, which always arrives through the ``m`` argument).  Functions
    are lowered lazily on first call, inside the ``compile`` layer of
    ``clock``.

    ``shared`` is a store kept across modules that hold the same
    IRFunction objects (those of one :class:`repro.minic.SourceUnit`):
    its keys are the functions whose compiled form may be shared, each
    mapped to None until one module compiles it.  On a miss in its own
    table the program takes the shared compiled form when every callee
    and global slot its closures bound is the same object in this
    module, and compiles its own otherwise; the first compiled form of a
    shared function is the one the store keeps.
    """

    #: The lowering this program's functions go through.
    lowering = _Compiler

    def __init__(self, module, shared=None):
        self.module = module
        self._functions = {}
        self._compiler = self.lowering(module)
        self._shared = {} if shared is None else shared
        #: Functions this program lowered itself (not taken from
        #: ``shared``).
        self.functions_compiled = 0
        #: The running session's LayerClock (set by the runner); a clock
        #: of its own, which nobody reads, until then.
        self.clock = LayerClock()

    def function(self, ir_function):
        """The compiled form of ``ir_function`` (lowered on first use)."""
        compiled = self._functions.get(ir_function.name)
        if compiled is None:
            prev = self.clock.enter(COMPILE)
            shared = self._shared.get(ir_function)
            if shared is not None and self._binds_alike(shared):
                compiled = shared
            else:
                compiled = self._compile(ir_function)
                self.functions_compiled += 1
                if shared is None and ir_function in self._shared:
                    self._shared[ir_function] = compiled
            self.clock.leave(prev)
            self._functions[ir_function.name] = compiled
        return compiled

    def _binds_alike(self, compiled):
        """Whether ``compiled``'s closures bound what this module holds."""
        functions = self.module.functions
        for name, function in compiled.callees:
            if functions.get(name) is not function:
                return False
        index = self._compiler._global_index
        globals_ = self.module.globals
        for name, slot, var in compiled.slots:
            if index.get(name) != slot or (
                    slot is not None and globals_[slot] is not var):
                return False
        return True

    def _compile(self, function):
        compiler = self._compiler
        compiler.frame_size = function.frame_size
        compiler.callees = []
        compiler.slots = []
        steps = []
        locations = []
        for pc, instruction in enumerate(function.instrs):
            locations.append(instruction.location)
            steps.append(compiler.instr(instruction, pc, function))
        return CompiledFunction(function.name, steps, locations,
                                tuple(compiler.callees),
                                tuple(compiler.slots))


class InterpretedProgram(CompiledProgram):
    """The interpreter (``--no-compile``): the instruction steps over
    the tree walker.  It takes no ``shared`` store, so it never runs nor
    leaves behind a :class:`repro.minic.SourceUnit`'s closures."""

    lowering = _TreeWalker

    def __init__(self, module):
        super().__init__(module)
