"""Python source for one IR function: the generator both engines share.

:class:`Lowering` turns one :class:`repro.minic.ir.IRFunction` into the
text of ``_f(m, v0, s0, v1, s1, ...)`` (plus ``_p(m, pairs)``, the same
call with the argument pairs in a list), which
:mod:`repro.interp.compile` compiles and binds.  The function pushes its
frame, stores its parameters, runs its basic blocks as straight-line
code inside one block-id loop, and returns the C return value as the
machine's ``(value, sym)`` pair; a call to a module function is a
direct call of the callee's generated function.

The instruction layer — frames, parameters, blocks, step charging per
segment, branch recording, returns — is one code path for both engines;
only :meth:`Lowering.expr` differs: the compiled engine generates every
expression inline, :class:`TreeWalker` (the interpreter) emits
``m._eval(node)``.

Generated text names what it uses from outside by position, never by
C name: callees ``_c0``, ``_c1``...; global slots ``_g0``...; other
objects (IR nodes, types, locations, coverage keys) ``_o0``...; the
function's name ``_N``, its instruction locations ``_L`` and its line
table ``_T``; and the fixed run-time names of
``repro.interp.compile._RUNTIME`` (``_ls``, ``_ld4s``, ``_st4s``...).
So the text depends only on the function's shape.
"""

from repro.interp.builtins import BUILTINS, INPUT_INTRINSICS
from repro.interp.faults import InterpreterError
from repro.minic import ast_nodes as ast
from repro.minic import ir
from repro.minic.symbols import ENUM_CONST, GLOBAL
from repro.minic.typesys import compares_unsigned

_M32 = 0xFFFFFFFF

_COMPARISONS = ("==", "!=", "<", ">", "<=", ">=")


def accessor(kind, size, signed):
    """The run-time name of a sized access: a checked load (``kind``
    "ld") or store ("st") at an address, or a slot's unpacker ("u",
    ``(value,) = u(data, offset)``) or packer ("p", ``p(data, offset,
    value)`` of a value masked to ``size`` bytes)."""
    return "_{}{}{}".format(kind, size, "s" if signed else "u")


_INDENTS = tuple("    " * depth for depth in range(100))

#: Python frames the tree walker holds per expression level between a
#: node it evaluates and that node's operand: ``_eval``, the node's
#: ``_eval_*`` method and at most one address helper (``_eval_lvalue``,
#: ``_index_addr``, ``_member_addr`` or ``_incdec``).
_WALK_FRAMES = 3


def walked_call_frames(level):
    """The Python frames one C call holds when the tree walker reaches
    it ``level`` expression levels below the node it was handed: the
    levels above it, ``_eval`` and ``_eval_call``, then
    ``Machine._call``, the argument-pair adapter and the callee's
    generated function."""
    return _WALK_FRAMES * level + 5


def _lit(value):
    """``value`` as an operand in generated text."""
    return "({})".format(value) if value < 0 else str(value)


def _literal(atom):
    """The int an atom spells, or None when it is not a literal."""
    text = atom[1:-1] if atom.startswith("(-") else atom
    try:
        return int(text)
    except ValueError:
        return None


def _wrap_value(value, ctype):
    bits = 8 * ctype.size
    mask = (1 << bits) - 1
    if ctype.signed:
        sbit = 1 << (bits - 1)
        return ((value & mask) ^ sbit) - sbit
    return value & mask


def _wrap_text(text, ctype):
    """Generated text of ``values.wrap(text, ctype)`` (branch-free)."""
    bits = 8 * ctype.size
    mask = (1 << bits) - 1
    if ctype.signed:
        sbit = 1 << (bits - 1)
        return "((({}) & {:#x}) ^ {:#x}) - {:#x}".format(text, mask, sbit,
                                                         sbit)
    return "({}) & {:#x}".format(text, mask)


def _concrete_test(*syms):
    """Generated test that every symbolic half in ``syms`` is None
    (empty when each is None by construction)."""
    return " and ".join("{} is None".format(s) for s in syms if s != "None")


class Lowering:
    """Generates the Python source of one IR function.

    The instruction layer (frames, parameters, blocks, segments, branch
    recording, returns) is shared by both engines; :meth:`expr` is the
    expression emitter, overridden by :class:`TreeWalker`.  Emitters
    append lines and return *atoms*: Python expressions (temporaries,
    literals, ``fb + 8``) safe to repeat, for the value and for the
    symbolic half (``"None"`` when untainted by construction).

    **Direct slots.** A scalar local is read and written at its
    generation-time offset in the frame's bytes (``fd``), and a scalar
    global at offset 0 of its own region (``m._globals``), with no
    region search.  The checks that search would make hold by
    construction: the frame is live while its function runs, a slot lies
    inside the frame by the layout (a slot that does not fit keeps the
    checked path), and a global's region is always live, never a string,
    and sized to its type.  A frame that tracks written bytes
    (``track_uninitialized``, the ``tracked`` lowering) takes the checked
    path so uninitialised reads still fault.  Pointer dereferences always
    take the checked path.
    """

    def __init__(self, module, global_index, function, tracked):
        self.module = module
        self._global_index = global_index
        self.function = function
        #: Whether frames track written bytes (``track_uninitialized``):
        #: then every local and parameter takes the checked path.
        self.tracked = tracked
        self.frame_size = function.frame_size
        #: (indented text, pc or None) per generated line.
        self._lines = []
        self._indent = 0
        self._pc = None
        self._temps = 0
        #: Namespace name -> bound object, and id(object) -> name.
        self.consts = {}
        self._const_names = {}
        #: What the function bound from the module: its callees as (name,
        #: IRFunction or None) and its direct global slots as (name,
        #: index, GlobalVar); the callee functions ``_c0``, ``_c1``...
        #: call, by position.
        self.callees = []
        self.slots = []
        self.calls = []
        #: Global index -> the namespace name binding it.
        self._global_names = {}
        #: Steps charged for the instructions of each pc's segment after
        #: it (refunded when the pc raises on the fast path).
        self._unrun = {}
        #: Whether the instruction being emitted calls a module function
        #: (it ends its segment), and whether the function calls
        #: ``alloca`` (its frame owns blocks to release).
        self._calling = False
        self.allocates = False
        #: Whether the function reads or writes a global slot.
        self._globals_used = False
        #: The most Python frames one of its C calls holds, from this
        #: function's generated frame to the callee's: 2 for a direct
        #: call (the callee, and on its first call the stand-in that
        #: binds it), more for a call the tree walker reaches.
        self.call_frames = 0

    # -- text ----------------------------------------------------------

    def emit(self, text):
        self._lines.append((_INDENTS[self._indent] + text, self._pc))

    def temp(self):
        self._temps += 1
        return "v{}".format(self._temps), "s{}".format(self._temps)

    def const(self, obj):
        """The namespace name binding ``obj``."""
        name = self._const_names.get(id(obj))
        if name is None:
            name = "_o{}".format(len(self.consts))
            self.consts[name] = obj
            self._const_names[id(obj)] = name
        return name

    def _split(self, test, concrete, slow):
        """Emit ``concrete`` when ``test`` holds, else ``slow``: each a
        list of lines, or a callable that emits them."""
        arms = [(concrete, "if {}:".format(test)), (slow, "else:")] \
            if test else [(concrete, None)]
        for arm, head in arms:
            if head is not None:
                self.emit(head)
                self._indent += 1
            if callable(arm):
                arm()
            else:
                for line in arm:
                    self.emit(line)
            if head is not None:
                self._indent -= 1

    def _tree(self, call, e):
        """Atoms of ``m.<call>(e)``, a tree-walker entry point."""
        self._walked(e)
        v, s = self.temp()
        self.emit("{}, {} = m.{}({})".format(v, s, call, self.const(e)))
        return v, s

    def _walked(self, e):
        """Note the calls the tree walker makes evaluating ``e``."""
        work = [(e, 0)]
        while work:
            node, level = work.pop()
            if type(node) is ast.Call:
                self._note_call(node.name, walked_call_frames(level))
            level += 1
            for value in vars(node).values():
                if isinstance(value, ast.Expr):
                    work.append((value, level))
                elif type(value) is list:
                    work.extend((item, level) for item in value
                                if isinstance(item, ast.Expr))

    def _note_call(self, name, frames):
        if name in self.module.functions:
            self._calling = True
            self.call_frames = max(self.call_frames, frames)
        elif name == "alloca":
            self.allocates = True

    # -- expressions (the compiled emitter) ------------------------------

    def expr(self, e):
        method = self._DISPATCH.get(type(e))
        if method is None:
            # Sound fallback: the tree walker evaluates the node against
            # the same shared machine state.
            return self._tree("_eval", e)
        return method(self, e)

    def _slot(self, e):
        """The direct slot of the scalar the identifier ``e`` names —
        ``("L", offset, size, signed)`` or ``("G", name, size, signed)``
        — or None when ``e`` has none (see the class docstring)."""
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
            self._globals_used = True
            name = self._global_names.get(index)
            if name is None:
                name = self._global_names[index] = "_g{}".format(
                    len(self._global_names))
                self.consts[name] = index
            return "G", name, size, signed
        off = symbol.frame_offset
        if off is None or off + size > self.frame_size:
            return None
        return "L", off, size, signed

    def _load_slot(self, slot):
        kind, where, size, signed = slot
        v, s = self.temp()
        unpack = accessor("u", size, signed)
        if kind == "L":
            addr = "fb + {}".format(where)
            self.emit("{} = mem.read_int({}, {}, {})".format(
                v, addr, size, signed) if self.tracked else
                "{}, = {}(fd, {})".format(v, unpack, where))
        else:
            g = "g" + v[1:]
            addr = "{}.start".format(g)
            self.emit("{} = G[{}]".format(g, where))
            self.emit("{}, = {}({}.data, 0)".format(v, unpack, g))
        checked = "_ls(m, {}, {})".format(addr, size)
        if size == 4 and (kind == "G" or where % 4 == 0):
            # An aligned int slot: one probe while S is aligned.
            checked = "Se.get({}, _Z)[1] if S.aligned else {}".format(
                addr, checked)
        self.emit("{} = {}".format(s, checked))
        return v, s

    def _store_slot(self, slot, v, s):
        kind, where, size, signed = slot
        mask = (1 << (8 * size)) - 1
        value = _literal(v)
        masked = "{} & {:#x}".format(v, mask) if value is None \
            else str(value & mask)
        pack = accessor("p", size, False)
        if kind == "L":
            addr = "fb + {}".format(where)
            self.emit("mem.write_int({}, {}, {}, {})".format(
                addr, v, size, signed) if self.tracked else
                "{}(fd, {}, {})".format(pack, where, masked))
        else:
            g = "g" + self.temp()[0][1:]
            self.emit("{} = G[{}]".format(g, where))
            self.emit("{}({}.data, 0, {})".format(pack, g, masked))
            addr = "{}.start".format(g)
        # A concrete store matters to S only by invalidating an
        # overlapping entry: for an aligned int slot while S is aligned,
        # the one at the slot's own address.
        invalidate = "S.invalidate({}, {})".format(addr, size)
        if size == 4 and (kind == "G" or where % 4 == 0):
            invalidate = "Se.pop({}, None) if S.aligned else {}".format(
                addr, invalidate)
        if s == "None":
            self.emit(invalidate)
            return
        self.emit("if {} is not None: S.write({}, {}, {})".format(
            s, addr, size, s))
        self.emit("else: " + invalidate)

    def _load(self, addr, ctype):
        """Atoms of the value of type ``ctype`` at address atom ``addr``
        (Machine._load)."""
        if ctype.is_array():
            return addr, "None"  # decay
        v, s = self.temp()
        if ctype.is_struct():
            self.emit("{} = _lds(m, {}, {})".format(v, addr, ctype.size))
            return v, "None"
        name = accessor("ld", ctype.size,
                         ctype.is_integer() and ctype.signed)
        self.emit("{}, {} = {}(m, {})".format(v, s, name, addr))
        return v, s

    def _store(self, addr, ctype, v, s):
        name = accessor("st", ctype.size,
                         ctype.is_integer() and ctype.signed)
        self.emit("{}(m, {}, {}, {})".format(name, addr, v, s))

    def _convert(self, v, s, from_type, to_type):
        """Atoms of Machine._convert: the concrete conversion, and
        ``evaluator.cast_int`` on the tainted path."""
        if to_type.is_integer():
            concrete = lambda text: _wrap_text(text, to_type)  # noqa: E731
            fold = lambda value: _wrap_value(value, to_type)  # noqa: E731
        elif to_type.is_pointer():
            concrete = "({}) & 0xffffffff".format
            fold = lambda value: value & _M32  # noqa: E731
        else:
            return v, s
        value = _literal(v)
        nv, ns = self.temp()
        if value is not None:
            nv = _lit(fold(value))
        else:
            self.emit("{} = {}".format(nv, concrete(v)))
        if s == "None":
            return nv, "None"
        self.emit("{} = None if {} is None else m.evaluator.cast_int("
                  "{}, {}, {})".format(ns, s, v, nv, s))
        return nv, ns

    # -- lvalues ---------------------------------------------------------

    def lvalue(self, e):
        """An atom of the address of ``e`` (Machine._eval_lvalue)."""
        if isinstance(e, ast.Ident):
            symbol = e.symbol
            if symbol.kind == GLOBAL:
                v, _ = self.temp()
                self.emit("{} = m._global_addrs[{}]".format(
                    v, self.const(symbol.name)))
                return v
            off = symbol.frame_offset
            if off is None:
                return self._lvalue_tree(e)
            return "(fb + {})".format(off)
        if isinstance(e, ast.Unary) and e.op == "*":
            v, s = self.expr(e.operand)
            if s != "None":
                self.emit("if {} is not None: m.flags.clear_locs()".format(s))
            return v
        if isinstance(e, ast.Index):
            return self._index_lvalue(e)
        if isinstance(e, ast.Member):
            return self._member_lvalue(e)
        return self._lvalue_tree(e)

    def _lvalue_tree(self, e):
        self._walked(e)
        v, _ = self.temp()
        self.emit("{} = m._eval_lvalue({})".format(v, self.const(e)))
        return v

    def _index_lvalue(self, e):
        bv, bs = self.expr(e.base)
        iv, is_ = self.expr(e.index)
        base_type = e.base.ctype.decay()
        if base_type.is_pointer():
            esize = base_type.pointee.size
        else:
            # ``i[p]``: semantic analysis allows it; the pointer is the
            # index.
            esize = e.index.ctype.decay().pointee.size
            bv, iv = iv, bv
        tainted = [s for s in (bs, is_) if s != "None"]
        if tainted:
            self.emit("if {}: m.flags.clear_locs()".format(
                " or ".join("{} is not None".format(s) for s in tainted)))
        v, _ = self.temp()
        self.emit("{} = {} + {} * {}".format(v, bv, iv, esize))
        return v

    def _member_lvalue(self, e):
        offset = e.field.offset
        if e.arrow:
            bv, bs = self.expr(e.base)
            if bs != "None":
                self.emit("if {} is not None: m.flags.clear_locs()".format(
                    bs))
            base = bv
        else:
            base = self.lvalue(e.base)
        v, _ = self.temp()
        self.emit("{} = {} + {}".format(v, base, offset))
        return v

    # -- node emitters ---------------------------------------------------

    def intlit(self, e):
        return _lit(e.value), "None"

    def stringlit(self, e):
        v, _ = self.temp()
        self.emit("{} = m._string_addrs[{}]".format(v, e.intern_index))
        return v, "None"

    def ident(self, e):
        symbol = e.symbol
        if symbol.kind == ENUM_CONST:
            return _lit(symbol.value), "None"
        slot = self._slot(e)
        if slot is not None:
            # A scalar local or global: the hottest expression form.
            return self._load_slot(slot)
        if symbol.kind == GLOBAL:
            return self._load(self.lvalue(e), e.ctype)
        if symbol.frame_offset is None:
            return self._tree("_eval", e)
        return self._load("(fb + {})".format(symbol.frame_offset), e.ctype)

    def unary(self, e):
        op = e.op
        if op == "&":
            return self.lvalue(e.operand), "None"
        if op == "*":
            return self._load(self.lvalue(e), e.ctype)
        if op in ("++", "--"):
            return self._incdec(e.operand, op, prefix=True)
        if op in ("-", "~"):
            if e.ctype is None or not e.ctype.is_integer():
                return self._tree("_eval", e)
            ov, os_ = self.expr(e.operand)
            v, s = self.temp()
            self.emit("{} = {}".format(v, _wrap_text(
                ("-" if op == "-" else "~") + ov, e.ctype)))
            if os_ == "None":
                return v, "None"
            method = "neg({}, {})".format(ov, os_) if op == "-" \
                else "nonlinear({})".format(os_)
            self.emit("{} = None if {} is None else m.evaluator.{}".format(
                s, os_, method))
            return v, s
        if op == "!":
            ov, os_ = self.expr(e.operand)
            unsigned = compares_unsigned(e.operand.ctype)
            v, s = self.temp()
            self.emit("{} = 0 if {} != 0 else 1".format(v, ov))
            if os_ == "None":
                return v, "None"
            self.emit("{} = None if {} is None else _lnot(m, {}, {}, {}, {})"
                      .format(s, os_, ov, os_, unsigned, v))
            return v, s
        return self._tree("_eval", e)

    def postfix(self, e):
        return self._incdec(e.operand, e.op, prefix=False)

    def _incdec(self, target, op, prefix):
        ctype = target.ctype.decay()
        if ctype.is_pointer():
            step = ctype.pointee.size
            delta = step if op == "++" else -step

            def bump(v, s):
                nv, ns = self.temp()
                self.emit("{} = {} + {}".format(nv, v, _lit(delta)))
                if s == "None":
                    return nv, "None"
                self.emit("{} = None if {} is None else "
                          "m.evaluator.nonlinear({})".format(ns, s, s))
                return nv, ns
        else:
            delta = 1 if op == "++" else -1

            def bump(v, s):
                nv, ns = self.temp()
                self.emit("{} = {}".format(nv, _wrap_text(
                    "{} + {}".format(v, _lit(delta)), ctype)))
                if s == "None":
                    return nv, "None"
                self.emit("{} = None if {} is None else m.evaluator.add("
                          "{}, {}, {}, None)".format(ns, s, v, s, _lit(delta)))
                return nv, ns

        return self._read_modify_write(target, ctype, bump, prefix)

    def _read_modify_write(self, target, ctype, modify, prefix=True):
        """Load ``target``, store back ``modify(value, sym)`` and return
        the new atoms (``prefix``) or the old ones.  The target's address
        is computed once."""
        slot = self._slot(target)
        if slot is not None:
            old = self._load_slot(slot)
            new = modify(*old)
            self._store_slot(slot, *new)
            return new if prefix else old
        addr = self.lvalue(target)
        old = self._load(addr, ctype)
        new = modify(*old)
        self._store(addr, ctype, *new)
        return new if prefix else old

    def binary(self, e):
        lv, ls = self.expr(e.left)
        rv, rs = self.expr(e.right)
        return self._apply(e, e.op, e.left.ctype.decay(),
                           e.right.ctype.decay(), lv, ls, rv, rs)

    def _apply(self, e, op, lt, rt, lv, ls, rv, rs):
        """Atoms of Machine._apply_binary, with the untainted path
        inlined."""
        v, s = self.temp()
        test = _concrete_test(ls, rs)
        generic = "{}, {} = m._apply_binary({}, {!r}, {}, {}, {}, {}, {}, " \
            "{})".format(v, s, self.const(e), op, self.const(lt), lv, ls,
                         self.const(rt), rv, rs)
        if op in _COMPARISONS:
            unsigned = compares_unsigned(lt, rt)
            if unsigned:
                a = "({} & 0xffffffff)".format(lv)
                b = "({} & 0xffffffff)".format(rv)
            else:
                a, b = lv, rv
            self._split(test, [
                "{} = 1 if {} {} {} else 0".format(v, a, op, b),
                "{} = None".format(s),
            ], [
                "{}, {} = m._compare_values({!r}, {}, {}, {}, {}, {})".format(
                    v, s, op, unsigned, lv, ls, rv, rs),
            ])
            return v, (s if test else "None")
        if lt.is_pointer() or rt.is_pointer():
            if op == "-" and lt.is_pointer() and rt.is_pointer():
                size = max(lt.pointee.size, 1)
                concrete = "({} - {}) // {}".format(lv, rv, size)
            elif op in ("+", "-"):
                if lt.is_pointer():
                    pointer, offset = lv, rv
                    size = max(lt.pointee.size, 1)
                else:
                    pointer, offset = rv, lv
                    size = max(rt.pointee.size, 1)
                concrete = "{} {} {} * {}".format(pointer, op, offset, size)
            else:
                self.emit(generic)
                return v, s
            self._split(test, [
                "{} = {}".format(v, concrete), "{} = None".format(s),
            ], [generic])
            return v, (s if test else "None")
        result_type = e.ctype.decay() if e.ctype is not None else None
        if result_type is None or not result_type.is_integer():
            self.emit(generic)
            return v, s
        ufold = not result_type.signed
        if ufold:
            a = "({} & 0xffffffff)".format(lv)
            b = "({} & 0xffffffff)".format(rv)
        else:
            a, b = lv, rv
        if op in ("+", "-", "*", "&", "|", "^", "<<", ">>"):
            if op in ("<<", ">>"):
                b = "({} & 31)".format(b)
            concrete = [
                "{} = {}".format(v, _wrap_text(
                    "{} {} {}".format(a, op, b), result_type)),
                "{} = None".format(s),
            ]
        elif op in ("/", "%"):
            message = "division by zero" if op == "/" else "modulo by zero"
            concrete = [
                "if {} == 0: raise _DBZ({!r}, {})".format(
                    b, message, self.const(e.location)),
                "{} = {}".format(v, _wrap_text("{}({}, {})".format(
                    "_cdiv" if op == "/" else "_cmod", a, b), result_type)),
                "{} = None".format(s),
            ]
        else:
            self.emit(generic)
            return v, s
        self._split(test, concrete, [generic])
        return v, (s if test else "None")

    def assign(self, e):
        target_type = e.target.ctype.decay()
        if e.op == "=":
            if target_type.is_struct():
                addr = self.lvalue(e.target)
                v, s = self.expr(e.value)
                self.emit("m._store_scalar_or_struct({}, {}, {}, {})".format(
                    addr, self.const(target_type), v, s))
                return v, s
            slot = self._slot(e.target)
            if slot is not None:
                # A direct slot on the left (the hot loop-body shape).
                v, s = self._convert(*self.expr(e.value),
                                     e.value.ctype.decay(), target_type)
                self._store_slot(slot, v, s)
                return v, s
            addr = self.lvalue(e.target)
            v, s = self._convert(*self.expr(e.value), e.value.ctype.decay(),
                                 target_type)
            self._store(addr, target_type, v, s)
            return v, s
        # Compound assignment (+=, -=, ...): load-modify-store.
        binop = e.op[:-1]
        rhs_type = e.value.ctype.decay()

        def compound(old_value, old_sym):
            rv, rs = self.expr(e.value)
            v, s = self._apply(e, binop, target_type, rhs_type, old_value,
                               old_sym, rv, rs)
            if target_type.is_integer():
                wrapped, _ = self.temp()
                self.emit("{} = {}".format(wrapped,
                                           _wrap_text(v, target_type)))
                v = wrapped
            return v, s

        return self._read_modify_write(e.target, target_type, compound)

    def cast(self, e):
        v, s = self.expr(e.operand)
        if e.ctype.is_void():
            return "0", "None"
        return self._convert(v, s, e.operand.ctype.decay(), e.ctype)

    def index(self, e):
        return self._load(self._index_lvalue(e), e.ctype)

    def member(self, e):
        if e.arrow or e.base.is_lvalue:
            return self._load(self._member_lvalue(e), e.ctype)
        # Field of a struct rvalue: rare; the tree walker is shared.
        return self._tree("_eval_member", e)

    def call(self, e):
        name = e.name
        kind = INPUT_INTRINSICS.get(name)
        if kind is not None:
            v, s = self.temp()
            self.emit("{}, {} = m._acquire_input({!r})".format(v, s, kind))
            return v, s
        function = self.module.functions.get(name)
        handler = BUILTINS.get(name)
        if function is None and handler is None:
            # Unknown callee: the tree walker raises the right diagnostic.
            self.callees.append((name, None))
            return self._tree("_eval_call", e)
        pairs = [self.expr(arg) for arg in e.args]
        self.callees.append((name, function))
        self._note_call(name, 2)
        v, s = self.temp()
        if function is not None:
            # Every argument is evaluated before any is converted, as in
            # the tree walker: a tainted conversion can clear a flag, and
            # the trace orders those events.
            args = []
            for (av, as_), arg, ptype in zip(
                    pairs, e.args, function.ftype.param_types):
                args.extend(self._convert(av, as_, arg.ctype.decay(), ptype))
            if function in self.calls:
                index = self.calls.index(function)
            else:
                index = len(self.calls)
                self.calls.append(function)
            self.emit("{}, {} = _c{}(m{})".format(
                v, s, index, "".join(", " + a for a in args)))
            return v, s
        tainted = [ps for _, ps in pairs if ps != "None"]
        if tainted:
            test = " or ".join("{} is not None".format(ps) for ps in tainted)
            if name in ("memcpy", "strcpy"):
                test = "not m.options.transparent_memory and ({})".format(
                    test)
            # A black-box library call consumed symbolic values (same
            # loss as the tree walker records).
            self.emit("if {}: m.flags.clear_linear()".format(test))
        self.emit("{} = {}(m, [{}], {})".format(
            v, self.const(handler),
            ", ".join("({}, {})".format(pv, ps) for pv, ps in pairs),
            self.const(e.location)))
        return v, "None"

    # -- instructions ----------------------------------------------------

    def instr(self, instruction, pc):
        """Emit ``instruction`` (the block's jumps are emitted after
        it)."""
        if isinstance(instruction, ir.Eval):
            _, s = self.expr(instruction.expr)
            if s != "None":
                self.emit("if {} is not None: m.symbolic_steps += 1".format(s))
            return
        if isinstance(instruction, ir.Branch):
            self.condition(instruction.cond)
            name = self.function.name
            self.emit("_br(m, k, q, {})".format(self.const((
                pc, (name, pc, True), (name, pc, False),
                instruction.location, name))))
            return
        if isinstance(instruction, ir.Jump):
            return
        if isinstance(instruction, ir.Ret):
            if instruction.value is None:
                self.emit("return _Z")
                return
            v, s = self.expr(instruction.value)
            if s != "None":
                self.emit("if {} is not None: m.symbolic_steps += 1".format(s))
            self.emit("return {}, {}".format(v, s))
            return
        if isinstance(instruction, ir.AbortInstr):
            if instruction.reason == "assertion violation":
                self.emit("raise _AV('assertion violated', _L[{}])".format(pc))
            else:
                self.emit("raise _PA('abort() reached', _L[{}])".format(pc))
            return
        raise InterpreterError(
            "cannot compile instruction {!r}".format(instruction)
        )

    def condition(self, cond):
        """Emit the branch outcome ``k`` and conjunct ``q`` of ``cond``;
        an untainted comparison is tested directly."""
        if type(cond) is not ast.Binary or cond.op not in _COMPARISONS:
            self._truth(*self.expr(cond), cond)
            return
        lv, ls = self.expr(cond.left)
        rv, rs = self.expr(cond.right)
        unsigned = compares_unsigned(cond.left.ctype.decay(),
                                     cond.right.ctype.decay())
        if unsigned:
            a = "({} & 0xffffffff)".format(lv)
            b = "({} & 0xffffffff)".format(rv)
        else:
            a, b = lv, rv
        self._split(_concrete_test(ls, rs), [
            "k = {} {} {}; q = None".format(a, cond.op, b),
        ], [
            "k, q = _cmpq(m, {!r}, {}, {}, {}, {}, {}, {})".format(
                cond.op, unsigned, lv, ls, rv, rs,
                compares_unsigned(cond.ctype)),
        ])

    def _truth(self, v, s, cond):
        self.emit("k = {} != 0".format(v))
        self.emit("q = None" if s == "None" else
                  "q = None if {} is None else _bq(m, {}, {}, k, {})".format(
                      s, v, s, compares_unsigned(cond.ctype)))

    # -- functions -------------------------------------------------------

    def lower(self):
        """(text, line table) of the function: the table maps a line
        number to (pc or None per line, the steps charged after each pc
        in its segment)."""
        function = self.function
        instrs = function.instrs
        leaders = {0}
        for pc, instruction in enumerate(instrs):
            if isinstance(instruction, (ir.Branch, ir.Jump)):
                leaders.add(instruction.target)
            if isinstance(instruction, (ir.Branch, ir.Jump, ir.Ret,
                                        ir.AbortInstr)):
                leaders.add(pc + 1)
        starts = sorted(pc for pc in leaders if pc < len(instrs))
        ends = dict(zip(starts, starts[1:] + [len(instrs)]))
        reachable = self._reachable(starts, ends)
        backward = any(
            isinstance(instrs[ends[start] - 1], (ir.Branch, ir.Jump))
            and instrs[ends[start] - 1].target <= start
            for start in reachable
        )
        self._indent = 2
        if backward:
            self.emit("b = 0")
            self.emit("while True:")
            self._indent += 1
        for start in starts:
            if start not in reachable:
                continue
            # A jump to the entry is a backward one, so without a loop
            # only the entry block is reached unconditionally.
            guarded = start != 0 or backward
            if guarded:
                self.emit("if b == {}:".format(start))
                self._indent += 1
            self._block(start, ends[start])
            if guarded:
                self._indent -= 1
        body = self._lines
        self._lines = []
        self._pc = None
        self._indent = 0
        self._prologue()
        lines = self._lines + body
        # The pc of each line (1-based, as tracebacks number them).
        pcs = [None]
        pcs.extend(pc for _, pc in lines)
        lines = [text for text, _ in lines]
        tail = [
            "    except BaseException as x:",
            "        _fault(m, x, c, _T, _L)",
            "        raise",
            "    finally:",
            "        fr.pop()",
            "        mem.pop_frame(r, {})".format(
                "m._allocas.pop(r, ())" if self.allocates else "()"),
            "        S.invalidate(fb, {})".format(max(function.frame_size, 1)),
        ]
        lines.extend(tail)
        params = ["v{0}, s{0}".format(i)
                  for i in range(len(function.param_stores))]
        lines.append("def _p(m, a):")
        if params:
            lines.append("    {}, = a".format(", ".join(
                "({})".format(p) for p in params)))
        lines.append("    return _f(m{})".format(
            "".join(", " + p for p in params)))
        text = "\n".join(lines) + "\n"
        return text, (tuple(pcs), self._unrun)

    def _reachable(self, starts, ends):
        instrs = self.function.instrs
        seen = set()
        work = [0] if instrs else []
        while work:
            start = work.pop()
            if start in seen:
                continue
            seen.add(start)
            last = instrs[ends[start] - 1]
            if isinstance(last, (ir.Branch, ir.Jump)):
                work.append(last.target)
            if not isinstance(last, (ir.Jump, ir.Ret, ir.AbortInstr)) \
                    and ends[start] < len(instrs):
                work.append(ends[start])
        return seen

    def _block(self, start, end):
        """Emit the block of pcs ``start`` to ``end``: its segments, then
        the jump to its successor."""
        instrs = self.function.instrs
        pc = start
        while pc < end:
            # The charge is written once the segment's length is known:
            # it ends at the block end or after an instruction that calls
            # a module function, whose callee charges steps of its own.
            self._pc = pc
            charge = len(self._lines)
            indent = _INDENTS[self._indent]
            self.emit("")
            self.emit("")
            pcs = []
            self._calling = False
            while not self._calling and pc < end:
                self._pc = pc
                self.emit("if c: m._tick(_L[{}])".format(pc))
                self.instr(instrs[pc], pc)
                pcs.append(pc)
                pc += 1
            count = len(pcs)
            self._lines[charge] = (
                indent + "c = m.steps + {} > m._bound".format(count), pcs[0])
            self._lines[charge + 1] = (
                indent + "if not c: m.steps += {}".format(count), pcs[0])
            for index, at in enumerate(pcs):
                self._unrun[at] = count - 1 - index
        last = instrs[end - 1]
        self._pc = end - 1
        if isinstance(last, ir.Branch):
            self.emit("b = {} if k else {}".format(last.target, end))
            if last.target <= start:
                self.emit("if k: continue")
        elif isinstance(last, ir.Jump):
            self._goto(last.target, start)
        elif not isinstance(last, (ir.Ret, ir.AbortInstr)):
            self._goto(end, start)

    def _goto(self, target, start):
        """Continue at block ``target``: a later block is reached by
        falling through the block tests, an earlier one (a loop) from
        the top of the block loop."""
        self.emit("b = {}".format(target))
        if target <= start:
            self.emit("continue")

    def _prologue(self):
        function = self.function
        params = ["v{0}, s{0}".format(i)
                  for i in range(len(function.param_stores))]
        self.emit("def _f(m{}):".format("".join(", " + p for p in params)))
        self._indent = 1
        self.emit("mem = m.memory")
        self.emit("fr = m._frames")
        self.emit("r = mem.push_frame({}, _N, len(fr) + 1)".format(
            max(function.frame_size, 1)))
        self.emit("fb = r.start")
        if not self.tracked:
            self.emit("fd = r.data")
        self.emit("S = m.symbolic")
        self.emit("Se = S._entries")
        if self._globals_used:
            self.emit("G = m._globals")
        # Direct slots: a scalar parameter's bytes go straight into the
        # fresh frame at its layout offset.  A frame that tracks written
        # bytes takes the checked store so its bitmap is kept.  A None
        # symbolic half needs no invalidation: the bump allocator never
        # hands out a stack address twice, so a fresh frame holds no
        # entry of S.
        for index, (slot, width) in enumerate(function.param_stores):
            if width and not self.tracked:
                self.emit("{}(fd, {}, v{} & {:#x})".format(
                    accessor("p", width, False), slot.offset, index,
                    (1 << (8 * width)) - 1))
                self.emit("if s{} is not None: S.write(fb + {}, {}, s{})"
                          .format(index, slot.offset, width, index))
            else:
                self.emit("m._store_scalar_or_struct(fb + {}, {}, v{}, s{})"
                          .format(slot.offset, self.const(slot.ctype), index,
                                  index))
        self.emit("fr.append(r)")
        self.emit("c = 1")
        self.emit("try:")

    _DISPATCH = {}


Lowering._DISPATCH = {
    ast.IntLit: Lowering.intlit,
    ast.StringLit: Lowering.stringlit,
    ast.Ident: Lowering.ident,
    ast.Unary: Lowering.unary,
    ast.Postfix: Lowering.postfix,
    ast.Binary: Lowering.binary,
    ast.Assign: Lowering.assign,
    ast.Cast: Lowering.cast,
    ast.Index: Lowering.index,
    ast.Member: Lowering.member,
    ast.Call: Lowering.call,
}


class TreeWalker(Lowering):
    """The interpreter's lowering: every expression is evaluated by the
    machine's tree walker (``Machine._eval``)."""

    def expr(self, e):
        return self._tree("_eval", e)

    def condition(self, cond):
        self._truth(*self.expr(cond), cond)
