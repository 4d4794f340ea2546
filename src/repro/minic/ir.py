"""The RAM-machine IR of Section 2.2 of the paper.

A program is lowered to, per function, a flat list of label-addressed
instructions: expression evaluations (which subsume assignment statements),
conditional branches ``if (e) then goto e'`` (fall through otherwise),
unconditional jumps, returns, and ``abort``.  Every *conditional statement*
the directed search reasons about is exactly one :class:`Branch` instruction;
short-circuit operators, the ternary operator and ``assert`` are compiled
into branches so that each primitive predicate is independently negatable —
this is what gives DART its per-branch 0.5 "probability" discussed in the
paper's introduction.
"""


class Instr:
    """Base class for IR instructions."""

    __slots__ = ("location",)

    def __init__(self, location):
        self.location = location


class Eval(Instr):
    """Evaluate an expression for its side effects (assignments, calls)."""

    __slots__ = ("expr",)

    def __init__(self, expr, location):
        super().__init__(location)
        self.expr = expr

    def __repr__(self):
        return "Eval({!r})".format(self.expr)


class Branch(Instr):
    """``if (cond) goto target`` — the RAM machine's conditional statement.

    ``target`` is an instruction index after label resolution.  Taking the
    jump corresponds to the paper's *then* branch (branch value 1); falling
    through is the *else* branch (branch value 0).
    """

    __slots__ = ("cond", "target")

    def __init__(self, cond, target, location):
        super().__init__(location)
        self.cond = cond
        self.target = target

    def __repr__(self):
        return "Branch(-> {})".format(self.target)


class Jump(Instr):
    __slots__ = ("target",)

    def __init__(self, target, location):
        super().__init__(location)
        self.target = target

    def __repr__(self):
        return "Jump(-> {})".format(self.target)


class Ret(Instr):
    """Return from the current function (value may be None for void)."""

    __slots__ = ("value",)

    def __init__(self, value, location):
        super().__init__(location)
        self.value = value

    def __repr__(self):
        return "Ret({!r})".format(self.value)


class AbortInstr(Instr):
    """The RAM machine's ``abort`` statement — a program error.

    ``reason`` distinguishes a literal ``abort()`` call from a failed
    ``assert`` (both are errors per Section 4.2's footnote 8).
    """

    __slots__ = ("reason",)

    def __init__(self, reason, location):
        super().__init__(location)
        self.reason = reason

    def __repr__(self):
        return "Abort({!r})".format(self.reason)


class Label:
    """A patchable jump target used during lowering."""

    __slots__ = ("index",)

    def __init__(self):
        self.index = None

    def __repr__(self):
        return "Label({})".format(self.index)


class FrameSlot:
    """Frame-relative storage for a parameter, local or compiler temp."""

    __slots__ = ("name", "ctype", "offset")

    def __init__(self, name, ctype, offset):
        self.name = name
        self.ctype = ctype
        self.offset = offset

    def __repr__(self):
        return "FrameSlot({!r}, {}, +{})".format(
            self.name, self.ctype, self.offset
        )


class IRFunction:
    """A lowered function: instructions plus its frame layout."""

    def __init__(self, name, ftype, param_slots, frame_size, instrs,
                 location):
        self.name = name
        self.ftype = ftype
        self.param_slots = param_slots  # list of FrameSlot, call order
        self.frame_size = frame_size
        #: ``(slot, width)`` per parameter: ``width`` is the byte width of
        #: a scalar the machine stores straight into the frame, 0 for a
        #: struct (or a slot past ``frame_size``), which takes the checked
        #: store.
        self.param_stores = tuple(
            (slot, slot.ctype.size if slot.ctype.is_scalar()
             and slot.offset + slot.ctype.size <= frame_size else 0)
            for slot in param_slots
        )
        self.instrs = instrs
        self.location = location
        #: An IRFunction built earlier from the same text at the same
        #: place, which this one is identical to, or None.
        self.origin = None

    def __repr__(self):
        return "IRFunction({!r}, {} instrs, frame={})".format(
            self.name, len(self.instrs), self.frame_size
        )


class GlobalVar:
    """A global variable awaiting placement by the memory loader.

    ``init`` is either None (zero-initialized), an int (constant value for a
    scalar), a bytes object (flattened constant contents), or a
    :class:`StringRef` for ``char *s = "...";`` style initializers.
    """

    def __init__(self, symbol, init):
        self.symbol = symbol
        self.init = init

    @property
    def name(self):
        return self.symbol.name

    @property
    def ctype(self):
        return self.symbol.ctype

    def __repr__(self):
        return "GlobalVar({!r})".format(self.name)


class StringRef:
    """A reference to an interned string literal, by intern index."""

    __slots__ = ("index",)

    def __init__(self, index):
        self.index = index


class Module:
    """A fully lowered translation unit, ready to execute.

    Attributes:
        functions: name -> IRFunction for every defined function.
        globals: list of GlobalVar in declaration order.
        strings: list of bytes, the interned string literals (NUL added
            by the loader).
        info: the front end's ProgramInfo (types, interface, symbols).
    """

    def __init__(self, functions, global_vars, strings, info):
        self.functions = functions
        self.globals = global_vars
        self.strings = strings
        self.info = info

    @property
    def interface(self):
        return self.info.interface

    def function(self, name):
        try:
            return self.functions[name]
        except KeyError:
            raise KeyError("no function named {!r} in module".format(name))

    def __repr__(self):
        return "Module({} functions, {} globals)".format(
            len(self.functions), len(self.globals)
        )
