"""Lowering: checked AST -> RAM-machine IR.

Control flow is flattened into conditional branches and jumps.  The
short-circuit operators ``&&``/``||``, the ternary operator and ``assert``
are compiled into explicit branches, so each primitive predicate becomes one
:class:`repro.minic.ir.Branch` instruction that the directed search can
target individually (see the paper's ``foobar`` discussion in Section 2.5).

Constant subexpressions are folded here, and only here, by
:func:`repro.minic.consts.const_value`, so both execution engines run the
same folded IR.  A bare enum constant stays a name, for ``--disasm``.

Lowering leaves the analysed AST as it found it: an expression is
rewritten as a copy, so the AST stays what the parser and the analyzer
made of the source (the independence analysis walks it after the source
is lowered).  A ``return`` converts its value to the function's return
type, as an assignment converts to its target's.

Side-effect ordering note: when a short-circuit or ternary expression is
used in value position its evaluation is hoisted in front of the enclosing
full expression.  C leaves the relative order of such side effects
unspecified, so this is a legal evaluation order.
"""

import copy

from repro.minic import ast_nodes as ast
from repro.minic import typesys as ts
from repro.minic.consts import const_value
from repro.minic.errors import LoweringError
from repro.minic.ir import (
    AbortInstr,
    Branch,
    Eval,
    FrameSlot,
    GlobalVar,
    IRFunction,
    Jump,
    Label,
    Module,
    Ret,
    StringRef,
)
from repro.minic.symbols import LOCAL, Symbol


def _round_up(value, alignment):
    return (value + alignment - 1) // alignment * alignment




class FunctionLowerer:
    """Lowers one function definition to an :class:`IRFunction`."""

    def __init__(self, func_def, string_indexes):
        self._def = func_def
        self._string_indexes = string_indexes
        self._instrs = []
        self._frame_offset = 0
        self._param_slots = []
        self._break_targets = []     # loops and switches
        self._continue_targets = []  # loops only
        self._temp_counter = 0

    def lower(self):
        for param in self._def.params:
            slot = self._allocate(param.symbol)
            self._param_slots.append(slot)
        self._lower_stmt(self._def.body)
        self._emit(Ret(None, self._def.location))
        self._resolve_labels()
        return IRFunction(
            self._def.name,
            self._def.ftype,
            self._param_slots,
            _round_up(self._frame_offset, 4),
            self._instrs,
            self._def.location,
        )

    # -- frame management ---------------------------------------------------

    def _allocate(self, symbol):
        ctype = symbol.ctype
        size = max(ctype.size, 1)
        self._frame_offset = _round_up(self._frame_offset, ctype.alignment)
        symbol.frame_offset = self._frame_offset
        slot = FrameSlot(symbol.name, ctype, self._frame_offset)
        self._frame_offset += size
        return slot

    def _new_temp(self, ctype, location):
        self._temp_counter += 1
        symbol = Symbol("$t{}".format(self._temp_counter), LOCAL, ctype)
        self._allocate(symbol)
        return symbol, location

    def _temp_ident(self, symbol, ctype, location):
        ident = ast.Ident(symbol.name, location)
        ident.symbol = symbol
        ident.ctype = ctype
        ident.is_lvalue = True
        return ident

    # -- instruction emission ----------------------------------------------

    def _emit(self, instr):
        self._instrs.append(instr)

    def _new_label(self):
        return Label()

    def _mark(self, label):
        if label.index is not None:
            raise LoweringError("label marked twice")
        label.index = len(self._instrs)

    def _resolve_labels(self):
        for instr in self._instrs:
            if isinstance(instr, (Branch, Jump)):
                label = instr.target
                if isinstance(label, Label):
                    if label.index is None:
                        raise LoweringError("unresolved label")
                    instr.target = label.index

    # -- statements ----------------------------------------------------------

    def _lower_stmt(self, stmt):
        handler = getattr(self, "_lower_" + type(stmt).__name__.lower())
        handler(stmt)

    def _lower_block(self, stmt):
        for inner in stmt.statements:
            self._lower_stmt(inner)

    def _lower_exprstmt(self, stmt):
        if stmt.expr is not None:
            expr = self._flatten(stmt.expr)
            self._emit(Eval(expr, stmt.location))

    def _lower_declstmt(self, stmt):
        for decl in stmt.decls:
            self._allocate(decl.symbol)
            if decl.init is not None:
                target = self._temp_ident(
                    decl.symbol, decl.ctype, decl.location
                )
                value = self._flatten(decl.init)
                assign = ast.Assign("=", target, value, decl.location)
                assign.ctype = decl.ctype
                self._emit(Eval(assign, decl.location))

    def _lower_if(self, stmt):
        then_label = self._new_label()
        else_label = self._new_label()
        end_label = self._new_label() if stmt.otherwise else else_label
        self._lower_condition(stmt.cond, then_label, else_label)
        self._mark(then_label)
        self._lower_stmt(stmt.then)
        if stmt.otherwise is not None:
            self._emit(Jump(end_label, stmt.location))
            self._mark(else_label)
            self._lower_stmt(stmt.otherwise)
            self._mark(end_label)
        else:
            self._mark(else_label)

    def _lower_while(self, stmt):
        cond_label = self._new_label()
        body_label = self._new_label()
        end_label = self._new_label()
        self._mark(cond_label)
        self._lower_condition(stmt.cond, body_label, end_label)
        self._mark(body_label)
        self._in_loop(stmt.body, end_label, cond_label)
        self._emit(Jump(cond_label, stmt.location))
        self._mark(end_label)

    def _in_loop(self, body, break_label, continue_label):
        self._break_targets.append(break_label)
        self._continue_targets.append(continue_label)
        try:
            self._lower_stmt(body)
        finally:
            self._break_targets.pop()
            self._continue_targets.pop()

    def _lower_dowhile(self, stmt):
        body_label = self._new_label()
        cond_label = self._new_label()
        end_label = self._new_label()
        self._mark(body_label)
        self._in_loop(stmt.body, end_label, cond_label)
        self._mark(cond_label)
        self._lower_condition(stmt.cond, body_label, end_label)
        self._mark(end_label)

    def _lower_for(self, stmt):
        if stmt.init is not None:
            self._lower_stmt(stmt.init)
        cond_label = self._new_label()
        body_label = self._new_label()
        step_label = self._new_label()
        end_label = self._new_label()
        self._mark(cond_label)
        if stmt.cond is not None:
            self._lower_condition(stmt.cond, body_label, end_label)
        self._mark(body_label)
        self._in_loop(stmt.body, end_label, step_label)
        self._mark(step_label)
        if stmt.step is not None:
            self._emit(Eval(self._flatten(stmt.step), stmt.location))
        self._emit(Jump(cond_label, stmt.location))
        self._mark(end_label)

    def _lower_return(self, stmt):
        value = None
        if stmt.value is not None:
            value = self._flatten(
                _converted(stmt.value, self._def.ftype.return_type))
        self._emit(Ret(value, stmt.location))

    def _lower_break(self, stmt):
        if not self._break_targets:
            raise LoweringError("break outside of loop/switch",
                                stmt.location)
        self._emit(Jump(self._break_targets[-1], stmt.location))

    def _lower_continue(self, stmt):
        if not self._continue_targets:
            raise LoweringError("continue outside of loop", stmt.location)
        self._emit(Jump(self._continue_targets[-1], stmt.location))

    def _lower_switch(self, stmt):
        """C switch with fall-through.

        The subject is evaluated once into a temp; each ``case`` label
        becomes one equality Branch (so the directed search can steer to
        any arm), followed by a jump to the ``default`` arm or past the
        switch; the body is then lowered linearly, which preserves
        fall-through.
        """
        subject_type = ts.integer_promote(stmt.expr.ctype.decay())
        symbol, location = self._new_temp(subject_type, stmt.location)
        self._emit_temp_assign(
            symbol, subject_type, self._flatten(stmt.expr), location
        )
        end_label = self._new_label()
        entry_labels = {}
        default_index = None
        for index, (kind, payload) in enumerate(stmt.entries):
            if kind in ("case", "default"):
                entry_labels[index] = self._new_label()
            if kind == "default":
                default_index = index
        for index, (kind, payload) in enumerate(stmt.entries):
            if kind != "case":
                continue
            comparison = ast.Binary(
                "==", self._temp_ident(symbol, subject_type, location),
                _literal(payload.case_value, ts.INT, location), location,
            )
            comparison.ctype = ts.INT
            self._emit(Branch(comparison, entry_labels[index], location))
        fallback = entry_labels.get(default_index, end_label)
        self._emit(Jump(fallback, location))
        self._break_targets.append(end_label)
        try:
            for index, (kind, payload) in enumerate(stmt.entries):
                if kind in ("case", "default"):
                    self._mark(entry_labels[index])
                else:
                    self._lower_stmt(payload)
        finally:
            self._break_targets.pop()
        self._mark(end_label)

    def _lower_assertstmt(self, stmt):
        """``assert(e);`` becomes ``if (e) goto ok; abort; ok:`` so that the
        directed search can negate the predicate and aim at the violation."""
        ok_label = self._new_label()
        fail_label = self._new_label()
        self._lower_condition(stmt.expr, ok_label, fail_label)
        self._mark(fail_label)
        self._emit(AbortInstr("assertion violation", stmt.location))
        self._mark(ok_label)

    def _lower_abortstmt(self, stmt):
        self._emit(AbortInstr("abort", stmt.location))

    # -- conditions ------------------------------------------------------------

    def _lower_condition(self, expr, true_label, false_label):
        """Emit branches so control reaches ``true_label`` iff expr != 0."""
        if isinstance(expr, ast.Binary) and expr.op == "&&":
            mid = self._new_label()
            self._lower_condition(expr.left, mid, false_label)
            self._mark(mid)
            self._lower_condition(expr.right, true_label, false_label)
            return
        if isinstance(expr, ast.Binary) and expr.op == "||":
            mid = self._new_label()
            self._lower_condition(expr.left, true_label, mid)
            self._mark(mid)
            self._lower_condition(expr.right, true_label, false_label)
            return
        if isinstance(expr, ast.Unary) and expr.op == "!":
            self._lower_condition(expr.operand, false_label, true_label)
            return
        if isinstance(expr, ast.Conditional):
            then_label = self._new_label()
            else_label = self._new_label()
            self._lower_condition(expr.cond, then_label, else_label)
            self._mark(then_label)
            self._lower_condition(expr.then, true_label, false_label)
            self._mark(else_label)
            self._lower_condition(expr.otherwise, true_label, false_label)
            return
        if isinstance(expr, ast.Comma):
            self._emit(Eval(self._flatten(expr.left), expr.location))
            self._lower_condition(expr.right, true_label, false_label)
            return
        cond = self._flatten(expr)
        self._emit(Branch(cond, true_label, expr.location))
        self._emit(Jump(false_label, expr.location))

    # -- expression flattening -------------------------------------------------

    def _flatten(self, expr):
        """Rewrite ``expr`` so it contains no control flow, emitting the
        extracted branches in front; returns the rewritten expression."""
        if isinstance(expr, ast.Binary) and expr.op in ("&&", "||"):
            return self._flatten_boolean(expr)
        if isinstance(expr, ast.Conditional):
            return self._flatten_ternary(expr)
        if isinstance(expr, ast.Comma):
            self._emit(Eval(self._flatten(expr.left), expr.location))
            return self._flatten(expr.right)
        if isinstance(expr, (ast.SizeofExpr, ast.SizeofType)):
            return _literal(expr.size, ts.UINT, expr.location)
        if isinstance(expr, ast.StringLit):
            expr.intern_index = self._string_indexes[id(expr)]
            return expr
        if isinstance(expr, _WITH_OPERANDS):
            expr = copy.copy(expr)  # the AST keeps its own operands
        if isinstance(expr, (ast.Unary, ast.Postfix, ast.Cast)):
            expr.operand = self._flatten(expr.operand)
        elif isinstance(expr, ast.Binary):
            expr.left = self._flatten(expr.left)
            expr.right = self._flatten(expr.right)
        elif isinstance(expr, ast.Assign):
            expr.target = self._flatten(expr.target)
            expr.value = self._flatten(expr.value)
        elif isinstance(expr, ast.Call):
            expr.args = [self._flatten(arg) for arg in expr.args]
        elif isinstance(expr, ast.Index):
            expr.base = self._flatten(expr.base)
            expr.index = self._flatten(expr.index)
        elif isinstance(expr, ast.Member):
            expr.base = self._flatten(expr.base)
        if isinstance(expr, (ast.Unary, ast.Binary, ast.Cast)):
            value = const_value(expr)
            if value is not None:
                return _literal(value, expr.ctype, expr.location)
        return expr

    def _flatten_boolean(self, expr):
        """``a && b`` / ``a || b`` in value position -> branches + 0/1 temp."""
        symbol, location = self._new_temp(ts.INT, expr.location)
        true_label = self._new_label()
        false_label = self._new_label()
        end_label = self._new_label()
        self._lower_condition(expr, true_label, false_label)
        self._mark(true_label)
        self._emit_temp_store(symbol, ts.INT, 1, location)
        self._emit(Jump(end_label, location))
        self._mark(false_label)
        self._emit_temp_store(symbol, ts.INT, 0, location)
        self._mark(end_label)
        return self._temp_ident(symbol, ts.INT, location)

    def _flatten_ternary(self, expr):
        result_type = expr.ctype
        symbol, location = self._new_temp(result_type, expr.location)
        then_label = self._new_label()
        else_label = self._new_label()
        end_label = self._new_label()
        self._lower_condition(expr.cond, then_label, else_label)
        self._mark(then_label)
        self._emit_temp_assign(symbol, result_type,
                               self._flatten(expr.then), location)
        self._emit(Jump(end_label, location))
        self._mark(else_label)
        self._emit_temp_assign(symbol, result_type,
                               self._flatten(expr.otherwise), location)
        self._mark(end_label)
        return self._temp_ident(symbol, result_type, location)

    def _emit_temp_store(self, symbol, ctype, value, location):
        self._emit_temp_assign(symbol, ctype,
                               _literal(value, ts.INT, location), location)

    def _emit_temp_assign(self, symbol, ctype, value_expr, location):
        target = self._temp_ident(symbol, ctype, location)
        assign = ast.Assign("=", target, value_expr, location)
        assign.ctype = ctype
        self._emit(Eval(assign, location))


#: The expressions _flatten rewrites the operands of.
_WITH_OPERANDS = (ast.Unary, ast.Postfix, ast.Cast, ast.Binary, ast.Assign,
                  ast.Call, ast.Index, ast.Member)


def _converted(expr, ctype):
    """``expr`` converted to the integer type ``ctype`` where its own
    type differs (other returns need no conversion: the analyzer admits
    only a pointer, or a literal 0, to a pointer, and only the same
    struct type to a struct)."""
    if not ctype.is_integer() or expr.ctype.decay() == ctype:
        return expr
    cast = ast.Cast(None, expr, expr.location)
    cast.ctype = ctype
    return cast


def _literal(value, ctype, location):
    lit = ast.IntLit(value, location)
    lit.ctype = ctype
    return lit


def _global_init(expr, string_indexes):
    """A global initializer's value: a string literal or a constant."""
    if isinstance(expr, ast.StringLit):
        return StringRef(string_indexes[id(expr)])
    value = const_value(expr)
    if value is None:
        raise LoweringError(
            "global initializer is not a link-time constant", expr.location
        )
    return value


def lower_program(program, info, base=None):
    """Lower an analyzed Program to an executable :class:`Module`.

    With ``base``, the Module of a program that ``program`` was appended
    to (``info`` then extends ``base.info``, see
    :func:`repro.minic.semantic.analyze`), only ``program`` is lowered:
    the result holds ``base``'s functions, globals and strings, then
    ``program``'s, and ``base`` is left unchanged.
    """
    strings = [] if base is None else list(base.strings)
    string_indexes = {}
    for literal in info.string_literals:
        string_indexes[id(literal)] = len(strings)
        strings.append(literal.data)

    functions = {} if base is None else dict(base.functions)
    global_vars = [] if base is None else list(base.globals)
    index_of = {var.name: index for index, var in enumerate(global_vars)}
    for decl in program.declarations:
        if isinstance(decl, ast.FunctionDef):
            functions[decl.name] = FunctionLowerer(
                decl, string_indexes
            ).lower()
        elif isinstance(decl, ast.VarDecl):
            symbol = decl.symbol
            if symbol is None:
                continue
            index = index_of.get(symbol.name)
            if index is not None and global_vars[index].symbol is symbol:
                continue
            # A global is listed where it is first declared.  Semantic
            # analysis points its symbol at the defining declaration, even
            # when an extern declaration came first; appended declarations
            # that define a global of ``base`` rebind it to a symbol of
            # their own.
            init = None
            if not symbol.is_extern:
                defining = symbol.decl \
                    if isinstance(symbol.decl, ast.VarDecl) else decl
                if defining.init is not None:
                    init = _global_init(defining.init, string_indexes)
            # External variables are inputs; the driver initializes them.
            var = GlobalVar(symbol, init)
            if index is None:
                index_of[symbol.name] = len(global_vars)
                global_vars.append(var)
            else:
                global_vars[index] = var
    return Module(functions, global_vars, strings, info)
