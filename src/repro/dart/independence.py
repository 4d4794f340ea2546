"""Static input-independence analysis gating worklist dedup.

Two worklist entries whose sliced flip queries are canonically equal may
still diverge later: the flipped group's inputs can feed an accumulator
that a *future* conditional reads together with other inputs, or the
entries' parents may differ on inputs the query never mentions but whose
branches guard the flipped conditional's continuation.  Deduping such
entries loses errors (see docs/ALGORITHM.md, "Subsumption and pruning").

This module computes, once per session from the toplevel function's AST,
a partition of the driver's input ordinals into **coupling classes**: two
inputs land in the same class whenever any predicate's behavior can
depend on both.  A sliced flip query over variable set ``G`` is then
*dedup-eligible* exactly when every class intersecting ``G`` is contained
in ``G`` — the query re-solves everything its future can observe about
those inputs, while inputs outside ``G`` belong to classes no shared
predicate connects to it, so their (unchanged, parent-supplied) values
steer futures the parent's own run and siblings already cover.  Any
combination behavior would require a predicate reading both sides, which
would have merged the classes.

The analysis is deliberately conservative.  Predicate closures inherit
the full control context (a conditional nested under another couples
with it), faulting expressions — division/modulo divisors and assert
conditions — count as predicates, and every construct whose dataflow the
walker does not model precisely **latches the whole program ineligible**
(returns None, disabling dedup for the session):

* external functions or variables, program-defined globals (hidden state
  across calls and runs);
* non-scalar toplevel parameters (pointer coins interleave the ordinal
  space);
* loops, ``switch``, user function calls, arrays, pointers, address-of;
* locals read where not definitely assigned, shadowing declarations.

Under those latches the driver consumes exactly one input per parameter
per call, in order, so ordinal ``c * nparams + i`` is call ``c``'s
parameter ``i``; calls share no state, so classes replicate per call.
"""

from repro.dart.interface import extract_interface
from repro.dart.slicing import UnionFind
from repro.minic import SourceUnit
from repro.minic import typesys as ts
from repro.minic import ast_nodes as ast
# parse_program is not called here: the AST comes from a SourceUnit.  The
# name stays bound because perfbench/tracer.py wraps it at this module,
# and every name the tracer wraps must resolve.
from repro.minic.parser import parse_program  # noqa: F401


class _Ineligible(Exception):
    """Raised anywhere the analysis cannot prove independence."""


class _Analyzer:
    """One pass over the toplevel body computing parameter coupling.

    ``env`` maps each declared name to the set of parameters that may
    influence its current value; ``assigned`` is the definitely-assigned
    subset (reads outside it latch).  Branch merges are may-unions of the
    environments and an intersection of ``assigned`` — standard forward
    dataflow, sound because more influence only ever means more coupling.
    """

    def __init__(self, param_names):
        self.uf = UnionFind()
        for name in param_names:
            self.uf.find(name)
        self.env = {name: frozenset((name,)) for name in param_names}
        self.assigned = set(param_names)
        self.declared = set(param_names)

    def _couple(self, names):
        """Put every parameter in ``names`` into one coupling class."""
        anchor = next(iter(names), None)
        for name in names:
            self.uf.union(anchor, name)

    # -- statements -------------------------------------------------------

    def stmt(self, node, ctx):
        if isinstance(node, ast.Block):
            for statement in node.statements:
                self.stmt(statement, ctx)
        elif isinstance(node, ast.ExprStmt):
            if node.expr is not None:
                self.expr(node.expr, ctx)
        elif isinstance(node, ast.If):
            self._branching(node.cond, node.then, node.otherwise, ctx)
        elif isinstance(node, ast.AssertStmt):
            # Lowered to ``if (!e) abort()``: a predicate like any other.
            self._couple(self.expr(node.expr, ctx) | ctx)
        elif isinstance(node, ast.AbortStmt):
            pass  # reachability is the (already coupled) context
        elif isinstance(node, ast.Return):
            if node.value is not None:
                self.expr(node.value, ctx)  # value unused by the driver
        elif isinstance(node, ast.DeclStmt):
            for decl in node.decls:
                self._declare(decl, ctx)
        else:
            # While / DoWhile / For / Switch / Break / Continue and any
            # future statement form: dataflow not modeled here.
            raise _Ineligible(type(node).__name__)

    def _declare(self, decl, ctx):
        if decl.name in self.declared:
            raise _Ineligible("shadowing declaration")
        self.declared.add(decl.name)
        if decl.init is not None:
            self.env[decl.name] = self.expr(decl.init, ctx) | ctx
            self.assigned.add(decl.name)
        else:
            self.env[decl.name] = frozenset()

    def _branching(self, cond, then, otherwise, ctx):
        """An ``If`` (or ternary): couple the predicate, merge the arms."""
        cond_inf = self.expr(cond, ctx)
        self._couple(cond_inf | ctx)
        inner = ctx | cond_inf
        pre_env, pre_assigned = self.env, self.assigned
        self.env, self.assigned = dict(pre_env), set(pre_assigned)
        if then is not None:
            self._arm(then, inner)
        env_then, assigned_then = self.env, self.assigned
        self.env, self.assigned = dict(pre_env), set(pre_assigned)
        if otherwise is not None:
            self._arm(otherwise, inner)
        env_else, assigned_else = self.env, self.assigned
        merged = {}
        for name in set(env_then) | set(env_else):
            merged[name] = (env_then.get(name, frozenset())
                            | env_else.get(name, frozenset()))
        self.env = merged
        self.assigned = assigned_then & assigned_else

    def _arm(self, node, ctx):
        if isinstance(node, ast.Stmt):
            self.stmt(node, ctx)
        else:
            self.expr(node, ctx)  # ternary arm

    # -- expressions ------------------------------------------------------

    def expr(self, node, ctx):
        """Influence set of ``node``; registers predicate couplings for
        short-circuit operators, ternaries and faulting divisions."""
        if isinstance(node, (ast.IntLit, ast.StringLit, ast.SizeofType,
                             ast.SizeofExpr)):
            return frozenset()
        if isinstance(node, ast.Ident):
            return self._read(node.name)
        if isinstance(node, ast.Unary):
            if node.op in ("++", "--"):
                return self._update(node.operand, ctx)
            if node.op in ("*", "&"):
                raise _Ineligible("pointer operator")
            return self.expr(node.operand, ctx)
        if isinstance(node, ast.Postfix):
            return self._update(node.operand, ctx)
        if isinstance(node, ast.Binary):
            return self._binary(node, ctx)
        if isinstance(node, ast.Assign):
            return self._assign(node, ctx)
        if isinstance(node, ast.Conditional):
            self._branching(node.cond, node.then, node.otherwise, ctx)
            return self._ternary_value(node, ctx)
        if isinstance(node, ast.Comma):
            self.expr(node.left, ctx)
            return self.expr(node.right, ctx)
        if isinstance(node, ast.Cast):
            return self.expr(node.operand, ctx)
        # Call / Index / Member and anything unforeseen.
        raise _Ineligible(type(node).__name__)

    def _ternary_value(self, node, ctx):
        # _branching already walked the arms for side effects and
        # coupled the condition; the *value* may depend on all three.
        cond_inf = self._pure(node.cond)
        return (cond_inf | self._pure(node.then) | self._pure(node.otherwise))

    def _pure(self, node):
        """Influence of an already-walked subexpression, without
        re-registering couplings or re-applying side effects."""
        if isinstance(node, (ast.IntLit, ast.StringLit, ast.SizeofType,
                             ast.SizeofExpr)):
            return frozenset()
        if isinstance(node, ast.Ident):
            return self.env.get(node.name, frozenset())
        if isinstance(node, ast.Unary):
            return self._pure(node.operand)
        if isinstance(node, ast.Postfix):
            return self._pure(node.operand)
        if isinstance(node, ast.Binary):
            return self._pure(node.left) | self._pure(node.right)
        if isinstance(node, ast.Assign):
            return self._pure(node.target)
        if isinstance(node, ast.Conditional):
            return (self._pure(node.cond) | self._pure(node.then)
                    | self._pure(node.otherwise))
        if isinstance(node, ast.Comma):
            return self._pure(node.right)
        if isinstance(node, ast.Cast):
            return self._pure(node.operand)
        raise _Ineligible(type(node).__name__)

    def _read(self, name):
        if name not in self.env:
            raise _Ineligible("unknown name {!r}".format(name))
        if name not in self.assigned:
            raise _Ineligible("possibly-unassigned {!r}".format(name))
        return self.env[name]

    def _update(self, target, ctx):
        """``++``/``--``: read-modify-write of an lvalue."""
        if not isinstance(target, ast.Ident):
            raise _Ineligible("non-scalar increment target")
        new = self._read(target.name) | ctx
        self.env[target.name] = new
        return new

    def _binary(self, node, ctx):
        if node.op in ("&&", "||"):
            left = self.expr(node.left, ctx)
            # The right operand is itself branch-guarded by the left.
            right = self.expr(node.right, ctx | left)
            self._couple(left | right | ctx)
            return left | right
        left = self.expr(node.left, ctx)
        right = self.expr(node.right, ctx)
        if node.op in ("/", "%"):
            # A faulting expression is a predicate: whether it traps
            # depends on the divisor under this control context.
            self._couple(right | ctx)
        return left | right

    def _assign(self, node, ctx):
        if not isinstance(node.target, ast.Ident):
            raise _Ineligible("non-scalar assignment target")
        name = node.target.name
        if name not in self.env:
            raise _Ineligible("assignment to unknown name {!r}".format(name))
        value = self.expr(node.value, ctx)
        if node.op != "=":
            if node.op in ("/=", "%="):
                self._couple(value | ctx)
            value = value | self._read(name)
        self.env[name] = value | ctx
        self.assigned.add(name)
        return self.env[name]


def _scalar_params(interface):
    for ptype in interface.param_types:
        if not isinstance(ptype, ts.IntType):
            raise _Ineligible("non-scalar parameter")


def _no_hidden_state(interface, program):
    if interface.external_functions:
        raise _Ineligible("external functions (stubs consume inputs)")
    if interface.external_variables:
        raise _Ineligible("external variables")
    for decl in program.declarations:
        if isinstance(decl, (ast.VarDecl, ast.DeclStmt)):
            raise _Ineligible("program-defined global")


def _toplevel_def(program, toplevel):
    for decl in program.declarations:
        if isinstance(decl, ast.FunctionDef) and decl.name == toplevel:
            return decl
    raise _Ineligible("toplevel not defined")


def coupling_classes(source, toplevel, depth, filename="<program>"):
    """Coupling classes over input ordinals, or None when ineligible.

    Returns ``{ordinal: frozenset(ordinals of its class)}`` covering all
    ``depth * nparams`` ordinals, or None when any conservative latch
    fires — the caller must then disable worklist dedup entirely (the
    UNSAT-core tier is unaffected; it is sound unconditionally).
    ``source`` is program text or a :class:`repro.minic.SourceUnit`, whose
    analysed AST is then walked (the analysis only annotates nodes).
    """
    try:
        unit = SourceUnit.of(source, filename)
        interface, _info = extract_interface(unit, toplevel,
                                             filename=filename)
        program, _ = unit.analysis()
        _scalar_params(interface)
        _no_hidden_state(interface, program)
        func = _toplevel_def(program, toplevel)
        names = [param.name for param in func.params]
        if any(name is None for name in names) or len(set(names)) != len(names):
            raise _Ineligible("unnamed or duplicate parameters")
        analyzer = _Analyzer(names)
        analyzer.stmt(func.body, frozenset())
        ordinal_of = {name: index for index, name in enumerate(names)}
        classes = {}
        count = len(names)
        for group in analyzer.uf.classes():
            indices = sorted(ordinal_of[name] for name in group)
            for call in range(depth):
                ordinals = frozenset(call * count + i for i in indices)
                for ordinal in ordinals:
                    classes[ordinal] = ordinals
        return classes
    except _Ineligible:
        return None
    except Exception:
        # The analysis is an optimization gate: any failure to parse or
        # walk (however unexpected) must degrade to "no dedup", never
        # take the session down.
        return None


def dedup_eligible(query_vars, classes):
    """True when every coupling class touching ``query_vars`` is inside it.

    ``classes`` is the map from :func:`coupling_classes`; callers pass
    None through as ineligible before reaching here.
    """
    for var in query_vars:
        cls = classes.get(var)
        if cls is None or not cls <= query_vars:
            return False
    return True
