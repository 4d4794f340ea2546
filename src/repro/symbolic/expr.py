"""Symbolic expressions over program inputs.

DART's theory is linear integer arithmetic (the paper uses lp_solve), so the
arithmetic fragment is represented *canonically linear*: a
:class:`LinExpr` is a map from input-variable ids to integer coefficients
plus a constant.  Anything that cannot be kept linear falls back to its
concrete value (Figure 1), so no richer term language is ever needed.

Comparison terms (the paper's ``=(e', e'')``) are :class:`CmpExpr` — a
relational operator applied to a canonical ``lhs - rhs`` difference.  They
serve double duty as stored symbolic values (a C comparison yields 0/1) and
as path-constraint conjuncts for the solver.

Symbolic pointers (:class:`PtrExpr`) tie a pointer value to its
NULL-or-fresh-cell coin toss so that ``p == NULL`` tests reduce to linear
constraints on the 0/1 coin variable.  The shipped driver generator takes a
different route to the same end — the coin toss is a conditional *in the
generated driver code*, so the branch itself is directable
(``DartOptions.directed_pointer_choices``) — but the term is kept as the
evaluator-level alternative and is exercised by the test suite.
"""

import operator

# Relational operators, applied to a linear expression e: ``e OP 0``.
EQ = "=="
NE = "!="
LT = "<"
LE = "<="
GT = ">"
GE = ">="

_NEGATIONS = {EQ: NE, NE: EQ, LT: GE, GE: LT, LE: GT, GT: LE}

#: The truth function of each relational operator.
_RELATIONS = {EQ: operator.eq, NE: operator.ne, LT: operator.lt,
              LE: operator.le, GT: operator.gt, GE: operator.ge}


class InputVar:
    """One slot of the input vector ``IM``.

    ``ordinal`` is the acquisition index (inputs are identified by the order
    in which the program reads them, which uniformly supports repeated
    toplevel calls and dynamically allocated input locations — Section 3.4).
    ``lo``/``hi`` bound the machine domain (e.g. int32, char, or {0, 1} for
    pointer coin tosses).
    """

    __slots__ = ("ordinal", "kind", "lo", "hi")

    def __init__(self, ordinal, kind, lo, hi):
        self.ordinal = ordinal
        self.kind = kind
        self.lo = lo
        self.hi = hi

    def __repr__(self):
        return "InputVar(x{}:{})".format(self.ordinal, self.kind)


class LinExpr:
    """An integer-linear expression ``sum(coeff_i * x_i) + const``."""

    __slots__ = ("coeffs", "const", "_key", "_hash")

    def __init__(self, coeffs=None, const=0):
        self.coeffs = {v: c for v, c in (coeffs or {}).items() if c != 0}
        self.const = const
        self._key = None
        self._hash = None

    def key(self):
        """A stable canonical identity: sorted (var, coeff) pairs + const.

        Computed once and cached (expressions are immutable after
        construction), so solver-cache lookups and slicing group maps are
        O(1) dict operations instead of re-sorting coefficients on every
        hash.
        """
        key = self._key
        if key is None:
            key = (tuple(sorted(self.coeffs.items())), self.const)
            self._key = key
        return key

    @classmethod
    def constant(cls, value):
        return cls({}, value)

    @classmethod
    def variable(cls, ordinal, coeff=1):
        return cls({ordinal: coeff}, 0)

    def is_constant(self):
        return not self.coeffs

    def variables(self):
        return set(self.coeffs)

    def add(self, other):
        coeffs = dict(self.coeffs)
        for var, coeff in other.coeffs.items():
            coeffs[var] = coeffs.get(var, 0) + coeff
        return LinExpr(coeffs, self.const + other.const)

    def sub(self, other):
        coeffs = dict(self.coeffs)
        for var, coeff in other.coeffs.items():
            coeffs[var] = coeffs.get(var, 0) - coeff
        return LinExpr(coeffs, self.const - other.const)

    def scale(self, factor):
        if factor == 0:
            return LinExpr.constant(0)
        return LinExpr(
            {v: c * factor for v, c in self.coeffs.items()},
            self.const * factor,
        )

    def negate(self):
        return self.scale(-1)

    def add_const(self, value):
        return LinExpr(self.coeffs, self.const + value)

    def evaluate(self, assignment):
        """Evaluate under ``assignment`` (ordinal -> int)."""
        total = self.const
        for var, coeff in self.coeffs.items():
            total += coeff * assignment[var]
        return total

    def __eq__(self, other):
        return (
            isinstance(other, LinExpr)
            and other.const == self.const
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        value = self._hash
        if value is None:
            value = hash(self.key())
            self._hash = value
        return value

    def __repr__(self):
        parts = []
        for var in sorted(self.coeffs):
            coeff = self.coeffs[var]
            parts.append(
                "{}{}*x{}".format("+" if coeff >= 0 and parts else "",
                                  coeff, var)
            )
        if self.const or not parts:
            parts.append(
                "{}{}".format("+" if parts and self.const >= 0 else "",
                              self.const)
            )
        return "".join(parts)


class CmpExpr:
    """A relational term ``lin OP 0`` — both a 0/1 value and a constraint."""

    __slots__ = ("op", "lin", "_key", "_hash")

    def __init__(self, op, lin):
        if op not in _NEGATIONS:
            raise ValueError("bad relational operator {!r}".format(op))
        self.op = op
        self.lin = lin
        self._key = None
        self._hash = None

    def key(self):
        """Stable canonical identity: the operator plus the LinExpr key."""
        key = self._key
        if key is None:
            key = (self.op, self.lin.key())
            self._key = key
        return key

    def negate(self):
        return CmpExpr(_NEGATIONS[self.op], self.lin)

    def variables(self):
        return self.lin.variables()

    def evaluate(self, assignment):
        """Truth value of the comparison under ``assignment``."""
        return _RELATIONS[self.op](self.lin.evaluate(assignment), 0)

    def __eq__(self, other):
        return (
            isinstance(other, CmpExpr)
            and other.op == self.op
            and other.lin == self.lin
        )

    def __hash__(self):
        value = self._hash
        if value is None:
            value = hash(self.key())
            self._hash = value
        return value

    def __repr__(self):
        return "({} {} 0)".format(self.lin, self.op)


class PtrExpr:
    """A symbolic pointer input, tied to its NULL-coin choice variable.

    The associated :class:`InputVar` (``choice``) has domain {0, 1}:
    0 means the pointer was initialized to NULL, 1 means it points to a
    freshly allocated cell.  ``p == NULL`` therefore reduces to the linear
    constraint ``choice == 0``.
    """

    __slots__ = ("choice_ordinal",)

    def __init__(self, choice_ordinal):
        self.choice_ordinal = choice_ordinal

    def null_test(self, is_null):
        """The constraint expressing ``p == NULL`` (or ``!=`` if not)."""
        lin = LinExpr.variable(self.choice_ordinal)
        return CmpExpr(EQ if is_null else NE, lin)

    def variables(self):
        return {self.choice_ordinal}

    def __repr__(self):
        return "PtrExpr(x{})".format(self.choice_ordinal)
