"""Machine-integer widening: bit-precise constraints from ideal-integer terms.

The symbolic layer computes in ideal integers (the paper's lp_solve has no
machine arithmetic), while the machine wraps every value at 32 bits and
compares unsigned operands as unsigned.  A recorded conjunct can therefore
be *false of its own run* — the soundness hole PR 3's fuzzer surfaced —
and the old stopgap simply dropped the symbolic fact, degrading directed
search to random testing on exactly the overflow-sensitive branches.

Worse, run-level faithfulness is not even the right screen: a conjunct
can agree with the machine on the run that recorded it (no operand
happened to wrap) while other models in the input domains do wrap — its
ideal negation is then UNSAT although the flipped branch has machine
models, and the session reports ``complete`` for a branch it never
explored.  Every comparison in the linear fragment therefore goes
through this module; the decision is made against the **input domains**,
not the recording run:

* a lane whose ideal range over the domains already fits the operand
  window is *domain-precise* — ideal and machine semantics coincide for
  every admissible model, and the conjunct is recorded as a plain
  ideal-integer :class:`~repro.symbolic.expr.CmpExpr` (with folded
  constants: an unsigned compare against ``-28`` is recorded against
  ``4294967268``, never against the raw signed constant);
* any other lane is widened, using the standard concolic trick of
  **anchoring the wrap quotient to the concrete run**.

For each widened lane with ideal term ``e`` and concrete machine operand
``a`` (already wrapped into the operand window ``[lo, hi]``, signed or
unsigned):

* the mod-2³² invariant of the interpreter (``value ≡ sym
  (mod 2³²)`` for every 32-bit (value, sym) pair) makes
  ``q = (e − a) / 2³²`` an exact integer — the number of times this run's
  value wrapped;
* the widened lane is the ordinary :class:`LinExpr`
  ``W = e − 2³²·q``, together with two **window guards**
  ``lo ≤ W`` and ``W ≤ hi`` (equivalently ``2³²·q + lo ≤ e ≤ 2³²·q + hi``,
  the range side-constraints ``2³²·q ≤ e < 2³²·(q+1)`` shifted into the
  operand window);
* under the guards, ``W ≡ e (mod 2³²)`` and ``W ∈ [lo, hi]`` force ``W``
  to equal *exactly* what the machine computes as the operand — for **any**
  model, not just this run's.  Unsigned compares are handled by the same
  rewrite through the anchored bias, with the unsigned window
  ``[0, 2³² − 1]``.

The comparison itself becomes a :class:`WidenedCmp` — a
:class:`~repro.symbolic.expr.CmpExpr` over ``W_left − W_right`` carrying
the guards.  It is bit-precise within the anchored window: every model of
(primary ∧ guards) drives the machine down the same side of the branch.
Negating it flips only the primary and keeps the guards, a sound
under-approximation restricted to this run's wrap window.  When such a
conjunct is the *flip target*, the solving layer widens the negation back
out with :func:`negation_candidates`: the machine's true negation is the
union of the flipped primary over every wrap window the input domains
allow, and the windows (each a plain conjunction) are enumerated until
one is SAT.  An all-UNSAT answer is a genuine infeasibility proof only
when no widened conjunct in the query's *prefix* can leave its own
anchoring run's window (:func:`one_window`): a prefix conjunct's guards
admit only models in that window, and the flip may be feasible in
another.  The caller records any other all-UNSAT answer as prover
incompleteness, so ``complete`` verdicts stay honest — as it does one
whose enumeration was truncated because the window count exceeds
:data:`MAX_NEGATION_WINDOWS` (huge coefficients).

When widening is impossible — a lane whose quotient does not divide
exactly (a narrow-type wrap below 32 bits), or a term outside the linear
fragment — the conjunct is dropped as a last resort and the new
``all_faithful`` completeness flag is cleared: the session then says,
honestly, that its path constraints no longer describe every executed
branch.  The funnel counters ``conjuncts_widened`` /
``conjuncts_dropped_unfaithful`` report both outcomes.
"""

import itertools

from repro.symbolic.expr import _NEGATIONS, CmpExpr, GE, LE, LinExpr

#: One wrap of the 32-bit machine word.
WRAP = 1 << 32

#: Cap on enumerated wrap-window combinations per negated conjunct; a
#: lane's window count is about ``sum(|coeff_i| * |domain_i|) / 2^32``,
#: so ordinary programs stay in single digits and only extreme
#: coefficients hit the cap.
MAX_NEGATION_WINDOWS = 16

#: Operand windows: what the machine's ``wrap``/``to_unsigned`` fold
#: values into (mirrors ``repro.interp.values`` without importing it —
#: the interpreter package depends on this one).
SIGNED_WINDOW = (-(1 << 31), (1 << 31) - 1)
UNSIGNED_WINDOW = (0, (1 << 32) - 1)

_COMPARISONS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
}


class WidenedCmp(CmpExpr):
    """A comparison rewritten through run-anchored wrap quotients.

    Behaves as one path-constraint conjunct (the solver-facing layers
    flatten it to ``primary + guards`` just before the query is built):

    * ``evaluate`` is the conjunction primary ∧ guards, so the slicer's
      faithfulness screen and the oracles judge the whole encoding;
    * ``variables`` is the union over primary and guards — the primary
      difference may cancel a variable the guards still constrain, and
      slicing's union-find must see the full footprint;
    * ``negate`` flips the primary operator only and keeps the guards
      (stay in the anchored window, flip the verdict);
    * ``key`` is tagged ``"widened"`` so a widened conjunct can never
      collide with the plain comparison of the same difference in the
      solver-result cache.

    ``lanes`` records ``(ideal LinExpr, lo, hi)`` per comparison operand
    (one lane for a truth test, two for a binary compare) so the
    substitution oracle can re-check any model against genuine wrapped
    semantics, independent of this encoding.
    """

    __slots__ = ("guards", "lanes")

    def __init__(self, op, lin, guards, lanes=()):
        CmpExpr.__init__(self, op, lin)
        self.guards = tuple(guards)
        self.lanes = tuple(lanes)

    def key(self):
        key = self._key
        if key is None:
            key = ("widened", self.op, self.lin.key(),
                   tuple(g.key() for g in self.guards))
            self._key = key
        return key

    def negate(self):
        return WidenedCmp(_NEGATIONS[self.op], self.lin, self.guards,
                          self.lanes)

    def variables(self):
        variables = set(self.lin.variables())
        for guard in self.guards:
            variables |= guard.variables()
        return variables

    def evaluate(self, assignment):
        return CmpExpr.evaluate(self, assignment) and all(
            guard.evaluate(assignment) for guard in self.guards
        )

    def conjuncts(self):
        """The flat solver encoding: plain primary plus the guards."""
        return (CmpExpr(self.op, self.lin),) + self.guards

    def machine_verdict(self, assignment):
        """The *wrapped-semantics* truth value under ``assignment``.

        Re-evaluates each lane's ideal term and folds it into the lane
        window exactly as the machine would, then applies the operator —
        an encoding-independent reference the oracles check models
        against.
        """
        operands = []
        for lin, lo, hi in self.lanes:
            ideal = lin.evaluate(assignment)
            operands.append(lo + ((ideal - lo) % WRAP))
        if len(operands) == 1:
            operands.append(0)
        return _COMPARISONS[self.op](operands[0], operands[1])

    def __eq__(self, other):
        return (
            isinstance(other, WidenedCmp)
            and other.op == self.op
            and other.lin == self.lin
            and other.guards == self.guards
        )

    def __hash__(self):
        value = self._hash
        if value is None:
            value = hash(self.key())
            self._hash = value
        return value

    def __repr__(self):
        return "({} {} 0 | {} guard(s))".format(
            self.lin, self.op, len(self.guards)
        )


def _ideal_bounds(lin, domains):
    """The ideal-integer range of ``lin`` over the variable ``domains``.

    Unknown variables are assumed int32 (the widest kind the machine
    acquires) — a sound over-approximation for the precision check below,
    which only ever *narrows* behavior when bounds are tight.
    """
    low = high = lin.const
    for var, coeff in lin.coeffs.items():
        dlo, dhi = domains.get(var, SIGNED_WINDOW)
        if coeff >= 0:
            low += coeff * dlo
            high += coeff * dhi
        else:
            low += coeff * dhi
            high += coeff * dlo
    return low, high


def _lane_quotients(lin, lo, hi, domains):
    """Every wrap quotient ``q`` the lane can reach under ``domains``.

    The window ``[2^32 q + lo, 2^32 q + hi]`` spans exactly one wrap, so
    each ideal value of ``lin`` lies in exactly one window; the feasible
    quotients are those whose window intersects the lane's ideal range
    ``[min lin, max lin]`` over the variable domains.
    """
    low, high = _ideal_bounds(lin, domains)
    return range((low - lo) // WRAP, (high - lo) // WRAP + 1)


def one_window(conjunct, domains):
    """Whether every lane of ``conjunct`` has one feasible wrap window
    under ``domains`` — its anchoring run's, so its guards exclude no
    model of the machine comparison."""
    return all(len(_lane_quotients(lin, lo, hi, domains)) <= 1
               for lin, lo, hi in conjunct.lanes)


def negation_candidates(conjunct, domains, limit=MAX_NEGATION_WINDOWS):
    """Negations of a widened conjunct, one per feasible wrap window.

    The anchored negation (``conjunct.negate()``) only covers models
    whose operands wrap as many times as the anchoring run did.  The
    machine's true negation is the union over every window the input
    domains allow; this enumerates them as separate plain conjunctions so
    the linear solver (which has no disjunction) can try each in turn:
    a SAT answer for any window is a genuine flip, and UNSAT across all
    of them a genuine infeasibility proof when no widened prefix
    conjunct pins the query to one window (see :func:`one_window`).

    Returns ``(candidates, exhaustive)``; ``exhaustive`` is False when
    more than ``limit`` window combinations exist and the list was
    truncated to the anchored negation alone — the caller must then treat
    an all-UNSAT answer as prover incompleteness, not a proof.
    """
    anchored = conjunct.negate()
    if not conjunct.lanes:
        return [anchored], True
    per_lane = []
    total = 1
    for lin, lo, hi in conjunct.lanes:
        quotients = _lane_quotients(lin, lo, hi, domains)
        per_lane.append(quotients)
        total *= len(quotients)
    if total > limit:
        return [anchored], False
    candidates = [anchored]
    seen = {anchored.key()}
    for combo in itertools.product(*per_lane):
        widened = []
        guards = []
        for (lin, lo, hi), quotient in zip(conjunct.lanes, combo):
            lane_w = lin.add_const(-WRAP * quotient)
            widened.append(lane_w)
            if lin.coeffs:
                guards.append(CmpExpr(GE, lane_w.add_const(-lo)))
                guards.append(CmpExpr(LE, lane_w.add_const(-hi)))
        difference = widened[0]
        if len(widened) > 1:
            difference = difference.sub(widened[1])
        candidate = WidenedCmp(anchored.op, difference, guards,
                               conjunct.lanes)
        if candidate.key() not in seen:
            seen.add(candidate.key())
            candidates.append(candidate)
    return candidates, True


def flatten_constraints(constraints):
    """Expand every :class:`WidenedCmp` into primary + guard conjuncts.

    The solver's normalization reads only ``op``/``lin`` and would
    silently ignore the guards, so every solver-facing query goes through
    this just before cache lookup and solving.
    """
    flat = []
    for constraint in constraints:
        if isinstance(constraint, WidenedCmp):
            flat.extend(constraint.conjuncts())
        else:
            flat.append(constraint)
    return flat


class Widener:
    """Per-run widening state: the input assignment and the funnel.

    Owned by the machine (one per execution).  ``note_input`` records
    every acquired input, giving the widener the exact assignment the run
    executed under; the faithfulness checks and quotient anchoring both
    evaluate ideal terms against it.
    """

    __slots__ = ("flags", "trace", "assignment", "domains", "widened",
                 "dropped")

    def __init__(self, flags, trace=None):
        self.flags = flags
        self.trace = trace
        #: ordinal -> concrete (wrapped) value, grown monotonically as the
        #: run acquires inputs; existing entries never change, so a
        #: conjunct found faithful stays faithful for the whole run.
        self.assignment = {}
        #: ordinal -> (lo, hi) machine domain of the input kind; drives
        #: the domain-precision check in :meth:`_widen_lane`.
        self.domains = {}
        self.widened = 0
        self.dropped = 0

    def note_input(self, ordinal, value, lo=None, hi=None):
        self.assignment[ordinal] = value
        if lo is not None and hi is not None:
            self.domains[ordinal] = (lo, hi)

    def faithful(self, conjunct, expected):
        """Does ``conjunct`` agree with the machine verdict on this run?"""
        try:
            return conjunct.evaluate(self.assignment) == bool(expected)
        except KeyError:
            return False

    # -- widening ----------------------------------------------------------

    def _widen_lane(self, anchor, lin, lo, hi, ideal=None):
        """Widen one comparison operand.

        Returns ``(W, guards, lane, rewritten)`` or None when no faithful
        encoding exists.  ``anchor`` is the concrete machine operand
        (already folded into ``[lo, hi]``); ``lin`` its ideal term, or
        None for a concrete operand, in which case ``ideal`` is its
        *ideal-integer* value (pre-fold) — the lane is the anchor
        constant, ``rewritten`` when the fold moved it (an unsigned read
        of a negative constant).

        A lane whose ideal range over the input domains already fits the
        operand window is **domain-precise**: the ideal term equals the
        machine operand for every admissible model, so it is returned
        guard-free and unrewritten — this is the root-cause fix behind
        the old faithfulness screen.  Run-level faithfulness is not
        enough: a compare may agree with the machine on *this* run yet
        have models elsewhere in the domain that wrap, so precision must
        be judged against the domains, not the run.
        """
        if lin is None:
            constant = LinExpr.constant(anchor)
            rewritten = ideal is not None and ideal != anchor
            return constant, (), (constant, lo, hi), rewritten
        try:
            value = lin.evaluate(self.assignment)
        except KeyError:
            return None
        quotient, remainder = divmod(value - anchor, WRAP)
        if remainder:
            # The ideal term and the machine operand differ by something
            # other than whole 32-bit wraps (a narrow-type wrap, or a
            # violated invariant): no 2³²-window translation is faithful.
            return None
        low, high = _ideal_bounds(lin, self.domains)
        if lo <= low and high <= hi:
            # Domain-precise (and quotient == 0 necessarily: both the
            # ideal value and the anchor lie in the same window).
            return lin, (), (lin, lo, hi), False
        widened = lin.add_const(-WRAP * quotient)
        guards = (
            CmpExpr(GE, widened.add_const(-lo)),
            CmpExpr(LE, widened.add_const(-hi)),
        )
        return widened, guards, (lin, lo, hi), True

    def widen_compare(self, op, left_anchor, left_lin, right_anchor,
                      right_lin, unsigned, expected,
                      left_ideal=None, right_ideal=None):
        """Encode ``left OP right`` bit-precisely; None means drop.

        ``left_lin``/``right_lin`` must be LinExpr or None — anything else
        (a pointer term, a comparison used arithmetically) is rejected as
        a drop.  ``left_ideal``/``right_ideal`` are the pre-fold operand
        values (for concrete lanes, so a folded constant counts as a
        rewrite).  ``expected`` is the machine verdict of this run,
        re-checked against the encoding as a final defense before the
        conjunct is admitted.

        Domain-precise comparisons come back as plain :class:`CmpExpr`
        conjuncts — identical to the ideal-integer encoding, with an
        exact one-window negation; only lanes that can actually leave
        the operand window pay for guards and flip-time window
        enumeration.
        """
        if right_lin is None and type(left_lin) is LinExpr and (
                right_ideal is None or right_ideal == right_anchor):
            # The constant lane ``lin OP c`` with an unmoved constant: when
            # ``lin`` is domain-precise and equals its machine operand on
            # this run, both lanes come back from _widen_lane unrewritten
            # and guard-free, and the conjunct is the plain difference.
            lo, hi = UNSIGNED_WINDOW if unsigned else SIGNED_WINDOW
            try:
                value = left_lin.evaluate(self.assignment)
            except KeyError:
                value = None
            if value == left_anchor:
                low, high = _ideal_bounds(left_lin, self.domains)
                if lo <= low and high <= hi:
                    return self._admit(
                        CmpExpr(op, left_lin.add_const(-right_anchor)),
                        expected, False)
        return self._compare_lanes(op, left_anchor, left_lin, right_anchor,
                                   right_lin, unsigned, expected,
                                   left_ideal, right_ideal)

    def _compare_lanes(self, op, left_anchor, left_lin, right_anchor,
                       right_lin, unsigned, expected,
                       left_ideal=None, right_ideal=None):
        """The general path of :meth:`widen_compare`: widen each lane."""
        if not self.lanes_linear(left_lin, right_lin):
            return self.drop_unfaithful()
        lo, hi = UNSIGNED_WINDOW if unsigned else SIGNED_WINDOW
        left = self._widen_lane(left_anchor, left_lin, lo, hi, left_ideal)
        right = self._widen_lane(right_anchor, right_lin, lo, hi,
                                 right_ideal)
        if left is None or right is None:
            return self.drop_unfaithful()
        left_w, left_guards, left_lane, left_rw = left
        right_w, right_guards, right_lane, right_rw = right
        guards = left_guards + right_guards
        if guards:
            conjunct = WidenedCmp(op, left_w.sub(right_w), guards,
                                  (left_lane, right_lane))
        else:
            conjunct = CmpExpr(op, left_w.sub(right_w))
        return self._admit(conjunct, expected,
                           left_rw or right_rw or bool(guards))

    def widen_truth_test(self, op, anchor, lin, unsigned, expected):
        """Encode a truth test ``e OP 0`` (branch condition or ``!e``)."""
        if not self.lanes_linear(lin):
            return self.drop_unfaithful()
        lo, hi = UNSIGNED_WINDOW if unsigned else SIGNED_WINDOW
        lane = self._widen_lane(anchor, lin, lo, hi)
        if lane is None:
            return self.drop_unfaithful()
        widened, guards, meta, rewritten = lane
        if guards:
            conjunct = WidenedCmp(op, widened, guards, (meta,))
        else:
            conjunct = CmpExpr(op, widened)
        return self._admit(conjunct, expected, rewritten)

    @staticmethod
    def lanes_linear(*lins):
        """Whether every operand is in the widenable fragment
        (LinExpr or concrete)."""
        for lin in lins:
            if lin is not None and type(lin) is not LinExpr:
                return False
        return True

    def _admit(self, conjunct, expected, rewritten):
        if not self.faithful(conjunct, expected):
            # The encoding failed its own self-check (should be
            # unreachable while the mod-2³² invariant holds): fall back.
            return self.drop_unfaithful()
        if rewritten:
            self.widened += 1
            trace = self.trace
            if trace is not None and trace.enabled:
                trace.emit("conjunct_widened", op=conjunct.op,
                           guards=len(getattr(conjunct, "guards", ())))
        return conjunct

    def drop_unfaithful(self):
        """The last-resort fallback: no faithful encoding exists.

        Counts the drop, clears ``all_faithful`` and returns None (the
        dropped conjunct) — callers that cannot widen use it directly.
        """
        self.dropped += 1
        self.flags.clear_faithful()
        trace = self.trace
        if trace is not None and trace.enabled:
            trace.emit("conjunct_dropped")
        return None
