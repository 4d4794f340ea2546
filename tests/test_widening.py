"""Machine-integer widening: the bit-precise encoding behind PR 5.

Three layers of defense for one claim — a widened conjunct means exactly
what the machine computed:

* unit tests pin the :class:`WidenedCmp` algebra (negation keeps the
  window guards, variables include guard-only lanes, keys never collide
  with plain comparisons, ``machine_verdict`` is genuine mod-2³² fold);
* hypothesis properties check the Widener against randomly built lanes:
  every widened conjunct is satisfied by its own concrete run, its
  negation is falsified by it, and any model inside the guard window
  agrees with wrapped machine semantics;
* end-to-end sessions on overflow-sensitive programs assert the funnel:
  conjuncts are widened, nothing is dropped, ``all_faithful`` holds and
  the search stays directed.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.dart.config import DartOptions
from repro.dart.runner import Dart
from repro.symbolic.expr import CmpExpr, EQ, GE, GT, LE, LT, NE, LinExpr
from repro.symbolic.flags import CompletenessFlags
from repro.symbolic.widen import (
    _COMPARISONS,
    _ideal_bounds,
    SIGNED_WINDOW,
    UNSIGNED_WINDOW,
    WRAP,
    WidenedCmp,
    Widener,
    flatten_constraints,
)

OPS = (EQ, NE, LT, LE, GT, GE)

INT_MIN, INT_MAX = SIGNED_WINDOW
UINT_MAX = UNSIGNED_WINDOW[1]


def fold(ideal, window):
    """What the machine computes for an ideal value: wrap into window."""
    lo, _ = window
    return lo + ((ideal - lo) % WRAP)


def make_widener():
    return Widener(CompletenessFlags())


# -- WidenedCmp unit tests ---------------------------------------------------


def sample_widened():
    """x0 − 2³² < 0 with guards keeping x0 − 2³² in the signed window."""
    widened = LinExpr({0: 1}, -WRAP)
    guards = (
        CmpExpr(GE, widened.add_const(-INT_MIN)),
        CmpExpr(LE, widened.add_const(-INT_MAX)),
    )
    return WidenedCmp(LT, widened, guards, ((LinExpr({0: 1}), INT_MIN,
                                             INT_MAX),))


class TestWidenedCmp:
    def test_evaluate_is_primary_and_guards(self):
        conjunct = sample_widened()
        # Primary holds, guards hold.
        assert conjunct.evaluate({0: WRAP - 5})
        # Primary holds but the value is outside the anchored window.
        assert CmpExpr.evaluate(conjunct, {0: -5})
        assert not conjunct.evaluate({0: -5})

    def test_negate_flips_primary_and_keeps_guards(self):
        conjunct = sample_widened()
        negated = conjunct.negate()
        assert isinstance(negated, WidenedCmp)
        assert negated.op == GE
        assert negated.guards == conjunct.guards
        assert negated.lanes == conjunct.lanes
        assert not negated.evaluate({0: WRAP - 5})
        assert negated.evaluate({0: WRAP + 5})

    def test_variables_include_guard_only_lanes(self):
        # x0 − x1 == 0 where both lanes carry x0 and x1 through the
        # guards: the primary difference cancels nothing here, so build
        # one where it does — left = x0 + x1, right = x1 + x0.
        left = LinExpr({0: 1, 1: 1})
        right = LinExpr({1: 1, 0: 1})
        guards = (
            CmpExpr(GE, left.add_const(-INT_MIN)),
            CmpExpr(LE, left.add_const(-INT_MAX)),
            CmpExpr(GE, right.add_const(-INT_MIN)),
            CmpExpr(LE, right.add_const(-INT_MAX)),
        )
        conjunct = WidenedCmp(EQ, left.sub(right), guards)
        assert left.sub(right).variables() == set()  # the cancellation
        assert conjunct.variables() == {0, 1}  # ...the guards still see

    def test_key_is_tagged_and_distinct_from_plain_cmp(self):
        conjunct = sample_widened()
        plain = CmpExpr(LT, conjunct.lin)
        assert conjunct.key() != plain.key()
        assert conjunct.key()[0] == "widened"
        # Same difference, different guards -> different identity.
        other = WidenedCmp(LT, conjunct.lin, conjunct.guards[:1])
        assert conjunct.key() != other.key()
        assert conjunct != other

    def test_machine_verdict_folds_lanes(self):
        conjunct = sample_widened()
        # Ideal x0 = 3: machine sees 3, 3 < 0 is False; the widened
        # primary (3 - 2³² < 0) is True but the guards exclude it.
        assert not conjunct.machine_verdict({0: 3})
        assert not conjunct.evaluate({0: 3})
        # Ideal x0 = 2³² - 5: machine wraps to -5, -5 < 0 is True.
        assert conjunct.machine_verdict({0: WRAP - 5})

    def test_flatten_expands_widened_only(self):
        conjunct = sample_widened()
        plain = CmpExpr(GE, LinExpr({1: 1}))
        flat = flatten_constraints([plain, conjunct])
        assert flat[0] is plain
        assert flat[1:] == [CmpExpr(LT, conjunct.lin)] + list(
            conjunct.guards)
        assert all(type(c) is CmpExpr for c in flat[1:])


# -- Widener unit tests ------------------------------------------------------


class TestWidener:
    def test_faithful_checks_against_the_run(self):
        widener = make_widener()
        widener.note_input(0, 7)
        conjunct = CmpExpr(GT, LinExpr({0: 1}))  # x0 > 0
        assert widener.faithful(conjunct, True)
        assert not widener.faithful(conjunct, False)
        # Unknown variable: not faithful (never a crash).
        assert not widener.faithful(CmpExpr(GT, LinExpr({9: 1})), True)

    def test_unsigned_compare_is_widened_not_dropped(self):
        # The corpus seed125166496 shape: unsigned p2 >= -28 is True on
        # the machine (the -28 wraps to 2³²-28... actually the *lane*
        # values are compared unsigned), recorded ideally as false.
        widener = make_widener()
        widener.note_input(0, -28)  # int input, machine value -28
        lin = LinExpr({0: 1})
        anchor = fold(-28, UNSIGNED_WINDOW)  # what unsigned compare sees
        conjunct = widener.widen_compare(
            GE, anchor, lin, 5, None, True, anchor >= 5)
        assert conjunct is not None
        assert widener.widened == 1 and widener.dropped == 0
        assert widener.flags.all_faithful
        assert conjunct.evaluate(widener.assignment)
        assert conjunct.machine_verdict(widener.assignment)

    def test_non_exact_quotient_is_an_honest_drop(self):
        # A narrow-type wrap: ideal and machine differ by 256, not 2³².
        widener = make_widener()
        widener.note_input(0, 5)
        conjunct = widener.widen_truth_test(
            NE, 5 + 256, LinExpr({0: 1}), False, True)
        assert conjunct is None
        assert widener.dropped == 1 and widener.widened == 0
        assert not widener.flags.all_faithful

    def test_non_linear_lane_is_an_honest_drop(self):
        widener = make_widener()
        widener.note_input(0, 5)
        conjunct = widener.widen_compare(
            EQ, 5, object(), 5, None, False, True)
        assert conjunct is None
        assert not widener.flags.all_faithful

    def test_drop_returns_none_for_direct_use(self):
        widener = make_widener()
        assert widener.drop_unfaithful() is None
        assert widener.dropped == 1


# -- hypothesis: the own-run and bit-precision properties --------------------

lane_lins = st.one_of(
    st.none(),
    st.builds(
        lambda items, const: LinExpr(dict(items), const),
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=3),
                      st.integers(min_value=-4, max_value=4)),
            min_size=1, max_size=3, unique_by=lambda item: item[0],
        ),
        # Constants big enough to push ideal terms through several wraps.
        st.integers(min_value=-3 * WRAP, max_value=3 * WRAP),
    ),
)

machine_values = st.integers(min_value=INT_MIN, max_value=INT_MAX)


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(OPS), lane_lins, lane_lins,
       st.tuples(machine_values, machine_values, machine_values,
                 machine_values),
       st.booleans())
def test_widened_conjunct_is_satisfied_by_its_own_run(
    op, left_lin, right_lin, values, unsigned
):
    """The core invariant: widening never produces a conjunct its own
    concrete run falsifies — the encoding agrees with the machine on the
    very execution it anchored to, and its negation disagrees."""
    window = UNSIGNED_WINDOW if unsigned else SIGNED_WINDOW
    widener = make_widener()
    for ordinal, value in enumerate(values):
        widener.note_input(ordinal, value)
    assignment = widener.assignment

    def lane_anchor(lin):
        if lin is None:
            return fold(7, window)  # an arbitrary concrete operand
        return fold(lin.evaluate(assignment), window)

    left_anchor = lane_anchor(left_lin)
    right_anchor = lane_anchor(right_lin)
    expected = _COMPARISONS[op](left_anchor, right_anchor)
    conjunct = widener.widen_compare(
        op, left_anchor, left_lin, right_anchor, right_lin, unsigned,
        expected)
    # 32-bit wraps always divide exactly: widening must never fall back.
    assert conjunct is not None
    assert widener.dropped == 0
    assert widener.flags.all_faithful
    assert conjunct.evaluate(assignment) == bool(expected)
    assert conjunct.negate().evaluate(assignment) == (not expected)
    if isinstance(conjunct, WidenedCmp):
        assert conjunct.machine_verdict(assignment) == bool(expected)
    else:
        # Domain-precise: every lane's ideal range fits the operand
        # window, so the plain encoding is already bit-precise.
        lo, hi = UNSIGNED_WINDOW if unsigned else SIGNED_WINDOW
        for lin in (left_lin, right_lin):
            if lin is not None:
                low, high = _ideal_bounds(lin, widener.domains)
                assert lo <= low and high <= hi


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(OPS), lane_lins,
       st.tuples(machine_values, machine_values, machine_values,
                 machine_values),
       st.booleans(),
       st.integers(min_value=0, max_value=3),
       st.integers(min_value=-5, max_value=5))
def test_models_inside_the_window_match_wrapped_semantics(
    op, lin, values, unsigned, var, delta
):
    """Bit-precision: *any* assignment satisfying primary ∧ guards (not
    just the anchoring run) reaches the same verdict under genuine
    wrapped evaluation — the property the substitution oracle enforces
    on real solver models."""
    window = UNSIGNED_WINDOW if unsigned else SIGNED_WINDOW
    widener = make_widener()
    for ordinal, value in enumerate(values):
        widener.note_input(ordinal, value)
    assignment = dict(widener.assignment)
    if lin is None:
        lin = LinExpr({0: 1})
    anchor = fold(lin.evaluate(assignment), window)
    expected = _COMPARISONS[op](anchor, 0)
    conjunct = widener.widen_truth_test(op, anchor, lin, unsigned,
                                        expected)
    assert conjunct is not None
    # Perturb one variable: wherever the perturbed model still satisfies
    # the whole conjunct, the machine agrees with the solver's reading.
    model = dict(assignment)
    model[var] = model.get(var, 0) + delta
    if not isinstance(conjunct, WidenedCmp):
        # Domain-precise: within the domains, the ideal reading *is* the
        # machine reading — check against a genuine mod-2³² fold.
        if all(INT_MIN <= v <= INT_MAX for v in model.values()):
            machine = fold(lin.evaluate(model), window)
            assert _COMPARISONS[op](machine, 0) == conjunct.evaluate(model)
        return
    if conjunct.evaluate(model):
        assert conjunct.machine_verdict(model)
    elif all(g.evaluate(model) for g in conjunct.guards):
        # Inside the window but primary false: the machine disagrees too.
        assert not conjunct.machine_verdict(model)


# -- the constant-lane fast path ---------------------------------------------

#: Input-kind domains the machine records (``None``: no domain noted, so
#: the widener assumes int32).
DOMAINS = (None, (-128, 127), (0, 255), (-(1 << 15), (1 << 15) - 1),
           (0, (1 << 16) - 1), (0, 1), SIGNED_WINDOW)

small_lins = st.builds(
    lambda items, const: LinExpr(dict(items), const),
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=3),
                  st.integers(min_value=-3, max_value=3)),
        min_size=0, max_size=3, unique_by=lambda item: item[0],
    ),
    st.one_of(st.integers(min_value=-300, max_value=300),
              st.integers(min_value=-3 * WRAP, max_value=3 * WRAP)),
)


@settings(deadline=None, max_examples=400)
@given(st.sampled_from(OPS), small_lins,
       st.one_of(st.integers(min_value=-300, max_value=300),
                 st.integers(min_value=-WRAP, max_value=WRAP)),
       st.lists(st.tuples(st.sampled_from(DOMAINS), st.data()),
                min_size=4, max_size=4),
       st.booleans(), st.sampled_from(("run", "other", "missing")))
def test_constant_lane_fast_path_equals_the_general_path(
    op, lin, constant, inputs, unsigned, anchoring
):
    """``widen_compare`` on ``lin OP c`` returns what the general lane
    path returns — the same conjunct, counters and flags — whether or
    not its fast path applies: domain-precise or not, the constant moved
    by the fold or not, the anchor this run's value or not, a variable
    missing from the run."""
    window = UNSIGNED_WINDOW if unsigned else SIGNED_WINDOW
    fast, general = make_widener(), make_widener()
    for ordinal, (domain, data) in enumerate(inputs):
        if anchoring == "missing" and ordinal == 3:
            continue
        lo, hi = domain or SIGNED_WINDOW
        value = data.draw(st.integers(min_value=lo, max_value=hi))
        for widener in (fast, general):
            if domain is None:
                widener.note_input(ordinal, value)
            else:
                widener.note_input(ordinal, value, lo, hi)
    try:
        ideal = lin.evaluate(fast.assignment)
    except KeyError:
        ideal = 0
    left_anchor = fold(ideal + (1 if anchoring == "other" else 0), window)
    right_anchor = fold(constant, window)
    expected = _COMPARISONS[op](left_anchor, right_anchor)
    args = (op, left_anchor, lin, right_anchor, None, unsigned, expected,
            ideal, constant)
    got = fast.widen_compare(*args)
    want = general._compare_lanes(*args)
    assert type(got) is type(want)
    assert got == want
    assert (fast.widened, fast.dropped) == \
        (general.widened, general.dropped)
    assert fast.flags.snapshot() == general.flags.snapshot()


def test_constant_lane_fast_path_skips_the_lanes(monkeypatch):
    """A domain-precise ``x OP c`` never reaches the general lane path."""
    widener = make_widener()
    widener.note_input(0, 100, -128, 127)

    def general(*args):
        raise AssertionError("general lane path taken")

    monkeypatch.setattr(Widener, "_compare_lanes", general)
    conjunct = widener.widen_compare(LT, 100, LinExpr({0: 1}), 120, None,
                                     False, True, 100, 120)
    assert conjunct == CmpExpr(LT, LinExpr({0: 1}, -120))
    assert type(conjunct) is CmpExpr
    assert (widener.widened, widener.dropped) == (0, 0)


# -- end to end: overflow-sensitive directed search --------------------------

UNSIGNED_COMPARE_SOURCE = """
int f(int x, unsigned u) {
    int hits;
    hits = 0;
    if (u >= -28) {
        hits = hits + 1;
    }
    if (x + 2000000000 > 0) {
        hits = hits + 1;
    }
    if (u + 20 < 19) {
        hits = hits + 1;
    }
    return hits;
}
"""


class TestEndToEnd:
    def run_session(self, source, toplevel="f", **overrides):
        options = dict(max_iterations=120, stop_on_first_error=False,
                       handle_signals=False, seed=0)
        options.update(overrides)
        return Dart(source, toplevel, DartOptions(**options)).run()

    def test_unsigned_overflow_search_widens_and_drops_nothing(self):
        result = self.run_session(UNSIGNED_COMPARE_SOURCE)
        stats = result.stats
        assert stats.conjuncts_widened > 0
        assert stats.conjuncts_dropped_unfaithful == 0
        assert result.flags[3], "all_faithful degraded"
        # Directed, not lucky: flips were solved SAT and forced.
        assert stats.flips_sat > 0
        assert stats.runs_forced > 0
        # Every conditional — including the two that only flip through a
        # wrapped or unsigned reading — was driven down both arms, and
        # the exploration finished with every completeness flag intact.
        assert result.status == "complete"
        directions = {(pc, taken) for _, pc, taken
                      in stats.covered_branches}
        taken_pcs = {pc for pc, taken in directions if taken}
        not_taken = {pc for pc, taken in directions if not taken}
        assert taken_pcs == not_taken and len(taken_pcs) == 3

    def test_widened_funnel_reaches_the_summary(self):
        result = self.run_session(UNSIGNED_COMPARE_SOURCE)
        summary = result.stats.summary()
        assert summary["conjuncts_widened"] == \
            result.stats.conjuncts_widened > 0
        assert summary["conjuncts_dropped_unfaithful"] == 0
        assert result.to_dict()["flags"]["all_faithful"] is True
