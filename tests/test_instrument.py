"""Unit tests for the instrumented run's bookkeeping (Figs. 3-4)."""

import random

import pytest

from repro.dart.config import DartOptions
from repro.dart.inputs import InputVector
from repro.dart.instrument import DirectedHooks, ForcingMismatch
from repro.dart.pathcond import DONE, branch_bits
from repro.symbolic.expr import CmpExpr, EQ, LinExpr
from repro.symbolic.flags import CompletenessFlags


def make_hooks(predicted=None, im=None, options=None):
    return DirectedHooks(
        im or InputVector(),
        predicted or b"",
        CompletenessFlags(),
        random.Random(0),
        options or DartOptions(),
    )


def constraint(var=0):
    return CmpExpr(EQ, LinExpr({var: 1}))


class TestInputAcquisition:
    def test_fresh_inputs_randomized_and_recorded(self):
        hooks = make_hooks()
        value, var = hooks.acquire_input("int")
        assert var.ordinal == 0
        assert hooks.im.value_or_none(0, "int") == value

    def test_replay_from_im(self):
        im = InputVector()
        im.record(0, "int", 1234)
        hooks = make_hooks(im=im)
        value, var = hooks.acquire_input("int")
        assert value == 1234

    def test_ordinals_increase(self):
        hooks = make_hooks()
        _, v0 = hooks.acquire_input("int")
        _, v1 = hooks.acquire_input("char")
        assert (v0.ordinal, v1.ordinal) == (0, 1)
        assert hooks.inputs_consumed == 2

    def test_kind_mismatch_rerandomizes(self):
        im = InputVector()
        im.record(0, "int", 1 << 20)  # out of char range
        hooks = make_hooks(im=im)
        value, _ = hooks.acquire_input("char")
        assert -128 <= value <= 127

    def test_ptr_choice_tracked_by_default(self):
        hooks = make_hooks()
        _, var = hooks.acquire_input("ptr_choice")
        assert var is not None
        assert (var.lo, var.hi) == (0, 1)

    def test_ptr_choice_untracked_in_paper_mode(self):
        options = DartOptions(directed_pointer_choices=False)
        hooks = make_hooks(options=options)
        _, var = hooks.acquire_input("ptr_choice")
        assert var is None
        # An untracked input must cost the completeness claim.
        assert not hooks.flags.complete


class TestCompareAndUpdateStack:
    def test_first_run_appends_with_done_false(self):
        hooks = make_hooks()
        hooks.on_branch(True, constraint(), None)
        hooks.on_branch(False, None, None)
        stack = hooks.stack
        assert [entry & 1 for entry in stack] == [1, 0]
        assert all(not entry & DONE for entry in stack)

    def test_record_aligned_with_constraints(self):
        hooks = make_hooks()
        c = constraint()
        hooks.on_branch(True, c, None)
        hooks.on_branch(False, None, None)
        assert hooks.constraints == [c, None]
        assert tuple(hooks.path()) == (1, 0)

    def test_prediction_match_marks_last_done(self):
        predicted = bytes([1, 0])
        hooks = make_hooks(predicted=predicted)
        hooks.on_branch(True, constraint(), None)
        hooks.on_branch(False, constraint(1), None)
        stack = hooks.stack
        assert stack[1] & DONE      # k == |stack|-1 confirmed
        assert not stack[0] & DONE  # interior entries untouched

    def test_prediction_mismatch_raises_and_clears_forcing(self):
        predicted = bytes([1])
        hooks = make_hooks(predicted=predicted)
        with pytest.raises(ForcingMismatch) as exc:
            hooks.on_branch(False, constraint(), None)
        assert exc.value.index == 0
        assert not hooks.flags.forcing_ok

    def test_done_flag_is_not_a_prediction(self):
        # A done interior entry still predicts its branch bit only.
        hooks = make_hooks(predicted=bytes([1 | DONE, 0]))
        hooks.on_branch(True, constraint(), None)
        with pytest.raises(ForcingMismatch) as exc:
            hooks.on_branch(True, constraint(1), None)
        assert (exc.value.index, exc.value.expected, exc.value.actual) \
            == (1, 0, 1)

    def test_execution_beyond_prediction_appends(self):
        predicted = bytes([1])
        hooks = make_hooks(predicted=predicted)
        hooks.on_branch(True, constraint(), None)
        hooks.on_branch(True, constraint(1), None)
        stack = hooks.stack
        assert len(stack) == 2
        assert not stack[1] & DONE

    def test_predicted_stack_not_mutated(self):
        predicted = bytearray([1])
        hooks = make_hooks(predicted=predicted)
        hooks.on_branch(True, constraint(), None)
        assert not predicted[0] & DONE  # hooks work on a copy


class TestStackEntry:
    def test_flipped(self):
        # A child flips the branch bit of its last entry (``^= 1``) and
        # keeps that entry's done flag.
        for entry in (0, 1, DONE, 1 | DONE):
            flipped = entry ^ 1
            assert flipped & 1 == 1 - (entry & 1)
            assert flipped & DONE == entry & DONE
        assert branch_bits(bytes([1 | DONE, 0, DONE, 1])) == bytes(
            [1, 0, 0, 1])

    def test_copy_independent(self):
        stack = bytearray([1, 0])
        child = stack[:2]
        child[1] ^= 1
        child[0] |= DONE
        assert stack == bytearray([1, 0])

    def test_path_record_len(self):
        # The path has one bit per conditional executed, even when the
        # run stopped short of its prediction (a fault before the end).
        hooks = make_hooks(predicted=bytes([1, 0, 1]))
        hooks.on_branch(True, None, None)
        assert len(hooks.constraints) == 1
        assert hooks.path() == b"\x01"
