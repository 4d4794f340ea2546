"""Unit tests for symbolic expressions, symbolic memory and the Fig. 1
evaluator (concrete fallback + completeness flags)."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.symbolic.evaluate import SymbolicEvaluator, constraint_from_branch
from repro.symbolic.expr import (
    CmpExpr,
    EQ,
    GE,
    GT,
    LE,
    LT,
    LinExpr,
    NE,
    PtrExpr,
)
from repro.symbolic.flags import CompletenessFlags
from repro.symbolic.symmem import SymbolicMemory


def lin(coeffs=None, const=0):
    return LinExpr(coeffs or {}, const)


class TestLinExpr:
    def test_constant(self):
        e = LinExpr.constant(5)
        assert e.is_constant() and e.const == 5

    def test_variable(self):
        e = LinExpr.variable(3)
        assert e.coeffs == {3: 1}

    def test_zero_coefficients_dropped(self):
        assert lin({1: 0, 2: 3}).coeffs == {2: 3}

    def test_add_merges(self):
        e = lin({1: 2}, 5).add(lin({1: 3, 2: 1}, -2))
        assert e.coeffs == {1: 5, 2: 1} and e.const == 3

    def test_add_cancels_to_constant(self):
        e = lin({1: 2}).add(lin({1: -2}, 7))
        assert e.is_constant() and e.const == 7

    def test_sub(self):
        e = lin({1: 5}, 1).sub(lin({1: 2, 2: 2}, 4))
        assert e.coeffs == {1: 3, 2: -2} and e.const == -3

    def test_scale(self):
        e = lin({1: 2}, 3).scale(-2)
        assert e.coeffs == {1: -4} and e.const == -6

    def test_scale_by_zero(self):
        assert lin({1: 9}, 9).scale(0) == LinExpr.constant(0)

    def test_evaluate(self):
        assert lin({1: 2, 2: -1}, 10).evaluate({1: 3, 2: 4}) == 12

    def test_equality_and_hash(self):
        assert lin({1: 1}, 2) == lin({1: 1}, 2)
        assert hash(lin({1: 1}, 2)) == hash(lin({1: 1}, 2))
        assert lin({1: 1}, 2) != lin({1: 1}, 3)


class TestCmpExpr:
    def test_negation_pairs(self):
        pairs = [(EQ, NE), (LT, GE), (LE, GT)]
        for op, neg in pairs:
            e = CmpExpr(op, lin({1: 1}))
            assert e.negate().op == neg
            assert e.negate().negate().op == op

    def test_evaluate_each_op(self):
        e = lin({1: 1}, -5)  # x - 5
        model_eq = {1: 5}
        model_lt = {1: 4}
        assert CmpExpr(EQ, e).evaluate(model_eq)
        assert CmpExpr(LE, e).evaluate(model_eq)
        assert CmpExpr(GE, e).evaluate(model_eq)
        assert not CmpExpr(NE, e).evaluate(model_eq)
        assert CmpExpr(LT, e).evaluate(model_lt)
        assert not CmpExpr(GT, e).evaluate(model_lt)

    def test_bad_operator_rejected(self):
        with pytest.raises(ValueError):
            CmpExpr("<>", lin())

    def test_ptr_null_test(self):
        p = PtrExpr(7)
        null = p.null_test(True)
        assert null.op == EQ and null.lin.coeffs == {7: 1}
        assert p.null_test(False).op == NE


class TestSymbolicMemory:
    def test_exact_read_write(self):
        s = SymbolicMemory()
        s.write(100, 4, lin({0: 1}))
        assert s.read(100, 4) == lin({0: 1})

    def test_wrong_size_read_is_none(self):
        s = SymbolicMemory()
        s.write(100, 4, lin({0: 1}))
        assert s.read(100, 1) is None

    def test_concrete_write_invalidates(self):
        s = SymbolicMemory()
        s.write(100, 4, lin({0: 1}))
        s.write(100, 4, None)
        assert s.read(100, 4) is None

    def test_partial_overlap_invalidates(self):
        # The Section 2.5 aliasing case: a 1-byte write into a symbolic int.
        s = SymbolicMemory()
        s.write(100, 4, lin({0: 1}))
        s.write(102, 1, None)
        assert s.read(100, 4) is None

    def test_adjacent_write_preserved(self):
        s = SymbolicMemory()
        s.write(100, 4, lin({0: 1}))
        s.write(104, 4, None)
        assert s.read(100, 4) == lin({0: 1})

    def test_copy_range_moves_contained_entries(self):
        s = SymbolicMemory()
        s.write(100, 4, lin({0: 1}))
        s.write(104, 4, lin({1: 1}))
        s.copy_range(100, 200, 8)
        assert s.read(200, 4) == lin({0: 1})
        assert s.read(204, 4) == lin({1: 1})

    def test_copy_range_invalidates_destination_first(self):
        s = SymbolicMemory()
        s.write(200, 4, lin({5: 1}))
        s.copy_range(100, 200, 8)  # source has no entries
        assert s.read(200, 4) is None

    def test_variables_reported(self):
        s = SymbolicMemory()
        s.write(0, 4, lin({3: 1}))
        s.write(8, 4, CmpExpr(EQ, lin({4: 1})))
        assert s.variables() == {3, 4}


class _ByteModel:
    """A naive reference for ``SymbolicMemory``: every byte records the
    entry covering it, and every operation walks bytes."""

    def __init__(self):
        self.owner = {}  # byte address -> (start, width, expr)

    def _drop(self, addr, size):
        hit = {self.owner[b] for b in range(addr, addr + size)
               if b in self.owner}
        for start, width, _ in hit:
            for b in range(start, start + width):
                del self.owner[b]

    def write(self, addr, size, expr):
        self._drop(addr, size)
        if expr is not None:
            for b in range(addr, addr + size):
                self.owner[b] = (addr, size, expr)

    def invalidate(self, addr, size):
        self._drop(addr, size)

    def read(self, addr, size):
        entry = self.owner.get(addr)
        if entry is not None and entry[0] == addr and entry[1] == size:
            return entry[2]
        return None

    def has_overlap(self, addr, size):
        return any(b in self.owner for b in range(addr, addr + size))

    def copy_range(self, src, dst, size):
        self._drop(dst, size)
        inside = [entry for entry in set(self.owner.values())
                  if entry[0] >= src and entry[0] + entry[1] <= src + size]
        for start, width, expr in inside:
            self.write(dst + (start - src), width, expr)

    def entries(self):
        return sorted(set(self.owner.values()), key=lambda e: e[0])


_addresses = st.integers(min_value=0, max_value=64)
_variables = st.integers(min_value=0, max_value=5).map(LinExpr.variable)


def _operations(widths, write_addresses=_addresses):
    """Store operations over ``widths``, writing at ``write_addresses``.
    Symbolic writes are weighted up so the store often holds more
    entries than a probe window has addresses (the keyed path), not only
    fewer (the scan)."""
    width = st.sampled_from(widths)
    symbolic_write = st.tuples(st.just("write"), write_addresses, width,
                               _variables)
    return st.one_of(
        symbolic_write, symbolic_write, symbolic_write,
        st.tuples(st.just("write"), write_addresses, width, st.none()),
        st.tuples(st.just("invalidate"), _addresses,
                  st.integers(min_value=1, max_value=40)),
        st.tuples(st.just("copy_range"), _addresses, _addresses,
                  st.integers(min_value=1, max_value=24)),
        st.tuples(st.just("read"), _addresses, width),
        st.tuples(st.just("has_overlap"), _addresses,
                  st.integers(min_value=1, max_value=16)),
    )


#: Per example, the widths stores may use: the widest bounds the probe
#: window, so narrow-only examples reach the keyed path sooner.
_sequences = st.sampled_from(
    ((1,), (1, 2), (1, 2, 4), (1, 2, 4, 8))
).flatmap(
    lambda widths: st.lists(_operations(widths), min_size=20, max_size=80))

_aligned = _addresses.map(lambda a: a & ~3)

#: Every write an aligned 4-byte one, so the store stays ``aligned`` (one
#: probe per cell) until a ``copy_range`` moves an entry off the grid;
#: reads and invalidations take any address and size, and aligned ones
#: (the one-probe paths) as often again.
_aligned_sequences = st.lists(st.one_of(
    _operations((4,), _aligned),
    st.tuples(st.just("has_overlap"), _aligned, st.just(4)),
    st.tuples(st.just("invalidate"), _aligned,
              st.integers(min_value=1, max_value=40)),
), min_size=20, max_size=80)


class TestSymbolicMemoryModel:
    @staticmethod
    def _check(operations):
        store, model = SymbolicMemory(), _ByteModel()
        for name, *args in operations:
            got = getattr(store, name)(*args)
            want = getattr(model, name)(*args)
            assert got == want, (name, args)
            assert store.entries() == model.entries()
            assert len(store) == len(model.entries())

    @settings(max_examples=300, deadline=None)
    @given(_sequences)
    def test_keyed_store_matches_byte_model(self, operations):
        """The keyed store (probe window or scan, whichever is cheaper)
        answers and evolves exactly like the per-byte model, over
        unaligned addresses and mixed widths."""
        self._check(operations)

    @settings(max_examples=300, deadline=None)
    @given(_aligned_sequences)
    def test_aligned_store_matches_byte_model(self, operations):
        """While every entry is aligned, one probe per cell answers and
        evolves exactly like the per-byte model."""
        self._check(operations)


class TestEvaluatorFig1:
    def setup_method(self):
        self.flags = CompletenessFlags()
        self.ev = SymbolicEvaluator(self.flags)

    def test_concrete_plus_concrete_stays_concrete(self):
        assert self.ev.add(1, None, 2, None) is None
        assert self.flags.all_linear  # no information was lost

    def test_symbolic_plus_concrete(self):
        result = self.ev.add(5, lin({0: 1}), 3, None)
        assert result == lin({0: 1}, 3)

    def test_symbolic_plus_symbolic(self):
        result = self.ev.add(0, lin({0: 1}), 0, lin({1: 2}))
        assert result == lin({0: 1, 1: 2})

    def test_mul_by_constant_scales(self):
        # The paper's f(x) = 2 * x stays linear.
        result = self.ev.mul(2, None, 7, lin({0: 1}))
        assert result == lin({0: 2})

    def test_mul_symbolic_by_symbolic_clears_all_linear(self):
        result = self.ev.mul(3, lin({0: 1}), 4, lin({1: 1}))
        assert result is None
        assert not self.flags.all_linear

    def test_division_with_symbolic_clears_flag(self):
        assert self.ev.nonlinear(lin({0: 1}), None) is None
        assert not self.flags.all_linear

    def test_division_concrete_keeps_flag(self):
        assert self.ev.nonlinear(None, None) is None
        assert self.flags.all_linear

    def test_shift_left_by_constant_is_linear(self):
        result = self.ev.shift_left(5, lin({0: 1}), 3, None)
        assert result == lin({0: 8})
        assert self.flags.all_linear

    def test_shift_by_symbolic_clears_flag(self):
        assert self.ev.shift_left(1, None, 2, lin({0: 1})) is None
        assert not self.flags.all_linear

    def test_compare_builds_difference(self):
        result = self.ev.compare(LT, 1, lin({0: 1}), 10, None)
        assert result == CmpExpr(LT, lin({0: 1}, -10))

    def test_compare_concrete_silent(self):
        assert self.ev.compare(EQ, 1, None, 1, None) is None
        assert self.flags.all_linear

    def test_pointer_null_comparison(self):
        result = self.ev.compare(EQ, 1234, PtrExpr(2), 0, None)
        assert result == CmpExpr(EQ, lin({2: 1}))
        assert self.flags.all_linear

    def test_pointer_null_comparison_mirrored(self):
        result = self.ev.compare(NE, 0, None, 1234, PtrExpr(2))
        assert result == CmpExpr(NE, lin({2: 1}))

    def test_pointer_vs_pointer_falls_back(self):
        assert self.ev.compare(EQ, 1, PtrExpr(1), 2, PtrExpr(2)) is None
        assert not self.flags.all_linear

    def test_logical_not_of_comparison(self):
        result = self.ev.logical_not(1, CmpExpr(EQ, lin({0: 1})))
        assert result == CmpExpr(NE, lin({0: 1}))

    def test_logical_not_of_linear(self):
        result = self.ev.logical_not(5, lin({0: 1}))
        assert result == CmpExpr(EQ, lin({0: 1}))

    def test_cast_preserving_value_keeps_symbolic(self):
        result = self.ev.cast_int(5, 5, lin({0: 1}))
        assert result == lin({0: 1})
        assert self.flags.all_linear

    def test_cast_changing_value_clears_flag(self):
        assert self.ev.cast_int(300, 44, lin({0: 1})) is None
        assert not self.flags.all_linear

    def test_neg(self):
        assert self.ev.neg(1, lin({0: 1}, 2)) == lin({0: -1}, -2)


class TestConstraintFromBranch:
    def test_none_stays_none(self):
        assert constraint_from_branch(None, True) is None

    def test_comparison_taken(self):
        c = CmpExpr(EQ, lin({0: 1}))
        assert constraint_from_branch(c, True) == c
        assert constraint_from_branch(c, False) == c.negate()

    def test_linear_truthiness(self):
        e = lin({0: 1}, -3)
        assert constraint_from_branch(e, True) == CmpExpr(NE, e)
        assert constraint_from_branch(e, False) == CmpExpr(EQ, e)

    def test_pointer_truthiness(self):
        p = PtrExpr(4)
        taken = constraint_from_branch(p, True)
        assert taken.op == NE  # non-null pointer is truthy


class TestFlags:
    def test_initial_state(self):
        flags = CompletenessFlags()
        assert flags.complete and flags.forcing_ok

    def test_clear_and_reset(self):
        flags = CompletenessFlags()
        flags.clear_linear()
        assert not flags.complete
        flags.reset()
        assert flags.complete

    def test_snapshot(self):
        flags = CompletenessFlags()
        flags.clear_locs()
        assert flags.snapshot() == (True, False, True, True)

    def test_clear_faithful(self):
        flags = CompletenessFlags()
        flags.clear_faithful()
        assert not flags.complete
        assert flags.snapshot() == (True, True, True, False)
