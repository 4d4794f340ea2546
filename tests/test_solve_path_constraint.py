"""Unit tests for solve_path_constraint (Fig. 5) and the orders of
footnote 4, which live in the worklist: children in branch order, drained
FIFO ("bfs") or in a session-RNG order ("random")."""

import collections

from repro import DartOptions
from repro.dart.inputs import InputVector
from repro.dart.pathcond import DONE
from repro.dart.report import RunStats
from repro.dart.runner import Dart, _Session
from repro.dart.solve import (
    candidate_indices,
    expand_worklist_children,
    solve_path_constraint,
)
from repro.programs import samples
from repro.solver import Solver
from repro.symbolic.expr import CmpExpr, EQ, GT, LinExpr, NE
from repro.symbolic.flags import CompletenessFlags


def build_run(entries):
    """entries: list of (branch, constraint-or-None) ->
    (constraints, stack, im)."""
    constraints = []
    stack = bytearray()
    im = InputVector()
    ordinals = set()
    for branch, constraint in entries:
        constraints.append(constraint)
        stack.append(branch)
        if constraint is not None:
            ordinals |= constraint.variables()
    for ordinal in sorted(ordinals):
        im.record(ordinal, "int", 0)
    return constraints, stack, im


#: The child tuple solve_path_constraint returns, with named fields.
Plan = collections.namedtuple("Plan", "stack im bound fingerprint")


def solve(constraints, stack, im, seed=0):
    flags = CompletenessFlags()
    child = solve_path_constraint(constraints, stack, im, Solver(seed=seed),
                                  flags, RunStats())
    return (Plan(*child) if child is not None else None), flags


def expand(constraints, stack, im, bound=0):
    """The generational children of a run, as Plans, in enqueue order."""
    children = expand_worklist_children(
        stack, constraints, im, bound, Solver(seed=0),
        CompletenessFlags(), RunStats())
    return [Plan(*child) for child in children]


def eq(var, const=0):
    """Constraint var == const, as asserted by a taken branch."""
    return CmpExpr(EQ, LinExpr({var: 1}, -const))


class TestCandidateOrdering:
    def make_stack(self, done_flags):
        return bytearray(1 | (DONE if done else 0) for done in done_flags)

    def test_dfs_deepest_first(self):
        stack = self.make_stack([False, True, False])
        assert candidate_indices(stack) == [2, 0]

    def test_bfs_shallowest_first(self):
        # Children are enqueued in branch order, so a FIFO drain flips
        # the shallowest branch first.
        constraints, stack, im = build_run(
            [(1, eq(0)), (1, eq(1)), (1, eq(2))])
        plans = expand(constraints, stack, im)
        assert [len(plan.stack) for plan in plans] == [1, 2, 3]

    def test_random_is_permutation(self):
        session = _Session(Dart(samples.H_SOURCE, "h",
                                DartOptions(strategy="random", seed=3)))
        pending = list(range(6))
        drained = [session.pop(pending) for _ in range(6)]
        assert sorted(drained) == list(range(6))
        assert not pending

    def test_all_done_leaves_nothing(self):
        assert candidate_indices(self.make_stack([True, True])) == []


class TestSolvePathConstraint:
    def test_flips_deepest_pending_branch(self):
        # Run took (x0 == 0) then (x1 == 0); DFS should flip the second.
        constraints, stack, im = build_run([(1, eq(0)), (1, eq(1))])
        plan, _ = solve(constraints, stack, im)
        assert plan is not None
        assert [entry & 1 for entry in plan.stack] == [1, 0]
        # New inputs satisfy x0 == 0 and NOT (x1 == 0).
        assert plan.im[0].value == 0
        assert plan.im[1].value != 0
        # The child tuple a worklist item is made of: the next bound is
        # the index past the flip, and a Fig. 5 plan is never deduped.
        assert plan.bound == 2
        assert plan.fingerprint is None

    def test_stack_truncated_at_flip(self):
        constraints, stack, im = build_run(
            [(1, eq(0)), (1, eq(1)), (1, eq(2))]
        )
        plan, _ = solve(constraints, stack, im)
        assert len(plan.stack) == 3
        constraints2, stack2, im2 = build_run([(1, eq(0)), (1, eq(1))])
        stack2[1] |= DONE
        plan2, _ = solve(constraints2, stack2, im2)
        assert len(plan2.stack) == 1  # flipped the first instead

    def test_done_branches_skipped(self):
        constraints, stack, im = build_run([(1, eq(0))])
        stack[0] |= DONE
        plan, _ = solve(constraints, stack, im)
        assert plan is None  # search over

    def test_unsat_flip_falls_back_to_shallower(self):
        # Deepest: x0 == 5 following x0 == 5 earlier (negation unsat
        # against the prefix).
        constraints, stack, im = build_run([(1, eq(0, 5)), (1, eq(0, 5))])
        plan, _ = solve(constraints, stack, im)
        # Flipping index 1 gives x0 == 5 and x0 != 5: UNSAT; falls back to
        # flipping index 0 (prefix empty): x0 != 5 is satisfiable.
        assert plan is not None
        assert len(plan.stack) == 1
        assert plan.im[0].value != 5

    def test_unsat_marks_done(self):
        # The UNSAT flip of index 1 is done for good: the plan flips the
        # shallower branch, and its stack ends before index 1, so no later
        # run of this directed search re-examines it.  The run's own stack
        # is left as the run finished it.
        constraints, stack, im = build_run([(1, eq(0, 5)), (1, eq(0, 5))])
        plan, flags = solve(constraints, stack, im)
        assert [entry & 1 for entry in plan.stack] == [0]
        assert stack == bytearray([1, 1])
        assert flags.all_linear  # a proof, not a degradation

    def test_unflippable_concrete_branch_skipped_and_marked(self):
        # A concrete-fallback branch is never flipped by solving: the
        # plan flips the shallower branch, and its stack ends before the
        # concrete one; with nothing else to flip the search is over.
        constraints, stack, im = build_run([(1, eq(0)), (1, None)])
        plan, _ = solve(constraints, stack, im)
        assert [entry & 1 for entry in plan.stack] == [0]
        plan, _ = solve(*build_run([(1, None)]))
        assert plan is None

    def test_all_constraints_in_prefix_respected(self):
        # (x0 > 0) then (x1 == 0): flipping the second must keep x0 > 0.
        gt = CmpExpr(GT, LinExpr({0: 1}))
        constraints, stack, im = build_run([(1, gt), (1, eq(1))])
        # A real run's IM satisfies the path it executed (the branch was
        # taken under it); constraint slicing relies on that invariant to
        # leave independent groups at their current values.
        im.record(0, "int", 5)
        plan, _ = solve(constraints, stack, im)
        assert plan.im[0].value > 0
        assert plan.im[1].value != 0

    def test_preserves_unconstrained_inputs(self):
        constraints, stack, im = build_run([(1, eq(0))])
        im.record(5, "int", 777)  # an input no constraint mentions
        plan, _ = solve(constraints, stack, im)
        assert plan.im[5].value == 777

    def test_empty_run_has_nothing_to_flip(self):
        constraints, stack, im = build_run([])
        plan, _ = solve(constraints, stack, im)
        assert plan is None

    def test_bfs_flips_shallowest(self):
        constraints, stack, im = build_run([(1, eq(0)), (1, eq(1))])
        plan = expand(constraints, stack, im)[0]
        assert len(plan.stack) == 1
        assert plan.stack[0] & 1 == 0
        assert plan.im[0].value != 0
