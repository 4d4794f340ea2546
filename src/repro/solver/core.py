"""The solver facade: normalize, eliminate, propagate, search, verify.

The search phase assigns variables one at a time (smallest-domain first),
propagating after each assignment.  Small domains are enumerated
exhaustively; large domains are probed at structured candidates (bounds,
zero, midpoint, deterministic pseudo-random samples) — when the probes of a
large domain are exhausted without a full exploration the answer degrades
from UNSAT to UNKNOWN, never the reverse.  Every model is verified against
the *original* constraints and domains before SAT is reported.
"""

import random

from repro.faults import points as fault_points
from repro.solver.fm import refutes
from repro.solver.problem import (
    complete_model,
    eliminate_equalities,
    normalize,
)
from repro.solver.propagate import propagate

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"

#: Domain width below which a variable is enumerated exhaustively.
_ENUMERATE_WIDTH = 32

#: Seeded pseudo-random candidates probed per large domain, after the
#: structured ones (bounds, zero, midpoint).
_PROBE_SAMPLES = 4


class SolverResult:
    """Outcome of one solve call."""

    __slots__ = ("status", "model", "nodes")

    def __init__(self, status, model=None, nodes=0):
        self.status = status
        self.model = model
        self.nodes = nodes

    @property
    def is_sat(self):
        return self.status == SAT

    def __repr__(self):
        return "SolverResult({}, model={}, nodes={})".format(
            self.status, self.model, self.nodes
        )


class _Budget:
    __slots__ = ("remaining",)

    def __init__(self, limit):
        self.remaining = limit

    def spend(self):
        self.remaining -= 1
        return self.remaining >= 0


#: Default search-node budget of one solver call.
NODE_BUDGET = 50_000

#: A flip query answered UNKNOWN (node budget exhausted) is retried once
#: with the budget multiplied by this factor before the search degrades.
BUDGET_ESCALATION = 4


class Solver:
    """Decides conjunctions of CmpExpr constraints over bounded integers."""

    def __init__(self, seed=0, node_budget=NODE_BUDGET):
        self._seed = seed
        self._node_budget = node_budget

    @property
    def node_budget(self):
        """The default per-call node budget (for escalated retries)."""
        return self._node_budget

    def solve(self, constraints, domains=None, node_budget=None):
        """Solve ``constraints`` (iterable of CmpExpr).

        ``domains`` maps variable ordinals to (lo, hi); unmentioned
        variables default to signed int32.  ``node_budget`` overrides the
        solver's default budget for this one call (used by the DART
        engine's escalated retry after an ``unknown``).  Returns a
        :class:`SolverResult`; a SAT model assigns every variable that
        occurs in the constraints.
        """
        injector = fault_points.ACTIVE
        if injector is not None:
            # Fault seam: may raise InjectedSolverError, sleep (a slow
            # solve), or force an UNKNOWN verdict — the caller's
            # resilience paths (solve_with_retry) are the test subject.
            if injector.solver_call() == "unknown":
                return SolverResult(UNKNOWN)
        constraints = list(constraints)
        call_budget = self._node_budget if node_budget is None \
            else node_budget
        problem = normalize(constraints, domains or {})
        eliminate_equalities(problem)
        if problem.infeasible:
            return SolverResult(UNSAT)
        if refutes(problem.inequalities):
            # A rational Fourier-Motzkin contradiction (e.g. x < y < x)
            # refutes the integer system too.
            return SolverResult(UNSAT)
        search_domains = {
            var: list(bounds) for var, bounds in problem.domains.items()
        }
        # Ensure every remaining constraint variable has a domain entry.
        for lin in problem.inequalities + problem.disequalities:
            for var in lin.variables():
                if var not in search_domains:
                    search_domains[var] = list(
                        problem.domain(var)
                    )
        budget = _Budget(call_budget)
        rng = random.Random(self._seed)
        status, model = self._search(
            search_domains, problem.inequalities, problem.disequalities,
            budget, rng,
        )
        nodes = call_budget - budget.remaining
        if status != SAT:
            return SolverResult(status, nodes=nodes)
        complete_model(problem, model)
        if not self._verify(constraints, domains or {}, model):
            # Should not happen; degrade honestly rather than mislead DART.
            return SolverResult(UNKNOWN, nodes=nodes)
        return SolverResult(SAT, model, nodes=nodes)

    # -- search -------------------------------------------------------------

    def _search(self, domains, inequalities, disequalities, budget, rng):
        if not budget.spend():
            return UNKNOWN, None
        if not propagate(domains, inequalities, disequalities):
            return UNSAT, None
        undecided = [
            var for var, (lo, hi) in domains.items() if lo < hi
        ]
        if not undecided:
            model = {var: lo for var, (lo, hi) in domains.items()}
            if self._check(model, inequalities, disequalities):
                return SAT, model
            return UNSAT, None
        var = min(undecided, key=lambda v: domains[v][1] - domains[v][0])
        lo, hi = domains[var]
        width = hi - lo
        exhaustive = width < _ENUMERATE_WIDTH
        candidates = self._candidates(lo, hi, exhaustive, rng)
        saw_unknown = False
        for value in candidates:
            child = {
                v: (list(b) if v != var else [value, value])
                for v, b in domains.items()
            }
            status, model = self._search(
                child, inequalities, disequalities, budget, rng
            )
            if status == SAT:
                return SAT, model
            if status == UNKNOWN:
                saw_unknown = True
                if budget.remaining <= 0:
                    return UNKNOWN, None
        if exhaustive and not saw_unknown:
            return UNSAT, None
        return UNKNOWN, None

    def _candidates(self, lo, hi, exhaustive, rng):
        if exhaustive:
            return list(range(lo, hi + 1))
        picks = [lo, hi, lo + 1, hi - 1]
        if lo <= 0 <= hi:
            picks.append(0)
        picks.append(lo + (hi - lo) // 2)
        for _ in range(_PROBE_SAMPLES):
            picks.append(rng.randint(lo, hi))
        seen = set()
        ordered = []
        for value in picks:
            if lo <= value <= hi and value not in seen:
                seen.add(value)
                ordered.append(value)
        return ordered

    @staticmethod
    def _check(model, inequalities, disequalities):
        for lin in inequalities:
            if lin.evaluate(model) > 0:
                return False
        for lin in disequalities:
            if lin.evaluate(model) == 0:
                return False
        return True

    @staticmethod
    def _verify(constraints, domains, model):
        for constraint in constraints:
            for var in constraint.variables():
                if var not in model:
                    return False
                lo, hi = domains.get(
                    var, (-(1 << 31), (1 << 31) - 1)
                )
                if not lo <= model[var] <= hi:
                    return False
            if not constraint.evaluate(model):
                return False
        return True
