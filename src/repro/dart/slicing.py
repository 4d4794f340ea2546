"""Constraint independence slicing (variable-sharing groups, union-find).

``solve_path_constraint`` (Fig. 5) hands the solver the *entire*
path-constraint prefix for every candidate branch flip, but most conjuncts
share no variables with the negated one: a path through k independent
conditionals yields solver queries that are k times larger than necessary.
This module partitions a prefix into variable-sharing groups with a
union-find and extracts only the group touching the negated conjunct.

**Soundness.** The untouched-group argument: the sliced query mentions
exactly the variables of the negated conjunct's group, so the solver's
model reassigns only those; the ``IM + IM'`` merge (Fig. 5) preserves
every other slot, which keeps every untouched group satisfied by the very
values that already satisfied it.  The concatenation (untouched groups
under ``IM``) ∧ (sliced group under ``IM'``) therefore satisfies the full
predicted path constraint.  Slicing can change *which* model the solver
picks (it no longer re-solves independent groups), so it is part of the
options digest — but never whether a branch is feasible: a group is
satisfiable in isolation iff it is satisfiable conjoined with other
satisfiable groups over disjoint variables.

That argument leans on a premise the recording layer now enforces: the
run's input vector ``IM`` satisfies every recorded prefix conjunct.  It
holds trivially for ideal-integer conjuncts the run executed under, and
the machine-integer widening layer (:mod:`repro.symbolic.widen`) keeps it
for wrap-/unsigned-affected comparisons by rewriting them through
run-anchored wrap quotients instead of recording a conjunct that is
*false of its own run* (the hole differential fuzzing surfaced — see
``tests/corpus/seed*.json``: leaving such a conjunct out of the sliced
query produced "next input" plans that violated the very prefix they
claimed to satisfy).  The faithfulness barrier below is therefore a
**fallback-only** safety net: it re-checks every prefix conjunct against
the run's assignment and force-includes the groups of any that still
fail — which, with widening in place, is the empty set unless the
widener itself had to drop a conjunct (``all_faithful`` cleared) or an
invariant was violated.  The net stays because its cost is one evaluate
per conjunct and it converts a potential unsound plan into an explicit,
solvable obligation.

Completeness is likewise unaffected: UNSAT of the sliced group implies
UNSAT of any superset, so an all-UNSAT flip stays a proof.
"""


class UnionFind:
    """Plain union-find with path halving (no ranks; unions are few)."""

    __slots__ = ("parent",)

    def __init__(self):
        self.parent = {}

    def find(self, item):
        parent = self.parent
        root = parent.setdefault(item, item)
        while root != parent[root]:
            parent[root] = parent[parent[root]]
            root = parent[root]
        if item != root:
            parent[item] = root
        return root

    def union(self, a, b):
        root_a = self.find(a)
        root_b = self.find(b)
        if root_a != root_b:
            self.parent[root_b] = root_a

    def classes(self):
        """The classes as sets, in the order their items were first seen."""
        by_root = {}
        for item in self.parent:
            by_root.setdefault(self.find(item), set()).add(item)
        return list(by_root.values())


class ConstraintSlicer:
    """Slices prefixes of one run's constraint list into variable groups.

    Built once per completed run from the aligned constraint list
    (``None`` entries are concrete-fallback branches and never join any
    group).  ``slice(j, negated)`` returns the conjuncts of
    ``constraints[:j]`` in the variable-sharing group of ``negated``, plus
    ``negated`` itself, in prefix order.

    The union-find is grown incrementally while candidate indices ascend
    (the generational engines); a descending candidate (dfs) rebuilds it,
    which is still O(prefix) per candidate — the cost the unsliced query
    construction paid anyway, and noise next to a solver call.
    """

    def __init__(self, constraints, assignment=None):
        self._constraints = constraints
        # Variable tuples, computed once per run (satellite of the same
        # hoisting that moved im.domains() out of the candidate loop).
        self._vars = [
            tuple(c.variables()) if c is not None else ()
            for c in constraints
        ]
        self._uf = UnionFind()
        self._processed = 0
        #: Prefix positions whose conjunct the run's own inputs do NOT
        #: satisfy.  Widening keeps this empty in practice (see the
        #: module docstring); any stragglers — a dropped conjunct's
        #: neighbors after an invariant violation — still join every
        #: sliced query as the last line of defense.
        self._unfaithful = []
        if assignment is not None:
            for index, conjunct in enumerate(constraints):
                if conjunct is None:
                    continue
                try:
                    faithful = conjunct.evaluate(assignment)
                except KeyError:
                    faithful = False
                if not faithful:
                    self._unfaithful.append(index)

    def _advance(self, j):
        """Ensure all constraints[:j] have been unioned (monotone)."""
        if j < self._processed:
            self._uf = UnionFind()
            self._processed = 0
        uf = self._uf
        for i in range(self._processed, j):
            variables = self._vars[i]
            if variables:
                first = variables[0]
                uf.find(first)
                for var in variables[1:]:
                    uf.union(first, var)
        self._processed = j

    def slice(self, j, negated):
        """The sliced solver query for flipping conditional ``j``."""
        self._advance(j)
        uf = self._uf
        # The negated conjunct may span several prefix groups; flipping it
        # links them, so every one of its variables' roots is in scope.
        roots = {uf.find(var) for var in negated.variables()}
        # Conjuncts the current inputs fail to satisfy cannot rely on the
        # untouched-group argument: pull their groups into the query so
        # the solver re-satisfies them explicitly.  An unfaithful conjunct
        # with no variables at all is constant-false — no model can mend
        # it, so adding it (correctly) turns the query UNSAT.
        query = []
        for index in self._unfaithful:
            if index < j:
                if self._vars[index]:
                    for var in self._vars[index]:
                        roots.add(uf.find(var))
                else:
                    query.append(self._constraints[index])
        if roots:
            vars_by_index = self._vars
            constraints = self._constraints
            for i in range(j):
                variables = vars_by_index[i]
                if variables and uf.find(variables[0]) in roots:
                    query.append(constraints[i])
        query.append(negated)
        return query
