"""Property tests for the solver-result cache's canonical keys.

The cache (repro.solver.cache) identifies a query by the *set* of
``CmpExpr.key()``s plus the domains of the variables they mention.  For
that identity to be sound it must be insensitive to every representation
accident — the order conjuncts were recorded in, the insertion order of
LinExpr coefficient dicts, duplicated conjuncts — while never conflating
two genuinely different constraint sets in a way that would let a cached
answer contradict the query it is returned for.  Hypothesis drives all
three obligations here with randomly built constraint systems.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.solver import Solver, SolverResultCache
from repro.solver.cache import EXACT, UNSAT_SUPERSET
from repro.symbolic.expr import EQ, GE, GT, LE, LT, NE, CmpExpr, LinExpr

OPS = [EQ, NE, LT, LE, GT, GE]

coeff_items = st.lists(
    st.tuples(st.integers(min_value=0, max_value=5),
              st.integers(min_value=-8, max_value=8)),
    min_size=1, max_size=4,
    unique_by=lambda item: item[0],
)

lin_exprs = st.builds(
    lambda items, const: LinExpr(dict(items), const),
    coeff_items,
    st.integers(min_value=-20, max_value=20),
)

cmp_exprs = st.builds(
    lambda op, lin: CmpExpr(op, lin),
    st.sampled_from(OPS),
    lin_exprs,
)

constraint_lists = st.lists(cmp_exprs, min_size=1, max_size=5)

domain_maps = st.dictionaries(
    st.integers(min_value=0, max_value=5),
    st.tuples(st.integers(min_value=-10, max_value=0),
              st.integers(min_value=0, max_value=10)),
    max_size=6,
)


@settings(deadline=None, max_examples=200)
@given(constraint_lists, domain_maps, st.data())
def test_query_key_invariant_under_conjunct_order(constraints, domains, data):
    shuffled = data.draw(st.permutations(constraints))
    assert SolverResultCache.query_key(constraints, domains) == \
        SolverResultCache.query_key(shuffled, domains)


@settings(deadline=None, max_examples=200)
@given(constraint_lists, domain_maps)
def test_query_key_ignores_duplicate_conjuncts(constraints, domains):
    doubled = constraints + list(reversed(constraints))
    assert SolverResultCache.query_key(constraints, domains) == \
        SolverResultCache.query_key(doubled, domains)


@settings(deadline=None, max_examples=200)
@given(st.sampled_from(OPS), coeff_items,
       st.integers(min_value=-20, max_value=20))
def test_lin_key_invariant_under_term_insertion_order(op, items, const):
    forward = CmpExpr(op, LinExpr(dict(items), const))
    backward = CmpExpr(op, LinExpr(dict(reversed(items)), const))
    assert forward.key() == backward.key()
    assert SolverResultCache.query_key([forward], {}) == \
        SolverResultCache.query_key([backward], {})


@settings(deadline=None, max_examples=200)
@given(lin_exprs, domain_maps)
def test_strict_inequalities_normalize_to_nonstrict_keys(lin, domains):
    """Over the integers ``lin < 0`` iff ``lin + 1 <= 0`` (and ``lin > 0``
    iff ``lin - 1 >= 0``): the two spellings of one half-space must build
    the same query key, so they share exact-tier cache entries."""
    assert SolverResultCache.query_key([CmpExpr(LT, lin)], domains) == \
        SolverResultCache.query_key([CmpExpr(LE, lin.add_const(1))], domains)
    assert SolverResultCache.query_key([CmpExpr(GT, lin)], domains) == \
        SolverResultCache.query_key([CmpExpr(GE, lin.add_const(-1))], domains)
    # ...and the normalization never conflates the half-space with its
    # complement or its boundary.
    assert SolverResultCache.query_key([CmpExpr(LT, lin)], domains) != \
        SolverResultCache.query_key([CmpExpr(GE, lin)], domains)
    assert SolverResultCache.query_key([CmpExpr(LT, lin)], domains) != \
        SolverResultCache.query_key([CmpExpr(LE, lin)], domains)


@settings(deadline=None, max_examples=100)
@given(lin_exprs, domain_maps)
def test_exact_hit_across_strict_and_nonstrict_spellings(lin, domains):
    """Priming the cache with ``lin < 0`` answers ``lin + 1 <= 0`` (and
    the GT/GE pair) from the exact tier without a second solver call."""
    cache = SolverResultCache()
    solver = Solver(seed=0)
    for strict, nonstrict in (
        (CmpExpr(LT, lin), CmpExpr(LE, lin.add_const(1))),
        (CmpExpr(GT, lin), CmpExpr(GE, lin.add_const(-1))),
    ):
        stored = solver.solve([strict], domains)
        cache.store([strict], domains, stored)
        if stored.status not in ("sat", "unsat"):
            continue
        hit = cache.lookup([nonstrict], domains)
        assert hit is not None
        result, tier = hit
        assert tier == EXACT
        assert result.status == stored.status


@settings(deadline=None, max_examples=150)
@given(constraint_lists, constraint_lists, domain_maps)
def test_distinct_key_sets_never_collide_unsoundly(first, second, domains):
    """A cache primed with ``first`` must answer ``second`` soundly.

    Whatever tier answers: an exact hit requires equal canonical keys and
    an UNSAT-superset shortcut requires the refuted set to be a subset of
    the query — so a cached verdict can never contradict a fresh solver
    call.
    """
    cache = SolverResultCache()
    solver = Solver(seed=0)
    cache.store(first, domains, solver.solve(first, domains))
    hit = cache.lookup(second, domains)
    if hit is None:
        return
    result, tier = hit
    # The cache's identity is the *canonical* key — strict inequalities
    # are normalized to their non-strict spelling — so soundness is
    # judged on canonical keys, not raw ``CmpExpr.key()``s.
    canon = SolverResultCache.canonical_cmp_key
    first_keys = {canon(c) for c in first}
    second_keys = {canon(c) for c in second}
    if tier == EXACT:
        assert first_keys == second_keys
        assert SolverResultCache.query_key(first, domains) == \
            SolverResultCache.query_key(second, domains)
    else:
        assert tier == UNSAT_SUPERSET
        assert result.status == "unsat"
        assert first_keys <= second_keys


@settings(deadline=None, max_examples=100)
@given(constraint_lists, domain_maps, st.data())
def test_exact_hit_returns_stored_verdict_for_any_order(constraints, domains,
                                                        data):
    cache = SolverResultCache()
    solver = Solver(seed=0)
    stored = solver.solve(constraints, domains)
    cache.store(constraints, domains, stored)
    if stored.status not in ("sat", "unsat"):
        assert cache.lookup(constraints, domains) is None
        return
    shuffled = data.draw(st.permutations(constraints))
    hit = cache.lookup(shuffled, domains)
    assert hit is not None
    result, tier = hit
    assert tier == EXACT
    assert result.status == stored.status
