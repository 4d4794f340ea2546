"""The differential oracle battery.

Seven independent ways the pipeline can contradict itself, each checked
on every generated program (the fault-containment probe on a sample):

1. **Instrumentation transparency** — the same input vector is executed
   three times: concretely (no symbolic tracking), concretely again (VM
   determinism), and with full symbolic instrumentation.  All observable
   concrete state (fault, return value, printf output, step count, branch
   trace) must be identical: maintaining ``S`` beside ``M`` must never
   perturb ``M``.
2. **Configuration invariance** — the same program is searched with
   constraint slicing on/off, the solver result cache on/off, and
   (sampled) ``--jobs 4`` vs. serial.  Whenever two sessions both reach a
   *definitive* verdict (complete exploration), their verdict, error set
   and branch coverage must agree — the PR 2 layers are claimed
   verdict-preserving, and this is the claim's enforcement.  Any
   ``internal-error`` quarantine in any session is a harness bug and is
   reported regardless.
3. **Solver models** — every SAT model returned inside a session is
   re-checked by substitution into the original constraints (independent
   of the solver's own verification), and small-domain constraint systems
   are fuzzed directly against brute-force enumeration, with and without
   the result cache in front.
4. **Forcing replay** — a directed micro-loop replays every
   solver-suggested input vector and checks it satisfies the *full*
   non-concrete path-constraint prefix plus the negated conjunct (the
   slicing soundness invariant).  A runtime prediction mismatch falls
   back to the paper's ``forcing_ok`` restart semantics — mismatches are
   an expected consequence of the documented under-approximations (value
   casts, wrap-around), not divergences; an input vector that violates
   the very constraints the solver claimed to satisfy *is* one.
5. **Engine differential** — every transparency vector is additionally
   replayed under the compiled execution engine, both concretely and
   with full symbolic instrumentation, and must reproduce the
   interpreter's observation field-for-field (including the count of
   symbolically-tracked instructions on the instrumented side).  The
   configuration-invariance matrix also runs one whole session with
   ``compiled_execution=False``, so a lowering bug that only shows up
   across a full directed search (not a single vector) is caught as a
   verdict/coverage disagreement.
6. **Fault containment** (sampled) — see :meth:`OracleBattery.check_chaos`.
7. **Front-end identity** — a session's program is lexed, parsed,
   analysed and lowered once (:class:`repro.minic.SourceUnit`), and only
   the generated driver is compiled per session, in the program's scope
   and appended to the program's module.  The module that builds must list
   (disassembly, driver included, plus every instruction's source
   location, the globals and the strings) exactly as the module
   ``compile_program(source + driver)`` builds from the plain text, and the
   coupling classes computed from the session's shared AST must equal those
   computed from the source text alone.

**Soundness.** Every oracle compares two independent derivations of the
same fact (two executions, two configurations, a model vs. its
constraints), so a report is a genuine contradiction in the pipeline,
never a property of the generator — and the shrinker re-checks the same
oracle after every reduction step, so a minimized repro still witnesses
the original divergence.
"""

import itertools
import random

from repro.dart.config import DartOptions
from repro.dart.driver import DRIVER_ENTRY, build_test_program, \
    generate_driver
from repro.dart.independence import coupling_classes
from repro.dart.interface import extract_interface
from repro.dart.inputs import InputVector
from repro.dart.instrument import DirectedHooks, ForcingMismatch
from repro.dart.report import BUG_FOUND, COMPLETE, RunStats
from repro.dart.runner import Dart
from repro.dart.solve import solve_path_constraint, solve_with_retry
from repro.interp.compile import CompiledProgram
from repro.interp.faults import ExecutionFault
from repro.interp.machine import Machine, MachineOptions
from repro.minic import SourceUnit, compile_program
from repro.minic.disasm import disassemble
from repro.minic.errors import MiniCError
from repro.solver import Solver, SolverResultCache
from repro.symbolic.expr import CmpExpr, EQ, GE, GT, LE, LT, LinExpr, NE
from repro.symbolic.flags import CompletenessFlags
from repro.symbolic.widen import WidenedCmp


class Divergence:
    """One oracle violation, with enough context to shrink and replay."""

    def __init__(self, oracle, detail, inputs=None, kinds=None):
        #: Which oracle fired: "determinism", "transparency", "engine",
        #: "config", "quarantine", "substitution", "solver", "chaos" or
        #: "frontend".
        self.oracle = oracle
        self.detail = detail
        #: The triggering input vector, when the oracle has one.
        self.inputs = list(inputs) if inputs is not None else None
        self.kinds = list(kinds) if kinds is not None else None

    def describe(self):
        text = "[{}] {}".format(self.oracle, self.detail)
        if self.inputs is not None:
            text += " (inputs {})".format(self.inputs)
        return text

    def __repr__(self):
        return "Divergence({!r})".format(self.describe())


class OracleOptions:
    """Budgets for one program's oracle battery."""

    def __init__(self, vectors=3, dart_iterations=120, forcing_iterations=24,
                 max_steps=300_000, parallel_jobs=4, solver_systems=2):
        #: Random input vectors per program for the transparency oracle.
        self.vectors = vectors
        #: Run budget for each configuration-invariance session.
        self.dart_iterations = dart_iterations
        #: Directed runs of the forcing/substitution micro-loop.
        self.forcing_iterations = forcing_iterations
        self.max_steps = max_steps
        self.parallel_jobs = parallel_jobs
        #: Small-domain systems fed to the brute-force solver check.
        self.solver_systems = solver_systems


class _FixedHooks:
    """Concrete replay of a recorded input vector; symbolic stays dark."""

    def __init__(self, im):
        self.im = im
        self._next_ordinal = 0

    def acquire_input(self, kind):
        ordinal = self._next_ordinal
        self._next_ordinal += 1
        value = self.im.value_or_none(ordinal, kind)
        return (value if value is not None else 0), None

    def on_branch(self, taken, constraint, location):
        pass


class _RecordingHooks:
    """Concrete execution that draws fresh random inputs and records them."""

    def __init__(self, im, rng):
        self.im = im
        self._rng = rng
        self._next_ordinal = 0

    def acquire_input(self, kind):
        from repro.dart.inputs import random_value

        ordinal = self._next_ordinal
        self._next_ordinal += 1
        value = self.im.value_or_none(ordinal, kind)
        if value is None:
            value = random_value(kind, self._rng)
            self.im.record(ordinal, kind, value)
        return value, None

    def on_branch(self, taken, constraint, location):
        pass


class _CheckingSolver:
    """Delegating solver proxy that re-verifies every SAT model by
    substitution — independently of the solver's internal ``_verify``."""

    def __init__(self, inner, violations):
        self._inner = inner
        self.violations = violations

    @property
    def node_budget(self):
        return self._inner.node_budget

    def solve(self, constraints, domains=None, node_budget=None):
        constraints = list(constraints)
        result = self._inner.solve(constraints, domains,
                                   node_budget=node_budget)
        if result.is_sat:
            problem = _substitution_error(constraints, domains or {},
                                          result.model)
            if problem is not None:
                self.violations.append(problem)
        return result

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _substitution_error(constraints, domains, model):
    """Why ``model`` fails ``constraints`` under ``domains``, or None."""
    for constraint in constraints:
        for var in constraint.variables():
            if var not in model:
                return "model omits x{} of {!r}".format(var, constraint)
            lo, hi = domains.get(var, (-(1 << 31), (1 << 31) - 1))
            if not lo <= model[var] <= hi:
                return "x{}={} outside [{}, {}]".format(
                    var, model[var], lo, hi)
        if not constraint.evaluate(model):
            return "model {} violates {!r}".format(model, constraint)
    return None


def _module_listing(module):
    """What must not change when the front end changes: the disassembly
    with the driver, each instruction's source location, the globals and
    the interned strings."""
    locations = [
        (name, [str(instr.location) for instr in function.instrs])
        for name, function in sorted(module.functions.items())
    ]
    globals_ = [(var.name, str(var.ctype)) for var in module.globals]
    return (disassemble(module, include_driver=True), locations, globals_,
            module.strings)


def front_end_divergence(source, toplevel, depth=1, max_init_depth=None):
    """How a session's one-lex front end disagrees with the plain
    pipeline on ``source``, or None.

    The session side is what :class:`repro.dart.runner.Dart` does, once
    per session (pool workers are forked with it, so they never rebuild
    it): one :class:`SourceUnit`, which sessions over the same text
    share, serves ``build_test_program`` and then ``coupling_classes``.
    The reference compiles ``source + driver`` as plain text and computes
    the classes from the source text.
    """
    unit = SourceUnit(source, "<program>")
    module = build_test_program(unit, toplevel, depth=depth,
                                max_init_depth=max_init_depth)
    shared = coupling_classes(unit, toplevel, depth)
    interface, _ = extract_interface(source, toplevel)
    reference = compile_program(source + generate_driver(
        interface, depth=depth, max_init_depth=max_init_depth),
        "<program>")
    if _module_listing(module) != _module_listing(reference):
        return ("the module built from one lex differs from "
                "compile_program(source + driver)")
    alone = coupling_classes(source, toplevel, depth)
    if shared != alone:
        return "coupling classes from the shared AST {} != {} from the " \
            "source text".format(shared, alone)
    return None


class _Observation:
    """Everything observable about one concrete execution.

    ``symbolic_steps`` rides along for the engine-differential oracle but
    is excluded from :meth:`diff`: the transparency oracle compares dark
    (0) against instrumented (>0) runs, where it differs by design.
    """

    _COMPARED = ("fault", "value", "output", "steps", "branches", "trace")
    __slots__ = _COMPARED + ("symbolic_steps",)

    def __init__(self, fault, value, output, steps, branches, trace,
                 symbolic_steps=0):
        self.fault = fault        # (kind, location text) or None
        self.value = value        # concrete return value (None on fault)
        self.output = output      # captured printf bytes
        self.steps = steps
        self.branches = branches  # branches_executed
        self.trace = trace        # frozenset of covered branch directions
        self.symbolic_steps = symbolic_steps

    def diff(self, other):
        """First observable difference against ``other``, or None."""
        for field in self._COMPARED:
            mine, theirs = getattr(self, field), getattr(other, field)
            if mine != theirs:
                return "{}: {!r} != {!r}".format(field, mine, theirs)
        return None


class OracleBattery:
    """Runs the oracle suite against one generated program at a time."""

    def __init__(self, opts=None):
        self.opts = opts or OracleOptions()
        self.counters = {
            "programs": 0, "vectors": 0, "dart_sessions": 0,
            "definitive_pairs": 0, "skipped_pairs": 0,
            "forcing_mismatches": 0, "plans_checked": 0,
            "solver_systems": 0, "solver_unknown": 0,
            "parallel_sessions": 0, "chaos_probes": 0,
            "engine_runs": 0,
            "conjuncts_widened": 0, "conjuncts_dropped_unfaithful": 0,
        }
        #: One compiled lowering per module (keyed by identity): every
        #: engine-differential run of the same program reuses it, which
        #: is itself part of the property — lowering is stateless.
        self._compiled_cache = None

    # -- shared plumbing ----------------------------------------------------

    def _machine_options(self):
        return MachineOptions(max_steps=self.opts.max_steps)

    def _dart_options(self, **overrides):
        base = dict(
            max_iterations=self.opts.dart_iterations,
            stop_on_first_error=False,
            max_steps=self.opts.max_steps,
            handle_signals=False,
            seed=0,
        )
        base.update(overrides)
        return DartOptions(**base)

    def _observe(self, module, hooks, compiled=None):
        machine = Machine(module, self._machine_options(), hooks,
                          CompletenessFlags(), compiled=compiled)
        fault = None
        value = None
        try:
            value = machine.run(DRIVER_ENTRY)
        except ExecutionFault as caught:
            fault = (caught.kind, str(caught.location))
        return _Observation(
            fault, value, b"".join(machine.output), machine.steps,
            machine.branches_executed, frozenset(machine.covered_branches),
            machine.symbolic_steps,
        )

    def _compiled(self, module):
        cached = self._compiled_cache
        if cached is None or cached.module is not module:
            self._compiled_cache = cached = CompiledProgram(module)
        return cached

    # -- oracle 1: instrumentation transparency -----------------------------

    def check_transparency(self, program, module=None):
        if module is None:
            module = build_test_program(program.render(), program.toplevel)
        divergences = []
        for vector in range(self.opts.vectors):
            rng = random.Random(
                (program.seed or 0) * 1_000_003 + 7919 * vector)
            im = InputVector()
            baseline = self._observe(module, _RecordingHooks(im, rng))
            self.counters["vectors"] += 1
            values = im.values()
            kinds = [slot.kind for slot in im]
            divergences.extend(self.check_transparency_vector(
                program, values, kinds, module=module, baseline=baseline))
            if divergences:
                break
        return divergences

    def check_transparency_vector(self, program, values, kinds,
                                  module=None, baseline=None):
        """Transparency + determinism oracles on one explicit vector."""
        if module is None:
            module = build_test_program(program.render(), program.toplevel)
        im = InputVector()
        for ordinal, value in enumerate(values):
            im.record(ordinal, kinds[ordinal], value)
        if baseline is None:
            baseline = self._observe(module, _FixedHooks(im.clone()))
        divergences = []
        again = self._observe(module, _FixedHooks(im.clone()))
        delta = baseline.diff(again)
        if delta is not None:
            divergences.append(Divergence(
                "determinism",
                "two concrete runs of one input vector differ: " + delta,
                values, kinds))
        instrumented = self._observe(module, DirectedHooks(
            im.clone(), b"", CompletenessFlags(), random.Random(0),
            self._dart_options()))
        delta = baseline.diff(instrumented)
        if delta is not None:
            divergences.append(Divergence(
                "transparency",
                "symbolic instrumentation perturbed concrete state: "
                + delta, values, kinds))
        divergences.extend(self._check_engines(
            module, im, baseline, instrumented, values, kinds))
        return divergences

    # -- oracle 5: engine differential --------------------------------------

    def _check_engines(self, module, im, baseline, instrumented,
                       values, kinds):
        """Replay one vector under the compiled engine, dark and
        instrumented; both runs must reproduce the interpreter's
        observation exactly (the lowering's bit-identity invariant), and
        the instrumented replay doubles as the transparency oracle with
        the compiled engine as the instrumented side."""
        compiled = self._compiled(module)
        divergences = []
        self.counters["engine_runs"] += 2
        concrete = self._observe(module, _FixedHooks(im.clone()),
                                 compiled=compiled)
        delta = baseline.diff(concrete)
        if delta is not None:
            divergences.append(Divergence(
                "engine",
                "compiled concrete execution diverges from the "
                "interpreter: " + delta, values, kinds))
        replay = self._observe(module, DirectedHooks(
            im.clone(), b"", CompletenessFlags(), random.Random(0),
            self._dart_options()), compiled=compiled)
        delta = baseline.diff(replay)
        if delta is None \
                and replay.symbolic_steps != instrumented.symbolic_steps:
            delta = "symbolic_steps: {!r} != {!r}".format(
                replay.symbolic_steps, instrumented.symbolic_steps)
        if delta is not None:
            divergences.append(Divergence(
                "engine",
                "compiled instrumented execution diverges from the "
                "interpreter: " + delta, values, kinds))
        return divergences

    # -- oracle 2: configuration invariance ---------------------------------

    def _session(self, program, check_models=True, **overrides):
        dart = Dart(program.render(), program.toplevel,
                    self._dart_options(**overrides))
        violations = []
        if check_models and overrides.get("jobs", 1) == 1:
            dart.solver = _CheckingSolver(dart.solver, violations)
        result = dart.run()
        self.counters["dart_sessions"] += 1
        self.counters["conjuncts_widened"] += \
            result.stats.conjuncts_widened
        self.counters["conjuncts_dropped_unfaithful"] += \
            result.stats.conjuncts_dropped_unfaithful
        return result, violations

    def _definitive(self, result):
        """True when the session finished its whole-program exploration
        (so its verdict and error set are semantic facts, not budget
        artifacts)."""
        if result.status == COMPLETE:
            return True
        return (result.status == BUG_FOUND and all(result.flags)
                and result.stats.iterations < self.opts.dart_iterations)

    @staticmethod
    def _error_keys(result):
        return sorted((error.kind, str(error.location))
                      for error in result.errors)

    @staticmethod
    def _search(result):
        return result.iterations, [(error.kind, str(error.location),
                                    error.inputs) for error in result.errors]

    def _compare_sessions(self, label_a, a, label_b, b, same_search=False):
        """Definitive pairs must agree on verdict, error set and coverage;
        with ``same_search`` (serial vs. pool: one search, two executors)
        also on the run count and every error's input vector."""
        divergences = []
        if self._definitive(a) and self._definitive(b):
            self.counters["definitive_pairs"] += 1
            if a.status != b.status:
                divergences.append(Divergence("config", (
                    "verdict differs: {}={} vs {}={}"
                ).format(label_a, a.status, label_b, b.status)))
            if self._error_keys(a) != self._error_keys(b):
                divergences.append(Divergence("config", (
                    "error sets differ: {}={} vs {}={}"
                ).format(label_a, self._error_keys(a),
                         label_b, self._error_keys(b))))
            if a.stats.covered_branches != b.stats.covered_branches:
                missing = a.stats.covered_branches \
                    ^ b.stats.covered_branches
                divergences.append(Divergence("config", (
                    "branch coverage differs between {} and {} "
                    "(symmetric difference {})"
                ).format(label_a, label_b, sorted(missing)[:4])))
            if same_search and self._search(a) != self._search(b):
                divergences.append(Divergence("config", (
                    "(iterations, error inputs) differ: {}={} vs {}={}"
                ).format(label_a, self._search(a),
                         label_b, self._search(b))))
        else:
            self.counters["skipped_pairs"] += 1
        return divergences

    def _quarantine_divergences(self, label, result):
        divergences = []
        for record in result.stats.quarantined:
            if record.classification == "internal-error":
                divergences.append(Divergence(
                    "quarantine",
                    "{}: internal error escaped the machine: {}".format(
                        label, record.detail),
                    record.inputs, record.kinds))
        return divergences

    def check_config_invariance(self, program):
        sessions = {}
        divergences = []
        for label, overrides in (
            ("base", {}),
            ("noslice", {"constraint_slicing": False}),
            ("nocache", {"solver_cache": False}),
            ("nocompile", {"compiled_execution": False}),
            ("nosubsume", {"subsumption": False}),
        ):
            result, violations = self._session(program, **overrides)
            sessions[label] = result
            divergences.extend(self._quarantine_divergences(label, result))
            for violation in violations:
                divergences.append(Divergence(
                    "solver", "{}: {}".format(label, violation)))
        base = sessions["base"]
        for label in ("noslice", "nocache", "nocompile", "nosubsume"):
            divergences.extend(
                self._compare_sessions("base", base, label, sessions[label]))
        return divergences

    def check_parallel_invariance(self, program):
        """Serial vs. ``jobs=N`` generational search (sampled: process
        pools are expensive, and the property is config-independent)."""
        divergences = []
        serial, _ = self._session(program, strategy="bfs")
        parallel, _ = self._session(
            program, strategy="bfs", jobs=self.opts.parallel_jobs,
            check_models=False)
        self.counters["parallel_sessions"] += 1
        divergences.extend(self._quarantine_divergences("serial", serial))
        divergences.extend(
            self._quarantine_divergences("parallel", parallel))
        divergences.extend(
            self._compare_sessions("serial", serial, "jobs", parallel,
                                   same_search=True))
        return divergences

    # -- oracle 3: solver vs. brute force -----------------------------------

    _OPS = (EQ, NE, LT, LE, GT, GE)

    def check_constraint_fuzz(self, rng, systems=None):
        """Random small-domain systems: solver vs. exhaustive enumeration,
        then the same query through the result cache."""
        divergences = []
        solver = Solver(seed=rng.randrange(1 << 30))
        cache = SolverResultCache()
        for _ in range(systems or self.opts.solver_systems):
            self.counters["solver_systems"] += 1
            nvars = rng.randint(1, 3)
            domains = {}
            for var in range(nvars):
                a, b = rng.randint(-4, 4), rng.randint(-4, 4)
                domains[var] = (min(a, b), max(a, b))
            constraints = []
            for _ in range(rng.randint(1, 4)):
                coeffs = {var: rng.randint(-3, 3) for var in range(nvars)}
                constraints.append(CmpExpr(
                    rng.choice(self._OPS),
                    LinExpr(coeffs, rng.randint(-6, 6))))
            satisfiable = self._brute_force(constraints, domains)
            result = solver.solve(constraints, domains)
            divergences.extend(self._judge_solver_answer(
                "solver", constraints, domains, result, satisfiable))
            # The same query twice through the cache front end: the second
            # answer comes from the cache and must not change the verdict.
            stats = RunStats()
            solve_with_retry(solver, constraints, domains, stats,
                             cache=cache)
            cached = solve_with_retry(solver, constraints, domains, stats,
                                      cache=cache)
            divergences.extend(self._judge_solver_answer(
                "cache", constraints, domains, cached, satisfiable))
            if divergences:
                break
        return divergences

    @staticmethod
    def _brute_force(constraints, domains):
        spans = [range(lo, hi + 1) for _, (lo, hi) in sorted(domains.items())]
        names = sorted(domains)
        for values in itertools.product(*spans):
            model = dict(zip(names, values))
            if all(c.evaluate(model) for c in constraints):
                return True
        return False

    def _judge_solver_answer(self, label, constraints, domains, result,
                             satisfiable):
        if result.status == "unknown":
            self.counters["solver_unknown"] += 1
            return []
        if result.is_sat:
            problem = _substitution_error(constraints, domains, result.model)
            if problem is not None:
                return [Divergence("solver", "{}: {}".format(label, problem))]
            if not satisfiable:
                return [Divergence("solver", (
                    "{}: SAT with model {} but brute force proves UNSAT "
                    "over {}"
                ).format(label, result.model, domains))]
            return []
        if satisfiable:
            return [Divergence("solver", (
                "{}: UNSAT claimed but brute force finds a model "
                "for {!r} over {}"
            ).format(label, constraints, domains))]
        return []

    # -- oracle 4: forcing replay + full-prefix substitution ----------------

    def check_forcing(self, program, module=None):
        if module is None:
            module = build_test_program(program.render(), program.toplevel)
        options = self._dart_options()
        solver = Solver(seed=0)
        cache = SolverResultCache()
        flags = CompletenessFlags()
        stats = RunStats()
        rng = random.Random(program.seed if program.seed is not None else 0)
        im, stack = InputVector(), b""
        for _ in range(self.opts.forcing_iterations):
            hooks = DirectedHooks(im, stack, flags, rng, options)
            machine = Machine(module, self._machine_options(), hooks, flags)
            mismatched = False
            try:
                machine.run(DRIVER_ENTRY)
            except ForcingMismatch:
                mismatched = True
            except ExecutionFault:
                pass
            if mismatched:
                # The paper's graceful degradation: restart the directed
                # search from a fresh random input vector.
                self.counters["forcing_mismatches"] += 1
                flags = CompletenessFlags()
                im, stack = InputVector(), b""
                continue
            child = solve_path_constraint(
                hooks.constraints, hooks.stack, im, solver, flags,
                stats, cache=cache, slicing=True)
            if child is None:
                break
            stack, im, _bound, _fp = child
            problem = self._check_plan(hooks.constraints, stack, im)
            if problem is not None:
                return [Divergence(
                    "substitution", problem,
                    im.values(), [slot.kind for slot in im])]
        return []

    def _check_plan(self, constraints, stack, im):
        """The slicing soundness invariant, checked by pure arithmetic:
        the next input vector must satisfy every non-concrete conjunct of
        the executed prefix *and* the negated target conjunct."""
        self.counters["plans_checked"] += 1
        flip = len(stack) - 1
        assignment = dict(enumerate(im.values()))
        for index in range(flip):
            conjunct = constraints[index]
            if conjunct is not None and not conjunct.evaluate(assignment):
                return ("planned inputs violate prefix conjunct {} "
                        "({!r})").format(index, conjunct)
            problem = self._wrapped_semantics_error(index, conjunct,
                                                    assignment)
            if problem is not None:
                return problem
        flip_target = constraints[flip]
        if isinstance(flip_target, WidenedCmp):
            # The flip may have been solved in any wrap window (see
            # repro.symbolic.widen.negation_candidates), so the anchored
            # negation need not hold over the ideal integers.  The
            # encoding-independent requirement is that the planned inputs
            # falsify the original conjunct under wrapped machine
            # semantics — then the machine takes the other branch.
            if flip_target.machine_verdict(assignment):
                return ("planned inputs do not flip widened conjunct {} "
                        "({!r}) under wrapped machine semantics"
                        ).format(flip, flip_target)
            return None
        negated = flip_target.negate()
        if not negated.evaluate(assignment):
            return ("planned inputs do not satisfy the negated conjunct "
                    "{} ({!r})").format(flip, negated)
        return None

    @staticmethod
    def _wrapped_semantics_error(index, conjunct, assignment):
        """Widened conjuncts claim bit-precision: whenever the rewritten
        comparison and its window guards hold ideally, re-evaluating the
        original lanes under mod-2^32 wrap-around must reach the same
        verdict.  A disagreement means the widening produced an input the
        machine will read differently than the solver did."""
        if not isinstance(conjunct, WidenedCmp):
            return None
        if not conjunct.evaluate(assignment):
            return None
        if not conjunct.machine_verdict(assignment):
            return ("widened conjunct {} ({!r}) holds over the ideal "
                    "integers but fails under wrapped machine semantics"
                    ).format(index, conjunct)
        return None

    # -- oracle 6: fault containment (chaos probe) ---------------------------

    def check_chaos(self, program):
        """Clean vs. seeded-fault DART session on a generated program.

        Delegates to :func:`repro.faults.chaos.chaos_probe`: in-process
        fault sites only, plan derived from the program seed so every
        violation is replayable.  The invariants are containment (no
        crash escapes the fault boundaries) and honesty (a faulted
        session never *invents* errors a clean exhaustive session did
        not find).
        """
        from repro.faults.chaos import chaos_probe

        self.counters["chaos_probes"] += 1
        self.counters["dart_sessions"] += 2
        violations = chaos_probe(
            program.render(), program.toplevel,
            dict(max_iterations=self.opts.dart_iterations,
                 stop_on_first_error=False, max_steps=self.opts.max_steps,
                 handle_signals=False, seed=0),
            (program.seed or 0) * 1_000_003 + 4242,
        )
        return [Divergence("chaos", violation) for violation in violations]

    # -- oracle 7: front-end identity ----------------------------------------

    def check_front_end(self, program):
        detail = front_end_divergence(program.render(), program.toplevel)
        return [] if detail is None else [Divergence("frontend", detail)]

    # -- the full battery ---------------------------------------------------

    def check(self, program, parallel=False, solver_rng=None, chaos=False):
        """Run every oracle on ``program``; returns all divergences."""
        self.counters["programs"] += 1
        try:
            module = build_test_program(program.render(), program.toplevel)
        except MiniCError as error:
            return [Divergence(
                "generator", "generated program does not compile: {}"
                .format(error))]
        divergences = self.check_front_end(program)
        divergences.extend(self.check_transparency(program, module))
        divergences.extend(self.check_forcing(program, module))
        divergences.extend(self.check_config_invariance(program))
        if parallel:
            divergences.extend(self.check_parallel_invariance(program))
        if chaos:
            divergences.extend(self.check_chaos(program))
        if solver_rng is not None:
            divergences.extend(self.check_constraint_fuzz(solver_rng))
        return divergences

    def check_named(self, program, oracle):
        """Re-run only the oracle family that produced ``oracle`` —
        the reducer's predicate."""
        try:
            module = build_test_program(program.render(), program.toplevel)
        except MiniCError:
            return []
        if oracle in ("determinism", "transparency", "engine"):
            return [d for d in self.check_transparency(program, module)
                    if d.oracle == oracle]
        if oracle == "substitution":
            return self.check_forcing(program, module)
        if oracle in ("config", "quarantine", "solver"):
            return [d for d in self.check_config_invariance(program)
                    if d.oracle == oracle]
        if oracle == "chaos":
            return self.check_chaos(program)
        if oracle == "frontend":
            return self.check_front_end(program)
        return []
