"""Configuration for DART runs."""

import hashlib

from repro.interp.codegen import walked_call_frames
from repro.interp.compile import RECURSION_CEILING, RECURSION_MARGIN
from repro.interp.memory import MemoryOptions
from repro.solver.core import BUDGET_ESCALATION, NODE_BUDGET

#: Search strategies: the paper's depth-first Fig. 5, and the orders of its
#: footnote 4 ("the next branch to be forced could be selected using a
#: different strategy, e.g., randomly or in a breadth-first manner").
STRATEGIES = ("dfs", "bfs", "random")

#: How deep in an expression a recursive call may sit (``1 + f(n -
#: 1)`` is level 1) and still reach ``MAX_CALL_DEPTH`` on either engine.
CALL_LEVEL = 6
#: The deepest ``max_call_depth`` a session accepts: either engine runs
#: that many C frames of calls up to ``CALL_LEVEL`` levels deep before
#: Python's recursion limit, raised at most to its ceiling, would cut
#: the chain short.  A chain of calls nested deeper can reach that
#: ceiling first, and its run is quarantined as resource-exhausted.
MAX_CALL_DEPTH = (RECURSION_CEILING - RECURSION_MARGIN) \
    // walked_call_frames(CALL_LEVEL)


class DartOptions:
    """All tunables of a DART (or random-testing) session.

    The defaults mirror the paper: depth-first branch selection, stop at
    the first error, 32-bit integer inputs.  ``directed_pointer_choices``
    enables the extension where the driver's NULL-or-fresh coin toss
    (Fig. 8) is itself an input variable, making pointer shapes directable
    instead of purely random; switch it off for the paper's literal
    behaviour (the ablation benchmark compares both).
    """

    def __init__(
        self,
        depth=1,
        max_iterations=10_000,
        seed=0,
        strategy="dfs",
        stop_on_first_error=True,
        max_steps=1_000_000,
        directed_pointer_choices=True,
        max_init_depth=None,
        transparent_memory=False,
        stack_limit=1 << 20,
        heap_limit=1 << 26,
        max_call_depth=256,
        track_uninitialized=False,
        time_limit=None,
        state_file=None,
        run_time_limit=None,
        checkpoint_every=25,
        handle_signals=False,
        constraint_slicing=True,
        solver_cache=True,
        subsumption=True,
        jobs=1,
        trace_file=None,
        fault_plan=None,
        compiled_execution=True,
        export_suite=None,
    ):
        if strategy not in STRATEGIES:
            raise ValueError(
                "strategy must be one of {}".format(", ".join(STRATEGIES))
            )
        if depth < 1:
            raise ValueError("depth must be at least 1")
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        if max_call_depth > MAX_CALL_DEPTH:
            raise ValueError("max_call_depth must be at most {}".format(
                MAX_CALL_DEPTH))
        #: Number of successive toplevel calls per execution (§3.2).
        self.depth = depth
        #: Upper bound on program executions (runs) per session.
        self.max_iterations = max_iterations
        #: Seed for every source of randomness (fully deterministic runs).
        self.seed = seed
        #: Branch-selection strategy: "dfs" (the paper), "bfs" or "random".
        self.strategy = strategy
        #: Stop at the first error (the paper's ``print "Bug found"; exit``)
        #: or keep searching and collect distinct errors.
        self.stop_on_first_error = stop_on_first_error
        #: RAM-machine step budget per run (non-termination detector).
        self.max_steps = max_steps
        self.directed_pointer_choices = directed_pointer_choices
        #: Bound on random_init's pointer recursion (None = unbounded, the
        #: paper's Fig. 8 behaviour; a small bound keeps directed searches
        #: over recursive input types finite).
        self.max_init_depth = max_init_depth
        #: Extension: memcpy/strcpy move symbolic values (see DESIGN.md).
        self.transparent_memory = transparent_memory
        self.stack_limit = stack_limit
        self.heap_limit = heap_limit
        self.max_call_depth = max_call_depth
        #: Extension: report reads of never-written locals/heap cells
        #: (the check the paper delegates to Purify/CCured, §3.4).
        self.track_uninitialized = track_uninitialized
        #: Optional wall-clock budget in seconds for a session.
        self.time_limit = time_limit
        #: Path for inter-run state (the paper keeps the branch stack "in
        #: a file between executions"); lets a search resume after an
        #: exhausted budget or an interrupt.  None keeps state in memory
        #: only.
        self.state_file = state_file
        #: Optional wall-clock budget in seconds for a *single* run.  A
        #: run exceeding it is quarantined as ``run-timeout`` and the
        #: search continues.  (The session ``time_limit`` is additionally
        #: enforced mid-run through the same watchdog.)
        self.run_time_limit = run_time_limit
        #: With ``state_file`` set, autosave a session checkpoint every
        #: this many runs (in addition to budget-exhaustion / signal
        #: checkpoints).  0 disables periodic autosave.
        self.checkpoint_every = checkpoint_every
        #: Install SIGINT/SIGTERM handlers for the duration of the session
        #: that checkpoint (when ``state_file`` is set) and return a
        #: partial result instead of dying mid-run.  The CLI enables this.
        self.handle_signals = handle_signals
        #: Hand the solver only the variable-sharing group of the negated
        #: conjunct instead of the whole path-constraint prefix (see
        #: repro.dart.slicing for the soundness argument).  Off reproduces
        #: the paper's Fig. 5 queries literally.
        self.constraint_slicing = constraint_slicing
        #: Cache solver verdicts keyed on canonical constraint sets, and
        #: refute supersets of proved-UNSAT sets (repro.solver.cache).
        self.solver_cache = solver_cache
        #: Subsumption layer (docs/ALGORITHM.md, "Subsumption and
        #: pruning"): record minimal UNSAT cores for cross-subtree flip
        #: refutation and dedupe worklist children whose future
        #: fingerprints coincide.  ``--no-subsumption`` ablates it
        #: (the bench gate compares both).  Requires ``solver_cache``
        #: for the core tier; worklist dedup additionally requires
        #: ``constraint_slicing``.
        self.subsumption = subsumption
        #: Worker processes for the worklist-based strategies ("bfs" and
        #: "random"): a persistent pool of long-lived workers consumes a
        #: shared queue of flip candidates (work stealing, solver calls
        #: overlapping interpretation, solver results shared through a
        #: parent-side cache server), and results are committed strictly
        #: in dispatch order so the search stays deterministic — see
        #: docs/PARALLELISM.md.  1 = in-process serial search.  The
        #: "dfs" strategy is inherently sequential (each run's plan
        #: depends on the previous run's path) and always runs
        #: single-process.
        self.jobs = jobs
        #: Write a JSONL structured trace of the session to this path
        #: (``--trace``); None disables the file sink.  See
        #: docs/OBSERVABILITY.md for the event schema.
        self.trace_file = trace_file
        #: Deterministic fault-injection schedule (``--fault-plan``): a
        #: :class:`repro.faults.plan.FaultPlan`, a spec string
        #: (``"solver.raise@2"`` / ``"seed:7"``) or None.  The runner
        #: installs an injector for the session's duration; every
        #: injected fault is traced and counted.  Test-harness only —
        #: like the trace options, it is excluded from the checkpoint
        #: fingerprint so a chaos resume accepts the interrupted
        #: session's checkpoint (and vice versa).
        self.fault_plan = fault_plan
        #: Lower the IR to specialized closures once per session and run
        #: untainted instructions on a concrete-only fast path
        #: (repro.interp.compile); ``--no-compile`` selects the
        #: tree-walking interpreter for ablation.  A pure perf knob —
        #: both engines are observationally identical (pinned by the
        #: engine-differential oracle) — so like ``jobs`` it is excluded
        #: from the checkpoint digest.
        self.compiled_execution = compiled_execution
        #: Directory to export a deduplicated replayable regression
        #: suite into when the session ends; None disables the export.
        #: A session with a destination keeps a
        #: :class:`repro.dart.report.PathWitness` (input vector, branch
        #: signature, per-run covered set) for every distinct (path,
        #: error-class) execution, the exporter's raw material; without
        #: one it keeps none, since witnesses cost memory proportional
        #: to the number of distinct paths.  Like ``trace_file`` it
        #: never steers the search, so it is excluded from the
        #: checkpoint digest — an interrupted plain campaign can be
        #: resumed with ``export_suite`` set (budget 0 works) to export
        #: whatever the checkpoint holds.
        self.export_suite = export_suite

    def digest(self):
        """A stable hash of the options that shape the *search*.

        Budget-style knobs (iteration/time limits, checkpoint cadence,
        signal handling, ``jobs``) are excluded: resuming an exhausted
        session with a bigger budget — or more worker processes — must be
        allowed, while resuming with a different strategy, seed or
        instrumentation semantics must be rejected.  Slicing and caching
        are *included*: both can change which model the solver returns
        (never a verdict), so they shape the concrete search trajectory.
        The observability knob ``trace_file`` is excluded: watching a
        search must never change it, and a traced resume of an untraced
        session is valid.
        ``fault_plan`` is likewise excluded: the chaos harness resumes
        interrupted sessions across injector installs, and the
        crash-resume equivalence invariant needs a faulted session's
        checkpoint to be acceptable to a clean resume.
        ``compiled_execution`` is excluded for the same reason as
        ``jobs``: the engines are observationally identical, so a
        ``--no-compile`` resume of a compiled session (and vice versa)
        must be accepted.  ``export_suite`` is excluded like the
        observability knob: witnessing records what the search already
        does, never shapes it, and resuming an
        interrupted plain campaign *with* an export destination is the
        supported way to salvage its artifacts.  ``subsumption`` is
        excluded too: it only prunes work whose outcome is already
        determined (cores refute queries the solver would refute,
        deduped children re-derive futures an equal entry explores), so
        a ``--no-subsumption`` resume of a subsuming session — e.g. to
        ablate a suspected over-prune — must be accepted.
        """
        relevant = (
            self.depth, self.strategy, self.seed,
            self.stop_on_first_error, self.max_steps,
            # The solver's node budget and its escalation factor are
            # constants, hashed in these places so digests in saved
            # checkpoints and suites stay valid.
            NODE_BUDGET, self.directed_pointer_choices,
            self.max_init_depth, self.transparent_memory,
            self.stack_limit, self.heap_limit, self.max_call_depth,
            self.track_uninitialized, BUDGET_ESCALATION,
            self.constraint_slicing, self.solver_cache,
        )
        return hashlib.sha256(repr(relevant).encode()).hexdigest()[:16]

    def memory_options(self):
        return MemoryOptions(
            stack_limit=self.stack_limit,
            heap_limit=self.heap_limit,
            max_call_depth=self.max_call_depth,
            track_uninitialized=self.track_uninitialized,
        )

    def __repr__(self):
        return (
            "DartOptions(depth={}, max_iterations={}, seed={}, "
            "strategy={!r})"
        ).format(self.depth, self.max_iterations, self.seed, self.strategy)
