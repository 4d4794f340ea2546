"""The benchmark's workloads: the paper's Fig. 10 row 3 and its §4.3 sweep.

Each workload is a closed loop with one client: a *verdict* is one
complete answer the user waits for (one Dart session, or one sweep of
sessions), and the next verdict starts only after the previous one has
returned.  Every session's outcome is checked against a known answer;
a wrong verdict or any quarantined run counts the session as failed.

``dy3``         Needham-Schroeder with the Dolev-Yao intruder at depth 3
                (dfs, run to completion).  Loads execution; set-up ~1%.
``dy3-durable`` The same search with a state file at the default
                checkpoint cadence.  Loads ``dart.persist``; ``dy3`` does
                not, so a checkpoint change shows as their difference.
``osip-sweep``  A fixed sample of oSIP library functions, one session
                each.  Loads the front end; ``dy3`` barely does.
``dy2-pool``    The Dolev-Yao search at depth 2 under bfs with a pool of
                min(2, usable CPUs) workers.  The only workload that loads
                ``dart.parallel`` and the shared solver cache.  Depth 2
                (294 runs, under a second) gives a run many verdicts;
                depth 3 under the pool took 13 to 20 s a verdict on a
                2-CPU host, too few and too spread to gate.
"""

import os
import random
import time

from repro import Dart, DartOptions
from repro.dart.report import COMPLETE, RunStats
from repro.programs.needham_schroeder import ns_source
from repro.programs.osip import OsipLibrary

#: The sampled oSIP functions (drawn once from ``OSIP_SAMPLE_SEED``) and
#: every session's DART seed are fixed, as in
#: ``benchmarks/bench_sec43_osip.py``; ``--seed`` sets the sweep order.
#: A session's seed decides whether its first pointer coin is NULL, so a
#: function crashes on run 1 or only after a 60-120 run search, and one
#: seed decides that for every function at once: letting ``--seed``
#: choose it moved runs_to_verdict between 268 and 985 per sweep, which
#: would swamp any change the program makes.
OSIP_SAMPLE_SEED = 0
OSIP_SESSION_SEED = 1
#: 30 functions, about 7 s a sweep on a 2-CPU host: a 12 s run holds two
#: sweeps, 60 session samples, enough for a p75 with ten samples beyond.
OSIP_SAMPLE_SIZE = 30


class Session:
    """One Dart session as the benchmark saw it."""

    __slots__ = ("label", "setup_s", "wall_s", "runs", "c1", "counters",
                 "problems")

    def __init__(self, label, setup_s, wall_s, runs, c1, counters):
        self.label = label
        #: Seconds spent constructing ``Dart(...)``.
        self.setup_s = setup_s
        #: Construction plus ``run()``: the session's latency.
        self.wall_s = wall_s
        self.runs = runs
        #: (branches with both arms covered, branches) in the code under
        #: test.
        self.c1 = c1
        #: The session's RunStats counters (a copy: keeping the RunStats
        #: would keep every path tuple alive and slow later sessions'
        #: garbage collection) plus ``functions_compiled``.
        self.counters = counters
        #: Oracle failures; empty when the verdict was right.
        self.problems = []


class Verdict:
    """One closed-loop answer: its wall time and the sessions it took.

    ``outcomes`` holds each session's (Dart, DartResult, Session) until
    the workload's ``check`` has run the oracles; ``release`` then drops
    the sessions' programs and results, keeping the measurements.
    """

    __slots__ = ("wall_s", "raw_s", "sessions", "outcomes")

    def __init__(self, wall_s, outcomes):
        #: Seconds on the clock the verdict was timed with.
        self.wall_s = wall_s
        #: Plain wall seconds, set by the caller.
        self.raw_s = wall_s
        self.outcomes = outcomes
        self.sessions = [session for _, _, session in outcomes]

    @property
    def runs(self):
        return sum(session.runs for session in self.sessions)

    def release(self):
        self.outcomes = []


def run_session(label, source, toplevel, options, clock=time.perf_counter):
    """Construct and run one session, timed on ``clock``; returns
    (Dart, DartResult, Session)."""
    started = clock()
    dart = Dart(source, toplevel, options)
    built = clock()
    result = dart.run()
    finished = clock()
    coverage = result.coverage
    counters = {name: getattr(result.stats, name)
                for name in RunStats.COUNTERS}
    counters["functions_compiled"] = dart.compiled.functions_compiled \
        if dart.compiled is not None else 0
    session = Session(
        label, built - started, finished - started, result.iterations,
        (coverage.branches_both_arms, coverage.total_branches), counters,
    )
    if result.quarantined:
        session.problems.append("{} run(s) quarantined".format(
            len(result.quarantined)))
    return dart, result, session


def _error_keys(result):
    return sorted((error.kind, str(error.location))
                  for error in result.errors)


def _verdict_of(result):
    return result.status, _error_keys(result), result.iterations


class _DolevYao:
    """Shared shape of the three Dolev-Yao workloads."""

    toplevel = "ns_dy_step"
    depth = 3
    #: What the paper's Fig. 10 row 3 reports: the search completes and
    #: finds no attack.
    expected_status = COMPLETE
    #: (status, errors, runs) of the reference session, for workloads
    #: whose verdicts must match one.
    expected = None

    def __init__(self, seed, out_dir, smoke=False):
        self.seed = seed
        if smoke:
            self.depth = 2
        self.source = ns_source("dolev_yao")
        #: Sessions run outside the timed loop to check verdicts against.
        self.references = []

    def options(self, **overrides):
        return DartOptions(depth=self.depth, max_iterations=50_000,
                           seed=self.seed, **overrides)

    def session_options(self):
        return self.options()

    def prepare(self):
        """Untimed set-up (reference sessions); returns nothing."""

    def construct(self, index):
        """Construct one session of this workload (a set-up probe)."""
        Dart(self.source, self.toplevel, self.session_options())

    def check_known(self, result, session):
        if result.status != self.expected_status:
            session.problems.append("status {} != {}".format(
                result.status, self.expected_status))
        if result.errors:
            session.problems.append("unexpected errors {}".format(
                _error_keys(result)))

    def check_session(self, result, session):
        """The known answer, or the reference session's verdict when the
        workload has one."""
        if self.expected is None:
            self.check_known(result, session)
            return
        got = _verdict_of(result)
        if got != self.expected:
            session.problems.append("verdict {} != reference {}".format(
                got, self.expected))

    def verdict(self, clock):
        outcome = run_session(self.name, self.source, self.toplevel,
                              self.session_options(), clock)
        return Verdict(outcome[2].wall_s, [outcome])

    def check(self, verdict):
        for _, result, session in verdict.outcomes:
            self.check_session(result, session)
        verdict.release()

    def reference(self, label, options):
        """Run the session later verdicts must match (untimed); it must
        itself give the known answer."""
        _, result, session = run_session(label, self.source, self.toplevel,
                                         options)
        self.check_known(result, session)
        self.references.append(session)
        self.expected = _verdict_of(result)
        return result


class Dy3(_DolevYao):
    name = "dy3"


class Dy3Durable(_DolevYao):
    name = "dy3-durable"

    def __init__(self, seed, out_dir, smoke=False):
        super().__init__(seed, out_dir, smoke)
        self.state_dir = os.path.join(out_dir, "state")
        self.state_file = os.path.join(
            self.state_dir, "dy3-{}.json".format(os.getpid()))

    def session_options(self):
        return self.options(state_file=self.state_file)

    def prepare(self):
        os.makedirs(self.state_dir, exist_ok=True)
        self.reference("dy3-reference", self.options())

    def check_session(self, result, session):
        super().check_session(result, session)
        left = sorted(name for name in os.listdir(self.state_dir)
                      if name.startswith(os.path.basename(self.state_file)))
        if left:
            session.problems.append("left behind: {}".format(left))


class Dy2Pool(_DolevYao):
    name = "dy2-pool"
    depth = 2

    def __init__(self, seed, out_dir, smoke=False):
        super().__init__(seed, out_dir, smoke)
        #: Never more workers than usable CPUs.
        self.jobs = min(2, len(os.sched_getaffinity(0)))
        self.serial_solver_calls = 0

    def session_options(self):
        return self.options(strategy="bfs", jobs=self.jobs)

    def prepare(self):
        serial = self.reference("bfs-serial-reference",
                                self.options(strategy="bfs"))
        self.serial_solver_calls = serial.stats.solver_calls


class OsipSweep:
    name = "osip-sweep"

    def __init__(self, seed, out_dir, smoke=False):
        library = OsipLibrary()
        size = 4 if smoke else OSIP_SAMPLE_SIZE
        sample = random.Random(OSIP_SAMPLE_SEED).sample(
            library.functions, size)
        random.Random(seed).shuffle(sample)
        self.sample = [
            (entry.name, library.source_for_function(entry.name))
            for entry in sample
        ]
        #: function name -> whether DART must find a crash in it (the
        #: generator's ground truth).
        self.expected = {entry.name: entry.crashable for entry in sample}
        self.references = []

    @staticmethod
    def options():
        # The paper's §4.3 budget: at most 1,000 runs per function.
        return DartOptions(max_iterations=1000, seed=OSIP_SESSION_SEED,
                           max_steps=200_000, max_init_depth=4)

    def prepare(self):
        """Nothing to set up: sources are generated at construction."""

    def construct(self, index):
        name, source = self.sample[index % len(self.sample)]
        Dart(source, name, self.options())

    def verdict(self, clock):
        outcomes = []
        started = clock()
        for name, source in self.sample:
            outcomes.append(
                run_session(name, source, name, self.options(), clock))
        return Verdict(clock() - started, outcomes)

    def check(self, verdict):
        """Ground truth and replay of every reported error.  Runs after
        the sweep's clock stops (and outside tracing): replays are
        checks, not part of the verdict a user waits for."""
        for dart, result, session in verdict.outcomes:
            expected = self.expected[session.label]
            if result.found_error != expected:
                session.problems.append(
                    "found_error {} != crashable {}".format(
                        result.found_error, expected))
            for error in result.errors:
                fault = dart.replay(error)
                if fault is None or fault.kind != error.kind \
                        or str(fault.location) != str(error.location):
                    session.problems.append(
                        "error {} does not replay".format(error.describe()))
            session.c1 = _toplevel_c1(result, session.label)
        verdict.release()


def _toplevel_c1(result, function):
    """C1 of the function under test alone: a session covers one
    function of a ~75-function translation unit, so whole-unit C1 would
    read ~1% whatever the search achieved."""
    for row in result.coverage.functions():
        if row.name == function:
            return row.branches_both_arms, row.branches
    return 0, 0


WORKLOADS = {
    workload.name: workload
    for workload in (Dy3, Dy3Durable, OsipSweep, Dy2Pool)
}
