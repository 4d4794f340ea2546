"""Command-line interface: ``python -m repro FILE.c TOPLEVEL [options]``.

Runs DART (or the random-testing baseline) on a mini-C source file and
prints the verdict, the errors with their triggering input vectors, branch
coverage, and session statistics.  Exit status: 0 = no error found,
1 = bug(s) found, 2 = the input failed to compile, 130 = interrupted
(SIGINT/SIGTERM; with ``--state-file`` a checkpoint was saved and the
same command resumes the search).

``python -m repro fuzz [options]`` instead runs the differential fuzzing
campaign (:mod:`repro.testgen`): generate random mini-C programs, check
the pipeline against its own oracles, shrink and serialize any
divergence.  Exit status: 0 = clean campaign, 1 = divergence(s) found.

``python -m repro trace-summary TRACE.jsonl`` renders a structured trace
written with ``--trace``: the session's layer clock (execute / compile /
plan / cache / solver / checkpoint / commit), the branch-flip funnel
(attempted → sat → forced → new path), verdict and cache-tier tallies
(see docs/OBSERVABILITY.md).

``python -m repro chaos [options]`` runs the chaos harness
(:mod:`repro.faults.chaos`): seeded fault schedules injected into full
campaigns over the benchmark programs, asserting the recovery invariants
(no uncontained crash, replayable errors, error-set preservation, honest
degradation — see docs/ROBUSTNESS.md).  Exit status: 0 = every invariant
held, 1 = violation(s).

``python -m repro export-suite FILE.c TOPLEVEL --out DIR`` runs a
campaign and exports every distinct discovered path/error as a
standalone replayable regression artifact (:mod:`repro.suite`; also
available as ``--export-suite DIR`` on a plain run, including one
resumed from a ``--state-file`` checkpoint).  ``replay-suite DIR``
re-executes an exported suite and compares every artifact against its
recorded verdict bit-for-bit; ``coverage-report DIR`` prints the
suite's per-function C1 branch-coverage rollup.  See docs/SUITES.md.
"""

import argparse
import json
import os
import sys

from repro.dart.config import DartOptions
from repro.dart.random_testing import RandomTester
from repro.dart.report import INTERRUPTED
from repro.dart.runner import Dart
from repro.minic import compile_program
from repro.minic.disasm import disassemble
from repro.minic.errors import MiniCError
from repro.obs.clock import render_layers


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DART: directed automated random testing "
                    "(PLDI 2005 reproduction)",
    )
    parser.add_argument("file", help="mini-C source file")
    parser.add_argument("toplevel", nargs="?",
                        help="function to test (omit with --disasm)")
    parser.add_argument("--depth", type=int, default=1,
                        help="toplevel calls per execution (default 1)")
    parser.add_argument("--max-iterations", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--strategy", default="dfs",
                        choices=("dfs", "bfs", "random"))
    parser.add_argument("--jobs", type=int, default=1,
                        help="persistent worker pool size for the "
                             "bfs/random search: workers pipeline "
                             "execute/solve over a shared work queue and "
                             "share solver results (default 1 = "
                             "in-process; dfs is inherently sequential "
                             "and ignores it)")
    parser.add_argument("--no-slicing", action="store_true",
                        help="disable constraint independence slicing "
                             "(solve the full path-constraint prefix)")
    parser.add_argument("--no-solver-cache", action="store_true",
                        help="disable the solver result cache")
    parser.add_argument("--no-compile", action="store_true",
                        help="disable the compiled execution engine "
                             "(run the tree-walking interpreter; "
                             "ablation only — results are identical)")
    parser.add_argument("--no-subsumption", action="store_true",
                        help="disable UNSAT-core subsumption and "
                             "worklist dedup (ablation only — the "
                             "error set is identical)")
    parser.add_argument("--time-limit", type=float, default=None,
                        help="wall-clock budget in seconds")
    parser.add_argument("--run-time-limit", type=float, default=None,
                        help="wall-clock budget for a single run; a run "
                             "exceeding it is quarantined and the search "
                             "continues")
    parser.add_argument("--max-init-depth", type=int, default=None,
                        help="bound random_init pointer recursion")
    parser.add_argument("--all-errors", action="store_true",
                        help="keep searching after the first error")
    parser.add_argument("--state-file", default=None,
                        help="checkpoint file: the session periodically "
                             "saves its full state there and resumes from "
                             "it on the next invocation")
    parser.add_argument("--checkpoint-every", type=int, default=25,
                        help="runs between checkpoint autosaves "
                             "(with --state-file; default 25)")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write a JSONL structured trace of the "
                             "session (render it with "
                             "'python -m repro trace-summary PATH')")
    parser.add_argument("--profile-phases", action="store_true",
                        help="run the layer clock: exclusive session wall "
                             "time per layer (execute / compile / plan / "
                             "cache / solver / checkpoint / commit), "
                             "printed as a table after the statistics and "
                             "in --json as stats.phases (a --trace run "
                             "records it too)")
    parser.add_argument("--export-suite", default=None, metavar="DIR",
                        dest="export_suite",
                        help="after the campaign (finished or "
                             "interrupted), export every distinct "
                             "path/error as a standalone replayable "
                             "regression artifact under DIR (see "
                             "'python -m repro replay-suite DIR' and "
                             "docs/SUITES.md)")
    parser.add_argument("--fault-plan", default=None, metavar="SPEC",
                        help="inject deterministic faults from SPEC "
                             "('site@occurrence,...' or 'seed:N'; see "
                             "docs/ROBUSTNESS.md) — test harness only")
    parser.add_argument("--json", action="store_true",
                        help="emit the full result (errors, quarantined "
                             "runs, stats, coverage) as JSON")
    parser.add_argument("--random", action="store_true",
                        help="random-testing baseline (no directed search)")
    parser.add_argument("--disasm", action="store_true",
                        help="print the RAM-machine IR and exit")
    parser.add_argument("--quiet", action="store_true",
                        help="print only the verdict line")
    return parser


def build_fuzz_parser():
    parser = argparse.ArgumentParser(
        prog="repro fuzz",
        description="Differential fuzzing of the DART pipeline: random "
                    "program generation, multi-oracle checking, "
                    "delta-debugged repro files",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed (default 0); every program, "
                             "input vector and constraint system derives "
                             "from it deterministically")
    parser.add_argument("--budget", type=int, default=200,
                        help="number of programs to generate (default 200)")
    parser.add_argument("--time-budget", type=float, default=None,
                        help="wall-clock cap in seconds; the campaign "
                             "stops early once exceeded")
    parser.add_argument("--out", default=None,
                        help="directory for shrunk repro files (e.g. "
                             "tests/corpus); omit to only report")
    parser.add_argument("--max-statements", type=int, default=None,
                        help="cap generated program size")
    parser.add_argument("--dart-iterations", type=int, default=None,
                        help="run budget per DART oracle session")
    parser.add_argument("--parallel-every", type=int, default=25,
                        help="sample the jobs-vs-serial comparison every "
                             "Nth program (0 disables; default 25)")
    parser.add_argument("--chaos-every", type=int, default=25,
                        help="sample the fault-containment probe (clean "
                             "vs. seeded-fault session pair) every Nth "
                             "program (0 disables; default 25)")
    parser.add_argument("--no-solver-fuzz", action="store_true",
                        help="skip the brute-force constraint fuzzing "
                             "oracle")
    parser.add_argument("--unsigned-heavy", action="store_true",
                        help="bias generation toward unsigned parameters "
                             "and wrap-prone comparisons (exercises the "
                             "machine-integer widening layer)")
    parser.add_argument("--fail-on-dropped-unfaithful", action="store_true",
                        help="exit nonzero if any conjunct was dropped "
                             "for lack of a bit-precise encoding "
                             "(conjuncts_dropped_unfaithful != 0)")
    parser.add_argument("--stop-on-first", action="store_true",
                        help="end the campaign at the first divergence")
    parser.add_argument("--progress-every", type=int, default=20,
                        help="print a progress line every N programs "
                             "(0 silences; default 20)")
    return parser


def fuzz_main(argv=None):
    from repro.testgen import GeneratorOptions, OracleOptions, run_campaign

    args = build_fuzz_parser().parse_args(argv)
    gen_opts = GeneratorOptions()
    if args.max_statements is not None:
        gen_opts.max_statements = args.max_statements
    if args.unsigned_heavy:
        gen_opts.unsigned_bias = 0.5
    oracle_opts = OracleOptions()
    if args.dart_iterations is not None:
        oracle_opts.dart_iterations = args.dart_iterations

    def progress(index, report):
        if args.progress_every and (index + 1) % args.progress_every == 0:
            print("fuzz: {}/{} program(s), {} divergence(s)".format(
                index + 1, args.budget, len(report.divergences)),
                flush=True)

    report = run_campaign(
        seed=args.seed, budget=args.budget, time_budget=args.time_budget,
        out_dir=args.out, gen_opts=gen_opts, oracle_opts=oracle_opts,
        parallel_every=args.parallel_every,
        chaos_every=args.chaos_every,
        solver_fuzz=not args.no_solver_fuzz,
        stop_on_first=args.stop_on_first, progress=progress,
    )
    print(report.describe())
    if args.fail_on_dropped_unfaithful:
        dropped = report.counters.get("conjuncts_dropped_unfaithful", 0)
        if dropped:
            print("fuzz: {} conjunct(s) dropped as unfaithful — the "
                  "widening layer should leave zero".format(dropped))
            return 1
    return 0 if report.ok else 1


def build_chaos_parser():
    parser = argparse.ArgumentParser(
        prog="repro chaos",
        description="Chaos harness: run seeded fault schedules against "
                    "full campaigns over the benchmark programs and "
                    "assert the recovery invariants (crash containment, "
                    "crash-resume equivalence, honest degradation)",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="harness seed (default 0); every fault "
                             "schedule derives from it deterministically")
    parser.add_argument("--schedules", type=int, default=25,
                        help="number of fault schedules to run "
                             "(default 25)")
    parser.add_argument("--benchmark", action="append", default=None,
                        metavar="NAME", dest="benchmarks",
                        help="restrict to one benchmark (repeatable); "
                             "default: rotate through all of them")
    parser.add_argument("--max-resumes", type=int, default=8,
                        help="resume attempts per schedule before the "
                             "termination invariant fails (default 8)")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="write per-schedule artifacts (fault plan, "
                             "outcome, structured trace) and report.json "
                             "under DIR")
    parser.add_argument("--json", action="store_true",
                        help="emit the report as JSON instead of text")
    parser.add_argument("--progress-every", type=int, default=5,
                        help="print a progress line every N schedules "
                             "(0 silences; default 5)")
    return parser


def chaos_main(argv=None):
    from repro.faults.chaos import BENCHMARKS, run_chaos

    args = build_chaos_parser().parse_args(argv)
    benchmarks = None
    if args.benchmarks:
        by_name = {benchmark.name: benchmark for benchmark in BENCHMARKS}
        unknown = [name for name in args.benchmarks if name not in by_name]
        if unknown:
            print("error: unknown benchmark(s): {} (have: {})".format(
                ", ".join(unknown), ", ".join(sorted(by_name))),
                file=sys.stderr)
            return 2
        benchmarks = tuple(by_name[name] for name in args.benchmarks)

    def progress(index, outcome):
        if args.progress_every and (index + 1) % args.progress_every == 0:
            print("chaos: {}/{} schedule(s)".format(
                index + 1, args.schedules), flush=True)

    report = run_chaos(
        seed=args.seed, schedules=args.schedules, benchmarks=benchmarks,
        out_dir=args.out, max_resumes=args.max_resumes, progress=progress,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.describe())
    return 0 if report.ok else 1


def build_trace_summary_parser():
    parser = argparse.ArgumentParser(
        prog="repro trace-summary",
        description="Summarize a JSONL structured trace written with "
                    "--trace: layer clock, branch-flip funnel, "
                    "verdict and cache-tier tallies",
    )
    parser.add_argument("trace", help="JSONL trace file (from --trace)")
    parser.add_argument("--json", action="store_true",
                        help="emit the summary as JSON instead of text")
    return parser


def trace_summary_main(argv=None):
    from repro.obs import read_trace, render_summary, summarize_trace

    args = build_trace_summary_parser().parse_args(argv)
    try:
        summary = summarize_trace(read_trace(args.trace))
    except OSError as error:
        print("error: {}".format(error), file=sys.stderr)
        return 2
    except ValueError as error:
        print("error: not a JSONL trace: {}".format(error), file=sys.stderr)
        return 2
    try:
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            print(render_summary(summary))
    except BrokenPipeError:
        # Downstream (e.g. `| head`) closed the pipe; not an error.
        # Point stdout at devnull so interpreter shutdown does not
        # complain about the unflushable stream.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def build_export_suite_parser():
    parser = argparse.ArgumentParser(
        prog="repro export-suite",
        description="Run a DART campaign and export every distinct "
                    "discovered path/error as a standalone replayable "
                    "regression artifact (mini-C source + input vector "
                    "+ expected verdict + generated pytest wrapper)",
    )
    parser.add_argument("file", help="mini-C source file")
    parser.add_argument("toplevel", help="function to test")
    parser.add_argument("--out", required=True, metavar="DIR",
                        help="suite output directory")
    parser.add_argument("--depth", type=int, default=1)
    parser.add_argument("--max-iterations", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--strategy", default="bfs",
                        choices=("dfs", "bfs", "random"),
                        help="search strategy (default bfs)")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--time-limit", type=float, default=None)
    parser.add_argument("--max-init-depth", type=int, default=None)
    parser.add_argument("--state-file", default=None,
                        help="checkpoint file; an interrupted export "
                             "campaign resumes from it — and a "
                             "checkpoint written by a plain campaign "
                             "can be salvaged into a suite (same "
                             "file/toplevel/options, e.g. with "
                             "--max-iterations 0)")
    parser.add_argument("--trace", default=None, metavar="PATH")
    parser.add_argument("--json", action="store_true",
                        help="emit the suite manifest body as JSON")
    return parser


def export_suite_main(argv=None):
    args = build_export_suite_parser().parse_args(argv)
    try:
        with open(args.file) as handle:
            source = handle.read()
    except OSError as error:
        print("error: {}".format(error), file=sys.stderr)
        return 2
    options = DartOptions(
        depth=args.depth,
        max_iterations=args.max_iterations,
        seed=args.seed,
        strategy=args.strategy,
        jobs=args.jobs,
        stop_on_first_error=False,
        time_limit=args.time_limit,
        max_init_depth=args.max_init_depth,
        state_file=args.state_file,
        handle_signals=True,
        trace_file=args.trace,
        export_suite=args.out,
    )
    try:
        dart = Dart(source, args.toplevel, options, filename=args.file)
    except MiniCError as error:
        print("error: {}".format(error), file=sys.stderr)
        return 2
    result = dart.run()
    from repro.suite import load_manifest
    manifest = load_manifest(args.out)
    if args.json:
        print(json.dumps(manifest, indent=2, sort_keys=True))
        return _exit_code(result)
    counts = manifest["counts"]
    coverage = manifest["coverage"]
    print("suite: {} artifact(s) ({} error(s)) under {}".format(
        counts["artifacts"], counts["errors"], args.out))
    print("dedup: {} witness(es) -> {} duplicate(s) collapsed, "
          "{} subsumed artifact(s) pruned".format(
              counts["witnesses"], counts["deduped"], counts["pruned"]))
    print("coverage: {}/{} branch directions ({:.1f}%), C1 {}/{} "
          "branches both-arms ({:.1f}%)".format(
              coverage["covered_directions"], coverage["total_directions"],
              coverage["percent"], coverage["branches_both_arms"],
              coverage["total_branches"], coverage["c1_percent"]))
    print("replay: python -m repro replay-suite {0}  (or: "
          "PYTHONPATH=src python -m pytest {0})".format(args.out))
    return _exit_code(result)


def build_replay_suite_parser():
    parser = argparse.ArgumentParser(
        prog="repro replay-suite",
        description="Re-execute every artifact of an exported "
                    "regression suite with zero search and compare "
                    "verdict, branch path and covered-branch set "
                    "against the recorded expectations bit-for-bit",
    )
    parser.add_argument("suite", help="suite directory (from export-suite)")
    parser.add_argument("--json", action="store_true",
                        help="emit the replay report as JSON")
    return parser


def replay_suite_main(argv=None):
    from repro.suite import CorruptArtifact, replay_suite

    args = build_replay_suite_parser().parse_args(argv)
    try:
        report = replay_suite(args.suite)
    except CorruptArtifact as error:
        print("error: {}".format(error), file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0 if report["ok"] else 1
    print("replay: {}/{} artifact(s) passed".format(
        len(report["passed"]), report["artifacts"]))
    for failure in report["failed"]:
        print(" - FAILED {}: {}".format(failure["id"], failure["reason"]))
    for entry in report["quarantined"]:
        print(" ! quarantined {}: {}".format(entry["id"], entry["reason"]))
    return 0 if report["ok"] else 1


def build_coverage_report_parser():
    parser = argparse.ArgumentParser(
        prog="repro coverage-report",
        description="Per-function C1 branch-coverage accounting of an "
                    "exported regression suite (a branch counts as "
                    "covered only when both arms were taken)",
    )
    parser.add_argument("suite", help="suite directory (from export-suite)")
    parser.add_argument("--json", action="store_true",
                        help="emit the rollup as JSON")
    return parser


def coverage_report_main(argv=None):
    from repro.dart.coverage import render_c1_table
    from repro.suite import CorruptArtifact, suite_coverage

    args = build_coverage_report_parser().parse_args(argv)
    try:
        coverage, manifest, quarantined = suite_coverage(args.suite)
    except CorruptArtifact as error:
        print("error: {}".format(error), file=sys.stderr)
        return 2
    if args.json:
        payload = coverage.to_dict()
        payload["suite"] = args.suite
        payload["artifacts"] = len(manifest.get("artifacts", ()))
        payload["quarantined"] = quarantined
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print("suite: {} ({} artifact(s))".format(
        args.suite, len(manifest.get("artifacts", ()))))
    print(render_c1_table(coverage))
    for entry in quarantined:
        print(" ! quarantined {}: {}".format(entry["id"], entry["reason"]))
    return 0


def _exit_code(result):
    if result.status == INTERRUPTED:
        return 130
    return 1 if result.found_error else 0


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "fuzz":
        return fuzz_main(argv[1:])
    if argv and argv[0] == "trace-summary":
        return trace_summary_main(argv[1:])
    if argv and argv[0] == "chaos":
        return chaos_main(argv[1:])
    if argv and argv[0] == "export-suite":
        return export_suite_main(argv[1:])
    if argv and argv[0] == "replay-suite":
        return replay_suite_main(argv[1:])
    if argv and argv[0] == "coverage-report":
        return coverage_report_main(argv[1:])
    args = build_parser().parse_args(argv)
    try:
        with open(args.file) as handle:
            source = handle.read()
    except OSError as error:
        print("error: {}".format(error), file=sys.stderr)
        return 2

    if args.disasm:
        try:
            module = compile_program(source, filename=args.file)
        except MiniCError as error:
            print("error: {}".format(error), file=sys.stderr)
            return 2
        print(disassemble(module))
        return 0

    if not args.toplevel:
        print("error: a toplevel function is required", file=sys.stderr)
        return 2

    fault_plan = None
    if args.fault_plan:
        from repro.faults import FaultPlan
        try:
            fault_plan = FaultPlan.parse(args.fault_plan)
        except ValueError as error:
            print("error: bad --fault-plan: {}".format(error),
                  file=sys.stderr)
            return 2

    if args.state_file:
        # Fail fast: discovering an unwritable checkpoint path at the
        # first autosave would lose the session's work.
        parent = os.path.dirname(os.path.abspath(args.state_file))
        if not os.path.isdir(parent):
            print("error: --state-file directory does not exist: {}"
                  .format(parent), file=sys.stderr)
            return 2

    options = DartOptions(
        depth=args.depth,
        max_iterations=args.max_iterations,
        seed=args.seed,
        strategy=args.strategy,
        jobs=args.jobs,
        constraint_slicing=not args.no_slicing,
        solver_cache=not args.no_solver_cache,
        compiled_execution=not args.no_compile,
        subsumption=not args.no_subsumption,
        stop_on_first_error=not args.all_errors,
        time_limit=args.time_limit,
        run_time_limit=args.run_time_limit,
        max_init_depth=args.max_init_depth,
        state_file=args.state_file,
        checkpoint_every=args.checkpoint_every,
        handle_signals=True,
        trace_file=args.trace,
        profile_phases=args.profile_phases,
        fault_plan=fault_plan,
        export_suite=args.export_suite,
    )
    tester_class = RandomTester if args.random else Dart
    try:
        tester = tester_class(source, args.toplevel, options,
                              filename=args.file)
    except MiniCError as error:
        print("error: {}".format(error), file=sys.stderr)
        return 2

    result = tester.run()
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return _exit_code(result)
    print(result.describe())
    if args.quiet:
        return _exit_code(result)
    for error in result.errors:
        print(" -", error.describe())
    for record in result.quarantined:
        print(" ! quarantined:", record.describe())
    if result.coverage is not None:
        print("coverage: {}".format(result.coverage.describe()))
    stats = result.stats.summary()
    print(
        "runs: {iterations}, distinct paths: {distinct_paths}, "
        "solver calls: {solver_calls} (sat {solver_sat} / unsat "
        "{solver_unsat} / unknown {solver_unknown}), "
        "restarts: {random_restarts}, elapsed: {elapsed_s}s".format(**stats)
    )
    print(
        "solver avg constraints/call: {avg_constraints_per_call}, "
        "sliced away: {sliced_conjuncts_dropped}, cache: {cache_hits} hit / "
        "{flips_subsumed_core} core / {cache_unsat_shortcuts} "
        "unsat-shortcut / {cache_misses} miss (hit rate "
        "{cache_hit_rate})".format(**stats)
    )
    print(
        "instructions: {instructions_executed} executed / "
        "{instructions_symbolic} symbolic".format(**stats)
    )
    if "phases" in stats:
        for line in render_layers(stats["phases"], result.stats.elapsed):
            print(line)
    return _exit_code(result)
