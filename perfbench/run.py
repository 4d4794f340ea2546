"""Time-to-verdict benchmark on the paper's Fig. 10 and §4.3 workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload dy3 --seed 0 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all        # each in a fresh process

``--trace 0`` measures the end-to-end metrics with tracing off, timed on
a clock corrected for host speed (``hostclock.py``).  ``--trace 1``
alternates untraced and traced verdicts: the traced ones give the
per-layer metrics (spans recorded by wrapping each layer's public
callables, see ``tracer.py``), the untraced ones the baseline for the
tracing overhead.  ``--profile`` adds one verdict under cProfile and
writes its top entries to ``perfbench/out/``.  ``--smoke`` shrinks every
workload for the self-tests.

Every verdict is checked against a known answer (``workloads.py``).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(host fingerprint, every verdict and session, the tail percentile used)
goes to ``perfbench/out/``.
"""

import argparse
import cProfile
import gc
import hashlib
import json
import math
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import time

import tracer
from hostclock import HostClock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Seconds of ``Dart(...)`` constructions before the first verdict, and
#: the share of the loop's elapsed time topped up with more after each
#: verdict: spreading them over the run keeps ``setup_s`` from reading
#: one stretch of host speed.
SETUP_START_S = 0.5
SETUP_SHARE = 0.1

#: Tail percentiles tried, highest first; the first with at least
#: ``TAIL_BEYOND`` samples above its rank is reported.  The median is
#: not among them (``session_p50_s`` is the median), so a run with fewer
#: than 40 sessions reports ``TAIL_FALLBACK`` whatever their number, and
#: the percentile does not change between runs of one workload.  That is
#: the largest of one or two sessions, and the second largest of the
#: 12 to 16 ``dy2-pool`` verdicts a run holds: their largest moved by a
#: quarter of its median between runs, the second largest by a tenth.
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)
TAIL_BEYOND = 10
TAIL_FALLBACK = 90


def _rank(percentile, n):
    """1-based nearest rank of ``percentile`` among ``n`` sorted samples."""
    return max(1, math.ceil(percentile * n / 100))


def _percentile(values, percentile):
    return sorted(values)[_rank(percentile, len(values)) - 1]


def tail(values):
    """(percentile, value): the highest percentile with ten samples
    beyond it, or ``TAIL_FALLBACK`` when there are too few samples."""
    n = len(values)
    for percentile in TAIL_PERCENTILES:
        if n - _rank(percentile, n) >= TAIL_BEYOND:
            return percentile, _percentile(values, percentile)
    return TAIL_FALLBACK, _percentile(values, TAIL_FALLBACK)


def metric_units(section):
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` section of
    ``BENCHMARK.json``, the one list of the metrics a run reports."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def _ratio(part, whole):
    return part / whole if whole else 0.0


def peak_rss_mb():
    """Peak resident set of this process plus its largest reaped child
    (the pool's workers), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _git_commit():
    """The checked-out commit, read from ``.git`` without running git
    (a checkout without ``.git`` records None)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    digest = hashlib.sha256()
    package = os.path.join(SRC, "repro")
    for directory, _, files in sorted(os.walk(package)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def host_fingerprint():
    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
    }


# -- measuring ----------------------------------------------------------------


class Measurement:
    """Everything one invocation measured, before reduction to metrics."""

    def __init__(self, workload):
        self.workload = workload
        self.setups = []
        self.untraced = []
        self.traced = []
        self.profiled = []
        self.tracer = None
        self.span_cost_s = 0.0

    def checked_sessions(self):
        sessions = list(self.workload.references)
        for verdict in self.untraced + self.traced + self.profiled:
            sessions.extend(verdict.sessions)
        return sessions


def _top_up_setups(workload, setups, target_s):
    """Construct sessions (each after a collection, each timed on a
    host clock) until the probes total ``target_s`` seconds; at least
    one."""
    while True:
        gc.collect()
        with HostClock() as clock:
            workload.construct(len(setups))
        setups.append(clock.elapsed_s)
        if sum(setups) >= target_s:
            return


def timed_verdict(workload):
    """One untraced verdict, timed on a host clock."""
    started = time.perf_counter()
    with HostClock() as clock:
        verdict = workload.verdict(clock.now)
    verdict.wall_s = clock.elapsed_s
    verdict.raw_s = time.perf_counter() - started - clock.probe_s
    return verdict


def measure(workload, seconds, trace, profile_path=None):
    """Closed loop: verdicts until ``seconds`` have passed (at least one).

    With ``trace`` each untraced verdict is followed by a traced one, so
    both see the same host conditions.  Oracles and set-up probes run
    between verdicts, outside the timed and traced regions.
    """
    record = Measurement(workload)
    workload.prepare()
    _top_up_setups(workload, record.setups, SETUP_START_S)
    record.tracer = tracer.Tracer() if trace else None
    started = time.perf_counter()
    while True:
        # Every verdict starts from a collected heap, so one verdict's
        # garbage is not another's collection pause.
        gc.collect()
        if not tracer.pristine():
            raise RuntimeError("a traced wrapper leaked into an untraced run")
        verdict = timed_verdict(workload)
        workload.check(verdict)
        record.untraced.append(verdict)
        if trace:
            # Traced verdicts run on the plain clock: a host-clock probe
            # would land inside whichever span was open.
            gc.collect()
            with record.tracer.installed():
                verdict = workload.verdict(time.perf_counter)
            workload.check(verdict)
            record.traced.append(verdict)
        elapsed = time.perf_counter() - started
        _top_up_setups(workload, record.setups,
                       SETUP_START_S + SETUP_SHARE * elapsed)
        if elapsed >= seconds:
            break
    if trace:
        record.span_cost_s = tracer.span_cost()
    if profile_path is not None:
        profiler = cProfile.Profile()
        profiler.enable()
        verdict = workload.verdict(time.perf_counter)
        profiler.disable()
        workload.check(verdict)
        record.profiled.append(verdict)
        write_profile(profiler, profile_path)
    return record


def write_profile(profiler, path, top=40):
    with open(path, "w") as handle:
        stats = pstats.Stats(profiler, stream=handle)
        stats.strip_dirs()
        for key in ("tottime", "cumulative"):
            handle.write("== top {} by {} ==\n".format(top, key))
            stats.sort_stats(key).print_stats(top)


def end_to_end(record):
    """The user-visible metrics, from the untraced verdicts."""
    verdicts = record.untraced
    sessions = [s for v in verdicts for s in v.sessions]
    walls = [s.wall_s for s in sessions]
    percentile, tail_value = tail(walls)
    c1 = []
    for verdict in verdicts:
        both = sum(s.c1[0] for s in verdict.sessions)
        branches = sum(s.c1[1] for s in verdict.sessions)
        c1.append(100.0 * _ratio(both, branches))
    metrics = {
        "setup_s": statistics.median(
            record.setups + [s.setup_s for s in sessions]),
        "time_to_verdict_s": statistics.median(v.wall_s for v in verdicts),
        "session_p50_s": statistics.median(walls),
        "session_tail_s": tail_value,
        "runs_per_s": _ratio(sum(s.runs for s in sessions), sum(walls)),
        "runs_to_verdict": statistics.median(v.runs for v in verdicts),
        "c1_percent": statistics.median(c1),
        "peak_rss_mb": peak_rss_mb(),
    }
    details = {"session_tail_percentile": percentile,
               "session_samples": len(walls)}
    return metrics, details


#: RunStats counters summed over the traced sessions.
_STATS = (
    "iterations", "instructions_executed", "instructions_symbolic",
    "conjuncts_widened", "conjuncts_dropped_unfaithful", "flips_attempted",
    "flips_sat", "worklist_deduped", "sliced_conjuncts_dropped",
    "solver_constraints", "solver_calls", "cache_hits",
    "cache_unsat_shortcuts", "cache_model_reuses", "flips_subsumed_core",
    "cache_misses", "solver_failures", "pool_steals", "pool_workers_lost",
    "runs_forced", "runs_new_path", "forcing_failures", "functions_compiled",
)


def per_layer(record, failed_ratio):
    """The per-layer metrics, from the traced verdicts' spans and stats."""
    recorder = record.tracer
    verdicts = record.traced
    n = len(verdicts)
    totals = dict.fromkeys(_STATS, 0)
    for verdict in verdicts:
        for session in verdict.sessions:
            for name in totals:
                totals[name] += session.counters[name]
    spans = recorder.self_times()
    counters = recorder.counters

    def calls(name):
        return spans.get(name, (0, 0.0))[0] / n

    def seconds(name):
        return spans.get(name, (0, 0.0))[1] / n

    def stat(name):
        return totals[name] / n

    run_ms = [d * 1000.0 for d in recorder.durations("machine.run")]
    traced_wall = sum(v.wall_s for v in verdicts)
    attributed = sum(self_s for name, (_, self_s) in spans.items()
                     if name != tracer.ROOT)
    # The overhead is estimated from the span count and the measured cost
    # of one wrapper: the wall of a traced verdict against its untraced
    # neighbour (trace.wall_overhead_ratio) moves more with host speed
    # than tracing moves it.
    wrapper_s = len(recorder.spans) * record.span_cost_s
    overhead = _ratio(wrapper_s, traced_wall - wrapper_s)
    wall_overhead = statistics.median(
        traced.raw_s / untraced.raw_s - 1.0
        for untraced, traced in zip(record.untraced, verdicts))
    serial_calls = getattr(record.workload, "serial_solver_calls", 0)
    queries = (totals["cache_hits"] + totals["cache_unsat_shortcuts"]
               + totals["cache_model_reuses"] + totals["flips_subsumed_core"])
    metrics = {
        "minic.compile_program.calls": calls("minic.compile_program"),
        "minic.compile_program.s": seconds("minic.compile_program"),
        "minic.parse_program.calls": calls("minic.parse_program"),
        "minic.parse_program.s": seconds("minic.parse_program"),
        "minic.source_kb": counters["parse_bytes"] / 1024.0 / n,
        "interface.extract_interface.calls":
            calls("interface.extract_interface"),
        "interface.extract_interface.s":
            seconds("interface.extract_interface"),
        "driver.build_test_program.s": seconds("driver.build_test_program"),
        "independence.coupling_classes.s":
            seconds("independence.coupling_classes"),
        "independence.latched_ratio": _ratio(
            counters["coupling_latched"], counters["coupling_calls"]),
        "setup.self.s": seconds("setup"),
        "machine.setup.s": seconds("machine.setup"),
        "machine.run.calls": calls("machine.run"),
        "machine.run.s": seconds("machine.run"),
        "machine.run_p50_ms": _percentile(run_ms, 50) if run_ms else 0.0,
        "machine.run_p99_ms": _percentile(run_ms, 99) if run_ms else 0.0,
        "machine.instructions": stat("instructions_executed"),
        "machine.instructions_symbolic": stat("instructions_symbolic"),
        "machine.instructions_per_s": _ratio(
            stat("instructions_executed"), seconds("machine.run")),
        "compile.lower.s": seconds("compile.lower"),
        "compile.functions_compiled": stat("functions_compiled"),
        "widen.conjuncts_widened": stat("conjuncts_widened"),
        "widen.conjuncts_dropped": stat("conjuncts_dropped_unfaithful"),
        "solve.plan.calls": calls("solve.plan"),
        "solve.plan.s": seconds("solve.plan"),
        "solve.flips_attempted": stat("flips_attempted"),
        "solve.flips_sat_ratio": _ratio(
            totals["flips_sat"], totals["flips_attempted"]),
        "solve.worklist_deduped": stat("worklist_deduped"),
        "slicing.conjuncts_dropped": stat("sliced_conjuncts_dropped"),
        "slicing.avg_constraints_per_call": _ratio(
            totals["solver_constraints"], totals["solver_calls"]),
        "cache.lookup.calls": calls("cache.lookup"),
        "cache.lookup.s": seconds("cache.lookup"),
        "cache.hits_exact": stat("cache_hits"),
        "cache.hits_unsat_superset": stat("cache_unsat_shortcuts"),
        "cache.hits_model_reuse": stat("cache_model_reuses"),
        "cache.hits_core": stat("flips_subsumed_core"),
        "cache.misses": stat("cache_misses"),
        "cache.hit_ratio": _ratio(queries, queries + totals["cache_misses"]),
        "cache.store.s": seconds("cache.store"),
        "cache.store_core.s": seconds("cache.store_core"),
        "solver.solve.calls": calls("solver.solve"),
        "solver.solve.s": seconds("solver.solve"),
        "solver.calls_counted": stat("solver_calls"),
        "solver.failures": stat("solver_failures"),
        "persist.save.calls": calls("persist.save"),
        "persist.save.s": seconds("persist.save"),
        "persist.bytes_max": counters["persist_bytes_max"],
        "persist.bytes_total": counters["persist_bytes_total"] / n,
        "pool.s": seconds("pool") + seconds("pool.server_stop"),
        "pool.steals": stat("pool_steals"),
        "pool.workers_lost": stat("pool_workers_lost"),
        "shared.store_size": counters["shared_store_size"] / n,
        "pool.solver_calls_vs_serial": _ratio(
            stat("solver_calls"), serial_calls),
        "runner.self.s": seconds(tracer.ROOT),
        "runs.forced": stat("runs_forced"),
        "runs.new_path_ratio": _ratio(
            totals["runs_new_path"], totals["iterations"]),
        "runs.forcing_failures": stat("forcing_failures"),
        "trace.spans": len(recorder.spans) / n,
        "trace.overhead_ratio": overhead,
        "trace.wall_overhead_ratio": wall_overhead,
        "trace.attributed_ratio": _ratio(attributed, traced_wall),
        "failed_ratio": failed_ratio,
    }
    return metrics


# -- the command --------------------------------------------------------------


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", action="store_true",
                        help="also write the top cProfile entries of one "
                             "verdict to perfbench/out/")
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every workload (self-tests)")
    return parser.parse_args(argv)


def _import_program():
    """Put the checkout's ``src`` first on the path; False when absent."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        return False
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    return True


def run_workload(args):
    """Measure one workload in this process; returns the result line."""
    from workloads import WORKLOADS

    os.makedirs(OUT, exist_ok=True)
    stem = "{}-seed{}-trace{}{}".format(args.workload, args.seed, args.trace,
                                        "-smoke" if args.smoke else "")
    workload = WORKLOADS[args.workload](args.seed, OUT, smoke=args.smoke)
    profile_path = os.path.join(OUT, "profile-{}.txt".format(stem)) \
        if args.profile else None
    record = measure(workload, args.seconds, args.trace, profile_path)
    sessions = record.checked_sessions()
    failed = [s for s in sessions if s.problems]
    failed_ratio = len(failed) / len(sessions)
    e2e, details = end_to_end(record)
    if args.trace:
        metrics, units = per_layer(record, failed_ratio), \
            metric_units("per_layer")
        record.tracer.write(os.path.join(OUT, stem + "-spans.jsonl"))
    else:
        metrics, units = e2e, metric_units("end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError("measured metrics {} differ from BENCHMARK.json's "
                           "{}".format(sorted(metrics), sorted(units)))
    full = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "host": host_fingerprint(),
        "metrics": metrics, "end_to_end": e2e, "failed_ratio": failed_ratio,
        "span_cost_s": record.span_cost_s,
        "setup_probes_s": record.setups,
        "verdict_walls_s": [v.wall_s for v in record.untraced],
        "verdict_raw_walls_s": [v.raw_s for v in record.untraced],
        "traced_verdict_walls_s": [v.wall_s for v in record.traced],
        "sessions": [
            {"label": s.label, "setup_s": s.setup_s, "wall_s": s.wall_s,
             "runs": s.runs, "problems": s.problems}
            for s in sessions
        ],
        **details,
    }
    with open(os.path.join(OUT, stem + ".json"), "w") as handle:
        json.dump(full, handle, indent=1)
    print("# {} seed={} seconds={} trace={} host={}".format(
        args.workload, args.seed, args.seconds, args.trace,
        json.dumps(full["host"], sort_keys=True)))
    print("# verdicts={} sessions={} tail=p{} over {} session(s); plain/"
          "corrected verdict wall {}".format(
              len(record.untraced) + len(record.traced), len(sessions),
              details["session_tail_percentile"], details["session_samples"],
              " ".join("{:.2f}".format(v.raw_s / v.wall_s)
                       for v in record.untraced)))
    for session in failed:
        print("# FAILED {}: {}".format(session.label,
                                       "; ".join(session.problems)))
    for name, value in metrics.items():
        print("{:<36} {:>16.6g} {}".format(name, value, units[name]))
    return {
        "correct": not failed,
        "attempted": len(sessions),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def run_all(args):
    """Each workload in a fresh interpreter, one after another."""
    from workloads import WORKLOADS

    passthrough = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
    passthrough += ["--profile"] if args.profile else []
    passthrough += ["--smoke"] if args.smoke else []
    summary = {}
    for name in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name]
            + passthrough,
            stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(completed.stdout)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            summary[name] = None
            continue
        summary[name] = json.loads(lines[-1])
    ok = all(result is not None and result["correct"]
             for result in summary.values())
    print(json.dumps({"correct": ok, "workloads": summary}))
    return 0 if ok else 1


def main(argv=None):
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not _import_program():
        sys.stderr.write("perfbench: no program source at {}; run from the "
                         "root of a checkout\n".format(SRC))
        return 2
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write("perfbench: unknown workload {!r} (choose from "
                         "{})\n".format(args.workload, ", ".join(WORKLOADS)))
        return 2
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
