"""Solver-throughput benchmark: slicing + caching + parallel search.

Measures the PR's three optimisation layers on the paper's Section 4.1
AC-controller benchmark (full path exploration at depth 2, so the
workload is the whole search tree, not just the run that finds the bug):

* **ablation** — baseline (slicing and cache disabled) vs. optimised
  (both enabled) under dfs and bfs: wall time, solver calls, average
  conjuncts per call, cache hit rate.  The verdict, triggering inputs
  and deduplicated error set must be *identical* — the optimisations may
  change models, never outcomes — and the acceptance bar is a >= 30%
  reduction in actual solver calls.
* **parallel** — the bfs search with ``jobs=2`` must report exactly the
  serial engine's error set (and, in full mode, the same check on the
  depth-2 Needham-Schroeder possibilistic attack search), and the
  persistent-pool gate runs a *depth-scaled* benchmark (heavy concrete
  loops behind independent symbolic guards — execution dominates, the
  shape the pipelined pool is built for): identical error sets, shared
  cache hit rate >= serial's, and pool wall-clock < serial wall-clock.
  The wall gate needs real hardware parallelism, so it is enforced only
  when the host exposes >= 2 usable CPUs (CI does); a single-CPU host
  records the measurement and the skip reason in the JSON.
* **coverage** — the C1 branch-coverage-vs-run-budget curve on the
  depth-2 bfs search (budgets 1..128, doubling): the curve must be
  monotone non-decreasing and its largest budget must reach the
  full-exploration reference C1 — coverage accounting that drifts, or a
  search that stops discovering, fails the gate.
* **phases** — one profiled (``profile_phases=True``) depth-2 dfs run
  recording where the session's wall time goes (the exclusive layers of
  :mod:`repro.obs.clock`: execute / compile / plan / cache / solver /
  checkpoint / commit), gating that the layers attribute >= 90% of it,
  plus two overhead rows against the plain search: the clock alone
  (``clock_overhead``) and the clock with JSONL tracing
  (``instrumentation_overhead``), each a best-of-N wall to damp
  scheduler jitter.
* **throughput** — the PR 7 compiled-engine gate: the same oSIP-shaped
  compute kernel (symbolic command dispatch around concrete parse/
  checksum loops) searched to completion under the compiled engine and
  under ``--no-compile``; executed instructions per second over the
  execute(+compile) layers must improve by >= 3x, with identical
  verdicts, error sets and instruction counts (the engines are
  observationally identical — only the clock may move).

Every wall-clock figure a gate compares is a best-of-N over ``runs``
independent sessions (recorded in the JSON), so one preempted timeslice
cannot fail CI.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf.py [--quick] [--out FILE]

Writes ``BENCH_perf.json`` (repo root by default) and exits non-zero if
any invariant above is violated, so CI can gate on it.  ``--quick``
skips the Needham-Schroeder row to stay CI-cheap; the qualitative result
is identical.
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import DartOptions  # noqa: E402
from repro.dart.runner import Dart  # noqa: E402
from repro.programs.ac_controller import (  # noqa: E402
    AC_CONTROLLER_SOURCE,
    AC_CONTROLLER_TOPLEVEL,
)
from repro.programs.needham_schroeder import ns_source  # noqa: E402

ACCEPT_REDUCTION = 0.30  # required solver-call reduction (ISSUE bar)
ACCEPT_SPEEDUP = 3.0     # required compiled-engine throughput gain
WALL_RUNS = 3            # best-of-N for every gated wall-clock figure


def _run(source, toplevel, **overrides):
    options = DartOptions(**overrides)
    start = time.perf_counter()
    result = Dart(source, toplevel, options).run()
    wall = time.perf_counter() - start
    stats = result.stats
    return {
        "status": result.status,
        "iterations": result.iterations,
        "errors": sorted({
            "{}@{}".format(error.kind, error.location)
            for error in result.errors
        }),
        "first_error_inputs": list(result.first_error().inputs)
        if result.found_error else None,
        "wall_s": round(wall, 4),
        "solver_calls": stats.solver_calls,
        "avg_constraints_per_call":
            round(stats.avg_constraints_per_call, 2),
        "sliced_conjuncts_dropped": stats.sliced_conjuncts_dropped,
        "cache_hit_rate": round(stats.cache_hit_rate, 4),
        "cache_hits": stats.cache_hits,
        "cache_unsat_shortcuts": stats.cache_unsat_shortcuts,
        "cache_misses": stats.cache_misses,
        "cache_failures": stats.cache_failures,
        "flips_subsumed_core": stats.flips_subsumed_core,
        "worklist_deduped": stats.worklist_deduped,
        "conjuncts_widened": stats.conjuncts_widened,
        "conjuncts_dropped_unfaithful":
            stats.conjuncts_dropped_unfaithful,
    }


def ablation(strategy, failures):
    """Baseline vs. optimised on the AC controller, one strategy."""
    common = dict(depth=2, max_iterations=1000, seed=0, strategy=strategy,
                  stop_on_first_error=False)
    baseline = _run(AC_CONTROLLER_SOURCE, AC_CONTROLLER_TOPLEVEL,
                    constraint_slicing=False, solver_cache=False, **common)
    optimised = _run(AC_CONTROLLER_SOURCE, AC_CONTROLLER_TOPLEVEL,
                     constraint_slicing=True, solver_cache=True, **common)
    reduction = 1.0 - optimised["solver_calls"] / baseline["solver_calls"]
    row = {
        "strategy": strategy,
        "baseline": baseline,
        "optimised": optimised,
        "solver_call_reduction": round(reduction, 4),
    }
    for field in ("status", "errors", "first_error_inputs"):
        if baseline[field] != optimised[field]:
            failures.append(
                "ablation[{}]: {} differs (baseline {!r}, optimised {!r})"
                .format(strategy, field, baseline[field], optimised[field])
            )
    if reduction < ACCEPT_REDUCTION:
        failures.append(
            "ablation[{}]: solver-call reduction {:.1%} below the "
            "{:.0%} bar".format(strategy, reduction, ACCEPT_REDUCTION)
        )
    return row


def parallel_check(name, source, toplevel, failures, **common):
    """Serial vs. jobs=2 generational search: identical error sets."""
    serial = _run(source, toplevel, jobs=1, **common)
    parallel = _run(source, toplevel, jobs=2, **common)
    row = {"benchmark": name, "serial": serial, "parallel": parallel}
    for field in ("status", "errors"):
        if serial[field] != parallel[field]:
            failures.append(
                "parallel[{}]: {} differs (serial {!r}, jobs=2 {!r})"
                .format(name, field, serial[field], parallel[field])
            )
    return row


def cache_failure_gate(section, rows, failures):
    """Fail on any cache access that raised: no fault is injected here,
    so a failure is a bug (each one also wipes the cache it hit)."""
    for label, row in rows:
        if row["cache_failures"]:
            failures.append(
                "{}: {} session logged {} cache failure(s)".format(
                    section, label, row["cache_failures"]))


#: Depth-scaled workload for the persistent-pool gate: the concrete
#: loop nest makes every run ~15k instructions (execution dominates the
#: session), and the four independent symbolic guards fan the bfs
#: frontier out to 16 runs — enough in-flight items to keep both
#: workers busy, so the pipelined pool's overlap shows up as wall-clock.
PIPELINE_SOURCE = """
int pipeline_bench(int a, int b, int c, int d) {
  int i; int j; int acc; int sum; int table[32]; int hits;
  acc = 0; sum = 0; hits = 0;
  for (i = 0; i < 32; i = i + 1) { table[i] = (i * 16807) % 97; }
  for (i = 0; i < 48; i = i + 1) {
    for (j = 0; j < 32; j = j + 1) {
      acc = acc + table[j] * (j + i);
      sum = sum ^ (acc >> 3);
      acc = acc & 1048575;
      sum = sum + (table[j] ^ i);
    }
  }
  if (a > sum % 7) { hits = hits + 1; }
  if (b == 41) { hits = hits + 2; }
  if (c < -100) { hits = hits + 4; }
  if (d > 500) { hits = hits + 8; }
  if (hits == 15) { abort(); }
  return hits;
}
"""


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover — non-Linux fallback
        return os.cpu_count() or 1


def pipeline_gate(failures):
    """The persistent-pool hard gate on the depth-scaled benchmark.

    Serial and jobs=2 each run ``WALL_RUNS`` sessions (best wall kept).
    Always gated: identical status/errors/iterations, no cache failure
    in either session, and the pool's cache hit rate at least the serial
    session's (the shared store must never lose sharing the serial cache
    had).  Gated when the host has >= 2 usable CPUs: pool wall-clock
    strictly below serial wall-clock.
    """
    common = dict(max_iterations=200, seed=0, strategy="bfs",
                  stop_on_first_error=False)

    def best(jobs):
        rows = [_run(PIPELINE_SOURCE, "pipeline_bench", jobs=jobs,
                     **common) for _ in range(WALL_RUNS)]
        return min(rows, key=lambda row: row["wall_s"])

    serial = best(1)
    pool = best(2)
    cpus = _usable_cpus()
    wall_gate = "enforced" if cpus >= 2 else \
        "skipped (single usable CPU: no hardware parallelism to measure)"
    row = {
        "benchmark": "pipeline-depth-scaled",
        "runs": WALL_RUNS,
        "cpus": cpus,
        "serial": serial,
        "parallel": pool,
        "speedup": round(serial["wall_s"] / pool["wall_s"], 2)
        if pool["wall_s"] else 0.0,
        "wall_gate": wall_gate,
    }
    for field in ("status", "errors", "iterations"):
        if serial[field] != pool[field]:
            failures.append(
                "pipeline: {} differs (serial {!r}, jobs=2 {!r})"
                .format(field, serial[field], pool[field]))
    cache_failure_gate("pipeline", (("serial", serial), ("jobs=2", pool)),
                       failures)
    if pool["cache_hit_rate"] < serial["cache_hit_rate"]:
        failures.append(
            "pipeline: pool cache hit rate {:.2%} below serial {:.2%}"
            .format(pool["cache_hit_rate"], serial["cache_hit_rate"]))
    if cpus >= 2 and pool["wall_s"] >= serial["wall_s"]:
        failures.append(
            "pipeline: jobs=2 wall {}s not below serial {}s on {} CPUs"
            .format(pool["wall_s"], serial["wall_s"], cpus))
    return row


#: Depth-scaled workload for the subsumption gate.  The two ``x`` nests
#: share the strict UNSAT core {x > 60, x < 30}: the first nest's
#: infeasible flip pays the solver call and records the minimized core,
#: the second nest's flip query ([x > 20, x > 60, x < 30]) is neither an
#: exact hit nor a superset of the *whole* first query, so only the core
#: tier can refute it without a call.  The three independent guards are
#: what the coupling analysis proves dedup-eligible: at depth 2 their
#: flip queries repeat across every subtree of the other guards, and the
#: worklist dedup collapses the repeats (strictly fewer runs) while the
#: ``b == 9`` abort pins that the error set survives the pruning.
SUBSUME_SOURCE = """
int subsume_bench(int x, int a, int b, int c) {
  if (x > 10) { if (x > 60) { if (x < 30) { x = 0; } } }
  if (x > 20) { if (x > 60) { if (x < 30) { x = 1; } } }
  if (a == 7) { x = 2; }
  if (b == 9) { abort(); }
  if (c == 11) { x = 3; }
  return x;
}
"""


def subsumption_section(failures):
    """The tentpole gate: subsumption prunes runs and calls, not errors.

    On the depth-scaled benchmark the subsuming session must finish in
    *strictly fewer* runs and *strictly fewer* solver calls than its
    ``--no-subsumption`` ablation while reporting the identical error
    set and verdict, with both pruning counters visibly non-zero (and
    zero under the ablation).  A jobs=2 session under subsumption must
    match the serial one exactly — commit-order dedup is deterministic.
    No session may log a cache failure.
    """
    common = dict(depth=2, max_iterations=400, seed=0, strategy="bfs",
                  stop_on_first_error=False)
    on = _run(SUBSUME_SOURCE, "subsume_bench", **common)
    off = _run(SUBSUME_SOURCE, "subsume_bench", subsumption=False, **common)
    pool = _run(SUBSUME_SOURCE, "subsume_bench", jobs=2, **common)
    row = {
        "benchmark": "subsume-depth-scaled",
        "subsuming": on,
        "ablated": off,
        "parallel": pool,
        "runs_saved": off["iterations"] - on["iterations"],
        "solver_calls_saved": off["solver_calls"] - on["solver_calls"],
    }
    for field in ("status", "errors"):
        if on[field] != off[field]:
            failures.append(
                "subsumption: {} differs (subsuming {!r}, ablated {!r})"
                .format(field, on[field], off[field]))
    if on["iterations"] >= off["iterations"]:
        failures.append(
            "subsumption: {} runs not strictly below the ablation's {}"
            .format(on["iterations"], off["iterations"]))
    if on["solver_calls"] >= off["solver_calls"]:
        failures.append(
            "subsumption: {} solver calls not strictly below the "
            "ablation's {}".format(on["solver_calls"],
                                   off["solver_calls"]))
    if on["flips_subsumed_core"] <= 0 or on["worklist_deduped"] <= 0:
        failures.append(
            "subsumption: pruning counters not both positive "
            "(cores {}, deduped {})".format(on["flips_subsumed_core"],
                                            on["worklist_deduped"]))
    if off["flips_subsumed_core"] or off["worklist_deduped"]:
        failures.append(
            "subsumption: ablation counted pruning (cores {}, deduped "
            "{})".format(off["flips_subsumed_core"],
                         off["worklist_deduped"]))
    cache_failure_gate("subsumption", (("subsuming", on), ("ablated", off),
                                       ("jobs=2", pool)), failures)
    for field in ("status", "errors", "iterations", "worklist_deduped"):
        if on[field] != pool[field]:
            failures.append(
                "subsumption: {} differs (serial {!r}, jobs=2 {!r})"
                .format(field, on[field], pool[field]))
    return row


def phases_section(failures):
    """Layer breakdown of a profiled run, plus the overhead rows."""
    common = dict(depth=2, max_iterations=1000, seed=0, strategy="dfs",
                  stop_on_first_error=False)

    dart = Dart(AC_CONTROLLER_SOURCE, AC_CONTROLLER_TOPLEVEL,
                DartOptions(profile_phases=True, **common))
    start = time.perf_counter()
    result = dart.run()
    wall = time.perf_counter() - start
    snapshot = result.stats.summary()["phases"]
    attributed = sum(entry["seconds"] for entry in snapshot.values())
    coverage = attributed / wall

    def best_of(n, **overrides):
        walls = []
        for _ in range(n):
            # Compile outside the window: the layers attribute *search*
            # time, not the one-off front-end cost.
            dart = Dart(AC_CONTROLLER_SOURCE, AC_CONTROLLER_TOPLEVEL,
                        DartOptions(**overrides, **common))
            t0 = time.perf_counter()
            dart.run()
            walls.append(time.perf_counter() - t0)
        return min(walls)

    plain = best_of(WALL_RUNS)
    clocked = best_of(WALL_RUNS, profile_phases=True)
    instrumented = best_of(WALL_RUNS, trace_file=os.devnull,
                           profile_phases=True)
    row = {
        "program": "sec. 4.1 AC controller, depth 2, dfs, full exploration",
        "wall_s": round(wall, 4),
        "phases": snapshot,
        "phase_coverage": round(coverage, 4),
        "runs": WALL_RUNS,
        "plain_wall_s": round(plain, 4),
        "clocked_wall_s": round(clocked, 4),
        "clock_overhead": round(clocked / plain - 1.0, 4),
        "instrumented_wall_s": round(instrumented, 4),
        "instrumentation_overhead": round(instrumented / plain - 1.0, 4),
    }
    if coverage < 0.9:
        failures.append(
            "phases: only {:.1%} of wall time attributed to the layer "
            "clock (>= 90% required)".format(coverage)
        )
    return row


#: Overflow-sensitive workload for the widening funnel: every branch
#: needs the bit-precise machine-integer encoding to flip (unsigned
#: compare against a negative constant, a sum that wraps at 2**31, and
#: an unsigned sum that wraps at 2**32).
WRAP_BENCH_SOURCE = """
int wrap_bench(int x, unsigned u) {
    int hits;
    hits = 0;
    if (u >= -28) { hits = hits + 1; }
    if (x + 2000000000 > 0) { hits = hits + 1; }
    if (u + 20 < 19) { hits = hits + 1; }
    return hits;
}
"""


def widening_section(failures):
    """The widened/dropped funnel on a wrap-heavy search.

    Gates the PR's headline invariant: the widening layer encodes every
    wrap-affected conjunct faithfully (``conjuncts_dropped_unfaithful``
    stays 0) and the session still finishes complete — directed search
    through machine-integer semantics, not random luck.
    """
    row = _run(WRAP_BENCH_SOURCE, "wrap_bench", max_iterations=120,
               seed=0, stop_on_first_error=False)
    if row["conjuncts_widened"] == 0:
        failures.append("widening: no conjunct was widened on the "
                        "wrap-heavy benchmark")
    if row["conjuncts_dropped_unfaithful"] != 0:
        failures.append(
            "widening: {} conjunct(s) dropped as unfaithful (0 required)"
            .format(row["conjuncts_dropped_unfaithful"]))
    if row["status"] != "complete":
        failures.append("widening: wrap-heavy search ended {!r}, not "
                        "complete".format(row["status"]))
    return row


#: oSIP-shaped throughput kernel (bench_sec43 scale): a symbolic command
#: dispatch wrapped around concrete parse/checksum loops — the workload
#: profile the compiled engine's taint-gated fast path is built for.
#: Only the branches on ``cmd``/``key`` are input-dependent; the loop
#: nest is pure concrete arithmetic the interpreter used to re-dispatch
#: node by node.
THROUGHPUT_SOURCE = """
int osip_like(int cmd, int key) {
    int i; int j; int acc; int sum; int table[32];
    acc = 0;
    sum = 0;
    for (i = 0; i < 32; i = i + 1) { table[i] = (i * 16807) % 97; }
    for (i = 0; i < 24; i = i + 1) {
        for (j = 0; j < 32; j = j + 1) {
            acc = acc + table[j] * (j + i);
            sum = sum ^ (acc >> 3);
            acc = acc & 1048575;
            sum = sum + (table[j] ^ i);
        }
    }
    if (cmd > sum % 7) {
        if (key == 41) { return 3; }
        return 1;
    }
    if (cmd < -100) { return 2; }
    return 0;
}
"""


def throughput_section(failures):
    """Compiled vs. interpreted engine on the throughput kernel.

    Each configuration explores the kernel to completion ``WALL_RUNS``
    times under ``profile_phases=True``; the per-run metric is executed
    instructions per second over the execute(+compile) layer seconds,
    and the configuration keeps its best run.  Gates: >= 3x speedup,
    identical status/errors/instruction counts (observational identity
    is enforced separately by the engine-differential oracle; here it
    pins the two sides of the ratio to the same workload).
    """
    common = dict(max_iterations=64, seed=0, stop_on_first_error=False,
                  handle_signals=False, profile_phases=True)

    def session(compiled_execution):
        best = None
        for _ in range(WALL_RUNS):
            dart = Dart(THROUGHPUT_SOURCE, "osip_like", DartOptions(
                compiled_execution=compiled_execution, **common))
            result = dart.run()
            summary = result.stats.summary()
            seconds = sum(summary["phases"][layer]["seconds"]
                          for layer in ("execute", "compile"))
            row = {
                "status": result.status,
                "errors": sorted({
                    "{}@{}".format(error.kind, error.location)
                    for error in result.errors}),
                "iterations": result.iterations,
                "instructions_executed": summary["instructions_executed"],
                "instructions_symbolic": summary["instructions_symbolic"],
                "execute_plus_compile_s": round(seconds, 4),
                "instructions_per_s": round(
                    summary["instructions_executed"] / seconds, 1)
                if seconds else 0.0,
            }
            if best is None or row["instructions_per_s"] \
                    > best["instructions_per_s"]:
                best = row
        return best

    interpreted = session(False)
    compiled = session(True)
    speedup = (compiled["instructions_per_s"]
               / interpreted["instructions_per_s"]
               if interpreted["instructions_per_s"] else 0.0)
    row = {
        "program": "oSIP-shaped command dispatch + checksum loops, "
                   "full exploration",
        "runs": WALL_RUNS,
        "interpreted": interpreted,
        "compiled": compiled,
        "speedup": round(speedup, 2),
    }
    for field in ("status", "errors", "iterations",
                  "instructions_executed", "instructions_symbolic"):
        if interpreted[field] != compiled[field]:
            failures.append(
                "throughput: {} differs (interpreted {!r}, compiled {!r})"
                .format(field, interpreted[field], compiled[field]))
    if speedup < ACCEPT_SPEEDUP:
        failures.append(
            "throughput: compiled-engine speedup {:.2f}x below the "
            "{:.1f}x bar ({:.0f}/s -> {:.0f}/s)".format(
                speedup, ACCEPT_SPEEDUP,
                interpreted["instructions_per_s"],
                compiled["instructions_per_s"]))
    return row


#: Run budgets of the coverage-vs-budget curve (doublings, CI-cheap).
COVERAGE_BUDGETS = (1, 2, 4, 8, 16, 32, 64, 128)


def coverage_section(failures):
    """C1 branch coverage vs. run budget on the AC controller.

    One fresh depth-2 bfs campaign per budget; the recorded point is the
    session's C1 rollup (branches with BOTH arms taken).  Gates: the
    curve is monotone non-decreasing in the budget (a deterministic
    directed search can only discover more), and the largest budget
    reaches exactly the full-exploration reference — the directed
    search needs ~30 runs to saturate a program random testing cannot
    finish at all (Section 4.1).
    """
    common = dict(depth=2, seed=0, strategy="bfs",
                  stop_on_first_error=False)

    def point(budget):
        result = Dart(AC_CONTROLLER_SOURCE, AC_CONTROLLER_TOPLEVEL,
                      DartOptions(max_iterations=budget, **common)).run()
        coverage = result.coverage
        return {
            "budget": budget,
            "iterations": result.iterations,
            "c1_percent": round(coverage.c1_percent, 2),
            "branches_both_arms": coverage.branches_both_arms,
            "total_branches": coverage.total_branches,
            "direction_percent": round(coverage.percent, 2),
        }

    reference = point(1000)
    curve = [point(budget) for budget in COVERAGE_BUDGETS]
    row = {
        "program": "sec. 4.1 AC controller, depth 2, bfs",
        "curve": curve,
        "reference": reference,
    }
    for earlier, later in zip(curve, curve[1:]):
        if later["c1_percent"] < earlier["c1_percent"]:
            failures.append(
                "coverage: C1 fell from {}% (budget {}) to {}% (budget "
                "{}) — the curve must be monotone".format(
                    earlier["c1_percent"], earlier["budget"],
                    later["c1_percent"], later["budget"]))
            break
    if curve[-1]["c1_percent"] != reference["c1_percent"]:
        failures.append(
            "coverage: budget {} reached {}% C1, full exploration "
            "reaches {}%".format(
                curve[-1]["budget"], curve[-1]["c1_percent"],
                reference["c1_percent"]))
    return row


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="skip the Needham-Schroeder parallel row")
    parser.add_argument("--out", default=os.path.join(
        os.path.dirname(__file__), "..", "BENCH_perf.json"))
    args = parser.parse_args(argv)

    failures = []
    report = {
        "benchmark": "solver-throughput (slicing + cache + parallel)",
        "program": "sec. 4.1 AC controller, depth 2, full exploration",
        "quick": args.quick,
        "ablation": [ablation(s, failures) for s in ("dfs", "bfs")],
        "parallel": [parallel_check(
            "ac-controller-depth2", AC_CONTROLLER_SOURCE,
            AC_CONTROLLER_TOPLEVEL, failures,
            depth=2, max_iterations=1000, seed=0, strategy="bfs",
            stop_on_first_error=False,
        )],
    }
    if not args.quick:
        report["parallel"].append(parallel_check(
            "ns-possibilistic-depth2", ns_source("possibilistic"),
            "ns_step", failures,
            depth=2, max_iterations=50_000, seed=0, strategy="bfs",
        ))
    report["parallel"].append(pipeline_gate(failures))
    report["subsumption"] = subsumption_section(failures)
    report["widening"] = widening_section(failures)
    report["coverage"] = coverage_section(failures)
    report["phases"] = phases_section(failures)
    report["throughput"] = throughput_section(failures)
    report["ok"] = not failures
    report["failures"] = failures

    out = os.path.abspath(args.out)
    with open(out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    for row in report["ablation"]:
        print("ablation {strategy}: {reduction:.1%} fewer solver calls "
              "({base} -> {opt}), avg conjuncts {bavg} -> {oavg}, "
              "cache hit rate {rate:.1%}".format(
                  strategy=row["strategy"],
                  reduction=row["solver_call_reduction"],
                  base=row["baseline"]["solver_calls"],
                  opt=row["optimised"]["solver_calls"],
                  bavg=row["baseline"]["avg_constraints_per_call"],
                  oavg=row["optimised"]["avg_constraints_per_call"],
                  rate=row["optimised"]["cache_hit_rate"]))
    for row in report["parallel"]:
        print("parallel {benchmark}: serial errors {s} == jobs=2 errors "
              "{p}".format(benchmark=row["benchmark"],
                           s=row["serial"]["errors"],
                           p=row["parallel"]["errors"]))
        if "wall_gate" in row:
            print("parallel {benchmark}: wall {sw}s serial vs {pw}s "
                  "jobs=2 ({speedup}x), hit rate {sr:.2%} -> {pr:.2%}, "
                  "wall gate {gate}".format(
                      benchmark=row["benchmark"],
                      sw=row["serial"]["wall_s"],
                      pw=row["parallel"]["wall_s"],
                      speedup=row["speedup"],
                      sr=row["serial"]["cache_hit_rate"],
                      pr=row["parallel"]["cache_hit_rate"],
                      gate=row["wall_gate"]))
    subsume = report["subsumption"]
    print("subsumption: {} -> {} runs, {} -> {} solver calls "
          "(cores {}, deduped {}), errors {}".format(
              subsume["ablated"]["iterations"],
              subsume["subsuming"]["iterations"],
              subsume["ablated"]["solver_calls"],
              subsume["subsuming"]["solver_calls"],
              subsume["subsuming"]["flips_subsumed_core"],
              subsume["subsuming"]["worklist_deduped"],
              subsume["subsuming"]["errors"]))
    widening = report["widening"]
    print("widening: {} conjunct(s) widened, {} dropped, status {}"
          .format(widening["conjuncts_widened"],
                  widening["conjuncts_dropped_unfaithful"],
                  widening["status"]))
    curve = report["coverage"]["curve"]
    print("coverage: C1 {} across budgets {} (reference {}%)".format(
        " -> ".join("{}%".format(entry["c1_percent"]) for entry in curve),
        "/".join(str(entry["budget"]) for entry in curve),
        report["coverage"]["reference"]["c1_percent"]))
    phases = report["phases"]
    print("phases: {:.1%} of wall attributed ({}); clock overhead "
          "{:+.1%}, tracing+clock overhead {:+.1%}".format(
              phases["phase_coverage"],
              ", ".join("{} {:.4f}s".format(name, entry["seconds"])
                        for name, entry in phases["phases"].items()),
              phases["clock_overhead"],
              phases["instrumentation_overhead"]))
    throughput = report["throughput"]
    print("throughput: {:.0f} -> {:.0f} instructions/s "
          "({:.2f}x, best of {} runs)".format(
              throughput["interpreted"]["instructions_per_s"],
              throughput["compiled"]["instructions_per_s"],
              throughput["speedup"], throughput["runs"]))
    print("wrote", out)
    if failures:
        for failure in failures:
            print("FAIL:", failure, file=sys.stderr)
        return 1
    print("all invariants hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
