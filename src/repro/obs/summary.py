"""``python -m repro trace-summary``: render a trace file as a report.

Reads a JSONL trace (written with ``--trace PATH``) and computes:

* the **layer clock** — the session's exclusive wall time per layer
  (:mod:`repro.obs.clock`), carried verbatim by ``session_finished``,
  plus the unattributed remainder ("other") against the session's wall
  time.  A trace cut off before ``session_finished`` has no clock and
  reports none;
* the **branch-flip funnel** — attempted (conjuncts negated and handed
  to the solver or cache) → sat (feasible flips) → forced (planned runs
  that reached their predicted path) → new path (runs that discovered a
  previously unseen path), the end-to-end conversion rate of the
  directed search;
* per-event-type counts and solver/cache verdict tallies.

The funnel equals the session's reported statistics by construction:
``attempted == solver_calls + cache hits``, ``forced == runs_forced``,
``new path == runs_new_path`` (pinned by ``tests/test_trace_summary.py``).
"""

from repro.obs import trace as tr
from repro.obs.clock import render_layers


def summarize_trace(events):
    """Aggregate an event stream into a JSON-ready summary dict."""
    counts = {}
    funnel = {"attempted": 0, "sat": 0, "forced": 0, "new_path": 0}
    instructions = 0
    verdicts = {"sat": 0, "unsat": 0, "unknown": 0}
    cache_tiers = {}
    subsumption = {"flips_subsumed": 0, "worklist_deduped": 0}
    runs = {"total": 0, "ok": 0, "fault": 0, "mismatch": 0,
            "quarantined": 0}
    phases = None
    total_wall = None
    status = None
    engine = None
    search = "directed"
    iterations = 0
    coverage = None
    for event in events:
        etype = event.get("type")
        counts[etype] = counts.get(etype, 0) + 1
        if etype == tr.RUN_FINISHED:
            instructions += event.get("steps", 0)
            runs["total"] += 1
            run_status = event.get("status")
            if run_status in runs:
                runs[run_status] += 1
            if event.get("planned") and run_status in ("ok", "fault"):
                funnel["forced"] += 1
            if event.get("new_path"):
                funnel["new_path"] += 1
        elif etype == tr.SOLVER_ANSWERED:
            verdict = event.get("verdict")
            if verdict in verdicts:
                verdicts[verdict] += 1
            if verdict == "sat":
                funnel["sat"] += 1
        elif etype == tr.CACHE_LOOKUP:
            tier = event.get("tier") or "miss"
            cache_tiers[tier] = cache_tiers.get(tier, 0) + 1
            verdict = event.get("verdict")
            if verdict in verdicts:
                verdicts[verdict] += 1
            if verdict == "sat":
                funnel["sat"] += 1
        elif etype == tr.CONJUNCT_NEGATED:
            funnel["attempted"] += 1
        elif etype == tr.FLIP_SUBSUMED:
            subsumption["flips_subsumed"] += 1
        elif etype == tr.WORKLIST_DEDUP:
            subsumption["worklist_deduped"] += 1
        elif etype == tr.SESSION_STARTED:
            search = event.get("search", search)
        elif etype == tr.SESSION_FINISHED:
            total_wall = event.get("wall_s")
            phases = event.get("phases")
            status = event.get("status")
            engine = event.get("engine")
            iterations = event.get("iterations", 0)
            coverage = event.get("coverage")
    attributed = other = ratio = per_s = None
    if phases is not None:
        attributed = sum(entry["seconds"] for entry in phases.values())
        other = round(total_wall - attributed, 6)
        ratio = round(attributed / total_wall, 4)
        execute_s = phases["execute"]["seconds"]
        per_s = round(instructions / execute_s, 1) if execute_s else None
    summary = {
        "events": sum(counts.values()),
        "event_counts": {k: counts[k] for k in sorted(counts)},
        "status": status,
        # "dfs" / "serial" / "pool" — which engine ran the search
        # (absent in traces written before the field existed).
        "engine": engine,
        # "directed", or "random" for the random-testing baseline.
        "search": search,
        "iterations": iterations,
        "wall_s": total_wall,
        # The session's layer clock, as session_finished carries it (None
        # when the trace ends early: nothing is re-derived from events).
        "phases": phases,
        "phase_other_s": other,
        "phase_coverage": ratio,
        "instructions": instructions,
        "instructions_per_s": per_s,
        "funnel": funnel,
        "verdicts": verdicts,
        "cache_tiers": {k: cache_tiers[k] for k in sorted(cache_tiers)},
        # The pruning layer: flips refuted by recorded UNSAT cores and
        # worklist children dropped as fingerprint-duplicates.
        "subsumption": subsumption,
        "runs": runs,
    }
    if coverage is not None:
        # Branch-coverage block emitted on session_finished: direction
        # coverage plus the C1 (both-arms) rollup — see
        # repro.dart.coverage.
        summary["coverage"] = coverage
    return summary


def render_summary(summary):
    """Human-readable report (the non-``--json`` output)."""
    lines = []
    wall = summary["wall_s"]
    lines.append("trace summary: {} event(s), session status {}, "
                 "{} engine, {} run(s), {} wall".format(
                     summary["events"], summary["status"] or "?",
                     summary.get("engine") or "?",
                     summary["runs"]["total"],
                     "{:.4f}s".format(wall) if wall is not None else "?"))
    if summary.get("search") == "random":
        lines.append("search: random-testing baseline (untracked inputs, "
                     "no branch flips)")
    lines.append("")
    if summary["phases"] is not None:
        lines.extend(render_layers(summary["phases"], wall))
    else:
        lines.append("no layer clock recorded (trace ends before "
                     "session_finished)")
    lines.append("")
    funnel = summary["funnel"]
    lines.append("branch-flip funnel:")
    lines.append("  attempted {attempted} -> sat {sat} -> forced {forced} "
                 "-> new path {new_path}".format(**funnel))
    if funnel["attempted"]:
        lines.append("  conversion: {:.1%} of negated conjuncts ended in a "
                     "new path".format(
                         funnel["new_path"] / funnel["attempted"]))
    verdicts = summary["verdicts"]
    lines.append("")
    lines.append("verdicts: sat {sat} / unsat {unsat} / unknown {unknown}"
                 .format(**verdicts))
    if summary["cache_tiers"]:
        lines.append("cache tiers: " + ", ".join(
            "{} {}".format(tier, count)
            for tier, count in summary["cache_tiers"].items()))
    subs = summary.get("subsumption") or {}
    if subs.get("flips_subsumed") or subs.get("worklist_deduped"):
        lines.append("subsumption: {flips_subsumed} flip(s) refuted by "
                     "recorded cores, {worklist_deduped} worklist "
                     "child(ren) deduped".format(**subs))
    runs = summary["runs"]
    lines.append("runs: {total} total, {ok} ok, {fault} fault, "
                 "{mismatch} mismatch, {quarantined} quarantined"
                 .format(**runs))
    if summary["instructions_per_s"] is not None:
        lines.append("throughput: {} instruction(s), {}/s over the execute "
                     "layer".format(summary["instructions"],
                                    summary["instructions_per_s"]))
    else:
        lines.append("throughput: {} instruction(s)".format(
            summary["instructions"]))
    coverage = summary.get("coverage")
    if coverage is not None:
        lines.append(
            "coverage: {covered_directions}/{total_directions} branch "
            "directions ({percent}%), C1 {branches_both_arms}/"
            "{total_branches} branches both-arms ({c1_percent}%)".format(
                **coverage))
    lines.append("")
    lines.append("event counts:")
    for etype, count in summary["event_counts"].items():
        lines.append("  {:<18} {}".format(etype, count))
    return "\n".join(lines)
