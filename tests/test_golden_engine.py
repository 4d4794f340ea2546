"""Golden per-run outcomes of both execution engines.

``tests/golden_engine.json`` pins, for every run of a fixed set of DART
sessions, what the machine reported: ``machine.steps``,
``symbolic_steps`` and the branch count, a digest of the covered-branch
keys, the fault (kind, message, location) or the return value.  Each
session also pins its status, its errors and the union of its covered
keys.  The sessions are the Section 2 examples, the AC controller
(depth 2, seed 7, all errors), Dolev-Yao at depth 2, a
non-terminating loop, a stack overflow, an uninitialised read under
``track_uninitialized`` and the oSIP ``alloca`` overflow.

The engine-parity checks compare the two engines with each other, so a
change that moved both the same way would pass them; this file holds
both to the same recorded outcomes.  Regenerate it only for a
deliberate change of the machine's semantics::

    PYTHONPATH=src python tests/test_golden_engine.py --record
"""

import hashlib
import json
import os
import sys

import pytest

from repro.dart.config import DartOptions
from repro.dart.runner import Dart
from repro.interp.faults import ExecutionFault
from repro.programs import samples
from repro.programs.ac_controller import (
    AC_CONTROLLER_SOURCE,
    AC_CONTROLLER_TOPLEVEL,
)
from repro.programs.needham_schroeder import ns_source
from repro.programs.osip import OsipLibrary

HERE = os.path.dirname(__file__)
GOLDEN = os.path.join(HERE, "golden_engine.json")

NON_TERMINATION = """
int spin(int n) {
  int i;
  i = 0;
  while (i < n) i = i + 1;
  return i;
}
int top(int x) {
  int r;
  r = 1;
  if (x > 5) r = r + spin(x);
  return r;
}
"""

STACK_OVERFLOW = """
int down(int n) {
  if (n <= 0) return 0;
  return 1 + down(n - 1);
}
int top(int x) {
  if (x == 7) return down(100000);
  return x;
}
"""

UNINITIALIZED = """
int pick(int a) {
  int v;
  if (a > 3) v = a * 2;
  return v;
}
int top(int a, int b) {
  int s;
  s = pick(a);
  if (b == s) return 1;
  return 0;
}
"""


def _sessions():
    """name -> (source, toplevel, DartOptions keyword arguments)."""
    sessions = {
        "sample:" + name: (source, toplevel,
                           dict(max_iterations=60, seed=0,
                                stop_on_first_error=False))
        for name, (source, toplevel, _) in sorted(samples.ALL_SAMPLES.items())
    }
    sessions["ac"] = (AC_CONTROLLER_SOURCE, AC_CONTROLLER_TOPLEVEL,
                      dict(depth=2, seed=7, max_iterations=200,
                           stop_on_first_error=False))
    sessions["dolev_yao"] = (ns_source("dolev_yao"), "ns_dy_step",
                             dict(depth=2, max_iterations=50_000))
    sessions["non_termination"] = (NON_TERMINATION, "top",
                                   dict(max_steps=5000, max_iterations=20,
                                        stop_on_first_error=False))
    sessions["stack_overflow"] = (STACK_OVERFLOW, "top",
                                  dict(max_iterations=20,
                                       stop_on_first_error=False))
    sessions["uninitialized"] = (UNINITIALIZED, "top",
                                 dict(track_uninitialized=True,
                                      max_iterations=30,
                                      stop_on_first_error=False))
    sessions["osip_alloca"] = (
        OsipLibrary().source_for_module("parser"), "osip_message_parse",
        dict(stack_limit=1 << 16, seed=0, max_iterations=40))
    return sessions


SESSIONS = _sessions()


class _RecordingDart(Dart):
    """A session that keeps one record per machine run."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.records = []

    def machine(self, *args, **kwargs):
        machine = super().machine(*args, **kwargs)
        run = machine.run
        records = self.records

        def recorded(name, args=()):
            outcome = None
            try:
                value = run(name, args)
            except ExecutionFault as fault:
                outcome = ["fault", fault.kind, fault.message,
                           str(fault.location)]
                raise
            except BaseException as exc:
                outcome = ["raised", type(exc).__name__]
                raise
            else:
                outcome = ["value", value]
            finally:
                records.append([
                    machine.steps, machine.symbolic_steps,
                    machine.branches_executed,
                    _digest(machine.covered_branches), outcome,
                ])
            return value

        machine.run = recorded
        return machine


def _digest(covered):
    keys = sorted([name, pc, taken] for name, pc, taken in covered)
    return hashlib.sha256(json.dumps(keys).encode()).hexdigest()[:16]


def observe(name, compiled=True):
    """The recorded outcome of session ``name`` under one engine."""
    source, toplevel, overrides = SESSIONS[name]
    options = DartOptions(compiled_execution=compiled, **overrides)
    dart = _RecordingDart(source, toplevel, options)
    result = dart.run()
    return {
        "status": result.status,
        "errors": [[error.kind, error.fault.message, str(error.location),
                    error.iteration, error.inputs]
                   for error in result.errors],
        "quarantined": len(result.quarantined),
        "covered": sorted([name, pc, taken] for name, pc, taken
                          in result.stats.covered_branches),
        "runs": dart.records,
    }


def _golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


@pytest.mark.parametrize("compiled", [True, False],
                         ids=["compiled", "interpreted"])
@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_engine_matches_golden(name, compiled):
    expected = _golden()[name]
    got = json.loads(json.dumps(observe(name, compiled)))
    assert len(got["runs"]) == len(expected["runs"])
    for index, (run, want) in enumerate(zip(got["runs"], expected["runs"])):
        assert run == want, "run {}".format(index)
    assert got == expected


def test_golden_covers_every_session():
    assert sorted(_golden()) == sorted(SESSIONS)


@pytest.mark.xfail(raises=IndexError, strict=True, reason=(
    "the planner is handed a planned run's branch stack with the shorter "
    "path constraint of a run that faulted before its last planned "
    "branch (solve._plan indexes past the constraints)"))
def test_a_run_faulting_before_its_planned_branch_keeps_the_session():
    """The ``osip_alloca`` session above runs seed 0 and stops at its
    first error because seed 1, going on after errors, ends the whole
    session with an ``IndexError``."""
    source, toplevel, overrides = SESSIONS["osip_alloca"]
    options = dict(overrides, seed=1, stop_on_first_error=False)
    result = Dart(source, toplevel, DartOptions(**options)).run()
    assert result.errors


def _record():
    golden = {}
    for name in sorted(SESSIONS):
        compiled = observe(name, True)
        interpreted = observe(name, False)
        if compiled != interpreted:
            raise SystemExit("engines disagree on {}".format(name))
        golden[name] = compiled
    with open(GOLDEN, "w") as handle:
        json.dump(golden, handle, separators=(",", ":"), sort_keys=True)
        handle.write("\n")
    print("recorded {} session(s), {} run(s)".format(
        len(golden), sum(len(entry["runs"]) for entry in golden.values())))


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    _record()
