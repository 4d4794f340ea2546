"""The full Section 4.3 sweep: every oSIP function the toplevel in turn.

The paper makes each of ~600 oSIP functions the toplevel of a DART
session with at most 1,000 runs.  This check runs all 596 functions of
the generated library at that budget (``max_iterations=1000, seed=1,
max_steps=200_000, max_init_depth=4``, as ``benchmarks/bench_sec43_osip.py``
and the benchmark's ``osip-sweep`` sample do) and checks every session
against the generator's ground truth:

* DART must find an error exactly in the functions the generator made
  crashable;
* no run may be quarantined;
* every reported error must replay, on its recorded inputs, with the
  same kind at the same location.

All sessions over one module source share its front end (one lex, parse,
analysis and lowering per module), so the sweep costs about as much as
its runs.

Usage::

    PYTHONPATH=src python tools/check_osip_sweep.py [--limit N]

``--limit`` checks only the first N functions.  Exits 0 when every
session agrees, 1 after listing every mismatch otherwise.
"""

import argparse
import sys
import time

from repro import Dart, DartOptions
from repro.programs.osip import OsipLibrary


def sweep_options():
    # The paper's §4.3 budget: at most 1,000 runs per function.
    return DartOptions(max_iterations=1000, seed=1, max_steps=200_000,
                       max_init_depth=4)


def check_function(library, entry):
    """The problems of one session, as lines (empty when it agrees)."""
    dart = Dart(library.source_for_function(entry.name), entry.name,
                sweep_options(), "<osip>")
    result = dart.run()
    problems = []
    if result.found_error != entry.crashable:
        problems.append("found_error {} != crashable {}".format(
            result.found_error, entry.crashable))
    if result.quarantined:
        problems.append("{} run(s) quarantined".format(
            len(result.quarantined)))
    for error in result.errors:
        fault = dart.replay(error)
        if fault is None or fault.kind != error.kind \
                or str(fault.location) != str(error.location):
            problems.append("error {} does not replay".format(
                error.describe()))
    return problems, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--limit", type=int, default=None,
                        help="check only the first N functions")
    args = parser.parse_args(argv)
    library = OsipLibrary()
    functions = library.functions[:args.limit]
    started = time.perf_counter()
    mismatches = 0
    crashed = 0
    runs = 0
    for entry in functions:
        problems, result = check_function(library, entry)
        crashed += result.found_error
        runs += result.iterations
        for problem in problems:
            mismatches += 1
            print("{} ({}): {}".format(entry.name, entry.module, problem))
    elapsed = time.perf_counter() - started
    print("{} function(s) over {} module(s), {} run(s): {} crashed "
          "({:.0%}), {} mismatch(es) in {:.1f} s".format(
              len(functions), len({entry.module for entry in functions}),
              runs, crashed, crashed / max(len(functions), 1), mismatches,
              elapsed))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
