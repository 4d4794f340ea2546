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
  same kind at the same location;
* every session's module must list (disassembly, driver included, each
  instruction's source location, the globals and the strings) exactly
  as ``compile_program(source + driver)`` compiles the plain text.

All sessions over one module source share its front end (one lex, parse,
analysis and lowering per module) and the driver init functions earlier
sessions built, so the sweep costs about as much as its runs; the
listing check is where chunks reused across toplevels are compared with
the plain pipeline at scale.

Usage::

    PYTHONPATH=src python tools/check_osip_sweep.py [--limit N]

``--limit`` checks only the first N functions.  The summary line gives
the check's wall time and, of it, the time the DART sessions took to
build and run (the sweep itself).  Exits 0 when every session agrees,
1 after listing every mismatch otherwise.
"""

import argparse
import sys
import time

from repro import Dart, DartOptions
from repro.dart.driver import generate_driver
from repro.dart.interface import extract_interface
from repro.dart.runner import source_unit
from repro.minic import compile_program
from repro.programs.osip import OsipLibrary
from repro.testgen.oracles import module_listing


def sweep_options():
    # The paper's §4.3 budget: at most 1,000 runs per function.
    return DartOptions(max_iterations=1000, seed=1, max_steps=200_000,
                       max_init_depth=4)


def check_function(library, entry):
    """The problems of one session, as lines (empty when it agrees), its
    result, and the seconds the session took to build and run."""
    source = library.source_for_function(entry.name)
    options = sweep_options()
    started = time.perf_counter()
    dart = Dart(source, entry.name, options, "<osip>")
    result = dart.run()
    session_s = time.perf_counter() - started
    problems = []
    # The driver is generated from the session's unit as the session's
    # was (that the unit's interface is the plain pipeline's is oracle
    # 7's to check); the reference compiles source and driver as text.
    interface, _ = extract_interface(source_unit(source, "<osip>"),
                                     entry.name)
    reference = compile_program(source + generate_driver(
        interface, depth=options.depth,
        max_init_depth=options.max_init_depth), "<osip>")
    if module_listing(dart.module) != module_listing(reference):
        problems.append("module differs from compile_program(source + "
                        "driver)")
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
    return problems, result, session_s


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
    sessions_s = 0.0
    for entry in functions:
        problems, result, session_s = check_function(library, entry)
        sessions_s += session_s
        crashed += result.found_error
        runs += result.iterations
        for problem in problems:
            mismatches += 1
            print("{} ({}): {}".format(entry.name, entry.module, problem))
    elapsed = time.perf_counter() - started
    print("{} function(s) over {} module(s), {} run(s): {} crashed "
          "({:.0%}), {} mismatch(es) in {:.1f} s ({:.1f} s in the "
          "sessions)".format(
              len(functions), len({entry.module for entry in functions}),
              runs, crashed, crashed / max(len(functions), 1), mismatches,
              elapsed, sessions_s))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
