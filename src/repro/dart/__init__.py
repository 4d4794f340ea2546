"""DART: Directed Automated Random Testing — the paper's core contribution.

The package mirrors the paper's structure:

* :mod:`repro.dart.interface` — automated interface extraction (§3.1);
* :mod:`repro.dart.driver` — test-driver generation in mini-C, including
  ``random_init`` for arbitrary (even recursive) types and stubs for
  external functions (§3.2, Figs. 7–8);
* :mod:`repro.dart.instrument` — the instrumented program of Fig. 3 plus
  ``compare_and_update_stack`` of Fig. 4;
* :mod:`repro.dart.solve` — ``solve_path_constraint`` of Fig. 5, and the
  generational expansion behind the BFS/random orders of footnote 4;
* :mod:`repro.dart.runner` — the ``run_DART`` driver of Fig. 2 (directed
  search inside random restarts, completeness flags, Theorem 1 statuses);
* :mod:`repro.dart.random_testing` — the random-testing baseline the
  evaluation compares against: a ``run_DART`` session whose inputs are
  untracked.

The one-call entry points are :func:`repro.dart.runner.dart_check` and
:func:`repro.dart.random_testing.random_check`.
"""

from repro.dart.config import DartOptions
from repro.dart.driver import generate_driver, build_test_program
from repro.dart.interface import extract_interface
from repro.dart.inputs import InputVector, domain_for_kind
from repro.dart.random_testing import RandomTester, random_check
from repro.dart.report import (
    DartResult,
    ErrorReport,
    QuarantineRecord,
    RunStats,
)
from repro.dart.runner import Dart, dart_check

__all__ = [
    "Dart",
    "DartOptions",
    "DartResult",
    "ErrorReport",
    "InputVector",
    "QuarantineRecord",
    "RandomTester",
    "RunStats",
    "build_test_program",
    "dart_check",
    "domain_for_kind",
    "extract_interface",
    "generate_driver",
    "random_check",
]
