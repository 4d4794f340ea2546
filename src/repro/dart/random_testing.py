"""The pure random-testing baseline (Sections 1 and 4).

Same generated driver, same fault detection — but every run draws a fresh
random input vector and no symbolic state is maintained.  This is the
baseline the paper's evaluation compares the directed search against
("a random search would thus run forever without detecting any errors").
"""

import random
import time

from repro.dart.config import DartOptions
from repro.dart.coverage import BranchCoverage
from repro.dart.driver import DRIVER_ENTRY, build_test_program
from repro.dart.inputs import InputVector, random_value
from repro.dart.report import (
    BUG_FOUND,
    EXHAUSTED,
    DartResult,
    ErrorReport,
    RunStats,
)
from repro.dart.runner import quarantine_record
from repro.interp.compile import CompiledProgram
from repro.interp.faults import ExecutionFault
from repro.interp.machine import Machine, MachineOptions
from repro.symbolic.flags import CompletenessFlags


class RandomHooks:
    """Inputs are freshly random; branches are ignored."""

    def __init__(self, im, rng):
        self.im = im
        self._rng = rng
        self._next_ordinal = 0

    def acquire_input(self, kind):
        ordinal = self._next_ordinal
        self._next_ordinal += 1
        value = random_value(kind, self._rng)
        self.im.record(ordinal, kind, value)
        return value, None  # invisible to the symbolic machinery

    def on_branch(self, taken, constraint, location):
        pass


class RandomTester:
    """Random unit testing with the auto-generated driver."""

    def __init__(self, source, toplevel, options=None, filename="<program>"):
        self.options = options or DartOptions()
        self.toplevel = toplevel
        self.module = build_test_program(
            source, toplevel, depth=self.options.depth, filename=filename,
            max_init_depth=self.options.max_init_depth,
        )
        self.compiled = CompiledProgram(self.module) \
            if self.options.compiled_execution else None

    def run(self):
        options = self.options
        stats = RunStats()
        errors = []
        seen_error_keys = set()
        rng = random.Random(options.seed)
        flags = CompletenessFlags()
        flags.clear_linear()  # random testing never claims completeness
        deadline = None
        if options.time_limit is not None:
            deadline = time.perf_counter() + options.time_limit
        status = EXHAUSTED
        try:
            while stats.iterations < options.max_iterations:
                if deadline is not None and time.perf_counter() > deadline:
                    break
                stats.iterations += 1
                run_deadline = None
                if options.run_time_limit is not None:
                    run_deadline = \
                        time.perf_counter() + options.run_time_limit
                if deadline is not None and (run_deadline is None
                                             or deadline < run_deadline):
                    run_deadline = deadline
                im = InputVector()
                hooks = RandomHooks(im, rng)
                machine = Machine(
                    self.module,
                    MachineOptions(
                        max_steps=options.max_steps,
                        memory=options.memory_options(),
                        deadline=run_deadline,
                    ),
                    hooks,
                    CompletenessFlags(),
                    compiled=self.compiled,
                )
                try:
                    machine.run(DRIVER_ENTRY)
                except ExecutionFault as fault:
                    status = BUG_FOUND
                    key = (fault.kind, str(fault.location))
                    if key not in seen_error_keys:
                        seen_error_keys.add(key)
                        errors.append(
                            ErrorReport(fault, im.values(), stats.iterations,
                                        kinds=[slot.kind for slot in im])
                        )
                    if options.stop_on_first_error:
                        break
                except Exception as caught:  # noqa: BLE001 — fault boundary
                    # A watchdog timeout or a harness failure loses this
                    # run, not the session: the baseline keeps drawing
                    # fresh vectors, as the directed search does.
                    stats.quarantined.append(
                        quarantine_record(caught, im, stats.iterations))
                finally:
                    stats.branches_executed += machine.branches_executed
                    stats.instructions_executed += machine.steps
                    stats.instructions_symbolic += machine.symbolic_steps
                    stats.covered_branches |= machine.covered_branches
        finally:
            stats.finish()
        return DartResult(
            status, errors, stats, flags.snapshot(),
            coverage=BranchCoverage(self.module, stats.covered_branches),
        )


def random_check(source, toplevel, options=None, **option_kwargs):
    """One-call random testing (the baseline for every benchmark)."""
    if options is None:
        options = DartOptions(**option_kwargs)
    elif option_kwargs:
        raise ValueError("pass either options or keyword overrides, not both")
    return RandomTester(source, toplevel, options).run()
