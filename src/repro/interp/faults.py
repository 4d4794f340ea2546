"""Runtime faults — the "standard errors" DART detects (Section 1).

:class:`ExecutionFault` subclasses are *bugs in the program under test*:
crashes (segmentation faults, division by zero, invalid frees), explicit
``abort()`` calls, assertion violations and non-termination.  They are what
the test driver of Fig. 2 catches ("if the instrumented program throws an
exception, then a bug has been found").

:class:`InterpreterError` is different: it flags a defect or unsupported
construct in the harness itself and is never reported as a program bug.
"""

import copyreg


class ExecutionFault(Exception):
    """Base class for detected program errors."""

    kind = "fault"

    def __init__(self, message, location=None):
        super().__init__(message)
        self.message = message
        self.location = location

    def __reduce__(self):
        # The subclasses' constructors differ (an address, a step count,
        # a restored kind), so ``args`` cannot rebuild them: pickle the
        # fields instead, and restore them without calling ``__init__``.
        return copyreg.__newobj__, (type(self),) + self.args, self.__dict__

    def describe(self):
        if self.location is not None:
            return "{} at {}: {}".format(self.kind, self.location,
                                         self.message)
        return "{}: {}".format(self.kind, self.message)


class ProgramAbort(ExecutionFault):
    """The program executed ``abort()`` (the RAM machine's error statement)."""

    kind = "abort"


class AssertionViolation(ProgramAbort):
    """A failed ``assert`` — per the paper (note 8) an abort with a cause."""

    kind = "assertion violation"


class SegFault(ExecutionFault):
    """An access to unmapped, freed or NULL memory."""

    kind = "segmentation fault"

    def __init__(self, message, address, location=None):
        super().__init__(message, location)
        self.address = address


class DivisionByZero(ExecutionFault):
    kind = "division by zero"


class InvalidFree(ExecutionFault):
    kind = "invalid free"


class OutOfMemory(ExecutionFault):
    kind = "out of memory"


class StackOverflow(ExecutionFault):
    kind = "stack overflow"


class UninitializedRead(ExecutionFault):
    """A read of stack/heap memory that was never written.

    The paper assumes "all program variables ... are properly initialized"
    and points at Purify/CCured for detecting violations; enabling
    ``MemoryOptions.track_uninitialized`` builds the check into the RAM
    machine instead.
    """

    kind = "uninitialized read"

    def __init__(self, message, address, location=None):
        super().__init__(message, location)
        self.address = address


class NonTermination(ExecutionFault):
    """The step budget was exhausted — DART's timer expiration (§4.3)."""

    kind = "non-termination"

    def __init__(self, steps, location=None):
        super().__init__(
            "no progress after {} RAM-machine steps".format(steps), location
        )
        self.steps = steps


class RestoredFault(ExecutionFault):
    """An :class:`ExecutionFault` reconstructed from a session checkpoint.

    Checkpoints store only (kind, message, location string); restoring the
    exact subclass (with e.g. a faulting address) is neither possible nor
    needed — reports, deduplication keys and JSON output all work off
    these three fields.
    """

    def __init__(self, kind, message, location=None):
        super().__init__(message, location)
        self.kind = kind  # shadows the class attribute


class RunTimeout(Exception):
    """The per-run wall-clock watchdog tripped.

    Deliberately *not* an :class:`ExecutionFault`: exceeding a harness
    resource budget is not evidence of a program bug (unlike
    :class:`NonTermination`, whose step budget is the paper's §4.3
    non-termination detector).  The DART run loop catches it at the fault
    boundary, quarantines the input vector and continues the search.
    """

    def __init__(self, elapsed, location=None):
        super().__init__(
            "run exceeded its wall-clock budget after {:.3f}s".format(elapsed)
        )
        self.elapsed = elapsed
        self.location = location


class InterpreterError(Exception):
    """An internal error of the harness itself (never a program bug)."""
