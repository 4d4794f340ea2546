"""One instrumented execution (Fig. 3) and the stack check (Fig. 4).

:class:`DirectedHooks` plugs into the machine: it feeds the input vector
``IM`` to the ``__dart_*`` intrinsics (randomizing undefined slots) and, at
every conditional, appends the symbolic conjunct to the path constraint and
runs Fig. 4's ``compare_and_update_stack`` against the branch outcomes
predicted by the previous run.  A prediction mismatch clears
``forcing_ok`` and raises :class:`ForcingMismatch`, which the runner
converts into a random restart — the paper's graceful degradation when a
solved input does not have the expected effect.

With ``track=False`` no input is tracked: every value is plain
randomness, invisible to the symbolic execution, so every recorded
conjunct is None and the run plans no child.  That is the random-testing
baseline (:mod:`repro.dart.random_testing`).

A run's bookkeeping is plain data: the branch stack (one ``bytearray``,
see :mod:`repro.dart.pathcond`) and the index-aligned ``constraints``
list.
"""

from repro.dart.inputs import domain_for_kind, random_value
from repro.dart.pathcond import DONE, branch_bits
from repro.symbolic.expr import InputVar


class ForcingMismatch(Exception):
    """The execution diverged from the predicted branch history."""

    def __init__(self, index, expected, actual):
        super().__init__(
            "conditional {} took branch {} but {} was predicted".format(
                index, actual, expected
            )
        )
        self.index = index
        self.expected = expected
        self.actual = actual


class DirectedHooks:
    """Machine hooks implementing the instrumented program's bookkeeping."""

    def __init__(self, im, predicted_stack, flags, rng, options,
                 track=True):
        #: IM — mutated in place as undefined slots get randomized.
        self.im = im
        #: The branch stack: the entries predicted by the previous run,
        #: updated and extended by this one (Fig. 4).
        self.stack = bytearray(predicted_stack)
        #: This run's path constraint, index-aligned with the stack.
        self.constraints = []
        self.flags = flags
        self._rng = rng
        self._options = options
        self._track = track
        self._next_ordinal = 0

    # -- inputs ------------------------------------------------------------

    def acquire_input(self, kind):
        ordinal = self._next_ordinal
        self._next_ordinal += 1
        value = self.im.value_or_none(ordinal, kind)
        if value is None:
            value = random_value(kind, self._rng)
            self.im.record(ordinal, kind, value)
        if not self._track or (kind == "ptr_choice"
                               and not self._options.directed_pointer_choices):
            # Untracked: plain randomness, invisible to the symbolic
            # execution (and hence never directable) — every input of the
            # random-testing baseline, and the paper-mode pointer coin
            # toss.  An untracked input costs the completeness guarantee,
            # so the session can never falsely claim full path coverage.
            self.flags.clear_linear()
            return value, None
        lo, hi = domain_for_kind(kind)
        return value, InputVar(ordinal, kind, lo, hi)

    @property
    def inputs_consumed(self):
        return self._next_ordinal

    # -- conditionals ---------------------------------------------------------

    def on_branch(self, taken, constraint, location):
        """Fig. 4's ``compare_and_update_stack``, after recording the
        conjunct."""
        branch = 1 if taken else 0
        constraints = self.constraints
        k = len(constraints)
        constraints.append(constraint)
        stack = self.stack
        if k < len(stack):
            expected = stack[k] & 1
            if expected != branch:
                self.flags.clear_forcing()
                raise ForcingMismatch(k, expected, branch)
            if k == len(stack) - 1:
                stack[k] = branch | DONE
        else:
            stack.append(branch)

    def path(self):
        """The branch bits of the conditionals this run executed."""
        return branch_bits(self.stack[: len(self.constraints)])
