"""The pure random-testing baseline (Sections 1 and 4).

Random testing is what DART degrades to when its inputs are not tracked:
a :class:`Dart` session in which every input is untracked.  Same
generated driver, same fault detection, same session loop — but no
symbolic state, so every recorded conjunct is None, Fig. 5 plans no
child, and Fig. 2's random restart draws a fresh input vector from the
session RNG for every run.  This is the baseline the paper's evaluation
compares the directed search against ("a random search would thus run
forever without detecting any errors").
"""

import copy

from repro.dart.config import DartOptions
from repro.dart.runner import Dart


class RandomTester(Dart):
    """Random unit testing with the auto-generated driver."""

    track_inputs = False

    def __init__(self, source, toplevel, options=None, filename="<program>"):
        # With no child to order, dedupe or farm out, the search options
        # have no effect: every baseline session is the dfs shape
        # (session-RNG draws, one process) and skips the independence
        # analysis.
        options = copy.copy(options or DartOptions())
        options.strategy = "dfs"
        options.jobs = 1
        options.subsumption = False
        super().__init__(source, toplevel, options, filename)


def random_check(source, toplevel, options=None, **option_kwargs):
    """One-call random testing (the baseline for every benchmark)."""
    if options is None:
        options = DartOptions(**option_kwargs)
    elif option_kwargs:
        raise ValueError("pass either options or keyword overrides, not both")
    return RandomTester(source, toplevel, options).run()
