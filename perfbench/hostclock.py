"""A clock that reads wall time at a fixed reference host speed.

The shared hosts this benchmark runs on switch, every second or so,
between a fast state and one where the same Python code takes about
twice as long.  A verdict of several seconds averages over many such
switches, but the share of slow time drifts over minutes, so two sets of
runs of the same code can differ by a quarter.

:class:`HostClock` samples the host's speed while the workload runs: an
interval timer interrupts the process every ``INTERVAL_S`` seconds and
the handler times a fixed pure-Python probe of a few milliseconds (it
allocates no containers, so it never triggers a collection).  Each slice
of wall time between two probes is scaled by ``REFERENCE_PROBE_S`` over
the mean duration of the probes at its two ends, and the probes' own
time is left out.  A change that makes the program do more work adds
slices, so it still reads slower; a slower host makes the probes slower
too, and cancels out.
"""

import signal
import time

#: Seconds between probes.  A probe costs about 2% of the wall.
INTERVAL_S = 0.25
#: A probe's duration inside a verdict with the reference host (2 CPUs,
#: CPython 3.11, x86_64) in its fast state; corrected times are seconds
#: at that speed.
REFERENCE_PROBE_S = 0.004

_TABLE = dict.fromkeys(range(64), 0)


def probe_work(rounds=20_000):
    """A fixed amount of interpreter work that allocates no containers."""
    table = _TABLE
    total = 0
    for i in range(rounds):
        key = i & 63
        table[key] = table[key] + (i ^ total) & 255
        total = (total + key * 3) & 0xFFFF
    return total


def probe():
    """Seconds one probe takes now."""
    started = time.perf_counter()
    probe_work()
    return time.perf_counter() - started


class HostClock:
    """Corrected seconds since the ``with`` block was entered.

    ``now()`` reads the clock inside the block, ``elapsed_s`` after it.
    Only one may run at a time, in the main thread: it owns ``SIGALRM``
    and the real-time interval timer while the block runs.
    """

    def __init__(self):
        self.elapsed_s = 0.0
        #: Seconds the probes took, left out of ``elapsed_s``.
        self.probe_s = 0.0
        self._last = 0.0
        self._probe = 0.0
        self._samples = 0
        self._previous = None

    def _sample(self, *_):
        started = time.perf_counter()
        probe_work()
        ended = time.perf_counter()
        spent = ended - started
        scale = 2 * REFERENCE_PROBE_S / (self._probe + spent)
        self.elapsed_s += (started - self._last) * scale
        self.probe_s += spent
        self._probe = spent
        self._last = ended
        self._samples += 1

    def now(self):
        """Corrected seconds so far; the slice since the last probe is
        scaled by that probe alone."""
        while True:
            samples = self._samples
            value = self.elapsed_s + (time.perf_counter() - self._last) \
                * REFERENCE_PROBE_S / self._probe
            if samples == self._samples:
                return value

    def __enter__(self):
        self._probe = probe()
        self._last = time.perf_counter()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False
