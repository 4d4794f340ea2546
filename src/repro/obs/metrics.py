"""Fixed-bucket histograms and their bucket bounds.

Session counters are plain int attributes of
:class:`repro.dart.report.RunStats`; the two distributions a session
tracks, solver latency and path length, are :class:`Histogram` objects
next to them.  Design constraints:

* **Fixed buckets.**  Histograms use pre-agreed upper bounds, so merging
  never needs rebinning and two sessions' histograms are always
  comparable.
* **Deterministic merge.**  Pool workers ship ``to_dict`` snapshots and
  the parent folds them in with :meth:`Histogram.merge`, an elementwise
  addition: the merged histogram is the same for any worker scheduling.
"""

#: Upper bucket bounds for solver wall-clock latency, in seconds.
SOLVER_LATENCY_BUCKETS_S = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

#: Upper bucket bounds for executed path length (conditionals per run).
PATH_LENGTH_BUCKETS = (1, 2, 4, 8, 12, 16, 24, 32, 48, 64, 96, 128, 256)


class Histogram:
    """Fixed-bucket histogram: counts per upper bound, plus an overflow
    bucket, a total count and a value sum."""

    __slots__ = ("name", "buckets", "counts", "count", "total")

    def __init__(self, name, buckets):
        self.name = name
        self.buckets = tuple(buckets)
        if any(b >= a for b, a in zip(self.buckets, self.buckets[1:])):
            raise ValueError("histogram buckets must strictly increase")
        self.counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value):
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        self.counts[index] += 1
        self.count += 1
        self.total += value

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0

    def quantile(self, q):
        """The upper bound of the bucket holding the q-quantile (a
        conservative estimate; the overflow bucket reports the mean)."""
        if not self.count:
            return 0.0
        target = q * self.count
        running = 0
        for i, bound in enumerate(self.buckets):
            running += self.counts[i]
            if running >= target:
                return bound
        return self.mean if self.counts[-1] else self.buckets[-1]

    def to_dict(self):
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": round(self.total, 6),
        }

    def merge(self, payload):
        if list(payload["buckets"]) != list(self.buckets):
            raise ValueError(
                "cannot merge histogram {!r}: bucket bounds differ"
                .format(self.name)
            )
        for i, c in enumerate(payload["counts"]):
            self.counts[i] += c
        self.count += payload["count"]
        self.total += payload["sum"]
