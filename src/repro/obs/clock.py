"""The layer clock: exclusive wall time per engine layer.

A :class:`LayerClock` splits a session's wall time over :data:`LAYERS`,
the kernel boundaries of the run loop (docs/OBSERVABILITY.md, "The
layer clock", says what each covers).  ``enter(layer)`` charges the time
since the last boundary to the current layer, makes ``layer`` current
and returns the previous one; ``leave(prev)`` charges the nested layer
and resumes ``prev``.  One layer holds the clock at a time, so cache and
solver time nested inside ``plan`` never also counts as ``plan``, and
the layers plus :data:`OTHER` partition the clock's window to the
nanosecond.

Every session runs one clock, from the moment its statistics are built
to :meth:`LayerClock.stop`; it is the session's only time source.  A
boundary costs two ``perf_counter_ns`` reads, and every boundary follows
one idiom::

    prev = clock.enter(PLAN)
    ...
    clock.leave(prev)
"""

from time import perf_counter_ns

EXECUTE = "execute"
COMPILE = "compile"
PLAN = "plan"
CACHE = "cache"
SOLVER = "solver"
CHECKPOINT = "checkpoint"
COMMIT = "commit"

#: Every layer, in report order; ``commit`` is the pool parent's fold.
LAYERS = (EXECUTE, COMPILE, PLAN, CACHE, SOLVER, CHECKPOINT, COMMIT)

#: The base layer: window time no named layer holds.
OTHER = "other"


class LayerClock:
    """Exclusive nanoseconds and entry counts per layer over one window.

    The window opens when the clock is built and closes at :meth:`stop`.
    """

    __slots__ = ("_ns", "_entries", "_layer", "_mark", "_opened")

    def __init__(self):
        self._ns = dict.fromkeys(LAYERS + (OTHER,), 0)
        self._entries = dict.fromkeys(LAYERS, 0)
        self._layer = OTHER
        self._opened = self._mark = perf_counter_ns()

    def enter(self, layer):
        """Make ``layer`` current; returns the layer it interrupts."""
        now = perf_counter_ns()
        prev = self._layer
        self._ns[prev] += now - self._mark
        self._mark = now
        self._layer = layer
        self._entries[layer] += 1
        return prev

    def leave(self, prev):
        """Close the current layer and resume ``prev``; returns the
        nanoseconds of the slice just closed."""
        now = perf_counter_ns()
        closed = now - self._mark
        self._ns[self._layer] += closed
        self._mark = now
        self._layer = prev
        return closed

    def stop(self):
        """Close the window: charge the time since the last boundary.
        Returns the window's length in seconds; the layers plus
        :data:`OTHER` partition it exactly unless :meth:`merge` folded
        in another clock's times."""
        self.leave(OTHER)
        return (self._mark - self._opened) / 1e9

    def snapshot(self):
        """``{layer: {"seconds", "entries"}}`` for every layer."""
        return {
            layer: {"seconds": round(self._ns[layer] / 1e9, 6),
                    "entries": self._entries[layer]}
            for layer in LAYERS
        }

    def merge(self, payload):
        """Fold another clock's :meth:`snapshot` in (plain addition)."""
        for layer, entry in payload.items():
            self._ns[layer] += round(entry["seconds"] * 1e9)
            self._entries[layer] += entry["entries"]


def render_layers(phases, wall_s):
    """The layer table of a snapshot: seconds, share of ``wall_s`` and
    entries per layer, then the unattributed rest (``other``)."""
    attributed = sum(entry["seconds"] for entry in phases.values())
    lines = ["phase breakdown (layer clock; {:.1%} of {:.4f}s wall "
             "attributed):".format(attributed / wall_s, wall_s)]
    row = "  {:<10} {:>9.4f}s  {:>6.1%}"
    for layer in LAYERS:
        seconds = phases[layer]["seconds"]
        lines.append((row + "  {:>7} entries").format(
            layer, seconds, seconds / wall_s, phases[layer]["entries"]))
    other = wall_s - attributed
    lines.append(row.format(OTHER, other, other / wall_s))
    return lines
