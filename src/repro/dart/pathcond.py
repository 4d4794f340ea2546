"""Path constraints and the branch stack (Sections 2.2–2.3).

``stack[i] = (branch, done)`` records, for the (i+1)-th conditional executed,
which branch was taken (1 = then, 0 = else) and whether both branches have
already been explored with this history (Fig. 4's bookkeeping).

``path_constraint[i]`` is the symbolic conjunct asserted by that conditional
— a :class:`repro.symbolic.expr.CmpExpr`, possibly the bit-precise
:class:`repro.symbolic.widen.WidenedCmp` subclass when the comparison was
rewritten through run-anchored wrap quotients — or None when the predicate
had no symbolic content (a concrete-fallback branch, which cannot be
flipped by solving, including the last-resort case where no faithful
encoding existed and the widener dropped the conjunct).  The two lists are
always index-aligned, as in Fig. 5.

Every non-None conjunct is **faithful**: true of the very run that
recorded it.  The widening layer enforces this at record time; the slicer
re-checks it as a fallback-only barrier (see :mod:`repro.dart.slicing`).
"""

import hashlib

#: Length of a :func:`path_digest` (16 hex characters = 64 bits).
PATH_DIGEST_CHARS = 16


def path_digest(path_key):
    """A stable fixed-width identifier for an executed path.

    ``path_key`` is a sequence of branch bits (:meth:`PathRecord.path_key`
    or its JSON list form); the result is 16 lowercase hex characters of
    a 64-bit BLAKE2b digest over the bits as bytes.  Sets of distinct
    paths and witness dedup keys hold these instead of the full tuples,
    so their memory and checkpoint size stay linear in the number of
    paths, not in paths times path length.  At 64 bits a collision among
    even millions of paths is vanishingly unlikely; it could only merge
    two paths in the statistics and witness dedup, never in the search.
    """
    return hashlib.blake2b(bytes(path_key), digest_size=8).hexdigest()


class StackEntry:
    """One conditional's record in the inter-run branch stack."""

    __slots__ = ("branch", "done")

    def __init__(self, branch, done=False):
        self.branch = branch
        self.done = done

    def flipped(self):
        return StackEntry(1 - self.branch, self.done)

    def copy(self):
        return StackEntry(self.branch, self.done)

    def __eq__(self, other):
        return (
            isinstance(other, StackEntry)
            and other.branch == self.branch
            and other.done == self.done
        )

    def __repr__(self):
        return "({}, {})".format(self.branch, 1 if self.done else 0)


class PathRecord:
    """The per-run pair of aligned lists: branch stack + path constraint."""

    def __init__(self):
        self.stack = []
        self.constraints = []

    def __len__(self):
        return len(self.stack)

    def append(self, branch, constraint):
        self.stack.append(StackEntry(branch))
        self.constraints.append(constraint)

    def path_key(self):
        """A hashable identifier for the executed path (for statistics)."""
        return tuple(entry.branch for entry in self.stack)
