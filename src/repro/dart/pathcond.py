"""Path constraints and the branch stack (Sections 2.2–2.3).

A run's bookkeeping is two index-aligned arrays, as in Figs. 4 and 5.

``stack[i]`` records, for the (i+1)-th conditional executed, which branch
was taken and whether both branches have already been explored with this
history.  The stack is one ``bytearray``: entry ``i`` holds the branch
bit (1 = then, 0 = else) in bit 0 and :data:`DONE` once both sides are
explored.  A child plan is ``stack[:j + 1]`` with ``child[j] ^= 1``;
marking an entry done is ``stack[j] |= DONE``.

``path_constraint[i]`` is the symbolic conjunct asserted by that conditional
— a :class:`repro.symbolic.expr.CmpExpr`, possibly the bit-precise
:class:`repro.symbolic.widen.WidenedCmp` subclass when the comparison was
rewritten through run-anchored wrap quotients — or None when the predicate
had no symbolic content (a concrete-fallback branch, which cannot be
flipped by solving, including the last-resort case where no faithful
encoding existed and the widener dropped the conjunct).

Every non-None conjunct is **faithful**: true of the very run that
recorded it.  The widening layer enforces this at record time; the slicer
re-checks it as a fallback-only barrier (see :mod:`repro.dart.slicing`).
"""

import hashlib

#: Length of a :func:`path_digest` (16 hex characters = 64 bits).
PATH_DIGEST_CHARS = 16

#: Stack-entry flag: both branches of this conditional are explored.
DONE = 2

#: ``bytes.translate`` table keeping only an entry's branch bit.
_BRANCH_BITS = bytes(value & 1 for value in range(256))


def branch_bits(stack):
    """The branch bits of a stack (done flags cleared), as bytes."""
    return bytes(stack).translate(_BRANCH_BITS)


def path_digest(path_key):
    """A stable fixed-width identifier for an executed path.

    ``path_key`` is a sequence of branch bits (:func:`branch_bits`, a
    tuple of bits or its JSON list form); the result is 16 lowercase hex
    characters of a 64-bit BLAKE2b digest over the bits as bytes.  Sets
    of distinct paths and witness dedup keys hold these instead of the
    full tuples, so their memory and checkpoint size stay linear in the
    number of paths, not in paths times path length.  At 64 bits a
    collision among even millions of paths is vanishingly unlikely; it
    could only merge two paths in the statistics and witness dedup,
    never in the search.
    """
    return hashlib.blake2b(bytes(path_key), digest_size=8).hexdigest()
