"""The symbolic memory ``S`` of Section 2.2.

``S`` maps concrete byte addresses to symbolic expressions, together with
the byte width of the stored scalar.  Writes with no symbolic payload (the
common case) *invalidate* any overlapping entries, which is how symbolic
information soundly disappears when the program overwrites an
input-dependent location with a computed value — including through aliases,
as in the ``char*``/struct cast example of Section 2.5: the byte-range
overlap check catches partial overwrites that a variable-keyed map would
miss.

Entries never overlap one another (every store invalidates what it
overlaps first), so an entry that intersects ``[addr, addr + size)``
starts in ``(addr - width, addr + size)`` where ``width`` bounds the
widest live entry.  The store is keyed by start address and probes only
that window; it falls back to scanning the entries when they are fewer
than the window's addresses (a popped frame, a wide struct copy).

While every entry ever stored is a 4-byte scalar at a 4-aligned address
(``aligned``, the common case of int-valued inputs), the entries are
disjoint aligned cells, so a 4-byte access at an aligned address meets
at most the entry starting there: readers and writers of such a slot
need one dictionary probe, never the window.
"""


class SymbolicMemory:
    """Maps byte addresses to ``(size, expr)`` entries."""

    def __init__(self):
        self._entries = {}
        # Conservative bounds over all entries ever written: lets the hot
        # load and store paths skip S for unrelated addresses.
        self._lo = None
        self._hi = None
        # The widest entry ever written, so at least the widest live
        # one: how far below ``addr`` an overlapping entry can start.
        self._width = 0
        #: Whether every entry ever written was 4 bytes at a 4-aligned
        #: address (see the module docstring).
        self.aligned = True

    def __len__(self):
        return len(self._entries)

    def read(self, addr, size):
        """The expression stored exactly at ``addr`` with width ``size``.

        Partially overlapping entries yield None: reading half of a symbolic
        int is outside the theory and falls back to the concrete value.
        """
        entry = self._entries.get(addr)
        if entry is not None and entry[0] == size:
            return entry[1]
        return None

    def write(self, addr, size, expr):
        """Store ``expr`` at ``addr``; ``expr`` may be None to invalidate."""
        self.invalidate(addr, size)
        if expr is not None:
            self._put(addr, size, expr)

    def has_overlap(self, addr, size):
        """True when any entry intersects [addr, addr + size).

        Used by the library-function black boxes: *reading* symbolic data
        through an opaque function loses completeness (the result depends
        on inputs yet carries no symbolic value), so the caller must clear
        ``all_linear``.
        """
        entries = self._entries
        if not entries or addr + size <= self._lo or addr >= self._hi:
            return False  # outside the bounds of everything ever stored
        if self.aligned and size == 4 and not addr & 3:
            return addr in entries
        return bool(self._overlapping(addr, size))

    def _overlapping(self, addr, size):
        """The start addresses of the entries intersecting the range.

        The entry starting at ``addr`` counts even for an empty range
        (a zero-length ``memcpy`` onto it), as it always has.
        """
        entries = self._entries
        end = addr + size
        probe_end = max(end, addr + 1)
        low = addr - self._width + 1
        if probe_end - low < len(entries):
            return [a for a in entries.keys() & range(low, probe_end)
                    if a == addr or (a < end and a + entries[a][0] > addr)]
        return [a for a, (width, _) in entries.items()
                if a == addr or (a < end and addr < a + width)]

    def invalidate(self, addr, size):
        """Drop every entry intersecting [addr, addr + size)."""
        # Fast path: outside the bounds of everything ever stored, nothing
        # can overlap (concrete stores vastly outnumber symbolic entries, so
        # this guard carries the interpreter's store hot path).
        entries = self._entries
        if not entries or addr + size <= self._lo or addr >= self._hi:
            return
        existing = entries.get(addr)
        if existing is not None and existing[0] == size:
            # An exact-width entry covers the whole range, and entries
            # are disjoint: it is the only one to go.
            del entries[addr]
            return
        if self.aligned and not addr & 3 and size <= 64:
            # Only the aligned cells inside the range can meet it (the
            # one at ``addr`` even for an empty range).  A wider range
            # (a popped frame) would probe more cells than the store
            # usually holds: the window or scan below costs less.
            entries.pop(addr, None)
            for a in range(addr + 4, addr + size, 4):
                entries.pop(a, None)
            return
        for a in self._overlapping(addr, size):
            del entries[a]

    def _put(self, addr, size, expr):
        self._entries[addr] = (size, expr)
        if self._lo is None or addr < self._lo:
            self._lo = addr
        if self._hi is None or addr + size > self._hi:
            self._hi = addr + size
        if size > self._width:
            self._width = size
        if size != 4 or addr & 3:
            self.aligned = False

    def copy_range(self, src, dst, size):
        """Copy symbolic entries wholly inside [src, src+size) to dst.

        Used for struct assignment and transparent memcpy: entries that are
        only partially covered are dropped (concrete fallback), entries in
        the destination range are invalidated first.
        """
        self.invalidate(dst, size)
        src_end = src + size
        moved = [
            (dst + (addr - src), width, expr)
            for addr, (width, expr) in self._entries.items()
            if addr >= src and addr + width <= src_end
        ]
        for addr, width, expr in moved:
            self._put(addr, width, expr)

    def entries(self):
        """All live entries as (addr, size, expr) tuples (for inspection)."""
        return [
            (addr, width, expr)
            for addr, (width, expr) in sorted(self._entries.items())
        ]

    def variables(self):
        """The set of input ordinals currently referenced by ``S``."""
        referenced = set()
        for _, expr in self._entries.values():
            referenced |= expr.variables()
        return referenced
