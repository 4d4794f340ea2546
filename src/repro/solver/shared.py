"""A cross-worker solver-result store for the persistent worker pool.

The serial engines hold one :class:`repro.solver.cache.SolverResultCache`
for the whole session, so every query benefits from every earlier
answer.  Worker processes cannot share that object directly — and
naively shipping *any* cached answer across workers would make the
search timing-dependent: which worker solved a query first would decide
which model every other worker plans its children from.

The pool therefore splits caching into two layers with a sharp
determinism contract (see ``docs/PARALLELISM.md``):

* **Per-item local cache** — each work item gets a fresh
  :class:`SolverResultCache` with all four tiers (exact, UNSAT-core,
  UNSAT-superset, model reuse).  Canonically-equal and subsumed queries
  *within one item's expansion* — the common case once slicing shrinks
  queries — are answered locally, and because the cache starts empty
  per item, every worker result is a pure function of its payload.
* **Shared exact store** (this module) — a parent-side
  :class:`CacheServer` thread memoizes *identical* queries across
  workers.  The key is the ordered tuple of verbatim constraint keys
  plus sorted domains (stricter than the local cache's canonical set
  key), so two queries share an entry only when the solver would have
  seen byte-identical input — which makes the stored value a pure
  function of the key (``Solver.solve`` is deterministic in the query,
  seed and node budget), no matter which worker solved it first or how
  the race went.

**Claim protocol.**  A worker's lookup either *hits* (the key was
decided), *waits* (another worker is solving the same key right now —
the reply is deferred until that solve resolves), or *claims* (the
worker is first: it gets a miss, solves, and reports the result back).
Unknown verdicts are never stored — they resolve the claim and release
any waiters with a fresh claim each, so escalation and the
random-fallback degradation behave per-occurrence exactly as in the
serial engine.  The protocol is deadlock-free because a worker holds at
most one unresolved claim and issues no lookups while solving it.

**Determinism.**  For every distinct key that the solver decides,
exactly one lookup per session misses (the claim) and every other
occurrence hits; for keys the solver cannot decide, every occurrence
misses.  Both counts depend only on the payloads, so session-total
cache/solver counters are reproducible run to run even though *which*
worker pays each miss is not (nothing pins per-worker attribution).

**Failure containment.**  A worker death releases its claims
(:meth:`CacheServer.release_worker`, also triggered by pipe EOF), so
waiters never hang on a dead claimant; a client-side ``clear()`` — the
cache self-heal path — releases that worker's outstanding claims.
Losing the whole store merely costs re-derived solver calls, exactly
like clearing the serial cache.  The client reads no clock: its caller
charges each access, waits on a claimant included, to the worker's
``cache`` layer.
"""

import threading
from collections import OrderedDict
from multiprocessing import Pipe
from multiprocessing.connection import wait as _wait_ready

from repro.solver.cache import (
    _DEFAULT_DOMAIN,
    ENCODING_VERSION,
    EXACT,
    SolverResultCache,
    trace_lookup,
    trace_store,
)
from repro.solver.core import SolverResult


def shared_query_key(constraints, domains):
    """Identity of one *verbatim* query: ordered conjuncts + domains.

    Deliberately stricter than :meth:`SolverResultCache.query_key`: no
    strict-inequality canonicalization and no set-collapse of the
    conjunct order.  Two queries map to the same shared key only when
    the solver would receive structurally identical input, which is
    what makes the shared store's values key-pure (and the pool's
    counters timing-invariant).  Domains are sorted by ``repr`` so the
    key is stable across processes regardless of per-process string
    hashing.
    """
    variables = set()
    for constraint in constraints:
        variables |= constraint.variables()
    doms = tuple(sorted(
        ((var,) + tuple(domains.get(var, _DEFAULT_DOMAIN))
         for var in variables),
        key=repr,
    ))
    return (
        ENCODING_VERSION,
        tuple(constraint.key() for constraint in constraints),
        doms,
    )


class CacheServer:
    """Parent-side thread serving the shared exact store over pipes.

    One duplex pipe per worker, multiplexed with
    ``multiprocessing.connection.wait``; all state is guarded by one
    lock so the parent (worker-death cleanup) and the serving thread
    never race.  Messages from a worker:

    * ``("lookup", key)`` — replied with ``("hit", status, model)`` or
      ``("claimed",)``; a lookup of an in-flight key is *not* replied to
      until the claimant resolves it (the wait-on-inflight path).
    * ``("resolve", key, status, model)`` — fire-and-forget; stores a
      decided result, clears the in-flight claim, releases waiters.
    """

    def __init__(self, max_results=65536):
        self._lock = threading.Lock()
        #: key -> (status, model); first resolve wins (values are
        #: key-pure, so first-wins and last-wins are equivalent — keep
        #: the cheaper one).
        self._results = OrderedDict()
        self._inflight = {}  # key -> claiming wid
        self._waiters = {}  # key -> [wid, ...] awaiting a reply
        self._conns = {}  # wid -> parent-side Connection
        self._next_wid = 0
        self._max_results = max_results
        self._stop = threading.Event()
        self._thread = None
        #: Served/claimed lookup tallies (parent-side observability;
        #: read after stop() for the pool_stopped trace event).
        self.hits = 0
        self.claims = 0

    # -- lifecycle ----------------------------------------------------------

    def register_worker(self):
        """Create one worker's pipe; returns ``(wid, child_connection)``.

        Call before starting (or respawning) the worker process and pass
        the child end down; the serving loop picks the new connection up
        on its next iteration.
        """
        parent_conn, child_conn = Pipe()
        with self._lock:
            wid = self._next_wid
            self._next_wid += 1
            self._conns[wid] = parent_conn
        return wid, child_conn

    def start(self):
        self._thread = threading.Thread(
            target=self._serve, name="dart-cache-server", daemon=True)
        self._thread.start()

    def stop(self):
        """Wind the server down; safe to call more than once."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        with self._lock:
            for conn in self._conns.values():
                try:
                    conn.close()
                except OSError:
                    pass
            self._conns.clear()
            self._inflight.clear()
            self._waiters.clear()

    def release_worker(self, wid):
        """Clean up after a dead worker: close its pipe, free its claims.

        Every key the worker had claimed is un-claimed and its waiters
        are released with a fresh claim each — they re-solve the query
        themselves (pure, so the recovered answers are the ones the dead
        worker would have produced).  Also triggered internally when a
        worker's pipe hits EOF.
        """
        with self._lock:
            self._release_locked(wid)

    def __len__(self):
        with self._lock:
            return len(self._results)

    # -- internals ----------------------------------------------------------

    def _release_locked(self, wid):
        conn = self._conns.pop(wid, None)
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        for key, owner in list(self._inflight.items()):
            if owner != wid:
                continue
            del self._inflight[key]
            for waiter in self._waiters.pop(key, ()):
                self.claims += 1
                self._reply(waiter, ("claimed",))
        for key, waiters in list(self._waiters.items()):
            if wid in waiters:
                self._waiters[key] = [w for w in waiters if w != wid]

    def _reply(self, wid, message):
        conn = self._conns.get(wid)
        if conn is None:
            return
        try:
            conn.send(message)
        except (OSError, ValueError):
            # The waiter died; its claims are freed when the parent (or
            # the EOF path below) releases it — dropping the reply here
            # cannot strand anyone else.
            self._conns.pop(wid, None)

    def _serve(self):
        while not self._stop.is_set():
            with self._lock:
                by_conn = {conn: wid for wid, conn in self._conns.items()}
            if not by_conn:
                self._stop.wait(0.02)
                continue
            try:
                ready = _wait_ready(list(by_conn), timeout=0.05)
            except OSError:
                continue
            for conn in ready:
                wid = by_conn[conn]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    with self._lock:
                        if self._conns.get(wid) is conn:
                            self._release_locked(wid)
                    continue
                with self._lock:
                    try:
                        self._handle(wid, message)
                    except Exception:
                        # Self-heal like the in-process cache: a broken
                        # internal state must degrade to re-derived
                        # solver calls, never take the session down.
                        self._results.clear()
                        self._reply(wid, ("claimed",))

    def _handle(self, wid, message):
        kind = message[0]
        if kind == "lookup":
            key = message[1]
            entry = self._results.get(key)
            if entry is not None:
                self._results.move_to_end(key)
                self.hits += 1
                self._reply(wid, ("hit",) + entry)
            elif key in self._inflight:
                self._waiters.setdefault(key, []).append(wid)
            else:
                self._inflight[key] = wid
                self.claims += 1
                self._reply(wid, ("claimed",))
        elif kind == "resolve":
            key, status, model = message[1], message[2], message[3]
            if status in ("sat", "unsat") and key not in self._results:
                self._results[key] = (status, model)
                while len(self._results) > self._max_results:
                    self._results.popitem(last=False)
            self._inflight.pop(key, None)
            entry = self._results.get(key)
            for waiter in self._waiters.pop(key, ()):
                if entry is not None:
                    self.hits += 1
                    self._reply(waiter, ("hit",) + entry)
                else:
                    self.claims += 1
                    self._reply(waiter, ("claimed",))


class SharedCacheClient:
    """Worker-side cache facade: per-item local tiers + the shared store.

    Implements the :class:`SolverResultCache` interface that
    :func:`repro.dart.solve.solve_with_retry` consumes (``lookup`` /
    ``store`` / ``clear`` / ``trace``), so the worker's solving loop is
    byte-identical to the serial engine's.  ``begin_item()`` must be
    called before each work item: it resets the local cache (keeping
    worker results payload-pure) and releases any leftover claim.
    """

    def __init__(self, conn):
        self._conn = conn
        #: Optional TraceBus (the worker's private per-item bus); one
        #: cache_lookup / cache_store event per call, like the serial
        #: cache.
        self.trace = None
        self.local = SolverResultCache()
        self._claims = set()

    def begin_item(self):
        """Reset per-item state (fresh local cache, no stale claims)."""
        self.local = SolverResultCache()
        self._release_claims()
        self.trace = None

    # -- the SolverResultCache interface ------------------------------------

    def lookup(self, constraints, domains):
        hit = self._lookup(constraints, domains)
        trace_lookup(self.trace, hit, constraints)
        return hit

    def _lookup(self, constraints, domains):
        hit = self.local.lookup(constraints, domains)
        if hit is not None:
            return hit
        key = shared_query_key(constraints, domains)
        self._conn.send(("lookup", key))
        reply = self._conn.recv()  # may block on an in-flight claimant
        if reply[0] == "hit":
            status, model = reply[1], reply[2]
            result = SolverResult(status,
                                  dict(model) if model else None)
            # Feed the local tiers too: later queries of this same item
            # can then reuse the model or the UNSAT set without another
            # round-trip (still payload-pure — the shared value is a
            # function of the key).
            self.local.store(constraints, domains, result)
            return result, EXACT
        self._claims.add(key)
        return None

    def store(self, constraints, domains, result):
        key = shared_query_key(constraints, domains)
        self._claims.discard(key)
        if result.status not in ("sat", "unsat"):
            # Resolve the claim so waiters stop waiting; unknown itself
            # is never cached (same rule as the serial cache).
            self._conn.send(("resolve", key, result.status, None))
            return
        self.local.store(constraints, domains, result)
        self._conn.send(("resolve", key, result.status, result.model))
        trace_store(self.trace, result.status, constraints)

    def clear(self):
        """Self-heal: drop local state and release outstanding claims."""
        self.local.clear()
        self._release_claims()

    def __len__(self):
        return len(self.local)

    # -- internals ----------------------------------------------------------

    def _release_claims(self):
        for key in list(self._claims):
            try:
                self._conn.send(("resolve", key, "unknown", None))
            except (OSError, ValueError):
                break
        self._claims.clear()
