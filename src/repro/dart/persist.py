"""Inter-run state persistence and v3 session checkpoints.

The paper's architecture re-executes the instrumented *process* for every
run, so the branch stack and the input vector are "kept in a file between
executions" (Section 2.3) and a crash loses at most one execution.  Our
runs share a Python process, so the same durability is provided by
*session checkpoints*: pass ``DartOptions(state_file=...)`` and the runner
periodically serializes everything needed to resume — engine kind, the
pending worklist, the RNG state, statistics, discovered errors, covered
branches — plus a **program fingerprint** (source hash + toplevel +
options digest) so a stale checkpoint from a different program or
configuration is rejected instead of silently replayed, and a checksum so
a torn or corrupted file is detected.

Two formats live here:

* **v1** (``save_state``/``load_state``): the bare dfs (stack, IM) pair,
  kept for compatibility with the paper's literal "stack in a file".
* **v3** (``save_checkpoint``/``load_checkpoint``): the full session
  checkpoint used by the runner::

      {"version": 3, "checksum": "<sha256 of the canonical body text>",
       "body": {"fingerprint": {...}, "engine": ..., "rng": ...,
                "counters": {...}, "distinct_paths": ["<16 hex>", ...],
                "errors": [...], ...}}

  Distinct paths are stored as fixed-width
  :func:`~repro.dart.pathcond.path_digest` strings, not branch-bit lists,
  so a checkpoint grows by about 20 bytes per distinct path whatever the
  path length.  A v2 file (which held the full lists) is a different
  version and restarts the session cleanly; a v3 file whose
  ``distinct_paths`` holds anything but 16-hex-character strings is
  corrupt.

The body is encoded **once** per save: the canonical text
(``json.dumps(body, sort_keys=True, separators=(",", ":"))``) is both
what the checksum covers and what is spliced into the file, and the
loader re-derives the checksum from the parsed body the same way.  The
file is written from that text, never with ``json.dump(payload,
handle)``: streaming to a file goes through CPython's pure-Python
``_iterencode`` instead of the C encoder, and on a long session that
second, slow encoding of an ever-growing body cost more than the search
it was protecting.

Writes are atomic and durable: the payload goes to a temp file which is
fsynced (as is the containing directory) before ``os.replace``, a failed
write unlinks the temp file so an ENOSPC can never leave a stale
``.tmp`` beside a valid checkpoint, and SIGINT/SIGTERM are deferred for
the duration of the write so an interrupt cannot tear the sequence —
the signal is re-delivered to the previous handler the moment the write
completes.  The write and load paths carry fault-injection seams
(:mod:`repro.faults.points`): ENOSPC, partial writes and post-save
corruption are all injectable, and the chaos harness asserts the
invariants above hold under them.
"""

import contextlib
import errno
import hashlib
import json
import os
import re
import signal

from repro.dart.inputs import InputVector
from repro.dart.pathcond import PATH_DIGEST_CHARS, StackEntry
from repro.faults import points as fault_points

_VERSION = 1
_CHECKPOINT_VERSION = 3
_DIGEST = re.compile("[0-9a-f]{{{}}}".format(PATH_DIGEST_CHARS))


# -- shared encoding helpers -------------------------------------------------

def _encode_stack(stack):
    return [[entry.branch, 1 if entry.done else 0] for entry in stack]


def _decode_stack(payload):
    return [StackEntry(int(branch), bool(done)) for branch, done in payload]


def _encode_im(im):
    return [[slot.kind, slot.value] for slot in im]


def _decode_im(payload):
    im = InputVector()
    for ordinal, (kind, value) in enumerate(payload):
        im.record(ordinal, kind, int(value))
    return im


def encode_input_vector(im):
    """Public JSON encoding of an :class:`InputVector`: ``[[kind, value],
    ...]`` in ordinal order — the format checkpoints, fuzz repros and
    exported suite artifacts (:mod:`repro.suite`) all share."""
    return _encode_im(im)


def decode_input_vector(payload):
    """Inverse of :func:`encode_input_vector` (kinds preserved, so
    pointer-choice slots are rebuilt with the right domains)."""
    return _decode_im(payload)


@contextlib.contextmanager
def _defer_signals():
    """Hold SIGINT/SIGTERM for the duration of the block.

    A signal arriving mid-write is recorded and re-delivered to the
    *previous* handler immediately after the block, so the atomic-write
    sequence (write temp, fsync, rename) can never be torn by an
    interrupt: either the old checkpoint survives intact or the new one
    is complete.  Off the main thread (where ``signal.signal`` is
    unavailable) the block runs unprotected — exactly the prior
    behaviour.
    """
    deferred = []
    previous = {}

    def _defer(signum, frame):
        deferred.append((signum, frame))

    try:
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous[signum] = signal.signal(signum, _defer)
    except ValueError:  # not the main thread
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        yield
        return
    try:
        yield
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        for signum, frame in deferred:
            handler = previous.get(signum)
            if callable(handler):
                # Includes Python's default_int_handler, which raises
                # KeyboardInterrupt — exactly the deferred delivery.
                handler(signum, frame)
            elif handler != signal.SIG_IGN:
                # SIG_DFL: re-deliver with the default disposition now
                # that the original handler is restored.
                os.kill(os.getpid(), signum)


def _atomic_write(path, text):
    """Durably replace ``path`` with ``text``, or change nothing: temp
    file + fsync (file and directory) + rename, with the temp file
    unlinked on any failure."""
    tmp_path = path + ".tmp"
    with _defer_signals():
        handle = open(tmp_path, "w")
        try:
            injector = fault_points.ACTIVE
            if injector is not None:
                mode = injector.checkpoint_write()
                if mode == "partial":
                    handle.write(text[: 40])
                    handle.flush()
                if mode is not None:
                    raise OSError(errno.ENOSPC, "injected: no space left "
                                                "on device", tmp_path)
                injector.mid_checkpoint()
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        except BaseException:
            handle.close()
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        handle.close()
        os.replace(tmp_path, path)
        _fsync_directory(os.path.dirname(os.path.abspath(path)))


def _fsync_directory(directory):
    """Persist the rename itself (best effort where unsupported)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _canonical(body):
    """The one encoding of a checkpoint body (C encoder, sorted keys)."""
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def _text_checksum(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _body_checksum(body):
    """The checksum the loader expects for a (parsed) body."""
    return _text_checksum(_canonical(body))


# -- v1: the paper's bare (stack, IM) pair -----------------------------------

def save_state(path, stack, im):
    """Atomically write the predicted stack and input vector."""
    _atomic_write(path, json.dumps({
        "version": _VERSION,
        "stack": _encode_stack(stack),
        "im": _encode_im(im),
    }))


def load_state(path):
    """Read a saved (stack, im) pair; returns None if absent/invalid."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict) or payload.get("version") != _VERSION:
        return None
    try:
        stack = _decode_stack(payload["stack"])
        im = _decode_im(payload["im"])
    except (KeyError, TypeError, ValueError):
        return None
    return stack, im


def clear_state(path):
    """Remove the state file (called when a search finishes cleanly)."""
    try:
        os.remove(path)
    except OSError:
        pass


# -- v3: full session checkpoints --------------------------------------------

class SessionCheckpoint:
    """Everything a suspended session needs to resume exactly.

    The runner builds one of these every K runs / on budget exhaustion /
    on SIGINT, and consumes one at session start.  All fields are plain
    JSON-serializable data; the runner owns the translation to and from
    its live objects (see ``_Session.checkpoint`` / ``_restore``).
    """

    def __init__(self, fingerprint, engine, rng_state, flags, counters,
                 distinct_paths, covered_branches, errors, quarantined,
                 dfs_pending=None, worklist=None, clean_drain=True,
                 witnesses=None, dedup_seen=None):
        #: {"source": sha256, "toplevel": name, "options": digest}.
        self.fingerprint = fingerprint
        #: "dfs" or "generational" — a checkpoint never crosses engines.
        self.engine = engine
        #: ``random.Random().getstate()`` (tuples converted on load).
        self.rng_state = rng_state
        #: (all_linear, all_locs_definite, forcing_ok).
        self.flags = flags
        #: RunStats integer counters, keyed by attribute name.
        self.counters = counters
        #: List of path digests (16-hex-character strings).
        self.distinct_paths = distinct_paths
        #: List of (function, pc, taken) triples.
        self.covered_branches = covered_branches
        #: ErrorReport.to_dict() payloads.
        self.errors = errors
        #: QuarantineRecord.to_dict() payloads.
        self.quarantined = quarantined
        #: dfs engine: the next (stack, im) plan, or None.
        self.dfs_pending = dfs_pending
        #: generational engine: list of (stack, im, bound) items, or None.
        self.worklist = worklist
        #: generational engine: False once a mismatch tainted this drain.
        self.clean_drain = clean_drain
        #: PathWitness.to_dict() payloads (witness collection on), or [].
        #: Optional: checkpoints written before the suite subsystem carry
        #: no ``witnesses`` key and decode to an empty list.
        self.witnesses = witnesses if witnesses is not None else []
        #: generational engine: ``[fingerprint, error-salt-or-None]``
        #: pairs of every child enqueued this drain (the worklist-dedup
        #: seen set), so a resume keeps deduping against work already
        #: spent.  Optional — absent decodes to an empty list.
        self.dedup_seen = dedup_seen if dedup_seen is not None else []

    # -- encoding ---------------------------------------------------------

    def to_body(self):
        body = {
            "fingerprint": self.fingerprint,
            "engine": self.engine,
            "rng": [self.rng_state[0], list(self.rng_state[1]),
                    self.rng_state[2]],
            "flags": list(self.flags),
            "counters": dict(self.counters),
            "distinct_paths": list(self.distinct_paths),
            "covered_branches": [list(entry)
                                 for entry in self.covered_branches],
            "errors": list(self.errors),
            "quarantined": list(self.quarantined),
            "clean_drain": self.clean_drain,
        }
        if self.witnesses:
            body["witnesses"] = list(self.witnesses)
        if self.dfs_pending is not None:
            stack, im = self.dfs_pending
            body["dfs"] = {"stack": _encode_stack(stack),
                           "im": _encode_im(im)}
        if self.worklist is not None:
            body["worklist"] = [
                {"stack": _encode_stack(stack), "im": _encode_im(im),
                 "bound": bound}
                for stack, im, bound in self.worklist
            ]
        if self.dedup_seen:
            body["dedup_seen"] = [
                [fp, list(salt) if salt is not None else None]
                for fp, salt in self.dedup_seen
            ]
        return body

    @classmethod
    def from_body(cls, body):
        rng = body["rng"]
        dfs_pending = None
        if "dfs" in body:
            dfs_pending = (_decode_stack(body["dfs"]["stack"]),
                           _decode_im(body["dfs"]["im"]))
        worklist = None
        if "worklist" in body:
            worklist = [
                (_decode_stack(item["stack"]), _decode_im(item["im"]),
                 int(item["bound"]))
                for item in body["worklist"]
            ]
        return cls(
            fingerprint=dict(body["fingerprint"]),
            engine=body["engine"],
            rng_state=(rng[0], tuple(rng[1]), rng[2]),
            flags=tuple(bool(flag) for flag in body["flags"]),
            counters={key: int(value)
                      for key, value in body["counters"].items()},
            distinct_paths=_decode_digests(body["distinct_paths"]),
            covered_branches=[
                (entry[0], int(entry[1]), bool(entry[2]))
                for entry in body["covered_branches"]
            ],
            errors=list(body["errors"]),
            quarantined=list(body["quarantined"]),
            dfs_pending=dfs_pending,
            worklist=worklist,
            clean_drain=bool(body.get("clean_drain", True)),
            witnesses=list(body.get("witnesses", ())),
            dedup_seen=[
                (entry[0], tuple(entry[1]) if entry[1] is not None else None)
                for entry in body.get("dedup_seen", ())
            ],
        )


def _decode_digests(payload):
    """Validate a list of path digests; a malformed entry is damage, so
    it raises (and the loader reports ``"corrupt"``) rather than being
    coerced into a key nothing will ever match."""
    if not isinstance(payload, list):
        raise TypeError("distinct_paths is not a list")
    for digest in payload:
        if not (isinstance(digest, str) and _DIGEST.fullmatch(digest)):
            raise ValueError("malformed path digest {!r}".format(digest))
    return list(payload)


def save_checkpoint(path, checkpoint):
    """Atomically write a v3 session checkpoint with a body checksum.

    The body is encoded exactly once; the same text is checksummed and
    written (see the module docstring for why it must stay that way).
    """
    body = _canonical(checkpoint.to_body())
    _atomic_write(path, '{{"version":{},"checksum":"{}","body":{}}}'.format(
        _CHECKPOINT_VERSION, _text_checksum(body), body))
    injector = fault_points.ACTIVE
    if injector is not None:
        # Post-save corruption (torn storage, bit rot): the *next* load
        # must catch it via the checksum and reseed cleanly.
        injector.saved_checkpoint(path)


def load_checkpoint_ex(path, fingerprint):
    """Read and validate a v3 checkpoint; ``(checkpoint, reason)``.

    The checkpoint is None whenever it must not be used, and ``reason``
    tells the caller how much to trust the world:

    * ``"ok"`` — a valid, matching checkpoint (first element non-None).
    * ``"missing"`` — no file at all: a clean first start.
    * ``"version"`` — a valid file in a different format (a v1 state
      file, a v2 checkpoint with full path tuples); legitimate, restart
      cleanly.
    * ``"fingerprint"`` — a valid checkpoint for a *different* program,
      toplevel or configuration; legitimate, restart cleanly.
    * ``"corrupt"`` — the file exists but is unreadable, structurally
      wrong, or fails its checksum: state was **lost**, and the caller
      must degrade (quarantine-style record, completeness cleared)
      rather than silently pretend it started fresh.
    """
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        return None, "missing"
    except (OSError, ValueError):
        return None, "corrupt"
    if not isinstance(payload, dict):
        return None, "corrupt"
    if payload.get("version") != _CHECKPOINT_VERSION:
        # Recognizably a *different* format (the v1 state file, a future
        # version) is a legitimate mismatch; anything else is damage.
        if isinstance(payload.get("version"), int):
            return None, "version"
        return None, "corrupt"
    body = payload.get("body")
    if not isinstance(body, dict):
        return None, "corrupt"
    if _body_checksum(body) != payload.get("checksum"):
        return None, "corrupt"
    if body.get("fingerprint") != fingerprint:
        return None, "fingerprint"
    try:
        return SessionCheckpoint.from_body(body), "ok"
    except (KeyError, IndexError, TypeError, ValueError):
        return None, "corrupt"


def load_checkpoint(path, fingerprint):
    """Read and validate a v3 checkpoint; None when it must not be used.

    Rejected (returning None, so the caller restarts cleanly): a missing
    or unreadable file, a version mismatch, a checksum mismatch (torn or
    corrupted write), and — crucially — a **fingerprint mismatch**: a
    checkpoint written for a different program source, toplevel function
    or search-relevant configuration.  Callers that need to distinguish
    *why* use :func:`load_checkpoint_ex`.
    """
    checkpoint, _ = load_checkpoint_ex(path, fingerprint)
    return checkpoint
