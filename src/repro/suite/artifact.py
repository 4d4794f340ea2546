"""Suite artifacts on disk: layout, encoding, validation, quarantine.

One artifact directory is a *standalone* regression test::

    artifacts/<id>/
        program.c       the mini-C source (hash-pinned by expected.json)
        input.json      the concrete input vector ([[kind, value], ...])
        expected.json   verdict, error class, path bits, covered set,
                        replay-relevant options — with a checksum
        test_<id>.py    generated pytest wrapper (replays with no search)

Artifact ids derive from the (path fingerprint, error class) dedup key,
so an id is stable across exports of the same discovery and unique
within a suite; the ``test_<id>.py`` basename is therefore unique too,
which keeps plain ``pytest`` discovery happy without ``__init__.py``
files.

Validation mirrors the checkpoint loader's damage taxonomy: every JSON
payload carries a checksum over its canonical body and the program
source is hash-pinned, so a torn write or a flipped bit raises
:class:`CorruptArtifact` — which suite-level loaders turn into a
*quarantine* (the entry is skipped and reported) instead of a crash.
The read path carries a fault-injection seam (``suite.bitflip``, see
:mod:`repro.faults`) so the quarantine behaviour is itself testable.

Nothing in an artifact carries a timestamp and every list is sorted, so
exporting the same campaign twice yields byte-identical suites — the
property the committed golden suite (``tests/golden_suite/``) pins.
"""

import hashlib
import json
import os
import re

from repro.faults import points as fault_points

#: Encoding version of the on-disk artifact/manifest format.
SUITE_VERSION = 1

PROGRAM_FILE = "program.c"
INPUT_FILE = "input.json"
EXPECTED_FILE = "expected.json"
MANIFEST_FILE = "manifest.json"
ARTIFACTS_DIR = "artifacts"

#: The DartOptions fields an artifact must pin for its replay to be
#: faithful: they shape the driver module, the memory model or the
#: execution budget.  Search-shaping knobs (strategy, seed, ...) are
#: deliberately absent — replay does no search.
REPLAY_OPTION_FIELDS = (
    "depth", "max_init_depth", "transparent_memory",
    "track_uninitialized", "max_steps", "stack_limit", "heap_limit",
    "max_call_depth",
)


class CorruptArtifact(Exception):
    """A suite file failed structural validation or its checksum."""


def path_fingerprint(path):
    """sha256 hex digest of a branch-bit signature (the dedup key)."""
    canonical = ",".join("1" if bit else "0" for bit in path)
    return hashlib.sha256(canonical.encode()).hexdigest()


def replay_options_dict(options):
    """The replay-relevant slice of a :class:`DartOptions`."""
    return {field: getattr(options, field)
            for field in REPLAY_OPTION_FIELDS}


def body_checksum(body):
    """sha256 over the canonical JSON of ``body`` (same recipe as the
    session checkpoint format in `repro.dart.persist`)."""
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class Artifact:
    """One distinct discovery: a (path, error-class) witness to export."""

    __slots__ = ("inputs", "kinds", "path", "covered", "error", "iteration")

    def __init__(self, inputs, kinds, path, covered, error=None,
                 iteration=0):
        self.inputs = list(inputs)
        self.kinds = list(kinds)
        self.path = tuple(bool(bit) for bit in path)
        #: (function, pc, taken) triples of program functions this
        #: single run exercised.
        self.covered = set(covered)
        #: {"kind", "message", "location"} or None for an ok run.
        self.error = error
        self.iteration = iteration

    @classmethod
    def from_witness(cls, witness):
        """Build from a :class:`repro.dart.report.PathWitness`."""
        return cls(witness.inputs, witness.kinds, witness.path,
                   witness.covered, error=witness.error,
                   iteration=witness.iteration)

    @property
    def error_key(self):
        """The error class (kind, location-string), or None if ok."""
        if self.error is None:
            return None
        return (self.error["kind"], str(self.error["location"]))

    @property
    def dedup_key(self):
        """(path fingerprint, error class) — the corpus identity."""
        return (self.path_fp, self.error_key)

    @property
    def path_fp(self):
        return path_fingerprint(self.path)

    @property
    def artifact_id(self):
        """Stable, filesystem- and python-identifier-safe id.

        Hashes the full dedup key so two error classes sharing one
        branch path (a clean run and a division fault can have
        identical branch bits) still get distinct ids.
        """
        digest = hashlib.sha256(
            "{}|{!r}".format(self.path_fp, self.error_key).encode()
        ).hexdigest()[:10]
        if self.error is None:
            return "ok_{}".format(digest)
        slug = re.sub(r"[^a-z0-9]+", "_",
                      str(self.error["kind"]).lower()).strip("_") or "fault"
        return "err_{}_{}".format(slug, digest)

    @property
    def verdict(self):
        return "error" if self.error is not None else "ok"

    def __repr__(self):
        return "Artifact({}, {} dir(s) covered)".format(
            self.artifact_id, len(self.covered))


_WRAPPER_TEMPLATE = '''\
"""Replay wrapper for suite artifact ``{artifact_id}`` (generated).

Re-executes the recorded input vector through the forcing-replay
machinery with search disabled and asserts the recorded verdict, branch
path and covered-branch set are reproduced bit-for-bit.  Standalone:
runs under plain ``pytest`` with only ``PYTHONPATH=src``.
"""

import os

from repro.suite.replay import check_artifact

_HERE = os.path.dirname(os.path.abspath(__file__))


def test_replay_{artifact_id}():
    check_artifact(_HERE)
'''


def _dump_json(path, payload):
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def write_artifact(directory, artifact, source, toplevel, options,
                   filename="<program>"):
    """Write one artifact directory; returns its expected-body dict.

    ``filename`` is the name the *campaign* compiled the program under:
    fault locations embed it, so replay must rebuild the module under
    the same name or every error-class comparison would drift.
    """
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, PROGRAM_FILE), "w") as handle:
        handle.write(source)
    im_payload = [[kind, value]
                  for kind, value in zip(artifact.kinds, artifact.inputs)]
    _dump_json(os.path.join(directory, INPUT_FILE), {
        "version": SUITE_VERSION,
        "checksum": body_checksum(im_payload),
        "im": im_payload,
    })
    body = {
        "id": artifact.artifact_id,
        "verdict": artifact.verdict,
        "error": dict(artifact.error) if artifact.error is not None
        else None,
        "path": [1 if bit else 0 for bit in artifact.path],
        "path_fingerprint": artifact.path_fp,
        "covered": sorted([entry[0], entry[1], bool(entry[2])]
                          for entry in artifact.covered),
        "iteration": artifact.iteration,
        "toplevel": toplevel,
        "filename": filename,
        "options": replay_options_dict(options)
        if not isinstance(options, dict) else dict(options),
        "source_sha256": hashlib.sha256(source.encode()).hexdigest(),
        "suite_version": SUITE_VERSION,
    }
    _dump_json(os.path.join(directory, EXPECTED_FILE), {
        "version": SUITE_VERSION,
        "checksum": body_checksum(body),
        "body": body,
    })
    wrapper = _WRAPPER_TEMPLATE.format(artifact_id=artifact.artifact_id)
    with open(os.path.join(
            directory, "test_{}.py".format(artifact.artifact_id)),
            "w") as handle:
        handle.write(wrapper)
    return body


def _read_checked_json(path, what):
    """Read a ``{version, checksum, body-ish}`` JSON file defensively.

    Probes the ``suite.bitflip`` fault seam first, so injected bit rot
    lands on the bytes this call is about to trust.
    """
    injector = fault_points.ACTIVE
    if injector is not None:
        injector.suite_read(path)
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        raise CorruptArtifact("{}: missing {}".format(what, path))
    except (OSError, ValueError) as exc:
        raise CorruptArtifact("{}: unreadable JSON in {}: {}".format(
            what, path, exc))
    if not isinstance(payload, dict) \
            or payload.get("version") != SUITE_VERSION:
        raise CorruptArtifact("{}: bad version in {}".format(what, path))
    return payload


def load_artifact(directory):
    """Read and validate one artifact directory.

    Returns ``(artifact, body)`` — the :class:`Artifact` plus the full
    expected-body dict (toplevel, replay options, source hash).  Raises
    :class:`CorruptArtifact` on any structural damage, checksum
    mismatch, or a program source that no longer matches its pin;
    suite-level callers quarantine instead of crashing.
    """
    payload = _read_checked_json(
        os.path.join(directory, EXPECTED_FILE), "artifact")
    body = payload.get("body")
    if not isinstance(body, dict):
        raise CorruptArtifact("artifact: expected.json has no body")
    if body_checksum(body) != payload.get("checksum"):
        raise CorruptArtifact(
            "artifact: expected.json failed its checksum "
            "(torn write or bit rot)")
    input_payload = _read_checked_json(
        os.path.join(directory, INPUT_FILE), "artifact")
    im_payload = input_payload.get("im")
    if not isinstance(im_payload, list) \
            or body_checksum(im_payload) != input_payload.get("checksum"):
        raise CorruptArtifact(
            "artifact: input.json failed its checksum")
    try:
        with open(os.path.join(directory, PROGRAM_FILE)) as handle:
            source = handle.read()
    except OSError as exc:
        raise CorruptArtifact("artifact: unreadable program.c: "
                              "{}".format(exc))
    if hashlib.sha256(source.encode()).hexdigest() \
            != body.get("source_sha256"):
        raise CorruptArtifact(
            "artifact: program.c does not match its recorded hash")
    try:
        artifact = Artifact(
            inputs=[int(value) for _kind, value in im_payload],
            kinds=[str(kind) for kind, _value in im_payload],
            path=[bool(bit) for bit in body["path"]],
            covered={(entry[0], int(entry[1]), bool(entry[2]))
                     for entry in body["covered"]},
            error=body["error"],
            iteration=int(body.get("iteration", 0)),
        )
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise CorruptArtifact("artifact: malformed body: {}".format(exc))
    body = dict(body)
    body["source"] = source
    return artifact, body


def load_manifest(suite_dir):
    """Read and validate a suite's ``manifest.json``; returns the body."""
    payload = _read_checked_json(
        os.path.join(suite_dir, MANIFEST_FILE), "manifest")
    body = payload.get("body")
    if not isinstance(body, dict):
        raise CorruptArtifact("manifest: no body")
    if body_checksum(body) != payload.get("checksum"):
        raise CorruptArtifact("manifest: failed its checksum")
    return body


def load_suite(suite_dir):
    """Load a whole suite, quarantining damaged entries.

    Returns ``(manifest, loaded, quarantined)`` where ``loaded`` is a
    list of ``(entry, artifact, body)`` triples in manifest order and
    ``quarantined`` lists ``{"id", "reason"}`` dicts for entries whose
    files failed validation — a corrupt artifact costs itself, never
    the suite (mirroring the corrupt-checkpoint containment).
    """
    manifest = load_manifest(suite_dir)
    loaded = []
    quarantined = []
    for entry in manifest.get("artifacts", ()):
        directory = os.path.join(suite_dir, entry["dir"])
        try:
            artifact, body = load_artifact(directory)
        except CorruptArtifact as exc:
            quarantined.append({"id": entry.get("id", "?"),
                                "reason": str(exc)})
            continue
        loaded.append((entry, artifact, body))
    return manifest, loaded, quarantined
