"""The replay contract: re-execute an artifact with zero search.

Replay rebuilds the driver module from the artifact's pinned source and
options, feeds the recorded input vector back slot-by-slot (kinds
preserved — a ``ptr_choice`` slot replays the same shape decision), and
runs the program once under forcing-replay hooks that *record* the
branch path but never predict, negate or solve anything.  The outcome
is compared bit-for-bit against the recorded expectation:

* the **verdict** — ok, or an error of the recorded (kind, location)
  class;
* the **branch path** — the exact branch-bit signature;
* the **covered-branch set** — every (function, pc, taken) direction of
  the program under test.

Any difference is a regression (or a drifted toolchain) and fails the
generated pytest wrapper via :func:`check_artifact`.  Replay always
uses the tree-walking interpreter — the engines are observationally
identical (pinned by the engine-differential oracle), and the
interpreter has no lowering warm-up to pay for a single run.
"""

import os
import random

from repro.dart.config import DartOptions
from repro.dart.coverage import BranchCoverage, is_program_branch
from repro.dart.driver import DRIVER_ENTRY
from repro.dart.instrument import DirectedHooks
from repro.dart.inputs import InputVector
from repro.interp.faults import ExecutionFault
from repro.suite.artifact import (
    CorruptArtifact,
    load_artifact,
    load_suite,
)
from repro.symbolic.flags import CompletenessFlags


class _ReplayRecordingHooks(DirectedHooks):
    """Forcing-replay hooks: recorded inputs in, branch record out.

    ``acquire_input`` returns the recorded slot value with no symbolic
    variable attached, so the run is purely concrete; the inherited
    ``on_branch`` still appends every branch to the branch stack, and
    with an empty predicted stack it can never raise a forcing
    mismatch.  A program that asks for more inputs than were recorded
    gets zeros.
    """

    def acquire_input(self, kind):
        ordinal = self._next_ordinal
        self._next_ordinal += 1
        if ordinal < len(self.im):
            return self.im[ordinal].value, None
        return 0, None


class ReplayOutcome:
    """What one artifact replay produced."""

    __slots__ = ("fault", "path", "covered")

    def __init__(self, fault, path, covered):
        #: The ExecutionFault raised, or None for a clean run.
        self.fault = fault
        #: The branch-bit signature of the replayed run.
        self.path = tuple(path)
        #: Program-function (function, pc, taken) triples exercised.
        self.covered = set(covered)

    @property
    def verdict(self):
        return "error" if self.fault is not None else "ok"

    @property
    def error_key(self):
        if self.fault is None:
            return None
        return (self.fault.kind, str(self.fault.location))


def _replay_options(option_fields):
    """Build the replay DartOptions from an artifact's pinned fields."""
    return DartOptions(
        depth=option_fields["depth"],
        max_init_depth=option_fields["max_init_depth"],
        transparent_memory=option_fields["transparent_memory"],
        track_uninitialized=option_fields["track_uninitialized"],
        max_steps=option_fields["max_steps"],
        stack_limit=option_fields["stack_limit"],
        heap_limit=option_fields["heap_limit"],
        max_call_depth=option_fields["max_call_depth"],
        max_iterations=1,
        compiled_execution=False,
    )


def execute_vector(dart, inputs, kinds):
    """One forcing replay of ``inputs`` on a built :class:`Dart`.

    Shared by artifact replay, :meth:`Dart.replay` and the exporter
    (which rematerializes path/coverage for checkpoint-restored errors
    that predate witness collection).  Slots beyond ``kinds`` replay as
    "int".  Returns a :class:`ReplayOutcome`.
    """
    im = InputVector()
    for ordinal, value in enumerate(inputs):
        kind = kinds[ordinal] if ordinal < len(kinds) else "int"
        im.record(ordinal, kind, value)
    hooks = _ReplayRecordingHooks(
        im, b"", CompletenessFlags(), random.Random(0), dart.options)
    machine = dart.machine(hooks, CompletenessFlags(), trace=dart.trace)
    fault = None
    try:
        machine.run(DRIVER_ENTRY)
    except ExecutionFault as caught:
        fault = caught
    covered = {entry for entry in machine.covered_branches
               if is_program_branch(entry)}
    return ReplayOutcome(fault, hooks.path(), covered)


def replay_artifact(directory):
    """Load and re-execute one artifact; returns ``(outcome, body)``.

    Raises :class:`CorruptArtifact` if the artifact fails validation.
    The comparison against the expectation is :func:`check_artifact`'s
    job — this function only produces the replayed facts.
    """
    from repro.dart.runner import Dart

    artifact, body = load_artifact(directory)
    options = _replay_options(body["options"])
    # Rebuild under the campaign's filename — fault locations embed it,
    # and the error-class comparison is string-exact.
    dart = Dart(body["source"], body["toplevel"], options,
                filename=body.get("filename", "<program>"))
    outcome = execute_vector(dart, artifact.inputs, artifact.kinds)
    return outcome, body


def check_artifact(directory):
    """Replay one artifact and assert its expectation bit-for-bit.

    The generated ``test_<id>.py`` wrappers call this; it raises
    ``AssertionError`` with a readable diff on any divergence.
    """
    outcome, body = replay_artifact(directory)
    expected_error = body["error"]
    assert outcome.verdict == body["verdict"], (
        "verdict drifted: expected {!r}, replay produced {!r}".format(
            body["verdict"], outcome.verdict))
    if expected_error is not None:
        expected_key = (expected_error["kind"],
                        str(expected_error["location"]))
        assert outcome.error_key == expected_key, (
            "error class drifted: expected {!r}, replay raised "
            "{!r}".format(expected_key, outcome.error_key))
    expected_path = tuple(bool(bit) for bit in body["path"])
    assert outcome.path == expected_path, (
        "branch path drifted: expected {} bit(s) {!r}, replay took "
        "{} bit(s) {!r}".format(
            len(expected_path),
            [1 if bit else 0 for bit in expected_path],
            len(outcome.path), [1 if bit else 0 for bit in outcome.path]))
    expected_covered = {(entry[0], int(entry[1]), bool(entry[2]))
                        for entry in body["covered"]}
    assert outcome.covered == expected_covered, (
        "covered-branch set drifted: missing {!r}, extra {!r}".format(
            sorted(expected_covered - outcome.covered),
            sorted(outcome.covered - expected_covered)))
    return outcome


def replay_suite(suite_dir):
    """Replay every artifact of a suite; returns a JSON-ready report.

    Corrupt entries are quarantined (listed, not fatal); replay
    divergences are recorded as failures.  ``report["ok"]`` is True
    only when every manifest entry replayed green.
    """
    from repro.suite.artifact import load_manifest

    manifest = load_manifest(suite_dir)
    passed = []
    failed = []
    quarantined = []
    for entry in manifest.get("artifacts", ()):
        directory = os.path.join(suite_dir, entry["dir"])
        try:
            check_artifact(directory)
        except CorruptArtifact as exc:
            quarantined.append({"id": entry.get("id", "?"),
                                "reason": str(exc)})
            continue
        except AssertionError as exc:
            failed.append({"id": entry.get("id", "?"),
                           "reason": str(exc)})
            continue
        passed.append(entry["id"])
    return {
        "suite": suite_dir,
        "artifacts": len(manifest.get("artifacts", ())),
        "passed": passed,
        "failed": failed,
        "quarantined": quarantined,
        "ok": not failed and not quarantined,
    }


def suite_coverage(suite_dir):
    """The C1 coverage rollup of a suite's loadable artifacts.

    Rebuilds the driver module from the manifest's pinned toplevel and
    options plus the first artifact's source, unions the artifacts'
    covered sets, and returns ``(BranchCoverage, manifest,
    quarantined)``.  Corrupt entries contribute nothing (and are
    reported), mirroring :func:`repro.suite.artifact.load_suite`.
    """
    from repro.dart.driver import build_test_program

    manifest, loaded, quarantined = load_suite(suite_dir)
    options = manifest["options"]
    union = set()
    source = None
    for _entry, artifact, body in loaded:
        union |= artifact.covered
        if source is None:
            source = body["source"]
    if source is None:
        raise CorruptArtifact(
            "suite: no loadable artifacts under {}".format(suite_dir))
    module = build_test_program(
        source, manifest["toplevel"], depth=options["depth"],
        filename=os.path.join(suite_dir, "program.c"),
        max_init_depth=options["max_init_depth"],
    )
    return BranchCoverage(module, union), manifest, quarantined
