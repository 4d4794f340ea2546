"""The suite exporter: campaign witnesses → standalone artifact tree.

``export_suite`` takes a finished (or interrupted — the runner calls it
either way) session and writes::

    <out_dir>/
        program.c            the campaign's program under test
        manifest.json        checksummed suite manifest (see corpus.py)
        artifacts/<id>/      one standalone replay test per discovery

The raw material is the session's :class:`PathWitness` list.  Errors
restored from a checkpoint written *without* witness collection carry
only their input vectors, so any error class missing from the witnesses
is rematerialized by one forcing replay through the live session's
machine — a non-reproducing restored error (drifted source, flaky
environment) is skipped rather than exported as a test that fails on
arrival.

Every duplicate collapse and subsumption prune is announced on the
trace bus (``artifact_deduped``) and counted into the session's
statistics; the export itself lands as one ``suite_exported`` event.
"""

import os

from repro.dart.report import fault_fields
from repro.obs import trace as tr
from repro.suite.artifact import (
    ARTIFACTS_DIR,
    MANIFEST_FILE,
    PROGRAM_FILE,
    SUITE_VERSION,
    Artifact,
    body_checksum,
    write_artifact,
    _dump_json,
)
from repro.suite.corpus import (
    build_manifest,
    dedupe_artifacts,
    prune_subsumed,
)


def _rematerialize_errors(dart, result, witnessed_error_keys):
    """Replay unwitnessed restored errors to recover path + coverage.

    Returns the extra :class:`Artifact` list.  An error whose replay no
    longer faults with the recorded class is dropped — exporting it
    would plant a test that fails on its first run.
    """
    from repro.suite.replay import execute_vector

    extra = []
    for error in result.errors:
        key = (error.fault.kind, str(error.fault.location))
        if key in witnessed_error_keys:
            continue
        outcome = execute_vector(dart, error.inputs, error.kinds)
        if outcome.error_key != key:
            continue
        extra.append(Artifact(
            error.inputs, error.kinds, outcome.path, outcome.covered,
            error=fault_fields(outcome.fault),
            iteration=error.iteration,
        ))
    return extra


def export_suite(dart, result, out_dir):
    """Write the deduplicated regression suite for ``result``.

    ``dart`` is the live :class:`repro.dart.runner.Dart` (its module,
    source and options pin the replay contract); ``result`` the
    :class:`DartResult` whose witnesses and errors feed the corpus.
    Returns the manifest body.
    """
    witnesses = list(result.witnesses or ())
    artifacts = [Artifact.from_witness(witness) for witness in witnesses]
    witnessed_error_keys = {
        artifact.error_key for artifact in artifacts
        if artifact.error is not None
    }
    artifacts.extend(
        _rematerialize_errors(dart, result, witnessed_error_keys))

    unique, duplicates = dedupe_artifacts(artifacts)
    kept, pruned = prune_subsumed(unique)
    trace = dart.trace
    if trace.enabled:
        for artifact in duplicates:
            trace.emit(tr.ARTIFACT_DEDUPED, reason="duplicate",
                       artifact=artifact.artifact_id,
                       path_fingerprint=artifact.path_fp[:12])
        for artifact in pruned:
            trace.emit(tr.ARTIFACT_DEDUPED, reason="subsumed",
                       artifact=artifact.artifact_id,
                       path_fingerprint=artifact.path_fp[:12])

    counts = {
        "witnesses": len(artifacts),
        "deduped": len(duplicates),
        "pruned": len(pruned),
    }
    manifest_body = build_manifest(
        dart.module, dart.source, dart.toplevel, dart.options, result,
        kept, counts)

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, PROGRAM_FILE), "w") as handle:
        handle.write(dart.source)
    for artifact in kept:
        write_artifact(
            os.path.join(out_dir, ARTIFACTS_DIR, artifact.artifact_id),
            artifact, dart.source, dart.toplevel, dart.options,
            filename=dart.filename)
    _dump_json(os.path.join(out_dir, MANIFEST_FILE), {
        "version": SUITE_VERSION,
        "checksum": body_checksum(manifest_body),
        "body": manifest_body,
    })

    stats = result.stats
    stats.artifacts_exported += len(kept)
    stats.artifacts_deduped += len(duplicates)
    stats.artifacts_pruned += len(pruned)
    if trace.enabled:
        coverage = manifest_body["coverage"]
        trace.emit(
            tr.SUITE_EXPORTED, dir=os.fspath(out_dir), artifacts=len(kept),
            errors=manifest_body["counts"]["errors"],
            deduped=len(duplicates), pruned=len(pruned),
            c1_percent=round(coverage["c1_percent"], 2),
        )
    return manifest_body
