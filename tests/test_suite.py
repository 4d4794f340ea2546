"""The exportable regression-suite subsystem (`repro.suite`).

Four layers of pinning:

* **Corpus semantics** — dedup keys collapse identical discoveries,
  subsumption pruning preserves the coverage union exactly, and
  error-revealing artifacts are never pruned.
* **Round-trip property** — for Hypothesis-chosen generated programs,
  every exported artifact replays to its recorded verdict, branch path
  and covered-branch set bit-for-bit with search disabled, and the
  whole suite runs green.
* **Campaign suites** — the checked-in fuzz repros, the AC controller
  and the Needham-Schroeder protocol all export replayable suites; the
  AC suite also runs under *plain* pytest in a subprocess with nothing
  but ``PYTHONPATH=src``.  A byte-exact golden export lives under
  ``tests/golden_suite/`` (regenerate with
  ``python tests/test_suite.py regen`` after an intentional format
  change).
* **Damage containment** — a bit-flipped artifact (via the
  ``suite.bitflip`` fault seam) is quarantined, never fatal; a
  bit-flipped manifest fails loudly with :class:`CorruptArtifact`.

Per-function C1 accounting is pinned here too: the parallel engine
must produce the same witnesses and the same coverage rollup as the
serial engine, and the C1 numbers must surface through ``RunStats``.
"""

import json
import os
import random
import subprocess
import sys
import tempfile

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.dart.config import DartOptions
from repro.dart.runner import Dart
from repro.faults import FaultPlan
from repro.faults import points as fault_points
from repro.programs.ac_controller import (
    AC_CONTROLLER_SOURCE,
    AC_CONTROLLER_TOPLEVEL,
)
from repro.programs.needham_schroeder import ns_source, ns_toplevel
from repro.suite import (
    Artifact,
    CorruptArtifact,
    dedupe_artifacts,
    load_manifest,
    load_suite,
    path_fingerprint,
    prune_subsumed,
    replay_suite,
    suite_coverage,
)
from repro.testgen import GeneratorOptions, generate_program, load_repro

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(TESTS_DIR), "src")
GOLDEN_DIR = os.path.join(TESTS_DIR, "golden_suite")
CORPUS_FILES = sorted(
    os.path.join(TESTS_DIR, "corpus", name)
    for name in os.listdir(os.path.join(TESTS_DIR, "corpus"))
    if name.endswith(".json")
)

#: The campaign behind the committed golden suite.  Changing anything
#: here (or the on-disk format) requires regenerating tests/golden_suite
#: — that is the point: format drift must be a conscious, reviewed act.
GOLDEN_CAMPAIGN = dict(depth=2, strategy="bfs", seed=0,
                       max_iterations=200, stop_on_first_error=False)


def export_campaign(source, toplevel, out_dir, **overrides):
    """Run a witness-collecting campaign that exports to ``out_dir``."""
    params = dict(strategy="bfs", seed=0, max_iterations=80,
                  stop_on_first_error=False)
    params.update(overrides)
    options = DartOptions(export_suite=out_dir, **params)
    return Dart(source, toplevel, options).run()


def build_golden_suite(out_dir, jobs=1):
    """(Re)generate the golden AC-controller suite — see GOLDEN_CAMPAIGN."""
    return export_campaign(AC_CONTROLLER_SOURCE, AC_CONTROLLER_TOPLEVEL,
                           out_dir, jobs=jobs, **GOLDEN_CAMPAIGN)


def make_artifact(path, error=None, covered=(), inputs=(1, 2)):
    return Artifact(list(inputs), ["int"] * len(inputs), path,
                    set(covered), error=error)


def err(kind="division by zero", location="p.c:3:5"):
    return {"kind": kind, "message": kind, "location": location}


class TestCorpusSemantics:
    def test_identical_dedup_keys_collapse(self):
        first = make_artifact((True, False), inputs=(7,))
        second = make_artifact((True, False), inputs=(99,))
        unique, duplicates = dedupe_artifacts([first, second])
        assert unique == [first]
        assert duplicates == [second]

    def test_same_path_different_error_class_kept_apart(self):
        clean = make_artifact((True,))
        faulty = make_artifact((True,), error=err())
        elsewhere = make_artifact((True,), error=err(location="p.c:9:1"))
        unique, duplicates = dedupe_artifacts([clean, faulty, elsewhere])
        assert unique == [clean, faulty, elsewhere] and not duplicates
        ids = {artifact.artifact_id for artifact in unique}
        assert len(ids) == 3, "error class must differentiate artifact ids"

    def test_artifact_id_shape(self):
        clean = make_artifact((True,))
        faulty = make_artifact((True,), error=err("Division By Zero!"))
        assert clean.artifact_id.startswith("ok_")
        assert faulty.artifact_id.startswith("err_division_by_zero_")
        assert clean.path_fp == path_fingerprint((True,))

    def test_subset_coverage_is_pruned_and_union_preserved(self):
        big = make_artifact((True,), covered={("f", 1, True), ("f", 1, False)})
        subset = make_artifact((False,), covered={("f", 1, True)})
        extra = make_artifact((True, True), covered={("f", 3, True)})
        kept, pruned = prune_subsumed([subset, big, extra])
        assert subset in pruned and big in kept and extra in kept
        union = set()
        for artifact in kept:
            union |= artifact.covered
        assert union == big.covered | subset.covered | extra.covered

    def test_error_artifacts_never_pruned(self):
        covering = make_artifact((True,),
                                 covered={("f", 1, True), ("f", 1, False)})
        redundant_error = make_artifact((False,), error=err(),
                                        covered={("f", 1, True)})
        kept, pruned = prune_subsumed([covering, redundant_error])
        assert redundant_error in kept
        assert not pruned or covering not in pruned

    def test_branchless_program_keeps_one_ok_witness(self):
        first = make_artifact((), covered=set(), inputs=(1,))
        second = make_artifact((), covered=set(), inputs=(2,))
        kept, pruned = prune_subsumed([first, second])
        assert len(kept) == 1 and kept[0].error is None


class TestRoundTripProperty:
    """Export→replay round-trip over generated mini-C programs."""

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_generated_program_suite_replays_bit_for_bit(self, seed):
        program = generate_program(
            random.Random(seed), GeneratorOptions(max_statements=10),
            seed=seed)
        out = tempfile.mkdtemp(prefix="suite_prop_")
        result = export_campaign(program.render(), program.toplevel, out,
                                 max_iterations=40)
        assert result.stats.witnesses_recorded >= 1
        assert result.stats.artifacts_exported >= 1
        report = replay_suite(out)
        assert report["ok"], (seed, report["failed"], report["quarantined"])
        manifest = load_manifest(out)
        coverage, _manifest, quarantined = suite_coverage(out)
        assert not quarantined
        assert coverage.to_dict() == manifest["coverage"]
        # The prune invariant, end to end: the suite's covered union is
        # exactly the witnesses' union, so suite C1 can never fall below
        # what the kept artifacts discovered.
        witness_union = set()
        for witness in result.witnesses:
            witness_union |= witness.covered
        assert coverage.covered == witness_union


class TestCampaignSuites:
    @pytest.mark.parametrize(
        "path", CORPUS_FILES,
        ids=[os.path.basename(path) for path in CORPUS_FILES])
    def test_corpus_repro_exports_replayable_suite(self, path, tmp_path):
        payload = load_repro(path)
        out = str(tmp_path / "suite")
        result = export_campaign(payload["source"], payload["toplevel"],
                                 out, max_iterations=60)
        assert result.stats.artifacts_exported >= 1
        report = replay_suite(out)
        assert report["ok"], (report["failed"], report["quarantined"])

    def test_ac_controller_suite(self, tmp_path):
        out = str(tmp_path / "suite")
        result = export_campaign(AC_CONTROLLER_SOURCE,
                                 AC_CONTROLLER_TOPLEVEL, out,
                                 depth=2, max_iterations=200)
        manifest = load_manifest(out)
        # The depth-2 assertion violation must survive dedup and prune.
        error_ids = [entry["id"] for entry in manifest["artifacts"]
                     if entry["verdict"] == "error"]
        assert len(error_ids) == 1
        campaign_errors = {(error.kind, str(error.location))
                           for error in result.errors}
        suite_errors = {(entry["error"]["kind"],
                         str(entry["error"]["location"]))
                        for entry in manifest["artifacts"]
                        if entry["verdict"] == "error"}
        assert suite_errors == campaign_errors
        # Suite C1 can never fall below the campaign's recorded C1.
        coverage, _manifest, _quarantined = suite_coverage(out)
        assert coverage.c1_percent >= result.coverage.c1_percent
        assert replay_suite(out)["ok"]

    def test_traced_export_to_a_path_records_its_directory(self, tmp_path):
        # DartOptions.export_suite may be a pathlib.Path; the trace event
        # carries it as a string, as the CLI would have passed it.
        out = tmp_path / "s"
        trace_file = tmp_path / "trace.jsonl"
        Dart(AC_CONTROLLER_SOURCE, AC_CONTROLLER_TOPLEVEL,
             DartOptions(export_suite=out, trace_file=str(trace_file),
                         depth=2, max_iterations=50)).run()
        with open(trace_file) as handle:
            events = [json.loads(line) for line in handle]
        exported = [event for event in events
                    if event["type"] == "suite_exported"]
        assert len(exported) == 1
        assert exported[0]["dir"] == str(out)
        assert load_manifest(str(out))["artifacts"]

    def test_ac_suite_runs_under_plain_pytest(self, tmp_path):
        out = str(tmp_path / "suite")
        export_campaign(AC_CONTROLLER_SOURCE, AC_CONTROLLER_TOPLEVEL, out,
                        depth=2, max_iterations=200)
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             out],
            env={"PYTHONPATH": SRC_DIR, "PATH": os.environ.get("PATH", ""),
                 "HOME": os.environ.get("HOME", "/tmp")},
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_needham_schroeder_suite(self, tmp_path):
        out = str(tmp_path / "suite")
        result = export_campaign(ns_source("possibilistic"),
                                 ns_toplevel("possibilistic"), out,
                                 depth=2, strategy="dfs",
                                 max_iterations=5000,
                                 stop_on_first_error=True)
        assert result.found_error
        manifest = load_manifest(out)
        assert manifest["counts"]["errors"] >= 1
        assert replay_suite(out)["ok"]

    def test_interrupted_campaign_still_exports(self, tmp_path):
        # A budget-truncated session runs the exporter on what it found.
        out = str(tmp_path / "suite")
        result = export_campaign(AC_CONTROLLER_SOURCE,
                                 AC_CONTROLLER_TOPLEVEL, out,
                                 depth=2, max_iterations=5)
        assert result.stats.iterations == 5
        manifest = load_manifest(out)
        assert manifest["counts"]["artifacts"] >= 1
        assert manifest["provenance"]["iterations"] == 5
        assert replay_suite(out)["ok"]

    def test_checkpointed_plain_campaign_salvages_a_suite(self, tmp_path):
        # A campaign run WITHOUT witness collection checkpoints its
        # errors; resuming it with an export destination (excluded from
        # the options digest, so the checkpoint still matches) must
        # rematerialize them into replayable artifacts.
        state = str(tmp_path / "ckpt.json")
        # The budget must truncate the campaign *after* the depth-2
        # error (run 22, deterministic under seed 0) but *before* the
        # worklist drains (run 25) — a finished campaign deletes its
        # checkpoint.
        options = DartOptions(depth=2, strategy="bfs", seed=0,
                              max_iterations=23, stop_on_first_error=False,
                              state_file=state, checkpoint_every=1)
        first = Dart(AC_CONTROLLER_SOURCE, AC_CONTROLLER_TOPLEVEL,
                     options).run()
        assert first.found_error and os.path.exists(state)
        out = str(tmp_path / "suite")
        salvage = DartOptions(depth=2, strategy="bfs", seed=0,
                              max_iterations=0, stop_on_first_error=False,
                              state_file=state, checkpoint_every=1,
                              export_suite=out)
        second = Dart(AC_CONTROLLER_SOURCE, AC_CONTROLLER_TOPLEVEL,
                      salvage).run()
        assert second.resumed
        manifest = load_manifest(out)
        suite_errors = {(entry["error"]["kind"],
                         str(entry["error"]["location"]))
                        for entry in manifest["artifacts"]
                        if entry["verdict"] == "error"}
        assert suite_errors == {(error.kind, str(error.location))
                                for error in first.errors}
        assert replay_suite(out)["ok"]


def _tree_bytes(root):
    payload = {}
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            if name.startswith("."):
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as handle:
                payload[os.path.relpath(path, root)] = handle.read()
    return payload


class TestGoldenSuite:
    def test_golden_suite_is_committed(self):
        assert os.path.isdir(GOLDEN_DIR), \
            "tests/golden_suite/ lost its exported suite"
        assert os.path.exists(os.path.join(GOLDEN_DIR, "manifest.json"))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_export_is_deterministic_and_matches_golden(self, tmp_path,
                                                        jobs):
        # jobs=2 must export the very same bytes: the pool runs the same
        # kernel on the same items with the same seeds, and commits in
        # dispatch order.
        out = str(tmp_path / "suite")
        build_golden_suite(out, jobs=jobs)
        fresh = _tree_bytes(out)
        golden = _tree_bytes(GOLDEN_DIR)
        assert sorted(fresh) == sorted(golden)
        for name in sorted(golden):
            assert fresh[name] == golden[name], (
                "suite export drifted from tests/golden_suite/{} — if the "
                "format change is intentional, regenerate with "
                "'python tests/test_suite.py regen'".format(name))

    def test_golden_suite_replays_green(self):
        report = replay_suite(GOLDEN_DIR)
        assert report["ok"], (report["failed"], report["quarantined"])


class TestDamageContainment:
    def _suite(self, tmp_path):
        out = str(tmp_path / "suite")
        export_campaign(AC_CONTROLLER_SOURCE, AC_CONTROLLER_TOPLEVEL, out,
                        depth=2, max_iterations=200)
        return out

    def test_bitflipped_artifact_is_quarantined(self, tmp_path):
        out = self._suite(tmp_path)
        manifest = load_manifest(out)
        total = len(manifest["artifacts"])
        assert total >= 2
        # Occurrence 1 of the seam is the manifest read; occurrence 2 is
        # the first artifact's expected.json — flip a byte there.
        with fault_points.active(FaultPlan.parse("suite.bitflip@2")):
            _manifest, loaded, quarantined = load_suite(out)
        assert len(quarantined) == 1
        assert len(loaded) == total - 1
        assert quarantined[0]["id"] == manifest["artifacts"][0]["id"]

    def test_replay_quarantines_but_still_replays_the_rest(self, tmp_path):
        out = self._suite(tmp_path)
        total = len(load_manifest(out)["artifacts"])
        with fault_points.active(FaultPlan.parse("suite.bitflip@2")):
            report = replay_suite(out)
        assert not report["ok"]
        assert len(report["quarantined"]) == 1
        assert len(report["passed"]) == total - 1
        assert not report["failed"]

    def test_bitflipped_manifest_fails_loudly(self, tmp_path):
        out = self._suite(tmp_path)
        with fault_points.active(FaultPlan.parse("suite.bitflip@1")):
            with pytest.raises(CorruptArtifact):
                load_manifest(out)

    def test_tampered_program_source_is_quarantined(self, tmp_path):
        # No injector needed: hand-edit program.c; the hash pin in
        # expected.json must catch it.
        out = self._suite(tmp_path)
        manifest = load_manifest(out)
        first = os.path.join(out, manifest["artifacts"][0]["dir"],
                             "program.c")
        with open(first, "a") as handle:
            handle.write("\n// tampered\n")
        _manifest, loaded, quarantined = load_suite(out)
        assert len(quarantined) == 1
        assert "hash" in quarantined[0]["reason"]
        assert len(loaded) == len(manifest["artifacts"]) - 1


class TestC1Accounting:
    def test_c1_surfaces_through_runstats(self):
        options = DartOptions(depth=2, strategy="bfs", seed=0,
                              max_iterations=80, stop_on_first_error=False)
        run = Dart(AC_CONTROLLER_SOURCE, AC_CONTROLLER_TOPLEVEL,
                   options).run()
        summary = run.stats.summary()
        assert summary["coverage"]["c1_percent"] == \
            pytest.approx(run.coverage.c1_percent, abs=0.01)
        assert summary["coverage"]["branches_both_arms"] == \
            run.coverage.branches_both_arms
        payload = run.to_dict()
        assert payload["coverage"]["c1_percent"] == \
            pytest.approx(run.coverage.c1_percent, abs=0.01)

    def test_parallel_merge_matches_serial(self, tmp_path):
        def campaign(jobs):
            options = DartOptions(depth=2, strategy="bfs", seed=0,
                                  max_iterations=60,
                                  stop_on_first_error=False, jobs=jobs,
                                  export_suite=tmp_path / str(jobs))
            return Dart(AC_CONTROLLER_SOURCE, AC_CONTROLLER_TOPLEVEL,
                        options).run()

        serial = campaign(1)
        parallel = campaign(2)
        assert parallel.coverage.to_dict() == serial.coverage.to_dict()

        # The pool is the same search: the witness lists agree exactly,
        # concrete inputs, dispatch order and iterations included...
        def exact(witness):
            return (tuple(witness.inputs), tuple(witness.kinds),
                    witness.path, tuple(sorted(witness.covered)),
                    witness.error_key, witness.iteration)

        assert [exact(w) for w in parallel.witnesses] == \
            [exact(w) for w in serial.witnesses]

        # ...and the parallel merge itself is deterministic.
        again = campaign(2)
        assert [exact(w) for w in again.witnesses] == \
            [exact(w) for w in parallel.witnesses]


if __name__ == "__main__":
    if len(sys.argv) == 2 and sys.argv[1] == "regen":
        build_golden_suite(GOLDEN_DIR)
        print("regenerated", GOLDEN_DIR)
    else:
        print("usage: python tests/test_suite.py regen", file=sys.stderr)
        sys.exit(2)
