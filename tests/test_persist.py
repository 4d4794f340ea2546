"""Tests for inter-run state persistence (resume after budget)."""

import json
import os
import random

from repro import DartOptions
from repro.dart import persist
from repro.dart.inputs import InputVector
from repro.dart.pathcond import DONE
from repro.dart.runner import Dart
from repro.programs.ac_controller import AC_CONTROLLER_SOURCE


class TestFileFormat:
    FINGERPRINT = {"source": "persist", "toplevel": "f", "options": "-",
                   "encoding": 0}

    def save(self, path, stack, im):
        persist.save_checkpoint(path, persist.SessionCheckpoint(
            fingerprint=self.FINGERPRINT,
            rng_state=random.Random(0).getstate(), flags=(True,) * 4,
            counters={}, distinct_paths=[], covered_branches=[], errors=[],
            quarantined=[], worklist=[(stack, im, 0)],
        ))

    def roundtrip(self, tmp_path, stack, im):
        path = str(tmp_path / "state.json")
        self.save(path, stack, im)
        (stack, im, _bound), = persist.load_checkpoint(
            path, self.FINGERPRINT).worklist
        return stack, im

    def reason(self, path):
        return persist.load_checkpoint_ex(str(path), self.FINGERPRINT)

    def test_roundtrip(self, tmp_path):
        stack = bytearray([1 | DONE, 0])
        im = InputVector()
        im.record(0, "int", -7)
        im.record(1, "ptr_choice", 1)
        loaded_stack, loaded_im = self.roundtrip(tmp_path, stack, im)
        assert [(e & 1, bool(e & DONE)) for e in loaded_stack] == \
            [(1, True), (0, False)]
        assert loaded_im.values() == [-7, 1]
        assert loaded_im[1].kind == "ptr_choice"

    def test_empty_state(self, tmp_path):
        loaded_stack, loaded_im = self.roundtrip(
            tmp_path, b"", InputVector()
        )
        assert loaded_stack == b"" and len(loaded_im) == 0

    def test_stack_entries_outside_0_1_are_corrupt(self, tmp_path):
        # Entries pack into one byte (branch | DONE): a stray 2 must not
        # quietly become a done flag, so the loader rejects the file.
        path = tmp_path / "state.json"
        for entry in ([2, 0], [0, 2], [1, -1], ["1", 0], [0.5, 0], [1],
                      [1, 0, 0]):
            self.save(str(path), bytearray([1, 0]), InputVector())
            payload = json.loads(path.read_text())
            payload["body"]["worklist"][0]["stack"] = [[1, 0], entry]
            payload["checksum"] = persist._body_checksum(payload["body"])
            path.write_text(json.dumps(payload))
            assert self.reason(path) == (None, "corrupt"), entry

    def test_missing_file(self, tmp_path):
        assert self.reason(tmp_path / "nope.json") == (None, "missing")

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert self.reason(path) == (None, "corrupt")

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text('{"version": 99, "stack": [], "im": []}')
        assert self.reason(path) == (None, "version")

    def test_clear_state(self, tmp_path):
        path = str(tmp_path / "state.json")
        self.save(path, b"", InputVector())
        persist.clear_state(path)
        assert not os.path.exists(path)
        persist.clear_state(path)  # idempotent


class TestResume:
    def test_interrupted_search_resumes_and_completes(self, tmp_path):
        path = str(tmp_path / "dart-state.json")
        # First session: budget too small to finish depth-1 exploration.
        first = Dart(
            AC_CONTROLLER_SOURCE, "ac_controller",
            DartOptions(max_iterations=2, seed=0, state_file=path),
        ).run()
        assert first.status == "exhausted"
        assert os.path.exists(path)
        # Second session resumes where the first stopped and finishes.
        second = Dart(
            AC_CONTROLLER_SOURCE, "ac_controller",
            DartOptions(max_iterations=100, seed=0, state_file=path),
        ).run()
        assert second.status == "complete"
        assert not os.path.exists(path)  # cleared on clean termination
        # Fewer runs than from scratch (some paths already explored).
        fresh = Dart(
            AC_CONTROLLER_SOURCE, "ac_controller",
            DartOptions(max_iterations=100, seed=0),
        ).run()
        assert second.iterations <= fresh.iterations

    def test_resume_finds_the_depth2_bug(self, tmp_path):
        path = str(tmp_path / "dart-state.json")
        partial = Dart(
            AC_CONTROLLER_SOURCE, "ac_controller",
            DartOptions(depth=2, max_iterations=3, seed=0,
                        state_file=path),
        ).run()
        assert not partial.found_error
        resumed = Dart(
            AC_CONTROLLER_SOURCE, "ac_controller",
            DartOptions(depth=2, max_iterations=500, seed=0,
                        state_file=path),
        ).run()
        assert resumed.found_error
        assert tuple(resumed.first_error().inputs) == (3, 0)

    def test_no_state_file_means_no_files(self, tmp_path):
        Dart(
            AC_CONTROLLER_SOURCE, "ac_controller",
            DartOptions(max_iterations=5, seed=0),
        ).run()
        assert list(tmp_path.iterdir()) == []

    def test_mismatched_checkpoint_is_rejected_and_search_restarts(
        self, tmp_path
    ):
        # Regression: a state file written for a *different* program used
        # to be replayed blindly.  The v2 fingerprint rejects it and the
        # search restarts cleanly, matching a stateless session exactly.
        path = str(tmp_path / "stale.json")
        other_program = """
        int ac_controller(int m) {
          if (m == 1) m = m + 10;
          if (m == 2) m = m + 20;
          if (m == 3) m = m + 30;
          if (m == 4) m = m + 40;
          return m;
        }
        """
        stale = Dart(
            other_program, "ac_controller",
            DartOptions(max_iterations=2, seed=0, state_file=path),
        ).run()
        assert stale.status == "exhausted" and os.path.exists(path)
        resumed = Dart(
            AC_CONTROLLER_SOURCE, "ac_controller",
            DartOptions(max_iterations=100, seed=0, state_file=path),
        ).run()
        fresh = Dart(
            AC_CONTROLLER_SOURCE, "ac_controller",
            DartOptions(max_iterations=100, seed=0),
        ).run()
        assert not resumed.resumed
        assert resumed.status == fresh.status == "complete"
        assert resumed.iterations == fresh.iterations

    def test_legacy_v1_state_restarts_cleanly(self, tmp_path):
        # The bare (stack, IM) v1 file carries no fingerprint, so nothing
        # tells which program or configuration wrote it: it is another
        # format, not a seed, and the session starts from scratch.
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(
            {"version": 1, "stack": [[1, 0]], "im": [["int", 3]]}))
        assert persist.load_checkpoint_ex(str(path), {}) == (None, "version")
        result = Dart(
            AC_CONTROLLER_SOURCE, "ac_controller",
            DartOptions(max_iterations=100, seed=0, state_file=str(path)),
        ).run()
        assert not result.resumed
        assert result.stats.checkpoints_rejected == 0
        assert not [record for record in result.quarantined
                    if record.classification == "checkpoint-corrupt"]
        assert result.status == "complete"
        assert not path.exists()
