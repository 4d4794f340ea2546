"""Session checkpoints: integrity, provenance, and exact resumption."""

import json
import os
import random
import signal
import subprocess
import sys
import time

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

import repro
from repro import DartOptions
from repro.dart import persist
from repro.dart.inputs import InputVector
from repro.dart.pathcond import DONE, path_digest
from repro.dart.report import CHECKPOINT_CORRUPT
from repro.dart.runner import Dart
from repro.programs.ac_controller import AC_CONTROLLER_SOURCE
from repro.programs.needham_schroeder import ns_source

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def stats_key(result):
    """Everything a resumed session must reproduce exactly (not time)."""
    stats = result.stats
    return {
        "status": result.status,
        "iterations": stats.iterations,
        "paths": stats.paths_explored,
        "distinct_paths": sorted(stats.distinct_paths),
        "solver_calls": stats.solver_calls,
        "solver_sat": stats.solver_sat,
        "solver_unsat": stats.solver_unsat,
        "solver_unknown": stats.solver_unknown,
        "forcing_failures": stats.forcing_failures,
        "random_restarts": stats.random_restarts,
        "covered": sorted(stats.covered_branches),
        "errors": [(e.kind, str(e.location), tuple(e.inputs))
                   for e in result.errors],
    }


class TestGenerationalResume:
    @pytest.mark.parametrize("strategy", ["bfs", "random"])
    def test_resumed_session_matches_uninterrupted_run(
        self, tmp_path, strategy
    ):
        options = dict(strategy=strategy, seed=3, stop_on_first_error=False)
        uninterrupted = Dart(
            AC_CONTROLLER_SOURCE, "ac_controller",
            DartOptions(max_iterations=400, **options),
        ).run()
        assert uninterrupted.status == "complete"

        path = str(tmp_path / "gen-state.json")
        killed = Dart(
            AC_CONTROLLER_SOURCE, "ac_controller",
            DartOptions(max_iterations=3, state_file=path, **options),
        ).run()
        assert killed.status == "exhausted"
        assert os.path.exists(path)

        resumed = Dart(
            AC_CONTROLLER_SOURCE, "ac_controller",
            DartOptions(max_iterations=400, state_file=path, **options),
        ).run()
        assert resumed.resumed
        assert stats_key(resumed) == stats_key(uninterrupted)
        assert not os.path.exists(path)  # cleared on clean termination

    def test_dfs_resume_matches_uninterrupted_run(self, tmp_path):
        uninterrupted = Dart(
            AC_CONTROLLER_SOURCE, "ac_controller",
            DartOptions(max_iterations=400, seed=0,
                        stop_on_first_error=False),
        ).run()
        path = str(tmp_path / "dfs-state.json")
        Dart(
            AC_CONTROLLER_SOURCE, "ac_controller",
            DartOptions(max_iterations=2, seed=0, state_file=path,
                        stop_on_first_error=False),
        ).run()
        resumed = Dart(
            AC_CONTROLLER_SOURCE, "ac_controller",
            DartOptions(max_iterations=400, seed=0, state_file=path,
                        stop_on_first_error=False),
        ).run()
        assert resumed.resumed
        assert stats_key(resumed) == stats_key(uninterrupted)

    def test_periodic_autosave_writes_checkpoints(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "autosave.json")
        saves = []
        original = persist.save_checkpoint

        def counting(save_path, checkpoint):
            saves.append(checkpoint.counters["iterations"])
            return original(save_path, checkpoint)

        monkeypatch.setattr(persist, "save_checkpoint", counting)
        Dart(
            AC_CONTROLLER_SOURCE, "ac_controller",
            DartOptions(strategy="bfs", seed=0, max_iterations=3,
                        state_file=path, checkpoint_every=2),
        ).run()
        # Autosave at the 2-run boundary, plus the budget-exhaustion
        # checkpoint at 3.
        assert saves == [2, 3]
        assert os.path.exists(path)


class TestCheckpointRejection:
    def run_once(self, source, path, **overrides):
        options = dict(strategy="bfs", seed=1, max_iterations=4,
                       state_file=path)
        options.update(overrides)
        return Dart(source, "ac_controller", DartOptions(**options)).run()

    def test_checkpoint_from_different_program_is_rejected(self, tmp_path):
        path = str(tmp_path / "state.json")
        self.run_once(AC_CONTROLLER_SOURCE, path)
        assert os.path.exists(path)
        # Same toplevel name, different source text.
        other_source = AC_CONTROLLER_SOURCE + "\n/* patched */\n"
        resumed = self.run_once(other_source, path, max_iterations=400)
        assert not resumed.resumed  # restarted cleanly from scratch
        assert resumed.status == "complete"

    def test_checkpoint_from_different_options_is_rejected(self, tmp_path):
        path = str(tmp_path / "state.json")
        self.run_once(AC_CONTROLLER_SOURCE, path, seed=1)
        resumed = self.run_once(AC_CONTROLLER_SOURCE, path, seed=2,
                                max_iterations=400)
        assert not resumed.resumed

    def test_checkpoint_from_different_engine_is_rejected(self, tmp_path):
        path = str(tmp_path / "state.json")
        self.run_once(AC_CONTROLLER_SOURCE, path, strategy="bfs")
        resumed = self.run_once(AC_CONTROLLER_SOURCE, path, strategy="dfs",
                                max_iterations=400)
        # dfs and bfs have different option digests, so the fingerprint
        # rejects it: every strategy's checkpoint has the same shape.
        assert not resumed.resumed

    def test_v3_dfs_checkpoint_restarts_cleanly(self, tmp_path):
        """A v3 file — the dfs plan stored apart from the worklist, under
        an ``engine`` tag — is a legitimate older format: the session
        restarts from scratch and reports no corruption."""
        path = str(tmp_path / "state.json")
        options = dict(seed=1, max_iterations=400)
        dart = Dart(AC_CONTROLLER_SOURCE, "ac_controller",
                    DartOptions(state_file=path, **options))
        rng = random.Random(5).getstate()
        body = {
            "fingerprint": dart.fingerprint, "engine": "dfs",
            "rng": [rng[0], list(rng[1]), rng[2]],
            "flags": [True] * 4, "counters": {"iterations": 3},
            "distinct_paths": [], "covered_branches": [], "errors": [],
            "quarantined": [], "clean_drain": True,
            "dfs": {"stack": [[1, 0]], "im": [["int", 5], ["int", 0]]},
        }
        with open(path, "w") as handle:
            json.dump({"version": 3, "checksum": persist._body_checksum(body),
                       "body": body}, handle)
        assert persist.load_checkpoint_ex(path, dart.fingerprint) == \
            (None, "version")
        result = dart.run()
        assert not result.resumed
        assert result.stats.checkpoints_rejected == 0
        assert not [record for record in result.quarantined
                    if record.classification == CHECKPOINT_CORRUPT]
        fresh = Dart(AC_CONTROLLER_SOURCE, "ac_controller",
                     DartOptions(**options)).run()
        assert stats_key(result) == stats_key(fresh)

    def test_checkpoint_from_old_constraint_encoding_is_rejected(
        self, tmp_path
    ):
        """Migration: a checkpoint written before the machine-integer
        widening encoding (fingerprint without the ``encoding`` field, or
        with an older generation) carries ``done`` verdicts decided under
        ideal-integer conjuncts.  Resuming must reject it and re-solve
        from scratch rather than trust stale decisions."""
        path = str(tmp_path / "state.json")
        self.run_once(AC_CONTROLLER_SOURCE, path)
        payload = json.load(open(path))
        assert payload["body"]["fingerprint"]["encoding"] == 3
        fingerprint = Dart(
            AC_CONTROLLER_SOURCE, "ac_controller",
            DartOptions(strategy="bfs", seed=1),
        ).fingerprint

        def rewrite(mutate):
            # Recompute the checksum so the encoding generation is the
            # *only* thing wrong with the file.
            stale = json.loads(json.dumps(payload))
            mutate(stale["body"]["fingerprint"])
            stale["checksum"] = persist._body_checksum(stale["body"])
            with open(path, "w") as handle:
                json.dump(stale, handle)

        # A v1-encoding session stamped encoding=1.
        rewrite(lambda fp: fp.__setitem__("encoding", 1))
        assert persist.load_checkpoint(path, fingerprint) is None
        # A v2-encoding session (pre-UNSAT-core canonical keys).
        rewrite(lambda fp: fp.__setitem__("encoding", 2))
        assert persist.load_checkpoint(path, fingerprint) is None
        # A pre-versioning session had no encoding field at all.
        rewrite(lambda fp: fp.__delitem__("encoding"))
        assert persist.load_checkpoint(path, fingerprint) is None
        resumed = self.run_once(AC_CONTROLLER_SOURCE, path,
                                max_iterations=400)
        assert not resumed.resumed  # restarted: branches re-solved
        assert resumed.status == "complete"

    def assert_degraded_reseed(self, resumed):
        """A corrupt (exists-but-invalid) checkpoint must reseed from
        scratch AND degrade: lost progress means the session can no
        longer certify completeness, and the damage is quarantined as
        evidence rather than silently swallowed."""
        assert not resumed.resumed
        assert resumed.status == "exhausted"  # never COMPLETE after loss
        assert resumed.stats.checkpoints_rejected == 1
        records = [record for record in resumed.quarantined
                   if record.classification == CHECKPOINT_CORRUPT]
        assert len(records) == 1
        assert "reseeding" in records[0].detail

    def test_corrupted_checkpoint_is_rejected(self, tmp_path):
        path = str(tmp_path / "state.json")
        self.run_once(AC_CONTROLLER_SOURCE, path)
        payload = json.load(open(path))
        payload["body"]["counters"]["iterations"] += 1  # bit rot
        with open(path, "w") as handle:
            json.dump(payload, handle)
        fingerprint = Dart(
            AC_CONTROLLER_SOURCE, "ac_controller",
            DartOptions(strategy="bfs", seed=1),
        ).fingerprint
        assert persist.load_checkpoint(path, fingerprint) is None
        self.assert_degraded_reseed(
            self.run_once(AC_CONTROLLER_SOURCE, path, max_iterations=400))

    def test_truncated_checkpoint_is_rejected(self, tmp_path):
        path = str(tmp_path / "state.json")
        self.run_once(AC_CONTROLLER_SOURCE, path)
        data = open(path).read()
        with open(path, "w") as handle:
            handle.write(data[: len(data) // 2])  # torn write
        self.assert_degraded_reseed(
            self.run_once(AC_CONTROLLER_SOURCE, path, max_iterations=400))

    def test_load_checkpoint_roundtrip(self, tmp_path):
        path = str(tmp_path / "state.json")
        self.run_once(AC_CONTROLLER_SOURCE, path)
        fingerprint = Dart(
            AC_CONTROLLER_SOURCE, "ac_controller",
            DartOptions(strategy="bfs", seed=1),
        ).fingerprint
        checkpoint = persist.load_checkpoint(path, fingerprint)
        assert checkpoint is not None
        assert checkpoint.counters["iterations"] == 4
        assert checkpoint.worklist  # mid-drain frontier preserved
        mismatched = dict(fingerprint, toplevel="someone_else")
        assert persist.load_checkpoint(path, mismatched) is None


class TestCheckpointFormat:
    """The checkpoint body: digest-keyed paths (since v3), one canonical
    encoding."""

    def saved_body(self, tmp_path):
        path = str(tmp_path / "state.json")
        Dart(AC_CONTROLLER_SOURCE, "ac_controller",
             DartOptions(strategy="bfs", seed=1, max_iterations=4,
                         state_file=path)).run()
        fingerprint = Dart(AC_CONTROLLER_SOURCE, "ac_controller",
                           DartOptions(strategy="bfs", seed=1)).fingerprint
        with open(path) as handle:
            return path, json.load(handle)["body"], fingerprint

    def write(self, path, version, body):
        with open(path, "w") as handle:
            json.dump({"version": version,
                       "checksum": persist._body_checksum(body),
                       "body": body}, handle)

    def test_v2_checkpoint_with_path_lists_restarts_cleanly(self, tmp_path):
        path, body, fingerprint = self.saved_body(tmp_path)
        body["distinct_paths"] = [[1, 0, 1], [0]]  # the v2 encoding
        self.write(path, 2, body)
        assert persist.load_checkpoint_ex(path, fingerprint) == \
            (None, "version")
        resumed = Dart(AC_CONTROLLER_SOURCE, "ac_controller",
                       DartOptions(strategy="bfs", seed=1,
                                   max_iterations=400,
                                   state_file=path)).run()
        assert not resumed.resumed
        assert resumed.stats.checkpoints_rejected == 0
        assert resumed.status == "complete"

    @pytest.mark.parametrize("entry", [
        [1, 0, 1],            # a v2 branch-bit list, current header
        "3AE820785F7A2994",   # upper case: never produced by path_digest
        "3ae820785f7a299",    # 15 characters
        "3ae820785f7a2994\n",
        "3ae820785f7a29zz",
        1234567890123456,
    ])
    def test_v3_checkpoint_with_malformed_paths_is_corrupt(self, tmp_path,
                                                           entry):
        path, body, fingerprint = self.saved_body(tmp_path)
        # Under the current version header: digest-keyed paths came in
        # with v3 and v4 keeps them.
        body["distinct_paths"] = body["distinct_paths"] + [entry]
        self.write(path, persist._CHECKPOINT_VERSION, body)
        assert persist.load_checkpoint_ex(path, fingerprint) == \
            (None, "corrupt")

    def test_saved_paths_are_digests(self, tmp_path):
        _, body, _ = self.saved_body(tmp_path)
        assert body["distinct_paths"]
        assert all(len(digest) == 16 for digest in body["distinct_paths"])

    def test_checkpoint_grows_by_a_fixed_width_per_distinct_path(
        self, tmp_path, monkeypatch
    ):
        """Dolev-Yao depth 2, one checkpoint per run: once coverage has
        settled (the second half of the session), each new distinct path
        adds one 16-hex-character digest entry (19 bytes of JSON).  Full
        branch-bit lists cost 70+ bytes per path here, and more on longer
        paths."""
        path = str(tmp_path / "dy2.json")
        samples = []
        original = persist.save_checkpoint

        def recording(save_path, checkpoint):
            original(save_path, checkpoint)
            samples.append((len(checkpoint.distinct_paths),
                            os.path.getsize(save_path)))

        monkeypatch.setattr(persist, "save_checkpoint", recording)
        result = Dart(ns_source("dolev_yao"), "ns_dy_step",
                      DartOptions(depth=2, max_iterations=50_000,
                                  state_file=path, checkpoint_every=1)).run()
        assert result.status == "complete"
        assert result.iterations == 294
        assert len(samples) == 293
        settled = samples[len(samples) // 2:]
        paths = [count for count, _ in settled]
        sizes = [size for _, size in settled]
        assert paths[-1] - paths[0] >= 100
        mean_paths = sum(paths) / len(paths)
        mean_size = sum(sizes) / len(sizes)
        slope = (sum((p - mean_paths) * (s - mean_size)
                     for p, s in zip(paths, sizes))
                 / sum((p - mean_paths) ** 2 for p in paths))
        assert slope <= 24, slope


def _checkpoints():
    """Random SessionCheckpoints of either engine, with the optional
    witness and dedup sections."""
    ints = st.integers(-(1 << 40), 1 << 40)
    text = st.text(max_size=12)
    bits = st.lists(st.integers(0, 1), max_size=30)
    stacks = st.lists(st.sampled_from([0, 1, DONE, 1 | DONE]),
                      max_size=8).map(bytearray)

    def input_vector(slots):
        im = InputVector()
        for ordinal, (kind, value) in enumerate(slots):
            im.record(ordinal, kind, value)
        return im

    kinds = st.sampled_from(["int", "uint", "char", "ptr_choice"])
    ims = st.lists(st.tuples(kinds, ints), max_size=6).map(input_vector)
    errors = st.fixed_dictionaries({
        "kind": text, "message": text,
        "location": st.one_of(st.none(), text),
        "inputs": st.lists(ints, max_size=4),
        "kinds": st.lists(kinds, max_size=4),
        "iteration": st.integers(0, 10_000),
        "path": st.one_of(st.none(), bits),
    })
    witnesses = st.fixed_dictionaries({
        "inputs": st.lists(ints, max_size=4),
        "kinds": st.lists(kinds, max_size=4),
        "path": bits,
        "covered": st.lists(st.tuples(text, st.integers(0, 500),
                                      st.booleans()).map(list), max_size=4),
        "error": st.one_of(st.none(), st.fixed_dictionaries(
            {"kind": text, "message": text, "location": text})),
        "iteration": st.integers(0, 10_000),
    })
    salts = st.one_of(st.none(), st.tuples(text, text))
    common = dict(
        fingerprint=st.fixed_dictionaries(
            {"source": text, "toplevel": text, "encoding": st.integers(0, 9)}),
        rng_state=st.integers(0, 1 << 32).map(
            lambda seed: random.Random(seed).getstate()),
        flags=st.tuples(st.booleans(), st.booleans(), st.booleans(),
                        st.booleans()),
        counters=st.dictionaries(st.text(min_size=1, max_size=10),
                                 st.integers(0, 1 << 40), max_size=5),
        distinct_paths=st.lists(bits.map(path_digest), unique=True,
                                max_size=20),
        covered_branches=st.lists(st.tuples(text, st.integers(0, 500),
                                            st.booleans()), max_size=6),
        errors=st.lists(errors, max_size=2),
        quarantined=st.lists(st.fixed_dictionaries({
            "classification": text, "inputs": st.lists(ints, max_size=3),
            "kinds": st.lists(kinds, max_size=3),
            "iteration": st.integers(0, 10_000), "detail": text,
        }), max_size=2),
        witnesses=st.lists(witnesses, max_size=3),
        clean_drain=st.booleans(),
    )
    # A dfs session's worklist holds the one run Fig. 5 planned next.
    dfs = st.builds(
        persist.SessionCheckpoint,
        worklist=st.tuples(stacks, ims, st.integers(0, 1000)).map(
            lambda item: [item]),
        **common)
    generational = st.builds(
        persist.SessionCheckpoint,
        worklist=st.lists(st.tuples(stacks, ims, st.integers(0, 1000)),
                          max_size=4),
        dedup_seen=st.lists(st.tuples(text, salts), max_size=4),
        **common)
    return st.one_of(dfs, generational)


@settings(deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(checkpoint=_checkpoints())
def test_saved_bytes_pass_the_loaders_checksum(tmp_path, checkpoint):
    """One encoding per save: the bytes written are the canonical text
    the loader re-derives its checksum from, and decoding the body
    gives back the checkpoint it was made from."""
    path = str(tmp_path / "state.json")
    persist.save_checkpoint(path, checkpoint)
    with open(path) as handle:
        text = handle.read()
    payload = json.loads(text)
    assert payload["version"] == persist._CHECKPOINT_VERSION
    assert payload["checksum"] == persist._body_checksum(payload["body"])
    assert text == '{{"version":{},"checksum":"{}","body":{}}}'.format(
        payload["version"], payload["checksum"],
        persist._canonical(payload["body"]))
    loaded, reason = persist.load_checkpoint_ex(path, checkpoint.fingerprint)
    assert reason == "ok"
    body = checkpoint.to_body()
    assert loaded.to_body() == body
    assert persist.SessionCheckpoint.from_body(body).to_body() == body


#: A search space big enough that the CLI session is still running when
#: the test delivers a signal: 9^3 = 729 feasible paths, and the concrete
#: warm-up loop makes each run cost tens of milliseconds.
SLOW_SEARCH_SOURCE = """
int f(int a, int b, int c) {
  int n;
  int i;
  n = 0;
  i = 0;
  while (i < 30000)
    i = i + 1;
  if (a == 1) n = n + 1;
  if (a == 2) n = n + 1;
  if (a == 3) n = n + 1;
  if (a == 4) n = n + 1;
  if (a == 5) n = n + 1;
  if (a == 6) n = n + 1;
  if (a == 7) n = n + 1;
  if (a == 8) n = n + 1;
  if (b == 1) n = n + 1;
  if (b == 2) n = n + 1;
  if (b == 3) n = n + 1;
  if (b == 4) n = n + 1;
  if (b == 5) n = n + 1;
  if (b == 6) n = n + 1;
  if (b == 7) n = n + 1;
  if (b == 8) n = n + 1;
  if (c == 1) n = n + 1;
  if (c == 2) n = n + 1;
  if (c == 3) n = n + 1;
  if (c == 4) n = n + 1;
  if (c == 5) n = n + 1;
  if (c == 6) n = n + 1;
  if (c == 7) n = n + 1;
  if (c == 8) n = n + 1;
  return n;
}
"""


class TestGracefulSignals:
    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
    def test_signal_checkpoints_and_resumes(self, tmp_path, signum):
        program = tmp_path / "slow.c"
        program.write_text(SLOW_SEARCH_SOURCE)
        state = str(tmp_path / "state.json")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", str(program), "f",
             "--state-file", state, "--time-limit", "120",
             "--max-iterations", "1000000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env, text=True,
        )
        time.sleep(2.0)  # let the session get going
        proc.send_signal(signum)
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 130, (out, err)
        assert "Interrupted" in out
        assert "checkpoint saved" in out
        assert os.path.exists(state)

        # The checkpoint resumes in-process with the same configuration.
        probe = Dart(SLOW_SEARCH_SOURCE, "f",
                     DartOptions(state_file=state), filename=str(program))
        checkpoint = persist.load_checkpoint(state, probe.fingerprint)
        assert checkpoint is not None
        done = checkpoint.counters["iterations"]
        assert done > 0
        resumed = Dart(
            SLOW_SEARCH_SOURCE, "f",
            DartOptions(state_file=state, max_iterations=done + 20),
            filename=str(program),
        ).run()
        assert resumed.resumed
        assert resumed.iterations == done + 20  # continued, not restarted
