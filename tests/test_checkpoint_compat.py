"""Checkpoint compatibility: v4 files written by an earlier build.

``tests/checkpoints/`` holds two v4 checkpoints written through the CLI
before the branch stack became a ``bytearray``:

* ``ac_depth2_seed3_cut10.json``: the AC controller, ``--depth 2
  --all-errors --seed 3``, cut at 10 runs (a dfs worklist of one);
* ``dy_depth2_bfs_cut40.json``: Needham-Schroeder with the Dolev-Yao
  intruder, ``--depth 2 --strategy bfs``, cut at 40 runs (76 pending
  items, 142 done flags among their stack entries).

Each must load, re-save byte-identically, and resume to the result of an
uninterrupted run.  The solver cache is not part of a checkpoint, so a
resumed session re-solves queries the uninterrupted one answered from
its cache: the counters that count those answers are the one expected
difference.
"""

import json
import os
import shutil

import pytest

from repro.cli import main
from repro.dart import persist
from repro.programs.ac_controller import AC_CONTROLLER_SOURCE
from repro.programs.needham_schroeder import ns_source

HERE = os.path.join(os.path.dirname(__file__), "checkpoints")

#: (fixture, program file name, source, toplevel, CLI flags).  Errors
#: carry their location's file path, so the program file is named as it
#: was when the fixture was written, relative to the working directory.
CASES = {
    "ac": ("ac_depth2_seed3_cut10.json", "ac.c", AC_CONTROLLER_SOURCE,
           "ac_controller",
           ["--depth", "2", "--all-errors", "--seed", "3",
            "--max-iterations", "400"]),
    "dy": ("dy_depth2_bfs_cut40.json", "dy.c", ns_source("dolev_yao"),
           "ns_dy_step", ["--depth", "2", "--strategy", "bfs"]),
}

#: Wall-clock readings, plus whether the session resumed.
UNSTABLE = {"elapsed_s", "phases", "histograms", "resumed"}

#: Counters the session's solver cache shapes; the cache starts empty
#: on resume.
CACHE_SHAPED = {
    "solver_calls", "solver_sat", "solver_unsat", "solver_unknown",
    "solver_retries", "solver_escalations", "solver_constraints",
    "avg_constraints_per_call",
    "cache_hits", "cache_misses", "cache_hit_rate",
    "cache_unsat_shortcuts", "flips_subsumed_core",
}


def _strip(payload, drop):
    if isinstance(payload, dict):
        return {key: _strip(value, drop) for key, value in payload.items()
                if key not in drop}
    if isinstance(payload, list):
        return [_strip(value, drop) for value in payload]
    return payload


def _cli_json(capsys, program, toplevel, flags):
    code = main([program, toplevel, "--json"] + flags)
    assert code in (0, 1)
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("case", sorted(CASES))
def test_resaves_byte_identically(tmp_path, case):
    path = os.path.join(HERE, CASES[case][0])
    with open(path, "rb") as handle:
        original = handle.read()
    fingerprint = json.loads(original)["body"]["fingerprint"]
    checkpoint, reason = persist.load_checkpoint_ex(path, fingerprint)
    assert reason == "ok"
    copy = str(tmp_path / "resaved.json")
    persist.save_checkpoint(copy, checkpoint)
    with open(copy, "rb") as handle:
        assert handle.read() == original


@pytest.mark.parametrize("case", sorted(CASES))
def test_resume_equals_an_uninterrupted_run(tmp_path, monkeypatch, capsys,
                                            case):
    fixture, name, source, toplevel, flags = CASES[case]
    monkeypatch.chdir(tmp_path)
    program = tmp_path / name
    program.write_text(source)
    state = tmp_path / "state.json"
    shutil.copyfile(os.path.join(HERE, fixture), state)
    resumed = _cli_json(capsys, name, toplevel,
                        flags + ["--state-file", str(state)])
    full = _cli_json(capsys, name, toplevel, flags)
    assert resumed["resumed"] and not full["resumed"]
    assert not state.exists()  # the search finished
    assert _strip(resumed, UNSTABLE | CACHE_SHAPED) \
        == _strip(full, UNSTABLE | CACHE_SHAPED)
    # A resumed session solves at least what the cache would have held.
    assert resumed["stats"]["solver_calls"] >= full["stats"]["solver_calls"]

