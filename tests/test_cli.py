"""Tests for the command-line interface."""

import json
import os
import re

import pytest

from repro.cli import main
from repro.obs import LAYERS
from repro.programs.ac_controller import (
    AC_CONTROLLER_SOURCE,
    AC_CONTROLLER_TOPLEVEL,
)
from tests.perf_sources import SUBSUME_SOURCE


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text("""
int f(int x, int y) {
  if (x != y)
    if (2 * x == x + 10)
      abort();
  return 0;
}
""")
    return str(path)


class TestCli:
    def test_bug_found_exit_code(self, program_file, capsys):
        code = main([program_file, "f", "--max-iterations", "100"])
        assert code == 1
        out = capsys.readouterr().out
        assert "Bug found" in out
        assert "coverage:" in out
        assert "solver calls" in out

    def test_clean_program_exit_code(self, tmp_path, capsys):
        path = tmp_path / "clean.c"
        path.write_text("int f(int x) { if (x > 0) return 1; return 0; }")
        code = main([str(path), "f"])
        assert code == 0
        assert "all" in capsys.readouterr().out

    def test_random_baseline_flag(self, program_file, capsys):
        code = main([program_file, "f", "--random",
                     "--max-iterations", "50"])
        assert code == 0  # random testing cannot find this one
        assert "0 error(s)" in capsys.readouterr().out

    def test_quiet_mode(self, program_file, capsys):
        main([program_file, "f", "--quiet", "--max-iterations", "50"])
        out = capsys.readouterr().out
        assert "coverage" not in out
        assert len(out.strip().splitlines()) == 1

    def test_disasm_mode(self, program_file, capsys):
        code = main([program_file, "--disasm"])
        assert code == 0
        out = capsys.readouterr().out
        assert "branch" in out and "abort" in out

    def test_missing_file(self, capsys):
        code = main(["/no/such/file.c", "f"])
        assert code == 2

    def test_compile_error_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.c"
        path.write_text("int f( { return 0; }")
        code = main([str(path), "f"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("char", ["@", "\u00b2"])
    def test_unexpected_character_is_a_located_diagnostic(
            self, tmp_path, capsys, char):
        # A superscript digit passes str.isdigit() but not int(): it must
        # be reported like any other stray character, not crash the lexer.
        path = tmp_path / "f.c"
        path.write_text("int f(int x){return x + %s;}" % char,
                        encoding="utf-8")
        code = main([str(path), "f"])
        assert code == 2
        assert "error: {}:1:25: unexpected character {!r}".format(
            path, char) in capsys.readouterr().err

    def test_missing_toplevel_function(self, program_file, capsys):
        code = main([program_file, "nonexistent"])
        assert code == 2

    def test_toplevel_required_without_disasm(self, program_file, capsys):
        code = main([program_file])
        assert code == 2

    def test_all_errors_flag(self, tmp_path, capsys):
        path = tmp_path / "multi.c"
        path.write_text("""
        int f(int x) {
          if (x == 1) abort();
          if (x == 2) { int z; z = 0; return 3 / z; }
          return 0;
        }
        """)
        code = main([str(path), "f", "--all-errors",
                     "--max-iterations", "200"])
        assert code == 1
        out = capsys.readouterr().out
        assert "abort" in out and "division by zero" in out

    def test_json_output(self, program_file, capsys):
        code = main([program_file, "f", "--json",
                     "--max-iterations", "100"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "bug_found"
        assert payload["errors"][0]["kind"] == "abort"
        assert payload["errors"][0]["inputs"]
        assert payload["errors"][0]["kinds"]
        assert payload["quarantined"] == []
        assert payload["stats"]["iterations"] >= 1
        assert payload["coverage"]["total_directions"] == 4
        assert payload["flags"]["forcing_ok"] is True
        assert payload["resumed"] is False

    def test_json_clean_program(self, tmp_path, capsys):
        path = tmp_path / "clean.c"
        path.write_text("int f(int x) { if (x > 0) return 1; return 0; }")
        code = main([str(path), "f", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "complete"
        assert payload["errors"] == []

    def test_state_file_resume(self, tmp_path, capsys):
        path = tmp_path / "ac.c"
        path.write_text("""
        int hot = 0; int closed = 0; int ac = 0;
        void ctl(int m) {
          if (m == 0) hot = 1;
          if (m == 3) { closed = 1; if (hot) ac = 1; }
          if (hot && closed && !ac) abort();
        }
        """)
        state = str(tmp_path / "state.json")
        first = main([str(path), "ctl", "--max-iterations", "2",
                      "--state-file", state])
        assert first == 0
        assert os.path.exists(state)
        assert "exhausted" in capsys.readouterr().out.lower()
        second = main([str(path), "ctl", "--max-iterations", "100",
                       "--state-file", state, "--json"])
        assert second == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["resumed"] is True
        assert payload["status"] == "complete"
        assert not os.path.exists(state)  # cleared on clean termination

    def test_state_file_in_missing_directory_fails_fast(
        self, program_file, capsys
    ):
        code = main([program_file, "f",
                     "--state-file", "/no/such/dir/state.json"])
        assert code == 2
        assert "--state-file directory" in capsys.readouterr().err

    def test_run_time_limit_flag(self, tmp_path, capsys):
        path = tmp_path / "slow.c"
        path.write_text("""
        int f(int x) {
          int i;
          i = 0;
          if (x == 5) { while (i < 50000000) i = i + 1; }
          return i;
        }
        """)
        code = main([str(path), "f", "--run-time-limit", "0.1",
                     "--max-iterations", "5", "--strategy", "bfs"])
        assert code == 0
        out = capsys.readouterr().out
        assert "quarantined" in out and "run-timeout" in out

    def test_depth_option(self, tmp_path, capsys):
        path = tmp_path / "ac.c"
        path.write_text("""
        int hot = 0; int closed = 0; int ac = 0;
        void ctl(int m) {
          if (m == 0) hot = 1;
          if (m == 3) { closed = 1; if (hot) ac = 1; }
          if (hot && closed && !ac) abort();
        }
        """)
        assert main([str(path), "ctl", "--depth", "1",
                     "--max-iterations", "100"]) == 0
        assert main([str(path), "ctl", "--depth", "2",
                     "--max-iterations", "500"]) == 1

    def test_cache_line_parts_add_up_to_the_hit_rate(self, tmp_path, capsys):
        path = tmp_path / "subsume.c"
        path.write_text(SUBSUME_SOURCE)
        assert main([str(path), "subsume_bench", "--depth", "2",
                     "--strategy", "bfs", "--max-iterations", "400",
                     "--all-errors"]) == 1
        match = re.search(
            r"cache: (\d+) hit / (\d+) core / (\d+) unsat-shortcut / "
            r"(\d+) miss \(hit rate ([0-9.]+)\)", capsys.readouterr().out)
        hit, core, shortcut, miss = map(int, match.groups()[:4])
        assert core == 9  # flips refuted by a recorded UNSAT core
        answered = hit + core + shortcut
        assert float(match.group(5)) == \
            round(answered / (answered + miss), 4)

    def test_profile_phases_prints_the_layer_table(self, tmp_path, capsys):
        path = tmp_path / "ac.c"
        path.write_text(AC_CONTROLLER_SOURCE)
        argv = [str(path), AC_CONTROLLER_TOPLEVEL, "--depth", "2",
                "--seed", "7"]
        assert main(argv) == 1
        plain = capsys.readouterr().out
        assert "phase breakdown" not in plain
        assert main(argv + ["--profile-phases"]) == 1
        lines = capsys.readouterr().out.splitlines()
        header = next(i for i, line in enumerate(lines)
                      if line.startswith("phase breakdown (layer clock"))
        assert lines[header - 1].startswith("instructions: ")
        rows = [line.split()[0] for line in lines[header + 1:]]
        assert rows == list(LAYERS) + ["other"]
