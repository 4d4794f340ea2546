"""Tests for the generated oSIP-like library and the Section 4.3 findings."""

import gc

import pytest

from repro import DartOptions, dart_check
from repro.dart.runner import Dart, collector_paused
from repro.interp import Machine, MachineOptions, SegFault
from repro.interp.memory import MemoryOptions
from repro.minic import compile_program
from repro.programs.osip import OsipLibrary


@pytest.fixture(scope="module")
def library():
    return OsipLibrary()


def sweep_options(**overrides):
    defaults = dict(max_iterations=1000, seed=1, max_steps=200_000,
                    max_init_depth=4)
    defaults.update(overrides)
    return DartOptions(**defaults)


class TestGeneration:
    def test_function_count_matches_paper_scale(self, library):
        assert 550 <= len(library.functions) <= 650

    def test_expected_crash_rate_near_65_percent(self, library):
        assert 0.60 <= library.expected_crash_rate() <= 0.70

    def test_generation_is_deterministic(self):
        a = OsipLibrary(seed=7)
        b = OsipLibrary(seed=7)
        assert a.function_names() == b.function_names()
        assert a.full_source() == b.full_source()

    def test_different_seed_different_library(self):
        assert OsipLibrary(seed=1).full_source() != \
            OsipLibrary(seed=2).full_source()

    def test_every_module_compiles(self, library):
        for module in library.module_names:
            compile_program(library.source_for_module(module))

    def test_full_source_compiles(self, library):
        compile_program(library.full_source())

    def test_function_lookup(self, library):
        name = library.function_names()[0]
        assert library.function(name).name == name
        with pytest.raises(KeyError):
            library.function("osip_missing")

    def test_parser_module_present(self, library):
        names = library.function_names()
        assert "osip_message_parse" in names
        assert "osip_attack_probe" in names


class TestPerFunctionSweep:
    """A sampled version of the paper's 600-function crash sweep."""

    def test_unguarded_getter_crashes_on_null(self, library):
        victim = next(
            f for f in library.functions
            if f.crashable and "getter" in f.name
        )
        result = dart_check(library.source_for_function(victim.name),
                            victim.name, sweep_options())
        assert result.found_error
        assert result.first_error().kind == "segmentation fault"

    def test_guarded_function_does_not_crash(self, library):
        victim = next(
            f for f in library.functions
            if f.guarded and f.takes_pointer and "getter" in f.name
        )
        result = dart_check(library.source_for_function(victim.name),
                            victim.name, sweep_options())
        assert not result.found_error

    def test_scalar_only_function_never_crashes(self, library):
        victim = next(f for f in library.functions if not f.takes_pointer)
        result = dart_check(library.source_for_function(victim.name),
                            victim.name, sweep_options())
        assert not result.found_error

    def test_interprocedural_crash_found(self, library):
        victim = next(
            f for f in library.functions
            if f.crashable and "init" in f.name and "helper" not in f.name
        )
        result = dart_check(library.source_for_function(victim.name),
                            victim.name, sweep_options())
        assert result.found_error

    def test_sampled_crash_rate_in_band(self, library):
        import random

        rng = random.Random(0)
        sample = rng.sample(
            [f for f in library.functions if f.module != "parser"], 24
        )
        crashed = expected = 0
        for fn in sample:
            result = dart_check(library.source_for_function(fn.name),
                                fn.name, sweep_options())
            crashed += bool(result.found_error)
            expected += fn.crashable
        assert crashed == expected


class TestSessionBuildCollector:
    """Building a session's front end runs no cyclic collection; the
    collector's state is restored afterwards."""

    def test_build_starts_at_most_one_collection(self, library):
        name = library.functions[0].name
        source = library.source_for_function(name)
        generations = []

        def record(phase, info):
            if phase == "start":
                generations.append(info["generation"])

        gc.collect()
        gc.callbacks.append(record)
        try:
            Dart(source, name, sweep_options(), "<osip>")
        finally:
            gc.callbacks.remove(record)
        # The one allowed is the young collection the first allocation
        # after the paused block starts; an unpaused build starts ~16.
        assert len(generations) <= 1
        assert 2 not in generations
        assert gc.isenabled()

    def test_pause_restores_an_enabled_collector_on_error(self):
        assert gc.isenabled()
        with pytest.raises(ValueError):
            with collector_paused():
                assert not gc.isenabled()
                raise ValueError
        assert gc.isenabled()

    def test_nested_pause_leaves_the_collector_paused(self):
        with collector_paused():
            with collector_paused():
                pass
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_build_under_a_disabled_collector_keeps_it_disabled(self):
        gc.disable()
        try:
            Dart("int f(int x) { return x; }", "f", DartOptions())
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestAllocaSecurityBug:
    """The remotely-triggerable parser crash of Section 4.3."""

    def _probe(self, size, stack_limit):
        library = OsipLibrary()
        module = compile_program(library.source_for_module("parser"))
        machine = Machine(
            module,
            MachineOptions(
                max_steps=10_000_000,
                memory=MemoryOptions(stack_limit=stack_limit),
            ),
        )
        return machine.run("osip_attack_probe", (size,))

    def test_small_message_parses_fine(self):
        assert self._probe(1024, stack_limit=1 << 16) == 0

    def test_oversized_message_crashes_parser(self):
        # A message larger than the remaining stack: alloca returns NULL,
        # the unchecked copy faults — the paper's attack.
        with pytest.raises(SegFault, match="NULL"):
            self._probe(1 << 17, stack_limit=1 << 16)

    def test_checked_sibling_survives_oversized_message(self):
        library = OsipLibrary()
        module = compile_program(library.source_for_module("parser"))
        machine = Machine(
            module,
            MachineOptions(
                max_steps=10_000_000,
                memory=MemoryOptions(stack_limit=1 << 16),
            ),
        )
        msg = machine.memory.malloc(64)
        sip = machine.memory.malloc(32)
        assert machine.run(
            "osip_message_parse_checked", (sip, msg, 1 << 20)
        ) == -3  # graceful failure instead of a crash

    def test_dart_finds_the_alloca_crash_automatically(self):
        # Random 32-bit lengths readily exceed any realistic stack, so the
        # per-function sweep finds the parser crash, as the paper reports.
        library = OsipLibrary()
        options = sweep_options(stack_limit=1 << 16)
        result = dart_check(library.source_for_module("parser"),
                            "osip_attack_probe", options)
        assert result.found_error
        assert result.first_error().kind == "segmentation fault"
