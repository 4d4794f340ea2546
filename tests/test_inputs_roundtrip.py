"""Round-trip tests for input vectors across the persistence layer.

A checkpoint-resumed session must drive the machine with *byte-identical*
inputs to the session that wrote the checkpoint — every slot's kind tag
and value must survive the JSON encode/decode, for every input kind the
intrinsics can acquire (including ``ptr_choice``, whose 0/1 values decide
pointer-shape branches and so change the whole execution if perturbed).
"""

import random

from repro.dart.inputs import _DOMAINS, InputVector, random_value
from repro.dart.pathcond import DONE
from repro.dart.persist import (
    SessionCheckpoint,
    decode_input_vector,
    encode_input_vector,
    load_checkpoint,
    save_checkpoint,
)
from repro.dart.runner import Dart, dart_check

FINGERPRINT = {"source": "roundtrip", "toplevel": "f", "options": "-",
               "encoding": 0}


def checkpoint_roundtrip(path, stack, im):
    """Write (stack, im) as the one worklist item of a v4 checkpoint (the
    shape of a dfs session's), read it back, and return the decoded
    (stack, im)."""
    save_checkpoint(path, SessionCheckpoint(
        fingerprint=FINGERPRINT,
        rng_state=random.Random(0).getstate(), flags=(True,) * 4,
        counters={}, distinct_paths=[], covered_branches=[], errors=[],
        quarantined=[], worklist=[(stack, im, 0)],
    ))
    (item_stack, item_im, _bound), = load_checkpoint(
        path, FINGERPRINT).worklist
    return item_stack, item_im


def boundary_values(kind):
    lo, hi = _DOMAINS[kind]
    return sorted({lo, lo + 1, 0, 1, hi - 1, hi})


class TestEncodeDecode:
    def test_every_kind_round_trips_boundary_values(self):
        for kind in sorted(_DOMAINS):
            im = InputVector()
            values = boundary_values(kind)
            for ordinal, value in enumerate(values):
                im.record(ordinal, kind, value)
            decoded = decode_input_vector(encode_input_vector(im))
            assert [slot.kind for slot in decoded] == [kind] * len(values)
            assert decoded.values() == values

    def test_mixed_kind_vector_round_trips(self):
        rng = random.Random(0)
        im = InputVector()
        kinds = sorted(_DOMAINS) * 3
        for ordinal, kind in enumerate(kinds):
            im.record(ordinal, kind, random_value(kind, rng))
        decoded = decode_input_vector(encode_input_vector(im))
        assert [slot.kind for slot in decoded] == kinds
        assert decoded.values() == im.values()
        assert decoded.domains() == im.domains()

    def test_decoded_vector_preserves_slot_compatibility(self):
        im = InputVector()
        im.record(0, "ptr_choice", 1)
        im.record(1, "int", -(1 << 31))
        decoded = decode_input_vector(encode_input_vector(im))
        assert decoded.value_or_none(0, "ptr_choice") == 1
        assert decoded.value_or_none(0, "int") is None
        assert decoded.value_or_none(1, "int") == -(1 << 31)


class TestStateFileRoundTrip:
    def test_save_load_state_is_identity_on_inputs(self, tmp_path):
        path = str(tmp_path / "state.json")
        rng = random.Random(7)
        im = InputVector()
        kinds = sorted(_DOMAINS)
        for ordinal, kind in enumerate(kinds):
            im.record(ordinal, kind, random_value(kind, rng))
        stack = bytearray([1, 0 | DONE])
        loaded_stack, loaded_im = checkpoint_roundtrip(path, stack, im)
        assert [slot.kind for slot in loaded_im] == kinds
        assert loaded_im.values() == im.values()
        assert [(e & 1, bool(e & DONE)) for e in loaded_stack] == \
            [(1, False), (0, True)]

    def test_double_round_trip_is_stable(self, tmp_path):
        path = str(tmp_path / "state.json")
        im = InputVector()
        for ordinal, kind in enumerate(sorted(_DOMAINS)):
            lo, hi = _DOMAINS[kind]
            im.record(ordinal, kind, hi)
        _, once = checkpoint_roundtrip(path, bytearray([0]), im)
        _, twice = checkpoint_roundtrip(
            path, bytearray([0]), once)
        assert encode_input_vector(once) == encode_input_vector(twice) \
            == encode_input_vector(im)


POINTER_PROGRAM = """
int f(int *p, int x) {
    if (x == 7) {
        return *p;
    }
    return 0;
}
"""


class TestReplayReproduction:
    """An ErrorReport's (inputs, kinds) must re-trigger the same fault."""

    def test_pointer_fault_replays_from_report(self):
        result = dart_check(POINTER_PROGRAM, "f", seed=3, max_iterations=40)
        assert result.found_error
        report = result.errors[0]
        assert "ptr_choice" in report.kinds
        dart = Dart(POINTER_PROGRAM, "f")
        fault = dart.replay(report)
        assert fault is not None
        assert fault.kind == report.fault.kind

    def test_replay_accepts_persisted_inputs(self, tmp_path):
        result = dart_check(POINTER_PROGRAM, "f", seed=3, max_iterations=40)
        report = result.errors[0]
        # Round-trip the report's inputs through a checkpoint, as a
        # resumed session would, then replay from the decoded vector.
        im = InputVector()
        for ordinal, (kind, value) in enumerate(
                zip(report.kinds, report.inputs)):
            im.record(ordinal, kind, value)
        path = str(tmp_path / "state.json")
        _, loaded = checkpoint_roundtrip(
            path, bytearray([0]), im)
        assert loaded.values() == report.inputs
        dart = Dart(POINTER_PROGRAM, "f")
        fault = dart.replay(loaded.values(),
                            kinds=[slot.kind for slot in loaded])
        assert fault is not None
        assert fault.kind == report.fault.kind
