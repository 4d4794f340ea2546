"""Golden results of the random-testing baseline.

``tests/golden_random_baseline.json`` pins what ``random_check`` returns
on the Section 2 samples, the AC controller at depth 2 and the
Needham-Schroeder possibilistic model at depth 2, for seeds 0, 3 and 7
with ``stop_on_first_error`` on and off, at 300 runs each.  For every
configuration it records the status, the errors as (kind, location,
inputs, iteration), the run count, the covered-branch set, the
completeness flags, the quarantine classifications and the instruction
and branch counts.

The baseline is defined by its input draws: each run takes a fresh
vector from the session RNG, in input-ordinal order.  Any change to how
the baseline is built or driven must leave every one of these fields as
it is.  Regenerate the file only for a deliberate change of the
baseline's behaviour::

    PYTHONPATH=src python tests/test_random_baseline_golden.py --record
"""

import json
import os
import sys

import pytest

from repro import random_check
from repro.programs import samples
from repro.programs.ac_controller import (
    AC_CONTROLLER_SOURCE,
    AC_CONTROLLER_TOPLEVEL,
)
from repro.programs.needham_schroeder import ns_source

GOLDEN = os.path.join(os.path.dirname(__file__),
                      "golden_random_baseline.json")

RUNS = 300
SEEDS = (0, 3, 7)

#: name -> (source, toplevel, depth)
PROGRAMS = dict(
    {name: (source, toplevel, 1)
     for name, (source, toplevel, _) in samples.ALL_SAMPLES.items()},
    ac_depth2=(AC_CONTROLLER_SOURCE, AC_CONTROLLER_TOPLEVEL, 2),
    ns_possibilistic_depth2=(ns_source("possibilistic"), "ns_step", 2),
)

CONFIGS = [
    (name, seed, stop)
    for name in PROGRAMS for seed in SEEDS for stop in (True, False)
]


def _config_id(name, seed, stop):
    return "{}/seed{}/{}".format(name, seed, "stop" if stop else "all")


def summarise(result):
    """The pinned fields of one baseline result, as JSON-ready data."""
    return {
        "status": result.status,
        "errors": [
            [error.kind, str(error.location), list(error.inputs),
             error.iteration]
            for error in result.errors
        ],
        "iterations": result.iterations,
        "covered_branches": sorted(
            list(entry) for entry in result.stats.covered_branches),
        "flags": list(result.flags),
        "quarantine": [record.classification
                       for record in result.quarantined],
        "instructions_executed": result.stats.instructions_executed,
        "branches_executed": result.stats.branches_executed,
    }


def run_config(name, seed, stop):
    source, toplevel, depth = PROGRAMS[name]
    result = random_check(source, toplevel, depth=depth, seed=seed,
                          max_iterations=RUNS, stop_on_first_error=stop)
    return summarise(result)


def _golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


@pytest.mark.parametrize(
    "name,seed,stop", CONFIGS,
    ids=[_config_id(*config) for config in CONFIGS])
def test_baseline_matches_golden(name, seed, stop):
    assert run_config(name, seed, stop) == \
        _golden()[_config_id(name, seed, stop)]


def test_golden_covers_every_config():
    assert sorted(_golden()) == sorted(_config_id(*c) for c in CONFIGS)


def _record():
    golden = {_config_id(*config): run_config(*config)
              for config in CONFIGS}
    # One configuration per line.
    with open(GOLDEN, "w") as handle:
        handle.write("{\n" + ",\n".join(
            "{}: {}".format(json.dumps(key), json.dumps(golden[key],
                                                         sort_keys=True))
            for key in sorted(golden)) + "\n}\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_random_baseline_golden.py --record")
    _record()
