"""Golden IR listings of every bundled program source.

``tests/golden_listings.json`` pins the SHA-256 of
``disassemble(compile_program(source))`` for the five Section 2
samples, the AC controller, the six Needham-Schroeder variants (two
intruder models x three fix variants), the nine oSIP modules,
``tests/golden_suite/program.c`` and the ``tests/corpus`` repros.

The front-end identity test compares two paths through the same
lowering, so it cannot see a change to lowering itself; these digests
can.  A refactor of the front end or of constant folding must leave
every listing byte-identical.  Regenerate the file only for a
deliberate change of the IR::

    PYTHONPATH=src python tests/test_golden_listings.py --record
"""

import glob
import hashlib
import json
import os
import sys

import pytest

from repro.minic import compile_program
from repro.minic.disasm import disassemble
from repro.programs import samples
from repro.programs.ac_controller import AC_CONTROLLER_SOURCE
from repro.programs.needham_schroeder import ns_source
from repro.programs.osip import OsipLibrary

HERE = os.path.dirname(__file__)
GOLDEN = os.path.join(HERE, "golden_listings.json")


def _sources():
    """name -> mini-C source, for every bundled program."""
    sources = {"sample:" + name: source
               for name, (source, _, _) in samples.ALL_SAMPLES.items()}
    sources["ac"] = AC_CONTROLLER_SOURCE
    for model in ("possibilistic", "dolev_yao"):
        for fix in ("none", "buggy", "correct"):
            sources["ns:{}:{}".format(model, fix)] = ns_source(model, fix)
    library = OsipLibrary()
    for module in library.module_names:
        sources["osip:" + module] = library.source_for_module(module)
    with open(os.path.join(HERE, "golden_suite", "program.c")) as handle:
        sources["golden_suite"] = handle.read()
    for path in sorted(glob.glob(os.path.join(HERE, "corpus", "*.json"))):
        with open(path) as handle:
            name = os.path.splitext(os.path.basename(path))[0]
            sources["corpus:" + name] = json.load(handle)["source"]
    return sources


SOURCES = _sources()


def listing_digest(source):
    listing = disassemble(compile_program(source))
    return hashlib.sha256(listing.encode("utf-8")).hexdigest()


def _golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_listing_matches_golden(name):
    assert listing_digest(SOURCES[name]) == _golden()[name]


def test_golden_covers_every_source():
    assert sorted(_golden()) == sorted(SOURCES)


def _record():
    golden = {name: listing_digest(source)
              for name, source in SOURCES.items()}
    with open(GOLDEN, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_golden_listings.py --record")
    _record()
