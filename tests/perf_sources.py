"""Programs of ``benchmarks/bench_perf.py``, shared with the tests.

Loaded from the benchmark script itself so a test and the benchmark gate
it mirrors always run the same source.
"""

import importlib.util
import os


def _bench_perf():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks",
                        "bench_perf.py")
    spec = importlib.util.spec_from_file_location("bench_perf", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: The subsumption gate's depth-scaled program (toplevel
#: ``subsume_bench``): two nests share one strict UNSAT core.
SUBSUME_SOURCE = _bench_perf().SUBSUME_SOURCE
