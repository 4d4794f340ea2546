"""Layer tracing from outside the program: wrap each layer's callables.

The traced run records one span per call into a layer, at the names the
callers bind (``repro.dart.driver.compile_program``, not the definition
in ``repro.minic``), so a wrapper sees exactly the calls the session
makes.  Spans are kept in memory as ``[name, start, end, parent]`` and
written out when the run ends.  Nothing in the program changes: every
wrapper is installed by :meth:`Tracer.installed` and the original
attribute is put back when the ``with`` block exits, before any
untraced run.

A layer's *self* time is its span's duration minus the part its direct
child spans cover, so ``machine.run`` excludes lazy IR lowering
(``compile.lower``) and ``solve.plan`` excludes cache and solver calls.
"""

import contextlib
import importlib
import json
import os
import time

#: (module, attribute path, span name).  A dotted attribute path names a
#: method on a class of that module.  Several callers binding the same
#: function share one span name.
TARGETS = (
    ("repro.dart.runner", "Dart.__init__", "setup"),
    ("repro.dart.runner", "Dart.run", "runner"),
    ("repro.dart.runner", "build_test_program", "driver.build_test_program"),
    ("repro.dart.runner", "coupling_classes",
     "independence.coupling_classes"),
    ("repro.dart.driver", "compile_program", "minic.compile_program"),
    ("repro.dart.driver", "extract_interface", "interface.extract_interface"),
    ("repro.dart.independence", "extract_interface",
     "interface.extract_interface"),
    ("repro.minic", "parse_program", "minic.parse_program"),
    ("repro.dart.interface", "parse_program", "minic.parse_program"),
    ("repro.dart.independence", "parse_program", "minic.parse_program"),
    ("repro.interp.compile", "CompiledProgram._compile", "compile.lower"),
    ("repro.interp.machine", "Machine.__init__", "machine.setup"),
    ("repro.interp.machine", "Machine.run", "machine.run"),
    ("repro.dart.runner", "solve_path_constraint", "solve.plan"),
    ("repro.dart.runner", "expand_worklist_children", "solve.plan"),
    ("repro.solver.cache", "SolverResultCache.lookup", "cache.lookup"),
    ("repro.solver.cache", "SolverResultCache.store", "cache.store"),
    ("repro.solver.cache", "SolverResultCache.store_core",
     "cache.store_core"),
    ("repro.solver.core", "Solver.solve", "solver.solve"),
    ("repro.dart.persist", "save_checkpoint", "persist.save"),
    ("repro.dart.parallel", "run_parallel_generational", "pool"),
    ("repro.solver.shared", "CacheServer.stop", "pool.server_stop"),
)

#: The session root whose self time is the search loop's own bookkeeping
#: (hooks, statistics, worklist admission): the part of a verdict no
#: deeper layer accounts for.
ROOT = "runner"


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _original(owner, attr):
    # A class attribute is read from the class dict so the plain function
    # (not a bound or inherited lookup) is what gets restored.
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


class Tracer:
    """Span recorder plus the counters observed at the same boundaries."""

    def __init__(self):
        self.spans = []
        self.counters = {
            "parse_bytes": 0, "coupling_calls": 0, "coupling_latched": 0,
            "persist_bytes_max": 0, "persist_bytes_total": 0,
            "shared_store_size": 0,
        }
        self._stack = []
        self._installed = []

    # -- recording ------------------------------------------------------------

    def _wrapper(self, name, function, observe):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = function(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = function
        return traced

    def _observers(self):
        counters = self.counters

        def parse(args, kwargs, result):
            source = args[0] if args else kwargs["source"]
            counters["parse_bytes"] += len(source)

        def coupling(args, kwargs, result):
            counters["coupling_calls"] += 1
            if result is None:
                counters["coupling_latched"] += 1

        def saved(args, kwargs, result):
            path = args[0] if args else kwargs["path"]
            size = os.path.getsize(path)
            counters["persist_bytes_total"] += size
            counters["persist_bytes_max"] = max(
                counters["persist_bytes_max"], size)

        return {
            "minic.parse_program": parse,
            "independence.coupling_classes": coupling,
            "persist.save": saved,
        }

    def _server_stop(self, function):
        counters = self.counters

        def stop(server):
            counters["shared_store_size"] += len(server)
            return function(server)

        return stop

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the block's duration, then restore."""
        observers = self._observers()
        try:
            for module_name, path, name in TARGETS:
                owner, attr = _resolve(module_name, path)
                original = _original(owner, attr)
                function = self._server_stop(original) \
                    if name == "pool.server_stop" else original
                self._installed.append((owner, attr, original))
                setattr(owner, attr,
                        self._wrapper(name, function, observers.get(name)))
            yield self
        finally:
            self.restore()

    def restore(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------

    def self_times(self):
        """``{name: (calls, self seconds)}`` over every recorded span."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {}
        for index, (name, start, end, parent) in enumerate(spans):
            calls, seconds = totals.get(name, (0, 0.0))
            totals[name] = (calls + 1, seconds + (end - start) - child[index])
        return totals

    def durations(self, name):
        """Inclusive durations of every span called ``name``."""
        return [end - start for span_name, start, end, _ in self.spans
                if span_name == name]

    def write(self, path):
        """Dump the spans as JSON lines: name, start, end, parent index."""
        with open(path, "w") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps(
                    [name, round(start, 7), round(end, 7), parent]) + "\n")


def span_cost(calls=20_000, repeats=5):
    """Seconds one wrapper adds to a call: a wrapped two-argument no-op
    against the bare one, each the best of ``repeats`` timings of
    ``calls`` calls."""

    def noop(first, second):
        return None

    wrapped = Tracer()._wrapper("cost", noop, None)

    def best(function):
        timings = []
        for _ in range(repeats):
            started = time.perf_counter()
            for _ in range(calls):
                function(None, None)
            timings.append(time.perf_counter() - started)
        return min(timings)

    return max(0.0, (best(wrapped) - best(noop)) / calls)


def pristine():
    """True when no target is currently wrapped (untraced runs check it)."""
    for module_name, path, _ in TARGETS:
        owner, attr = _resolve(module_name, path)
        if hasattr(_original(owner, attr), "__wrapped__"):
            return False
    return True
