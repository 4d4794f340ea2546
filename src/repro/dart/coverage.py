"""Branch coverage accounting, including per-function C1 rollups.

The paper's core motivation is coverage: "it is well-known that random
testing usually provides low code coverage ... the then branch of
``if (x == 10)`` has one chance out of 2^32 to be exercised", whereas the
directed search gives each branch direction "probability 0.5".  This
module measures exactly that: which *directions* of which conditional
statements were exercised over a testing session.

Two granularities are reported:

* **direction coverage** — covered (function, pc, taken) triples over
  all branch directions (2 per conditional), the historical metric;
* **C1 branch coverage** — a conditional counts as covered only when
  *both* of its arms were taken (the "both-arms" criterion CTGEN-style
  unit-test generators target), bookkept per branch, rolled up per
  function and per program.  ``python -m repro coverage-report`` renders
  this table for an exported suite (see :mod:`repro.suite`).

Driver-generated code (``__dart_*`` functions) is excluded so the numbers
describe the program under test, and only the branches that are feasible
matter for the 100 %-coverage claim — an infeasible direction (like the
``z == x + 10`` branch of §2.4) can never be covered, so the report also
distinguishes "all feasible" from "all" coverage via the session status.
"""

from repro.minic import ir


def _is_program_function(name):
    return not name.startswith("__dart_")


def is_program_branch(entry):
    """True when a covered (function, pc, taken) triple is program code."""
    return _is_program_function(entry[0])


def branch_sites(module):
    """Per program function, the pcs of its Branch instructions."""
    sites = {}
    for name, function in module.functions.items():
        if not _is_program_function(name):
            continue
        sites[name] = [
            pc for pc, instr in enumerate(function.instrs)
            if isinstance(instr, ir.Branch)
        ]
    return sites


def count_branch_directions(module):
    """Total branch directions (2 per conditional) in program functions."""
    return 2 * sum(len(pcs) for pcs in branch_sites(module).values())


class FunctionCoverage:
    """C1 bookkeeping for one program function."""

    __slots__ = ("name", "branches", "branches_both_arms",
                 "directions_covered")

    def __init__(self, name, branches, branches_both_arms,
                 directions_covered):
        #: Function name in the program under test.
        self.name = name
        #: Conditionals (Branch instructions) in the function.
        self.branches = branches
        #: Conditionals with *both* arms exercised (the C1 criterion).
        self.branches_both_arms = branches_both_arms
        #: Exercised (pc, taken) directions, out of ``2 * branches``.
        self.directions_covered = directions_covered

    @property
    def directions(self):
        return 2 * self.branches

    @property
    def c1_percent(self):
        if self.branches == 0:
            return 100.0
        return 100.0 * self.branches_both_arms / self.branches

    @property
    def direction_percent(self):
        if self.branches == 0:
            return 100.0
        return 100.0 * self.directions_covered / self.directions

    def to_dict(self):
        return {
            "function": self.name,
            "branches": self.branches,
            "branches_both_arms": self.branches_both_arms,
            "directions": self.directions,
            "directions_covered": self.directions_covered,
            "c1_percent": round(self.c1_percent, 2),
            "direction_percent": round(self.direction_percent, 2),
        }

    def __repr__(self):
        return "FunctionCoverage({}: {}/{} both-arms)".format(
            self.name, self.branches_both_arms, self.branches)


class BranchCoverage:
    """Coverage of one session: covered directions / total directions,
    plus the per-function C1 (both-arms) rollup."""

    def __init__(self, module, covered):
        self.covered = {
            entry for entry in covered if _is_program_function(entry[0])
        }
        self._sites = branch_sites(module)
        self.total_directions = 2 * sum(
            len(pcs) for pcs in self._sites.values())

    @property
    def covered_directions(self):
        return len(self.covered)

    @property
    def percent(self):
        if self.total_directions == 0:
            return 100.0
        return 100.0 * self.covered_directions / self.total_directions

    # -- C1 (both-arms) accounting ---------------------------------------

    def functions(self):
        """Per-function C1 rollups, sorted by function name."""
        rows = []
        for name in sorted(self._sites):
            pcs = self._sites[name]
            both = sum(
                1 for pc in pcs
                if (name, pc, True) in self.covered
                and (name, pc, False) in self.covered
            )
            covered = sum(
                1 for pc in pcs for taken in (True, False)
                if (name, pc, taken) in self.covered
            )
            rows.append(FunctionCoverage(name, len(pcs), both, covered))
        return rows

    @property
    def total_branches(self):
        return sum(len(pcs) for pcs in self._sites.values())

    @property
    def branches_both_arms(self):
        return sum(row.branches_both_arms for row in self.functions())

    @property
    def c1_percent(self):
        total = self.total_branches
        if total == 0:
            return 100.0
        return 100.0 * self.branches_both_arms / total

    def uncovered(self, module):
        """The (function, pc, direction) triples never exercised."""
        missing = []
        for name, function in sorted(module.functions.items()):
            if not _is_program_function(name):
                continue
            for pc, instr in enumerate(function.instrs):
                if not isinstance(instr, ir.Branch):
                    continue
                for taken in (True, False):
                    if (name, pc, taken) not in self.covered:
                        missing.append((name, pc, taken, instr.location))
        return missing

    def totals(self):
        """The JSON-ready session totals, without the per-function rows
        (the ``session_finished`` trace event's coverage block)."""
        return {
            "covered_directions": self.covered_directions,
            "total_directions": self.total_directions,
            "percent": round(self.percent, 2),
            "total_branches": self.total_branches,
            "branches_both_arms": self.branches_both_arms,
            "c1_percent": round(self.c1_percent, 2),
        }

    def to_dict(self):
        """JSON-ready coverage block (reports, manifests): the
        :meth:`totals` plus the per-function rows."""
        block = self.totals()
        block["functions"] = [row.to_dict() for row in self.functions()]
        return block

    def describe(self):
        return ("{}/{} branch directions ({:.1f}%), "
                "C1 {}/{} branches both-arms ({:.1f}%)").format(
                    self.covered_directions, self.total_directions,
                    self.percent, self.branches_both_arms,
                    self.total_branches, self.c1_percent)

    def __repr__(self):
        return "BranchCoverage({})".format(self.describe())


def render_c1_table(coverage):
    """Human-readable per-function C1 table (``coverage-report``)."""
    lines = ["C1 branch coverage: {}".format(coverage.describe())]
    rows = coverage.functions()
    if not rows:
        lines.append("  (no conditionals in program functions)")
        return "\n".join(lines)
    width = max(len("function"), max(len(row.name) for row in rows))
    lines.append("  {:<{w}}  branches  both-arms  directions      C1%"
                 .format("function", w=width))
    for row in rows:
        lines.append(
            "  {:<{w}}  {:>8}  {:>9}  {:>7}  {:>6.1f}%".format(
                row.name, row.branches, row.branches_both_arms,
                "{}/{}".format(row.directions_covered, row.directions),
                row.c1_percent, w=width))
    return "\n".join(lines)
