"""Automated interface extraction (Section 3.1).

The external interface of a program is:

* the arguments of the user-specified *toplevel* function,
* the program's *external variables* (``extern`` declarations with no
  defining declaration), and
* its *external functions* (prototypes with no definition).

All three are discovered by the front end's lightweight static pass
(:mod:`repro.minic.semantic`); this module packages them for the driver
generator.
"""

from repro.minic import SourceUnit
from repro.minic.errors import SemanticError
# parse_program is not called here: the analysis comes from a SourceUnit.
# The name stays bound because perfbench/tracer.py wraps it at this
# module, and every name the tracer wraps must resolve.
from repro.minic.parser import parse_program  # noqa: F401


class ToplevelInterface:
    """The full external interface for one choice of toplevel function."""

    def __init__(self, toplevel, param_types, external_functions,
                 external_variables):
        #: Name of the function the driver will call ``depth`` times.
        self.toplevel = toplevel
        #: Decayed C types of the toplevel function's parameters.
        self.param_types = list(param_types)
        #: name -> FunctionType of environment-controlled functions.
        self.external_functions = dict(external_functions)
        #: name -> CType of environment-controlled variables.
        self.external_variables = dict(external_variables)

    def __repr__(self):
        return (
            "ToplevelInterface({!r}, {} param(s), {} external function(s), "
            "{} external variable(s))"
        ).format(
            self.toplevel,
            len(self.param_types),
            len(self.external_functions),
            len(self.external_variables),
        )


def extract_interface(source, toplevel, filename="<program>"):
    """Parse ``source`` and extract the interface for ``toplevel``.

    ``source`` is program text or a :class:`repro.minic.SourceUnit`, whose
    one analysis is then reused.  Returns (:class:`ToplevelInterface`,
    ProgramInfo).  Raises :class:`SemanticError` if the toplevel function
    is not defined by the program.
    """
    _, info = SourceUnit.of(source, filename).analysis()
    func = info.functions.get(toplevel)
    if func is None:
        raise SemanticError(
            "toplevel function {!r} is not defined by the program"
            .format(toplevel)
        )
    interface = ToplevelInterface(
        toplevel,
        func.ftype.param_types,
        info.interface.external_functions,
        info.interface.external_variables,
    )
    return interface, info

