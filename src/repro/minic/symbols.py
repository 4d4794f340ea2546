"""Symbol tables for mini-C semantic analysis."""

import copy
from collections import ChainMap

from repro.minic.errors import SemanticError

# Symbol kinds.
GLOBAL = "global"
LOCAL = "local"
PARAM = "param"
FUNCTION = "function"
ENUM_CONST = "enum_const"
BUILTIN = "builtin"
EXTERNAL_FUNCTION = "external_function"


class Symbol:
    """A named entity: variable, parameter, function or enum constant.

    ``address``/``frame_offset`` are filled in by lowering and the runtime:
    globals get absolute addresses at link time, locals and params get
    frame-relative offsets.
    """

    __slots__ = (
        "name",
        "kind",
        "ctype",
        "value",
        "decl",
        "address",
        "frame_offset",
        "is_extern",
    )

    def __init__(self, name, kind, ctype, value=None, decl=None,
                 is_extern=False):
        self.name = name
        self.kind = kind
        self.ctype = ctype
        self.value = value  # enum constants only
        self.decl = decl
        self.address = None
        self.frame_offset = None
        self.is_extern = is_extern

    def __repr__(self):
        return "Symbol({!r}, {}, {})".format(self.name, self.kind, self.ctype)


class Scope:
    """One lexical scope; chains to its parent for lookups.

    A scope may extend a finished ``base`` scope, as appended declarations
    extend a program's global scope: the base's names are this scope's
    own for lookups and redefinition checks, but the base is never
    written (see :meth:`own`).
    """

    def __init__(self, parent=None, base=None):
        self.parent = parent
        self._entries = {} if base is None else ChainMap({}, base._entries)

    def define(self, symbol, location=None):
        if symbol.name in self._entries:
            raise SemanticError(
                "redefinition of {!r}".format(symbol.name), location
            )
        self._entries[symbol.name] = symbol
        return symbol

    def lookup(self, name):
        scope = self
        while scope is not None:
            symbol = scope._entries.get(name)
            if symbol is not None:
                return symbol
            scope = scope.parent
        return None

    def lookup_local(self, name):
        return self._entries.get(name)

    def own(self, name):
        """The symbol ``name`` binds in this scope (None if none), safe to
        change: a symbol of the base scope is first replaced, in this
        scope only, by a copy."""
        symbol = self._entries.get(name)
        if symbol is not None and isinstance(self._entries, ChainMap) \
                and name not in self._entries.maps[0]:
            symbol = self._entries[name] = copy.copy(symbol)
        return symbol

    def symbols(self):
        return list(self._entries.values())
