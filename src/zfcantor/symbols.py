"""Symbols of the base and extended alphabets.

The base alphabet has the set variables x1, x2, ... and eleven fixed
symbols (membership, equality, the four connectives, negation, the two
quantifiers, and round brackets).  The extended alphabet adds an argument
separator ``;``, the new variables ?x ?y ?z ?a ?b ?c ?y1 ?y2 ..., and
finitely many named predicates.  Every symbol has a unique ASCII token
spelling, so words of symbols and whitespace-separated token strings are
interchangeable.

Symbols are interned: constructing one returns the live symbol with the
same kind, index and name if there is one, so equal symbols are the same
object.  Equality and hashing are therefore the identity ones, done in C
with no Python call per dict lookup or word comparison, and the token is
spelled once, at construction.  Nothing cached is pickled or copied:
``__reduce__`` rebuilds a symbol from its three fields, so a symbol sent
to another process, whatever its hash seed, is interned there again.
"""
from __future__ import annotations

import re
import threading
from enum import Enum
from weakref import WeakValueDictionary

from .records import Record, frozen_error


class SymbolKind(Enum):
    SET_VAR = "set-var"
    NEW_VAR = "new-var"
    MEMBERSHIP = "membership"
    EQUALITY = "equality"
    NEGATION = "negation"
    IMPLICATION = "implication"
    BICONDITIONAL = "biconditional"
    CONJUNCTION = "conjunction"
    DISJUNCTION = "disjunction"
    EXISTS = "exists"
    FORALL = "forall"
    LPAREN = "lparen"
    RPAREN = "rparen"
    SEMICOLON = "semicolon"
    PREDICATE = "predicate"

    # Members are singletons, so the identity hash is valid; it is computed
    # in C, where Enum.__hash__ hashes the member name in Python.
    __hash__ = object.__hash__


_FIXED_TOKENS = {
    SymbolKind.MEMBERSHIP: "in",
    SymbolKind.EQUALITY: "=",
    SymbolKind.NEGATION: "!",
    SymbolKind.IMPLICATION: "->",
    SymbolKind.BICONDITIONAL: "<->",
    SymbolKind.CONJUNCTION: "&",
    SymbolKind.DISJUNCTION: "|",
    SymbolKind.EXISTS: "E",
    SymbolKind.FORALL: "A",
    SymbolKind.LPAREN: "(",
    SymbolKind.RPAREN: ")",
    SymbolKind.SEMICOLON: ";",
}

# New-variable names: six single letters plus the indexed family y1, y2, ...
NEW_VAR_NAME_RE = re.compile(r"^(?:[xyzabc]|y[1-9][0-9]*)$")
# Predicate names are uppercase identifiers; E and A are taken by the quantifiers.
PREDICATE_NAME_RE = re.compile(r"^[A-Z][A-Z0-9_]*$")
RESERVED_PREDICATE_NAMES = frozenset({"E", "A"})


class Symbol:
    """One letter of the extended alphabet.

    ``index`` is meaningful for SET_VAR only, ``name`` for NEW_VAR and
    PREDICATE only; both stay at their defaults otherwise.  Instances
    are immutable and interned (see the module docstring).
    """

    __slots__ = ("kind", "index", "name", "token", "is_variable", "__weakref__")

    def __new__(cls, kind: SymbolKind, index: int = 0, name: str = ""):
        key = (kind, index, name)
        sym = _INTERNED.get(key)
        if sym is not None:
            return sym
        if kind is SymbolKind.SET_VAR:
            if index < 1:
                raise ValueError(f"set variable index must be >= 1, got {index}")
            token = f"x{index}"
        elif kind is SymbolKind.NEW_VAR:
            if not NEW_VAR_NAME_RE.match(name):
                raise ValueError(f"bad new-variable name {name!r}")
            token = f"?{name}"
        elif kind is SymbolKind.PREDICATE:
            if not PREDICATE_NAME_RE.match(name) or name in RESERVED_PREDICATE_NAMES:
                raise ValueError(f"bad predicate name {name!r}")
            token = name
        else:
            token = _FIXED_TOKENS[kind]
        sym = object.__new__(cls)
        init = object.__setattr__
        init(sym, "kind", kind)
        init(sym, "index", index)
        init(sym, "name", name)
        init(sym, "token", token)
        init(sym, "is_variable", kind in _VARIABLE_KINDS)
        with _INTERN_LOCK:  # another thread may have built the same symbol meanwhile
            return _INTERNED.setdefault(key, sym)

    def __setattr__(self, name, value):
        raise frozen_error(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise frozen_error(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Symbol, (self.kind, self.index, self.name)

    def __str__(self) -> str:
        return self.token

    def __repr__(self) -> str:
        return f"Symbol({self.token!r})"


# Live symbols by (kind, index, name); an entry goes when its symbol does.
_INTERNED: WeakValueDictionary[tuple, Symbol] = WeakValueDictionary()
_INTERN_LOCK = threading.Lock()
_VARIABLE_KINDS = (SymbolKind.SET_VAR, SymbolKind.NEW_VAR)


def set_var(index: int) -> Symbol:
    return Symbol(SymbolKind.SET_VAR, index=index)


def new_var(name: str) -> Symbol:
    return Symbol(SymbolKind.NEW_VAR, name=name)


def predicate(name: str) -> Symbol:
    return Symbol(SymbolKind.PREDICATE, name=name)


MEMBERSHIP = Symbol(SymbolKind.MEMBERSHIP)
EQUALITY = Symbol(SymbolKind.EQUALITY)
NEGATION = Symbol(SymbolKind.NEGATION)
IMPLICATION = Symbol(SymbolKind.IMPLICATION)
BICONDITIONAL = Symbol(SymbolKind.BICONDITIONAL)
CONJUNCTION = Symbol(SymbolKind.CONJUNCTION)
DISJUNCTION = Symbol(SymbolKind.DISJUNCTION)
EXISTS = Symbol(SymbolKind.EXISTS)
FORALL = Symbol(SymbolKind.FORALL)
LPAREN = Symbol(SymbolKind.LPAREN)
RPAREN = Symbol(SymbolKind.RPAREN)
SEMICOLON = Symbol(SymbolKind.SEMICOLON)

# Interned, so these are the constants above, in _FIXED_TOKENS order.
FIXED_SYMBOLS = {tok: Symbol(kind) for kind, tok in _FIXED_TOKENS.items()}


class PredicateSignature(Record):
    """A predicate name together with its arity (at least 1)."""

    __slots__ = _fields = ("name", "arity")

    def __init__(self, name: str, arity: int):
        predicate(name)  # validates the name
        if arity < 1:
            raise ValueError(f"arity must be >= 1, got {arity}")
        init = object.__setattr__
        init(self, "name", name)
        init(self, "arity", arity)
