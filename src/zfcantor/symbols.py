"""Symbols of the base and extended alphabets.

The base alphabet has the set variables x1, x2, ... and eleven fixed
symbols (membership, equality, the four connectives, negation, the two
quantifiers, and round brackets).  The extended alphabet adds a argument
separator ``;``, the new variables ?x ?y ?z ?a ?b ?c ?y1 ?y2 ..., and
finitely many named predicates.  Every symbol has a unique ASCII token
spelling, so words of symbols and whitespace-separated token strings are
interchangeable.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache


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


@dataclass(frozen=True)
class Symbol:
    """One letter of the extended alphabet.

    ``index`` is meaningful for SET_VAR only, ``name`` for NEW_VAR and
    PREDICATE only; both stay at their defaults otherwise.
    """

    kind: SymbolKind
    index: int = 0
    name: str = ""

    def __post_init__(self):
        if self.kind is SymbolKind.SET_VAR:
            if self.index < 1:
                raise ValueError(f"set variable index must be >= 1, got {self.index}")
        elif self.kind is SymbolKind.NEW_VAR:
            if not NEW_VAR_NAME_RE.match(self.name):
                raise ValueError(f"bad new-variable name {self.name!r}")
        elif self.kind is SymbolKind.PREDICATE:
            if not PREDICATE_NAME_RE.match(self.name) or self.name in RESERVED_PREDICATE_NAMES:
                raise ValueError(f"bad predicate name {self.name!r}")

    @property
    def token(self) -> str:
        if self.kind is SymbolKind.SET_VAR:
            return f"x{self.index}"
        if self.kind is SymbolKind.NEW_VAR:
            return f"?{self.name}"
        if self.kind is SymbolKind.PREDICATE:
            return self.name
        return _FIXED_TOKENS[self.kind]

    @property
    def is_variable(self) -> bool:
        return self.kind in (SymbolKind.SET_VAR, SymbolKind.NEW_VAR)

    def __str__(self) -> str:
        return self.token

    def __repr__(self) -> str:
        return f"Symbol({self.token!r})"


@lru_cache(maxsize=None)
def set_var(index: int) -> Symbol:
    return Symbol(SymbolKind.SET_VAR, index=index)


@lru_cache(maxsize=None)
def new_var(name: str) -> Symbol:
    return Symbol(SymbolKind.NEW_VAR, name=name)


@lru_cache(maxsize=None)
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

FIXED_SYMBOLS = {
    sym.token: sym
    for sym in (MEMBERSHIP, EQUALITY, NEGATION, IMPLICATION, BICONDITIONAL, CONJUNCTION,
                DISJUNCTION, EXISTS, FORALL, LPAREN, RPAREN, SEMICOLON)
}


@dataclass(frozen=True)
class PredicateSignature:
    """A predicate name together with its arity (at least 1)."""

    name: str
    arity: int

    def __post_init__(self):
        predicate(self.name)  # validates the name
        if self.arity < 1:
            raise ValueError(f"arity must be >= 1, got {self.arity}")
