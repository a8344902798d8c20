"""The built-in nine-shortcut scheme and the 494-symbol Cantor sentence.

The scheme defines, in order: SUS (subset by in-neighborhoods), SI (sole
element), SIN (the singleton), DO (the two elements), DOU (the
doubleton), OPA (the ordered pair), REL (relation into the power set),
FUN (function into the power set), and SUR (surjection onto the power
set).  It is kept as scheme-file text and read by parse_scheme_text like
any other scheme file, so its headers are the one table of the nine
predicates and their arities.  Expanding it yields nine predicate-free
formulas whose lengths are fixed constants of the construction; the
Cantor sentence quantifies the last expansion and has exactly 494
symbols, one of them a negation.
"""
from __future__ import annotations

from functools import lru_cache

from .formulas import NEGATION, Formula, count, is_sentence, parse_text, render
from .records import Record
from .schemes import Scheme, _splice, expand, parse_scheme_text
from .symbols import SymbolKind

SCHEME_TEXT = """\
SUS ( ?x ; ?y ) := ( A x1 ( ( x1 in ?x ) -> ( x1 in ?y ) ) )
SI ( ?x ; ?y ) := ( A x2 ( ( x2 in ?x ) <-> ( x2 = ?y ) ) )
SIN ( ?x ; ?y ) := ( A x3 ( SI ( x3 ; ?y ) <-> ( x3 = ?x ) ) )
DO ( ?x ; ?y ; ?z ) := ( A x4 ( ( x4 in ?x ) <-> ( ( x4 = ?y ) | ( x4 = ?z ) ) ) )
DOU ( ?x ; ?y ; ?z ) := ( A x5 ( DO ( x5 ; ?y ; ?z ) <-> ( x5 = ?x ) ) )
OPA ( ?x ; ?y ; ?z ) := ( E x6 ( E x7 ( DOU ( ?x ; x6 ; x7 ) & ( SIN ( x6 ; ?y ) & DOU ( x7 ; ?y ; ?z ) ) ) ) )
REL ( ?x ; ?y ) := ( A x8 ( ( x8 in ?x ) -> ( E x9 ( E x10 ( OPA ( x8 ; x9 ; x10 ) & ( ( x9 in ?y ) & SUS ( x10 ; ?y ) ) ) ) ) ) )
FUN ( ?x ; ?y ) := ( REL ( ?x ; ?y ) & ( A x11 ( ( x11 in ?y ) -> ( E x12 ( A x13 ( ( x13 = x12 ) <-> ( ( x13 in ?x ) & ( E x14 OPA ( x13 ; x11 ; x14 ) ) ) ) ) ) ) ) )
SUR ( ?x ; ?y ) := ( FUN ( ?x ; ?y ) & ( A x15 ( SUS ( x15 ; ?y ) -> ( E x16 ( E x17 ( ( x16 in ?x ) & OPA ( x16 ; x17 ; x15 ) ) ) ) ) ) )
"""

# The sentence around the SUR atom.  It quantifies only x18 and x19, above
# every index the nine bodies use, so splicing the SUR expansion into it
# captures nothing, as in a strict scheme.
PHI_SKELETON = "( A x18 ! ( E x19 SUR ( x19 ; x18 ) ) )"

EXPECTED_LENGTHS = (17, 17, 29, 25, 37, 117, 165, 325, 485)
EXPECTED_NEGATIONS = (0, 0, 0, 0, 0, 0, 0, 0, 0)
SENTENCE_LENGTH = 494
SENTENCE_NEGATIONS = 1


class LengthMismatch(RuntimeError):
    """An expansion came out with the wrong length; the build is defective."""


class NamedExpansion(Record):
    """A predicate's expansion with its frozen length bookkeeping."""

    __slots__ = _fields = ("name", "index", "formula", "expected_length", "expected_negations")

    def __init__(
        self, name: str, index: int, formula: Formula, expected_length: int, expected_negations: int
    ):
        init = object.__setattr__
        init(self, "name", name)
        init(self, "index", index)
        init(self, "formula", formula)
        init(self, "expected_length", expected_length)
        init(self, "expected_negations", expected_negations)


@lru_cache(maxsize=1)
def builtin_scheme() -> Scheme:
    """The nine-shortcut scheme SUS..SUR, read from SCHEME_TEXT in strict mode."""
    return parse_scheme_text(SCHEME_TEXT, mode="strict")


PREDICATE_ARITIES = {sc.name: sc.arity for sc in builtin_scheme().shortcuts}
PREDICATE_NAMES = tuple(PREDICATE_ARITIES)


@lru_cache(maxsize=1)
def _expansions() -> tuple[NamedExpansion, ...]:
    out = []
    for i, (name, tree) in enumerate(zip(PREDICATE_NAMES, expand(builtin_scheme())), start=1):
        expected = EXPECTED_LENGTHS[i - 1]
        expected_neg = EXPECTED_NEGATIONS[i - 1]
        word = render(tree)
        if len(word) != expected:
            raise LengthMismatch(f"expansion {i} ({name}) has length {len(word)}, expected {expected}")
        if count(word, NEGATION) != expected_neg:
            raise LengthMismatch(
                f"expansion {i} ({name}) has {count(word, NEGATION)} negations, expected {expected_neg}"
            )
        out.append(NamedExpansion(name, i, tree, expected, expected_neg))
    return tuple(out)


def emit_expansions() -> list[NamedExpansion]:
    """The nine expansions, length- and negation-checked."""
    return list(_expansions())


@lru_cache(maxsize=1)
def emit_phi() -> Formula:
    """The Cantor sentence: no vertex is a surjection onto any power set.

    PHI_SKELETON is parsed and the SUR expansion spliced into its atom
    `SUR ( x19 ; x18 )`, as expand splices an expansion into a body.  The
    result is a 494-symbol sentence over set variables x1..x19 with a
    single negation, which the checks below confirm on its rendered word.
    """
    surjection = builtin_scheme().shortcuts[-1]
    expansions = {surjection.name: (surjection.params, _expansions()[-1].formula)}
    tree = _splice(parse_text(PHI_SKELETON, {surjection.name: surjection.arity}), expansions)
    word = render(tree)
    if len(word) != SENTENCE_LENGTH or count(word, NEGATION) != SENTENCE_NEGATIONS:
        raise LengthMismatch(
            f"sentence has length {len(word)} and {count(word, NEGATION)} negations,"
            f" expected {SENTENCE_LENGTH} and {SENTENCE_NEGATIONS}"
        )
    if not is_sentence(tree):
        raise LengthMismatch("the Cantor formula has a free variable occurrence")
    if any(sym.kind in (SymbolKind.NEW_VAR, SymbolKind.PREDICATE) for sym in word):
        raise LengthMismatch("the Cantor sentence must be predicate-free and new-variable-free")
    return tree
