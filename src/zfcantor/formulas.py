"""Words over the extended alphabet and the formula grammar.

A word is a tuple of symbols.  Formulas are the words generated by eight
cases: the atomic forms ``( a in b )``, ``( a = b )`` and
``Q ( a1 ; ... ; ak )``, negation ``! u``, the four binary forms
``( u OP v )``, and the quantified forms ``( E xi u )`` and
``( A xi u )``.  Quantifiers bind set variables only; new variables
cannot be quantified and therefore only occur free.

Parsing is single-pass recursive descent.  The grammar has the unique
reading property, so no backtracking is needed and every formula has
exactly one parse tree.  Positions and spans are 1-based and inclusive,
matching the interval conventions of the substitution operations.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import ClassVar, Iterable, Iterator, Mapping

from .symbols import (
    BICONDITIONAL,
    CONJUNCTION,
    DISJUNCTION,
    EQUALITY,
    EXISTS,
    FIXED_SYMBOLS,
    FORALL,
    IMPLICATION,
    LPAREN,
    MEMBERSHIP,
    NEGATION,
    NEW_VAR_NAME_RE,
    PREDICATE_NAME_RE,
    RPAREN,
    SEMICOLON,
    PredicateSignature,
    Symbol,
    SymbolKind,
    new_var,
    predicate,
    set_var,
)

Word = tuple[Symbol, ...]

EMPTY_WORD: Word = ()


class ParseError(ValueError):
    """Base class for tokenizer and parser errors; carries a 1-based position."""

    def __init__(self, position: int, message: str):
        super().__init__(f"position {position}: {message}")
        self.position = position


class UnknownToken(ParseError):
    pass


class MalformedVariable(ParseError):
    pass


class NotAFormula(ParseError):
    pass


class UnknownPredicate(ParseError):
    pass


class ArityMismatch(ParseError):
    pass


class NestingTooDeep(ParseError):
    pass


_SET_VAR_TOKEN_RE = re.compile(r"^x[0-9]+$")
_SELF_DELIMITING = "();"


def _raw_tokens(text: str) -> Iterator[tuple[str, int]]:
    """Yield (token, 1-based character offset).  ( ) ; self-delimit."""
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SELF_DELIMITING:
            yield ch, i + 1
            i += 1
            continue
        j = i
        while j < n and not text[j].isspace() and text[j] not in _SELF_DELIMITING:
            j += 1
        yield text[i:j], i + 1
        i = j


def _classify_token(tok: str, pos: int) -> Symbol:
    if tok in FIXED_SYMBOLS:
        return FIXED_SYMBOLS[tok]
    if _SET_VAR_TOKEN_RE.match(tok):
        digits = tok[1:]
        if digits[0] == "0":
            raise MalformedVariable(pos, f"set variable {tok!r} has index 0 or a leading zero")
        return set_var(int(digits))
    if tok.startswith("?"):
        if NEW_VAR_NAME_RE.match(tok[1:]):
            return new_var(tok[1:])
        raise MalformedVariable(pos, f"bad new-variable token {tok!r}")
    if PREDICATE_NAME_RE.match(tok):
        return predicate(tok)
    raise UnknownToken(pos, f"unknown token {tok!r}")


def tokenize(text: str) -> Word:
    """Turn token text into a word.  Lossless inverse of render_text."""
    return tuple(_classify_token(tok, pos) for tok, pos in _raw_tokens(text))


def render_text(word: Word) -> str:
    """Spell a word as whitespace-separated tokens."""
    return " ".join(sym.token for sym in word)


def count(word: Word, symbol: Symbol) -> int:
    """Number of positions of word holding the given symbol."""
    return word.count(symbol)


# ---------------------------------------------------------------------------
# Parse trees: ten node classes in five shapes.  A shape fixes the fields
# and the immediate subformulas; a class adds its case label and symbol.


@dataclass(frozen=True)
class Formula:
    """Base node; span is the 1-based inclusive interval in the source word.

    ``label`` names the grammar case of the node, ``symbol`` is the fixed
    symbol that spells it (predicate atoms have none), and ``children``
    are its immediate subformulas.
    """

    span: tuple[int, int]
    label: ClassVar[str]
    symbol: ClassVar[Symbol]
    children: ClassVar[tuple[Formula, ...]] = ()

    def __len__(self) -> int:
        return self.span[1] - self.span[0] + 1


@dataclass(frozen=True)
class RelationAtom(Formula):
    """``( left SYMBOL right )`` over two variables."""

    label = "atomic"
    left: Symbol
    right: Symbol


class Membership(RelationAtom):
    symbol = MEMBERSHIP


class Equality(RelationAtom):
    symbol = EQUALITY


@dataclass(frozen=True)
class PredicateAtom(Formula):
    label = "atomic"
    name: str
    args: tuple[Symbol, ...]


@dataclass(frozen=True)
class Not(Formula):
    label, symbol = "negation", NEGATION
    child: Formula

    @property
    def children(self) -> tuple[Formula, ...]:
        return (self.child,)


@dataclass(frozen=True)
class Connective(Formula):
    """``( left SYMBOL right )`` over two formulas."""

    left: Formula
    right: Formula

    @property
    def children(self) -> tuple[Formula, ...]:
        return (self.left, self.right)


class Implies(Connective):
    label, symbol = "implication", IMPLICATION


class Iff(Connective):
    label, symbol = "biconditional", BICONDITIONAL


class And(Connective):
    label, symbol = "conjunction", CONJUNCTION


class Or(Connective):
    label, symbol = "disjunction", DISJUNCTION


@dataclass(frozen=True)
class Quantifier(Formula):
    """``( SYMBOL var child )``, binding the set variable var."""

    var: Symbol
    child: Formula

    @property
    def children(self) -> tuple[Formula, ...]:
        return (self.child,)


class Exists(Quantifier):
    label, symbol = "existential", EXISTS


class Forall(Quantifier):
    label, symbol = "universal", FORALL


_RELATIONS = {cls.symbol.kind: cls for cls in (Membership, Equality)}
_CONNECTIVES = {cls.symbol.kind: cls for cls in (Implies, Iff, And, Or)}
_QUANTIFIERS = {cls.symbol.kind: cls for cls in (Exists, Forall)}

NODE_CLASSES = (Membership, Equality, PredicateAtom, Not, Implies, Iff, And, Or, Exists, Forall)
CASE_LABELS = tuple(dict.fromkeys(cls.label for cls in NODE_CLASSES))

# Most compound formulas around an atom that parse accepts (the Cantor
# sentence has 21).  Parse recurses twice per level, render and evaluate
# once, so this stays well inside Python's default recursion limit.
MAX_DEPTH = 200


def _normalize_signatures(signatures) -> dict[str, int]:
    if signatures is None:
        return {}
    if isinstance(signatures, Mapping):
        return dict(signatures)
    return {sig.name: sig.arity for sig in signatures}


class _Parser:
    def __init__(self, word: Word, signatures: dict[str, int]):
        self.word = word
        self.n = len(word)
        self.signatures = signatures

    def at(self, pos: int) -> Symbol:
        if pos > self.n:
            raise NotAFormula(pos, "unexpected end of word")
        return self.word[pos - 1]

    def expect(self, pos: int, symbol: Symbol) -> None:
        if self.at(pos) != symbol:
            raise NotAFormula(pos, f"expected {symbol.token!r}, found {self.at(pos).token!r}")

    def expect_variable(self, pos: int) -> Symbol:
        sym = self.at(pos)
        if not sym.is_variable:
            raise NotAFormula(pos, f"expected a variable, found {sym.token!r}")
        return sym

    def parse(self, pos: int, depth: int = 0) -> tuple[Formula, int]:
        if depth > MAX_DEPTH:
            raise NestingTooDeep(pos, f"formulas nest deeper than {MAX_DEPTH} levels")
        sym = self.at(pos)
        if sym.kind is SymbolKind.NEGATION:
            child, nxt = self.parse(pos + 1, depth + 1)
            return Not((pos, nxt - 1), child), nxt
        if sym.kind is SymbolKind.PREDICATE:
            return self.parse_predicate_atom(pos)
        if sym.kind is SymbolKind.LPAREN:
            head = self.at(pos + 1)
            if head.kind in _QUANTIFIERS:
                return self.parse_quantified(pos, _QUANTIFIERS[head.kind], depth)
            if head.is_variable:
                return self.parse_atom(pos)
            return self.parse_binary(pos, depth)
        raise NotAFormula(pos, f"a formula cannot start with {sym.token!r}")

    def parse_atom(self, pos: int) -> tuple[Formula, int]:
        left = self.expect_variable(pos + 1)
        op = self.at(pos + 2)
        node = _RELATIONS.get(op.kind)
        if node is None:
            raise NotAFormula(pos + 2, f"expected 'in' or '=', found {op.token!r}")
        right = self.expect_variable(pos + 3)
        self.expect(pos + 4, RPAREN)
        return node((pos, pos + 4), left, right), pos + 5

    def parse_quantified(self, pos: int, node: type[Formula], depth: int) -> tuple[Formula, int]:
        var = self.at(pos + 2)
        if var.kind is SymbolKind.NEW_VAR:
            raise NotAFormula(pos + 2, f"new variable {var.token!r} cannot be quantified")
        if var.kind is not SymbolKind.SET_VAR:
            raise NotAFormula(pos + 2, f"expected a set variable, found {var.token!r}")
        child, nxt = self.parse(pos + 3, depth + 1)
        self.expect(nxt, RPAREN)
        return node((pos, nxt), var, child), nxt + 1

    def parse_binary(self, pos: int, depth: int) -> tuple[Formula, int]:
        left, mid = self.parse(pos + 1, depth + 1)
        op = self.at(mid)
        node = _CONNECTIVES.get(op.kind)
        if node is None:
            raise NotAFormula(mid, f"expected a binary connective, found {op.token!r}")
        right, nxt = self.parse(mid + 1, depth + 1)
        self.expect(nxt, RPAREN)
        return node((pos, nxt), left, right), nxt + 1

    def parse_predicate_atom(self, pos: int) -> tuple[Formula, int]:
        name = self.at(pos).name
        if name not in self.signatures:
            raise UnknownPredicate(pos, f"predicate {name!r} is not in the signature set")
        self.expect(pos + 1, LPAREN)
        args = [self.expect_variable(pos + 2)]
        cur = pos + 3
        while self.at(cur).kind is SymbolKind.SEMICOLON:
            args.append(self.expect_variable(cur + 1))
            cur += 2
        self.expect(cur, RPAREN)
        arity = self.signatures[name]
        if len(args) != arity:
            raise ArityMismatch(pos, f"{name} has arity {arity}, applied to {len(args)} arguments")
        return PredicateAtom((pos, cur), name, tuple(args)), cur + 1


def parse(word: Word, signatures: Iterable[PredicateSignature] | Mapping[str, int] | None = None) -> Formula:
    """Parse a word into its unique formula tree.

    ``signatures`` registers the predicate names admitted in atoms; with
    none registered, exactly the predicate-free formulas are accepted.
    Raises NotAFormula, UnknownPredicate, or ArityMismatch otherwise, and
    NestingTooDeep when compound formulas nest more than MAX_DEPTH levels.
    """
    if not word:
        raise NotAFormula(1, "the empty word is not a formula")
    parser = _Parser(word, _normalize_signatures(signatures))
    tree, nxt = parser.parse(1)
    if nxt != len(word) + 1:
        raise NotAFormula(nxt, "trailing symbols after a complete formula")
    return tree


def parse_text(text: str, signatures=None) -> Formula:
    return parse(tokenize(text), signatures)


def render(tree: Formula) -> Word:
    """Spell a tree back into the word it was parsed from."""
    if isinstance(tree, RelationAtom):
        return (LPAREN, tree.left, tree.symbol, tree.right, RPAREN)
    if isinstance(tree, PredicateAtom):
        inner = [sym for arg in tree.args for sym in (SEMICOLON, arg)][1:]
        return (predicate(tree.name), LPAREN, *inner, RPAREN)
    if isinstance(tree, Not):
        return (NEGATION,) + render(tree.child)
    if isinstance(tree, Connective):
        return (LPAREN,) + render(tree.left) + (tree.symbol,) + render(tree.right) + (RPAREN,)
    if isinstance(tree, Quantifier):
        return (LPAREN, tree.symbol, tree.var) + render(tree.child) + (RPAREN,)
    raise TypeError(f"not a formula node: {tree!r}")


def classify(tree: Formula) -> tuple[str, tuple[Formula, ...], Symbol | None]:
    """Top-level case of a formula: (label, immediate subformulas, bound variable)."""
    return tree.label, tree.children, getattr(tree, "var", None)


def subformulas(tree: Formula) -> Iterator[Formula]:
    """All subformula nodes in pre-order, the tree itself first."""
    yield tree
    for child in tree.children:
        yield from subformulas(child)


def predicate_atoms(tree: Formula) -> Iterator[PredicateAtom]:
    for node in subformulas(tree):
        if isinstance(node, PredicateAtom):
            yield node


# ---------------------------------------------------------------------------
# Occurrences


@dataclass(frozen=True)
class Occurrence:
    """A variable occurrence: which symbol, where, and whether it is bound."""

    variable: Symbol
    position: int
    bound: bool


def occurrences(tree: Formula) -> list[Occurrence]:
    """Every variable occurrence of the formula with its free/bound status.

    An occurrence is bound exactly when it lies inside a quantified
    subformula over the same variable; the binder occurrence itself is
    bound.  New variables are never quantified, so all their occurrences
    come out free.
    """
    out: list[Occurrence] = []

    def emit(sym: Symbol, pos: int, scope: frozenset[Symbol]) -> None:
        out.append(Occurrence(sym, pos, sym in scope))

    def walk(node: Formula, scope: frozenset[Symbol]) -> None:
        l = node.span[0]
        if isinstance(node, RelationAtom):
            emit(node.left, l + 1, scope)
            emit(node.right, l + 3, scope)
        elif isinstance(node, PredicateAtom):
            for i, arg in enumerate(node.args, start=1):
                emit(arg, l + 2 * i, scope)
        elif isinstance(node, Quantifier):
            inner = scope | {node.var}
            emit(node.var, l + 2, inner)
            walk(node.child, inner)
        else:
            for child in node.children:
                walk(child, scope)

    walk(tree, frozenset())
    out.sort(key=lambda occ: occ.position)
    return out


def free_variables(tree: Formula) -> frozenset[Symbol]:
    return frozenset(occ.variable for occ in occurrences(tree) if not occ.bound)


def is_sentence(tree: Formula) -> bool:
    """True when no variable occurs free."""
    return all(occ.bound for occ in occurrences(tree))


# ---------------------------------------------------------------------------
# Bracketings


def good_bracketing(word: Word) -> frozenset[tuple[int, int]] | None:
    """The unique non-crossing pairing of a bracket word, or None.

    The word must consist of bracket symbols only.  Each pair joins an
    opening bracket with a later closing one, blocks never cross, and
    every position is covered; at most one such pairing exists.
    """
    stack: list[int] = []
    pairs: list[tuple[int, int]] = []
    for pos, sym in enumerate(word, start=1):
        if sym == LPAREN:
            stack.append(pos)
        elif sym == RPAREN:
            if not stack:
                return None
            pairs.append((stack.pop(), pos))
        else:
            raise ValueError(f"position {pos}: {sym.token!r} is not a bracket")
    if stack:
        return None
    return frozenset(pairs)


def bracket_subword(word: Word) -> Word:
    """The subsequence of bracket symbols of a word."""
    return tuple(sym for sym in word if sym in (LPAREN, RPAREN))


def word_diff(a: Word, b: Word) -> list[tuple[int, Symbol | None, Symbol | None]]:
    """Positions where two words differ, as (position, symbol of a, symbol of b).

    A None entry means the word has already ended at that position.
    """
    diffs: list[tuple[int, Symbol | None, Symbol | None]] = []
    for pos in range(1, max(len(a), len(b)) + 1):
        sa = a[pos - 1] if pos <= len(a) else None
        sb = b[pos - 1] if pos <= len(b) else None
        if sa != sb:
            diffs.append((pos, sa, sb))
    return diffs
