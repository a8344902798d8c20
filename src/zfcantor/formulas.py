"""Words over the extended alphabet and the formula grammar.

A word is a tuple of symbols.  Formulas are the words generated by eight
cases: the atomic forms ``( a in b )``, ``( a = b )`` and
``Q ( a1 ; ... ; ak )``, negation ``! u``, the four binary forms
``( u OP v )``, and the quantified forms ``( E xi u )`` and
``( A xi u )``.  Quantifiers bind set variables only; new variables
cannot be quantified and therefore only occur free.

The tokenizer splits a text with one compiled regular expression and
maps each token through a bounded memo of accepted tokens; a token not
in the memo is classified, with its character offset, only then.  The
parser reads a word left to right in one pass with an explicit stack of
open compound formulas, so neither it nor the walks over trees (render,
subformulas, occurrences) recurse, and the depth bound is the stack's
length.  The grammar has the unique reading property, so no backtracking
is needed and every formula has exactly one parse tree.  Positions and
spans are 1-based and inclusive, matching the interval conventions of
the substitution operations.
"""
from __future__ import annotations

import re
from typing import ClassVar, Iterable, Iterator, Mapping

from .records import InvalidInput, Record
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


class ParseError(InvalidInput):
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


# A token is a bracket or semicolon, or a run of anything else up to the
# next one of those or whitespace; \s is exactly str.isspace in Unicode.
_TOKEN_RE = re.compile(r"[();]|[^\s();]+")
_SET_VAR_TOKEN_RE = re.compile(r"^x[0-9]+$")
# Accepted tokens and their symbols.  Errors are not kept, so an entry
# holds no position; past the bound the memo starts over.
_TOKEN_MEMO: dict[str, Symbol] = dict(FIXED_SYMBOLS)
_TOKEN_MEMO_SIZE = 4096


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


def _memo_symbol(match: re.Match) -> Symbol:
    tok = match.group()
    sym = _TOKEN_MEMO.get(tok)
    if sym is None:
        sym = _classify_token(tok, match.start() + 1)
        if len(_TOKEN_MEMO) >= _TOKEN_MEMO_SIZE:
            _TOKEN_MEMO.clear()
        _TOKEN_MEMO[tok] = sym
    return sym


def tokenize(text: str) -> Word:
    """Turn token text into a word.  Lossless inverse of render_text.

    Errors carry the 1-based character offset of the offending token.
    """
    try:
        return tuple(map(_TOKEN_MEMO.__getitem__, _TOKEN_RE.findall(text)))
    except KeyError:  # a token not seen yet: classify it where it stands
        return tuple(map(_memo_symbol, _TOKEN_RE.finditer(text)))


def render_text(word: Word) -> str:
    """Spell a word as whitespace-separated tokens."""
    return " ".join([sym.token for sym in word])


def count(word: Word, symbol: Symbol) -> int:
    """Number of positions of word holding the given symbol."""
    return word.count(symbol)


# ---------------------------------------------------------------------------
# Parse trees: ten node classes in five shapes.  A shape fixes the fields
# and the immediate subformulas; a class adds its case label and symbol.
# Nodes are records (see records.py).  Parse and expand build them in
# bulk, so the constructors store through the slot writers defined after
# the classes.


class Formula(Record):
    """Base node; span is the 1-based inclusive interval in the source word.

    ``label`` names the grammar case of the node, ``symbol`` is the fixed
    symbol that spells it (predicate atoms have none), and ``children``
    are its immediate subformulas.  The ``_plan`` slot, not a field, holds
    the tree's evaluation plan once ``semantics`` has compiled it.
    """

    __slots__ = ("span", "_plan")
    label: ClassVar[str]
    symbol: ClassVar[Symbol]
    children: ClassVar[tuple[Formula, ...]] = ()

    def __len__(self) -> int:
        return self.span[1] - self.span[0] + 1


class RelationAtom(Formula):
    """``( left SYMBOL right )`` over two variables."""

    __slots__ = ("left", "right")
    _fields = ("span", "left", "right")
    label = "atomic"

    def __init__(self, span: tuple[int, int], left: Symbol, right: Symbol):
        _span(self, span)
        _atom_left(self, left)
        _atom_right(self, right)


class Membership(RelationAtom):
    __slots__ = ()
    symbol = MEMBERSHIP


class Equality(RelationAtom):
    __slots__ = ()
    symbol = EQUALITY


class PredicateAtom(Formula):
    __slots__ = ("name", "args")
    _fields = ("span", "name", "args")
    label = "atomic"

    def __init__(self, span: tuple[int, int], name: str, args: tuple[Symbol, ...]):
        _span(self, span)
        _atom_name(self, name)
        _atom_args(self, args)


class Not(Formula):
    __slots__ = ("child",)
    _fields = ("span", "child")
    label, symbol = "negation", NEGATION

    def __init__(self, span: tuple[int, int], child: Formula):
        _span(self, span)
        _not_child(self, child)

    @property
    def children(self) -> tuple[Formula, ...]:
        return (self.child,)


class Connective(Formula):
    """``( left SYMBOL right )`` over two formulas."""

    __slots__ = ("left", "right")
    _fields = ("span", "left", "right")

    def __init__(self, span: tuple[int, int], left: Formula, right: Formula):
        _span(self, span)
        _connective_left(self, left)
        _connective_right(self, right)

    @property
    def children(self) -> tuple[Formula, ...]:
        return (self.left, self.right)


class Implies(Connective):
    __slots__ = ()
    label, symbol = "implication", IMPLICATION


class Iff(Connective):
    __slots__ = ()
    label, symbol = "biconditional", BICONDITIONAL


class And(Connective):
    __slots__ = ()
    label, symbol = "conjunction", CONJUNCTION


class Or(Connective):
    __slots__ = ()
    label, symbol = "disjunction", DISJUNCTION


class Quantifier(Formula):
    """``( SYMBOL var child )``, binding the set variable var."""

    __slots__ = ("var", "child")
    _fields = ("span", "var", "child")

    def __init__(self, span: tuple[int, int], var: Symbol, child: Formula):
        _span(self, span)
        _quantifier_var(self, var)
        _quantifier_child(self, child)

    @property
    def children(self) -> tuple[Formula, ...]:
        return (self.child,)


class Exists(Quantifier):
    __slots__ = ()
    label, symbol = "existential", EXISTS


class Forall(Quantifier):
    __slots__ = ()
    label, symbol = "universal", FORALL


_span = Formula.span.__set__
_atom_left, _atom_right = RelationAtom.left.__set__, RelationAtom.right.__set__
_atom_name, _atom_args = PredicateAtom.name.__set__, PredicateAtom.args.__set__
_not_child = Not.child.__set__
_connective_left, _connective_right = Connective.left.__set__, Connective.right.__set__
_quantifier_var, _quantifier_child = Quantifier.var.__set__, Quantifier.child.__set__

_RELATIONS = {cls.symbol.kind: cls for cls in (Membership, Equality)}
_CONNECTIVES = {cls.symbol.kind: cls for cls in (Implies, Iff, And, Or)}
_QUANTIFIERS = {cls.symbol.kind: cls for cls in (Exists, Forall)}
_LPAREN, _NEGATION, _SET_VAR = SymbolKind.LPAREN, SymbolKind.NEGATION, SymbolKind.SET_VAR

# Most compound formulas around an atom that parse accepts (the Cantor
# sentence has 21).  The front end needs no recursion; evaluate and the
# equality of trees recurse once per level, well inside Python's default
# recursion limit.
MAX_DEPTH = 200


def _normalize_signatures(signatures) -> Mapping[str, int]:
    if signatures is None:
        return {}
    if isinstance(signatures, Mapping):
        # only read, so a scheme reader passing its growing map pays no copy per line
        return signatures
    return {sig.name: sig.arity for sig in signatures}


def _at(word: Word, pos: int) -> Symbol:
    if pos > len(word):
        raise NotAFormula(pos, "unexpected end of word")
    return word[pos - 1]


def _expect(word: Word, pos: int, symbol: Symbol) -> None:
    found = _at(word, pos)
    if found is not symbol:
        raise NotAFormula(pos, f"expected {symbol.token!r}, found {found.token!r}")


def _expect_variable(word: Word, pos: int) -> Symbol:
    sym = _at(word, pos)
    if not sym.is_variable:
        raise NotAFormula(pos, f"expected a variable, found {sym.token!r}")
    return sym


def _bad_atom(word: Word, pos: int) -> None:
    """Raise the first error, in reading order, of the relation atom opening at pos."""
    op = _at(word, pos + 2)
    if op.kind not in _RELATIONS:
        raise NotAFormula(pos + 2, f"expected 'in' or '=', found {op.token!r}")
    _expect_variable(word, pos + 3)
    _expect(word, pos + 4, RPAREN)


def _predicate_atom(word: Word, pos: int, signatures: Mapping[str, int]) -> PredicateAtom:
    name = word[pos - 1].name
    if name not in signatures:
        raise UnknownPredicate(pos, f"predicate {name!r} is not in the signature set")
    _expect(word, pos + 1, LPAREN)
    args = [_expect_variable(word, pos + 2)]
    cur = pos + 3
    while _at(word, cur).kind is SymbolKind.SEMICOLON:
        args.append(_expect_variable(word, cur + 1))
        cur += 2
    _expect(word, cur, RPAREN)
    arity = signatures[name]
    if len(args) != arity:
        raise ArityMismatch(pos, f"{name} has arity {arity}, applied to {len(args)} arguments")
    return PredicateAtom((pos, cur), name, tuple(args))


def parse(word: Word, signatures: Iterable[PredicateSignature] | Mapping[str, int] | None = None) -> Formula:
    """Parse a word into its unique formula tree.

    ``signatures`` registers the predicate names admitted in atoms; with
    none registered, exactly the predicate-free formulas are accepted.
    Raises NotAFormula, UnknownPredicate, or ArityMismatch otherwise, and
    NestingTooDeep when compound formulas nest more than MAX_DEPTH levels.
    """
    if not word:
        raise NotAFormula(1, "the empty word is not a formula")
    signatures = _normalize_signatures(signatures)
    n = len(word)
    # One frame per open compound formula, so len(stack) is the depth of
    # the formula read next: (start, Not, None), (start, None, None) for a
    # binary form before its connective, and (start, class, first field)
    # for a quantifier or a binary form after it.
    stack: list[tuple] = []
    pos = 1
    while True:
        if len(stack) > MAX_DEPTH:
            raise NestingTooDeep(pos, f"formulas nest deeper than {MAX_DEPTH} levels")
        if pos > n:
            raise NotAFormula(pos, "unexpected end of word")
        kind = word[pos - 1].kind
        if kind is _LPAREN:
            if pos == n:
                raise NotAFormula(pos + 1, "unexpected end of word")
            head = word[pos]
            if head.is_variable:
                if (pos + 4 > n or (cls := _RELATIONS.get(word[pos + 1].kind)) is None
                        or not word[pos + 2].is_variable or word[pos + 3] is not RPAREN):
                    _bad_atom(word, pos)
                node, nxt = cls((pos, pos + 4), head, word[pos + 2]), pos + 5
            else:
                cls = _QUANTIFIERS.get(head.kind)
                if cls is None:
                    stack.append((pos, None, None))
                    pos += 1
                    continue
                var = _at(word, pos + 2)
                if var.kind is not _SET_VAR:
                    if var.kind is SymbolKind.NEW_VAR:
                        raise NotAFormula(pos + 2, f"new variable {var.token!r} cannot be quantified")
                    raise NotAFormula(pos + 2, f"expected a set variable, found {var.token!r}")
                stack.append((pos, cls, var))
                pos += 3
                continue
        elif kind is _NEGATION:
            stack.append((pos, Not, None))
            pos += 1
            continue
        elif kind is SymbolKind.PREDICATE:
            node = _predicate_atom(word, pos, signatures)
            nxt = node.span[1] + 1
        else:
            raise NotAFormula(pos, f"a formula cannot start with {word[pos - 1].token!r}")
        # node is complete and nxt follows it: close the frames it completes.
        while stack:
            start, cls, first = stack[-1]
            if cls is Not:
                node = Not((start, nxt - 1), node)
            elif cls is None:
                cls = _CONNECTIVES.get(word[nxt - 1].kind) if nxt <= n else None
                if cls is None:
                    op = _at(word, nxt)
                    raise NotAFormula(nxt, f"expected a binary connective, found {op.token!r}")
                stack[-1] = (start, cls, node)
                pos = nxt + 1
                break
            else:
                if nxt > n or word[nxt - 1] is not RPAREN:
                    _expect(word, nxt, RPAREN)
                node = cls((start, nxt), first, node)
                nxt += 1
            stack.pop()
        else:
            if nxt != n + 1:
                raise NotAFormula(nxt, "trailing symbols after a complete formula")
            return node


def parse_text(text: str, signatures=None) -> Formula:
    return parse(tokenize(text), signatures)


def render(tree: Formula) -> Word:
    """Spell a tree back into the word it was parsed from."""
    out: list[Symbol] = []
    stack: list = [tree]  # symbols to write and nodes to spell, the next one last
    while stack:
        node = stack.pop()
        if isinstance(node, Symbol):
            out.append(node)
        elif isinstance(node, (Connective, RelationAtom)):
            stack += (RPAREN, node.right, node.symbol, node.left, LPAREN)
        elif isinstance(node, Quantifier):
            stack += (RPAREN, node.child, node.var, node.symbol, LPAREN)
        elif isinstance(node, Not):
            stack += (node.child, NEGATION)
        elif isinstance(node, PredicateAtom):
            out += (predicate(node.name), LPAREN)
            out += [sym for arg in node.args for sym in (SEMICOLON, arg)][1:]
            out.append(RPAREN)
        else:
            raise TypeError(f"not a formula node: {node!r}")
    return tuple(out)


def classify(tree: Formula) -> tuple[str, tuple[Formula, ...], Symbol | None]:
    """Top-level case of a formula: (label, immediate subformulas, bound variable)."""
    return tree.label, tree.children, getattr(tree, "var", None)


def subformulas(tree: Formula) -> Iterator[Formula]:
    """All subformula nodes in pre-order, the tree itself first."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack += reversed(node.children)


def predicate_atoms(tree: Formula) -> Iterator[PredicateAtom]:
    for node in subformulas(tree):
        if isinstance(node, PredicateAtom):
            yield node


# ---------------------------------------------------------------------------
# Occurrences


class Occurrence(Record):
    """A variable occurrence: which symbol, where, and whether it is bound."""

    __slots__ = _fields = ("variable", "position", "bound")

    def __init__(self, variable: Symbol, position: int, bound: bool):
        _variable(self, variable)
        _position(self, position)
        _bound(self, bound)


_variable, _position = Occurrence.variable.__set__, Occurrence.position.__set__
_bound = Occurrence.bound.__set__


def _variable_sites(tree: Formula) -> list[tuple[Symbol, int, bool]]:
    """(variable, position, bound) for every variable occurrence, in position order.

    A pre-order walk meets the occurrences left to right, so no sort is
    needed; ``scope`` holds the variables quantified around the node.
    """
    sites: list[tuple[Symbol, int, bool]] = []
    stack: list[tuple[Formula, frozenset[Symbol]]] = [(tree, frozenset())]
    while stack:
        node, scope = stack.pop()
        if isinstance(node, Connective):
            stack += ((node.right, scope), (node.left, scope))
        elif isinstance(node, RelationAtom):
            l = node.span[0]
            sites += ((node.left, l + 1, node.left in scope), (node.right, l + 3, node.right in scope))
        elif isinstance(node, Not):
            stack.append((node.child, scope))
        elif isinstance(node, Quantifier):
            sites.append((node.var, node.span[0] + 2, True))
            stack.append((node.child, scope | {node.var}))
        else:
            l = node.span[0]
            sites += [(arg, l + 2 * i, arg in scope) for i, arg in enumerate(node.args, start=1)]
    return sites


def occurrences(tree: Formula) -> list[Occurrence]:
    """Every variable occurrence of the formula with its free/bound status.

    An occurrence is bound exactly when it lies inside a quantified
    subformula over the same variable; the binder occurrence itself is
    bound.  New variables are never quantified, so all their occurrences
    come out free.
    """
    return [Occurrence(*site) for site in _variable_sites(tree)]


def free_variables(tree: Formula) -> frozenset[Symbol]:
    return frozenset([var for var, _, bound in _variable_sites(tree) if not bound])


def is_sentence(tree: Formula) -> bool:
    """True when no variable occurs free."""
    return all([bound for _, _, bound in _variable_sites(tree)])


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
