"""Shortcuts, well-formed abbreviation schemes, and forward expansion.

A shortcut defines a predicate by a formula body in which no set
variable occurs free and whose new variables all come from the formal
parameter list.  A scheme is an ordered list of shortcuts; it is well
formed when every body only refers to earlier predicates and the sets
of set-variable indices used by the bodies are strictly increasing
(strict mode) or at least pairwise disjoint (relaxed mode).  Building a
``Scheme`` checks all of this, so every ``Scheme`` is well formed.

Forward expansion rewrites each body into a predicate-free formula by
splicing in the already-expanded bodies of the referenced predicates,
with formal parameters renamed to the actual arguments.  The splice
works on trees: each body is copied once, every predicate atom becomes
a copy of the referenced expansion tree with its variables renamed, and
every span is moved to its place in the new word.  So no expansion is
rendered or parsed again, and each tree equals the parse of its word.
The bodies of a well-formed scheme quantify pairwise disjoint sets of
variables, so no splice can capture one; capture concerns only
``instantiate``, whose targets the caller chooses.  The Cantor sentence
is made by the same splice (see cantor.py).
"""
from __future__ import annotations

from .digraphs import SizeGuardExceeded
from .formulas import (
    MAX_DEPTH,
    Connective,
    Formula,
    NestingTooDeep,
    Not,
    PredicateAtom,
    Quantifier,
    RelationAtom,
    _predicate_atom,
    _variable_sites,
    parse,
    predicate_atoms,
    tokenize,
)
from .records import InvalidInput, Record, uncommented_lines
from .symbols import SEMICOLON, PredicateSignature, Symbol, SymbolKind, new_var, predicate

LETTER_PARAMS = (new_var("x"), new_var("y"), new_var("z"))

# Most symbols in all expansions of one scheme: each shortcut can double an
# earlier expansion.  The built-in scheme expands to 1,217 symbols.
MAX_EXPANSION_SYMBOLS = 2**16


class SchemeError(InvalidInput):
    pass


class BadParameterList(SchemeError):
    pass


class FreeSetVariable(SchemeError):
    pass


class ForeignNewVariable(SchemeError):
    pass


class CircularReference(SchemeError):
    pass


class VariableClash(SchemeError):
    pass


class UncoveredParameter(SchemeError):
    pass


class SubstitutabilityViolation(SchemeError):
    """An instantiation would capture a target, or its input still holds a predicate atom."""


class Shortcut(Record):
    """A predicate definition: name, formal parameters, and a body formula."""

    __slots__ = _fields = ("name", "params", "body")

    def __init__(self, name: str, params: tuple[Symbol, ...], body: Formula):
        PredicateSignature(name, len(params))
        init = object.__setattr__
        init(self, "name", name)
        init(self, "params", params)
        init(self, "body", body)

    @property
    def arity(self) -> int:
        return len(self.params)


class Scheme(Record):
    """A well-formed scheme with its reference and variable-index metadata.

    Building one is validating it: ``Scheme(shortcuts, mode)`` checks the
    invariants of each shortcut, then the ordering of the variable-index
    sets, and raises a SchemeError at the first violation.  The metadata
    is derived from the shortcuts: ``r_sets[i]`` holds the 1-based
    indices of the predicates referenced by shortcut i+1, and
    ``v_sets[i]`` holds the indices of the set variables appearing in
    its body.
    """

    __slots__ = _fields = ("shortcuts", "r_sets", "v_sets", "mode")

    def __init__(self, shortcuts, mode: str = "strict"):
        if mode not in ("strict", "relaxed"):
            raise ValueError(f"mode must be 'strict' or 'relaxed', got {mode!r}")
        shortcuts = tuple(shortcuts)
        names = [sc.name for sc in shortcuts]
        if len(set(names)) != len(names):
            raise SchemeError("shortcut names must be distinct")
        index = {name: i for i, name in enumerate(names)}

        r_sets: list[frozenset[int]] = []
        v_sets: list[frozenset[int]] = []
        for i, sc in enumerate(shortcuts, start=1):
            _check_params(sc.name, sc.params)
            # in position order, so each error names the leftmost offender
            sites = _variable_sites(sc.body)
            free = [var for var, _, bound in sites if not bound and var.kind is SymbolKind.SET_VAR]
            if free:
                raise FreeSetVariable(f"{sc.name}: set variable {free[0].token} occurs free in the body")
            params = set(sc.params)
            foreign = [var for var, _, _ in sites if var.kind is SymbolKind.NEW_VAR and var not in params]
            if foreign:
                raise ForeignNewVariable(f"{sc.name}: new variable {foreign[0].token} is not a parameter")
            refs = set()
            for atom in predicate_atoms(sc.body):
                k = index.get(atom.name)
                if k is None:
                    raise SchemeError(f"{sc.name}: unknown predicate {atom.name} in the body")
                if len(atom.args) != shortcuts[k].arity:
                    raise SchemeError(
                        f"{sc.name}: {atom.name} has arity {shortcuts[k].arity},"
                        f" applied to {len(atom.args)} arguments"
                    )
                refs.add(k + 1)
            bad = [k for k in refs if k >= i]
            if bad:
                raise CircularReference(
                    f"{sc.name} (position {i}) refers to {shortcuts[bad[0] - 1].name}"
                    f" (position {bad[0]}); only earlier predicates are allowed"
                )
            r_sets.append(frozenset(refs))
            v_sets.append(frozenset(var.index for var, _, _ in sites if var.kind is SymbolKind.SET_VAR))

        clash = _first_clash(v_sets, mode)
        if clash is not None:
            i, j = clash
            raise VariableClash(
                f"set-variable index sets of {names[i]} and {names[j]} violate"
                f" the {mode} ordering: {sorted(v_sets[i])} vs {sorted(v_sets[j])}"
            )

        init = object.__setattr__
        init(self, "shortcuts", shortcuts)
        init(self, "r_sets", tuple(r_sets))
        init(self, "v_sets", tuple(v_sets))
        init(self, "mode", mode)

    def __reduce__(self):
        # from the shortcuts alone, so that unpickling validates again
        return self.__class__, (self.shortcuts, self.mode)


def _check_params(name: str, params: tuple[Symbol, ...]) -> None:
    k = len(params)
    # only a new variable is named y1, y2, ...
    if params == LETTER_PARAMS[:k] or all(p.name == f"y{i}" for i, p in enumerate(params, start=1)):
        return
    if len(set(params)) != k:
        raise BadParameterList(f"{name}: parameters must be distinct")
    if any(p.kind is not SymbolKind.NEW_VAR for p in params):
        raise BadParameterList(f"{name}: parameters must be new variables")
    indexed = " ".join(f"?y{i}" for i in range(1, k + 1))
    letters = " ".join(p.token for p in LETTER_PARAMS[:k])
    raise BadParameterList(f"{name}: parameters must be {indexed}" + (f" or {letters}" if k <= 3 else ""))


def _first_clash(v_sets, mode: str) -> tuple[int, int] | None:
    """The first pair i < j, by i and then by j, whose index sets break the ordering.

    Strict mode asks max(v_i) < min(v_j) and relaxed mode disjointness,
    both holding vacuously for an empty set.  So v_i clashes with some
    later set exactly when it clashes with their union, or in strict mode
    with its least element; one pass from the right finds the first such
    i, and a pass from i finds its j.
    """
    strict = mode == "strict"

    def clash(a, b) -> bool:
        return bool(a and b) and (min(b) <= max(a) if strict else not a.isdisjoint(b))

    first = None
    later: set[int] = set()
    for i in range(len(v_sets) - 1, -1, -1):
        if clash(v_sets[i], later):
            first = i
        later |= v_sets[i]
        if strict and later:
            later = {min(later)}
    if first is None:
        return None
    return first, next(j for j in range(first + 1, len(v_sets)) if clash(v_sets[first], v_sets[j]))


# Validating shortcuts is building their Scheme.
validate_scheme = Scheme


def expand(scheme: Scheme) -> list[Formula]:
    """Forward expansion of every shortcut into a predicate-free formula.

    The first body is its own expansion; each later one is the body with
    the expansions of earlier shortcuts spliced into its atoms (_splice).
    The scheme is well formed, so nothing is checked again: each atom
    applies an earlier shortcut to as many arguments as it has parameters,
    and the inserted tree quantifies only variables of earlier bodies,
    which neither the host body nor the atom's arguments use.
    The length of each expansion is known from the spans before it is
    built, and SizeGuardExceeded is raised once the expansions together
    pass MAX_EXPANSION_SYMBOLS.  An expansion nesting deeper than
    MAX_DEPTH raises NestingTooDeep, as parse would on its word.
    """
    expansions: dict[str, tuple[tuple[Symbol, ...], Formula]] = {}
    trees: list[Formula] = []
    total = 0
    for sc in scheme.shortcuts:
        atoms = predicate_atoms(sc.body)
        total += len(sc.body) + sum(len(expansions[atom.name][1]) - len(atom) for atom in atoms)
        if total > MAX_EXPANSION_SYMBOLS:
            raise SizeGuardExceeded(
                f"{sc.name}: the expansions reach {total} symbols, over the guard"
                f" {MAX_EXPANSION_SYMBOLS}"
            )
        tree = _splice(sc.body, expansions)
        expansions[sc.name] = sc.params, tree
        trees.append(tree)
    return trees


def _splice(body: Formula, expansions: dict) -> Formula:
    """A copy of body with each predicate atom replaced by its expansion.

    ``expansions`` maps a predicate name to its shortcut's parameters and
    expansion.  The copy renames the parameters to the atom's arguments
    and moves every span to its place in the new word, so nothing is
    rendered or parsed again.  Nothing is checked for capture either:
    the caller rules it out.
    """
    return _relocate(body, 1, 0, {}, expansions)[0]


def _relocate(node: Formula, pos: int, depth: int, rename: dict, inserts, seen=None) -> tuple[Formula, int]:
    """A copy of node whose word starts at pos, and the copy's last position.

    Variables are renamed by ``rename``.  ``inserts`` maps each predicate
    name of a host body to the parameters and expansion that replace its
    atoms (see _splice); it is None inside an inserted expansion or an
    instantiated one, which hold no atoms.
    The recursion takes one level per compound formula and stops past
    MAX_DEPTH with the error parse gives at the same position.

    ``seen`` is given by instantiate, which checks it after the walk.
    Its keys, in walk order, are the new variables of atoms that
    ``rename`` misses, the quantified variables, and the symbol of each
    predicate atom; such an atom is left uncopied.
    """
    if depth > MAX_DEPTH:
        raise NestingTooDeep(pos, f"formulas nest deeper than {MAX_DEPTH} levels")
    if isinstance(node, RelationAtom):
        left, right = node.left, node.right
        if seen is not None:
            _see_uncovered(seen, rename, (left, right))
        return node.__class__((pos, pos + 4), rename.get(left, left), rename.get(right, right)), pos + 4
    if isinstance(node, Connective):
        left, end = _relocate(node.left, pos + 1, depth + 1, rename, inserts, seen)
        right, end = _relocate(node.right, end + 2, depth + 1, rename, inserts, seen)
        return node.__class__((pos, end + 1), left, right), end + 1
    if isinstance(node, Quantifier):
        if seen is not None:
            seen[node.var] = None
        child, end = _relocate(node.child, pos + 3, depth + 1, rename, inserts, seen)
        return node.__class__((pos, end + 1), node.var, child), end + 1
    if isinstance(node, Not):
        child, end = _relocate(node.child, pos + 1, depth + 1, rename, inserts, seen)
        return Not((pos, end), child), end
    if isinstance(node, PredicateAtom):
        if seen is not None:
            _see_uncovered(seen, rename, node.args)
            seen[predicate(node.name)] = None
            return node, pos + len(node) - 1
        params, tree = inserts[node.name]
        return _relocate(tree, pos, depth, dict(zip(params, node.args)), None)
    raise TypeError(f"not a formula node: {node!r}")


def _see_uncovered(seen: dict, rename: dict, variables) -> None:
    for var in variables:
        if var.kind is SymbolKind.NEW_VAR and var not in rename:
            seen[var] = None


def instantiate(expansion: Formula, assignment) -> Formula:
    """Rename the free new variables of an expansion to other variables.

    ``assignment`` maps new variables to variable symbols and must cover
    every free new variable.  A set variable the expansion quantifies
    is refused as a target, since it would capture the renamed
    occurrences.  The tree is walked once: the walk copies it with its
    variables renamed and notes what the checks read, which run after
    it, uncovered variables first.  Length and spans are preserved, and
    nothing is parsed again.
    """
    table = dict(assignment)
    for source, target in table.items():
        if getattr(source, "kind", None) is not SymbolKind.NEW_VAR:
            raise SchemeError(f"instantiation source {source!r} is not a new variable")
        if not target.is_variable:
            raise SchemeError(f"instantiation target {target!r} is not a variable")
    seen: dict[Symbol, None] = {}
    tree = _relocate(expansion, 1, 0, table, None, seen)[0]
    missing = [var.token for var in seen if var.kind is SymbolKind.NEW_VAR]
    if missing:
        raise UncoveredParameter(f"assignment does not cover {', '.join(sorted(missing))}")
    for target in table.values():
        if target in seen:  # seen now holds quantified variables and predicates only
            raise SubstitutabilityViolation(
                f"instantiation target {target.token} would be captured inside the expansion"
            )
    atoms = [sym.name for sym in seen if sym.kind is SymbolKind.PREDICATE]
    if atoms:
        raise SubstitutabilityViolation(f"an expansion still contains the predicate {atoms[0]}")
    return tree


# ---------------------------------------------------------------------------
# Scheme files


def parse_scheme_text(text: str, mode: str = "strict") -> Scheme:
    """The Scheme that a scheme file spells, built in the given mode.

    A scheme file holds one shortcut per line, ``NAME ( p1 ; ... ; pk ) :=
    <body>``, in scheme order; ``#`` begins a comment that runs to the end
    of its line.  Each header is read as the predicate atom it spells, so
    it may have any arity, and every header is read and its parameters
    checked before any body is parsed.  An error met while reading a line
    starts with ``line N:``.
    """
    lines = []
    sigs: dict[str, int] = {}
    shortcuts = []
    try:
        for lineno, line in enumerate(uncommented_lines(text), start=1):
            line = line.strip()
            if not line:
                continue
            head, assign, body_text = line.partition(":=")
            if not assign:
                raise SchemeError("expected `NAME ( params ) := body`")
            word = tokenize(head)
            if not word or word[0].kind is not SymbolKind.PREDICATE:
                raise SchemeError(f"malformed shortcut header {head.strip()!r}")
            # `NAME ( p1 ; ... ; pk )` holds k - 1 semicolons
            atom = _predicate_atom(word, 1, {word[0].name: word.count(SEMICOLON) + 1})
            if atom.span[1] != len(word):
                raise SchemeError(f"malformed shortcut header {head.strip()!r}")
            _check_params(atom.name, atom.args)
            if atom.name in sigs:
                raise SchemeError(f"duplicate shortcut name {atom.name}")
            sigs[atom.name] = len(atom.args)
            lines.append((lineno, atom, body_text.strip()))  # offsets count from the body's first token
        for lineno, atom, body_text in lines:
            shortcuts.append(Shortcut(atom.name, atom.args, parse(tokenize(body_text), sigs)))
    except ValueError as exc:
        # a SchemeError keeps its class, and a parse error becomes one
        error = exc.__class__ if isinstance(exc, SchemeError) else SchemeError
        raise error(f"line {lineno}: {exc}") from exc
    return Scheme(shortcuts, mode)
