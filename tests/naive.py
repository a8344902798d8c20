"""Independent brute-force oracles for the digraph predicates and satisfaction.

Deliberately written as literal quantifier loops over the definitions,
sharing only the Digraph data type and the parse-tree classes with the
package.  Used to compute expected values that the tests then freeze,
and to cross-check the table-driven implementation and the truth-table
evaluator on small digraphs.

``filing_surjection`` is the Cantor search that predates the gadget
lemma in ``zfcantor.analysis``: it reads every vertex as a relation over
the package's ordered-pair table and tries each function against the
power set of its ground, so it owes nothing to the lemma.
``counter_order_census`` runs it, with the package's strongly extensive
check, on every counter, with no symmetry reduction, as the oracle for
the census's closed count and its witness listing;
``enumerate_digraphs`` yields the digraphs of the same counters, and
``every_map_non_cantor_count`` is the closed count before its relabelling
by rest size, walking every one-bit map.
``naive_expand`` and ``naive_instantiate`` are the word path of scheme
expansion (render, rename and splice by the substitution
operations, parse again), the oracle for the package's tree splice;
``naive_variable_clash`` tries the scheme ordering pair by pair.
``naive_broadcast`` inserts axes into a truth table one cell at a time,
the oracle for the evaluator's spread-and-fill broadcast.
"""
from __future__ import annotations

import re
from functools import lru_cache
from itertools import combinations, product
from typing import Iterator

from zfcantor.analysis import (
    masks_strongly_extensive,
    omega_level_ranges,
    pair_table,
    power_mask,
    relation,
    unique_vertices,
)
from zfcantor import schemes
from zfcantor.census import WITNESS_MAX_N, digraph_from_counter
from zfcantor.digraphs import Digraph, SizeGuardExceeded
from zfcantor.formulas import (
    MAX_DEPTH,
    And,
    ArityMismatch,
    Equality,
    Exists,
    Forall,
    Iff,
    Implies,
    MalformedVariable,
    Membership,
    Not,
    NotAFormula,
    NestingTooDeep,
    Or,
    PredicateAtom,
    Quantifier,
    UnknownPredicate,
    UnknownToken,
    free_variables,
    parse,
    predicate_atoms,
    render,
    subformulas,
)
from zfcantor.substitution import sub1, sub2
from zfcantor.symbols import (
    FIXED_SYMBOLS,
    LPAREN,
    NEW_VAR_NAME_RE,
    PREDICATE_NAME_RE,
    RPAREN,
    SymbolKind,
    new_var,
    predicate,
    set_var,
)


def naive_evaluate(d: Digraph, tree, env) -> bool:
    """Satisfaction by plain recursion over the tree, one binding at a time."""
    if isinstance(tree, Membership):
        return (env[tree.left], env[tree.right]) in d.arrows
    if isinstance(tree, Equality):
        return env[tree.left] == env[tree.right]
    if isinstance(tree, Not):
        return not naive_evaluate(d, tree.child, env)
    if isinstance(tree, Implies):
        return not naive_evaluate(d, tree.left, env) or naive_evaluate(d, tree.right, env)
    if isinstance(tree, Iff):
        return naive_evaluate(d, tree.left, env) == naive_evaluate(d, tree.right, env)
    if isinstance(tree, And):
        return naive_evaluate(d, tree.left, env) and naive_evaluate(d, tree.right, env)
    if isinstance(tree, Or):
        return naive_evaluate(d, tree.left, env) or naive_evaluate(d, tree.right, env)
    if isinstance(tree, Exists):
        return any(naive_evaluate(d, tree.child, {**env, tree.var: v}) for v in d.vertices)
    if isinstance(tree, Forall):
        return all(naive_evaluate(d, tree.child, {**env, tree.var: v}) for v in d.vertices)
    raise TypeError(f"not an evaluable node: {tree!r}")


def naive_broadcast(table: int, n: int, k: int, steps: tuple[int, ...]) -> int:
    """A table over k axes of n cells with axes inserted at steps, read cell by cell.

    Each output index is split into its axis digits, axis 0 least
    significant; the digits at the inserted positions are dropped, and
    the rest index the input bit.
    """
    out = 0
    for index in range(n ** (k + len(steps))):
        digits = [index // n**axis % n for axis in range(k + len(steps))]
        kept = [digit for axis, digit in enumerate(digits) if axis not in steps]
        if table >> sum(digit * n**axis for axis, digit in enumerate(kept)) & 1:
            out |= 1 << index
    return out


def nbhd(d: Digraph, u: int) -> frozenset[int]:
    return frozenset(a for (a, b) in d.arrows if b == u)


def naive_sus(d, u, v):
    return nbhd(d, u) <= nbhd(d, v)


def naive_si(d, u, v):
    return nbhd(d, u) == {v}


def naive_sin(d, u, v):
    return naive_si(d, u, v) and all(t == u or not naive_si(d, t, v) for t in d.vertices)


def naive_do(d, u, v, w):
    return nbhd(d, u) == {v, w}


def naive_dou(d, u, v, w):
    return naive_do(d, u, v, w) and all(t == u or not naive_do(d, t, v, w) for t in d.vertices)


def naive_opa(d, u, v, w, memo=None):
    if memo is not None and (u, v, w) in memo:
        return memo[(u, v, w)]
    value = any(
        naive_dou(d, u, s, t) and naive_sin(d, s, v) and naive_dou(d, t, v, w)
        for s in d.vertices
        for t in d.vertices
    )
    if memo is not None:
        memo[(u, v, w)] = value
    return value


def naive_rel(d, u, v, memo=None):
    return all(
        any(
            naive_opa(d, p, a, b, memo) and a in nbhd(d, v) and naive_sus(d, b, v)
            for a in d.vertices
            for b in d.vertices
        )
        for p in nbhd(d, u)
    )


def naive_fun(d, u, v, memo=None):
    if not naive_rel(d, u, v, memo):
        return False
    for w in nbhd(d, v):
        pairs = [
            p
            for p in d.vertices
            if p in nbhd(d, u) and any(naive_opa(d, p, w, b, memo) for b in d.vertices)
        ]
        if len(pairs) != 1:
            return False
    return True


def naive_sur(d, u, v, memo=None):
    if not naive_fun(d, u, v, memo):
        return False
    for t in d.vertices:
        if naive_sus(d, t, v):
            if not any(
                p in nbhd(d, u) and naive_opa(d, p, a, t, memo)
                for p in d.vertices
                for a in d.vertices
            ):
                return False
    return True


NAIVE_PREDICATES = {
    "SUS": naive_sus,
    "SI": naive_si,
    "SIN": naive_sin,
    "DO": naive_do,
    "DOU": naive_dou,
    "OPA": naive_opa,
    "REL": naive_rel,
    "FUN": naive_fun,
    "SUR": naive_sur,
}


def naive_predicate(d: Digraph, name: str, args: tuple[int, ...], memo=None) -> bool:
    fn = NAIVE_PREDICATES[name]
    if name in ("REL", "FUN", "SUR", "OPA"):
        return fn(d, *args, memo)
    return fn(d, *args)


def naive_is_cantor(d: Digraph) -> bool:
    memo: dict = {}
    return not any(naive_sur(d, v, u, memo) for u in d.vertices for v in d.vertices)


def filing_surjection(masks) -> tuple[int, int] | None:
    """The first (u, v), u outer and v inner, with v a surjection from u onto its power set.

    A function from N(u) has only pair vertices as elements, first
    components exactly N(u), and second components whose elements lie in
    N(u).  One pass files each single-valued such relation under its
    firsts, with its seconds.  Each ground mask pops its file once, since
    the power set depends on u only through N(u); a candidate whose
    seconds lack u is skipped, as u lies in its own power set.
    """
    pairs = pair_table(unique_vertices(masks))
    pair_bits = 0
    for p in pairs:
        pair_bits |= 1 << (p - 1)
    by_firsts: dict[int, list[tuple[int, int]]] = {}
    for v, m in enumerate(masks, 1):
        if m and not m & ~pair_bits:
            firsts, seconds, inner, single_valued = relation(masks, pairs, v)
            if single_valued and not inner & ~firsts:
                by_firsts.setdefault(firsts, []).append((v, seconds))
    for u, m in enumerate(masks, 1):
        if m not in by_firsts:
            continue
        u_bit = 1 << (u - 1)
        power = 0
        for v, seconds in by_firsts.pop(m):
            if seconds & u_bit:
                power = power or power_mask(masks, u)
                if not power & ~seconds:
                    return (u, v)
    return None


def naive_is_strongly_extensive(d: Digraph) -> bool:
    realized = {nbhd(d, t) for t in d.vertices}
    for u in d.vertices:
        members = sorted(nbhd(d, u))
        for size in range(len(members) + 1):
            for subset in combinations(members, size):
                if frozenset(subset) not in realized:
                    return False
    return True


def naive_omega_prefix(levels: int) -> Digraph:
    """The strongly extensive construction by looping over subsets of the sorted earlier vertices."""
    ranges = omega_level_ranges(levels)
    arrows: set[tuple[int, int]] = set()
    previous: list[int] = [1]
    for lo, hi in ranges[1:]:
        ground = sorted(previous)
        for i, newv in enumerate(range(lo, hi + 1)):
            for j, member in enumerate(ground):
                if i >> j & 1:
                    arrows.add((member, newv))
        previous.extend(range(lo, hi + 1))
    return Digraph(ranges[-1][1], frozenset(arrows))


def naive_dump_digraph(d: Digraph) -> str:
    """The file text, with the arrows sorted as (tail, head) tuples."""
    lines = [f"vertices {d.n}"]
    lines.extend(f"{u} {v}" for u, v in sorted(d.arrows))
    return "\n".join(lines) + "\n"


def naive_census(n: int) -> tuple[int, int, int]:
    """(total, strongly extensive count, Cantor count) by raw enumeration."""
    total = 2 ** (n * n)
    strongly_extensive = 0
    cantor = 0
    for counter in range(total):
        arrows = frozenset(
            (u, v)
            for u in range(1, n + 1)
            for v in range(1, n + 1)
            if counter >> ((u - 1) * n + (v - 1)) & 1
        )
        d = Digraph(n, arrows)
        if naive_is_strongly_extensive(d):
            strongly_extensive += 1
        if naive_is_cantor(d):
            cantor += 1
    return total, strongly_extensive, cantor


def enumerate_digraphs(n: int) -> Iterator[Digraph]:
    """All 2^(n*n) labeled digraphs on [n], in counter order."""
    if not (1 <= n <= WITNESS_MAX_N):
        raise SizeGuardExceeded(f"n={n} is outside [1, {WITNESS_MAX_N}]")
    for counter in range(2 ** (n * n)):
        yield digraph_from_counter(n, counter)


def kernel_verdicts(n: int, counter: int) -> tuple[bool, bool]:
    """(strongly extensive, Cantor) for one counter, by the filing search."""
    masks = digraph_from_counter(n, counter).masks
    return masks_strongly_extensive(masks), filing_surjection(masks) is None


@lru_cache(maxsize=None)
def counter_order_census(n: int) -> tuple[tuple[int, int, int], tuple[int, ...]]:
    """((total, strongly extensive, Cantor), non-Cantor counters) over every counter."""
    total = 2 ** (n * n)
    strongly_extensive = cantor = 0
    non_cantor = []
    for counter in range(total):
        is_strongly_extensive, is_cantor = kernel_verdicts(n, counter)
        strongly_extensive += is_strongly_extensive
        if is_cantor:
            cantor += 1
        else:
            non_cantor.append(counter)
    return (total, strongly_extensive, cantor), tuple(non_cantor)


def every_map_non_cantor_count(n: int) -> int:
    """The census's closed non-Cantor count, walking all (n+1)^n one-bit maps.

    The same inclusion-exclusion per map as ``census.non_cantor_count``,
    with no relabelling: s[v] is vertex v's one bit, or -1 when v is in
    the rest, and every map with a ground is visited.
    """
    k = (1 << n) - 1 - n
    count = 0
    for s in product(range(-1, n), repeat=n):
        grounds = [(u, a) for u, a in enumerate(s) if a >= 0 and s.count(a) == 1]
        if not grounds:
            continue
        rest = [v for v, a in enumerate(s) if a < 0]
        r = len(rest)
        if any(u == a for u, a in grounds):
            count += k**r
            continue
        terms: list[tuple[dict[int, int], int]] = [({}, -1)]
        for u, a in grounds:
            doubleton = 1 << a | 1 << u
            own = [((a, doubleton),)] if s[a] < 0 else []
            own += [((d, doubleton), (p, 1 << u | 1 << d)) for d in rest for p in rest if p != d and p in s]
            terms += [(fixed, -sign) for old, sign in terms for choice in own if (fixed := _merged(old, choice))]
        count += sum(sign * (k - len(fixed)) ** (r - len(fixed)) for fixed, sign in terms[1:])
    return count


def _merged(fixed: dict[int, int], choice) -> dict[int, int] | None:
    """fixed with choice's (vertex, mask) pairs; None if a vertex gets two masks or a mask two holders."""
    merged = dict(fixed)
    for v, m in choice:
        if v not in merged:
            if m in merged.values():
                return None
            merged[v] = m
        elif merged[v] != m:
            return None
    return merged


# ---------------------------------------------------------------------------
# The formula front end, one character and one symbol at a time

_SET_VAR_TOKEN_RE = re.compile(r"^x[0-9]+$")
_SELF_DELIMITING = "();"


def _raw_tokens(text: str):
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


def _classify_token(tok: str, pos: int):
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


def naive_tokenize(text: str) -> tuple:
    return tuple(_classify_token(tok, pos) for tok, pos in _raw_tokens(text))


_RELATIONS = {cls.symbol.kind: cls for cls in (Membership, Equality)}
_CONNECTIVES = {cls.symbol.kind: cls for cls in (Implies, Iff, And, Or)}
_QUANTIFIERS = {cls.symbol.kind: cls for cls in (Exists, Forall)}


class _Parser:
    def __init__(self, word, signatures: dict[str, int]):
        self.word = word
        self.n = len(word)
        self.signatures = signatures

    def at(self, pos: int):
        if pos > self.n:
            raise NotAFormula(pos, "unexpected end of word")
        return self.word[pos - 1]

    def expect(self, pos: int, symbol) -> None:
        if self.at(pos) != symbol:
            raise NotAFormula(pos, f"expected {symbol.token!r}, found {self.at(pos).token!r}")

    def expect_variable(self, pos: int):
        sym = self.at(pos)
        if not sym.is_variable:
            raise NotAFormula(pos, f"expected a variable, found {sym.token!r}")
        return sym

    def parse(self, pos: int, depth: int = 0):
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

    def parse_atom(self, pos: int):
        left = self.expect_variable(pos + 1)
        op = self.at(pos + 2)
        node = _RELATIONS.get(op.kind)
        if node is None:
            raise NotAFormula(pos + 2, f"expected 'in' or '=', found {op.token!r}")
        right = self.expect_variable(pos + 3)
        self.expect(pos + 4, RPAREN)
        return node((pos, pos + 4), left, right), pos + 5

    def parse_quantified(self, pos: int, node, depth: int):
        var = self.at(pos + 2)
        if var.kind is SymbolKind.NEW_VAR:
            raise NotAFormula(pos + 2, f"new variable {var.token!r} cannot be quantified")
        if var.kind is not SymbolKind.SET_VAR:
            raise NotAFormula(pos + 2, f"expected a set variable, found {var.token!r}")
        child, nxt = self.parse(pos + 3, depth + 1)
        self.expect(nxt, RPAREN)
        return node((pos, nxt), var, child), nxt + 1

    def parse_binary(self, pos: int, depth: int):
        left, mid = self.parse(pos + 1, depth + 1)
        op = self.at(mid)
        node = _CONNECTIVES.get(op.kind)
        if node is None:
            raise NotAFormula(mid, f"expected a binary connective, found {op.token!r}")
        right, nxt = self.parse(mid + 1, depth + 1)
        self.expect(nxt, RPAREN)
        return node((pos, nxt), left, right), nxt + 1

    def parse_predicate_atom(self, pos: int):
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


def naive_parse(word, signatures: dict[str, int] | None = None):
    """Recursive descent; ``signatures`` maps predicate names to arities."""
    if not word:
        raise NotAFormula(1, "the empty word is not a formula")
    tree, nxt = _Parser(word, dict(signatures or {})).parse(1)
    if nxt != len(word) + 1:
        raise NotAFormula(nxt, "trailing symbols after a complete formula")
    return tree


# ---------------------------------------------------------------------------
# Scheme expansion on words: render, rename, splice, parse again


def naive_variable_clash(names, v_sets, mode: str) -> str | None:
    """The VariableClash message of the first pair i < j, by i and then j, that
    breaks the mode's ordering, tried pair by pair; None when no pair does."""
    for i in range(len(v_sets)):
        for j in range(i + 1, len(v_sets)):
            a, b = v_sets[i], v_sets[j]
            if mode == "strict":
                ok = not a or not b or max(a) < min(b)
            else:
                ok = not (a & b)
            if not ok:
                return (
                    f"set-variable index sets of {names[i]} and {names[j]} violate"
                    f" the {mode} ordering: {sorted(a)} vs {sorted(b)}"
                )
    return None


def _binder_indices(tree) -> frozenset[int]:
    return frozenset(node.var.index for node in subformulas(tree) if isinstance(node, Quantifier))


def naive_expand(shortcuts) -> list:
    """Forward expansion by words, of shortcuts that need not form a valid scheme.

    Each body is rendered and parsed again; every predicate atom's span
    is patched with the referenced expansion's word, its parameters
    renamed by sub1, all at once by sub2; the result is parsed from
    scratch.  A splice that would capture a variable raises
    SubstitutabilityViolation, which no valid scheme can reach.  The
    size guard reads ``schemes.MAX_EXPANSION_SYMBOLS`` at call time, so
    a test can lower it for both paths at once.
    """
    sigs = {sc.name: sc.arity for sc in shortcuts}
    names = [sc.name for sc in shortcuts]
    words, trees, binders = [], [], []
    total = 0
    for sc in shortcuts:
        body_word = render(sc.body)
        body_tree = parse(body_word, sigs)
        atoms = [(atom, names.index(atom.name) + 1) for atom in predicate_atoms(body_tree)]
        total += len(body_word) + sum(len(words[k - 1]) - len(atom) for atom, k in atoms)
        if total > schemes.MAX_EXPANSION_SYMBOLS:
            raise SizeGuardExceeded(
                f"{sc.name}: the expansions reach {total} symbols, over the guard"
                f" {schemes.MAX_EXPANSION_SYMBOLS}"
            )
        host_binders = _binder_indices(body_tree)
        patches = []
        for atom, k in atoms:
            inserted = binders[k - 1]
            if inserted & host_binders or any(
                arg.kind is SymbolKind.SET_VAR and arg.index in inserted for arg in atom.args
            ):
                raise schemes.SubstitutabilityViolation(f"{sc.name}: {atom.name}'s expansion captures a variable")
            source = shortcuts[k - 1]
            patches.append((sub1(words[k - 1], dict(zip(source.params, atom.args))), *atom.span))
        word = sub2(body_word, patches) if patches else body_word
        if any(sym.kind is SymbolKind.PREDICATE for sym in set(word)):
            raise schemes.SubstitutabilityViolation(f"{sc.name}: expansion still contains a predicate")
        words.append(word)
        trees.append(parse(word))
        binders.append(_binder_indices(trees[-1]))
    return trees


def naive_instantiate(expansion, assignment):
    """Rename by words: render, sub1, parse again.  Checks no capture."""
    table = dict(assignment)
    for target in table.values():
        if not target.is_variable:
            raise schemes.SchemeError(f"instantiation target {target!r} is not a variable")
    free = {v for v in free_variables(expansion) if v.kind is SymbolKind.NEW_VAR}
    missing = free - set(table)
    if missing:
        names = ", ".join(sorted(v.token for v in missing))
        raise schemes.UncoveredParameter(f"assignment does not cover {names}")
    return parse(sub1(render(expansion), table))
