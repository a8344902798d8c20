"""Satisfaction of formulas in finite digraphs.

Membership atoms are read along arrows, equality atoms as vertex
identity, connectives classically, and quantifiers range over all
vertices.  An environment binds variables to vertices and must cover
every free variable of the formula; an unbound variable is an error,
never a silent default.  Predicate atoms must be expanded first.

Connectives and quantifiers short-circuit.  A per-call memo keys the
value of every compound subformula by the vertices bound to its free
variables, which keeps evaluation of the Cantor sentence cheap; it is
always on and never outlives the call.
"""
from __future__ import annotations

from typing import Mapping

from .digraphs import Digraph
from .formulas import (
    And,
    Equality,
    Formula,
    Iff,
    Implies,
    Membership,
    Not,
    Or,
    PredicateAtom,
    Quantifier,
    RelationAtom,
    is_sentence,
)
from .symbols import EXISTS, Symbol


class SemanticsError(ValueError):
    pass


class UnboundVariable(SemanticsError):
    pass


class PredicateNotExpanded(SemanticsError):
    pass


class NotASentence(SemanticsError):
    pass


def _free_variables_by_node(tree: Formula) -> tuple[frozenset[Symbol], dict[int, tuple[Symbol, ...]]]:
    """The free variables of the tree, and of each compound subformula by node id."""
    by_node: dict[int, tuple[Symbol, ...]] = {}

    def walk(node: Formula) -> frozenset[Symbol]:
        if isinstance(node, RelationAtom):
            return frozenset((node.left, node.right))
        if isinstance(node, PredicateAtom):
            raise PredicateNotExpanded(f"predicate atom {node.name} cannot be evaluated")
        free = frozenset().union(*map(walk, node.children))
        if isinstance(node, Quantifier):
            free -= {node.var}
        by_node[id(node)] = tuple(free)
        return free

    return walk(tree), by_node


def evaluate(digraph: Digraph, tree: Formula, env: Mapping[Symbol, int] | None = None) -> bool:
    """Decide whether the digraph satisfies the formula under env."""
    bindings: dict[Symbol, int] = dict(env or {})
    free, free_of = _free_variables_by_node(tree)
    unbound = free - bindings.keys()
    if unbound:
        names = ", ".join(sorted(sym.token for sym in unbound))
        raise UnboundVariable(f"variable {names} is not bound")
    arrows = digraph.arrows
    vertices = digraph.vertices
    memo: dict[tuple[int, ...], bool] = {}

    def ev(node: Formula) -> bool:
        if isinstance(node, Membership):
            return (bindings[node.left], bindings[node.right]) in arrows
        if isinstance(node, Equality):
            return bindings[node.left] == bindings[node.right]
        key = (id(node), *[bindings[v] for v in free_of[id(node)]])
        value = memo.get(key)
        if value is not None:
            return value
        if isinstance(node, Quantifier):
            witness = node.symbol is EXISTS
            var = node.var
            saved = bindings.get(var)
            value = not witness
            for vertex in vertices:
                bindings[var] = vertex
                if ev(node.child) == witness:
                    value = witness
                    break
            # restore an outer binding; after the up-front check a None is never read
            bindings[var] = saved
        elif isinstance(node, Not):
            value = not ev(node.child)
        elif isinstance(node, Implies):
            value = not ev(node.left) or ev(node.right)
        elif isinstance(node, Iff):
            value = ev(node.left) == ev(node.right)
        elif isinstance(node, And):
            value = ev(node.left) and ev(node.right)
        elif isinstance(node, Or):
            value = ev(node.left) or ev(node.right)
        else:
            raise TypeError(f"not a formula node: {node!r}")
        memo[key] = value
        return value

    return ev(tree)


def evaluate_sentence(digraph: Digraph, tree: Formula) -> bool:
    """Evaluate a sentence; its value does not depend on any environment."""
    if not is_sentence(tree):
        raise NotASentence("the formula has a free variable occurrence")
    return evaluate(digraph, tree, {})
