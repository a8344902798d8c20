"""Satisfaction of formulas in finite digraphs.

Membership atoms are read along arrows, equality atoms as vertex
identity, connectives classically, and quantifiers range over all
vertices.  An environment binds variables to vertices and must cover
every free variable of the formula; an unbound variable is an error,
never a silent default.  Predicate atoms must be expanded first.

Evaluation is bottom-up over truth tables.  Every subformula gets a
table with one axis of n cells per quantified variable occurring free in
it; a variable is identified by its binder, not its symbol, and the
variables bound by the environment are constants.  Axes are ordered by
binder depth, the deepest most significant, so a quantifier's own
variable is always the top axis of its child's table.  A table is a
Python int with one bit per cell: connectives are bitwise operations
after both children are broadcast to the union of their axes, and a
quantifier combines the n blocks of its child's top axis.  A broadcast
never leaves Python ints.  Inserting an axis first spreads the table,
moving its blocks apart with one mask and shift per bit of the block
index, then fills each gap with copies of its block by shift-or
doubling: O(k log n) big-int operations for a table of k axes.  Membership
tables come from ``Digraph.masks``: the row of the elements of a
vertex is its in-mask, and the membership matrix stacks the in-masks,
or the out-masks (their transpose) when the left variable is the top
axis.

Evaluation is lazy.  Of the two operands of & and |, the one with fewer
instructions runs first.  After the first operand of &, | and ->, one
instruction checks whether its table decides the node: an all-false &
operand, an all-false -> antecedent or an all-true | operand.  If so,
the node's table (all-false, or all-true at the node's own axes)
replaces it, and the run jumps past the second operand and the node.
Every broadcast goes through a memo that lives for one evaluation, keyed
by the table, its axis count and the positions inserted, so each layout
of a table, such as a two-variable atom read under several connectives,
is built once however often the formula reads it.  When no operand
decides its node, the cost is O(|formula| * n^w) for w the most axes of
any table (Vardi 1995, "On the complexity of bounded-variable queries");
w is 5 for the Cantor sentence, and a shortcut only lowers the cost.

The axis layout of every node, the broadcast steps, the operand order,
the jumps and the free variables depend on the tree alone, so a tree's
first evaluation compiles them into a plan kept in the tree's ``_plan``
slot.  Threads racing on that evaluation compile equal plans and the
slot keeps one, so no lock is needed; a copy of a tree compiles its own.
A tree with a predicate atom compiles to no plan: its every evaluation
raises PredicateNotExpanded.  No table may exceed MAX_TABLE_CELLS cells;
the bound is checked from the plan before any table is built.
"""
from __future__ import annotations

from typing import Mapping

from .digraphs import Digraph, SizeGuardExceeded, transpose
from .formulas import (
    And,
    Formula,
    Iff,
    Implies,
    Membership,
    Not,
    Or,
    PredicateAtom,
    Quantifier,
    RelationAtom,
)
from .records import InvalidInput
from .symbols import EXISTS, Symbol

# Most cells of any truth table: the Cantor sentence at 16 vertices needs
# 16^5 = 2^20, and 2^20 cells are 128 KB per table.
MAX_TABLE_CELLS = 2**20


class SemanticsError(InvalidInput):
    pass


class UnboundVariable(SemanticsError):
    pass


class PredicateNotExpanded(SemanticsError):
    pass


class NotASentence(SemanticsError):
    pass


# Instructions of a plan, run in post-order on a stack of tables.  Each
# carries the number of axes k of the table it makes (2^(n^k) - 1 is
# its all-true table) and, for atoms, what the table is read from.
_CONST = 0  # (op, k, is_membership, left, right): both sides bound by env, as indices into free
_ROW = 1  # (op, k, is_membership, index into free, bound_is_left): one side bound by env
_DIAG = 2  # (op, k, is_membership): both sides one quantified variable
_MATRIX = 3  # (op, k, is_membership, left_is_top): two quantified variables
_NOT = 4  # (op, k)
_AND, _OR, _IMPLIES, _IFF = 5, 6, 7, 8  # (op, k, left k, left steps, right k, right steps)
_EXISTS, _FORALL = 9, 10  # (op, k)
# (op, k, left k, binary op, jump) after the first operand of &, | and ->: when that
# table decides the node, it becomes the node's table and jump skips the second
# operand and the node's own instruction.
_SKIP = 11

_BINARY_OPS = {And: _AND, Or: _OR, Implies: _IMPLIES, Iff: _IFF}


# A plan: (program, free variables, width).  A plain tuple, since a
# dataclass costs a millisecond at import.
_Plan = tuple[tuple[tuple, ...], tuple[Symbol, ...], int]


def _steps(child: tuple[int, ...], axes: tuple[int, ...]) -> tuple[int, ...]:
    """Broadcast a table over child to one over axes: the positions to insert.

    Insertions go in ascending position, so every axis below the one
    being inserted is already present.
    """
    return tuple(position for position, axis in enumerate(axes) if axis not in child)


def _compile(tree: Formula) -> _Plan:
    free: dict[Symbol, int] = {}  # free variable -> its index in the plan's free tuple

    def index(sym: Symbol) -> int:
        return free.setdefault(sym, len(free))

    def walk(node: Formula, scope: dict[Symbol, int], depth: int) -> tuple[tuple[int, ...], list[tuple]]:
        """The node's axes as binder depths, ascending, and its instructions.

        scope maps each variable to the depth of its binder; depth counts
        the quantifiers above node.
        """
        if isinstance(node, RelationAtom):
            mem = isinstance(node, Membership)
            left, right = scope.get(node.left), scope.get(node.right)
            if left is None and right is None:
                return (), [(_CONST, 0, mem, index(node.left), index(node.right))]
            if left is None:
                return (right,), [(_ROW, 1, mem, index(node.left), True)]
            if right is None:
                return (left,), [(_ROW, 1, mem, index(node.right), False)]
            if left == right:
                return (left,), [(_DIAG, 1, mem)]
            return tuple(sorted((left, right))), [(_MATRIX, 2, mem, left > right)]
        if isinstance(node, PredicateAtom):
            raise PredicateNotExpanded(f"predicate atom {node.name} cannot be evaluated")
        if isinstance(node, Not):
            axes, code = walk(node.child, scope, depth)
            return axes, code + [(_NOT, len(axes))]
        if isinstance(node, Quantifier):
            axes, code = walk(node.child, {**scope, node.var: depth}, depth + 1)
            if not axes or axes[-1] != depth:
                return axes, code  # vacuous: over a nonempty domain the child is its own value
            return axes[:-1], code + [(_EXISTS if node.symbol is EXISTS else _FORALL, len(axes) - 1)]
        op = _BINARY_OPS[type(node)]
        left, left_code = walk(node.left, scope, depth)
        right, right_code = walk(node.right, scope, depth)
        if op in (_AND, _OR) and len(right_code) < len(left_code):  # the cheaper operand first
            left, left_code, right, right_code = right, right_code, left, left_code
        axes = tuple(sorted(set(left) | set(right)))
        k = len(axes)
        node_ins = (op, k, len(left), _steps(left, axes), len(right), _steps(right, axes))
        if op == _IFF:
            return axes, left_code + right_code + [node_ins]
        return axes, left_code + [(_SKIP, k, len(left), op, len(right_code) + 1)] + right_code + [node_ins]

    program = walk(tree, {}, 0)[1]
    return tuple(program), tuple(free), max(ins[1] for ins in program)  # every table is some instruction's


def _plan(tree: Formula) -> _Plan:
    try:
        return tree._plan
    except AttributeError:  # the tree's first evaluation
        Formula._plan.__set__(tree, _compile(tree))
        return tree._plan


# The spread masks of an insert whose result has at most _SMALL_CELLS
# cells, kept across evaluations.  Larger masks are built on every insert,
# one at a time, so the cache holds about 11 KB of masks after the Cantor
# sentence at 3 to 5 vertices and at most about 160 KB for any formula.
# Threads racing on a key build equal masks, and the dict keeps one.
_SMALL_CELLS = 4096
_MASKS: dict[tuple[int, int, int], tuple[tuple[int, int], ...]] = {}  # (n, high, low) -> its spread


def _repeat(bits: int, count: int, period: int) -> int:
    """count copies of bits, period apart, by shift-or doubling."""
    have = 1
    while 2 * have <= count:
        bits |= bits << have * period
        have *= 2
    if have < count:  # the last count - have copies, over ones already there
        bits |= bits << (count - have) * period
    return bits


def _spread(n: int, high: int, low: int):
    """Yield the (mask, shift) steps that move block h of low cells from h*low to h*n*low.

    Each bit b of h, top bit first, moves the block by (n-1)*low*2^b.
    Before that step the blocks sit in groups of 2^(b+1) whose starts are
    n*low*2^(b+1) apart, and the mask is the upper half of every group.
    """
    for b in reversed(range((high - 1).bit_length())):
        half = low << b  # the cells of 2^b blocks
        groups = -(-high >> b + 1)  # ceil(high / 2^(b+1))
        yield _repeat(((1 << half) - 1) << half, groups, 2 * n * half), (n - 1) * half


def _broadcast(table: int, cells: int, steps, size: list[int]) -> int:
    """Insert axes into a table; size[k] is the cell count of k axes.

    The table reads as blocks [high][low], and inserting an axis repeats
    every low block n times, giving [high][n][low].  Spread moves block h
    from h*low to h*n*low, which leaves (n-1)*low zero cells above it.
    Fill then copies each block into those cells by shift-or doubling;
    no copy reaches the next block, so fill needs no mask.
    """
    n = size[1]
    for position in steps:
        low = size[position]
        high = cells // low
        cells *= n
        if cells <= _SMALL_CELLS:
            key = (n, high, low)
            spread = _MASKS.get(key)
            if spread is None:
                spread = _MASKS[key] = tuple(_spread(n, high, low))
        else:
            spread = _spread(n, high, low)
        for mask, shift in spread:
            moved = table & mask
            table = table ^ moved | moved << shift
        table = _repeat(table, n, low)
    return table


def _forall(table: int, n: int, block: int) -> int:
    """Quantify the top axis universally: AND the n blocks of block cells."""
    if block == 1:  # the top axis is the only one
        return int(table == (1 << n) - 1)
    out = table
    for i in range(1, n):
        out &= table >> (i * block)
    return out


def _stack(rows, n: int) -> int:
    """The two-axis table whose block i, of n cells, is rows[i]."""
    table = 0
    for i, row in enumerate(rows):
        table |= row << i * n
    return table


def _run(program: tuple[tuple, ...], width: int, digraph: Digraph, values: list[int]) -> bool:
    n, masks = digraph.n, digraph.masks
    out: list[int] = []  # the out-masks, built when a table first reads them
    size = [n**k for k in range(width + 1)]
    full = [(1 << cells) - 1 for cells in size]
    matrices: dict[tuple[bool, bool], int] = {}  # (is_membership, left_is_top) -> its table
    broadcasts: dict[tuple[int, int, tuple[int, ...]], int] = {}  # (table, k, steps) -> its broadcast

    def widen(table: int, k: int, steps: tuple[int, ...]) -> int:
        key = (table, k, steps)
        wide = broadcasts.get(key)
        if wide is None:
            wide = broadcasts[key] = _broadcast(table, size[k], steps, size)
        return wide

    stack: list[int] = []
    push, pop = stack.append, stack.pop
    pc, end = 0, len(program)
    while pc < end:
        ins = program[pc]
        pc += 1
        op, k = ins[0], ins[1]
        if op >= _AND:
            if op == _SKIP:
                _, _, lk, node, jump = ins
                top = stack[-1]
                if (top == full[lk]) if node == _OR else not top:
                    if node != _AND:  # an all-false & operand is already the all-false table
                        stack[-1] = full[k]
                    pc += jump
            elif op <= _IFF:
                _, _, lk, lsteps, rk, rsteps = ins
                right = pop()
                left = pop()
                if lsteps:
                    left = widen(left, lk, lsteps)
                if rsteps:
                    right = widen(right, rk, rsteps)
                if op == _AND:
                    push(left & right)
                elif op == _OR:
                    push(left | right)
                elif op == _IMPLIES:
                    push((left ^ full[k]) | right)
                else:
                    push(left ^ right ^ full[k])
            elif op == _FORALL:
                push(_forall(pop(), n, size[k]))
            else:  # exists is not-forall-not
                push(_forall(pop() ^ full[k + 1], n, size[k]) ^ full[k])
        elif op == _NOT:
            push(pop() ^ full[k])
        elif op == _MATRIX:
            key = ins[2:]
            table = matrices.get(key)
            if table is None:
                mem, left_is_top = key
                if not mem:
                    table = int(("0" * n + "1") * n, 2)  # bits i*(n+1): the diagonal
                else:  # block i holds the in-mask of vertex i+1, or its out-mask when left is top
                    if left_is_top and not out:
                        out = transpose(masks)
                    table = _stack(out if left_is_top else masks, n)
                matrices[key] = table
            push(table)
        elif op == _DIAG:
            push(sum(1 << i for i, m in enumerate(masks) if m >> i & 1) if ins[2] else full[1])
        elif op == _ROW:
            _, _, mem, i, bound_is_left = ins
            c = values[i] - 1
            if not mem:
                push(1 << c)
            elif bound_is_left:
                if not out:
                    out = transpose(masks)
                push(out[c])
            else:
                push(masks[c])
        else:  # _CONST
            a, b = values[ins[3]], values[ins[4]]
            push(masks[b - 1] >> (a - 1) & 1 if ins[2] else int(a == b))
    return bool(pop())


def evaluate(digraph: Digraph, tree: Formula, env: Mapping[Symbol, int] | None = None) -> bool:
    """Decide whether the digraph satisfies the formula under env."""
    program, free, width = _plan(tree)
    env = env or {}
    unbound = [sym.token for sym in free if sym not in env]
    if unbound:
        raise UnboundVariable(f"variable {', '.join(sorted(unbound))} is not bound")
    for vertex in env.values():
        digraph.check_vertex(vertex)
    if digraph.n**width > MAX_TABLE_CELLS:
        raise SizeGuardExceeded(
            f"{width} quantified variables over {digraph.n} vertices need tables of"
            f" {digraph.n}^{width} cells, over the guard {MAX_TABLE_CELLS}"
        )
    return _run(program, width, digraph, [env[sym] for sym in free])


def evaluate_sentence(digraph: Digraph, tree: Formula) -> bool:
    """Evaluate a sentence; its value does not depend on any environment."""
    free = _plan(tree)[1]
    if free:
        raise NotASentence("the formula has a free variable occurrence")
    return evaluate(digraph, tree, {})
