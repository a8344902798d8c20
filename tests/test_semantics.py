import copy
import pickle
import random
import sys
import threading
import time

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from naive import naive_broadcast, naive_evaluate
from strategies import digraphs, formula_text, sentence_text
from zfcantor import semantics
from zfcantor.analysis import DigraphAnalysis
from zfcantor.cantor import emit_phi
from zfcantor.digraphs import Digraph, SizeGuardExceeded, VertexOutOfRange, all_loops, edgeless
from zfcantor.formulas import parse_text
from zfcantor.semantics import (
    MAX_TABLE_CELLS,
    NotASentence,
    PredicateNotExpanded,
    UnboundVariable,
    evaluate,
    evaluate_sentence,
)
from zfcantor.symbols import PredicateSignature, new_var, set_var

X1, X2 = set_var(1), set_var(2)


class TestEvaluate:
    def test_no_arrows_no_membership(self):
        assert evaluate(edgeless(1), parse_text("( x1 in x1 )"), {X1: 1}) is False

    def test_loop_gives_membership(self):
        assert evaluate(all_loops(1), parse_text("( x1 in x1 )"), {X1: 1}) is True

    def test_existential_witness(self):
        d = Digraph(2, frozenset({(1, 2)}))
        assert evaluate(d, parse_text("( E x1 ( x1 in x2 ) )"), {X2: 2}) is True
        assert evaluate(d, parse_text("( E x1 ( x1 in x2 ) )"), {X2: 1}) is False

    def test_equality_is_vertex_identity(self):
        d = edgeless(2)
        assert evaluate(d, parse_text("( x1 = x2 )"), {X1: 1, X2: 1}) is True
        assert evaluate(d, parse_text("( x1 = x2 )"), {X1: 1, X2: 2}) is False

    def test_connectives(self):
        d = edgeless(2)
        env = {X1: 1, X2: 2}
        assert evaluate(d, parse_text("( ( x1 = x1 ) -> ( x1 = x2 ) )"), env) is False
        assert evaluate(d, parse_text("( ( x1 = x2 ) -> ( x1 = x2 ) )"), env) is True
        assert evaluate(d, parse_text("( ( x1 = x2 ) <-> ( x2 = x1 ) )"), env) is True
        assert evaluate(d, parse_text("( ( x1 = x1 ) & ! ( x1 = x2 ) )"), env) is True
        assert evaluate(d, parse_text("( ( x1 = x2 ) | ( x2 = x2 ) )"), env) is True

    def test_unbound_variable_is_an_error(self):
        with pytest.raises(UnboundVariable):
            evaluate(edgeless(1), parse_text("( x1 in x2 )"), {X1: 1})
        with pytest.raises(UnboundVariable, match="x2"):  # even where the other disjunct decides
            evaluate(edgeless(1), parse_text("( ( x1 = x1 ) | ( x2 = x2 ) )"), {X1: 1})

    def test_out_of_range_vertex_is_an_error(self):
        tree = parse_text("( x1 = x1 )")
        for env in ({X1: -5}, {X1: 0}, {X1: 3}, {X1: 7, X2: 7}, {X1: 1, X2: 3}):
            with pytest.raises(VertexOutOfRange):
                evaluate(edgeless(2), tree, env)
        assert evaluate(edgeless(2), tree, {X1: 2}) is True

    def test_new_variables_evaluate_from_environment(self):
        d = Digraph(2, frozenset({(1, 2)}))
        tree = parse_text("( ?x in ?y )")
        assert evaluate(d, tree, {new_var("x"): 1, new_var("y"): 2}) is True

    def test_predicate_atom_is_rejected(self):
        tree = parse_text("SUS ( ?x ; ?y )", [PredicateSignature("SUS", 2)])
        with pytest.raises(PredicateNotExpanded):
            evaluate(edgeless(1), tree, {new_var("x"): 1, new_var("y"): 1})
        tree = parse_text("( ( ?x = ?x ) | SUS ( ?x ; ?y ) )", [PredicateSignature("SUS", 2)])
        with pytest.raises(PredicateNotExpanded):
            evaluate(edgeless(1), tree, {new_var("x"): 1, new_var("y"): 1})

    def test_a_predicate_atom_is_named_before_a_free_variable(self):
        tree = parse_text("( SUS ( ?x ; ?y ) & ( x1 in x1 ) )", [PredicateSignature("SUS", 2)])
        with pytest.raises(PredicateNotExpanded, match="predicate atom SUS cannot be evaluated"):
            evaluate_sentence(edgeless(1), tree)

    def test_a_rejected_tree_keeps_no_plan(self):
        tree = parse_text("( E x1 SUS ( x1 ; x1 ) )", [PredicateSignature("SUS", 2)])
        for _ in range(2):
            with pytest.raises(PredicateNotExpanded, match="predicate atom SUS cannot be evaluated"):
                evaluate_sentence(edgeless(2), tree)
            assert not hasattr(tree, "_plan")


# Each text reads the cell (x3, x4) of the membership relation through one
# table shape: both sides bound, one side bound (left, then right), one
# quantified variable on both sides (only the diagonal), and two
# quantified variables in either binder order.
MEMBERSHIP_CELL_TEXTS = [
    "( x3 in x4 )",
    "( E x2 ( ( x3 in x2 ) & ( x2 = x4 ) ) )",
    "( E x1 ( ( x1 in x4 ) & ( x1 = x3 ) ) )",
    "( E x1 ( ( x1 in x1 ) & ( ( x1 = x3 ) & ( x1 = x4 ) ) ) )",
    "( E x1 ( E x2 ( ( x1 in x2 ) & ( ( x1 = x3 ) & ( x2 = x4 ) ) ) ) )",
    "( E x2 ( E x1 ( ( x1 in x2 ) & ( ( x1 = x3 ) & ( x2 = x4 ) ) ) ) )",
]


def test_every_table_shape_reads_membership_cell_by_cell():
    trees = [parse_text(text) for text in MEMBERSHIP_CELL_TEXTS]
    pairs = [(u, v) for u in range(1, 4) for v in range(1, 4)]
    for counter in range(2**9):
        arrows = {pair for k, pair in enumerate(pairs) if counter >> k & 1}
        d = Digraph(3, arrows)
        for a, b in pairs:
            env = {set_var(3): a, set_var(4): b}
            values = [evaluate(d, tree, env) for tree in trees]
            member = (a, b) in arrows
            assert values == [member, member, member, member and a == b, member, member], (arrows, a, b)


class TestEvaluateSentence:
    def test_one_vertex_edgeless_satisfies_the_cantor_sentence(self):
        assert evaluate_sentence(edgeless(1), emit_phi()) is True

    def test_all_loops_violate_the_cantor_sentence(self):
        assert evaluate_sentence(all_loops(2), emit_phi()) is False

    def test_reflexivity_holds_everywhere(self):
        tree = parse_text("( A x1 ( x1 = x1 ) )")
        for d in (edgeless(1), all_loops(3), Digraph(2, frozenset({(1, 2)}))):
            assert evaluate_sentence(d, tree) is True

    def test_open_formula_rejected(self):
        with pytest.raises(NotASentence):
            evaluate_sentence(edgeless(1), parse_text("( x1 in x1 )"))

    def test_sentence_agrees_with_the_semantic_method_beyond_n4(self):
        # every third digraph is redrawn until it is non-Cantor; densities vary per draw
        start = time.perf_counter()
        rng = random.Random(20251018)
        phi = emit_phi()
        verdicts = []
        for n, count in ((5, 40), (6, 5), (7, 5), (8, 5)):
            for i in range(count):
                while True:
                    density = rng.choice((0.15, 0.3, 0.45, 0.6))
                    d = Digraph(n, frozenset(
                        (u, v) for u in range(1, n + 1) for v in range(1, n + 1) if rng.random() < density
                    ))
                    semantic = DigraphAnalysis(d).is_cantor()
                    if i % 3 or not semantic:
                        break
                assert evaluate_sentence(d, phi) == semantic, d
                verdicts.append(semantic)
        assert verdicts.count(False) * 4 >= len(verdicts)
        assert time.perf_counter() - start < 2.0


class TestTableGuard:
    def test_one_axis_at_the_bound(self):
        tree = parse_text("( E x1 ( x1 = x1 ) )")
        assert evaluate_sentence(edgeless(MAX_TABLE_CELLS - 1), tree) is True
        assert evaluate_sentence(edgeless(MAX_TABLE_CELLS), tree) is True
        with pytest.raises(SizeGuardExceeded):
            evaluate_sentence(edgeless(MAX_TABLE_CELLS + 1), tree)

    def test_four_axes_at_the_bound(self):
        tree = parse_text("( A x1 ( A x2 ( E x3 ( E x4 ( ( x1 = x2 ) -> ( x3 in x4 ) ) ) ) ) )")
        assert 32**4 == MAX_TABLE_CELLS
        assert evaluate_sentence(edgeless(32), tree) is False
        assert evaluate_sentence(all_loops(32), tree) is True
        with pytest.raises(SizeGuardExceeded):
            evaluate_sentence(edgeless(33), tree)

    def test_guard_comes_after_the_variable_checks(self):
        with pytest.raises(UnboundVariable):
            evaluate(edgeless(MAX_TABLE_CELLS + 1), parse_text("( E x1 ( x1 = x2 ) )"), {})
        assert evaluate(edgeless(MAX_TABLE_CELLS + 1), parse_text("( x1 = x2 )"), {X1: 1, X2: 1}) is True


def test_threads_racing_a_first_evaluation_agree():
    # Threads race on the first evaluations of 100 new trees: two may compile a tree's plan
    # at once, and whichever plan the tree keeps must give the right value.
    d = Digraph(3, frozenset({(1, 2), (2, 3), (3, 3)}))
    texts = [f"( E x1 ( A x2 ( ( x1 in x2 ) | ( x2 = x{i % 5 + 1} ) ) ) )" for i in range(100)]
    env = {set_var(i): i % 3 + 1 for i in range(1, 6)}
    errors = []

    def work(offset):
        try:
            for i in range(300):
                tree = parse_text(texts[(offset + i) % len(texts)])
                if evaluate(d, tree, env) != naive_evaluate(d, tree, env):
                    errors.append(tree)
        except Exception as exc:  # reported below; a thread cannot fail the test itself
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k * 25,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


@given(digraphs(), sentence_text(), st.integers(0, 10**6))
def test_environment_irrelevance_for_sentences(d, text, salt):
    tree = parse_text(text)
    env_a = {set_var(i): (salt + i) % d.n + 1 for i in range(1, 6)}
    env_b = {set_var(i): (salt * 7 + 3 * i) % d.n + 1 for i in range(1, 6)}
    assert evaluate(d, tree, env_a) == evaluate(d, tree, env_b)
    assert evaluate(d, tree, env_a) == evaluate_sentence(d, tree)


@given(digraphs(), formula_text(max_leaves=5), st.integers(1, 5))
def test_quantifier_duality(d, text, index):
    body = parse_text(text)
    env = {set_var(i): 1 for i in range(1, 6)}
    negated_exists = parse_text(f"! ( E x{index} {text} )")
    forall_negated = parse_text(f"( A x{index} ! {text} )")
    assert evaluate(d, negated_exists, env) == evaluate(d, forall_negated, env)


@given(digraphs(), formula_text(max_leaves=6))
@example(Digraph(2, frozenset({(1, 1)})), "( E x1 ! ( x1 in x1 ) )")
@example(Digraph(2, frozenset({(2, 2)})), "( E x1 ( A x1 ( x1 in x1 ) ) )")  # re-quantified x1, also in env
@example(Digraph(2, frozenset({(1, 1)})), "( A x2 ( x1 in x1 ) )")  # vacuous quantifier
@example(Digraph(2, frozenset({(1, 1)})), "( x1 in x2 )")  # bare atom
@example(Digraph(2, frozenset({(1, 1)})), "( x1 = x1 )")
@example(  # one membership atom read at two layouts: x3 inserted above it, then x2 between
    Digraph(3, frozenset({(1, 2), (2, 3), (3, 3)})),
    "( E x1 ( E x2 ( A x3 ( ( ( x1 in x2 ) & ( x3 in x3 ) ) | ( ( x1 in x3 ) & ( x2 = x2 ) ) ) ) ) )",
)
@example(  # atoms on both sides of one connective, each broadcast at a different position
    Digraph(3, frozenset({(1, 2), (2, 3), (1, 1)})),
    "( A x1 ( E x2 ( A x3 ( ( x1 in x2 ) | ( x3 in x1 ) ) ) ) )",
)
@example(  # an all-false & operand over one axis decides a node over two
    Digraph(2, frozenset({(1, 2)})), "( E x1 ( E x2 ( ( x1 in x1 ) & ( x2 in x1 ) ) ) )",
)
@example(  # an all-false -> antecedent over one axis: the node is true at both axes
    Digraph(2, frozenset({(1, 2)})), "( A x1 ( A x2 ( ( x1 in x1 ) -> ( x2 in x1 ) ) ) )",
)
@example(  # an all-true | operand over one axis: the node is true at both axes
    Digraph(2, frozenset({(1, 2)})), "( A x1 ( A x2 ( ( x1 = x1 ) | ( x2 in x1 ) ) ) )",
)
@example(  # the cheaper right operand of & runs first and is broadcast where the left was
    Digraph(3, frozenset({(1, 2), (2, 2), (3, 1)})),
    "( E x1 ( E x2 ( A x3 ( ( ( x3 in x2 ) | ( x2 in x1 ) ) & ( x3 in x1 ) ) ) ) )",
)
def test_plans_do_not_change_values(d, text):
    tree = parse_text(text)
    env = {set_var(i): 1 for i in range(1, 6)}
    expected = naive_evaluate(d, tree, env)
    assert evaluate(d, tree, env) == expected


def _size(program, i):
    """The instruction count of the subtree whose table instruction i makes."""
    need, j = 1, i
    while need:
        op = program[j][0]
        if op != semantics._SKIP:  # a skip that does not jump leaves the stack as it was
            pops = 2 if semantics._AND <= op <= semantics._IFF else 0 if op <= semantics._MATRIX else 1
            need += pops - 1
        j -= 1
    return i - j


class _Counted(tuple):
    """A program that counts the instructions an evaluation reads."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return tuple.__getitem__(self, i)


def _inserts(k: int, most: int) -> list[tuple[int, ...]]:
    """Every one- and two-position insert into k axes that ends at most axes."""
    one = [(p,) for p in range(k + 1)]
    two = [(p, q) for p in range(k + 1) for q in range(p + 1, k + 2)]
    return [steps for steps in one + two if k + len(steps) <= most]


class TestBroadcast:
    """Spread and fill agree with a cell-by-cell oracle, and only small masks outlive an evaluation."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_insert_matches_the_oracle(self, n):
        rng = random.Random(n)
        size = [n**k for k in range(6)]
        for k in range(5):
            for steps in _inserts(k, 5):
                for table in (rng.getrandbits(size[k]), rng.getrandbits(size[k]), (1 << size[k]) - 1):
                    expected = naive_broadcast(table, n, k, steps)
                    assert semantics._broadcast(table, size[k], steps, size) == expected, (n, k, steps)

    def test_sampled_inserts_at_16_vertices_match_the_oracle(self):
        rng = random.Random(16)
        size = [16**k for k in range(6)]
        cases = [(k, steps) for k in range(4) for steps in _inserts(k, 4)]
        for k, steps in [(3, (0,)), (2, (1, 3)), *rng.sample(cases, 4)]:
            table = rng.getrandbits(size[k])
            assert semantics._broadcast(table, size[k], steps, size) == naive_broadcast(table, 16, k, steps), (k, steps)

    def test_the_mask_cache_stays_small_over_phi_from_6_to_16_vertices(self, monkeypatch):
        monkeypatch.setattr(semantics, "_MASKS", {})
        phi = emit_phi()
        for n in range(6, 17):
            assert evaluate_sentence(all_loops(n), phi) == DigraphAnalysis(all_loops(n)).is_cantor()
        cache = semantics._MASKS
        assert cache and all(n * high * low <= semantics._SMALL_CELLS for n, high, low in cache)
        bits = sum(mask.bit_length() for spread in cache.values() for mask, _ in spread)
        assert bits <= 2**19  # 64 KB; a 5-axis mask at 16 vertices alone has 2^20 bits


class TestLazyPlan:
    """A binary node skips the operand its first table decides; a table is broadcast once per layout."""

    def test_phi_plan_keeps_width_5_and_matrix_atoms_carry_no_layout(self):
        program, free, width = semantics._plan(emit_phi())
        assert (free, width) == ((), 5)
        matrices = [ins for ins in program if ins[0] == semantics._MATRIX]
        assert matrices and all(len(ins) == 4 for ins in matrices)

    def test_each_skip_lands_past_its_node(self):
        program = semantics._plan(emit_phi())[0]
        skips = [i for i, ins in enumerate(program) if ins[0] == semantics._SKIP]
        binary = [ins for ins in program if semantics._AND <= ins[0] <= semantics._IFF]
        assert len(skips) == sum(ins[0] != semantics._IFF for ins in binary)
        for i in skips:
            _, k, lk, op, jump = program[i]
            node = program[i + jump]
            assert node[:3] == (op, k, lk) and op != semantics._IFF
            assert jump - 1 == _size(program, i + jump - 1)  # exactly the second operand is skipped

    def test_and_and_or_run_the_cheaper_operand_first(self):
        program = semantics._plan(emit_phi())[0]
        for i, ins in enumerate(program):
            if ins[0] == semantics._SKIP and ins[3] in (semantics._AND, semantics._OR):
                assert _size(program, i - 1) <= _size(program, i + ins[4] - 1)
        tree = parse_text("( ( ( x1 in x2 ) & ( x2 in x1 ) ) | ( x1 = x2 ) )")
        assert evaluate(edgeless(2), tree, {X1: 1, X2: 1})
        assert tree._plan[0][0] == (semantics._CONST, 0, False, 0, 1)  # the equality, moved first

    def test_one_evaluation_never_broadcasts_a_layout_twice(self, monkeypatch):
        phi, calls = emit_phi(), []
        broadcast = semantics._broadcast
        monkeypatch.setattr(semantics, "_broadcast", lambda *args: calls.append(args[:3]) or broadcast(*args))
        rng = random.Random(33)
        graphs = [Digraph.from_masks([3, 5, 6, 1]), all_loops(4), edgeless(3)]
        graphs += [Digraph.from_masks(rng.randrange(2**n) for _ in range(n)) for n in (3, 4, 5, 6) for _ in range(5)]
        for d in graphs:
            calls.clear()
            assert evaluate_sentence(d, phi) == DigraphAnalysis(d).is_cantor()
            assert calls and len(set(calls)) == len(calls), d
        calls.clear()
        evaluate_sentence(graphs[0], phi)
        first = list(calls)
        calls.clear()
        evaluate_sentence(graphs[0], phi)
        assert calls == first  # the broadcast tables live for one evaluation

    def test_phi_on_edgeless_16_skips_most_of_the_plan(self):
        program, _, width = semantics._plan(emit_phi())
        counted = _Counted(program)
        assert semantics._run(counted, width, edgeless(16), []) is True
        assert counted.reads * 4 < len(program)
        counted = _Counted(program)
        assert semantics._run(counted, width, all_loops(3), []) is False
        assert counted.reads > len(program) // 2

    def test_a_predicate_beside_relation_atoms_still_names_itself(self):
        sus = [PredicateSignature("SUS", 2)]
        texts = [
            "( A x1 ( A x2 ( ( x1 in x2 ) & SUS ( x1 ; x2 ) ) ) )",  # the predicate emits no instruction
            "( A x1 ( A x2 ( A x3 ( ( x1 in x2 ) & ( SUS ( x3 ; ?y ) | ( x2 = x3 ) ) ) ) ) )",
        ]
        for text in texts:
            with pytest.raises(PredicateNotExpanded, match="predicate atom SUS cannot be evaluated"):
                evaluate(edgeless(2), parse_text(text, sus), {new_var("y"): 1})


def test_a_dropped_tree_never_lends_its_plan():
    # Each tree keeps its own plan, so a new tree that reuses a dropped one's id compiles afresh.
    d = Digraph(3, frozenset({(1, 2), (2, 3), (3, 3)}))
    env = {set_var(i): i % 3 + 1 for i in range(1, 6)}
    texts = [f"( E x{i} ( x{i} in x{j} ) )" for i in range(1, 6) for j in range(1, 6)]
    texts += [f"( A x{i} ( x{j} = x{i} ) )" for i in range(1, 6) for j in range(1, 6)]
    texts += [f"! ( x{i} in x{j} )" for i in range(1, 6) for j in range(1, 6)]
    for text in texts * 2:
        tree = parse_text(text)
        assert evaluate(d, tree, env) == naive_evaluate(d, tree, env), text
        del tree


class TestPlanOnTheTree:
    def test_evaluation_keeps_no_reference_to_the_tree(self):
        d = Digraph(3, frozenset({(1, 2), (2, 3), (3, 3)}))
        tree = parse_text("( E x1 ( A x2 ( ( x1 in x2 ) | ( x2 = x3 ) ) ) )")
        env = {set_var(3): 2}
        expected = naive_evaluate(d, tree, env)
        before = sys.getrefcount(tree)
        assert evaluate(d, tree, env) == expected
        assert sys.getrefcount(tree) == before

    def test_each_tree_compiles_once(self, monkeypatch):
        # more trees than any bounded cache would hold, each evaluated on many digraphs
        rng = random.Random(19)
        graphs = [Digraph.from_masks(rng.randrange(16) for _ in range(4)) for _ in range(20)]
        trees = [parse_text("! " * i + "( E x1 ( A x2 ( x2 in x1 ) ) )") for i in range(100)]
        calls = []
        compile_plan = semantics._compile
        monkeypatch.setattr(semantics, "_compile", lambda tree: calls.append(tree) or compile_plan(tree))
        values = [evaluate_sentence(graphs[k % 20], trees[k % 100]) for k in range(2000)]
        assert len(calls) == 100
        assert values == [naive_evaluate(graphs[k % 20], trees[k], {}) for k in range(100)] * 20

    def test_a_copy_and_a_pickle_compile_their_own_plans(self):
        tree = parse_text("( A x1 ( ( x1 in x2 ) -> ( E x3 ( ( x3 in x1 ) & ! ( x3 = x2 ) ) ) ) )")
        graphs, env = (edgeless(2), all_loops(2), Digraph(2, frozenset({(1, 2)}))), {X2: 2}
        values = [evaluate(d, tree, env) for d in graphs]
        for clone in (copy.copy(tree), pickle.loads(pickle.dumps(tree))):
            assert clone is not tree and clone == tree
            assert (hash(clone), repr(clone)) == (hash(tree), repr(tree))
            assert [evaluate(d, clone, env) for d in graphs] == values
            assert clone._plan == tree._plan and clone._plan is not tree._plan
