import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from naive import naive_evaluate
from strategies import digraphs, formula_text, sentence_text
from zfcantor.cantor import emit_phi
from zfcantor.digraphs import Digraph, all_loops, edgeless
from zfcantor.formulas import parse_text
from zfcantor.semantics import (
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
        with pytest.raises(UnboundVariable, match="x2"):  # even where short-circuiting skips it
            evaluate(edgeless(1), parse_text("( ( x1 = x1 ) | ( x2 = x2 ) )"), {X1: 1})

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
@example(Digraph(2, frozenset({(1, 1)})), "( E x1 ! ( x1 in x1 ) )")  # memo keyed by x1's vertex
def test_cache_does_not_change_values(d, text):
    tree = parse_text(text)
    env = {set_var(i): 1 for i in range(1, 6)}
    expected = naive_evaluate(d, tree, env)
    assert evaluate(d, tree, env) == expected
