from itertools import combinations

import pytest
from hypothesis import given

from strategies import formula_text
from zfcantor.digraphs import all_loops
from zfcantor.formulas import (
    Equality,
    Membership,
    Not,
    NotAFormula,
    ArityMismatch,
    MAX_DEPTH,
    MalformedVariable,
    NestingTooDeep,
    Occurrence,
    PredicateAtom,
    UnknownPredicate,
    UnknownToken,
    bracket_subword,
    classify,
    count,
    good_bracketing,
    is_sentence,
    occurrences,
    parse,
    parse_text,
    render,
    render_text,
    subformulas,
    tokenize,
    word_diff,
)
from zfcantor.semantics import evaluate
from zfcantor.symbols import (
    LPAREN,
    MEMBERSHIP,
    NEGATION,
    PredicateSignature,
    RPAREN,
    SymbolKind,
    new_var,
    set_var,
)

SUS2 = [PredicateSignature("SUS", 2)]


class TestTokenize:
    def test_atomic_word(self):
        word = tokenize("( x1 in x2 )")
        assert len(word) == 5
        assert word == (LPAREN, set_var(1), MEMBERSHIP, set_var(2), RPAREN)

    def test_empty_text_is_the_empty_word(self):
        assert tokenize("") == ()
        assert count((), NEGATION) == 0

    def test_index_zero_rejected(self):
        with pytest.raises(MalformedVariable):
            tokenize("( x0 in x1 )")

    def test_leading_zero_rejected(self):
        with pytest.raises(MalformedVariable):
            tokenize("x01")

    def test_bad_new_variable(self):
        with pytest.raises(MalformedVariable):
            tokenize("?w")
        with pytest.raises(MalformedVariable):
            tokenize("?y0")

    def test_unknown_token_reports_position(self):
        with pytest.raises(UnknownToken) as exc:
            tokenize("( x1 bogus x2 )")
        assert exc.value.position == 6

    def test_self_delimiting_brackets(self):
        assert tokenize("(x1 in x2)") == tokenize("( x1 in x2 )")
        assert tokenize("SUS(?x;?y)") == tokenize("SUS ( ?x ; ?y )")

    def test_render_text_round_trip(self):
        text = "( A x1 ( ( x1 in ?x ) -> ( x1 in ?y ) ) )"
        assert render_text(tokenize(text)) == text


class TestParse:
    def test_atomic_membership(self):
        tree = parse(tokenize("( x1 in x2 )"))
        assert isinstance(tree, Membership)
        assert tree.span == (1, 5)

    def test_negation_length(self):
        tree = parse(tokenize("! ( x1 = x1 )"))
        assert isinstance(tree, Not)
        assert len(tree) == 6
        assert isinstance(tree.child, Equality)

    def test_unbalanced_bracket(self):
        with pytest.raises(NotAFormula):
            parse(tokenize("( x1 in x2"))

    def test_predicate_atom(self):
        tree = parse(tokenize("SUS ( ?x ; ?y )"), SUS2)
        assert isinstance(tree, PredicateAtom)
        assert len(tree) == 6 == 2 * 2 + 2
        assert tree.args == (new_var("x"), new_var("y"))

    def test_unknown_predicate(self):
        with pytest.raises(UnknownPredicate):
            parse(tokenize("SUS ( ?x ; ?y )"))

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            parse(tokenize("SUS ( ?x )"), SUS2)
        with pytest.raises(ArityMismatch):
            parse(tokenize("SUS ( ?x ; ?y ; ?z )"), SUS2)

    def test_new_variable_cannot_be_quantified(self):
        with pytest.raises(NotAFormula):
            parse(tokenize("( E ?x ( ?x = ?x ) )"))

    def test_empty_word_is_not_a_formula(self):
        with pytest.raises(NotAFormula):
            parse(())

    def test_trailing_symbols_rejected(self):
        with pytest.raises(NotAFormula):
            parse(tokenize("( x1 = x1 ) ( x2 = x2 )"))

    def test_quantifier_needs_set_variable(self):
        with pytest.raises(NotAFormula):
            parse(tokenize("( A in ( x1 = x1 ) )"))

    @pytest.mark.parametrize(
        "nest",
        [
            lambda k: "! " * k + "( x1 = x1 )",
            lambda k: "( E x1 " * k + "( x1 = x1 )" + " )" * k,
            lambda k: "( ( x1 = x1 ) & " * k + "( x1 = x1 )" + " )" * k,
        ],
        ids=["negations", "quantifiers", "conjunctions"],
    )
    def test_nesting_depth_guard(self, nest):
        word = tokenize(nest(MAX_DEPTH))
        tree = parse(word)
        assert render(tree) == word
        assert evaluate(all_loops(2), tree, {set_var(1): 1}) is True
        with pytest.raises(NestingTooDeep, match=f"deeper than {MAX_DEPTH}"):
            parse(tokenize(nest(MAX_DEPTH + 1)))


class TestClassify:
    def test_conjunction(self):
        label, parts, var = classify(parse_text("( ( x1 in x2 ) & ( x1 = x2 ) )"))
        assert label == "conjunction"
        assert var is None
        assert isinstance(parts[0], Membership) and isinstance(parts[1], Equality)

    def test_atomic(self):
        assert classify(parse_text("( x3 = x3 )"))[0] == "atomic"

    def test_universal_with_bound_variable(self):
        label, parts, var = classify(parse_text("( A x4 ( x4 = x4 ) )"))
        assert label == "universal"
        assert var == set_var(4)
        assert len(parts) == 1


class TestOccurrences:
    def test_expansion_like_formula(self):
        tree = parse_text("( A x1 ( ( x1 in ?x ) -> ( x1 in ?y ) ) )")
        occs = occurrences(tree)
        for occ in occs:
            if occ.variable.kind is SymbolKind.SET_VAR:
                assert occ.bound
            else:
                assert not occ.bound
        assert not is_sentence(tree)

    def test_open_atom(self):
        tree = parse_text("( x1 in x2 )")
        assert [occ.bound for occ in occurrences(tree)] == [False, False]
        assert not is_sentence(tree)

    def test_closed_formula(self):
        tree = parse_text("( E x1 ( x1 = x1 ) )")
        assert occurrences(tree) == [
            Occurrence(set_var(1), 3, True),
            Occurrence(set_var(1), 5, True),
            Occurrence(set_var(1), 7, True),
        ]
        assert is_sentence(tree)

    def test_shadowing_inner_binder(self):
        # the x1 after the inner binder is bound there; the leading one is free
        tree = parse_text("( ( x1 = x1 ) & ( E x1 ( x1 = x2 ) ) )")
        occs = occurrences(tree)
        assert [occ.bound for occ in occs] == [False, False, True, True, False]


class TestGoodBracketing:
    def brackets(self, text):
        return tokenize(text)

    def test_nested(self):
        assert good_bracketing(self.brackets("( ( ) )")) == frozenset({(1, 4), (2, 3)})

    def test_sequential(self):
        assert good_bracketing(self.brackets("( ) ( )")) == frozenset({(1, 2), (3, 4)})

    def test_no_bracketing(self):
        assert good_bracketing(self.brackets(") (")) is None
        assert good_bracketing(self.brackets("( ( )")) is None

    def test_empty_word(self):
        assert good_bracketing(()) == frozenset()

    def test_non_bracket_rejected(self):
        with pytest.raises(ValueError):
            good_bracketing(tokenize("( x1 )"))


class TestWordDiff:
    def test_equal_words(self):
        assert word_diff(tokenize("( x1 = x1 )"), tokenize("( x1 = x1 )")) == []

    def test_single_difference(self):
        diffs = word_diff(tokenize("( x1 = x1 )"), tokenize("( x1 = x2 )"))
        assert diffs == [(4, set_var(1), set_var(2))]

    def test_length_difference(self):
        diffs = word_diff(tokenize("( x1 = x1 )"), tokenize("( x1 = x1 ) )"))
        assert diffs == [(6, None, RPAREN)]


ATOM_NODES = (Membership, Equality, PredicateAtom)


@given(formula_text(new_vars=True))
def test_round_trip(text):
    word = tokenize(text)
    tree = parse(word)
    assert render(tree) == word
    assert render_text(word) == text


@given(formula_text(new_vars=True))
def test_unique_reading(text):
    tree = parse(tokenize(text))
    label, parts, var = classify(tree)
    assert label in (
        "atomic",
        "negation",
        "implication",
        "biconditional",
        "conjunction",
        "disjunction",
        "existential",
        "universal",
    )
    for part in parts:
        reparsed = parse(render(part))
        assert render(reparsed) == render(part)
        assert classify(reparsed)[0] == classify(part)[0]


@given(formula_text(new_vars=True))
def test_length_recurrences(text):
    tree = parse(tokenize(text))
    for node in subformulas(tree):
        label, parts, _ = classify(node)
        if isinstance(node, PredicateAtom):
            assert len(node) == 2 * len(node.args) + 2
        elif label == "atomic":
            assert len(node) == 5
        elif label == "negation":
            assert len(node) == 1 + len(parts[0])
        elif label in ("existential", "universal"):
            assert len(node) == 4 + len(parts[0])
        else:
            assert len(node) == 3 + len(parts[0]) + len(parts[1])


@given(formula_text())
def test_subformula_geometry(text):
    tree = parse(tokenize(text))
    spans = [node.span for node in subformulas(tree)]
    for (a1, b1), (a2, b2) in combinations(spans, 2):
        disjoint = b1 < a2 or b2 < a1
        nested = (a1 <= a2 and b2 <= b1) or (a2 <= a1 and b1 <= b2)
        assert disjoint or nested
    atom_spans = [node.span for node in subformulas(tree) if isinstance(node, ATOM_NODES)]
    for (a1, b1), (a2, b2) in combinations(atom_spans, 2):
        assert b1 < a2 or b2 < a1


@given(formula_text())
def test_generating_sequence(text):
    word = tokenize(text)
    tree = parse(word)
    # distinct subformula words ordered by length form a generating sequence
    seen = {}
    for node in subformulas(tree):
        seen.setdefault(render(node), node)
        l, m = node.span
        assert render(node) == word[l - 1 : m]  # contiguous subword
    ordered = sorted(seen, key=len)
    position = {w: i for i, w in enumerate(ordered)}
    for w in ordered:
        _, parts, _ = classify(seen[w])
        for part in parts:
            assert position[render(part)] < position[w]


@given(formula_text(new_vars=True))
def test_bracket_subword_has_good_bracketing(text):
    assert good_bracketing(bracket_subword(tokenize(text))) is not None
