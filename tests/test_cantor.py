from pathlib import Path

from zfcantor.cantor import (
    EXPECTED_LENGTHS,
    PREDICATE_NAMES,
    SENTENCE_LENGTH,
    builtin_scheme,
    emit_expansions,
    emit_phi,
)
from zfcantor.formulas import (
    Forall,
    classify,
    count,
    is_sentence,
    parse,
    render,
    tokenize,
    word_diff,
)
from zfcantor.symbols import NEGATION, SymbolKind, set_var

GOLDEN = Path(__file__).parent / "golden"

# deviation of the generated sentence from the transcribed printed one
RESIDUAL_DIFFS = [
    (165, set_var(18), "?y"),
    (203, set_var(19), "?x"),
]


def read_golden(name):
    text = (GOLDEN / name).read_text()
    payload = "\n".join(line for line in text.splitlines() if not line.startswith("#"))
    return tokenize(payload)


def test_expected_length_table():
    assert EXPECTED_LENGTHS == (17, 17, 29, 25, 37, 117, 165, 325, 485)


def test_expansion_lengths_and_negations():
    named = emit_expansions()
    assert [ne.name for ne in named] == list(PREDICATE_NAMES)
    for i, ne in enumerate(named, start=1):
        word = render(ne.formula)
        assert ne.index == i
        assert len(word) == ne.expected_length == EXPECTED_LENGTHS[i - 1]
        assert count(word, NEGATION) == ne.expected_negations == 0


def test_fourth_expansion_is_the_two_element_predicate():
    named = emit_expansions()[3]
    assert named.name == "DO"
    assert named.expected_length == 25


def test_sentence_length_and_negation_count():
    word = render(emit_phi())
    assert len(word) == SENTENCE_LENGTH == 494
    assert count(word, NEGATION) == 1


def test_sentence_is_a_sentence():
    assert is_sentence(emit_phi())


def test_sentence_tree_is_the_parse_of_its_word():
    # spans included: the splice moves every span of the SUR expansion into place
    assert parse(render(emit_phi())) == emit_phi()


def test_sentence_is_universal_over_x18():
    tree = emit_phi()
    label, _, var = classify(tree)
    assert label == "universal"
    assert isinstance(tree, Forall) and var == set_var(18)


def test_sentence_alphabet_is_pure():
    word = render(emit_phi())
    kinds = {sym.kind for sym in word}
    assert SymbolKind.NEW_VAR not in kinds
    assert SymbolKind.PREDICATE not in kinds
    assert SymbolKind.SEMICOLON not in kinds


def test_sentence_uses_exactly_indices_1_to_19():
    indices = {
        sym.index for sym in render(emit_phi()) if sym.kind is SymbolKind.SET_VAR
    }
    assert indices == set(range(1, 20))


def test_builtin_scheme_is_strict():
    assert builtin_scheme().mode == "strict"


def test_emit_is_idempotent():
    assert render(emit_phi()) == render(emit_phi())
    first = [render(ne.formula) for ne in emit_expansions()]
    second = [render(ne.formula) for ne in emit_expansions()]
    assert first == second


class TestGoldenFiles:
    generated = {
        "expansion_sin.txt": 3,
        "expansion_dou.txt": 5,
        "expansion_opa.txt": 6,
        "expansion_rel.txt": 7,
        "expansion_fun.txt": 8,
        "expansion_sur.txt": 9,
    }

    def test_printed_expansions_match_exactly(self):
        named = emit_expansions()
        for filename, index in self.generated.items():
            golden = read_golden(filename)
            assert word_diff(render(named[index - 1].formula), golden) == [], filename

    def test_printed_sentence_deviates_at_the_two_residual_positions(self):
        golden = read_golden("sentence_printed.txt")
        diffs = word_diff(render(emit_phi()), golden)
        assert [(p, a, b.token) for p, a, b in diffs] == RESIDUAL_DIFFS

    def test_golden_words_parse_and_round_trip(self):
        for filename in list(self.generated) + ["sentence_printed.txt"]:
            word = read_golden(filename)
            assert render(parse(word)) == word
