"""The tokenizer and parser against the oracle front end of tests/naive.py.

Both sides must give the same word and tree, or raise the same exception
class with the same message, position included.  Also pins the symbol
contract (interning, pickling across hash seeds) and the whitespace and
offset conventions of the tokenizer.
"""
import copy
import os
import pickle
import subprocess
import sys
import threading
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given
from hypothesis import strategies as st

from naive import naive_parse, naive_tokenize
from strategies import NO_SHRINK, PREDICATE_SIGNATURES, formula_text
from zfcantor import formulas, symbols
from zfcantor.formulas import (
    MAX_DEPTH,
    MalformedVariable,
    NestingTooDeep,
    UnknownToken,
    parse,
    render,
    render_text,
    tokenize,
)
from zfcantor.symbols import (
    FIXED_SYMBOLS,
    LPAREN,
    MEMBERSHIP,
    RPAREN,
    Symbol,
    SymbolKind,
    new_var,
    predicate,
    set_var,
)

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def outcome(fn, *args):
    """("ok", value), or (exception class, message, position) for any error."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the class itself is compared
        return type(exc), str(exc), getattr(exc, "position", None)


def assert_same_parse(word, signatures=PREDICATE_SIGNATURES):
    got = outcome(parse, word, signatures)
    assert got == outcome(naive_parse, word, signatures)
    assert got[0] is not RecursionError
    if got[0] == "ok":
        assert render(got[1]) == tuple(word)


# ---------------------------------------------------------------------------
# Words: valid, corrupted, and nested to the depth bound

ALPHABET = (
    *FIXED_SYMBOLS.values(),
    set_var(1), set_var(2), set_var(30), new_var("x"), new_var("y1"),
    predicate("P"), predicate("Q"), predicate("R"),
)


@given(formula_text(new_vars=True, predicates=True))
def test_valid_texts_match_the_oracle(text):
    word = tokenize(text)
    assert word == naive_tokenize(text)
    assert render_text(word) == text
    assert_same_parse(word)


@st.composite
def corrupted_words(draw):
    word = list(tokenize(draw(formula_text(new_vars=True, predicates=True))))
    n = len(word)
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    how = draw(st.sampled_from(["drop", "duplicate", "swap", "truncate", "insert"]))
    if how == "drop":
        del word[i]
    elif how == "duplicate":
        word.insert(i, word[i])
    elif how == "swap":
        word[i], word[j] = word[j], word[i]
    elif how == "truncate":
        del word[i:]
    else:
        word.insert(draw(st.integers(0, n)), draw(st.sampled_from(ALPHABET)))
    return tuple(word)


@given(corrupted_words())
def test_corrupted_words_match_the_oracle(word):
    assert_same_parse(word)


ATOM = "( x1 = x2 )"
WRAPS = {
    "not": lambda f: f"! {f}",
    "exists": lambda f: f"( E x1 {f} )",
    "forall": lambda f: f"( A x2 {f} )",
    "left": lambda f: f"( {f} & {ATOM} )",
    "right": lambda f: f"( {ATOM} -> {f} )",
}


def nested(kinds, atom=ATOM):
    text = atom
    for kind in kinds:
        text = WRAPS[kind](text)
    return tokenize(text)


@NO_SHRINK
@given(st.lists(st.sampled_from(sorted(WRAPS)), min_size=MAX_DEPTH, max_size=MAX_DEPTH + 1))
def test_nesting_at_the_bound_matches_the_oracle(kinds):
    word = nested(kinds)
    assert_same_parse(word)
    if len(kinds) > MAX_DEPTH:
        with pytest.raises(NestingTooDeep, match=f"deeper than {MAX_DEPTH} levels"):
            parse(word)


@NO_SHRINK
@given(
    st.lists(st.sampled_from(sorted(WRAPS)), min_size=MAX_DEPTH - 1, max_size=MAX_DEPTH + 1),
    st.integers(0, 10**6),
    st.sampled_from(ALPHABET),
)
def test_corrupted_deep_words_match_the_oracle(kinds, where, inserted):
    word = list(nested(kinds))
    word.insert(where % (len(word) + 1), inserted)
    assert_same_parse(tuple(word))
    del word[where % len(word)]
    assert_same_parse(tuple(word))


@pytest.mark.parametrize("kind", sorted(WRAPS))
@pytest.mark.parametrize("depth", [MAX_DEPTH, MAX_DEPTH + 1])
def test_deep_words_cut_near_the_innermost_atom_match_the_oracle(kind, depth):
    word = nested([kind] * depth, atom="( x9 = x9 )")
    inner = word.index(set_var(9)) - 1
    for cut in range(inner - 4, inner + 6):
        assert_same_parse(word[:cut])


def test_deep_formulas_need_no_recursion():
    """Parsing, printing and walking a tree at the depth bound use no Python recursion."""
    code = (
        "import sys\n"
        "from zfcantor.formulas import *\n"
        f"word = tokenize('! ' * {MAX_DEPTH} + '( x1 = x2 )')\n"
        f"deep = tokenize('( E x1 ' * {MAX_DEPTH + 1} + '( x1 = x2 )' + ' )' * {MAX_DEPTH + 1})\n"
        "sys.setrecursionlimit(40)\n"
        "tree = parse(word)\n"
        "assert render(tree) == word and len(list(subformulas(tree))) == len(word) - 4\n"
        "assert len(occurrences(tree)) == 2 and not is_sentence(tree) and len(free_variables(tree)) == 2\n"
        "try:\n"
        "    parse(deep)\n"
        "except NestingTooDeep as exc:\n"
        f"    assert exc.position == {3 * MAX_DEPTH + 4}, exc\n"
        "else:\n"
        "    raise AssertionError('no NestingTooDeep')\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


# ---------------------------------------------------------------------------
# Texts: the tokenizer against the character loop

CHARS = "  \t\n\x1c\x85 　\xa0​()();;xxx?yzEAPQin=!&|<->0123456789é∈𝑥"


@given(st.text(alphabet=CHARS, max_size=40))
def test_texts_match_the_character_loop(text):
    expected = outcome(naive_tokenize, text)
    assert outcome(tokenize, text) == expected
    assert outcome(tokenize, text) == expected  # once more, with the tokens known


def test_memo_is_bounded_and_stays_exact():
    text = " ".join(f"x{i}" for i in range(1, 3 * formulas._TOKEN_MEMO_SIZE))
    assert tokenize(text) == naive_tokenize(text)
    assert len(formulas._TOKEN_MEMO) <= formulas._TOKEN_MEMO_SIZE
    assert tokenize("( x1 in x2 )") == (LPAREN, set_var(1), MEMBERSHIP, set_var(2), RPAREN)


SPACES = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]


def test_every_unicode_space_separates_tokens():
    assert {"\x1c", "\x85", " ", "　"} <= set(SPACES)
    expected = (LPAREN, set_var(1), MEMBERSHIP, set_var(1), RPAREN)
    for c in SPACES:
        text = f"{c}({c}x1{c}in{c * 2}x1{c}){c}"
        assert tokenize(text) == expected == naive_tokenize(text), hex(ord(c))


@pytest.mark.parametrize("c", ["​", "⁠", "﻿", "᠎", "\x00"])
def test_other_characters_do_not_separate(c):
    text = f"( x1{c}in x1 )"
    with pytest.raises(UnknownToken) as err:
        tokenize(text)
    assert str(err.value) == f"position 3: unknown token {'x1' + c + 'in'!r}"
    assert outcome(naive_tokenize, text) == outcome(tokenize, text)


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("( x1 ∈ x2 )", UnknownToken, "position 6: unknown token '∈'"),
        ("é", UnknownToken, "position 1: unknown token 'é'"),
        ("\u3000\u2028 x0", MalformedVariable, "position 4: set variable 'x0' has index 0 or a leading zero"),
        ("\x85( x1 in 𝑥2 )", UnknownToken, "position 10: unknown token '𝑥2'"),
        ("\xa0\u3000( ?é )", MalformedVariable, "position 5: bad new-variable token '?é'"),
        ("( x1 in x2 )\u2028\x1c( ∀ x01 )", UnknownToken, "position 17: unknown token '∀'"),
    ],
)
def test_offsets_count_characters_after_non_ascii(text, error, message):
    with pytest.raises(error) as err:
        tokenize(text)
    assert str(err.value) == message
    assert outcome(naive_tokenize, text) == outcome(tokenize, text)


# ---------------------------------------------------------------------------
# Symbols: interned, immutable, and rebuilt (not copied) by pickle


def test_constructed_symbols_are_the_interned_ones():
    sym = Symbol(SymbolKind.SET_VAR, index=3)
    assert sym == set_var(3) and hash(sym) == hash(set_var(3)) and sym is set_var(3)
    assert Symbol(SymbolKind.NEW_VAR, name="y1") == new_var("y1")
    assert Symbol(SymbolKind.MEMBERSHIP) == MEMBERSHIP
    assert set_var(3) != set_var(4) and set_var(1) != new_var("x") and set_var(1) != "x1"
    assert {set_var(3): 1}[Symbol(SymbolKind.SET_VAR, 3)] == 1


def test_the_fixed_symbols_are_the_twelve_constants_in_order():
    constants = [
        symbols.MEMBERSHIP, symbols.EQUALITY, symbols.NEGATION, symbols.IMPLICATION, symbols.BICONDITIONAL,
        symbols.CONJUNCTION, symbols.DISJUNCTION, symbols.EXISTS, symbols.FORALL, symbols.LPAREN,
        symbols.RPAREN, symbols.SEMICOLON,
    ]
    assert len(FIXED_SYMBOLS) == 12
    assert all(a is b for a, b in zip(FIXED_SYMBOLS.values(), constants, strict=True))
    assert list(FIXED_SYMBOLS) == [sym.token for sym in constants]


def test_symbol_spelling_and_errors_are_unchanged():
    assert [repr(s) for s in (set_var(3), new_var("y1"), predicate("SUR"), MEMBERSHIP)] == [
        "Symbol('x3')", "Symbol('?y1')", "Symbol('SUR')", "Symbol('in')",
    ]
    assert [s.token for s in (set_var(12), new_var("x"), predicate("P_2"), RPAREN)] == ["x12", "?x", "P_2", ")"]
    assert str(FIXED_SYMBOLS["<->"]) == "<->"
    assert set_var(2).is_variable and new_var("z").is_variable and not predicate("P").is_variable
    for make, arg, message in [
        (set_var, 0, "set variable index must be >= 1, got 0"),
        (set_var, -5, "set variable index must be >= 1, got -5"),
        (new_var, "q", "bad new-variable name 'q'"),
        (new_var, "y01", "bad new-variable name 'y01'"),
        (predicate, "E", "bad predicate name 'E'"),
        (predicate, "sur", "bad predicate name 'sur'"),
    ]:
        with pytest.raises(ValueError) as err:
            make(arg)
        assert str(err.value) == message


def test_symbols_are_immutable():
    with pytest.raises(FrozenInstanceError):
        set_var(1).index = 2
    with pytest.raises(FrozenInstanceError):
        del new_var("x").name
    assert set_var(1).index == 1 and set_var(1).token == "x1"


def test_copies_are_the_same_symbols():
    syms = [set_var(7), new_var("y2"), predicate("SUR"), *FIXED_SYMBOLS.values()]
    table = {sym: i for i, sym in enumerate(syms)}
    for copied in (copy.copy(syms), copy.deepcopy(syms), pickle.loads(pickle.dumps(syms))):
        assert copied == syms
        assert [table[sym] for sym in copied] == list(range(len(syms)))
        assert [hash(a) for a in copied] == [hash(b) for b in syms]


def test_pickles_work_across_hash_seeds():
    """A symbol pickled under one hash seed is a usable dict key under another."""
    dump = (
        "import pickle, sys\n"
        "from zfcantor.formulas import parse_text\n"
        "from zfcantor.symbols import new_var, set_var, MEMBERSHIP\n"
        "tree = parse_text('( A x3 ( ?x in x3 ) )')\n"
        "table = {set_var(3): 'x3', new_var('x'): '?x', MEMBERSHIP: 'in', tree: 'tree'}\n"
        "sys.stdout.buffer.write(pickle.dumps(table))\n"
    )
    load = (
        "import pickle, sys\n"
        "from zfcantor.formulas import parse_text\n"
        "from zfcantor.symbols import new_var, set_var, MEMBERSHIP\n"
        "table = pickle.loads(sys.stdin.buffer.read())\n"
        "tree = parse_text('( A x3 ( ?x in x3 ) )')\n"
        "assert [table[k] for k in (set_var(3), new_var('x'), MEMBERSHIP, tree)] == ['x3', '?x', 'in', 'tree']\n"
        "assert set_var(3) in table and next(iter(table)) is set_var(3)\n"
    )

    def run(code, seed, data=None):
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=str(seed))
        done = subprocess.run([sys.executable, "-c", code], input=data, env=env, capture_output=True, timeout=60)
        assert done.returncode == 0, done.stderr.decode()
        return done.stdout

    data = run(dump, 1)
    run(load, 2, data)
    table = pickle.loads(data)
    assert table[set_var(3)] == "x3" and table[parse(tokenize("( A x3 ( ?x in x3 ) )"))] == "tree"


def test_threads_share_one_symbol_per_token():
    """Threads building and tokenizing the same new symbols get the same objects.

    Interning is check-then-act, so without its lock two threads could each
    keep their own, unequal copy of a symbol.  The tokens overflow the memo,
    so it starts over while other threads read it.
    """
    base = 10**6
    count = formulas._TOKEN_MEMO_SIZE
    text = " ".join(f"( E x{base + i} ! )" for i in range(count))
    results: dict[int, tuple] = {}

    def work(k):
        results[k] = (tokenize(text), [set_var(base + i) for i in range(count)])

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    words, built = zip(*results.values())
    assert len(words) == 6 and all(word == naive_tokenize(text) for word in words)
    for i in range(count):
        sym = words[0][5 * i + 2]
        assert all(word[5 * i + 2] is sym for word in words) and all(syms[i] is sym for syms in built)
