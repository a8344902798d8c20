"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they pass.  Expected census values were computed once by the
brute-force oracle in naive.py and are frozen here; sampled suites use
the recorded seed.
"""
import random
import time
from itertools import product
from pathlib import Path

from naive import enumerate_digraphs, naive_census
from zfcantor import cantor
from zfcantor.analysis import (
    DigraphAnalysis,
    is_strongly_extensive,
    omega_level_ranges,
    omega_prefix,
)
from zfcantor.cantor import PREDICATE_ARITIES, builtin_scheme, emit_expansions, emit_phi
from zfcantor.census import census, digraph_from_counter
from zfcantor.digraphs import Digraph, all_loops, edgeless
from zfcantor.formulas import (
    NEGATION,
    count,
    is_sentence,
    parse,
    render,
    tokenize,
    word_diff,
)
from zfcantor.schemes import instantiate, validate_scheme
from zfcantor.semantics import evaluate, evaluate_sentence
from zfcantor.substitution import rep, sub2
from zfcantor.symbols import new_var, set_var

GOLDEN = Path(__file__).parent / "golden"
SEED = 20250810

EXPECTED_LENGTHS = (17, 17, 29, 25, 37, 117, 165, 325, 485)
FROZEN_CENSUS = {1: (2, 1, 1), 2: (16, 5, 11), 3: (512, 37, 388)}

ARG_SLOTS = (set_var(18), set_var(19), set_var(20))
PARAMS = (new_var("x"), new_var("y"), new_var("z"))


def read_golden(name):
    text = (GOLDEN / name).read_text()
    return tokenize("\n".join(l for l in text.splitlines() if not l.startswith("#")))


def fresh_build():
    cantor.builtin_scheme.cache_clear()
    cantor._expansions.cache_clear()
    cantor.emit_phi.cache_clear()


def instantiated_expansions():
    table = {}
    for named in emit_expansions():
        arity = PREDICATE_ARITIES[named.name]
        table[named.name] = instantiate(
            named.formula, dict(zip(PARAMS[:arity], ARG_SLOTS[:arity]))
        )
    return table


def check_equivalence(digraph, names, instantiated, tuples_by_arity):
    ctx = DigraphAnalysis(digraph)
    for name in names:
        arity = PREDICATE_ARITIES[name]
        tree = instantiated[name]
        for args in tuples_by_arity[arity]:
            env = dict(zip(ARG_SLOTS[:arity], args))
            direct = ctx.predicate(name, args)
            via_formula = evaluate(digraph, tree, env)
            assert direct == via_formula, (digraph, name, args)


def test_criterion_01_expansion_lengths():
    fresh_build()
    start = time.perf_counter()
    named = emit_expansions()
    lengths = tuple(len(render(ne.formula)) for ne in named)
    negations = tuple(count(render(ne.formula), NEGATION) for ne in named)
    elapsed = time.perf_counter() - start
    assert lengths == EXPECTED_LENGTHS
    assert negations == (0,) * 9
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: expansion lengths {lengths}, all negation-free ({elapsed:.3f}s)")


def test_criterion_02_sentence():
    fresh_build()
    start = time.perf_counter()
    phi = emit_phi()
    word = render(phi)
    elapsed = time.perf_counter() - start
    assert len(word) == 494
    assert count(word, NEGATION) == 1
    assert is_sentence(phi)
    assert elapsed < 1.0
    print(f"PASS criterion 2: sentence length 494, one negation, closed ({elapsed:.3f}s)")


def test_criterion_03_golden_files():
    named = {ne.index: ne for ne in emit_expansions()}
    exact = {
        "expansion_sin.txt": 3,
        "expansion_dou.txt": 5,
        "expansion_opa.txt": 6,
        "expansion_rel.txt": 7,
        "expansion_fun.txt": 8,
        "expansion_sur.txt": 9,
    }
    for filename, index in exact.items():
        diffs = word_diff(render(named[index].formula), read_golden(filename))
        assert diffs == [], f"{filename}: {diffs}"
    diffs = word_diff(render(emit_phi()), read_golden("sentence_printed.txt"))
    report = [(pos, got.token, printed.token) for pos, got, printed in diffs]
    assert report == [(165, "x18", "?y"), (203, "x19", "?x")]
    print("PASS criterion 3: six expansions match the transcriptions symbol-for-symbol;")
    for pos, got, printed in report:
        print(f"    sentence deviates from the printed transcription at position {pos}:"
              f" generated {got}, printed {printed}")


def test_criterion_04_scheme_metadata():
    scheme = builtin_scheme()
    assert [sorted(r) for r in scheme.r_sets] == [
        [], [], [2], [], [4], [3, 5], [1, 6], [6, 7], [1, 6, 8],
    ]
    assert [sorted(v) for v in scheme.v_sets] == [
        [1], [2], [3], [4], [5], [6, 7], [8, 9, 10], [11, 12, 13, 14], [15, 16, 17],
    ]
    revalidated = validate_scheme(scheme.shortcuts, mode="strict")
    assert revalidated.r_sets == scheme.r_sets and revalidated.v_sets == scheme.v_sets
    print("PASS criterion 4: scheme reference and variable-index sets reproduced exactly")


def test_criterion_05_oracle_equivalence_n2():
    start = time.perf_counter()
    instantiated = instantiated_expansions()
    names = list(PREDICATE_ARITIES)
    for digraph in enumerate_digraphs(2):
        tuples_by_arity = {
            k: list(product(digraph.vertices, repeat=k)) for k in (2, 3)
        }
        check_equivalence(digraph, names, instantiated, tuples_by_arity)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"PASS criterion 5: all nine predicates, all 16 digraphs, all tuples ({elapsed:.1f}s)")


def test_criterion_06_oracle_equivalence_n3():
    start = time.perf_counter()
    instantiated = instantiated_expansions()
    exhaustive = ["SUS", "SI", "SIN", "DO", "DOU", "OPA"]
    for digraph in enumerate_digraphs(3):
        tuples_by_arity = {
            k: list(product(digraph.vertices, repeat=k)) for k in (2, 3)
        }
        check_equivalence(digraph, exhaustive, instantiated, tuples_by_arity)
    rng = random.Random(SEED)
    samples = 1000
    for name in ("REL", "FUN", "SUR"):
        for _ in range(samples):
            digraph = digraph_from_counter(3, rng.randrange(512))
            args = (rng.randrange(1, 4), rng.randrange(1, 4))
            check_equivalence(digraph, [name], instantiated, {2: [args]})
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    print(
        "PASS criterion 6: first six predicates exhaustive on 512 digraphs;"
        f" {samples} seeded tuples each for REL FUN SUR ({elapsed:.1f}s)"
    )


def test_criterion_07_cantor_method_agreement():
    start = time.perf_counter()
    phi = emit_phi()
    for digraph in enumerate_digraphs(3):
        semantic = DigraphAnalysis(digraph).is_cantor()
        via_sentence = evaluate_sentence(digraph, phi)
        assert semantic == via_sentence, digraph
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    print(f"PASS criterion 7: both Cantor checks agree on all 512 digraphs ({elapsed:.1f}s)")


def test_criterion_08_diagonal_theorem_small():
    start = time.perf_counter()
    for n in (1, 2, 3, 4):
        for digraph in enumerate_digraphs(n):
            if is_strongly_extensive(digraph):
                assert DigraphAnalysis(digraph).is_cantor(), digraph
    row = census(4, jobs=4)
    assert row.strongly_extensive <= row.cantor
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    print(
        "PASS criterion 8: every strongly extensive digraph up to n=4 is Cantor;"
        f" census(4, jobs=4) = {(row.total, row.strongly_extensive, row.cantor)} ({elapsed:.1f}s)"
    )


def test_criterion_09_named_examples():
    examples = (
        edgeless(1),
        Digraph(2, frozenset({(1, 1)})),
        Digraph(4, frozenset({(1, 1), (2, 1), (1, 3), (2, 4)})),
    )
    for digraph in examples:
        assert is_strongly_extensive(digraph)
    for n in (1, 2, 3):
        assert not DigraphAnalysis(all_loops(n)).is_cantor()
        full = frozenset((u, u) for u in range(1, n + 1))
        for mask in range(2**n - 1):  # every proper subset of the loops
            arrows = frozenset((u, u) for u in range(1, n + 1) if mask >> (u - 1) & 1)
            assert DigraphAnalysis(Digraph(n, arrows)).is_cantor(), (n, arrows)
    assert DigraphAnalysis(edgeless(1)).is_cantor()
    print("PASS criterion 9: the three example digraphs are strongly extensive;"
          " all-loops fail and every proper loop subset is Cantor up to n=3")


def test_criterion_10_census_regression():
    for n, expected in FROZEN_CENSUS.items():
        row = census(n)
        assert (row.total, row.strongly_extensive, row.cantor) == expected
    assert naive_census(1) == FROZEN_CENSUS[1]
    assert naive_census(2) == FROZEN_CENSUS[2]
    row1 = census(3, jobs=1)
    row8 = census(3, jobs=8)
    assert (row1.strongly_extensive, row1.cantor) == (row8.strongly_extensive, row8.cantor)
    print(f"PASS criterion 10: census rows frozen at {FROZEN_CENSUS}; jobs=1 equals jobs=8")


def test_criterion_11_omega_prefix():
    start = time.perf_counter()
    ranges = omega_level_ranges(4)
    digraph = omega_prefix(4)
    degrees = [len(digraph.in_neighbors(u)) for u in digraph.vertices]
    assert all(deg <= ranges[-2][1] for deg in degrees)  # finite, bounded by the ground set
    realized = {digraph.in_neighbors(u) for u in digraph.vertices}
    for level in (1, 2, 3):
        members = list(range(1, ranges[level - 1][1] + 1))
        for mask in range(2 ** len(members)):
            subset = frozenset(m for i, m in enumerate(members) if mask >> i & 1)
            assert subset in realized, (level, subset)
    maxima = [
        max(len(omega_prefix(k).in_neighbors(u)) for u in omega_prefix(k).vertices)
        for k in (1, 2, 3, 4)
    ]
    assert maxima == sorted(set(maxima))  # strictly increasing
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"PASS criterion 11: four-level prefix on {digraph.n} vertices realizes every"
        f" prefix subset; level maxima {maxima} strictly increase ({elapsed:.1f}s)"
    )


def test_criterion_12_substitution_properties():
    rng = random.Random(SEED)
    alphabet = "abcdef"
    cases = 10_000
    for _ in range(cases):
        n = rng.randint(2, 14)
        u = tuple(rng.choice(alphabet) for _ in range(n))
        k = rng.randint(0, min(4, n // 2))
        cuts = sorted(rng.sample(range(1, n + 1), 2 * k))
        patches = []
        for i in range(k):
            v = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 3)))
            patches.append((v, cuts[2 * i], cuts[2 * i + 1]))
        baseline = sub2(u, patches)
        assert len(baseline) == len(u) + sum(len(v) - (m - l + 1) for v, l, m in patches)
        shuffled = patches[:]
        rng.shuffle(shuffled)
        assert sub2(u, shuffled) == baseline
        if k == 1:
            assert baseline == rep(u, *patches[0])
    for filename in (
        "expansion_sin.txt",
        "expansion_dou.txt",
        "expansion_opa.txt",
        "expansion_rel.txt",
        "expansion_fun.txt",
        "expansion_sur.txt",
        "sentence_printed.txt",
    ):
        word = read_golden(filename)
        assert render(parse(word)) == word, filename
    print(f"PASS criterion 12: {cases} seeded substitution cases and golden round-trips hold")
