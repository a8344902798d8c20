"""Value semantics of the package's immutable records.

For one record of each class: the exact repr, equality and hash, the
refusal to assign or delete a field, the constructor's validation, and
copies and pickles that compare equal.  Only records of the same class
compare equal, whatever their fields.
"""
import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

from zfcantor.analysis import PairResolution, SurjectionWitness
from zfcantor.cantor import NamedExpansion
from zfcantor.census import CensusRow
from zfcantor.digraphs import Digraph
from zfcantor.formulas import (
    And,
    Equality,
    Exists,
    Forall,
    Membership,
    Not,
    Occurrence,
    Or,
    PredicateAtom,
    parse_text,
)
from zfcantor.schemes import Scheme, Shortcut, VariableClash, validate_scheme
from zfcantor.symbols import PredicateSignature, new_var, set_var

X1, X2 = set_var(1), set_var(2)
ATOM = Membership((2, 6), X1, X2)
BODY = parse_text("( A x1 ( x1 in ?x ) )")
SHORTCUT = Shortcut("P", (new_var("x"),), BODY)

# (record, a second record built the same way, its repr, its compared fields)
CASES = {
    "relation atom": (
        Membership((1, 5), X1, X2),
        parse_text("( x1 in x2 )"),
        "Membership(span=(1, 5), left=Symbol('x1'), right=Symbol('x2'))",
        ((1, 5), X1, X2),
    ),
    "predicate atom": (
        PredicateAtom((1, 6), "SUS", (X1, X2)),
        parse_text("SUS ( x1 ; x2 )", {"SUS": 2}),
        "PredicateAtom(span=(1, 6), name='SUS', args=(Symbol('x1'), Symbol('x2')))",
        ((1, 6), "SUS", (X1, X2)),
    ),
    "negation": (
        Not((1, 6), ATOM),
        parse_text("! ( x1 in x2 )"),
        "Not(span=(1, 6), child=Membership(span=(2, 6), left=Symbol('x1'), right=Symbol('x2')))",
        ((1, 6), ATOM),
    ),
    "connective": (
        And((1, 13), Membership((2, 6), X1, X1), Equality((8, 12), X2, X1)),
        parse_text("( ( x1 in x1 ) & ( x2 = x1 ) )"),
        "And(span=(1, 13), left=Membership(span=(2, 6), left=Symbol('x1'), right=Symbol('x1')),"
        " right=Equality(span=(8, 12), left=Symbol('x2'), right=Symbol('x1')))",
        ((1, 13), Membership((2, 6), X1, X1), Equality((8, 12), X2, X1)),
    ),
    "quantifier": (
        Exists((1, 9), X1, Membership((4, 8), X1, X2)),
        parse_text("( E x1 ( x1 in x2 ) )"),
        "Exists(span=(1, 9), var=Symbol('x1'), child="
        "Membership(span=(4, 8), left=Symbol('x1'), right=Symbol('x2')))",
        ((1, 9), X1, Membership((4, 8), X1, X2)),
    ),
    "occurrence": (
        Occurrence(X2, 4, False),
        Occurrence(variable=X2, position=4, bound=False),
        "Occurrence(variable=Symbol('x2'), position=4, bound=False)",
        (X2, 4, False),
    ),
    "shortcut": (
        SHORTCUT,
        Shortcut(name="P", params=(new_var("x"),), body=parse_text("( A x1 ( x1 in ?x ) )")),
        "Shortcut(name='P', params=(Symbol('?x'),), body=Forall(span=(1, 9), var=Symbol('x1'),"
        " child=Membership(span=(4, 8), left=Symbol('x1'), right=Symbol('?x'))))",
        ("P", (new_var("x"),), BODY),
    ),
    "scheme": (
        Scheme((SHORTCUT,)),
        validate_scheme([SHORTCUT]),
        f"Scheme(shortcuts=({SHORTCUT!r},), r_sets=(frozenset(),), v_sets=(frozenset({{1}}),),"
        " mode='strict')",
        ((SHORTCUT,), (frozenset(),), (frozenset({1}),), "strict"),
    ),
    "predicate signature": (
        PredicateSignature("SUS", 2),
        PredicateSignature(name="SUS", arity=2),
        "PredicateSignature(name='SUS', arity=2)",
        ("SUS", 2),
    ),
    "named expansion": (
        NamedExpansion("P", 1, BODY, 9, 0),
        NamedExpansion("P", 1, parse_text("( A x1 ( x1 in ?x ) )"), 9, 0),
        f"NamedExpansion(name='P', index=1, formula={BODY!r}, expected_length=9,"
        " expected_negations=0)",
        ("P", 1, BODY, 9, 0),
    ),
    "digraph": (
        Digraph(3, [(1, 2), (3, 2), (2, 3)]),
        Digraph.from_masks([0, 5, 2]),
        "Digraph(n=3, masks=(0, 5, 2))",
        (3, (0, 5, 2)),
    ),
    "census row": (
        CensusRow(2, 16, 5, 11, 1.5),
        CensusRow(n=2, total=16, strongly_extensive=5, cantor=11, elapsed_ms=1.5),
        "CensusRow(n=2, total=16, strongly_extensive=5, cantor=11, elapsed_ms=1.5)",
        (2, 16, 5, 11, 1.5),
    ),
    "pair resolution": (
        PairResolution(5, 1, 2),
        PairResolution(pair_vertex=5, first=1, second=2),
        "PairResolution(pair_vertex=5, first=1, second=2)",
        (5, 1, 2),
    ),
    "surjection witness": (
        SurjectionWitness(3, 1, frozenset({(1, 2)})),
        SurjectionWitness(3, 1, frozenset([(1, 2)])),
        "SurjectionWitness(function_vertex=3, domain_vertex=1, graph=frozenset({(1, 2)}))",
        (3, 1, frozenset({(1, 2)})),
    ),
}
IDS = list(CASES)


@pytest.mark.parametrize("case", IDS)
def test_repr(case):
    record, twin, text, _ = CASES[case]
    assert repr(record) == text
    assert repr(twin) == text


@pytest.mark.parametrize("case", IDS)
def test_equal_records_hash_alike(case):
    record, twin, _, fields = CASES[case]
    assert record == twin and not record != twin
    assert hash(record) == hash(twin) == hash(fields)
    assert record != fields and fields != record
    assert len({record, twin}) == 1


@pytest.mark.parametrize("case", IDS)
def test_fields_cannot_be_assigned_or_deleted(case):
    record = CASES[case][0]
    name = repr(record).split("(", 1)[1].split("=", 1)[0]
    value = getattr(record, name)
    with pytest.raises(FrozenInstanceError) as err:
        setattr(record, name, value)
    assert str(err.value) == f"cannot assign to field {name!r}"
    with pytest.raises(FrozenInstanceError) as err:
        delattr(record, name)
    assert str(err.value) == f"cannot delete field {name!r}"
    assert getattr(record, name) is value


@pytest.mark.parametrize("case", IDS)
def test_copies_and_pickles_are_equal(case):
    record = CASES[case][0]
    for copied in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(copied) is type(record)
        assert copied == record
        assert repr(copied) == repr(record)


def test_a_scheme_unpickles_equal_by_validating_again():
    later = Shortcut("Q", (new_var("x"),), parse_text("( E x2 ( x2 = ?x ) )"))
    scheme = Scheme((later, SHORTCUT), mode="relaxed")  # x2 before x1: relaxed only
    assert scheme.__reduce__() == (Scheme, ((later, SHORTCUT), "relaxed"))
    for copied in (copy.copy(scheme), copy.deepcopy(scheme), pickle.loads(pickle.dumps(scheme))):
        assert copied == scheme
        assert copied.v_sets == (frozenset({2}), frozenset({1})) and copied.mode == "relaxed"

    class Forged:
        def __reduce__(self):
            return Scheme, ((later, SHORTCUT), "strict")

    with pytest.raises(VariableClash):
        pickle.loads(pickle.dumps(Forged()))


def test_only_the_same_class_compares_equal():
    membership, equality = Membership((1, 5), X1, X2), Equality((1, 5), X1, X2)
    assert membership != equality and equality != membership
    left, right = Membership((2, 6), X1, X1), Equality((8, 12), X2, X1)
    conjunction, disjunction = And((1, 11), left, right), Or((1, 11), left, right)
    assert conjunction != disjunction and disjunction != conjunction
    assert Exists((1, 9), X1, ATOM) != Forall((1, 9), X1, ATOM)
    assert hash(membership) == hash(equality)


def test_a_census_row_is_its_five_fields():
    row = CensusRow(3, 512, 37, 388, 2.0)
    assert CensusRow._fields == CensusRow.__slots__ and len(CensusRow.__slots__) == 5
    for clone in (pickle.loads(pickle.dumps(row)), copy.copy(row), copy.deepcopy(row)):
        assert clone == row and CensusRow._key(clone) == (3, 512, 37, 388, 2.0)
    assert CensusRow(3, 512, 37, 388, 2.0) != CensusRow(3, 512, 37, 388, 2.5)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: PredicateSignature("sus", 2), "bad predicate name 'sus'"),
        (lambda: PredicateSignature("E", 1), "bad predicate name 'E'"),
        (lambda: PredicateSignature("P", 0), "arity must be >= 1, got 0"),
        (lambda: Shortcut("p", (new_var("x"),), BODY), "bad predicate name 'p'"),
        (lambda: Shortcut("A", (new_var("x"),), BODY), "bad predicate name 'A'"),
        (lambda: Shortcut("P", (), BODY), "arity must be >= 1, got 0"),
    ],
)
def test_constructor_validation(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert type(err.value) is ValueError
    assert str(err.value) == message


def test_keyword_and_default_arguments():
    assert Scheme((SHORTCUT,)).mode == "strict"
    assert Scheme((), mode="relaxed").mode == "relaxed"
    assert CensusRow(n=1, total=2, strongly_extensive=1, cantor=1, elapsed_ms=0.0) == CensusRow(1, 2, 1, 1, 0.0)
    assert Not(span=(1, 6), child=ATOM) == Not((1, 6), ATOM)
    assert Shortcut("P", (new_var("x"),), BODY).arity == 1
    assert len(And((1, 11), ATOM, ATOM)) == 11
