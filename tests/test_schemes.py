import re
import time
from functools import reduce
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from naive import naive_expand, naive_instantiate, naive_variable_clash
from strategies import NO_SHRINK, scheme_lines
from zfcantor import schemes
from zfcantor.cantor import builtin_scheme, emit_expansions
from zfcantor.digraphs import SizeGuardExceeded
from zfcantor.formulas import (
    MAX_DEPTH,
    NestingTooDeep,
    free_variables,
    occurrences,
    parse,
    parse_text,
    render,
    render_text,
)
from zfcantor.schemes import (
    MAX_EXPANSION_SYMBOLS,
    BadParameterList,
    CircularReference,
    ForeignNewVariable,
    FreeSetVariable,
    Scheme,
    SchemeError,
    Shortcut,
    SubstitutabilityViolation,
    UncoveredParameter,
    VariableClash,
    expand,
    instantiate,
    parse_scheme_text,
    validate_scheme,
)
from zfcantor.symbols import LPAREN, SymbolKind, new_var, predicate, set_var

X, Y, Z = new_var("x"), new_var("y"), new_var("z")


def shortcut(name, params, body_text, sigs=None):
    return Shortcut(name, params, parse_text(body_text, sigs))


def doubling_scheme(lines):
    """P1 quantifies once; each further Pk conjoins two copies of Pk-1: 12 * 2^(k-1) - 3 symbols."""
    text = ["P1 ( ?x ) := ( A x1 ( x1 in ?x ) )"]
    text += [f"P{k} ( ?x ) := ( P{k - 1} ( ?x ) & P{k - 1} ( ?x ) )" for k in range(2, lines + 1)]
    return "\n".join(text) + "\n"


def quantifying_shortcut(name, indices):
    """A one-parameter shortcut whose body quantifies the set variables x<i>, i in indices."""
    body = "( ?x = ?x )"
    for i in sorted(indices):
        body = f"( A x{i} ( ( x{i} in ?x ) & {body} ) )"
    return shortcut(name, (X,), body)


@st.composite
def index_set_lists(draw):
    """Lists of up to 8 set-variable index sets, most of them in strict order.

    Set k draws from 1..4 and is shifted by 4k, or, one time in four, by
    4 times a random place, so lists break each ordering at varying pairs.
    """
    v_sets = []
    for k in range(draw(st.integers(0, 8))):
        place = k if draw(st.integers(0, 3)) else draw(st.integers(0, 7))
        v_sets.append(frozenset(4 * place + i for i in draw(st.frozensets(st.integers(1, 4), max_size=3))))
    return v_sets


# 150 negations in each body: P2's expansion nests 301 deep, past MAX_DEPTH
DEPTH_SCHEME = (
    f"P1 ( ?x ) := {'! ' * 150}( A x1 ( x1 in ?x ) )\n"
    f"P2 ( ?x ) := ( ( A x2 ( x2 in ?x ) ) & {'! ' * 150}P1 ( ?x ) )\n"
)


class TestValidateScheme:
    def test_builtin_reference_sets(self):
        scheme = builtin_scheme()
        assert [sorted(r) for r in scheme.r_sets] == [
            [], [], [2], [], [4], [3, 5], [1, 6], [6, 7], [1, 6, 8],
        ]

    def test_builtin_variable_sets(self):
        scheme = builtin_scheme()
        assert [sorted(v) for v in scheme.v_sets] == [
            [1], [2], [3], [4], [5], [6, 7], [8, 9, 10], [11, 12, 13, 14], [15, 16, 17],
        ]

    def test_forward_reference_is_circular(self):
        sigs = {"P": 1, "Q": 1}
        first = shortcut("P", (X,), "Q ( ?x )", sigs)
        second = shortcut("Q", (X,), "( A x1 ( x1 in ?x ) )", sigs)
        with pytest.raises(CircularReference):
            validate_scheme([first, second])

    def test_self_reference_is_circular(self):
        sigs = {"P": 1}
        with pytest.raises(CircularReference):
            validate_scheme([shortcut("P", (X,), "P ( ?x )", sigs)])

    def test_shared_quantified_variable_clashes_in_both_modes(self):
        first = shortcut("P", (X,), "( A x1 ( x1 in ?x ) )")
        second = shortcut("Q", (X,), "( E x1 ( x1 in ?x ) )")
        for mode in ("strict", "relaxed"):
            with pytest.raises(VariableClash):
                validate_scheme([first, second], mode)

    def test_decreasing_disjoint_sets_need_relaxed_mode(self):
        first = shortcut("P", (X,), "( A x2 ( x2 in ?x ) )")
        second = shortcut("Q", (X,), "( A x1 ( x1 in ?x ) )")
        with pytest.raises(VariableClash):
            validate_scheme([first, second], "strict")
        scheme = validate_scheme([first, second], "relaxed")
        assert scheme.mode == "relaxed"

    @seed(4207)
    @given(index_set_lists(), st.sampled_from(["strict", "relaxed"]))
    def test_ordering_matches_the_pairwise_rule(self, v_sets, mode):
        names = [f"P{k}" for k in range(1, len(v_sets) + 1)]
        lines = [quantifying_shortcut(name, indices) for name, indices in zip(names, v_sets)]
        expected = naive_variable_clash(names, v_sets, mode)
        if expected is None:
            assert Scheme(lines, mode).v_sets == tuple(v_sets)
        else:
            with pytest.raises(VariableClash) as info:
                Scheme(lines, mode)
            assert str(info.value) == expected

    def test_seven_thousand_shortcuts_validate_at_once(self):
        text = "".join(f"P{i} ( ?x ) := ( A x{i} ( x{i} in ?x ) )\n" for i in range(1, 7001))
        start = time.perf_counter()
        scheme = parse_scheme_text(text)
        assert time.perf_counter() - start < 2
        assert len(scheme.shortcuts) == 7000

    def test_free_set_variable_rejected(self):
        with pytest.raises(FreeSetVariable):
            validate_scheme([shortcut("P", (X,), "( x1 in ?x )")])

    def test_free_set_variable_named_is_the_leftmost(self):
        # symbols hash by identity, so a walk in set order names any of them
        for first in range(1, 22):
            order = [(first + k - 1) % 21 + 1 for k in range(21)]
            body = reduce(lambda b, i: f"( {b} & ( x{i} = x{i} ) )", order[1:], f"( x{first} = x{first} )")
            with pytest.raises(FreeSetVariable, match=f"^P: set variable x{first} occurs free"):
                validate_scheme([shortcut("P", (X,), body)])

    def test_foreign_new_variable_rejected(self):
        with pytest.raises(ForeignNewVariable):
            validate_scheme([shortcut("P", (X, Y), "( A x1 ( x1 in ?z ) )")])

    def test_parameter_styles(self):
        body = "( A x1 ( x1 in ?y1 ) )"
        validate_scheme([Shortcut("P", (new_var("y1"),), parse_text(body))])
        with pytest.raises(BadParameterList):
            validate_scheme([Shortcut("P", (Y,), parse_text("( A x1 ( x1 in ?y ) )"))])
        with pytest.raises(BadParameterList):
            mixed = (X, new_var("y2"))
            validate_scheme([Shortcut("P", mixed, parse_text("( A x1 ( x1 in ?x ) )"))])

    def test_duplicate_parameters_rejected(self):
        doubled = Shortcut("P", (X, X), parse_text("( A x1 ( x1 in ?x ) )"))
        with pytest.raises(BadParameterList):
            validate_scheme([doubled])

    def test_construction_refuses_binders_an_expansion_would_capture(self):
        # both bodies quantify x1, so the word path captures Q's argument inside P's expansion
        sigs = {"P": 1, "Q": 1}
        first = shortcut("P", (X,), "( A x1 ( x1 in ?x ) )", sigs)
        second = shortcut("Q", (X,), "( E x1 P ( x1 ) )", sigs)
        with pytest.raises(SubstitutabilityViolation):
            naive_expand((first, second))
        for mode in ("strict", "relaxed"):
            with pytest.raises(VariableClash, match=rf"^set-variable index sets of P and Q violate the {mode}"):
                Scheme((first, second), mode)

    def test_construction_refuses_a_wrong_arity(self):
        # the body applies the one-place P to two arguments
        first = shortcut("P", (X,), "( A x1 ( x1 in ?x ) )")
        second = shortcut("Q", (X,), "P ( ?x ; ?x )", {"P": 2})
        with pytest.raises(SchemeError, match="^Q: P has arity 1, applied to 2 arguments$"):
            Scheme((first, second))

    def test_validate_scheme_is_the_constructor(self):
        assert validate_scheme is Scheme

    def test_construction_refuses_a_repeated_name(self):
        sc = shortcut("P", (X,), "( A x1 ( x1 in ?x ) )")
        with pytest.raises(SchemeError, match="^shortcut names must be distinct$"):
            Scheme((sc, sc))

    def test_construction_refuses_an_unknown_mode(self):
        sc = shortcut("P", (X,), "( A x1 ( x1 in ?x ) )")
        with pytest.raises(ValueError, match="^mode must be 'strict' or 'relaxed', got 'lax'$") as info:
            Scheme((sc,), mode="lax")
        assert type(info.value) is ValueError

    def test_construction_refuses_an_undefined_predicate(self):
        # a hand-built body may apply a predicate that no shortcut defines
        body = shortcut("Q", (X,), "R ( ?x )", {"R": 1})
        with pytest.raises(SchemeError, match="^Q: unknown predicate R in the body$"):
            Scheme((body,))


class TestExpand:
    def test_predicate_free_body_expands_to_itself(self):
        sc = shortcut("P", (X,), "( A x1 ( x1 in ?x ) )")
        scheme = validate_scheme([sc])
        [expansion] = expand(scheme)
        assert render(expansion) == render(sc.body)

    def test_small_scheme_by_hand(self):
        sigs = {"EMP": 1, "SING": 2}
        empty = shortcut("EMP", (X,), "( A x1 ! ( x1 in ?x ) )", sigs)
        sing = shortcut("SING", (X, Y), "( ( ?y in ?x ) & EMP ( ?y ) )", sigs)
        scheme = validate_scheme([empty, sing])
        first, second = expand(scheme)
        assert render_text(render(first)) == "( A x1 ! ( x1 in ?x ) )"
        assert render_text(render(second)) == "( ( ?y in ?x ) & ( A x1 ! ( x1 in ?y ) ) )"

    def test_expansions_are_predicate_free_and_pure(self):
        for named in emit_expansions():
            word = render(named.formula)
            assert all(sym.kind is not SymbolKind.PREDICATE for sym in word)
            for occ in occurrences(named.formula):
                if occ.variable.kind is SymbolKind.SET_VAR:
                    assert occ.bound
                else:
                    assert not occ.bound

    def test_expansion_free_variables_are_the_parameters(self):
        scheme = builtin_scheme()
        for sc, expansion in zip(scheme.shortcuts, expand(scheme)):
            free = free_variables(expansion)
            assert free <= set(sc.params)

    def test_expansion_is_deterministic(self):
        words_a = [render(t) for t in expand(builtin_scheme())]
        fresh = validate_scheme(builtin_scheme().shortcuts)
        words_b = [render(t) for t in expand(fresh)]
        assert words_a == words_b


class TestAgainstTheWordOracle:
    """The tree splice against render, rename, splice by words and parse again."""

    @staticmethod
    def outcome(fn, *args):
        try:
            return "ok", fn(*args)
        except Exception as exc:  # noqa: BLE001 - the class itself is compared
            return type(exc), str(exc)

    def assert_same(self, scheme, keep=None):
        """Both paths on scheme, then on its last expansion with the first keep parameters assigned."""
        got = self.outcome(expand, scheme)
        assert got == self.outcome(naive_expand, scheme.shortcuts)  # spans included
        if got[0] != "ok":
            return got
        for tree in got[1]:
            assert parse(render(tree)) == tree
        assignment = {p: set_var(100 + i) for i, p in enumerate(scheme.shortcuts[-1].params[:keep])}
        inst = self.outcome(instantiate, got[1][-1], assignment)
        assert inst == self.outcome(naive_instantiate, got[1][-1], assignment)
        if inst[0] == "ok":
            assert parse(render(inst[1])) == inst[1]
        return got

    @seed(20261019)  # fixed, so that editing the test does not redraw its examples
    @settings(NO_SHRINK, max_examples=260)
    @given(st.data())
    def test_random_schemes(self, data):
        clash = data.draw(st.booleans())
        lines = data.draw(scheme_lines(clash=clash))
        text = "".join(f"{n} ( {' ; '.join(ps)} ) := {b}\n" for n, ps, b in lines)
        made = self.outcome(parse_scheme_text, text)
        bound = data.draw(st.sampled_from([MAX_EXPANSION_SYMBOLS, MAX_EXPANSION_SYMBOLS, 300]))
        keep = data.draw(st.integers(0, 3))
        if made[0] != "ok":
            # binders drawn with clash are the one flaw the lines can have
            assert clash and made[0] is VariableClash
            return
        with mock.patch.object(schemes, "MAX_EXPANSION_SYMBOLS", bound):
            self.assert_same(made[1], keep)

    @pytest.mark.parametrize("lines", range(1, 11))
    def test_doubling_schemes(self, lines):
        kind, trees = self.assert_same(parse_scheme_text(doubling_scheme(lines)))
        assert len(render(trees[-1])) == 12 * 2 ** (lines - 1) - 3

    def test_builtin_scheme(self):
        self.assert_same(builtin_scheme())

    @pytest.mark.parametrize("outer", [99, 100])
    def test_depth_at_the_bound(self, outer):
        # P1's atom nests 101 deep, so P2's nests 101 + outer deep
        text = f"P1 ( ?x ) := {'! ' * 100}( A x1 ( x1 in ?x ) )\nP2 ( ?x ) := {'! ' * outer}P1 ( ?x )\n"
        kind, value = self.assert_same(parse_scheme_text(text))
        if outer == 99:
            assert kind == "ok"
        else:
            assert (kind, value) == (NestingTooDeep, f"position 204: formulas nest deeper than {MAX_DEPTH} levels")

    def test_no_word_is_parsed_again(self, monkeypatch):
        monkeypatch.setattr(schemes, "parse", None)
        trees = expand(builtin_scheme())
        instantiate(trees[-1], {X: set_var(19), Y: set_var(18)})

    @pytest.mark.parametrize(
        "bodies, clash",
        [
            (["( E x1 P ( x1 ) )"], True),  # both quantify x1
            (["( E x2 P ( x1 ) )"], True),  # P's x1 would capture the argument
            (["( E x2 P ( x2 ) )"], False),
            (["( E x2 P ( x2 ) )", "( E x1 Q ( x1 ) )"], True),  # Q's expansion quantifies x1
        ],
    )
    def test_clashing_binders(self, bodies, clash):
        sigs = {"P": 1, "Q": 1, "R": 1}
        lines = [Shortcut("P", (X,), parse_text("( A x1 ( x1 in ?x ) )", sigs))]
        lines += [Shortcut(name, (X,), parse_text(body, sigs)) for name, body in zip("QR", bodies)]
        # the word path finds a capture exactly where the construction refuses the scheme
        assert (self.outcome(naive_expand, lines)[0] is SubstitutabilityViolation) == clash
        made = self.outcome(Scheme, lines)
        assert (made[0] != "ok") == clash
        if made[0] == "ok":
            assert self.assert_same(made[1])[0] == "ok"


class TestExpansionGuard:
    def test_an_expansion_past_the_depth_bound_is_refused(self):
        scheme = parse_scheme_text(DEPTH_SCHEME)
        with pytest.raises(NestingTooDeep, match=rf"^position 212: formulas nest deeper than {MAX_DEPTH} levels$"):
            expand(scheme)

    def test_doubling_scheme_is_rejected_at_once(self):
        scheme = parse_scheme_text(doubling_scheme(20))
        start = time.perf_counter()
        with pytest.raises(SizeGuardExceeded, match="^P13: the expansions reach 98253 symbols"):
            expand(scheme)
        assert time.perf_counter() - start < 1.0

    def test_a_scheme_just_under_the_bound_expands(self):
        # P1..P12 take 49,104 symbols, and Q takes 3 + 12,285 + 3,069 more
        text = doubling_scheme(12) + "Q ( ?x ) := ( P11 ( ?x ) & P9 ( ?x ) )\n"
        lengths = [len(render(t)) for t in expand(parse_scheme_text(text))]
        assert lengths == [12 * 2 ** (k - 1) - 3 for k in range(1, 13)] + [15357]
        assert sum(lengths) == 64461 <= MAX_EXPANSION_SYMBOLS

    def test_the_bound_admits_a_total_equal_to_it(self, monkeypatch):
        assert sum(len(render(t)) for t in expand(builtin_scheme())) == 1217
        monkeypatch.setattr(schemes, "MAX_EXPANSION_SYMBOLS", 1217)
        expand(builtin_scheme())
        monkeypatch.setattr(schemes, "MAX_EXPANSION_SYMBOLS", 1216)
        with pytest.raises(SizeGuardExceeded, match="^SUR: the expansions reach 1217 symbols"):
            expand(builtin_scheme())


class TestInstantiate:
    def test_renaming_preserves_length(self):
        e1 = emit_expansions()[0].formula
        renamed = instantiate(e1, {X: new_var("a"), Y: new_var("b")})
        assert len(render(renamed)) == 17
        assert free_variables(renamed) == {new_var("a"), new_var("b")}

    def test_surjection_expansion_instantiates_to_sentence_body(self):
        e9 = emit_expansions()[8].formula
        inst = instantiate(e9, {X: set_var(19), Y: set_var(18)})
        assert len(render(inst)) == 485
        free = free_variables(inst)
        assert free == {set_var(18), set_var(19)}

    def test_uncovered_parameter(self):
        e6 = emit_expansions()[5].formula
        with pytest.raises(UncoveredParameter):
            instantiate(e6, {X: set_var(1)})

    def test_target_must_be_a_variable(self):
        e1 = emit_expansions()[0].formula
        with pytest.raises(SchemeError, match=r"^instantiation target Symbol\('P'\) is not a variable$"):
            instantiate(e1, {X: predicate("P"), Y: set_var(1)})

    def test_a_quantified_target_is_refused(self):
        # ( A x1 ( ( x1 in ?x ) -> ( x1 in ?y ) ) ): x1 would capture ?x
        e1 = emit_expansions()[0].formula
        assignment = {X: set_var(1), Y: set_var(6)}
        assert render_text(render(naive_instantiate(e1, assignment))) == "( A x1 ( ( x1 in x1 ) -> ( x1 in x6 ) ) )"
        with pytest.raises(SubstitutabilityViolation, match="^instantiation target x1 would be captured"):
            instantiate(e1, assignment)
        instantiate(e1, {X: set_var(2), Y: set_var(6)})

    @pytest.mark.parametrize("source", [LPAREN, set_var(1), "?x"])
    def test_a_source_that_is_not_a_new_variable_is_refused(self, source):
        e1 = emit_expansions()[0].formula
        with pytest.raises(SchemeError, match=f"^{re.escape(f'instantiation source {source!r}')} is not a new variable$"):
            instantiate(e1, {X: set_var(18), Y: set_var(19), source: set_var(3)})

    # a predicate-free tree cannot show the order of the checks, so these use
    # trees with predicate atoms: parse admits them, and instantiate refuses them last
    SIGS = {"SUS": 2, "SI": 2}

    @pytest.mark.parametrize(
        "text, assignment, error, message",
        [
            # an uncovered parameter first, wherever it stands, all of them named
            ("( SUS ( ?x ; ?y ) & ( E x1 ( x1 in ?z ) ) )", {X: set_var(1)},
             UncoveredParameter, "assignment does not cover ?y, ?z"),
            ("( ( ?z in ?x ) & SI ( ?y ; ?x ) )", {X: set_var(1)},
             UncoveredParameter, "assignment does not cover ?y, ?z"),
            # then a captured target, the first one in the assignment's order
            ("( SUS ( ?x ; ?y ) & ( E x1 ( A x2 ( x1 in x2 ) ) ) )",
             {X: set_var(3), Y: set_var(2), Z: set_var(1)},
             SubstitutabilityViolation, "instantiation target x2 would be captured inside the expansion"),
            # then the first predicate atom
            ("( SUS ( ?x ; ?y ) & SI ( ?x ; ?y ) )", {X: set_var(1), Y: set_var(2)},
             SubstitutabilityViolation, "an expansion still contains the predicate SUS"),
            ("( ( x1 in ?x ) | ( SI ( ?x ; ?y ) & SUS ( ?x ; ?y ) ) )", {X: set_var(1), Y: set_var(2)},
             SubstitutabilityViolation, "an expansion still contains the predicate SI"),
        ],
    )
    def test_checks_run_in_order(self, text, assignment, error, message):
        with pytest.raises(SchemeError) as err:
            instantiate(parse_text(text, self.SIGS), assignment)
        assert type(err.value) is error
        assert str(err.value) == message

    def test_a_free_set_variable_target_is_not_captured(self):
        tree = parse_text("( ( x6 in ?x ) & ( E x1 ( x1 in ?y ) ) )")
        out = instantiate(tree, {X: set_var(6), Y: set_var(2)})
        assert render_text(render(out)) == "( ( x6 in x6 ) & ( E x1 ( x1 in x2 ) ) )"

    def test_extra_assignments_are_harmless(self):
        e1 = emit_expansions()[0].formula
        out = instantiate(e1, {X: set_var(18), Y: set_var(19), Z: set_var(20)})
        assert len(render(out)) == 17


SCHEME_FILE = """\
# a tiny scheme
EMP ( ?x ) := ( A x1 ! ( x1 in ?x ) )
SING ( ?x ; ?y ) := ( ( ?y in ?x ) & EMP ( ?y ) )
"""


class TestSchemeFiles:
    def test_parse_and_expand(self):
        scheme = parse_scheme_text(SCHEME_FILE)
        assert [sc.name for sc in scheme.shortcuts] == ["EMP", "SING"]
        assert [sorted(r) for r in scheme.r_sets] == [[], [1]]
        first, second = expand(scheme)
        assert render_text(render(second)) == "( ( ?y in ?x ) & ( A x1 ! ( x1 in ?y ) ) )"

    def test_file_order_is_scheme_order(self):
        backwards = "\n".join(reversed(SCHEME_FILE.strip().splitlines()[1:]))
        with pytest.raises(CircularReference):
            parse_scheme_text(backwards)

    def test_malformed_lines_rejected(self):
        from zfcantor.schemes import SchemeError

        with pytest.raises(SchemeError):
            parse_scheme_text("EMP ( ?x ) ( A x1 ( x1 in ?x ) )")
        with pytest.raises(SchemeError):
            parse_scheme_text("EMP ( x1 ) := ( A x1 ( x1 in ?x ) )")

    def test_a_token_after_the_header_is_refused(self):
        with pytest.raises(SchemeError, match=r"^line 1: malformed shortcut header 'P \( \?x \) \?y'$"):
            parse_scheme_text("P ( ?x ) ?y := ( A x1 ( x1 in ?x ) )")

    def test_roundtrip_of_builtin_scheme_as_text(self):
        lines = []
        for sc in builtin_scheme().shortcuts:
            params = " ; ".join(p.token for p in sc.params)
            lines.append(f"{sc.name} ( {params} ) := {render_text(render(sc.body))}")
        reparsed = parse_scheme_text("\n".join(lines))
        assert [render(t) for t in expand(reparsed)] == [
            render(t) for t in expand(builtin_scheme())
        ]

    def test_a_header_of_any_arity(self):
        params = " ; ".join(f"?y{i}" for i in range(1, 11))
        text = f"P ( {params} ) := ( A x1 ( x1 in ?y10 ) )\nQ ( ?x ) := ( A x2 P ( {'x2 ; ' * 9}?x ) )\n"
        p, q = expand(parse_scheme_text(text))
        assert render_text(render(p)) == "( A x1 ( x1 in ?y10 ) )"
        assert render_text(render(q)) == "( A x2 ( A x1 ( x1 in ?x ) ) )"

    @pytest.mark.parametrize(
        "header, spellings",
        [
            ("Q ( ?y )", "?y1 or ?x"),
            ("Q ( ?x ; ?z )", "?y1 ?y2 or ?x ?y"),
            ("Q ( ?y1 ; ?y2 ; ?y4 )", "?y1 ?y2 ?y3 or ?x ?y ?z"),
            ("Q ( ?x ; ?y ; ?z ; ?a )", "?y1 ?y2 ?y3 ?y4"),
        ],
    )
    def test_a_bad_parameter_list_names_the_accepted_spellings(self, header, spellings):
        with pytest.raises(BadParameterList) as err:
            parse_scheme_text(f"P ( ?x ) := ( A x1 ( x1 in ?x ) )\n{header} := ( A x2 ( x2 = x2 ) )\n")
        assert str(err.value) == f"line 2: Q: parameters must be {spellings}"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("P ( ?x ) := ( A x1 ( x1 in ?x ) )\nQ@ ( ?x ) := ( A x2 ( x2 in ?x ) )\n",
             "line 2: position 1: unknown token 'Q@'"),
            ("P ( ?x ) := ( A x1 ( x1 in ?x ) )\n\nP ( ?x ) := ( A x2 ( x2 in ?x ) )\n",
             "line 3: duplicate shortcut name P"),
            ("P ( ?x ) := ( A x1\nQ ( ?x ; ) := ( A x2 ( x2 in ?x ) )\n",  # headers are read first
             "line 2: position 5: expected a variable, found ')'"),
            ("P ( x1 ) := ( A x1 ( x1 in x1 ) )\n", "line 1: P: parameters must be new variables"),
        ],
    )
    def test_every_error_reading_a_line_names_it(self, text, message):
        with pytest.raises(SchemeError) as err:
            parse_scheme_text(text)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("( x1 in x2 ) := ( A x1 ( x1 in x1 ) )\n", "line 1: malformed shortcut header '( x1 in x2 )'"),
            ("P ( ?x ) ( A x1 ( x1 in ?x ) )\n", "line 1: expected `NAME ( params ) := body`"),
            ("# two\nP ( ?x ) := ( A x1 ( x1 in ?x )\n", "line 2: position 9: unexpected end of word"),
            ("  P ( ?x )  :=   ( A x1 ( x1 in @ ) )\n", "line 1: position 16: unknown token '@'"),
        ],
    )
    def test_the_errors_that_named_their_line_before(self, text, message):
        with pytest.raises(SchemeError) as err:
            parse_scheme_text(text)
        assert str(err.value) == message

    def test_a_hash_comments_out_the_rest_of_a_line(self):
        text = "# two shortcuts\nP ( ?x ) := ( A x1 ( x1 in ?x ) ) # note\n  # indented\nQ ( ?x ) := P ( ?x ) #:= ( x1 )\n"
        assert [render_text(render(t)) for t in expand(parse_scheme_text(text))] == ["( A x1 ( x1 in ?x ) )"] * 2

    def test_the_readme_example(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        example = readme.split("**Scheme files**", 1)[1].split("```\n")[1]
        assert expand(parse_scheme_text(example))
