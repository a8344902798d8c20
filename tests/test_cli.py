import hashlib
import io
import time
from contextlib import redirect_stderr, redirect_stdout
from functools import reduce
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from zfcantor.analysis import omega_prefix
from zfcantor.cantor import SENTENCE_LENGTH
from zfcantor.census import counter_text, digraph_from_counter, witness_listing
from zfcantor.cli import main
from zfcantor.digraphs import MAX_VERTICES, all_loops, dump_digraph, load_digraph
from zfcantor.formulas import parse, tokenize
from zfcantor.semantics import evaluate
from zfcantor.symbols import set_var

LOOPS2 = "vertices 2\n1 1\n2 2\n"
CHAIN2 = "vertices 2\n1 2\n"
DEEP_NEGATIONS = "! " * 3000 + "( x1 = x1 )"
DEEP_QUANTIFIERS = "( E x1 " * 1500 + "( x1 = x1 )" + " )" * 1500
# eight quantified variables free together in one conjunction: tables of n^8 cells
CHAIN8 = "".join(f"( E x{i} " for i in range(1, 9)) + reduce(
    lambda body, i: f"( {body} & ( x{i} in x{i + 1} ) )", range(2, 8), "( x1 in x2 )"
) + " )" * 8
# each line doubles the expansion of the one before: line 20 alone asks for 6.3M symbols
DOUBLING20 = "P1 ( ?x ) := ( A x1 ( x1 in ?x ) )\n" + "".join(
    f"P{k} ( ?x ) := ( P{k - 1} ( ?x ) & P{k - 1} ( ?x ) )\n" for k in range(2, 21)
)
# 150 negations in each body: P2's expansion nests 301 deep, past MAX_DEPTH
DEPTH_SCHEME = (
    f"P1 ( ?x ) := {'! ' * 150}( A x1 ( x1 in ?x ) )\n"
    f"P2 ( ?x ) := ( ( A x2 ( x2 in ?x ) ) & {'! ' * 150}P1 ( ?x ) )\n"
)
PATH3000 = "vertices 3000\n" + "".join(f"{v - 1} {v}\n" for v in range(2, 3001))


@pytest.fixture
def run(capsys, monkeypatch):
    def invoke(*argv, stdin=""):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


@pytest.fixture
def digraph_file(tmp_path):
    def write(content, name="d.dg"):
        path = tmp_path / name
        path.write_text(content)
        return str(path)

    return write


class TestEmitVerbs:
    def test_emit_phi_check_lengths(self, run):
        code, out, err = run("emit-phi", "--check-lengths")
        assert code == 0
        assert f"length={SENTENCE_LENGTH} neg=1" in err
        assert len(tokenize(out)) == SENTENCE_LENGTH

    def test_emit_phi_pipes_into_parse_and_classify(self, run):
        _, out, _ = run("emit-phi")
        code, parsed_out, _ = run("parse", stdin=out)
        assert code == 0
        assert parsed_out.strip() == f"ok length={SENTENCE_LENGTH}"
        code, classify_out, _ = run("classify", stdin=out)
        assert code == 0
        assert classify_out.strip() == "universal x18"

    def test_emit_expansions(self, run):
        code, out, err = run("emit-expansions", "--check-lengths")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 9
        assert [len(tokenize(line)) for line in lines] == [17, 17, 29, 25, 37, 117, 165, 325, 485]
        assert "SUR length=485" in err

    def test_annotation(self, run):
        _, out, _ = run("emit-expansions", "--annotate")
        first = out.splitlines()[0]
        assert first.endswith("# length=17 neg=0")


class TestParseVerbs:
    def test_parse_ok(self, run):
        code, out, _ = run("parse", stdin="( x1 in x2 )")
        assert code == 0 and out.strip() == "ok length=5"

    def test_parse_invalid_exits_one(self, run):
        code, _, err = run("parse", stdin="( x1 in")
        assert code == 1
        assert "invalid" in err

    def test_parse_lines_mode(self, run):
        code, out, _ = run("parse", "--lines", stdin="( x1 = x1 )\n! ( x2 = x2 )\n")
        assert code == 0
        assert out.strip().splitlines() == ["ok length=5", "ok length=6"]

    def test_comments_are_stripped(self, run):
        code, out, _ = run("parse", stdin="# comment\n( x1 = x1 )\n")
        assert code == 0 and out.strip() == "ok length=5"

    def test_classify_conjunction(self, run):
        code, out, _ = run("classify", stdin="( ( x1 = x1 ) & ( x2 = x2 ) )")
        assert code == 0 and out.strip() == "conjunction"


class TestEval:
    def test_matches_library(self, run, digraph_file):
        path = digraph_file(CHAIN2)
        code, out, _ = run("eval", "--digraph", path, "--assign", "x2=2", stdin="( E x1 ( x1 in x2 ) )")
        assert (code, out.strip()) == (0, "eval true")
        tree = parse(tokenize("( E x1 ( x1 in x2 ) )"))
        assert evaluate(load_digraph(CHAIN2), tree, {set_var(2): 2}) is True

    def test_false_verdict_exits_one(self, run, digraph_file):
        path = digraph_file(CHAIN2)
        code, out, _ = run("eval", "--digraph", path, "--assign", "x1=1", stdin="( x1 in x1 )")
        assert (code, out.strip()) == (1, "eval false")

    def test_lines_flag_is_usage_error(self, run, digraph_file):
        path = digraph_file(CHAIN2)
        code, out, _ = run("eval", "--digraph", path, "--lines", stdin="( x1 = x1 )\n")
        assert (code, out) == (2, "")

    def test_unbound_variable_is_invalid(self, run, digraph_file):
        path = digraph_file(CHAIN2)
        code, _, err = run("eval", "--digraph", path, stdin="( x1 in x1 )")
        assert code == 1 and "invalid" in err

    @pytest.mark.parametrize("assign", ["x1=-5", "x1=0", "x1=7,x2=7"])
    def test_out_of_range_vertex_is_invalid(self, run, digraph_file, assign):
        path = digraph_file(CHAIN2)
        code, out, err = run("eval", "--digraph", path, "--assign", assign, stdin="( x1 = x1 )")
        assert (code, out) == (1, "") and err.startswith("invalid:") and "outside [1, 2]" in err

    def test_bad_assignment_is_usage_error(self, run, digraph_file):
        path = digraph_file(CHAIN2)
        code, _, _ = run("eval", "--digraph", path, "--assign", "x1", stdin="( x1 in x1 )")
        assert code == 2

    @pytest.mark.parametrize(
        "assign, message",
        [
            ("x0=1", "bad assignment variable 'x0'"),
            ("?q=1", "bad assignment variable '?q'"),
            ("SUS=1", "bad assignment variable 'SUS'"),
            ("x1=a", "bad assignment vertex 'a'"),
            ("x1", "bad assignment 'x1', expected var=vertex"),
            ("x1=1,x1=2", "variable 'x1' is bound twice"),
        ],
    )
    def test_every_malformed_assignment_is_usage_error(self, run, digraph_file, assign, message):
        path = digraph_file(CHAIN2)
        code, out, err = run("eval", "--digraph", path, "--assign", assign, stdin="( x1 in x2 )")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_vertex_past_the_digraph_is_invalid(self, run, digraph_file):
        path = digraph_file(CHAIN2)
        code, out, err = run("eval", "--digraph", path, "--assign", "x1=9", stdin="( x1 = x1 )")
        assert (code, out) == (1, "") and err.startswith("invalid: vertex 9 is outside [1, 2]")

    def test_empty_assignment_item_is_skipped(self, run, digraph_file):
        path = digraph_file(CHAIN2)
        code, out, _ = run("eval", "--digraph", path, "--assign", "x1=1,,x2=2", stdin="( x1 in x2 )")
        assert (code, out.strip()) == (0, "eval true")

    def test_variable_bound_twice_is_usage_error(self, run, digraph_file):
        path = digraph_file(CHAIN2)
        code, out, err = run(
            "eval", "--digraph", path, "--assign", "x1=1,x2=2,x1=2", stdin="( x1 in x2 )"
        )
        assert (code, out) == (2, "")
        assert err == "error: variable 'x1' is bound twice\n"


class TestDigraphVerbs:
    def test_is_cantor_false_with_witness(self, run, digraph_file):
        path = digraph_file(LOOPS2)
        code, out, _ = run("is-cantor", "--digraph", path, "--method", "semantic")
        assert code == 1
        lines = out.strip().splitlines()
        assert lines[0] == "is-cantor false"
        assert lines[1] == "witness u=1 v=1"

    @pytest.mark.parametrize("method", ["semantic", "phi"])
    def test_is_cantor_builds_one_analysis(self, run, digraph_file, kernel_calls, method):
        path = digraph_file(LOOPS2)
        expected = (1, "is-cantor false\nwitness u=1 v=1\n", "")
        assert run("is-cantor", "--digraph", path, "--method", method) == expected
        assert kernel_calls == {"pair_table": 0, "find_surjection": 1}

    def test_is_cantor_phi_method(self, run, digraph_file):
        path = digraph_file("vertices 1\n")
        code, out, _ = run("is-cantor", "--digraph", path, "--method", "phi")
        assert code == 0 and out.strip() == "is-cantor true"

    def test_is_strongly_extensive(self, run, digraph_file):
        path = digraph_file("vertices 2\n1 1\n")
        code, out, _ = run("is-strongly-extensive", "--digraph", path)
        assert (code, out.strip()) == (0, "is-strongly-extensive true")
        path = digraph_file("vertices 1\n1 1\n")
        code, out, _ = run("is-strongly-extensive", "--digraph", path)
        assert (code, out.strip()) == (1, "is-strongly-extensive false")

    def test_extract_surjection(self, run, digraph_file):
        path = digraph_file(LOOPS2)
        code, out, _ = run("extract-surjection", "--digraph", path, "--u", "1", "--v", "1")
        assert code == 0
        assert out.strip().splitlines() == ["extract-surjection true", "pair 1 1"]

    def test_a_witness_is_read_back_swapped(self, run, digraph_file):
        # is-cantor names the ground vertex u and the surjection v, while
        # extract-surjection takes the surjection as --u and the ground as --v
        path = digraph_file("vertices 4\n1 2\n1 3\n2 3\n2 4\n3 4\n4 1\n")
        assert run("is-cantor", "--digraph", path) == (1, "is-cantor false\nwitness u=2 v=1\n", "")
        assert run("extract-surjection", "--digraph", path, "--u", "1", "--v", "2") == (
            0, "extract-surjection true\npair 1 2\n", ""
        )
        assert run("extract-surjection", "--digraph", path, "--u", "2", "--v", "1")[:2] == (
            1, "extract-surjection false\n"
        )

    def test_extract_surjection_false(self, run, digraph_file):
        path = digraph_file("vertices 1\n")
        code, out, _ = run("extract-surjection", "--digraph", path, "--u", "1", "--v", "1")
        assert code == 1 and out.strip() == "extract-surjection false"

    def test_omega_output_parses(self, run):
        code, out, _ = run("omega", "--levels", "2")
        assert code == 0
        assert load_digraph(out).arrows == omega_prefix(2).arrows
        assert out == dump_digraph(omega_prefix(2))

    def test_census_row(self, run):
        code, out, _ = run("census", "--n", "1")
        assert code == 0
        fields = out.strip().split("\t")
        assert fields[:4] == ["1", "2", "1", "1"]

    def test_census_witnesses(self, run):
        code, out, _ = run("census", "--n", "1", "--list-witnesses")
        assert code == 0
        assert "# digraph 1" in out
        assert "vertices 1" in out


class TestErrors:
    def test_unknown_verb_is_usage_error(self, run):
        assert run("frobnicate")[0] == 2

    def test_missing_file_is_usage_error(self, run):
        code, _, err = run("is-cantor", "--digraph", "/nonexistent/file.dg")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize(
        "verb, flag, text",
        [
            ("is-cantor", "--digraph", b"vertices 2\n1 \xff\n"),
            ("parse", "--formula", b"( x1 = \xff )\n"),
            ("expand-scheme", "--scheme", b"P ( ?x ) := ( A x1 ( x1 in \xff ) )\n"),
        ],
    )
    def test_non_utf8_file_is_an_io_error(self, run, tmp_path, verb, flag, text):
        path = tmp_path / "bad.txt"
        path.write_bytes(text)
        code, out, err = run(verb, flag, str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: not UTF-8 text")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, data",
        [
            (["parse"], b"( x1 = \xff )\n"),
            (["is-cantor", "--digraph", "-"], b"vertices 2\n1 \xff\n"),
        ],
    )
    def test_non_utf8_stdin_is_an_io_error(self, capsys, monkeypatch, argv, data):
        # a real stdin decodes with surrogateescape and has the raw bytes under .buffer
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
        monkeypatch.setattr("sys.stdin", stdin)
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: stdin: not UTF-8 text at byte {data.index(0xFF)}\n"

    def test_utf8_stdin_is_read_through_its_buffer(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO("( x1 = x1 ) # \u00e9\n".encode()), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        assert main(["parse"]) == 0
        assert capsys.readouterr().out == "ok length=5\n"

    def test_bad_digraph_content_is_invalid(self, run, digraph_file):
        path = digraph_file("vertices 2\n3 1\n")
        code, _, err = run("is-cantor", "--digraph", path)
        assert code == 1 and "invalid" in err

    def test_census_guard(self, run):
        code, _, err = run("census", "--n", "9")
        assert code == 1 and "invalid" in err

    def test_census_above_five_is_invalid(self, run):
        assert run("census", "--n", "8") == (1, "", "invalid: n=8 is outside [1, 7]\n")
        assert run("census", "--n", "6", "--list-witnesses") == (
            1, "", "invalid: n=6 is outside [1, 5] for a witness listing\n"
        )

    def test_clashing_scheme_is_invalid(self, run, tmp_path):
        path = tmp_path / "clash.scheme"
        path.write_text("P ( ?x ) := ( A x1 ( x1 in ?x ) )\nQ ( ?x ) := ( E x1 ( x1 in ?x ) )\n")
        assert run("expand-scheme", "--scheme", str(path)) == (
            1, "", "invalid: set-variable index sets of P and Q violate the strict ordering: [1] vs [1]\n"
        )

    def test_a_bad_header_names_its_line(self, run, tmp_path):
        path = tmp_path / "bad.scheme"
        path.write_text("P ( ?x ) := ( A x1 ( x1 in ?x ) )\nQ@ ( ?x ) := ( A x2 ( x2 in ?x ) )\n")
        assert run("expand-scheme", "--scheme", str(path)) == (
            1, "", "invalid: line 2: position 1: unknown token 'Q@'\n"
        )

    def test_a_ten_parameter_shortcut_with_a_comment_expands(self, run, tmp_path):
        params = " ; ".join(f"?y{i}" for i in range(1, 11))
        path = tmp_path / "ten.scheme"
        path.write_text(f"P ( {params} ) := ( A x1 ( x1 in ?y10 ) )  # ten parameters\n")
        assert run("expand-scheme", "--annotate", "--scheme", str(path)) == (
            0, "( A x1 ( x1 in ?y10 ) ) # length=9 neg=0\n", ""
        )

    def test_a_plain_value_error_is_not_invalid_input(self, capsys, digraph_file):
        # only the layers' invalid-input errors become `invalid:` lines; a bug stays a traceback
        with mock.patch("zfcantor.analysis.is_cantor", side_effect=ValueError("a bug")):
            with pytest.raises(ValueError, match="^a bug$"):
                main(["is-cantor", "--digraph", digraph_file(LOOPS2)])
        assert "invalid:" not in capsys.readouterr().err


LIST_WITNESSES_N2 = """\
# digraph 7
vertices 2
1 1
1 2
2 1
# digraph 9
vertices 2
1 1
2 2
# digraph 11
vertices 2
1 1
1 2
2 2
# digraph 13
vertices 2
1 1
2 1
2 2
# digraph 14
vertices 2
1 2
2 1
2 2
"""


# sha256 of the listing after the row line, which carries the elapsed time
LIST_WITNESSES_SHA256 = {
    3: "1dee0b1f7ec854ecb12f3b2446d4262b06bab6a6caae88ff3a327870bd67253a",
    4: "588d9e1945880ae407c993186f888f54dad3acfa02013d5c43f7edef84d354b2",
}


class BrokenPipe:
    """A stdout whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


class TestCensusVerb:
    def test_list_witnesses_output(self, run):
        code, out, _ = run("census", "--n", "2", "--list-witnesses")
        assert code == 0
        first, rest = out.split("\n", 1)
        assert first.split("\t")[:4] == ["2", "16", "5", "11"]
        assert rest == LIST_WITNESSES_N2

    @pytest.mark.parametrize("n", [3, 4])
    def test_list_witnesses_is_frozen(self, run, n):
        code, out, _ = run("census", "--n", str(n), "--list-witnesses")
        assert code == 0
        rest = out.split("\n", 1)[1]
        assert hashlib.sha256(rest.encode()).hexdigest() == LIST_WITNESSES_SHA256[n]

    def test_counter_text_is_the_dump_of_the_counter_digraph(self):
        for n in (1, 2, 3):
            text = counter_text(n)
            for counter in range(2 ** (n * n)):
                assert text(counter) == dump_digraph(digraph_from_counter(n, counter)), (n, counter)
        text = counter_text(4)
        for counter in witness_listing(4)[1]:
            assert text(counter) == dump_digraph(digraph_from_counter(4, counter)), counter

    @pytest.mark.parametrize("argv", [["census", "--n", "3", "--list-witnesses"], ["omega", "--levels", "2"]])
    def test_closed_stdout_exits_2_without_a_traceback(self, capsys, monkeypatch, argv):
        monkeypatch.setattr("sys.stdout", BrokenPipe())
        assert main(argv) == 2
        assert capsys.readouterr().err == ""

    def test_jobs_is_a_usage_error(self, run):
        code, out, err = run("census", "--n", "2", "--jobs", "2")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --jobs 2" in err


class TestInputGuards:
    @pytest.mark.parametrize("n", [MAX_VERTICES + 1, 99999999999])
    @pytest.mark.parametrize("verb", ["is-cantor", "is-strongly-extensive"])
    def test_huge_vertex_header_is_invalid(self, run, digraph_file, verb, n):
        path = digraph_file(f"vertices {n}\n")
        code, out, err = run(verb, "--digraph", path)
        assert (code, out) == (1, "")
        assert err == f"invalid: line 1: {n} vertices exceed {MAX_VERTICES}\n"

    def test_largest_vertex_header_loads(self):
        assert load_digraph(f"vertices {MAX_VERTICES}\n").n == MAX_VERTICES

    @pytest.mark.parametrize("text", [DEEP_NEGATIONS, DEEP_QUANTIFIERS], ids=["negations", "quantifiers"])
    def test_deep_nesting_is_invalid(self, run, text):
        code, out, err = run("parse", stdin=text)
        assert (code, out) == (1, "")
        assert err.startswith("invalid: position ") and "nest deeper than" in err

    def test_phi_method_rejects_large_digraphs(self, run, digraph_file):
        path = digraph_file(PATH3000)
        code, out, err = run("is-cantor", "--digraph", path, "--method", "phi")
        assert (code, out) == (1, "")
        assert err.startswith("invalid: 5 quantified variables over 3000 vertices")

    def test_phi_method_answers_up_to_16_vertices(self, run, digraph_file):
        path = digraph_file(dump_digraph(all_loops(16)))
        expected = (1, "is-cantor false\nwitness u=1 v=1\n", "")
        assert run("is-cantor", "--digraph", path, "--method", "phi") == expected
        assert run("is-cantor", "--digraph", path) == expected
        path = digraph_file(dump_digraph(all_loops(17)))
        code, out, err = run("is-cantor", "--digraph", path, "--method", "phi")
        assert (code, out) == (1, "")
        assert err.startswith("invalid: 5 quantified variables over 17 vertices")

    def test_wide_formula_on_a_long_path_is_invalid(self, run, digraph_file):
        path = digraph_file(PATH3000)
        start = time.perf_counter()
        code, out, err = run("eval", "--digraph", path, stdin=CHAIN8)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err.startswith("invalid: 8 quantified variables over 3000 vertices")

    def test_semantic_method_answers_on_a_long_path(self, run, digraph_file):
        path = digraph_file(PATH3000)
        start = time.perf_counter()
        code, out, _ = run("is-cantor", "--digraph", path)
        assert time.perf_counter() - start < 2.0
        assert (code, out) == (0, "is-cantor true\n")

    def test_doubling_scheme_is_invalid_at_once(self, run, tmp_path):
        path = tmp_path / "doubling.scheme"
        path.write_text(DOUBLING20)
        start = time.perf_counter()
        code, out, err = run("expand-scheme", "--scheme", str(path))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err.startswith("invalid: P13: the expansions reach 98253 symbols")

    def test_an_expansion_past_the_depth_bound_is_invalid(self, run, tmp_path):
        path = tmp_path / "deep.scheme"
        path.write_text(DEPTH_SCHEME)
        code, out, err = run("expand-scheme", "--scheme", str(path))
        assert (code, out) == (1, "")
        assert err == "invalid: position 212: formulas nest deeper than 200 levels\n"

    def test_high_in_degree_is_a_false_verdict(self, run, digraph_file):
        # a 25-subset neighborhood cannot be strongly extensive on 26 vertices
        path = digraph_file("vertices 26\n" + "".join(f"{u} 26\n" for u in range(1, 26)))
        code, out, err = run("is-strongly-extensive", "--digraph", path)
        assert (code, out, err) == (1, "is-strongly-extensive false\n", "")


FUZZ_TOKENS = ["(", ")", ";", "!", "->", "<->", "&", "|", "in", "=", "E", "A",
               "x1", "x2", "x3", "x0", "?x", "SUS", "#", "@"]


@pytest.fixture(scope="module")
def chain2_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "chain2.dg"
    path.write_text(CHAIN2)
    return str(path)


@given(text=st.one_of(st.lists(st.sampled_from(FUZZ_TOKENS), max_size=30).map(" ".join), st.text(max_size=30)))
@example(text=DEEP_NEGATIONS)
@example(text=DEEP_QUANTIFIERS)
def test_formula_verbs_exit_with_a_status_on_any_text(chain2_file, text):
    for argv in (["parse"], ["classify"], ["eval", "--digraph", chain2_file, "--assign", "x1=1,x2=2"]):
        err = io.StringIO()
        with mock.patch("sys.stdin", io.StringIO(text)), redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), (argv, text)
        assert "Traceback" not in err.getvalue()
