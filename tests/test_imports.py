"""What each entry point imports, and the package's public names.

``import zfcantor`` loads the digraph kernel and the census; the
sentence side loads with the first name read from it, and the CLI loads
only the layers its verb uses.  Each check runs in a fresh interpreter.
"""
import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

# The public names of the package before its names were resolved on demand.
PUBLIC_NAMES = [
    "CensusRow", "Digraph", "DigraphAnalysis", "EXPECTED_LENGTHS", "Formula", "NamedExpansion",
    "Occurrence", "PairResolution", "PredicateSignature", "SENTENCE_LENGTH", "Scheme", "Shortcut",
    "SurjectionWitness", "Symbol", "SymbolKind", "Word", "all_loops", "analysis", "builtin_scheme",
    "cantor", "cantor_witness", "census", "classify", "count", "digraph_from_counter", "digraphs",
    "dump_digraph", "edgeless", "emit_expansions", "emit_phi", "evaluate", "evaluate_sentence",
    "expand", "extract_surjection", "formulas", "free_variables", "good_bracketing", "instantiate",
    "is_cantor", "is_sentence", "is_strongly_extensive", "load_digraph", "new_var", "occurrences",
    "omega_level_ranges", "omega_prefix", "parse", "parse_scheme_text", "parse_text", "predicate",
    "render", "render_text", "rep", "rep0", "schemes", "semantics", "set_var", "sub1", "sub2",
    "subformulas", "substitution", "symbols", "tokenize", "validate_scheme", "word_diff",
]


def run(code: str):
    """The JSON that code prints last, run in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.startswith('zfcantor') or m == 'dataclasses')))"


def test_the_cantor_sentence_loads_no_evaluation_and_no_dataclasses():
    loaded = run(f"import json, sys, zfcantor\nzfcantor.emit_phi()\n{LOADED}")
    assert "zfcantor.cantor" in loaded
    assert not {"dataclasses", "zfcantor.semantics", "zfcantor.substitution"} & set(loaded)


def test_a_semantic_verdict_loads_no_formula_side(tmp_path):
    path = tmp_path / "d3.dg"
    path.write_text("vertices 3\n1 2\n2 3\n1 3\n")
    loaded = run(
        "import json, sys\nfrom zfcantor.cli import main\n"
        f"assert main(['is-cantor', '--method', 'semantic', '--digraph', {str(path)!r}]) == 0\n{LOADED}"
    )
    assert "zfcantor.analysis" in loaded
    assert not {"dataclasses", "zfcantor.formulas", "zfcantor.schemes", "zfcantor.cantor",
                "zfcantor.semantics"} & set(loaded)


def test_an_invalid_digraph_loads_no_formula_side(tmp_path):
    path = tmp_path / "bad.dg"
    path.write_text("vertices 2\n3 1\n")
    loaded = run(
        "import json, sys\nfrom zfcantor.cli import main\n"
        f"assert main(['is-cantor', '--digraph', {str(path)!r}]) == 1\n{LOADED}"
    )
    assert "zfcantor.digraphs" in loaded
    assert not {"zfcantor.formulas", "zfcantor.schemes", "zfcantor.semantics", "zfcantor.substitution"} & set(loaded)


def test_census_stays_the_function_after_its_module_is_imported():
    for first, second in [("import zfcantor", "from zfcantor.census import digraph_from_counter"),
                          ("from zfcantor.census import digraph_from_counter", "import zfcantor")]:
        kind = run(f"import json\n{first}\n{second}\nprint(json.dumps(type(zfcantor.census).__name__))")
        assert kind == "function"


def test_the_public_names_are_listed_and_resolve():
    listed = run(
        "import json, zfcantor\nnames = {}\nexec('from zfcantor import *', names)\n"
        "public = sorted(n for n in names if not n.startswith('_'))\n"
        "print(json.dumps([zfcantor.__all__, dir(zfcantor), public]))"
    )
    all_, dir_, star = listed
    for names in (all_, dir_, star):
        assert set(PUBLIC_NAMES) <= set(names)
    assert sorted(all_) == sorted(PUBLIC_NAMES)


def test_names_are_their_modules_objects():
    import importlib

    import zfcantor

    for name in PUBLIC_NAMES:
        value = getattr(zfcantor, name)
        module = getattr(value, "__module__", None)
        if isinstance(value, type(zfcantor)):
            assert value is importlib.import_module(f"zfcantor.{name}")
        elif module and module.startswith("zfcantor."):
            assert getattr(sys.modules[module], name) is value
    assert zfcantor.census is importlib.import_module("zfcantor.census").census
