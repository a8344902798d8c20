"""Set-theoretic formulas over finite digraphs.

Parse and print formulas of a small set-theoretic language, expand
well-formed abbreviation schemes into predicate-free formulas, build the
494-symbol Cantor sentence, evaluate satisfaction in finite digraphs,
and run exhaustive censuses of Cantor and strongly extensive digraphs.

The public names are read from their modules on first use (PEP 562), so
``import zfcantor`` loads the digraph kernel and the census, and the
sentence side (formulas, schemes, the Cantor sentence, evaluation) loads
only when a name from it is read.
"""

from importlib import import_module as _import_module

# Bound here, not on first use.  The first import of the submodule
# zfcantor.census sets the package attribute `census` to the module, and
# `__getattr__` is never asked for a name that is set.  So the submodule
# is imported now, and `census` then rebound to the function; a later
# `from zfcantor.census import ...` finds the module loaded and sets
# nothing.
from .census import census

# module -> the public names it defines
_EXPORTS = {
    "analysis": (
        "DigraphAnalysis", "PairResolution", "SurjectionWitness", "cantor_witness", "extract_surjection",
        "is_cantor", "is_strongly_extensive", "omega_level_ranges", "omega_prefix",
    ),
    "cantor": (
        "EXPECTED_LENGTHS", "NamedExpansion", "SENTENCE_LENGTH", "builtin_scheme", "emit_expansions",
        "emit_phi",
    ),
    "census": ("CensusRow", "digraph_from_counter"),
    "digraphs": ("Digraph", "all_loops", "dump_digraph", "edgeless", "load_digraph"),
    "formulas": (
        "Formula", "Occurrence", "Word", "classify", "count", "free_variables", "good_bracketing",
        "is_sentence", "occurrences", "parse", "parse_text", "render", "render_text", "subformulas",
        "tokenize", "word_diff",
    ),
    "schemes": ("Scheme", "Shortcut", "expand", "instantiate", "parse_scheme_text", "validate_scheme"),
    "semantics": ("evaluate", "evaluate_sentence"),
    "substitution": ("rep", "rep0", "sub1", "sub2"),
    "symbols": ("PredicateSignature", "Symbol", "SymbolKind", "new_var", "predicate", "set_var"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted({"census", *_EXPORTS, *_MODULE_OF})
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)  # which also sets the attribute
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value  # the next read finds it without this call
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
