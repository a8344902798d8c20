"""Set-theoretic formulas over finite digraphs.

Parse and print formulas of a small set-theoretic language, expand
well-formed abbreviation schemes into predicate-free formulas, build the
494-symbol Cantor sentence, evaluate satisfaction in finite digraphs,
and run exhaustive censuses of Cantor and strongly extensive digraphs.
"""

from .analysis import (
    DigraphAnalysis,
    PairResolution,
    SurjectionWitness,
    cantor_witness,
    extract_surjection,
    is_cantor,
    is_strongly_extensive,
    omega_level_ranges,
    omega_prefix,
)
from .cantor import (
    EXPECTED_LENGTHS,
    NamedExpansion,
    SENTENCE_LENGTH,
    builtin_scheme,
    emit_expansions,
    emit_phi,
)
from .census import CensusRow, census, digraph_from_counter
from .digraphs import Digraph, all_loops, dump_digraph, edgeless, load_digraph
from .formulas import (
    Formula,
    Occurrence,
    Word,
    classify,
    count,
    free_variables,
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
from .schemes import Scheme, Shortcut, expand, instantiate, parse_scheme_text, validate_scheme
from .semantics import evaluate, evaluate_sentence
from .substitution import rep, rep0, sub1, sub2
from .symbols import PredicateSignature, Symbol, SymbolKind, new_var, predicate, set_var

__version__ = "0.1.0"
