"""The benchmark stages and their correctness gates.

A stage is a generator of seeded blocks plus a function that runs one
block through an ``Api`` and records samples into a ``Record``.  Each
gated unit (a census call, a digraph, a formula, a scheme, a word
operation, an omega pass) counts as one attempt; a unit whose output is
wrong, or whose call raises, counts as one failure and the stage goes
on with the next unit.
"""
from __future__ import annotations

import os
import random
import subprocess
import sys
import traceback
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter_ns

import zfcantor
from zfcantor.symbols import SymbolKind

import gen

# Frozen census rows (total, strongly extensive, Cantor): n <= 3 from the
# test suite, n = 4 the oracle-checked row.
EXPECTED_ROWS = {1: (2, 1, 1), 2: (16, 5, 11), 3: (512, 37, 388), 4: (65536, 513, 53499)}
OMEGA_VERTICES = {1: 1, 2: 3, 3: 11, 4: 2059}
OMEGA_LEVELS = 4
SRC = Path(__file__).resolve().parents[1] / "src"
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import zfcantor\n"
    "t1 = time.perf_counter()\n"
    "zfcantor.emit_phi()\n"
    "t2 = time.perf_counter()\n"
    "print(t1 - t0, t2 - t1)\n"
)


class Record:
    """Samples, counters and failures of one run."""

    def __init__(self):
        # A sample is (start, end, value), start and end in now() nanoseconds,
        # so that it can be scaled by how fast the machine ran meanwhile.
        self.samples: dict[str, list[tuple[int, int, float]]] = defaultdict(list)
        # metric -> corpus item -> its samples, one per pass over the corpus
        self.per_item: dict[str, dict[object, list[tuple[int, int, float]]]] = defaultdict(lambda: defaultdict(list))
        self.prober = None  # a probe.Prober while one runs
        self.now = perf_counter_ns
        self.counts: dict[str, int] = defaultdict(int)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def sample(self, key: str, value: float, start: int = 0, end: int = 0, item=None) -> None:
        samples = self.samples[key] if item is None else self.per_item[key][item]
        samples.append((start, end, value))

    def values(self, key: str) -> list[float]:
        return [value for _, _, value in self.samples[key]]

    def unit(self, what: str, fn) -> None:
        """Run one gated unit; ``fn`` returns a list of problems, empty when correct."""
        self.attempted += 1
        try:
            problems = fn()
        except Exception as exc:  # a raised output is a failed unit, not a crashed run
            problems = [f"raised {type(exc).__name__}: {exc}"]
            if len(self.errors) < 3:
                traceback.print_exc()
        if problems:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{what}: {problems[0]}")


def _ms(t0: int, t1: int) -> float:
    return (t1 - t0) / 1e6


# ---------------------------------------------------------------------------
# setup: what every CLI call pays before its first answer


def setup_blocks(rng: random.Random, size: str, api, rec: Record):
    while True:
        yield None


def _setup_once(rec: Record) -> list[str]:
    """Import and a cold emit_phi() in a fresh interpreter, which is waited for.

    The interpreter shares this process's CPU, so no probe runs meanwhile.
    """
    t0 = rec.now()
    with rec.prober.paused() if rec.prober else nullcontext():
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True, timeout=60, check=True,
        )
    t1 = rec.now()
    t_import, t_emit = map(float, done.stdout.split())
    rec.sample("setup_import_s", t_import, t0, t1)
    rec.sample("setup_emit_phi_s", t_emit, t0, t1)
    rec.sample("setup_s", t_import + t_emit, t0, t1)
    return []


def run_setup(api, rec: Record, block) -> None:
    rec.unit("setup", lambda: _setup_once(rec))


# ---------------------------------------------------------------------------
# census: census(n, jobs=1) over the whole counter range


def census_blocks(rng: random.Random, size: str, api, rec: Record):
    n = gen.CENSUS_N[size]
    if n == 4:
        # The n = 3 row is gated once before the timed n = 4 calls.
        rec.unit("census n=3", lambda: _census_check(api, rec, 3, timed=False))
    while True:
        yield n


def _row_problems(n: int, row) -> list[str]:
    want = EXPECTED_ROWS[n]
    return [] if row == want else [f"n={n} row {row}, expected {want}"]


def _census_check(api, rec: Record, n: int, timed: bool = True) -> list[str]:
    t0 = rec.now()
    if api.tracer is None:
        result = api.census(n, jobs=1)
        row = (result.total, result.strongly_extensive, result.cantor)
    else:
        row = _census_replica(api, n)
    t1 = rec.now()
    if timed:
        seconds = (t1 - t0) / 1e9
        rec.sample("census_digraphs_per_s", 2 ** (n * n) / seconds, t0, t1)
        rec.counts["census.total"] += row[0]
        rec.counts["census.strongly_extensive"] += row[1]
        rec.counts["census.cantor"] += row[2]
    return _row_problems(n, row)


def _census_replica(api, n: int) -> tuple[int, int, int]:
    """The census kernel's own calls, one span each, in counter order."""
    strongly_extensive = cantor = 0
    total = 2 ** (n * n)
    with api.span("census.replica"):
        for counter in range(total):
            api.request(counter)
            digraph = api.from_counter(n, counter)
            if api.strongly_extensive(digraph):
                strongly_extensive += 1
            if api.scan(api.pair_table(digraph)):
                cantor += 1
    return total, strongly_extensive, cantor


def run_census(api, rec: Record, n: int) -> None:
    rec.unit(f"census n={n}", lambda: _census_check(api, rec, n))


# ---------------------------------------------------------------------------
# verdict: the is-cantor path on small digraphs sent as file text


def _classify(n: int, arrows) -> bool:
    return zfcantor.is_cantor(zfcantor.Digraph(n, frozenset(arrows)))


def verdict_blocks(rng: random.Random, size: str, api, rec: Record):
    zfcantor.emit_phi()  # cold cost is setup_s; keep it out of the loop
    corpus = gen.verdict_corpus(gen.corpus_rng("verdict"), _classify, gen.VERDICT_PER_STRATUM[size])
    while True:
        yield gen.digraph_pass(rng, corpus, relabel=False)


def _verdict_one(api, rec: Record, item: gen.DigraphInput) -> list[str]:
    t0 = rec.now()
    digraph = api.load(item.text)
    semantic = api.is_cantor(digraph)
    witness = api.cantor_witness(digraph)
    strongly_extensive = api.strongly_extensive(digraph)
    t1 = rec.now()
    phi = api.is_cantor_phi(digraph)
    t2 = rec.now()
    rec.sample("verdict_semantic_us", (t1 - t0) / 1e3, t0, t1, item.index)
    rec.sample("verdict_phi_ms", _ms(t1, t2), t1, t2, item.index)
    rec.counts["verdict.digraphs"] += 1
    rec.counts["verdict.noncantor"] += not semantic
    rec.counts["semantics.sentences"] += 1
    problems = []
    if phi != semantic:
        problems.append(f"phi says {phi}, semantic says {semantic}")
    if semantic != item.cantor:
        problems.append(f"verdict {semantic}, the corpus froze {item.cantor}")
    if (witness is None) != semantic:
        problems.append(f"witness {witness} contradicts verdict {semantic}")
    if strongly_extensive and not semantic:
        problems.append("strongly extensive but not Cantor")
    if witness is not None:
        domain, function = witness
        found = api.extract_surjection(digraph, function, domain)
        if (found.function_vertex, found.domain_vertex) != (function, domain):
            problems.append(f"extract_surjection returned {found}")
    return problems


def run_verdict(api, rec: Record, block) -> None:
    for item in block:
        api.request(rec.counts["verdict.digraphs"])
        rec.unit(f"verdict n={item.n}", lambda: _verdict_one(api, rec, item))


# ---------------------------------------------------------------------------
# large: DigraphAnalysis at 32-128 vertices


def large_blocks(rng: random.Random, size: str, api, rec: Record):
    corpus_rng = gen.corpus_rng("large")
    corpus = gen.large_corpus(corpus_rng, gen.LARGE_SIZES[size], gen.small_pool(corpus_rng, _classify))
    while True:
        yield gen.digraph_pass(rng, corpus, relabel=True)


def _large_one(api, rec: Record, item: gen.DigraphInput) -> list[str]:
    t0 = rec.now()
    digraph = api.load(item.text)
    analysis = api.pair_table(digraph)
    cantor = api.scan(analysis)
    witness = api.witness_of(analysis)
    found = None
    if witness is not None:
        found = api.surjection_of(analysis, witness[1], witness[0])
    t1 = rec.now()
    rec.sample("large_s", (t1 - t0) / 1e9, t0, t1, item.index)
    problems = []
    if cantor != item.cantor:
        problems.append(f"n={item.n}: verdict {cantor}, the corpus froze {item.cantor}")
    if (witness is None) != item.cantor:
        problems.append(f"n={item.n}: witness {witness} with a frozen verdict {item.cantor}")
    if witness is not None and not set(witness) <= item.component:
        problems.append(f"n={item.n}: witness {witness} outside the planted {sorted(item.component)}")
    if found is not None and found.domain_vertex != witness[0]:
        problems.append(f"n={item.n}: extract_surjection returned {found}")
    return problems


def run_large(api, rec: Record, block) -> None:
    for item in block:
        api.request(item.index)
        rec.unit(f"large n={item.n}", lambda: _large_one(api, rec, item))


# ---------------------------------------------------------------------------
# omega: the countable construction's prefixes, at 2059 vertices


def omega_blocks(rng: random.Random, size: str, api, rec: Record):
    while True:
        yield OMEGA_LEVELS


def _omega_pass(api, rec: Record, levels: int) -> list[str]:
    t0 = rec.now()
    prefixes = [api.omega_prefix(k) for k in range(1, levels + 1)]
    top = prefixes[-1]
    strongly_extensive = api.strongly_extensive(top)
    reloaded = api.load(api.dump(top))
    t1 = rec.now()
    rec.sample("omega_s", (t1 - t0) / 1e9, t0, t1)
    problems = []
    sizes = [p.n for p in prefixes]
    if sizes != [OMEGA_VERTICES[k] for k in range(1, levels + 1)]:
        problems.append(f"prefix sizes {sizes}")
    if not strongly_extensive:
        problems.append(f"omega_prefix({levels}) is not strongly extensive")
    if reloaded != top:
        problems.append("dump/load round trip changed the prefix")
    return problems


def run_omega(api, rec: Record, levels: int) -> None:
    rec.unit("omega", lambda: _omega_pass(api, rec, levels))


# ---------------------------------------------------------------------------
# formulas: the front end, schemes and substitution


def builtin_scheme_input() -> gen.SchemeInput:
    """The nine-shortcut scheme, spelled as scheme-file text."""
    lines = []
    for sc in zfcantor.builtin_scheme().shortcuts:
        params = " ; ".join(p.token for p in sc.params)
        lines.append(f"{sc.name} ( {params} ) := {zfcantor.render_text(zfcantor.render(sc.body))}")
    # emit_phi() instantiates SUR ( ?x ; ?y ) at ( x19 ; x18 )
    return gen.SchemeInput("\n".join(lines) + "\n", (("?x", 19), ("?y", 18)), zfcantor.EXPECTED_LENGTHS, builtin=True)


def formulas_blocks(rng: random.Random, size: str, api, rec: Record):
    builtin = builtin_scheme_input()
    sentence = zfcantor.render(zfcantor.emit_phi())
    corpus = gen.formulas_corpus(gen.corpus_rng("formulas"))
    while True:
        yield gen.formulas_pass(rng, corpus), builtin, sentence


def _front_end(api, rec: Record, item: gen.FormulaInput, elapsed: list[tuple[int, int]]) -> list[str]:
    t0 = rec.now()
    word = api.tokenize(item.text)
    tree = api.parse(word)
    rendered = api.render(tree)
    text = api.render_text(rendered)
    _, free, labels = api.analyze(tree)
    elapsed.append((t0, rec.now()))
    rec.counts["formulas.tokens"] += len(word)
    rec.sample("formula_depth", item.depth)
    problems = []
    if rendered != word or text != item.text:
        problems.append("render round trip is not exact")
    if len(word) != item.tokens or len(labels) != item.nodes:
        problems.append(f"{len(word)} tokens and {len(labels)} nodes, expected {item.tokens} and {item.nodes}")
    if {v.token for v in free} != item.free:
        problems.append("free variables differ from the generator's")
    return problems


def _scheme(api, rec: Record, item: gen.SchemeInput, sentence) -> list[str]:
    assignment = {zfcantor.new_var(p[1:]): zfcantor.set_var(i) for p, i in item.assignment}
    t0 = rec.now()
    scheme = api.parse_scheme(item.text)
    expansions = api.expand(scheme)
    instance = api.instantiate(expansions[-1], assignment)
    t1 = rec.now()
    rec.sample("scheme_expand_ms", _ms(t0, t1), t0, t1, item.text)
    rec.counts["schemes.shortcuts"] += len(scheme.shortcuts)
    problems = []
    words = [zfcantor.render(e) for e in expansions]
    lengths = tuple(len(w) for w in words)
    if lengths != tuple(item.lengths):
        problems.append(f"expansion lengths {lengths}, expected {tuple(item.lengths)}")
    if any(sym.kind is SymbolKind.PREDICATE for w in words for sym in w):
        problems.append("an expansion still holds a predicate")
    if any(zfcantor.parse(w) != e for w, e in zip(words, expansions)):
        problems.append("an expansion does not re-parse to itself")
    body = zfcantor.render(instance)
    if len(body) != lengths[-1] or any(sym.kind is SymbolKind.NEW_VAR for sym in body):
        problems.append("instantiate changed the length or left a new variable")
    if item.builtin:
        word = zfcantor.tokenize("( A x18 ! ( E x19") + body + zfcantor.tokenize(") )")
        if len(word) != zfcantor.SENTENCE_LENGTH or word != sentence:
            problems.append(f"the sentence has {len(word)} symbols or differs from emit_phi()")
    return problems


def _word_op(api, rec: Record, op: gen.WordOp) -> list[str]:
    rec.counts["substitution.calls"] += 1
    got = getattr(api, op.kind)(*op.args)
    return [] if got == op.expected else [f"{op.kind} returned a different word"]


def run_formulas(api, rec: Record, block) -> None:
    corpus, builtin, sentence = block
    elapsed: list[tuple[int, int]] = []
    for i, item in enumerate(corpus.formulas):
        api.request(i)
        rec.unit("formula", lambda: _front_end(api, rec, item, elapsed))
    if len(elapsed) == len(corpus.formulas):
        tokens = sum(item.tokens for item in corpus.formulas)
        seconds = sum(t1 - t0 for t0, t1 in elapsed) / 1e9
        rec.sample("frontend_tokens_per_s", tokens / seconds, elapsed[0][0], elapsed[-1][1])
    for item in (*corpus.schemes, builtin):
        rec.unit("builtin scheme" if item.builtin else "scheme", lambda: _scheme(api, rec, item, sentence))
    for op in corpus.words:
        rec.unit(op.kind, lambda: _word_op(api, rec, op))


STAGES = {
    "setup": (setup_blocks, run_setup),
    "census": (census_blocks, run_census),
    "verdict": (verdict_blocks, run_verdict),
    "large": (large_blocks, run_large),
    "omega": (omega_blocks, run_omega),
    "formulas": (formulas_blocks, run_formulas),
}
