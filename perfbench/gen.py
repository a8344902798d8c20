"""Seeded inputs for the benchmark stages.

Every generator takes a ``random.Random`` and nothing else that varies,
so one seed always yields the same inputs.  Each stage draws its corpus
once from a fixed seed (``corpus_rng``), so every run does the same
amount of work; the run's own seed then draws, for every pass over the
corpus, the arrow order of each digraph file (and, for large digraphs,
the vertex labels), the names of each formula's set variables, and the
order of the calls.  Small digraphs keep their corpus labels, because
the time to decide one with phi depends on where in the vertex order a
surjection is found.  Formulas, schemes, words and
digraph files are spelled here as plain token strings, independently of
zfcantor's own printer, so that the front end's round trip can be
checked against text the program did not produce.  The only calls into
zfcantor are the ``classify`` callbacks that sort random small digraphs
into Cantor and non-Cantor strata before any timing starts.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

CORPUS_SEED = 20251002
VERDICT_SIZES = (3, 4, 5)
VERDICT_PER_STRATUM = {"full": 8, "light": 8, "tiny": 1}
LARGE_SIZES = {"full": (32, 64, 96, 128), "light": (32, 48), "tiny": (8, 12)}
CENSUS_N = {"full": 4, "light": 3, "tiny": 2}
FORMULAS_PER_PASS = 12
SCHEMES_PER_PASS = 3
WORD_OPS_PER_PASS = 8
# Built-in expansions run from 17 to 485 symbols and the sentence has 494;
# the corpus reaches about ten times the sentence.
FORMULA_SIZE_RANGE = (17, 5000)
EXPANSION_CAP = 5000
MAX_DEPTH = 60
SET_VARIABLES = 24
OPERATORS = ("->", "<->", "&", "|")


def corpus_rng(stage: str) -> random.Random:
    return random.Random(f"{CORPUS_SEED}:{stage}")


def digraph_text(rng: random.Random, n: int, arrows) -> str:
    """A digraph file with the arrows in seeded order."""
    lines = [f"{u} {v}" for u, v in arrows]
    rng.shuffle(lines)
    return "\n".join([f"vertices {n}", *lines]) + "\n"


def random_arrows(rng: random.Random, n: int, density: float) -> list[tuple[int, int]]:
    return [
        (u, v) for u in range(1, n + 1) for v in range(1, n + 1) if rng.random() < density
    ]


# ---------------------------------------------------------------------------
# Digraphs


@dataclass(frozen=True)
class DigraphSpec:
    """A corpus digraph: its arrows and what its verdict must be."""

    n: int
    cantor: bool
    arrows: tuple[tuple[int, int], ...]
    component: frozenset[int] = frozenset()  # planted vertices (large digraphs)


@dataclass(frozen=True)
class DigraphInput:
    index: int  # position in the corpus, the same in every pass
    n: int
    cantor: bool
    component: frozenset[int]
    text: str


def verdict_corpus(rng: random.Random, classify, per_stratum: int) -> list[DigraphSpec]:
    """``per_stratum`` digraphs per stratum n x Cantor/non-Cantor.

    So each n carries Cantor and non-Cantor digraphs in equal shares.
    ``classify(n, arrows)`` returns the semantic Cantor verdict.
    """
    items = []
    for n in VERDICT_SIZES:
        for want in (True, False):
            for _ in range(per_stratum):
                while True:
                    arrows = random_arrows(rng, n, rng.uniform(0.1, 0.7))
                    if classify(n, arrows) == want:
                        break
                items.append(DigraphSpec(n, want, tuple(arrows)))
    return items


def digraph_pass(rng: random.Random, corpus: list[DigraphSpec], relabel: bool) -> list[DigraphInput]:
    """Every corpus digraph as file text, optionally relabelled, in seeded order.

    A relabelled digraph is isomorphic to its spec, so it keeps the
    verdict; a planted component moves with its vertices.
    """
    items = []
    for index, spec in enumerate(corpus):
        label = list(range(1, spec.n + 1))
        if relabel:
            rng.shuffle(label)
        arrows = [(label[u - 1], label[v - 1]) for u, v in spec.arrows]
        component = frozenset(label[v - 1] for v in spec.component)
        items.append(DigraphInput(index, spec.n, spec.cantor, component, digraph_text(rng, spec.n, arrows)))
    rng.shuffle(items)
    return items


def small_pool(rng: random.Random, classify, per_class: int = 6) -> dict[bool, list]:
    """Small digraphs on 2-3 vertices, sorted by their Cantor verdict."""
    pool: dict[bool, list] = {True: [], False: []}
    while min(len(v) for v in pool.values()) < per_class:
        c = rng.choice((2, 3))
        arrows = random_arrows(rng, c, rng.uniform(0.2, 0.8))
        bucket = pool[classify(c, arrows)]
        if len(bucket) < per_class:
            bucket.append((c, arrows))
    return pool


def large_digraph(rng: random.Random, n: int, small: tuple[int, list], cantor: bool) -> DigraphSpec:
    """A small digraph embedded in n vertices whose Cantor verdict it keeps.

    Every vertex outside the component gets in-degree at least three,
    with at least one in-neighbor outside the component.  Such a vertex
    is never a singleton, doubleton or ordered pair, is never a subset
    of a component vertex, and cannot be a relation, so the surjections
    of the whole digraph are exactly those of the component.
    """
    c, arrows = small
    labels = rng.sample(range(1, n + 1), c)
    component = set(labels)
    rest = [v for v in range(1, n + 1) if v not in component]
    out = {(labels[u - 1], labels[v - 1]) for u, v in arrows}
    for r in rest:
        sources = {rng.choice(rest)}
        target = rng.randint(3, 6)
        while len(sources) < target:
            sources.add(rng.randint(1, n))
        out.update((s, r) for s in sources)
    return DigraphSpec(n, cantor, tuple(sorted(out)), frozenset(labels))


def large_corpus(rng: random.Random, sizes, pool: dict[bool, list]) -> list[DigraphSpec]:
    """One Cantor and one planted non-Cantor digraph per size."""
    return [
        large_digraph(rng, n, rng.choice(pool[cantor]), cantor)
        for n in sizes
        for cantor in (True, False)
    ]


# ---------------------------------------------------------------------------
# Formulas


@dataclass(frozen=True)
class FormulaInput:
    text: str
    tokens: int
    nodes: int
    depth: int
    free: frozenset[str]


class _FormulaWriter:
    """Random formula text under a token budget, tracking what the parser must find."""

    def __init__(self, rng: random.Random, pool=(), predicates=(), next_index: int | None = None):
        self.rng = rng
        self.out: list[str] = []
        self.nodes = 0
        self.free: set[str] = set()
        self.pool = tuple(pool)  # new variables usable in atoms (scheme bodies)
        self.predicates = tuple(predicates)  # (name, arity) usable in atoms
        self.next_index = next_index  # fresh binder indices when set (scheme bodies)
        self.used: list[str] = []  # predicate names, in order of use

    def variable(self, scope: tuple[str, ...]) -> str:
        rng = self.rng
        if self.pool:
            return rng.choice(scope + self.pool)
        if scope and rng.random() < 0.85:
            return rng.choice(scope)
        token = f"x{rng.randint(1, SET_VARIABLES)}"
        if token not in scope:
            self.free.add(token)
        return token

    def atom(self, scope: tuple[str, ...]) -> None:
        rng = self.rng
        if self.predicates and rng.random() < 0.6:
            name, arity = rng.choice(self.predicates)
            args = [self.variable(scope) for _ in range(arity)]
            self.out += [name, "(", " ; ".join(args), ")"]
            self.used.append(name)
        else:
            a, b = self.variable(scope), self.variable(scope)
            self.out += ["(", a, rng.choice(("in", "=")), b, ")"]

    def formula(self, budget: int, depth: int, scope: tuple[str, ...]) -> int:
        """Emit one formula of about ``budget`` tokens; returns its depth."""
        rng = self.rng
        self.nodes += 1
        r = rng.random()
        if budget < 13 or depth >= MAX_DEPTH:
            self.atom(scope)
            return depth
        if r < 0.12:
            self.out.append("!")
            return self.formula(budget - 1, depth + 1, scope)
        if r < 0.35:
            if self.next_index is None:
                var = f"x{rng.randint(1, SET_VARIABLES)}"
            else:
                var = f"x{self.next_index}"
                self.next_index += 1
            self.out += ["(", rng.choice(("E", "A")), var]
            inner = self.formula(budget - 4, depth + 1, scope + (var,))
            self.out.append(")")
            return inner
        left = rng.randint(5, budget - 8)
        self.out.append("(")
        d1 = self.formula(left, depth + 1, scope)
        self.out.append(rng.choice(OPERATORS))
        d2 = self.formula(budget - 3 - left, depth + 1, scope)
        self.out.append(")")
        return max(d1, d2)


def formula_input(rng: random.Random, budget: int) -> FormulaInput:
    """A predicate-free formula of about ``budget`` tokens."""
    b = _FormulaWriter(rng)
    depth = b.formula(budget, 1, ())
    text = " ".join(b.out)
    return FormulaInput(text, len(text.split()), b.nodes, depth, frozenset(b.free))


@dataclass(frozen=True)
class SchemeInput:
    text: str
    assignment: tuple[tuple[str, int], ...]  # last shortcut's parameters -> set-variable indices
    lengths: tuple[int, ...]  # expected expansion lengths
    builtin: bool = False


def _params(rng: random.Random, arity: int) -> tuple[str, ...]:
    if arity <= 3 and rng.random() < 0.7:
        return ("?x", "?y", "?z")[:arity]
    return tuple(f"?y{i}" for i in range(1, arity + 1))


def scheme_input(rng: random.Random) -> SchemeInput:
    """A random strict-mode scheme whose expansions stay under EXPANSION_CAP.

    Each body refers only to earlier shortcuts and quantifies fresh set
    variables numbered after every earlier body's, which is what strict
    mode requires; no set variable occurs free.  An expansion's length is
    its body's length plus, for each predicate atom, the referenced
    expansion's length minus the atom's own.
    """
    count = rng.randint(3, 8)
    next_index = rng.randint(1, 5)
    letters = rng.sample("BCDFGHJKLMNPQRSTUVWXYZ", count)
    defined: list[tuple[str, int]] = []  # (name, arity) of earlier shortcuts
    lengths: dict[str, int] = {}
    lines: list[str] = []
    params: tuple[str, ...] = ()
    for i in range(count):
        name = f"{letters[i]}{i + 1}"
        params = _params(rng, rng.choice((2, 2, 3, 4)))
        arity = dict(defined)
        for _ in range(20):
            b = _FormulaWriter(rng, pool=params, predicates=defined, next_index=next_index)
            b.formula(rng.randint(16, 80), 1, ())
            length = len(" ".join(b.out).split())
            length += sum(lengths[used] - (2 * arity[used] + 2) for used in b.used)
            if length <= EXPANSION_CAP:
                break
        else:
            b = _FormulaWriter(rng, pool=params, next_index=next_index)
            b.formula(rng.randint(12, 60), 1, ())
            length = len(" ".join(b.out).split())
        next_index = b.next_index
        lengths[name] = length
        defined.append((name, len(params)))
        lines.append(f"{name} ( {' ; '.join(params)} ) := {' '.join(b.out)}")
    assignment = tuple((p, 100 + i) for i, p in enumerate(params))
    return SchemeInput("\n".join(lines) + "\n", assignment, tuple(lengths.values()))


# ---------------------------------------------------------------------------
# Words for rep / rep0 / sub1 / sub2


@dataclass(frozen=True)
class WordOp:
    kind: str
    args: tuple
    expected: object


def _word(rng: random.Random, lo: int, hi: int) -> tuple[str, ...]:
    alphabet = ("(", ")", "in", "=", "!", "&", "|", "->", "E", "A", "x1", "x2", "x3", "?x", "?y")
    return tuple(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))


def _interval(rng: random.Random, lo: int, hi: int) -> tuple[int, int]:
    a, b = rng.randint(lo, hi), rng.randint(lo, hi)
    return min(a, b), max(a, b)


def word_op(rng: random.Random, kind: str) -> WordOp:
    """One substitution call with its expected result, computed by slicing."""
    u = _word(rng, 20, 400)
    if kind == "rep":
        v = _word(rng, 1, 12)
        l, m = _interval(rng, 1, len(u))
        return WordOp(kind, (u, v, l, m), u[: l - 1] + v + u[m:])
    if kind == "rep0":
        v = _word(rng, 1, 12)
        cut = rng.randint(2, len(u) - 1)
        first, second = (1, cut - 1), (cut, len(u))
        if rng.random() < 0.5:
            first, second = second, first
        l, m = _interval(rng, *first)
        l2, m2 = _interval(rng, *second)
        shift = 0 if m2 < l else len(v) - (m - l + 1)
        return WordOp(kind, (u, v, l, m, l2, m2), (u[: l - 1] + v + u[m:], l2 + shift, m2 + shift))
    if kind == "sub1":
        sources = rng.sample(sorted(set(u)), min(3, len(set(u))))
        mapping = {s: f"x{rng.randint(4, 30)}" for s in sources}
        return WordOp(kind, (u, mapping), tuple(mapping.get(s, s) for s in u))
    # sub2: pairwise disjoint intervals, listed in seeded order
    cuts = sorted(rng.sample(range(1, len(u) + 1), rng.randint(2, 8)))
    triples = [(_word(rng, 1, 12), lo, hi) for lo, hi in zip(cuts[::2], cuts[1::2])]
    rng.shuffle(triples)
    expected = u
    for v, l, m in sorted(triples, key=lambda t: t[1], reverse=True):
        expected = expected[: l - 1] + v + expected[m:]
    return WordOp(kind, (u, triples), expected)


@dataclass(frozen=True)
class FormulasCorpus:
    formulas: list[FormulaInput]
    schemes: list[SchemeInput]
    words: list[WordOp]


def formulas_corpus(rng: random.Random) -> FormulasCorpus:
    """Formula sizes evenly spaced in log scale over FORMULA_SIZE_RANGE."""
    lo, hi = map(math.log, FORMULA_SIZE_RANGE)
    budgets = [round(math.exp(lo + (hi - lo) * (i + 0.5) / FORMULAS_PER_PASS)) for i in range(FORMULAS_PER_PASS)]
    kinds = ("rep", "rep0", "sub1", "sub2")
    return FormulasCorpus(
        [formula_input(rng, budget) for budget in budgets],
        [scheme_input(rng) for _ in range(SCHEMES_PER_PASS)],
        [word_op(rng, kinds[i % len(kinds)]) for i in range(WORD_OPS_PER_PASS)],
    )


def renamed(rng: random.Random, item: FormulaInput) -> FormulaInput:
    """The formula under a seeded permutation of x1..x{SET_VARIABLES}; its shape is unchanged."""
    perm = rng.sample(range(1, SET_VARIABLES + 1), SET_VARIABLES)
    name = {f"x{i}": f"x{j}" for i, j in zip(range(1, SET_VARIABLES + 1), perm)}
    text = " ".join(name.get(token, token) for token in item.text.split())
    return FormulaInput(text, item.tokens, item.nodes, item.depth, frozenset(name[v] for v in item.free))


def formulas_pass(rng: random.Random, corpus: FormulasCorpus) -> FormulasCorpus:
    """The corpus with renamed formulas, every list in seeded order."""
    formulas = [renamed(rng, item) for item in corpus.formulas]
    schemes, words = list(corpus.schemes), list(corpus.words)
    for items in (formulas, schemes, words):
        rng.shuffle(items)
    return FormulasCorpus(formulas, schemes, words)
