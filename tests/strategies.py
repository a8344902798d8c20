"""Shared hypothesis strategies."""
from __future__ import annotations

from hypothesis import Phase, settings
from hypothesis import strategies as st

from zfcantor.digraphs import Digraph
from zfcantor.formulas import occurrences, parse, tokenize

# a failing 200-deep word takes minutes to shrink, so it is reported as drawn
NO_SHRINK = settings(phases=[p for p in Phase if p is not Phase.shrink])

SET_VAR_TOKENS = [f"x{i}" for i in range(1, 6)]
NEW_VAR_TOKENS = ["?x", "?y"]


def variable_tokens(new_vars: bool):
    pool = SET_VAR_TOKENS + (NEW_VAR_TOKENS if new_vars else [])
    return st.sampled_from(pool)


def atom_text(new_vars: bool):
    return st.builds(
        lambda a, op, b: f"( {a} {op} {b} )",
        variable_tokens(new_vars),
        st.sampled_from(["in", "="]),
        variable_tokens(new_vars),
    )


PREDICATE_SIGNATURES = {"P": 2, "Q": 1}


def predicate_atom_text(new_vars: bool):
    """``P ( a ; b )`` or ``Q ( a )``, applying a predicate of PREDICATE_SIGNATURES."""

    def apply(name):
        arity = PREDICATE_SIGNATURES[name]
        args = st.lists(variable_tokens(new_vars), min_size=arity, max_size=arity)
        return args.map(lambda args: f"{name} ( {' ; '.join(args)} )")

    return st.sampled_from(sorted(PREDICATE_SIGNATURES)).flatmap(apply)


def formula_text(new_vars: bool = False, max_leaves: int = 8, predicates: bool = False):
    """Formula texts; with ``predicates``, atoms may apply PREDICATE_SIGNATURES."""
    leaves = atom_text(new_vars)
    if predicates:
        leaves = st.one_of(leaves, predicate_atom_text(new_vars))

    def extend(children):
        unary = children.map(lambda f: f"! {f}")
        binary = st.builds(
            lambda a, op, b: f"( {a} {op} {b} )",
            children,
            st.sampled_from(["->", "<->", "&", "|"]),
            children,
        )
        quantified = st.builds(
            lambda q, v, f: f"( {q} {v} {f} )",
            st.sampled_from(["E", "A"]),
            st.sampled_from(SET_VAR_TOKENS),
            children,
        )
        return st.one_of(unary, binary, quantified)

    return st.recursive(leaves, extend, max_leaves=max_leaves)


def _close(text: str) -> str:
    tree = parse(tokenize(text))
    free = sorted(
        {occ.variable.token for occ in occurrences(tree) if not occ.bound}
    )
    for tok in free:
        text = f"( A {tok} {text} )"
    return text


def sentence_text(max_leaves: int = 6):
    return formula_text(new_vars=False, max_leaves=max_leaves).map(_close)


def digraphs(max_n: int = 3):
    def build(n):
        pairs = st.tuples(st.integers(1, n), st.integers(1, n))
        return st.builds(Digraph, st.just(n), st.frozensets(pairs))

    return st.integers(1, max_n).flatmap(build)


@st.composite
def repeated_masks(draw, max_n: int = 8):
    """The masks of a digraph on up to max_n vertices, drawn so that masks repeat.

    Each vertex takes a mask from a pool of up to three, a singleton
    mask, or any mask, so grounds share in-neighborhoods and pair
    vertices are common.
    """
    n = draw(st.integers(1, max_n))
    masks = st.integers(0, (1 << n) - 1)
    pool = draw(st.lists(masks, min_size=1, max_size=3))
    choice = st.one_of(st.sampled_from(pool), masks, st.sampled_from([1 << k for k in range(n)]))
    return tuple(draw(st.lists(choice, min_size=n, max_size=n)))


@st.composite
def small_masks(draw, max_n: int = 8):
    """The masks of a digraph on up to max_n vertices, biased to 0 to 2 bits.

    Each vertex takes a singleton mask, a doubleton mask or any nonempty
    mask; in half the digraphs it may also take the empty mask.  Small
    masks make the singleton, doubleton and pair vertices of a surjection
    onto a power set common, and uniform masks rarely form them.
    """
    n = draw(st.integers(1, max_n))
    vertex = st.integers(0, n - 1)
    choices = [
        vertex.map(lambda a: 1 << a),
        st.tuples(vertex, vertex).map(lambda ab: 1 << ab[0] | 1 << ab[1]),
        st.integers(1, (1 << n) - 1),
    ]
    if draw(st.booleans()):
        choices.append(st.just(0))
    return tuple(draw(st.lists(st.one_of(choices), min_size=n, max_size=n)))


@st.composite
def strongly_extensive_masks(draw, max_n: int = 6):
    """The masks of a strongly extensive digraph on up to max_n vertices.

    The realized masks grow from the empty mask by adding a realized mask
    plus one bit whenever every one-bit removal of the result is realized,
    so they stay a downset; each is then given to at least one vertex.
    """
    n = draw(st.integers(1, max_n))
    realized = [0]
    for _ in range(draw(st.integers(0, 2 * n))):
        if len(realized) == n:
            break
        m = draw(st.sampled_from(realized)) | 1 << draw(st.integers(0, n - 1))
        if m not in realized and all(m ^ 1 << a in realized for a in range(n) if m >> a & 1):
            realized.append(m)
    rest = draw(st.lists(st.sampled_from(realized), min_size=n - len(realized), max_size=n - len(realized)))
    return tuple(draw(st.permutations(realized + rest)))


LETTERS = st.sampled_from(list("abcdef"))


def letter_words(min_size: int = 1, max_size: int = 12):
    return st.lists(LETTERS, min_size=min_size, max_size=max_size).map(tuple)


@st.composite
def word_with_disjoint_patches(draw, max_k: int = 4):
    """A word plus up to max_k disjoint (replacement, l, m) triples."""
    u = draw(letter_words(min_size=2, max_size=14))
    n = len(u)
    k = draw(st.integers(0, min(max_k, n // 2)))
    cuts = sorted(draw(st.lists(st.integers(1, n), min_size=2 * k, max_size=2 * k, unique=True)))
    patches = []
    for i in range(k):
        l, m = cuts[2 * i], cuts[2 * i + 1]
        v = draw(letter_words(min_size=1, max_size=3))
        patches.append((v, l, m))
    return u, patches


LETTER_PARAMS = ("?x", "?y", "?z")


@st.composite
def scheme_lines(draw, max_lines: int = 4, clash: bool = False):
    """Lines ``(name, params, body text)`` of a random strict-mode scheme.

    Bodies apply earlier shortcuts only, use no new variable but their own
    parameters and no set variable outside its quantifier, and quantify
    fresh set variables numbered after every earlier body's.  A body may
    start with a run of negations, so that expansions can nest past
    MAX_DEPTH.  With ``clash``, binders are drawn from x1..x3 instead, so
    two bodies may quantify one variable, and building the lines into a
    Scheme may raise VariableClash.
    """
    next_index = [draw(st.integers(1, 5))]
    defined: list[tuple[str, int]] = []
    lines = []

    def binder() -> str:
        if clash:
            return f"x{draw(st.integers(1, 3))}"
        next_index[0] += 1
        return f"x{next_index[0] - 1}"

    def formula(budget: int, scope: tuple[str, ...], params: tuple[str, ...]) -> str:
        pool = st.sampled_from(scope + params)
        kind = draw(st.integers(0, 4)) if budget > 0 else 0
        if kind == 0:
            if defined and draw(st.booleans()):
                name, arity = draw(st.sampled_from(defined))
                args = [draw(pool) for _ in range(arity)]
                return f"{name} ( {' ; '.join(args)} )"
            return f"( {draw(pool)} {draw(st.sampled_from(['in', '=']))} {draw(pool)} )"
        if kind == 1:
            return f"! {formula(budget - 1, scope, params)}"
        if kind == 2:
            var = binder()
            return f"( {draw(st.sampled_from('EA'))} {var} {formula(budget - 1, scope + (var,), params)} )"
        left = draw(st.integers(0, budget - 1))
        op = draw(st.sampled_from(["->", "<->", "&", "|"]))
        return f"( {formula(left, scope, params)} {op} {formula(budget - 1 - left, scope, params)} )"

    for i in range(draw(st.integers(2, max_lines))):
        arity = draw(st.integers(1, 3))
        params = LETTER_PARAMS[:arity] if draw(st.booleans()) else tuple(f"?y{k}" for k in range(1, arity + 1))
        negations = draw(st.sampled_from([0, 0, 110]))
        body = "! " * negations + formula(draw(st.integers(0, 6)), (), params)
        name = f"P{i + 1}"
        lines.append((name, params, body))
        defined.append((name, arity))
    return lines
