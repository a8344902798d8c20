"""Graph-theoretic readings of the nine predicates and derived checks.

Everything is phrased through in-neighborhoods: u is a subset of v when
N(u) is contained in N(v); the power set of u collects all such subset
vertices; singleton and doubleton vertices are the unique vertices with
the prescribed in-neighborhood; an ordered-pair vertex is the doubleton
of the corresponding singleton and doubleton vertices.  Subset
containment is non-strict throughout, so every vertex is a subset of
itself.

All checks run on one bitmask kernel over the in-neighborhood masks
that a ``Digraph`` holds as ``Digraph.masks``, looking vertices up by
their mask.  The ordered-pair table reads the realized masks of one or
two bits, the only ones that can be doubletons, in O(n) lookups; a pair
vertex determines its two components, so the table is well defined.
A digraph is strongly extensive exactly when its realized masks form a
downset containing 0, that is, are closed under removing one bit, so
that check makes at most Σ|N(v)| lookups.  One reader, ``relation``,
walks a vertex's pairs, and REL, FUN and SUR compare its masks with N(v).

The Cantor search reads neither, by a lemma: a vertex f is a surjection
from some u onto its power set P(u) exactly when no vertex is empty, u
is the only vertex with N(u) = {a} for some a, the pair p = (a, u)
exists, and N(f) = {p}.  For each a in N(u), f has an element (a, ·),
whose element s_a, the singleton of a, lies in P(u).  If |N(u)| >= 2,
then u and the s_a are |N(u)| + 1 members of P(u) for |N(u)| values; if
N(u) is empty, f has no value for u.  So N(u) = {a} and u = s_a, or u
and s_a would share f's one value.  Then P(u) = {u} and f = {(a, u)},
exactly when no vertex is empty, as an empty vertex lies in every power
set.  So a digraph with an empty vertex is Cantor, and so is a
strongly extensive one.

The census's witness listing feeds the kernel mask tuples in which one
stand-in covers every mask of three or more bits, and
``DigraphAnalysis`` is a view of the kernel's tables for one
``Digraph``, built once per digraph as ``Digraph.analysis``, which the
module-level ``is_cantor``, ``cantor_witness`` and ``extract_surjection``
read.  ``omega_prefix`` writes the construction in closed form: vertex v
of level [lo, hi] has the in-mask v - lo.

The module imports only ``digraphs``, ``records`` and its own package,
and ``digraphs`` imports it back for ``Digraph.analysis``.  The sentence
side (the Cantor sentence, the formula tree and its evaluator) is read
by the two calls that need it, ``is_cantor(d, method="phi")`` and
``DigraphAnalysis.predicate``, as attributes of the package: importing a
submodule sets its attribute there, and the package imports a submodule
on the first read of one it has not loaded (PEP 562).  So the census and
the semantic verdict never load the sentence side, and a later call
pays two attribute reads, not an import statement.
"""
from __future__ import annotations

import zfcantor as _package  # bound while the package initialises; read only at call time

from .digraphs import Digraph, SizeGuardExceeded, mask_vertices  # re-exports the one guard error
from .records import InvalidInput, Record, lazy

# Most levels of the strongly extensive construction: level 4 ends at
# vertex 2059, and level 5 would add 2^2059 vertices.
OMEGA_MAX_LEVELS = 4


class AnalysisError(InvalidInput):
    pass


class NotASurjection(AnalysisError):
    pass


class PairResolution(Record):
    """An ordered-pair vertex with its uniquely determined components."""

    __slots__ = _fields = ("pair_vertex", "first", "second")

    def __init__(self, pair_vertex: int, first: int, second: int):
        init = object.__setattr__
        init(self, "pair_vertex", pair_vertex)
        init(self, "first", first)
        init(self, "second", second)


class SurjectionWitness(Record):
    """The real-pair graph encoded by a surjection vertex.

    ``graph`` lists the (argument, value) pairs read off the elements of
    the function vertex; it maps N(domain_vertex) onto the power set of
    domain_vertex.
    """

    __slots__ = _fields = ("function_vertex", "domain_vertex", "graph")

    def __init__(self, function_vertex: int, domain_vertex: int, graph: frozenset[tuple[int, int]]):
        init = object.__setattr__
        init(self, "function_vertex", function_vertex)
        init(self, "domain_vertex", domain_vertex)
        init(self, "graph", graph)


# ---------------------------------------------------------------------------
# The bitmask kernel


def unique_vertices(masks) -> dict[int, int]:
    """Each mask that exactly one vertex has, mapped to that vertex.

    A mask is hashed once, and once more at each vertex that is not the
    last to have it, as hashing an int takes time linear in its bits.
    """
    n = len(masks)
    the = dict(zip(masks, range(1, n + 1)))  # each mask to its last vertex
    if len(the) < n:
        for v in set(range(1, n + 1)).difference(the.values()):
            the.pop(masks[v - 1], None)
    return the


def pair_table(the: dict[int, int]) -> dict[int, tuple[int, int]]:
    """Each ordered-pair vertex mapped to its components (first, second).

    The pair of a and b is the unique vertex whose elements are the
    singleton of a and the doubleton of a and b.  Only a realized mask
    of one or two bits is a doubleton: {a, b} is the doubleton of a and
    b and of b and a, and {a} is the doubleton of a and a.  A pair's one
    element of in-degree 1 is the singleton of a, so (a, b) is unique.
    """
    pairs: dict[int, tuple[int, int]] = {}
    get = the.get
    for m, d in the.items():
        low = m & -m
        high = m ^ low
        if not low or high & (high - 1):
            continue
        d_bit = 1 << (d - 1)
        for a_bit, b_bit in ((low, high), (high, low)) if high else ((low, low),):
            s = get(a_bit)
            if s is None:
                continue
            p = get(1 << (s - 1) | d_bit)
            if p is None:
                continue
            pairs[p] = (a_bit.bit_length(), b_bit.bit_length())
    return pairs


def power_mask(masks, u: int) -> int:
    """The vertices whose in-neighborhood lies inside N(u), as a mask."""
    mu = masks[u - 1]
    power = 0
    bit = 1
    for m in masks:
        if not m & ~mu:
            power |= bit
        bit <<= 1
    return power


def relation(masks, pairs, f: int) -> tuple[int, int, int, bool] | None:
    """Read vertex f as a relation; None when some element is not an ordered pair.

    Otherwise (firsts, seconds, inner, single_valued): firsts and seconds
    mask the two components, inner ORs the elements of the second
    components, and single_valued says no first component repeats.
    """
    firsts = seconds = inner = 0
    single_valued = True
    rest = masks[f - 1]
    while rest:
        low = rest & -rest
        pair = pairs.get(low.bit_length())
        if pair is None:
            return None
        a, b = pair
        a_bit = 1 << (a - 1)
        if a_bit & firsts:
            single_valued = False
        firsts |= a_bit
        seconds |= 1 << (b - 1)
        inner |= masks[b - 1]
        rest ^= low
    return firsts, seconds, inner, single_valued


def find_surjection(masks, the: dict[int, int]) -> tuple[int, int] | None:
    """The first (u, f), u outer and f inner, with f a surjection from u onto its power set.

    The module docstring's lemma: u = {a}, so the doubleton d of a and u
    has the mask N(u) | {u}, the pair p = (a, u) the mask {u, d}, and f
    is the least vertex with the mask {p}.
    """
    if 0 in masks:
        return None
    first = None  # the least vertex of each mask, built for the first pair p found
    get = the.get
    for m, u in the.items():
        if m & (m - 1):
            continue
        u_bit = 1 << (u - 1)
        d = get(m | u_bit)
        p = d and get(1 << (d - 1) | u_bit)
        if p is None:
            continue
        first = first or dict(zip(reversed(masks), range(len(masks), 0, -1)))
        f = first.get(1 << (p - 1))
        if f is not None:
            return u, f
    return None


def masks_strongly_extensive(masks) -> bool:
    """The realized masks form a downset that contains the empty mask.

    By induction on the number of bits, it is enough that removing any
    one bit from a realized mask gives a realized mask.
    """
    realized = set(masks)
    if 0 not in realized:
        return False
    n = len(masks)
    for m in realized:
        # 2^|N| distinct subsets cannot all be realized by fewer vertices
        if 1 << m.bit_count() > n:
            return False
        rest = m
        while rest:
            low = rest & -rest
            if m ^ low not in realized:
                return False
            rest ^= low
    return True


# ---------------------------------------------------------------------------
# One digraph


class DigraphAnalysis:
    """The kernel's tables for one digraph, read through the nine predicates.

    Reads ``Digraph.masks``; the unique-vertex map, the ordered-pair
    table, which only OPA, REL, FUN, SUR and the witness extraction
    read, and the Cantor search are each built at most once, on first
    use, so a bare verdict builds no pair table, and a verdict on a
    digraph with an empty vertex builds no unique-vertex map either.  It
    keeps no reference to the digraph, so the one that
    ``Digraph.analysis`` caches makes no cycle.
    """

    def __init__(self, digraph: Digraph):
        self.n = digraph.n
        self.masks = digraph.masks

    @lazy
    def _the(self) -> dict[int, int]:
        return unique_vertices(self.masks)

    @lazy
    def _pairs(self) -> dict[int, tuple[int, int]]:
        return pair_table(self._the)

    @lazy
    def _witness(self) -> tuple[int, int] | None:
        # the search answers an empty vertex before it reads the map
        return find_surjection(self.masks, {} if 0 in self.masks else self._the)

    check_vertex = Digraph.check_vertex  # reads only self.n

    # -- the nine predicates ------------------------------------------------

    def sus(self, u: int, v: int) -> bool:
        return not self.masks[u - 1] & ~self.masks[v - 1]

    def si(self, u: int, v: int) -> bool:
        return self.masks[u - 1] == 1 << (v - 1)

    def sin(self, u: int, v: int) -> bool:
        return self._the.get(1 << (v - 1)) == u

    def do(self, u: int, v: int, w: int) -> bool:
        return self.masks[u - 1] == 1 << (v - 1) | 1 << (w - 1)

    def dou(self, u: int, v: int, w: int) -> bool:
        return self._the.get(1 << (v - 1) | 1 << (w - 1)) == u

    def opa(self, u: int, v: int, w: int) -> bool:
        return self._pairs.get(u) == (v, w)

    def rel(self, u: int, v: int) -> bool:
        read = relation(self.masks, self._pairs, u)
        return read is not None and not (read[0] | read[2]) & ~self.masks[v - 1]

    def fun(self, u: int, v: int) -> bool:
        read = relation(self.masks, self._pairs, u)
        return read is not None and read[3] and read[0] == self.masks[v - 1] and not read[2] & ~read[0]

    def sur(self, u: int, v: int) -> bool:
        return self.fun(u, v) and not power_mask(self.masks, v) & ~relation(self.masks, self._pairs, u)[1]

    # -- derived operations --------------------------------------------------

    def d_power_set(self, u: int) -> frozenset[int]:
        self.check_vertex(u)
        return mask_vertices(power_mask(self.masks, u))

    def predicate(self, name: str, args: tuple[int, ...]) -> bool:
        """Evaluate one of the nine predicates directly on the digraph."""
        # position 1: the predicate name's place in `NAME ( args )`
        arity = _package.cantor.PREDICATE_ARITIES.get(name)
        if arity is None:
            raise _package.formulas.UnknownPredicate(1, f"predicate {name!r} is not one of the nine")
        if len(args) != arity:
            raise _package.formulas.ArityMismatch(1, f"{name} takes {arity} arguments, got {len(args)}")
        for a in args:
            self.check_vertex(a)
        return getattr(self, name.lower())(*args)

    def resolve_opa(self, u: int) -> PairResolution | None:
        self.check_vertex(u)
        res = self._pairs.get(u)
        if res is None:
            return None
        return PairResolution(u, res[0], res[1])

    def extract_surjection(self, u: int, v: int) -> SurjectionWitness:
        self.check_vertex(u)
        self.check_vertex(v)
        if not self.sur(u, v):
            raise NotASurjection(f"vertex {u} is not a surjection from {v} to its power set")
        graph = frozenset(self._pairs[p] for p in mask_vertices(self.masks[u - 1]))
        domain = {a for a, _ in graph}
        image = {b for _, b in graph}
        assert domain == mask_vertices(self.masks[v - 1]) and len(graph) == len(domain)
        assert image == self.d_power_set(v)
        return SurjectionWitness(u, v, graph)

    def cantor_witness(self) -> tuple[int, int] | None:
        """A pair (u, v) with v a surjection from u onto its power set, if any."""
        return self._witness

    def is_cantor(self) -> bool:
        return self.cantor_witness() is None


# ---------------------------------------------------------------------------
# Module-level calls on a digraph's cached analysis


def extract_surjection(digraph: Digraph, u: int, v: int) -> SurjectionWitness:
    return digraph.analysis.extract_surjection(u, v)


def is_cantor(digraph: Digraph, method: str = "semantic") -> bool:
    """No vertex surjects onto any vertex's power set.

    The semantic method is the lemma's gadget search, which builds no
    pair table; the sentence method evaluates the 494-symbol Cantor
    sentence, whose 5-axis truth tables fit semantics.MAX_TABLE_CELLS up
    to 16 vertices, and raises SizeGuardExceeded above.  The two agree
    on every digraph.
    """
    if method == "semantic":
        return digraph.analysis.is_cantor()
    if method == "phi":
        return _package.semantics.evaluate_sentence(digraph, _package.cantor.emit_phi())
    raise ValueError(f"method must be 'semantic' or 'phi', got {method!r}")


def cantor_witness(digraph: Digraph) -> tuple[int, int] | None:
    return digraph.analysis.cantor_witness()


def is_strongly_extensive(digraph: Digraph) -> bool:
    """Every subset of every in-neighborhood is itself an in-neighborhood.

    That holds exactly when the empty set is an in-neighborhood and
    removing any one element from an in-neighborhood gives another, so
    the check makes one lookup per arrow, Σ|N(v)| in all, and never
    enumerates subsets.  A vertex whose in-degree d has 2^d > n fails
    at once, since that many distinct subsets cannot all be realized by
    n vertices.
    """
    return masks_strongly_extensive(digraph.masks)


def omega_level_ranges(levels: int) -> tuple[tuple[int, int], ...]:
    """Vertex ranges [lo, hi] of each construction level."""
    if levels < 1:
        raise SizeGuardExceeded("need at least one level")
    if levels > OMEGA_MAX_LEVELS:
        raise SizeGuardExceeded(
            f"levels={levels} exceeds the guard {OMEGA_MAX_LEVELS};"
            " the construction doubles exponentially"
        )
    ranges = [(1, 1)]
    total = 1
    for _ in range(levels - 1):
        m = 2**total
        lo = ranges[-1][1] + 1
        ranges.append((lo, lo + m - 1))
        total += m
    return tuple(ranges)


def omega_prefix(levels: int) -> Digraph:
    """A finite prefix of the countable strongly extensive construction.

    Level 1 is the single vertex 1 with no arrows.  Each next level adds
    one vertex per subset of all previous vertices, wired so that the
    new vertex's in-neighborhood is exactly that subset.  The previous
    vertices of level [lo, hi] are 1..lo-1, and vertex v gets the in-mask
    v - lo: the subsets come in binary-counter order, the empty set
    first, then {1}, and so on.
    """
    masks = [0]
    for lo, hi in omega_level_ranges(levels)[1:]:
        masks.extend(range(hi - lo + 1))
    return Digraph.from_masks(masks)
