"""Graph-theoretic readings of the nine predicates and derived checks.

Everything is phrased through in-neighborhoods: u is a subset of v when
N(u) is contained in N(v); the power set of u collects all such subset
vertices; singleton and doubleton vertices are the unique vertices with
the prescribed in-neighborhood; an ordered-pair vertex is the doubleton
of the corresponding singleton and doubleton vertices.  Subset
containment is non-strict throughout, so every vertex is a subset of
itself.

All checks run on one bitmask kernel.  A digraph on [n] is the sequence
of its in-neighborhood masks: bit u-1 of ``masks[v-1]`` is set when
u -> v.  Vertices are looked up by their mask, so the ordered-pair
resolution table takes O(n^2) lookups; a pair vertex determines its two
components uniquely, so the table is well defined.  The census feeds
the kernel masks read straight from its counter, and
``DigraphAnalysis`` is a view of the kernel's tables for one
``Digraph``.
"""
from __future__ import annotations

from dataclasses import dataclass
from weakref import WeakValueDictionary

from .cantor import PREDICATE_ARITIES, emit_phi
from .digraphs import Digraph
from .formulas import ArityMismatch
from .semantics import evaluate_sentence

PREDICATE_ARITY = PREDICATE_ARITIES  # the former name

# Most vertices the phi method of is_cantor accepts: on random digraphs the
# sentence took up to 1.6 s at 12 vertices, 7.6 s at 16 and 48 s at 24.
PHI_MAX_VERTICES = 12


class AnalysisError(ValueError):
    pass


class AmbiguousPair(RuntimeError):
    """Two component pairs resolved for one vertex; internally inconsistent."""


class NotASurjection(AnalysisError):
    pass


class InDegreeTooLarge(AnalysisError):
    pass


class SizeGuardExceeded(AnalysisError):
    pass


@dataclass(frozen=True)
class PairResolution:
    """An ordered-pair vertex with its uniquely determined components."""

    pair_vertex: int
    first: int
    second: int


@dataclass(frozen=True)
class SurjectionWitness:
    """The real-pair graph encoded by a surjection vertex.

    ``graph`` lists the (argument, value) pairs read off the elements of
    the function vertex; it maps N(domain_vertex) onto the power set of
    domain_vertex.
    """

    function_vertex: int
    domain_vertex: int
    graph: frozenset[tuple[int, int]]


# ---------------------------------------------------------------------------
# The bitmask kernel


def in_masks(digraph: Digraph) -> list[int]:
    """The in-neighborhood masks of a digraph, vertex 1 first."""
    masks = [0] * digraph.n
    for u, v in digraph.arrows:
        masks[v - 1] |= 1 << (u - 1)
    return masks


def mask_vertices(mask: int) -> frozenset[int]:
    """The vertices whose bits are set in mask."""
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def unique_vertices(masks) -> dict[int, int]:
    """Each mask that exactly one vertex has, mapped to that vertex."""
    the = dict(zip(masks, range(1, len(masks) + 1)))
    if len(the) < len(masks):
        seen = set()
        for m in masks:
            if m in seen:
                the.pop(m, None)
            seen.add(m)
    return the


def pair_table(masks, the: dict[int, int]) -> dict[int, tuple[int, int]]:
    """Each ordered-pair vertex mapped to its components (first, second).

    The pair of a and b is the unique vertex whose elements are the
    singleton of a and the doubleton of a and b.
    """
    pairs: dict[int, tuple[int, int]] = {}
    bits = [1 << i for i in range(len(masks))]
    get = the.get
    for a, a_bit in enumerate(bits, 1):
        s = get(a_bit)
        if s is None:
            continue
        s_bit = bits[s - 1]
        for b, b_bit in enumerate(bits, 1):
            d = get(a_bit | b_bit)
            if d is None:
                continue
            p = get(s_bit | bits[d - 1])
            if p is None:
                continue
            if p in pairs:
                raise AmbiguousPair(f"vertex {p} resolves to {pairs[p]} and {(a, b)}")
            pairs[p] = (a, b)
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


def read_relation(masks, pairs, f: int, d: int) -> tuple[bool, int] | None:
    """Read vertex f as a relation from N(d) into the power set of d.

    None when some element of f is not an ordered pair (a, b) with a in
    N(d) and b a subset of d.  Otherwise (is_function, seconds):
    is_function says each element of N(d) is the first component of
    exactly one element of f, and seconds masks the second components.
    """
    md = masks[d - 1]
    firsts = seconds = 0
    single_valued = True
    rest = masks[f - 1]
    while rest:
        low = rest & -rest
        pair = pairs.get(low.bit_length())
        if pair is None:
            return None
        a, b = pair
        a_bit = 1 << (a - 1)
        if not a_bit & md or masks[b - 1] & ~md:
            return None
        if a_bit & firsts:
            single_valued = False
        firsts |= a_bit
        seconds |= 1 << (b - 1)
        rest ^= low
    return single_valued and firsts == md, seconds


def surjects(masks, pairs, f: int, d: int, power: int | None = None) -> bool:
    """Vertex f is a function from N(d) onto the power set of d."""
    read = read_relation(masks, pairs, f, d)
    if read is None or not read[0]:
        return False
    if power is None:
        power = power_mask(masks, d)
    return not power & ~read[1]


def find_surjection(masks, pairs) -> tuple[int, int] | None:
    """The first (u, v), u outer and v inner, with v a surjection from u onto its power set.

    A surjection has only pair vertices as elements, and at least one,
    since u lies in its own power set.  It has |N(u)| elements, and onto
    needs |P(u)| <= |N(u)|; candidates failing these counts are skipped
    before the full test.
    """
    if not pairs:
        return None
    pair_bits = 0
    for p in pairs:
        pair_bits |= 1 << (p - 1)
    functions = [v for v, m in enumerate(masks, 1) if m and not m & ~pair_bits]
    if not functions:
        return None
    sizes = [m.bit_count() for m in masks]
    for u, size in enumerate(sizes, 1):
        candidates = [v for v in functions if sizes[v - 1] == size]
        if not candidates:
            continue
        power = power_mask(masks, u)
        if power.bit_count() > size:
            continue
        for v in candidates:
            if surjects(masks, pairs, v, u, power):
                return (u, v)
    return None


def masks_strongly_extensive(masks) -> bool:
    """Every submask of every in-neighborhood mask is some vertex's mask."""
    realized = set(masks)
    if 0 not in realized:
        return False
    n = len(masks)
    for m in realized:
        # 2^|N| distinct subsets cannot all be realized by fewer vertices
        if 1 << m.bit_count() > n:
            return False
        sub = m
        while sub:
            sub = (sub - 1) & m
            if sub not in realized:
                return False
    return True


# ---------------------------------------------------------------------------
# One digraph


class DigraphAnalysis:
    """The kernel's tables for one digraph, read through the nine predicates.

    Builds the in-neighborhood masks, the unique-vertex map and the
    ordered-pair table once; the predicate methods are lookups into them.
    """

    def __init__(self, digraph: Digraph):
        self.digraph = digraph
        self.masks = in_masks(digraph)
        self._the = unique_vertices(self.masks)
        self._pairs = pair_table(self.masks, self._the)

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
        return read_relation(self.masks, self._pairs, u, v) is not None

    def fun(self, u: int, v: int) -> bool:
        read = read_relation(self.masks, self._pairs, u, v)
        return read is not None and read[0]

    def sur(self, u: int, v: int) -> bool:
        return surjects(self.masks, self._pairs, u, v)

    # -- derived operations --------------------------------------------------

    def d_power_set(self, u: int) -> frozenset[int]:
        return mask_vertices(power_mask(self.masks, u))

    def predicate(self, name: str, args: tuple[int, ...]) -> bool:
        try:
            arity = PREDICATE_ARITIES[name]
        except KeyError:
            raise AnalysisError(f"unknown predicate {name!r}") from None
        if len(args) != arity:
            # position 1: the predicate name's place in `NAME ( args )`
            raise ArityMismatch(1, f"{name} takes {arity} arguments, got {len(args)}")
        for a in args:
            self.digraph.check_vertex(a)
        return getattr(self, name.lower())(*args)

    def resolve_opa(self, u: int) -> PairResolution | None:
        self.digraph.check_vertex(u)
        res = self._pairs.get(u)
        if res is None:
            return None
        return PairResolution(u, res[0], res[1])

    def extract_surjection(self, u: int, v: int) -> SurjectionWitness:
        self.digraph.check_vertex(u)
        self.digraph.check_vertex(v)
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
        return find_surjection(self.masks, self._pairs)

    def is_cantor(self) -> bool:
        return self.cantor_witness() is None


# ---------------------------------------------------------------------------
# Module-level wrappers


def in_neighbors(digraph: Digraph, u: int) -> frozenset[int]:
    return digraph.in_neighbors(u)


def d_power_set(digraph: Digraph, u: int) -> frozenset[int]:
    digraph.check_vertex(u)
    return DigraphAnalysis(digraph).d_power_set(u)


def semantic_predicate(digraph: Digraph, name: str, args: tuple[int, ...]) -> bool:
    """Evaluate one of the nine predicates directly on the digraph."""
    return DigraphAnalysis(digraph).predicate(name, tuple(args))


def resolve_opa(digraph: Digraph, u: int) -> PairResolution | None:
    return DigraphAnalysis(digraph).resolve_opa(u)


def extract_surjection(digraph: Digraph, u: int, v: int) -> SurjectionWitness:
    return DigraphAnalysis(digraph).extract_surjection(u, v)


def is_cantor(digraph: Digraph, method: str = "semantic") -> bool:
    """No vertex surjects onto any vertex's power set.

    The semantic method scans all vertex pairs with the predicate
    implementation; the sentence method evaluates the 494-symbol Cantor
    sentence and rejects digraphs above PHI_MAX_VERTICES vertices with
    SizeGuardExceeded.  The two agree on every digraph.
    """
    if method == "semantic":
        return DigraphAnalysis(digraph).is_cantor()
    if method == "phi":
        if digraph.n > PHI_MAX_VERTICES:
            raise SizeGuardExceeded(
                f"{digraph.n} vertices exceed the guard {PHI_MAX_VERTICES} of the phi method;"
                " use the semantic method"
            )
        return evaluate_sentence(digraph, emit_phi())
    raise ValueError(f"method must be 'semantic' or 'phi', got {method!r}")


def cantor_witness(digraph: Digraph) -> tuple[int, int] | None:
    return DigraphAnalysis(digraph).cantor_witness()


def is_strongly_extensive(digraph: Digraph, *, max_in_degree: int = 20) -> bool:
    """Every subset of every in-neighborhood is itself an in-neighborhood.

    Degrees above ``max_in_degree`` are rejected before any work since
    the subset enumeration would touch 2^degree sets.  Vertices whose
    degree d satisfies 2^d > n fail immediately: that many distinct
    subsets cannot all be realized by n vertices.
    """
    masks = in_masks(digraph)
    for u, m in enumerate(masks, start=1):
        degree = m.bit_count()
        if degree > max_in_degree:
            raise InDegreeTooLarge(
                f"vertex {u} has in-degree {degree}, above the guard {max_in_degree}"
            )
    return masks_strongly_extensive(masks)


def omega_level_ranges(levels: int, *, max_levels: int = 4) -> tuple[tuple[int, int], ...]:
    """Vertex ranges [lo, hi] of each construction level."""
    if levels < 1:
        raise SizeGuardExceeded("need at least one level")
    if levels > max_levels:
        raise SizeGuardExceeded(
            f"levels={levels} exceeds the guard {max_levels}; the construction doubles exponentially"
        )
    ranges = [(1, 1)]
    total = 1
    for _ in range(levels - 1):
        m = 2**total
        lo = ranges[-1][1] + 1
        ranges.append((lo, lo + m - 1))
        total += m
    return tuple(ranges)


_omega_prefixes: WeakValueDictionary[tuple[int, int], Digraph] = WeakValueDictionary()


def omega_prefix(levels: int, *, max_levels: int = 4) -> Digraph:
    """A finite prefix of the countable strongly extensive construction.

    Level 1 is the single vertex 1 with no arrows.  Each next level adds
    one vertex per subset of all previous vertices, wired so that the
    new vertex's in-neighborhood is exactly that subset.  Subsets are
    enumerated in binary-counter order over the previous vertices sorted
    ascending: the empty set first, then {min}, and so on.

    A prefix is built once while any caller holds it, and that digraph
    is shared: it is immutable.  The cache holds it weakly, so a 2059-vertex
    prefix nobody uses costs no memory.
    """
    cached = _omega_prefixes.get((levels, max_levels))
    if cached is not None:
        return cached
    ranges = omega_level_ranges(levels, max_levels=max_levels)
    arrows: set[tuple[int, int]] = set()
    previous: list[int] = [1]
    for lo, hi in ranges[1:]:
        ground = sorted(previous)
        for i, newv in enumerate(range(lo, hi + 1)):
            for j, member in enumerate(ground):
                if i >> j & 1:
                    arrows.add((member, newv))
        previous.extend(range(lo, hi + 1))
    prefix = Digraph(ranges[-1][1], frozenset(arrows))
    _omega_prefixes[levels, max_levels] = prefix
    return prefix
