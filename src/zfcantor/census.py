"""Exhaustive counts of strongly extensive and Cantor digraphs on [n].

All counts are over labeled digraphs.  A digraph is a tuple of
in-neighborhood masks (bit u-1 of ``masks[v-1]`` set when u -> v).  By
the lemma in ``analysis``, its Cantor verdict reads only which vertices
have an empty mask, which have a one-bit mask and which bit, and which
have a two-bit mask and which two bits: every mask of three or more
bits acts alike.  So both passes below walk maps s that say which
vertices have a one-bit mask, and which bit, and skip each map with no
ground, a vertex that is the only one with its mask {a}.  The other
vertices, the rest, take the k = 2^n - 1 - n masks that are neither
empty nor one bit.

``non_cantor_count`` counts the rest's fillings in closed form.  A
ground with a = u is a witness by itself, so every filling counts.  For
any other ground u, the lemma asks for d, the only vertex with {a, u},
and p, the only vertex with {u, d}, both among the rest, with p one of
s's bits so that some vertex has the mask {p}; d = p = a is the one
choice with d = p.  One ground's choices are disjoint, so
inclusion-exclusion over sets of grounds counts the fillings with some
working ground.  A relabelling keeps verdicts, so the count walks only
the n^(n-r) maps whose rest is the last r vertices, weighted by
comb(n, r), for each r.  It takes n <= 7 (``HARD_MAX_N``).

``witness_listing`` (n <= 5, ``WITNESS_MAX_N``) lists the non-Cantor
digraphs by counter, whose bit (u-1)*n + (v-1) is the arrow (u, v).  It
fills the rest of each map with two-bit masks or one stand-in of three
or more bits, asks ``analysis.find_surjection`` for a witness, and marks
each witness, its stand-ins expanded over every such mask, in a bitmap
of 2^(n*n) bits that a generator reads in counter order.  The bitmap's
popcount must equal the count (``CensusChecksumError``), so the two
passes check each other.  ``digraph_from_counter`` and ``counter_text``
read a counter back as a digraph and as its text, so no other module
knows the counter's bit order.

The strongly extensive column is the closed form
``strongly_extensive_count``, checked against the count by strongly
extensive <= Cantor.
"""
from __future__ import annotations

import time
from functools import lru_cache
from itertools import chain, combinations, compress, permutations, product
from math import comb
from typing import Callable, Iterator

from .analysis import find_surjection, unique_vertices
from .digraphs import Digraph, SizeGuardExceeded, transpose
from .records import Record

HARD_MAX_N = 7
WITNESS_MAX_N = 5


class CensusChecksumError(RuntimeError):
    """The counts break strongly extensive <= Cantor <= total, or the listing is not as long as the count."""


class CensusRow(Record):
    """One census row."""

    __slots__ = _fields = ("n", "total", "strongly_extensive", "cantor", "elapsed_ms")

    def __init__(self, n: int, total: int, strongly_extensive: int, cantor: int, elapsed_ms: float):
        init = object.__setattr__
        init(self, "n", n)
        init(self, "total", total)
        init(self, "strongly_extensive", strongly_extensive)
        init(self, "cantor", cantor)
        init(self, "elapsed_ms", elapsed_ms)


def digraph_from_counter(n: int, counter: int) -> Digraph:
    """The digraph with arrow (u, v) when bit (u-1)*n + (v-1) of counter is set."""
    # the n bits from (u-1)*n on are the out-mask of u
    full = (1 << n) - 1
    return Digraph.from_masks(transpose([counter >> u * n & full for u in range(n)]))


def counter_text(n: int) -> Callable[[int], str]:
    """A function from a counter on [n] to its digraph's text, as dump_digraph writes it.

    Bit (u-1)*n + (v-1) of a counter is the arrow (u, v), so its bits in
    order are dump_digraph's tail-then-head order, and each byte of the
    counter reads its lines from a table of 256 strings.
    """
    lines = [f"{u} {v}\n" for u in range(1, n + 1) for v in range(1, n + 1)]
    tables = [
        ["".join(line for j, line in enumerate(lines[i : i + 8]) if byte >> j & 1) for byte in range(256)]
        for i in range(0, n * n, 8)
    ]
    head, size = f"vertices {n}\n", len(tables)
    return lambda counter: head + "".join(map(list.__getitem__, tables, counter.to_bytes(size, "little")))


@lru_cache(maxsize=None)
def strongly_extensive_count(n: int) -> int:
    """e_n, the number of strongly extensive digraphs on [n], in closed form.

    A digraph is strongly extensive exactly when its realized masks form
    a downset D of subsets of [n] that contains the empty mask, and then
    |D| <= n.  So e_n sums, over those downsets, the surj(n, |D|) maps
    from [n] onto D.  Adding masks in increasing order, each only once
    all of its one-bit removals are in, builds every downset once: a
    subset is a smaller number, so each prefix of a downset's increasing
    order is itself a downset.
    """
    limit = 1 << n

    def grow(realized: set[int], last: int) -> int:
        count = _surjections(n, len(realized))
        if len(realized) < n:
            for m in range(last + 1, limit):
                if all(m ^ 1 << u in realized for u in range(n) if m >> u & 1):
                    realized.add(m)
                    count += grow(realized, m)
                    realized.remove(m)
        return count

    return grow({0}, 0)


def _surjections(n: int, k: int) -> int:
    """The number of maps from an n-set onto a k-set, by inclusion-exclusion."""
    return sum((-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1))


def _grounded_maps(n: int, rest) -> Iterator[tuple[dict[int, int], list[tuple[int, int]]]]:
    """(s, grounds) for each map s with this rest and a ground; s[v] is v's one bit.

    Vertex v is bit v of a mask, and u is the only vertex with s[u] = a in each ground (u, a).
    """
    holders = [v for v in range(n) if v not in rest]
    for bits in product(range(n), repeat=len(holders)):
        grounds = [(u, a) for u, a in zip(holders, bits) if bits.count(a) == 1]
        if grounds:
            yield dict(zip(holders, bits)), grounds


def _merge(fixed: dict[int, int], choice) -> dict[int, int] | None:
    """fixed with choice's (vertex, mask) pairs; None if a vertex gets two masks or a mask two holders."""
    merged = dict(fixed)
    for v, m in choice:
        if v not in merged:
            if m in merged.values():
                return None
            merged[v] = m
        elif merged[v] != m:
            return None
    return merged


def non_cantor_count(n: int) -> int:
    """The number of non-Cantor digraphs on [n], 1 <= n <= 7, in closed form.

    Each term of the inclusion-exclusion fixes the masks of f of the r
    vertices in rest, one holder per mask, and the other r - f vertices
    take any of the k masks but those f.
    """
    k = (1 << n) - 1 - n
    count = 0
    for r in range(n + 1):
        rest = range(n - r, n)
        links = list(permutations(rest, 2))
        partial = 0
        for s, grounds in _grounded_maps(n, rest):
            if any(u == a for u, a in grounds):
                partial += k**r
                continue
            if not r:  # d and p lie in the rest, so with no rest only u = a works
                continue
            bits = set(s.values())
            terms: list[tuple[dict[int, int], int]] = [({}, -1)]  # (fixed masks, sign); the first is no ground
            for u, a in grounds:
                doubleton = 1 << a | 1 << u
                own = [] if a in s else [((a, doubleton),)]  # d = p = a
                own += [((d, doubleton), (p, 1 << u | 1 << d)) for d, p in links if p in bits]
                terms += [(fixed, -sign) for old, sign in terms for choice in own if (fixed := _merge(old, choice))]
            partial += sum(sign * (k - len(fixed)) ** (r - len(fixed)) for fixed, sign in terms[1:])
        count += comb(n, r) * partial
    return count


def _non_cantor_bitmap(n: int) -> bytearray:
    """Bit c set for each counter c of a non-Cantor digraph on [n], 1 <= n <= 5."""
    two = [m for m in range(1 << n) if m.bit_count() == 2]
    big = [m for m in range(1 << n) if m.bit_count() > 2]
    stand_in = big[:1]  # empty when n < 3
    column = [sum(1 << u * n for u in range(n) if m >> u & 1) for m in range(1 << n)]
    bitmap = bytearray((1 << n * n) + 7 >> 3)
    for rest in chain.from_iterable(combinations(range(n), r) for r in range(n + 1)):
        for s, _ in _grounded_maps(n, rest):
            masks = [1 << s[v] if v in s else 0 for v in range(n)]
            for fill in product(two + stand_in, repeat=len(rest)):
                for v, m in zip(rest, fill):
                    masks[v] = m
                if find_surjection(masks, unique_vertices(masks)) is None:
                    continue
                counters = [sum(column[m] << v for v, m in enumerate(masks) if m not in stand_in)]
                for v, m in enumerate(masks):
                    if m in stand_in:
                        counters = [c + (column[b] << v) for c in counters for b in big]
                for c in counters:
                    bitmap[c >> 3] |= 1 << (c & 7)
    return bitmap


def census(n: int, jobs: int = 1) -> CensusRow:
    """Count strongly extensive and Cantor digraphs on [n], 1 <= n <= 7.

    ``jobs`` must be at least 1 and has no other effect.
    """
    if jobs < 1:
        raise SizeGuardExceeded(f"jobs must be >= 1, got {jobs}")
    if not 1 <= n <= HARD_MAX_N:
        raise SizeGuardExceeded(f"n={n} is outside [1, {HARD_MAX_N}]")
    total = 2 ** (n * n)
    start = time.perf_counter()
    cantor = total - non_cantor_count(n)
    strongly_extensive = strongly_extensive_count(n)
    if not strongly_extensive <= cantor <= total:
        raise CensusChecksumError(f"counts {strongly_extensive} <= {cantor} <= {total} fail")
    return CensusRow(n, total, strongly_extensive, cantor, (time.perf_counter() - start) * 1000.0)


def witness_listing(n: int) -> tuple[CensusRow, Iterator[int]]:
    """The row of census(n), 1 <= n <= 5, and a generator of its non-Cantor counters in counter order."""
    if not 1 <= n <= WITNESS_MAX_N:
        raise SizeGuardExceeded(f"n={n} is outside [1, {WITNESS_MAX_N}] for a witness listing")
    start = time.perf_counter()
    row, bitmap = census(n), _non_cantor_bitmap(n)
    # Checked before any counter is read, a page at a time: one int of the whole bitmap would double its memory.
    listed = sum(int.from_bytes(bitmap[i : i + 4096], "little").bit_count() for i in range(0, len(bitmap), 4096))
    if listed != row.total - row.cantor:
        raise CensusChecksumError(f"{listed} witnesses listed, {row.total - row.cantor} counted")
    offsets = [[j for j in range(8) if byte >> j & 1] for byte in range(256)]
    row = CensusRow(n, row.total, row.strongly_extensive, row.cantor, (time.perf_counter() - start) * 1000.0)
    return row, (i << 3 | j for i in compress(range(len(bitmap)), bitmap) for j in offsets[bitmap[i]])


def format_row(row: CensusRow) -> str:
    return "\t".join(
        str(x)
        for x in (row.n, row.total, row.strongly_extensive, row.cantor, round(row.elapsed_ms))
    )
