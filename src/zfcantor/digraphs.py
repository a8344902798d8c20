"""Finite digraphs on vertex set 1..n and their file format.

An arrow (u, v) reads "u is an element of v": u contributes to the
in-neighborhood N(v).  A ``Digraph`` is its tuple of in-neighborhood
masks and nothing else: bit u-1 of ``masks[v-1]`` is set when u -> v.
Equality and hashing compare the masks; the set of (u, v) pairs,
``arrows``, and the ``analysis`` are derived from them on first use.
The file format is a header line ``vertices <n>`` followed by one arrow
per line ``<u> <v>``; ``#`` starts a comment and blank lines are
ignored.  The reader ORs each arrow into its head's mask, and the writer
files each head under its tails in increasing order, so neither builds
nor sorts the pairs.
"""
from __future__ import annotations

import warnings
from typing import Iterable

from .records import InvalidInput, Record, lazy, uncommented_lines


# Most vertices of a digraph: checks allocate per-vertex tables.
MAX_VERTICES = 2**22

# Most bits that the masks of one digraph hold together.  A mask is an int
# as long as its highest tail, so the tails of an n-vertex digraph are
# capped at MAX_MASK_BITS // n; a dense digraph on 2^15 vertices fits.
MAX_MASK_BITS = 2**30


class DigraphError(InvalidInput):
    pass


class BadHeader(DigraphError):
    pass


class VertexOutOfRange(DigraphError):
    pass


class SizeGuardExceeded(InvalidInput):
    """An input is too large for the requested computation; raised before the work starts."""


class DuplicateArrowWarning(UserWarning):
    pass


def _top_tail(n: int) -> int:
    """The highest tail that keeps n masks within MAX_MASK_BITS."""
    return min(n, MAX_MASK_BITS // n)


def _check_tail(u: int, v: int, n: int, where: str = "") -> None:
    """Refuse an arrow inside [1, n] whose tail passes _top_tail(n)."""
    if 1 <= u <= n and 1 <= v <= n:
        raise SizeGuardExceeded(
            f"{where}tail {u} exceeds {MAX_MASK_BITS // n}, the most that keeps"
            f" the masks of {n} vertices within {MAX_MASK_BITS} bits"
        )


def _check_size(n: int) -> None:
    if n < 1:
        raise DigraphError(f"need at least one vertex, got n={n}")
    if n > MAX_VERTICES:
        raise SizeGuardExceeded(f"{n} vertices exceed {MAX_VERTICES}")


class Digraph(Record):
    """An immutable digraph on 1..n, held as its in-neighborhood masks.

    ``Digraph(n, arrows)`` takes (u, v) pairs; ``Digraph.from_masks``
    takes the masks themselves, vertex 1 first.  ``arrows`` and
    ``analysis`` are built on first use and kept in ``__dict__``; threads
    racing on a first read can only build two equal copies, and one is
    kept.
    """

    __slots__ = ("n", "masks", "__dict__", "__weakref__")
    _fields = ("n", "masks")

    def __init__(self, n: int, arrows: Iterable[tuple[int, int]]):
        _check_size(n)
        masks = [0] * n
        top = _top_tail(n)
        for u, v in arrows:
            if not (1 <= u <= top and 1 <= v <= n):
                _check_tail(u, v, n)
                raise VertexOutOfRange(f"arrow ({u}, {v}) leaves the vertex range [1, {n}]")
            masks[v - 1] |= 1 << (u - 1)
        _n(self, n)
        _masks(self, tuple(masks))

    @classmethod
    def from_masks(cls, masks: Iterable[int]) -> Digraph:
        """The digraph with in-neighborhood masks[v-1] at each vertex v."""
        masks = tuple(masks)
        n = len(masks)
        _check_size(n)
        if min(masks) < 0 or max(masks) >> n:
            v, m = next((v, m) for v, m in enumerate(masks, 1) if m < 0 or m >> n)
            raise VertexOutOfRange(f"mask {m} of vertex {v} is not a subset of [1, {n}]")
        return cls._unchecked(masks)

    @classmethod
    def _unchecked(cls, masks: tuple[int, ...]) -> Digraph:
        """A digraph over masks the caller has already checked."""
        digraph = object.__new__(cls)
        _n(digraph, len(masks))
        _masks(digraph, masks)
        return digraph

    def __reduce__(self):
        return self.from_masks, (self.masks,)

    @lazy
    def arrows(self) -> frozenset[tuple[int, int]]:
        """The (u, v) pairs, built from the masks on first use."""
        return frozenset((u, v) for v, m in enumerate(self.masks, 1) for u in mask_vertices(m))

    @lazy
    def analysis(self) -> _analysis.DigraphAnalysis:
        """The kernel's tables and Cantor search for this digraph, built on first use."""
        return _analysis.DigraphAnalysis(self)

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def check_vertex(self, u: int) -> int:
        if not (1 <= u <= self.n):
            raise VertexOutOfRange(f"vertex {u} is outside [1, {self.n}]")
        return u

    def in_neighbors(self, u: int) -> frozenset[int]:
        """The set of elements of u, that is {v : v -> u}."""
        self.check_vertex(u)
        return mask_vertices(self.masks[u - 1])


_n, _masks = Digraph.n.__set__, Digraph.masks.__set__


def mask_vertices(mask: int) -> frozenset[int]:
    """The vertices whose bits are set in mask."""
    vertices = []
    while mask:
        low = mask & -mask
        vertices.append(low.bit_length())
        mask ^= low
    return frozenset(vertices)


def transpose(masks) -> list[int]:
    """Out-masks from in-masks: bit v-1 of out[u-1] is set when bit u-1 of masks[v-1] is.

    Transposing out-masks gives the in-masks back.
    """
    out = [0] * len(masks)
    bit = 1
    for m in masks:
        while m:
            low = m & -m
            out[low.bit_length() - 1] |= bit
            m ^= low
        bit <<= 1
    return out


def all_loops(n: int) -> Digraph:
    return Digraph(n, frozenset((u, u) for u in range(1, n + 1)))


def edgeless(n: int) -> Digraph:
    return Digraph(n, frozenset())


def load_digraph(text: str) -> Digraph:
    """Parse digraph file content.  Duplicate arrows warn and collapse."""
    lines = uncommented_lines(text)
    rows = enumerate(map(str.split, lines), start=1)
    for lineno, fields in rows:
        if not fields:
            continue
        if len(fields) != 2 or fields[0] != "vertices":
            raise BadHeader(f"line {lineno}: expected `vertices <n>`, got {lines[lineno - 1].strip()!r}")
        try:
            n = int(fields[1])
        except ValueError:
            raise BadHeader(f"line {lineno}: vertex count {fields[1]!r} is not an integer")
        if n < 1:
            raise BadHeader(f"line {lineno}: need at least one vertex")
        if n > MAX_VERTICES:
            raise SizeGuardExceeded(f"line {lineno}: {n} vertices exceed {MAX_VERTICES}")
        break
    else:
        raise BadHeader("missing `vertices <n>` header")
    masks = [0] * n
    top = _top_tail(n)
    for lineno, fields in rows:
        if len(fields) != 2:
            if not fields:
                continue
            raise DigraphError(f"line {lineno}: expected `<u> <v>`, got {lines[lineno - 1].strip()!r}")
        try:
            u = int(fields[0])
            v = int(fields[1])
        except ValueError:
            raise DigraphError(f"line {lineno}: arrow endpoints must be integers")
        if not (1 <= u <= top and 1 <= v <= n):
            _check_tail(u, v, n, f"line {lineno}: ")
            raise VertexOutOfRange(f"line {lineno}: arrow ({u}, {v}) leaves [1, {n}]")
        bit = 1 << (u - 1)
        if masks[v - 1] & bit:
            warnings.warn(f"line {lineno}: duplicate arrow ({u}, {v})", DuplicateArrowWarning)
        masks[v - 1] |= bit
    return Digraph._unchecked(tuple(masks))


def dump_digraph(digraph: Digraph) -> str:
    """The file text, arrows sorted by tail and then head."""
    # heads[u-1] fills in ascending order, since the heads v are visited in order
    heads: list[list[str]] = [[] for _ in range(digraph.n)]
    for v, m in enumerate(digraph.masks, 1):
        head = str(v)
        while m:
            low = m & -m
            heads[low.bit_length() - 1].append(head)
            m ^= low
    return f"vertices {digraph.n}\n" + "".join(
        [f"{u} " + f"\n{u} ".join(hs) + "\n" for u, hs in enumerate(heads, 1) if hs]
    )


# The kernel behind Digraph.analysis, imported last because analysis
# imports this module.  It loads nothing of the sentence side (formulas,
# schemes, the Cantor sentence, evaluation), so a reader of digraphs pays
# for the kernel alone.  An import inside the property would cost 1.7 µs
# per digraph (Python 3.11, one Xeon core), a third of the whole analysis
# of a digraph on three to five vertices.
from . import analysis as _analysis  # noqa: E402
