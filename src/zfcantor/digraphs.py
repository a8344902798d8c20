"""Finite digraphs on vertex set 1..n and their file format.

An arrow (u, v) reads "u is an element of v": u contributes to the
in-neighborhood N(v).  ``Digraph.masks`` holds every N(v) as an integer
mask: bit u-1 of ``masks[v-1]`` is set when u -> v.  The file format is
a header line ``vertices <n>`` followed by one arrow per line ``<u> <v>``;
``#`` starts a comment line and blank lines are ignored.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property


# Most vertices a digraph file may declare: checks allocate per-vertex tables.
MAX_VERTICES = 2**22


class DigraphError(ValueError):
    pass


class BadHeader(DigraphError):
    pass


class VertexOutOfRange(DigraphError):
    pass


class SizeGuardExceeded(ValueError):
    """An input is too large for the requested computation; raised before the work starts."""


class DuplicateArrowWarning(UserWarning):
    pass


@dataclass(frozen=True)
class Digraph:
    n: int
    arrows: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 1:
            raise DigraphError(f"need at least one vertex, got n={self.n}")
        if not isinstance(self.arrows, frozenset):
            object.__setattr__(self, "arrows", frozenset(self.arrows))
        for u, v in self.arrows:
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise VertexOutOfRange(f"arrow ({u}, {v}) leaves the vertex range [1, {self.n}]")

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

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """The in-neighborhood masks, vertex 1 first; built once per digraph."""
        masks = [0] * self.n
        for u, v in self.arrows:
            masks[v - 1] |= 1 << (u - 1)
        return tuple(masks)


def mask_vertices(mask: int) -> frozenset[int]:
    """The vertices whose bits are set in mask."""
    vertices = []
    while mask:
        low = mask & -mask
        vertices.append(low.bit_length())
        mask ^= low
    return frozenset(vertices)


def all_loops(n: int) -> Digraph:
    return Digraph(n, frozenset((u, u) for u in range(1, n + 1)))


def edgeless(n: int) -> Digraph:
    return Digraph(n, frozenset())


def load_digraph(text: str) -> Digraph:
    """Parse digraph file content.  Duplicate arrows warn and collapse."""
    n: int | None = None
    arrows: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 2 or fields[0] != "vertices":
                raise BadHeader(f"line {lineno}: expected `vertices <n>`, got {line!r}")
            try:
                n = int(fields[1])
            except ValueError:
                raise BadHeader(f"line {lineno}: vertex count {fields[1]!r} is not an integer")
            if n < 1:
                raise BadHeader(f"line {lineno}: need at least one vertex")
            if n > MAX_VERTICES:
                raise SizeGuardExceeded(f"line {lineno}: {n} vertices exceed {MAX_VERTICES}")
            continue
        if len(fields) != 2:
            raise DigraphError(f"line {lineno}: expected `<u> <v>`, got {line!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise DigraphError(f"line {lineno}: arrow endpoints must be integers")
        if not (1 <= u <= n and 1 <= v <= n):
            raise VertexOutOfRange(f"line {lineno}: arrow ({u}, {v}) leaves [1, {n}]")
        if (u, v) in arrows:
            warnings.warn(f"line {lineno}: duplicate arrow ({u}, {v})", DuplicateArrowWarning)
        arrows.add((u, v))
    if n is None:
        raise BadHeader("missing `vertices <n>` header")
    return Digraph(n, frozenset(arrows))


def dump_digraph(digraph: Digraph) -> str:
    """The file text, arrows sorted by tail and then head."""
    # u*(n+1) + v sorts as the pair (u, v), since 1 <= v <= n
    n1 = digraph.n + 1
    keys = sorted([u * n1 + v for u, v in digraph.arrows])
    return f"vertices {digraph.n}\n" + "".join([f"{k // n1} {k % n1}\n" for k in keys])
