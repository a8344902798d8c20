"""Index-exact substitution on words: rep, rep0, sub1, sub2.

All operations are generic over the symbol type and use 1-based
inclusive intervals [l, m].  Words must be nonempty tuples; an empty
replacement word is rejected because the interval arithmetic below is
defined for nonempty words only.
"""
from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .records import InvalidInput

GenericWord = tuple


class SubstitutionError(InvalidInput):
    pass


class EmptyWord(SubstitutionError):
    pass


class IndexOutOfRange(SubstitutionError):
    pass


class OverlappingIntervals(SubstitutionError):
    pass


class DuplicateSource(SubstitutionError):
    pass


def _check_interval(u: Sequence, l: int, m: int) -> None:
    if not (1 <= l <= m <= len(u)):
        raise IndexOutOfRange(f"interval [{l}, {m}] does not fit a word of length {len(u)}")


def _check_nonempty(w: Sequence, role: str) -> None:
    if len(w) == 0:
        raise EmptyWord(f"{role} must be nonempty")


def rep(u: GenericWord, v: GenericWord, l: int, m: int) -> GenericWord:
    """Replace the segment [l, m] of u with the word v.

    The result has length |u| - (m - l + 1) + |v|; the prefix before l
    and the suffix after m are carried over unchanged.
    """
    _check_nonempty(u, "the target word")
    _check_nonempty(v, "the replacement word")
    _check_interval(u, l, m)
    return tuple(u[: l - 1]) + tuple(v) + tuple(u[m:])


def rep0(u: GenericWord, v: GenericWord, l: int, m: int, l2: int, m2: int) -> tuple[GenericWord, int, int]:
    """rep plus bookkeeping: where the disjoint interval [l2, m2] lands.

    Returns (rep(u, v, l, m), l'', m'').  An interval left of the
    replaced segment is unchanged; an interval right of it shifts by
    |v| - (m - l + 1).
    """
    _check_nonempty(u, "the target word")
    _check_nonempty(v, "the replacement word")
    _check_interval(u, l, m)
    _check_interval(u, l2, m2)
    if not (m2 < l or l2 > m):
        raise OverlappingIntervals(f"intervals [{l}, {m}] and [{l2}, {m2}] overlap")
    w = rep(u, v, l, m)
    if m2 < l:
        return w, l2, m2
    delta = len(v) - (m - l + 1)
    return w, l2 + delta, m2 + delta


def sub1(u: GenericWord, mapping: Mapping | Iterable[tuple]) -> GenericWord:
    """Simultaneous symbol-for-symbol replacement; preserves length.

    ``mapping`` lists source/target symbol pairs; sources must be
    pairwise distinct.  Positions holding no source symbol are kept.
    """
    _check_nonempty(u, "the target word")
    if isinstance(mapping, Mapping):
        table = dict(mapping)
    else:
        pairs = list(mapping)
        table = dict(pairs)
        if len(table) != len(pairs):
            raise DuplicateSource("replacement sources must be pairwise distinct")
    return tuple(map(table.get, u, u))


def sub2(u: GenericWord, replacements: Iterable[tuple[GenericWord, int, int]]) -> GenericWord:
    """Replace several pairwise disjoint segments of u at once.

    ``replacements`` holds triples (v, l, m).  The listed order is
    irrelevant: patching is done right to left, which agrees with the
    iterated rep0 bookkeeping under any permutation of the triples.
    """
    _check_nonempty(u, "the target word")
    triples = sorted(replacements, key=lambda t: t[1], reverse=True)
    prev_l: int | None = None
    for v, l, m in triples:
        _check_nonempty(v, "a replacement word")
        _check_interval(u, l, m)
        if prev_l is not None and m >= prev_l:
            raise OverlappingIntervals(f"interval [{l}, {m}] overlaps another replacement interval")
        prev_l = l
    out = tuple(u)
    for v, l, m in triples:
        out = out[: l - 1] + tuple(v) + out[m:]
    return out
