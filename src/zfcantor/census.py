"""Exhaustive counts of strongly extensive and Cantor digraphs on [n].

All counts are over labeled digraphs, and both properties are invariant
under relabeling.  A digraph is a tuple of in-neighborhood masks (bit
u-1 of ``masks[v-1]`` set when u -> v).  The Cantor count comes from
degree-sorted representatives: the mask tuples whose (in-degree,
out-degree) pairs are non-increasing.  Relabeling maps the digraphs
with one arrangement of a multiset of pairs one-to-one onto those with
any other arrangement, so each representative stands for n! / prod(m!)
labeled digraphs, m running over the multiplicities of its pairs.  The
weights must sum to 2^(n*n) on every run, or ``CensusChecksumError`` is
raised.  Work splits into one task per in-degree sequence and first
mask; the result does not depend on the number of jobs.  By the lemma
in ``analysis``, a task whose in-degrees include no 1, or a 0, has only
Cantor representatives, so it is not searched.  The size bound is n <= 5
(``HARD_MAX_N``): n = 6 has 96,928,992 digraphs even up to relabeling,
out of reach of this pass.

The strongly extensive count is not scanned for at all: it is the
closed form ``strongly_extensive_count``, a sum over downsets of
subsets of [n], computed once per n on first use and checked against
the scan by strongly extensive <= Cantor.

The non-Cantor digraphs are listed by counter, where arrow (u, v) is
present when bit (u-1)*n + (v-1) of the counter is set.  Every
relabeling of a non-Cantor digraph is non-Cantor, and every non-Cantor
digraph is a relabeling of a non-Cantor representative, so the list is
the set of counters of the n! relabelings of each such representative,
sorted.  The counting builds no ``Digraph`` and hands its masks to the
bitmask kernel in ``analysis``.
"""
from __future__ import annotations

import os
import time
from functools import lru_cache
from itertools import combinations_with_replacement, permutations
from math import comb, factorial
from typing import Iterator

from .analysis import find_surjection, unique_vertices
from .digraphs import Digraph, SizeGuardExceeded, transpose
from .records import Record

HARD_MAX_N = 5


class CensusChecksumError(RuntimeError):
    """The census's weights do not sum to 2^(n*n), the number of digraphs on [n],
    or its counts break strongly extensive <= Cantor <= total."""


class CensusRow(Record):
    """One census row.

    ``non_cantor`` holds the counters of the non-Cantor digraphs, in
    counter order, when asked for; ``==``, ``hash`` and ``repr`` leave it out.
    """

    __slots__ = ("n", "total", "strongly_extensive", "cantor", "elapsed_ms", "non_cantor")
    _fields = __slots__[:5]

    def __init__(
        self,
        n: int,
        total: int,
        strongly_extensive: int,
        cantor: int,
        elapsed_ms: float,
        non_cantor: tuple[int, ...] = (),
    ):
        init = object.__setattr__
        init(self, "n", n)
        init(self, "total", total)
        init(self, "strongly_extensive", strongly_extensive)
        init(self, "cantor", cantor)
        init(self, "elapsed_ms", elapsed_ms)
        init(self, "non_cantor", non_cantor)

    def __reduce__(self):
        return CensusRow, (*self._key(self), self.non_cantor)


def _check_n(n: int) -> None:
    if not (1 <= n <= HARD_MAX_N):
        raise SizeGuardExceeded(f"n={n} is outside [1, {HARD_MAX_N}]")


def digraph_from_counter(n: int, counter: int) -> Digraph:
    """The digraph with arrow (u, v) when bit (u-1)*n + (v-1) of counter is set."""
    # the n bits from (u-1)*n on are the out-mask of u
    full = (1 << n) - 1
    return Digraph.from_masks(transpose([counter >> u * n & full for u in range(n)]))


@lru_cache(maxsize=None)
def _tables(n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Masks on [n] by popcount, and each mask spread to one 4-bit digit per vertex."""
    by_degree = tuple(tuple(m for m in range(1 << n) if m.bit_count() == d) for d in range(n + 1))
    spread = tuple(sum(1 << 4 * u for u in range(n) if m >> u & 1) for m in range(1 << n))
    return by_degree, spread


def _reduced_tasks(n: int) -> list[tuple[int, tuple[int, ...], int]]:
    """(n, in-degrees, first mask) for every non-increasing in-degree sequence."""
    by_degree = _tables(n)[0]
    return [
        (n, degrees, first)
        for degrees in combinations_with_replacement(range(n, -1, -1), n)
        for first in by_degree[degrees[0]]
    ]


def _count_reduced(task: tuple[int, tuple[int, ...], int]) -> tuple[int, int, list]:
    """(weight, Cantor, non-Cantor masks) over one task's representatives.

    A representative is a mask tuple with the task's in-degrees whose
    (in-degree, out-degree) pairs are non-increasing.  Summing the
    spread masks gives every out-degree as one digit of ``s``; one SWAR
    compare checks digit i >= digit i+1 for every i whose in-degree ties
    with the next.  Digits are at most n <= 7, so bit 3 of each digit is
    a guard that absorbs the subtraction without a borrow.  Prefixes are
    grouped by their partial sum, and a prefix of k masks is dropped as
    soon as n-k more masks cannot repair a tie.

    A surjection onto a power set needs a vertex of in-degree 1 and none
    of in-degree 0, so otherwise every representative is Cantor, and a
    group keeps only its size, which is all that its weight needs.
    """
    n, degrees, first = task
    by_degree, spread = _tables(n)
    lo = guard = 0
    for i in range(n - 1):
        if degrees[i] == degrees[i + 1]:
            lo |= 7 << 4 * i
            guard |= 8 << 4 * i
    scan = 1 in degrees and 0 not in degrees  # else no singleton vertex, or an empty one
    groups = {spread[first]: [(first,)] if scan else 1}
    for k, d in enumerate(degrees[1:], 2):
        slack = (n - k) * (guard >> 3)
        grown: dict = {}
        for t, group in groups.items():
            for m in by_degree[d]:
                s = t + spread[m]
                if ((s & lo) + slack | guard) - (s >> 4 & lo) & guard == guard:
                    if scan:
                        grown.setdefault(s, []).extend([p + (m,) for p in group])
                    else:
                        grown[s] = grown.get(s, 0) + group
        groups = grown
    if not scan:
        total = sum(_weight(n, degrees, s) * size for s, size in groups.items())
        return total, total, []
    total = cantor = 0
    non_cantor: list[tuple[int, ...]] = []
    for s, group in groups.items():
        weight = _weight(n, degrees, s)
        found = [m for m in group if find_surjection(m, unique_vertices(m)) is not None]
        total += weight * len(group)
        cantor += weight * (len(group) - len(found))
        non_cantor += found
    return total, cantor, non_cantor


def _weight(n: int, degrees: tuple[int, ...], s: int) -> int:
    """n! over the factorials of the runs of equal (in-degree, out-degree) pairs."""
    weight = factorial(n)
    run = 1
    for i in range(1, n):
        if degrees[i] == degrees[i - 1] and (s >> 4 * i ^ s >> 4 * (i - 1)) & 15 == 0:
            run += 1
            weight //= run
        else:
            run = 1
    return weight


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


def _relabelings(n: int, masks: tuple[int, ...]) -> Iterator[int]:
    """The counter of each of the n! relabelings of a mask tuple (repeats included)."""
    arrows = [(u, v) for v, m in enumerate(masks) for u in range(n) if m >> u & 1]
    for perm in permutations(range(n)):
        yield sum(1 << perm[u] * n + perm[v] for u, v in arrows)


def census(n: int, jobs: int = 1, *, witnesses: bool = False) -> CensusRow:
    """Count strongly extensive and Cantor digraphs on [n], 1 <= n <= 5.

    At most ``min(jobs, os.cpu_count(), number of tasks)`` worker
    processes run, the tasks numbering 2, 8, 38, 192 and 1002 for
    n = 1..5; one job runs in this process.  With ``witnesses`` the row
    also lists the non-Cantor counters, the relabelings of the
    non-Cantor representatives.
    """
    _check_n(n)
    if jobs < 1:
        raise SizeGuardExceeded(f"jobs must be >= 1, got {jobs}")
    total = 2 ** (n * n)
    start = time.perf_counter()
    tasks = _reduced_tasks(n)
    jobs = min(jobs, os.cpu_count() or 1, len(tasks))
    if jobs == 1:
        parts = [_count_reduced(task) for task in tasks]
    else:
        import multiprocessing  # here, not at the top: it is a sixth of `import zfcantor`

        with multiprocessing.Pool(jobs) as pool:
            parts = pool.map(_count_reduced, tasks, chunksize=1)
    weight, cantor = (sum(p[i] for p in parts) for i in range(2))
    strongly_extensive = strongly_extensive_count(n)
    if weight != total:
        raise CensusChecksumError(f"weights sum to {weight}, not 2^{n * n}")
    if not strongly_extensive <= cantor <= total:
        raise CensusChecksumError(f"counts {strongly_extensive} <= {cantor} <= {total} fail")
    reps = (masks for p in parts for masks in p[2]) if witnesses else ()
    non_cantor = tuple(sorted({c for masks in reps for c in _relabelings(n, masks)}))
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return CensusRow(n, total, strongly_extensive, cantor, elapsed_ms, non_cantor)


def format_row(row: CensusRow) -> str:
    return "\t".join(
        str(x)
        for x in (row.n, row.total, row.strongly_extensive, row.cantor, round(row.elapsed_ms))
    )
