"""Exhaustive counts of strongly extensive and Cantor digraphs on [n].

Digraphs are enumerated in counter order: arrow (u, v) is present when
bit (u-1)*n + (v-1) of the counter is set, for counters 0 to 2^(n*n)-1.
All counts are over labeled digraphs.  Work splits into contiguous
counter ranges, one per job, whose partial counts are summed; the
result does not depend on the number of jobs.

The counting pass builds no ``Digraph``: it reads each counter's
in-neighborhood masks through a per-row transpose table and hands them
to the bitmask kernel in ``analysis``.
"""
from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from operator import or_
from typing import Iterator

from .analysis import SizeGuardExceeded as GuardExceeded  # census's name for it
from .analysis import find_surjection, masks_strongly_extensive, pair_table, unique_vertices
from .digraphs import Digraph

DEFAULT_MAX_N = 4
HARD_MAX_N = 5


@dataclass(frozen=True)
class CensusRow:
    n: int
    total: int
    strongly_extensive: int
    cantor: int
    elapsed_ms: float
    # counters of the non-Cantor digraphs, in counter order, when asked for
    non_cantor: tuple[int, ...] = field(default=(), repr=False, compare=False)


def _check_n(n: int, max_n: int) -> None:
    limit = min(max_n, HARD_MAX_N)
    if not (1 <= n <= limit):
        raise GuardExceeded(f"n={n} is outside [1, {limit}] (raise max_n up to {HARD_MAX_N})")


def digraph_from_counter(n: int, counter: int) -> Digraph:
    arrows = frozenset(
        (u, v)
        for u in range(1, n + 1)
        for v in range(1, n + 1)
        if counter >> ((u - 1) * n + (v - 1)) & 1
    )
    return Digraph(n, arrows)


def enumerate_digraphs(n: int, *, max_n: int = DEFAULT_MAX_N) -> Iterator[Digraph]:
    """All 2^(n*n) labeled digraphs on [n], in counter order."""
    _check_n(n, max_n)
    for counter in range(2 ** (n * n)):
        yield digraph_from_counter(n, counter)


def _count_range(task: tuple[int, int, int, bool]) -> tuple[int, int, list[int]]:
    """(strongly extensive, Cantor, non-Cantor counters if asked) over [start, stop).

    Row u of the counter holds u's out-arrows, that is bit u-1 of every
    in-neighborhood mask.  ``column[r]`` spreads a row value r over the
    masks; rows 2..n change once per 2^n counters, so their masks are
    built once per block and only row 1 is added per counter.
    """
    n, start, stop, collect = task
    width = 1 << n
    column = [tuple(r >> v & 1 for v in range(n)) for r in range(width)]
    strongly_extensive = cantor = 0
    non_cantor: list[int] = []
    for high in range(start >> n, (stop + width - 1) >> n):
        base = [0] * n
        for u in range(1, n):
            row = column[high >> ((u - 1) * n) & (width - 1)]
            base = [m | bit << u for m, bit in zip(base, row)]
        offset = high << n
        for low in range(max(start - offset, 0), min(stop - offset, width)):
            masks = tuple(map(or_, base, column[low]))
            if masks_strongly_extensive(masks):
                strongly_extensive += 1
            if find_surjection(masks, pair_table(unique_vertices(masks))) is None:
                cantor += 1
            elif collect:
                non_cantor.append(offset + low)
    return strongly_extensive, cantor, non_cantor


def census(
    n: int, jobs: int = 1, *, max_n: int = DEFAULT_MAX_N, witnesses: bool = False
) -> CensusRow:
    """Count strongly extensive and Cantor digraphs on [n].

    At most ``min(jobs, os.cpu_count(), 2^(n*n))`` worker processes run;
    one job runs in this process.  With ``witnesses`` the row also lists
    the non-Cantor counters, collected during the same pass.
    """
    _check_n(n, max_n)
    if jobs < 1:
        raise GuardExceeded(f"jobs must be >= 1, got {jobs}")
    total = 2 ** (n * n)
    jobs = min(jobs, os.cpu_count() or 1, total)
    bounds = [total * i // jobs for i in range(jobs + 1)]
    tasks = [(n, bounds[i], bounds[i + 1], witnesses) for i in range(jobs)]
    start = time.perf_counter()
    if jobs == 1:
        parts = [_count_range(tasks[0])]
    else:
        with multiprocessing.Pool(jobs) as pool:
            parts = pool.map(_count_range, tasks)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    strongly_extensive = sum(p[0] for p in parts)
    cantor = sum(p[1] for p in parts)
    assert strongly_extensive <= cantor <= total
    non_cantor = tuple(c for p in parts for c in p[2])
    return CensusRow(n, total, strongly_extensive, cantor, elapsed_ms, non_cantor)


def non_cantor_digraphs(n: int, *, max_n: int = DEFAULT_MAX_N) -> Iterator[tuple[int, Digraph]]:
    """The non-Cantor digraphs on [n] with their counters, in counter order."""
    for counter in census(n, max_n=max_n, witnesses=True).non_cantor:
        yield counter, digraph_from_counter(n, counter)


def format_row(row: CensusRow) -> str:
    return "\t".join(
        str(x)
        for x in (row.n, row.total, row.strongly_extensive, row.cantor, round(row.elapsed_ms))
    )
