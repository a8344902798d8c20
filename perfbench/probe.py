"""How fast the machine runs while the timed code runs.

On a shared machine the speed a process gets switches between states up
to 2x apart, each lasting from a fraction of a second to minutes, so two
runs of the same code can differ by that much.  A ``Prober`` measures
the speed in place: a real-time interval timer interrupts the benchmark
every ``interval_s``, and the signal handler, which runs in the main
thread between two bytecodes of whatever was running, times a fixed
piece of pure-Python work that never calls zfcantor.  The work runs twice
and only the second run is kept, because the first pays for the caches
the interrupted code left cold.

Time spent in the handler is taken out of ``now_ns()``, the clock the
stages time their samples with, and the probes are placed on that same
clock, so a sample's slowdown is the median probe time during the
sample (or, for a sample too short to hold ``NEAREST`` probes, of the
``NEAREST`` probes around it) over ``REF_NS``.  A median, because a
probe that an interrupt or another process cut into reads far too slow.
"""
from __future__ import annotations

import bisect
import signal
import statistics
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

# A probe's time on the reference machine (a 2-CPU Intel Xeon VM,
# Python 3.11.7) in its faster state.
REF_NS = 110_000
NEAREST = 7
_TEXT = " ".join(["( A x1 ( ( x1 in x2 ) -> ! ( x2 = x3 ) ) )"] * 6)


def _nest(tokens: list[str], i: int = 0) -> tuple[tuple, int]:
    """The tuple tree of a parenthesised token list, and the index after it."""
    items = []
    while i < len(tokens):
        token = tokens[i]
        if token == "(":
            sub, i = _nest(tokens, i + 1)
            items.append(sub)
        elif token == ")":
            return tuple(items), i + 1
        else:
            items.append(token)
            i += 1
    return tuple(items), i


def _depth(tree) -> int:
    return 1 + max((_depth(t) for t in tree), default=0) if isinstance(tree, tuple) else 0


def probe_work() -> int:
    """Set, dict, tuple and recursive work shaped like the library's, on fixed data."""
    total = 0
    for n in range(3, 7):
        arrows = frozenset((u, v) for u in range(n) for v in range(n) if (u * 5 + v * 3) % 7 < 4)
        into = {v: frozenset(u for u, w in arrows if w == v) for v in range(n)}
        total += sum(len(into[a] & into[b]) for a in range(n) for b in range(n))
    tree, _ = _nest(_TEXT.split())
    return total + _depth(tree)


class Prober:
    def __init__(self, interval_s: float = 0.02):
        self.interval_s = interval_s
        self.at = array("q")  # probe start, on the now_ns() clock
        self.took = array("q")  # nanoseconds of the kept run
        self.spent_ns = 0  # time spent in the handler so far
        self._previous = None

    def now_ns(self) -> int:
        """perf_counter_ns() without the time spent probing."""
        return perf_counter_ns() - self.spent_ns

    def _handler(self, signum, frame) -> None:
        t0 = perf_counter_ns()
        probe_work()
        t1 = perf_counter_ns()
        probe_work()
        t2 = perf_counter_ns()
        self.at.append(t0 - self.spent_ns)
        self.took.append(t2 - t1)
        self.spent_ns += perf_counter_ns() - t0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    @contextmanager
    def paused(self):
        """No probes, for a stretch when another process of ours runs on this CPU."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def slowdown(self, start: int, end: int) -> float:
        """Median probe time in [start, end], or of the NEAREST probes around it, over REF_NS."""
        at, took = self.at, self.took
        if not at:  # a run too short for a single probe
            return 1.0
        lo, hi = bisect.bisect_left(at, start), bisect.bisect_right(at, end)
        while hi - lo < min(NEAREST, len(at)):
            mid = (start + end) // 2
            if hi < len(at) and (lo == 0 or at[hi] - mid < mid - at[lo - 1]):
                hi += 1
            else:
                lo -= 1
        return statistics.median(took[lo:hi]) / REF_NS
