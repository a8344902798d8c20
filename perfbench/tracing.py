"""Spans around the benchmark's calls into zfcantor.

The stages never call zfcantor directly: they call through an ``Api``
namespace.  Untraced, its attributes are the library's own callables, so
the timed loops pay nothing for tracing.  Traced, each attribute is
wrapped to record a span (name, start, end, parent, request id).  Spans
live in flat arrays while the benchmark runs and are written out at the
end; a span's self time is its duration minus the part of it covered by
its child spans.
"""
from __future__ import annotations

import functools
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import zfcantor
from zfcantor.census import digraph_from_counter


def analyze(tree):
    """Occurrences, free variables, and the case label of every subformula."""
    occurrences = zfcantor.occurrences(tree)
    free = zfcantor.free_variables(tree)
    labels = [zfcantor.classify(node)[0] for node in zfcantor.subformulas(tree)]
    return occurrences, free, labels


# attribute: (span name, callable).  A span name is "<layer>.<operation>",
# the layer being the zfcantor module the call goes to.
CALLS = {
    "census": ("census.census", zfcantor.census),
    "from_counter": ("digraphs.from_counter", digraph_from_counter),
    "load": ("digraphs.load", zfcantor.load_digraph),
    "dump": ("digraphs.dump", zfcantor.dump_digraph),
    "pair_table": ("analysis.pair_table", zfcantor.DigraphAnalysis),
    "scan": ("analysis.cantor_scan", zfcantor.DigraphAnalysis.is_cantor),
    "witness_of": ("analysis.witness", zfcantor.DigraphAnalysis.cantor_witness),
    "surjection_of": ("analysis.extract_surjection", zfcantor.DigraphAnalysis.extract_surjection),
    # The module-level wrappers build their own pair table, as the CLI's
    # is-cantor does; their spans include it.
    "is_cantor": ("analysis.cantor_scan", zfcantor.is_cantor),
    "cantor_witness": ("analysis.witness", zfcantor.cantor_witness),
    "extract_surjection": ("analysis.extract_surjection", zfcantor.extract_surjection),
    "strongly_extensive": ("analysis.strongly_extensive", zfcantor.is_strongly_extensive),
    "omega_prefix": ("analysis.omega_prefix", zfcantor.omega_prefix),
    "is_cantor_phi": ("semantics.evaluate", functools.partial(zfcantor.is_cantor, method="phi")),
    "tokenize": ("formulas.tokenize", zfcantor.tokenize),
    "parse": ("formulas.parse", zfcantor.parse),
    "render": ("formulas.render", zfcantor.render),
    "render_text": ("formulas.render", zfcantor.render_text),
    "analyze": ("formulas.analyze", analyze),
    "parse_scheme": ("schemes.parse_scheme", zfcantor.parse_scheme_text),
    "expand": ("schemes.expand", zfcantor.expand),
    "instantiate": ("schemes.instantiate", zfcantor.instantiate),
    "rep": ("substitution.sub", zfcantor.rep),
    "rep0": ("substitution.sub", zfcantor.rep0),
    "sub1": ("substitution.sub", zfcantor.sub1),
    "sub2": ("substitution.sub", zfcantor.sub2),
}


class Api:
    """The zfcantor calls the stages make, traced or not."""

    def __init__(self, tracer: "Tracer | None" = None):
        self.tracer = tracer
        for attr, (span, fn) in CALLS.items():
            setattr(self, attr, fn if tracer is None else tracer.wrap(span, fn))

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself: a stage pass or one request."""
        if self.tracer is None:
            yield
            return
        i = self.tracer.open(name)
        try:
            yield
        finally:
            self.tracer.close(i)

    def request(self, request_id: int) -> None:
        if self.tracer is not None:
            self.tracer.request_id = request_id


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.request_id = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        i = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(self.stack[-1])
        self.request.append(self.request_id)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self.stack.pop()

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        names, parents, requests = self.name, self.parent, self.request
        starts, ends, stack = self.start, self.end, self.stack

        def traced(*args, **kwargs):
            # open() and close() inlined: this runs once per traced call
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            requests.append(self.request_id)
            ends.append(0)
            stack.append(i)
            starts.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter_ns()
                stack.pop()

        return traced

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self, first: int = 0, last: int | None = None) -> dict[str, float]:
        """Seconds of self time per span name, over spans first..last-1."""
        last = len(self.start) if last is None else last
        child = [0] * (last - first)
        for i in range(first, last):
            p = self.parent[i]
            if p >= first:
                child[p - first] += self.end[i] - self.start[i]
        out: dict[str, float] = {}
        for i in range(first, last):
            key = self.names[self.name[i]]
            own = self.end[i] - self.start[i] - child[i - first]
            out[key] = out.get(key, 0.0) + own / 1e9
        return out

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for nid in self.name:
            key = self.names[nid]
            out[key] = out.get(key, 0) + 1
        return out

    def write(self, path) -> None:
        """One tab-separated line per span: index, name, start_ns, end_ns, parent, request."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\trequest\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{names[self.name[i]]}\t{self.start[i]}\t{self.end[i]}"
                    f"\t{self.parent[i]}\t{self.request[i]}\n"
                )
