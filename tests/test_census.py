import os
import random
import subprocess
import sys
from itertools import combinations, islice, product

import hypothesis
import pytest
from hypothesis import given
from hypothesis import strategies as st

from naive import (
    counter_order_census,
    enumerate_digraphs,
    every_map_non_cantor_count,
    kernel_verdicts,
    naive_census,
    naive_is_cantor,
    naive_is_strongly_extensive,
)
from zfcantor.analysis import (
    DigraphAnalysis,
    find_surjection,
    is_strongly_extensive,
    pair_table,
    unique_vertices,
)
from zfcantor.cantor import emit_phi
from zfcantor.census import (
    CensusChecksumError,
    CensusRow,
    census,
    digraph_from_counter,
    format_row,
    non_cantor_count,
    strongly_extensive_count,
    witness_listing,
)
from zfcantor.digraphs import Digraph, SizeGuardExceeded
from zfcantor.semantics import evaluate_sentence

# frozen regression constants, established once by the brute-force oracle
FROZEN = {
    1: (2, 1, 1),
    2: (16, 5, 11),
    3: (512, 37, 388),
    4: (65536, 513, 53499),
    5: (33554432, 10651, 29249616),
}


def counts(row: CensusRow):
    return (row.total, row.strongly_extensive, row.cantor)


class TestEnumeration:
    def test_counts(self):
        assert sum(1 for _ in enumerate_digraphs(1)) == 2
        assert sum(1 for _ in enumerate_digraphs(2)) == 16
        assert sum(1 for _ in enumerate_digraphs(3)) == 512

    def test_counter_bit_layout(self):
        assert digraph_from_counter(2, 0).arrows == frozenset()
        assert digraph_from_counter(2, 1).arrows == {(1, 1)}
        assert digraph_from_counter(2, 2).arrows == {(1, 2)}
        assert digraph_from_counter(2, 4).arrows == {(2, 1)}
        assert digraph_from_counter(2, 15).arrows == {(1, 1), (1, 2), (2, 1), (2, 2)}

    def test_each_digraph_exactly_once(self):
        seen = {d.arrows for d in enumerate_digraphs(2)}
        assert len(seen) == 16

    def test_guard(self):
        with pytest.raises(SizeGuardExceeded, match="outside \\[1, 5\\]"):
            next(enumerate_digraphs(6))
        with pytest.raises(SizeGuardExceeded):
            next(enumerate_digraphs(0))
        assert len(list(islice(enumerate_digraphs(5), 3))) == 3


class TestCensus:
    def test_one_vertex(self):
        assert counts(census(1)) == FROZEN[1]

    def test_frozen_regressions(self):
        assert counts(census(2)) == FROZEN[2]
        assert counts(census(3)) == FROZEN[3]

    def test_frozen_n4(self):
        assert counts(census(4)) == FROZEN[4]

    def test_frozen_n5(self):
        assert counts(census(5)) == FROZEN[5]

    def test_jobs_do_not_change_counts(self):
        assert counts(census(2, jobs=1)) == counts(census(2, jobs=3))
        assert counts(census(4, jobs=2)) == counts(census(4, jobs=1)) == FROZEN[4]

    def test_row_n6(self):
        assert counts(census(6)) == (68_719_476_736, 310_393, 63_008_246_027)

    def test_bounds_are_checked_before_any_work(self, monkeypatch):
        monkeypatch.setattr(sys.modules["zfcantor.census"], "non_cantor_count", None)
        with pytest.raises(SizeGuardExceeded, match="n=8 is outside \\[1, 7\\]$"):
            census(8)
        with pytest.raises(SizeGuardExceeded, match="n=6 is outside \\[1, 5\\] for a witness listing"):
            witness_listing(6)

    def test_monotone_inequalities(self):
        for n in (1, 2, 3):
            row = census(n)
            assert row.strongly_extensive <= row.cantor <= row.total

    def test_naive_oracle_agrees(self):
        assert naive_census(1) == counts(census(1))
        assert naive_census(2) == counts(census(2))

    def test_bad_jobs(self):
        with pytest.raises(ValueError):
            census(1, jobs=0)
        with pytest.raises(SizeGuardExceeded):
            census(2, jobs=-3)

    def test_format_row(self):
        row = CensusRow(1, 2, 1, 1, 4.2)
        assert format_row(row) == "1\t2\t1\t1\t4"


class TestCountAndListing:
    """The closed count and the gadget listing against the counter-order oracle."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_counts_equal_the_counter_order_pass(self, n):
        oracle_counts, oracle_non_cantor = counter_order_census(n)
        row, counters = witness_listing(n)
        assert counts(census(n)) == counts(row) == oracle_counts == FROZEN[n]
        assert tuple(counters) == oracle_non_cantor

    def test_a_listing_that_misses_a_witness_raises(self, monkeypatch):
        module = sys.modules["zfcantor.census"]
        mark = module._non_cantor_bitmap

        def missing_the_first(n):
            bitmap = mark(n)
            i = next(i for i, byte in enumerate(bitmap) if byte)
            bitmap[i] &= bitmap[i] - 1  # clears its lowest set bit
            return bitmap

        monkeypatch.setattr(module, "_non_cantor_bitmap", missing_the_first)
        with pytest.raises(CensusChecksumError, match="123 witnesses listed, 124 counted"):
            witness_listing(3)  # before a single counter is read

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_the_listing_streams_the_counters_of_the_row(self, n):
        row, counters = witness_listing(n)
        assert iter(counters) is counters  # an iterator, not a container
        assert sum(1 for _ in counters) == row.total - row.cantor

    def test_the_census_lists_no_witnesses(self):
        with pytest.raises(TypeError):
            census(3, witnesses=True)

    def test_counts_out_of_order_raise(self, monkeypatch):
        module = sys.modules["zfcantor.census"]
        monkeypatch.setattr(module, "strongly_extensive_count", lambda n: 2 ** (n * n))
        with pytest.raises(CensusChecksumError, match="counts 512 <= 388 <= 512 fail"):
            census(3)


class TestCountByRestSize:
    """The count walks one rest per size and weights it; the oracle walks every map."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_equals_the_every_map_walk(self, n):
        assert non_cantor_count(n) == every_map_non_cantor_count(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_the_maps_of_every_rest_are_the_grounded_maps(self, n):
        module = sys.modules["zfcantor.census"]
        walked = [
            tuple(s.get(v, -1) for v in range(n))
            for r in range(n + 1)
            for rest in combinations(range(n), r)
            for s, _ in module._grounded_maps(n, rest)
        ]
        grounded = [s for s in product(range(-1, n), repeat=n) if any(a >= 0 and s.count(a) == 1 for a in s)]
        assert sorted(walked) == grounded

    def test_the_count_has_no_cache(self):
        assert not hasattr(non_cantor_count, "cache_info")


class TestClosedForm:
    """The strongly-extensive column, counted over downsets instead of digraphs."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_equals_the_counter_order_pass(self, n):
        assert strongly_extensive_count(n) == counter_order_census(n)[0][1]

    def test_frozen_n5(self):
        assert strongly_extensive_count(5) == FROZEN[5][1]

    def test_beyond_the_census_bound(self):
        assert strongly_extensive_count(6) == 310_393
        assert strongly_extensive_count(7) == 11_857_609


NO_SINGLETON = {n: [m for m in range(1 << n) if m.bit_count() != 1] for n in range(1, 9)}


@st.composite
def no_singleton_masks(draw):
    """The masks of a digraph on up to 8 vertices where no vertex has in-degree 1."""
    n = draw(st.integers(1, 8))
    return tuple(draw(st.lists(st.sampled_from(NO_SINGLETON[n]), min_size=n, max_size=n)))


@hypothesis.seed(61705)
@given(no_singleton_masks())
def test_no_singleton_vertex_means_no_pair_and_cantor(masks):
    """The lemma that lets the census skip every map with no ground."""
    the = unique_vertices(masks)
    assert pair_table(the) == {}
    assert find_surjection(masks, the) is None
    d = Digraph.from_masks(masks)
    assert DigraphAnalysis(d).is_cantor()
    assert naive_is_cantor(d)


class TestExamplesAreCounted:
    examples = (
        Digraph(1, frozenset()),
        Digraph(2, frozenset({(1, 1)})),
        Digraph(4, frozenset({(1, 1), (2, 1), (1, 3), (2, 4)})),
    )

    def test_examples_are_strongly_extensive(self):
        for d in self.examples:
            assert is_strongly_extensive(d)

    def test_small_examples_appear_in_the_enumeration(self):
        for d in self.examples[:2]:
            assert any(d.arrows == e.arrows and d.n == e.n for e in enumerate_digraphs(d.n))


def test_import_does_not_load_multiprocessing():
    """Nor does a census with jobs > 1: ``jobs`` is only checked, and every census runs in process."""
    code = (
        "import sys, zfcantor; assert 'multiprocessing' not in sys.modules, 'loaded at import'; "
        "zfcantor.census(2, jobs=2); assert 'multiprocessing' not in sys.modules, 'loaded by census'"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr


class TestKernelAgainstOracles:
    def test_naive_oracle_on_sampled_counters(self):
        rng = random.Random(20251017)
        samples = [(4, rng.randrange(2**16)) for _ in range(200)]
        samples += [(5, rng.randrange(2**25)) for _ in range(50)]
        for n, counter in samples:
            d = digraph_from_counter(n, counter)
            expected = (naive_is_strongly_extensive(d), naive_is_cantor(d))
            assert kernel_verdicts(n, counter) == expected, (n, counter)
            assert (is_strongly_extensive(d), DigraphAnalysis(d).is_cantor()) == expected

    def test_naive_oracle_on_sampled_non_cantor_counters(self):
        non_cantor = list(witness_listing(4)[1])
        assert len(non_cantor) == FROZEN[4][0] - FROZEN[4][2]
        for counter in random.Random(7).sample(non_cantor, 50):
            assert not naive_is_cantor(digraph_from_counter(4, counter)), counter

    def test_sentence_on_sampled_counters(self):
        # as many non-Cantor counters as Cantor ones: a wrong shortcut in the sentence's
        # evaluation shows where a witness makes it run deep
        non_cantor = set(witness_listing(4)[1])
        rng = random.Random(494)
        cantor = [c for c in range(2**16) if c not in non_cantor]
        samples = rng.sample(sorted(non_cantor), 200) + rng.sample(cantor, 200)
        phi = emit_phi()
        for counter in samples:
            digraph = digraph_from_counter(4, counter)
            assert evaluate_sentence(digraph, phi) == kernel_verdicts(4, counter)[1] == (counter not in non_cantor)

    def test_witnesses_match_the_counting_pass(self):
        row, counters = witness_listing(3)
        assert sum(1 for _ in counters) == row.total - row.cantor
        assert counts(row) == counts(census(3))
