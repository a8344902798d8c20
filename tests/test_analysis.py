import gc
import hashlib
import random
import time
import weakref
from itertools import product

import hypothesis
import pytest
from hypothesis import given
from hypothesis import strategies as st

from naive import (
    filing_surjection,
    naive_dump_digraph,
    naive_is_cantor,
    naive_is_strongly_extensive,
    naive_omega_prefix,
    naive_opa,
    naive_predicate,
    naive_sur,
)
from strategies import repeated_masks, small_masks, strongly_extensive_masks
from zfcantor import analysis, formulas
from zfcantor.analysis import (
    DigraphAnalysis,
    NotASurjection,
    SizeGuardExceeded,
    cantor_witness,
    extract_surjection,
    find_surjection,
    is_cantor,
    is_strongly_extensive,
    masks_strongly_extensive,
    omega_level_ranges,
    omega_prefix,
    unique_vertices,
)
from zfcantor.cantor import PREDICATE_ARITIES
from zfcantor.census import digraph_from_counter
from zfcantor.digraphs import Digraph, VertexOutOfRange, all_loops, dump_digraph, edgeless
from zfcantor.formulas import ArityMismatch

THIRD_EXAMPLE = Digraph(4, frozenset({(1, 1), (2, 1), (1, 3), (2, 4)}))


class TestNeighborhoods:
    def test_single_arrow(self):
        assert Digraph(2, frozenset({(1, 2)})).in_neighbors(2) == {1}

    def test_edgeless(self):
        assert edgeless(1).in_neighbors(1) == frozenset()

    def test_loop_only(self):
        assert all_loops(3).in_neighbors(2) == {2}

    def test_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            edgeless(2).in_neighbors(3)

    def test_masks_are_built_once_and_shared_with_the_analysis(self):
        d = THIRD_EXAMPLE
        assert d.masks == (0b0011, 0, 0b0001, 0b0010)
        assert d.masks is d.masks
        assert DigraphAnalysis(d).masks is d.masks

    def test_long_path_decodes_in_linear_time(self):
        # each mask of the path i -> i+1 has one bit, high up in a 3000-bit
        # range: about 0.01 s when decoding visits set bits only, near 1 s
        # when it walks every bit position
        n = 3000
        d = Digraph(n, frozenset((i, i + 1) for i in range(1, n)))
        start = time.perf_counter()
        got = [d.in_neighbors(u) for u in d.vertices]
        elapsed = time.perf_counter() - start
        assert got == [frozenset()] + [frozenset({u}) for u in range(1, n)]
        assert elapsed < 0.25


class TestDPowerSet:
    def test_edgeless_everything_is_a_subset(self):
        assert edgeless(2).analysis.d_power_set(1) == {1, 2}

    def test_vertex_out_of_range(self):
        for u in (0, 4):
            with pytest.raises(VertexOutOfRange):
                DigraphAnalysis(edgeless(3)).d_power_set(u)
            with pytest.raises(VertexOutOfRange):
                edgeless(3).analysis.d_power_set(u)

    def test_all_loops_only_self(self):
        assert all_loops(2).analysis.d_power_set(1) == {1}

    def test_single_arrow(self):
        assert Digraph(2, frozenset({(1, 2)})).analysis.d_power_set(2) == {1, 2}

    def test_subset_is_reflexive(self):
        for counter in range(16):
            d = digraph_from_counter(2, counter)
            for u in d.vertices:
                assert d.analysis.predicate("SUS", (u, u))


class TestSemanticPredicates:
    def test_all_loops_ordered_pair(self):
        assert all_loops(2).analysis.predicate("OPA", (1, 1, 1)) is True

    def test_singleton_vertex(self):
        d = Digraph(2, frozenset({(1, 2)}))
        assert d.analysis.predicate("SIN", (2, 1)) is True
        assert d.analysis.predicate("SIN", (1, 1)) is False

    def test_all_loops_vertex_surjects_onto_itself(self):
        assert all_loops(2).analysis.predicate("SUR", (1, 1)) is True

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            edgeless(1).analysis.predicate("SUS", (1, 1, 1))

    def test_arity_mismatch_is_the_parser_error(self):
        with pytest.raises(formulas.ParseError, match="position 1: SUS takes 2 arguments, got 1") as err:
            edgeless(1).analysis.predicate("SUS", (1,))
        assert type(err.value) is formulas.ArityMismatch

    def test_unknown_name(self):
        with pytest.raises(formulas.UnknownPredicate, match="position 1: predicate 'NOPE'"):
            edgeless(1).analysis.predicate("NOPE", (1,))

    def test_out_of_range_vertex(self):
        with pytest.raises(VertexOutOfRange):
            edgeless(1).analysis.predicate("SUS", (1, 2))

    def test_matches_naive_oracle_on_all_two_vertex_digraphs(self):
        for counter in range(16):
            d = digraph_from_counter(2, counter)
            ctx = DigraphAnalysis(d)
            memo = {}
            for name, arity in PREDICATE_ARITIES.items():
                for args in product(d.vertices, repeat=arity):
                    assert ctx.predicate(name, args) == naive_predicate(d, name, args, memo)


class TestResolveOpa:
    def test_all_loops_resolution(self):
        res = all_loops(3).analysis.resolve_opa(2)
        assert (res.first, res.second) == (2, 2)
        assert res.pair_vertex == 2

    def test_edgeless_has_no_pairs(self):
        assert edgeless(2).analysis.resolve_opa(1) is None

    def test_at_most_one_resolution_everywhere_small(self):
        # the table build scans exhaustively and would raise on ambiguity
        for n in (1, 2, 3):
            for counter in range(2 ** (n * n)):
                DigraphAnalysis(digraph_from_counter(n, counter))


class TestExtractSurjection:
    def test_one_vertex_loop(self):
        witness = extract_surjection(all_loops(1), 1, 1)
        assert witness.graph == {(1, 1)}
        assert witness.function_vertex == witness.domain_vertex == 1

    def test_two_vertex_loops(self):
        witness = extract_surjection(all_loops(2), 1, 1)
        assert witness.graph == {(1, 1)}
        assert all_loops(2).analysis.d_power_set(1) == {b for _, b in witness.graph}

    def test_not_a_surjection(self):
        with pytest.raises(NotASurjection):
            extract_surjection(edgeless(1), 1, 1)


class TestIsCantor:
    def test_one_vertex_edgeless(self):
        assert is_cantor(edgeless(1), "semantic") is True
        assert is_cantor(edgeless(1), "phi") is True

    def test_all_loops_two(self):
        assert is_cantor(all_loops(2), "semantic") is False
        assert is_cantor(all_loops(2), "phi") is False
        assert cantor_witness(all_loops(2)) == (1, 1)

    def test_removing_a_loop_restores_the_property(self):
        d = Digraph(2, frozenset({(1, 1)}))
        assert is_cantor(d, "semantic") is True
        assert is_cantor(d, "phi") is True

    def test_witness_is_the_first_surjection_of_the_first_u(self):
        # 7 is the pair (5, 1); vertices 3 and 4 both map N(1) = {5} onto P(1) = {1}
        d = Digraph(7, frozenset({(1, 2), (1, 7), (2, 5), (2, 7), (3, 6), (4, 6), (5, 1),
                                  (5, 2), (7, 3), (7, 4)}))
        assert naive_sur(d, 3, 1) and naive_sur(d, 4, 1)
        assert cantor_witness(d) == (1, 3)

    def test_bad_method_name(self):
        with pytest.raises(ValueError):
            is_cantor(edgeless(1), "magic")

    def test_phi_method_size_guard(self):
        # the sentence's 5-axis tables: 16^5 = 2^20 cells fit MAX_TABLE_CELLS, 17^5 do not
        assert is_cantor(edgeless(16), "phi") is True
        big = edgeless(17)
        with pytest.raises(SizeGuardExceeded, match="over 17 vertices need tables of 17\\^5 cells"):
            is_cantor(big, "phi")
        assert is_cantor(big, "semantic") is True

    @pytest.mark.parametrize("n", [13, 14, 15, 16])
    def test_phi_method_matches_semantic_up_to_16_vertices(self, n):
        # the first three digraphs of each verdict from a seeded stream
        digraphs = list(sparse_digraphs(100, seed=n, sizes=(n, n)))
        for verdict in (True, False):
            chosen = [d for d in digraphs if is_cantor(d, "semantic") is verdict][:3]
            assert len(chosen) == 3
            for d in chosen:
                assert is_cantor(d, "phi") is verdict, d

    def test_matches_naive_oracle_at_n2(self):
        for counter in range(16):
            d = digraph_from_counter(2, counter)
            assert is_cantor(d, "semantic") == naive_is_cantor(d)


def sparse_digraphs(count, seed, sizes=(6, 8)):
    """Seeded digraphs on sizes[0] to sizes[1] vertices with in-degrees 0 to 2.

    On 6 to 8 vertices about half have pair vertices.
    """
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(*sizes)
        degrees = rng.choice(((0, 1, 2), (1, 1, 2)))
        vertices = range(1, n + 1)
        yield Digraph(
            n, frozenset((u, v) for v in vertices for u in rng.sample(vertices, rng.choice(degrees)))
        )


def test_kernel_matches_naive_oracle_beyond_n5():
    with_pairs = non_cantor = 0
    for d in sparse_digraphs(200, seed=678):
        ctx = DigraphAnalysis(d)
        memo = {}
        for u, v, w in product(d.vertices, repeat=3):
            assert ctx.opa(u, v, w) == naive_opa(d, u, v, w, memo), (d, u, v, w)
        # the loop of naive_is_cantor, stopped at the first (u, v), u outer
        first = next(
            ((u, v) for u in d.vertices for v in d.vertices if naive_sur(d, v, u, memo)), None
        )
        assert ctx.cantor_witness() == first, d
        assert ctx.is_cantor() == (first is None)
        with_pairs += any(ctx.resolve_opa(u) for u in d.vertices)
        non_cantor += first is not None
    assert with_pairs >= 80 and non_cantor >= 20, (with_pairs, non_cantor)


def repeated_grounds(k, l):
    """x, z, {x}, {z}; for i = 1..l: y_i = ∅, {x, y_i}, {z, y_i}, the pairs
    (x, y_i) and (z, y_i) and v_i = {both pairs}; then k vertices with N = {x, z}.

    Every v_i is a function from N = {x, z}, so all l are filed under
    the one ground mask that the last k vertices share.
    """
    x, z, sx, sz = 1, 2, 3, 4
    arrows = [(x, sx), (z, sz)]
    n = 4
    for _ in range(l):
        y, dx, dz, px, pz, v = range(n + 1, n + 7)
        arrows += [(x, dx), (y, dx), (z, dz), (y, dz), (sx, px), (dx, px)]
        arrows += [(sz, pz), (dz, pz), (px, v), (pz, v)]
        n += 6
    arrows += [(w, g) for g in range(n + 1, n + k + 1) for w in (x, z)]
    return Digraph(n + k, arrows)


def distinct_grounds(l):
    """y = ∅; for i = 1..l: x_i = ∅, {x_i}, {x_i, y}, the pair (x_i, y) and v_i = {that pair}.

    Each v_i is a function from N({x_i}), so each of the l grounds {x_i}
    has one candidate.
    """
    y = 1
    arrows = []
    n = 1
    for _ in range(l):
        x, sx, d, p, v = range(n + 1, n + 6)
        arrows += [(x, sx), (x, d), (y, d), (sx, p), (d, p), (p, v)]
        n += 5
    return Digraph(n, arrows)


def shared_ground_values(k):
    """x, z, {x}, {z}; k grounds g_i with N = {x, z}; {x, g_1}, {z, g_2}, the pairs
    (x, g_1) and (z, g_2), and f = {both pairs}, a function from N = {x, z}
    whose values are the first two grounds.
    """
    x, z, sx, sz = 1, 2, 3, 4
    g1, g2 = 5, 6
    dx, dz, px, pz, f = range(k + 5, k + 10)
    arrows = [(x, sx), (z, sz), (x, dx), (g1, dx), (z, dz), (g2, dz)]
    arrows += [(sx, px), (dx, px), (sz, pz), (dz, pz), (px, f), (pz, f)]
    arrows += [(w, g) for g in range(5, k + 5) for w in (x, z)]
    return Digraph(k + 9, arrows)


def naive_first_surjection(d):
    """The loop of naive_is_cantor, stopped at the first (u, v), u outer."""
    memo = {}
    return next(((u, v) for u in d.vertices for v in d.vertices if naive_sur(d, v, u, memo)), None)


def counting_power_mask(grounds):
    """analysis.power_mask, appending the ground mask of each call to grounds."""

    def counted(masks, u, _fn=analysis.power_mask):
        grounds.append(masks[u - 1])
        return _fn(masks, u)

    return counted


class TestCantorSearch:
    @pytest.mark.parametrize(
        "d",
        # both families' grounds have N = {x, z}, two bits, so no ground is a singleton
        [repeated_grounds(20, 20), shared_ground_values(20)],
        ids=["repeated", "shared"],
    )
    def test_each_ground_mask_reads_its_power_set_at_most_once(self, monkeypatch, d):
        grounds = []
        monkeypatch.setattr(analysis, "power_mask", counting_power_mask(grounds))
        assert is_cantor(d)
        assert grounds == [], len(grounds)

    @pytest.mark.parametrize(
        "d",
        [repeated_grounds(1, 1), repeated_grounds(2, 1), distinct_grounds(1), distinct_grounds(2), shared_ground_values(2)],
        ids=["repeated-1-1", "repeated-2-1", "distinct-1", "distinct-2", "shared-2"],
    )
    def test_families_match_naive_oracle(self, d):
        assert DigraphAnalysis(d).cantor_witness() == naive_first_surjection(d)

    @hypothesis.seed(20)
    @given(repeated_masks())
    def test_repeated_masks_match_naive_oracle(self, masks):
        grounds = []
        d = Digraph.from_masks(masks)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "power_mask", counting_power_mask(grounds))
            witness = DigraphAnalysis(d).cantor_witness()
        assert witness == naive_first_surjection(d)
        assert grounds == []

    @hypothesis.seed(21)
    @given(small_masks())
    def test_gadget_matches_the_filing_search(self, masks):
        assert find_surjection(masks, unique_vertices(masks)) == filing_surjection(masks)

    def test_witnesses_equal_the_filing_search_up_to_n4(self):
        found = 0
        for n in range(1, 5):
            for counter in range(2 ** (n * n)):
                masks = digraph_from_counter(n, counter).masks
                witness = find_surjection(masks, unique_vertices(masks))
                assert witness == filing_surjection(masks), (n, counter)
                found += witness is not None
        assert found == 1 + 5 + 124 + 12_037

    @pytest.mark.parametrize(
        "d", [repeated_grounds(3, 2), distinct_grounds(3), shared_ground_values(3)],
        ids=["repeated", "distinct", "shared"],
    )
    def test_families_match_the_filing_search(self, d):
        assert cantor_witness(d) == filing_surjection(d.masks)

    def test_a_verdict_on_an_empty_vertex_builds_no_unique_vertex_map(self, monkeypatch):
        d = distinct_grounds(4000)  # y and every x_i are empty
        calls = []
        monkeypatch.setattr(analysis, "unique_vertices", lambda masks: calls.append(masks))
        assert is_cantor(d) and cantor_witness(d) is None
        assert calls == []

    @hypothesis.seed(22)
    @given(small_masks(max_n=5), st.integers(0, 5))
    def test_an_empty_vertex_makes_the_digraph_cantor(self, masks, at):
        at %= len(masks) + 1
        d = Digraph.from_masks(masks[:at] + (0,) + masks[at:])
        assert is_cantor(d) and naive_is_cantor(d)

    @hypothesis.seed(23)
    @given(strongly_extensive_masks(max_n=6))
    def test_strongly_extensive_is_cantor(self, masks):
        d = Digraph.from_masks(masks)
        assert is_strongly_extensive(d) and naive_is_strongly_extensive(d)
        assert is_cantor(d) and naive_is_cantor(d)


class Mask(int):
    """An int mask that counts the hashes of each mask value."""

    hashes: dict[int, int] = {}

    def __hash__(self):
        Mask.hashes[int(self)] = Mask.hashes.get(int(self), 0) + 1
        return int.__hash__(self)


class TestUniqueVertices:
    @hypothesis.seed(24)
    @given(repeated_masks())
    def test_maps_each_unrepeated_mask_to_its_vertex_in_order(self, masks):
        want = {m: v for v, m in enumerate(masks, 1) if masks.count(m) == 1}
        assert list(unique_vertices(masks).items()) == list(want.items())

    @hypothesis.seed(25)
    @given(repeated_masks())
    def test_hashes_a_mask_at_most_twice_per_vertex_that_has_it(self, masks):
        Mask.hashes = {}
        unique_vertices([Mask(m) for m in masks])
        for m, hashes in Mask.hashes.items():
            assert hashes <= 2 * masks.count(m) - 1, (m, hashes)


class TestOneAnalysisPerDigraph:
    def test_the_analysis_is_cached(self):
        d = THIRD_EXAMPLE
        assert d.analysis is d.analysis
        assert d.analysis.masks is d.masks

    @pytest.mark.parametrize("d", [all_loops(2), THIRD_EXAMPLE], ids=["non-cantor", "cantor"])
    def test_the_calls_share_one_pair_table_and_one_scan(self, kernel_calls, d):
        d = Digraph.from_masks(d.masks)  # a copy with nothing cached yet
        value = is_cantor(d)
        witness = cantor_witness(d)
        assert (witness is None) == value
        assert kernel_calls == {"pair_table": 0, "find_surjection": 1}
        if witness is not None:
            for _ in range(2):
                extract_surjection(d, witness[1], witness[0])
        assert is_cantor(d) == value and cantor_witness(d) == witness
        assert kernel_calls == {"pair_table": int(not value), "find_surjection": 1}

    @pytest.mark.parametrize("make", [lambda: all_loops(2), lambda: omega_prefix(4)], ids=["loops", "omega4"])
    def test_a_dropped_digraph_is_freed_without_the_collector(self, make):
        gc.disable()
        try:
            d = make()
            witness = cantor_witness(d)
            if is_cantor(d) is False:
                extract_surjection(d, witness[1], witness[0])
            ref = weakref.ref(d)
            del d
            assert ref() is None
        finally:
            gc.enable()


class TestStronglyExtensive:
    def test_one_vertex_edgeless(self):
        assert is_strongly_extensive(edgeless(1)) is True

    def test_third_example(self):
        assert is_strongly_extensive(THIRD_EXAMPLE) is True

    def test_second_example(self):
        assert is_strongly_extensive(Digraph(2, frozenset({(1, 1)}))) is True

    def test_single_loop_misses_the_empty_set(self):
        assert is_strongly_extensive(all_loops(1)) is False

    def test_matches_naive_oracle_at_n2(self):
        # every digraph on at most 3 vertices, then the first construction prefixes
        digraphs = [digraph_from_counter(n, c) for n in (1, 2, 3) for c in range(2 ** (n * n))]
        digraphs += [omega_prefix(k) for k in (1, 2, 3)]
        for d in digraphs:
            assert is_strongly_extensive(d) == naive_is_strongly_extensive(d), d

    def test_full_power_set_is_checked_in_linear_time(self):
        # 15 * 2^14 one-bit removals; enumerating every submask takes 3^15 steps
        masks = tuple(range(1 << 15))
        start = time.perf_counter()
        assert masks_strongly_extensive(masks) is True
        assert time.perf_counter() - start < 0.5
        assert masks_strongly_extensive(masks[:0xFF] + (0,) + masks[0x100:]) is False

    def test_in_degree_guard(self):
        n = 22
        star = Digraph(n, frozenset((i, n) for i in range(1, n)))
        assert is_strongly_extensive(star) is False


class TestDumpDigraph:
    def test_matches_naive_oracle(self):
        rng = random.Random(2059)
        digraphs = [omega_prefix(k) for k in range(1, 5)]
        for n in range(1, 13):
            digraphs += [edgeless(n), all_loops(n)]
            for _ in range(10):
                density = rng.random()
                vertices = range(1, n + 1)
                arrows = frozenset((u, v) for u in vertices for v in vertices if rng.random() < density)
                digraphs.append(Digraph(n, arrows))
        for d in digraphs:
            assert dump_digraph(d) == naive_dump_digraph(d)


class TestOmegaPrefix:
    def test_two_levels(self):
        d = omega_prefix(2)
        assert d.n == 3
        assert d.arrows == {(1, 3)}
        assert d.in_neighbors(2) == frozenset()
        assert d.in_neighbors(3) == {1}

    def test_three_levels_reach_vertex_11(self):
        assert omega_level_ranges(3) == ((1, 1), (2, 3), (4, 11))
        assert omega_prefix(3).n == 11

    def test_every_subset_of_a_level_prefix_is_realized(self):
        d = omega_prefix(3)
        realized = {d.in_neighbors(u) for u in d.vertices}
        for prefix_top in (1, 3):
            members = list(range(1, prefix_top + 1))
            for mask in range(2 ** len(members)):
                subset = frozenset(m for i, m in enumerate(members) if mask >> i & 1)
                assert subset in realized

    def test_guard(self):
        with pytest.raises(SizeGuardExceeded):
            omega_prefix(5)
        with pytest.raises(SizeGuardExceeded):
            omega_prefix(0)

    def test_closed_form_matches_the_subset_loop(self):
        for k in range(1, 5):
            assert omega_prefix(k) == naive_omega_prefix(k)

    def test_level_four_dump_is_frozen(self):
        text = dump_digraph(omega_prefix(4))
        assert text.count("\n") == 11278
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "72f7cd5b0cd25111016af676fcf9e5f207f112475c9b6d11bb8d20a3f94d758e"
        )

    def test_enumeration_order_is_binary_counter(self):
        d = omega_prefix(3)
        # level 3 vertices 4..11 enumerate the subsets of {1, 2, 3} in counter order
        expected = [
            frozenset(),
            frozenset({1}),
            frozenset({2}),
            frozenset({1, 2}),
            frozenset({3}),
            frozenset({1, 3}),
            frozenset({2, 3}),
            frozenset({1, 2, 3}),
        ]
        assert [d.in_neighbors(u) for u in range(4, 12)] == expected
