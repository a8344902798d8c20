"""The digraph type, its file reader and its writer."""
import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zfcantor import digraphs
from zfcantor.digraphs import (
    MAX_VERTICES,
    BadHeader,
    Digraph,
    DigraphError,
    DuplicateArrowWarning,
    SizeGuardExceeded,
    VertexOutOfRange,
    dump_digraph,
    load_digraph,
    transpose,
)


def load_error(text: str) -> Exception:
    with pytest.raises(Exception) as info:
        load_digraph(text)
    return info.value


class TestLoaderErrors:
    """Each reader error, with its exact class, message and line number."""

    @pytest.mark.parametrize("text", ["", "\n\n", "# only a comment\n  \n"])
    def test_missing_header(self, text):
        err = load_error(text)
        assert type(err) is BadHeader
        assert str(err) == "missing `vertices <n>` header"

    def test_bad_header(self):
        err = load_error("# a digraph\n\nvertex 3  # typo\n1 2\n")
        assert type(err) is BadHeader
        assert str(err) == "line 3: expected `vertices <n>`, got 'vertex 3'"

    def test_header_with_an_extra_field(self):
        err = load_error("vertices 3 4\n")
        assert type(err) is BadHeader
        assert str(err) == "line 1: expected `vertices <n>`, got 'vertices 3 4'"

    def test_non_integer_count(self):
        err = load_error("\nvertices three\n")
        assert type(err) is BadHeader
        assert str(err) == "line 2: vertex count 'three' is not an integer"

    @pytest.mark.parametrize("n", [0, -4])
    def test_count_below_one(self, n):
        err = load_error(f"vertices {n}\n")
        assert type(err) is BadHeader
        assert str(err) == "line 1: need at least one vertex"

    def test_count_above_the_bound(self):
        err = load_error(f"#\nvertices {MAX_VERTICES + 1}\n")
        assert type(err) is SizeGuardExceeded
        assert str(err) == f"line 2: {MAX_VERTICES + 1} vertices exceed {MAX_VERTICES}"

    def test_three_fields(self):
        err = load_error("vertices 3\n1 2\n  1 2 3  # comment\n")
        assert type(err) is DigraphError
        assert str(err) == "line 3: expected `<u> <v>`, got '1 2 3'"

    def test_one_field(self):
        err = load_error("vertices 3\n\n7\n")
        assert type(err) is DigraphError
        assert str(err) == "line 3: expected `<u> <v>`, got '7'"

    @pytest.mark.parametrize("arrow", ["1 x", "a 2", "1.0 2"])
    def test_non_integer_endpoint(self, arrow):
        err = load_error(f"vertices 3\n1 2\n{arrow}\n")
        assert type(err) is DigraphError
        assert str(err) == "line 3: arrow endpoints must be integers"

    @pytest.mark.parametrize("arrow", ["0 1", "1 0", "3 1", "1 3", "-1 2"])
    def test_out_of_range_arrow(self, arrow):
        u, v = arrow.split()
        err = load_error(f"vertices 2\n# c\n{arrow}\n")
        assert type(err) is VertexOutOfRange
        assert str(err) == f"line 3: arrow ({u}, {v}) leaves [1, 2]"

    def test_first_error_wins(self):
        err = load_error("vertices 2\n1 3\n1 2 3\n")
        assert str(err) == "line 2: arrow (1, 3) leaves [1, 2]"


class TestLoaderInput:
    def test_duplicate_arrow_warns_with_its_line(self):
        with pytest.warns(DuplicateArrowWarning) as record:
            d = load_digraph("vertices 2\n1 2\n2 2\n\n1 2  # again\n")
        assert [str(w.message) for w in record] == ["line 5: duplicate arrow (1, 2)"]
        assert d == Digraph(2, {(1, 2), (2, 2)})

    def test_every_duplicate_warns(self):
        with pytest.warns(DuplicateArrowWarning) as record:
            load_digraph("vertices 1\n1 1\n1 1\n1 1\n")
        assert [str(w.message) for w in record] == [
            "line 3: duplicate arrow (1, 1)",
            "line 4: duplicate arrow (1, 1)",
        ]

    def test_distinct_arrows_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert load_digraph("vertices 2\n1 2\n2 1\n").arrows == {(1, 2), (2, 1)}

    def test_comments_and_blank_lines(self):
        text = "# header comment\n\n  vertices 3 # three\n#1 2\n\n 1   3 \t\n2 3#tail\n   \n"
        assert load_digraph(text) == Digraph(3, {(1, 3), (2, 3)})

    def test_crlf(self):
        text = "vertices 3\r\n1 2\r\n# c\r\n\r\n3 3\r\n"
        assert load_digraph(text) == Digraph(3, {(1, 2), (3, 3)})
        err = load_error("vertices 3\r\n\r\n1 4\r\n")
        assert str(err) == "line 3: arrow (1, 4) leaves [1, 3]"

    def test_header_only(self):
        d = load_digraph("vertices 4")
        assert (d.n, d.arrows, d.masks) == (4, frozenset(), (0, 0, 0, 0))


class TestMaskBitBound:
    """With 16 mask bits, 8 vertices admit tails up to 2 and 4 vertices any tail."""

    @pytest.fixture(autouse=True)
    def sixteen_bits(self, monkeypatch):
        monkeypatch.setattr(digraphs, "MAX_MASK_BITS", 16)

    def test_loader_admits_tails_up_to_the_cap(self):
        d = load_digraph("vertices 8\n2 8\n1 1\n")
        assert d.masks == (1, 0, 0, 0, 0, 0, 0, 0b10)

    def test_loader_refuses_the_first_tail_past_the_cap(self):
        err = load_error("vertices 8\n2 8\n# c\n3 1\n9 1\n")
        assert type(err) is SizeGuardExceeded
        assert str(err) == "line 4: tail 3 exceeds 2, the most that keeps the masks of 8 vertices within 16 bits"

    def test_loader_range_errors_stay_range_errors(self):
        err = load_error("vertices 8\n9 1\n3 1\n")
        assert type(err) is VertexOutOfRange
        assert str(err) == "line 2: arrow (9, 1) leaves [1, 8]"

    def test_no_cap_while_n_squared_fits(self):
        d = load_digraph("vertices 4\n4 4\n")
        assert Digraph(4, [(4, 4)]) == d and d.masks == (0, 0, 0, 0b1000)

    def test_constructor_refuses_a_tail_past_the_cap(self):
        assert Digraph(8, [(2, 8)]).masks[7] == 0b10
        with pytest.raises(SizeGuardExceeded) as info:
            Digraph(8, [(2, 8), (3, 1)])
        assert str(info.value) == "tail 3 exceeds 2, the most that keeps the masks of 8 vertices within 16 bits"
        with pytest.raises(VertexOutOfRange, match=r"^arrow \(3, 9\) leaves the vertex range \[1, 8\]$"):
            Digraph(8, [(3, 9)])


class TestDigraph:
    def test_masks_and_arrows(self):
        d = Digraph(3, [(1, 2), (3, 2), (2, 3)])
        assert d.masks == (0, 0b101, 0b010)
        assert d.arrows == {(1, 2), (3, 2), (2, 3)}
        assert isinstance(d.arrows, frozenset)
        assert d.arrows is d.arrows

    def test_constructor_errors(self):
        with pytest.raises(DigraphError, match=r"^need at least one vertex, got n=0$"):
            Digraph(0, frozenset())
        with pytest.raises(VertexOutOfRange, match=r"^arrow \(1, 3\) leaves the vertex range \[1, 2\]$"):
            Digraph(2, frozenset({(1, 3)}))
        with pytest.raises(VertexOutOfRange, match=r"^arrow \(0, 1\) leaves the vertex range \[1, 2\]$"):
            Digraph(2, [(1, 1), (0, 1)])

    def test_vertex_bound(self):
        with pytest.raises(SizeGuardExceeded, match=rf"^{MAX_VERTICES + 1} vertices exceed {MAX_VERTICES}$"):
            Digraph(MAX_VERTICES + 1, ())

    def test_from_masks(self):
        d = Digraph.from_masks([0, 1, 0b11])
        assert d == Digraph(3, {(1, 2), (1, 3), (2, 3)})
        assert d.masks == (0, 1, 3) and d.n == 3

    def test_from_masks_rejects_bits_outside_the_vertices(self):
        with pytest.raises(VertexOutOfRange, match=r"^mask -1 of vertex 2 is not a subset of \[1, 2\]$"):
            Digraph.from_masks([0, -1])
        with pytest.raises(VertexOutOfRange, match=r"^mask 4 of vertex 1 is not a subset of \[1, 2\]$"):
            Digraph.from_masks([4, 0])
        with pytest.raises(DigraphError, match=r"^need at least one vertex, got n=0$"):
            Digraph.from_masks([])

    def test_immutable(self):
        d = Digraph(2, {(1, 2)})
        with pytest.raises(AttributeError):
            d.n = 3
        with pytest.raises(AttributeError):
            d.masks = (0, 0)
        with pytest.raises(AttributeError):
            del d.n

    def test_equality_and_hash(self):
        a = Digraph(2, {(1, 2)})
        assert a == Digraph.from_masks((0, 1))
        assert len({a, Digraph.from_masks((0, 1)), Digraph(2, ())}) == 2
        assert a != Digraph(3, {(1, 2)})
        assert a != (2, (0, 1))

    def test_repr_shows_the_masks(self):
        assert repr(Digraph(3, {(1, 2), (3, 3)})) == "Digraph(n=3, masks=(0, 1, 4))"


def arrow_sets(max_n: int = 9):
    def build(n):
        pairs = st.tuples(st.integers(1, n), st.integers(1, n))
        return st.tuples(st.just(n), st.frozensets(pairs, max_size=n * n))

    return st.integers(1, max_n).flatmap(build)


@given(arrow_sets())
def test_round_trips(spec):
    n, arrows = spec
    d = Digraph(n, arrows)
    assert d.arrows == arrows
    for other in (load_digraph(dump_digraph(d)), Digraph.from_masks(d.masks), Digraph(n, sorted(arrows))):
        assert other == d and hash(other) == hash(d)
        assert other.arrows == arrows
    assert dump_digraph(d) == f"vertices {n}\n" + "".join(f"{u} {v}\n" for u, v in sorted(arrows))
    out = transpose(d.masks)
    assert {(u, v) for u in d.vertices for v in d.vertices if out[u - 1] >> (v - 1) & 1} == arrows
    assert transpose(out) == list(d.masks)
