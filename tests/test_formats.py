import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramseykit.errors import FormatError, Graph6Error, InputError
from ramseykit.formats import (
    graph6_decode,
    graph6_encode,
    read_edge_list,
    read_graph,
    read_graphs,
    read_hypergraph,
    write_edge_list,
    write_hypergraph,
)
from ramseykit.graphs import Graph, Hypergraph
from ramseykit.patterns import Colour, EdgeColouring, read_colouring, write_colouring


class TestGraph6Vectors:
    def test_k2(self):
        assert graph6_encode(Graph.complete(2)) == "A_"
        assert graph6_decode("A_").edges() == [(0, 1)]

    def test_k3(self):
        assert graph6_encode(Graph.complete(3)) == "Bw"
        assert graph6_decode("Bw").edges() == [(0, 1), (0, 2), (1, 2)]

    def test_single_vertex(self):
        assert graph6_encode(Graph.empty(1)) == "@"
        g = graph6_decode("@")
        assert g.n == 1 and g.num_edges == 0

    def test_header_prefix_accepted(self):
        assert graph6_decode(">>graph6<<A_").edges() == [(0, 1)]


class TestGraph6RoundTrip:
    def test_all_graphs_up_to_five_vertices(self):
        for n in range(6):
            pairs = list(combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                g = Graph.from_edges(
                    n, [e for i, e in enumerate(pairs) if (mask >> i) & 1]
                )
                assert graph6_decode(graph6_encode(g)) == g

    def test_dense_graph_on_300_vertices(self):
        rng = random.Random(300)
        g = Graph.from_edges(300, [e for e in combinations(range(300), 2) if rng.random() < 0.9])
        text = graph6_encode(g)
        assert text[:4] == "~?Ck"  # 300 = 4 * 64 + 44 in the 18-bit size field
        assert graph6_decode(text) == g

    def test_random_six_and_seven_vertices(self):
        rng = random.Random(11)
        for n in (6, 7):
            for _ in range(200):
                pairs = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
                g = Graph.from_edges(n, pairs)
                assert graph6_decode(graph6_encode(g)) == g

    def test_large_size_field(self):
        g = Graph.from_edges(70, [(0, 69), (3, 42)])
        assert graph6_decode(graph6_encode(g)) == g

    @settings(max_examples=60)
    @given(st.integers(0, 8), st.integers(0, 2**28 - 1))
    def test_round_trip_property(self, n, seed):
        rng = random.Random(seed)
        pairs = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        g = Graph.from_edges(n, pairs)
        assert graph6_decode(graph6_encode(g)) == g


class TestBits:
    """``Graph.bits`` is the graph6 payload, and ``Graph.from_bits`` its
    inverse."""

    @staticmethod
    def labelled_graphs(n_max):
        for n in range(n_max + 1):
            pairs = list(combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                yield Graph.from_edges(n, [e for i, e in enumerate(pairs) if (mask >> i) & 1])

    def test_bits_are_the_graph6_payload(self):
        rng = random.Random(29)
        graphs = list(self.labelled_graphs(5))
        for n in (8, 13, 70):
            graphs.append(Graph.from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < 0.5]))
        for g in graphs:
            text = graph6_encode(g)
            body = text[1:] if g.n <= 62 else text[4:]
            nbits = g.n * (g.n - 1) // 2
            payload = "".join(format(ord(c) - 63, "06b") for c in body)[:nbits]
            assert int(payload or "0", 2) == g.bits(), text

    def test_from_bits_inverts_bits(self):
        for g in self.labelled_graphs(5):
            assert Graph.from_bits(g.n, g.bits()) == g

    def test_first_pair_is_the_most_significant_bit(self):
        # pairs in order (0,1), (0,2), (1,2), (0,3), ...
        assert Graph.from_edges(4, [(0, 1)]).bits() == 1 << 5
        assert Graph.from_edges(4, [(2, 3)]).bits() == 1
        assert Graph.from_edges(4, [(0, 2)]).bits() == 1 << 4


class TestGraph6Errors:
    def test_empty(self):
        with pytest.raises(Graph6Error):
            graph6_decode("")

    def test_invalid_byte_offset(self):
        with pytest.raises(Graph6Error) as err:
            graph6_decode("B!")
        assert err.value.offset == 1

    def test_truncated(self):
        with pytest.raises(Graph6Error) as err:
            graph6_decode("D")  # n=5 needs payload bytes
        assert err.value.offset == 1

    def test_trailing_garbage(self):
        with pytest.raises(Graph6Error) as err:
            graph6_decode("A_X")
        assert err.value.offset == 2

    def test_nonzero_padding(self):
        # K2 payload with a padding bit set: 64+32 -> chr(63+48) wrong padding
        bad = "A" + chr(63 + 0b110000)
        with pytest.raises(Graph6Error):
            graph6_decode(bad)


class TestEdgeList:
    def test_round_trip(self):
        g = Graph.from_edges(5, [(0, 1), (1, 4), (2, 3)])
        assert read_edge_list(write_edge_list(g)) == g

    def test_header_required(self):
        with pytest.raises(FormatError):
            read_edge_list("0 1\n")

    def test_bad_line(self):
        with pytest.raises(FormatError):
            read_edge_list("n 3\n0 1 2\n")


class TestGraphFiles:
    def test_graph6_lines(self, tmp_path):
        path = tmp_path / "gs.g6"
        gs = [Graph.complete(3), Graph.cycle(5), Graph.empty(1)]
        path.write_text("\n" + "\n\n".join(graph6_encode(g) for g in gs) + "\n")
        assert list(read_graphs(str(path))) == gs
        assert read_graph(str(path)) == gs[0]

    def test_edge_list(self, tmp_path):
        path = tmp_path / "g.txt"
        g = Graph.from_edges(5, [(0, 1), (1, 4), (2, 3)])
        path.write_text("\n" + write_edge_list(g))
        assert list(read_graphs(str(path))) == [g]

    def test_first_line_decides(self, tmp_path):
        # a later "n ..." line in a graph6 file is a bad graph6 line
        path = tmp_path / "mixed.g6"
        path.write_text("A_\nn 2\n0 1\n")
        lines = read_graphs(str(path))
        assert next(lines) == Graph.complete(2)
        with pytest.raises(Graph6Error):
            next(lines)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.g6"
        path.write_text("\n\n")
        assert list(read_graphs(str(path))) == []
        with pytest.raises(InputError, match="no graph"):
            read_graph(str(path))


class TestHypergraphFormat:
    def test_round_trip(self):
        h = Hypergraph.from_edges(6, 3, [(0, 1, 2), (1, 2, 3), (3, 4, 5)])
        assert read_hypergraph(write_hypergraph(h)) == h

    def test_header_checked(self):
        with pytest.raises(FormatError):
            read_hypergraph("6 3\n0 1 2\n")

    def test_edge_count_checked(self):
        with pytest.raises(FormatError):
            read_hypergraph("6 3 2\n0 1 2\n")


class TestColouringFormat:
    def test_round_trip(self):
        g = Graph.complete(4)
        rng = random.Random(2)
        colours = tuple(
            Colour.RED if rng.random() < 0.5 else Colour.BLUE
            for _ in range(g.num_edges)
        )
        chi = EdgeColouring(g, colours)
        again = read_colouring(write_colouring(chi))
        assert again == chi

    def test_header_required(self):
        with pytest.raises(FormatError):
            read_colouring("0 1 r\n")

    def test_non_integer_vertex_rejected(self):
        with pytest.raises(FormatError):
            read_colouring("n 3\nx 1 r\n")

    def test_edge_listed_twice_rejected(self):
        with pytest.raises(FormatError):
            read_colouring("n 2\n0 1 r\n1 0 b\n")


@pytest.mark.parametrize(
    "reader, text, message",
    [
        (read_edge_list, "0 1\n", "edge list must start with a 'n <count>' header"),
        (read_edge_list, "n x\n", "bad header line: 'n x'"),
        (read_edge_list, "n\t3\n0 1\n", "edge list must start with a 'n <count>' header"),
        (read_edge_list, "n 3\n0 1 2\n", "bad edge line: '0 1 2'"),
        (read_edge_list, "n 3\n0 b\n", "bad edge line: '0 b'"),
        (read_colouring, "", "colouring must start with a 'n <count>' header"),
        (read_colouring, "n \n", "bad header line: 'n '"),
        (read_colouring, "n 3\n0 1\n", "bad colouring line: '0 1'"),
        (read_colouring, "n 3\nx 1 r\n", "bad colouring line: 'x 1 r'"),
        (read_colouring, "n 2\n0 1 r\n1 0 b\n", "edge (0, 1) is coloured twice"),
    ],
)
def test_plain_format_errors(reader, text, message):
    """The edge-list and colouring readers share one header and line parser;
    each keeps its own wording."""
    with pytest.raises(FormatError) as err:
        reader(text)
    assert str(err.value) == message
