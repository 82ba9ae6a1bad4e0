import gc
import math
import random
from itertools import combinations

import pytest

from ramseykit import cli
from ramseykit.errors import InputError
from ramseykit.graphs import (
    Graph,
    Hypergraph,
    bits,
    clique_number,
    cliques,
    colourable,
    components,
    hyper_alpha,
    has_clique,
    hyper_girth,
    independence_number,
    induced_subgraph,
    mask_of,
)

from ramseykit.arrowing import arrows, find_pattern
from ramseykit.cnf import solve_cnf, to_cnf
from ramseykit.formats import graph6_decode
from ramseykit.minimal import degree_survey, distinguish, enumerate_graphs, is_minimal
from ramseykit.patterns import Arbitrary, Clique, CliquePendant, CliquePlusCliques
from ramseykit.symmetry import canonical_key, generators

from oracles import bfs_girth, brute_chromatic_number, brute_clique_number, brute_independence_number

FANO = Hypergraph.from_edges(
    7, 3, [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]
)


def random_graph(n, p, rng):
    return Graph.from_edges(
        n, [e for e in combinations(range(n), 2) if rng.random() < p]
    )


class TestGraphInvariants:
    def test_rejects_self_loop(self):
        with pytest.raises(InputError):
            Graph.from_edges(2, [(0, 0)])

    def test_rejects_asymmetric_adjacency(self):
        with pytest.raises(InputError):
            Graph(2, (2, 0))

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            Graph.from_edges(2, [(0, 5)])

    def test_edge_index_matches_the_edge_list(self):
        # every labelled graph on at most 5 vertices
        for n in range(6):
            pairs = list(combinations(range(n), 2))
            for chosen in range(1 << len(pairs)):
                g = Graph.from_edges(n, [e for i, e in enumerate(pairs) if chosen >> i & 1])
                edges = g.edges()
                for i, (u, v) in enumerate(edges):
                    assert g.edge_index(u, v) == g.edge_index(v, u) == i

    @pytest.mark.parametrize("pair", [(0, 2), (1, 1), (0, 3), (3, 4), (-1, 0)])
    def test_edge_index_rejects_a_non_edge(self, pair):
        with pytest.raises(InputError):
            Graph.path(3).edge_index(*pair)

    def test_edges_sorted(self):
        g = Graph.from_edges(4, [(3, 1), (2, 0), (1, 0)])
        assert g.edges() == [(0, 1), (0, 2), (1, 3)]


class TestCliqueNumber:
    def test_complete(self):
        assert clique_number(Graph.complete(5)) == 5

    def test_cycle(self):
        assert clique_number(Graph.cycle(5)) == 2

    def test_petersen(self):
        # expected value computed by exhaustive subset enumeration
        assert brute_clique_number(Graph.petersen()) == 2
        assert clique_number(Graph.petersen()) == 2

    def test_empty_vertex_graph(self):
        assert clique_number(Graph.empty(0)) == 0

    def test_design_scale(self):
        assert clique_number(Graph.complete(40)) == 40
        assert clique_number(Graph.cycle(64)) == 2
        assert independence_number(Graph.cycle(64)) == 32
        assert independence_number(Graph.cycle(63)) == 31
        rng = random.Random(97)
        g = random_graph(24, 0.5, rng)
        assert clique_number(g) == independence_number(g.complement())


class TestCliqueKernels:
    def test_match_subset_enumeration(self):
        """``has_clique`` and ``cliques`` on every graph with at most 6
        vertices, every mask and every size up to one past the mask."""
        for g in enumerate_graphs(6):
            is_clique = [all((g.adj[v] | (1 << v)) & sub == sub for v in bits(sub)) for sub in range(1 << g.n)]
            for mask in range(1 << g.n):
                subs = [sub for sub in range(1 << g.n) if sub & mask == sub and is_clique[sub]]
                for size in range(mask.bit_count() + 2):
                    expected = sorted(tuple(bits(sub)) for sub in subs if sub.bit_count() == size)
                    assert has_clique(g.adj, mask, size) is bool(expected), (g.edges(), mask, size)
                    assert list(cliques(g.adj, mask, size)) == expected, (g.edges(), mask, size)


def chromatic_number(g: Graph) -> int:
    c = 0
    while not colourable(g, c):
        c += 1
    return c


def grotzsch() -> Graph:
    """The Mycielskian of C5: 11 vertices, triangle-free, chromatic number 4."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, (i + d) % 5) for i in range(5) for d in (1, 4)]
    edges += [(5 + i, 10) for i in range(5)]
    return Graph.from_edges(11, edges)


class TestColourable:
    def test_matches_brute_force(self):
        for g in enumerate_graphs(6):
            chi = brute_chromatic_number(g)
            for c in range(g.n + 1):
                assert colourable(g, c) == (chi <= c), (g.edges(), c)

    def test_named_graphs(self):
        assert chromatic_number(Graph.cycle(5)) == 3
        assert chromatic_number(Graph.petersen()) == 3
        assert [chromatic_number(Graph.complete(n)) for n in range(9)] == list(range(9))
        g = grotzsch()
        assert clique_number(g) == 2
        assert chromatic_number(g) == 4

    def test_small_cases(self):
        assert colourable(Graph.empty(0), 0)
        assert not colourable(Graph.empty(1), 0)
        assert colourable(Graph.empty(5), 1)
        assert not colourable(Graph.empty(0), -1)


class TestIndependenceNumber:
    def test_cycle(self):
        assert brute_independence_number(Graph.cycle(5)) == 2
        assert independence_number(Graph.cycle(5)) == 2

    def test_petersen(self):
        assert brute_independence_number(Graph.petersen()) == 4
        assert independence_number(Graph.petersen()) == 4

    def test_edgeless(self):
        assert independence_number(Graph.empty(7)) == 7

    def test_complement_duality(self):
        rng = random.Random(7)
        for _ in range(40):
            g = random_graph(rng.randint(1, 8), rng.random(), rng)
            assert clique_number(g) == independence_number(g.complement())
            assert clique_number(g) == brute_clique_number(g)


class TestInducedSubgraph:
    def test_triangle_from_k4(self):
        sub = induced_subgraph(Graph.complete(4), {0, 1, 2})
        assert sub.n == 3 and sub.num_edges == 3

    def test_nonadjacent_pair(self):
        sub = induced_subgraph(Graph.cycle(5), {0, 2})
        assert sub.n == 2 and sub.num_edges == 0

    def test_petersen_outer_cycle(self):
        sub = induced_subgraph(Graph.petersen(), range(5))
        assert sub.edges() == Graph.cycle(5).edges()

    def test_out_of_range(self):
        with pytest.raises(InputError):
            induced_subgraph(Graph.complete(3), {0, 5})

    def test_clique_monotone(self):
        rng = random.Random(13)
        for _ in range(30):
            g = random_graph(8, rng.random(), rng)
            s = [v for v in range(8) if rng.random() < 0.6]
            assert clique_number(induced_subgraph(g, s)) <= clique_number(g)


class TestComponents:
    def test_path_plus_edge(self):
        g = Graph.disjoint_union([Graph.path(3), Graph.complete(2)])
        assert components(g) == [0b00111, 0b11000]

    def test_small_cases(self):
        assert components(Graph.empty(0)) == []
        assert components(Graph.empty(3)) == [0b001, 0b010, 0b100]
        assert components(Graph.petersen()) == [(1 << 10) - 1]

    def test_partition_closed_under_adjacency(self):
        rng = random.Random(29)
        for _ in range(30):
            g = random_graph(9, rng.random() * 0.4, rng)
            comps = components(g)
            assert sum(c.bit_count() for c in comps) == g.n
            assert mask_of(v for c in comps for v in bits(c)) == (1 << g.n) - 1
            for c in comps:
                assert all(g.adj[v] & ~c == 0 for v in bits(c))
            assert [min(bits(c)) for c in comps] == sorted(min(bits(c)) for c in comps)

    def test_mask_of_inverts_bits(self):
        assert mask_of([]) == 0
        assert mask_of([0, 3, 5]) == 0b101001
        assert list(bits(mask_of([7, 2, 4]))) == [2, 4, 7]


class TestHyperGirth:
    def test_two_edges_sharing_two_vertices(self):
        h = Hypergraph.from_edges(5, 3, [(0, 1, 2), (0, 1, 3)])
        assert hyper_girth(h) == 2

    def test_fano_plane(self):
        # lines pairwise meet in one point, three lines close a circuit
        assert hyper_girth(FANO) == 3

    def test_disjoint_edges(self):
        h = Hypergraph.from_edges(6, 3, [(0, 1, 2), (3, 4, 5)])
        assert hyper_girth(h) == math.inf

    def test_matches_graph_girth_when_two_uniform(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(3, 12)
            g = random_graph(n, rng.uniform(0.15, 0.6), rng)
            if g.num_edges == 0:
                continue
            h = Hypergraph.from_edges(n, 2, g.edges())
            assert hyper_girth(h) == bfs_girth(g)

    def test_matches_literal_circuit_enumeration(self):
        # brute force the definition: alternating distinct edges and distinct
        # vertices, each vertex shared by its two neighbouring edges
        from itertools import permutations, product

        def brute_girth(h):
            m = len(h.edges)
            for s in range(2, m + 1):
                for edge_seq in permutations(range(m), s):
                    sets = [set(h.edges[i]) for i in edge_seq]
                    choices = [
                        sets[i] & sets[(i + 1) % s] for i in range(s)
                    ]
                    if any(not c for c in choices):
                        continue
                    for verts in product(*choices):
                        if len(set(verts)) == s:
                            return s
            return math.inf

        rng = random.Random(17)
        for _ in range(25):
            n = rng.randint(3, 7)
            edges = {
                tuple(sorted(rng.sample(range(n), 3)))
                for _ in range(rng.randint(1, 5))
            }
            h = Hypergraph.from_edges(n, 3, edges)
            assert hyper_girth(h) == brute_girth(h)

    def test_girth_three_means_linear(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(4, 10)
            edges = {
                tuple(sorted(rng.sample(range(n), 3)))
                for _ in range(rng.randint(1, 8))
            }
            h = Hypergraph.from_edges(n, 3, edges)
            if hyper_girth(h) >= 3:
                for e1, e2 in combinations(h.edges, 2):
                    assert len(set(e1) & set(e2)) <= 1


class TestHyperAlpha:
    def test_single_edge(self):
        h = Hypergraph.from_edges(3, 3, [(0, 1, 2)])
        assert hyper_alpha(h) == 2

    def test_no_edges(self):
        assert hyper_alpha(Hypergraph.from_edges(6, 3, [])) == 6

    def test_fano_plane(self):
        # exhaustive oracle: the largest line-free point set has 4 points
        best = 0
        for size in range(7, 0, -1):
            for sub in combinations(range(7), size):
                s = set(sub)
                if not any(set(e) <= s for e in FANO.edges):
                    best = size
                    break
            if best:
                break
        assert best == 4
        assert hyper_alpha(FANO) == 4


class TestNoCyclicGarbage:
    """The recursive searches are plain functions that take their state as
    arguments, so a call leaves no reference cycle behind, and memory does
    not wait for the cycle collector."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: canonical_key(Graph.petersen()),
            lambda: generators(Graph.petersen()),
            lambda: colourable(Graph.petersen(), 3),
            lambda: clique_number(Graph.petersen()),
            lambda: hyper_alpha(FANO),
            lambda: find_pattern(Graph.petersen(), Arbitrary(Graph.cycle(5))),
            lambda: arrows(Graph.complete(6), Clique(3), Clique(3)),
            lambda: solve_cnf(to_cnf(Graph.complete(6), Clique(3), Clique(3))),
            lambda: arrows(Graph.complete(8), Clique(3), CliquePlusCliques(3, 1, 3)),
            lambda: is_minimal(graph6_decode("P~~nNe??G@_F?N?M_FG@x_G?"), CliquePendant(3)),
            lambda: degree_survey(CliquePendant(3), 6),
            lambda: distinguish(Clique(3), CliquePlusCliques(3, 1, 2), 6),
        ],
        ids=["canonical_key", "generators", "colourable", "clique_number", "hyper_alpha",
             "find_pattern", "arrows", "solve_cnf", "arrows_plus", "is_minimal", "degree_survey",
             "distinguish"],
    )
    def test_call_leaves_no_cycles(self, call):
        self.assert_no_cycles(call)

    @pytest.mark.parametrize(
        "argv",
        [
            ["ramsey", "--red", "K3", "--blue", "K3"],
            ["survey", "--pattern", "K3.K2", "--nmax", "6"],
            ["survey", "--pattern", "K3", "--nmax", "-1"],
        ],
        ids=["ramsey", "survey", "usage-error"],
    )
    def test_repeated_cli_call_leaves_no_cycles(self, argv, capsys):
        cli.main(argv)  # the first call builds the parser, which is kept
        self.assert_no_cycles(lambda: cli.main(argv))

    @staticmethod
    def assert_no_cycles(call):
        gc.collect()
        gc.disable()
        try:
            call()
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestHypergraphInvariants:
    def test_rejects_duplicate_edges(self):
        with pytest.raises(InputError):
            Hypergraph(4, 3, ((0, 1, 2), (0, 1, 2)))

    def test_rejects_wrong_arity(self):
        with pytest.raises(InputError):
            Hypergraph.from_edges(4, 3, [(0, 1)])

    def test_rejects_uniformity_below_two(self):
        with pytest.raises(InputError):
            Hypergraph.from_edges(4, 1, [(0,)])
