import hashlib
import random
import time
from itertools import combinations, permutations, product
from types import SimpleNamespace

import pytest

from ramseykit import arrowing, minimal, patterns, symmetry
from ramseykit.arrowing import (
    Budget,
    Outcome,
    arrows,
    find_mono,
    find_pattern,
    ramsey_number,
)
from ramseykit.cnf import solve_cnf, to_cnf
from ramseykit.errors import InputError
from ramseykit.formats import graph6_decode, graph6_encode
from ramseykit.gadgets import build_g0, build_pendant_gadget
from ramseykit.graphs import Graph, _has_packing, packings
from ramseykit.minimal import enumerate_graphs, is_minimal, minimalize
from ramseykit.patterns import (
    Arbitrary,
    Clique,
    CliquePendant,
    CliquePlusCliques,
    Colour,
    EdgeColouring,
    largest_component_size,
    parse_pattern,
    pattern_graph,
    write_colouring,
)
from ramseykit.symmetry import generators

from oracles import (
    automorphisms,
    brute_automorphism_count,
    copy_edge_masks,
    least_good_completion,
    naive_arrows,
    naive_witness,
    preserves_adjacency,
    reference_search,
)


def two_five_cycles() -> EdgeColouring:
    """K5 split into the red outer cycle and the blue pentagram."""
    g = Graph.complete(5)
    red = {(i, (i + 1) % 5) for i in range(5)}
    mapping = {}
    for u, v in g.edges():
        mapping[(u, v)] = Colour.RED if ((u, v) in red or (v, u) in red) else Colour.BLUE
    return EdgeColouring.from_mapping(g, mapping)


class TestFindMono:
    def test_all_red_triangle(self):
        chi = EdgeColouring.constant(Graph.complete(3), Colour.RED)
        assert find_mono(chi, Clique(3), Colour.RED) == (0, 1, 2)
        assert find_mono(chi, Clique(3), Colour.BLUE) is None

    def test_two_cycles_have_no_triangle(self):
        chi = two_five_cycles()
        assert find_mono(chi, Clique(3), Colour.RED) is None
        assert find_mono(chi, Clique(3), Colour.BLUE) is None

    def test_pendant_in_all_red_k4(self):
        chi = EdgeColouring.constant(Graph.complete(4), Colour.RED)
        # (attach, the other clique vertices, pendant): clique (0, 1, 2),
        # attach 0, pendant 3
        assert find_mono(chi, CliquePendant(3), Colour.RED) == (0, 1, 2, 3)

    def test_disjoint_union_demands_disjoint_vertices(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        chi = EdgeColouring.constant(g, Colour.RED)
        # the two triangles share vertex 2, so K3 + K3 cannot embed
        assert find_mono(chi, CliquePlusCliques(3, 1, 3), Colour.RED) is None

    def test_disjoint_union_found_in_k6(self):
        chi = EdgeColouring.constant(Graph.complete(6), Colour.RED)
        emb = find_mono(chi, CliquePlusCliques(3, 1, 3), Colour.RED)
        assert emb == (0, 1, 2, 3, 4, 5)  # the K3 (0, 1, 2), then the K3 (3, 4, 5)

    def test_colour_of_a_non_edge_is_an_input_error(self):
        chi = EdgeColouring.constant(Graph.path(3), Colour.RED)
        assert chi.colour_of(2, 1) is Colour.RED
        with pytest.raises(InputError):
            chi.colour_of(0, 2)

    def test_arbitrary_pattern(self):
        chi = two_five_cycles()
        path3 = Arbitrary(Graph.path(3))
        emb = find_mono(chi, path3, Colour.RED)
        assert emb is not None
        a, b, c = emb
        assert chi.colour_of(a, b) is Colour.RED
        assert chi.colour_of(b, c) is Colour.RED

    def test_colour_swap_symmetry(self):
        rng = random.Random(23)
        g = Graph.complete(5)
        for _ in range(20):
            colours = tuple(
                Colour.RED if rng.random() < 0.5 else Colour.BLUE
                for _ in range(g.num_edges)
            )
            chi = EdgeColouring(g, colours)
            for p in (Clique(3), CliquePendant(3)):
                a = find_mono(chi.swapped(), p, Colour.RED)
                b = find_mono(chi, p, Colour.BLUE)
                assert a == b


COPY_TARGETS = [
    Clique(3),
    CliquePendant(3),
    CliquePendant(2),
    CliquePlusCliques(3, 1, 2),
    CliquePlusCliques(2, 2, 2),
    CliquePlusCliques(3, 1, 1),
    Arbitrary(Graph.path(4)),
    Arbitrary(Graph.cycle(4)),
]


def image_edge_mask(g: Graph, p, copy) -> int:
    """The edges of ``g`` that a copy's vertex tuple puts the edges of
    ``pattern_graph(p)`` on, as a mask over ``g.edges()``."""
    return sum(1 << g.edge_index(copy[a], copy[b]) for a, b in pattern_graph(p).edges())


def mask_in_colour(chi: EdgeColouring, mask: int, colour: Colour) -> bool:
    return all(chi.colours[i] is colour for i in range(len(chi.colours)) if (mask >> i) & 1)


class TestCopies:
    """``copies`` yields every copy of every target type, each as the tuple
    of host vertices that the pattern's vertices map to."""

    @pytest.mark.parametrize("p", COPY_TARGETS, ids=str)
    def test_edge_masks_match_the_oracle(self, p):
        h = pattern_graph(p)
        for g in enumerate_graphs(6):
            copies = list(patterns.copies(g.adj, g.n, p))
            assert all(len(set(c)) == h.n for c in copies), g.edges()
            got = {image_edge_mask(g, p, c) for c in copies}
            assert got == set(copy_edge_masks(g, p)), g.edges()

    @pytest.mark.parametrize("p", COPY_TARGETS, ids=str)
    def test_each_copy_once_in_order(self, p):
        """Cliques and K_k + fK_t copies ascend as tuples, a K_k + fK_t
        with its K_t's by least vertex; K_k·K_2 copies come by clique, then
        attach vertex, then pendant vertex; an arbitrary target yields each
        monomorphism once."""
        h = pattern_graph(p)
        for g in enumerate_graphs(6):
            copies = list(patterns.copies(g.adj, g.n, p))
            if isinstance(p, Arbitrary):
                expected = [
                    img for img in permutations(range(g.n), h.n)
                    if all(g.has_edge(img[a], img[b]) for a, b in h.edges())
                ]
                assert sorted(copies) == expected, g.edges()
                continue
            if isinstance(p, CliquePendant):
                k = p.k
                canonical = sorted(set(copies), key=lambda c: (sorted(c[:k]), c[0], c[k]))
                assert all(list(c[1:k]) == sorted(c[1:k]) for c in copies)
            else:
                canonical = sorted(set(copies))
                if isinstance(p, Clique):
                    assert all(list(c) == sorted(c) for c in copies)
            assert copies == canonical, g.edges()
            if isinstance(p, CliquePlusCliques):
                k, t = p.k, p.t
                for c in copies:
                    blocks = [c[:k]] + [c[i:i + t] for i in range(k, len(c), t)]
                    assert all(list(b) == sorted(b) for b in blocks)
                    assert [b[0] for b in blocks[1:]] == sorted(b[0] for b in blocks[1:])

    @pytest.mark.parametrize("p", COPY_TARGETS, ids=str)
    def test_find_mono_returns_a_copy_in_its_colour(self, p):
        rng = random.Random(41)
        for g in enumerate_graphs(6):
            chi = EdgeColouring(g, tuple(rng.choice(list(Colour)) for _ in range(g.num_edges)))
            for colour in Colour:
                copy = find_mono(chi, p, colour)
                if copy is None:
                    assert not any(mask_in_colour(chi, cm, colour) for cm in copy_edge_masks(g, p))
                    continue
                assert len(set(copy)) == pattern_graph(p).n
                cm = image_edge_mask(g, p, copy)
                assert cm in copy_edge_masks(g, p) and mask_in_colour(chi, cm, colour)


class TestArrows:
    def test_k6_arrows_triangles(self):
        assert arrows(Graph.complete(6), Clique(3), Clique(3)).outcome is Outcome.ARROW

    def test_k5_does_not_arrow_triangles(self):
        verdict = arrows(Graph.complete(5), Clique(3), Clique(3))
        assert verdict.outcome is Outcome.NOT_ARROW
        wit = verdict.witness
        assert find_mono(wit, Clique(3), Colour.RED) is None
        assert find_mono(wit, Clique(3), Colour.BLUE) is None

    def test_single_edge(self):
        assert arrows(Graph.complete(2), Clique(2), Clique(2)).outcome is Outcome.ARROW

    def test_edgeless_pattern(self):
        assert arrows(Graph.empty(1), Clique(1), Clique(1)).outcome is Outcome.ARROW

    def test_asymmetric_targets(self):
        # smallest complete graph forcing a red K2 or a blue K3 is K3
        assert arrows(Graph.complete(3), Clique(2), Clique(3)).outcome is Outcome.ARROW
        v = arrows(Graph.complete(2), Clique(2), Clique(3))
        assert v.outcome is Outcome.NOT_ARROW
        assert v.witness.colours == (Colour.BLUE,)

    def test_matchings_avoid_paths(self):
        verdict = arrows(Graph.cycle(4), Arbitrary(Graph.path(3)), Arbitrary(Graph.path(3)))
        assert verdict.outcome is Outcome.NOT_ARROW

    def test_disjoint_union_target(self):
        # two disjoint edges: K_4 escapes (triangle vs star), K_5 cannot
        pair = CliquePlusCliques(2, 1, 2)
        v4 = arrows(Graph.complete(4), pair, pair)
        assert v4.outcome is Outcome.NOT_ARROW
        red = v4.witness.subgraph(Colour.RED)
        blue = v4.witness.subgraph(Colour.BLUE)
        for side in (red, blue):
            matching = max(
                (1 if not (set(e) & set(f)) else 0)
                for e in side.edges()
                for f in side.edges()
            ) if side.num_edges else 0
            assert matching == 0  # no two disjoint same-coloured edges
        assert arrows(Graph.complete(5), pair, pair).outcome is Outcome.ARROW

    def test_budget_gives_undecided(self):
        verdict = arrows(
            Graph.complete(6), Clique(3), Clique(3), Budget(nodes=5)
        )
        assert verdict.outcome is Outcome.UNDECIDED
        assert verdict.witness is None
        assert verdict.nodes <= 5

    @pytest.mark.parametrize("limit", [{"seconds": 0}, {"nodes": 0}], ids=["seconds", "nodes"])
    def test_spent_budget_explores_nothing(self, limit):
        verdict = arrows(Graph.complete(6), Clique(3), Clique(3), Budget(**limit))
        assert verdict.outcome is Outcome.UNDECIDED
        assert verdict.nodes == 0

    @pytest.mark.parametrize("limit", ["seconds", "nodes"])
    def test_nan_limit_is_an_input_error(self, limit):
        # a NaN limit compares false forever, so the search would never stop
        with pytest.raises(InputError):
            Budget(**{limit: float("nan")})

    def test_nodes_are_charged_to_the_budget(self):
        budget = Budget(nodes=10**9)
        first = arrows(Graph.complete(6), Clique(3), Clique(3), budget)
        second = arrows(Graph.complete(5), Clique(3), Clique(3), budget)
        assert first.nodes > 0 and second.nodes > 0
        assert budget.nodes_left == 10**9 - first.nodes - second.nodes

    def test_deadline_is_checked_after_the_generators(self, monkeypatch):
        budget = Budget(seconds=600)
        real = arrowing.edge_perms

        def edge_perms_that_use_up_the_time(g, *args):
            budget.deadline = time.monotonic() - 1
            return real(g)

        monkeypatch.setattr(arrowing, "edge_perms", edge_perms_that_use_up_the_time)
        verdict = arrows(Graph.complete(5), Clique(3), Clique(3), budget)
        assert verdict.outcome is Outcome.UNDECIDED
        assert verdict.nodes == 0

    def test_generators_stop_at_the_deadline(self, monkeypatch):
        # the first backtrack moves a fake clock past the deadline; K5 needs
        # four of them. The deadline reaches the generators as a number, so
        # the clock moves, not the deadline
        now = [0.0]
        clock = SimpleNamespace(monotonic=lambda: now[0])
        monkeypatch.setattr(arrowing, "time", clock)
        monkeypatch.setattr(symmetry, "time", clock)
        budget = Budget(seconds=600)
        real = symmetry._first_automorphism
        calls = [0]

        def first_automorphism_that_uses_up_the_time(*args):
            calls[0] += 1
            now[0] = 601.0
            return real(*args)

        monkeypatch.setattr(symmetry, "_first_automorphism", first_automorphism_that_uses_up_the_time)
        verdict = arrows(Graph.complete(5), Clique(3), Clique(3), budget)
        assert calls[0] == 1
        assert verdict.outcome is Outcome.UNDECIDED
        assert verdict.nodes == 0

    def test_edge_list_is_built_once(self, monkeypatch):
        # arrows and edge_orbits each hand the edge list they hold to
        # edge_perms, so the host's edges() runs once per call; the verdict,
        # witness and node count are those of the edge list built anew
        g = graph6_decode("G@lz~{")
        expected = arrows(g, CliquePendant(3), CliquePendant(3))
        orbits = symmetry.edge_orbits(g)
        calls = []
        real = Graph.edges

        def spy(self):
            if self is g:
                calls.append(self)
            return real(self)

        monkeypatch.setattr(Graph, "edges", spy)
        verdict = arrows(g, CliquePendant(3), CliquePendant(3))
        assert (verdict.outcome, verdict.witness, verdict.nodes) == (expected.outcome, expected.witness, expected.nodes)
        assert len(calls) == 1
        calls.clear()
        assert symmetry.edge_orbits(g) == orbits
        assert len(calls) == 1

    def test_a_backtrack_stops_at_the_deadline(self, monkeypatch):
        # a rigid cubic graph on 12 vertices: every backtrack of its
        # generators fails, in 80 steps together. A fake clock passes the
        # deadline at the first step, which ends the backtrack and the
        # generators there
        g = graph6_decode("K_j?`cCGISAE")
        now = [0.0]
        clock = SimpleNamespace(monotonic=lambda: now[0])
        monkeypatch.setattr(arrowing, "time", clock)
        monkeypatch.setattr(symmetry, "time", clock)
        real = symmetry._map_rest
        steps = [0]

        def map_rest_that_uses_up_the_time(*args):
            steps[0] += 1
            now[0] = 601.0
            return real(*args)

        monkeypatch.setattr(symmetry, "_map_rest", map_rest_that_uses_up_the_time)
        assert symmetry.generators(g, deadline=600.0) == []
        assert steps[0] == 1
        now[0] = 0.0
        verdict = arrows(g, Clique(3), Clique(3), Budget(seconds=600))
        assert steps[0] == 2
        assert verdict.outcome is Outcome.UNDECIDED
        assert verdict.nodes == 0

    def test_backtracks_without_a_deadline_read_no_clock(self, monkeypatch):
        def no_clock():
            raise AssertionError("the clock was read")

        monkeypatch.setattr(symmetry, "time", SimpleNamespace(monotonic=no_clock))
        assert symmetry.generators(graph6_decode("K_j?`cCGISAE")) == []
        assert len(symmetry.generators(Graph.petersen())) > 0

    def test_deadline_is_checked_at_every_node(self, monkeypatch):
        # a clock that moves one second per reading passes a 5 s deadline
        # within a few nodes; K6 K3/K3 takes 13
        ticks = iter(range(10**6))
        monkeypatch.setattr(arrowing, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
        verdict = arrows(Graph.complete(6), Clique(3), Clique(3), Budget(seconds=5))
        assert verdict.outcome is Outcome.UNDECIDED
        assert verdict.nodes < 5

    def test_deadline_holds_on_a_long_search(self):
        # K17 K3/K6 does not arrow (R(3, 6) = 18), far beyond 0.2 s
        start = time.monotonic()
        verdict = arrows(Graph.complete(17), Clique(3), Clique(6), Budget(seconds=0.2))
        assert verdict.outcome is Outcome.UNDECIDED
        assert time.monotonic() - start < 0.5

    def test_witness_with_a_copy_raises(self, monkeypatch):
        # a checker that never sees a copy lets the all-red colouring through
        monkeypatch.setattr(arrowing, "_through_edge_checker", lambda p: lambda adj, u, v: False)
        with pytest.raises(RuntimeError):
            arrows(Graph.complete(6), Clique(3), Clique(3))

    def test_canonical_witness_is_deterministic(self):
        a = arrows(Graph.complete(5), Clique(3), Clique(3))
        b = arrows(Graph.complete(5), Clique(3), Clique(3))
        assert a.witness == b.witness

    def test_swapped_witness_stays_valid(self):
        rng = random.Random(47)
        for _ in range(10):
            pairs = [e for e in combinations(range(6), 2) if rng.random() < 0.7]
            g = Graph.from_edges(6, pairs)
            verdict = arrows(g, Clique(3), Clique(3))
            if verdict.outcome is Outcome.NOT_ARROW:
                swapped = verdict.witness.swapped()
                assert find_mono(swapped, Clique(3), Colour.RED) is None
                assert find_mono(swapped, Clique(3), Colour.BLUE) is None

    def test_monotone_in_supergraph(self):
        rng = random.Random(31)
        for _ in range(15):
            pairs = list(combinations(range(5), 2))
            sub = [e for e in pairs if rng.random() < 0.6]
            g = Graph.from_edges(5, sub)
            g2 = Graph.from_edges(5, sub + [e for e in pairs if e not in sub and rng.random() < 0.5])
            if arrows(g, Clique(3), Clique(3)).outcome is Outcome.ARROW:
                assert arrows(g2, Clique(3), Clique(3)).outcome is Outcome.ARROW

    def test_monotone_in_pattern(self):
        for g in (Graph.complete(6), Graph.complete(7)):
            if arrows(g, Clique(3), Clique(3)).outcome is Outcome.ARROW:
                assert arrows(g, Clique(2), Clique(2)).outcome is Outcome.ARROW
        # a pendant target contains its clique, so arrowing it implies arrowing the clique
        g7 = Graph.complete(7)
        if arrows(g7, CliquePendant(3), CliquePendant(3)).outcome is Outcome.ARROW:
            assert arrows(g7, Clique(3), Clique(3)).outcome is Outcome.ARROW


class TestOracleEquivalence:
    def corpus(self):
        rng = random.Random(41)
        graphs = [
            Graph.complete(4),
            Graph.complete(5),
            Graph.cycle(5),
            Graph.path(5),
            Graph.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)]),
        ]
        for _ in range(6):
            n = rng.randint(4, 6)
            pairs = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
            if pairs and len(pairs) <= 12:
                graphs.append(Graph.from_edges(n, pairs))
        return graphs

    def test_search_matches_naive_enumeration(self):
        # the small targets make both verdicts reachable: every graph with an
        # edge arrows K2, and odd cycles arrow the 3-vertex path
        patterns = (Clique(2), CliquePendant(2), Clique(3), CliquePendant(3))
        for g in self.corpus():
            for p in patterns:
                expected = naive_arrows(g, p, p)
                got = arrows(g, p, p).outcome
                assert (got is Outcome.ARROW) == expected, (g.edges(), p)

    def test_naive_oracle_sees_both_verdicts(self):
        assert naive_arrows(Graph.cycle(5), CliquePendant(2), CliquePendant(2))
        assert not naive_arrows(Graph.cycle(4), CliquePendant(2), CliquePendant(2))


class TestSearchModes:
    def test_automorphism_count(self):
        assert len(automorphisms(Graph.complete(4))) == 24
        assert len(automorphisms(Graph.cycle(5))) == 10
        assert len(automorphisms(Graph.path(3))) == 2
        # 3-regular: refinement leaves one cell, so the backtrack does the work
        assert len(automorphisms(Graph.petersen())) == 120

    def test_generators_match_brute_force(self):
        assert len(generators(Graph.complete(6))) == 5
        assert len(generators(Graph.petersen())) == 4
        rng = random.Random(53)
        gadget = pendant_gadget_k3()
        corpus = [Graph.petersen(), gadget] + [gadget.without_edge(*e) for e in gadget.edges()]
        for g in enumerate_graphs(6):
            # the canonical labelling and a shuffled one
            relabel = list(range(g.n))
            rng.shuffle(relabel)
            shuffled = Graph.from_edges(g.n, [(relabel[u], relabel[v]) for u, v in g.edges()])
            corpus += [g, shuffled]
        for g in corpus:
            assert all(preserves_adjacency(g, s) for s in generators(g)), g.edges()
            count = brute_automorphism_count(g)
            assert len(automorphisms(g, limit=count + 1)) == count, g.edges()

    def test_generator_lists_are_pinned(self):
        # lex-leader pruning reads the generators themselves, not only the
        # group they generate: the lists, in order, on every class with at
        # most 7 vertices, the pendant gadget and its one-edge deletions,
        # each also relabelled in smallest-last order
        gadget = pendant_gadget_k3()
        corpus = []
        for g in [*enumerate_graphs(7), gadget, *(gadget.without_edge(*e) for e in gadget.edges())]:
            label = [0] * g.n
            for i, v in enumerate(minimal._smallest_last(g)):
                label[v] = i
            corpus += [g, Graph.from_edges(g.n, [(label[u], label[v]) for u, v in g.edges()])]
        assert len(corpus) == 2606
        lists = repr([generators(g) for g in corpus])
        assert hashlib.sha256(lists.encode()).hexdigest() == (
            "06dd72aa7fb845cbe775c92009b23d3bf52db7a6eca9fcf2a7136392ce07f1cb"
        )


class TestThroughEdgeChecker:
    """On every class that meets the checker's precondition, G - uv with no
    copy of the target, the check answers whether adding uv completes one,
    that is whether G holds a copy; it reads the class with uv or without."""

    @pytest.mark.parametrize(
        "p",
        [Clique(k) for k in range(1, 5)]
        + [CliquePendant(k) for k in range(1, 5)]
        + [CliquePlusCliques(3, 1, 2), CliquePlusCliques(2, 2, 2)]
        + [CliquePlusCliques(3, 1, 3), CliquePlusCliques(2, 1, 3), CliquePlusCliques(1, 1, 3)]
        + [CliquePlusCliques(3, 0, 2), CliquePlusCliques(3, 2, 1)]
        + [Arbitrary(Graph.path(4)), Arbitrary(Graph.cycle(4))],
        ids=str,
    )
    def test_matches_copy_masks(self, p):
        # K3 and K3·K2 also on 7 vertices, where the branches of the K3·K2
        # closure for a degree of 2 or more are hit often
        check = arrowing._through_edge_checker(p)
        for g in enumerate_graphs(7 if p in (Clique(3), CliquePendant(3)) else 6):
            has_copy = bool(copy_edge_masks(g, p))
            for u, v in g.edges():
                without = g.without_edge(u, v)
                if copy_edge_masks(without, p):
                    continue
                assert check(without.adj, u, v) is has_copy, (g.edges(), u, v)
                assert check(g.adj, u, v) is has_copy, (g.edges(), u, v)

    def test_packing_kernel_matches_the_enumerator(self):
        # k = 0 asks for f disjoint K_t's alone
        for g in enumerate_graphs(6):
            for avail in range(1 << g.n):
                for k, f, t in product(range(4), range(3), range(1, 4)):
                    expected = next(packings(g.adj, avail, k, f, t), None) is not None
                    got = _has_packing(g.adj, avail, k, f, t)
                    assert got is expected, (g.edges(), avail, k, f, t)


DIFFERENTIAL_PAIRS = [
    (Clique(3), Clique(3)),
    (CliquePendant(3), CliquePendant(3)),
    (Clique(3), CliquePendant(3)),
    (CliquePendant(2), CliquePendant(2)),
    (CliquePendant(4), Clique(3)),
]

# pairs for the DPLL cross-check alone, with the K_k + fK_t and arbitrary
# targets that the CNF export takes
DPLL_ONLY_PAIRS = [
    (CliquePlusCliques(3, 1, 2), Clique(3)),
    (CliquePlusCliques(2, 2, 2), Clique(3)),
    (CliquePlusCliques(2, 1, 2), CliquePlusCliques(2, 1, 2)),
    (Clique(3), CliquePlusCliques(3, 1, 1)),
    (Arbitrary(Graph.path(4)), Arbitrary(Graph.cycle(4))),
]


class TestWitnessDifferential:
    """Verdicts and canonical witnesses equal the brute-force lex-first
    colouring, with symmetry breaking on and off; as is, the node counts
    equal those of the reference search."""

    @pytest.fixture(params=["as-is", "no-symmetry"])
    def mode(self, request, monkeypatch):
        if request.param == "no-symmetry":
            monkeypatch.setattr(arrowing, "edge_perms", lambda g, *args: [])
        return request.param

    @pytest.mark.parametrize("red, blue", DIFFERENTIAL_PAIRS, ids=str)
    def test_against_naive_witness(self, mode, red, blue):
        for g in enumerate_graphs(6):
            expected = naive_witness(g, red, blue)
            verdict = arrows(g, red, blue)
            got = None if verdict.witness is None else verdict.witness.colours
            assert verdict.outcome is (Outcome.ARROW if expected is None else Outcome.NOT_ARROW)
            assert got == expected, g.edges()
            if mode == "as-is":
                assert (verdict.nodes, got) == reference_search(g, red, blue), g.edges()

    @pytest.mark.parametrize("red, blue", DIFFERENTIAL_PAIRS + DPLL_ONLY_PAIRS, ids=str)
    def test_verdict_matches_dpll(self, red, blue):
        for g in enumerate_graphs(6):
            satisfiable = solve_cnf(to_cnf(g, red, blue)) is not None
            assert satisfiable is (arrows(g, red, blue).outcome is Outcome.NOT_ARROW), g.edges()


# (red, blue, largest complete host); the hosts are every graph on at most
# 6 vertices and the complete graphs up to the last entry
TWIN_PAIRS = [
    (Clique(3), Clique(3), 7),
    (CliquePendant(3), CliquePendant(3), 7),
    (Clique(3), CliquePlusCliques(3, 1, 3), 8),
    (CliquePlusCliques(2, 1, 2), CliquePlusCliques(2, 1, 2), 7),
    (Clique(4), Clique(3), 9),  # R(3, 4) = 9
    (CliquePendant(3), Clique(3), 7),
    (Clique(3), CliquePlusCliques(3, 1, 2), 7),  # uv in a K_t with t != k
    (CliquePendant(4), Clique(3), 9),  # the general check_pendant, k != 3
    (Clique(2), Clique(3), 7),
    (CliquePlusCliques(3, 1, 3), CliquePlusCliques(3, 1, 3), 9),
    (Clique(5), Clique(3), 10),
    (CliquePlusCliques(3, 1, 2), CliquePlusCliques(3, 1, 2), 9),
    (Clique(3), CliquePlusCliques(2, 2, 2), 9),  # 3K2
]


class TestArbitraryTwin:
    """A native target and its ``Arbitrary`` twin, the same graph checked by
    extending embeddings through the new edge, both decide whether adding
    an edge completes a copy. On one host the two searches are then the same
    tree: the same outcome, witness and node count."""

    @pytest.mark.parametrize("red, blue, n_max", TWIN_PAIRS, ids=str)
    def test_matches_the_native_search(self, red, blue, n_max):
        twins = Arbitrary(pattern_graph(red)), Arbitrary(pattern_graph(blue))
        for g in [*enumerate_graphs(6), *(Graph.complete(n) for n in range(7, n_max + 1))]:
            native, twin = arrows(g, red, blue), arrows(g, *twins)
            assert (twin.outcome, twin.witness, twin.nodes) == (native.outcome, native.witness, native.nodes), g.edges()


class TestIncrementalPropagation:
    """Propagation re-runs a colour's check on an edge only when that colour
    class grew; its edge cases match the reference search, which rescans
    every edge with both colours."""

    def assert_matches_reference(self, g, red, blue):
        verdict = arrows(g, red, blue)
        got = None if verdict.witness is None else verdict.witness.colours
        assert (verdict.nodes, got) == reference_search(g, red, blue), (g.edges(), red, blue)
        return verdict

    def test_edgeless_host(self):
        verdict = self.assert_matches_reference(Graph.empty(3), Clique(3), CliquePendant(3))
        assert verdict.outcome is Outcome.NOT_ARROW and verdict.witness.colours == ()

    def test_root_conflict(self):
        # no edge may be red, so the root forces every edge blue until a
        # blue triangle closes, or forbids both colours of the one edge
        for g, blue in ((Graph.complete(3), Clique(3)), (Graph.complete(2), CliquePendant(1))):
            verdict = self.assert_matches_reference(g, Clique(2), blue)
            assert verdict.outcome is Outcome.ARROW and verdict.nodes == 0

    def test_root_fixpoint_colours_every_edge(self):
        verdict = self.assert_matches_reference(Graph.cycle(5), Clique(2), Clique(3))
        assert verdict.nodes == 0
        assert verdict.witness.colours == (Colour.BLUE,) * 5

    @pytest.mark.parametrize(
        "red, blue",
        [(Clique(3), CliquePendant(3)), (CliquePendant(3), Clique(4))],
        ids=str,
    )
    def test_unequal_targets_on_complete_hosts(self, red, blue):
        # a branch grows one class, and forced edges of the other colour
        # must make that colour's checks run again
        for n in range(5, 8):
            self.assert_matches_reference(Graph.complete(n), red, blue)


def root_of(g: Graph, colours) -> tuple[list[int], list[int]]:
    """The root that fixes edge i of ``g`` to ``colours[i]``, None for free."""
    root = ([0] * g.n, [0] * g.n)
    for (u, v), c in zip(g.edges(), colours):
        if c is not None:
            cls = root[c is Colour.BLUE]
            cls[u] |= 1 << v
            cls[v] |= 1 << u
    return root


ROOTED_PAIRS = [
    (Clique(3), Clique(3)),
    (CliquePendant(3), CliquePendant(3)),
    (Clique(3), CliquePlusCliques(2, 1, 2)),
    (CliquePlusCliques(3, 1, 2), CliquePlusCliques(3, 1, 2)),
]


class TestRootedSearch:
    """A search from a root decides the colourings that extend it, and its
    witness is the least good completion, as brute force over every
    completion finds it."""

    @staticmethod
    def assert_matches_oracle(g, red, blue, root):
        expected = least_good_completion(g, red, blue, root)
        verdict = arrows(g, red, blue, root=root)
        got = None if verdict.witness is None else verdict.witness.colours
        assert verdict.outcome is (Outcome.ARROW if expected is None else Outcome.NOT_ARROW)
        assert got == expected, (g.edges(), root)

    @pytest.mark.parametrize("red, blue", ROOTED_PAIRS, ids=str)
    def test_small_graphs(self, red, blue):
        # the empty root, each one-edge root in each colour, and every root
        # when m <= 6
        for g in enumerate_graphs(5):
            m = g.num_edges
            if m <= 6:
                roots = product((None, Colour.RED, Colour.BLUE), repeat=m)
            else:
                roots = [(None,) * m] + [
                    tuple(c if i == e else None for i in range(m))
                    for e in range(m)
                    for c in (Colour.RED, Colour.BLUE)
                ]
            for colours in roots:
                self.assert_matches_oracle(g, red, blue, root_of(g, colours))

    @pytest.mark.parametrize("n", [6, 7])
    def test_star_roots_on_complete_graphs(self, n):
        # the least good K3/K3 colouring of K5 on the first five vertices,
        # less the star at one of them; every edge at that vertex or a
        # later one is free. K6 arrows (3, 3), so no completion is good
        good = naive_witness(Graph.complete(5), Clique(3), Clique(3))
        colour_of = dict(zip(Graph.complete(5).edges(), good))
        g = Graph.complete(n)
        for x in range(5):
            colours = [None if x in e or e[1] >= 5 else colour_of[e] for e in g.edges()]
            self.assert_matches_oracle(g, Clique(3), Clique(3), root_of(g, colours))

    def test_empty_root_gives_the_canonical_witness(self):
        g = Graph.complete(5)
        plain = arrows(g, Clique(3), Clique(3))
        rooted = arrows(g, Clique(3), Clique(3), root=root_of(g, [None] * 10))
        assert rooted.witness == plain.witness

    @pytest.mark.parametrize(
        "bad",
        [
            ([0b010, 0b001, 0], [0b010, 0b001, 0]),  # edge (0, 1) in both classes
            ([0b100, 0, 0b001], [0, 0, 0]),  # (0, 2) is not an edge
            ([0b010, 0, 0], [0, 0, 0]),  # not symmetric
            ([0, 0], [0, 0]),  # too few rows
            ([0, 0, 0],),  # one class
            ([0, 0, 0], [0, 0, 0], [0, 0, 0]),  # three classes
            ([0, 0, 0], None),  # a class that is not a sequence of rows
            ([0, 0, 0], ["0", "0", "0"]),  # rows that are not ints
        ],
    )
    def test_invalid_root(self, bad):
        with pytest.raises(InputError):
            arrows(Graph.path(3), Clique(3), Clique(3), root=bad)

    def test_root_class_with_a_copy_arrows(self):
        g = Graph.complete(4)
        red_triangle = root_of(g, [Colour.RED if e[1] < 3 else None for e in g.edges()])
        verdict = arrows(g, Clique(3), Clique(3), root=red_triangle)
        assert (verdict.outcome, verdict.nodes) == (Outcome.ARROW, 0)
        blue_triangle = red_triangle[::-1]
        verdict = arrows(g, Clique(3), Clique(4), root=blue_triangle)
        assert verdict.outcome is Outcome.NOT_ARROW

    def test_spent_budget(self):
        g = Graph.complete(5)
        verdict = arrows(g, Clique(3), Clique(3), Budget(nodes=0), root=root_of(g, [None] * 10))
        assert (verdict.outcome, verdict.nodes) == (Outcome.UNDECIDED, 0)

    def test_nodes_charged_to_the_budget(self):
        g = Graph.complete(6)
        budget = Budget(nodes=1000)
        verdict = arrows(g, Clique(3), Clique(3), budget, root=root_of(g, [None] * 15))
        assert verdict.outcome is Outcome.ARROW and verdict.nodes > 0
        assert budget.nodes_left == 1000 - verdict.nodes
        short = Budget(nodes=verdict.nodes - 1)
        cut = arrows(g, Clique(3), Clique(3), short, root=root_of(g, [None] * 15))
        assert cut.outcome is Outcome.UNDECIDED and short.nodes_left <= 0


@pytest.fixture
def check_count(monkeypatch):
    """The number of through-edge checks run since the fixture was made."""
    calls = [0]
    real = arrowing._through_edge_checker

    def counting(p):
        check = real(p)

        def counted(adj, u, v):
            calls[0] += 1
            return check(adj, u, v)

        return counted

    monkeypatch.setattr(arrowing, "_through_edge_checker", counting)
    return calls


def pendant_gadget_k3() -> Graph:
    """The k = 3 pendant gadget of the paper, 17 vertices and |Aut| = 200."""
    return build_pendant_gadget(3, [build_g0(3, Graph.cycle(5))] * 2).graph


class TestNodeCounts:
    """Node and check counts repeat exactly; these bounds are today's counts,
    and they fail when propagation or symmetry breaking stops pruning
    (without symmetry breaking: 39,126, 3,182 and 95 nodes; without
    propagation: 8,844, 2,728 and 32,485), or when propagation falls back to
    rescanning every uncoloured edge with both checks (without incremental
    checks: 6,730 checks for the pendant gadget and 249,666 for its
    minimalization)."""

    def test_k9_arrows_k3_k4(self):
        verdict = arrows(Graph.complete(9), Clique(3), Clique(4))
        assert verdict.outcome is Outcome.ARROW
        assert verdict.nodes <= 270

    def test_ramsey_k3_2k3(self, check_count):
        rep = ramsey_number(Clique(3), CliquePlusCliques(3, 1, 3))
        assert rep.n == 8
        assert rep.nodes <= 144
        assert check_count[0] <= 2110

    @pytest.mark.parametrize(
        "red, blue, n, nodes, witness_nodes, sha",
        [
            # Burr, Erdos & Spencer (1975): r(mK3, nK3) = 3m + 2n for m >= n, m >= 2
            (CliquePlusCliques(3, 1, 3), CliquePlusCliques(3, 1, 3), 10, 5026, 245,
             "91089fae8eafe0f67bf2c609f5840ae2cb49de7fcfea2a9184fb1c87dad04310"),
            (Clique(3), CliquePlusCliques(3, 2, 3), 11, 1419, 18,
             "05d994b9869c83a568c3e6ae2d143e7ff640e5362be0c3ebe4c22776377ff3a9"),
        ],
        ids=["2K3-2K3", "K3-3K3"],
    )
    def test_ramsey_multiple_triangles(self, red, blue, n, nodes, witness_nodes, sha):
        rep = ramsey_number(red, blue)
        assert rep.n == n
        assert rep.nodes <= nodes
        verdict = arrows(Graph.complete(n - 1), red, blue)
        assert verdict.outcome is Outcome.NOT_ARROW
        assert verdict.nodes <= witness_nodes
        text = write_colouring(verdict.witness)
        assert hashlib.sha256(text.encode()).hexdigest() == sha
        assert find_mono(verdict.witness, red, Colour.RED) is None
        assert find_mono(verdict.witness, blue, Colour.BLUE) is None

    def test_pendant_gadget_arrows_k3_k2(self, check_count):
        verdict = arrows(pendant_gadget_k3(), CliquePendant(3), CliquePendant(3))
        assert verdict.outcome is Outcome.ARROW
        assert verdict.nodes <= 83
        assert check_count[0] <= 4533

    def test_pendant_gadget_minimalize_checks(self, check_count):
        g = minimalize(pendant_gadget_k3(), CliquePendant(3))
        assert graph6_encode(g) == "P~~nNe??G@_F?N?M_FG@x_G?"
        assert check_count[0] <= 151131

    def test_pendant_gadget_minimalize_reuses_colourings(self, check_count, monkeypatch):
        # a deletion settled by a search rooted at the last good colouring
        # gets no full search: 11 full searches of 5,504 nodes and 151,131
        # checks without the reuse
        full, rooted = [], []
        real = minimal.arrows

        def spy(g, red, blue, opts=None, *, root=None):
            verdict = real(g, red, blue, opts, root=root)
            (full if root is None else rooted).append(verdict.nodes)
            return verdict

        monkeypatch.setattr(minimal, "arrows", spy)
        g = minimalize(pendant_gadget_k3(), CliquePendant(3))
        assert graph6_encode(g) == "P~~nNe??G@_F?N?M_FG@x_G?"
        assert len(full) <= 6
        assert sum(full) <= 411
        assert (len(rooted), sum(rooted)) == (9, 37)
        assert check_count[0] <= 20033
        full.clear()
        rooted.clear()
        # 8 full searches without the reuse
        assert is_minimal(g, CliquePendant(3)).is_minimal
        assert len(full) <= 4
        assert (len(rooted), sum(rooted)) == (6, 23)

    def test_k13_witness_for_k3_k5(self):
        # the canonical witness is pinned byte for byte: no pruning rule may
        # move it
        verdict = arrows(Graph.complete(13), Clique(3), Clique(5))
        assert verdict.outcome is Outcome.NOT_ARROW
        assert verdict.nodes <= 367
        text = write_colouring(verdict.witness)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "9774759fbfbb0a8593ad680994fac569aa810328e444a14e3a7b1bdc33793112"
        )
        assert find_mono(verdict.witness, Clique(3), Colour.RED) is None
        assert find_mono(verdict.witness, Clique(5), Colour.BLUE) is None

    def test_ramsey_k3_k5(self):
        assert ramsey_number(Clique(3), Clique(5)).n == 14

    def test_g0_4_c5_does_not_arrow_k4_k2(self):
        g = build_g0(4, Graph.cycle(5)).graph
        verdict = arrows(g, CliquePendant(4), CliquePendant(4))
        assert verdict.outcome is Outcome.NOT_ARROW
        for colour in Colour:
            assert find_mono(verdict.witness, CliquePendant(4), colour) is None


class TestRamseyNumber:
    def test_triangles(self):
        assert ramsey_number(Clique(3), Clique(3)).n == 6

    def test_pair_of_edges(self):
        assert ramsey_number(Clique(2), Clique(2)).n == 2

    def test_paths(self):
        assert ramsey_number(CliquePendant(1), CliquePendant(1)).n == 2

    def test_arbitrary_target_agrees_with_clique(self):
        triangle = Arbitrary(Graph.complete(3))
        assert ramsey_number(triangle, triangle).n == ramsey_number(Clique(3), Clique(3)).n == 6

    def test_largest_component_size(self):
        p3_k2 = Graph.disjoint_union([Graph.path(3), Graph.complete(2)])
        assert largest_component_size(Arbitrary(p3_k2)) == 3
        assert largest_component_size(Arbitrary(Graph.empty(2))) == 1

    @pytest.mark.parametrize(
        "red, blue, expected",
        [
            # an edgeless target lies in K_n, whatever the colouring, once n
            # reaches its order, so the search cannot start at the other
            # target's component size
            (Clique(1), Clique(3), 1),
            (Clique(3), Clique(1), 1),
            (Clique(1), Clique(1), 1),
            (CliquePlusCliques(1, 2, 1), Clique(2), 3),
            (CliquePlusCliques(1, 3, 1), CliquePendant(1), 4),
            (CliquePlusCliques(2, 1, 1), Clique(2), 3),
            (Clique(2), Clique(3), 3),
            (CliquePendant(1), Clique(3), 3),
        ],
        ids=str,
    )
    def test_small_pairs_match_brute_force(self, red, blue, expected):
        brute = next(n for n in range(1, 7) if naive_arrows(Graph.complete(n), red, blue))
        assert ramsey_number(red, blue).n == brute == expected

    def test_budget(self):
        rep = ramsey_number(Clique(4), Clique(4), Budget(seconds=0.5))
        assert not rep.decided
        assert rep.n is None
        assert rep.checked_up_to >= 4


class TestPatternParsing:
    def test_mini_language(self):
        assert parse_pattern("K5") == Clique(5)
        assert parse_pattern("K5.K2") == CliquePendant(5)
        assert parse_pattern("K4+2K3") == CliquePlusCliques(4, 2, 3)

    def test_reject_garbage(self):
        with pytest.raises(InputError):
            parse_pattern("W5")

    def test_file_pattern(self, tmp_path):
        path = tmp_path / "P3.g6"
        path.write_text(graph6_encode(Graph.path(3)) + "\n")
        assert parse_pattern(f"file:{path}") == Arbitrary(Graph.path(3))
        (tmp_path / "empty.g6").write_text("")
        with pytest.raises(InputError, match="no graph"):
            parse_pattern(f"file:{tmp_path / 'empty.g6'}")

    def test_pattern_finding_in_plain_graph(self):
        assert find_pattern(Graph.complete(4), CliquePendant(3)) is not None
        assert find_pattern(Graph.cycle(5), Clique(3)) is None
