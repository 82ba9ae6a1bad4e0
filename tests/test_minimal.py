import hashlib
import os
import random
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import replace
from itertools import combinations, permutations
from types import SimpleNamespace

import pytest

from ramseykit import arrowing, minimal, symmetry
from ramseykit.errors import InputError, Undecided
from ramseykit.arrowing import Budget, Outcome, arrows, find_mono, ramsey_number
from ramseykit.formats import graph6_decode, graph6_encode
from ramseykit.gadgets import build_g0, build_pendant_gadget
from ramseykit.graphs import Graph, bits, colourable, components, mask_of
from ramseykit.minimal import (
    MinimalityReport,
    canonical_graph,
    canonical_key,
    degree_survey,
    distinguish,
    enumerate_graphs,
    is_minimal,
    minimalize,
)
from ramseykit.patterns import Arbitrary, Clique, CliquePendant, CliquePlusCliques, Colour, EdgeColouring
from ramseykit.symmetry import (
    _canonical_columns,
    edge_orbits,
    refine,
    subset_orbit_reps,
)

from oracles import (
    automorphisms,
    brute_canonical_columns,
    brute_edge_orbits,
    brute_subset_orbits,
    per_edge_is_minimal,
    per_edge_minimalize,
    per_orbit_is_minimal,
    per_orbit_minimalize,
    reference_refine,
    unfiltered_classes,
)


def labellings(n_max: int, seed: int):
    """Every graph on at most ``n_max`` vertices, canonically labelled and
    shuffled."""
    rng = random.Random(seed)
    for g in enumerate_graphs(n_max):
        relabel = list(range(g.n))
        rng.shuffle(relabel)
        yield g
        yield Graph.from_edges(g.n, [(relabel[u], relabel[v]) for u, v in g.edges()])


class TestCanonicalForm:
    def test_invariant_under_relabelling(self):
        rng = random.Random(19)
        for _ in range(30):
            n = rng.randint(1, 7)
            pairs = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
            g = Graph.from_edges(n, pairs)
            perm = list(range(n))
            rng.shuffle(perm)
            h = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in pairs])
            assert canonical_key(g) == canonical_key(h)
            assert canonical_graph(g) == canonical_graph(h)

    def test_distinguishes_nonisomorphic(self):
        assert canonical_key(Graph.path(4)) != canonical_key(
            Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        )

    def test_representative_is_isomorphic(self):
        g = Graph.from_edges(5, [(0, 3), (3, 4), (1, 4), (0, 1), (2, 3)])
        rep = canonical_graph(g)
        found = any(
            all(
                g.has_edge(u, v) == rep.has_edge(p[u], p[v])
                for u, v in combinations(range(5), 2)
            )
            for p in permutations(range(5))
        )
        assert found

    def test_columns_match_brute_force(self):
        for g in labellings(6, seed=61):
            assert _canonical_columns(g) == brute_canonical_columns(g, refine(g)), g.edges()

    def test_columns_match_brute_force_on_seven_vertices(self):
        # every class on 7 vertices, each under two seeded relabellings
        rng = random.Random(71)
        for g in enumerate_graphs(7):
            if g.n < 7:
                continue
            for _ in range(2):
                relabel = list(range(7))
                rng.shuffle(relabel)
                h = Graph.from_edges(7, [(relabel[u], relabel[v]) for u, v in g.edges()])
                assert _canonical_columns(h) == brute_canonical_columns(h, refine(h)), h.edges()

    def test_key_decodes_to_the_canonical_graph(self):
        for g in labellings(6, seed=67):
            cols = brute_canonical_columns(g, refine(g))
            edges = [(i, j) for j, col in enumerate(cols) for i in range(j) if (col >> (j - 1 - i)) & 1]
            rep = Graph.from_bits(*canonical_key(g))
            assert rep == canonical_graph(g) == Graph.from_edges(g.n, edges), g.edges()

    def test_key_is_the_bits_of_the_canonical_graph(self):
        for g in labellings(7, seed=73):
            assert canonical_key(g) == (g.n, canonical_graph(g).bits()), g.edges()


class TestRefinement:
    def test_matches_the_reference(self):
        # every class on at most 7 vertices, each under two seeded
        # relabellings, refined from its degree colouring and from each
        # single-vertex individualisation of its stable colouring: the
        # colourings ``refine`` and ``generators`` start from
        rng = random.Random(83)
        for g in enumerate_graphs(7):
            for _ in range(2):
                relabel = list(range(g.n))
                rng.shuffle(relabel)
                h = Graph.from_edges(g.n, [(relabel[u], relabel[v]) for u, v in g.edges()])
                nbrs = [list(bits(row)) for row in h.adj]
                stable = symmetry._refine(nbrs, h.degrees())
                assert stable == reference_refine(nbrs, h.degrees()), h.edges()
                for v in range(h.n):
                    start = list(stable)
                    start[v] = h.n
                    assert symmetry._refine(nbrs, start) == reference_refine(nbrs, start), (h.edges(), v)


def cold_orders() -> list:
    """``minimal._orders`` as before any order beyond 1 is built."""
    return [(), (Graph.empty(1),)]


def pin_workers(monkeypatch, w: int) -> None:
    """Make ``_classes`` split every order into ``w`` shares, whatever the
    CPU count."""
    monkeypatch.setattr(minimal, "_workers", lambda parents: w)


def assert_no_children() -> None:
    """Every child process of this one has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextmanager
def within(seconds: int):
    """Raise TimeoutError in the block once ``seconds`` have passed, so that
    a caller waiting for a worker that never ends fails instead of hanging.
    Not nestable: there is one alarm per process."""

    def expire(_signum, _frame):
        raise TimeoutError(f"still waiting after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class CountingBudget(Budget):
    """A budget spent from its ``checks``-th ``spent()`` call on. It notes
    how many orders the enumeration held when it was first spent."""

    def __init__(self, checks: int):
        super().__init__()
        self.left = checks
        self.orders_when_spent = None

    def spent(self) -> bool:
        self.left -= 1
        if self.left <= 0 and self.orders_when_spent is None:
            self.orders_when_spent = len(minimal._orders)
        return self.left <= 0


class TestEnumeration:
    def test_extension_subsets_hit_each_orbit_once(self):
        for g in labellings(5, seed=71):
            reps = subset_orbit_reps(g)
            assert reps == sorted(reps)
            for orbit in brute_subset_orbits(g):
                hit = [m for m in reps if m in orbit]
                assert hit == [min(orbit)], g.edges()

    # the cold enumerations below build into an `_orders` of their own and
    # leave the shared one, with n = 8 from the count tests, to the
    # acceptance survey
    def test_class_counts(self):
        # the number of isomorphism classes of simple graphs by order (OEIS A000088)
        expected = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
        for n, count in expected.items():
            assert sum(1 for g in enumerate_graphs(n) if g.n == n) == count

    def test_connected_counts(self):
        # connected graphs by order (OEIS A001349)
        expected = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
        for n, count in expected.items():
            got = sum(1 for g in enumerate_graphs(n) if g.n == n and len(components(g)) == 1)
            assert got == count

    def test_matches_unfiltered_enumeration(self):
        # every subset of every parent, deduplicated: neither the orbit
        # choice nor the top-class test drops a class or moves a representative
        for n, expected in enumerate(unfiltered_classes(7)):
            assert minimal._classes(n) == expected, n

    def test_top_refinement_class_has_maximum_degree(self):
        # the degree pre-check in _classes rests on this: class ids refine
        # the degree order, so the top class holds only max-degree vertices.
        # Every labelled graph on at most 6 vertices, so that the check does
        # not depend on the enumeration it guards
        for n in range(1, 7):
            pairs = list(combinations(range(n), 2))
            for m in range(1 << len(pairs)):
                g = Graph.from_edges(n, [e for i, e in enumerate(pairs) if (m >> i) & 1])
                colour = refine(g)
                top = [v for v in range(n) if colour[v] == max(colour)]
                assert all(g.degree(v) == max(g.degrees()) for v in top), g.edges()

    def test_one_canonical_form_per_extension_orbit(self, monkeypatch):
        # only children whose new vertex lies in their top refinement class
        # are canonicalised: 1,253 canonical forms up to 7 vertices for 1,252
        # classes, against 5,758 with one child per orbit of Aut(parent) on
        # subsets and 11,290 with every subset
        calls = []
        real = minimal.canonical_key

        def spy(g, *args):
            calls.append(g.n)
            return real(g, *args)

        monkeypatch.setattr(minimal, "canonical_key", spy)
        monkeypatch.setattr(minimal, "_orders", cold_orders())
        pin_workers(monkeypatch, 1)  # the spy sees the calls of this process only
        assert len(minimal._classes(7)) == 1044
        assert len(calls) <= 1253

    def test_spent_budget_builds_no_order(self, monkeypatch):
        monkeypatch.setattr(minimal, "_orders", cold_orders())
        assert minimal._classes(4, Budget(nodes=0)) is None
        assert minimal._classes(1, Budget(nodes=0)) == (Graph.empty(1),)
        survey = degree_survey(Clique(3), 6, opts=Budget(nodes=0))
        report = distinguish(Clique(3), CliquePendant(3), 6, opts=Budget(nodes=0))
        for result in (survey, report):
            assert (result.complete, result.graphs_checked) == (False, 0)
        assert len(minimal._orders) == 2

    def test_order_cut_short_is_not_kept(self, monkeypatch):
        # the budget is spent at its k-th check, for every k until the scan
        # completes, wherever that check falls: in the chi floor's search,
        # before a graph, before a parent, or in the search of a graph the
        # scan yields (one check each here). Once spent, no order is built
        # further or kept, and the orders kept are whole
        keys_after = []
        real = minimal.canonical_key

        def spy(g, *args):
            if budget.orders_when_spent is not None:
                keys_after.append(g)
            return real(g, *args)

        monkeypatch.setattr(minimal, "canonical_key", spy)
        pin_workers(monkeypatch, 1)  # the budget counts the checks of this process only
        for checks in range(1, 1000):
            budget = CountingBudget(checks)
            monkeypatch.setattr(minimal, "_orders", cold_orders())
            result = minimal.DistinguishReport()
            for _ in minimal._candidates(Clique(2), 5, None, budget, result):
                budget.spent()
            if result.complete:
                break
            assert not keys_after, checks
            assert len(minimal._orders) == budget.orders_when_spent, checks
            assert minimal._orders == unfiltered_classes(len(minimal._orders) - 1)
            assert result.graphs_checked <= sum(len(order) for order in minimal._orders)
        assert result.complete and checks > 50 and result.graphs_checked == 52
        assert minimal._classes(5) == unfiltered_classes(5)[5]

    def test_no_duplicates(self):
        seen = set()
        for g in enumerate_graphs(5):
            key = canonical_key(g)
            assert key not in seen
            seen.add(key)

    def test_order_limit(self):
        with pytest.raises(InputError):
            list(enumerate_graphs(10))

    def test_golden_canonical_forms(self):
        # sha256 digests of the representatives and keys of all 1,252 graphs
        # on at most 7 vertices; record order and graph6 text depend on both
        graphs = list(enumerate_graphs(7))
        assert len(graphs) == 1252
        reps = "".join(f"{graph6_encode(g)}\n" for g in graphs)
        keys = "".join(f"{canonical_key(g)}\n" for g in graphs)
        assert hashlib.sha256(reps.encode()).hexdigest() == (
            "44505f1d443943cf70f428d474c6dd835391e62b6e82452d06fa742e5998c87d"
        )
        assert hashlib.sha256(keys.encode()).hexdigest() == (
            "931d1a1b2d484e9056fb669859fdcec61b941060929cdfd8d7e9561fd394161f"
        )


class OnlyInWorkers(Budget):
    """A budget spent in every process but the one that made it."""

    def __init__(self):
        super().__init__()
        self.caller = os.getpid()

    def spent(self) -> bool:
        return os.getpid() != self.caller


class TestEnumerationPool:
    @pytest.fixture(autouse=True)
    def bounded(self):
        with within(60):
            yield

    @pytest.fixture
    def serial(self, monkeypatch):
        """The orders up to 7, built in one process from cold."""
        monkeypatch.setattr(minimal, "_orders", cold_orders())
        pin_workers(monkeypatch, 1)
        minimal._classes(7)
        return minimal._orders

    @pytest.mark.parametrize("w", [1, 2, 3, 4])
    def test_orders_do_not_depend_on_the_worker_count(self, monkeypatch, serial, w):
        monkeypatch.setattr(minimal, "_orders", cold_orders())
        pin_workers(monkeypatch, w)
        assert minimal._classes(7) == serial[7]
        assert minimal._orders == serial
        assert_no_children()

    def test_budget_spent_in_a_worker_keeps_no_order(self, monkeypatch, serial):
        monkeypatch.setattr(minimal, "_orders", serial[:6])
        pin_workers(monkeypatch, 2)
        assert minimal._classes(6, Budget()) == serial[6]
        del minimal._orders[6]
        assert minimal._classes(6, OnlyInWorkers()) is None
        assert len(minimal._orders) == 6
        assert_no_children()
        assert minimal._classes(6) == serial[6]

    def test_budget_spent_in_the_caller_stops_the_workers(self, monkeypatch, serial):
        class OnlyInCaller(OnlyInWorkers):
            def spent(self) -> bool:
                return not super().spent()

        monkeypatch.setattr(minimal, "_orders", serial[:6])
        pin_workers(monkeypatch, 3)
        assert minimal._classes(6, OnlyInCaller()) is None
        assert len(minimal._orders) == 6
        assert_no_children()

    @pytest.mark.parametrize("raised", [ValueError("boom"), KeyboardInterrupt()])
    def test_error_in_a_worker_reaches_the_caller(self, monkeypatch, serial, raised):
        caller = os.getpid()
        real = minimal.refine

        def refine_failing_in_workers(g):
            if os.getpid() != caller:
                raise raised
            return real(g)

        monkeypatch.setattr(minimal, "_orders", serial[:6])
        monkeypatch.setattr(minimal, "refine", refine_failing_in_workers)
        pin_workers(monkeypatch, 2)
        with pytest.raises(RuntimeError, match=type(raised).__name__):
            minimal._classes(6)
        assert len(minimal._orders) == 6
        assert_no_children()

    def test_interrupt_in_the_caller_reaps_the_workers(self, monkeypatch, serial):
        caller = os.getpid()
        real = minimal.refine

        def refine_interrupted_in_caller(g):
            if os.getpid() == caller:
                raise KeyboardInterrupt
            return real(g)

        monkeypatch.setattr(minimal, "_orders", serial[:7])
        monkeypatch.setattr(minimal, "refine", refine_interrupted_in_caller)
        pin_workers(monkeypatch, 3)
        with pytest.raises(KeyboardInterrupt):
            minimal._classes(7)
        assert len(minimal._orders) == 7
        assert_no_children()

    def test_share_larger_than_a_pipe_buffer_arrives_whole(self, monkeypatch):
        # 300,000 keys marshal to about 1.5 MB, far past the 64 KB a pipe
        # holds: a caller that waits before it has read them all waits forever
        def share(parents, n, budget, caller=None):
            return set(range(parents[0], 300_000, 3))

        monkeypatch.setattr(minimal, "_share", share)
        assert minimal._keys([0, 1, 2], 8, None, 3) == set(range(300_000))
        assert_no_children()

    def test_busy_workers_are_killed_when_the_caller_stops(self, monkeypatch):
        caller = os.getpid()

        def share(parents, n, budget, caller_pid=None):
            if os.getpid() != caller:
                time.sleep(120)  # far longer than the test may wait
            return None

        monkeypatch.setattr(minimal, "_share", share)
        assert minimal._keys([0, 1, 2], 8, None, 3) is None
        assert_no_children()

    def test_shares_are_dealt_in_snake_order(self, monkeypatch):
        # each share sends its parents back as one mask, and checks in its
        # own process that they come in ascending order
        def share(parents, n, budget, caller=None):
            assert list(parents) == sorted(parents)
            return {mask_of(parents)} if parents else set()

        monkeypatch.setattr(minimal, "_share", share)
        for w in range(1, 5):
            snake = [*range(w), *range(w - 1, -1, -1)] * 41
            for count in range(41):
                dealt = [0] * w
                for j in range(count):
                    dealt[snake[j]] |= 1 << j
                masks = minimal._keys(list(range(count)), 8, None, w)
                assert masks == {m for m in dealt if m}, (w, count)
                sizes = [m.bit_count() for m in masks] + [0] * (w - len(masks))
                assert max(sizes) - min(sizes) <= 1, (w, count)
        assert_no_children()

    def test_share_stops_once_its_caller_is_gone(self):
        # a worker forked by `caller` sees another parent process once the
        # caller has exited; this process is not its own parent
        parents = minimal._classes(4)
        assert minimal._share(parents, 5, None, caller=os.getpid()) is None
        assert minimal._share(parents, 5, None, caller=os.getppid()) == minimal._share(parents, 5, None)

    @pytest.mark.parametrize(
        "parents, cpus, w",
        [
            (0, 1, 1),
            (0, 64, 1),
            (11, 2, 1),  # order 5: a fork costs more than the share saves
            (15, 64, 1),
            (16, 64, 1),
            (32, 64, 2),
            (34, 1, 1),
            (34, 2, 2),  # order 6
            (156, 1, 1),
            (156, 2, 2),  # order 7
            (156, 64, 9),
            (1044, 2, 2),  # order 8
            (1044, 64, 64),
        ],
    )
    def test_worker_count_rule(self, parents, cpus, w):
        assert minimal._worker_count(parents, cpus) == w

    def test_one_share_while_another_thread_runs(self):
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            assert minimal._workers(10**6) == 1
        finally:
            done.set()
            thread.join()


class TestIsMinimal:
    def test_k6_is_triangle_minimal(self):
        rep = is_minimal(Graph.complete(6), Clique(3))
        assert rep.decided and rep.is_ramsey and rep.is_minimal
        assert rep.failing_edge is None

    def test_k7_is_ramsey_but_not_minimal(self):
        rep = is_minimal(Graph.complete(7), Clique(3))
        assert rep.is_ramsey and not rep.is_minimal
        assert rep.failing_edge == (0, 1)

    def test_k5_is_not_ramsey(self):
        rep = is_minimal(Graph.complete(5), Clique(3))
        assert rep.decided and not rep.is_ramsey and not rep.is_minimal

    def test_isolated_vertex_blocks_minimality(self):
        g = Graph.disjoint_union([Graph.complete(6), Graph.empty(1)])
        rep = is_minimal(g, Clique(3))
        assert rep.is_ramsey and not rep.is_minimal
        assert rep.isolated_vertices == (6,)

    def test_undecided_propagates(self):
        rep = is_minimal(Graph.complete(6), Clique(3), Budget(nodes=3))
        assert not rep.decided


class TestTargetsWithIsolatedVertices:
    """Minimality drops isolated host vertices as never needed, which a
    target with an isolated vertex needs: K2 + K1 is Ramsey-minimal for
    K2 + K1, yet the K2 that minimalization would leave does not arrow it."""

    # each target with a host that arrows it and is Ramsey-minimal for it
    CASES = [
        (CliquePlusCliques(2, 1, 1), Graph.from_edges(3, [(0, 1)])),
        (Clique(1), Graph.empty(1)),
        (Arbitrary(Graph.from_edges(4, [(0, 1), (1, 2)])), Graph.from_edges(4, [(0, 1), (0, 2), (1, 2)])),
    ]
    IDS = ["K2+1K1", "K1", "P3+K1"]

    @pytest.mark.parametrize("p, host", CASES, ids=IDS)
    @pytest.mark.parametrize("check", [is_minimal, minimalize], ids=["is_minimal", "minimalize"])
    def test_minimality_rejects_the_target(self, check, p, host):
        assert arrows(host, p, p).outcome is Outcome.ARROW
        with pytest.raises(InputError, match="isolated vertex"):
            check(host, p)

    @pytest.mark.parametrize("p", [p for p, _ in CASES], ids=IDS)
    def test_survey_rejects_the_target(self, p):
        with pytest.raises(InputError, match="isolated vertex"):
            degree_survey(p, 4)


class TestMinimalize:
    def test_k6_stays_k6(self):
        out = minimalize(Graph.complete(6), Clique(3))
        assert out == Graph.complete(6)

    def test_single_edge(self):
        assert minimalize(Graph.complete(2), Clique(2)) == Graph.complete(2)

    def test_k7_reduces_to_a_minimal_graph(self):
        out = minimalize(Graph.complete(7), Clique(3))
        rep = is_minimal(out, Clique(3))
        assert rep.is_minimal

    def test_deterministic(self):
        a = minimalize(Graph.complete(7), Clique(3))
        b = minimalize(Graph.complete(7), Clique(3))
        assert a == b

    def test_requires_arrowing(self):
        with pytest.raises(InputError):
            minimalize(Graph.complete(5), Clique(3))

    def test_undecided_raises(self):
        with pytest.raises(Undecided):
            minimalize(Graph.complete(6), Clique(3), Budget(nodes=3))

    def test_g0_of_the_petersen_graph(self):
        # 13 vertices and 48 edges down to 8 vertices, 23 edges and δ = 5
        out = minimalize(build_g0(3, Graph.petersen()).graph, Clique(3))
        assert graph6_encode(out) == "G~zvvW"
        assert (out.num_edges, min(out.degrees())) == (23, 5)


def pendant_gadget() -> Graph:
    """The paper's k = 3 pendant gadget: 17 vertices, 50 edges, |Aut| = 200."""
    return build_pendant_gadget(3, [build_g0(3, Graph.cycle(5))] * 2).graph


class TestEdgeOrbits:
    @staticmethod
    def group_orbits(g):
        auts = automorphisms(g)
        return {frozenset(tuple(sorted((a[u], a[v]))) for a in auts) for u, v in g.edges()}

    @staticmethod
    def assert_ordered(orbits):
        assert all(orbit == sorted(orbit) for orbit in orbits)
        assert [orbit[0] for orbit in orbits] == sorted(orbit[0] for orbit in orbits)

    @pytest.mark.parametrize("g", [Graph.complete(n) for n in range(2, 7)] + [Graph.petersen()])
    def test_edge_transitive_graphs_have_one_orbit(self, g):
        orbits = edge_orbits(g)
        assert orbits == [g.edges()]
        assert {frozenset(o) for o in orbits} == self.group_orbits(g)

    def test_path(self):
        assert edge_orbits(Graph.path(4)) == [[(0, 1), (2, 3)], [(1, 2)]]

    def test_passed_deadline_gives_finer_orbits(self):
        # no generator is found once the deadline has passed: the orbits of
        # the trivial subgroup split the one orbit of the Petersen graph
        g = Graph.petersen()
        assert edge_orbits(g, deadline=-1.0) == [[e] for e in g.edges()]

    def test_pendant_gadget(self):
        g = pendant_gadget()
        orbits = edge_orbits(g)
        self.assert_ordered(orbits)
        assert {frozenset(o) for o in orbits} == self.group_orbits(g)

    def test_matches_brute_force(self):
        for g in labellings(5, seed=11):
            orbits = edge_orbits(g)
            self.assert_ordered(orbits)
            assert {frozenset(o) for o in orbits} == brute_edge_orbits(g)


class TestOrbitSharing:
    """``is_minimal`` and ``minimalize`` search one deletion per edge orbit
    and give what one search per edge gives."""

    @pytest.mark.parametrize("p", [Clique(3), CliquePendant(3)])
    def test_matches_per_edge_search(self, p):
        arrowing_graphs = 0
        for g in labellings(7, seed=12):
            rep = is_minimal(g, p)
            assert rep == per_edge_is_minimal(g, p)
            if rep.is_ramsey:
                arrowing_graphs += 1
                assert minimalize(g, p) == per_edge_minimalize(g, p)
        assert arrowing_graphs == {Clique(3): 16, CliquePendant(3): 6}[p]

    def test_pendant_gadget_counts(self, monkeypatch):
        full, rooted = [], []
        real = minimal.arrows

        def spy(g, red, blue, opts=None, *, root=None):
            verdict = real(g, red, blue, opts, root=root)
            (full if root is None else rooted).append(verdict.nodes)
            return verdict

        monkeypatch.setattr(minimal, "arrows", spy)
        out = minimalize(pendant_gadget(), CliquePendant(3))
        assert graph6_encode(out) == "P~~nNe??G@_F?N?M_FG@x_G?"
        # one full search per edge orbit at most; one per edge would be 51
        # calls. The full searches run on smallest-last relabellings: 411
        # nodes, and 3,146 on the gadget's own labelling; rooted searches
        # settle 5 deletions
        assert len(full) <= 6
        assert sum(full) <= 411
        assert len(rooted) == 9


class TestColouringReuse:
    """A deletion that a search rooted at the last good colouring settles
    gets no full search; the reports and graphs are those of one search per
    orbit, and every colouring the reuse builds is a good completion of its
    root."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The (graph, root, witness) triples of the rooted searches that
        settle a deletion, in order."""
        out = []
        real = minimal.arrows

        def spy(g, red, blue, opts=None, *, root=None):
            verdict = real(g, red, blue, opts, root=root)
            if root is not None and verdict.outcome is Outcome.NOT_ARROW:
                out.append((g, root, verdict.witness))
            return verdict

        monkeypatch.setattr(minimal, "arrows", spy)
        return out

    @staticmethod
    def assert_good(h, root, witness, p):
        assert witness.graph == h
        assert find_mono(witness, p, Colour.RED) is None
        assert find_mono(witness, p, Colour.BLUE) is None
        for fixed, colour in zip(root, (Colour.RED, Colour.BLUE)):
            cls = witness.class_adj(colour)
            assert all(f & ~c == 0 for f, c in zip(fixed, cls))

    def assert_matches_reference(self, g, p, built) -> int:
        """The number of deletions of ``g`` that rooted searches settle."""
        before = len(built)
        rep = is_minimal(g, p)
        assert rep == per_orbit_is_minimal(g, p)
        if rep.is_ramsey:
            assert minimalize(g, p) == per_orbit_minimalize(g, p)
        for h, root, witness in built[before:]:
            self.assert_good(h, root, witness, p)
        return len(built) - before

    @pytest.mark.parametrize("p", [Clique(3), CliquePendant(3), CliquePlusCliques(3, 1, 2)], ids=str)
    def test_matches_per_orbit_search(self, p, built):
        # a graph that arrows K3, K3·K2 or K3 + K2 needs chi >= R(3, 3) = 6:
        # the 97 graphs on 6 to 8 vertices that need 6 colours. On 6
        # vertices that is K6, with one edge orbit, so only the larger ones
        # reuse colourings
        hosts = [g for g in enumerate_graphs(8) if g.n >= 6 and not colourable(g, 5)]
        assert len(hosts) == 97
        cases_with_reuse = 0
        for g in hosts:
            cases_with_reuse += self.assert_matches_reference(g, p, built) > 0
        # hosts with a reuse, and deletions settled; the stored colourings
        # come from searches of smallest-last relabellings
        expected = {Clique(3): (3, 8), CliquePendant(3): (57, 133), CliquePlusCliques(3, 1, 2): (79, 172)}[p]
        assert (cases_with_reuse, len(built)) == expected

    @pytest.mark.parametrize(
        "host, p, reuses",
        [
            (pendant_gadget, CliquePendant(3), 6),
            (lambda: build_g0(3, Graph.petersen()).graph, Clique(3), 4),
        ],
        ids=["pendant", "g0-petersen"],
    )
    def test_gadgets_match_per_orbit_search(self, host, p, reuses, built):
        assert self.assert_matches_reference(host(), p, built) == reuses


class TestSmallestLastSearch:
    """Minimality checks search a smallest-last relabelling of the host and
    get the verdict of ``arrows`` and a good colouring of the host."""

    def test_order(self):
        for g in labellings(6, seed=21):
            order = minimal._smallest_last(g)
            assert sorted(order) == list(range(g.n))
            assert minimal._smallest_last(g) == order
            # each vertex has the least degree, then the least label, among
            # itself and the vertices before it
            for i, v in enumerate(order):
                before = order[: i + 1]
                degree = {w: sum(g.has_edge(w, x) for x in before) for w in before}
                assert v == min(before, key=lambda w: (degree[w], w))
        assert minimal._smallest_last(Graph.complete(5)) == [4, 3, 2, 1, 0]

    @pytest.mark.parametrize(
        "p", [Clique(3), CliquePendant(3), CliquePlusCliques(3, 1, 3)], ids=str
    )
    def test_matches_arrows(self, p):
        for g in labellings(6, seed=22):
            outcome, classes = minimal._search(g, p, Budget())
            assert outcome is arrows(g, p, p).outcome
            if outcome is not Outcome.NOT_ARROW:
                assert classes is None
                continue
            red, blue = classes
            assert all(r & b == 0 for r, b in zip(red, blue))
            assert [r | b for r, b in zip(red, blue)] == list(g.adj)
            c = EdgeColouring(
                g, tuple(Colour.RED if (red[u] >> v) & 1 else Colour.BLUE for u, v in g.edges())
            )
            assert find_mono(c, p, Colour.RED) is None
            assert find_mono(c, p, Colour.BLUE) is None


class TestDegreeSurvey:
    def test_single_edge_pattern(self):
        survey = degree_survey(Clique(2), 3)
        assert len(survey.records) == 1
        assert survey.records[0]["graph6"] == "A_"
        assert survey.min_delta == 1
        assert survey.complete

    def test_only_minimal_graph_for_k2_up_to_four_vertices(self):
        survey = degree_survey(Clique(2), 4)
        assert [r["graph6"] for r in survey.records] == ["A_"]

    def test_triangle_survey_finds_k6(self):
        survey = degree_survey(Clique(3), 6)
        assert [r["n"] for r in survey.records] == [6]
        assert survey.min_delta == 5
        assert survey.lower_bound == 3  # 2*delta(K3) - 1
        assert survey.min_delta >= 4  # the known exact value of s(K3) is a lower bound

    def test_records_revalidate(self):
        from ramseykit.arrowing import Outcome, arrows
        from ramseykit.formats import graph6_decode

        survey = degree_survey(Clique(3), 6)
        for rec in survey.records:
            g = graph6_decode(rec["graph6"])
            assert rec["delta"] >= 1
            assert min(g.degrees()) == rec["delta"]
            assert arrows(g, Clique(3), Clique(3)).outcome is Outcome.ARROW

    def test_json_lines_end_with_summary(self):
        survey = degree_survey(Clique(2), 3)
        lines = list(survey.iter_json_lines())
        assert len(lines) == 2
        assert '"summary": true' in lines[-1].replace('"summary":true', '"summary": true')

    def test_min_delta_is_the_least_record_delta(self):
        survey = minimal.DegreeSurvey(Clique(3), 8)
        assert survey.min_delta is None
        survey.records += [{"delta": 6}, {"delta": 5}, {"delta": 7}]
        assert survey.min_delta == 5

    def test_budget_marks_incomplete(self):
        survey = degree_survey(Clique(3), 6, opts=Budget(seconds=0))
        assert not survey.complete

    def test_undecided_graph_leaves_the_survey_incomplete(self, monkeypatch):
        # the first graph searched comes back undecided; the later ones are
        # still searched, and their records are those of the full survey
        p = CliquePendant(2)
        full = degree_survey(p, 6)
        searched = []
        real = minimal.is_minimal

        def first_undecided(g, p, budget):
            searched.append(g)
            report = real(g, p, budget)
            return replace(report, decided=False) if len(searched) == 1 else report

        monkeypatch.setattr(minimal, "is_minimal", first_undecided)
        survey = degree_survey(p, 6)
        assert not survey.complete
        first = graph6_encode(searched[0])
        assert survey.records == [r for r in full.records if r["graph6"] != first]
        assert [r["graph6"] for r in full.records] == ["Bw", "CF", "DLo"]
        assert survey.graphs_checked == full.graphs_checked == 208
        assert len(searched) == 151

    @pytest.mark.parametrize("r_value", [-4, 3])
    def test_r_value_below_the_lower_bound_is_an_input_error(self, r_value):
        # s(K3) >= 2*delta(K3) - 1 = 3 and s(H) <= r(H) - 1, so r(K3) >= 4
        with pytest.raises(InputError, match="below the lower bound"):
            degree_survey(Clique(3), 3, r_value=r_value)

    def test_r_value_sets_the_upper_bound(self):
        assert degree_survey(Clique(3), 3, r_value=4).upper_bound == 3
        assert degree_survey(Clique(3), 3, r_value=6).upper_bound == 5


class TestDistinguish:
    def test_edge_vs_triangle(self):
        rep = distinguish(Clique(2), Clique(3), 2)
        assert rep.graph is not None
        assert rep.graph.num_edges == 1

    def test_identical_patterns(self):
        rep = distinguish(Clique(3), Clique(3), 6)
        assert rep.graph is None and rep.complete

    def test_triangle_vs_pendant_small_range(self):
        # K6 arrows the triangle but not the pendant target, so it separates
        rep = distinguish(Clique(3), CliquePendant(3), 6)
        assert rep.graph is not None
        assert rep.graph.n == 6

    def test_undecided_search_leaves_the_scan_incomplete(self, monkeypatch):
        # the first search comes back undecided; the scan goes on and still
        # finds the pinned graph after the same 91 graphs
        searched = []
        real = minimal.arrows

        def first_undecided(g, red, blue, budget):
            searched.append(g)
            if len(searched) == 1:
                return arrowing.ArrowingVerdict(Outcome.UNDECIDED, None, 0, 0.0)
            return real(g, red, blue, budget)

        monkeypatch.setattr(minimal, "arrows", first_undecided)
        rep = distinguish(SCAN_TARGETS["K2+1K2"], SCAN_TARGETS["K2.K2"], 6)
        assert (graph6_encode(rep.graph), rep.complete, rep.graphs_checked) == ("E@Q?", False, 91)
        assert len(searched) > 2


# the targets of the scan and distinguish checks: every pattern shape with
# at most 2 + 2 * 2 vertices, and three arbitrary graphs
SCAN_TARGETS = {
    "K2": Clique(2),
    "K3": Clique(3),
    "K3.K2": CliquePendant(3),
    "K3+1K2": CliquePlusCliques(3, 1, 2),
    "K2+1K2": CliquePlusCliques(2, 1, 2),
    "K2+2K2": CliquePlusCliques(2, 2, 2),
    "K3+1K1": CliquePlusCliques(3, 1, 1),
    "K2.K2": CliquePendant(2),
    "P3": Arbitrary(Graph.path(3)),
    "C4": Arbitrary(Graph.cycle(4)),
    "P4": Arbitrary(Graph.path(4)),
}


class TestScan:
    """``_candidates`` counts every graph in range and drops only graphs
    that do not arrow the target."""

    @pytest.mark.parametrize("name", list(SCAN_TARGETS))
    def test_dropped_graphs_do_not_arrow(self, name):
        p = SCAN_TARGETS[name]
        result = minimal.DistinguishReport()
        kept = set(minimal._candidates(p, 6, None, Budget(), result))
        assert (result.complete, result.graphs_checked) == (True, 208)
        dropped = [g for g in enumerate_graphs(6) if g not in kept]
        assert dropped
        for g in dropped:
            assert arrows(g, p, p).outcome is Outcome.NOT_ARROW, g.edges()

    def test_drop_counts(self, monkeypatch):
        # K3.K2 to 7 vertices: 2e(H) - 1 = 7 edges, C(R(3, 3), 2) = 15 edges,
        # a copy of K3.K2, chi >= 6; the first rule that drops a graph counts
        # it, and the counts stay out of the reports' equality
        scanned = minimal.DegreeSurvey(CliquePendant(3), 7)
        kept = list(minimal._candidates(CliquePendant(3), 7, None, Budget(), scanned))
        assert len(kept) == 8 and scanned.graphs_checked == 1252
        checked, is_minimal = [], minimal.is_minimal

        def spy(g, *rest):
            checked.append(g)
            return is_minimal(g, *rest)

        monkeypatch.setattr(minimal, "is_minimal", spy)
        survey = degree_survey(CliquePendant(3), 7)
        # K3.K2 arrowing implies K3's, so distinguish scans every graph
        for result in (scanned, survey, distinguish(CliquePendant(3), Clique(3), 7)):
            counts = (result.dropped_sparse, result.dropped_chi_edges, result.dropped_no_copy, result.dropped_chi)
            assert counts == (179, 991, 0, 74)
            assert result == replace(result, dropped_sparse=0, dropped_chi_edges=0, dropped_no_copy=0, dropped_chi=0)
        # the survey alone drops a kept graph with an isolated vertex
        assert (scanned.dropped_isolated, survey.dropped_isolated) == (0, 1)
        assert (len(checked), len(survey.records)) == (7, 1)
        assert survey == replace(survey, dropped_isolated=0)

    def test_graphs_past_n_max_are_not_counted(self):
        result = minimal.DistinguishReport()
        graphs = [Graph.complete(6), Graph.complete(7), Graph.complete(2)]
        kept = list(minimal._candidates(Clique(3), 6, graphs, Budget(), result))
        assert kept == [Graph.complete(6)] and result.graphs_checked == 2


class TestDistinguishPinned:
    """``distinguish`` results on graphs with at most 6 vertices, pinned as
    graph6 of the separating graph, ``complete`` and ``graphs_checked``."""

    @pytest.mark.parametrize(
        "h1, h2, expected",
        [
            ("K3", "K3+1K2", ("E~~w", True, 208)),
            ("C4", "K3.K2", ("E~~w", True, 208)),
            ("K2+1K2", "K2.K2", ("E@Q?", True, 91)),
            ("K2+1K2", "K3", ("DLo", True, 41)),
            ("P4", "C4", ("DL{", True, 42)),
            ("P3", "K2+1K2", ("Bw", True, 7)),
            ("K2", "P4", ("A_", True, 3)),
            ("K3.K2", "K3", (None, True, 208)),
            ("K2+2K2", "K3+1K2", (None, True, 208)),
        ],
    )
    def test_pinned(self, h1, h2, expected):
        rep = distinguish(SCAN_TARGETS[h1], SCAN_TARGETS[h2], 6)
        assert (rep.graph and graph6_encode(rep.graph), rep.complete, rep.graphs_checked) == expected


class TestSharedBudget:
    """The caller's one ``Budget`` reaches every inner ``arrows`` call, and
    each call charges its nodes to it, so the limits cover the whole call."""

    @pytest.fixture
    def seen(self, monkeypatch):
        out = []
        real = minimal.arrows

        def spy(g, red, blue, opts=None, *, root=None):
            verdict = real(g, red, blue, opts, root=root)
            out.append((opts, verdict.nodes))
            return verdict

        monkeypatch.setattr(minimal, "arrows", spy)
        return out

    @staticmethod
    def assert_shared(seen, budget):
        assert seen and all(b is budget for b, _ in seen)

    def test_is_minimal(self, seen):
        budget = Budget(seconds=60, nodes=10**9)
        rep = is_minimal(Graph.complete(6), Clique(3), budget)
        assert rep.is_minimal and len(seen) == 2  # K6, then one edge of its one edge orbit
        self.assert_shared(seen, budget)

    def test_minimalize(self, seen):
        budget = Budget(seconds=60, nodes=10**9)
        minimalize(Graph.complete(7), Clique(3), budget)
        assert len(seen) > 2
        self.assert_shared(seen, budget)

    def test_survey_and_distinguish(self, seen):
        budget = Budget(seconds=60, nodes=10**9)
        degree_survey(Clique(3), 6, opts=budget)
        self.assert_shared(seen, budget)
        seen.clear()
        distinguish(Clique(3), CliquePendant(3), 6, opts=budget)
        self.assert_shared(seen, budget)

    def test_node_cap_covers_all_calls(self, seen):
        # K6 takes 13 nodes and K6 - e 9: each call fits in 20, both do not
        rep = is_minimal(Graph.complete(6), Clique(3), Budget(nodes=20))
        assert not rep.decided
        assert len(seen) > 1
        assert sum(nodes for _, nodes in seen) <= 20

    def test_edge_orbits_share_the_deadline(self, monkeypatch):
        deadlines = []
        real = minimal.edge_orbits

        def spy(g, deadline=None):
            deadlines.append(deadline)
            return real(g, deadline)

        monkeypatch.setattr(minimal, "edge_orbits", spy)
        budget = Budget(seconds=600)
        # K6 - e does not arrow K3, so its one orbit is computed; K7 - e
        # would arrow, and is_minimal would stop before any orbit
        is_minimal(Graph.complete(6), Clique(3), budget)
        assert len(deadlines) == 1
        minimalize(Graph.complete(7), Clique(3), budget)
        assert len(deadlines) > 1
        assert all(d == budget.deadline for d in deadlines)

    def test_deadline_stops_the_orbit_generators(self, monkeypatch):
        # a minimal Ramsey graph of K3.K2 on 8 vertices: its first edge
        # deletion does not arrow, so the orbits are computed, and their
        # generators take 9 backtrack steps; a fake clock passes the
        # deadline at the first step, which stops the orbit computation
        # there and leaves the next search undecided
        g = graph6_decode("G@lz~{")
        assert is_minimal(g, CliquePendant(3)).is_minimal
        now = [0.0]
        clock = SimpleNamespace(monotonic=lambda: now[0])
        monkeypatch.setattr(arrowing, "time", clock)
        monkeypatch.setattr(symmetry, "time", clock)
        in_orbits = [False]
        steps = [0]
        real_orbits, real_map_rest = minimal.edge_orbits, symmetry._map_rest

        def orbits(h, deadline=None):
            in_orbits[0] = True
            return real_orbits(h, deadline)

        def map_rest_that_uses_up_the_time(*args):
            if in_orbits[0]:
                steps[0] += 1
                now[0] = 601.0
            return real_map_rest(*args)

        monkeypatch.setattr(minimal, "edge_orbits", orbits)
        monkeypatch.setattr(symmetry, "_map_rest", map_rest_that_uses_up_the_time)
        rep = is_minimal(g, CliquePendant(3), Budget(seconds=600))
        assert rep.is_ramsey and not rep.decided
        assert steps[0] == 1

    def test_spent_budget_is_undecided(self):
        spent = Budget(seconds=0)
        assert not is_minimal(Graph.complete(6), Clique(3), spent).decided
        with pytest.raises(Undecided):
            minimalize(Graph.complete(7), Clique(3), spent)
        assert not distinguish(Clique(3), CliquePendant(3), 6, opts=spent).complete


class TestChromaticPrefilter:
    """Surveys and ``distinguish`` skip a graph G with chi(G) < R(w, w),
    w = omega(H): such a G never arrows H (Burr, Erdős & Lovász)."""

    def test_rule_agrees_with_search(self):
        r = ramsey_number(Clique(3), Clique(3)).n
        assert r == 6
        skipped = 0
        for g in enumerate_graphs(7):
            if colourable(g, r - 1):
                skipped += 1
                for p in (Clique(3), CliquePendant(3)):
                    assert arrows(g, p, p).outcome is Outcome.NOT_ARROW, g.edges()
        assert skipped == 1244  # all but the 8 graphs with chi >= 6

    def test_edge_count_rule(self):
        # chi(G) >= k needs C(k, 2) edges: a graph with fewer is
        # (k - 1)-colourable, and K_k, with exactly C(k, 2), is not
        graphs = list(enumerate_graphs(7))
        for k in range(1, 9):
            bound = minimal._chromatic_edges(k)
            assert Graph.complete(k).num_edges == bound and not colourable(Graph.complete(k), k - 1)
            for g in graphs:
                if g.num_edges < bound:
                    assert colourable(g, k - 1), (k, g.edges())

    def test_filter_on_and_off_agree(self, monkeypatch):
        runs = {}
        for on in (True, False):
            if not on:
                # every graph with a vertex has chi >= 1, so neither the edge
                # count nor the colouring half of the chi rule drops a graph
                monkeypatch.setattr(minimal, "_chromatic_floor", lambda p, n_max, budget: 1)
            surveys = [degree_survey(p, 7) for p in (Clique(3), CliquePendant(3))]
            assert all(bool(s.dropped_chi_edges and s.dropped_chi) == on for s in surveys)
            runs[on] = (
                [list(s.iter_json_lines()) for s in surveys],
                distinguish(Clique(3), CliquePendant(3), 6),
                distinguish(Clique(2), Clique(3), 3),
            )
        assert runs[True] == runs[False]

    def test_filter_skips_searches(self, monkeypatch):
        calls = []
        real = minimal.is_minimal

        def spy(g, p, opts=None):
            calls.append(g)
            return real(g, p, opts)

        monkeypatch.setattr(minimal, "is_minimal", spy)
        survey = degree_survey(CliquePendant(3), 7)
        assert survey.graphs_checked == 1252
        assert len(calls) == 7  # the graphs on <= 7 vertices with chi >= 6 and a K3.K2

    def test_degree_check_still_fires(self, monkeypatch):
        # K6 plus a pendant vertex has chi = 6, so it passes the filter; called
        # minimal, its delta = 1 is below the bound 2 * delta(K3) - 1 = 3
        def every_graph_minimal(g, p, opts=None):
            return MinimalityReport(g, p, True, True, None, ())

        monkeypatch.setattr(minimal, "is_minimal", every_graph_minimal)
        with pytest.raises(RuntimeError, match="below the lower bound"):
            degree_survey(Clique(3), 7)

    def test_ramsey_number_shares_the_budget(self, monkeypatch):
        hosts = []
        real = arrowing.arrows

        def spy(g, red, blue, opts=None):
            hosts.append((g, opts))
            return real(g, red, blue, opts)

        monkeypatch.setattr(arrowing, "arrows", spy)
        for run in (
            lambda budget: degree_survey(CliquePendant(3), 6, opts=budget),
            lambda budget: distinguish(CliquePendant(3), Clique(3), 6, opts=budget),
        ):
            hosts.clear()
            budget = Budget(seconds=60, nodes=10**9)
            run(budget)
            assert [g.n for g, _ in hosts] == [3, 4, 5, 6]  # R(3, 3) = 6 from K3 up
            assert all(g == Graph.complete(g.n) and b is budget for g, b in hosts)

    def test_ramsey_number_stops_at_the_survey_order(self):
        # R(4, 4) = 18 is out of reach; the complete graphs up to K_nmax show
        # that no graph in range arrows K4, and every one is skipped
        survey = degree_survey(Clique(4), 6, opts=Budget(seconds=60))
        assert survey.complete and not survey.records
        r = ramsey_number(Clique(4), Clique(4), n_max=6)
        assert (r.n, r.decided, r.checked_up_to) == (None, False, 6)

    def test_undecided_ramsey_number_leaves_the_survey_incomplete(self):
        assert not ramsey_number(Clique(3), Clique(3), Budget(nodes=1)).decided
        survey = degree_survey(Clique(3), 6, opts=Budget(nodes=1))
        assert not survey.complete
        assert survey.graphs_checked == 0 and not survey.records
