import random
from itertools import combinations

import pytest

from ramseykit.arrowing import Outcome, arrows, find_mono
from ramseykit.cnf import decode_model, solve_cnf, to_cnf, to_dimacs
from ramseykit.errors import InputError
from ramseykit.graphs import Graph
from ramseykit.patterns import Arbitrary, Clique, CliquePendant, CliquePlusCliques, Colour


class TestEncoding:
    def test_k6_triangle_counts(self):
        inst = to_cnf(Graph.complete(6), Clique(3), Clique(3))
        assert inst.num_vars == 15
        assert len(inst.clauses) == 40  # one clause per triangle per colour

    def test_variable_order_is_edge_order(self):
        # variable i + 1 is the i-th edge of g.edges(): setting it alone
        # true reds exactly that edge
        g = Graph.cycle(5)
        inst = to_cnf(g, Clique(3), Clique(3))
        for i, edge in enumerate(g.edges()):
            chi = decode_model(inst, {x: x == i + 1 for x in range(1, inst.num_vars + 1)})
            assert [e for e, c in zip(g.edges(), chi.colours) if c is Colour.RED] == [edge]
        # and the triangle 0, 1, 2 of K4 is the clause over edges 01, 02, 12
        assert to_cnf(Graph.complete(4), Clique(3), Clique(3)).clauses[0] == (-1, -2, -4)

    def test_red_clauses_negative_blue_positive(self):
        inst = to_cnf(Graph.complete(3), Clique(3), Clique(3))
        assert inst.clauses == ((-1, -2, -3), (1, 2, 3))

    def test_every_target_exports(self):
        # K3 + 1K3 and the path P3 export, and the solver agrees with the search
        for g in (Graph.complete(5), Graph.complete(6), Graph.cycle(6)):
            for red, blue in (
                (Clique(3), Arbitrary(Graph.path(3))),
                (CliquePlusCliques(3, 1, 3), Clique(3)),
                (CliquePlusCliques(2, 1, 2), Arbitrary(Graph.cycle(4))),
            ):
                sat = solve_cnf(to_cnf(g, red, blue)) is not None
                assert sat is (arrows(g, red, blue).outcome is Outcome.NOT_ARROW)

    def test_pendant_literals_ascend(self):
        # K3.K2 on the triangle 0 1 2 with 3 hanging on 0: edges 01, 02, 03,
        # 12 are variables 1 to 4; the pendant edge 03 sits in the middle
        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
        inst = to_cnf(g, CliquePendant(3), Clique(4))
        assert inst.clauses == ((-1, -2, -3, -4),)

    def test_duplicate_edge_sets_keep_their_clauses(self):
        # the path 1 0 2 is K2.K2 twice: clique 01 with pendant 2 and clique
        # 02 with pendant 1
        inst = to_cnf(Graph.from_edges(3, [(0, 1), (0, 2)]), CliquePendant(2), Clique(3))
        assert inst.clauses == ((-1, -2), (-1, -2))

    def test_dimacs_layout(self):
        inst = to_cnf(Graph.complete(3), Clique(3), Clique(3))
        assert to_dimacs(inst) == "p cnf 3 2\n-1 -2 -3 0\n1 2 3 0\n"


class TestSolving:
    def test_k6_unsat(self):
        assert solve_cnf(to_cnf(Graph.complete(6), Clique(3), Clique(3))) is None

    def test_k5_sat_and_model_decodes_to_witness(self):
        inst = to_cnf(Graph.complete(5), Clique(3), Clique(3))
        model = solve_cnf(inst)
        assert model is not None
        chi = decode_model(inst, model)
        assert find_mono(chi, Clique(3), Colour.RED) is None
        assert find_mono(chi, Clique(3), Colour.BLUE) is None

    def test_agreement_with_search(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randint(3, 7)
            pairs = [e for e in combinations(range(n), 2) if rng.random() < 0.6]
            g = Graph.from_edges(n, pairs)
            for red, blue in ((Clique(3), Clique(3)), (Clique(3), CliquePendant(3))):
                inst = to_cnf(g, red, blue)
                sat = solve_cnf(inst) is not None
                verdict = arrows(g, red, blue).outcome
                assert sat == (verdict is Outcome.NOT_ARROW)


class TestDecoding:
    def test_all_true_is_all_red(self):
        inst = to_cnf(Graph.complete(3), Clique(3), Clique(3))
        chi = decode_model(inst, {1: True, 2: True, 3: True})
        assert all(c is Colour.RED for c in chi.colours)

    def test_all_false_is_all_blue(self):
        inst = to_cnf(Graph.complete(3), Clique(3), Clique(3))
        chi = decode_model(inst, {1: False, 2: False, 3: False})
        assert all(c is Colour.BLUE for c in chi.colours)

    def test_partial_assignment_rejected(self):
        inst = to_cnf(Graph.complete(3), Clique(3), Clique(3))
        with pytest.raises(InputError):
            decode_model(inst, {1: True})
