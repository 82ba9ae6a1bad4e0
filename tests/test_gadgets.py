import dataclasses
import math
from fractions import Fraction
from itertools import combinations

import pytest

from ramseykit import gadgets
from ramseykit.arrowing import Budget, find_mono
from ramseykit.errors import InfeasibleError, InputError, Undecided
from ramseykit.gadgets import (
    ColouringKind,
    GadgetParams,
    assemble_product,
    blockgraph_from_json,
    blockgraph_to_json,
    build_g0,
    build_pendant_gadget,
    build_product,
    canonical_colouring,
    colouring_checks,
    gen_hypergraph,
    plant_copies,
    schedule_params,
)
from ramseykit.graphs import (
    Graph,
    Hypergraph,
    clique_number,
    hyper_alpha,
    hyper_girth,
)
from ramseykit.patterns import Clique, CliquePendant, Colour

FANO = Hypergraph.from_edges(
    7, 3, [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]
)


class TestScheduleParams:
    def test_reduced_instance(self):
        p = schedule_params(4, 3, 4, [5] * 5)
        assert p.h == 7
        assert p.f == 2
        assert p.eps0 == Fraction(1, 256)

    def test_k5_instance(self):
        p = schedule_params(5, 3, 14, [5] * 5)
        assert p.h == 18
        assert p.f == 5
        assert p.eps0 == Fraction(1, 2**19)

    def test_first_shrink_factor_has_empty_prefix_sum(self):
        p = schedule_params(4, 3, 4, [5] * 5)
        assert p.eps_schedule[0] == Fraction(1, 2**11)

    def test_prefix_sums_accumulate(self):
        p = schedule_params(4, 3, 4, [2, 3, 4])
        # j=2: h + n0 - 2 + v(F_1) = 7 + 1 + 2 = 10
        assert p.eps_schedule[1] == Fraction(1, 2**10)
        # j=3: 7 + 0 + 5 = 12
        assert p.eps_schedule[2] == Fraction(1, 2**12)

    def test_requires_k_above_t(self):
        with pytest.raises(InputError):
            schedule_params(3, 3, 4, [5])

    def test_computes_a_missing_r_value(self):
        # R(K4, K2) = 4
        p = schedule_params(4, 3, None, [5] * 5)
        assert (p.r_value, p.r_source) == (4, "computed")
        assert p == dataclasses.replace(schedule_params(4, 3, 4, [5] * 5), r_source="computed")

    def test_checks_k_and_t_before_computing_r_value(self, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("R(K_k, K_{k-t+1}) computed for an invalid pair")

        monkeypatch.setattr(gadgets, "ramsey_number", no_search)
        with pytest.raises(InputError):
            schedule_params(5, 2, None, [5] * 5)

    def test_undecided_r_value(self):
        with pytest.raises(Undecided):
            schedule_params(4, 3, None, [5] * 5, Budget(nodes=0))

    def test_exactness(self):
        p = schedule_params(6, 4, 10, [9] * 4)
        for eps in p.eps_schedule:
            assert eps.numerator == 1
            assert eps > 0


class TestGenHypergraph:
    def test_weakest_constraints(self):
        h = gen_hypergraph(3, 2, 1, 6, seed=5)
        assert h.num_edges >= 1
        assert hyper_alpha(h) < 6

    def test_verified_postconditions(self):
        h = gen_hypergraph(3, 4, Fraction(4, 5), 15, seed=1)
        assert hyper_girth(h) >= 4
        assert hyper_alpha(h) < Fraction(4, 5) * 15

    def test_eps_out_of_range(self):
        for eps in (0, Fraction(3, 2)):
            with pytest.raises(InputError, match=r"eps must lie in \(0, 1\]"):
                gen_hypergraph(3, 2, eps, 6, seed=5)

    def test_documented_infeasible_set(self):
        with pytest.raises(InfeasibleError):
            gen_hypergraph(3, 6, Fraction(1, 10), 9, seed=1)

    def test_deterministic_per_seed(self):
        a = gen_hypergraph(3, 4, Fraction(4, 5), 15, seed=9)
        b = gen_hypergraph(3, 4, Fraction(4, 5), 15, seed=9)
        assert a == b

    def test_retry_cap_exhaustion_reports_attempts(self):
        # impossible but not caught by the precheck: needs alpha < 4 with girth 6
        with pytest.raises(InfeasibleError) as err:
            gen_hypergraph(3, 6, Fraction(2, 5), 10, seed=0, retry_cap=5)
        assert err.value.attempts == 5


class TestPlantCopies:
    def test_single_hyperedge_path(self):
        hg = Hypergraph.from_edges(3, 3, [(0, 1, 2)])
        out = plant_copies(Graph.path(3), hg)
        assert out.edges() == [(0, 1), (1, 2)]

    def test_fano_triangles(self):
        out = plant_copies(Graph.complete(3), FANO)
        assert out.num_edges == 21  # 7 lines, pairwise sharing at most one point

    def test_edge_count_forced_when_linear(self):
        h = gen_hypergraph(3, 3, Fraction(9, 10), 12, seed=4)
        block = Graph.path(3)
        out = plant_copies(block, h)
        assert out.num_edges == h.num_edges * block.num_edges

    def test_triangles_confined_when_girth_at_least_four(self):
        h = gen_hypergraph(3, 4, Fraction(4, 5), 15, seed=1)
        out = plant_copies(Graph.complete(3), h)
        triangles = [
            tri
            for tri in combinations(range(out.n), 3)
            if all(out.has_edge(u, v) for u, v in combinations(tri, 2))
        ]
        for tri in triangles:
            assert any(set(tri) <= set(e) for e in h.edges)

    def test_arity_mismatch(self):
        with pytest.raises(InputError):
            plant_copies(Graph.path(4), FANO)

    def test_ascending_label_placement(self):
        hg = Hypergraph.from_edges(6, 3, [(1, 3, 5)])
        out = plant_copies(Graph.path(3), hg)  # path edges (0,1), (1,2)
        assert out.edges() == [(1, 3), (3, 5)]


class TestBuildG0:
    def test_k2_is_single_edge(self):
        bg = build_g0(2)
        assert bg.graph == Graph.from_edges(2, [(0, 1)])

    def test_k3_with_c5(self):
        bg = build_g0(3, Graph.cycle(5))
        assert bg.graph.n == 8
        assert bg.graph.num_edges == 23  # 5 block + 3 clique + 15 join
        assert bg.block("H") == (0, 1, 2)
        assert bg.block("F1") == (3, 4, 5, 6, 7)

    def test_k4_with_c5(self):
        bg = build_g0(4, Graph.cycle(5))
        # K4 part, two C5 copies, complete joins between all three parts
        assert bg.graph.n == 14
        assert bg.graph.num_edges == 6 + 2 * 5 + 25 + 2 * 20

    def test_clique_precondition(self):
        with pytest.raises(InputError):
            build_g0(3, Graph.complete(3))

    def test_blue_side_is_multipartite(self):
        bg = build_g0(4, Graph.cycle(5))
        chi = canonical_colouring(ColouringKind.G0_PROP1, bg)
        # blue edges run between the k-1 parts only, so the blue clique
        # number is at most k-1
        assert clique_number(chi.subgraph(Colour.BLUE)) <= 3

    def test_reproducible(self):
        a = build_g0(3, Graph.cycle(5))
        b = build_g0(3, Graph.cycle(5))
        assert a.graph == b.graph and a.blocks == b.blocks


class TestPendantGadget:
    def make(self, k=3):
        return build_pendant_gadget(k, [build_g0(k, Graph.cycle(5))] * (k - 1))

    def test_vertex_and_edge_counts(self):
        bg = self.make()
        assert bg.graph.n == 17
        assert bg.graph.num_edges == 50  # 23 + 23 + 1 clique + 1 extra + 2 pendant

    def test_pendant_degree(self):
        for k in (3, 4):
            bg = build_pendant_gadget(k, [build_g0(k, Graph.cycle(5))] * (k - 1))
            assert bg.graph.degree(bg.special["v"]) == k - 1

    def test_vk_differs_from_v2_inside_second_h_block(self):
        bg = self.make()
        vk = bg.special["vk"]
        v2 = bg.special["v2"]
        assert vk != v2
        assert vk in bg.block("G2.H")
        assert bg.graph.has_edge(bg.special["v1"], vk)

    def test_wrong_copy_count(self):
        with pytest.raises(InputError):
            build_pendant_gadget(3, [build_g0(3, Graph.cycle(5))])

    def test_needs_h_blocks(self):
        params = schedule_params(4, 3, 4, [5] * 5)
        prod = build_product(params, Graph.cycle(5), [Graph.cycle(5)] * 5)
        with pytest.raises(InputError):
            build_pendant_gadget(3, [prod, prod])


class TestProduct:
    def params(self):
        return schedule_params(4, 3, 4, [5] * 5)

    def test_vertex_count_forced(self):
        bg = build_product(self.params(), Graph.cycle(5), [Graph.cycle(5)] * 5)
        assert bg.graph.n == 7 + 25

    def test_template_adjacency_mirrors_blocks(self):
        g, blocks = assemble_product(3, Graph.cycle(4), [Graph.complete(2)] * 4)
        # blocks joined exactly when their template vertices are adjacent
        for i, j in combinations(range(4), 2):
            joined = all(
                g.has_edge(u, v)
                for u in blocks[f"V{i + 1}"]
                for v in blocks[f"V{j + 1}"]
            )
            expected = Graph.cycle(4).has_edge(i, j)
            assert joined == expected

    def test_edges_rederived_from_block_metadata(self):
        params = self.params()
        template = Graph.cycle(5)
        fs = [Graph.cycle(5)] * 5
        bg = build_product(params, template, fs)
        expected = set()
        vh = bg.block("V_H")
        for u, v in combinations(vh, 2):
            expected.add((u, v))
        for j in range(1, 6):
            block = bg.block(f"V{j}")
            for a, b in fs[j - 1].edges():
                expected.add(tuple(sorted((block[a], block[b]))))
            for u in vh:
                for w in block:
                    expected.add(tuple(sorted((u, w))))
        for i, j in template.edges():
            for u in bg.block(f"V{i + 1}"):
                for w in bg.block(f"V{j + 1}"):
                    expected.add(tuple(sorted((u, w))))
        assert set(bg.graph.edges()) == expected

    def test_template_clique_precondition(self):
        with pytest.raises(InputError):
            build_product(self.params(), Graph.complete(5), [Graph.cycle(5)] * 5)

    def test_block_clique_precondition(self):
        chorded = Graph.from_edges(5, Graph.cycle(5).edges() + [(0, 2)])
        fs = [Graph.cycle(5)] * 4 + [chorded]
        with pytest.raises(InputError) as err:
            build_product(self.params(), Graph.cycle(5), fs)
        assert "block 5" in str(err.value)

    def test_sidecar_round_trip(self):
        bg = build_product(self.params(), Graph.cycle(5), [Graph.cycle(5)] * 5)
        again = blockgraph_from_json(blockgraph_to_json(bg))
        assert again.graph == bg.graph
        assert again.blocks == bg.blocks
        assert again.params == bg.params
        assert again.g0 == bg.g0

    def test_sidecar_bytes_reproducible(self):
        a = build_product(self.params(), Graph.cycle(5), [Graph.cycle(5)] * 5)
        b = build_product(self.params(), Graph.cycle(5), [Graph.cycle(5)] * 5)
        assert blockgraph_to_json(a) == blockgraph_to_json(b)

    def test_params_round_trip_keeps_the_source(self):
        p = dataclasses.replace(self.params(), r_source="computed")
        assert GadgetParams.from_json_dict(p.to_json_dict()) == p

    @pytest.mark.parametrize(
        "key, value",
        [("h", 3), ("f", 99), ("eps0", "1/2"), ("eps_schedule", ["1/2"] * 5), ("eps_schedule", [])],
    )
    def test_derived_keys_must_agree(self, key, value):
        d = self.params().to_json_dict()
        d[key] = value
        with pytest.raises(InputError, match="disagree"):
            GadgetParams.from_json_dict(d)

    @pytest.mark.parametrize("r_value", [None, "4", 4.0, True, 1])
    def test_loading_never_computes_r_value(self, monkeypatch, r_value):
        def no_search(*args, **kwargs):
            raise AssertionError("R(K_k, K_{k-t+1}) computed while loading")

        monkeypatch.setattr(gadgets, "ramsey_number", no_search)
        d = self.params().to_json_dict()
        d["r_value"] = r_value
        with pytest.raises(InputError, match="r_value"):
            GadgetParams.from_json_dict(d)

    def test_loading_checks_the_inputs(self):
        d = self.params().to_json_dict()
        d["t"] = 4  # k > t fails before any derived key is compared
        with pytest.raises(InputError, match="k > t"):
            GadgetParams.from_json_dict(d)


class TestCanonicalColourings:
    def test_g0_prop1_checks(self):
        bg = build_g0(3, Graph.cycle(5))
        chi = canonical_colouring(ColouringKind.G0_PROP1, bg)
        checks = colouring_checks(ColouringKind.G0_PROP1, bg, chi)
        assert checks == {"no_red_pendant_clique": True, "no_blue_clique": True}

    def test_g0_prop1_red_is_intra_block(self):
        bg = build_g0(3, Graph.cycle(5))
        chi = canonical_colouring(ColouringKind.G0_PROP1, bg)
        h = set(bg.block("H"))
        f1 = set(bg.block("F1"))
        for (u, v), col in zip(chi.graph.edges(), chi.colours):
            same = ({u, v} <= h) or ({u, v} <= f1)
            assert col is (Colour.RED if same else Colour.BLUE)

    def test_g2_checks_on_reduced_instance(self):
        params = schedule_params(4, 3, 4, [5] * 5)
        bg = build_product(params, Graph.cycle(5), [Graph.cycle(5)] * 5)
        chi = canonical_colouring(ColouringKind.G2, bg)
        checks = colouring_checks(ColouringKind.G2, bg, chi)
        assert checks["blue_clique_number"] == 3
        assert checks["no_red_target"] and checks["no_blue_target"]

    def test_lemma7_checks(self):
        bg = build_pendant_gadget(3, [build_g0(3, Graph.cycle(5))] * 2)
        chi = canonical_colouring(ColouringKind.LEMMA7_MINUS_V, bg)
        assert chi.graph.n == bg.graph.n - 1  # pendant vertex removed
        checks = colouring_checks(ColouringKind.LEMMA7_MINUS_V, bg, chi)
        assert checks == {
            "no_red_pendant_clique": True,
            "no_blue_pendant_clique": True,
        }

    def test_kind_provenance_mismatch(self):
        bg = build_g0(3, Graph.cycle(5))
        with pytest.raises(InputError):
            canonical_colouring(ColouringKind.G2, bg)

    def test_k2_gadget_colouring(self):
        bg = build_g0(2)
        chi = canonical_colouring(ColouringKind.G0_PROP1, bg)
        assert chi.colours == (Colour.RED,)
        assert find_mono(chi, CliquePendant(2), Colour.RED) is None
        assert find_mono(chi, Clique(2), Colour.BLUE) is None
