import dataclasses
import random
from math import ceil

import pytest

from ramseykit.errors import InputError
from ramseykit import focusing
from ramseykit.focusing import (
    BipartiteColouring,
    FocusBlock,
    FocusFailure,
    FocusReport,
    focus_block,
    focus_rows,
    iterated_focus,
    report_from_json,
    report_to_json,
    verify_focus_report,
)
from ramseykit.gadgets import (
    ColouringKind,
    build_g0,
    build_product,
    canonical_colouring,
    schedule_params,
)
from ramseykit.graphs import Graph
from ramseykit.patterns import Colour, EdgeColouring


def constant_bipartite(a, b, colour):
    return BipartiteColouring.from_mapping(
        a, b, {(x, y): colour for x in a for y in b}
    )


def random_bipartite(a_size, b_size, rng):
    a = tuple(range(a_size))
    b = tuple(range(a_size, a_size + b_size))
    return BipartiteColouring.from_mapping(
        a,
        b,
        {
            (x, y): Colour.RED if rng.random() < 0.5 else Colour.BLUE
            for x in a
            for y in b
        },
    )


def reduced_instance():
    params = schedule_params(4, 3, 4, [5] * 5)
    bg = build_product(params, Graph.cycle(5), [Graph.cycle(5)] * 5)
    return bg, canonical_colouring(ColouringKind.G2, bg)


class TestBipartiteColouring:
    @pytest.mark.parametrize(
        "a, b, colours, message",
        [
            ((0, 1), (1, 2), (Colour.RED,) * 4, "disjoint"),
            ((1, 0), (2, 3), (Colour.RED,) * 4, "sorted"),
            ((0, 1), (3, 2), (Colour.RED,) * 4, "sorted"),
            ((0, 1), (2, 3), (Colour.RED,) * 3, "all pairs"),
        ],
        ids=["overlapping", "unsorted-a", "unsorted-b", "wrong-count"],
    )
    def test_malformed_sides_and_colours(self, a, b, colours, message):
        with pytest.raises(InputError, match=message):
            BipartiteColouring(a, b, colours)

    def test_pair_missing_from_the_mapping(self):
        mapping = {(0, 2): Colour.RED, (0, 3): Colour.BLUE, (1, 2): Colour.RED}
        with pytest.raises(InputError, match=r"pair \(1, 3\) missing"):
            BipartiteColouring.from_mapping((0, 1), (2, 3), mapping)

    def test_mapping_keyed_b_then_a(self):
        forward = {(0, 2): Colour.RED, (0, 3): Colour.BLUE, (1, 2): Colour.BLUE, (1, 3): Colour.RED}
        backward = {(y, x): c for (x, y), c in forward.items()}
        bc = BipartiteColouring.from_mapping((1, 0), (3, 2), backward)
        assert bc == BipartiteColouring.from_mapping((0, 1), (2, 3), forward)
        assert bc.colours == (Colour.RED, Colour.BLUE, Colour.BLUE, Colour.RED)

    def test_between_needs_every_pair_to_be_an_edge(self):
        chi = EdgeColouring.constant(Graph.path(3), Colour.RED)
        assert BipartiteColouring.between(chi, (1,), (0, 2)).colours == (Colour.RED,) * 2
        with pytest.raises(InputError, match=r"\(0, 2\) is not an edge"):
            BipartiteColouring.between(chi, (0,), (1, 2))


class TestFocusRows:
    def test_all_red(self):
        bc = constant_bipartite((0, 1), (2, 3, 4, 5), Colour.RED)
        rows = focus_rows(bc)
        assert rows.b_prime == (2, 3, 4, 5)
        assert all(c is Colour.RED for c in rows.row_colours.values())

    def test_single_row_majority(self):
        mapping = {(0, b): Colour.RED for b in (1, 2, 3)}
        mapping.update({(0, b): Colour.BLUE for b in (4, 5)})
        bc = BipartiteColouring.from_mapping((0,), (1, 2, 3, 4, 5), mapping)
        rows = focus_rows(bc)
        assert rows.b_prime == (1, 2, 3)
        assert rows.row_colours[0] is Colour.RED

    def test_all_patterns_distinct_leaves_one(self):
        a = (0, 1, 2)
        b = tuple(range(3, 11))
        mapping = {}
        for j, y in enumerate(b):
            for i, x in enumerate(a):
                bit = (j >> (2 - i)) & 1
                mapping[(x, y)] = Colour.BLUE if bit else Colour.RED
        rows = focus_rows(BipartiteColouring.from_mapping(a, b, mapping))
        assert len(rows.b_prime) == 1
        # canonical tie-break: the all-red pattern is least, so vertex 3 stays
        assert rows.b_prime == (3,)

    def test_pigeonhole_bound(self):
        rng = random.Random(61)
        for _ in range(300):
            bc = random_bipartite(rng.randint(1, 5), rng.randint(1, 32), rng)
            rows = focus_rows(bc)
            bound = ceil(len(bc.b_side) / 2 ** len(bc.a_side))
            assert len(rows.b_prime) >= bound
            for x in bc.a_side:
                for y in rows.b_prime:
                    assert bc.colour_of(x, y) is rows.row_colours[x]

    def test_empty_side_rejected(self):
        with pytest.raises(InputError):
            focus_rows(BipartiteColouring((), (1,), ()))


class TestFocusBlock:
    def test_all_red(self):
        bc = constant_bipartite((0, 1), (2, 3, 4, 5), Colour.RED)
        block = focus_block(bc)
        assert block.a_prime == (0, 1)
        assert block.b_prime == (2, 3, 4, 5)
        assert block.colour is Colour.RED

    def test_split_rows_halve(self):
        mapping = {(0, b): Colour.RED for b in (2, 3)}
        mapping.update({(1, b): Colour.BLUE for b in (2, 3)})
        bc = BipartiteColouring.from_mapping((0, 1), (2, 3), mapping)
        block = focus_block(bc)
        assert len(block.a_prime) == 1
        assert block.colour is Colour.RED  # exact tie goes to red

    def test_bounds_and_monochromaticity(self):
        rng = random.Random(67)
        for _ in range(300):
            bc = random_bipartite(rng.randint(1, 6), rng.randint(1, 64), rng)
            block = focus_block(bc)
            assert len(block.a_prime) >= ceil(len(bc.a_side) / 2)
            assert len(block.b_prime) >= ceil(len(bc.b_side) / 2 ** len(bc.a_side))
            for x in block.a_prime:
                for y in block.b_prime:
                    assert bc.colour_of(x, y) is block.colour


class TestIteratedFocus:
    def test_reduced_instance_report(self):
        bg, chi = reduced_instance()
        report = iterated_focus(bg, chi)
        assert isinstance(report, FocusReport)
        assert report.j_set == (1, 2, 3, 4, 5)
        assert all(c is Colour.BLUE for c in report.row_colours.values())
        assert all(c is Colour.RED for c in report.w_colours.values())
        for j, w in report.w_sets.items():
            assert len(w) == 2
            assert set(w) <= set(bg.block(f"V{j}"))

    def test_one_block_recoloured_blue_internally(self):
        bg, chi = reduced_instance()
        block1 = set(bg.block("V1"))
        mapping = {}
        for (u, v), col in zip(chi.graph.edges(), chi.colours):
            if u in block1 and v in block1:
                col = Colour.BLUE
            mapping[(u, v)] = col
        chi2 = EdgeColouring.from_mapping(chi.graph, mapping)
        report = iterated_focus(bg, chi2)
        assert isinstance(report, FocusReport)
        assert report.w_colours[1] is Colour.BLUE
        assert report.w_colours[2] is Colour.RED

    def test_singleton_cliques_always_found(self):
        # with a small target on 2 vertices the required cliques degenerate to
        # single vertices, so any colouring succeeds
        base = schedule_params(4, 3, 4, [1] * 5)
        params = dataclasses.replace(base, t=2)
        bg = build_product(params, Graph.cycle(5), [Graph.empty(1)] * 5)
        chi = canonical_colouring(ColouringKind.G2, bg)
        report = iterated_focus(bg, chi)
        assert isinstance(report, FocusReport)
        assert all(len(w) == 1 for w in report.w_sets.values())

    def test_edgeless_blocks_fail_with_block_named(self):
        params = schedule_params(4, 3, 4, [5] * 5)
        bg = build_product(params, Graph.cycle(5), [Graph.empty(5)] * 5)
        chi = canonical_colouring(ColouringKind.G2, bg)
        result = iterated_focus(bg, chi)
        assert isinstance(result, FocusFailure)
        assert result.block == 1
        assert result.required_clique == 2

    def test_rejects_non_product(self):
        bg, chi = reduced_instance()
        g0 = build_g0(3, Graph.cycle(5))
        with pytest.raises(InputError):
            iterated_focus(g0, chi)

    def test_bound_bookkeeping_recorded(self):
        bg, chi = reduced_instance()
        report = iterated_focus(bg, chi)
        assert set(report.sizes) == {"stage1", "final", "eps_floor"}

    def test_deterministic(self):
        bg, chi = reduced_instance()
        assert iterated_focus(bg, chi) == iterated_focus(bg, chi)


    def test_schedule_floor_is_checked_without_assert(self, monkeypatch):
        # block 1 of 65 vertices has the floor 65 * 2^-(5 + 2 - 1) > 1, so a
        # focusing step that keeps one row breaks the schedule; the check is
        # no assert, so it holds under python -O too
        params = schedule_params(4, 3, 2, [65, 65])
        bg = build_product(params, Graph.complete(2), [Graph.empty(65)] * 2)
        chi = EdgeColouring.constant(bg.graph, Colour.RED)
        assert isinstance(iterated_focus(bg, chi), FocusFailure)

        def one_row(bc):
            return FocusBlock(bc.a_side[:1], bc.b_side, Colour.RED)

        monkeypatch.setattr(focusing, "focus_block", one_row)
        with pytest.raises(RuntimeError, match="block 1 kept 1 vertices"):
            iterated_focus(bg, chi)


class TestVerifyFocusReport:
    def test_produced_reports_verify(self):
        bg, chi = reduced_instance()
        report = iterated_focus(bg, chi)
        verdict = verify_focus_report(bg, chi, report)
        assert verdict.ok and not verdict.violations

    def test_recoloured_clique_edge_is_caught(self):
        bg, chi = reduced_instance()
        report = iterated_focus(bg, chi)
        x, y = report.w_sets[1]
        mapping = dict(zip(chi.graph.edges(), chi.colours))
        mapping[(min(x, y), max(x, y))] = Colour.BLUE
        chi2 = EdgeColouring.from_mapping(chi.graph, mapping)
        verdict = verify_focus_report(bg, chi2, report)
        assert not verdict.ok
        hits = [v for v in verdict.violations if v.item == "b"]
        assert hits and f"({min(x, y)}, {max(x, y)})" in hits[0].where

    def test_undersized_selection_is_caught(self):
        bg, chi = reduced_instance()
        report = iterated_focus(bg, chi)
        bad = dataclasses.replace(
            report,
            j_set=(),
            w_sets={},
            w_colours={},
            pair_colours={},
        )
        verdict = verify_focus_report(bg, chi, bad)
        assert not verdict.ok
        assert verdict.violations[0].item == "a"

    def test_wrong_pair_colour_is_caught(self):
        bg, chi = reduced_instance()
        report = iterated_focus(bg, chi)
        pair = next(iter(report.pair_colours))
        bad_pairs = dict(report.pair_colours)
        bad_pairs[pair] = bad_pairs[pair].swapped
        bad = dataclasses.replace(report, pair_colours=bad_pairs)
        verdict = verify_focus_report(bg, chi, bad)
        assert any(v.item == "c" for v in verdict.violations)

    def test_clique_in_a_block_not_joined_to_its_partner_is_caught(self):
        # W1 moved into V4, which the C5 template does not join to V2: the
        # pairs the (1, 2) check reads are no edges of the graph
        bg, chi = reduced_instance()
        report = iterated_focus(bg, chi)
        shift = bg.block("V4")[0] - bg.block("V1")[0]
        w_sets = {**report.w_sets, 1: tuple(x + shift for x in report.w_sets[1])}
        verdict = verify_focus_report(bg, chi, dataclasses.replace(report, w_sets=w_sets))
        assert not verdict.ok
        assert any(v.item == "c" and v.message == "missing edge" for v in verdict.violations)

    def test_wrong_row_colour_is_caught(self):
        bg, chi = reduced_instance()
        report = iterated_focus(bg, chi)
        bad_rows = dict(report.row_colours)
        bad_rows[0] = bad_rows[0].swapped
        bad = dataclasses.replace(report, row_colours=bad_rows)
        verdict = verify_focus_report(bg, chi, bad)
        assert any(v.item == "d" for v in verdict.violations)


class TestReportJson:
    def test_round_trip(self):
        bg, chi = reduced_instance()
        report = iterated_focus(bg, chi)
        again = report_from_json(report_to_json(report))
        assert again == report
        assert report_to_json(again) == report_to_json(report)
