"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete. Stated runtime limits are asserted.
"""
import dataclasses
import hashlib
import io
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import combinations
from math import ceil

import pytest

from ramseykit import cli
from ramseykit.arrowing import Budget, Outcome, arrows, find_mono, ramsey_number
from ramseykit.cnf import decode_model, solve_cnf, to_cnf
from ramseykit.errors import InfeasibleError
from ramseykit.focusing import (
    BipartiteColouring,
    FocusReport,
    focus_block,
    focus_rows,
    iterated_focus,
    verify_focus_report,
)
from ramseykit.gadgets import (
    ColouringKind,
    build_g0,
    build_pendant_gadget,
    build_product,
    canonical_colouring,
    colouring_checks,
    gen_hypergraph,
    schedule_params,
)
from ramseykit.formats import graph6_encode
from ramseykit.graphs import Graph, clique_number, components, hyper_alpha, hyper_girth
from ramseykit.minimal import degree_survey, distinguish, enumerate_graphs, is_minimal, minimalize
from ramseykit.patterns import Clique, CliquePendant, CliquePlusCliques, Colour, EdgeColouring

from oracles import naive_arrows


def report(number: int, name: str, ok: bool, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({time.time() - started:.1f}s)")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_01_arrowing_oracle():
    t0 = time.time()
    ok = True
    v6 = arrows(Graph.complete(6), Clique(3), Clique(3))
    ok &= v6.outcome is Outcome.ARROW
    v5 = arrows(Graph.complete(5), Clique(3), Clique(3))
    ok &= v5.outcome is Outcome.NOT_ARROW
    ok &= find_mono(v5.witness, Clique(3), Colour.RED) is None
    ok &= find_mono(v5.witness, Clique(3), Colour.BLUE) is None
    ok &= time.time() - t0 < 60
    r33 = ramsey_number(Clique(3), Clique(3))
    ok &= r33.n == 6
    r34 = ramsey_number(Clique(3), Clique(4))
    ok &= r34.n == 9
    ok &= time.time() - t0 < 900
    report(1, "arrowing-oracle", ok, t0)


def _equivalence_corpus() -> list[Graph]:
    graphs = [g for g in enumerate_graphs(5) if len(components(g)) == 1]
    graphs += [
        Graph.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)]),  # K33
        Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                             (0, 3), (1, 4), (2, 5)]),  # prism
        Graph.from_edges(6, [(i, (i + 1) % 5) for i in range(5)] + [(5, i) for i in range(5)]),  # wheel
        Graph.from_edges(6, [e for e in combinations(range(6), 2)
                             if e not in ((0, 1), (2, 3), (4, 5))]),  # K6 minus a matching
        Graph.cycle(7),
    ]
    rng = random.Random(2024)
    while len(graphs) < 46:
        n = rng.randint(6, 8)
        pairs = [e for e in combinations(range(n), 2) if rng.random() < 0.45]
        if not pairs or len(pairs) > 14:
            continue
        g = Graph.from_edges(n, pairs)
        seen = 1
        stack = [0]
        while stack:
            v = stack.pop()
            for w in range(n):
                if g.has_edge(v, w) and not (seen >> w) & 1:
                    seen |= 1 << w
                    stack.append(w)
        if seen == (1 << n) - 1:
            graphs.append(g)
    return graphs


def test_criterion_02_oracle_equivalence():
    t0 = time.time()
    disagreements = 0
    corpus = _equivalence_corpus()
    assert all(g.num_edges <= 14 for g in corpus)
    for g in corpus:
        for p in (Clique(3), CliquePendant(3)):
            expected = naive_arrows(g, p, p)
            got = arrows(g, p, p).outcome is Outcome.ARROW
            if expected != got:
                disagreements += 1
    report(2, "oracle-equivalence", disagreements == 0, t0)


def test_criterion_03_cnf_round_trip():
    t0 = time.time()
    ok = True
    ok &= solve_cnf(to_cnf(Graph.complete(6), Clique(3), Clique(3))) is None
    inst5 = to_cnf(Graph.complete(5), Clique(3), Clique(3))
    model = solve_cnf(inst5)
    ok &= model is not None
    chi = decode_model(inst5, model)
    ok &= find_mono(chi, Clique(3), Colour.RED) is None
    ok &= find_mono(chi, Clique(3), Colour.BLUE) is None

    rng = random.Random(303)
    agreements = 0
    for _ in range(200):
        n = rng.randint(3, 7)
        g = Graph.from_edges(
            n, [e for e in combinations(range(n), 2) if rng.random() < 0.55]
        )
        red = Clique(3)
        blue = rng.choice([Clique(3), CliquePendant(3)])
        sat = solve_cnf(to_cnf(g, red, blue)) is not None
        verdict = arrows(g, red, blue).outcome
        if sat == (verdict is Outcome.NOT_ARROW):
            agreements += 1
    ok &= agreements == 200
    report(3, "cnf-round-trip", ok, t0)


def test_criterion_04_focusing_bounds():
    t0 = time.time()
    violations = 0
    rng = random.Random(404)
    for _ in range(1000):
        na = rng.randint(1, 6)
        nb = rng.randint(1, 64)
        a = tuple(range(na))
        b = tuple(range(na, na + nb))
        bc = BipartiteColouring.from_mapping(
            a,
            b,
            {
                (x, y): Colour.RED if rng.random() < 0.5 else Colour.BLUE
                for x in a
                for y in b
            },
        )
        rows = focus_rows(bc)
        if len(rows.b_prime) < ceil(nb / 2**na):
            violations += 1
        if any(
            bc.colour_of(x, y) is not rows.row_colours[x]
            for x in a
            for y in rows.b_prime
        ):
            violations += 1
        block = focus_block(bc)
        if len(block.a_prime) < ceil(na / 2):
            violations += 1
        if len(block.b_prime) < ceil(nb / 2**na):
            violations += 1
        if any(
            bc.colour_of(x, y) is not block.colour
            for x in block.a_prime
            for y in block.b_prime
        ):
            violations += 1
    # exhaustive sweep of the smallest shapes
    for na in (1, 2):
        for nb in range(1, 5):
            a = tuple(range(na))
            b = tuple(range(na, na + nb))
            pairs = [(x, y) for x in a for y in b]
            for mask in range(1 << len(pairs)):
                bc = BipartiteColouring.from_mapping(
                    a,
                    b,
                    {
                        e: Colour.RED if (mask >> i) & 1 else Colour.BLUE
                        for i, e in enumerate(pairs)
                    },
                )
                block = focus_block(bc)
                if len(block.a_prime) < ceil(na / 2) or len(block.b_prime) < ceil(
                    nb / 2**na
                ):
                    violations += 1
    report(4, "focusing-bounds", violations == 0, t0)


def test_criterion_05_core_gadget_colouring():
    t0 = time.time()
    ok = True
    t_start = time.time()
    bg3 = build_g0(3, Graph.cycle(5))
    chi3 = canonical_colouring(ColouringKind.G0_PROP1, bg3)
    checks3 = colouring_checks(ColouringKind.G0_PROP1, bg3, chi3)
    ok &= checks3["no_red_pendant_clique"] and checks3["no_blue_clique"]
    ok &= time.time() - t_start < 10
    t_start = time.time()
    bg4 = build_g0(4, Graph.cycle(5))  # the seed block is K4-free
    chi4 = canonical_colouring(ColouringKind.G0_PROP1, bg4)
    checks4 = colouring_checks(ColouringKind.G0_PROP1, bg4, chi4)
    ok &= checks4["no_red_pendant_clique"] and checks4["no_blue_clique"]
    ok &= time.time() - t_start < 10
    report(5, "core-gadget-colouring", ok, t0)


def test_criterion_06_pendant_gadget():
    t0 = time.time()
    ok = True
    bg = build_pendant_gadget(3, [build_g0(3, Graph.cycle(5))] * 2)
    ok &= bg.graph.degree(bg.special["v"]) == 2
    ok &= bg.graph.num_edges == 50
    chi = canonical_colouring(ColouringKind.LEMMA7_MINUS_V, bg)
    checks = colouring_checks(ColouringKind.LEMMA7_MINUS_V, bg, chi)
    ok &= checks["no_red_pendant_clique"] and checks["no_blue_pendant_clique"]
    ok &= time.time() - t0 < 60
    report(6, "pendant-gadget", ok, t0)


def _reduced_product():
    params = schedule_params(4, 3, 4, [5] * 5)
    bg = build_product(params, Graph.cycle(5), [Graph.cycle(5)] * 5)
    return bg, canonical_colouring(ColouringKind.G2, bg)


def test_criterion_07_product_reproduction():
    t0 = time.time()
    ok = True
    params = schedule_params(4, 3, 4, [5] * 5)
    ok &= params.h == 7 and params.f == 2 and params.eps0 == Fraction(1, 256)
    bg, chi = _reduced_product()
    checks = colouring_checks(ColouringKind.G2, bg, chi)
    ok &= checks["blue_clique_number"] == 3
    ok &= checks["no_red_target"] and checks["no_blue_target"]
    ok &= time.time() - t0 < 300
    report(7, "product-reproduction", ok, t0)


def test_criterion_08_focus_machinery():
    t0 = time.time()
    ok = True
    bg, chi = _reduced_product()
    rep = iterated_focus(bg, chi)
    ok &= isinstance(rep, FocusReport)
    verdict = verify_focus_report(bg, chi, rep)
    ok &= verdict.ok
    ok &= Fraction(len(rep.j_set)) >= Fraction(5, 2**7)
    ok &= all(c is Colour.RED for c in rep.w_colours.values())
    # fault: one clique edge recoloured; the violation names the edge
    x, y = rep.w_sets[1]
    mapping = dict(zip(chi.graph.edges(), chi.colours))
    mapping[(min(x, y), max(x, y))] = Colour.BLUE
    bad_chi = EdgeColouring.from_mapping(chi.graph, mapping)
    faulty = verify_focus_report(bg, bad_chi, rep)
    ok &= not faulty.ok
    ok &= any(
        v.item == "b" and f"({min(x, y)}, {max(x, y)})" in v.where
        for v in faulty.violations
    )
    # fault: selection below the pigeonhole bound
    empty = dataclasses.replace(rep, j_set=(), w_sets={}, w_colours={}, pair_colours={})
    faulty2 = verify_focus_report(bg, chi, empty)
    ok &= not faulty2.ok and faulty2.violations[0].item == "a"
    report(8, "focus-machinery", ok, t0)


def test_criterion_09_hypergraph_generator():
    t0 = time.time()
    ok = True
    h = gen_hypergraph(3, 4, Fraction(4, 5), 15, seed=1, retry_cap=100)
    ok &= hyper_girth(h) >= 4
    ok &= hyper_alpha(h) < Fraction(4, 5) * 15
    try:
        gen_hypergraph(3, 6, Fraction(1, 10), 9, seed=1, retry_cap=100)
        ok = False  # must raise, never return an invalid hypergraph
    except InfeasibleError:
        pass
    report(9, "hypergraph-generator", ok, t0)


def test_criterion_10_minimality_and_survey():
    t0 = time.time()
    ok = True
    rep = is_minimal(Graph.complete(6), Clique(3))
    ok &= rep.decided and rep.is_minimal
    ok &= minimalize(Graph.complete(6), Clique(3)) == Graph.complete(6)
    s2 = degree_survey(Clique(2), 3)
    ok &= s2.min_delta == 1
    paw = degree_survey(CliquePendant(3), 8)
    ok &= paw.complete
    ok &= all(r["delta"] >= 2 for r in paw.records)
    ok &= time.time() - t0 < 1800
    # budget flags honored: a zero budget flags the survey incomplete
    cut = degree_survey(CliquePendant(3), 8, opts=Budget(seconds=0))
    ok &= not cut.complete
    # the command's output to 8 vertices, pinned: the capped order 8 that
    # both surveys read (at most 13 non-edges) is built by now
    for pattern, sha in [
        ("K3.K2", "d2031673b9fe8214262ab69049848799a20f2b8a6c6f5a8ff237927bd7e6fd1f"),
        ("K3", "7e4638ac11adfb65d7b9a5d478d0c6b644d264f0b276fd2e23e214a0ca52e945"),
    ]:
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(["survey", "--pattern", pattern, "--nmax", "8", "--no-timing"])
        ok &= code == 0 and hashlib.sha256(out.getvalue().encode()).hexdigest() == sha
    report(10, "minimality-and-survey", ok, t0)


def test_criterion_11_k3_plus_k2_is_not_ramsey_equivalent_to_k3():
    # K6 arrows K3 but not K3 + 1K2: red on the 9 edges at vertices 0 and 1,
    # blue on the K4 on 2..5, so the pair is not Ramsey-equivalent
    t0 = time.time()
    ok = True
    plus = CliquePlusCliques(3, 1, 2)
    rep = distinguish(Clique(3), plus, 6)
    ok &= rep.complete and rep.graphs_checked == 208
    ok &= rep.graph is not None and graph6_encode(rep.graph) == "E~~w"
    k6 = Graph.complete(6)
    verdict = arrows(k6, plus, plus)
    ok &= verdict.outcome is Outcome.NOT_ARROW and verdict.nodes <= 7
    ok &= verdict.witness == EdgeColouring.from_mapping(
        k6, {(u, v): Colour.RED if u < 2 else Colour.BLUE for u, v in k6.edges()}
    )
    for colour in Colour:
        ok &= find_mono(verdict.witness, plus, colour) is None
    report(11, "k3-plus-k2-distinguished", ok, t0)


def test_criterion_12_minimal_subgraphs_of_pendant_gadgets():
    # s(K3·K2) = 2: greedy minimalization of the k = 3 pendant gadget keeps
    # a Ramsey-minimal subgraph of minimum degree k - 1 = 2 for every seed
    t0 = time.time()
    ok = True
    for seed, n, m, g6 in [
        (Graph.cycle(5), 17, 49, "P~~nNe??G@_F?N?M_FG@x_G?"),
        (Graph.cycle(7), 21, 65, "T~~nNF`{K??@?B?B_@w?\\?Bc?MG?[G?]E?G?"),
        (Graph.petersen(), 17, 49, "P~zvvY??G@_F?M?N?Fo@u_G?"),
    ]:
        g = build_pendant_gadget(3, [build_g0(3, seed)] * 2).graph
        out = minimalize(g, CliquePendant(3))
        ok &= graph6_encode(out) == g6
        ok &= (out.n, out.num_edges, min(out.degrees())) == (n, m, 2)
    ok &= time.time() - t0 < 60
    report(12, "pendant-gadget-minimalization", ok, t0)
