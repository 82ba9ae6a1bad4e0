"""Constructions: seeded hypergraph generation, planted-copy graphs, the
layered clique gadgets, the pendant-vertex gadget, the block product graph
with its exact parameter schedule, and the canonical colourings used to
certify what each construction avoids.

Canonical labellings (all constructors are deterministic given their inputs):

* core gadget (``build_g0``): the K_k block H takes labels 0..k-1, then the
  k-2 copies of the seed block in order.
* pendant gadget: the k-1 core gadgets in list order, then the pendant
  vertex last. v_i is the least label of copy i's H block; v_k is the least
  H label of copy 2 different from v_2.
* product: the K_h part takes labels 0..h-1, then blocks V1..Vn0 in order.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace
from itertools import combinations, product
from typing import TYPE_CHECKING, Sequence

from .arrowing import Budget, find_mono, ramsey_number
from .errors import InfeasibleError, InputError, Undecided
from .formats import graph6_decode, graph6_encode
from .graphs import Graph, Hypergraph, clique_number, hyper_alpha, hyper_girth, shortest_circuit
from .patterns import Clique, CliquePendant, CliquePlusCliques, Colour, EdgeColouring

if TYPE_CHECKING:
    # imported where used: building and colouring gadgets needs no fraction
    from fractions import Fraction

__all__ = [
    "GadgetParams",
    "BlockGraph",
    "ColouringKind",
    "COLOURING_KINDS",
    "gen_hypergraph",
    "plant_copies",
    "build_g0",
    "build_pendant_gadget",
    "assemble_product",
    "build_product",
    "schedule_params",
    "canonical_colouring",
    "colouring_checks",
    "blockgraph_to_json",
    "blockgraph_from_json",
]


# -- parameter schedule --------------------------------------------------------


@dataclass(frozen=True)
class GadgetParams:
    """Exact parameters of the product construction. ``h``, ``f``, ``eps0``,
    ``n0`` and ``eps_schedule`` follow from ``k``, ``t``, ``r_value`` and
    ``block_sizes``; ``r_source`` records where ``r_value`` came from.

    ``eps_schedule[j-1]`` is the shrink factor budgeted for block j:
    2^-(h + n0 - j + sum of the sizes of blocks before j).
    """

    k: int
    t: int
    r_value: int
    r_source: str  # "supplied" or "computed"
    block_sizes: tuple[int, ...]

    @property
    def h(self) -> int:
        return self.r_value + self.k - 1

    @property
    def f(self) -> int:
        return (self.r_value - 1) // self.t + 1

    @property
    def eps0(self) -> Fraction:
        from fractions import Fraction

        return Fraction(1, 2 ** (self.h + 1))

    @property
    def n0(self) -> int:
        return len(self.block_sizes)

    @property
    def eps_schedule(self) -> tuple[Fraction, ...]:
        from fractions import Fraction

        sizes = self.block_sizes
        return tuple(
            Fraction(1, 2 ** (self.h + self.n0 - j + sum(sizes[: j - 1]))) for j in range(1, self.n0 + 1)
        )

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "t": self.t,
            "r_value": self.r_value,
            "r_source": self.r_source,
            "h": self.h,
            "f": self.f,
            "eps0": str(self.eps0),
            "block_sizes": list(self.block_sizes),
            "eps_schedule": [str(e) for e in self.eps_schedule],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "GadgetParams":
        """The parameters whose ``to_json_dict`` is ``d``, checked as
        ``schedule_params`` checks them. ``r_value`` must be stored, so
        loading never starts a search."""
        r_value = d["r_value"]
        if type(r_value) is not int or r_value < 2:
            raise InputError(f"r_value must be an integer >= 2, got {r_value!r}")
        params = schedule_params(d["k"], d["t"], r_value, d["block_sizes"])
        params = replace(params, r_source=d["r_source"])
        if params.to_json_dict() != d:
            raise InputError("stored h, f, eps0 or eps_schedule disagree with k, t, r_value and block_sizes")
        return params


def schedule_params(
    k: int,
    t: int,
    r_value: int | None,
    block_sizes: Sequence[int],
    opts: Budget | None = None,
) -> GadgetParams:
    """Exact rational parameter schedule for the product construction:
    h = r_value + k - 1, f = floor((r_value - 1) / t) + 1, eps0 = 2^-(h+1),
    and one shrink factor per block.

    ``r_value`` None is computed as R(K_k, K_{k-t+1}) within the budget
    ``opts``, after the arguments are checked, and raises ``Undecided`` when
    the budget leaves it undecided."""
    if not k > t >= 3:
        raise InputError("schedule requires k > t >= 3")
    if r_value is not None and r_value < 2:
        raise InputError("r_value must be at least 2")
    if any(s < 1 for s in block_sizes):
        raise InputError("block sizes must be positive")
    r_source = "supplied"
    if r_value is None:
        rep = ramsey_number(Clique(k), Clique(k - t + 1), opts)
        if not rep.decided:
            raise Undecided("Ramsey number computation exceeded its budget")
        r_value, r_source = rep.n, "computed"
    return GadgetParams(k, t, r_value, r_source, tuple(block_sizes))


# -- block graphs ----------------------------------------------------------------


@dataclass(frozen=True)
class BlockGraph:
    """A constructed graph plus the named vertex partition that built it."""

    graph: Graph
    blocks: dict  # name -> tuple of vertices, in construction order
    special: dict  # name -> vertex
    provenance: str  # which constructor built it
    meta: dict  # constructor-specific scalars (k, t, ...)
    params: GadgetParams | None = None
    g0: Graph | None = None  # adjacency template of the product blocks

    def __post_init__(self):
        seen: set[int] = set()
        for name, vs in self.blocks.items():
            overlap = seen.intersection(vs)
            if overlap:
                raise InputError(f"block {name} overlaps earlier blocks at {overlap}")
            seen.update(vs)
        if seen and (min(seen) < 0 or max(seen) >= self.graph.n):
            raise InputError("block vertices out of range")

    def block(self, name: str) -> tuple[int, ...]:
        return tuple(self.blocks[name])


def blockgraph_to_json(bg: BlockGraph) -> str:
    doc = {
        "format": "blockgraph",
        "graph6": graph6_encode(bg.graph),
        "blocks": {name: list(vs) for name, vs in bg.blocks.items()},
        "special": dict(bg.special),
        "provenance": bg.provenance,
        "meta": dict(bg.meta),
        "params": bg.params.to_json_dict() if bg.params else None,
        "g0_graph6": graph6_encode(bg.g0) if bg.g0 else None,
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def blockgraph_from_json(text: str) -> BlockGraph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad block graph JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != "blockgraph":
        raise InputError("not a block graph document")
    try:
        return BlockGraph(
            graph=graph6_decode(doc["graph6"]),
            blocks={name: tuple(vs) for name, vs in doc["blocks"].items()},
            special=dict(doc["special"]),
            provenance=doc["provenance"],
            meta=dict(doc["meta"]),
            params=GadgetParams.from_json_dict(doc["params"]) if doc.get("params") else None,
            g0=graph6_decode(doc["g0_graph6"]) if doc.get("g0_graph6") else None,
        )
    except KeyError as exc:
        raise InputError(f"block graph document lacks the key {exc}") from None
    except InputError:
        raise
    except (AttributeError, TypeError, ValueError) as exc:
        raise InputError(f"malformed block graph document: {exc}") from None


# -- randomized hypergraph generation ----------------------------------------------


def _eps_fraction(eps) -> Fraction:
    """``eps`` as an exact fraction, a float read as its shortest decimal
    form; InputError unless it lies in (0, 1]."""
    from fractions import Fraction

    eps = Fraction(str(eps)) if isinstance(eps, float) else Fraction(eps)
    if not 0 < eps <= 1:
        raise InputError("eps must lie in (0, 1]")
    return eps


def gen_hypergraph(
    u: int,
    girth_min: int,
    eps,
    n: int,
    seed: int = 0,
    retry_cap: int = 100,
) -> Hypergraph:
    """Seeded generator for a u-uniform hypergraph with girth at least
    ``girth_min`` and independence number strictly below ``eps * n``.

    Each attempt samples random edges and then deletes one edge per short
    circuit until the girth constraint holds; both postconditions are
    verified exactly before returning. Attempts escalate the edge density.
    Raises ``InfeasibleError`` when ``retry_cap`` attempts all fail; small
    parameter sets may admit no instance at all, and the obviously impossible
    ones (eps * n not above u - 1, the unavoidable independence of any u-1
    vertices) fail fast.
    """
    if u < 2:
        raise InputError("uniformity must be at least 2")
    if girth_min < 2:
        raise InputError("girth_min must be at least 2")
    eps = _eps_fraction(eps)
    if n < u:
        raise InfeasibleError(
            f"no {u}-uniform edge fits in {n} vertices", attempts=0
        )
    if eps * n <= min(n, u - 1):
        raise InfeasibleError(
            f"alpha >= {u - 1} always holds, so alpha < eps*n = {eps * n} is impossible",
            attempts=0,
        )

    max_edges = math.comb(n, u)
    for attempt in range(retry_cap):
        rng = random.Random(f"{seed}:{attempt}")
        density = 1.0 + 0.5 * (attempt % 8)
        m = min(max_edges, max(1, int(density * n)))
        edges: set[tuple[int, ...]] = set()
        guard = 0
        while len(edges) < m and guard < 50 * m:
            edges.add(tuple(sorted(rng.sample(range(n), u))))
            guard += 1
        h = Hypergraph.from_edges(n, u, edges)
        # alteration: delete the lexicographically greatest edge of each
        # remaining short circuit until none is left
        while True:
            found = shortest_circuit(h)
            if found is None or found[0] >= girth_min:
                break
            _length, circuit = found
            drop = max(circuit)
            kept = [e for i, e in enumerate(h.edges) if i != drop]
            h = Hypergraph.from_edges(n, u, kept)
        if hyper_girth(h) >= girth_min and hyper_alpha(h) < eps * n:
            return h
    raise InfeasibleError(
        f"no valid hypergraph found in {retry_cap} attempts "
        f"(u={u}, girth>={girth_min}, eps={eps}, n={n})",
        attempts=retry_cap,
    )


# -- planted copies ------------------------------------------------------------------


def plant_copies(f0: Graph, hg: Hypergraph) -> Graph:
    """Graph on the hypergraph's vertices with a copy of ``f0`` placed inside
    every hyperedge (ascending hyperedge vertex to ascending ``f0`` label);
    overlapping copies union their edges."""
    if f0.n != hg.u:
        raise InputError(
            f"block has {f0.n} vertices but hyperedges have {hg.u}"
        )
    edges: set[tuple[int, int]] = set()
    for he in hg.edges:
        for a, b in f0.edges():
            u, v = he[a], he[b]
            edges.add((u, v) if u < v else (v, u))
    return Graph.from_edges(hg.n, edges)


# -- layered clique gadget ------------------------------------------------------------


def build_g0(k: int, f: Graph | None = None) -> BlockGraph:
    """Core gadget: a K_k block H joined completely to k-2 pairwise completely
    joined copies F1..F(k-2) of the seed block ``f``, which is the product
    over the template K_{k-2}; for k = 2 a single edge.

    Requires a non-empty, K_k-free seed block for k >= 3.
    """
    if k < 2:
        raise InputError("k must be at least 2")
    meta: dict = {"k": k, "copies": k - 2}
    if k >= 3:
        if f is None or f.n == 0:
            raise InputError("k >= 3 needs a non-empty seed block")
        if clique_number(f) >= k:
            raise InputError(
                f"seed block contains a K_{k}; it must be K_{k}-free"
            )
        meta["seed_graph6"] = graph6_encode(f)
    g, blocks = assemble_product(k, Graph.complete(k - 2), [f] * (k - 2))
    return BlockGraph(
        graph=g,
        blocks={("H" if name == "V_H" else "F" + name[1:]): vs for name, vs in blocks.items()},
        special={},
        provenance="build_g0",
        meta=meta,
    )


def build_pendant_gadget(k: int, g0s: Sequence[BlockGraph]) -> BlockGraph:
    """Join k-1 core gadgets: pick one vertex per H block, make them a clique,
    add the extra edge from v_1 into copy 2's H block, and attach a pendant
    vertex v adjacent to exactly the k-1 picked vertices (so deg(v) = k-1)."""
    if k < 3:
        raise InputError("the pendant gadget needs k >= 3")
    if len(g0s) != k - 1:
        raise InputError(f"need exactly {k - 1} gadgets, got {len(g0s)}")
    for i, bg in enumerate(g0s):
        if "H" not in bg.blocks or len(bg.blocks["H"]) != k:
            raise InputError(f"gadget {i + 1} lacks an H block of size {k}")
    edges: list[tuple[int, int]] = []
    blocks: dict = {}
    picks: list[int] = []
    off = 0
    for i, bg in enumerate(g0s):
        edges += [(u + off, v + off) for u, v in bg.graph.edges()]
        for name, vs in bg.blocks.items():
            blocks[f"G{i + 1}.{name}"] = tuple(x + off for x in vs)
        picks.append(off + min(bg.blocks["H"]))
        off += bg.graph.n
    pendant = off
    vk = next(x for x in sorted(blocks["G2.H"]) if x != picks[1])
    edges += [*combinations(picks, 2), (picks[0], vk), *((pendant, x) for x in picks)]
    special = {f"v{i + 1}": x for i, x in enumerate(picks)}
    special.update(vk=vk, v=pendant)
    return BlockGraph(
        graph=Graph.from_edges(pendant + 1, edges),
        blocks=blocks,
        special=special,
        provenance="build_pendant_gadget",
        meta={"k": k},
    )


# -- block product ---------------------------------------------------------------------


def assemble_product(h: int, g0: Graph, fs: Sequence[Graph]) -> tuple[Graph, dict]:
    """Pure structure of the product: a K_h part joined completely to every
    block, block j inducing ``fs[j-1]``, and complete bipartite joins between
    blocks i and j exactly when ij is an edge of ``g0``. Returns the graph and
    the block name map."""
    if len(fs) != g0.n:
        raise InputError(
            f"need one block per template vertex: {g0.n} != {len(fs)}"
        )
    ranges = [range(h)]
    for f in fs:
        ranges.append(range(ranges[-1].stop, ranges[-1].stop + f.n))
    vh, *vs = ranges
    n = ranges[-1].stop
    edges = list(combinations(vh, 2))
    for f, r in zip(fs, vs):
        edges += [(r[a], r[b]) for a, b in f.edges()]
    edges += product(vh, range(h, n))
    for i, j in g0.edges():
        edges += product(vs[i], vs[j])
    blocks = {"V_H": tuple(vh), **{f"V{j + 1}": tuple(r) for j, r in enumerate(vs)}}
    return Graph.from_edges(n, edges), blocks


def build_product(params: GadgetParams, g0: Graph, fs: Sequence[Graph]) -> BlockGraph:
    """Product instance under ``params``.

    Enforces the clique-freeness preconditions: the template must be
    K_{k-1}-free and every block K_t-free. The blocks are not certified
    against their scheduled shrink factors (block j arrowing K_{t-1} on
    every ceil(eps_j * v) vertices): every eps_j is at most 2^-h with
    h = r_value + k - 1 >= 5, so a block of at most 2^h vertices would be
    certified on single vertices, which arrow nothing, and larger blocks
    have too many subsets to search.
    """
    if len(fs) != g0.n or params.n0 != g0.n:
        raise InputError("template order, block count, and schedule must agree")
    if tuple(f.n for f in fs) != params.block_sizes:
        raise InputError("block sizes do not match the schedule")
    if clique_number(g0) >= params.k - 1:
        raise InputError(
            f"template contains a K_{params.k - 1}; it must be K_{params.k - 1}-free"
        )
    for j, f in enumerate(fs):
        if clique_number(f) >= params.t:
            raise InputError(
                f"block {j + 1} contains a K_{params.t}; blocks must be K_{params.t}-free"
            )
    graph, blocks = assemble_product(params.h, g0, fs)
    return BlockGraph(
        graph=graph,
        blocks=blocks,
        special={},
        provenance="build_product",
        meta={"k": params.k, "t": params.t},
        params=params,
        g0=g0,
    )


# -- canonical colourings ----------------------------------------------------------------


class ColouringKind:
    G0_PROP1 = "g0-prop1"
    G2 = "g2"
    LEMMA7_MINUS_V = "lemma7"


# every canonical colouring kind and the constructor whose output it colours
COLOURING_KINDS = {
    ColouringKind.G0_PROP1: "build_g0",
    ColouringKind.G2: "build_product",
    ColouringKind.LEMMA7_MINUS_V: "build_pendant_gadget",
}


def canonical_colouring(kind: str, bg: BlockGraph) -> EdgeColouring:
    """The certifying colouring of a construction: red inside every named
    block, blue on all edges between blocks.

    For the pendant gadget the colouring lives on the graph with the pendant
    vertex removed (it is the last label, so other labels are unchanged); the
    joining edges between copies are all blue.
    """
    want = COLOURING_KINDS.get(kind)
    if want is None:
        raise InputError(f"unknown colouring kind {kind!r}")
    if bg.provenance != want:
        raise InputError(
            f"colouring {kind!r} applies to {want} outputs, not {bg.provenance}"
        )
    graph = bg.graph
    if kind == ColouringKind.LEMMA7_MINUS_V:
        pendant = bg.special["v"]
        if pendant != graph.n - 1:
            raise InputError("pendant vertex must carry the last label")
        adj = tuple(row & ~(1 << pendant) for row in graph.adj[:pendant])
        graph = Graph(pendant, adj)
    owner = {v: name for name, vs in bg.blocks.items() for v in vs}
    colours = tuple(
        Colour.RED if u in owner and owner[u] == owner.get(v) else Colour.BLUE
        for u, v in graph.edges()
    )
    return EdgeColouring(graph, colours)


def colouring_checks(kind: str, bg: BlockGraph, chi: EdgeColouring) -> dict:
    """Exact verification of what each canonical colouring avoids.

    Returns check name -> bool (all must be true for a correct colouring).
    """
    if kind == ColouringKind.G0_PROP1:
        k = bg.meta["k"]
        return {
            "no_red_pendant_clique": find_mono(chi, CliquePendant(k), Colour.RED) is None,
            "no_blue_clique": find_mono(chi, Clique(k), Colour.BLUE) is None,
        }
    if kind == ColouringKind.G2:
        params = bg.params
        target = CliquePlusCliques(params.k, params.f, params.t)
        blue_omega = clique_number(chi.subgraph(Colour.BLUE))
        return {
            "blue_clique_number": blue_omega,
            "blue_clique_number_is_k_minus_1": blue_omega == params.k - 1,
            "no_red_target": find_mono(chi, target, Colour.RED) is None,
            "no_blue_target": find_mono(chi, target, Colour.BLUE) is None,
        }
    if kind == ColouringKind.LEMMA7_MINUS_V:
        k = bg.meta["k"]
        return {
            "no_red_pendant_clique": find_mono(chi, CliquePendant(k), Colour.RED) is None,
            "no_blue_pendant_clique": find_mono(chi, CliquePendant(k), Colour.BLUE) is None,
        }
    raise InputError(f"unknown colouring kind {kind!r}")
