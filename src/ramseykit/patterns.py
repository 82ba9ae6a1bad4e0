"""Monochromatic target patterns, their copies in a graph (``copies``), and
the two-colour vocabulary: ``Colour``, ``EdgeColouring`` and its text format.

The pattern mini-language used across the CLI and file formats:

* ``K5``      complete graph on 5 vertices
* ``K5.K2``   K5 with one pendant edge (6 vertices)
* ``K4+2K3``  disjoint union of one K4 and two copies of K3
* ``file:<path>``  arbitrary graph, the first of a graph file
  (``formats.read_graphs``: graph6 or an edge list)
"""
from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Mapping, Union

from .errors import FormatError, InputError
from .formats import read_counted_lines, read_graph
from .graphs import Graph, bits, cliques, components, embeddings, mask_of, packings

__all__ = [
    "Colour",
    "Clique",
    "CliquePendant",
    "CliquePlusCliques",
    "Arbitrary",
    "TargetPattern",
    "parse_pattern",
    "pattern_text",
    "pattern_graph",
    "copies",
    "EdgeColouring",
    "write_colouring",
    "read_colouring",
]


class Colour(enum.Enum):
    RED = "red"
    BLUE = "blue"

    @property
    def letter(self) -> str:
        return self.value[0]

    @property
    def swapped(self) -> "Colour":
        return Colour.BLUE if self is Colour.RED else Colour.RED

    @staticmethod
    def from_letter(letter: str) -> "Colour":
        if letter == "r":
            return Colour.RED
        if letter == "b":
            return Colour.BLUE
        raise InputError(f"unknown colour letter {letter!r}")


# tie-break key: red sorts before blue
COLOUR_KEY = {Colour.RED: 0, Colour.BLUE: 1}


@dataclass(frozen=True)
class EdgeColouring:
    """Total red/blue assignment on a graph's edge set.

    ``colours[i]`` is the colour of the i-th edge in sorted-pair order.
    """

    graph: Graph
    colours: tuple[Colour, ...]

    def __post_init__(self):
        if len(self.colours) != self.graph.num_edges:
            raise InputError("colouring must cover the edge set exactly")

    @classmethod
    def from_mapping(cls, graph: Graph, mapping: Mapping[tuple[int, int], Colour]) -> "EdgeColouring":
        edges = graph.edges()
        known = set(edges)
        norm: dict[tuple[int, int], Colour] = {}
        for (u, v), col in mapping.items():
            key = (u, v) if u < v else (v, u)
            if key not in known:
                raise InputError(f"({u}, {v}) is not an edge of the graph")
            norm[key] = col
        if len(norm) != len(edges):
            raise InputError("colouring must cover the edge set exactly")
        return cls(graph, tuple(norm[e] for e in edges))

    @classmethod
    def constant(cls, graph: Graph, colour: Colour) -> "EdgeColouring":
        return cls(graph, (colour,) * graph.num_edges)

    def colour_of(self, u: int, v: int) -> Colour:
        """The colour of the edge uv; InputError when uv is not an edge."""
        return self.colours[self.graph.edge_index(u, v)]

    def class_adj(self, colour: Colour) -> tuple[int, ...]:
        adj = [0] * self.graph.n
        for (u, v), col in zip(self.graph.edges(), self.colours):
            if col is colour:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        return tuple(adj)

    def subgraph(self, colour: Colour) -> Graph:
        return Graph(self.graph.n, self.class_adj(colour))

    def swapped(self) -> "EdgeColouring":
        return EdgeColouring(self.graph, tuple(c.swapped for c in self.colours))


# -- colouring text format (the witness format) -----------------------------


def write_colouring(c: EdgeColouring) -> str:
    lines = [f"n {c.graph.n}"]
    lines += [f"{u} {v} {col.letter}" for (u, v), col in zip(c.graph.edges(), c.colours)]
    return "\n".join(lines) + "\n"


def read_colouring(text: str) -> EdgeColouring:
    n, rows = read_counted_lines(text, "colouring", "colouring", 3)
    colours = {}
    for u, v, letter in rows:
        key = (u, v) if u < v else (v, u)
        if key in colours:
            raise FormatError(f"edge {key} is coloured twice")
        colours[key] = Colour.from_letter(letter)
    g = Graph.from_edges(n, [(u, v) for u, v, _ in rows])
    return EdgeColouring.from_mapping(g, colours)


@dataclass(frozen=True)
class Clique:
    """Complete graph on k vertices."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise InputError("clique size must be at least 1")


@dataclass(frozen=True)
class CliquePendant:
    """Complete graph on k vertices with one pendant edge (k+1 vertices)."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise InputError("clique size must be at least 1")


@dataclass(frozen=True)
class CliquePlusCliques:
    """Disjoint union of one K_k and f copies of K_t."""

    k: int
    f: int
    t: int

    def __post_init__(self):
        if self.k < 1:
            raise InputError("clique size must be at least 1")
        if self.f < 0:
            raise InputError("copy count must be non-negative")
        if self.t < 1:
            raise InputError("small clique size must be at least 1")


@dataclass(frozen=True)
class Arbitrary:
    """Any concrete non-empty graph used as the target."""

    graph: Graph

    def __post_init__(self):
        if self.graph.n == 0:
            raise InputError("arbitrary pattern graph must be non-empty")


TargetPattern = Union[Clique, CliquePendant, CliquePlusCliques, Arbitrary]

_RE_CLIQUE = re.compile(r"^K(\d+)$")
_RE_PENDANT = re.compile(r"^K(\d+)\.K2$")
_RE_PLUS = re.compile(r"^K(\d+)\+(\d+)K(\d+)$")


def parse_pattern(text: str) -> TargetPattern:
    """Parse the pattern mini-language; a ``file:`` pattern reads its file."""
    text = text.strip()
    if m := _RE_CLIQUE.match(text):
        return Clique(int(m.group(1)))
    if m := _RE_PENDANT.match(text):
        return CliquePendant(int(m.group(1)))
    if m := _RE_PLUS.match(text):
        return CliquePlusCliques(int(m.group(1)), int(m.group(2)), int(m.group(3)))
    if text.startswith("file:"):
        return Arbitrary(read_graph(text[5:]))
    raise InputError(f"cannot parse pattern {text!r}")


def pattern_text(p: TargetPattern) -> str:
    if isinstance(p, Clique):
        return f"K{p.k}"
    if isinstance(p, CliquePendant):
        return f"K{p.k}.K2"
    if isinstance(p, CliquePlusCliques):
        return f"K{p.k}+{p.f}K{p.t}"
    return f"graph:{p.graph.n}v{p.graph.num_edges}e"


def pattern_graph(p: TargetPattern) -> Graph:
    """Concrete graph realizing the pattern.

    Canonical labelling: clique vertices first in order, then (for the
    pendant) the pendant vertex attached to vertex 0, then (for disjoint
    unions) the K_t copies one after another.
    """
    if isinstance(p, Clique):
        return Graph.complete(p.k)
    if isinstance(p, CliquePendant):
        edges = list(combinations(range(p.k), 2)) + [(0, p.k)]
        return Graph.from_edges(p.k + 1, edges)
    if isinstance(p, CliquePlusCliques):
        parts = [Graph.complete(p.k)] + [Graph.complete(p.t)] * p.f
        return Graph.disjoint_union(parts)
    return p.graph


def largest_component_size(p: TargetPattern) -> int:
    return max((c.bit_count() for c in components(pattern_graph(p))), default=0)


def copies(adj: tuple[int, ...], n: int, p: TargetPattern) -> Iterator[tuple[int, ...]]:
    """Every copy of ``p`` in the graph given by bitmask adjacency ``adj``, as
    the tuple whose entry i is the host vertex of vertex i of
    ``pattern_graph(p)``, lazily and in a fixed order: cliques by vertex
    tuple; K_k·K_2 by clique tuple, then attach vertex, then pendant vertex,
    as (attach, the other clique vertices ascending, pendant); K_k + fK_t as
    ``packings`` gives them; arbitrary targets in ``embeddings``'s
    backtrack order."""
    full = (1 << n) - 1
    if isinstance(p, Clique):
        yield from cliques(adj, full, p.k)
    elif isinstance(p, CliquePendant):
        for tpl in cliques(adj, full, p.k):
            smask = mask_of(tpl)
            for i, s in enumerate(tpl):
                for w in bits(adj[s] & ~smask):
                    yield (s, *tpl[:i], *tpl[i + 1:], w)
    elif isinstance(p, CliquePlusCliques):
        yield from packings(adj, full, p.k, p.f, p.t)
    elif isinstance(p, Arbitrary):
        yield from embeddings(adj, n, p.graph, {})
    else:
        raise InputError(f"unknown pattern type {type(p).__name__}")
