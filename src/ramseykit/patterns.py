"""Monochromatic target patterns and the two-colour vocabulary.

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
from typing import Union

from .errors import InputError
from .formats import read_graph
from .graphs import Graph, components

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
