"""Vertex symmetry of graphs: degree refinement, canonical forms and
automorphisms.

The canonical form of a graph is the lexicographically least column-major
upper-triangle adjacency bitstring over the vertex orderings that list
vertices grouped by ascending refinement class; two graphs have equal forms
iff they are isomorphic. Automorphisms are found by a backtrack that maps
each vertex only into its own refinement class.
"""
from __future__ import annotations

from .graphs import Graph, bits

__all__ = [
    "refine",
    "canonical_key",
    "canonical_graph",
    "automorphisms",
]


def refine(g: Graph) -> list[int]:
    """Stable vertex classes under iterated degree refinement.

    Class ids are ranks of the class signatures, so isomorphic graphs assign
    identical id multisets and corresponding vertices get equal ids.
    """
    colour = list(g.degrees())
    while True:
        sig = [
            (colour[v], tuple(sorted(colour[u] for u in bits(g.adj[v]))))
            for v in range(g.n)
        ]
        ranks = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [ranks[s] for s in sig]
        if new == colour:
            return colour
        colour = new


def _canonical_columns(g: Graph) -> list[int]:
    """Minimum column-major adjacency bitstring over the orderings that list
    vertices grouped by ascending refinement class.

    Restricting to class-grouped orderings keeps the form isomorphism
    invariant (the classes are) while collapsing most tie branching. Column j
    holds the adjacency of the vertex placed at position j toward positions
    0..j-1, position 0 being the highest bit. Backtracking branches inside a
    class only, prunes against the best completed string, and skips
    interchangeable twin candidates.
    """
    n = g.n
    if n == 0:
        return []
    adj = g.adj
    colour = refine(g)
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colour):
        cells.setdefault(c, []).append(v)
    pos_cell: list[list[int]] = []
    for c in sorted(cells):
        pos_cell.extend([cells[c]] * len(cells[c]))

    best: list[int] | None = None
    placed: list[int] = []

    def column(v: int) -> int:
        col = 0
        row = adj[v]
        for u in placed:
            col = (col << 1) | ((row >> u) & 1)
        return col

    def rec(cols: list[int], used: int, tight: bool) -> None:
        nonlocal best
        j = len(placed)
        if j == n:
            if best is None or (not tight and cols < best):
                best = list(cols)
            return
        options: dict[int, list[int]] = {}
        for v in pos_cell[j]:
            if (used >> v) & 1:
                continue
            options.setdefault(column(v), []).append(v)
        for value in sorted(options):
            now_tight = tight
            if tight and best is not None:
                if value > best[j]:
                    break
                now_tight = value == best[j]
            reps: list[int] = []
            for v in options[value]:
                twin = any(
                    (adj[v] & ~(1 << w)) == (adj[w] & ~(1 << v)) for w in reps
                )
                if not twin:
                    reps.append(v)
            for v in reps:
                placed.append(v)
                cols.append(value)
                rec(cols, used | (1 << v), now_tight)
                cols.pop()
                placed.pop()

    rec([], 0, tight=False)
    assert best is not None
    return best


def canonical_key(g: Graph) -> tuple[int, int]:
    """Hashable canonical invariant (n, packed bitstring); equal iff isomorphic."""
    cols = _canonical_columns(g)
    key = 0
    for j, col in enumerate(cols):
        key = (key << j) | col
    return g.n, key


def canonical_graph(g: Graph) -> Graph:
    """The canonical representative of the isomorphism class of ``g``."""
    cols = _canonical_columns(g)
    edges = []
    for j, col in enumerate(cols):
        for i in range(j):
            if (col >> (j - 1 - i)) & 1:
                edges.append((i, j))
    return Graph.from_edges(g.n, edges)


def automorphisms(g: Graph, limit: int = 2000) -> list[tuple[int, ...]]:
    """Vertex automorphisms of ``g`` as permutation tuples, found by
    degree-refinement backtracking; at most ``limit`` are returned."""
    n = g.n
    colour = refine(g)
    out: list[tuple[int, ...]] = []
    perm: list[int] = [-1] * n
    used = [False] * n

    def rec(v: int) -> None:
        if len(out) >= limit:
            return
        if v == n:
            out.append(tuple(perm))
            return
        for w in range(n):
            if used[w] or colour[w] != colour[v]:
                continue
            if any(g.has_edge(u, v) != g.has_edge(perm[u], w) for u in range(v)):
                continue
            perm[v] = w
            used[w] = True
            rec(v + 1)
            used[w] = False

    rec(0)
    return out
