"""Vertex symmetry of graphs: degree refinement, canonical forms and
automorphisms.

The canonical form of a graph is the lexicographically least column-major
upper-triangle adjacency bitstring over the vertex orderings that list
vertices grouped by ascending refinement class; two graphs have equal forms
iff they are isomorphic. A generating set of the automorphism group is found
level by level, as nauty does, by a backtrack that maps each vertex only into
its own refinement class; the whole group is its closure.
"""
from __future__ import annotations

from .graphs import Graph, bits, mask_of

__all__ = [
    "refine",
    "canonical_key",
    "canonical_graph",
    "generators",
    "automorphisms",
]


def refine(g: Graph) -> list[int]:
    """Stable vertex classes under iterated degree refinement.

    Class ids are ranks of the class signatures, so isomorphic graphs assign
    identical id multisets and corresponding vertices get equal ids.
    """
    return _refine([list(bits(row)) for row in g.adj], g.degrees())


def _refine(nbrs: list[list[int]], colour: list[int]) -> list[int]:
    """Refinement of the colouring ``colour`` of the graph with neighbour
    lists ``nbrs``, with the ids ranked as in ``refine``."""
    count = len(set(colour))
    while True:
        sig = [(colour[v], tuple(sorted([colour[u] for u in nb]))) for v, nb in enumerate(nbrs)]
        ranks = {s: i for i, s in enumerate(sorted(set(sig)))}
        colour = [ranks[s] for s in sig]
        # no class split: the partition is stable, and ranking it once more
        # would return these ids unchanged
        if len(ranks) == count:
            return colour
        count = len(ranks)


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


def _first_automorphism(g: Graph, cell: list[int], v: int, w: int) -> tuple[int, ...] | None:
    """The first automorphism, in backtrack order, that fixes ``0..v-1`` and
    maps ``v`` to ``w``, or None when there is none.

    The vertices after ``v`` are mapped one at a time, each into its own
    refinement class (``cell[x]`` is the mask of x's class), in an order that
    puts every vertex after as many of its neighbours as possible, so
    adjacency to mapped vertices cuts the candidates early.
    """
    n, adj = g.n, g.adj
    fixed = (1 << v) - 1
    if adj[v] & fixed != adj[w] & fixed:
        return None
    perm = list(range(n))
    perm[v] = w
    order: list[int] = []
    placed = fixed | (1 << v)
    rest = list(range(v + 1, n))
    while rest:
        x = max(rest, key=lambda y: (adj[y] & placed).bit_count())
        rest.remove(x)
        order.append(x)
        placed |= 1 << x

    def rec(t: int, dom: int, img: int) -> bool:
        if t == len(order):
            return True
        x = order[t]
        target = mask_of(perm[u] for u in bits(adj[x] & dom))
        for y in bits(cell[x] & ~img):
            if adj[y] & img == target:
                perm[x] = y
                if rec(t + 1, dom | (1 << x), img | (1 << y)):
                    return True
        return False

    if rec(0, fixed | (1 << v), fixed | (1 << w)):
        return tuple(perm)
    return None


def generators(g: Graph) -> list[tuple[int, ...]]:
    """A generating set of Aut(g) as vertex permutation tuples.

    Level ``v`` works in the refinement of ``g`` with ``0..v-1``
    individualised; every automorphism fixing ``0..v-1`` keeps its classes.
    Levels run from the deepest non-discrete one to vertex 0. At level ``v``
    the generators found so far fix ``0..v-1``; for every ``w > v`` in v's
    class that is not yet in the orbit of ``v`` under them, the first
    automorphism fixing ``0..v-1`` and mapping ``v`` to ``w`` is kept. By the
    Schreier argument the kept permutations then generate the stabiliser of
    ``0..v-1`` at every level, and at level 0 the whole group.
    """
    n = g.n
    nbrs = [list(bits(row)) for row in g.adj]
    levels: list[list[int]] = []
    colour = _refine(nbrs, g.degrees())
    while len(set(colour)) < n:  # a discrete level has a trivial stabiliser
        levels.append(colour)
        colour = list(colour)
        colour[len(levels) - 1] = n  # individualise: ranks are below n
        colour = _refine(nbrs, colour)
    orbit = list(range(n))  # union-find over vertex orbits

    def find(x: int) -> int:
        while orbit[x] != x:
            orbit[x] = orbit[orbit[x]]
            x = orbit[x]
        return x

    out: list[tuple[int, ...]] = []
    for v in range(len(levels) - 1, -1, -1):
        colour = levels[v]
        masks: dict[int, int] = {}
        for x, c in enumerate(colour):
            masks[c] = masks.get(c, 0) | (1 << x)
        cell = [masks[c] for c in colour]
        for w in bits(cell[v] >> (v + 1) << (v + 1)):
            if find(w) == find(v):
                continue
            sigma = _first_automorphism(g, cell, v, w)
            if sigma is None:
                continue
            out.append(sigma)
            for x in range(n):
                orbit[find(x)] = find(sigma[x])
    return out


def automorphisms(g: Graph, limit: int = 2000) -> list[tuple[int, ...]]:
    """Vertex automorphisms of ``g`` as permutation tuples, the identity first:
    the closure of ``generators(g)`` under composition, cut off at ``limit``."""
    gens = generators(g)
    out = [tuple(range(g.n))][:limit]
    seen = set(out)
    for p in out:  # grows while it is read: a breadth-first closure
        for s in gens:
            if len(out) >= limit:
                return out
            q = tuple(s[x] for x in p)
            if q not in seen:
                seen.add(q)
                out.append(q)
    return out
