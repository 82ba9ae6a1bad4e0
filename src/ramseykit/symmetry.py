"""Vertex symmetry of graphs: degree refinement, canonical forms and
generators of the automorphism group.

The canonical form of a graph is the lexicographically least column-major
upper-triangle adjacency bitstring over the vertex orderings that list
vertices grouped by ascending refinement class; two graphs have equal forms
iff they are isomorphic. Its backtrack follows only the least next column and
cuts a branch once its prefix exceeds the best string's. The packed key is
the canonical graph's ``Graph.bits()``, its graph6 payload, so
``Graph.from_bits`` decodes it. A generating set of the automorphism
group is found level by level, as nauty does, by a backtrack that maps each
vertex only into its own refinement class; the whole group is its closure.
This module is the one place that applies the group: ``edge_perms`` gives
its action on edge indices, which the arrowing search uses for lex-leader
symmetry breaking; its orbits on edges let minimality checks search one edge
deletion per orbit, and its orbits on vertex subsets pick the extensions
graph enumeration tries. Both orbit lists come from one walk.
Enumeration canonicalises only the extensions whose new vertex lies in the
top refinement class, which every graph has for some extension: class ids
are isomorphism invariant.
"""
from __future__ import annotations

import time

from .graphs import Graph, bits, mask_of

__all__ = [
    "refine",
    "canonical_key",
    "canonical_graph",
    "generators",
    "edge_perms",
    "subset_orbit_reps",
    "edge_orbits",
]


def refine(g: Graph) -> list[int]:
    """Stable vertex classes under iterated degree refinement.

    Class ids are ranks of the class signatures, so isomorphic graphs assign
    identical id multisets and corresponding vertices get equal ids. A
    signature starts with the vertex's previous id, so a vertex of larger
    degree gets a larger id, and the top class holds only maximum-degree
    vertices. A class of one vertex cannot split, so its vertex's
    neighbour colours are not collected (see ``_refine``).
    """
    return _refine([list(bits(row)) for row in g.adj], g.degrees())


def _refine(nbrs: list[list[int]], colour: list[int]) -> list[int]:
    """Refinement of the colouring ``colour`` of the graph with neighbour
    lists ``nbrs``, with the ids ranked as in ``refine``.

    A vertex alone in its class gets the signature (id, ()) in place of
    (id, sorted neighbour colours): no other signature starts with its id,
    so its rank among the signatures, and every other vertex's, is the same
    whatever its tuple."""
    count = len(set(colour))
    while True:
        sig = [
            (c, tuple(sorted([colour[u] for u in nb]))) if colour.count(c) > 1 else (c, ())
            for c, nb in zip(colour, nbrs)
        ]
        ranks = {s: i for i, s in enumerate(sorted(set(sig)))}
        colour = [ranks[s] for s in sig]
        # no class split: the partition is stable, and ranking it once more
        # would return these ids unchanged
        if len(ranks) == count:
            return colour
        count = len(ranks)


def _canonical_columns(g: Graph, colour: list[int] | None = None) -> list[int]:
    """Minimum column-major adjacency bitstring over the orderings that list
    vertices grouped by ascending refinement class. ``colour``, when given,
    must be ``refine(g)``.

    Restricting to class-grouped orderings keeps the form isomorphism
    invariant (the classes are) while collapsing most tie branching. Column j
    holds the adjacency of the vertex placed at position j toward positions
    0..j-1, position 0 being the highest bit, and strings compare column by
    column. A column depends only on the vertices placed before it, so only
    the candidates with the least column can start the least string, and
    the backtrack branches on those alone, skipping interchangeable twins.
    A prefix that equals the best completed string's prefix is tight: a
    tight branch whose column exceeds the best one is cut, and once a branch
    has returned, the best string extends the current prefix, so the
    remaining branches are tight.
    """
    n = g.n
    if n == 0:
        return []
    adj = g.adj
    if colour is None:
        colour = refine(g)
    cells: dict[int, int] = {}
    for v, c in enumerate(colour):
        cells[c] = cells.get(c, 0) | (1 << v)
    pos_cell: list[int] = []
    for c in sorted(cells):
        pos_cell.extend([cells[c]] * cells[c].bit_count())

    best: list[int] = []  # empty until the first string is completed
    _least_columns(adj, pos_cell, [], [], best, 0, False)
    return best


def _least_columns(adj, pos_cell: list, placed: list, cols: list, best: list, used: int, tight: bool):
    """The backtrack of ``_canonical_columns``: ``placed`` lists the vertices
    at positions 0..j-1, ``used`` is their mask, ``cols`` their columns, and
    ``pos_cell[j]`` the mask of the class that position j draws from.
    ``best`` is overwritten in place by each string that is smaller than it,
    or by the first one; ``tight`` says that ``cols`` is a prefix of
    ``best``.

    The least column, and the candidates that have it, come from one pass
    over the placed vertices: at each one, in position order, the candidates
    that miss it are kept if there are any, and its bit of the column is 0,
    else it is 1. A position whose least column only one candidate has is
    forced: the candidate is placed in a loop, and a call recurses only
    where two or more candidates share the least column, in ascending
    order. The positions a call fills are emptied again before it
    returns."""
    start = len(placed)
    while True:
        j = len(placed)
        if j == len(pos_cell):
            if not tight:  # a strictly smaller prefix, or the first string
                best[:] = cols
            break
        least = pos_cell[j] & ~used
        value = 0
        for u in placed:
            apart = least & ~adj[u]
            if apart:
                least = apart
                value <<= 1
            else:
                value = (value << 1) | 1
        if tight:
            if value > best[j]:
                break
            tight = value == best[j]
        cols.append(value)
        if least & (least - 1) == 0:
            placed.append(least.bit_length() - 1)
            used |= least
            continue
        reps: list[int] = []
        for v in bits(least):
            if any((adj[v] & ~(1 << w)) == (adj[w] & ~(1 << v)) for w in reps):
                continue  # the transposition (v w) is an automorphism fixing the prefix
            reps.append(v)
            placed.append(v)
            _least_columns(adj, pos_cell, placed, cols, best, used | (1 << v), tight)
            placed.pop()
            tight = True  # best now extends cols
        break
    del placed[start:], cols[start:]


def canonical_key(g: Graph, colour: list[int] | None = None) -> tuple[int, int]:
    """Hashable canonical invariant (n, packed bitstring); equal iff isomorphic.

    Column j takes the next j bits, so the packed bitstring is the
    ``bits()`` of the canonical graph, its graph6 payload, and
    ``Graph.from_bits(*key)`` is that graph. A caller that has already
    refined ``g`` passes ``colour=refine(g)`` so that the refinement is not
    computed twice."""
    cols = _canonical_columns(g, colour)
    key = 0
    for j, col in enumerate(cols):
        key = (key << j) | col
    return g.n, key


def canonical_graph(g: Graph) -> Graph:
    """The canonical representative of the isomorphism class of ``g``."""
    return Graph.from_bits(*canonical_key(g))


def _search_order(adj, v: int) -> list[int]:
    """The vertices after ``v`` in the order ``_first_automorphism`` maps
    them: each next vertex has the most neighbours among ``0..v`` and the
    vertices before it, the least label on ties. It depends on ``v`` alone,
    not on the image of ``v``."""
    placed = (1 << (v + 1)) - 1
    rest = list(range(v + 1, len(adj)))
    order: list[int] = []
    while rest:
        x = max(rest, key=lambda y: (adj[y] & placed).bit_count())
        rest.remove(x)
        order.append(x)
        placed |= 1 << x
    return order


def _first_automorphism(adj, cell: list[int], order: list[int], v: int, w: int, deadline) -> tuple[int, ...] | None:
    """The first automorphism, in backtrack order, of the graph with
    adjacency ``adj`` that fixes ``0..v-1`` and maps ``v`` to ``w``, or None
    when there is none or ``deadline`` passes first.

    The vertices after ``v`` are mapped one at a time, in the order
    ``order = _search_order(adj, v)``, each into its own refinement class
    (``cell[x]`` is the mask of x's class). That order puts every vertex
    after as many of its neighbours as possible, so adjacency to mapped
    vertices cuts the candidates early.
    """
    fixed = (1 << v) - 1
    if adj[v] & fixed != adj[w] & fixed:
        return None
    perm = list(range(len(adj)))
    perm[v] = w
    if _map_rest(adj, cell, order, perm, 0, fixed | (1 << v), fixed | (1 << w), deadline):
        return tuple(perm)
    return None


def _map_rest(adj, cell: list, order: list, perm: list, t: int, dom: int, img: int, deadline) -> bool:
    """The backtrack of ``_first_automorphism``: extend ``perm``, which maps
    the vertices of ``dom`` onto those of ``img``, to ``order[t:]``; True
    once every vertex is mapped. Every call checks ``deadline``, when given,
    and once it has passed answers False, so the whole backtrack unwinds."""
    if t == len(order):
        return True
    if deadline is not None and time.monotonic() > deadline:
        return False
    x = order[t]
    target = mask_of(perm[u] for u in bits(adj[x] & dom))
    for y in bits(cell[x] & ~img):
        if adj[y] & img == target:
            perm[x] = y
            if _map_rest(adj, cell, order, perm, t + 1, dom | (1 << x), img | (1 << y), deadline):
                return True
    return False


def _cells(colour: list[int]) -> list[int]:
    """The mask of each vertex's class under ``colour``."""
    masks: dict[int, int] = {}
    for x, c in enumerate(colour):
        masks[c] = masks.get(c, 0) | (1 << x)
    return [masks[c] for c in colour]


def generators(g: Graph, deadline: float | None = None) -> list[tuple[int, ...]]:
    """A generating set of Aut(g) as vertex permutation tuples.

    Level ``v`` works in the refinement of ``g`` with ``0..v-1``
    individualised; every automorphism fixing ``0..v-1`` keeps its classes.
    Levels run from the deepest non-discrete one to vertex 0. At level ``v``
    the generators found so far fix ``0..v-1``; for every ``w > v`` in v's
    class that is not yet in the orbit of ``v`` under them, the first
    automorphism fixing ``0..v-1`` and mapping ``v`` to ``w`` is kept. By the
    Schreier argument the kept permutations then generate the stabiliser of
    ``0..v-1`` at every level, and at level 0 the whole group.

    A base vertex already alone in its class is not individualised: the
    partition it would give is the one it has, and only the partition is
    read. Such a level has no ``w`` to try. The backtrack's vertex order is
    built once per level, and a kept permutation merges orbits only at the
    vertices it moves.

    ``deadline``, a ``time.monotonic()`` value, is checked before each
    backtrack of ``_first_automorphism`` and at every step inside it; once
    it has passed, the automorphisms found so far are returned. A backtrack
    cut short counts as one that found none, so the kept permutations still
    generate a subgroup of Aut(g). That is all that lex-leader pruning
    needs, and its orbits are finer than the group's, so a verdict shared
    across one of them is still shared by isomorphic graphs.
    """
    n, adj = g.n, g.adj
    nbrs = [list(bits(row)) for row in adj]
    levels: list[list[int]] = []  # levels[v]: the class masks with 0..v-1 individualised
    colour = _refine(nbrs, g.degrees())
    cell = _cells(colour)
    while len(set(cell)) < n:  # a discrete level has a trivial stabiliser
        v = len(levels)
        levels.append(cell)
        if cell[v] != 1 << v:
            colour = list(colour)
            colour[v] = n  # individualise: ranks are below n
            colour = _refine(nbrs, colour)
            cell = _cells(colour)
    orbit = list(range(n))  # union-find over vertex orbits

    def find(x: int) -> int:
        while orbit[x] != x:
            orbit[x] = orbit[orbit[x]]
            x = orbit[x]
        return x

    out: list[tuple[int, ...]] = []
    for v in range(len(levels) - 1, -1, -1):
        cell = levels[v]
        order = None
        for w in bits(cell[v] >> (v + 1) << (v + 1)):
            if find(w) == find(v):
                continue
            if deadline is not None and time.monotonic() > deadline:
                return out
            if order is None:
                order = _search_order(adj, v)
            sigma = _first_automorphism(adj, cell, order, v, w, deadline)
            if sigma is None:
                continue
            out.append(sigma)
            for x, y in enumerate(sigma):
                if x != y:
                    orbit[find(x)] = find(y)
    return out


def edge_perms(g: Graph, deadline: float | None = None) -> list[tuple[int, ...]]:
    """The permutations of edge indices induced by ``generators(g,
    deadline)`` and their inverses, without the identity, sorted; ``pi[j]``
    is the index in ``g.edges()`` of the image of edge j."""
    edges = g.edges()
    # a dict beats rank arithmetic per edge, and dies with the call
    idx = {e: i for i, e in enumerate(edges)}
    out: set[tuple[int, ...]] = set()
    for sigma in generators(g, deadline):
        pi = []
        for u, v in edges:
            a, b = sigma[u], sigma[v]
            pi.append(idx[(a, b) if a < b else (b, a)])
        inv = [0] * len(pi)
        for j, k in enumerate(pi):
            inv[k] = j
        out.update((tuple(pi), tuple(inv)))
    out.discard(tuple(range(len(edges))))
    return sorted(out)


def _orbits(size: int, perms: list) -> list[list[int]]:
    """The orbits of the group generated by ``perms``, permutations of
    ``range(size)``, each ascending, listed by least member.

    Indices are visited in ascending order; the first one not yet reached is
    the least of its orbit, which is then walked under ``perms``.
    """
    seen = bytearray(size)
    out = []
    for i in range(size):
        if seen[i]:
            continue
        seen[i] = 1
        orbit = [i]
        for x in orbit:  # grows while it is read
            for pi in perms:
                y = pi[x]
                if not seen[y]:
                    seen[y] = 1
                    orbit.append(y)
        orbit.sort()
        out.append(orbit)
    return out


def subset_orbit_reps(g: Graph) -> list[int]:
    """The least vertex-subset mask of each orbit of Aut(g) on the subsets of
    its vertices, ascending."""
    size = 1 << g.n
    images = []
    for sigma in generators(g):
        image = [0] * size
        for m in range(1, size):
            low = m & -m
            image[m] = image[m ^ low] | (1 << sigma[low.bit_length() - 1])
        images.append(image)
    return [orbit[0] for orbit in _orbits(size, images)]


def edge_orbits(g: Graph, deadline: float | None = None) -> list[list[tuple[int, int]]]:
    """The orbits of Aut(g) on the edges of ``g``, each ascending, listed by
    least edge. Once ``deadline`` passes (see ``generators``) they are the
    orbits of a subgroup, which split the group's orbits."""
    edges = g.edges()
    return [[edges[j] for j in orbit] for orbit in _orbits(len(edges), edge_perms(g, deadline))]
